"""The replay driver, scoring, decision logs and plot data.

``replay`` is the one loop that feeds a ``Trace`` or a ``FeatureTable`` to a
detector or a device bank. ``ground_truth`` slices the labels and attack
types of a detector's decisions from its input's columns (see ``replay``).

Rates follow the usual confusion-matrix definitions, reported as percentages:
accuracy, TPR (recall on attacks), FNR, TNR, FPR. Per-attack-type accuracy is
the fraction of that type's rows classified correctly. Rates whose
denominator is zero are reported as None.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .config import Config
from .detector import Decision, Detector
from .devices import DeviceBank, InfectionReport
from .traffic import FeatureTable, Trace

DECISION_LOG_FIELDS = ("timestamp_us", "decision_value", "threshold", "is_attack", "mode")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


def _pct(num: int, den: int) -> Optional[float]:
    return None if den == 0 else 100.0 * num / den


@dataclass
class EvalReport:
    """Rates over ``decisions``, the very sequence ``score`` was given."""

    counts: ConfusionCounts
    accuracy: float
    tpr: Optional[float]
    fnr: Optional[float]
    tnr: Optional[float]
    fpr: Optional[float]
    per_attack_type: Dict[str, float]
    decisions: Sequence[Decision]

    def to_dict(self) -> dict:
        return {
            "counts": asdict(self.counts),
            "rates": {"accuracy": self.accuracy, "tpr": self.tpr, "fnr": self.fnr,
                      "tnr": self.tnr, "fpr": self.fpr},
            "per_attack_type": dict(self.per_attack_type),
            "decision_series": [[d.at_us, d.value, d.threshold] for d in self.decisions],
        }

    def summary(self) -> str:
        def fmt(v):
            return "n/a" if v is None else f"{v:.2f}"
        c = self.counts
        return (f"accuracy {fmt(self.accuracy)}  tpr {fmt(self.tpr)}  fnr {fmt(self.fnr)}  "
                f"tnr {fmt(self.tnr)}  fpr {fmt(self.fpr)}  "
                f"(tp {c.tp} fn {c.fn} tn {c.tn} fp {c.fp})")


def score(decisions: Sequence[Decision], labels: Sequence[Optional[bool]],
          attack_types: Optional[Sequence[Optional[str]]] = None) -> EvalReport:
    """Score decisions against ground truth.

    Every decision must have a label; offending row indices are listed
    otherwise. ``attack_types`` (parallel to the rows) feeds the per-type
    accuracy map; rows without a type only contribute to the aggregate.
    """
    if len(decisions) != len(labels):
        raise ValueError(f"{len(decisions)} decisions but {len(labels)} labels")
    if len(decisions) == 0:
        raise ValueError("nothing to score: empty decision sequence")
    missing = [i for i, lab in enumerate(labels) if lab is None]
    if missing:
        shown = ", ".join(str(i) for i in missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise ValueError(f"rows without ground-truth labels: {shown}{more}")
    if attack_types is not None and len(attack_types) != len(decisions):
        raise ValueError("attack_types length does not match decisions")

    tp = fn = tn = fp = 0
    type_total: Dict[str, int] = {}
    type_correct: Dict[str, int] = {}
    for i, (dec, label) in enumerate(zip(decisions, labels)):
        correct = dec.is_attack == label
        if label:
            tp += dec.is_attack
            fn += not dec.is_attack
        else:
            tn += not dec.is_attack
            fp += dec.is_attack
        if attack_types is not None:
            at = attack_types[i]
            if at:
                type_total[at] = type_total.get(at, 0) + 1
                type_correct[at] = type_correct.get(at, 0) + int(correct)

    counts = ConfusionCounts(tp=tp, fn=fn, tn=tn, fp=fp)
    per_type = {name: 100.0 * type_correct[name] / type_total[name]
                for name in sorted(type_total)}
    return EvalReport(
        counts=counts,
        accuracy=_pct(tp + tn, counts.total),
        tpr=_pct(tp, tp + fn), fnr=_pct(fn, tp + fn),
        tnr=_pct(tn, tn + fp), fpr=_pct(fp, tn + fp),
        per_attack_type=per_type,
        decisions=decisions,
    )


# ---------------------------------------------------------------------------
# The replay driver


def replay(engine: Union[Detector, DeviceBank], items: Union[Trace, FeatureTable]
           ) -> Iterator[Tuple[Optional[str], Decision]]:
    """Feed a trace or a feature table to one detector or a device bank and
    yield ``(addr, decision)`` for every decision, in order.

    ``addr`` is the device a bank's decision is about, None for a single
    detector. A fresh FEATURES detector fits its init window in one go
    (``Detector.step_rows``). For a single detector, the items that feed
    init form a prefix of ``items`` and every later item yields exactly one
    decision, so n decisions belong to the last n items (``ground_truth``).
    """
    if isinstance(engine, DeviceBank):
        for pkt in items:
            yield from engine.ingest(pkt)
        return
    for decision in engine.step_rows(items):
        if decision is not None:
            yield None, decision


def ground_truth(items: Union[Trace, FeatureTable], n: int) -> Tuple[tuple, tuple]:
    """The labels and attack types of a single detector's ``n`` decisions on
    ``items``: the columns past ``len(items) - n`` (see ``replay``)."""
    start = len(items) - n  # not [-n:], which is every item when n is 0
    return items.label[start:], items.attack_type[start:]


@dataclass
class RunResult:
    """Decisions plus the ground truth for the rows that produced them."""

    decisions: List[Decision]
    labels: Sequence[Optional[bool]]
    attack_types: Sequence[Optional[str]]
    skipped: int  # rows consumed by init

    def report(self) -> EvalReport:
        return score(self.decisions, self.labels, self.attack_types)


def run(detector: Detector, items: Union[Trace, FeatureTable]) -> RunResult:
    """Replay a trace or a feature table through one detector, keeping every
    decision with its item's ground truth."""
    decisions = [decision for _, decision in replay(detector, items)]
    return RunResult(decisions, *ground_truth(items, len(decisions)),
                     len(items) - len(decisions))


@dataclass
class CompareResult:
    offline: EvalReport
    online: EvalReport


def compare_online_offline(trace: Trace, config: Config) -> CompareResult:
    """Run the same labeled trace twice — init then frozen, versus init then
    windowed incremental updates — and score both runs. Every packet that
    init consumed must be labeled benign."""
    offline = run(Detector(3, config, online=False), trace)
    if not offline.decisions:
        raise ValueError(f"trace has {len(trace)} packets and init never completed")
    for i, label in enumerate(trace.label[:offline.skipped]):
        if label is not False:
            raise ValueError(f"packet {i} fed init but is not labeled benign")
    online = run(Detector(3, config, online=True), trace)
    return CompareResult(offline=offline.report(), online=online.report())


# ---------------------------------------------------------------------------
# Decision logs and plot data


def read_decision_log(path: Union[str, Path]) -> List[Decision]:
    """Read a decision log back; a malformed row is an error naming its
    ``path:line``."""
    path = Path(path)
    decisions: List[Decision] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != DECISION_LOG_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(DECISION_LOG_FIELDS)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(DECISION_LOG_FIELDS):
                raise ValueError(f"{path}:{line_no}: expected {len(DECISION_LOG_FIELDS)} columns")
            try:
                at_us, value, threshold = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if row[3].strip() not in ("0", "1"):
                raise ValueError(f"{path}:{line_no}: is_attack must be 0 or 1, got {row[3]!r}")
            decisions.append(Decision(at_us, value, threshold, row[3].strip() == "1"))
    return decisions


def align_with_trace(decisions: Sequence[Decision], trace: Trace) -> Tuple[tuple, tuple]:
    """Pair logged decisions with trace ground truth (``ground_truth``).

    Decisions correspond to the trailing packets of the trace (the leading
    ones fed init). Timestamps must match row for row; the first mismatch is
    reported.
    """
    offset = len(trace) - len(decisions)
    if offset < 0:
        raise ValueError(f"{len(decisions)} decisions but only {len(trace)} trace rows")
    logged = [dec.at_us for dec in decisions]
    expected = trace.timestamp_us[offset:].tolist()
    if logged != expected:
        i = next(i for i, (got, want) in enumerate(zip(logged, expected)) if got != want)
        raise ValueError(
            f"log/trace misalignment at decision row {i}: "
            f"decision timestamp {logged[i]} != trace timestamp {expected[i]}")
    return ground_truth(trace, len(decisions))


def emit_plot_data(report: Union[EvalReport, InfectionReport],
                   out_dir: Union[str, Path]) -> List[Path]:
    """Write plottable CSV series for a report; returns the files written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    if isinstance(report, InfectionReport):
        path = out_dir / "infection_levels.csv"
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["addr", "infection_level", "peak_level", "is_compromised",
                             "decisions_count"])
            for row in report.devices:
                writer.writerow([row.addr, repr(row.infection_level), repr(row.peak_level),
                                 int(row.is_compromised), row.decisions_count])
        written.append(path)
        return written

    path = out_dir / "decision_series.csv"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp_us", "decision_value", "threshold"])
        for d in report.decisions:
            writer.writerow([d.at_us, repr(d.value), repr(d.threshold)])
    written.append(path)

    path = out_dir / "per_type_accuracy.csv"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["attack_type", "accuracy_pct"])
        for name, acc in report.per_attack_type.items():
            writer.writerow([name, repr(acc)])
    written.append(path)
    return written
