"""The replay driver, scoring, and the files a run writes.

``replay`` is the one loop that feeds a ``Trace`` or a ``FeatureTable`` to a
detector or a device bank. ``ground_truth`` slices the labels and attack
types of a detector's decisions from its input's columns (see ``replay``).
A run's result is its ``EvalReport`` (``run``; ``compare_online_offline``
returns two) or a device bank's ``InfectionReport``. The decision log (its
fields, streaming writer and reader, a row converter for ``traffic.read_csv``),
the alert line and either kind's report files (``write_report``) live here.

Rates follow the usual confusion-matrix definitions, reported as percentages:
accuracy, TPR (recall on attacks), FNR, TNR, FPR. Per-attack-type accuracy is
the fraction of that type's rows classified correctly. Rates whose
denominator is zero are reported as None.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .config import Config
from .detector import Decision, Detector
from .devices import DeviceBank, InfectionReport
from .traffic import FeatureTable, Trace, read_csv, replace_file, write_csv
from .training import TrainingError

DECISION_LOG_FIELDS = ("timestamp_us", "decision_value", "threshold", "is_attack", "mode")
RATES = ("accuracy", "tpr", "fnr", "tnr", "fpr")  # an EvalReport's rate fields


class ConfusionCounts(NamedTuple):
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


def _pct(num: int, den: int) -> Optional[float]:
    return None if den == 0 else 100.0 * num / den


class EvalReport(NamedTuple):
    """Rates over ``decisions``, the very sequence ``score`` was given."""

    counts: ConfusionCounts
    accuracy: float
    tpr: Optional[float]
    fnr: Optional[float]
    tnr: Optional[float]
    fpr: Optional[float]
    per_attack_type: Dict[str, float]
    decisions: Sequence[Decision]

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

    outcomes = Counter((bool(label), bool(d.is_attack)) for d, label in zip(decisions, labels))
    tp, fn, tn, fp = (outcomes[True, True], outcomes[True, False], outcomes[False, False],
                      outcomes[False, True])
    typed = Counter((kind, d.is_attack == label)  # (attack type, judged right): its rows
                    for d, label, kind in zip(decisions, labels, attack_types or ()) if kind)
    per_type = {kind: 100.0 * typed[kind, True] / (typed[kind, True] + typed[kind, False])
                for kind in sorted({kind for kind, _ in typed})}
    counts = ConfusionCounts(tp=tp, fn=fn, tn=tn, fp=fp)
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
    detector, which ``Detector.step_rows`` feeds. For a single detector, the
    items that feed init form a prefix of ``items`` and every later item
    yields exactly one decision, so n decisions belong to the last n items
    (``ground_truth``).
    A row whose window refit raises was judged first: its decision, and a
    device bank's other decisions on that packet, are yielded before the
    error propagates.
    """
    try:
        if isinstance(engine, DeviceBank):
            for pkt in items:
                yield from engine.ingest(pkt)
        else:
            for decision in engine.step_rows(items):
                yield None, decision
    except (TrainingError, ValueError) as exc:
        yield from getattr(exc, "decisions", ())
        raise


def ground_truth(items: Union[Trace, FeatureTable], n: int) -> Tuple[tuple, tuple]:
    """The labels and attack types of a single detector's ``n`` decisions on
    ``items``: the columns past ``len(items) - n`` (see ``replay``)."""
    start = len(items) - n  # not [-n:], which is every item when n is 0
    return items.label[start:], items.attack_type[start:]


def run(detector: Detector, items: Union[Trace, FeatureTable]) -> EvalReport:
    """Replay a trace or a feature table through one detector and score every
    decision against its item's ground truth; ``score`` raises on an unlabeled
    input or a run with no decisions (``replay`` yields raw decisions)."""
    decisions = [decision for _, decision in replay(detector, items)]
    return score(decisions, *ground_truth(items, len(decisions)))


def compare_online_offline(trace: Trace, config: Config) -> Tuple[EvalReport, EvalReport]:
    """Run the same labeled trace twice — init then frozen, versus init then
    windowed incremental updates — and return the ``(offline, online)``
    reports. Every packet that init consumed must be labeled benign."""
    offline = [decision for _, decision in replay(Detector(3, config, online=False), trace)]
    if not offline:
        raise ValueError(f"trace has {len(trace)} packets and init never completed")
    for i, label in enumerate(trace.label[:len(trace) - len(offline)]):
        if label is not False:
            raise ValueError(f"packet {i} fed init but is not labeled benign")
    return (score(offline, *ground_truth(trace, len(offline))),
            run(Detector(3, config, online=True), trace))


# ---------------------------------------------------------------------------
# Decision logs, alerts and report files


_LOG_FLUSH_EVERY = 1024


class _DecisionLogWriter:
    """Streams a run's decision-log rows, flushed every ``_LOG_FLUSH_EVERY`` rows and at close.
    Rows are plain lines: an int, two float reprs, 0 or 1 and a mode name never need csv quoting."""

    def __init__(self, path: Optional[str], mode: str):
        self._fh = open(path, "w", newline="\n", encoding="utf-8") if path else None
        self._mode = mode
        self._rows = 0
        if self._fh:
            self._fh.write(",".join(DECISION_LOG_FIELDS) + "\n")

    def write(self, d: Decision) -> None:
        if self._fh is None:
            return
        self._fh.write(f"{d.at_us},{d.value!r},{d.threshold!r},{int(d.is_attack)},{self._mode}\n")
        self._rows += 1
        if self._rows % _LOG_FLUSH_EVERY == 0:
            self._fh.flush()

    def __enter__(self) -> "_DecisionLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh:
            self._fh.close()


def _emit_alert(fh, decision: Decision, mode: str, addr: Optional[str]) -> None:
    """One alert as a JSON line, flushed at once; ``addr`` names a device bank's device."""
    doc = {"timestamp_us": decision.at_us, "decision_value": decision.value,
           "threshold": decision.threshold, "mode": mode}
    if addr is not None:
        doc["addr"] = addr
    fh.write(json.dumps(doc, sort_keys=True) + "\n")
    fh.flush()


def read_decision_log(path: Union[str, Path], mode: Optional[str] = None) -> List[Decision]:
    """Read a decision log back with ``read_csv``; a malformed row, or one
    whose mode differs from the first row's, is an error naming its
    ``path:line``. With ``mode``, a log of any other mode is an error naming it.
    Oracle: tests/oracles.py:per_row_read_decision_log; property:
    tests/test_evaluation.py::test_decision_log_reader_equals_the_per_row_reader_on_generated_files.
    """
    log_mode = None

    def row(record):
        nonlocal log_mode
        at_us, value, threshold = int(record[0]), float(record[1]), float(record[2])
        if record[3].strip() not in ("0", "1"):
            raise ValueError(f"is_attack must be 0 or 1, got {record[3]!r}")
        if log_mode not in (None, record[4].strip()):
            raise ValueError(f"mode {record[4]!r} in a {log_mode} log")
        log_mode = record[4].strip()
        return at_us, value, threshold, record[3].strip() == "1"

    decisions = [Decision(*fields) for block in read_csv(path, DECISION_LOG_FIELDS, None, row)
                 for fields in zip(*block)]
    if mode is not None and log_mode not in (None, mode):
        raise ValueError(f"{Path(path)}: a {log_mode} decision log, expected a {mode} log")
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


# The plot files ``write_report`` writes, by whether its report is a device bank's.
PLOT_FILES = {False: ("decision_series.csv", "per_type_accuracy.csv"),
              True: ("infection_levels.csv",)}


def write_report(report: Union[EvalReport, InfectionReport], config: Config,
                 json_path: Optional[Union[str, Path]] = None,
                 plots_dir: Optional[Union[str, Path]] = None) -> List[Path]:
    """Write the report at ``json_path``, strict sorted JSON with ``config`` attached,
    through ``replace_file`` (a value JSON cannot hold, such as a logged ``nan``, raises
    ValueError and leaves no file), then the ``PLOT_FILES`` CSVs in ``plots_dir``, made
    if missing; a path left None is not written. Returns the plot files written."""
    devices = isinstance(report, InfectionReport)
    if devices:  # the document is built only when it is written
        doc = json_path and {"devices": [row._asdict() for row in report.devices],
                             "summary": {"packets": report.packets,
                                         "devices": len(report.devices),
                                         "compromised": list(report.compromised)}}
        tables = [(("addr", "infection_level", "peak_level", "is_compromised", "decisions_count"),
                   ((row.addr, row.infection_level, row.peak_level, int(row.is_compromised),
                     row.decisions_count) for row in report.devices))]
    else:
        doc = json_path and {
            "counts": report.counts._asdict(),
            "rates": {name: getattr(report, name) for name in RATES},
            "per_attack_type": dict(report.per_attack_type),
            "decision_series": [d[:3] for d in report.decisions]}  # the log's first columns
        tables = [(DECISION_LOG_FIELDS[:3], (d[:3] for d in report.decisions)),
                  (("attack_type", "accuracy_pct"), report.per_attack_type.items())]
    if json_path:
        with replace_file(json_path) as fh:
            json.dump(dict(doc, config=config.to_dict()), fh, indent=1, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
    if not plots_dir:
        return []
    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    return [write_csv(plots_dir / name, *table) for name, table in zip(PLOT_FILES[devices], tables)]
