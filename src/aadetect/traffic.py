"""Packet records, trace files, feature datasets, and a synthetic trace generator.

Canonical trace CSV: header ``timestamp_us,src,dst,size_bytes,label,attack_type``
with ``label`` in {0, 1, empty} and ``attack_type`` free text (empty when absent).
Feature CSV: header ``f1,...,fM,label,attack_type``. Timestamps are integer
microseconds so inter-arrival arithmetic stays exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

TRACE_FIELDS = ("timestamp_us", "src", "dst", "size_bytes", "label", "attack_type")


class TraceParseError(ValueError):
    """A trace or feature CSV row that cannot be parsed; carries the line number."""

    def __init__(self, path: Union[str, Path], line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class TimestampOrderError(ValueError):
    """Packet timestamps went backwards where ordering is required."""


@dataclass(frozen=True)
class PacketRecord:
    """One observed packet. ``label`` is True for attack, False for benign,
    None when ground truth is unknown."""

    timestamp_us: int
    src: str
    dst: str
    size_bytes: int
    label: Optional[bool] = None
    attack_type: Optional[str] = None

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError(f"negative packet size: {self.size_bytes}")


@dataclass(frozen=True)
class Trace:
    """An ordered packet sequence."""

    records: Tuple[PacketRecord, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]


@dataclass(frozen=True)
class FeatureRow:
    """One pre-extracted feature vector with optional ground truth."""

    features: np.ndarray
    label: Optional[bool] = None
    attack_type: Optional[str] = None


def _parse_label(text: str, path, line_no: int) -> Optional[bool]:
    if text == "":
        return None
    if text == "0":
        return False
    if text == "1":
        return True
    raise TraceParseError(path, line_no, f"label must be 0, 1 or empty, got {text!r}")


def load_trace(path: Union[str, Path], on_unsorted: str = "error") -> Trace:
    """Load a canonical trace CSV.

    ``on_unsorted`` is "error" (reject a backwards timestamp, naming the line)
    or "sort" (stable-sort by timestamp, preserving file order on ties).
    """
    if on_unsorted not in ("error", "sort"):
        raise ValueError(f"on_unsorted must be 'error' or 'sort', got {on_unsorted!r}")
    path = Path(path)
    records: List[PacketRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(TRACE_FIELDS):
            raise TraceParseError(path, 1, f"expected header {','.join(TRACE_FIELDS)}")
        prev_ts = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_FIELDS):
                raise TraceParseError(path, line_no, f"expected {len(TRACE_FIELDS)} columns, got {len(row)}")
            try:
                ts = int(row[0])
                size = int(row[3])
            except ValueError as exc:
                raise TraceParseError(path, line_no, f"bad integer field: {exc}") from None
            label = _parse_label(row[4].strip(), path, line_no)
            attack_type = row[5].strip() or None
            try:
                rec = PacketRecord(ts, row[1], row[2], size, label, attack_type)
            except ValueError as exc:
                raise TraceParseError(path, line_no, str(exc)) from None
            if prev_ts is not None and ts < prev_ts and on_unsorted == "error":
                raise TraceParseError(path, line_no, f"timestamp {ts} goes backwards (previous {prev_ts})")
            prev_ts = ts
            records.append(rec)
    if on_unsorted == "sort":
        records.sort(key=lambda r: r.timestamp_us)  # list.sort is stable
    return Trace(tuple(records), name=path.stem)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace back to canonical CSV (UTF-8, LF line endings)."""
    path = Path(path)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        for rec in trace:
            label = "" if rec.label is None else ("1" if rec.label else "0")
            writer.writerow([rec.timestamp_us, rec.src, rec.dst, rec.size_bytes,
                             label, rec.attack_type or ""])


# Feature rows converted to one matrix at a time: enough to amortise the numpy
# calls, while the pending Python floats never outgrow one block.
_FEATURE_BLOCK = 1024


def load_feature_dataset(path: Union[str, Path]) -> List[FeatureRow]:
    """Load a feature CSV (``f1,...,fM,label,attack_type``).

    The trailing ``attack_type`` column is optional; inconsistent feature
    dimension raises a parse error naming the line. Rows are converted in
    blocks of up to ``_FEATURE_BLOCK`` rows: each row's ``features`` is a
    read-only row of its block's matrix. Errors are reported in line order,
    as a row-by-row parse would report them.
    """
    path = Path(path)
    rows: List[FeatureRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceParseError(path, 1, "empty file")
        header = [h.strip() for h in header]
        has_type = header and header[-1] == "attack_type"
        label_idx = len(header) - (2 if has_type else 1)
        if label_idx < 1 or header[label_idx] != "label":
            raise TraceParseError(path, 1, "expected feature columns followed by label[,attack_type]")
        n_features = label_idx
        values: List[float] = []  # the pending rows' features, flat
        lines: List[int] = []
        labels: List[Optional[bool]] = []
        types: List[Optional[str]] = []

        def convert() -> np.ndarray:
            """The pending rows as a read-only matrix; the first row with a
            non-finite value is an error."""
            feats = np.array(values, dtype=float).reshape(-1, n_features)
            finite = np.isfinite(feats).all(axis=1)
            if not finite.all():
                raise TraceParseError(path, lines[int(np.argmin(finite))],
                                      "non-finite feature value")
            feats.flags.writeable = False
            return feats

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise TraceParseError(path, line_no, f"expected {len(header)} columns, got {len(row)}")
                try:
                    values.extend([float(v) for v in row[:n_features]])
                except ValueError as exc:
                    raise TraceParseError(path, line_no, f"bad feature value: {exc}") from None
                lines.append(line_no)
                labels.append(_parse_label(row[label_idx].strip(), path, line_no))
            except TraceParseError:
                convert()  # a non-finite value on an earlier row, or this one, comes first
                raise
            types.append((row[label_idx + 1].strip() or None) if has_type else None)
            if len(lines) == _FEATURE_BLOCK:
                rows.extend(map(FeatureRow, convert(), labels, types))
                for pending in (values, lines, labels, types):
                    pending.clear()
        if lines:
            rows.extend(map(FeatureRow, convert(), labels, types))
    return rows


def save_feature_dataset(rows: Sequence[FeatureRow], path: Union[str, Path]) -> None:
    """Write feature rows as ``f1,...,fM,label,attack_type``."""
    path = Path(path)
    if not rows:
        raise ValueError("no feature rows to write")
    n = len(rows[0].features)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i + 1}" for i in range(n)] + ["label", "attack_type"])
        for row in rows:
            if len(row.features) != n:
                raise ValueError("inconsistent feature dimension")
            label = "" if row.label is None else ("1" if row.label else "0")
            writer.writerow([repr(float(v)) for v in row.features] + [label, row.attack_type or ""])


# ---------------------------------------------------------------------------
# Synthetic traces


@dataclass(frozen=True)
class AttackSegment:
    """A flood interval: attack packets arrive at ``rate_multiplier`` times the
    benign rate, from ``attackers``, aimed at ``victims`` or sprayed across
    ``spray`` synthetic external addresses."""

    start_s: float
    end_s: float
    rate_multiplier: float
    attackers: Tuple[str, ...]
    victims: Tuple[str, ...] = ()
    spray: int = 0
    size_mean: float = 80.0
    size_sigma: float = 10.0
    attack_type: str = "flood"


@dataclass(frozen=True)
class TraceSpec:
    """Parameters for ``synth_trace``. Benign arrivals form a Poisson process
    at ``rate_pps`` whose intensity ramps linearly to ``rate_ramp`` times the
    initial rate by the end of the trace."""

    duration_s: float
    rate_pps: float
    hosts: Tuple[str, ...] = ("10.0.0.1", "10.0.0.2")
    size_mean: float = 500.0
    size_sigma: float = 150.0
    rate_ramp: float = 1.0
    attacks: Tuple[AttackSegment, ...] = ()
    benign_until: Optional[float] = None  # benign process stops here (default: full run)
    name: str = "synth"


def _validate_spec(spec: TraceSpec) -> None:
    if spec.duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if spec.rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    if spec.rate_ramp <= 0:
        raise ValueError("rate_ramp must be positive")
    if not spec.hosts:
        raise ValueError("at least one host required")
    if spec.benign_until is not None and not (0.0 < spec.benign_until <= spec.duration_s):
        raise ValueError("benign_until must lie inside the trace duration")
    for seg in spec.attacks:
        if not (0.0 <= seg.start_s < seg.end_s <= spec.duration_s):
            raise ValueError(f"attack segment [{seg.start_s}, {seg.end_s}] outside trace")
        if seg.rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if not seg.attackers:
            raise ValueError("attack segment needs at least one attacker")
        if seg.spray <= 0 and not seg.victims:
            raise ValueError("attack segment needs victims or a spray pool")


def _cumulative_rate(spec: TraceSpec, t: float) -> float:
    # Integral of rate_pps * (1 + (ramp - 1) * t / D) from 0 to t.
    slope = (spec.rate_ramp - 1.0) / spec.duration_s
    return spec.rate_pps * (t + 0.5 * slope * t * t)


def _invert_cumulative(spec: TraceSpec, target: float) -> float:
    # Solve _cumulative_rate(t) == target for t >= 0.
    slope = (spec.rate_ramp - 1.0) / spec.duration_s
    if abs(slope) < 1e-15:
        return target / spec.rate_pps
    a = 0.5 * slope
    disc = 1.0 + 4.0 * a * target / spec.rate_pps
    return (math.sqrt(disc) - 1.0) / (2.0 * a)


def _arrival_times(spec: TraceSpec, rng: np.random.Generator,
                   start_s: float, end_s: float, multiplier: float) -> List[float]:
    """Arrival times of a (possibly ramped) Poisson process on [start_s, end_s)
    with intensity multiplier applied, generated by time-rescaling."""
    times: List[float] = []
    cum = _cumulative_rate(spec, start_s) * multiplier
    end_cum = _cumulative_rate(spec, end_s) * multiplier
    while True:
        cum += rng.exponential(1.0)
        if cum >= end_cum:
            return times
        times.append(_invert_cumulative(spec, cum / multiplier))


def _sizes(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    raw = rng.normal(mean, sigma, size=n)
    return np.maximum(np.rint(raw), 1).astype(int)


def synth_trace(spec: TraceSpec, seed: int) -> Trace:
    """Generate a labeled trace. Deterministic for a given (spec, seed)."""
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    hosts = list(spec.hosts)

    benign_end = spec.benign_until if spec.benign_until is not None else spec.duration_s
    benign_t = _arrival_times(spec, rng, 0.0, benign_end, 1.0)
    benign_sizes = _sizes(rng, len(benign_t), spec.size_mean, spec.size_sigma)
    entries: List[Tuple[float, PacketRecord]] = []
    for t, size in zip(benign_t, benign_sizes):
        src = hosts[rng.integers(len(hosts))]
        if len(hosts) > 1:
            others = [h for h in hosts if h != src]
            dst = others[rng.integers(len(others))]
        else:
            dst = "0.0.0.0"
        entries.append((t, PacketRecord(int(round(t * 1e6)), src, dst, int(size), False, None)))

    for seg in spec.attacks:
        attack_t = _arrival_times(spec, rng, seg.start_s, seg.end_s, seg.rate_multiplier)
        attack_sizes = _sizes(rng, len(attack_t), seg.size_mean, seg.size_sigma)
        if seg.spray > 0:
            pool = [f"198.51.{i // 256}.{i % 256}" for i in range(seg.spray)]
        else:
            pool = list(seg.victims)
        for t, size in zip(attack_t, attack_sizes):
            src = seg.attackers[rng.integers(len(seg.attackers))]
            dst = pool[rng.integers(len(pool))]
            entries.append((t, PacketRecord(int(round(t * 1e6)), src, dst, int(size),
                                            True, seg.attack_type)))

    entries.sort(key=lambda e: e[0])  # stable: benign before attack on exact ties
    return Trace(tuple(rec for _, rec in entries), name=spec.name)
