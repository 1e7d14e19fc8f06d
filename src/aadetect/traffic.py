"""Packet traces, feature datasets, their CSV files, and a synthetic trace generator.

Canonical trace CSV: header ``timestamp_us,src,dst,size_bytes,label,attack_type``
with ``label`` in {0, 1, empty} and ``attack_type`` free text (empty when absent).
Feature CSV: header ``f1,...,fM,label,attack_type``. Timestamps are integer
microseconds so inter-arrival arithmetic stays exact. ``write_csv`` writes
every whole CSV file the package makes: traces and plot data.

A ``Trace`` is its six columns; a packet in flight is the plain tuple
``(timestamp_us, src, dst, size_bytes)`` (a ``Packet``) that iterating a
trace yields. A ``FeatureTable`` holds a feature file the same way: one
read-only matrix of features plus label and attack-type tuples.

Every CSV file the package reads (a trace, a feature file, a decision log)
is read by one reader, ``read_csv``, ``_TRACE_BLOCK`` lines at a time.
``_split_block`` splits a block into columns with ``str.split`` unless
``csv.reader`` could read it differently (see its docstring); the file kind's
fast converter then converts and checks a split block at once, trace
integers by ``int`` and features by ``np.loadtxt``. Any other block goes
through the one row-by-row loop of ``csv.reader`` in strict mode, where a
quote left open to the end of the file is an error, not a field that
silently takes the rest of the file. Every malformed input is a
``TraceParseError``, ``path:line: message``: a bad header (naming a UTF-8
byte-order mark it starts with), or csv's own error in it, on line 1; a bad
record, or csv's own error in it, on that record's line; text that is not
UTF-8 on the first line that does not decode.
``trace_blocks`` yields each block as a ``Trace``, reading the file no
further than it is asked to, and ``init`` stops pulling blocks once its
window is complete; ``load_trace`` and ``load_feature_dataset`` join the
blocks once.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import (Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, TextIO,
                    Tuple, Union)

import numpy as np

TRACE_FIELDS = ("timestamp_us", "src", "dst", "size_bytes", "label", "attack_type")


class TraceParseError(ValueError):
    """A CSV file that cannot be parsed, as ``path:line: message``; carries both."""

    def __init__(self, path: Union[str, Path], line_no: int, message: str):
        self.path = str(Path(path))
        super().__init__(f"{self.path}:{line_no}: {message}")
        self.line_no = line_no


class TimestampOrderError(ValueError):
    """Packet timestamps went backwards where ordering is required."""


# Lines of a trace or feature file read and split at once, and packets built
# per slice when a trace is iterated: enough to amortise the numpy calls,
# while a block's temporary strings stay small next to what is loaded.
_TRACE_BLOCK = 1024

Packet = Tuple[int, str, str, int]  # a packet in flight: (timestamp_us, src, dst, size_bytes)


class Trace:
    """An ordered packet sequence: its six columns and nothing else.

    ``timestamp_us`` and ``size_bytes`` are read-only int64 arrays, given as
    integers that fit int64 (``_int64_column``); ``src``, ``dst``, ``label``
    (True for attack, False for benign, None if unknown) and ``attack_type``
    are tuples, the last two all None when not given, as in
    ``FeatureTable``. Iteration yields ``Packet`` tuples with plain ``int``
    fields, one ``_TRACE_BLOCK`` slice at a time; a slice, or a boolean mask
    of the trace's length, is a ``Trace``, and an int index is a
    ``TypeError``. A detector takes packets only as a ``Trace``, so this
    constructor is where packet integers become int64."""

    __slots__ = TRACE_FIELDS

    def __init__(self, timestamp_us=(), src=(), dst=(), size_bytes=(), label=None,
                 attack_type=None):
        self.timestamp_us = _int64_column(timestamp_us, "timestamp_us")
        self.size_bytes = _int64_column(size_bytes, "size_bytes")
        self.src, self.dst = tuple(src), tuple(dst)
        n = len(self.timestamp_us)
        self.label = (None,) * n if label is None else tuple(label)
        self.attack_type = (None,) * n if attack_type is None else tuple(attack_type)
        lengths = {field: len(getattr(self, field)) for field in TRACE_FIELDS}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"trace columns differ in length: {lengths}")
        if n and self.size_bytes.min() < 0:
            raise ValueError(f"negative packet size: {self.size_bytes.min()}")

    def __len__(self) -> int:
        return len(self.timestamp_us)

    def __iter__(self) -> Iterator[Packet]:
        for start in range(0, len(self), _TRACE_BLOCK):
            part = slice(start, start + _TRACE_BLOCK)
            yield from zip(self.timestamp_us[part].tolist(), self.src[part], self.dst[part],
                           self.size_bytes[part].tolist())

    def __getitem__(self, idx: Union[slice, Sequence[bool]]) -> "Trace":
        if isinstance(idx, slice):
            return Trace(*(getattr(self, field)[idx] for field in TRACE_FIELDS))
        mask = np.asarray(idx)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise TypeError(f"a Trace takes slices or a boolean mask of its length, "
                            f"not {type(idx).__name__}")
        keep = mask.tolist()
        columns = (getattr(self, field) for field in TRACE_FIELDS)
        return Trace(*(column[mask] if isinstance(column, np.ndarray) else compress(column, keep)
                       for column in columns))


def _int64_column(values, name: str) -> np.ndarray:
    """A read-only int64 view of a trace column, whose values it keeps exactly:
    integers that fit int64, or a ``ValueError`` naming the column. A float,
    string or bool is not converted. An int64 array (the parser's, a slice's,
    a mask's) costs a dtype test; only an unsigned one is scanned for range."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers that fit int64, got {column.dtype} values")
    if column.dtype.kind == "u" and column.size and int(column.max()) > _INT64.max:
        raise ValueError(f"{name} must hold integers that fit int64, got {int(column.max())}")
    column = column.astype(np.int64, copy=False).view()
    column.flags.writeable = False
    return column


class FeatureTable:
    """A feature file held as columns, as ``Trace`` holds packets: ``features``
    is a read-only (n, M) float64 matrix (a view, not a copy, of the one
    given); ``label`` and ``attack_type`` are tuples, all None when not
    given. ``len``, iteration and indexing go to the matrix rows, so a
    detector steps a table directly and a slice is a matrix slice."""

    __slots__ = ("features", "label", "attack_type")

    def __init__(self, features, label=None, attack_type=None):
        self.features = np.asarray(features, dtype=float).view()
        if self.features.ndim != 2:
            raise ValueError(f"features must be an (n, M) matrix, got shape {self.features.shape}")
        self.features.flags.writeable = False
        n = len(self.features)
        self.label = (None,) * n if label is None else tuple(label)
        self.attack_type = (None,) * n if attack_type is None else tuple(attack_type)
        if not len(self.label) == len(self.attack_type) == n:
            raise ValueError(f"{n} feature rows but {len(self.label)} labels "
                             f"and {len(self.attack_type)} attack types")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.features)

    def __getitem__(self, idx) -> np.ndarray:
        return self.features[idx]


_LABELS = {"": None, "0": False, "1": True}
_LABEL_TEXT = {label: text for text, label in _LABELS.items()}
_BAD_LABEL = object()
_INT64 = np.iinfo(np.int64)


def _parse_label(text: str) -> Optional[bool]:
    label = _LABELS.get(text, _BAD_LABEL)
    if label is _BAD_LABEL:
        raise ValueError(f"label must be 0, 1 or empty, got {text!r}")
    return label


def _split_block(lines: List[str], n_fields: int, tail: Optional[int]) -> Optional[list]:
    """A block of lines as ``n_fields`` columns of field strings (the last
    ``tail`` only, when given), or None when ``csv.reader`` or ``float`` could
    read a field otherwise: a quote, a carriage return, a NUL, a character
    from ``\\x1c`` to ``\\x1f`` (``np.loadtxt`` strips these, ``float`` does
    not), a line without exactly ``n_fields`` fields (a blank line has one)
    or a line longer than csv's field size limit."""
    text = "".join(lines)
    if any(char in text for char in '"\r\0\x1c\x1d\x1e\x1f'):
        return None
    rows = text.split("\n")
    if rows[-1] == "":  # the block's last line ended with a newline
        rows.pop()
    if set(map(str.count, rows, repeat(","))) != {n_fields - 1}:
        return None
    if len(text) > csv.field_size_limit() and max(map(len, rows)) > csv.field_size_limit():
        return None
    if tail is not None:
        return list(zip(*[row.rsplit(",", tail) for row in rows]))[1:]
    fields = ",".join(rows).split(",")
    return [fields[k::n_fields] for k in range(n_fields)]


def read_csv(path: Union[str, Path], header: Union[Sequence[str], Callable],
             fast: Optional[Callable], row: Callable) -> Iterator[tuple]:
    """The columns of each block of a CSV file that has a row, read only as
    asked for (see the module docstring). ``header`` is the file's fields, or
    a rule that takes the stripped fields read (None for an empty file),
    raises a ``ValueError`` if they are wrong and returns ``_split_block``'s
    ``tail``. ``fast(lines, columns)``, if given, returns a split block's
    columns, or None if any row is bad. ``row(record)`` returns a csv record's
    values or raises a ``ValueError``; a record of another field count than
    the header's is an error. Records, blank ones too, are numbered from line
    2, as a row-by-row parse numbers them."""
    line_no = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            fields = next(csv.reader(fh, strict=True), None)
            fields = fields and [field.strip() for field in fields]
            try:
                if not callable(header) and fields != list(header):
                    raise ValueError(f"expected header {','.join(header)}")
                tail = header(fields) if callable(header) else None
            except ValueError as exc:
                if fields and fields[0].startswith("\ufeff"):
                    raise ValueError(f"{exc}, but the file starts with a UTF-8 "
                                     "byte-order mark (U+FEFF)") from None
                raise
            n_fields, line_no = len(fields), 2
            while lines := list(islice(fh, _TRACE_BLOCK)):
                columns = fast and _split_block(lines, n_fields, tail)
                block = columns and fast(lines, columns)
                if block:
                    line_no += len(lines)
                    yield block
                    continue
                rows, reader = [], csv.reader(chain(lines, fh), strict=True)
                for record in reader:
                    if record:
                        if len(record) != n_fields:
                            raise ValueError(f"expected {n_fields} columns, got {len(record)}")
                        rows.append(row(record))
                    line_no += 1
                    if reader.line_num >= len(lines):  # lines pulled from the iterator
                        break
                if rows:
                    yield tuple(zip(*rows))
    except UnicodeDecodeError:  # its position counts from a read chunk: find the line
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceParseError(path, line_no, f"not UTF-8 text: {exc}") from None
        raise
    except (csv.Error, ValueError) as exc:
        raise TraceParseError(path, line_no, str(exc)) from None


def trace_blocks(path: Union[str, Path]) -> Iterator[Trace]:
    """Parse a canonical trace CSV one block at a time: a ``Trace`` of up to
    ``_TRACE_BLOCK`` rows per block, read from the file only as it is asked
    for (a block whose lines are all blank yields nothing). A timestamp that
    goes backwards, within a block or across two, is an error naming its
    line, as is any other bad row.

    The file is read by ``read_csv`` with two converters, which carry the
    last timestamp from block to block. Address and attack-type strings are
    stored once each across the blocks. The file stays open until the
    generator is exhausted or closed.
    """
    addresses: dict = {}
    type_of: dict = {}  # raw field -> attack type
    prev_ts: Optional[int] = None

    def fast(lines, columns):
        """A split block's integers by ``int``, checked at once: exact against
        ``tests/oracles.py:per_row_load_trace``, which this property checks:
        tests/test_traffic.py::test_column_loader_equals_per_row_loader_on_generated_files."""
        nonlocal prev_ts
        n = len(columns[0])
        try:
            ts = np.fromiter(map(int, columns[0]), np.int64, n)
            size = np.fromiter(map(int, columns[3]), np.int64, n)
        except (ValueError, OverflowError):
            return None
        labels = list(map(_LABELS.get, columns[4], repeat(_BAD_LABEL)))
        if (_BAD_LABEL in labels or (size < 0).any() or (ts[1:] < ts[:-1]).any()
                or (prev_ts is not None and ts[0] < prev_ts)):
            return None
        prev_ts = int(ts[-1])
        return ts, columns[1], columns[2], size, labels, columns[5]

    def row(record):
        nonlocal prev_ts
        try:
            ts, size = int(record[0]), int(record[3])
        except ValueError as exc:
            raise ValueError(f"bad integer field: {exc}") from None
        label = _parse_label(record[4].strip())
        if size < 0:
            raise ValueError(f"negative packet size: {size}")
        if prev_ts is not None and ts < prev_ts:
            raise ValueError(f"timestamp {ts} goes backwards (previous {prev_ts})")
        if not (_INT64.min <= ts <= _INT64.max and size <= _INT64.max):
            raise ValueError("integer field does not fit in 64 bits")
        prev_ts = ts
        return ts, record[1], record[2], size, label, record[5]

    for ts, src, dst, size, labels, raw_types in read_csv(path, TRACE_FIELDS, fast, row):
        for raw in set(raw_types).difference(type_of):
            type_of[raw] = raw.strip() or None
        yield Trace(ts, map(addresses.setdefault, src, src),
                    map(addresses.setdefault, dst, dst), size, labels,
                    map(type_of.__getitem__, raw_types))


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a whole canonical trace CSV: ``trace_blocks`` drained into one
    ``Trace``, each block's columns appended as it is parsed."""
    ts_blocks, size_blocks = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    src: List[str] = []
    dst: List[str] = []
    labels: List[Optional[bool]] = []
    types: List[Optional[str]] = []
    for block in trace_blocks(path):
        ts_blocks.append(block.timestamp_us)
        size_blocks.append(block.size_bytes)
        src.extend(block.src)
        dst.extend(block.dst)
        labels.extend(block.label)
        types.extend(block.attack_type)
    return Trace(np.concatenate(ts_blocks), src, dst, np.concatenate(size_blocks), labels, types)


@contextlib.contextmanager
def replace_file(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text file (UTF-8, LF) that replaces ``path`` only once it is written in
    full: the text goes to a temporary file in the same directory, which is fsynced
    and then ``os.replace``d over ``path``. If the write raises, ``path`` is left as
    it was, the temporary file is removed, and an OSError names ``path``. Every
    whole file the package writes goes through it: states, reports and CSV files."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_csv(path: Union[str, Path], header: Sequence, rows: Iterable[Sequence]) -> Path:
    """Write a whole CSV file through ``replace_file``: the header, then the rows,
    quoted by ``csv.writer`` only where a field needs it. Returns the path."""
    with replace_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace back to canonical CSV (``write_csv``)."""
    write_csv(path, TRACE_FIELDS, zip(
        trace.timestamp_us.tolist(), trace.src, trace.dst, trace.size_bytes.tolist(),
        map(_LABEL_TEXT.__getitem__, trace.label), [kind or "" for kind in trace.attack_type]))


def load_feature_dataset(path: Union[str, Path]) -> FeatureTable:
    """Load a feature CSV (``f1,...,fM,label,attack_type``) as a table.

    The trailing ``attack_type`` column is optional; inconsistent feature
    dimension raises a parse error naming the line. The file is read by
    ``read_csv`` with two converters, and the blocks are joined once at the end.
    """
    n_features, has_type = 0, False

    def header_rule(header):
        nonlocal n_features, has_type
        if header is None:
            raise ValueError("empty file")
        has_type = header[-1:] == ["attack_type"]
        n_features = len(header) - (2 if has_type else 1)
        if n_features < 1 or header[n_features] != "label" or header[0].startswith("\ufeff"):
            raise ValueError("expected feature columns followed by label[,attack_type]")
        return len(header) - n_features

    def fast(lines, columns):
        """A split block's features by one ``np.loadtxt`` call (it and
        ``float`` both end in ``PyOS_string_to_double``, and what loadtxt
        rejects, such as ``1_0`` or non-ASCII digits, ``float`` reads in
        ``row``), kept if every value is finite and every label valid:
        exact against ``tests/oracles.py:per_row_load_feature_dataset``,
        which the property
        tests/test_traffic.py::test_block_loader_equals_per_row_loader_on_generated_files checks."""
        try:  # comments=None: the default "#" would cut "1.0#x" short.
            feats = np.loadtxt(lines, delimiter=",", usecols=range(n_features),
                               comments=None, ndmin=2)
            labels = [_LABELS[text.strip()] for text in columns[0]]
        except (ValueError, KeyError):
            return None
        return (feats, labels, columns[-1]) if np.isfinite(feats).all() else None

    def row(record):
        try:
            feats = [float(v) for v in record[:n_features]]
        except ValueError as exc:
            raise ValueError(f"bad feature value: {exc}") from None
        if not all(map(math.isfinite, feats)):
            raise ValueError("non-finite feature value")
        return feats, _parse_label(record[n_features].strip()), record[-1]

    blocks, labels, raw_types = [], [], []
    for feats, block_labels, block_types in read_csv(path, header_rule, fast, row):
        blocks.append(np.asarray(feats, dtype=float))
        labels += block_labels
        raw_types += block_types
    type_of = {raw: raw.strip() or None for raw in set(raw_types)}
    return FeatureTable(np.concatenate([np.empty((0, n_features)), *blocks]), labels,
                        map(type_of.__getitem__, raw_types) if has_type else None)


# ---------------------------------------------------------------------------
# Synthetic traces


class AttackSegment(NamedTuple):
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


class TraceSpec(NamedTuple):
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
    rows: List[tuple] = []  # (arrival time, then the six trace columns)
    for t, size in zip(benign_t, benign_sizes):
        src = hosts[rng.integers(len(hosts))]
        others = [h for h in hosts if h != src]
        dst = others[rng.integers(len(others))] if len(hosts) > 1 else "0.0.0.0"
        rows.append((t, int(round(t * 1e6)), src, dst, int(size), False, None))

    for seg in spec.attacks:
        attack_t = _arrival_times(spec, rng, seg.start_s, seg.end_s, seg.rate_multiplier)
        attack_sizes = _sizes(rng, len(attack_t), seg.size_mean, seg.size_sigma)
        pool = ([f"198.51.{i // 256}.{i % 256}" for i in range(seg.spray)] if seg.spray > 0
                else list(seg.victims))
        for t, size in zip(attack_t, attack_sizes):
            src = seg.attackers[rng.integers(len(seg.attackers))]
            dst = pool[rng.integers(len(pool))]
            rows.append((t, int(round(t * 1e6)), src, dst, int(size), True, "flood"))

    rows.sort(key=lambda row: row[0])  # stable: benign before attack on exact ties
    return Trace(*list(zip(*rows))[1:])
