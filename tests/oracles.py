"""Reference implementations that the package's fast paths are checked against.

Each oracle is written as plainly as possible from its definition, or kept as
an earlier version of the package wrote it, and is defined here once. Test
modules import them with ``from oracles import ...`` (pytest puts ``tests/``
on the path). Nothing in the package calls them.
"""

import csv
import math
from collections import deque
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from aadetect.config import Config, apply_overrides
from aadetect.detector import (Decision, Detector, LifecycleError, Mode, Phase, salt_for_address,
                               save_state)
from aadetect.devices import DEVICE_DIM, DeviceReportRow, InfectionReport, infection_level
from aadetect.metrics import DimensionError, DirectionalMetrics, StreamMetrics
from aadetect.evaluation import DECISION_LOG_FIELDS
from aadetect.traffic import (TRACE_FIELDS, Packet, TimestampOrderError, TraceParseError,
                              load_feature_dataset, load_trace, write_csv)
from aadetect.training import SufficientStats, corrupt, noise_rng

# -- metrics ------------------------------------------------------------------------


def oracle_triple(packets, i, N, T_us):
    """Recompute (m1, m2, m3) for packet i of ``(ts_us, size)`` pairs from the
    full packet list: O(n) per packet, no incremental state."""
    window = packets[max(0, i - N + 1): i + 1]
    m1 = sum(size for _, size in window)
    if len(window) >= 2:
        m2 = (window[-1][0] - window[0][0]) / (len(window) - 1) / 1e6
    else:
        m2 = 0.0
    t = packets[i][0]
    m3 = sum(1 for ts, _ in packets[: i + 1] if t - T_us < ts <= t)
    return m1, m2, m3


def oracle_directional(trace, N, T_us):
    """Per-address vectors after each ``(ts_us, src, dst, size)`` packet, every
    substream recomputed from scratch: one dict per packet, src first."""
    tx, rx = {}, {}
    tx_last, rx_last = {}, {}
    out = []
    zeros = (0.0, 0.0, 0.0)
    for t, src, dst, size in trace:
        tx.setdefault(src, []).append((t, size))
        tx_last[src] = oracle_triple(tx[src], len(tx[src]) - 1, N, T_us)
        rx.setdefault(dst, []).append((t, size))
        rx_last[dst] = oracle_triple(rx[dst], len(rx[dst]) - 1, N, T_us)
        vecs = {}
        for addr in dict.fromkeys((src, dst)):
            vecs[addr] = tx_last.get(addr, zeros) + rx_last.get(addr, zeros)
        out.append(vecs)
    return out


class DequeStreamMetrics:
    """The deque-backed extractor that ``StreamMetrics`` replaced, kept
    verbatim: the list-backed one must give bit-equal triples."""

    def __init__(self, N: int, T_us: int):
        self.N = N
        self.T_us = T_us
        self._recent = deque()
        self._recent_bytes = 0
        self._window = deque()
        self._last_ts = None

    def update(self, ts_us: int, size_bytes: int) -> np.ndarray:
        """Advance the buffers with one packet and return its metric triple."""
        if self._last_ts is not None and ts_us < self._last_ts:
            raise TimestampOrderError(f"timestamp {ts_us} precedes previous {self._last_ts}")
        self._last_ts = ts_us

        self._recent.append((ts_us, size_bytes))
        self._recent_bytes += size_bytes
        if len(self._recent) > self.N:
            _, old_size = self._recent.popleft()
            self._recent_bytes -= old_size

        n = len(self._recent)
        m1 = float(self._recent_bytes)
        if n >= 2:
            span_us = ts_us - self._recent[0][0]
            m2 = max(span_us, 0) / (n - 1) / 1e6
        else:
            m2 = 0.0

        self._window.append(ts_us)
        cutoff = ts_us - self.T_us
        while self._window[0] <= cutoff:
            self._window.popleft()
        m3 = float(len(self._window))

        return np.array([m1, m2, m3])


# -- the network -----------------------------------------------------------------------


def zeta(v):
    """The activation zeta(v) = v / (1 + v), elementwise, after clipping
    negative values to 0 (the network's r = c = 1)."""
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    return v / (1.0 + v)


def layer_by_layer_hidden(model, x):
    """Top hidden activations one layer at a time, ``zeta(h @ w.T)``: the
    operations ``AadrnnModel.hidden`` performs, so its bits are these."""
    h = np.asarray(x, dtype=float)
    for w in model.hidden_weights:
        h = zeta(h @ w.T)
    return h


def hand_hidden(model, x):
    """Top hidden activations with scalar loops only."""
    h = list(map(float, x))
    for w in model.hidden_weights:
        h = [float(zeta(sum(w[i, j] * h[j] for j in range(w.shape[1]))))
             for i in range(w.shape[0])]
    return np.array(h)


def hand_forward(model, x):
    """The reconstruction with scalar loops only: ``hand_hidden``, then the readout."""
    h = hand_hidden(model, x)
    return np.array([sum(h[i] * model.readout[i, j] for i in range(len(h)))
                     for j in range(model.readout.shape[1])])


# -- training noise and the readout -------------------------------------------------------
# The training noise written out with Python ints, one value at a time, from
# the definition in the training module's docstring.


def oracle_splitmix(key, counter):
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def oracle_key(seed, salt):
    key = 0
    for value in [seed] if salt is None else [seed, salt]:
        words = [value % 2**64]
        while value >= 2**64:
            value //= 2**64
            words.append(value % 2**64)
        for word in [len(words)] + words:
            key = oracle_splitmix(key ^ word, 0)
    return key


def oracle_noise(seed, salt, row, col, width, sigma):
    """Value (row, col) of the width-``width`` noise field of (seed, salt)."""
    key, lanes = oracle_key(seed, salt), 0
    for k in range(3):
        word = oracle_splitmix(key, 3 * (row * width + col) + k)
        lanes += sum((word >> (16 * lane)) & 0xFFFF for lane in range(4))
    return (lanes - 6 * 65536) * (sigma / 65536)


def oracle_readout(model, X, cfg, salt=None):
    """Closed-form (H^T H + lambda I)^{-1} H^T X with H rebuilt from scratch:
    the per-value noise oracle, scalar-loop hidden activations, explicit
    inverse."""
    H = []
    for i, row in enumerate(X):
        noise = [oracle_noise(cfg.seed, salt, i, j, len(row), cfg.noise_sigma)
                 for j in range(len(row))]
        noisy = np.maximum(row + np.array(noise), 0.0)
        H.append(hand_hidden(model, noisy))
    H = np.array(H)
    A = H.T @ H + cfg.ridge_lambda * np.eye(H.shape[1])
    return np.linalg.inv(A) @ (H.T @ np.asarray(X, dtype=float))


# The per-row training fold as the package first wrote it: the chunked fold
# must match it bit for bit.


def per_row_corrupt_window(window, start_index, cfg, salt):
    noisy = np.empty_like(window)
    for j in range(window.shape[0]):
        rng = noise_rng(cfg.seed, start_index + j, salt)
        noisy[j] = corrupt(window[j], cfg.noise_sigma, rng)
    return noisy


def per_row_accumulate_pairs(stats, noisy, clean, model):
    if noisy.shape != clean.shape:
        raise DimensionError(f"noisy shape {noisy.shape} != clean shape {clean.shape}")
    if noisy.ndim == 1:
        noisy = noisy.reshape(1, -1)
        clean = clean.reshape(1, -1)
    G, C = stats.G.copy(), stats.C.copy()
    for j in range(noisy.shape[0]):
        h = model.hidden(noisy[j])
        G += np.outer(h, h)
        C += np.outer(h, clean[j])
    return SufficientStats(G, C, stats.n + noisy.shape[0])


# -- the whisker threshold -------------------------------------------------------------------


def oracle_whisker(vals):
    """Textbook Q3 + 1.5*IQR with quartiles interpolated at q * (n - 1)."""
    s = sorted(vals)

    def quartile(q):
        pos = q * (len(s) - 1)
        lo, hi = math.floor(pos), math.ceil(pos)
        return s[lo] + (pos - lo) * (s[hi] - s[lo])

    q1, q3 = quartile(0.25), quartile(0.75)
    return q3 + 1.5 * (q3 - q1)


def percentile_whisker(vals):
    """The whisker, with its fallbacks, as it was computed with ``np.percentile``."""
    q1, q3 = np.percentile(vals, [25.0, 75.0])
    whisker = float(q3 + 1.5 * (q3 - q1))
    if whisker <= 0:
        whisker = float(np.max(vals))
    return whisker if whisker > 0 else 1e-6


# -- detectors, stepped one item at a time ------------------------------------------------


class PerRowFeed:
    """``Detector.step`` and ``observe``'s init branch as the package first wrote
    them: the reference for ``Detector.step_rows`` and ``Detector.init_cut``.
    Each item is checked, then buffered or judged on its own. Init rows wait in
    a list, and the first row at least ``init_seconds`` (a float) after the
    first buffered one, with 4 rows buffered, ends init and is judged; without
    ``init_seconds`` the ``init_len``-th row ends it. ``det.initialize`` fits
    the buffer and ``det.observe`` judges every later row."""

    def __init__(self, det: Detector):
        self.det = det
        policy = det.config.device if det.mode == Mode.DEVICE else det.config.train
        self.init_len = policy.init_len
        self.init_seconds = None if det.mode == Mode.DEVICE else policy.init_seconds
        self.metrics = StreamMetrics(det.config.metrics.N, det.config.metrics.T_us)
        self.rows: List[np.ndarray] = []
        self.first_us: Optional[int] = None
        self.counter = 0

    def step(self, item) -> Optional[Decision]:
        """Consume one packet tuple (BOTNET) or one feature row (FEATURES)."""
        if self.det.mode == Mode.BOTNET:
            ts_us, _, _, size_bytes = item
            return self.observe(self.metrics.update(ts_us, size_bytes), ts_us)
        if self.det.mode == Mode.FEATURES:
            return self.observe(item, self.counter)
        raise LifecycleError("device-mode detectors are fed by the DeviceBank")

    def observe(self, raw, at_us: int) -> Optional[Decision]:
        """Consume one raw metric vector. Returns None during init."""
        det = self.det
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (det.dim,):
            raise DimensionError(f"raw vector shape {raw.shape}, expected ({det.dim},)")
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite raw metric value")
        self.counter += 1
        if det.phase == Phase.INIT:
            if self.first_us is None:
                self.first_us = at_us
            time_done = (self.init_seconds is not None
                         and at_us - self.first_us >= self.init_seconds * 1e6
                         and len(self.rows) >= 4)
            if not time_done:
                self.rows.append(raw)
                if self.init_seconds is None and len(self.rows) >= self.init_len:
                    det.initialize(self.rows)
                return None
            det.initialize(self.rows)  # this row is the first to be judged
        return det.observe(raw, at_us)


def stepped(det, items):
    """``replay``'s pairs for one detector, with every item stepped in turn."""
    return [(None, d) for d in map(PerRowFeed(det).step, items) if d is not None]


def stepped_packet_init(path, overrides, out):
    """Packet ``init`` as it was: the whole trace loaded, then each non-attack
    packet stepped until init ends."""
    trace = load_trace(path)
    det = Detector(3, apply_overrides(Config(), overrides), mode=Mode.BOTNET, online=False)
    feed = PerRowFeed(det)
    for pkt, label in zip(trace, trace.label):
        if label is not True:
            feed.step(pkt)
            if det.phase != Phase.INIT:
                break
    save_state(det, out)


def stepped_feature_init(data, overrides, out):
    """``init --features`` the long way: every benign row stepped through."""
    table = load_feature_dataset(data)
    rows = [row for row, label in zip(table, table.label) if label is not True]
    config = apply_overrides(Config(), overrides + [f"train.init_len={len(rows)}"])
    det = Detector(len(rows[0]), config, mode=Mode.FEATURES, online=False)
    feed = PerRowFeed(det)
    for row in rows:
        feed.step(row)
    save_state(det, out)


@dataclass
class OracleRecord:
    addr: str
    feed: PerRowFeed
    infection_level: float = 0.0
    peak_level: float = 0.0
    last_seen_us: int = 0
    decisions_count: int = 0
    consecutive_above: int = 0


class OracleBank:
    """The device bank as it was before devices in init lost their detector,
    kept verbatim but for the feed: every device steps its own DEVICE
    ``Detector`` from its first vector, through a ``PerRowFeed``. A level step
    divides by the threshold its decision was judged against, which a refit in
    that same ``observe`` may since have moved."""

    def __init__(self, config: Config):
        self.config = config
        self._metrics = DirectionalMetrics(config.metrics.N, config.metrics.T_us)
        self._devices: Dict[str, OracleRecord] = {}
        self._evicted: List[DeviceReportRow] = []
        self._packets = 0
        self._ttl_us = int(round(config.device.ttl_seconds * 1e6))

    def device(self, addr: str) -> Optional[OracleRecord]:
        return self._devices.get(addr)

    def _new_device(self, addr: str) -> OracleRecord:
        det = Detector(DEVICE_DIM, self.config, mode=Mode.DEVICE, online=True,
                       noise_salt=salt_for_address(addr))
        return OracleRecord(addr=addr, feed=PerRowFeed(det))

    def ingest(self, pkt: Packet) -> List[Tuple[str, Decision]]:
        ts_us, src, dst, size_bytes = pkt
        vectors = self._metrics.update(ts_us, src, dst, size_bytes)
        out: List[Tuple[str, Decision]] = []
        for addr, raw in vectors.items():
            rec = self._devices.get(addr)
            if rec is None:
                rec = self._devices[addr] = self._new_device(addr)
            rec.last_seen_us = ts_us
            decision = rec.feed.observe(raw, ts_us)
            if decision is None:
                continue
            rec.decisions_count += 1
            rec.infection_level = infection_level(rec.infection_level, decision.value,
                                                  self.config.device.alpha, decision.threshold)
            rec.peak_level = max(rec.peak_level, rec.infection_level)
            if rec.infection_level > self.config.device.level_threshold:
                rec.consecutive_above += 1
            else:
                rec.consecutive_above = 0
            out.append((addr, decision))
        self._packets += 1
        if self._packets % 512 == 0:
            self._evict_idle(ts_us)
        return out

    def is_compromised(self, rec: OracleRecord) -> bool:
        return rec.consecutive_above >= self.config.device.hysteresis_k

    def _evict_idle(self, now_us: int) -> None:
        idle = [addr for addr, rec in self._devices.items()
                if now_us - rec.last_seen_us >= self._ttl_us]
        for addr in idle:
            rec = self._devices.pop(addr)
            self._metrics.drop(addr)
            self._evicted.append(self._row(rec, evicted=True))

    def _row(self, rec: OracleRecord, evicted: bool = False) -> DeviceReportRow:
        return DeviceReportRow(addr=rec.addr,
                               infection_level=rec.infection_level,
                               peak_level=rec.peak_level,
                               is_compromised=self.is_compromised(rec),
                               decisions_count=rec.decisions_count,
                               last_seen_us=rec.last_seen_us,
                               evicted=evicted)

    def report(self) -> InfectionReport:
        rows = [self._row(rec) for rec in self._devices.values()]
        rows.extend(self._evicted)
        rows.sort(key=lambda r: (-r.infection_level, r.addr))
        compromised = tuple(r.addr for r in rows if r.is_compromised)
        return InfectionReport(devices=tuple(rows), packets=self._packets,
                               compromised=compromised)


# -- files -------------------------------------------------------------------------------


def csv_records(fh, path):
    """``(line_no, record)`` for each record of an open CSV file, numbered
    from line 1 as the loaders number them, read by ``csv.reader`` in strict
    mode: a quoted field still open at the end of the file, or text after a
    closing quote, is csv's own error, which names the line of its record."""
    reader = csv.reader(fh, strict=True)
    for line_no in count(1):
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise TraceParseError(path, line_no, str(exc)) from None
        yield line_no, record


def parse_label(text, path, line_no):
    """A label field as the loaders first read it: 0, 1 or empty."""
    if text not in ("0", "1", ""):
        raise TraceParseError(path, line_no, f"label must be 0, 1 or empty, got {text!r}")
    return {"0": False, "1": True, "": None}[text]


def per_row_load_trace(path):
    """The trace loader as first written, one csv row at a time, with csv in
    strict mode (``csv_records``): the reference for the column loader's
    columns and errors. Returns the rows as six-column tuples."""
    path = Path(path)
    packets = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = csv_records(fh, path)
        header = next(lines, (1, None))[1]
        if header is None or [h.strip() for h in header] != list(TRACE_FIELDS):
            raise TraceParseError(path, 1, f"expected header {','.join(TRACE_FIELDS)}")
        prev_ts = None
        for line_no, row in lines:
            if not row:
                continue
            if len(row) != len(TRACE_FIELDS):
                raise TraceParseError(path, line_no, f"expected {len(TRACE_FIELDS)} columns, got {len(row)}")
            try:
                ts = int(row[0])
                size = int(row[3])
            except ValueError as exc:
                raise TraceParseError(path, line_no, f"bad integer field: {exc}") from None
            label = parse_label(row[4].strip(), path, line_no)
            attack_type = row[5].strip() or None
            if size < 0:
                raise TraceParseError(path, line_no, f"negative packet size: {size}")
            if prev_ts is not None and ts < prev_ts:
                raise TraceParseError(path, line_no, f"timestamp {ts} goes backwards (previous {prev_ts})")
            prev_ts = ts
            packets.append((ts, row[1], row[2], size, label, attack_type))
    return tuple(packets)


def per_row_load_feature_dataset(path):
    """The feature loader as first written, one row at a time, with csv in
    strict mode (``csv_records``): the reference for the block loader's table
    and errors. Returns ``(features, label, attack_type)`` per row."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv_records(fh, path)
        header = [h.strip() for h in next(records)[1]]
        has_type = header[-1] == "attack_type"
        label_idx = len(header) - (2 if has_type else 1)
        for line_no, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise TraceParseError(path, line_no, f"expected {len(header)} columns, got {len(row)}")
            try:
                feats = np.array([float(v) for v in row[:label_idx]], dtype=float)
            except ValueError as exc:
                raise TraceParseError(path, line_no, f"bad feature value: {exc}") from None
            if not np.all(np.isfinite(feats)):
                raise TraceParseError(path, line_no, "non-finite feature value")
            label = parse_label(row[label_idx].strip(), path, line_no)
            attack_type = (row[label_idx + 1].strip() or None) if has_type else None
            rows.append((feats, label, attack_type))
    return rows


def per_row_read_decision_log(path, mode=None):
    """The decision-log reader as first written, one csv row at a time, with
    csv in strict mode (``csv_records``): the reference for
    ``read_decision_log``'s decisions and errors. Its column-count error
    lacks the ``, got N`` that the package's reader adds."""
    path = Path(path)
    decisions: List[Decision] = []
    log_mode = None
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv_records(fh, path)
        header = next(records, (1, None))[1]
        if header is None or tuple(h.strip() for h in header) != DECISION_LOG_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(DECISION_LOG_FIELDS)}")
        for line_no, row in records:
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
            if log_mode not in (None, row[4].strip()):
                raise ValueError(f"{path}:{line_no}: mode {row[4]!r} in a {log_mode} log")
            log_mode = row[4].strip()
            decisions.append(Decision(at_us, value, threshold, row[3].strip() == "1"))
    if mode is not None and log_mode not in (None, mode):
        raise ValueError(f"{path}: a {log_mode} decision log, expected a {mode} log")
    return decisions


def write_feature_file(table, path):
    """Write a ``FeatureTable`` as ``f1,...,fM,label,attack_type`` with
    ``traffic.write_csv``: each feature as its ``repr``, which
    ``load_feature_dataset`` reads back bit for bit."""
    header = [f"f{i + 1}" for i in range(table.features.shape[1])] + ["label", "attack_type"]
    label_text = {None: "", False: "0", True: "1"}
    write_csv(path, header, ([*map(repr, feats), label_text[label], kind or ""]
                             for feats, label, kind in zip(table.features.tolist(), table.label,
                                                           table.attack_type)))


# -- state files ----------------------------------------------------------------------


def legacy_state(doc, version=2):
    """A version-3 state document as version ``version`` (1 or 2) wrote it: the
    same fields plus the network, ``L``, ``act`` and the hidden weights, each
    layer a ``numpy.random.default_rng(seed).uniform(0, 1/M, (M, M))`` draw."""
    m, rng = doc["M"], np.random.default_rng(doc["seed"])
    weights = [rng.uniform(0.0, 1.0 / m, size=(m, m)).tolist() for _ in range(3)]
    return dict(doc, version=version, L=3, act={"r": 1.0, "c": 1.0}, hidden_weights=weights)
