"""Anomaly decisions and the detector lifecycle.

A decision compares the weighted absolute reconstruction gap

    d = sum_i gamma_i * |x_i - x_hat_i|

against a threshold; traffic is flagged as attack iff d exceeds it strictly.
The threshold is either a fixed configured value or the Tukey upper whisker
(Q3 + 1.5 * IQR) of decision values observed on benign data.

Rows reach a detector as ``(times, raw rows)`` slices: a feature input whole,
a ``Trace`` (the one packet input) up to ``_TRACE_BLOCK`` packets at a time,
their metrics computed for the whole slice by ``StreamMetrics.update_block``.
Lifecycle: a detector starts in ``init``; each slice joins its init window
until ``Detector.init_cut`` closes it, a batch fit sets the scaler, the first
model and the threshold, and it moves to ``online`` or ``frozen``; ``observe``
judges every row after the cut, one at a time. Online operation is
semi-supervised: every decision is emitted, but only rows the detector itself
judged benign are queued for training; at each full window the readout is
refit incrementally and (unless frozen by config) the whisker threshold is
re-estimated from that window's decision values. Threshold updates never
apply retroactively — each decision records the threshold in force when it
was made.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import zlib
from enum import Enum
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .aadrnn import LAYERS, AadrnnModel
from .config import _KIND_NAMES, Config, _is_kind
from .metrics import (DimensionError, MinMaxScaler, ScalingFactors, StreamMetrics, fit_scaling,
                      min_max_fit)
from .traffic import _TRACE_BLOCK, FeatureTable, Trace
from .training import (SufficientStats, TrainingError, fit_batch_with_stats,
                       update_incremental)

# Version 2: the readout statistics are trained on the keyed counter noise
# (``training``). A version-1 state, trained on per-row PCG64 noise, still
# decides as it did, but cannot be trained on or saved again.
STATE_VERSION = 2


class Mode(str, Enum):
    BOTNET = "botnet"      # single aggregate packet stream, 3 metrics
    FEATURES = "features"  # pre-extracted feature rows, min-max normalized
    DEVICE = "device"      # one per-address stream, 6 directional metrics


# The metric count a mode fixes; a FEATURES detector takes any width.
MODE_DIM = {Mode.BOTNET: 3, Mode.DEVICE: 6}


class Phase(str, Enum):
    INIT = "init"
    ONLINE = "online"
    FROZEN = "frozen"


class LifecycleError(RuntimeError):
    """An operation that is invalid for the detector's current phase."""


class Decision(NamedTuple):
    """One per-packet (or per-row) verdict, in the decision log's column
    order. The mode belongs to the run, not to each row."""

    at_us: int
    value: float
    threshold: float
    is_attack: bool


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """The q-quantile of sorted values by numpy's "linear" rule, bit for bit
    as ``np.percentile`` computes it. ``np.percentile`` is not called because
    under numpy 2 it imports ``numpy.ma`` on first use, a cost every ``init``
    would pay."""
    n = len(ordered)
    v = (n - 1) * q  # exact for q of 0.25 and 0.75
    i = int(v)
    t = v - i
    a, b = float(ordered[i]), float(ordered[min(i + 1, n - 1)])
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def whisker_threshold(train_values: Sequence[float]) -> float:
    """Tukey upper whisker Q3 + 1.5 * IQR of benign decision values.

    Quartiles use linear interpolation at positions q * (n - 1). A
    non-positive whisker falls back to the sample maximum, then to 1e-6.
    """
    vals = np.asarray(train_values, dtype=float)
    if vals.ndim != 1 or vals.size < 4:
        raise ValueError(f"whisker threshold needs >= 4 values, got {vals.size}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite decision value")
    ordered = np.sort(vals)
    q1, q3 = _linear_quantile(ordered, 0.25), _linear_quantile(ordered, 0.75)
    whisker = q3 + 1.5 * (q3 - q1)
    if whisker <= 0:
        whisker = float(vals.max())
    if whisker <= 0:
        whisker = 1e-6
    return whisker


def _weighted_gap(x: np.ndarray, x_hat: np.ndarray, gamma: np.ndarray):
    """The decision value of a row, or of each row of a matrix."""
    return np.abs(x - x_hat) @ gamma


class Detector:
    """One anomaly detector over a fixed-dimension metric stream.

    ``mode`` selects the front end of ``step_rows``: BOTNET detectors consume
    packets and extract metrics in-stream; FEATURES detectors consume feature
    rows (min-max scaling). The device bank fits each DEVICE detector with
    ``initialize`` and feeds it 6-value vectors via ``observe``.
    """

    state_version = STATE_VERSION  # a detector loaded from an older state says so

    def __init__(self, dim: int, config: Config, mode: Union[Mode, str] = Mode.BOTNET, *,
                 online: Optional[bool] = None, noise_salt: Optional[int] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.mode = Mode(mode)
        if MODE_DIM.get(self.mode, dim) != dim:
            raise DimensionError(f"a {self.mode.value} detector takes "
                                 f"{MODE_DIM[self.mode]} metrics, not {dim}")
        self.dim = dim
        self.config = config
        self.phase = Phase.INIT
        gamma = config.metrics.gamma or [1.0 / dim] * dim  # validate rejects an empty list
        if len(gamma) != dim:
            raise DimensionError(f"metrics.gamma has {len(gamma)} weights, "
                                 f"a {self.mode.value} detector needs {dim}")
        self.gamma = np.asarray(gamma, dtype=float)
        # The one place config becomes init, window and threshold policy. Device
        # init counts rows; device retraining is time-paced (devices docstring).
        if self.mode == Mode.DEVICE:
            policy = config.device
            self._init_seconds = self._window_len = None
            self._threshold_scale = policy.threshold_scale
        else:
            policy = config.train
            self._init_seconds, self._window_len = policy.init_seconds, policy.window_len
            self._threshold_scale = 1.0
        self._init_len = policy.init_len
        self._window_seconds = policy.window_seconds
        self._noise_salt = noise_salt
        if online is None:
            online = self.mode != Mode.FEATURES
        self._online_after_init = online

        self._extractor = (StreamMetrics(config.metrics.N, config.metrics.T_us)
                           if self.mode == Mode.BOTNET else None)
        self._row_counter = 0  # rows fed: feature row i is timed i
        self._init_rows: List[Tuple[Sequence[int], np.ndarray]] = []  # (times, rows) chunks

        self.scaler = None
        self.model: Optional[AadrnnModel] = None
        self.stats: Optional[SufficientStats] = None
        self.threshold: Optional[float] = None

        self._pending: List[np.ndarray] = []
        self._pending_d: List[float] = []
        self._window_start_us: Optional[int] = None

    # -- feeding ------------------------------------------------------------

    def step_rows(self, rows: Union[Trace, FeatureTable, np.ndarray]) -> Iterator[Decision]:
        """Feed packets (BOTNET: a ``Trace``) or feature rows (FEATURES: a ``FeatureTable``
        or matrix), split across calls in any way, and yield one decision per judged row.
        Each slice of ``_slices`` joins the init window as ``init_cut`` says, ``initialize``
        fits the window once it closes, and ``observe`` judges the rest. A BOTNET detector
        fed anything but a ``Trace`` raises ``TypeError`` before its state changes."""
        for times, raws in self._slices(rows):
            start = self._join(times, raws) if self.phase == Phase.INIT else 0
            for at_us, raw in zip(times[start:], raws[start:]):
                yield self.observe(raw, at_us)

    def _slices(self, rows) -> Iterator[Tuple[Sequence[int], np.ndarray]]:
        """The input as ``(times, raw rows)`` slices. Feature rows come whole,
        timed by row index. A trace's packets come a ``_packet_columns`` slice
        at a time, their metrics computed by one ``update_block`` call when the
        slice is pulled, before any of its rows is judged."""
        if self.mode == Mode.FEATURES:
            yield range(self._row_counter, self._row_counter + len(rows)), rows
        elif self.mode == Mode.BOTNET:
            if not isinstance(rows, Trace):
                raise TypeError(f"a botnet detector takes a Trace, not {type(rows).__name__}")
            for ts, sizes in _packet_columns(rows):
                yield ts.tolist(), self._extractor.update_block(ts, sizes)
        else:
            raise LifecycleError("device-mode detectors are fed by the DeviceBank")

    def _join(self, times: Sequence[int], rows: np.ndarray) -> int:
        """Add rows to the init window as ``init_cut`` says, fit it once closed: how many joined."""
        cut = self.init_cut(times)
        joined = len(times) if cut is None else cut
        if joined:
            self._init_rows.append((times[:joined], rows[:joined]))
            self._row_counter += joined
        if cut is not None:
            window = [chunk for _, chunk in self._init_rows]
            self.initialize(window[0] if len(window) == 1 else np.concatenate(window))
        return joined

    def observe(self, raw: np.ndarray, at_us: int) -> Decision:
        """Judge one raw metric vector: the detector must have finished init."""
        if self.phase == Phase.INIT:
            raise LifecycleError("detector is still in init: feed it with step_rows")
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (self.dim,):
            raise DimensionError(f"raw vector shape {raw.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite raw metric value")
        self._row_counter += 1
        x = self.scaler.apply(raw)
        x_hat = self.model.forward(x)
        d = float(_weighted_gap(x, x_hat, self.gamma))
        is_attack = d > self.threshold
        decision = Decision(at_us, d, self.threshold, is_attack)  # before a refit moves it
        if self.phase == Phase.ONLINE and not is_attack:
            try:
                self._accept(x, d, at_us)
            except (TrainingError, ValueError) as exc:
                exc.decisions = [(None, decision)]  # judged before the refit failed: see ``replay``
                raise
        return decision

    # -- lifecycle ----------------------------------------------------------

    def init_cut(self, times: Sequence[int]) -> Optional[int]:
        """The init rule: how many of the next rows, timed ``times``, join the open
        init window before it closes, or None if it stays open. The window is the first
        ``init_len`` rows or, with ``init_seconds``, the rows before the first one, from the
        fifth on, at least ceil(init_seconds * 1e6) after the first; that row is judged. Rows
        are timed by timestamp or feature-row index, compared as Python ints: no gap overflows."""
        held = self._row_counter  # every row fed so far waits in the window
        if self._init_seconds is None:
            return max(self._init_len - held, 0) if held + len(times) >= self._init_len else None
        # Clipped to 2**64, past any gap of int64 times, so an infinite product cannot raise.
        bound = math.ceil(min(self._init_seconds * 1e6, 2.0**64))
        first = self._init_rows[0][0] if self._init_rows else times
        for i in range(max(4 - held, 0), len(times)):
            if int(times[i]) - int(first[0]) >= bound:
                return i
        return None

    def initialize(self, X_raw: np.ndarray) -> None:
        """Finish init on the init window's raw rows with one batch fit: the
        scaler, the first model and the threshold. ``step_rows`` calls this
        when the window closes, the device bank when a device's window is
        full. Rows are checked as ``observe`` checks them."""
        if self.phase != Phase.INIT:
            raise LifecycleError("detector has already finished init")
        X_raw = np.asarray(X_raw, dtype=float)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.dim:
            raise DimensionError(f"init rows shape {X_raw.shape}, expected (n, {self.dim})")
        if X_raw.shape[0] < 4:
            raise ValueError(f"init needs >= 4 rows, got {X_raw.shape[0]}")
        if not np.all(np.isfinite(X_raw)):
            raise ValueError("non-finite raw metric value")
        if self.mode == Mode.FEATURES:
            self.scaler = min_max_fit(X_raw)
        else:
            self.scaler = fit_scaling(X_raw)
        X = self.scaler.apply(X_raw)
        self.stats, self.model = fit_batch_with_stats(
            AadrnnModel.initial(self.dim, self.config.train.seed), X, self.config.train,
            salt=self._noise_salt)
        d_init = _weighted_gap(X, self.model.forward(X), self.gamma)
        if self.config.threshold.mode == "fixed":
            self.threshold = float(self.config.threshold.value)
        else:
            self.threshold = whisker_threshold(d_init) * self._threshold_scale
        self._init_rows = []
        self.phase = Phase.ONLINE if self._online_after_init else Phase.FROZEN

    def _accept(self, x: np.ndarray, d: float, at_us: int) -> None:
        if self._window_len is None and self._window_seconds is None:
            return  # online but with no update policy: behaves frozen for training
        self._pending.append(x)
        self._pending_d.append(d)
        if self._window_start_us is None:
            self._window_start_us = at_us
        count_done = self._window_len is not None and len(self._pending) >= self._window_len
        time_done = (self._window_seconds is not None
                     and at_us - self._window_start_us >= self._window_seconds * 1e6)
        if count_done or time_done:
            self._finish_window()

    def _finish_window(self) -> None:
        window = np.asarray(self._pending, dtype=float)
        self.stats, self.model = update_incremental(self.stats, window, self.model,
                                                    self.config.train, salt=self._noise_salt)
        if (self.config.threshold.mode == "whisker"
                and not self.config.threshold.freeze_after_init
                and len(self._pending_d) >= 4):
            self.threshold = whisker_threshold(self._pending_d) * self._threshold_scale
        self._pending = []
        self._pending_d = []
        self._window_start_us = None

    @property
    def accepted_rows(self) -> int:
        """Rows folded into training so far (init rows plus accepted windows)."""
        return 0 if self.stats is None else self.stats.n

    @property
    def pending_rows(self) -> int:
        """Rows fed but not yet trained on: the open init window, later the pending window."""
        return self._row_counter if self.phase == Phase.INIT else len(self._pending)


def _packet_columns(trace: Trace) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """A trace's int64 timestamp and size columns, sliced up to ``_TRACE_BLOCK``
    packets at a time. A slice ends before a timestamp that goes back, so the
    packets ahead of it are judged before ``update_block`` rejects it."""
    stamps, lengths = trace.timestamp_us, trace.size_bytes
    for a in range(0, len(trace), _TRACE_BLOCK):
        ts, sizes = stamps[a:a + _TRACE_BLOCK], lengths[a:a + _TRACE_BLOCK]
        back = np.flatnonzero(ts[1:] < ts[:-1])
        if len(back):
            yield ts[:back[0] + 1], sizes[:back[0] + 1]
            ts, sizes = ts[back[0] + 1:], sizes[back[0] + 1:]
        yield ts, sizes


# ---------------------------------------------------------------------------
# Persistence


def save_state(detector: Detector, path: Union[str, Path]) -> None:
    """Persist a detector's model, scaler, threshold, and training statistics:
    with ``load_state``, the whole state format. The file is deterministic for
    a deterministic run (sorted keys, exact float round-trip via repr). It is
    written through ``replace_file``, so a failed save leaves the previous
    file whole."""
    if detector.phase == Phase.INIT:
        raise LifecycleError("cannot save a detector that has not finished init")
    if detector.state_version != STATE_VERSION:
        raise ValueError(_frozen_only(detector.state_version))
    model, scaler, stats = detector.model, detector.scaler, detector.stats
    doc = {"version": STATE_VERSION, "M": model.input_dim, "L": LAYERS,
           "act": {"r": 1.0, "c": 1.0}, "seed": model.seed,
           "hidden_weights": [w.tolist() for w in model.hidden_weights],
           "readout": model.readout.tolist(),
           "scaling_factors": ({"kind": "max", "scale": scaler.scale.tolist()}
                               if isinstance(scaler, ScalingFactors) else
                               {"kind": "minmax", "lo": scaler.lo.tolist(),
                                "hi": scaler.hi.tolist()}),
           "threshold": float(detector.threshold), "mode": detector.mode.value,
           "gamma": detector.gamma.tolist(),
           "stats": {"G": stats.G.tolist(), "C": stats.C.tolist(), "n": stats.n}}
    with replace_file(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


@contextlib.contextmanager
def replace_file(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once it is written in full:
    the text goes to a temporary file in the same directory, which is fsynced
    and then ``os.replace``d over ``path``. If the write raises, ``path`` is
    left as it was, the temporary file is removed, and an OSError names
    ``path``. Used by ``save_state`` and by ``cli`` for ``--report``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
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


def load_state(path: Union[str, Path], config: Optional[Config] = None, *,
               online: bool = False) -> Detector:
    """Rebuild a detector from a state file; it decides immediately, with no
    re-training (phase ``frozen``, or ``online`` to continue learning). A
    file that is not a well-formed state, with every array shaped for the
    model it holds and every value one that ``save_state`` could write, is
    rejected here with an error that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read(), parse_float=_finite, parse_constant=_finite)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        _check_types(doc)
        version = doc.get("version", -1)
        if version < 1 or version > STATE_VERSION:
            raise ValueError(f"version {version} not supported (max {STATE_VERSION})")
        if version < STATE_VERSION and online:
            raise ValueError(_frozen_only(version))
        if doc["L"] != LAYERS:
            raise ValueError(f"L={doc['L']}: only the stock {LAYERS}-layer network is supported")
        if doc["act"] != {"r": 1.0, "c": 1.0}:
            raise ValueError(f"act {doc['act']!r}: only the stock activation r=1, c=1 "
                             "is supported")
        m, weights = int(doc["M"]), doc["hidden_weights"]
        if len(weights) != LAYERS:
            raise DimensionError(f"{len(weights)} hidden weights, expected L={LAYERS}")
        model = AadrnnModel(tuple(_array(w, (m, m), f"hidden weight {i}")
                                  for i, w in enumerate(weights)),
                            _array(doc["readout"], (m, m), "readout"), int(doc["seed"]))
        # The state's gamma is checked as a metrics.gamma is: by Config.validate, then
        # by the Detector, which also rejects a model width the state's mode does not take.
        config = config or Config()
        metrics = dataclasses.replace(config.metrics, gamma=list(doc["gamma"]))
        detector = Detector(m, dataclasses.replace(config, metrics=metrics),
                            mode=Mode(doc["mode"]), online=online)
        detector.model = model
        scaling = doc["scaling_factors"]
        kind = scaling.get("kind")
        if kind == "max":
            detector.scaler = ScalingFactors(_array(scaling["scale"], (m,), "scale"))
            if not (detector.scaler.scale > 0).all():
                raise ValueError("max scale factors must be positive")
        elif kind == "minmax":
            detector.scaler = MinMaxScaler(_array(scaling["lo"], (m,), "lo"),
                                           _array(scaling["hi"], (m,), "hi"))
            if (detector.scaler.hi < detector.scaler.lo).any():
                raise ValueError("min-max hi is below lo")
        else:
            raise ValueError(f"unknown scaling kind: {kind!r}")
        detector.threshold = float(doc["threshold"])
        if not 0 < detector.threshold < math.inf:
            raise ValueError(f"threshold must be positive, got {doc['threshold']!r}")
        stats, n = doc["stats"], int(doc["stats"]["n"])
        if n < 0:
            raise ValueError(f"stats n must be >= 0, got {n}")
        detector.stats = SufficientStats(_array(stats["G"], (m, m), "stats G"),
                                         _array(stats["C"], (m, m), "stats C"), n)
        detector.phase = Phase.ONLINE if online else Phase.FROZEN
        detector.state_version = version
        return detector
    except KeyError as exc:
        raise ValueError(f"state file {path} has no key {exc}") from None
    except DimensionError as exc:
        raise DimensionError(f"state file {path}: {exc}") from None
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"state file {path}: {exc}") from None


def _array(value, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """A state's JSON list as a read-only float array, which must have ``shape``."""
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise DimensionError(f"{name} has shape {array.shape}, expected {shape}")
    array.flags.writeable = False
    return array


def _finite(text: str) -> float:
    """A JSON number (or ``NaN``, ``Infinity``) as a float, unless it is not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _check_types(value, key: str = "") -> None:
    """Reject a state value of a JSON type ``save_state`` never writes at its key: an
    int at version, M, L, seed and n, a number at any other key but mode, kind, gamma."""
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else ((key, v) for v in value):
            _check_types(v, k)
    elif key not in ("mode", "kind", "gamma"):
        kind = int if key in ("version", "M", "L", "seed", "n") else float
        if not _is_kind(value, kind):
            raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _frozen_only(version: int) -> str:
    return (f"a version {version} state replays frozen only: its training statistics "
            f"come from an older noise stream, so it cannot be trained on or saved")


def salt_for_address(addr: str) -> int:
    """A stable per-address namespace for training noise streams."""
    return zlib.crc32(addr.encode("utf-8"))
