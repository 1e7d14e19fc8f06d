"""Anomaly decisions and the detector lifecycle.

A decision compares the weighted absolute reconstruction gap

    d = sum_i gamma_i * |x_i - x_hat_i|

against a threshold; traffic is flagged as attack iff d exceeds it strictly.
The threshold is either a fixed configured value or the Tukey upper whisker
(Q3 + 1.5 * IQR) of decision values observed on benign data.

Rows reach a detector as ``(times, raw rows)`` slices: a feature input whole,
a ``Trace`` (the one packet input) up to ``_TRACE_BLOCK`` packets at a time,
their metrics computed for the whole slice by ``StreamMetrics.update_block``.
A detector is the policy its config sets and one ``DetectorState`` record of
everything feeding rows changes. Each slice joins the init window until
``Detector.init_cut`` closes it; a batch fit installs the record's ``fit``, the
snapshot (scaler, model, statistics, threshold) decisions are judged against,
and ``observe`` judges every later row. The phase is ``init`` with no fit,
then ``online`` or ``frozen`` as the ``online`` flag says. Online, only rows
judged benign are queued, and each full window's refit, with (unless frozen
by config) the whisker of its decision values as threshold, is installed as a
new fit. Each decision records the threshold in force when it was made.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zlib
from enum import Enum
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .aadrnn import LAYERS, AadrnnModel
from .config import _KIND_NAMES, Config, _is_kind
from .metrics import (DimensionError, MinMaxScaler, ScalingFactors, StreamMetrics, fit_scaling,
                      min_max_fit, min_max_scaler)
from .traffic import _TRACE_BLOCK, FeatureTable, Trace, replace_file
from .training import (SufficientStats, TrainingError, fit_batch_with_stats,
                       update_incremental)

# Version 3 stores no network: (M, seed) determines it, and version 2 stored it too. A
# version-1 state, trained on per-row PCG64 noise, not the keyed counter noise
# (``training``), still decides as it did, but cannot be trained on or saved again.
STATE_VERSION = 3
_FROZEN_ONLY = ("a version 1 state replays frozen only: its training statistics come from an "
                "older noise stream, so it cannot be trained on or saved")


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
    Oracle: tests/oracles.py:percentile_whisker; property:
    tests/test_quartiles.py::test_quartiles_are_np_percentile_bit_for_bit."""
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


class Fit(NamedTuple):
    """A fitted snapshot: everything a decision is judged against."""

    scaler: Union[ScalingFactors, MinMaxScaler]
    model: AadrnnModel
    stats: SufficientStats
    threshold: float


@dataclasses.dataclass
class DetectorState:
    """Everything a detector changes while rows are fed: the fit (None in init), the
    init window's ``(times, rows)`` chunks, the rows fed (feature row i is timed i), the
    pending window, the version of a loaded state, and a packet detector's metric carry."""

    fit: Optional[Fit] = None
    init_rows: List[Tuple[Sequence[int], np.ndarray]] = dataclasses.field(default_factory=list)
    row_counter: int = 0
    pending: List[np.ndarray] = dataclasses.field(default_factory=list)
    pending_d: List[float] = dataclasses.field(default_factory=list)
    window_start_us: Optional[int] = None
    version: int = STATE_VERSION
    metrics: Optional[StreamMetrics] = None


class Detector:
    """One anomaly detector over a fixed-dimension metric stream.

    ``mode`` selects the front end of ``step_rows``: BOTNET detectors consume
    packets and extract metrics in-stream; FEATURES detectors consume feature
    rows (min-max scaling). The device bank fits each DEVICE detector with
    ``initialize`` and feeds it 6-value vectors via ``observe``. ``state`` is the
    record to start from; a packet detector starts a metric carry if it has none.
    """

    # The installed fit's parts, read-only, each None until init finishes.
    scaler = property(lambda self: self.state.fit and self.state.fit.scaler)
    model = property(lambda self: self.state.fit and self.state.fit.model)
    stats = property(lambda self: self.state.fit and self.state.fit.stats)
    threshold = property(lambda self: self.state.fit and self.state.fit.threshold)
    state_version = property(lambda self: self.state.version)  # 1 for a version-1 file

    def __init__(self, dim: int, config: Config, mode: Union[Mode, str] = Mode.BOTNET, *,
                 online: Optional[bool] = None, noise_salt: Optional[int] = None,
                 state: Optional[DetectorState] = None):
        config = config.validate()  # a hand-built config is checked here, before any row
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.mode = Mode(mode)
        if MODE_DIM.get(self.mode, dim) != dim:
            raise DimensionError(f"a {self.mode.value} detector takes "
                                 f"{MODE_DIM[self.mode]} metrics, not {dim}")
        self.dim, self.config = dim, config
        gamma = config.metrics.gamma or [1.0 / dim] * dim  # validate rejects an empty list
        if len(gamma) != dim:
            raise DimensionError(f"metrics.gamma has {len(gamma)} weights, "
                                 f"a {self.mode.value} detector needs {dim}")
        self.gamma = np.asarray(gamma, dtype=float)
        # The one place config becomes init, window and threshold policy. Device
        # init counts rows; device retraining is time-paced (devices docstring).
        device = self.mode == Mode.DEVICE
        policy = config.device if device else config.train
        self._init_seconds = None if device else policy.init_seconds
        self._window_len = None if device else policy.window_len
        self._threshold_scale = policy.threshold_scale if device else 1.0
        self._init_len, self._window_seconds = policy.init_len, policy.window_seconds
        fixed = config.threshold.mode == "fixed"
        self._fixed_threshold = float(config.threshold.value) if fixed else None
        self._refit_moves_threshold = not (fixed or config.threshold.freeze_after_init)
        self._noise_salt = noise_salt
        self.online = self.mode != Mode.FEATURES if online is None else online
        self.state = state or DetectorState()
        if self.mode == Mode.BOTNET and self.state.metrics is None:
            self.state.metrics = StreamMetrics(config.metrics.N, config.metrics.T_us)

    @property
    def phase(self) -> Phase:
        """INIT until a fit is installed, then ONLINE or FROZEN as ``online`` says."""
        return (Phase.ONLINE if self.online else Phase.FROZEN) if self.state.fit else Phase.INIT

    # -- feeding ------------------------------------------------------------

    def step_rows(self, rows: Union[Trace, FeatureTable, np.ndarray]) -> Iterator[Decision]:
        """Feed packets (BOTNET: a ``Trace``) or feature rows (FEATURES: a ``FeatureTable``
        or matrix), split across calls in any way, and yield one decision per judged row.
        Each slice of ``_slices`` joins the init window as ``init_cut`` says, ``initialize``
        fits the window once it closes, and ``observe`` judges the rest. A BOTNET detector
        fed anything but a ``Trace`` raises ``TypeError`` before its state changes. Oracle:
        tests/oracles.py:PerRowFeed; property, with its feature-row twin:
        tests/test_feed.py::test_packets_in_any_split_decide_as_the_per_row_oracle."""
        for times, raws in self._slices(rows):
            start = self._join(times, raws) if self.state.fit is None else 0
            for at_us, raw in zip(times[start:], raws[start:]):
                yield self.observe(raw, at_us)

    def _slices(self, rows) -> Iterator[Tuple[Sequence[int], np.ndarray]]:
        """The input as ``(times, raw rows)`` slices. Feature rows come whole,
        timed by row index. A trace's packets come a ``_packet_columns`` slice
        at a time, their metrics computed by one ``update_block`` call when the
        slice is pulled, before any of its rows is judged."""
        if self.mode == Mode.FEATURES:
            yield range(self.state.row_counter, self.state.row_counter + len(rows)), rows
        elif self.mode == Mode.BOTNET:
            if not isinstance(rows, Trace):
                raise TypeError(f"a botnet detector takes a Trace, not {type(rows).__name__}")
            for ts, sizes in _packet_columns(rows):
                yield ts.tolist(), self.state.metrics.update_block(ts, sizes)
        else:
            raise LifecycleError("device-mode detectors are fed by the DeviceBank")

    def _join(self, times: Sequence[int], rows: np.ndarray) -> int:
        """Add rows to the init window as ``init_cut`` says, fit it once closed: how many joined."""
        cut = self.init_cut(times)
        joined = len(times) if cut is None else cut
        if joined:
            self.state.init_rows.append((times[:joined], rows[:joined]))
            self.state.row_counter += joined
        if cut is not None:
            window = [chunk for _, chunk in self.state.init_rows]
            self.initialize(window[0] if len(window) == 1 else np.concatenate(window))
        return joined

    def observe(self, raw: np.ndarray, at_us: int) -> Decision:
        """Judge one raw metric vector: the detector must have finished init."""
        state, fit = self.state, self.state.fit
        if fit is None:
            raise LifecycleError("detector is still in init: feed it with step_rows")
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (self.dim,):
            raise DimensionError(f"raw vector shape {raw.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite raw metric value")
        state.row_counter += 1
        try:
            x = fit.scaler.apply(raw)
        except FloatingPointError:  # only min-max scaling raises it: at_us is the row index
            raise ValueError(f"feature row {at_us + 1} overflows the fitted scaling") from None
        x_hat = fit.model.forward(x)
        d = float(_weighted_gap(x, x_hat, self.gamma))
        is_attack = d > fit.threshold
        decision = Decision(at_us, d, fit.threshold, is_attack)  # before a refit moves it
        if self.online and not is_attack:
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
        held, window = self.state.row_counter, self.state.init_rows  # every row fed waits there
        if self._init_seconds is None:
            return max(self._init_len - held, 0) if held + len(times) >= self._init_len else None
        # Clipped to 2**64, past any gap of int64 times, so an infinite product cannot raise.
        bound = math.ceil(min(self._init_seconds * 1e6, 2.0**64))
        first = window[0][0] if window else times
        for i in range(max(4 - held, 0), len(times)):
            if int(times[i]) - int(first[0]) >= bound:
                return i
        return None

    def initialize(self, X_raw: np.ndarray) -> None:
        """Finish init on the init window's raw rows with one batch fit, installed
        whole: the scaler, the first model and the threshold. ``step_rows`` calls
        this when the window closes, the device bank when a device's window is
        full. Rows are checked as ``observe`` checks them."""
        if self.state.fit is not None:
            raise LifecycleError("detector has already finished init")
        X_raw = np.asarray(X_raw, dtype=float)
        if X_raw.ndim != 2 or X_raw.shape[1] != self.dim:
            raise DimensionError(f"init rows shape {X_raw.shape}, expected (n, {self.dim})")
        if X_raw.shape[0] < 4:
            raise ValueError(f"init needs >= 4 rows, got {X_raw.shape[0]}")
        if not np.all(np.isfinite(X_raw)):
            raise ValueError("non-finite raw metric value")
        scaler = min_max_fit(X_raw) if self.mode == Mode.FEATURES else fit_scaling(X_raw)
        X = scaler.apply(X_raw)
        stats, model = fit_batch_with_stats(
            AadrnnModel.initial(self.dim, self.config.train.seed), X, self.config.train,
            salt=self._noise_salt)
        d_init = _weighted_gap(X, model.forward(X), self.gamma)
        threshold = (whisker_threshold(d_init) * self._threshold_scale
                     if self._fixed_threshold is None else self._fixed_threshold)
        self.state.init_rows = []
        self.state.fit = Fit(scaler, model, stats, threshold)

    def _accept(self, x: np.ndarray, d: float, at_us: int) -> None:
        if self._window_len is None and self._window_seconds is None:
            return  # online but with no update policy: behaves frozen for training
        state = self.state
        state.pending.append(x)
        state.pending_d.append(d)
        if state.window_start_us is None:
            state.window_start_us = at_us
        count_done = self._window_len is not None and len(state.pending) >= self._window_len
        time_done = (self._window_seconds is not None
                     and at_us - state.window_start_us >= self._window_seconds * 1e6)
        if count_done or time_done:
            self._finish_window()

    def _finish_window(self) -> None:
        """Refit on the pending window and install the new model, statistics and threshold."""
        state, fit = self.state, self.state.fit
        stats, model = update_incremental(fit.stats, np.asarray(state.pending, dtype=float),
                                          fit.model, self.config.train, salt=self._noise_salt)
        threshold = fit.threshold
        if self._refit_moves_threshold and len(state.pending_d) >= 4:
            threshold = whisker_threshold(state.pending_d) * self._threshold_scale
        state.fit = Fit(fit.scaler, model, stats, threshold)
        state.pending, state.pending_d, state.window_start_us = [], [], None

    @property
    def accepted_rows(self) -> int:
        """Rows folded into training so far (init rows plus accepted windows)."""
        return 0 if self.state.fit is None else self.state.fit.stats.n

    @property
    def pending_rows(self) -> int:
        """Rows fed but not yet trained on: the open init window, later the pending window."""
        return self.state.row_counter if self.state.fit is None else len(self.state.pending)


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
    """Persist a detector's fit, mode and gamma: with ``load_state``, the whole state
    format. The file is deterministic for a deterministic run (sorted keys, exact float
    round-trip via repr), written through ``replace_file``: a failed save leaves the
    previous file whole."""
    if detector.state.fit is None:
        raise LifecycleError("cannot save a detector that has not finished init")
    if detector.state.version == 1:
        raise ValueError(_FROZEN_ONLY)
    scaler, model, stats, threshold = detector.state.fit
    doc = {"version": STATE_VERSION, "M": model.input_dim, "seed": model.seed,
           "readout": model.readout.tolist(),
           "scaling_factors": ({"kind": "max", "scale": scaler.scale.tolist()}
                               if isinstance(scaler, ScalingFactors) else
                               {"kind": "minmax", "lo": scaler.lo.tolist(),
                                "hi": scaler.hi.tolist()}),
           "threshold": float(threshold), "mode": detector.mode.value,
           "gamma": detector.gamma.tolist(),
           "stats": {"G": stats.G.tolist(), "C": stats.C.tolist(), "n": stats.n}}
    with replace_file(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_state(path: Union[str, Path], config: Optional[Config] = None, *,
               online: bool = False) -> Detector:
    """Build a detector on the record a state file holds; it decides at once (phase
    ``frozen``, or ``online`` to continue learning). A file that is not a well-formed
    state, with exactly the keys ``save_state`` writes, every array shaped for its
    model and every value one ``save_state`` could write, is an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read(), parse_float=_finite, parse_constant=_finite)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        _check_types(doc)
        version = doc.get("version", -1)
        if version < 1 or version > STATE_VERSION:
            raise ValueError(f"version {version} not supported (max {STATE_VERSION})")
        if version == 1 and online:
            raise ValueError(_FROZEN_ONLY)
        m, seed = int(doc["M"]), int(doc["seed"])
        readout = _array(doc["readout"], (m, m), "readout")  # bounds M before the draws
        model = AadrnnModel.initial(m, seed).with_readout(readout)
        if version < 3:  # version 2 also wrote the network, which must be the stock one
            stock = [LAYERS, {"r": 1.0, "c": 1.0}, [w.tolist() for w in model.hidden_weights]]
            for key, value in zip(("L", "act", "hidden_weights"), stock):
                if doc[key] != value:
                    raise ValueError(f"{key} is not the stock network of M={m}, seed={seed}")
        # The state's gamma is checked as a metrics.gamma is, by the Detector, which
        # also rejects a model width the state's mode does not take.
        config, mode = config or Config(), Mode(doc["mode"])
        config = config._replace(metrics=config.metrics._replace(gamma=list(doc["gamma"])))
        scaling = doc["scaling_factors"]
        kind = scaling.get("kind")
        if kind == "max":
            scaler = ScalingFactors(_array(scaling["scale"], (m,), "scale"))
            if not (scaler.scale > 0).all():
                raise ValueError("max scale factors must be positive")
        elif kind == "minmax":
            scaler = min_max_scaler(_array(scaling["lo"], (m,), "lo"),
                                    _array(scaling["hi"], (m,), "hi"))
        else:
            raise ValueError(f"unknown scaling kind: {kind!r}")
        threshold = float(doc["threshold"])
        if not 0 < threshold < math.inf:
            raise ValueError(f"threshold must be positive, got {doc['threshold']!r}")
        stats, n = doc["stats"], int(doc["stats"]["n"])
        if n < 0:
            raise ValueError(f"stats n must be >= 0, got {n}")
        stats = SufficientStats(_array(stats["G"], (m, m), "stats G"),
                                _array(stats["C"], (m, m), "stats C"), n)
        return Detector(m, config, mode=mode, online=online, state=DetectorState(
            Fit(scaler, model, stats, threshold), version=version))
    except KeyError as exc:
        raise ValueError(f"state file {path} has no key {exc}") from None
    except DimensionError as exc:
        raise DimensionError(f"state file {path}: {exc}") from None
    except (ValueError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
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


# The keys of each object save_state writes, by its key: a scaler's with its kind, the
# state's with its version family (``act`` is compared whole with the stock activation's).
_KEYS = {"version 2": {"version", "M", "L", "act", "seed", "hidden_weights", "readout",
                       "scaling_factors", "threshold", "mode", "gamma", "stats"},
         "version 3": {"version", "M", "seed", "readout", "scaling_factors", "threshold", "mode",
                       "gamma", "stats"}, "stats": {"G", "C", "n"},
         "scaling_factors max": {"kind", "scale"}, "scaling_factors minmax": {"kind", "lo", "hi"}}


def _check_types(value, key: str = "") -> None:
    """Reject a key or a value of a JSON type ``save_state`` never writes: an int at
    version, M, L, seed and n, a number at any other key but mode, kind and gamma."""
    if isinstance(value, dict):  # an unknown scaler kind or state version is named later
        name = f"{key} {value.get('kind')}" if key == "scaling_factors" else key
        if not key:  # the whole state, by its version family
            version = value.get("version")
            name = f"version {max(version, 2) if _is_kind(version, int) else 2}"
        known = _KEYS.get(name, value)
        unknown = next((k for k in value if k not in known), None)
        if unknown is not None:
            raise ValueError(f"unknown key {unknown!r}" + (f" in {key}" if key else ""))
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else ((key, v) for v in value):
            _check_types(v, k)
    elif key not in ("mode", "kind", "gamma"):
        kind = int if key in ("version", "M", "L", "seed", "n") else float
        if not _is_kind(value, kind):
            raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def salt_for_address(addr: str) -> int:
    """A stable per-address namespace for training noise streams."""
    return zlib.crc32(addr.encode("utf-8"))
