"""Anomaly decisions and the detector lifecycle.

A decision compares the weighted absolute reconstruction gap

    d = sum_i gamma_i * |x_i - x_hat_i|

against a threshold; traffic is flagged as attack iff d exceeds it strictly.
The threshold is either a fixed configured value or the Tukey upper whisker
(Q3 + 1.5 * IQR) of decision values observed on benign data.

Lifecycle: a detector starts in ``init`` and only buffers raw vectors. Once
the init window completes it fits the scaler, fits the first model, sets the
threshold, and moves to ``online`` or ``frozen``. Online operation is
semi-supervised: every decision is emitted, but only rows the detector itself
judged benign are queued for training; at each full window the readout is
refit incrementally and (unless frozen by config) the whisker threshold is
re-estimated from that window's decision values. Threshold updates never
apply retroactively — each decision records the threshold in force when it
was made.
"""

from __future__ import annotations

import itertools
import json
import zlib
from enum import Enum
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .aadrnn import AadrnnModel, model_from_json, model_to_json
from .config import Config
from .metrics import (DimensionError, StreamMetrics, fit_scaling, min_max_fit,
                      scaler_from_json)
from .traffic import Packet
from .training import SufficientStats, fit_batch_with_stats, update_incremental

STATE_VERSION = 1


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


def simple_threshold_baseline(values: np.ndarray, theta: np.ndarray) -> bool:
    """Metric-wise thresholding: attack iff any value exceeds its theta."""
    values = np.asarray(values, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if values.shape != theta.shape:
        raise DimensionError(f"values shape {values.shape} != theta shape {theta.shape}")
    return bool(np.any(values > theta))


def _weighted_gap(x: np.ndarray, x_hat: np.ndarray, gamma: np.ndarray):
    """The decision value of a row, or of each row of a matrix."""
    return np.abs(x - x_hat) @ gamma


class Detector:
    """One anomaly detector over a fixed-dimension metric stream.

    ``mode`` selects the front end: BOTNET detectors consume packets via
    ``step`` and extract metrics in-stream; FEATURES detectors consume feature
    rows (min-max scaling); DEVICE detectors are fed 6-value vectors by the
    device bank via ``observe``.
    """

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
        # The one place config becomes init, window and threshold policy.
        # Device init is count-based (see the devices module docstring).
        if self.mode == Mode.DEVICE:
            policy = config.device
            self._init_seconds = None
            self._threshold_scale = policy.threshold_scale
        else:
            policy = config.train
            self._init_seconds = policy.init_seconds
            self._threshold_scale = 1.0
        self._init_len = policy.init_len
        self._window_len = policy.window_len
        self._window_seconds = policy.window_seconds
        self._noise_salt = noise_salt
        if online is None:
            online = self.mode != Mode.FEATURES
        self._online_after_init = online

        self._extractor = (StreamMetrics(config.metrics.N, config.metrics.T_us)
                           if self.mode == Mode.BOTNET else None)
        self._row_counter = 0
        self._init_rows: List[np.ndarray] = []
        self._init_first_us: Optional[int] = None

        self.scaler = None
        self.model: Optional[AadrnnModel] = None
        self.stats: Optional[SufficientStats] = None
        self.threshold: Optional[float] = None
        self.init_values: Optional[np.ndarray] = None

        self._pending: List[np.ndarray] = []
        self._pending_d: List[float] = []
        self._window_start_us: Optional[int] = None

    # -- feeding ------------------------------------------------------------

    def step(self, item: Union[Packet, np.ndarray]) -> Optional[Decision]:
        """Consume one packet tuple ``(timestamp_us, src, dst, size_bytes)``
        (BOTNET) or one feature row array (FEATURES)."""
        if self.mode == Mode.BOTNET:
            if not isinstance(item, tuple):
                raise TypeError(f"a botnet detector takes packet tuples, not {type(item).__name__}")
            ts_us, _, _, size_bytes = item
            return self.observe(self._extractor.update(ts_us, size_bytes), ts_us)
        if self.mode == Mode.FEATURES:
            return self.observe(item, self._row_counter)
        raise LifecycleError("device-mode detectors are fed by the DeviceBank")

    def step_rows(self, rows: Sequence[Union[Packet, np.ndarray]]
                  ) -> Iterator[Optional[Decision]]:
        """``step`` over a ``Trace``, a ``FeatureTable`` or a matrix, yielding
        each row's result; ``rows`` is iterated once. A fresh FEATURES detector
        fits its init window with one ``initialize`` call on ``rows[:cut]`` (see
        ``init_cut``), then steps the rest: the same detector and decisions."""
        start = 0
        if self.mode == Mode.FEATURES and self.phase == Phase.INIT and self._row_counter == 0:
            cut = self.init_cut(len(rows))
            if cut is not None:
                self.initialize(rows[:cut])
                self._row_counter = start = cut
                yield from itertools.repeat(None, cut)
        for row in itertools.islice(rows, start, None):
            yield self.step(row)

    def observe(self, raw: np.ndarray, at_us: int) -> Optional[Decision]:
        """Consume one raw metric vector. Returns None during init."""
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (self.dim,):
            raise DimensionError(f"raw vector shape {raw.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite raw metric value")
        self._row_counter += 1

        if self.phase == Phase.INIT:
            if self._init_first_us is None:
                self._init_first_us = at_us
            time_done = (self._init_seconds is not None
                         and at_us - self._init_first_us >= self._init_seconds * 1e6
                         and len(self._init_rows) >= 4)
            if not time_done:
                self._init_rows.append(raw)
                if self._init_seconds is None and len(self._init_rows) >= self._init_len:
                    self.initialize(self._init_rows)
                return None
            self.initialize(self._init_rows)
            # fall through: this row is the first to be judged

        x = self.scaler.apply(raw)
        x_hat = self.model.forward(x)
        d = float(_weighted_gap(x, x_hat, self.gamma))
        is_attack = d > self.threshold
        decision = Decision(at_us, d, self.threshold, is_attack)  # before a refit moves it
        if self.phase == Phase.ONLINE and not is_attack:
            self._accept(x, d, at_us)
        return decision

    # -- lifecycle ----------------------------------------------------------

    def init_cut(self, n_rows: int) -> Optional[int]:
        """How many of ``n_rows`` rows stepped into a fresh FEATURES detector
        its init window takes, or None if it is still open after all of them.

        Feature rows are timed by the row counter (row i at i microseconds),
        so this is ``observe``'s rule in closed form: ``init_len`` rows, or
        with ``init_seconds`` the rows before the first one that many
        microseconds after row 0 with at least 4 rows buffered. That row and
        the ones after it are judged, not trained on.
        """
        if self._init_seconds is None:
            return self._init_len if n_rows >= self._init_len else None
        late = np.flatnonzero(np.arange(4, n_rows) >= self._init_seconds * 1e6)
        return 4 + int(late[0]) if late.size else None

    def initialize(self, X_raw: np.ndarray) -> None:
        """Finish init on the init window's raw rows with one batch fit: the
        scaler, the first model and the threshold. ``observe`` calls this when
        its init buffer fills; a caller holding all the rows at once (see
        ``init_cut``) calls it directly. Rows are checked as ``observe``
        checks them."""
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
        X.flags.writeable = False
        self.init_values = X
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

    def freeze(self) -> None:
        """Stop learning; keep deciding with the current snapshot."""
        if self.phase == Phase.INIT:
            raise LifecycleError("cannot freeze a detector that has not finished init")
        self.phase = Phase.FROZEN

    @property
    def accepted_rows(self) -> int:
        """Rows folded into training so far (init rows plus accepted windows)."""
        return 0 if self.stats is None else self.stats.n

    @property
    def pending_rows(self) -> int:
        return len(self._pending)


# ---------------------------------------------------------------------------
# Persistence


def save_state(detector: Detector, path: Union[str, Path]) -> None:
    """Persist a detector's model, scaler, threshold, and training statistics.

    The file is deterministic for a deterministic run (sorted keys, exact
    float round-trip via repr).
    """
    if detector.phase == Phase.INIT:
        raise LifecycleError("cannot save a detector that has not finished init")
    doc = {"version": STATE_VERSION}
    doc.update(model_to_json(detector.model))
    doc["scaling_factors"] = detector.scaler.to_json()
    doc["threshold"] = float(detector.threshold)
    doc["mode"] = detector.mode.value
    doc["gamma"] = [float(g) for g in detector.gamma]
    doc["stats"] = {"G": detector.stats.G.tolist(), "C": detector.stats.C.tolist(),
                    "n": detector.stats.n}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_state(path: Union[str, Path], config: Optional[Config] = None, *,
               online: bool = False) -> Detector:
    """Rebuild a detector from a state file; it decides immediately, with no
    re-training (phase ``frozen``, or ``online`` to continue learning). A
    file that is not a well-formed state, with every array shaped for the
    model it holds, is rejected here with an error that names it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _detector_from_state(json.loads(text), config or Config(), online)
    except KeyError as exc:
        raise ValueError(f"state file {path} has no key {exc}") from None
    except DimensionError as exc:
        raise DimensionError(f"state file {path}: {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"state file {path}: {exc}") from None


def _detector_from_state(doc: dict, config: Config, online: bool) -> Detector:
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    version = int(doc.get("version", -1))
    if version < 1 or version > STATE_VERSION:
        raise ValueError(f"version {version} not supported (max {STATE_VERSION})")
    model = model_from_json(doc)
    m = model.input_dim
    # The Detector rejects a model width that the state's mode does not take.
    detector = Detector(m, config, mode=Mode(doc["mode"]), online=online)
    detector.model = model
    detector.scaler = scaler_from_json(doc["scaling_factors"])
    detector.scaler.apply(np.zeros(m))  # raises unless it scales M values
    detector.threshold = float(doc["threshold"])
    if not (detector.threshold > 0 and np.isfinite(detector.threshold)):
        raise ValueError(f"threshold must be positive, got {doc['threshold']!r}")
    detector.gamma = np.asarray(doc["gamma"], dtype=float)
    if detector.gamma.shape != (m,):
        raise DimensionError("gamma length does not match model dimension")
    stats = doc["stats"]
    G = np.asarray(stats["G"], dtype=float)
    C = np.asarray(stats["C"], dtype=float)
    n = int(stats["n"])
    if G.shape != (m, m) or C.shape != (m, m) or n < 0:
        raise ValueError(f"stats G {G.shape}, C {C.shape} and n {n} do not fit the "
                         f"model: expected G {(m, m)}, C {(m, m)} and n >= 0")
    detector.stats = SufficientStats(G, C, n)
    detector.phase = Phase.ONLINE if online else Phase.FROZEN
    return detector


def salt_for_address(addr: str) -> int:
    """A stable per-address namespace for training noise streams."""
    return zlib.crc32(addr.encode("utf-8"))
