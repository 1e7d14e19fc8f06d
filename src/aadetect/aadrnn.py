"""Auto-associative deep random neural network (AADRNN).

The network is a stack of feed-forward layers whose weights are random,
nonnegative, and frozen at construction; only the final linear readout is ever
fitted. Layer l computes ``h_l = zeta(clip(W_l @ h_{l-1}, 0))`` with the
bounded rational activation ``zeta(v) = v / (r + c * v)``, and the readout
reconstructs the input: ``x_hat = h_L @ W_out``. There are no bias terms.

Hidden weights are drawn i.i.d. Uniform(0, 1/fan_in) from a seeded generator,
which keeps every pre-activation nonnegative for nonnegative inputs and every
hidden activation in [0, 1) for c >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .metrics import DimensionError


@dataclass(frozen=True)
class ActivationParams:
    """Parameters of zeta(v) = v / (r + c * v); both must be positive."""

    r: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.r > 0 and self.c > 0):
            raise ValueError(f"activation parameters must be positive, got r={self.r}, c={self.c}")


def activation(v: np.ndarray, params: ActivationParams = ActivationParams()) -> np.ndarray:
    """Apply zeta elementwise; negative pre-activations are clipped to 0 first.

    Monotone increasing on [0, inf), zero at zero, and bounded by 1/c
    (strictly below 1 whenever c >= 1).
    """
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    return v / (params.r + params.c * v)


@dataclass(frozen=True)
class AadrnnShape:
    """Everything needed to draw the frozen hidden stack deterministically."""

    input_dim: int
    hidden_widths: Tuple[int, ...]
    act: ActivationParams = ActivationParams()
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be a non-empty tuple of positive ints")

    @classmethod
    def default(cls, input_dim: int, layers: int = 3,
                act: ActivationParams = ActivationParams(), seed: int = 0) -> "AadrnnShape":
        """The stock geometry: ``layers`` hidden layers, each of the input width."""
        return cls(input_dim, (input_dim,) * layers, act, seed)


def init_hidden_weights(shape: AadrnnShape) -> Tuple[np.ndarray, ...]:
    """Draw the frozen hidden weights for a shape. Deterministic per seed."""
    rng = np.random.default_rng(shape.seed)
    dims = (shape.input_dim,) + tuple(shape.hidden_widths)
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.uniform(0.0, 1.0 / fan_in, size=(fan_out, fan_in))
        w.flags.writeable = False
        weights.append(w)
    return tuple(weights)


@dataclass(frozen=True)
class AadrnnModel:
    """An immutable model snapshot: frozen hidden weights plus one readout.

    ``readout`` has shape (d_L, input_dim); ``forward`` maps an input vector to
    its reconstruction. Snapshots share hidden weight arrays, so refitting the
    readout is cheap and concurrent readers of an old snapshot are safe.
    """

    hidden_weights: Tuple[np.ndarray, ...]
    readout: np.ndarray
    act: ActivationParams
    input_dim: int
    seed: int

    @property
    def layers(self) -> int:
        return len(self.hidden_weights)

    @property
    def hidden_dim(self) -> int:
        return self.hidden_weights[-1].shape[0]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise DimensionError(f"input has {x.shape[-1]} values, model expects {self.input_dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite model input")
        return x

    def hidden(self, x: np.ndarray) -> np.ndarray:
        """Top hidden activations for a vector or a (n, M) matrix of rows."""
        h = self._check_input(x)
        for w in self.hidden_weights:
            h = activation(h @ w.T, self.act)
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct the input from its top hidden representation."""
        return self.hidden(x) @ self.readout

    def with_readout(self, readout: np.ndarray) -> "AadrnnModel":
        readout = np.asarray(readout, dtype=float)
        if readout.shape != (self.hidden_dim, self.input_dim):
            raise DimensionError(
                f"readout shape {readout.shape} != {(self.hidden_dim, self.input_dim)}")
        if not readout.flags.writeable:
            ro = readout
        else:
            ro = readout.copy()
            ro.flags.writeable = False
        return AadrnnModel(self.hidden_weights, ro, self.act, self.input_dim, self.seed)

    @classmethod
    def initial(cls, shape: AadrnnShape) -> "AadrnnModel":
        """A model with freshly drawn hidden weights and an all-zero readout."""
        weights = init_hidden_weights(shape)
        readout = np.zeros((shape.hidden_widths[-1], shape.input_dim))
        readout.flags.writeable = False
        return cls(weights, readout, shape.act, shape.input_dim, shape.seed)


def model_to_json(model: AadrnnModel) -> dict:
    """Model fields as JSON-ready values; float lists round-trip bit-exactly."""
    return {
        "M": model.input_dim,
        "L": model.layers,
        "act": {"r": model.act.r, "c": model.act.c},
        "seed": model.seed,
        "hidden_weights": [w.tolist() for w in model.hidden_weights],
        "readout": model.readout.tolist(),
    }


def model_from_json(doc: dict) -> AadrnnModel:
    """Rebuild a model from ``model_to_json``'s fields, checking that the
    weights chain from ``M`` inputs through each layer and back to ``M``."""
    weights = []
    width = int(doc["M"])
    for w in doc["hidden_weights"]:
        arr = np.asarray(w, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise DimensionError(
                f"hidden weight {len(weights)} has shape {arr.shape}, expected (n, {width})")
        arr.flags.writeable = False
        weights.append(arr)
        width = arr.shape[0]
    readout = np.asarray(doc["readout"], dtype=float)
    if not weights or readout.shape != (width, int(doc["M"])):
        raise DimensionError(f"readout shape {readout.shape} does not fit "
                             f"{len(weights)} hidden layers ending at width {width}")
    readout.flags.writeable = False
    act = ActivationParams(float(doc["act"]["r"]), float(doc["act"]["c"]))
    model = AadrnnModel(tuple(weights), readout, act, int(doc["M"]), int(doc["seed"]))
    if model.layers != int(doc["L"]):
        raise ValueError(f"layer count {model.layers} != declared L={doc['L']}")
    return model
