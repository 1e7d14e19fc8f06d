"""Auto-associative deep random neural network (AADRNN).

The network is a stack of ``LAYERS`` feed-forward layers, each as wide as the
input, whose weights are random, nonnegative, and frozen at construction; only
the final linear readout is ever fitted. Layer l computes
``h_l = zeta(clip(W_l @ h_{l-1}, 0))`` with the bounded rational activation
``zeta(v) = v / (1 + v)``, and the readout reconstructs the input:
``x_hat = h_L @ W_out``. There are no bias terms.

Hidden weights are drawn i.i.d. Uniform(0, 1/M) from a generator seeded by
``train.seed``, which keeps every pre-activation nonnegative for nonnegative
inputs and every hidden activation in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .metrics import DimensionError

LAYERS = 3


def activation(v: np.ndarray, r: float = 1.0, c: float = 1.0) -> np.ndarray:
    """Apply zeta(v) = v / (r + c * v) elementwise; negative pre-activations
    are clipped to 0 first. The network uses r = c = 1.

    For positive r and c: monotone increasing on [0, inf), zero at zero, and
    bounded by 1/c (strictly below 1 whenever c >= 1).
    """
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    return v / (r + c * v)


def init_hidden_weights(input_dim: int, seed: int) -> Tuple[np.ndarray, ...]:
    """Draw the ``LAYERS`` frozen (M, M) hidden weights. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights = []
    for _ in range(LAYERS):
        w = rng.uniform(0.0, 1.0 / input_dim, size=(input_dim, input_dim))
        w.flags.writeable = False
        weights.append(w)
    return tuple(weights)


@dataclass(frozen=True)
class AadrnnModel:
    """An immutable model snapshot: frozen hidden weights plus one readout.

    ``readout`` has shape (M, M); ``forward`` maps an input vector to its
    reconstruction. Snapshots share hidden weight arrays, so refitting the
    readout is cheap and concurrent readers of an old snapshot are safe.
    """

    hidden_weights: Tuple[np.ndarray, ...]
    readout: np.ndarray
    seed: int

    @property
    def input_dim(self) -> int:
        return self.readout.shape[1]

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
            h = activation(h @ w.T)
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct the input from its top hidden representation."""
        return self.hidden(x) @ self.readout

    def with_readout(self, readout: np.ndarray) -> "AadrnnModel":
        readout = np.asarray(readout, dtype=float)
        if readout.shape != self.readout.shape:
            raise DimensionError(f"readout shape {readout.shape} != {self.readout.shape}")
        if not readout.flags.writeable:
            ro = readout
        else:
            ro = readout.copy()
            ro.flags.writeable = False
        return AadrnnModel(self.hidden_weights, ro, self.seed)

    @classmethod
    def initial(cls, input_dim: int, seed: int) -> "AadrnnModel":
        """A model with freshly drawn hidden weights and an all-zero readout."""
        weights = init_hidden_weights(input_dim, seed)
        readout = np.zeros((input_dim, input_dim))
        readout.flags.writeable = False
        return cls(weights, readout, seed)


def model_to_json(model: AadrnnModel) -> dict:
    """Model fields as JSON-ready values; float lists round-trip bit-exactly.
    ``L`` and ``act`` record the stock network, which ``model_from_json``
    requires."""
    return {
        "M": model.input_dim,
        "L": LAYERS,
        "act": {"r": 1.0, "c": 1.0},
        "seed": model.seed,
        "hidden_weights": [w.tolist() for w in model.hidden_weights],
        "readout": model.readout.tolist(),
    }


def model_from_json(doc: dict) -> AadrnnModel:
    """Rebuild a model from ``model_to_json``'s fields: the stock network
    (``L`` = 3, ``act`` = {r: 1, c: 1}) with every weight of shape (M, M)."""
    if int(doc["L"]) != LAYERS:
        raise ValueError(f"L={doc['L']}: only the stock {LAYERS}-layer network is supported")
    if doc["act"] != {"r": 1.0, "c": 1.0}:
        raise ValueError(f"act {doc['act']!r}: only the stock activation r=1, c=1 is supported")
    m = int(doc["M"])
    weights = [np.asarray(w, dtype=float) for w in doc["hidden_weights"]]
    if len(weights) != LAYERS:
        raise DimensionError(f"{len(weights)} hidden weights, expected L={LAYERS}")
    readout = np.asarray(doc["readout"], dtype=float)
    for name, arr in [*((f"hidden weight {i}", w) for i, w in enumerate(weights)),
                      ("readout", readout)]:
        if arr.shape != (m, m):
            raise DimensionError(f"{name} has shape {arr.shape}, expected {(m, m)}")
        arr.flags.writeable = False
    return AadrnnModel(tuple(weights), readout, int(doc["seed"]))
