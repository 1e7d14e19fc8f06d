"""Auto-associative deep random neural network (AADRNN).

The network is a stack of ``LAYERS`` feed-forward layers, each as wide as the
input, whose weights are random, nonnegative, and frozen at construction; only
the final linear readout is ever fitted. Layer l computes
``h_l = zeta(clip(W_l @ h_{l-1}, 0))`` with the bounded rational activation
``zeta(v) = v / (1 + v)``, and the readout reconstructs the input:
``x_hat = h_L @ W_out``. There are no bias terms.

Hidden weights are drawn i.i.d. Uniform(0, 1/M), which keeps every
pre-activation nonnegative for nonnegative inputs and every hidden activation
in [0, 1). They are the draws ``np.random.default_rng(train.seed).uniform(0,
1/M, (M, M))`` makes for each layer in turn, computed with Python ints (NumPy's
SeedSequence, then PCG64), so ``numpy.random`` is never imported; NumPy keeps
both streams unchanged across releases (NEP 19).
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Tuple

import numpy as np

from .metrics import DimensionError

LAYERS = 3


# NumPy's SeedSequence hash and PCG64 multiplier (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64/pcg64.h).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """SeedSequence's hash with its running constant, advanced on each call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def init_hidden_weights(input_dim: int, seed: int) -> Tuple[np.ndarray, ...]:
    """Draw the ``LAYERS`` frozen (M, M) hidden weights: bit for bit the
    ``default_rng(seed).uniform(0, 1/M, (M, M))`` draws, layer after layer
    from one generator (see the module docstring). Oracle: numpy.random; test:
    tests/test_aadrnn.py::test_hidden_weights_equal_numpys_pcg64_draws."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _hashmix(_INIT_A, _MULT_A)
    pool = [hash_a(entropy[i] if i < len(entropy) else 0) for i in range(4)]

    def mix_in(dst: int, value: int) -> None:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hash_a(value)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    for src in range(4):  # every pool word into every other, then the rest of the entropy
        for dst in range(4):
            if src != dst:
                mix_in(dst, pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            mix_in(dst, word)
    hash_b = _hashmix(_INIT_B, _MULT_B)
    words = [hash_b(pool[i % 4]) for i in range(8)]  # generate_state(4, np.uint64)
    init_state = words[0] << 64 | words[1] << 96 | words[2] | words[3] << 32
    inc = ((words[4] << 64 | words[5] << 96 | words[6] | words[7] << 32) << 1 | 1) & _MASK128
    state = ((inc + init_state) * _PCG_MULT + inc) & _MASK128  # pcg64_set_seed
    weights = []
    for _ in range(LAYERS):
        draws = []
        for _ in range(input_dim * input_dim):
            state = (state * _PCG_MULT + inc) & _MASK128
            x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            draws.append((1.0 / input_dim) * ((x >> 11) * (1.0 / 9007199254740992.0)))
        w = np.array(draws).reshape(input_dim, input_dim)
        w.flags.writeable = False
        weights.append(w)
    return tuple(weights)


class AadrnnModel(NamedTuple):
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
        """Top hidden activations for a vector or a (n, M) matrix of rows; zeta
        is applied in place, bit-equal to the ``zeta`` of ``tests/oracles.py``."""
        h = self._check_input(x)
        for w in self.hidden_weights:
            h = h @ w.T
            np.maximum(h, 0.0, out=h)
            np.divide(h, h + 1.0, out=h)
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct the input from its top hidden representation."""
        return self.hidden(x) @ self.readout

    def with_readout(self, readout: np.ndarray) -> "AadrnnModel":
        readout = np.asarray(readout, dtype=float)
        if readout.shape != self.readout.shape:
            raise DimensionError(f"readout shape {readout.shape} != {self.readout.shape}")
        if readout.flags.writeable:
            readout = readout.copy()
            readout.flags.writeable = False
        return AadrnnModel(self.hidden_weights, readout, self.seed)

    @classmethod
    def initial(cls, input_dim: int, seed: int) -> "AadrnnModel":
        """A model with freshly drawn hidden weights and an all-zero readout."""
        weights = init_hidden_weights(input_dim, seed)
        readout = np.zeros((input_dim, input_dim))
        readout.flags.writeable = False
        return cls(weights, readout, seed)

