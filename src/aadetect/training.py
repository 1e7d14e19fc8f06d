"""Denoising auto-associative training of the readout.

The readout is the ridge solution of hidden activations of *corrupted* benign
rows against the *clean* rows:

    W_out = (H^T H + lambda I)^{-1} H^T X,   H = hidden(max(0, X + noise))

``fit_batch_with_stats`` and ``update_incremental`` take the run's
``config.train``, checked by ``Config.validate``, and read its ``noise_sigma``
(the noise's standard deviation), ``ridge_lambda`` (lambda) and ``seed``.

Both offline and online training accumulate the same sufficient statistics
G = sum H^T H and C = sum H^T X, so a batch fit equals any sequence of
windowed incremental updates over the same rows, bit for bit. Two things make
that exact:

- Noise draws are keyed to the global accepted-row counter (not to window
  boundaries): row i is corrupted with ``noise_rng(seed, i, salt)``.
- Rows are folded into G and C one at a time, in order. The fold makes one
  pass over chunks of rows (corrupt, hidden forward, fold) as arrays, but
  performs the same float operations as a per-row loop: the hidden forward is
  a stacked per-row matmul (``hidden(X[:, None, :])``, one matrix-vector
  product per row, unlike a 2-D gemm whose blocking varies with the row
  count), and ``np.add.reduce`` sums a C-contiguous (k + 1, M, 2M) buffer of
  ``[G | C]`` and the chunk's outer products over its first axis, which adds
  them one after another onto ``[G | C]``; pairwise summation applies only
  along the contiguous axis.

``noise_rng`` is the key of the noise stream, but a window does not call it
per row. The SeedSequence hash of every row's entropy ``[seed, (salt,) i]`` is
computed for the whole window at once, with uint32 arrays, and each row's
PCG64 is then started from those words (``_window_noise``). The draws are
bit-equal to ``noise_rng``'s. That rests on NumPy's stream-compatibility
policy (NEP 19), under which SeedSequence and PCG64 keep their output across
releases; ``tests/test_training.py`` checks the equality against
``noise_rng`` itself.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .aadrnn import AadrnnModel
from .config import TrainSection
from .metrics import DimensionError


class TrainingError(RuntimeError):
    """The readout system could not be solved."""


@dataclass(frozen=True)
class SufficientStats:
    """Accumulated G = sum H^T H, C = sum H^T X, and the accepted-row count."""

    G: np.ndarray
    C: np.ndarray
    n: int = 0

    @classmethod
    def empty(cls, dim: int) -> "SufficientStats":
        """No rows yet, for a model of input width ``dim``."""
        return cls(np.zeros((dim, dim)), np.zeros((dim, dim)), 0)


def noise_rng(seed: int, index: int, salt: Optional[int] = None) -> np.random.Generator:
    """The generator for the ``index``-th accepted row. Independent of how rows
    are grouped into windows; ``salt`` namespaces per-device noise streams."""
    entropy = [seed, index] if salt is None else [seed, salt, index]
    return np.random.default_rng(entropy)


def corrupt(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise clipped at zero: max(0, x + N(0, sigma^2))."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite training row")
    if sigma == 0.0:
        return np.maximum(x, 0.0)
    return np.maximum(x + rng.normal(0.0, sigma, size=x.shape), 0.0)


# Constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def _int_words(value: int) -> List[int]:
    """An entropy integer as SeedSequence splits it: little-endian 32-bit
    words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``calls`` successive hash calls:
    call t xors with c_t and multiplies by c_{t+1}, c_{t+1} = c_t * mult."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False  # shared by every caller through the cache
    return consts[:-1], consts[1:]


def _hash(values: np.ndarray, consts: Tuple[np.ndarray, np.ndarray], t: int,
          calls: int) -> np.ndarray:
    """Hash calls t .. t + calls - 1, call t + k on ``values[k]`` (or on
    ``values`` itself for every call when it is one row)."""
    xor, mult = consts
    values = (values ^ xor[t:t + calls]) * mult[t:t + calls]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


_OTHERS = tuple([d for d in range(_POOL_SIZE) if d != src] for src in range(_POOL_SIZE))


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for many entropies e
    at once: column j of the (L, n) uint32 ``entropy`` holds the L words of
    entropy j. Returns one row of 4 words per entropy. Every hash call of
    SeedSequence's loops runs in the same order; the calls whose inputs do not
    depend on each other run as one array operation."""
    n_words, n = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A,
                          _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE))
    head = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    head[:min(n_words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hash(head, consts, 0, _POOL_SIZE)
    t = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):  # mixer[dst] = mix(mixer[dst], hash(mixer[src]))
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts, t, len(dst)))
        t += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts, t, _POOL_SIZE))
        t += _POOL_SIZE
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hash(np.concatenate([pool, pool]), consts, 0, 2 * _POOL_SIZE)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _row_seed_states(seed: int, start_index: int, n_rows: int,
                     salt: Optional[int]) -> np.ndarray:
    """The PCG64 seed words of ``noise_rng(seed, i, salt)`` for the ``n_rows``
    rows from ``start_index``: one (n_rows, 4) uint64 array."""
    prefix = _int_words(seed) + ([] if salt is None else _int_words(salt))
    states = np.empty((n_rows, _POOL_SIZE), dtype=np.uint64)
    lo, end = start_index, start_index + n_rows
    while lo < end:  # rows whose index has the same number of words
        index_words = len(_int_words(lo))
        hi = min(end, 1 << (32 * index_words))
        index = np.arange(lo, hi, dtype=np.uint64)
        entropy = np.empty((len(prefix) + index_words, hi - lo), dtype=np.uint32)
        entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
        for k in range(index_words):
            entropy[len(prefix) + k] = index >> np.uint64(32 * k)
        states[lo - start_index:hi - start_index] = _seed_state(entropy)
        lo = hi
    return states


@functools.lru_cache(maxsize=None)
def _row_seed_type() -> type:
    """An ISeedSequence that hands PCG64 the seed words a SeedSequence would
    have generated. Built on first use, so that importing the package does
    not import ``numpy.random`` (about 14 ms) before anything trains."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        __slots__ = ("_state",)

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or dtype is not np.uint64:
                raise ValueError("a row seed holds exactly PCG64's 4 uint64 words")
            return self._state

    return RowSeed


def _window_noise(start_index: int, n_rows: int, width: int, train: TrainSection,
                  salt: Optional[int]) -> np.ndarray:
    """Row j is ``noise_rng(train.seed, start_index + j, salt).normal(0,
    train.noise_sigma, width)``. The seeds of all rows are hashed at once; each
    row's PCG64 then starts from the state ``noise_rng`` would give it."""
    states = _row_seed_states(train.seed, start_index, n_rows, salt)
    row_seed = _row_seed_type()
    noise = np.empty((n_rows, width))
    for j, state in enumerate(states):
        noise[j] = np.random.Generator(np.random.PCG64(row_seed(state))).normal(
            0.0, train.noise_sigma, size=width)
    return noise


def _corrupt_window(window: np.ndarray, start_index: int, train: TrainSection,
                    salt: Optional[int]) -> np.ndarray:
    """``corrupt`` applied to each row of a window, row j with the generator of
    global row ``start_index + j``."""
    if not np.all(np.isfinite(window)):
        raise ValueError("non-finite training row")
    if train.noise_sigma == 0.0:
        return np.maximum(window, 0.0)
    noise = _window_noise(start_index, window.shape[0], window.shape[1], train, salt)
    return np.maximum(window + noise, 0.0)


# Rows per fold step: bounds the (rows + 1, M, 2M) fold buffer to about 1.6 MB
# at M = 20; it is reused, so later chunks fault in no new pages.
_FOLD_CHUNK = 256


def _fold(stats: SufficientStats, clean: np.ndarray, model: AadrnnModel,
          noisy_chunk) -> SufficientStats:
    """Fold ``clean`` into the statistics ``_FOLD_CHUNK`` rows at a time, in
    order, ``noisy_chunk(lo, rows)`` giving the noisy rows of the chunk at
    ``lo``. Row 0 of one reused buffer holds ``[G | C]`` and rows 1..k the
    chunk's ``H (x) [H | clean]``; ``np.add.reduce`` over its axis 0 adds them
    one after another onto row 0 (see the module docstring)."""
    m = clean.shape[1]
    acc = np.concatenate([stats.G, stats.C], axis=1)
    buf = np.empty((min(len(clean), _FOLD_CHUNK) + 1, m, 2 * m))
    for lo in range(0, len(clean), _FOLD_CHUNK):
        rows = clean[lo:lo + _FOLD_CHUNK]
        H = model.hidden(noisy_chunk(lo, rows)[:, None, :])[:, 0, :]
        part = buf[:len(rows) + 1]
        part[0] = acc
        np.multiply(H[:, :, None], np.concatenate([H, rows], axis=1)[:, None, :], out=part[1:])
        acc = np.add.reduce(part, axis=0)
    return SufficientStats(acc[:, :m].copy(), acc[:, m:].copy(), stats.n + len(clean))


def accumulate_pairs(stats: SufficientStats, noisy: np.ndarray, clean: np.ndarray,
                     model: AadrnnModel) -> SufficientStats:
    """Fold explicit (noisy, clean) row pairs into the statistics, one row at a
    time in order, so that every window partition of the same rows gives the
    same bits as the one-shot batch fit (``_fold``)."""
    if noisy.shape != clean.shape:
        raise DimensionError(f"noisy shape {noisy.shape} != clean shape {clean.shape}")
    noisy, clean = np.atleast_2d(noisy, clean)
    return _fold(stats, clean, model, lambda lo, rows: noisy[lo:lo + len(rows)])


def solve_readout(stats: SufficientStats, ridge_lambda: float) -> np.ndarray:
    """W_out = (G + lambda I)^{-1} C."""
    if ridge_lambda <= 0:
        raise ValueError("ridge_lambda must be positive")
    A = stats.G + ridge_lambda * np.eye(stats.G.shape[0])
    try:
        readout = np.linalg.solve(A, stats.C)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"readout system is singular despite ridge: {exc}") from None
    if not np.all(np.isfinite(readout)):
        raise TrainingError("readout solve produced non-finite values")
    readout.flags.writeable = False
    return readout


def update_incremental(stats: SufficientStats, window: np.ndarray, model: AadrnnModel,
                       train: TrainSection, salt: Optional[int] = None
                       ) -> Tuple[SufficientStats, AadrnnModel]:
    """Fold one window of accepted benign rows into the statistics and return
    (updated stats, refreshed model snapshot). The previous snapshot is not
    touched; callers may keep serving it until they swap."""
    window = np.asarray(window, dtype=float)
    if window.ndim == 1:
        window = window.reshape(1, -1)
    if window.shape[1] != model.input_dim:
        raise DimensionError(f"window rows have {window.shape[1]} values, model expects {model.input_dim}")
    if window.shape[0] == 0:
        return stats, model
    start = stats.n
    stats = _fold(stats, window, model,
                  lambda lo, rows: _corrupt_window(rows, start + lo, train, salt))
    return stats, model.with_readout(solve_readout(stats, train.ridge_lambda))


def fit_batch_with_stats(model: AadrnnModel, X: np.ndarray, train: TrainSection,
                         salt: Optional[int] = None) -> Tuple[SufficientStats, AadrnnModel]:
    """Offline fit of an initial ``model`` (``AadrnnModel.initial``) over a
    benign batch: empty statistics plus one window. Returns the statistics
    too, so online training can keep accumulating on top of the initial fit."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("a batch fit needs a non-empty (n, M) matrix of benign rows")
    return update_incremental(SufficientStats.empty(model.input_dim), X, model, train, salt)
