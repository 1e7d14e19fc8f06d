"""Sliding-window traffic metrics and normalization.

Each packet is summarized by three values computed over the stream it belongs
to:

  m1  total bytes over the most recent ``min(n, N)`` packets (the new packet
      included)
  m2  average inter-transmission time over those same packets, in seconds:
      the timestamp span divided by ``count - 1`` (zero until two packets
      have been seen)
  m3  number of packets whose timestamp falls in the half-open window
      ``(t - T, t]`` ending at the new packet

``StreamMetrics`` and ``DirectionalMetrics`` take the windows as ``(N, T_us)``,
T in whole microseconds (a run passes the checked ``config.metrics.N`` and
``.T_us``). Their ``update`` takes a packet's plain values, not a packet object.
``StreamMetrics.update_block`` takes a block of packets as integer columns,
as ``Trace`` does, and returns their rows, bit for bit what ``update``
returns packet by packet, on the same arrival-order state; a packet detector
is fed that way. ``DirectionalMetrics`` updates per packet, because its
substreams interleave packet by packet. A stream's state grows with the
stream (see ``StreamMetrics``), so a stream of one packet costs a few
hundred bytes.

The per-address extension keeps two independent substreams per address
(packets it sent, packets it received) and concatenates their metric triples
into a 6-value vector, so a device's metric stream depends only on packets
that involve the device.

Normalization for the streaming modes divides by per-metric scale factors
fitted as the component-wise maximum over an initialization window. Feature
mode uses min-max normalization instead. Neither clamps out-of-range values:
post-init traffic may legitimately exceed the observed range.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .traffic import TimestampOrderError, _int64_column

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


class DimensionError(ValueError):
    """A vector's dimension does not match what the operation expects."""


class StreamMetrics:
    """Streaming computation of (m1, m2, m3) for one packet stream.

    State is two lists that grow with the stream, both in arrival order.
    ``_recent`` holds the last ``min(n, N)`` packets as flat ``ts, size``
    pairs, oldest first, and ``_recent_bytes`` their sizes' sum.
    ``_window[_head:]`` are the timestamps in the trailing ``T`` window; the
    expired ones before ``_head`` are deleted once they make up an eighth of
    the list. ``triple`` reads the latest packet's metrics from this state.
    Each update is O(N) list work at worst, and a block of n packets costs
    O(n + N) numpy work plus a search over the carried window.
    """

    __slots__ = ("N", "T_us", "_recent", "_recent_bytes", "_window", "_head")

    def __init__(self, N: int, T_us: int):
        self.N = N
        self.T_us = T_us
        self._recent: List[int] = []
        self._recent_bytes = 0
        self._window: List[int] = []
        self._head = 0

    def update(self, ts_us: int, size_bytes: int) -> np.ndarray:
        """Advance the buffers with one packet and return its metric triple."""
        window = self._window
        if window and ts_us < window[-1]:
            raise TimestampOrderError(f"timestamp {ts_us} precedes previous {window[-1]}")

        recent = self._recent
        recent += (ts_us, size_bytes)
        self._recent_bytes += size_bytes
        if len(recent) > 2 * self.N:  # the oldest pair leaves the N-packet window
            self._recent_bytes -= recent[1]
            del recent[:2]

        window.append(ts_us)
        head = self._head
        cutoff = ts_us - self.T_us
        while window[head] <= cutoff:
            head += 1
        if head > len(window) >> 3:
            del window[:head]
            head = 0
        self._head = head
        return self.triple()

    def triple(self) -> np.ndarray:
        """The latest packet's (m1, m2, m3), read from the state: zeros before
        the first packet."""
        recent = self._recent
        n = len(recent) // 2
        m2 = (recent[-2] - recent[0]) / (n - 1) / 1e6 if n >= 2 else 0.0
        return np.array([float(self._recent_bytes), m2, float(len(self._window) - self._head)])

    def update_block(self, ts_us, size_bytes) -> np.ndarray:
        """Advance the buffers with a block of packets, given as columns of
        integers that fit int64 (``Trace``'s rule), and return their (n, 3)
        metric rows: bit for bit what n calls of ``update`` return, leaving
        the state they would leave.

        Packet i's window is the last ``min(seen + i + 1, N)`` packets, so the
        ``N - 1`` carried ones and the block's suffice. m1 is a difference of
        int64 prefix sums; m2 divides an int64 span below 2**53, which float64
        holds exactly, so the quotient rounds once as ``update``'s int division
        does; m3 counts the carried and block timestamps past ``t - T`` with
        ``searchsorted``. A block where a sum or a difference could leave
        int64, or a span could reach 2**53, goes through ``update`` row by row.
        A timestamp earlier than the one before it raises before any state
        changes, as do columns of unequal length and a column that is not
        integers fitting int64. Oracle: tests/oracles.py:DequeStreamMetrics; property:
        tests/test_metrics.py::test_blocks_and_rows_mixed_on_one_stream_equal_the_deque_extractor.
        """
        ts_us = _int64_column(ts_us, "ts_us")
        size_bytes = _int64_column(size_bytes, "size_bytes")
        n = len(ts_us)
        if len(size_bytes) != n:
            raise ValueError(f"ts_us has {n} values but size_bytes has {len(size_bytes)}")
        if n == 0:
            return np.empty((0, 3))
        window = self._window
        first, last = int(ts_us[0]), int(ts_us[-1])
        if window and first < window[-1]:
            raise TimestampOrderError(f"timestamp {first} precedes previous {window[-1]}")
        back = np.flatnonzero(ts_us[1:] < ts_us[:-1])
        if len(back):
            i = back[0] + 1
            raise TimestampOrderError(f"timestamp {ts_us[i]} precedes previous {ts_us[i - 1]}")

        recent = self._recent
        held = len(recent) // 2  # min(seen, N)
        carry = min(held, self.N - 1)
        carried = recent[len(recent) - 2 * carry:]
        oldest = carried[0] if carried else first
        biggest = max(-int(size_bytes.min()), int(size_bytes.max()), *map(abs, carried[1::2]))
        if (oldest < _INT64_MIN or last - oldest >= 2**53 or self.T_us > _INT64_MAX
                or first - self.T_us < _INT64_MIN or biggest * (carry + n) > _INT64_MAX):
            return np.array([self.update(t, s) for t, s in zip(ts_us.tolist(),
                                                              size_bytes.tolist())])

        all_ts = np.concatenate([np.array(carried[0::2], dtype=np.int64), ts_us])
        all_sizes = np.concatenate([np.array(carried[1::2], dtype=np.int64), size_bytes])
        sums = np.zeros(carry + n + 1, dtype=np.int64)
        np.cumsum(all_sizes, out=sums[1:])
        count = np.minimum(np.arange(held + 1, held + n + 1), self.N)  # packets in each window
        end = np.arange(carry, carry + n)
        start = end + 1 - count
        out = np.empty((n, 3))
        out[:, 0] = sums[end + 1] - sums[start]
        out[:, 1] = (all_ts[end] - all_ts[start]) / np.maximum(count - 1, 1) / 1e6

        # Carried timestamps at or before the first cutoff count for no packet,
        # those past the last cutoff for every one; only the rest are searched.
        cutoff = ts_us - self.T_us
        lo = bisect_right(window, int(cutoff[0]), self._head)
        hi = bisect_right(window, int(cutoff[-1]), lo)
        searched = np.concatenate([np.array(window[lo:hi], dtype=np.int64), ts_us])
        out[:, 2] = (len(window) - lo) + np.arange(1, n + 1) - np.searchsorted(
            searched, cutoff, side="right")

        keep = min(carry + n, self.N)  # the new last min(seen, N), oldest first
        recent[:] = np.column_stack([all_ts[-keep:], all_sizes[-keep:]]).ravel().tolist()
        self._recent_bytes = int(sums[-1] - sums[-keep - 1])
        window += ts_us.tolist()
        head = bisect_right(window, last - self.T_us, hi)
        if head > len(window) >> 3:
            del window[:head]
            head = 0
        self._head = head
        return out


class DirectionalMetrics:
    """Per-address transmitted/received substream metrics (6 values each).

    An address's vector is (m1, m2, m3) over packets it sent followed by
    (m1, m2, m3) over packets it received; a substream's triple only moves
    when that substream sees a packet, and is zero before its first one; the
    idle ones (src's rx, dst's tx) are read back with ``triple``.
    """

    def __init__(self, N: int, T_us: int):
        self.N = N
        self.T_us = T_us
        self._tx: Dict[str, StreamMetrics] = {}
        self._rx: Dict[str, StreamMetrics] = {}

    def update(self, ts_us: int, src: str, dst: str, size_bytes: int) -> Dict[str, np.ndarray]:
        """Advance src's tx and dst's rx substream with one packet; return the
        updated 6-value vectors keyed by address (one entry if src == dst)."""
        tx = self._tx.get(src)
        if tx is None:
            tx = self._tx[src] = StreamMetrics(self.N, self.T_us)
        sent = tx.update(ts_us, size_bytes)

        rx = self._rx.get(dst)
        if rx is None:
            rx = self._rx[dst] = StreamMetrics(self.N, self.T_us)
        received = rx.update(ts_us, size_bytes)

        # src == dst leaves one entry, the second, whose "idle" triples are the updated ones.
        idle_rx, idle_tx = self._rx.get(src), self._tx.get(dst)
        zeros = np.zeros(3)
        return {src: np.concatenate([sent, zeros if idle_rx is None else idle_rx.triple()]),
                dst: np.concatenate([zeros if idle_tx is None else idle_tx.triple(), received])}

    def drop(self, addr: str) -> None:
        """Forget an address's substream state (device eviction)."""
        for store in (self._tx, self._rx):
            store.pop(addr, None)


# ---------------------------------------------------------------------------
# Scaling


class ScalingFactors(NamedTuple):
    """Per-metric divisors fitted as the component-wise max of an init window
    (zero maxima replaced by 1 so all-quiet metrics pass through unchanged)."""

    scale: np.ndarray

    def apply(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if raw.shape[-1] != self.scale.shape[0]:
            raise DimensionError(
                f"vector has {raw.shape[-1]} metrics, scaling expects {self.scale.shape[0]}")
        return raw / self.scale


def fit_scaling(raws: Sequence[np.ndarray]) -> ScalingFactors:
    """Fit max-based scale factors over an initialization window of raw vectors."""
    mat = np.atleast_2d(np.asarray(raws, dtype=float))
    if mat.size == 0:
        raise ValueError("cannot fit scaling on an empty window")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite raw metric value in scaling window")
    scale = mat.max(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    scale.flags.writeable = False
    return ScalingFactors(scale)


class MinMaxScaler(NamedTuple):
    """Feature-mode normalization: (x - min) / (max - min) per column, fitted on benign
    rows; degenerate columns map to 0. Unclamped: an overflow raises FloatingPointError."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.lo.shape[0]:
            raise DimensionError(
                f"vector has {features.shape[-1]} features, scaler expects {self.lo.shape[0]}")
        span = self.hi - self.lo
        safe = np.where(span == 0.0, 1.0, span)
        with np.errstate(over="raise"):
            out = (features - self.lo) / safe
        out[..., span == 0.0] = 0.0
        return out


def min_max_fit(rows: Sequence[np.ndarray]) -> MinMaxScaler:
    """Fit per-column min/max over (benign) training rows, each range a finite float."""
    mat = np.atleast_2d(np.asarray(rows, dtype=float))
    if mat.size == 0:
        raise ValueError("cannot fit min-max on an empty dataset")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite feature value in training rows")
    return min_max_scaler(mat.min(axis=0), mat.max(axis=0))


def min_max_scaler(lo: np.ndarray, hi: np.ndarray) -> MinMaxScaler:
    """A read-only scaler on per-column bounds, fitted or loaded, unless a column's
    hi is below its lo or its range ``hi - lo`` is not a finite float."""
    if (hi < lo).any():
        raise ValueError("min-max hi is below lo")
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(hi - lo))
    for j in wide[:1]:
        raise ValueError(f"feature column {j + 1} spans {lo[j]:g} to {hi[j]:g}, "
                         "a range min-max scaling cannot hold")
    lo.flags.writeable = hi.flags.writeable = False
    return MinMaxScaler(lo, hi)

