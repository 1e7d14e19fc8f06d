"""Metric extraction against brute-force oracles and the deque-backed extractor
it replaced, plus scaling behavior."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aadetect.config import MetricsSection, config_from_dict
from aadetect.metrics import (DimensionError, DirectionalMetrics, ScalingFactors,
                              StreamMetrics, fit_scaling, min_max_fit)
from aadetect.traffic import TimestampOrderError, Trace
from oracles import DequeStreamMetrics, oracle_directional, oracle_triple


def random_packets(rng, n, max_gap_us=2_000_000):
    ts = np.cumsum(rng.integers(0, max_gap_us, size=n))
    sizes = rng.integers(1, 1500, size=n)
    return [(int(t), int(s)) for t, s in zip(ts, sizes)]


# -- streaming (m1, m2, m3) ---------------------------------------------------


def test_first_packet_is_degenerate_window():
    sm = StreamMetrics(10, 10_000_000)
    assert np.array_equal(sm.update(0, 100), [100.0, 0.0, 1.0])


def test_three_packet_worked_example():
    # sizes 50/60/70 at t = 0s, 1s, 2s with N=3, T=1.5s: the 1.5s window
    # ending at 2s is (0.5s, 2s], which contains the packets at 1s and 2s.
    sm = StreamMetrics(3, 1_500_000)
    sm.update(0, 50)
    sm.update(1_000_000, 60)
    m1, m2, m3 = sm.update(2_000_000, 70)
    assert m1 == 180.0
    assert m2 == 1.0
    assert m3 == 2.0


def test_streaming_equals_oracle_on_random_streams():
    rng = np.random.default_rng(42)
    for case in range(12):
        N = int(rng.integers(2, 20))
        T_us = int(rng.integers(100_000, 20_000_000))
        packets = random_packets(rng, 300)
        sm = StreamMetrics(N, T_us)
        for i, (ts, size) in enumerate(packets):
            m1, m2, m3 = sm.update(ts, size)
            e1, e2, e3 = oracle_triple(packets, i, N, T_us)
            assert m1 == e1  # integer byte sum: exact
            assert m3 == e3  # integer count: exact
            assert m2 == pytest.approx(e2, rel=1e-12, abs=0.0)


def bursty_packets(rng, n, T_us):
    """Packets whose gaps are a mix of zero (bursts of equal timestamps),
    short gaps that fill the T window, and gaps longer than T that empty it."""
    kind = rng.choice(3, size=n, p=[0.3, 0.65, 0.05])
    gaps = np.where(kind == 0, 0,
                    np.where(kind == 1, rng.integers(1, T_us // 20, size=n),
                             rng.integers(T_us + 1, 3 * T_us, size=n)))
    ts = np.cumsum(gaps)
    sizes = rng.integers(1, 1500, size=n)
    return [(int(t), int(s)) for t, s in zip(ts, sizes)]


@pytest.mark.parametrize("T_us", [1_000_000, 10_000_000])
@pytest.mark.parametrize("N", [2, 10, 30])
def test_streaming_is_bit_equal_to_the_deque_extractor(N, T_us):
    rng = np.random.default_rng(1000 * N + T_us // 1_000_000)
    packets = bursty_packets(rng, 6000, T_us)
    sm, oracle = StreamMetrics(N, T_us), DequeStreamMetrics(N, T_us)
    compactions = 0
    for ts, size in packets:
        held = len(sm._window)
        got = sm.update(ts, size)
        assert np.array_equal(got, oracle.update(ts, size))
        compactions += len(sm._window) <= held
        # The expired prefix kept ahead of the T window never passes an eighth.
        assert sm._head <= len(sm._window) >> 3
        assert len(sm._window) - sm._head == got[2]
    assert compactions > 100
    with pytest.raises(TimestampOrderError):
        sm.update(packets[-1][0] - 1, 10)


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# Small steps, gaps past 2**53, and values next to either int64 bound.
timestamps = st.one_of(st.integers(0, 3_000_000), st.integers(2**53, 2**55),
                       st.integers(INT64_MIN, INT64_MIN + 2**20),
                       st.integers(INT64_MAX - 2**20, INT64_MAX),
                       st.integers(INT64_MIN, INT64_MAX))
# Packet sizes, and sizes whose sum over a few packets passes int64.
sizes = st.one_of(st.integers(0, 1500), st.integers(2**61, 2**62 + 2**10),
                  st.integers(INT64_MAX - 2**10, INT64_MAX), st.integers(INT64_MIN, INT64_MAX))


@st.composite
def block_streams(draw):
    """An ordered stream with runs of equal timestamps, and the pieces it is fed in:
    each piece is ``(start, end, by_block)``."""
    stamps = sorted(draw(st.lists(timestamps, max_size=60)))
    repeats = draw(st.lists(st.booleans(), min_size=len(stamps), max_size=len(stamps)))
    stamps = [stamps[i - 1] if i and again else t
              for i, (t, again) in enumerate(zip(stamps, repeats))]
    lengths = draw(st.lists(sizes, min_size=len(stamps), max_size=len(stamps)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stamps)), max_size=6)))
    edges = [0, *cuts, len(stamps)]
    pieces = [(a, b, draw(st.booleans())) for a, b in zip(edges, edges[1:])]
    return list(zip(stamps, lengths)), pieces


@given(stream=block_streams(), N=st.sampled_from([1, 2, 3, 5, 30]),
       T_us=st.sampled_from([1, 2, 1_000_000, 2**53, INT64_MAX, 2**63 + 5]))
@example(stream=([(t, 1) for t in (0, 0, 0, 1, 1, 2)], [(0, 2, True), (2, 6, True)]),
         N=1, T_us=1)
@example(stream=([(INT64_MIN, 5), (INT64_MIN + 1, 5), (2**53 + INT64_MIN + 1, 5),
                  (INT64_MAX, 5)], [(0, 2, False), (2, 4, True)]), N=3, T_us=2**53)
@example(stream=([(0, 2**62), (1, 2**62), (2, 2**62 - 1)], [(0, 1, True), (1, 3, True)]),
         N=3, T_us=5)
def test_blocks_and_rows_mixed_on_one_stream_equal_the_deque_extractor(stream, N, T_us):
    packets, pieces = stream
    sm, oracle = StreamMetrics(N, T_us), DequeStreamMetrics(N, T_us)
    for start, end, by_block in pieces:
        part = packets[start:end]
        if by_block:
            got = sm.update_block(np.array([t for t, _ in part], dtype=np.int64),
                                  np.array([s for _, s in part], dtype=np.int64))
        else:
            got = np.array([sm.update(t, s) for t, s in part]).reshape(-1, 3)
        want = np.array([oracle.update(t, s) for t, s in part]).reshape(-1, 3)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if len(part):
            assert sm.triple().tobytes() == want[-1].tobytes()


def test_a_block_that_goes_back_in_time_raises_before_any_state_changes():
    sm, oracle = StreamMetrics(3, 1_000_000), DequeStreamMetrics(3, 1_000_000)
    for t in (10, 20):
        oracle.update(t, 7)
    sm.update_block(np.array([10, 20]), np.array([7, 7]))
    for bad in ([19, 30], [20, 30, 25]):
        with pytest.raises(TimestampOrderError) as err:
            sm.update_block(np.array(bad), np.ones(len(bad), dtype=np.int64))
        assert str(err.value) in ("timestamp 19 precedes previous 20",
                                  "timestamp 25 precedes previous 30")
    got = sm.update_block(np.array([20, 900_000]), np.array([1, 2]))
    assert got.tobytes() == np.array([oracle.update(20, 1), oracle.update(900_000, 2)]).tobytes()


@pytest.mark.parametrize("ts, sizes, column, shown", [
    ([1.7, 2.9], [100, 2], "ts_us", "float64 values"),
    ([1, 2], [100.9, 2], "size_bytes", "float64 values"),
    (["5", "6"], [1, 2], "ts_us", "<U1 values"),
    ([1, 2], [True, False], "size_bytes", "bool values"),
    (np.array([2**63, 2**63 + 5], dtype=np.uint64), [1, 2], "ts_us", str(2**63 + 5)),
])
def test_update_block_takes_integers_that_fit_int64_before_any_state_changes(
        ts, sizes, column, shown):
    sm, oracle = StreamMetrics(5, 10**6), DequeStreamMetrics(5, 10**6)
    sm.update_block([0, 3], np.array([4, 8], dtype=np.uint8))
    with pytest.raises(ValueError) as err:
        sm.update_block(ts, sizes)
    assert str(err.value) == f"{column} must hold integers that fit int64, got {shown}"
    got = sm.update_block(np.array([3, 7]), [1, 2])
    want = [oracle.update(t, s) for t, s in ((0, 4), (3, 8), (3, 1), (7, 2))][2:]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("ts, sizes", [
    ([10, 15], [1]),            # the numpy path
    ([10, 2**60], [1]),         # a span past 2**53: the row-by-row path
    ([10], [1, 2]),
    ([], [1]),
])
def test_update_block_rejects_columns_of_unequal_length_before_any_state_changes(ts, sizes):
    sm, oracle = StreamMetrics(5, 10**6), DequeStreamMetrics(5, 10**6)
    sm.update_block([0, 3], [4, 8])
    with pytest.raises(ValueError) as err:
        sm.update_block(ts, sizes)
    assert str(err.value) == f"ts_us has {len(ts)} values but size_bytes has {len(sizes)}"
    got = sm.update_block([3, 7], [1, 2])
    want = [oracle.update(t, s) for t, s in ((0, 4), (3, 8), (3, 1), (7, 2))][2:]
    assert got.tobytes() == np.array(want).tobytes()


def test_m3_counts_half_open_window_boundary():
    # A packet exactly T older than the current one falls outside (t-T, t].
    sm = StreamMetrics(10, 1_000_000)
    sm.update(0, 10)
    assert sm.update(1_000_000, 10)[2] == 1.0
    sm2 = StreamMetrics(10, 1_000_000)
    sm2.update(1, 10)
    assert sm2.update(1_000_000, 10)[2] == 2.0


def test_equal_timestamps_are_allowed():
    sm = StreamMetrics(4, 1_000_000)
    sm.update(5, 10)
    m1, m2, m3 = sm.update(5, 20)
    assert (m1, m2, m3) == (30.0, 0.0, 2.0)


def test_m1_monotone_in_any_single_packet_size():
    rng = np.random.default_rng(7)
    for case in range(100):
        packets = random_packets(rng, 40)
        j = int(rng.integers(len(packets)))
        bumped = list(packets)
        bumped[j] = (packets[j][0], packets[j][1] + int(rng.integers(1, 500)))
        N = int(rng.integers(2, 12))
        a, b = StreamMetrics(N, 1_000_000), StreamMetrics(N, 1_000_000)
        for (ts1, s1), (ts2, s2) in zip(packets, bumped):
            m = a.update(ts1, s1)
            mb = b.update(ts2, s2)
            assert mb[0] >= m[0]


def test_m3_at_least_one_everywhere():
    rng = np.random.default_rng(11)
    for case in range(100):
        packets = random_packets(rng, 30)
        sm = StreamMetrics(5, int(rng.integers(1, 500_000)))
        for ts, size in packets:
            assert sm.update(ts, size)[2] >= 1.0


def test_out_of_order_timestamp_raises():
    sm = StreamMetrics(5, 1_000_000)
    sm.update(10, 1)
    with pytest.raises(TimestampOrderError):
        sm.update(9, 1)
    dm = DirectionalMetrics(5, 1_000_000)
    dm.update(10, "a", "b", 1)
    with pytest.raises(TimestampOrderError):
        dm.update(9, "a", "c", 1)


# -- directional 6-metric extension -------------------------------------------


def random_trace(rng, n, hosts):
    packets = []
    t = 0
    for _ in range(n):
        t += int(rng.integers(0, 500_000))
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        packets.append((t, hosts[src], hosts[dst], int(rng.integers(1, 1500))))
    return packets


def test_single_packet_directional_vectors():
    dm = DirectionalMetrics(10, 10_000_000)
    vecs = dm.update(0, "A", "B", 100)
    assert np.array_equal(vecs["A"], [100, 0, 1, 0, 0, 0])
    assert np.array_equal(vecs["B"], [0, 0, 0, 100, 0, 1])
    assert list(vecs) == ["A", "B"]
    # Both addresses keep their substream: the reply extends each one.
    vecs = dm.update(1_000_000, "B", "A", 50)
    assert np.array_equal(vecs["B"], [50, 0, 1, 100, 0, 1])
    assert np.array_equal(vecs["A"], [100, 0, 1, 50, 0, 1])


def test_directional_equals_per_substream_oracle():
    rng = np.random.default_rng(3)
    hosts = ["h1", "h2", "h3", "h4"]
    for case in range(4):
        N, T_us = int(rng.integers(2, 8)), int(rng.integers(200_000, 3_000_000))
        trace = random_trace(rng, 500, hosts)
        dm = DirectionalMetrics(N, T_us)
        expected = oracle_directional(trace, N, T_us)
        for pkt, exp in zip(trace, expected):
            got = dm.update(*pkt)
            assert set(got) == set(exp)
            for addr in got:
                assert np.allclose(got[addr], exp[addr], rtol=1e-12, atol=0.0)
                assert got[addr][0] == exp[addr][0] and got[addr][2] == exp[addr][2]
                assert got[addr][3] == exp[addr][3] and got[addr][5] == exp[addr][5]


def test_directional_update_takes_a_packets_plain_values():
    packets = random_trace(np.random.default_rng(29), 50, ["h1", "h2", "h3"])
    trace = Trace(*zip(*packets))
    by_value, by_trace = DirectionalMetrics(4, 1_000_000), DirectionalMetrics(4, 1_000_000)
    for (t, src, dst, size), pkt in zip(packets, trace):
        got, want = by_trace.update(*pkt), by_value.update(t, src, dst, size)
        assert list(got) == list(want)
        assert all(np.array_equal(got[addr], want[addr]) for addr in got)
    with pytest.raises(TypeError):
        by_value.update(packets[0])  # four values, not one packet


def test_directional_isolation_under_other_hosts_permutation():
    # Swapping traffic among the *other* hosts must not change this host's
    # metric vectors: they depend only on packets it sent or received.
    rng = np.random.default_rng(19)
    for case in range(100):
        hosts = ["a", "b", "c", "d"]
        trace = random_trace(rng, 60, hosts)
        watched = "a"
        swapped = []
        for t, src, dst, size in trace:
            if watched in (src, dst):
                swapped.append((t, src, dst, size))
            else:
                swap = {"b": "c", "c": "d", "d": "b"}
                swapped.append((t, swap[src], swap[dst], size))
        d1, d2 = DirectionalMetrics(5, 1_000_000), DirectionalMetrics(5, 1_000_000)
        for p1, p2 in zip(trace, swapped):
            v1, v2 = d1.update(*p1), d2.update(*p2)
            if watched in v1:
                assert watched in v2
                assert np.array_equal(v1[watched], v2[watched])


def test_self_addressed_packet_yields_one_vector():
    dm = DirectionalMetrics(4, 1_000_000)
    vecs = dm.update(0, "A", "A", 60)
    assert list(vecs) == ["A"]
    assert np.array_equal(vecs["A"], [60, 0, 1, 60, 0, 1])


def test_drop_forgets_an_address():
    dm = DirectionalMetrics(4, 1_000_000)
    dm.update(0, "A", "B", 60)
    dm.drop("A")
    vecs = dm.update(1, "A", "B", 60)
    assert np.array_equal(vecs["A"], [60, 0, 1, 0, 0, 0])  # state restarted
    assert np.array_equal(vecs["B"], [0, 0, 0, 120, 1e-6, 2])  # B's state kept


# -- scaling -------------------------------------------------------------------


def test_fit_scaling_componentwise_max_and_zero_guard():
    s = fit_scaling([np.array([100.0, 0.0, 1.0]), np.array([200.0, 2.0, 4.0])])
    assert np.array_equal(s.scale, [200.0, 2.0, 4.0])
    z = fit_scaling([np.array([5.0, 0.0]), np.array([2.0, 0.0])])
    assert np.array_equal(z.scale, [5.0, 1.0])


def test_fit_scaling_matches_max_oracle_on_random_windows():
    rng = np.random.default_rng(23)
    for case in range(100):
        mat = rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 50)), 3))
        s = fit_scaling(mat)
        assert np.array_equal(s.scale, mat.max(axis=0))


def test_fit_scaling_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        fit_scaling([])
    with pytest.raises(ValueError):
        fit_scaling([np.array([1.0, np.inf])])


def test_normalize_endpoints_and_homogeneity():
    s = ScalingFactors(np.array([200.0, 2.0, 4.0]))
    assert np.array_equal(s.apply(np.array([200.0, 2.0, 4.0])), [1, 1, 1])
    assert np.array_equal(s.apply(np.zeros(3)), [0, 0, 0])
    assert np.array_equal(s.apply(np.array([400.0, 4.0, 8.0])), [2, 2, 2])
    rng = np.random.default_rng(5)
    for case in range(100):
        raw = rng.uniform(0, 100, size=3)
        c = float(rng.uniform(0.1, 10))
        assert np.allclose(s.apply(c * raw), c * s.apply(raw), rtol=1e-12)


def test_scaling_apply_keeps_the_raw_vector():
    s = ScalingFactors(np.array([2.0]))
    raw = np.array([4.0])
    x = s.apply(raw)
    assert raw[0] == 4.0 and x[0] == 2.0 and x is not raw


def test_scaling_dimension_mismatch():
    s = ScalingFactors(np.array([1.0, 2.0]))
    with pytest.raises(DimensionError):
        s.apply(np.array([1.0, 2.0, 3.0]))


# -- feature-mode min-max ------------------------------------------------------


def test_min_max_fit_apply_worked_example():
    scaler = min_max_fit([np.array([0.0, 10.0]), np.array([4.0, 30.0])])
    assert np.array_equal(scaler.apply(np.array([2.0, 20.0])), [0.5, 0.5])
    assert np.array_equal(scaler.apply(np.array([8.0, 50.0])), [2.0, 2.0])


def test_min_max_constant_column_maps_to_zero():
    scaler = min_max_fit([np.array([3.0, 1.0]), np.array([3.0, 2.0])])
    assert np.array_equal(scaler.apply(np.array([3.0, 1.5])), [0.0, 0.5])
    mat = scaler.apply(np.array([[3.0, 1.0], [3.0, 2.0]]))
    assert np.array_equal(mat[:, 0], [0.0, 0.0])


def test_min_max_fit_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        min_max_fit([])
    with pytest.raises(ValueError):
        min_max_fit([np.array([np.nan])])


def test_min_max_dimension_mismatch():
    scaler = min_max_fit([np.array([0.0, 1.0])])
    with pytest.raises(DimensionError):
        scaler.apply(np.array([1.0]))


# -- configuration and serialization -------------------------------------------


def test_metric_config_validation():
    # The rules of metrics.N, metrics.T_seconds and metrics.gamma are checked
    # with the rest of the config (tests/test_config_cli.py); here, T_us.
    assert MetricsSection(N=4, T_seconds=2.5).T_us == 2_500_000
    assert MetricsSection(T_seconds=6e-7).T_us == 1  # rounds up to 1 us: accepted
    assert config_from_dict({"metrics": {"T_seconds": 1e-6}}).metrics.T_us == 1
    with pytest.raises(ValueError, match="metrics.T_seconds"):
        config_from_dict({"metrics": {"T_seconds": 4e-7}})

