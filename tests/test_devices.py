"""Per-device monitoring: infection-level EMA against closed forms, isolation
between devices, eviction, report semantics, and the bank against an oracle
bank that gives every device a detector from its first vector, with the heap
an address spray costs."""

import tracemalloc

import numpy as np
import pytest

from aadetect.config import config_from_dict
from aadetect.detector import Phase, whisker_threshold
from aadetect.devices import DEVICE_DIM, DeviceBank, InfectionReport, infection_level
from aadetect.metrics import DimensionError
from aadetect.traffic import Trace
from oracles import OracleBank, oracle_directional


def device_config(**overrides):
    device = {"init_len": 6, "window_seconds": 2.0, "ttl_seconds": 3600.0}
    device.update(overrides)
    return config_from_dict({"device": device, "metrics": {"N": 5, "T_seconds": 1.0}})


def init_window(trace, addr, cfg):
    """A device's raw init vectors, from the directional oracle."""
    vectors = [v[addr] for v in oracle_directional(trace, cfg.metrics.N, cfg.metrics.T_us)
               if addr in v]
    return np.array(vectors[:cfg.device.init_len])


def benign_device_trace(rng, n, hosts, mean_gap_us=50_000):
    t = 0
    out = []
    for _ in range(n):
        t += int(rng.exponential(mean_gap_us)) + 1
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        out.append((t, hosts[src], hosts[dst], int(max(1, rng.normal(500, 150)))))
    return out


# -- infection level ---------------------------------------------------------------


def test_infection_level_stays_zero_on_zero_decisions():
    level = 0.0
    for _ in range(10):
        level = infection_level(level, 0.0, 0.1, 1.0)
    assert level == 0.0


def test_infection_level_saturating_series():
    # Constant d == theta: level after k steps is 1 - (1 - alpha)^k.
    level = 0.0
    for k in range(1, 11):
        level = infection_level(level, 1.0, 0.1, 1.0)
        assert level == pytest.approx(1.0 - 0.9 ** k, abs=1e-12)
    assert level == pytest.approx(0.6513215599, abs=1e-9)


def test_infection_level_matches_recurrence_on_random_series():
    rng = np.random.default_rng(211)
    for case in range(100):
        alpha = float(rng.uniform(0.01, 1.0))
        theta = float(rng.uniform(0.1, 5.0))
        level = expected = 0.0
        for _ in range(int(rng.integers(1, 30))):
            d = float(rng.uniform(-0.5, 3.0 * theta))
            level = infection_level(level, d, alpha, theta)
            expected = (1 - alpha) * expected + alpha * min(max(d, 0.0) / theta, 1.0)
            assert level == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= level <= 1.0


def test_infection_level_is_a_contraction():
    # Two trajectories fed the same decision differ by at most (1 - alpha)
    # times their previous gap, so histories are forgotten geometrically.
    rng = np.random.default_rng(223)
    for case in range(100):
        alpha = float(rng.uniform(0.05, 0.95))
        p1, p2 = rng.uniform(0, 1, size=2)
        d, theta = float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2))
        g1 = infection_level(p1, d, alpha, theta)
        g2 = infection_level(p2, d, alpha, theta)
        assert abs(g1 - g2) <= (1 - alpha) * abs(p1 - p2) + 1e-15


def test_infection_level_validation():
    with pytest.raises(ValueError):
        infection_level(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        infection_level(0.0, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        infection_level(0.0, 1.0, 0.1, 0.0)


# -- bank bookkeeping -----------------------------------------------------------------


def test_first_packet_creates_exactly_two_devices():
    bank = DeviceBank(device_config())
    out = bank.ingest((0, "A", "B", 100))
    assert len(bank) == 2 and None not in (bank.device("A"), bank.device("B"))
    assert out == []  # both devices are still initializing
    assert bank.device("A").decisions_count == 0


def test_ingest_takes_one_packet_tuple_as_a_trace_yields_it():
    rng = np.random.default_rng(271)
    packets = benign_device_trace(rng, 60, ["a", "b", "c"])
    trace = Trace(*zip(*packets))
    by_tuple, by_trace = DeviceBank(device_config()), DeviceBank(device_config())
    got = [by_tuple.ingest(pkt) for pkt in packets]
    assert got == [by_trace.ingest(pkt) for pkt in trace] and any(got)
    assert by_tuple.device("a").last_seen_us == max(t for t, s, d, _ in packets if "a" in (s, d))
    with pytest.raises(TypeError):
        by_tuple.ingest(*packets[0])  # one packet argument, not its four fields


def test_device_count_is_bounded_by_distinct_addresses():
    rng = np.random.default_rng(227)
    hosts = [f"10.0.0.{i}" for i in range(1, 7)]
    bank = DeviceBank(device_config())
    for pkt in benign_device_trace(rng, 400, hosts):
        bank.ingest(pkt)
    assert len(bank) == len(hosts)
    assert len(bank.report().devices) == len(hosts)


def test_decisions_start_after_per_device_init():
    rng = np.random.default_rng(229)
    bank = DeviceBank(device_config())  # device init_len = 6
    counts = {}
    for pkt in benign_device_trace(rng, 40, ["a", "b"]):
        for addr, dec in bank.ingest(pkt):
            counts[addr] = counts.get(addr, 0) + 1
            assert dec.value >= 0.0 and dec.at_us == pkt[0]
    # Every packet involves both hosts, so each sees 40 vectors: 6 for init.
    assert counts == {"a": 34, "b": 34}


def test_device_policy_comes_from_the_device_section():
    # Followed by a device, the train section's time-based init would end
    # after 4 vectors and its count window would refit every 2 accepted rows.
    cfg = config_from_dict({"device": {"init_len": 6, "threshold_scale": 4.0},
                            "train": {"init_seconds": 0.5, "window_len": 2},
                            "metrics": {"N": 5, "T_seconds": 1.0}})
    trace = benign_device_trace(np.random.default_rng(263), 40, ["a", "b"],
                                mean_gap_us=200_000)
    bank = DeviceBank(cfg)
    for pkt in trace[:6]:
        assert bank.ingest(pkt) == []
    first = dict(bank.ingest(trace[6]))["a"]
    det = bank.device("a").detector
    X = det.scaler.apply(init_window(trace, "a", cfg))
    assert X.shape[0] == 6
    assert first.threshold == whisker_threshold(np.abs(X - det.model.forward(X)) @ det.gamma) * 4
    for pkt in trace[7:]:
        bank.ingest(pkt)
    assert det.accepted_rows == 6 and det.pending_rows > 2


def test_receive_only_device_is_still_monitored():
    cfg = device_config()
    bank = DeviceBank(cfg)
    senders = ["s1", "s2", "s3"]
    trace = [(20_000 * (i + 1), senders[i % 3], "sink", 200 + i) for i in range(30)]
    for pkt in trace:
        bank.ingest(pkt)
    rec = bank.device("sink")
    assert rec is not None and rec.decisions_count > 0
    # The sink never transmits: its fitted init window is all-zero on the
    # transmitted-substream half of the vector, so that half scales by 1.
    window = init_window(trace, "sink", cfg)
    assert window.shape == (6, 6) and np.all(window[:, :3] == 0.0)
    assert np.all(rec.detector.scaler.apply(window)[:, :3] == 0.0)
    assert np.array_equal(rec.detector.scaler.scale[:3], np.ones(3))


def test_infection_level_and_peak_track_decisions():
    rng = np.random.default_rng(239)
    bank = DeviceBank(device_config())
    trace = benign_device_trace(rng, 120, ["a", "b", "c"])
    for pkt in trace:
        bank.ingest(pkt)
    for addr in ("a", "b", "c"):
        rec = bank.device(addr)
        assert rec.peak_level >= rec.infection_level >= 0.0
        assert rec.peak_level <= 1.0


def test_a_level_step_uses_the_threshold_its_decision_was_judged_against():
    # A window refit inside observe moves the detector's threshold after it
    # judged the row; the level divides by the decision's own threshold, the
    # one the log records.
    cfg = device_config()
    bank = DeviceBank(cfg)
    moved = 0
    for pkt in benign_device_trace(np.random.default_rng(241), 400, ["a", "b", "c"]):
        before = {addr: bank.device(addr).infection_level
                  for addr in pkt[1:3] if bank.device(addr) is not None}
        for addr, dec in bank.ingest(pkt):
            rec = bank.device(addr)
            assert rec.infection_level == infection_level(before[addr], dec.value,
                                                          cfg.device.alpha, dec.threshold)
            moved += rec.detector.threshold != dec.threshold
    assert moved > 0


def test_hysteresis_requires_consecutive_exceedances():
    bank = DeviceBank(device_config())  # hysteresis_k = 3
    bank.ingest((0, "a", "b", 100))
    rec = bank.device("a")
    rec.consecutive_above = 2
    assert not bank.is_compromised(rec)
    rec.consecutive_above = 3
    assert bank.is_compromised(rec)


def test_benign_stream_flags_nobody():
    rng = np.random.default_rng(241)
    bank = DeviceBank(device_config())
    for pkt in benign_device_trace(rng, 600, ["a", "b", "c", "d"]):
        bank.ingest(pkt)
    report = bank.report()
    assert report.compromised == ()
    assert all(not row.is_compromised for row in report.devices)


# -- isolation ---------------------------------------------------------------------------


def test_device_state_depends_only_on_its_own_packets():
    # Replaying just the packets that involve one address reproduces that
    # address's decisions and infection trajectory exactly.
    rng = np.random.default_rng(251)
    hosts = ["a", "b", "c", "d"]
    for case in range(100):
        trace = benign_device_trace(rng, 120, hosts)
        watched = hosts[case % 4]
        full = DeviceBank(device_config())
        full_decisions = []
        for pkt in trace:
            full_decisions.extend(d for addr, d in full.ingest(pkt) if addr == watched)
        only = DeviceBank(device_config())
        only_decisions = []
        for pkt in trace:
            if watched in pkt[1:3]:
                only_decisions.extend(d for addr, d in only.ingest(pkt) if addr == watched)
        assert len(full_decisions) == len(only_decisions)
        for a, b in zip(full_decisions, only_decisions):
            assert a.value == b.value and a.is_attack == b.is_attack
            assert a.at_us == b.at_us and a.threshold == b.threshold
        fr, orr = full.device(watched), only.device(watched)
        assert fr.infection_level == orr.infection_level
        assert fr.peak_level == orr.peak_level
        assert fr.decisions_count == orr.decisions_count


# -- eviction ---------------------------------------------------------------------------


def test_idle_devices_are_evicted_and_reported():
    rng = np.random.default_rng(257)
    cfg = device_config(ttl_seconds=1.0)
    bank = DeviceBank(cfg)
    t = 0
    for i in range(5):
        t += 20_000
        bank.ingest((t, "ghost", "a", 100))
    for i in range(600):  # ghost goes silent; time marches past the TTL
        t += 10_000
        bank.ingest((t, "a", "b", 100))
    assert bank.device("ghost") is None
    report = bank.report()
    ghost_rows = [r for r in report.devices if r.addr == "ghost"]
    assert len(ghost_rows) == 1 and ghost_rows[0].evicted
    assert ghost_rows[0].decisions_count == 0  # never survived init


def test_reappearing_device_restarts_fresh():
    cfg = device_config(ttl_seconds=1.0)
    bank = DeviceBank(cfg)
    t = 0
    for i in range(10):
        t += 20_000
        bank.ingest((t, "ghost", "a", 100))
    for i in range(600):
        t += 10_000
        bank.ingest((t, "a", "b", 100))
    assert bank.device("ghost") is None
    bank.ingest((t + 1, "ghost", "a", 100))
    rec = bank.device("ghost")
    assert rec is not None and rec.decisions_count == 0
    rows = [r for r in bank.report().devices if r.addr == "ghost"]
    assert len(rows) == 2 and sorted(r.evicted for r in rows) == [False, True]


# -- reports ----------------------------------------------------------------------------


def test_report_is_pure_and_sorted():
    rng = np.random.default_rng(263)
    bank = DeviceBank(device_config())
    trace = benign_device_trace(rng, 200, ["a", "b", "c", "d"])
    for pkt in trace:
        bank.ingest(pkt)
    r1, r2 = bank.report(), bank.report()
    assert r1 == r2
    assert isinstance(r1, InfectionReport)
    assert r1.packets == len(trace)
    levels = [row.infection_level for row in r1.devices]
    assert levels == sorted(levels, reverse=True)
    assert list(r1.compromised) == [row.addr for row in r1.devices if row.is_compromised]


def test_device_vector_dimension_is_six():
    assert DEVICE_DIM == 6
    bank = DeviceBank(device_config())  # device init_len = 6
    for pkt in benign_device_trace(np.random.default_rng(281), 6, ["a", "b"]):
        bank.ingest(pkt)
    assert bank.device("a").detector.dim == 6


# -- no detector before init ----------------------------------------------------------


def test_a_device_has_no_detector_until_its_init_completes():
    bank = DeviceBank(device_config())  # device init_len = 6
    trace = benign_device_trace(np.random.default_rng(283), 7, ["a", "b"])
    for pkt in trace[:5]:
        assert bank.ingest(pkt) == []
        assert bank.device("a").detector is None and bank.device("b").detector is None
    assert bank.ingest(trace[5]) == []  # the sixth vector fits the detector, unjudged
    rec = bank.device("a")
    assert rec.init_rows is None
    assert rec.detector.phase == Phase.ONLINE and rec.detector.accepted_rows == 6
    assert sorted(addr for addr, _ in bank.ingest(trace[6])) == ["a", "b"]


def test_a_gamma_the_device_detector_cannot_take_fails_at_the_bank():
    cfg = config_from_dict({"metrics": {"gamma": [0.5, 0.25, 0.25]}})
    with pytest.raises(DimensionError, match="metrics.gamma has 3 weights, a device"):
        DeviceBank(cfg)


def churn_trace(rng, init_len):
    """LAN hosts a-d and f, plus "e" and one-packet outside addresses; then
    e and f fall silent past the TTL (e inside init, f past it) while a-d go
    on; then both return and host a floods b."""
    lan = ["a", "b", "c", "d", "f"]
    out, t = [], 0

    def send(n, hosts, gap_us, size=None):
        nonlocal t
        for _ in range(n):
            t += int(rng.exponential(gap_us)) + 1
            src, dst = rng.choice(len(hosts), size=2, replace=False)
            out.append((t, hosts[src], hosts[dst],
                        size or int(max(1, rng.normal(500, 150)))))

    for i in range(4):
        send(init_len, lan, 20_000)
        if i < 3:  # three vectors: e never finishes an init of 4 or more
            send(1, ["e", "a"], 20_000)
        for k in range(40):
            t += 1000
            out.append((t, "c", f"198.51.100.{40 * i + k}", 90))
    send(1200, lan[:4], 20_000)  # > TTL of stream time and two eviction checks
    send(6 * init_len, lan + ["e"], 20_000)
    for _ in range(600):
        t += 1000
        out.append((t, "a", "b", 60))
    return out


@pytest.mark.parametrize("init_len", [4, 6, 200])
def test_bank_matches_the_bank_that_gave_every_device_a_detector(init_len):
    cfg = config_from_dict({"device": {"init_len": init_len, "window_seconds": 2.0,
                                       "ttl_seconds": 5.0},
                            "metrics": {"N": 5, "T_seconds": 1.0}})
    trace = churn_trace(np.random.default_rng(290 + init_len), init_len)
    bank, oracle = DeviceBank(cfg), OracleBank(cfg)
    for pkt in trace:
        assert bank.ingest(pkt) == oracle.ingest(pkt)
        for addr in pkt[1:3]:
            rec, want = bank.device(addr), oracle.device(addr)
            assert (rec.infection_level, rec.peak_level, rec.consecutive_above) == \
                (want.infection_level, want.peak_level, want.consecutive_above)
    report = bank.report()
    assert report == oracle.report()
    evicted = {row.addr: row.decisions_count for row in report.devices if row.evicted}
    assert evicted["e"] == 0 and evicted["f"] > 0  # evicted inside and past init
    assert "198.51.100.0" in evicted and "a" in report.compromised
    assert min(bank.device(a).decisions_count for a in "ef") > 0  # back, past a fresh init


def test_a_spray_costs_a_bounded_heap_per_address():
    # 20k outside addresses that see 1-3 packets each, none of which finishes
    # init: each costs its record, its receive substream and its init vectors.
    rng = np.random.default_rng(293)
    n_addr = 20_000
    addrs = [f"198.18.{i >> 8}.{i & 255}" for i in range(n_addr)]
    targets = np.repeat(np.arange(n_addr), rng.integers(1, 4, size=n_addr))
    rng.shuffle(targets)
    packets = [(1000 * i, "10.0.0.9", addrs[k], 80) for i, k in enumerate(targets.tolist())]
    bank = DeviceBank(config_from_dict({"metrics": {"N": 30},
                                        "device": {"init_len": len(packets) + 1}}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for pkt in packets:
            bank.ingest(pkt)
        per_addr = (tracemalloc.get_traced_memory()[0] - before) / n_addr
    finally:
        tracemalloc.stop()
    assert len(bank) == n_addr + 1
    assert per_addr < 2000, f"{per_addr:.0f} bytes per address"
