"""Decision math against order-statistic oracles, the detector lifecycle, the
semi-supervised training gate, and state persistence."""

import errno
import json
import os
import re
import weakref
import zlib

import numpy as np
import pytest

from aadetect.aadrnn import AadrnnModel
from aadetect.bench import flood_trace
from aadetect.config import Config, config_from_dict
from aadetect.detector import (Decision, Detector, DetectorState, Fit, LifecycleError, Mode,
                               Phase, load_state, salt_for_address, save_state,
                               whisker_threshold)
from aadetect.metrics import DimensionError, MinMaxScaler, ScalingFactors
from aadetect.traffic import FeatureTable, Trace
from aadetect.training import SufficientStats
from oracles import DequeStreamMetrics, PerRowFeed, legacy_state, oracle_whisker, stepped


def small_config(**train_overrides):
    train = {"init_len": 8, "window_len": 4, "seed": 0}
    train.update(train_overrides)
    return config_from_dict({"train": train, "metrics": {"N": 5, "T_seconds": 1.0}})


def benign_row(rng):
    return rng.uniform(0.8, 1.2, size=3)


def warmed_detector(rng, config=None, **kwargs):
    """A detector past init, fitted on its init_len well-behaved rows, and the
    time of the last one (rows come every 100 ms)."""
    det = Detector(3, config or small_config(), Mode.BOTNET, **kwargs)
    n = det.config.train.init_len
    det.initialize([benign_row(rng) for _ in range(n)])
    return det, n * 100_000


def packets(times, size=100):
    times = list(times)
    return Trace(times, ["a"] * len(times), ["b"] * len(times), range(size, size + len(times)))


# -- decision value ---------------------------------------------------------------


class Reconstructs:
    """A model stand-in that reconstructs every input as ``x_hat``."""

    def __init__(self, x_hat):
        self.x_hat = np.asarray(x_hat, dtype=float)

    def forward(self, x):
        return self.x_hat


def judge(x, x_hat, gamma, threshold=1.0):
    """A frozen detector's decision on raw vector ``x`` under unit scaling,
    weights ``gamma`` and ``threshold``, with ``x_hat`` as the reconstruction."""
    fit = Fit(ScalingFactors(np.ones(len(gamma))), Reconstructs(x_hat), None, threshold)
    det = Detector(len(gamma), small_config(), Mode.FEATURES,  # the mode that takes any width
                   state=DetectorState(fit))
    det.gamma = np.asarray(gamma, dtype=float)
    assert det.phase == Phase.FROZEN
    return det.observe(np.asarray(x, dtype=float), 0)


def test_decision_value_worked_example():
    d = judge([0.2, 0.4, 0.6], [0.1, 0.4, 0.9], np.full(3, 1 / 3)).value
    assert d == pytest.approx(0.4 / 3, abs=1e-12)


def test_decision_value_zero_for_perfect_reconstruction():
    x = np.array([0.3, 0.6, 0.9])
    assert judge(x, x.copy(), np.full(3, 1 / 3)).value == 0.0


def test_decision_value_degenerate_weights_pick_one_coordinate():
    d = judge([0.5, 9.0, 9.0], [0.2, 0.0, 0.0], [1.0, 0.0, 0.0]).value
    assert d == pytest.approx(0.3, abs=1e-12)


def test_decision_value_is_a_metric():
    rng = np.random.default_rng(71)
    for case in range(100):
        dim = int(rng.integers(1, 6))
        gamma = rng.uniform(0.1, 1.0, size=dim)
        gamma /= gamma.sum()
        x, y, z = rng.normal(0, 2, size=(3, dim))
        dxy = judge(x, y, gamma).value
        assert dxy >= 0.0
        assert dxy == pytest.approx(judge(y, x, gamma).value, abs=1e-15)
        assert dxy <= judge(x, z, gamma).value + judge(z, y, gamma).value + 1e-12


def test_decision_value_validation():
    g = np.full(3, 1 / 3)
    with pytest.raises(DimensionError):
        judge(np.zeros(2), np.zeros(3), g)
    with pytest.raises(DimensionError):
        Detector(2, config_from_dict({"metrics": {"gamma": list(g)}}), Mode.FEATURES)
    with pytest.raises(ValueError):
        config_from_dict({"metrics": {"gamma": [0.5, 0.5, 0.5]}})
    with pytest.raises(ValueError):
        config_from_dict({"metrics": {"gamma": [1.5, -0.25, -0.25]}})


@pytest.mark.parametrize("mode", [Mode.BOTNET, Mode.FEATURES])
def test_decision_values_and_the_init_threshold_are_the_weighted_gap_bit_for_bit(mode):
    # Raw rows come from outside the detector: the deque extractor for
    # packets, the table itself for features. Each decision value must be
    # |x - x_hat| @ gamma of its 1-D scaled row, and the init threshold the
    # whisker of the same over the 2-D init window, to the last bit: block
    # scoring must keep this, and a reordered sum does not.
    config = config_from_dict({"train": {"init_len": 500}, "metrics": {"N": 30}})
    if mode == Mode.BOTNET:
        items = flood_trace(7)
        extractor = DequeStreamMetrics(config.metrics.N, config.metrics.T_us)
        raw = np.array([extractor.update(ts, size) for ts, size
                        in zip(items.timestamp_us.tolist(), items.size_bytes.tolist())])
        det = Detector(3, config, mode, online=False)
    else:
        raw = np.random.default_rng(337).lognormal(0.0, 1.0, size=(3000, 20))
        items = FeatureTable(raw)
        det = Detector(20, config, mode, online=False)
    decisions = list(det.step_rows(items))
    assert len(decisions) == len(raw) - 500 and det.phase == Phase.FROZEN
    X = det.scaler.apply(raw[:500])
    assert det.threshold == whisker_threshold(np.abs(X - det.model.forward(X)) @ det.gamma)
    for row, decision in zip(raw[500:], decisions):
        x = det.scaler.apply(row)
        assert decision.value == float(np.abs(x - det.model.forward(x)) @ det.gamma)


def test_detector_gamma_uniform_explicit_and_length():
    assert np.array_equal(Detector(3, Config()).gamma, np.full(3, 1 / 3))
    cfg = config_from_dict({"metrics": {"gamma": [0.2, 0.3, 0.5]}})
    assert np.array_equal(Detector(3, cfg).gamma, [0.2, 0.3, 0.5])
    with pytest.raises(DimensionError, match=r"^metrics.gamma has 3 weights, "
                                             r"a device detector needs 6$"):
        Detector(6, cfg, Mode.DEVICE)


# -- classification ------------------------------------------------------------------


def test_classify_is_strictly_greater_than():
    at_threshold = judge([1.0], [0.0], [1.0], threshold=1.0)
    assert at_threshold.value == 1.0 and at_threshold.is_attack is False
    assert judge([1.0 + 1e-9], [0.0], [1.0], threshold=1.0).is_attack is True
    assert judge([0.0], [0.0], [1.0], threshold=1.0).is_attack is False


def test_classify_rejects_bad_thresholds(tmp_path):
    det, _ = warmed_detector(np.random.default_rng(97))
    path = tmp_path / "state.json"
    save_state(det, path)
    doc = json.loads(path.read_text())
    for theta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            config_from_dict({"threshold": {"mode": "fixed", "value": theta}})
        path.write_text(json.dumps(dict(doc, threshold=theta)))
        with pytest.raises(ValueError):
            load_state(path)


# -- whisker threshold ------------------------------------------------------------------


def test_whisker_worked_example():
    assert whisker_threshold([1.0, 2.0, 3.0, 4.0, 100.0]) == 7.0


def test_whisker_matches_order_statistic_oracle():
    rng = np.random.default_rng(73)
    for case in range(100):
        vals = rng.uniform(0.1, 5.0, size=int(rng.integers(4, 60)))
        assert whisker_threshold(vals) == pytest.approx(oracle_whisker(vals), rel=1e-12)


def test_whisker_degenerate_fallbacks():
    assert whisker_threshold([0.4, 0.4, 0.4, 0.4]) == 0.4  # all equal: the value itself
    assert whisker_threshold([0.0, 0.0, 0.0, 0.0, 5.0]) == 5.0  # zero whisker: max
    assert whisker_threshold([0.0, 0.0, 0.0, 0.0]) == 1e-6  # all zero: floor
    with pytest.raises(ValueError):
        whisker_threshold([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        whisker_threshold([1.0, 2.0, 3.0, float("nan")])


# -- lifecycle -----------------------------------------------------------------------


def test_init_buffers_then_first_decision():
    det = Detector(3, small_config(), Mode.BOTNET)
    trace = packets(range(8))
    for i in range(len(trace)):
        assert det.phase == Phase.INIT
        with pytest.raises(LifecycleError):
            det.observe(np.ones(3), i)  # only step_rows feeds the init window
        assert list(det.step_rows(trace[i:i + 1])) == []
    assert det.phase == Phase.ONLINE
    assert det.threshold > 0 and det.accepted_rows == 8
    assert det.state.init_rows == [] and det.state.row_counter == 8  # no copy of the window
    [dec] = det.step_rows(packets([99]))
    assert isinstance(dec, Decision) and dec.at_us == 99


def test_init_by_stream_time_judges_the_boundary_row():
    det = Detector(3, small_config(init_seconds=1.0), Mode.BOTNET)
    decisions = det.step_rows(packets([0, 300_000, 600_000, 900_000, 1_000_000]))
    assert [dec.at_us for dec in decisions] == [1_000_000] and det.accepted_rows == 4


def test_init_by_time_still_needs_four_rows():
    det = Detector(3, small_config(init_seconds=0.5), Mode.BOTNET)
    assert list(det.step_rows(packets([0, 10_000_000]))) == []  # past the time, too few rows
    assert det.phase == Phase.INIT


def test_botnet_step_consumes_packets_only():
    trace = packets(range(12))  # 8 rows of init, then 4 decisions
    tuples = list(trace)
    det = Detector(3, small_config(), Mode.BOTNET)
    for item in ([], tuples, iter(tuples), tuple(tuples), trace.timestamp_us, np.zeros((2, 3)),
                 FeatureTable(np.zeros((2, 3)))):
        with pytest.raises(TypeError) as err:
            list(det.step_rows(item))
        assert str(err.value) == f"a botnet detector takes a Trace, not {type(item).__name__}"
        assert det.pending_rows == 0 and det.phase == Phase.INIT  # nothing was consumed
    fresh = Detector(3, small_config(), Mode.BOTNET)
    decisions = list(det.step_rows(trace))
    assert len(decisions) == 4 and decisions == list(fresh.step_rows(trace))


def test_features_step_counts_rows_and_defaults_frozen():
    det = Detector(2, small_config(init_len=4), Mode.FEATURES)
    rng = np.random.default_rng(97)
    for i in range(4):
        assert list(det.step_rows(rng.uniform(0, 1, size=(1, 2)))) == []
    assert det.phase == Phase.FROZEN  # feature mode defaults to offline
    [dec] = det.step_rows(np.array([[0.5, 0.5]]))
    assert dec.at_us == 4  # row index stands in for a timestamp
    assert det.accepted_rows == 4  # frozen: nothing new is learned


@pytest.mark.parametrize("init_seconds", [None, -1.0, 0.0, 3e-6, 4.5e-6, 7e-6, 1e-5, 1.0])
def test_init_cut_matches_stepping_feature_rows(init_seconds):
    if init_seconds is not None and init_seconds < 0:  # rejected; 0 is the 4-row minimum
        with pytest.raises(ValueError, match=r"^train\.init_seconds must be >= 0, got -1\.0$"):
            small_config(init_seconds=init_seconds)
        return
    rng = np.random.default_rng(103)
    cfg = small_config(init_seconds=init_seconds)
    for n in range(4, 13):
        det = Detector(2, cfg, Mode.FEATURES)
        feed = PerRowFeed(det)
        for _ in range(n):
            feed.step(rng.uniform(0, 1, size=2))
        per_row = None if det.phase == Phase.INIT else det.accepted_rows
        fresh = Detector(2, cfg, Mode.FEATURES)
        assert fresh.init_cut(range(n)) == per_row, (init_seconds, n)


def test_initialize_checks_rows_as_observe_does():
    rows = np.random.default_rng(101).uniform(0, 1, size=(8, 3))
    det = Detector(3, small_config(), Mode.FEATURES)
    with pytest.raises(DimensionError):
        det.initialize(rows[:, :2])
    with pytest.raises(ValueError):
        det.initialize(rows[:3])
    bad = rows.copy()
    bad[5, 1] = np.inf
    with pytest.raises(ValueError) as bulk:
        det.initialize(bad)
    feed = PerRowFeed(Detector(3, small_config(), Mode.FEATURES))
    with pytest.raises(ValueError) as per_row:
        for row in bad:
            feed.step(row)
    with pytest.raises(ValueError) as fed:
        list(Detector(3, small_config(), Mode.FEATURES).step_rows(bad))
    assert str(bulk.value) == str(per_row.value) == str(fed.value)
    assert det.phase == Phase.INIT
    det.initialize(rows)
    assert det.phase == Phase.FROZEN and det.accepted_rows == 8
    with pytest.raises(LifecycleError):
        det.initialize(rows)


def test_device_mode_rejects_step():
    det = Detector(6, small_config(), Mode.DEVICE)
    with pytest.raises(LifecycleError):
        list(det.step_rows(packets([0])))


def test_observe_validation():
    det, _ = warmed_detector(np.random.default_rng(89))
    with pytest.raises(DimensionError):
        det.observe(np.zeros(4), 0)
    with pytest.raises(ValueError):
        det.observe(np.array([1.0, np.nan, 1.0]), 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Detector(0, small_config())


@pytest.mark.parametrize("mode, fixed, dim", [(Mode.BOTNET, 3, 4), (Mode.DEVICE, 6, 3)])
def test_a_mode_that_fixes_the_width_rejects_another_at_construction(mode, fixed, dim):
    with pytest.raises(DimensionError) as err:
        Detector(dim, Config(), mode)
    assert str(err.value) == f"a {mode.value} detector takes {fixed} metrics, not {dim}"
    assert Detector(fixed, Config(), mode).dim == fixed
    assert Detector(dim, Config(), Mode.FEATURES).dim == dim


def test_step_rows_steps_a_feature_table_and_yields_results_only():
    rng = np.random.default_rng(107)
    table = FeatureTable(rng.uniform(0, 1, size=(12, 2)))
    bulk, per_row = (Detector(2, small_config(init_len=5), Mode.FEATURES) for _ in range(2))
    results = list(bulk.step_rows(table))
    assert len(results) == 7 and [dec.at_us for dec in results] == list(range(5, 12))
    assert [(None, dec) for dec in results] == stepped(per_row, table.features)


def test_freeze_stops_learning_but_not_deciding(tmp_path):
    # A running detector is frozen by saving it and loading it back frozen: it
    # decides as the running one does until that one's first refit (a window
    # holds 4 rows), and learns nothing itself.
    rng = np.random.default_rng(101)
    det, t = warmed_detector(rng)
    save_state(det, tmp_path / "state.json")
    frozen = load_state(tmp_path / "state.json", det.config)
    assert frozen.phase == Phase.FROZEN
    n = frozen.accepted_rows
    for i in range(12):
        t += 100_000
        row = benign_row(rng)
        dec, running = frozen.observe(row, t), det.observe(row, t)
        assert dec is not None and (i >= 4 or dec == running)
    assert frozen.accepted_rows == n < det.accepted_rows


# -- the semi-supervised gate -------------------------------------------------------


def test_attack_judged_rows_never_enter_training():
    rng = np.random.default_rng(103)
    for case in range(100):
        det, t = warmed_detector(rng)
        benign_seen = 0
        for _ in range(int(rng.integers(5, 25))):
            t += 100_000
            if rng.uniform() < 0.3:
                raw = benign_row(rng) * 1e4  # far above the fitted range
            else:
                raw = benign_row(rng)
            dec = det.observe(raw, t)
            if not dec.is_attack:
                benign_seen += 1
        assert det.accepted_rows + det.pending_rows == 8 + benign_seen


def test_every_decision_satisfies_the_threshold_rule():
    rng = np.random.default_rng(107)
    for case in range(100):
        det, t = warmed_detector(rng)
        for _ in range(20):
            t += int(rng.integers(1, 200_000))
            raw = benign_row(rng) * (1e3 if rng.uniform() < 0.2 else 1.0)
            dec = det.observe(raw, t)
            assert dec.is_attack == (dec.value > dec.threshold)


def test_threshold_updates_are_not_retroactive():
    rng = np.random.default_rng(109)
    det, t = warmed_detector(rng)
    history = []
    for _ in range(40):
        t += 100_000
        before = det.threshold
        dec = det.observe(benign_row(rng), t)
        history.append((dec, before))
    assert any(dec.threshold != det.threshold for dec, _ in history)  # it did move
    for dec, before in history:
        assert dec.threshold == before  # each decision used the threshold then in force


def test_count_window_triggers_refit_and_rethreshold():
    rng = np.random.default_rng(113)
    det, t = warmed_detector(rng)  # window_len=4
    theta0 = det.threshold
    readout0 = det.model.readout
    accepted = 0
    while accepted < 4:
        t += 100_000
        if not det.observe(benign_row(rng), t).is_attack:
            accepted += 1
    assert det.accepted_rows == 12 and det.pending_rows == 0
    assert det.model.readout is not readout0
    assert det.threshold != theta0


def test_time_window_triggers_on_stream_time():
    rng = np.random.default_rng(127)
    cfg = small_config(window_len=None, window_seconds=2.0)
    det, t = warmed_detector(rng, cfg)
    det.observe(benign_row(rng), t + 100_000)
    det.observe(benign_row(rng), t + 500_000)
    assert det.pending_rows == 2  # window not yet old enough
    det.observe(benign_row(rng), t + 100_000 + 2_000_000)
    assert det.pending_rows == 0 and det.accepted_rows == 11


def test_online_without_window_policy_never_learns():
    rng = np.random.default_rng(131)
    cfg = small_config(window_len=None, window_seconds=None)
    det, t = warmed_detector(rng, cfg)
    for i in range(10):
        det.observe(benign_row(rng), t + i * 100_000)
    assert det.phase == Phase.ONLINE
    assert det.accepted_rows == 8 and det.pending_rows == 0


def test_fixed_threshold_mode_never_moves():
    rng = np.random.default_rng(137)
    cfg = config_from_dict({"train": {"init_len": 8, "window_len": 4},
                            "threshold": {"mode": "fixed", "value": 0.25}})
    det, t = warmed_detector(rng, cfg)
    assert det.threshold == 0.25
    for i in range(12):
        det.observe(benign_row(rng), t + (i + 1) * 100_000)
    assert det.threshold == 0.25


def test_freeze_after_init_keeps_threshold_but_updates_model():
    rng = np.random.default_rng(139)
    cfg = config_from_dict({"train": {"init_len": 8, "window_len": 4},
                            "threshold": {"freeze_after_init": True}})
    det, t = warmed_detector(rng, cfg)
    theta0 = det.threshold
    readout0 = det.model.readout.copy()
    accepted = 0
    while accepted < 4:
        t += 100_000
        if not det.observe(benign_row(rng), t).is_attack:
            accepted += 1
    assert det.threshold == theta0
    assert not np.array_equal(det.model.readout, readout0)


def test_offline_detector_freezes_after_init():
    rng = np.random.default_rng(149)
    det, t = warmed_detector(rng, online=False)
    assert det.phase == Phase.FROZEN
    det.observe(benign_row(rng), t + 1)
    assert det.accepted_rows == 8


# -- scaling invariance ----------------------------------------------------------------


def test_rescaled_streams_make_identical_decisions():
    # Multiplying every raw metric by 2^k rescales the fitted factors by the
    # same power of two, so normalized values — and every downstream decision —
    # are bit-identical.
    rng = np.random.default_rng(151)
    for case in range(100):
        c = float(2.0 ** rng.integers(-3, 9))
        raws = rng.uniform(0.5, 2.0, size=(14, 3))
        a = Detector(3, small_config(), Mode.BOTNET)
        b = Detector(3, small_config(), Mode.BOTNET)
        a.initialize(raws[:8])
        b.initialize(c * raws[:8])
        assert b.threshold == a.threshold
        for i, raw in enumerate(raws[8:], 8):
            da = a.observe(raw, i)
            db = b.observe(c * raw, i)
            assert db.value == da.value and db.is_attack == da.is_attack
        assert b.threshold == a.threshold


# -- persistence ------------------------------------------------------------------------


def test_state_round_trip_preserves_behavior(tmp_path):
    rng = np.random.default_rng(157)
    det, t = warmed_detector(rng)
    for i in range(6):
        det.observe(benign_row(rng), t + (i + 1) * 100_000)
    path = tmp_path / "state.json"
    save_state(det, path)

    loaded = load_state(path, small_config())
    assert loaded.phase == Phase.FROZEN
    assert loaded.threshold == det.threshold
    assert np.array_equal(loaded.model.readout, det.model.readout)
    assert np.array_equal(loaded.gamma, det.gamma)
    assert loaded.stats.n == det.stats.n
    probe = benign_row(rng)
    assert loaded.observe(probe, 0).value == det.observe(probe, t + 10_000_000).value


def test_state_file_is_deterministic(tmp_path):
    rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
    det1, _ = warmed_detector(rng1)
    det2, _ = warmed_detector(rng2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(det1, p1)
    save_state(det2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_online_detector_continues_learning(tmp_path):
    rng = np.random.default_rng(163)
    det, t = warmed_detector(rng)
    path = tmp_path / "state.json"
    save_state(det, path)
    loaded = load_state(path, small_config(), online=True)
    assert loaded.phase == Phase.ONLINE
    n = loaded.accepted_rows
    accepted = 0
    while accepted < 4:
        t += 100_000
        if not loaded.observe(benign_row(rng), t).is_attack:
            accepted += 1
    assert loaded.accepted_rows == n + 4


def test_interrupted_run_equals_uninterrupted(tmp_path):
    # Save mid-stream, reload online, keep feeding: decisions match a run that
    # never stopped. Noise keyed to the global row counter makes this exact.
    cfg = small_config()
    rng = np.random.default_rng(167)
    rows = [benign_row(rng) for _ in range(30)]
    times = [i * 100_000 for i in range(30)]

    straight = Detector(3, cfg, Mode.BOTNET)
    straight.initialize(rows[:8])
    straight_vals = [None] * 8 + [straight.observe(r, t) for r, t in zip(rows[8:], times[8:])]

    # Cut right after a window flush: pending rows are not persisted, so a
    # clean-cut save captures the complete training state.
    first = Detector(3, cfg, Mode.BOTNET)
    first.initialize(rows[:8])
    cut = None
    for i, (r, t) in enumerate(zip(rows[8:], times[8:]), 8):
        first.observe(r, t)
        if i >= 12 and first.pending_rows == 0:
            cut = i + 1
            break
    assert cut is not None
    path = tmp_path / "mid.json"
    save_state(first, path)
    resumed = load_state(path, cfg, online=True)
    resumed_vals = [resumed.observe(r, t) for r, t in zip(rows[cut:], times[cut:])]

    for a, b in zip(straight_vals[cut:], resumed_vals):
        assert a.value == b.value and a.is_attack == b.is_attack


def test_a_save_that_fails_part_way_leaves_the_old_state_whole(tmp_path, monkeypatch):
    # Resuming in place (replay --state S --save-state S) has only this copy.
    rng = np.random.default_rng(179)
    det, t = warmed_detector(rng)
    path = tmp_path / "state.json"
    save_state(det, path)
    old = path.read_bytes()
    for i in range(6):
        det.observe(benign_row(rng), t + (i + 1) * 100_000)

    def dump_then_fail(doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:100])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        save_state(det, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["state.json"]
    monkeypatch.undo()
    save_state(det, path)
    assert path.read_bytes() != old and os.listdir(tmp_path) == ["state.json"]


def test_save_during_init_is_an_error(tmp_path):
    det = Detector(3, small_config(), Mode.BOTNET)
    with pytest.raises(LifecycleError):
        save_state(det, tmp_path / "x.json")


def test_load_state_validation(tmp_path):
    rng = np.random.default_rng(173)
    det, _ = warmed_detector(rng)
    path = tmp_path / "state.json"
    save_state(det, path)
    doc = json.loads(path.read_text())

    bad = dict(doc, version=99)
    p = tmp_path / "v.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_state(p)

    bad = dict(doc, threshold=0.0)
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_state(p)

    bad = dict(doc, gamma=[0.5, 0.5])
    p.write_text(json.dumps(bad))
    with pytest.raises(DimensionError):
        load_state(p)


def random_state_detector(rng, scaler_kind):
    """A frozen detector of a random width and seed, with a random readout,
    scaler of ``scaler_kind``, statistics and threshold: every value a state
    file holds, none of them fitted."""
    dim = int(rng.choice([1, 2, 3, 5, 6, 20]))
    model = AadrnnModel.initial(dim, int(rng.integers(10_000))).with_readout(
        rng.normal(0, 1, size=(dim, dim)))
    if scaler_kind == "max":
        scaler = ScalingFactors(rng.uniform(0.1, 1e4, size=dim))
    else:
        lo = rng.normal(0, 1, size=dim)
        scaler = MinMaxScaler(lo, lo + rng.uniform(0, 3, size=dim))
    stats = SufficientStats(rng.normal(0, 1, size=(dim, dim)),
                            rng.normal(0, 1, size=(dim, dim)), int(rng.integers(10**9)))
    fit = Fit(scaler, model, stats, float(rng.uniform(1e-6, 10)))
    det = Detector(dim, Config(), Mode.FEATURES, state=DetectorState(fit))  # any width
    assert det.phase == Phase.FROZEN
    return det


@pytest.mark.parametrize("scaler_kind", ["max", "minmax"])
def test_a_state_round_trip_is_exact_for_random_models_and_both_scalers(tmp_path, scaler_kind):
    rng = np.random.default_rng(61)
    for case in range(20):
        det = random_state_detector(rng, scaler_kind)
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        save_state(det, path)
        doc = json.loads(path.read_text())
        assert doc.keys() == {"version", "M", "seed", "readout", "scaling_factors",
                              "threshold", "mode", "gamma", "stats"}
        assert (doc["version"], doc["scaling_factors"]["kind"]) == (3, scaler_kind)
        back = load_state(path)
        assert (back.dim, back.model.seed, back.stats.n) == (det.dim, det.model.seed, det.stats.n)
        arrays = [*zip(back.model.hidden_weights, det.model.hidden_weights),
                  (back.model.readout, det.model.readout), (back.stats.G, det.stats.G),
                  (back.stats.C, det.stats.C)]
        arrays += ([(back.scaler.scale, det.scaler.scale)] if scaler_kind == "max" else
                   [(back.scaler.lo, det.scaler.lo), (back.scaler.hi, det.scaler.hi)])
        assert type(back.scaler) is type(det.scaler)
        for loaded, saved in arrays:
            assert np.array_equal(loaded, saved) and not loaded.flags.writeable
        assert back.threshold == det.threshold and np.array_equal(back.gamma, det.gamma)
        x = rng.uniform(0, 2, size=det.dim)
        assert back.observe(x, 0) == det.observe(x, 0)
        save_state(back, again)
        assert again.read_bytes() == path.read_bytes()


def write_state(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_a_state_rejects_every_network_but_the_stock_one(tmp_path):
    # Version 3 derives the network from (M, seed) and holds none; a version-2
    # state's network must be the one version 2 wrote for its (M, seed).
    det, _ = warmed_detector(np.random.default_rng(1))
    save_state(det, tmp_path / "state.json")
    doc = json.loads((tmp_path / "state.json").read_text())
    old = legacy_state(doc)
    weights, (m, seed) = old["hidden_weights"], (doc["M"], doc["seed"])
    wide = [row + [0.0] for row in weights[0]]  # (M, M + 1)
    one_ulp = [[[float(np.nextafter(weights[0][0][0], 1.0)), *weights[0][0][1:]],
                *weights[0][1:]], *weights[1:]]
    for bad, key in [
            (dict(old, L=2), "L"), (dict(old, L=2, hidden_weights=weights[:2]), "L"),
            (dict(old, act={"r": 2.0, "c": 1.0}), "act"),
            (dict(old, act={"r": 1.0, "c": 1.0, "k": 1.0}), "act"),
            (dict(old, hidden_weights=weights[:2]), "hidden_weights"),
            (dict(old, hidden_weights=weights + weights[:1]), "hidden_weights"),
            (dict(old, hidden_weights=[wide] + weights[1:]), "hidden_weights"),
            (dict(old, hidden_weights=one_ulp), "hidden_weights"),
            (dict(old, version=1, hidden_weights=weights[::-1]), "hidden_weights")]:
        with pytest.raises(ValueError, match=f": {key} is not the stock network of "
                                             f"M={m}, seed={seed}$"):
            load_state(write_state(tmp_path / "bad.json", bad))
    other_seed = dict(old, seed=seed + 1)  # the weights are another seed's draws
    with pytest.raises(ValueError, match=f"hidden_weights is not .* seed={seed + 1}$"):
        load_state(write_state(tmp_path / "bad.json", other_seed))
    for key in ("L", "act", "hidden_weights"):
        with pytest.raises(ValueError, match=f": unknown key '{key}'$"):
            load_state(write_state(tmp_path / "bad.json", dict(doc, **{key: old[key]})))
    for bad, error in [
            (dict(doc, readout=[row + [0.0] for row in doc["readout"]]),
             r"readout has shape \(3, 4\)"),
            (dict(doc, M=4), r"readout has shape \(3, 3\), expected \(4, 4\)"),
            (dict(old, M=4), r"readout has shape \(3, 3\), expected \(4, 4\)")]:
        with pytest.raises(ValueError, match=error):
            load_state(write_state(tmp_path / "bad.json", bad))
    ints = write_state(tmp_path / "ints.json", dict(old, act={"c": 1, "r": 1}))
    assert load_state(ints).dim == 3  # ints are fine
    x, current = benign_row(np.random.default_rng(2)), load_state(tmp_path / "state.json")
    for version in (1, 2):  # both load, and decide as the version-3 state does
        loaded = load_state(write_state(tmp_path / "old.json", legacy_state(doc, version)))
        assert loaded.state_version == version and loaded.observe(x, 0) == current.observe(x, 0)


def test_a_state_names_each_array_of_the_wrong_shape_and_an_unknown_scaler(tmp_path):
    rng = np.random.default_rng(2)
    for kind, arrays in (("max", ("scale",)), ("minmax", ("lo", "hi"))):
        det = random_state_detector(rng, kind)
        save_state(det, tmp_path / "state.json")
        doc = json.loads((tmp_path / "state.json").read_text())
        m, scaling, stats = det.dim, doc["scaling_factors"], doc["stats"]
        bad = [(dict(doc, scaling_factors=dict(scaling, **{name: scaling[name] + [1.0]})),
                f"{name} has shape \\({m + 1},\\), expected \\({m},\\)") for name in arrays]
        bad += [(dict(doc, stats=dict(stats, **{name: stats[name] + [[0.0] * m]})),
                 f"stats {name} has shape \\({m + 1}, {m}\\), expected \\({m}, {m}\\)")
                for name in ("G", "C")]
        bad.append((dict(doc, scaling_factors=dict(scaling, kind="other")),
                    "unknown scaling kind: 'other'"))
        bad.append((dict(doc, stats=dict(stats, n=-1)), "stats n must be >= 0, got -1"))
        for edited, error in bad:
            path = write_state(tmp_path / "bad.json", edited)
            with pytest.raises(ValueError, match=f"^state file {re.escape(str(path))}: {error}$"):
                load_state(path)


def test_a_state_that_is_not_utf8_is_an_error_naming_it(tmp_path):
    det, _ = warmed_detector(np.random.default_rng(3))
    path = tmp_path / "state.json"
    save_state(det, path)
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(ValueError, match=f"^state file {re.escape(str(path))}: 'utf-8' codec"):
        load_state(path)


def test_feeding_rows_and_loading_a_state_change_no_attribute_but_the_record(tmp_path,
                                                                          monkeypatch):
    # Everything a detector changes while rows are fed is its ``state`` record;
    # the policy its config sets is fixed once it is built, and load_state builds
    # a detector on the record it reads rather than assigning to one.
    built, rebound = weakref.WeakSet(), []
    init = Detector.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.add(self)

    def recording_setattr(self, name, value):
        if self in built:
            rebound.append(name)
        object.__setattr__(self, name, value)

    monkeypatch.setattr(Detector, "__init__", recording_init)
    monkeypatch.setattr(Detector, "__setattr__", recording_setattr)
    config, trace = small_config(init_len=100, window_len=50), flood_trace()
    det = Detector(3, config, online=True)
    detectors = [(det, dict(vars(det)))]
    decisions = list(det.step_rows(trace[:2000]))  # through init and window refits
    assert det.phase == Phase.ONLINE and det.accepted_rows > 100
    assert len({d.threshold for d in decisions}) > 1  # a refit moved the threshold
    save_state(det, tmp_path / "state.json")
    for online in (False, True):  # a frozen replay, then an online one
        loaded = load_state(tmp_path / "state.json", config, online=online)
        assert loaded.phase == (Phase.ONLINE if online else Phase.FROZEN)
        detectors.append((loaded, dict(vars(loaded))))
        assert len(list(loaded.step_rows(trace[2000:3000]))) == 1000
    device = Detector(6, small_config(), Mode.DEVICE, online=True)
    detectors.append((device, dict(vars(device))))
    rng = np.random.default_rng(3)
    device.initialize(rng.uniform(0.8, 1.2, size=(8, 6)))
    for i in range(200):  # past device.window_seconds, so the device refits
        device.observe(rng.uniform(0.8, 1.2, size=6), i * 1_000_000)
    assert device.accepted_rows > 8
    assert rebound == []
    for detector, attributes in detectors:
        assert vars(detector).keys() == attributes.keys()
        assert all(vars(detector)[name] is value for name, value in attributes.items())


def test_salt_for_address_is_stable_crc32():
    assert salt_for_address("10.0.0.1") == zlib.crc32(b"10.0.0.1")
    assert salt_for_address("10.0.0.1") != salt_for_address("10.0.0.2")
