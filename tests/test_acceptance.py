"""Acceptance criteria, one test per criterion, each printing one PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see the lines).

Criterion 7 needs a real labeled feature dataset and is gated behind the
``AADETECT_DATASET`` environment variable; it is a manual job, not part of CI.
"""

import os
import time

import numpy as np
import pytest

from aadetect.aadrnn import AadrnnModel, activation
from aadetect.bench import (run_device_benchmark, run_drift_benchmark,
                            run_flood_benchmark)
from aadetect.config import TrainSection, config_from_dict
from aadetect.detector import Decision, Detector, Mode, whisker_threshold
from aadetect.devices import DeviceBank, infection_level
from aadetect.evaluation import run, score
from aadetect.metrics import DirectionalMetrics, ScalingFactors, StreamMetrics
from aadetect.traffic import load_feature_dataset
from aadetect.training import SufficientStats, fit_batch_with_stats, update_incremental


def check(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# -- 1. metric extraction against a brute-force oracle ---------------------------


def brute_triple(packets, i, N, T_us):
    window = packets[max(0, i - N + 1): i + 1]
    m1 = sum(size for _, size in window)
    m2 = ((window[-1][0] - window[0][0]) / (len(window) - 1) / 1e6
          if len(window) >= 2 else 0.0)
    t = packets[i][0]
    m3 = sum(1 for ts, _ in packets[: i + 1] if t - T_us < ts <= t)
    return m1, m2, m3


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1000)
    N, T_us = 10, 5_000_000

    ts = np.cumsum(rng.integers(0, 400_000, size=1000))
    sizes = rng.integers(1, 1500, size=1000)
    packets = [(int(t), int(s)) for t, s in zip(ts, sizes)]
    sm = StreamMetrics(N, T_us)
    exact = approx = 0
    for i, (t, s) in enumerate(packets):
        m1, m2, m3 = sm.update(t, s)
        e1, e2, e3 = brute_triple(packets, i, N, T_us)
        assert m1 == e1 and m3 == e3
        assert m2 == pytest.approx(e2, rel=1e-12, abs=0.0)
        exact += 2
        approx += 1

    hosts = ["h1", "h2", "h3", "h4"]
    tx, rx, tx_last, rx_last = {}, {}, {}, {}
    dm = DirectionalMetrics(N, T_us)
    t = 0
    for _ in range(1000):
        t += int(rng.integers(0, 300_000))
        i, j = rng.choice(4, size=2, replace=False)
        src, dst, size = hosts[i], hosts[j], int(rng.integers(1, 1500))
        got = dm.update(t, src, dst, size)
        tx.setdefault(src, []).append((t, size))
        tx_last[src] = brute_triple(tx[src], len(tx[src]) - 1, N, T_us)
        rx.setdefault(dst, []).append((t, size))
        rx_last[dst] = brute_triple(rx[dst], len(rx[dst]) - 1, N, T_us)
        for addr in (src, dst):
            exp = tx_last.get(addr, (0, 0, 0)) + rx_last.get(addr, (0, 0, 0))
            vec = got[addr]
            assert vec[0] == exp[0] and vec[2] == exp[2]
            assert vec[3] == exp[3] and vec[5] == exp[5]
            assert vec[1] == pytest.approx(exp[1], rel=1e-12, abs=0.0)
            assert vec[4] == pytest.approx(exp[4], rel=1e-12, abs=0.0)
            exact += 4
            approx += 2

    elapsed = time.perf_counter() - started
    check("criterion 1 (metric oracle, 1000-packet streams x both modes)",
          elapsed < 5.0,
          f"{exact} exact + {approx} approx comparisons in {elapsed:.2f}s (< 5s)")


# -- 2. offline batch == windowed incremental ------------------------------------


def test_criterion_2_batch_incremental_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2000)
    initial = AadrnnModel.initial(3, 4)
    cfg = TrainSection(noise_sigma=0.1, ridge_lambda=1e-4, seed=11)
    X = rng.uniform(0.0, 2.0, size=(2000, 3))

    batch_stats, batch_model = fit_batch_with_stats(initial, X, cfg)

    cuts = np.sort(rng.choice(np.arange(1, 2000), size=17, replace=False))
    stats, model = SufficientStats.empty(3), initial
    for chunk in np.split(X, cuts):
        stats, model = update_incremental(stats, chunk, model, cfg)

    assert np.array_equal(stats.G, batch_stats.G)
    assert np.array_equal(stats.C, batch_stats.C)
    same = np.array_equal(model.readout, batch_model.readout)
    elapsed = time.perf_counter() - started
    check("criterion 2 (batch == incremental, 2000 rows, random partition)",
          same and stats.n == 2000 and elapsed < 10.0,
          f"readouts bit-equal: {same} in {elapsed:.2f}s (< 10s)")


# -- 3. whisker threshold math ----------------------------------------------------


def test_criterion_3_whisker_rules():
    ok = whisker_threshold([1.0, 2.0, 3.0, 4.0, 100.0]) == 7.0
    ok = ok and whisker_threshold([0.7, 0.7, 0.7, 0.7]) == 0.7
    ok = ok and whisker_threshold([0.0, 0.0, 0.0, 0.0]) == 1e-6
    try:
        whisker_threshold([1.0, 2.0, 3.0])
        ok = False
    except ValueError:
        pass
    check("criterion 3 (whisker: {1,2,3,4,100} -> 7 + degenerate rules)", ok,
          "outlier-robust quartile math exact")


# -- 4. flood benchmark -------------------------------------------------------------


def test_criterion_4_flood_detection():
    started = time.perf_counter()
    result = run_flood_benchmark(seed=7)
    elapsed = time.perf_counter() - started
    tpr, fpr = result.report.tpr, result.report.fpr
    ok = (tpr is not None and tpr >= 95.0
          and fpr is not None and fpr <= 2.0
          and result.report.accuracy > result.baseline.accuracy
          and elapsed < 30.0)
    check("criterion 4 (flood: TPR >= 95, FPR <= 2, beats per-metric baseline)", ok,
          f"tpr {tpr:.2f} fpr {fpr:.2f} "
          f"model acc {result.report.accuracy:.2f} vs baseline "
          f"{result.baseline.accuracy:.2f} in {elapsed:.1f}s (< 30s)")


# -- 5. drift benchmark ---------------------------------------------------------------


def test_criterion_5_drift_online_adaptation():
    started = time.perf_counter()
    result = run_drift_benchmark(seed=11)
    elapsed = time.perf_counter() - started
    ok = (result.online.fpr <= result.offline.fpr
          and result.online.tpr >= 90.0 and result.offline.tpr >= 90.0
          and elapsed < 60.0)
    check("criterion 5 (drift: online FPR <= offline, both TPR >= 90)", ok,
          f"fpr online {result.online.fpr:.2f} vs offline {result.offline.fpr:.2f}; "
          f"tpr online {result.online.tpr:.2f}, offline {result.offline.tpr:.2f} "
          f"in {elapsed:.1f}s (< 60s)")


# -- 6. device identification -----------------------------------------------------------


def test_criterion_6_device_identification():
    started = time.perf_counter()
    result = run_device_benchmark(seed=5)
    elapsed = time.perf_counter() - started
    worst_clean = max(result.clean_peaks.values()) if result.clean_peaks else 1.0
    ok = (result.flagged == [result.flooder]
          and result.onset_decisions_to_flag is not None
          and result.onset_decisions_to_flag <= 500
          and len(result.clean_peaks) == 3 and worst_clean < 0.2
          and elapsed < 30.0)
    check("criterion 6 (devices: exactly the flooder, clean peaks < 0.2)", ok,
          f"flagged {result.flagged}, latency {result.onset_decisions_to_flag} "
          f"decisions, worst clean peak {worst_clean:.3f} in {elapsed:.1f}s (< 30s)")


# -- 7. real labeled dataset (manual, env-gated) ------------------------------------------


@pytest.mark.skipif("AADETECT_DATASET" not in os.environ,
                    reason="manual job: set AADETECT_DATASET to a labeled feature "
                           "CSV (f1..fM,label[,attack_type]); not part of CI")
def test_criterion_7_real_dataset_accuracy():
    started = time.perf_counter()
    rows = load_feature_dataset(os.environ["AADETECT_DATASET"])
    benign = rows.features[[label is not True for label in rows.label]]
    config = config_from_dict({"train": {"init_len": len(benign)}})
    det = Detector(rows.features.shape[1], config, mode=Mode.FEATURES, online=False)
    for row in benign:
        det.step(row)
    result = run(det, rows)
    report = result.report()
    elapsed = time.perf_counter() - started
    ok = (report.accuracy >= 99.0 and report.tpr is not None and report.tpr >= 99.0
          and report.fpr is not None and report.fpr <= 1.0)
    check("criterion 7 (real dataset: acc >= 99, TPR >= 99, FPR <= 1)", ok,
          f"{report.summary()} in {elapsed:.1f}s")


# -- 8. invariant suites (>= 100 seeded random cases each) ---------------------------------


def suite_activation(rng):
    for _ in range(100):
        r, c = float(rng.uniform(0.2, 3.0)), float(rng.uniform(1.0, 3.0))
        a, b = sorted(rng.uniform(0, 1e6, size=2))
        ya, yb = activation(np.array([a, b]), r, c)
        assert 0.0 <= ya <= yb < 1.0
    return "activation bounds/monotonicity"


def suite_scaling_invariance(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        raw = rng.uniform(0.1, 50.0, size=dim)
        scale = rng.uniform(0.5, 20.0, size=dim)
        c = float(rng.uniform(0.01, 100.0))
        x1 = ScalingFactors(scale).apply(raw)
        x2 = ScalingFactors(c * scale).apply(c * raw)
        assert np.allclose(x1, x2, rtol=1e-12, atol=0.0)
    return "scaling-pipeline invariance"


def suite_device_isolation(rng):
    cfg = config_from_dict({"device": {"init_len": 6, "window_seconds": 2.0},
                            "metrics": {"N": 5, "T_seconds": 1.0}})
    hosts = ["a", "b", "c"]
    for case in range(100):
        trace = []
        t = 0
        for _ in range(60):
            t += int(rng.integers(1, 60_000))
            i, j = rng.choice(3, size=2, replace=False)
            trace.append((t, hosts[i], hosts[j], int(rng.integers(60, 1400))))
        watched = hosts[case % 3]
        full, only = DeviceBank(cfg), DeviceBank(cfg)
        fd, od = [], []
        for pkt in trace:
            fd.extend(d for a, d in full.ingest(pkt) if a == watched)
            if watched in pkt[1:3]:
                od.extend(d for a, d in only.ingest(pkt) if a == watched)
        assert [(d.value, d.is_attack) for d in fd] == [(d.value, d.is_attack) for d in od]
        assert full.device(watched).infection_level == only.device(watched).infection_level
    return "per-device isolation"


def suite_training_gate(rng):
    cfg = config_from_dict({"train": {"init_len": 8, "window_len": 3},
                            "metrics": {"N": 5, "T_seconds": 1.0}})
    for _ in range(100):
        det = Detector(3, cfg, Mode.BOTNET)
        t = 0
        while det.phase.value == "init":
            t += 50_000
            det.observe(rng.uniform(0.8, 1.2, size=3), t)
        benign = 0
        for _ in range(int(rng.integers(4, 16))):
            t += 50_000
            raw = rng.uniform(0.8, 1.2, size=3)
            if rng.uniform() < 0.35:
                raw = raw * 1e4
            if not det.observe(raw, t).is_attack:
                benign += 1
        assert det.accepted_rows + det.pending_rows == 8 + benign
    return "benign-gate training exclusion"


def suite_ema_contraction(rng):
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 0.95))
        p1, p2 = rng.uniform(0, 1, size=2)
        d, theta = float(rng.uniform(0, 3)), float(rng.uniform(0.1, 2))
        g1 = infection_level(p1, d, alpha, theta)
        g2 = infection_level(p2, d, alpha, theta)
        assert abs(g1 - g2) <= (1 - alpha) * abs(p1 - p2) + 1e-15
        assert 0.0 <= infection_level(p1, d, alpha, theta) <= 1.0
    return "infection EMA contraction"


def suite_score_identities(rng):
    for _ in range(100):
        n = int(rng.integers(1, 50))
        flags = rng.integers(2, size=n).astype(bool)
        labels = list(rng.integers(2, size=n).astype(bool))
        decisions = [Decision(at_us=i, value=0.9 if f else 0.1, threshold=0.5,
                              is_attack=bool(f))
                     for i, f in enumerate(flags)]
        report = score(decisions, labels)
        if report.tpr is not None:
            assert report.tpr + report.fnr == pytest.approx(100.0, abs=1e-9)
        if report.tnr is not None:
            assert report.tnr + report.fpr == pytest.approx(100.0, abs=1e-9)
        c = report.counts
        assert report.accuracy == pytest.approx(100.0 * (c.tp + c.tn) / n, abs=1e-9)
    return "score rate identities"


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(8000)
    names = [fn(rng) for fn in (suite_activation, suite_scaling_invariance,
                                suite_device_isolation, suite_training_gate,
                                suite_ema_contraction, suite_score_identities)]
    check("criterion 8 (six invariant suites, >= 100 random cases each)",
          len(names) == 6, "; ".join(names))
