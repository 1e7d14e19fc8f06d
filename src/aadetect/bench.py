"""Desk-scale benchmark scenarios.

Three seeded synthetic scenarios exercise the headline claims end to end:

  flood      stationary benign Poisson traffic with a 100x-rate flood tail;
             the detector must catch the flood with low false positives and
             beat metric-wise simple thresholding on accuracy
  drift      benign arrival rate ramps 2x over the run before a flood tail;
             windowed online learning must not false-positive more than a
             frozen offline fit
  devices    four chatting hosts, one of which starts spraying a flood
             mid-trace; exactly that host must be flagged compromised

``run_all`` executes every check and returns one pass/fail line per check
(the pytest suite runs the same scenarios against independent oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .config import Config, config_from_dict
from .detector import Detector, simple_threshold_baseline, whisker_threshold
from .devices import DeviceBank
from .evaluation import CompareResult, EvalReport, compare_online_offline, replay, run, score
from .metrics import StreamMetrics
from .traffic import AttackSegment, Trace, TraceSpec, synth_trace


@dataclass
class BenchCheck:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def bench_config() -> Config:
    """Configuration used by the desk benchmarks.

    The metric window is widened to 30 packets so the average inter-arrival
    time is estimated from ~29 gaps instead of 9.  With the default window the
    benign average is noisy enough (coefficient of variation ~1/3) that a few
    percent of benign packets land past the Tukey whisker of their own
    distribution; the wider window pulls that tail inside the threshold.
    """
    return config_from_dict({"metrics": {"N": 30}})


# -- scenario traces --------------------------------------------------------


def flood_trace(seed: int = 7) -> Trace:
    spec = TraceSpec(
        duration_s=70.0, rate_pps=50.0,
        hosts=("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"),
        attacks=(AttackSegment(start_s=60.0, end_s=70.0, rate_multiplier=100.0,
                               attackers=("198.51.100.66",), victims=("10.0.0.1",),
                               size_mean=80.0, size_sigma=10.0),),
        benign_until=60.0)
    return synth_trace(spec, seed)


def drift_trace(seed: int = 11) -> Trace:
    spec = TraceSpec(
        duration_s=125.0, rate_pps=40.0, rate_ramp=2.0,
        hosts=("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"),
        attacks=(AttackSegment(start_s=115.0, end_s=125.0, rate_multiplier=50.0,
                               attackers=("198.51.100.66",), victims=("10.0.0.1",),
                               size_mean=80.0, size_sigma=10.0),),
        benign_until=115.0)
    return synth_trace(spec, seed)


def device_trace(seed: int = 5) -> Trace:
    spec = TraceSpec(
        duration_s=120.0, rate_pps=24.0,
        hosts=("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"),
        attacks=(AttackSegment(start_s=60.0, end_s=120.0, rate_multiplier=50.0,
                               attackers=("10.0.0.3",), spray=1024,
                               size_mean=80.0, size_sigma=10.0),))
    return synth_trace(spec, seed)


# -- scenario runs ----------------------------------------------------------


@dataclass
class FloodBenchResult:
    report: EvalReport
    baseline: EvalReport


def run_flood_benchmark(seed: int = 7, config: Optional[Config] = None) -> FloodBenchResult:
    """Flood scenario: detector vs metric-wise simple thresholding.

    The baseline thresholds each normalized metric at the Tukey whisker of its
    init-window values — the same calibration rule the detector applies to its
    decision values — so the comparison isolates the model.
    """
    config = config or bench_config()
    trace = flood_trace(seed)
    det = Detector(3, config, online=True)
    result = run(det, trace)
    # The scored rows again: the scaler is fixed once init ends, so this is
    # bit-equal to what the detector judged.
    metrics = StreamMetrics(config.metrics.N, config.metrics.T_us)
    raw = np.array([metrics.update(ts_us, size) for ts_us, _, _, size in trace])
    values = det.scaler.apply(raw[result.skipped:])

    theta = np.array([whisker_threshold(column) for column in det.init_values.T])
    baseline = score([dec._replace(is_attack=simple_threshold_baseline(x, theta))
                      for dec, x in zip(result.decisions, values)],
                     result.labels, result.attack_types)
    return FloodBenchResult(report=result.report(), baseline=baseline)


def run_drift_benchmark(seed: int = 11, config: Optional[Config] = None) -> CompareResult:
    return compare_online_offline(drift_trace(seed), config or bench_config())


@dataclass
class DeviceBenchResult:
    flooder: str
    flagged: List[str]
    onset_decisions_to_flag: Optional[int]
    clean_peaks: dict


def run_device_benchmark(seed: int = 5, config: Optional[Config] = None) -> DeviceBenchResult:
    """Device scenario: host 10.0.0.3 starts flooding at t=60s."""
    config = config or bench_config()
    trace = device_trace(seed)
    flooder = "10.0.0.3"
    onset_us = 60_000_000
    bank = DeviceBank(config)
    flooder_decisions_after_onset = 0
    onset_decisions_to_flag = None
    for addr, decision in replay(bank, trace):
        if addr != flooder or decision.at_us < onset_us:
            continue
        flooder_decisions_after_onset += 1
        rec = bank.device(flooder)
        if onset_decisions_to_flag is None and bank.is_compromised(rec):
            onset_decisions_to_flag = flooder_decisions_after_onset
    report = bank.report()
    flagged = list(report.compromised)
    clean_peaks = {row.addr: row.peak_level for row in report.devices
                   if row.addr.startswith("10.0.0.") and row.addr != flooder}
    return DeviceBenchResult(flooder=flooder, flagged=flagged,
                             onset_decisions_to_flag=onset_decisions_to_flag,
                             clean_peaks=clean_peaks)


# -- the full desk suite ----------------------------------------------------


def run_all(seed: int = 7) -> List[BenchCheck]:
    checks: List[BenchCheck] = []

    flood = run_flood_benchmark(seed=seed)
    tpr, fpr = flood.report.tpr, flood.report.fpr
    checks.append(BenchCheck(
        "flood: TPR >= 95% on flood packets",
        tpr is not None and tpr >= 95.0,
        f"tpr {tpr:.2f}"))
    checks.append(BenchCheck(
        "flood: FPR <= 2% on benign packets",
        fpr is not None and fpr <= 2.0,
        f"fpr {fpr:.2f}"))
    checks.append(BenchCheck(
        "flood: beats simple thresholding on accuracy",
        flood.report.accuracy > flood.baseline.accuracy,
        f"model {flood.report.accuracy:.2f} vs baseline {flood.baseline.accuracy:.2f}"))

    drift = run_drift_benchmark()
    checks.append(BenchCheck(
        "drift: online FPR <= offline FPR",
        drift.online.fpr <= drift.offline.fpr,
        f"online {drift.online.fpr:.2f} vs offline {drift.offline.fpr:.2f}"))
    checks.append(BenchCheck(
        "drift: TPR >= 90% in both runs",
        drift.online.tpr >= 90.0 and drift.offline.tpr >= 90.0,
        f"online {drift.online.tpr:.2f}, offline {drift.offline.tpr:.2f}"))

    devices = run_device_benchmark()
    checks.append(BenchCheck(
        "devices: exactly the flooder is flagged",
        devices.flagged == [devices.flooder],
        f"flagged {devices.flagged or ['nobody']}"))
    checks.append(BenchCheck(
        "devices: flagged within 500 decisions of onset",
        devices.onset_decisions_to_flag is not None and devices.onset_decisions_to_flag <= 500,
        f"took {devices.onset_decisions_to_flag}"))
    worst_clean = max(devices.clean_peaks.values()) if devices.clean_peaks else 0.0
    checks.append(BenchCheck(
        "devices: clean hosts stay below 0.2 infection",
        bool(devices.clean_peaks) and worst_clean < 0.2,
        f"worst clean peak {worst_clean:.3f}"))

    return checks
