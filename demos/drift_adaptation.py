"""Why online incremental learning matters when traffic drifts.

The benign rate in this trace ramps to twice its initial intensity over
two minutes, then a flood hits for the last 10 seconds. A detector frozen
after its initial fit sees the drifted benign traffic as anomalous and
floods the operator with false positives; the online detector keeps
folding benign-judged windows into its model (an incremental fit that is
bit-equal to retraining from scratch on the same rows) and re-deriving
its threshold, so it tracks the drift yet still catches the flood.

Run:  python3 demos/drift_adaptation.py
"""

from aadetect import (AttackSegment, TraceSpec, compare_online_offline,
                      config_from_dict, synth_trace)

config = config_from_dict({"metrics": {"N": 30}})

trace = synth_trace(TraceSpec(
    duration_s=125.0,
    rate_pps=40.0,
    rate_ramp=2.0,
    attacks=(AttackSegment(start_s=115.0, end_s=125.0, rate_multiplier=50.0,
                           attackers=("198.51.100.9",), victims=("10.0.0.1",)),),
    benign_until=115.0,
), seed=11)
print(f"trace: {len(trace)} packets, benign rate ramps 40 -> 80 pps, "
      f"flood at t=115s")

offline, online = compare_online_offline(trace, config)

for name, report in (("offline (frozen after init)", offline),
                     ("online (incremental)", online)):
    thresholds = {d.threshold for d in report.decisions}
    print(f"{name}:")
    print(f"  {report.summary()}")
    print(f"  threshold values used: {len(thresholds)}")

saved = offline.counts.fp - online.counts.fp
print(f"online learning removed {saved} false positives "
      f"(fpr {offline.fpr:.2f}% -> {online.fpr:.2f}%)")
