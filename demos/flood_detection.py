"""Detect a volumetric flood on a single aggregate traffic stream.

A synthetic trace carries 60 seconds of benign Poisson traffic at 50
packets/s, then a 10-second flood at 100x the benign rate. The detector
trains itself on the first 1000 packets (all benign), then judges every
later packet from three sliding-window metrics: bytes in the last N
packets, average inter-arrival time, and packet count in the last T
seconds.

Run:  python3 demos/flood_detection.py
"""

from aadetect import AttackSegment, Detector, TraceSpec, config_from_dict, run, synth_trace

config = config_from_dict({"metrics": {"N": 30}})

trace = synth_trace(TraceSpec(
    duration_s=70.0,
    rate_pps=50.0,
    attacks=(AttackSegment(start_s=60.0, end_s=70.0, rate_multiplier=100.0,
                           attackers=("198.51.100.66",), victims=("10.0.0.1",)),),
    benign_until=60.0,
), seed=7)
n_attack = trace.label.count(True)
print(f"trace: {len(trace)} packets, {n_attack} attack, flood starts at t=60s")

report = run(Detector(3, config, online=True), trace)

print(f"init consumed {len(trace) - len(report.decisions)} benign packets; "
      f"{len(report.decisions)} packets judged")
print(report.summary())

onset_us = 60_000_000
stray = sum(1 for d in report.decisions if d.is_attack and d.at_us < onset_us)
first_alert = next(d for d in report.decisions if d.is_attack and d.at_us >= onset_us)
print(f"flood flagged at t={first_alert.at_us / 1e6:.3f}s "
      f"(value {first_alert.value:.3f} > threshold {first_alert.threshold:.3f}); "
      f"{stray} stray alerts in the 60s before onset")
for d in report.decisions[-3:]:
    flag = "ATTACK" if d.is_attack else "ok"
    print(f"  t={d.at_us / 1e6:8.3f}s  value {d.value:8.3f}  "
          f"threshold {d.threshold:.3f}  {flag}")
