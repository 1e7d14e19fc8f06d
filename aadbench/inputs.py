"""Seeded input files for the three workloads.

The generators are the benchmark's own, written against the documented CSV
formats rather than against ``aadetect.traffic.synth_trace``, so a change to
the package cannot change the inputs it is measured on. Every trace has
strictly increasing integer timestamps, which lets a decision-log row be
matched to the packet that produced it by timestamp alone.

``scale`` shrinks stream time and row counts (the smoke test uses a small
one); the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np

TRACE_HEADER = ("timestamp_us", "src", "dst", "size_bytes", "label", "attack_type")
SOAK_HOSTS = tuple(f"10.0.0.{i}" for i in range(1, 5))
SOAK_ATTACKER = "198.51.100.66"
LAN_HOSTS = tuple(f"10.0.0.{i}" for i in range(1, 17))
FLOODER = "10.0.0.3"
SPRAY_POOL = 16384
FEATURE_DIM = 20
FEATURE_FAMILIES = ("flood", "slowloris", "exfil")
DEVICE_INIT_LEN = 200  # aadetect's documented default for device.init_len


@dataclass
class Inputs:
    """Paths of the generated files plus the ground truth the checks need."""

    files: Dict[str, Path]
    items: int                      # packets or test rows the replay reads
    labels: np.ndarray              # bool per replayed item, True = attack
    timestamps: Optional[np.ndarray] = None  # per packet (trace workloads)
    onset_us: Optional[int] = None  # first attack packet
    flooder: Optional[str] = None
    device_decisions: Optional[int] = None  # expected decision rows, device mode
    extra: dict = field(default_factory=dict)  # recorded in the info line


def _arrivals_us(rng: np.random.Generator, rate_pps: float, start_s: float,
                 end_s: float) -> np.ndarray:
    """Poisson arrival times on [start_s, end_s) in integer microseconds."""
    expected = rate_pps * (end_s - start_s)
    n = rng.poisson(expected)
    t = np.sort(rng.uniform(start_s, end_s, size=n))
    return np.rint(t * 1e6).astype(np.int64)


def _sizes(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    return np.maximum(np.rint(rng.normal(mean, sigma, size=n)), 1).astype(np.int64)


def _benign_pairs(rng: np.random.Generator, hosts, n: int):
    src = rng.integers(len(hosts), size=n)
    dst = (src + rng.integers(1, len(hosts), size=n)) % len(hosts)
    return [hosts[i] for i in src], [hosts[i] for i in dst]


def _write_trace(path: Path, ts, src, dst, size, label, kind) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        writer.writerows(zip(ts.tolist(), src, dst, size.tolist(),
                             ["1" if a else "0" for a in label], kind))


def _merge(parts):
    """Merge (ts, src, dst, size, label, kind) blocks into one stream sorted by
    time, then nudge ties forward by 1 us so timestamps strictly increase."""
    ts = np.concatenate([p[0] for p in parts])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    idx = np.arange(ts.size, dtype=np.int64)
    ts = np.maximum.accumulate(ts - idx) + idx
    cat = lambda k: [x for p in parts for x in p[k]]
    src, dst, kind = cat(1), cat(2), cat(5)
    size = np.concatenate([p[3] for p in parts])[order]
    label = np.concatenate([p[4] for p in parts])[order]
    return (ts, [src[i] for i in order], [dst[i] for i in order], size, label,
            [kind[i] for i in order])


def botnet_soak(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    """20 min of stationary benign Poisson traffic among 4 hosts at 50 pps,
    then a 5 s flood at 100x the benign rate from one outside address."""
    rng = np.random.default_rng([seed, 1])
    benign_s, flood_s, rate = 1200.0 * scale, 5.0 * scale, 50.0
    b_ts = _arrivals_us(rng, rate, 0.0, benign_s)
    b_src, b_dst = _benign_pairs(rng, SOAK_HOSTS, b_ts.size)
    b_size = _sizes(rng, b_ts.size, 500.0, 150.0)
    a_ts = _arrivals_us(rng, rate * 100.0, benign_s, benign_s + flood_s)
    a_size = _sizes(rng, a_ts.size, 80.0, 10.0)
    ts, src, dst, size, label, kind = _merge([
        (b_ts, b_src, b_dst, b_size, np.zeros(b_ts.size, bool), [""] * b_ts.size),
        (a_ts, [SOAK_ATTACKER] * a_ts.size, ["10.0.0.1"] * a_ts.size, a_size,
         np.ones(a_ts.size, bool), ["flood"] * a_ts.size)])
    path = workdir / "soak.csv"
    _write_trace(path, ts, src, dst, size, label, kind)
    return Inputs(files={"trace": path}, items=int(ts.size), labels=label,
                  timestamps=ts, onset_us=int(ts[label][0]))


def _feature_block(rng, n, family=None):
    block = np.abs(rng.normal(0.5, 0.08, size=(n, FEATURE_DIM)))
    if family == "flood":  # loud on every feature
        block = np.abs(rng.normal(3.0, 0.15, size=(n, FEATURE_DIM)))
    elif family == "slowloris":  # starved, near-zero activity
        block = 0.02 * block
    elif family == "exfil":  # one feature far out of range
        block[:, 4] *= 12.0
    return block


def _write_features(path: Path, block: np.ndarray, label: np.ndarray, kind) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i + 1}" for i in range(FEATURE_DIM)] + ["label", "attack_type"])
        writer.writerows(row + ["1" if a else "0", k]
                         for row, a, k in zip(block.tolist(), label, kind))


def features_fit(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    """30k benign training rows of 20 features; a shuffled test file of 24k
    benign rows and 2k rows from each of three attack families."""
    rng = np.random.default_rng([seed, 2])
    n_train, n_benign, n_family = int(30000 * scale), int(24000 * scale), int(2000 * scale)
    train = _feature_block(rng, n_train)
    blocks = [_feature_block(rng, n_benign)]
    kinds = [""] * n_benign
    for fam in FEATURE_FAMILIES:
        blocks.append(_feature_block(rng, n_family, fam))
        kinds += [fam] * n_family
    test = np.concatenate(blocks)
    label = np.array([k != "" for k in kinds])
    order = rng.permutation(test.shape[0])
    test, label, kinds = test[order], label[order], [kinds[i] for i in order]
    train_path, test_path = workdir / "train.csv", workdir / "test.csv"
    _write_features(train_path, train, np.zeros(n_train, bool), [""] * n_train)
    _write_features(test_path, test, label, kinds)
    return Inputs(files={"train": train_path, "test": test_path}, items=int(test.shape[0]),
                  labels=label, extra={"train_rows": n_train})


def device_spray(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    """16 LAN hosts chatting at 200 pps in total; from t = 40 s one of them
    sprays 1400 pps across a pool of 16384 outside addresses for 30 s."""
    rng = np.random.default_rng([seed, 3])
    onset_s, end_s, rate = 40.0 * scale, 70.0 * scale, 200.0
    b_ts = _arrivals_us(rng, rate, 0.0, end_s)
    b_src, b_dst = _benign_pairs(rng, LAN_HOSTS, b_ts.size)
    b_size = _sizes(rng, b_ts.size, 500.0, 150.0)
    a_ts = _arrivals_us(rng, 1400.0, onset_s, end_s)
    pool = rng.integers(SPRAY_POOL, size=a_ts.size)
    a_dst = [f"198.51.{i // 256}.{i % 256}" for i in pool.tolist()]
    a_size = _sizes(rng, a_ts.size, 80.0, 10.0)
    ts, src, dst, size, label, kind = _merge([
        (b_ts, b_src, b_dst, b_size, np.zeros(b_ts.size, bool), [""] * b_ts.size),
        (a_ts, [FLOODER] * a_ts.size, a_dst, a_size, np.ones(a_ts.size, bool),
         ["spray"] * a_ts.size)])
    path = workdir / "spray.csv"
    _write_trace(path, ts, src, dst, size, label, kind)
    # A device decides on every packet it is part of once its own count-based
    # init of DEVICE_INIT_LEN rows is done (the trace is shorter than the TTL).
    seen: Dict[str, int] = {}
    for s, d in zip(src, dst):
        seen[s] = seen.get(s, 0) + 1
        if d != s:
            seen[d] = seen.get(d, 0) + 1
    expected = sum(max(0, n - DEVICE_INIT_LEN) for n in seen.values())
    return Inputs(files={"trace": path}, items=int(ts.size), labels=label, timestamps=ts,
                  onset_us=int(ts[label][0]), flooder=FLOODER, device_decisions=expected,
                  extra={"addresses": len(seen)})
