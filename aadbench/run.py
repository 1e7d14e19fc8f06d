"""The aadetect benchmark: replay workloads through the CLI, as an operator would.

    python3 aadbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed
(untimed) and the program only sees the CSV files. Every CLI invocation runs
``aadetect.cli.main`` in a fresh interpreter (``child.py``), so peak memory
and warm state do not carry from one repeat to the next.

--trace 0  repeats init + replay until the run time is used (at least twice),
           checks every output, and prints the end-to-end metrics: medians
           over the repeats.
--trace 1  runs the workload once untraced and once with spans around each
           module's entry points, and prints the per-layer metrics plus the
           tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import spans  # noqa: E402

MIN_REPEATS = 2        # two repeats at least, so the decision logs can be compared
MIN_SETUP_SAMPLES = 5  # set-up is timed this many times at least
RUN_CAP_S = 150.0      # start no repeat that would end after this
DEADLINE_S = 175.0     # kill whatever still runs at this point
SOAK_MIN_TPR = 95.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


@dataclass
class Outcome:
    wall: dict                # the child's own JSON: rc, import_s, call_s[, trace]
    peak_rss_mb: float


class Runner:
    """Starts CLI children, counts attempts and failures."""

    def __init__(self, root: Path, workdir: Path, started: float):
        self.root = root
        self.workdir = workdir
        self.started = started  # time.monotonic() at the start of the run
        self.deadline = started + DEADLINE_S  # every child has ended by then
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)

    def cli(self, args: List[str], trace_spec: Optional[Path] = None) -> Optional[Outcome]:
        """Run one invocation; None (and a counted failure) if it exits nonzero
        or outlives the run's deadline."""
        self._n += 1
        self.attempted += 1
        result = self.workdir / f"child{self._n}.json"
        log = self.workdir / f"child{self._n}.out"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root / "src"), str(result)]
        if trace_spec is not None:
            cmd += ["--trace", str(trace_spec)]
        cmd += ["--"] + [str(a) for a in args]
        with open(log, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=self.root)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        pid, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.05)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        rc = os.waitstatus_to_exitcode(status)
        proc.returncode = rc  # reaped by wait4 above
        if rc != 0 or not result.exists():
            tail = log.read_text(errors="replace")[-2000:]
            self.fail(f"{' '.join(map(str, args[:2]))} exited {rc}: {tail.strip()}")
            return None
        return Outcome(json.loads(result.read_text()), usage.ru_maxrss / 1024.0)


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    generate: Callable
    init_args: Optional[Callable]   # (inputs, state) -> CLI args
    replay_args: Callable           # (inputs, state, log, alerts, report) -> CLI args


N30 = ["--set", "metrics.N=30"]
WORKLOADS: Dict[str, Workload] = {
    "botnet-soak": Workload(
        inputs.botnet_soak,
        lambda i, s: ["init", i.files["trace"], "--out", s] + N30,
        lambda i, s, log, al, rep: ["replay", i.files["trace"], "--state", s, "--online",
                                    "--log", log, "--alerts", al] + N30),
    "features-fit": Workload(
        inputs.features_fit,
        lambda i, s: ["init", i.files["train"], "--features", "--out", s],
        lambda i, s, log, al, rep: ["replay", i.files["test"], "--features", "--state", s,
                                    "--log", log, "--alerts", al]),
    "device-spray": Workload(
        inputs.device_spray,
        None,
        lambda i, s, log, al, rep: ["replay", i.files["trace"], "--devices", "--log", log,
                                    "--alerts", al, "--report", rep] + N30),
}


# -- output checks and quality --------------------------------------------------


def read_log(path: Path):
    """(timestamps, is_attack) columns of a decision log."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(int(r[0]), r[3] == "1") for r in reader if r]
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, bool)
    ts, flag = zip(*rows)
    return np.asarray(ts, np.int64), np.asarray(flag, bool)


def decision_labels(inp: inputs.Inputs, ts: np.ndarray) -> np.ndarray:
    """Ground truth per decision row: the label of the item that produced it.
    Trace timestamps are unique, so a row's timestamp names its packet."""
    if inp.timestamps is None:
        return inp.labels
    idx = np.searchsorted(inp.timestamps, ts)
    idx = np.minimum(idx, inp.timestamps.size - 1)
    if not np.array_equal(inp.timestamps[idx], ts):
        raise ValueError("decision timestamps do not match the trace")
    return inp.labels[idx]


def quality(inp: inputs.Inputs, ts: np.ndarray, flag: np.ndarray) -> Dict[str, float]:
    labels = decision_labels(inp, ts)
    benign_flags = flag[~labels]
    last = benign_flags[-max(1, benign_flags.size // 10):]
    return {"tpr_pct": 100.0 * flag[labels].mean(),
            "fpr_pct": 100.0 * benign_flags.mean(),
            "fpr_last_decile_pct": 100.0 * last.mean()}


def detect_delay_ms(inp: inputs.Inputs, alerts_path: Path) -> float:
    """Stream time from attack onset to the first alert on it (the flooder's,
    in device mode); 0 where rows carry no stream time."""
    if inp.onset_us is None:
        return 0.0
    with open(alerts_path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc["timestamp_us"] >= inp.onset_us and doc.get("addr", inp.flooder) == inp.flooder:
                return (doc["timestamp_us"] - inp.onset_us) / 1e3
    return 0.0


def check_replay(runner: Runner, name: str, inp: inputs.Inputs, log: Path, alerts: Path,
                 report: Path, reference: Optional[str]) -> Optional[dict]:
    """Check one replay's outputs, counting a failure for each check that
    does not hold. Returns the log digest and the quality figures, or None if
    the outputs cannot be read."""
    try:
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        ts, flag = read_log(log)
        expected = inp.device_decisions if inp.device_decisions is not None else inp.items
        if ts.size != expected:
            runner.fail(f"{ts.size} decisions, expected {expected}")
            return None
        found = quality(inp, ts, flag)
        flagged = json.loads(report.read_text())["summary"]["compromised"] \
            if name == "device-spray" else None
        found["detect_delay_ms"] = detect_delay_ms(inp, alerts)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        runner.fail(f"unreadable output: {exc!r}")
        return None
    found["digest"] = digest
    if reference is not None and digest != reference:
        runner.fail("decision log differs from the first repeat's")
    elif name == "botnet-soak" and found["tpr_pct"] < SOAK_MIN_TPR:
        runner.fail(f"tpr {found['tpr_pct']:.2f} < {SOAK_MIN_TPR}")
    elif name == "device-spray" and flagged != [inp.flooder]:
        runner.fail(f"flagged {flagged}, expected exactly {inp.flooder}")
    return found


# -- one workload run -------------------------------------------------------------


class Session:
    """One workload's inputs, its repeats so far and what they recorded."""

    def __init__(self, name: str, inp: inputs.Inputs, runner: Runner):
        self.name = name
        self.workload = WORKLOADS[name]
        self.inp = inp
        self.runner = runner
        self.reference: Optional[str] = None
        self.traces: List[dict] = []  # span summaries of traced children
        self.info: dict = {}
        self._n = 0

    def paths(self):
        """Fresh (state, log, alerts, report) paths for one repeat."""
        self._n += 1
        d = self.runner.workdir
        return (d / f"state{self._n}.json", d / f"log{self._n}.csv",
                d / f"alerts{self._n}.jsonl", d / f"report{self._n}.json")

    def init(self, state: Path, trace_spec: Optional[Path] = None) -> Optional[float]:
        """Run the workload's init call; returns its wall time."""
        out = self.runner.cli(self.workload.init_args(self.inp, state), trace_spec)
        if out is None:
            return None
        if trace_spec is not None:
            self.traces.append(out.wall["trace"])
        return out.wall["call_s"]

    def setup_sample(self) -> Optional[float]:
        """One more set-up sample: the init call, or importing the CLI where
        the workload has no init."""
        if self.workload.init_args is not None:
            state = self.paths()[0]
            try:
                return self.init(state)
            finally:
                state.unlink(missing_ok=True)
        out = self.runner.cli([])
        return None if out is None else out.wall["import_s"]

    def replay(self, trace_spec: Optional[Path] = None):
        """Init (where the workload has one) and replay once, check the outputs
        and delete them (so no repeat waits on writing back an earlier one's).
        Returns (set-up seconds, replay outcome, checked figures) or None."""
        files = self.paths()
        state, log, alerts, report = files
        try:
            if self.workload.init_args is not None:
                setup_s = self.init(state, trace_spec)
                if setup_s is None:
                    return None
            out = self.runner.cli(
                self.workload.replay_args(self.inp, state, log, alerts, report), trace_spec)
            if out is None:
                return None
            if self.workload.init_args is None:
                setup_s = out.wall["import_s"]
            found = check_replay(self.runner, self.name, self.inp, log, alerts, report,
                                 self.reference)
        finally:
            for path in files:
                path.unlink(missing_ok=True)
        if found is None:
            return None
        self.reference = self.reference or found["digest"]
        if trace_spec is not None:
            self.traces.append(out.wall["trace"])
        return setup_s, out, found


def run_untraced(sess: Session, seconds: float) -> Dict[str, float]:
    started = time.monotonic()
    cap = RUN_CAP_S - (started - sess.runner.started)
    throughput, rss, setups, durations = [], [], [], []
    found = None
    while True:
        t0 = time.monotonic()
        res = sess.replay()
        durations.append(time.monotonic() - t0)
        if res is not None:
            setup_s, out, found = res
            throughput.append(sess.inp.items / out.wall["call_s"])
            rss.append(out.peak_rss_mb)
            setups.append(setup_s)
        next_end = time.monotonic() - started + statistics.mean(durations)
        if len(durations) >= MIN_REPEATS and (next_end > seconds or next_end > cap):
            break
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() - started < cap:
        sample = sess.setup_sample()
        if sample is None:
            break
        setups.append(sample)
    if found is None:
        raise BenchError("no replay succeeded")
    # Replay throughput is recorded, not gated: see "Noise" in README.md.
    sess.info = {"repeats": len(durations), "replay_items_per_s": throughput,
                 "setup_s": setups, "peak_rss_mb": rss}
    return {"setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "tpr_pct": found["tpr_pct"]}


def run_traced(sess: Session) -> Dict[str, float]:
    plain = sess.replay()
    spec = sess.runner.workdir / "trace_spec.json"
    spec.write_text(json.dumps({"flooder": sess.inp.flooder, "onset_us": sess.inp.onset_us}))
    traced = sess.replay(trace_spec=spec)
    if plain is None or traced is None:
        raise BenchError("the traced or untraced replay failed")
    _, traced_out, found = traced
    merged = spans.merge(sess.traces)
    metrics = spans.layer_metrics(merged)
    metrics["detector.fpr_pct"] = found["fpr_pct"]
    metrics["detector.fpr_last_decile_pct"] = found["fpr_last_decile_pct"]
    metrics["detector.detect_delay_ms"] = found["detect_delay_ms"]
    metrics["cli.replay_items_per_s"] = sess.inp.items / plain[1].wall["call_s"]
    metrics["trace_overhead_pct"] = 100.0 * (traced_out.wall["call_s"]
                                             / plain[1].wall["call_s"] - 1.0)
    sess.info = {"missing_wrap_points": merged["missing"],
                 "spans": {k: v["calls"] for k, v in sorted(merged["aggs"].items())}}
    if merged["missing"]:
        print(f"missing wrap points (their layers read 0): {merged['missing']}",
              file=sys.stderr)
    return metrics


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the inputs (smoke test only)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aadetect" / "cli.py").is_file():
        print(f"error: {root} has no src/aadetect; run from a checkout root", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workdir = root / "aadbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, workdir, time.monotonic())
    try:
        inp = WORKLOADS[args.workload].generate(args.seed, workdir, args.scale)
        sess = Session(args.workload, inp, runner)
        metrics = run_traced(sess) if args.trace else run_untraced(sess, args.seconds)
        if set(units) - set(metrics):
            raise BenchError(f"metrics not measured: {sorted(set(units) - set(metrics))}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "items": inp.items,
            "src_lines": src_lines(root), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), **inp.extra, **sess.info}
    print(json.dumps({"info": info}))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
