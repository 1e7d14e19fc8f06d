"""Command-line interface.

    aadetect init   TRACE --out STATE [--features] [--config C] [--set k=v]
    aadetect replay TRACE [--state STATE | --cold-start] [--online | --frozen]
                    [--devices | --features] [--log CSV] [--alerts PATH|-]
                    [--report JSON] [--plots DIR] [--save-state STATE]
    aadetect eval   --log CSV --trace TRACE [--report JSON] [--plots DIR]
                    [--assert "accuracy>=99,fpr<=1"]
    aadetect synth  --out TRACE --duration S --rate PPS [--seed N] [...]
    aadetect bench  [--seed N]

Exit codes: 0 success, 1 failed assertion or benchmark, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import operator
import os
import sys
from typing import Iterable, List, Optional, Sequence, Union

from . import bench as bench_mod
from .config import Config, apply_overrides, load_config
from .detector import Decision, Detector, LifecycleError, Mode, Phase, load_state, save_state
from .devices import DeviceBank, InfectionReport
from .evaluation import (DECISION_LOG_FIELDS, EvalReport, align_with_trace, emit_plot_data,
                         ground_truth, read_decision_log, replay, score)
from .metrics import DimensionError
from .traffic import (AttackSegment, TraceParseError, TraceSpec, load_feature_dataset,
                      load_trace, save_trace, synth_trace, trace_blocks)

_ASSERT_METRICS = ("accuracy", "tpr", "fnr", "tnr", "fpr")
_ASSERT_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,  # "<=" before "<"
               "<": operator.lt, ">": operator.gt}


def _build_config(args) -> Config:
    config = load_config(getattr(args, "config", None))
    overrides = getattr(args, "set", None) or []
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def _open_alerts(spec: Optional[str]):
    if spec is None or spec == "-":
        return contextlib.nullcontext(sys.stdout if spec else None)
    return open(spec, "w", encoding="utf-8")


def _emit_alert(fh, decision: Decision, mode: str, addr: Optional[str]) -> None:
    doc = {"timestamp_us": decision.at_us, "decision_value": decision.value,
           "threshold": decision.threshold, "mode": mode}
    if addr is not None:
        doc["addr"] = addr
    fh.write(json.dumps(doc, sort_keys=True) + "\n")
    fh.flush()


_LOG_FLUSH_EVERY = 1024


class _DecisionLogWriter:
    """Streams a run's decision-log rows, flushed every ``_LOG_FLUSH_EVERY`` rows and at close."""

    def __init__(self, path: Optional[str], mode: str):
        self._fh = open(path, "w", newline="\n", encoding="utf-8") if path else None
        self._mode = mode
        self._writer = None
        self._rows = 0
        if self._fh:
            self._writer = csv.writer(self._fh, lineterminator="\n")
            self._writer.writerow(DECISION_LOG_FIELDS)

    def write(self, d: Decision) -> None:
        if self._writer is None:
            return
        self._writer.writerow([d.at_us, repr(d.value), repr(d.threshold),
                               int(d.is_attack), self._mode])
        self._rows += 1
        if self._rows % _LOG_FLUSH_EVERY == 0:
            self._fh.flush()

    def __enter__(self) -> "_DecisionLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh:
            self._fh.close()


def write_decision_log(decisions: Iterable[Decision], mode: str, path: str) -> None:
    """A whole decision log of one run at once, written by ``_DecisionLogWriter``."""
    with _DecisionLogWriter(path, mode) as log:
        for d in decisions:
            log.write(d)


# -- init ---------------------------------------------------------------------


def cmd_init(args) -> int:
    config = _build_config(args)
    if args.features:
        table = load_feature_dataset(args.trace)
        rows = table.features[[label is not True for label in table.label]]  # a boolean mask
        if len(rows) < 4:
            raise ValueError(f"feature training file has only {len(rows)} benign rows, need >= 4")
        train = dataclasses.replace(config.train, init_len=len(rows))  # fit every benign row
        det = Detector(rows.shape[1], dataclasses.replace(config, train=train),
                       mode=Mode.FEATURES, online=False)
        for _ in det.step_rows(rows):  # rows past the init window are judged: only their checks matter
            pass
    else:
        det = Detector(3, config, mode=Mode.BOTNET, online=False)
        seen = 0  # non-attack packets stepped
        # Blocks are parsed only up to the one in which the window completes;
        # the rest of the file is never read.
        with contextlib.closing(trace_blocks(args.trace)) as blocks:
            benign = (pkt for block in blocks
                      for pkt, label in zip(block, block.label) if label is not True)
            for seen, pkt in enumerate(benign, start=1):
                det.step(pkt)
                if det.phase != Phase.INIT:
                    break
        if det.phase == Phase.INIT:
            window = (f"train.init_seconds={config.train.init_seconds:g}"
                      if config.train.init_seconds is not None
                      else f"train.init_len={config.train.init_len}")
            raise ValueError(f"trace has only {seen} usable benign packets, init needs {window}")
    save_state(det, args.out)
    print(f"initialized {det.mode.value} detector: {det.accepted_rows} training rows, "
          f"threshold {det.threshold:.6g} -> {args.out}")
    return 0


# -- replay -------------------------------------------------------------------


def _check_outputs(report: Optional[str], plots: Optional[str],
                   save_state: Optional[str] = None) -> None:
    """Outputs written after the input is read are checked before it is: the
    directories of ``--report`` and ``--save-state`` exist, and ``--plots``
    is not an existing non-directory."""
    for flag, path in (("--report", report), ("--save-state", save_state)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")
    if plots and os.path.exists(plots) and not os.path.isdir(plots):
        raise ValueError(f"--plots {plots}: not a directory")


def cmd_replay(args) -> int:
    config = _build_config(args)
    if args.devices and args.features:
        raise ValueError("--devices and --features are mutually exclusive")
    if args.state and args.cold_start:
        raise ValueError("--state and --cold-start are mutually exclusive")
    if args.devices:
        for flag, given in (("--state", args.state), ("--save-state", args.save_state),
                            ("--frozen", args.frozen)):
            if given:
                raise ValueError(f"--devices does not take {flag}: "
                                 "a device bank cannot be loaded, saved or frozen")
    _check_outputs(args.report, args.plots, args.save_state)

    if args.features:
        items, kind, source = load_feature_dataset(args.trace), Mode.FEATURES, "feature file"
    else:
        items, kind, source = load_trace(args.trace), Mode.BOTNET, "trace"
    if not items:
        raise ValueError(f"no {'feature rows' if args.features else 'packets'} to replay")
    if args.devices:
        engine = DeviceBank(config)
    elif args.state:
        engine = load_state(args.state, config, online=bool(args.online))  # stays frozen unless asked
        if engine.mode != kind:
            raise ValueError(f"state file holds a {engine.mode.value} detector, "
                             f"expected {kind.value}")
        if args.features and engine.dim != items.features.shape[1]:
            raise ValueError(f"state file {args.state} holds a {engine.dim}-feature detector, "
                             f"but feature file {args.trace} has "
                             f"{items.features.shape[1]} features")
    else:  # without --online or --frozen the Detector picks the cold-start default
        online = args.online if args.online or args.frozen else None
        engine = Detector(items.features.shape[1] if args.features else 3, config, mode=kind,
                          online=online)

    mode = (Mode.DEVICE if args.devices else kind).value
    decisions: List[Decision] = []
    # Alerts first: a path that cannot be opened then leaves no log behind.
    with _open_alerts(args.alerts) as alerts, _DecisionLogWriter(args.log, mode) as log:
        for addr, decision in replay(engine, items):
            log.write(decision)
            if alerts is not None and decision.is_attack:
                _emit_alert(alerts, decision, mode, addr)
            if addr is None:
                decisions.append(decision)

    if args.devices:
        _report_devices(args, config, engine.report())
        return 0
    if not decisions:
        raise ValueError(f"{source} ended before init completed; no decisions were made")
    labels, types = ground_truth(items, len(decisions))
    if None not in labels:
        _print_report(args, config, score(decisions, labels, types))
    else:
        print(f"{len(decisions)} decisions (trace unlabeled; no scoring)")
        _print_report(args, config, None)
    if args.save_state:
        save_state(engine, args.save_state)
        print(f"saved state -> {args.save_state}")
    return 0


def _write_outputs(args, config: Config, report: Union[EvalReport, InfectionReport]) -> None:
    """Write a report's ``--report`` JSON, with the config attached, and its ``--plots``."""
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(dict(report.to_dict(), config=config.to_dict()), fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    if args.plots:
        for path in emit_plot_data(report, args.plots):
            print(f"wrote {path}")


def _print_report(args, config: Config, report: Optional[EvalReport]) -> None:
    """Print a scored run and write its outputs; None (an unlabeled replay)
    allows neither ``--report`` nor ``--plots``."""
    if report is None:
        if args.report or args.plots:
            raise ValueError(f"{'--report' if args.report else '--plots'} "
                             "needs a fully labeled input")
        return
    print(report.summary())
    if report.per_attack_type:
        print("per-attack-type accuracy:")
        for name, acc in report.per_attack_type.items():
            print(f"  {name:24s} {acc:8.2f}")
    _write_outputs(args, config, report)


def _report_devices(args, config: Config, report: InfectionReport) -> None:
    print(f"{report.packets} packets, {len(report.devices)} devices, "
          f"{len(report.compromised)} compromised")
    for row in report.devices[:10]:
        flag = "COMPROMISED" if row.is_compromised else ""
        print(f"  {row.addr:18s} level {row.infection_level:.3f} "
              f"peak {row.peak_level:.3f} decisions {row.decisions_count} {flag}")
    _write_outputs(args, config, report)


# -- eval ---------------------------------------------------------------------


def _parse_assertions(spec: str) -> List[tuple]:
    out = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for op in _ASSERT_OPS:
            if op in clause:
                name, value = clause.split(op, 1)
                name = name.strip().lower()
                if name not in _ASSERT_METRICS:
                    raise ValueError(f"unknown metric in assertion: {name!r}")
                try:
                    out.append((name, op, float(value)))
                except ValueError:
                    raise ValueError(f"bad number in assertion clause {clause!r}") from None
                break
        else:
            raise ValueError(f"cannot parse assertion clause: {clause!r}")
    if not out:
        raise ValueError("empty assertion spec")
    return out


def cmd_eval(args) -> int:
    assertions = _parse_assertions(args.assertions) if args.assertions else []
    config = _build_config(args)
    _check_outputs(args.report, args.plots)
    decisions = read_decision_log(args.log)
    trace = load_trace(args.trace)
    labels, types = align_with_trace(decisions, trace)
    report = score(decisions, labels, types)
    _print_report(args, config, report)
    failed = False
    for name, op, expected in assertions:
        actual = getattr(report, name)
        ok = actual is not None and _ASSERT_OPS[op](actual, expected)
        shown = "n/a" if actual is None else f"{actual:.2f}"
        print(f"assert {name} {op} {expected:g}: {shown} -> {'ok' if ok else 'VIOLATED'}")
        failed = failed or not ok
    return 1 if failed else 0


# -- synth ----------------------------------------------------------------------


def cmd_synth(args) -> int:
    if not args.flood and (args.attacker or args.victim or args.spray):
        flag = "--attacker" if args.attacker else "--victim" if args.victim else "--spray"
        raise ValueError(f"{flag} needs a --flood segment to apply to")
    if args.victim and args.spray:
        raise ValueError("--victim does not apply with --spray: a spray sends to its own pool")
    attacks = []
    for flood in args.flood or []:
        parts = flood.split(":")
        if len(parts) != 3:
            raise ValueError(f"--flood must be START:END:MULTIPLIER, got {flood!r}")
        attacks.append(AttackSegment(
            start_s=float(parts[0]), end_s=float(parts[1]), rate_multiplier=float(parts[2]),
            attackers=tuple(args.attacker) if args.attacker else ("198.51.100.66",),
            victims=() if args.spray else (tuple(args.victim) if args.victim else ("10.0.0.1",)),
            spray=args.spray, size_mean=args.attack_size_mean,
            size_sigma=args.attack_size_sigma))
    spec = TraceSpec(duration_s=args.duration, rate_pps=args.rate,
                     hosts=tuple(args.hosts.split(",")) if args.hosts else ("10.0.0.1", "10.0.0.2"),
                     size_mean=args.size_mean, size_sigma=args.size_sigma,
                     rate_ramp=args.ramp, attacks=tuple(attacks))
    trace = synth_trace(spec, args.seed)
    save_trace(trace, args.out)
    n_attack = trace.label.count(True)
    print(f"wrote {len(trace)} packets ({n_attack} attack) -> {args.out}")
    return 0


# -- bench -----------------------------------------------------------------------


def cmd_bench(args) -> int:
    checks = bench_mod.run_all(seed=args.seed)
    for check in checks:
        print(check.line())
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aadetect",
        description="Auto-associative anomaly detection for network traffic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("init", help="fit scaling, model, and threshold on benign data")
    p.add_argument("trace", help="trace CSV (or feature CSV with --features)")
    p.add_argument("--out", required=True, help="state file to write")
    p.add_argument("--features", action="store_true", help="input is a feature CSV")
    add_config_args(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("replay", help="run detection over a trace or feature file")
    p.add_argument("trace", help="trace CSV (or feature CSV with --features)")
    p.add_argument("--state", help="start from a saved state file")
    p.add_argument("--cold-start", action="store_true",
                   help="initialize from the head of the input (default without --state)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--online", action="store_true",
                      help="keep learning on windows of benign-judged rows")
    mode.add_argument("--frozen", action="store_true", help="never update the model")
    p.add_argument("--devices", action="store_true", help="per-device monitoring")
    p.add_argument("--features", action="store_true", help="input is a feature CSV")
    p.add_argument("--log", help="decision log CSV to write")
    p.add_argument("--alerts", help="alert stream file, or - for stdout")
    p.add_argument("--report", help="report JSON to write")
    p.add_argument("--plots", help="directory for plot-data CSVs")
    p.add_argument("--save-state", help="persist detector state after the run")
    add_config_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval", help="score a decision log against trace ground truth")
    p.add_argument("--log", required=True, help="decision log CSV")
    p.add_argument("--trace", required=True, help="trace CSV with labels")
    p.add_argument("--report", help="report JSON to write")
    p.add_argument("--plots", help="directory for plot-data CSVs")
    p.add_argument("--assert", dest="assertions", metavar="SPEC",
                   help='e.g. "accuracy>=99,fpr<=1"; exit 1 on violation')
    add_config_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a labeled synthetic trace")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--rate", type=float, required=True, help="benign packets/second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hosts", help="comma-separated host addresses")
    p.add_argument("--ramp", type=float, default=1.0,
                   help="final/initial benign rate ratio (default 1: stationary)")
    p.add_argument("--size-mean", type=float, default=500.0)
    p.add_argument("--size-sigma", type=float, default=150.0)
    p.add_argument("--flood", action="append", metavar="START:END:MULT",
                   help="attack segment (repeatable)")
    p.add_argument("--attacker", action="append", help="attack source address (repeatable)")
    p.add_argument("--victim", action="append", help="attack destination address (repeatable)")
    p.add_argument("--spray", type=int, default=0,
                   help="spray attack traffic across N external addresses")
    p.add_argument("--attack-size-mean", type=float, default=80.0)
    p.add_argument("--attack-size-sigma", type=float, default=10.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the desk-scale benchmark checks")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... --alerts - | head`) closed the pipe.
        # Point stdout at devnull so interpreter shutdown does not complain.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional shell status
    except (ValueError, OSError, LifecycleError, DimensionError, TraceParseError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
