"""Command-line interface.

    aadetect init   TRACE --out STATE [--features] [--config C] [--set k=v]
    aadetect replay TRACE [--state STATE] [--online | --frozen]
                    [--devices | --features] [--log CSV] [--alerts PATH|-]
                    [--report JSON] [--plots DIR] [--save-state STATE]
    aadetect eval   --log CSV --trace TRACE [--report JSON] [--plots DIR]
                    [--assert "accuracy>=99,fpr<=1"]
    aadetect synth  --out TRACE --duration S --rate PPS [--seed N] [...]
    aadetect bench  [--seed N]

Exit codes: 0 success, 1 failed assertion or benchmark, 2 usage, I/O or training
error, or malformed input (one ``error: path:line: ...`` line for a CSV file).

``main`` checks each command's files (``_FILES``) before the command reads anything.
A run's log, alerts and report files are written by ``evaluation``, which also reads the log back.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import os
import sys
from typing import Iterable, List, Optional, Sequence, Union

from .config import Config, apply_overrides, load_config
from .detector import Decision, Detector, LifecycleError, Mode, Phase, load_state, save_state
from .devices import DeviceBank, InfectionReport
from .evaluation import (PLOT_FILES, RATES, EvalReport, _DecisionLogWriter, _emit_alert,
                         align_with_trace, ground_truth, read_decision_log, replay, score,
                         write_report)
from .traffic import (AttackSegment, TraceSpec, load_feature_dataset, load_trace, save_trace,
                      synth_trace, trace_blocks)
from .training import TrainingError

_ASSERT_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,  # "<=" before "<"
               "<": operator.lt, ">": operator.gt}


def _build_config(args) -> Config:
    config = load_config(args.config)
    return apply_overrides(config, args.set) if args.set else config


def _open_alerts(spec: Optional[str]):
    if spec is None or spec == "-":
        return contextlib.nullcontext(sys.stdout if spec else None)
    return open(spec, "w", encoding="utf-8")


# Each command's file arguments: inputs, then outputs.
_FILES = {"init": ("TRACE --config", "--out"),
          "replay": ("TRACE --state --config", "--log --alerts --report --save-state --plots"),
          "eval": ("--log --trace --config", "--report --plots"),
          "synth": ("", "--out")}


def _check_files(args) -> None:
    """No output is an input or another output, as real paths, but --save-state may be
    --state's; --plots DIR counts as the directories it makes and the ``PLOT_FILES`` it
    writes there, and its nearest existing ancestor (DIR itself, or a dangling link) is a
    directory. Any other output is not a directory, in a directory that exists; when that
    does not exist, the error names its nearest existing ancestor if that is not one."""
    inputs, outputs = (flags.split() for flags in _FILES.get(args.command, ("", "")))
    seen = {}  # real path -> the first flag naming it
    for flag in inputs + outputs:
        given = getattr(args, flag.lstrip("-").replace("-", "_").lower())  # TRACE: args.trace
        if not given or (flag, given) == ("--alerts", "-"):
            continue
        paths = [given]
        if flag in outputs:
            # --plots makes each directory up to its nearest existing ancestor; another
            # output's directory must exist.
            made, existing = [], given if flag == "--plots" else os.path.dirname(given)
            while existing and not os.path.lexists(existing):
                made.append(existing)
                existing = os.path.dirname(existing)
            if existing and not os.path.isdir(existing):
                raise ValueError(f"--plots {given}: not a directory" if flag == "--plots"
                                 else f"{flag} {given}: {existing} is not a directory")
            if flag == "--plots":
                paths = made + [os.path.join(given, name) for name in PLOT_FILES[args.devices]]
            elif os.path.isdir(given):
                raise ValueError(f"{flag} {given}: is a directory")
            elif made:
                raise ValueError(f"{flag} {given}: directory {made[0]} does not exist")
        for path in paths:
            other = seen.setdefault(os.path.realpath(path), flag)
            if flag in outputs and other != flag and (other, flag) != ("--state", "--save-state"):
                raise ValueError(f"{flag} and {other} are the same file: {path}")


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
            raise ValueError(f"{args.trace}: feature training file has only {len(rows)} "
                             "benign rows, need >= 4")
        config = config._replace(train=config.train._replace(init_len=len(rows)))  # fit every row
        det = Detector(rows.shape[1], config, mode=Mode.FEATURES, online=False)
        try:
            next(det.step_rows(rows), None)  # fits the window: rows past it need no judging
        except ValueError as exc:  # a column too wide to scale
            raise ValueError(f"{args.trace}: {exc}") from None
    else:
        det = Detector(3, config, mode=Mode.BOTNET, online=False)
        # Blocks are parsed only up to the one in which the window completes;
        # the rest of the file is never read.
        with contextlib.closing(trace_blocks(args.trace)) as blocks:
            for block in blocks:
                next(det.step_rows(block[[label is not True for label in block.label]]), None)
                if det.phase != Phase.INIT:
                    break
    if det.phase == Phase.INIT:  # every benign row is in the window
        window = (f"train.init_len={config.train.init_len}" if config.train.init_seconds is None
                  else f"train.init_seconds={config.train.init_seconds:g}")
        raise ValueError(f"{args.trace}: only {det.pending_rows} usable benign rows, "
                         f"init needs {window}")
    save_state(det, args.out)
    print(f"initialized {det.mode.value} detector: {det.accepted_rows} training rows, "
          f"threshold {det.threshold:.6g} -> {args.out}")
    return 0


# -- replay -------------------------------------------------------------------


def cmd_replay(args) -> int:
    config = _build_config(args)
    if args.devices and args.features:
        raise ValueError("--devices and --features are mutually exclusive")
    if args.devices:
        for flag, given in (("--state", args.state), ("--save-state", args.save_state),
                            ("--frozen", args.frozen)):
            if given:
                raise ValueError(f"--devices does not take {flag}: "
                                 "a device bank cannot be loaded, saved or frozen")

    if args.features:
        items, kind = load_feature_dataset(args.trace), Mode.FEATURES
    else:
        items, kind = load_trace(args.trace), Mode.BOTNET
    if not items:
        raise ValueError(f"{args.trace}: no {'feature rows' if args.features else 'packets'} "
                         "to replay")
    if args.devices:
        engine = DeviceBank(config)
    elif args.state:
        engine = load_state(args.state, config, online=bool(args.online))  # stays frozen unless asked
        run = engine.config  # the report names the state's settings, but the replay's gamma
        config = run._replace(metrics=run.metrics._replace(gamma=config.metrics.gamma))
        if engine.mode != kind:
            raise ValueError(f"state file {args.state} holds a {engine.mode.value} detector, "
                             f"expected {kind.value}")
        if args.features and engine.dim != items.features.shape[1]:
            raise ValueError(f"state file {args.state} holds a {engine.dim}-feature detector, "
                             f"but feature file {args.trace} has "
                             f"{items.features.shape[1]} features")
    else:  # without --online or --frozen the Detector picks the cold-start default
        online = args.online if args.online or args.frozen else None
        engine = Detector(items.features.shape[1] if args.features else 3, config, mode=kind,
                          online=online)

    if not args.devices and (args.report or args.plots) and None in items.label:
        raise ValueError(f"{args.trace}: unlabeled rows, and "
                         f"{'--report' if args.report else '--plots'} needs a fully labeled input")
    mode = (Mode.DEVICE if args.devices else kind).value
    decisions: List[Decision] = []
    # Alerts first: a path that cannot be opened then leaves no log behind.
    with _open_alerts(args.alerts) as alerts, _DecisionLogWriter(args.log, mode) as log:
        try:
            for addr, decision in replay(engine, items):
                log.write(decision)
                if alerts is not None and decision.is_attack:
                    _emit_alert(alerts, decision, mode, addr)
                if addr is None:
                    decisions.append(decision)
        except ValueError as exc:  # a row the detector cannot judge
            raise ValueError(f"{args.trace}: {exc}") from None

    if args.devices:
        _report(args, config, engine.report())
        return 0
    if engine.phase == Phase.INIT:
        raise ValueError(f"{args.trace}: ended before init completed; no decisions were made")
    labels, types = ground_truth(items, len(decisions))
    if decisions and None not in labels:
        _report(args, config, score(decisions, labels, types))
    else:
        reason = "trace unlabeled" if decisions else "init ended on the last row"
        print(f"{len(decisions)} decisions ({reason}; no scoring)")
        # An unlabeled input was refused above, before any output was opened.
        if args.report or args.plots:
            raise ValueError(f"{'--report' if args.report else '--plots'} "
                             "needs decisions on a fully labeled input")
    if args.save_state:
        save_state(engine, args.save_state)
        print(f"saved state -> {args.save_state}")
    return 0


def _report(args, config: Config, report: Union[EvalReport, InfectionReport]) -> None:
    """Print a run's report and write its ``--report`` and ``--plots`` (``write_report``)."""
    if isinstance(report, InfectionReport):
        print(f"{report.packets} packets, {len(report.devices)} devices, "
              f"{len(report.compromised)} compromised")
        for row in report.devices[:10]:
            flag = "COMPROMISED" if row.is_compromised else ""
            print(f"  {row.addr:18s} level {row.infection_level:.3f} "
                  f"peak {row.peak_level:.3f} decisions {row.decisions_count} {flag}")
    else:
        print(report.summary())
        if report.per_attack_type:
            print("per-attack-type accuracy:")
            for name, acc in report.per_attack_type.items():
                print(f"  {name:24s} {acc:8.2f}")
    try:
        plots = write_report(report, config, args.report, args.plots)
    except ValueError as exc:  # a value the strict JSON cannot hold
        raise ValueError(f"--report {args.report}: {exc}") from None
    for path in plots:
        print(f"wrote {path}")


# -- eval ---------------------------------------------------------------------


def _parse_assertions(spec: str) -> List[tuple]:
    out = []
    for clause in filter(None, map(str.strip, spec.split(","))):
        for op in _ASSERT_OPS:
            if op in clause:
                name, value = clause.split(op, 1)
                name = name.strip().lower()
                if name not in RATES:
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
    decisions = read_decision_log(args.log, Mode.BOTNET.value)
    trace = load_trace(args.trace)
    try:
        labels, types = align_with_trace(decisions, trace)
        report = score(decisions, labels, types)
    except ValueError as exc:  # two valid files that do not belong together
        raise ValueError(f"{exc} ({args.log} against {args.trace})") from None
    _report(args, config, report)
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
    from .bench import run_all  # only this command needs it: no other start pays its import

    checks = run_all(seed=args.seed)
    for check in checks:
        print(check.line())
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------------


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser, with only ``command``'s subparser when it names one.

    A process runs one command, and building the other four subparsers was half
    the cost of parsing an ``init`` call (botnet-soak ``setup_s``). Every
    subparser is built for any other ``command`` (None, ``-h``, a name that is not
    a command), so the top-level help, the "invalid choice" error and the
    "required" error list all five. A lone subparser gets the five names as its
    metavar, in argparse's own form, so the top-level usage line, which an
    "unrecognized arguments" error prints too, reads as with all five; with all
    five built it stays unset, so an error about the command names ``command``.
    """
    names = ("init", "replay", "eval", "synth", "bench")
    built = (command,) if command in names else names
    parser = argparse.ArgumentParser(
        prog="aadetect",
        description="Auto-associative anomaly detection for network traffic")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(names) if len(built) == 1 else None)

    def add_config_args(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config key (repeatable)")

    if "init" in built:
        p = sub.add_parser("init", help="fit scaling, model, and threshold on benign data")
        p.add_argument("trace", help="trace CSV (or feature CSV with --features)")
        p.add_argument("--out", required=True, help="state file to write")
        p.add_argument("--features", action="store_true", help="input is a feature CSV")
        add_config_args(p)
        p.set_defaults(func=cmd_init)

    if "replay" in built:
        p = sub.add_parser("replay", help="run detection over a trace or feature file")
        p.add_argument("trace", help="trace CSV (or feature CSV with --features)")
        p.add_argument("--state", help="start from a saved state file")
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

    if "eval" in built:
        p = sub.add_parser("eval", help="score a decision log against trace ground truth")
        p.add_argument("--log", required=True, help="decision log CSV")
        p.add_argument("--trace", required=True, help="trace CSV with labels")
        p.add_argument("--report", help="report JSON to write")
        p.add_argument("--plots", help="directory for plot-data CSVs")
        p.add_argument("--assert", dest="assertions", metavar="SPEC",
                       help='e.g. "accuracy>=99,fpr<=1"; exit 1 on violation')
        add_config_args(p)
        p.set_defaults(func=cmd_eval, devices=False)  # --plots writes a scored run's files

    if "synth" in built:
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
        p.add_argument("--victim", action="append",
                       help="attack destination address (repeatable)")
        p.add_argument("--spray", type=int, default=0,
                       help="spray attack traffic across N external addresses")
        p.add_argument("--attack-size-mean", type=float, default=80.0)
        p.add_argument("--attack-size-sigma", type=float, default=10.0)
        p.set_defaults(func=cmd_synth)

    if "bench" in built:
        p = sub.add_parser("bench", help="run the desk-scale benchmark checks")
        p.add_argument("--seed", type=int, default=7)
        p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code. Only the subparser of the
    command ``argv[0]`` names is built, or all five when it names none
    (``build_parser``); ``argv`` None means ``sys.argv[1:]``, read here so that
    ``argv[0]`` is known before the parser is built."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_files(args)
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `... --alerts - | head`) closed the pipe.
        # Point stdout at devnull so interpreter shutdown does not complain.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional shell status
    except (ValueError, OSError, LifecycleError, TrainingError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
