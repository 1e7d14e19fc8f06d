"""Output identity: every output of a fixed list of CLI calls, byte for byte,
against another revision of the repository.

    python tests/identity.py --against REV [--expect GLOB ...]

REV's tree is exported with ``git archive`` into a temporary directory; the
other tree is this checkout, as it is on disk. The inputs are generated once
per seed of ``SEEDS`` by this checkout's ``aadbench/inputs.py``, the
benchmark's own generators, which write the documented CSV formats without
``aadetect``, so neither tree's ``traffic`` module shapes them. Each tree
then runs every call of ``calls`` in order, each in a fresh interpreter on
that tree's ``src/``, in a working directory of its own per tree and seed
that holds the inputs and the earlier calls' outputs. A few calls first
write an edited copy of an input or of an earlier output, by the same edit in
both trees: a broken one (``broken-*``), one that only csv's row-by-row loop
reads (a quoted field, CRLF line endings, a blank line), or a state as
versions 1 and 2 wrote it (``legacy-*``), or the first lines of an input
(``short-*``); others copy one to where a call that must be refused would
overwrite it (``refused-*``). The ``help*`` and
``usage-*`` calls print argparse's help and usage errors. At the first seed the
calls end with ``aadetect bench`` at its default seed and at ``--seed 8``, this
checkout's four demos and the Python block of its README, each run under ``-W
error`` (``demo-*`` and ``readme``).

Each call's stdout, stderr and exit code, and every file either tree's
directory ends up holding, are compared byte for byte; for each output that
differs the first differing line is printed. ``--expect GLOB`` declares a
change: every output path (``seed1/_calls/eval-nan.stderr``, say) that
differs must match one of the globs, and each glob must match at least one
output that differs. Exit 0 when both hold, 1 otherwise.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "aadbench"))
import inputs  # noqa: E402

N30 = ["--set", "metrics.N=30"]
SEEDS = (1, 2)  # ``aadetect bench`` runs at the first only


class Call(NamedTuple):
    name: str
    argv: List[str]
    prepare: Optional[Callable[[Path], None]] = None  # writes a broken-* file first
    program: Tuple[str, ...] = ("-m", "aadetect.cli")  # what the interpreter runs, before argv


def programs() -> List[Call]:
    """The four demos and the README's Python block, each under ``-W error``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    return [Call(f"demo-{path.stem}", [], program=("-W", "error", str(path)))
            for path in sorted((ROOT / "demos").glob("*.py"))] + [
        Call("readme", [], program=("-W", "error", "-c", block))]


def edit_line(source: str, target: str, line: int, change: Callable[[bytes], bytes]):
    """A ``prepare`` step: ``target`` is ``source`` with its ``line`` (from 1) changed."""
    def prepare(run_dir: Path) -> None:
        lines = (run_dir / source).read_bytes().split(b"\n")
        lines[line - 1] = change(lines[line - 1])
        (run_dir / target).write_bytes(b"\n".join(lines))
    return prepare


def field(index: int, value: bytes) -> Callable[[bytes], bytes]:
    """A line change: CSV field ``index`` replaced by ``value`` (``b"%s"`` is the old one)."""
    def change(text: bytes) -> bytes:
        fields = text.split(b",")
        fields[index] = value.replace(b"%s", fields[index])
        return b",".join(fields)
    return change


def crlf(source: str, target: str):
    """A ``prepare`` step: ``target`` is ``source`` with CRLF line endings."""
    def prepare(run_dir: Path) -> None:
        (run_dir / target).write_bytes((run_dir / source).read_bytes().replace(b"\n", b"\r\n"))
    return prepare


def copy(source: str, target: str):
    """A ``prepare`` step: ``target`` is a copy of the file or directory ``source``."""
    def prepare(run_dir: Path) -> None:
        if (run_dir / source).is_dir():
            shutil.copytree(run_dir / source, run_dir / target)
        else:
            (run_dir / target).parent.mkdir(exist_ok=True)
            shutil.copyfile(run_dir / source, run_dir / target)
    return prepare


def head(source: str, target: str, lines: int):
    """A ``prepare`` step: ``target`` is the first ``lines`` lines of ``source``."""
    def prepare(run_dir: Path) -> None:
        kept = (run_dir / source).read_bytes().split(b"\n")[:lines]
        (run_dir / target).write_bytes(b"".join(line + b"\n" for line in kept))
    return prepare


def edit_state(source: str, target: str, change: Callable[[dict], None]):
    """A ``prepare`` step: ``target`` is the state ``source`` after ``change``
    edits its document, written as ``save_state`` writes one."""
    def prepare(run_dir: Path) -> None:
        doc = json.loads((run_dir / source).read_text(encoding="utf-8"))
        change(doc)
        (run_dir / target).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                                      encoding="utf-8")
    return prepare


def legacy_state(source: str, target: str, version: int):
    """A ``prepare`` step: ``target`` is the state ``source`` as version ``version``
    (1 or 2) wrote it, with the network too: ``L``, ``act`` and each hidden layer,
    a ``numpy.random.default_rng(seed).uniform(0, 1/M, (M, M))`` draw. From a
    version-2 state of the same fields, version 2 gives the same bytes."""
    def change(doc: dict) -> None:
        m, rng = doc["M"], np.random.default_rng(doc["seed"])
        doc.update(version=version, L=3, act={"r": 1.0, "c": 1.0}, hidden_weights=[
            rng.uniform(0.0, 1.0 / m, size=(m, m)).tolist() for _ in range(3)])
    return edit_state(source, target, change)


def calls(seed: int) -> List[Call]:
    """The CLI calls for one seed, in order."""
    online = ["replay", "soak.csv", "--state", "init.json", "--online", "--log", "online.log",
              "--alerts", "online.alerts", "--report", "online.report.json",
              "--plots", "online-plots", "--save-state", "online.state.json"] + N30
    return [
        # Packet init by count, by a longer count, by stream time, and a window that never closes.
        Call("init", ["init", "soak.csv", "--out", "init.json"] + N30),
        Call("init-len", ["init", "soak.csv", "--out", "init-len.json",
                          "--set", "train.init_len=5000"] + N30),
        Call("init-seconds", ["init", "soak.csv", "--out", "init-seconds.json",
                              "--set", "train.init_seconds=20"] + N30),
        Call("init-never", ["init", "soak.csv", "--out", "init-never.json",
                            "--set", "train.init_len=100000000"] + N30),
        Call("replay-online", online),
        Call("replay-resume", ["replay", "soak.csv", "--state", "online.state.json", "--online",
                               "--log", "resume.log", "--save-state", "resume.state.json"] + N30),
        Call("replay-frozen", ["replay", "soak.csv", "--state", "init.json", "--frozen",
                               "--log", "frozen.log", "--alerts", "frozen.alerts",
                               "--report", "frozen.report.json"] + N30),
        Call("replay-seconds", ["replay", "soak.csv", "--state", "init-seconds.json", "--online",
                                "--log", "seconds.log"] + N30),
        Call("replay-cold", ["replay", "soak.csv", "--log", "cold.log", "--alerts", "-",
                             "--save-state", "cold.state.json"] + N30),
        Call("eval", ["eval", "--log", "online.log", "--trace", "soak.csv",
                      "--report", "eval.report.json", "--plots", "eval-plots",
                      "--assert", "tpr>=95,accuracy>=90"]),
        Call("eval-violated", ["eval", "--log", "frozen.log", "--trace", "soak.csv",
                               "--assert", "accuracy>=100"]),
        # Assertions refused before the log is read: an unknown metric, a clause
        # without an operator, and a spec of no clauses.
        Call("refused-assert-metric", ["eval", "--log", "frozen.log", "--trace", "soak.csv",
                                       "--assert", "accuracy>=90,precision>=90"]),
        Call("refused-assert-clause", ["eval", "--log", "frozen.log", "--trace", "soak.csv",
                                       "--assert", "accuracy=90"]),
        Call("refused-assert-empty", ["eval", "--log", "frozen.log", "--trace", "soak.csv",
                                      "--assert", " , "]),
        # Feature init and replays, frozen, online and cold.
        Call("features-init", ["init", "train.csv", "--features", "--out", "features.json"]),
        Call("features-frozen", ["replay", "test.csv", "--features", "--state", "features.json",
                                 "--log", "features.log", "--alerts", "features.alerts",
                                 "--report", "features.report.json",
                                 "--plots", "features-plots"]),
        Call("features-online", ["replay", "test.csv", "--features", "--state", "features.json",
                                 "--online", "--log", "features-online.log",
                                 "--save-state", "features-online.state.json"]),
        Call("features-cold", ["replay", "test.csv", "--features", "--log", "features-cold.log",
                               "--set", "train.init_len=2000"]),
        # The device bank on the spray and on the soak.
        Call("devices-spray", ["replay", "spray.csv", "--devices", "--log", "devices.log",
                               "--alerts", "devices.alerts", "--report", "devices.report.json",
                               "--plots", "devices-plots"] + N30),
        Call("devices-soak", ["replay", "soak.csv", "--devices", "--log", "devices-soak.log",
                              "--report", "devices-soak.report.json"] + N30),
        # Valid files that csv reads row by row: a quoted address, CRLF line endings,
        # and a blank line before a quoted row.
        Call("init-quoted", ["init", "quoted.csv", "--out", "init-quoted.json"] + N30,
             edit_line("soak.csv", "quoted.csv", 6, field(1, b'"%s"'))),
        Call("replay-quoted", ["replay", "quoted.csv", "--state", "init.json",
                               "--log", "quoted.log"] + N30),
        Call("init-crlf", ["init", "crlf.csv", "--out", "init-crlf.json"] + N30,
             crlf("soak.csv", "crlf.csv")),
        Call("replay-crlf", ["replay", "crlf.csv", "--state", "init.json", "--log", "crlf.log"]
             + N30),
        Call("init-blank", ["init", "blank.csv", "--out", "init-blank.json"] + N30,
             edit_line("soak.csv", "blank.csv", 1500,
                       lambda text: b"\n" + field(2, b'"%s"')(text))),
        Call("replay-blank", ["replay", "blank.csv", "--state", "init.json", "--log", "blank.log"]
             + N30),
        # States as versions 1 and 2 wrote them, the network included.
        Call("legacy-v2-frozen", ["replay", "soak.csv", "--state", "legacy-v2.json", "--frozen",
                                  "--log", "legacy-v2.log", "--alerts", "legacy-v2.alerts",
                                  "--report", "legacy-v2.report.json"] + N30,
             legacy_state("init.json", "legacy-v2.json", 2)),
        Call("legacy-v2-online", ["replay", "soak.csv", "--state", "legacy-v2.json", "--online",
                                  "--log", "legacy-v2-online.log",
                                  "--alerts", "legacy-v2-online.alerts",
                                  "--report", "legacy-v2-online.report.json",
                                  "--save-state", "legacy-v2-online.state.json"] + N30),
        Call("legacy-v1-frozen", ["replay", "soak.csv", "--state", "legacy-v1.json", "--frozen",
                                  "--log", "legacy-v1.log", "--alerts", "legacy-v1.alerts",
                                  "--report", "legacy-v1.report.json"] + N30,
             legacy_state("init.json", "legacy-v1.json", 1)),
        Call("legacy-features", ["replay", "test.csv", "--features",
                                 "--state", "legacy-features.json",
                                 "--log", "legacy-features.log"],
             legacy_state("features.json", "legacy-features.json", 2)),
        # Broken files: each an error line and exit 2, or (eval-nan) a report JSON cannot hold.
        Call("broken-quote", ["replay", "broken-quote.csv", "--state", "init.json"] + N30,
             edit_line("soak.csv", "broken-quote.csv", 6, lambda text: b'"' + text)),
        Call("broken-back", ["replay", "broken-back.csv", "--state", "init.json"] + N30,
             edit_line("soak.csv", "broken-back.csv", 1500, field(0, b"0"))),
        Call("broken-utf8", ["init", "broken-utf8.csv", "--out", "broken-utf8.json"] + N30,
             edit_line("soak.csv", "broken-utf8.csv", 50, lambda text: b"\xff" + text)),
        Call("broken-bom", ["replay", "broken-bom.csv", "--log", "broken-bom.log"] + N30,
             edit_line("soak.csv", "broken-bom.csv", 1, lambda text: b"\xef\xbb\xbf" + text)),
        Call("broken-bom-features", ["init", "broken-bom-features.csv", "--features",
                                     "--out", "broken-bom-features.json"],
             edit_line("train.csv", "broken-bom-features.csv", 1,
                       lambda text: b"\xef\xbb\xbf" + text)),
        Call("broken-features", ["replay", "broken-features.csv", "--features",
                                 "--state", "features.json"],
             edit_line("test.csv", "broken-features.csv", 10, field(3, b"inf"))),
        # Finite feature values that min-max scaling overflows: a training column from
        # -1e308 to 1e308, and -1.7e308 in the tenth row of a frozen replay.
        Call("overflow-init", ["init", "overflow-train.csv", "--features",
                               "--out", "overflow.json"],
             edit_line("train.csv", "overflow-train.csv", 2, lambda text: field(
                 0, b"1e308")(text) + b"\n" + field(0, b"-1e308")(text))),
        Call("overflow-replay", ["replay", "overflow-test.csv", "--features",
                                 "--state", "features.json", "--frozen",
                                 "--log", "overflow.log"],
             edit_line("test.csv", "overflow-test.csv", 11, field(0, b"-1.7e308"))),
        # A state whose first feature column spans -1e308 to 1e308, past the largest float.
        Call("overflow-state", ["replay", "test.csv", "--features",
                                "--state", "overflow-state.json", "--frozen"],
             edit_state("features.json", "overflow-state.json", lambda doc: doc[
                 "scaling_factors"].update(lo=[-1e308] + doc["scaling_factors"]["lo"][1:],
                                           hi=[1e308] + doc["scaling_factors"]["hi"][1:]))),
        # Inputs too short to use: three benign feature rows, a trace of a header alone,
        # an empty feature file, a trace whose init never closes, and one whose init
        # closes on its last row, so that a --report has no decisions.
        Call("short-features", ["init", "short-train.csv", "--features",
                                "--out", "short.json"], head("train.csv", "short-train.csv", 4)),
        Call("short-replay", ["replay", "header.csv", "--state", "init.json"] + N30,
             head("soak.csv", "header.csv", 1)),
        Call("short-devices", ["replay", "header.csv", "--devices"] + N30),
        Call("short-empty-features", ["init", "empty.csv", "--features", "--out", "empty.json"],
             head("train.csv", "empty.csv", 0)),
        Call("short-init-replay", ["replay", "head.csv", "--log", "short-init.log"] + N30,
             head("soak.csv", "head.csv", 11)),
        Call("short-init-report", ["replay", "init-only.csv", "--log", "init-only.log",
                                   "--report", "init-only.report.json"] + N30,
             head("soak.csv", "init-only.csv", 1001)),
        Call("broken-label", ["replay", "broken-label.csv", "--state", "init.json"] + N30,
             edit_line("soak.csv", "broken-label.csv", 3001, field(4, b"2"))),
        Call("broken-back-edge", ["replay", "broken-back-edge.csv", "--state", "init.json"] + N30,
             edit_line("soak.csv", "broken-back-edge.csv", 1027, field(0, b"0"))),
        Call("broken-column", ["replay", "broken-column.csv", "--state", "init.json"] + N30,
             edit_line("soak.csv", "broken-column.csv", 1026, lambda text: text + b",x")),
        Call("broken-feature-label", ["replay", "broken-feature-label.csv", "--features",
                                      "--state", "features.json"],
             edit_line("test.csv", "broken-feature-label.csv", 10, field(-2, b"yes"))),
        Call("broken-state", ["replay", "soak.csv", "--state", "broken-state.json"] + N30,
             edit_line("init.json", "broken-state.json", 2, lambda text: b' "L": "x",')),
        Call("broken-json", ["replay", "soak.csv", "--state", "broken-json.json"] + N30,
             edit_line("init.json", "broken-json.json", 40, lambda text: b"}")),
        Call("broken-key", ["replay", "soak.csv", "--state", "broken-key.json", "--online",
                            "--save-state", "broken-key.state.json"] + N30,
             edit_line("init.json", "broken-key.json", 1,
                       lambda text: text + b' "treshold": 5.0,')),
        Call("eval-nan", ["eval", "--log", "broken-nan.log", "--trace", "soak.csv",
                          "--report", "eval-nan.report.json"],
             edit_line("online.log", "broken-nan.log", 6, field(1, b"nan"))),
        # Refused before any file is read: a file that --plots DIR would write, named by
        # another argument (the log, the trace, eval's log), and an init --out in a
        # directory that does not exist or under a file.
        Call("refused-plots-log", ["replay", "soak.csv", "--state", "init.json",
                                   "--log", "refused-plots/decision_series.csv",
                                   "--plots", "refused-plots"] + N30,
             copy("online-plots", "refused-plots")),
        Call("refused-plots-trace", ["replay", "refused-trace/decision_series.csv",
                                     "--state", "init.json", "--plots", "refused-trace"] + N30,
             copy("soak.csv", "refused-trace/decision_series.csv")),
        Call("refused-eval-plots", ["eval", "--log", "refused-eval/decision_series.csv",
                                    "--trace", "soak.csv", "--plots", "refused-eval"],
             copy("online.log", "refused-eval/decision_series.csv")),
        Call("refused-init-out", ["init", "soak.csv", "--out", "missing/init.json"] + N30),
        Call("refused-out-under-file", ["init", "soak.csv", "--out", "soak.csv/x"] + N30),
        # Refused before the log is opened: --plots under a file, and --report on a trace
        # with one unlabeled row.
        Call("refused-plots-under-file", ["replay", "soak.csv", "--state", "init.json",
                                          "--log", "refused-under-file.log",
                                          "--plots", "soak.csv/sub"] + N30),
        Call("refused-unlabeled-report", ["replay", "unlabeled.csv", "--state", "init.json",
                                          "--log", "refused-unlabeled.log",
                                          "--report", "refused-unlabeled.json"] + N30,
             edit_line("soak.csv", "unlabeled.csv", 3001, field(4, b""))),
        # Help and usage errors, which argparse prints.
        Call("help", ["--help"]),
        Call("help-init", ["init", "-h"]),
        Call("help-replay", ["replay", "-h"]),
        Call("usage-unknown", ["nosuch", "soak.csv"]),
        Call("usage-unrecognized", ["init", "soak.csv", "--out", "usage.json", "--bogus"]),
        Call("usage-missing", ["init", "soak.csv"]),
    ] + ([Call("bench", ["bench"]), Call("bench-seed-8", ["bench", "--seed", "8"])]
         + programs() if seed == SEEDS[0] else [])


def run_tree(src: Path, run_dir: Path, seed_calls: List[Call]) -> None:
    """Run the calls in ``run_dir`` against ``src``, keeping each call's
    stdout, stderr and exit code under ``_calls/``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    (run_dir / "_calls").mkdir()
    for call in seed_calls:
        if call.prepare:
            call.prepare(run_dir)
        done = subprocess.run([sys.executable, *call.program, *call.argv], cwd=run_dir,
                              env=env, capture_output=True, timeout=600)
        for suffix, data in (("stdout", done.stdout), ("stderr", done.stderr),
                             ("exit", f"{done.returncode}\n".encode())):
            (run_dir / "_calls" / f"{call.name}.{suffix}").write_bytes(data)


def files_under(folder: Path) -> Dict[str, Path]:
    return {path.relative_to(folder).as_posix(): path
            for path in sorted(folder.rglob("*")) if path.is_file()}


def first_difference(a: Optional[bytes], b: Optional[bytes]) -> str:
    if a is None or b is None:
        return f"only in {'this tree' if b is None else 'the other tree'}"
    lines_a, lines_b = a.split(b"\n"), b.split(b"\n")
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:200]!r} here, {y[:200]!r} there"
    return f"{len(lines_a)} lines here, {len(lines_b)} there"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="the git revision to compare with")
    ap.add_argument("--expect", action="append", default=[], metavar="GLOB",
                    help="outputs that must differ (repeatable)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="aadetect-identity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        (tmp / "against").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "against")], input=archive, check=True)
        trees = {"here": ROOT / "src", "there": tmp / "against" / "src"}
        jobs = []
        for seed in SEEDS:
            generated = tmp / "inputs" / f"seed{seed}"
            generated.mkdir(parents=True)
            for make in (inputs.botnet_soak, inputs.features_fit, inputs.device_spray):
                make(seed, generated)
            seed_calls = calls(seed)
            for tree, src in trees.items():
                run_dir = tmp / tree / f"seed{seed}"
                shutil.copytree(generated, run_dir)
                jobs.append((src, run_dir, seed_calls))
        with ThreadPoolExecutor(max_workers=2) as pool:  # two children at a time
            list(pool.map(lambda job: run_tree(*job), jobs))
        here, there = files_under(tmp / "here"), files_under(tmp / "there")
        for seed in SEEDS:  # what each call did here, to read the comparison by
            calls_dir = tmp / "here" / f"seed{seed}" / "_calls"
            exits = [f"{call.name} {(calls_dir / f'{call.name}.exit').read_text().strip()}"
                     for call in calls(seed)]
            print(f"seed{seed} exit codes: {', '.join(exits)}")
        differ = {}  # output path -> its first difference
        for path in sorted(here.keys() | there.keys()):
            ours, theirs = (side[path].read_bytes() if path in side else None
                            for side in (here, there))
            if ours != theirs:
                differ[path] = first_difference(ours, theirs)
    failures = 0
    for path, difference in differ.items():
        declared = any(fnmatch.fnmatch(path, glob) for glob in args.expect)
        failures += not declared
        print(f"{'declared' if declared else 'DIFFERS '}  {path}: {difference}")
    for glob in args.expect:
        if not any(fnmatch.fnmatch(path, glob) for path in differ):
            print(f"UNCHANGED {glob}: declared, but no output it matches differs")
            failures += 1
    print(f"{len(here)} outputs of {len(SEEDS)} seeds against {args.against}: "
          f"{len(differ)} differ, {failures} not as declared")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
