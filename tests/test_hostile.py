"""Hostile input through the whole CLI: one generated edit to a small valid
trace, feature file, decision log, state file or ``--config`` file, or one
generated ``--set section.key=value``, then every command that reads it, run
in process through ``cli.main``. A state or config file also takes a JSON
value of the wrong type at any nested key, or a key its writer never writes
in any of its objects: a state's ``metrics`` and ``train`` objects too, whose
values a replay decides and refits by unless its config gives others.

The contract: a command returns 0 or 2 and raises nothing (2 alone for an
unknown key); on 2 its stderr is one ``error:`` line that names the edited
file (or, for a config file, a ``section.key``) or the ``--set`` key; a state
file that existed before a failed run is unchanged, whether the run was to
write it with ``init --out`` or with ``replay --save-state``, and so is every
other input.

A third property draws every file argument of ``init``, ``replay`` (with and
without ``--devices``) and ``eval`` from a small pool of names: valid inputs,
fresh names, a plot directory and the files ``--plots`` writes there, a name
in a directory that does not exist and a name under a file. Every input is
unchanged after any run; a run that exits 2 names a flag or a file it was
given, and changes or adds no file.

``--hypothesis-profile=fuzz`` (``tests/conftest.py``) runs each property on
2,000 examples instead of the ``ci`` profile's 200.
"""

import io
import json
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from aadetect import cli
from aadetect.config import Config
from aadetect.traffic import AttackSegment, FeatureTable, TraceSpec, save_trace, synth_trace
from oracles import write_feature_file

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONFIG = ["--set", "metrics.N=5", "--set", "train.init_len=20"]
KINDS = ["trace", "features", "log", "state", "config"]
SETTING = re.compile(r"\b(metrics|train|threshold|device)\.\w+")  # a section.key
# A field replaced whole: each one a value some reader must reject or read exactly, or a
# finite value near the float limit, which min-max scaling must not overflow on.
FIELDS = ['"', "nan", "inf", "1e309", "1.7e308", "-1.7e308", str(2**63), "\0", ""]
# A JSON value put at a state's key: each of a type save_state never writes at some key.
WRONG_TYPES = [None, True, "0.5", 1, 1.5, [], [1.0], {}, {"r": 1.0}]


def run(argv):
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def commands(kind, path, base):
    """Every command that reads a file of ``kind`` at ``path``; the other
    inputs are ``base``'s valid files. ``init --out`` writes ``base["out"]``."""
    return {
        "trace": [["init", path, "--out", base["out"]] + CONFIG,
                  ["replay", path, "--state", base["state"]] + CONFIG,
                  ["eval", "--log", base["log"], "--trace", path]],
        "features": [["init", path, "--features", "--out", base["out"]] + CONFIG,
                     ["replay", path, "--features", "--state", base["features-state"],
                      "--frozen"]],
        "log": [["eval", "--log", path, "--trace", base["trace"]]],
        "state": [["replay", base["trace"], "--state", path] + CONFIG,
                  ["replay", base["trace"], "--state", path, "--online",
                   "--save-state", path] + CONFIG],
        "config": [["init", base["trace"], "--out", base["out"], "--config", path],
                   ["replay", base["trace"], "--state", base["state"], "--config", path],
                   ["eval", "--log", base["log"], "--trace", base["trace"], "--config", path]],
    }[kind]


def unchanged(base):
    """The bytes of every file of ``base``."""
    return {name: path.read_bytes() for name, path in base.items()}


def check_contract(kind, path, base, fails=False):
    """Run each command on the file at ``path`` and check the contract; with
    ``fails``, each command must exit 2."""
    for argv in commands(kind, path, base):
        shutil.copyfile(base["state"], base["out"])
        before = unchanged(base)
        code, _, err = run(argv)
        assert code in ((2,) if fails else (0, 2)), (argv, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert str(path) in err or kind == "config" and SETTING.search(err), (argv, err)
            assert unchanged(base) == before, argv
        else:
            assert err == "", (argv, err)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small valid trace, feature file, state (``init --out``'s), feature
    state and decision log; every command on a copy of each exits 0. The
    third feature column holds one value near the float limit, so that one
    edit can take a column's range past what a float holds."""
    tmp = tmp_path_factory.mktemp("hostile")
    files = {name: tmp / f"{name}.{ext}" for name, ext in
             [("trace", "csv"), ("features", "csv"), ("state", "json"), ("log", "csv"),
              ("config", "json"), ("out", "json"), ("edited", "csv"),
              ("features-state", "json")]}
    files["config"].write_text(json.dumps({"metrics": {"N": 5}, "train": {"init_len": 20}},
                                          indent=1) + "\n")
    spec = TraceSpec(duration_s=2.0, rate_pps=20.0, attacks=(
        AttackSegment(1.5, 2.0, 2.0, ("198.51.100.66",), ("10.0.0.1",)),))
    save_trace(synth_trace(spec, seed=3), files["trace"])
    rng = np.random.default_rng(3)
    labels = [False] * 30 + [True] * 6
    features = rng.uniform(0, 1, size=(36, 3))
    features[0, 2] = -1e308
    write_feature_file(FeatureTable(features, labels, [None] * 30 + ["scan"] * 6),
                       files["features"])
    assert run(["init", files["features"], "--features", "--out", files["features-state"]]
               + CONFIG)[0] == 0
    assert run(["init", files["trace"], "--out", files["state"]] + CONFIG)[0] == 0
    assert run(["replay", files["trace"], "--state", files["state"], "--log", files["log"]]
               + CONFIG)[0] == 0
    for kind in KINDS:  # on a copy: replay --save-state would overwrite the state
        shutil.copyfile(files[kind], files["edited"])
        for argv in commands(kind, files["edited"], files):
            assert run(argv)[0] == 0, argv
    return files


def json_paths(value, path=()):
    """The path of ``value`` and of every value nested in it: each key of a
    dict and the first element of a list."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from json_paths(value[key], path + (key,))
    elif isinstance(value, list) and value:
        yield from json_paths(value[0], path + (0,))


def get(doc, path):
    """The value at ``path`` in ``doc``."""
    for step in path:
        doc = doc[step]
    return doc


def put(doc, path, value):
    """``doc`` with ``value`` at ``path``, ``doc`` itself changed in place."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def edit(data: bytes, op: str, a: int, b: int, field: str) -> bytes:
    """``data`` with one edit; ``a`` and ``b`` pick a byte, a line or a field,
    or a state's key and a value of the wrong type (``json``), or a state's
    object and the value of a key put in it that ``save_state`` never writes
    (``key``), modulo what there is to pick from."""
    if op in ("json", "key"):
        doc = json.loads(data)
        paths = list(json_paths(doc))
        value = WRONG_TYPES[b % len(WRONG_TYPES)]
        if op == "key":
            objects = [path for path in paths if isinstance(get(doc, path), dict)]
            get(doc, objects[a % len(objects)])["unknown"] = value
        else:
            doc = put(doc, paths[a % len(paths)], value)
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    if op == "flip":
        a %= len(data)
        return data[:a] + bytes([data[a] ^ (b % 255 + 1)]) + data[a + 1:]
    if op == "insert":
        a %= len(data) + 1
        return data[:a] + bytes([b % 256]) + data[a:]
    if op == "delete":
        a %= len(data)
        return data[:a] + data[a + 1:]
    lines = data.split(b"\n")
    a %= len(lines)
    if op == "cut":
        del lines[a]
    elif op == "duplicate":
        lines.insert(a, lines[a])
    elif op == "swap":
        b %= len(lines)
        lines[a], lines[b] = lines[b], lines[a]
    else:  # "field"
        fields = lines[a].split(b",")
        fields[b % len(fields)] = field.encode()
        lines[a] = b",".join(fields)
    return b"\n".join(lines)


def edits(kind):
    """One edit to a file of ``kind``: only a JSON file takes a ``json`` or ``key`` edit."""
    ops = ["flip", "insert", "delete", "cut", "duplicate", "swap", "field"]
    return st.tuples(st.just(kind), st.tuples(
        st.sampled_from(ops + ["json", "key"] * (kind in ("state", "config"))),
        st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(FIELDS)))


@hypothesis.settings(deadline=None)  # a slow example on a loaded box is not a failure
@hypothesis.given(st.sampled_from(KINDS).flatmap(edits))
@hypothesis.example(("log", ("insert", 0, ord('"'), "")))  # a quote that opens the header
@hypothesis.example(("trace", ("insert", 200, 0xff, "")))  # not UTF-8
@hypothesis.example(("trace", ("field", 30, 0, "1e309")))
@hypothesis.example(("state", ("insert", 0, 0xff, "")))  # not UTF-8
@hypothesis.example(("state", ("json", 0, 5, "")))  # a top-level list
@hypothesis.example(("state", ("key", 0, 4, "")))  # "unknown": 1.5 at the top level
@hypothesis.example(("state", ("key", 1, 4, "")))  # "unknown": 1.5 in metrics
@hypothesis.example(("state", ("key", 4, 4, "")))  # "unknown": 1.5 in train
@hypothesis.example(("state", ("json", 5, 3, "")))  # metrics.N 1, and --set metrics.N=5
@hypothesis.example(("state", ("json", 27, 4, "")))  # train.ridge_lambda 1.5: refits by it
@hypothesis.example(("config", ("insert", 0, 0xff, "")))  # not UTF-8
@hypothesis.example(("config", ("key", 0, 4, "")))  # an unknown section
@hypothesis.example(("config", ("field", 0, 0, "")))  # not JSON
# Finite values whose min-max scaling overflowed: a column from -1e308 to 1.7e308 (init
# and replay), and -1.7e308 in a column whose fitted range is below 1 (replay).
@hypothesis.example(("features", ("field", 2, 2, "1.7e308")))
@hypothesis.example(("features", ("field", 10, 0, "-1.7e308")))
def test_one_edit_to_an_input_exits_0_or_2_naming_the_file(base, case):
    kind, one_edit = case
    base["edited"].write_bytes(edit(base[kind].read_bytes(), *one_edit))
    check_contract(kind, base["edited"], base, fails=one_edit[0] == "key")


# -- one --set value ---------------------------------------------------------------------


SECTIONS = Config().to_dict()
SET_KEYS = [f"{section}.{key}" for section, body in SECTIONS.items() for key in body] + [
    "nosuch.key", "train.nosuch", "train", "train.seed.x", ""]
# Each of a JSON type some key rejects, not a finite number, past int64, or empty.
SET_VALUES = ["null", "true", '"0.5"', "[]", "{}", "[1.0]", "[0.5, 0.5]", "1.5", "1", "0", "-1",
              "nan", "inf", "1e309", "NaN", "-Infinity", str(2**63), str(-2**63 - 1), ""]


def names_its_key(err, item):
    """Whether ``err`` names the ``--set`` item's ``section.key``: the key
    itself, or its section and its name, or, for a section that does not
    exist, the section."""
    key = item.partition("=")[0]
    section, _, name = key.partition(".")
    return key in err or section in err and (name in err or section not in SECTIONS)


@hypothesis.settings(deadline=None)
@hypothesis.given(st.sampled_from(SET_KEYS), st.sampled_from(SET_VALUES), st.booleans())
@hypothesis.example("metrics.N", str(2**63), True)  # past int64: update_block overflowed
@hypothesis.example("train.seed", "", False)  # no "="
def test_one_set_value_exits_0_or_2_naming_its_key(base, key, value, equals):
    item = f"{key}={value}" if equals else key
    for argv in (["init", base["trace"], "--out", base["out"]],
                 ["replay", base["trace"], "--state", base["state"]],
                 ["eval", "--log", base["log"], "--trace", base["trace"]]):
        shutil.copyfile(base["state"], base["out"])
        before = unchanged(base)
        code, _, err = run(argv + CONFIG + ["--set", item])
        assert code in (0, 2), (argv, item, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, item, err)
            assert names_its_key(err, item), (argv, item, err)
            assert unchanged(base) == before, (argv, item)
        else:
            assert err == "", (argv, item, err)


# -- every file argument drawn from a pool of names --------------------------------------


# Each command's file arguments, inputs then outputs; a "?" marks one that may be left out.
FILE_ARGS = {
    "init": ("TRACE --config?", "--out"),
    "replay": ("TRACE --state? --config?", "--log? --alerts? --report? --save-state? --plots?"),
    "replay --devices": ("TRACE --config?", "--log? --alerts? --report? --plots?"),
    "eval": ("--log --trace --config?", "--report? --plots?"),
}
# The valid inputs, two fresh names, a directory P holding the files --plots P writes
# (each a copy of a valid input), a name in a directory that does not exist, and one
# under a file.
POOL = ["trace.csv", "state.json", "log.csv", "config.json", "new.csv", "new.json", "P",
        "P/decision_series.csv", "P/per_type_accuracy.csv", "P/infection_levels.csv",
        "missing/x", "trace.csv/sub"]


def drawn(command, **names):
    """A drawn case: ``command`` and a name (or None) for each of its file
    arguments, given here by flag, ``TRACE`` or ``save_state`` for ``--save-state``."""
    return command, tuple(names.get(flag.strip("-?").replace("-", "_"))
                          for flag in " ".join(FILE_ARGS[command]).split())


def files_under(folder):
    """The bytes of every file under ``folder``, by path."""
    return {path: path.read_bytes() for path in folder.rglob("*") if path.is_file()}


@pytest.fixture(scope="module")
def pool(base, tmp_path_factory):
    """A directory holding ``POOL``'s files, and one to run each case in."""
    template = tmp_path_factory.mktemp("pool")
    (template / "P").mkdir()
    for name, source in [("trace.csv", "trace"), ("state.json", "state"), ("log.csv", "log"),
                         ("config.json", "config"), ("P/decision_series.csv", "log"),
                         ("P/per_type_accuracy.csv", "trace"),
                         ("P/infection_levels.csv", "trace")]:
        shutil.copyfile(base[source], template / name)
    return template, tmp_path_factory.mktemp("pool-run") / "run"


@hypothesis.settings(deadline=None)
@hypothesis.given(st.sampled_from(sorted(FILE_ARGS)).flatmap(lambda command: st.tuples(
    st.just(command), st.tuples(*((st.none() | st.sampled_from(POOL)) if flag.endswith("?")
                                  else st.sampled_from(POOL)
                                  for flag in " ".join(FILE_ARGS[command]).split())))))
# Each of these used to replace a file it was given, leave a new file behind on exit 2,
# or fail only after the fit.
@hypothesis.example(drawn("replay", TRACE="P/per_type_accuracy.csv", state="state.json",
                          plots="P"))
@hypothesis.example(drawn("replay", TRACE="trace.csv", state="state.json",
                          log="P/decision_series.csv", plots="P"))
@hypothesis.example(drawn("eval", log="P/decision_series.csv", trace="trace.csv", plots="P"))
@hypothesis.example(drawn("replay --devices", TRACE="P/infection_levels.csv", plots="P"))
@hypothesis.example(drawn("replay", TRACE="trace.csv", log="new.csv", report="P"))
@hypothesis.example(drawn("replay", TRACE="trace.csv", save_state="new.csv", plots="new.csv"))
@hypothesis.example(drawn("init", TRACE="trace.csv", out="missing/x"))
@hypothesis.example(drawn("replay", TRACE="trace.csv", state="state.json", log="new.csv",
                          plots="trace.csv/sub"))
@hypothesis.example(drawn("replay", TRACE="trace.csv", state="state.json",
                          save_state="state.json"))  # a frozen resume in place
def test_file_arguments_from_a_pool_of_names_exit_0_or_2_changing_no_input(pool, case):
    # The contract: exit 0 or 2, and every input byte-identical after the run; on 2,
    # one error line naming a flag or a file it was given, and no file changed or new.
    template, work = pool
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(template, work)
    command, names = case
    inputs, outputs = (flags.replace("?", "").split() for flags in FILE_ARGS[command])
    argv, given, read = command.split() + CONFIG, [], []
    for flag, name in zip(inputs + outputs, names):
        if name is not None:
            argv += [work / name] if flag == "TRACE" else [flag, work / name]
            given += [flag, str(work / name)]
            read += [work / name] if flag in inputs and (work / name).is_file() else []
    before = files_under(work)
    code, _, err = run(argv)
    after = files_under(work)
    assert code in (0, 2), (argv, code, err)
    assert {path: after.get(path) for path in read} == {path: before[path] for path in read}
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert any(name in err for name in given), (argv, err)
        assert after == before, argv
    else:
        assert err == "", (argv, err)


# -- a stray quote with more than csv's field size limit after it -----------------------


def big_inputs(tmp):
    """A trace, feature file and decision log with more than 128 KiB after
    their fifth line, and a state fitted on each of the trace and the feature file."""
    spec = TraceSpec(duration_s=100.0, rate_pps=50.0)
    files = {"trace": tmp / "trace.csv", "features": tmp / "features.csv",
             "state": tmp / "state.json", "log": tmp / "log.csv", "out": tmp / "out.json",
             "features-state": tmp / "features-state.json"}
    save_trace(synth_trace(spec, seed=7), files["trace"])
    rng = np.random.default_rng(7)
    write_feature_file(FeatureTable(rng.uniform(0, 1, size=(3000, 3)), [False] * 3000),
                       files["features"])
    assert run(["init", files["features"], "--features", "--out", files["features-state"]]
               + CONFIG)[0] == 0
    assert run(["init", files["trace"], "--out", files["state"]] + CONFIG)[0] == 0
    assert run(["replay", files["trace"], "--state", files["state"], "--log", files["log"]]
               + CONFIG)[0] == 0
    for name in ("trace", "features", "log"):
        assert files[name].stat().st_size - 200 > 128 * 1024
    return files


@pytest.mark.parametrize("line", [1, 6])
def test_a_stray_quote_before_128_kib_is_one_error_naming_its_line(tmp_path, line):
    # csv.reader reads a quoted field to the end of the file, and its own
    # error for the field's size names neither the file nor the line.
    files = big_inputs(tmp_path)
    for kind in ("trace", "features", "log"):
        path = tmp_path / f"quoted-{kind}.csv"
        lines = files[kind].read_text().splitlines(keepends=True)
        lines[line - 1] = '"' + lines[line - 1]
        path.write_text("".join(lines))
        replay = [["replay", path, "--features" if kind == "features" else "--frozen"] + CONFIG]
        for argv in commands(kind, path, files) + (replay if kind != "log" else []):
            shutil.copyfile(files["state"], files["out"])
            assert run(argv) == (
                2, "", f"error: {path}:{line}: field larger than field limit (131072)\n"), argv
            assert files["out"].read_bytes() == files["state"].read_bytes()
