"""Configuration loading/validation/overrides and end-to-end CLI flows run
in-process through ``cli.main``."""

import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import aadetect
from aadetect import cli
from aadetect import detector as detector_module
from aadetect.aadrnn import AadrnnModel
from aadetect.config import (Config, DeviceSection, MetricsSection, TrainSection,
                             apply_overrides, config_from_dict, load_config)
from aadetect.detector import Decision, Detector, LifecycleError, Mode, load_state, save_state
from aadetect.devices import DeviceBank
from aadetect.evaluation import read_decision_log
from aadetect.traffic import (AttackSegment, FeatureTable, TraceSpec, load_feature_dataset,
                              load_trace, save_trace, synth_trace)
from aadetect.training import TrainingError
from oracles import (legacy_state, stepped, stepped_feature_init, stepped_packet_init,
                     write_feature_file)


def feature_table(rng, dim, *blocks):
    """A FeatureTable of ``(n, center, spread, attack_type)`` blocks of normal
    rows, drawn in order; a block with an attack type is labelled attack."""
    feats = np.vstack([rng.normal(center, spread, size=(n, dim))
                       for n, center, spread, _ in blocks])
    kinds = [kind for n, _, _, kind in blocks for _ in range(n)]
    return FeatureTable(feats, [kind is not None for kind in kinds], kinds)

# -- config ----------------------------------------------------------------------


def test_default_config_values():
    cfg = Config()
    assert cfg.metrics.N == 10 and cfg.metrics.T_seconds == 10.0
    assert cfg.train.init_len == 1000 and cfg.train.window_len == 500
    assert cfg.train.noise_sigma == 0.1 and cfg.train.ridge_lambda == 1e-4
    assert cfg.threshold.mode == "whisker"
    assert cfg.device.alpha == 0.1 and cfg.device.level_threshold == 0.5
    assert cfg.device.hysteresis_k == 3
    assert cfg.device.window_seconds == 30.0 and not hasattr(cfg.device, "window_len")
    assert cfg.validate() is cfg  # the defaults are valid, and validate returns the config


def test_config_from_dict_rejects_unknown_names():
    with pytest.raises(ValueError) as err:
        config_from_dict({"nope": {}})
    assert "nope" in str(err.value)
    with pytest.raises(ValueError) as err:
        config_from_dict({"train": {"bogus_key": 1}})
    assert "bogus_key" in str(err.value)
    with pytest.raises(ValueError):
        config_from_dict({"train": 7})
    with pytest.raises(ValueError):
        config_from_dict([1, 2])


def test_config_validation_rules():
    with pytest.raises(ValueError):
        config_from_dict({"threshold": {"mode": "fixed"}})  # needs a value
    with pytest.raises(ValueError):
        config_from_dict({"threshold": {"mode": "fixed", "value": -1.0}})
    with pytest.raises(ValueError):
        config_from_dict({"threshold": {"mode": "magic"}})
    with pytest.raises(ValueError):
        config_from_dict({"train": {"init_len": 3}})
    with pytest.raises(ValueError):
        config_from_dict({"device": {"init_len": 3}})
    with pytest.raises(ValueError):
        config_from_dict({"device": {"threshold_scale": 0.0}})
    with pytest.raises(ValueError):
        config_from_dict({"device": {"alpha": 0.0}})
    with pytest.raises(ValueError):
        config_from_dict({"device": {"level_threshold": 1.0}})
    with pytest.raises(ValueError):
        config_from_dict({"device": {"hysteresis_k": 0}})
    with pytest.raises(ValueError):
        config_from_dict({"metrics": {"N": 1}})
    with pytest.raises(ValueError):
        config_from_dict({"train": {"window_len": 0}})


def test_config_round_trip():
    cfg = config_from_dict({"train": {"init_len": 64}, "metrics": {"N": 4}})
    assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("config, key", [
    (Config(train=TrainSection(window_len=0)), "train.window_len"),
    (Config(device=DeviceSection(ttl_seconds=math.inf)), "device.ttl_seconds"),
    (Config(metrics=MetricsSection(gamma=[0.25] * 6)), "metrics.gamma"),
    (Config(metrics=TrainSection()),
     "config section 'metrics' must be a MetricsSection, got TrainSection"),
    (Config(metrics={"N": 3}), "config section 'metrics' must be a MetricsSection, got dict"),
], ids=["window-len-0", "ttl-inf", "gamma-sum-1.5", "section-of-another-class",
        "section-as-a-dict"])
@pytest.mark.parametrize("build", [lambda cfg: Detector(6, cfg, mode=Mode.DEVICE), DeviceBank],
                         ids=["Detector", "DeviceBank"])
def test_a_hand_built_config_is_refused_naming_its_key(config, key, build):
    # A Config checks nothing when it is built; the Detector validates it first, and
    # the bank builds its probe detector before it reads any value (an infinite TTL
    # used to overflow there). A section of the wrong class is named before its keys
    # are read (it used to raise KeyError or AttributeError).
    with pytest.raises(ValueError, match=re.escape(key)):
        build(config)


@pytest.mark.parametrize("section, key, value, message", [
    ("metrics", "N", 1, "metrics.N must be >= 2, got 1"),
    ("metrics", "T_seconds", 1e-7,
     "metrics.T_seconds must round to at least 1 microsecond, got 1e-07"),
    ("metrics", "gamma", [1.0, -0.5, 0.5],
     "metrics.gamma must hold positive weights, got [1.0, -0.5, 0.5]"),
    ("metrics", "gamma", [0.5, 0.0, 0.5],
     "metrics.gamma must hold positive weights, got [0.5, 0.0, 0.5]"),
    ("metrics", "gamma", [1, 2.5], "metrics.gamma must sum to 1, got 3.5"),
    ("metrics", "gamma", [0.5, 0.6], "metrics.gamma must sum to 1, got 1.1"),
    ("train", "noise_sigma", -0.1, "train.noise_sigma must be >= 0, got -0.1"),
    ("train", "ridge_lambda", 0, "train.ridge_lambda must be positive, got 0"),
    ("train", "seed", -1, "train.seed must be >= 0, got -1"),
])
def test_metric_and_train_rules_name_their_key(section, key, value, message):
    with pytest.raises(ValueError) as err:
        config_from_dict({section: {key: value}})
    assert str(err.value) == message
    assert "np." not in str(err.value)


def test_metric_and_train_rules_edges_pass():
    cfg = config_from_dict({"metrics": {"N": 2, "T_seconds": 6e-7,
                                        "gamma": [0.1, 0.2, 0.7 + 5e-10]},
                            "train": {"noise_sigma": 0.0, "ridge_lambda": 1e-300, "seed": 0}})
    assert cfg.metrics.T_us == 1 and cfg.train.noise_sigma == 0.0


def test_apply_overrides_coercion():
    cfg = apply_overrides(Config(), [
        "train.init_len=64",
        "train.noise_sigma=0.25",
        "threshold.freeze_after_init=true",
        "train.window_seconds=null",
        "metrics.gamma=[0.2, 0.3, 0.5]",
        "threshold.mode=whisker",
    ])
    assert cfg.train.init_len == 64
    assert cfg.train.noise_sigma == 0.25
    assert cfg.threshold.freeze_after_init is True
    assert cfg.train.window_seconds is None
    assert cfg.metrics.gamma == [0.2, 0.3, 0.5]
    assert cfg.threshold.mode == "whisker"


def test_apply_overrides_errors():
    with pytest.raises(ValueError):
        apply_overrides(Config(), ["train.init_len"])  # no '='
    with pytest.raises(ValueError):
        apply_overrides(Config(), ["initlen=4"])  # no section
    with pytest.raises(ValueError):
        apply_overrides(Config(), ["nope.x=1"])
    with pytest.raises(ValueError):
        apply_overrides(Config(), ["train.nope=1"])


@pytest.mark.parametrize("override", [
    "threshold.value=NaN", "train.window_seconds=NaN", "train.noise_sigma=NaN",
    "train.ridge_lambda=NaN", "train.init_seconds=NaN", "device.window_seconds=NaN",
    "device.threshold_scale=NaN", "device.ttl_seconds=Infinity", "metrics.T_seconds=-Infinity",
    "metrics.gamma=[NaN,0.5,0.5]"])
def test_apply_overrides_rejects_non_finite_numbers(override):
    key = override.split("=")[0]
    with pytest.raises(ValueError, match=re.escape(f"{key} must be finite")):
        apply_overrides(Config(), [override])


def test_load_config(tmp_path):
    assert load_config(None).to_dict() == Config().to_dict()
    path = tmp_path / "cfg.json"
    path.write_text('{"train": {"init_len": 64}}')
    assert load_config(path).train.init_len == 64
    path.write_text("{broken")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert "cfg.json" in str(err.value)


# -- CLI flows --------------------------------------------------------------------


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def flood_trace_file(tmp_path):
    out = tmp_path / "flood.csv"
    rc = cli.main(["synth", "--out", str(out), "--duration", "5", "--rate", "50",
                   "--seed", "5", "--flood", "3:5:60"])
    assert rc == 0
    return out


def test_synth_is_deterministic_on_disk(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--duration", "3", "--rate", "40", "--seed", "9", "--flood", "2:3:20"]
    assert cli.main(["synth", "--out", str(a)] + args) == 0
    assert cli.main(["synth", "--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "wrote" in out and "attack" in out
    trace = load_trace(a)
    assert True in trace.label and False in trace.label


def test_synth_rejects_malformed_flood_spec(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "x.csv"), "--duration", "2",
                   "--rate", "10", "--flood", "1:2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--ramp", "0"], "rate_ramp must be positive"),
    (["--flood", "0:1:0"], "rate_multiplier must be positive"),
])
def test_synth_rejects_a_rate_that_is_not_positive(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    assert cli.main(["synth", "--out", str(out), "--duration", "2", "--rate", "10"] + flags) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--flood", "20:30:10", "--spray", "4", "--victim", "10.9.9.9"], "--victim"),
    (["--attacker", "1.2.3.4"], "--attacker"),
    (["--victim", "10.9.9.9"], "--victim"),
    (["--spray", "4"], "--spray"),
])
def test_synth_rejects_attack_flags_it_would_ignore(tmp_path, capsys, flags, named):
    out = tmp_path / "t.csv"
    rc = cli.main(["synth", "--out", str(out), "--duration", "30", "--rate", "50",
                   "--seed", "1"] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and "Traceback" not in err, err
    assert not out.exists()


def test_init_writes_deterministic_state(flood_trace_file, tmp_path, capsys):
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = [str(flood_trace_file), "--set", "train.init_len=64"]
    assert cli.main(["init"] + args + ["--out", str(s1)]) == 0
    assert cli.main(["init"] + args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert "initialized botnet detector: 64 training rows" in capsys.readouterr().out
    doc = json.loads(s1.read_text())
    assert doc["mode"] == "botnet" and doc["threshold"] > 0


def test_init_fails_on_short_trace(tmp_path, capsys):
    short = tmp_path / "short.csv"
    assert cli.main(["synth", "--out", str(short), "--duration", "1", "--rate", "10"]) == 0
    rc = cli.main(["init", str(short), "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {short}: only 9 usable benign rows, "
                                       "init needs train.init_len=1000\n")


def test_replay_from_state_and_eval_assertions(flood_trace_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    log = tmp_path / "log.csv"
    assert cli.main(["init", str(flood_trace_file), "--set", "train.init_len=64",
                     "--out", str(state)]) == 0
    before = sha256(flood_trace_file)
    assert cli.main(["replay", str(flood_trace_file), "--state", str(state),
                     "--log", str(log)]) == 0
    assert sha256(flood_trace_file) == before  # inputs are never modified
    capsys.readouterr()

    # Benign-labeled packets inside the flood window carry flood-dominated
    # aggregate metrics, so only detection-side assertions are meaningful here.
    rc = cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file),
                   "--assert", "tpr>=95,accuracy>=90"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "assert tpr >= 95" in out and "-> ok" in out

    rc = cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file),
                   "--assert", "accuracy>=100.5"])
    out = capsys.readouterr().out
    assert rc == 1 and "VIOLATED" in out


def test_replay_logs_are_reproducible(flood_trace_file, tmp_path):
    l1, l2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    base = ["replay", str(flood_trace_file), "--online",
            "--set", "train.init_len=64", "--set", "train.window_len=32"]
    assert cli.main(base + ["--log", str(l1), "--save-state", str(s1)]) == 0
    assert cli.main(base + ["--log", str(l2), "--save-state", str(s2)]) == 0
    assert l1.read_bytes() == l2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_replay_alerts_stream(flood_trace_file, tmp_path):
    alerts = tmp_path / "alerts.jsonl"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--alerts", str(alerts)]) == 0
    lines = alerts.read_text().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert doc["decision_value"] > doc["threshold"]
        assert doc["mode"] == "botnet"


def test_a_report_is_strict_json_or_an_error_naming_it(flood_trace_file, tmp_path, capsys):
    # A nan read from a decision log used to reach the report as NaN, which
    # strict JSON parsers reject.
    log, nan_log, report = tmp_path / "log.csv", tmp_path / "nan.csv", tmp_path / "R.json"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    lines = log.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    nan_log.write_text("".join(lines[:5] + [",".join([fields[0], "nan"] + fields[2:])]
                               + lines[6:]))

    def strict(text):
        raise ValueError(f"{text} is not JSON")

    for path in (log, nan_log):
        capsys.readouterr()
        rc = main_closing_every_file(["eval", "--log", str(path), "--trace",
                                      str(flood_trace_file), "--report", str(report)])
        if path == log:
            assert rc == 0 and json.loads(report.read_text(), parse_constant=strict)
            report.unlink()
        else:
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                f"error: --report {report}: Out of range float values are not JSON compliant")
            assert sorted(os.listdir(tmp_path)) == ["flood.csv", "log.csv", "nan.csv"]


def test_an_output_that_cannot_be_written_is_an_error_naming_it(flood_trace_file, tmp_path,
                                                                capsys):
    # An output in a directory that does not exist, under a file, or one that is a
    # directory, is refused before any input is read: init names --out, not a trace it
    # never opens, and an output under a file names the file, which exists.
    # An output whose name leaves no room for its temporary file's suffix (which holds
    # the process id) gets as far as the write, and the error names the output instead.
    state, folder, missing = tmp_path / "s.json", tmp_path / "folder", tmp_path / "no" / "s.json"
    long = tmp_path / ("x" * 250)  # 250 bytes: room left for ".tmp", not for ".<pid>.tmp"
    init = ["init", str(flood_trace_file), "--set", "train.init_len=64", "--out"]
    assert cli.main(init + [str(state)]) == 0
    folder.mkdir()
    before = sorted(os.listdir(tmp_path))
    replay = ["replay", str(flood_trace_file), "--state", str(state)]
    no_dir = f"{missing}: directory {missing.parent} does not exist"
    under, deeper = state / "x", state / "sub" / "x"
    not_dir = f"{under}: {state} is not a directory"
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '{long}'"
    for argv, error in [(init + [str(missing)], f"--out {no_dir}"),
                        (["init", str(tmp_path / "nosuch.csv"), "--out", str(missing)],
                         f"--out {no_dir}"),
                        (["synth", "--duration", "1", "--rate", "10", "--out", str(missing)],
                         f"--out {no_dir}"),
                        (init + [str(under)], f"--out {not_dir}"),
                        (init + [str(deeper)], f"--out {deeper}: {state} is not a directory"),
                        (["synth", "--duration", "1", "--rate", "10", "--out", str(under)],
                         f"--out {not_dir}"),
                        *((replay + [flag, str(under)], f"{flag} {not_dir}")
                          for flag in ("--log", "--alerts", "--report", "--save-state")),
                        (init + [str(folder)], f"--out {folder}: is a directory"),
                        (replay + ["--report", str(folder)], f"--report {folder}: is a directory"),
                        (replay + ["--save-state", str(folder)],
                         f"--save-state {folder}: is a directory"),
                        (init + [str(long)], too_long),
                        (replay + ["--report", str(long)], too_long),
                        (replay + ["--save-state", str(long)], too_long)]:
        capsys.readouterr()
        assert main_closing_every_file(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(os.listdir(tmp_path)) == before


def test_eval_detects_misaligned_log(flood_trace_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    log = tmp_path / "log.csv"
    assert cli.main(["init", str(flood_trace_file), "--set", "train.init_len=64",
                     "--out", str(state)]) == 0
    assert cli.main(["replay", str(flood_trace_file), "--state", str(state),
                     "--log", str(log)]) == 0
    lines = log.read_text().splitlines()
    first = lines[1].split(",")
    first[0] = str(int(first[0]) + 17)
    lines[1] = ",".join(first)
    log.write_text("\n".join(lines) + "\n")
    rc = cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file)])
    assert rc == 2
    assert "misalignment" in capsys.readouterr().err


def test_eval_names_both_files_when_they_do_not_belong_together(flood_trace_file, tmp_path,
                                                               capsys):
    log, short = tmp_path / "log.csv", tmp_path / "short.csv"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    short.write_text("".join(flood_trace_file.read_text().splitlines(keepends=True)[:41]))
    n = len(log.read_text().splitlines()) - 1
    capsys.readouterr()
    assert cli.main(["eval", "--log", str(log), "--trace", str(short)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {n} decisions but only 40 trace rows ({log} against {short})\n")


@pytest.mark.parametrize("spec, message", [
    ("tpr>=abc", "bad number in assertion clause 'tpr>=abc'"),
    ("accuracy>=90, fpr<=1%", "bad number in assertion clause 'fpr<=1%'"),
    ("accuracy>=90,precision>=90", "unknown metric in assertion: 'precision'"),
    ("accuracy=90", "cannot parse assertion clause: 'accuracy=90'"),
    (" , ", "empty assertion spec"),
])
def test_eval_rejects_a_bad_assertion_before_printing_anything(flood_trace_file, tmp_path,
                                                              capsys, spec, message):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file),
                   "--assert", spec])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("column, value, message", [
    (1, "abc", "could not convert string to float: 'abc'"),
    (3, "7", "is_attack must be 0 or 1, got '7'"),
])
def test_eval_names_the_log_line_of_a_bad_value(flood_trace_file, tmp_path, capsys,
                                                column, value, message):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    lines = log.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = value
    lines[5] = ",".join(row)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file)]) == 2
    assert capsys.readouterr() == ("", f"error: {log}:6: {message}\n")


@pytest.mark.parametrize("mode", ["device", "features"])
def test_eval_rejects_a_log_of_another_mode_before_reading_the_trace(flood_trace_file, tmp_path,
                                                                    capsys, mode):
    # Only a botnet log has one row per trace packet; a device or feature log
    # is named with its mode, and the trace (here missing) is never opened.
    log = tmp_path / "log.csv"
    if mode == "device":
        args = [str(flood_trace_file), "--devices", "--set", "device.init_len=6",
                "--set", "metrics.N=5", "--set", "metrics.T_seconds=1.0"]
    else:
        data = tmp_path / "features.csv"
        write_feature_file(feature_table(np.random.default_rng(5), 3, (80, 0.5, 0.05, None)),
                           data)
        args = [str(data), "--features", "--set", "train.init_len=40"]
    assert cli.main(["replay"] + args + ["--log", str(log)]) == 0
    assert {line.rsplit(",", 1)[1] for line in log.read_text().splitlines()[1:]} == {mode}
    capsys.readouterr()
    rc = cli.main(["eval", "--log", str(log), "--trace", str(tmp_path / "missing.csv")])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {log}: a {mode} decision log, "
                                       f"expected a botnet log\n")


def test_eval_names_the_line_where_a_log_changes_mode(flood_trace_file, tmp_path, capsys):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    lines = log.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",device"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file)]) == 2
    assert capsys.readouterr() == ("", f"error: {log}:6: mode 'device' in a botnet log\n")


def test_the_io_section_is_unknown(flood_trace_file, tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^unknown config section\(s\): io$"):
        config_from_dict({"io": {"decision_log": "log.csv"}})
    assert "io" not in Config().to_dict()
    alerts = tmp_path / "alerts.jsonl"
    rc = cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                   "--set", f"io.alerts={alerts}"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown config section(s): io\n"
    assert not alerts.exists()


def test_replay_usage_errors(flood_trace_file, tmp_path, capsys):
    rc = cli.main(["replay", str(flood_trace_file), "--devices", "--features"])
    assert rc == 2
    rc = cli.main(["replay", str(flood_trace_file), "--set", "train.bogus=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2
    # A device bank cannot be loaded, saved or frozen.
    for flags in (["--state", "s.json"], ["--save-state", str(tmp_path / "out.json")],
                  ["--frozen"]):
        log = tmp_path / "never.csv"
        assert cli.main(["replay", str(flood_trace_file), "--devices", "--log", str(log)]
                        + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --devices does not take {flags[0]}")
        assert not log.exists() and not (tmp_path / "out.json").exists()


def parsed(parse, argv):
    """The exit code, stdout and stderr of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        parse(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


# The full parser's errors without a command: they name ``command`` and list all five.
COMMANDS = "'init', 'replay', 'eval', 'synth', 'bench'"
COMMAND_ERRORS = {
    (): "the following arguments are required: command",
    ("nosuch",): f"argument command: invalid choice: 'nosuch' (choose from {COMMANDS})",
    ("ini",): f"argument command: invalid choice: 'ini' (choose from {COMMANDS})",
}


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["ini"],
    *([command, "-h"] for command in ("init", "replay", "eval", "synth", "bench")),
    ["init", "t.csv"], ["eval", "--log", "L.csv"], ["init", "t.csv", "--out", "s.json", "x"],
    ["bench", "--seed", "q"], ["synth", "--duration", "x"],
    ["replay", "t", "--online", "--frozen"], ["init", "--", "x"],
])
def test_main_parses_as_the_parser_of_every_command(monkeypatch, argv):
    # main builds only argv[0]'s subparser; every help, usage and error output must be
    # the full parser's, byte for byte.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = parsed(cli.main, argv)
    assert (code, out, err) == parsed(cli.build_parser().parse_args, argv)
    if tuple(argv) in COMMAND_ERRORS:
        assert err.endswith(f"\naadetect: error: {COMMAND_ERRORS[tuple(argv)]}\n")


def test_the_module_run_as_a_script_parses_its_own_arguments(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    done = subprocess.run([sys.executable, "-m", "aadetect.cli", "init", "-h"],
                          capture_output=True, text=True, timeout=60, env=python_env())
    assert (done.returncode, done.stdout, done.stderr) == parsed(
        cli.build_parser().parse_args, ["init", "-h"])


@pytest.mark.parametrize("override", ["threshold.value=NaN", "train.window_seconds=NaN"])
def test_non_finite_config_value_exits_2(flood_trace_file, tmp_path, capsys, override):
    # Before the check, a NaN fixed threshold judged nothing an attack and a
    # NaN time window never closed, so its pending rows grew with the input.
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--log", str(log),
                   "--set", "threshold.mode=fixed", "--set", "threshold.value=0.5",
                   "--set", "train.window_len=null", "--set", override])
    assert rc == 2
    key = override.split("=")[0]
    assert capsys.readouterr().err == f"error: {key} must be finite, got nan\n"
    assert not log.exists()


NUMERIC_KEYS = ["metrics.N", "metrics.T_seconds", "train.noise_sigma", "train.ridge_lambda",
                "train.window_len", "train.window_seconds", "train.seed", "train.init_len",
                "train.init_seconds", "threshold.value", "device.alpha",
                "device.level_threshold", "device.hysteresis_k", "device.ttl_seconds",
                "device.init_len", "device.window_seconds", "device.threshold_scale"]


def test_numeric_keys_are_every_number_in_the_config():
    numbers = {f"{section}.{key}" for section, body in Config().to_dict().items()
               for key, value in body.items()
               if isinstance(value, (int, float)) and not isinstance(value, bool)}
    assert numbers <= set(NUMERIC_KEYS)
    assert set(NUMERIC_KEYS) - numbers == {"train.window_seconds", "train.init_seconds",
                                           "threshold.value"}  # None by default


@pytest.mark.parametrize("override", [f"{key}=abc" for key in NUMERIC_KEYS]
                         + ["threshold.value=nan", "metrics.N=2.5", "train.init_len=true"])
def test_a_wrong_type_in_a_numeric_key_exits_2(flood_trace_file, tmp_path, capsys, override):
    # Each value's type is checked before any rule compares it; "nan" in
    # lowercase is not JSON, so --set reads it as a string.
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--log", str(log),
                   "--set", "threshold.mode=fixed", "--set", "threshold.value=0.5",
                   "--set", override])
    assert rc == 2
    key, value = override.split("=")
    try:
        value = json.loads(value)  # as --set reads it
    except json.JSONDecodeError:
        pass
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(key)} must be (a number|an integer)( or null)?, "
                        rf"got {re.escape(repr(value))}\n", err), err
    assert not log.exists()


def test_device_retraining_has_no_count_window(flood_trace_file, tmp_path, capsys):
    # Device retraining is paced by stream time only: device.window_len is
    # an unknown key, in a config file and on the command line alike.
    with pytest.raises(ValueError, match="unknown key.*'device': window_len"):
        config_from_dict({"device": {"window_len": 5}})
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--devices", "--log", str(log),
                   "--set", "device.window_len=5"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown key(s) in section 'device': window_len\n"
    assert not log.exists()


@pytest.mark.parametrize("override, message", [
    ("metrics.gamma=[1,2.5]", "metrics.gamma must sum to 1, got 3.5"),
    ("metrics.T_seconds=1e-7", "metrics.T_seconds must round to at least 1 microsecond, "
                               "got 1e-07"),
    ("metrics.gamma=[0.5,0.5]", "metrics.gamma has 2 weights, a botnet detector needs 3"),
    ("train.seed=-1", "train.seed must be >= 0, got -1"),
])
def test_a_value_that_breaks_its_rule_exits_2_naming_the_key(flood_trace_file, tmp_path,
                                                             capsys, override, message):
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--log", str(log),
                   "--set", override])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not log.exists()


def test_a_negative_init_seconds_is_rejected_and_0_is_the_4_row_minimum(flood_trace_file,
                                                                         tmp_path, capsys):
    state = tmp_path / "s.json"
    assert cli.main(["init", str(flood_trace_file), "--out", str(state),
                     "--set", "train.init_seconds=-5"]) == 2
    assert capsys.readouterr().err == "error: train.init_seconds must be >= 0, got -5\n"
    assert not state.exists()
    assert cli.main(["init", str(flood_trace_file), "--out", str(state),
                     "--set", "train.init_seconds=0"]) == 0
    assert capsys.readouterr().out.startswith("initialized botnet detector: 4 training rows")


def test_init_checks_the_config_before_reading_the_input(tmp_path, capsys):
    rc = cli.main(["init", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "s.json"),
                   "--set", "train.seed=-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: train.seed must be >= 0, got -1\n"


def _drop_last(rows):
    return rows[:-1]


@pytest.mark.parametrize("mutate", [
    lambda doc: dict(doc, threshold=None),
    lambda doc: dict(doc, stats=5),
    lambda doc: [1, 2],
    lambda doc: dict(doc, readout=_drop_last(doc["readout"])),
    lambda doc: dict(doc, stats=dict(doc["stats"], G=_drop_last(doc["stats"]["G"]))),
    lambda doc: dict(doc, stats=dict(doc["stats"], C=[row[:-1] for row in doc["stats"]["C"]])),
    lambda doc: dict(doc, stats=dict(doc["stats"], n=-1)),
    lambda doc: dict(doc, scaling_factors={"kind": "max", "scale": [1.0, 2.0]}),
    # A state holds everything save_state writes.
    lambda doc: {k: v for k, v in doc.items() if k != "stats"},
    lambda doc: {k: v for k, v in doc.items() if k != "gamma"},
    lambda doc: {k: v for k, v in doc.items() if k != "metrics"},
    lambda doc: dict(doc, train={"noise_sigma": doc["train"]["noise_sigma"]}),
], ids=["threshold-null", "stats-5", "top-level-list", "readout-rows", "stats-G", "stats-C",
        "stats-n", "scale-length", "no-stats", "no-gamma", "no-metrics",
        "no-ridge-lambda"])
def test_a_malformed_state_file_exits_2_naming_it_before_any_log(flood_trace_file, tmp_path,
                                                                 capsys, mutate):
    state = tmp_path / "state.json"
    assert cli.main(["init", str(flood_trace_file), "--out", str(state),
                     "--set", "train.init_len=100"]) == 0
    bad = tmp_path / "bad-state.json"
    bad.write_text(json.dumps(mutate(json.loads(state.read_text()))))
    capsys.readouterr()
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(bad), "--online",
                   "--log", str(log)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {bad}") and "Traceback" not in err, err
    assert not log.exists()


@pytest.mark.parametrize("flag", ["--state", "--config"])
def test_json_nested_past_the_recursion_limit_exits_2_naming_the_file(flood_trace_file, tmp_path,
                                                                      capsys, flag):
    # json raises RecursionError, which is no ValueError: it escaped as a traceback.
    deep, log = tmp_path / "deep.json", tmp_path / "never.csv"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["replay", str(flood_trace_file), flag, str(deep), "--log", str(log)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(deep) in err and err.count("\n") == 1, err
    assert not log.exists()


def _first_readout_entry(doc, text):
    return dict(doc, readout=[[text, *doc["readout"][0][1:]], *doc["readout"][1:]])


@pytest.mark.parametrize("kind, mutate, reason", [
    ("packets", lambda doc: dict(doc, gamma=[math.nan] * 3), "non-finite number NaN"),
    ("packets", lambda doc: _first_readout_entry(doc, "1e999"), "non-finite number 1e999"),
    ("packets", lambda doc: dict(doc, threshold=math.inf), "non-finite number Infinity"),
    ("packets", lambda doc: dict(doc, scaling_factors={"kind": "max", "scale": [0.0] * 3}),
     "max scale factors must be positive"),
    ("packets", lambda doc: dict(doc, gamma=[0.5, 0.5, 0.5]), "metrics.gamma must sum to 1"),
    ("packets", lambda doc: dict(doc, gamma=[1.5, -0.25, -0.25]),
     "metrics.gamma must hold positive weights"),
    ("features", lambda doc: dict(doc, scaling_factors=dict(
        doc["scaling_factors"], hi=[lo - 1.0 for lo in doc["scaling_factors"]["lo"]])),
     "min-max hi is below lo"),
    # A range past the largest float used to load, warn on every row and scale column 1 to 0.
    ("features", lambda doc: dict(doc, scaling_factors=dict(
        doc["scaling_factors"], lo=[-1e308, *doc["scaling_factors"]["lo"][1:]],
        hi=[1e308, *doc["scaling_factors"]["hi"][1:]])),
     "feature column 1 spans -1e+308 to 1e+308, a range min-max scaling cannot hold\n"),
    # The stored window and noise are checked as a config's are, by the Detector.
    ("packets", lambda doc: dict(doc, metrics=dict(doc["metrics"], N=1)),
     "metrics.N must be >= 2, got 1\n"),
    ("packets", lambda doc: dict(doc, metrics=dict(doc["metrics"], T_seconds=0)),
     "metrics.T_seconds must round to at least 1 microsecond, got 0\n"),
    ("features", lambda doc: dict(doc, train=dict(doc["train"], noise_sigma=-1)),
     "train.noise_sigma must be >= 0, got -1\n"),
    ("packets", lambda doc: dict(doc, train=dict(doc["train"], ridge_lambda=0)),
     "train.ridge_lambda must be positive, got 0\n"),
    ("packets", lambda doc: dict(doc, metrics=dict(doc["metrics"], N=3.0)),
     "metrics.N must be an integer, got 3.0\n"),
], ids=["gamma-nan", "readout-1e999", "threshold-inf", "scale-zero", "gamma-sum",
        "gamma-negative", "minmax-hi-below-lo", "minmax-range-overflows", "N-1", "T-0",
        "noise-negative", "ridge-0", "N-float"])
def test_a_state_that_save_state_cannot_write_exits_2_naming_it_before_any_log(
        flood_trace_file, tmp_path, capsys, kind, mutate, reason):
    # Such a state used to load: a NaN gamma judged nothing an attack, an
    # infinite readout entry everything, and a zero scale only warned.
    state, bad, log = tmp_path / "state.json", tmp_path / "bad.json", tmp_path / "never.csv"
    if kind == "features":
        data = tmp_path / "features.csv"
        write_feature_file(feature_table(np.random.default_rng(7), 3, (40, 0.5, 0.05, None)),
                           data)
        flags = ["--features"]
    else:
        data, flags = flood_trace_file, ["--set", "train.init_len=100"]
    assert cli.main(["init", str(data), "--out", str(state)] + flags) == 0
    text = json.dumps(mutate(json.loads(state.read_text())))
    bad.write_text(text.replace('"1e999"', "1e999"))
    capsys.readouterr()
    rc = cli.main(["replay", str(data), "--state", str(bad), "--log", str(log)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {bad}: ") and reason in err, err
    assert not log.exists()


@pytest.mark.parametrize("mutate, reason", [
    (lambda doc: _first_readout_entry(doc, "inf"), "readout must be a number, got 'inf'"),
    (lambda doc: dict(doc, stats=dict(doc["stats"], n=5.7)), "n must be an integer, got 5.7"),
    (lambda doc: dict(doc, threshold=True), "threshold must be a number, got True"),
    (lambda doc: dict(doc, metrics=dict(doc["metrics"], N="10")), "N must be a number, got '10'"),
    (lambda doc: dict(doc, train=dict(doc["train"], noise_sigma=None)),
     "noise_sigma must be a number, got None"),
    (lambda doc: dict(doc, scaling_factors=dict(doc["scaling_factors"], scale=["1", 1.0, 1.0])),
     "scale must be a number, got '1'"),
    (lambda doc: dict(doc, stats=dict(doc["stats"], G=[[None] * 3] * 3)),
     "G must be a number, got None"),
    (lambda doc: dict(doc, M=3.0), "M must be an integer, got 3.0"),
    (lambda doc: dict(doc, seed=False), "seed must be an integer, got False"),
    (lambda doc: dict(doc, version="2"), "version must be an integer, got '2'"),
    (lambda doc: dict(doc, metrics=[1.0]), "metrics must be an object"),
    (lambda doc: dict(doc, train=0.5), "train must be an object"),
    (lambda doc: dict(doc, stats=[[1.0]]), "stats must be an object"),
    (lambda doc: dict(doc, scaling_factors=None), "scaling_factors must be an object"),
], ids=["readout-str", "stats-n-float", "threshold-bool", "N-str", "noise-null", "scale-str",
        "stats-G-null", "M-float", "seed-bool", "version-str", "metrics-list", "train-number",
        "stats-list", "scaling-null"])
def test_a_state_value_of_a_json_type_save_state_never_writes_exits_2_naming_it(
        flood_trace_file, tmp_path, capsys, mutate, reason):
    # No parse hook sees a wrong JSON type, and np.asarray, float() and int()
    # convert it: "inf" in the readout would judge every packet an attack, and
    # a stats.n of 5.7 would be saved back as 5.
    state, bad, log = tmp_path / "state.json", tmp_path / "bad.json", tmp_path / "never.csv"
    assert cli.main(["init", str(flood_trace_file), "--out", str(state),
                     "--set", "train.init_len=100"]) == 0
    bad.write_text(json.dumps(mutate(json.loads(state.read_text()))))
    capsys.readouterr()
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(bad), "--log", str(log),
                   "--save-state", str(tmp_path / "saved.json")])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: state file {bad}: {reason}\n")
    assert not log.exists() and not (tmp_path / "saved.json").exists()


def minmax_scaler(doc):
    """``doc`` with a min-max scaler of its width in place of its max scaler."""
    m = doc["M"]
    return dict(doc, scaling_factors={"kind": "minmax", "lo": [0.0] * m, "hi": [1.0] * m})


@pytest.mark.parametrize("mutate, reason", [
    (lambda doc: dict(doc, treshold=5.0), "unknown key 'treshold'"),
    (lambda doc: {"a_first": 1.0, **doc, "z_last": "x"}, "unknown key 'a_first'"),
    (lambda doc: dict(doc, stats=dict(doc["stats"], N=3)), "unknown key 'N' in stats"),
    (lambda doc: dict(doc, scaling_factors=dict(doc["scaling_factors"], lo=[0.0] * 3)),
     "unknown key 'lo' in scaling_factors"),
    (lambda doc: dict(minmax_scaler(doc), scaling_factors=dict(
        minmax_scaler(doc)["scaling_factors"], scale=[1.0] * 3)),
     "unknown key 'scale' in scaling_factors"),
    # The seed is the state's own key, not one of train's.
    (lambda doc: dict(doc, train=dict(doc["train"], seed=0)), "unknown key 'seed' in train"),
    (lambda doc: dict(doc, metrics=dict(doc["metrics"], gamma=doc["gamma"])),
     "unknown key 'gamma' in metrics"),
    # A state holds no network: (M, seed) determines it.
    (lambda doc: dict(doc, L=3), "unknown key 'L'"),
    (lambda doc: dict(doc, act={"r": 1.0, "c": 1.0}), "unknown key 'act'"),
    (lambda doc: dict(doc, hidden_weights=[w.tolist() for w in AadrnnModel.initial(
        doc["M"], doc["seed"]).hidden_weights]), "unknown key 'hidden_weights'"),
], ids=["top-level", "first-in-file", "stats", "max-scaler", "minmax-scaler", "train-seed",
        "metrics-gamma", "network-L", "network-act", "network-hidden-weights"])
def test_a_state_key_save_state_never_writes_exits_2_naming_it(flood_trace_file, tmp_path,
                                                               capsys, mutate, reason):
    # A misspelt key next to the one it stands for used to load, and
    # ``replay --online --save-state`` then dropped it without a word.
    state, bad, log = tmp_path / "state.json", tmp_path / "bad.json", tmp_path / "never.csv"
    assert cli.main(["init", str(flood_trace_file), "--out", str(state),
                     "--set", "train.init_len=100"]) == 0
    doc = json.loads(state.read_text())
    (tmp_path / "minmax.json").write_text(json.dumps(minmax_scaler(doc)))
    assert load_state(tmp_path / "minmax.json").dim == 3  # the min-max keys load
    bad.write_text(json.dumps(mutate(doc)))
    before = bad.read_bytes()
    capsys.readouterr()
    for flags in (["--frozen"], ["--online", "--save-state", str(bad)]):
        rc = cli.main(["replay", str(flood_trace_file), "--state", str(bad), "--log", str(log)]
                      + flags)
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: state file {bad}: {reason}\n")
        assert not log.exists() and bad.read_bytes() == before


@pytest.mark.parametrize("flags", [["--state", "s.json"], [], ["--devices"]],
                         ids=["state", "cold-start", "devices"])
def test_a_header_only_trace_exits_2_before_any_output(flood_trace_file, tmp_path, capsys,
                                                         monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["init", str(flood_trace_file), "--out", "s.json",
                     "--set", "train.init_len=100"]) == 0
    Path("empty.csv").write_text(flood_trace_file.read_text().splitlines()[0] + "\n")
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    rc = main_closing_every_file(["replay", "empty.csv", "--log", "L.csv", "--alerts", "A.jsonl",
                                  "--report", "R.json", "--plots", "P"] + flags
                                 + (["--save-state", "S.json"] if "--devices" not in flags
                                    else []))
    assert rc == 2
    # The error names the file: it used to read "error: no packets to replay".
    assert capsys.readouterr() == ("", "error: empty.csv: no packets to replay\n")
    assert sorted(os.listdir(tmp_path)) == before  # no log, alerts, report, plots or state


def test_a_feature_training_file_of_three_benign_rows_exits_2_naming_it(tmp_path, capsys,
                                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_feature_file(feature_table(np.random.default_rng(3), 2, (3, 0.5, 0.1, None),
                                     (2, 3.0, 0.1, "flood")), Path("three.csv"))
    assert cli.main(["init", "three.csv", "--features", "--out", "s.json"]) == 2
    # It used to name no file.
    assert capsys.readouterr() == ("", "error: three.csv: feature training file has only 3 "
                                       "benign rows, need >= 4\n")
    assert sorted(os.listdir(tmp_path)) == ["three.csv"]


@pytest.mark.parametrize("mode, metrics", [("botnet", 3), ("device", 6)])
def test_a_state_whose_mode_does_not_fit_its_model_exits_2_before_any_log(
        flood_trace_file, tmp_path, capsys, mode, metrics):
    rng = np.random.default_rng(53)
    data = tmp_path / "features.csv"
    write_feature_file(feature_table(rng, 4, (40, 0.5, 0.05, None)), data)
    state = tmp_path / "fstate.json"
    assert cli.main(["init", str(data), "--features", "--out", str(state)]) == 0
    bad = tmp_path / "relabelled.json"
    bad.write_text(json.dumps(dict(json.loads(state.read_text()), mode=mode)))
    capsys.readouterr()
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(bad), "--log", str(log)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: state file {bad}: a {mode} detector takes "
                                       f"{metrics} metrics, not 4\n")
    assert not log.exists()


def test_a_state_of_another_kind_exits_2_naming_it_before_any_log(flood_trace_file, tmp_path,
                                                                  capsys):
    data, state = tmp_path / "features.csv", tmp_path / "fstate.json"
    write_feature_file(feature_table(np.random.default_rng(5), 3, (40, 0.5, 0.05, None)), data)
    assert cli.main(["init", str(data), "--features", "--out", str(state)]) == 0
    capsys.readouterr()
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(state), "--log", str(log)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: state file {state} holds a features detector, "
                                       "expected botnet\n")
    assert not log.exists()


def main_closing_every_file(argv):
    """``cli.main(argv)``, failing if the run leaves a file unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = cli.main(argv)
        gc.collect()
    unclosed = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not unclosed, unclosed
    return rc


def test_a_state_of_another_feature_width_exits_2_naming_both_files_before_any_log(
        tmp_path, capsys):
    rng = np.random.default_rng(61)
    wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
    write_feature_file(feature_table(rng, 20, (40, 0.5, 0.05, None)), wide)
    write_feature_file(feature_table(rng, 4, (40, 0.5, 0.05, None)), narrow)
    state = tmp_path / "st.json"
    assert cli.main(["init", str(wide), "--features", "--out", str(state)]) == 0
    capsys.readouterr()
    log = tmp_path / "never.csv"
    rc = main_closing_every_file(["replay", str(narrow), "--features", "--state", str(state),
                                  "--log", str(log)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: state file {state} holds a 20-feature "
                                       f"detector, but feature file {narrow} has 4 features\n")
    assert not log.exists()


def test_an_alerts_path_that_cannot_be_opened_exits_2_leaving_no_log(flood_trace_file,
                                                                      tmp_path, capsys):
    log = tmp_path / "never.csv"
    alerts = tmp_path / "no-such-dir" / "a.jsonl"
    rc = main_closing_every_file(["replay", str(flood_trace_file), "--log", str(log),
                                  "--alerts", str(alerts)])
    assert rc == 2
    assert str(alerts) in capsys.readouterr().err
    assert not log.exists() and not alerts.exists()
    bad_log = tmp_path / "no-such-dir" / "d.csv"
    rc = main_closing_every_file(["replay", str(flood_trace_file), "--log", str(bad_log),
                                  "--alerts", str(tmp_path / "a.jsonl")])
    assert rc == 2 and str(bad_log) in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--report", "R.json", "--save-state", "missing/s.json"], "--save-state missing/s.json"),
    (["--report", "missing/R.json"], "--report missing/R.json"),
    (["--report", "missing/R.json", "--devices"], "--report missing/R.json"),
    (["--plots", "flood.csv"], "--plots flood.csv: not a directory"),
    (["--plots", "flood.csv/sub"], "--plots flood.csv/sub: not a directory"),
    (["--alerts", "A.jsonl", "--log", "nodir/L.csv"],
     "--log nodir/L.csv: directory nodir does not exist"),
    (["--alerts", "nodir/A.jsonl"], "--alerts nodir/A.jsonl: directory nodir does not exist"),
])
def test_an_output_written_after_the_replay_is_checked_before_it(flood_trace_file, tmp_path,
                                                                  capsys, monkeypatch, flags,
                                                                  named):
    monkeypatch.chdir(tmp_path)
    rc = main_closing_every_file(["replay", str(flood_trace_file), "--log", "L.csv"] + flags)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}")
    assert sorted(os.listdir(tmp_path)) == ["flood.csv"]  # no log, alerts, report or state


@pytest.mark.parametrize("argv, error", [
    (["replay", "flood.csv", "--log", "flood.csv"], "--log and TRACE are the same file: flood.csv"),
    (["replay", "flood.csv", "--state", "s.json", "--log", "./s.json"],
     "--log and --state are the same file: ./s.json"),
    (["replay", "flood.csv", "--log", "X", "--report", "X"],
     "--report and --log are the same file: X"),
    (["replay", "flood.csv", "--log", "X", "--alerts", "X"],
     "--alerts and --log are the same file: X"),
    (["init", "flood.csv", "--out", "flood.csv"], "--out and TRACE are the same file: flood.csv"),
    (["eval", "--log", "L.csv", "--trace", "flood.csv", "--report", "L.csv"],
     "--report and --log are the same file: L.csv"),
    (["replay", "flood.csv", "--state", "s.json", "--log", "P/decision_series.csv",
      "--plots", "P"], "--plots and --log are the same file: P/decision_series.csv"),
    (["replay", "P/decision_series.csv", "--state", "s.json", "--plots", "P"],
     "--plots and TRACE are the same file: P/decision_series.csv"),
    (["eval", "--log", "P/decision_series.csv", "--trace", "flood.csv", "--plots", "P"],
     "--plots and --log are the same file: P/decision_series.csv"),
    (["replay", "flood.csv", "--state", "s.json", "--save-state", "N", "--plots", "N"],
     "--plots and --save-state are the same file: N"),
    (["replay", "flood.csv", "--log", "N", "--plots", "N/sub"],
     "--plots and --log are the same file: N"),
], ids=["log-over-trace", "log-over-state", "log-and-report", "log-and-alerts", "out-over-trace",
        "report-over-log", "plots-over-log", "plots-over-trace", "eval-plots-over-log",
        "plots-dir-over-state", "plots-dir-over-log"])
def test_an_output_that_is_an_input_or_another_output_exits_2_before_any_write(
        flood_trace_file, tmp_path, capsys, monkeypatch, argv, error):
    # Each of these used to exit 0, overwriting its input or mixing two outputs in one
    # file, or to write an output and then fail on a directory of that name; --plots P
    # stands for the directories it makes and the files it writes in P.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["init", "flood.csv", "--out", "s.json", "--set", "train.init_len=100"]) == 0
    assert cli.main(["replay", "flood.csv", "--state", "s.json", "--log", "L.csv"]) == 0
    (tmp_path / "P").mkdir()
    (tmp_path / "P" / "decision_series.csv").write_bytes(flood_trace_file.read_bytes())

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    capsys.readouterr()
    assert main_closing_every_file(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert files() == before
    # A resume in place is the one output that may name an input, and a device replay's
    # --plots writes only infection_levels.csv.
    assert cli.main(["replay", "flood.csv", "--state", "s.json", "--online",
                     "--save-state", "./s.json"]) == 0
    assert cli.main(["replay", "flood.csv", "--devices", "--log", "P/decision_series.csv",
                     "--plots", "P"]) == 0
    assert sorted(os.listdir("P")) == ["decision_series.csv", "infection_levels.csv"]


@pytest.mark.parametrize("flags, named", [
    (["--report", "missing/R.json"], "--report missing/R.json"),
    (["--plots", "flood.csv"], "--plots flood.csv: not a directory"),
    (["--plots", "flood.csv/sub"], "--plots flood.csv/sub: not a directory"),
])
def test_eval_checks_its_outputs_before_reading_the_log(flood_trace_file, tmp_path, capsys,
                                                        monkeypatch, flags, named):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["replay", str(flood_trace_file), "--log", "L.csv"]) == 0
    capsys.readouterr()
    rc = main_closing_every_file(["eval", "--log", "L.csv", "--trace", "flood.csv"] + flags)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}")
    assert sorted(os.listdir(tmp_path)) == ["L.csv", "flood.csv"]
    rc = cli.main(["eval", "--log", "never.csv", "--trace", "flood.csv"] + flags)
    assert rc == 2 and capsys.readouterr().err.startswith(f"error: {named}")  # not the log


def test_plots_in_a_dangling_link_exits_2_before_any_output(flood_trace_file, tmp_path, capsys,
                                                            monkeypatch):
    # A dangling link does not exist to os.path.exists, so the check used to look past it
    # to ".", and the replay wrote its whole log before making the directory failed.
    monkeypatch.chdir(tmp_path)
    os.symlink("nowhere", "P")
    rc = main_closing_every_file(["replay", "flood.csv", "--log", "L.csv", "--plots", "P"])
    assert rc == 2 and capsys.readouterr() == ("", "error: --plots P: not a directory\n")
    assert sorted(os.listdir(tmp_path)) == ["P", "flood.csv"]


def test_the_decision_log_is_flushed_every_1024_rows(tmp_path):
    path = tmp_path / "log.csv"
    decision = Decision(at_us=7, value=0.5, threshold=1.0, is_attack=False)
    with cli._DecisionLogWriter(str(path), "botnet") as log:
        for _ in range(1024):
            log.write(decision)
        assert path.read_text().count("\n") == 1025  # the header and every row
        log.write(decision)
        assert path.read_text().count("\n") == 1025  # not flushed per row
    assert path.read_text().count("\n") == 1026  # closing flushes the rest


def test_a_replay_that_fails_part_way_keeps_every_row_judged_before(flood_trace_file,
                                                                   tmp_path, monkeypatch):
    full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    argv = ["replay", str(flood_trace_file), "--set", "train.init_len=64"]
    assert cli.main(argv + ["--log", str(full)]) == 0
    rows = full.read_text().splitlines(keepends=True)
    assert len(rows) > 1501
    whole_replay = cli.replay

    def replay_lost_after_1500(engine, items):
        for i, pair in enumerate(whole_replay(engine, items)):
            if i == 1500:
                raise OSError("input device lost")
            yield pair

    monkeypatch.setattr(cli, "replay", replay_lost_after_1500)
    assert main_closing_every_file(argv + ["--log", str(cut)]) == 2
    assert cut.read_text() == "".join(rows[:1501])  # the header and 1500 judged rows


def test_a_failed_readout_solve_exits_2_and_keeps_every_row_judged_before(tmp_path, capsys):
    # Feature values near the float limit are judged benign under a huge fixed
    # threshold, so the fourth of them completes a window whose readout solve
    # overflows. The log of the failed run is that of the same replay stopped
    # just before that row, plus the row itself: it was judged before its
    # refit raised.
    rng = np.random.default_rng(67)
    table = FeatureTable(np.vstack([rng.random((60, 2)), np.full((10, 2), 1.5e308)]),
                         [False] * 70)
    full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    write_feature_file(table, full)
    write_feature_file(FeatureTable(table.features[:63], table.label[:63]), cut)
    flags = ["--features", "--online", "--set", "train.init_len=40", "--set",
             "train.window_len=4", "--set", "threshold.mode=fixed",
             "--set", "threshold.value=1.7e308"]
    assert cli.main(["replay", str(cut), "--log", str(tmp_path / "cut.log")] + flags) == 0
    capsys.readouterr()
    rc = main_closing_every_file(["replay", str(full), "--log", str(tmp_path / "full.log")]
                                 + flags)
    assert rc == 2
    assert capsys.readouterr().err == "error: readout solve produced non-finite values\n"
    logged = (tmp_path / "full.log").read_text()
    assert logged.startswith((tmp_path / "cut.log").read_text())
    assert logged.count("\n") == 1 + 24
    assert logged.splitlines()[-1].startswith("63,") and logged.endswith(",0,features\n")


@pytest.mark.parametrize("kind", ["packets", "features"])
def test_the_report_decision_series_is_the_decision_log(tmp_path, kind):
    if kind == "features":
        rng = np.random.default_rng(59)
        rows = feature_table(rng, 4, (60, 0.5, 0.05, None), (6, 3.0, 0.1, "shift"))
        data = tmp_path / "features.csv"
        write_feature_file(rows, data)
        args = [str(data), "--features", "--online", "--set", "train.init_len=40",
                "--set", "train.window_len=8"]
    else:
        data = tmp_path / "trace.csv"
        assert cli.main(["synth", "--out", str(data), "--duration", "20", "--rate", "30",
                         "--seed", "3", "--flood", "15:20:10"]) == 0
        args = [str(data), "--set", "train.init_len=100", "--set", "train.window_len=50",
                "--set", "metrics.T_seconds=1.0"]
    log, report, plots = tmp_path / "log.csv", tmp_path / "report.json", tmp_path / "plots"
    assert cli.main(["replay"] + args + ["--log", str(log), "--report", str(report),
                                         "--plots", str(plots)]) == 0
    logged = log.read_text().splitlines()[1:]
    expected = [row.split(",")[:3] for row in logged]
    assert len(expected) > 20 and len({thr for _, _, thr in expected}) > 1
    series = json.loads(report.read_text())["decision_series"]
    assert [[str(ts), repr(v), repr(thr)] for ts, v, thr in series] == expected
    csv_rows = (plots / "decision_series.csv").read_text().splitlines()
    assert csv_rows[0] == "timestamp_us,decision_value,threshold"
    assert [row.split(",") for row in csv_rows[1:]] == expected


def test_short_init_names_the_window_key_in_force(tmp_path, capsys):
    benign = tmp_path / "benign.csv"
    assert cli.main(["synth", "--out", str(benign), "--duration", "5", "--rate", "50",
                     "--seed", "1"]) == 0
    assert "wrote 254 packets (0 attack)" in capsys.readouterr().out
    state = tmp_path / "s.json"
    rc = cli.main(["init", str(benign), "--out", str(state),
                   "--set", "train.init_seconds=100", "--set", "train.init_len=50"])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {benign}: only 254 usable benign rows, "
                                       "init needs train.init_seconds=100\n")
    rc = cli.main(["init", str(benign), "--out", str(state), "--set", "train.init_len=300"])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {benign}: only 254 usable benign rows, "
                                       "init needs train.init_len=300\n")
    assert not state.exists()


def packet_trace_lines(tmp_path, kind):
    """The lines of a 60 s, 50 pps trace of ``kind``: "benign"; "flood", with
    attack packets from 2 s to 4 s; or "quoted", the benign one with quoted
    timestamps in rows 40 and 1025 (the first row of the second block),
    which csv reads as the plain ones."""
    flood = AttackSegment(2.0, 4.0, 10.0, ("10.0.0.9",), ("10.0.0.1",))
    attacks = (flood,) if kind == "flood" else ()
    path = tmp_path / "made.csv"
    save_trace(synth_trace(TraceSpec(60.0, 50.0, attacks=attacks), seed=3), path)
    lines = path.read_text().splitlines(keepends=True)
    if kind == "quoted":
        for row in (40, 1025):
            ts, rest = lines[row].split(",", 1)
            lines[row] = f'"{ts}",{rest}'
    return lines


@pytest.mark.parametrize("window", ["train.init_len=64", "train.init_len=1024",
                                    "train.init_len=1025", "train.init_seconds=25"])
@pytest.mark.parametrize("kind", ["benign", "flood", "quoted"])
def test_packet_init_equals_stepping_the_loaded_trace(tmp_path, kind, window):
    path = tmp_path / "trace.csv"
    path.write_text("".join(packet_trace_lines(tmp_path, kind)))
    state, expected = tmp_path / "state.json", tmp_path / "stepped.json"
    assert main_closing_every_file(["init", str(path), "--out", str(state),
                                    "--set", window]) == 0
    stepped_packet_init(path, [window], expected)
    assert state.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("init_len, row", [(64, 2000), (1024, 1025), (1025, 2049)])
def test_packet_init_reads_no_further_than_the_block_its_window_ends_in(tmp_path, capsys,
                                                                         init_len, row):
    # Rows are read in blocks of 1024; the window's last packet is row
    # init_len, so a bad row past that row's block is never read.
    lines = packet_trace_lines(tmp_path, "benign")
    window = f"train.init_len={init_len}"
    head, expected = tmp_path / "head.csv", tmp_path / "expected.json"
    head.write_text("".join(lines[:init_len + 1]))
    assert cli.main(["init", str(head), "--out", str(expected), "--set", window]) == 0
    lines[row] = "x,a,b,1,0,\n"
    path, state = tmp_path / "trace.csv", tmp_path / "state.json"
    path.write_text("".join(lines))
    assert main_closing_every_file(["init", str(path), "--out", str(state),
                                    "--set", window]) == 0
    assert state.read_bytes() == expected.read_bytes()
    capsys.readouterr()
    assert cli.main(["replay", str(path), "--set", window]) == 2  # replay reads every row
    assert capsys.readouterr().err.startswith(f"error: {path}:{row + 1}: bad integer field")
    for bad in (init_len // 2, init_len, 1024 * ((init_len - 1) // 1024 + 1)):
        lines = packet_trace_lines(tmp_path, "benign")
        lines[bad] = "x,a,b,1,0,\n"
        path.write_text("".join(lines))  # a bad row in the window, or in its last block
        assert main_closing_every_file(["init", str(path), "--out", str(state),
                                        "--set", window]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{bad + 1}: bad integer field")


def test_a_packet_init_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile imports numpy.ma on first use under numpy 2; every init
    # would pay for it in its whisker threshold.
    trace, state = tmp_path / "t.csv", tmp_path / "s.json"
    save_trace(synth_trace(TraceSpec(5.0, 50.0), seed=1), trace)
    argv = ["init", str(trace), "--out", str(state), "--set", "train.init_len=64"]
    code = ("import sys, aadetect.cli; imported = 'numpy.ma' in sys.modules; "
            f"rc = aadetect.cli.main({argv!r}); print(imported, rc, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(aadetect.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "False 0 False"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # The set-up time of a replay without init is import time, and numpy.random
    # takes about 14 ms to import: training imports it on first use.
    code = "import sys, aadetect.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    env = dict(os.environ, PYTHONPATH=str(Path(aadetect.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_init_and_replay_leave_numpy_random_unloaded(tmp_path):
    # Training draws its noise from a counter hash and its hidden weights from
    # the package's own PCG64, so no init or replay path imports numpy.random.
    rng = np.random.default_rng(89)
    assert cli.main(["synth", "--out", str(tmp_path / "trace.csv"), "--duration", "30",
                     "--rate", "30", "--seed", "5", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3",
                     "--flood", "25:30:20", "--attacker", "10.0.0.3"]) == 0
    write_feature_file(feature_table(rng, 20, (600, 0.5, 0.05, None)), tmp_path / "train.csv")
    packet = ["--set", "train.init_len=300", "--set", "train.window_len=100"]
    runs = [["init", "trace.csv", "--out", "packet.json"] + packet,
            ["init", "train.csv", "--features", "--out", "features.json"],
            ["replay", "trace.csv", "--state", "packet.json", "--online", "--log", "p.log",
             "--save-state", "after.json"] + packet,
            ["replay", "trace.csv", "--devices", "--log", "d.log", "--set", "device.init_len=6",
             "--set", "metrics.N=5", "--set", "metrics.T_seconds=1.0",
             "--set", "device.window_seconds=2.0"]]
    code = ("import sys, aadetect.cli\n"
            f"for argv in {runs!r}:\n"
            "    rc = aadetect.cli.main(argv)\n"
            "    print('run', argv[0], rc, [m for m in sys.modules if m.startswith('numpy.random')])")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=python_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert [line for line in out.stdout.splitlines() if line.startswith("run ")] \
        == ["run init 0 []", "run init 0 []", "run replay 0 []", "run replay 0 []"]


def test_a_replay_decides_by_the_states_settings_and_a_version_3_state_by_the_config(
        tmp_path, capsys):
    # A state holds the metric window, the training noise and the seed its network was
    # drawn from, so a replay that leaves out init's --set decides, refits, reports (the
    # report's config too) and saves as one that repeats it. A version-3 state holds only
    # the seed: the replay's config gives the rest, and --save-state writes it as version 4.
    trace, state, old = tmp_path / "trace.csv", tmp_path / "v4.json", tmp_path / "v3.json"
    assert cli.main(["synth", "--out", str(trace), "--duration", "30", "--rate", "50",
                     "--seed", "4", "--flood", "20:22:20"]) == 0
    held = ["--set", "metrics.N=30", "--set", "train.seed=5", "--set", "train.noise_sigma=0.5"]
    window = ["--set", "train.window_len=200"]
    assert cli.main(["init", str(trace), "--out", str(state), "--set", "train.init_len=300"]
                    + held + window) == 0
    doc = json.loads(state.read_text())
    assert (doc["version"], doc["seed"], doc["metrics"], doc["train"]) == (
        4, 5, {"N": 30, "T_seconds": 10.0}, {"noise_sigma": 0.5, "ridge_lambda": 1e-4})
    old.write_text(json.dumps(legacy_state(doc), sort_keys=True, indent=1) + "\n")
    outputs = {}
    for name, path, config in (("held", state, held + window), ("bare", state, window),
                               ("v3", old, held + window)):
        for flags in (["--frozen"], ["--online", "--save-state", "saved.json"]):
            run = tmp_path / f"{name}{flags[0]}"
            run.mkdir()
            capsys.readouterr()
            outs = ["--log", run / "log.csv", "--alerts", run / "alerts",
                    "--report", run / "report.json"]
            assert cli.main([str(arg) for arg in ["replay", trace, "--state", path, *outs,
                             *config, *(run / f if f.endswith(".json") else f
                                        for f in flags)]]) == 0
            out = capsys.readouterr().out.replace(str(run), "RUN")
            outputs[name, flags[0]] = out, {f.name: f.read_bytes() for f in run.iterdir()}
    for flags in ("--frozen", "--online"):
        assert outputs["bare", flags] == outputs["held", flags] == outputs["v3", flags]
    report = json.loads(outputs["bare", "--frozen"][1]["report.json"])["config"]
    assert (report["metrics"]["N"], report["train"]["seed"], report["train"]["noise_sigma"],
            report["metrics"]["gamma"]) == (30, 5, 0.5, None)
    saved = json.loads((tmp_path / "v3--online" / "saved.json").read_text())
    assert {k: v for k, v in saved.items() if k not in ("readout", "stats", "threshold")} == {
        k: v for k, v in doc.items() if k not in ("readout", "stats", "threshold")}
    assert saved["stats"]["n"] > doc["stats"]["n"]  # the online replay refitted


@pytest.fixture
def held_state(flood_trace_file, tmp_path):
    """A packet state whose window, noise and seed are not the defaults."""
    state = tmp_path / "held.json"
    assert cli.main(["init", str(flood_trace_file), "--out", str(state), "--set",
                     "train.init_len=100", "--set", "metrics.N=30", "--set", "train.seed=5",
                     "--set", "train.noise_sigma=0.5"]) == 0
    return state


@pytest.mark.parametrize("flags, key, held, given", [
    (["--set", "metrics.N=20"], "metrics.N", "30", "20"),
    (["--set", "metrics.T_seconds=5"], "metrics.T_seconds", "10.0", "5"),
    (["--set", "train.seed=0", "--set", "train.seed=6"], "train.seed", "5", "6"),
    (["--set", "train.noise_sigma=0.2"], "train.noise_sigma", "0.5", "0.2"),
    (["--set", "train.ridge_lambda=0.01"], "train.ridge_lambda", "0.0001", "0.01"),
    (["--set", "metrics.gamma=[0.2,0.3,0.5]"], "metrics.gamma",
     "[0.3333333333333333, 0.3333333333333333, 0.3333333333333333]", "[0.2, 0.3, 0.5]"),
    (["--config", "config.json"], "metrics.N", "30", "20"),
], ids=["N", "T_seconds", "seed", "noise_sigma", "ridge_lambda", "gamma", "config-file"])
def test_a_config_value_that_disagrees_with_the_state_exits_2_naming_both_before_any_log(
        flood_trace_file, tmp_path, capsys, held_state, flags, key, held, given):
    # Each used to exit 0, deciding or refitting by the replay's value, not init's.
    (tmp_path / "config.json").write_text('{"metrics": {"N": 20}}')
    log = tmp_path / "never.csv"
    capsys.readouterr()
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(held_state), "--online",
                   "--log", str(log)] + [str(tmp_path / f) if f.endswith(".json") else f
                                         for f in flags])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: state file {held_state}: {key} is {held} in "
                                       f"the state, {given} in the config\n")
    assert not log.exists()


@pytest.mark.parametrize("version", [1, 2])
def test_a_version_1_or_2_state_exits_2_naming_it_and_its_version(flood_trace_file, tmp_path,
                                                                  capsys, held_state, version):
    # Both held the network too; they used to load, and version 1 replayed frozen only.
    doc = legacy_state(json.loads(held_state.read_text()))
    weights = AadrnnModel.initial(doc["M"], doc["seed"]).hidden_weights
    old, log = tmp_path / "old.json", tmp_path / "never.csv"
    old.write_text(json.dumps(dict(doc, version=version, L=3, act={"r": 1.0, "c": 1.0},
                                   hidden_weights=[w.tolist() for w in weights])))
    capsys.readouterr()
    rc = cli.main(["replay", str(flood_trace_file), "--state", str(old), "--log", str(log)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: state file {old}: version {version} not "
                                       "supported (only 3 to 4 load)\n")
    assert not log.exists()


def test_a_failed_device_refit_exits_2_and_logs_every_decision_judged(tmp_path, monkeypatch,
                                                                        capsys):
    # A device's first window refit raises; the log must hold every decision
    # judged up to and including the row whose acceptance started that refit,
    # and each must be the decision the run that does not fail makes.
    trace = tmp_path / "trace.csv"
    assert cli.main(["synth", "--out", str(trace), "--duration", "20", "--rate", "30",
                     "--seed", "3", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3"]) == 0
    flags = ["--devices", "--set", "device.init_len=6", "--set", "metrics.N=5",
             "--set", "metrics.T_seconds=1.0", "--set", "device.window_seconds=2.0"]
    assert cli.main(["replay", str(trace), "--log", str(tmp_path / "full.log")] + flags) == 0
    capsys.readouterr()
    judged = []
    weighted_gap = detector_module._weighted_gap

    def counting_gap(x, x_hat, gamma):
        judged.extend([None] * (np.ndim(x) == 1))  # one call per judged row
        return weighted_gap(x, x_hat, gamma)

    def failing_refit(*args, **kwargs):
        raise TrainingError("injected refit failure")

    monkeypatch.setattr(detector_module, "_weighted_gap", counting_gap)
    monkeypatch.setattr(detector_module, "update_incremental", failing_refit)
    rc = main_closing_every_file(["replay", str(trace), "--log", str(tmp_path / "cut.log")]
                                 + flags)
    assert rc == 2
    assert capsys.readouterr().err == "error: injected refit failure\n"
    logged = (tmp_path / "cut.log").read_text().splitlines(keepends=True)
    full = (tmp_path / "full.log").read_text().splitlines(keepends=True)
    assert 1 < len(logged) == 1 + len(judged) < len(full)
    assert logged == full[:len(logged)]


def python_env(**set_vars):
    """The environment for a fresh interpreter that imports this aadetect,
    with ``OPENBLAS_NUM_THREADS`` set only as given."""
    env = dict(os.environ, PYTHONPATH=str(Path(aadetect.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(set_vars)
    return env


@pytest.mark.parametrize("set_threads", [None, "2"])
def test_aadetect_loads_numpy_with_one_openblas_thread_unless_the_caller_sets_it(set_threads):
    # Test modules load numpy before aadetect, so only a fresh interpreter shows it.
    if set_threads and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no second thread on one core")
    code = ("import os, sys, aadetect, numpy as np; np.ones((256, 64)) @ np.ones((64, 64)); "
            "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)")
    env = python_env() if set_threads is None else python_env(OPENBLAS_NUM_THREADS=set_threads)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    variable, tasks = out.stdout.split()
    assert variable == str(set_threads)  # unset again, or the caller's value kept
    if sys.platform != "linux":
        pytest.skip("/proc/self/task counts threads on Linux only")
    assert tasks == (set_threads or "1")


def test_every_output_is_the_same_under_one_and_two_openblas_threads(tmp_path):
    # OpenBLAS splits a product over output blocks, never over its inner sum,
    # so the thread count must not move a bit of any state, log, alert or report.
    rng = np.random.default_rng(83)
    assert cli.main(["synth", "--out", str(tmp_path / "trace.csv"), "--duration", "40",
                     "--rate", "30", "--seed", "5", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3",
                     "--flood", "30:40:20", "--attacker", "10.0.0.3"]) == 0
    write_feature_file(feature_table(rng, 20, (3000, 0.5, 0.05, None)),
                       tmp_path / "train.csv")  # an init forward big enough to thread
    write_feature_file(feature_table(rng, 20, (200, 0.5, 0.05, None), (20, 3.0, 0.1, "shift")),
                       tmp_path / "test.csv")
    packet = ["--set", "train.init_len=300", "--set", "train.window_len=100"]
    devices = ["--set", "device.init_len=6", "--set", "metrics.N=5",
               "--set", "metrics.T_seconds=1.0"]
    runs = [["init", "trace.csv", "--out", "packet.json"] + packet,
            ["replay", "trace.csv", "--state", "packet.json", "--online", "--log", "packet.log",
             "--alerts", "packet.jsonl", "--report", "packet.report.json",
             "--save-state", "packet.after.json"] + packet,
            ["init", "train.csv", "--features", "--out", "features.json"],
            ["replay", "test.csv", "--features", "--state", "features.json", "--frozen",
             "--log", "features.log", "--alerts", "features.jsonl",
             "--report", "features.report.json"],
            ["replay", "trace.csv", "--devices", "--log", "devices.log",
             "--alerts", "devices.jsonl", "--report", "devices.report.json"] + devices]
    code = f"import aadetect.cli\nfor argv in {runs!r}:\n    assert aadetect.cli.main(argv) == 0"
    outputs = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        for name in ("trace.csv", "train.csv", "test.csv"):
            (work / name).write_bytes((tmp_path / name).read_bytes())
        out = subprocess.run([sys.executable, "-c", code], cwd=work, capture_output=True,
                             env=python_env(OPENBLAS_NUM_THREADS=threads), check=True,
                             timeout=120)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        outputs[threads]["stdout"] = out.stdout
    assert len(outputs["1"]) == 3 + 12 + 1
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("mode", ["packets", "features", "devices"])
def test_alerts_are_the_attack_rows_of_the_decision_log(tmp_path, mode):
    if mode == "features":
        rng = np.random.default_rng(47)
        rows = feature_table(rng, 4, (60, 0.5, 0.05, None), (6, 3.0, 0.1, "shift"),
                             (40, 0.5, 0.05, None))
        data = tmp_path / "features.csv"
        write_feature_file(rows, data)
        args = [str(data), "--features", "--set", "train.init_len=40"]
    else:
        data = tmp_path / "trace.csv"
        assert cli.main(["synth", "--out", str(data), "--duration", "20", "--rate", "30",
                         "--seed", "3", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3",
                         "--flood", "12:20:20", "--attacker", "10.0.0.3"]) == 0
        args = [str(data), "--set", "train.init_len=64"]
        if mode == "devices":
            args += ["--devices", "--set", "device.init_len=6", "--set", "metrics.N=5",
                     "--set", "metrics.T_seconds=1.0"]
    log, alerts = tmp_path / "log.csv", tmp_path / "alerts.jsonl"
    assert cli.main(["replay"] + args + ["--log", str(log), "--alerts", str(alerts)]) == 0
    flagged = [d for d in read_decision_log(log) if d.is_attack]
    docs = [json.loads(line) for line in alerts.read_text().splitlines()]
    assert flagged and len(docs) == len(flagged)
    run_mode = {"packets": "botnet", "features": "features", "devices": "device"}[mode]
    assert {line.rsplit(",", 1)[1] for line in log.read_text().splitlines()[1:]} == {run_mode}
    for doc, d in zip(docs, flagged):
        assert (doc["timestamp_us"], doc["decision_value"], doc["threshold"], doc["mode"]) == \
            (d.at_us, d.value, d.threshold, run_mode)
        assert ("addr" in doc) == (mode == "devices")


def test_replay_devices_writes_report(tmp_path, capsys):
    trace = tmp_path / "dev.csv"
    assert cli.main(["synth", "--out", str(trace), "--duration", "20", "--rate", "30",
                     "--seed", "3", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3"]) == 0
    report = tmp_path / "report.json"
    rc = cli.main(["replay", str(trace), "--devices",
                   "--set", "device.init_len=6", "--set", "metrics.N=5",
                   "--set", "metrics.T_seconds=1.0", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["devices"] == 3
    assert doc["summary"]["packets"] == len(load_trace(trace))
    assert "config" in doc
    assert "devices" in capsys.readouterr().out


def test_feature_mode_init_and_replay(tmp_path, capsys):
    rng = np.random.default_rng(29)
    rows = feature_table(rng, 4, (80, 0.5, 0.05, None), (20, 4.0, 0.1, "shift"))
    data = tmp_path / "features.csv"
    write_feature_file(rows, data)

    state = tmp_path / "fstate.json"
    assert cli.main(["init", str(data), "--features", "--out", str(state)]) == 0
    assert "initialized features detector: 80 training rows" in capsys.readouterr().out

    report = tmp_path / "freport.json"
    rc = cli.main(["replay", str(data), "--features", "--state", str(state),
                   "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    counts = doc["counts"]
    assert counts["tp"] == 20 and counts["fn"] == 0  # far-out anomalies all caught
    assert counts["tp"] + counts["fn"] + counts["tn"] + counts["fp"] == 100
    assert doc["per_attack_type"] == {"shift": 100.0}
    out = capsys.readouterr().out
    assert "per-attack-type accuracy" in out


def test_feature_init_fits_every_benign_row_whatever_train_init_len(tmp_path, capsys):
    rng = np.random.default_rng(41)
    rows = feature_table(rng, 4, (20, 0.5, 0.05, None), (3, 4.0, 0.1, "shift"),
                         (10, 0.5, 0.05, None))
    data = tmp_path / "features.csv"
    write_feature_file(rows, data)
    states = []
    for init_len in (None, 4, 29, 31, 100000):
        state = tmp_path / f"state-{init_len}.json"
        set_args = [] if init_len is None else ["--set", f"train.init_len={init_len}"]
        assert cli.main(["init", str(data), "--features", "--out", str(state)] + set_args) == 0
        assert "30 training rows" in capsys.readouterr().out
        assert json.loads(state.read_text())["stats"]["n"] == 30
        states.append(state.read_bytes())
    assert all(s == states[0] for s in states)


@pytest.mark.parametrize("init_seconds", [None, "0", "2e-05", "7.9e-05", "0.001"])
def test_feature_init_equals_stepping_the_rows(tmp_path, capsys, init_seconds):
    rng = np.random.default_rng(37)
    rows = feature_table(rng, 5, (50, 0.5, 0.05, None), (5, 4.0, 0.1, "shift"),
                         (30, 0.5, 0.05, None))
    data = tmp_path / "features.csv"
    write_feature_file(rows, data)
    overrides = [] if init_seconds is None else [f"train.init_seconds={init_seconds}"]
    state, expected = tmp_path / "bulk.json", tmp_path / "stepped.json"
    set_args = [a for o in overrides for a in ("--set", o)]
    rc = cli.main(["init", str(data), "--features", "--out", str(state)] + set_args)
    if init_seconds == "0.001":  # 1000 row ticks: the window never closes on 80 rows
        assert rc == 2 and capsys.readouterr().err == (
            f"error: {data}: only 80 usable benign rows, "
            "init needs train.init_seconds=0.001\n")
        assert not state.exists()
        with pytest.raises(LifecycleError):
            stepped_feature_init(data, overrides, expected)
        return
    assert rc == 0
    stepped_feature_init(data, overrides, expected)
    assert state.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("online", [False, True])
@pytest.mark.parametrize("override", ["train.init_len=40", "train.init_seconds=0",
                                      "train.init_seconds=2e-05",
                                      "train.init_seconds=7.9e-05"])
def test_cold_start_feature_replay_equals_stepping_every_row(tmp_path, override, online):
    rng = np.random.default_rng(43)
    rows = feature_table(rng, 4, (60, 0.5, 0.05, None), (6, 3.0, 0.1, "shift"),
                         (40, 0.5, 0.05, None))
    data = tmp_path / "features.csv"
    write_feature_file(rows, data)
    overrides = [override, "train.window_len=8"]
    log, state = tmp_path / "replay.csv", tmp_path / "replay.json"
    args = ["replay", str(data), "--features", "--log", str(log),
            "--save-state", str(state)] + ["--online"] * online
    assert cli.main(args + [a for o in overrides for a in ("--set", o)]) == 0

    det = Detector(4, apply_overrides(Config(), overrides), mode=Mode.FEATURES, online=online)
    decisions = [d for _, d in stepped(det, load_feature_dataset(data))]
    cli.write_decision_log(decisions, "features", tmp_path / "stepped.csv")
    save_state(det, tmp_path / "stepped.json")
    assert log.read_bytes() == (tmp_path / "stepped.csv").read_bytes()
    assert state.read_bytes() == (tmp_path / "stepped.json").read_bytes()


def test_feature_init_rejects_a_non_finite_row(tmp_path, capsys):
    rng = np.random.default_rng(41)
    lines = ["f1,f2,f3,label,attack_type"]
    lines += [",".join(repr(float(v)) for v in rng.uniform(0, 1, size=3)) + ",0,"
              for _ in range(20)]
    lines[7] = "0.5,inf,0.5,0,"
    data = tmp_path / "features.csv"
    data.write_text("\n".join(lines) + "\n")
    assert cli.main(["init", str(data), "--features", "--out", str(tmp_path / "s.json")]) == 2
    assert f"{data}:8: non-finite feature value" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_finite_feature_values_that_overflow_scaling_exit_2_naming_them(tmp_path, capsys,
                                                                         monkeypatch):
    # Both used to print numpy's overflow warnings, then an error naming neither file
    # nor column ("non-finite training row") or row ("non-finite model input"); under
    # -W error they ended in a traceback.
    monkeypatch.chdir(tmp_path)
    table = feature_table(np.random.default_rng(43), 2, (50, 0.5, 0.05, None))
    wide = table.features.copy()
    wide[3, 0], wide[7, 0] = 1e308, -1e308
    write_feature_file(FeatureTable(wide, table.label), "wide.csv")
    assert cli.main(["init", "wide.csv", "--features", "--out", "s.json"]) == 2
    assert capsys.readouterr() == ("", "error: wide.csv: feature column 1 spans -1e+308 to "
                                       "1e+308, a range min-max scaling cannot hold\n")
    write_feature_file(table, "train.csv")
    assert cli.main(["init", "train.csv", "--features", "--out", "s.json"]) == 0
    far = table.features.copy()
    far[9, 1] = -1.7e308  # the fitted range of column 2 is below 1, so this overflows
    write_feature_file(FeatureTable(far, table.label), "far.csv")
    capsys.readouterr()
    for flag in ("--frozen", "--online"):
        assert cli.main(["replay", "far.csv", "--features", "--state", "s.json", flag,
                         "--log", "L.csv"]) == 2
        assert capsys.readouterr() == ("", "error: far.csv: feature row 10 overflows the "
                                           "fitted scaling\n")
        assert [d.at_us for d in read_decision_log("L.csv")] == list(range(9))


def test_eval_rejects_an_unlabeled_trace(flood_trace_file, tmp_path, capsys):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--set", "train.init_len=64",
                     "--log", str(log)]) == 0
    lines = flood_trace_file.read_text().splitlines()
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("\n".join([lines[0]] + [",".join(line.split(",")[:4]) + ",,"
                                                  for line in lines[1:]]) + "\n")
    capsys.readouterr()
    rc = cli.main(["eval", "--log", str(log), "--trace", str(unlabeled)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: rows without ground-truth labels" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--report", "--plots"])
@pytest.mark.parametrize("kind", ["packets", "features"])
def test_a_report_on_an_input_not_fully_labeled_exits_2_before_any_output(tmp_path, capsys,
                                                                          monkeypatch, kind,
                                                                          flag):
    # One unlabeled row is enough; the refusal used to come after the whole log was written.
    monkeypatch.chdir(tmp_path)
    if kind == "packets":
        trace = synth_trace(TraceSpec(duration_s=4.0, rate_pps=50.0), seed=5)
        trace.label = trace.label[:-1] + (None,)
        save_trace(trace, "input.csv")
        flags = ["--set", "train.init_len=64"]
    else:
        table = feature_table(np.random.default_rng(5), 3, (100, 0.5, 0.1, None))
        table.label = table.label[:-1] + (None,)
        write_feature_file(table, "input.csv")
        flags = ["--features", "--set", "train.init_len=40"]
    replay = ["replay", "input.csv", "--log", "L.csv", "--alerts", "A.jsonl"] + flags
    assert main_closing_every_file(replay + [flag, "out"]) == 2
    assert capsys.readouterr() == ("", f"error: input.csv: unlabeled rows, and {flag} needs "
                                       "a fully labeled input\n")
    assert sorted(os.listdir(tmp_path)) == ["input.csv"]
    assert cli.main(replay) == 0  # without a report the replay runs, unscored
    assert "(trace unlabeled; no scoring)" in capsys.readouterr().out
    if kind == "packets":  # a device bank's report needs no labels
        assert cli.main(["replay", "input.csv", "--devices", "--report", "R.json"] + flags) == 0
        assert json.loads(Path("R.json").read_text())["summary"]["packets"] == len(trace)


def test_replay_of_a_feature_file_without_rows(tmp_path, capsys):
    data = tmp_path / "features.csv"
    data.write_text("f1,f2,label,attack_type\n")
    assert cli.main(["replay", str(data), "--features"]) == 2
    assert capsys.readouterr().err == f"error: {data}: no feature rows to replay\n"


def test_feature_replay_ending_in_init_leaves_a_header_only_log(tmp_path, capsys):
    rng = np.random.default_rng(53)
    data, log = tmp_path / "features.csv", tmp_path / "log.csv"
    write_feature_file(FeatureTable(rng.uniform(0, 1, size=(20, 3)), [False] * 20), data)
    assert cli.main(["replay", str(data), "--features", "--log", str(log),
                     "--set", "train.init_len=30"]) == 2
    assert capsys.readouterr().err == (f"error: {data}: ended before init completed; "
                                       "no decisions were made\n")
    assert log.read_text() == "timestamp_us,decision_value,threshold,is_attack,mode\n"


def test_replay_whose_init_closes_on_the_last_row_exits_0_and_saves(flood_trace_file, tmp_path,
                                                                    capsys):
    head = tmp_path / "t30.csv"
    head.write_text("".join(flood_trace_file.read_text().splitlines(keepends=True)[:31]))
    log, saved, fitted = tmp_path / "x.csv", tmp_path / "s30.json", tmp_path / "init.json"
    capsys.readouterr()
    assert cli.main(["replay", str(head), "--set", "train.init_len=30", "--log", str(log),
                     "--save-state", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("0 decisions")
    assert log.read_text() == "timestamp_us,decision_value,threshold,is_attack,mode\n"
    assert cli.main(["init", str(head), "--set", "train.init_len=30", "--out", str(fitted)]) == 0
    assert saved.read_bytes() == fitted.read_bytes()  # the window init fits, saved as it fits it
    assert cli.main(["replay", str(head), "--set", "train.init_len=31"]) == 2
    assert capsys.readouterr().err == (f"error: {head}: ended before init completed; "
                                       "no decisions were made\n")
    # Every row is labeled, so a --report passes the check before the log is opened;
    # with no decisions there is nothing to report, which is known only after the replay.
    log.unlink()
    report = tmp_path / "r.json"
    assert cli.main(["replay", str(head), "--set", "train.init_len=30", "--log", str(log),
                     "--report", str(report)]) == 2
    assert capsys.readouterr() == ("0 decisions (init ended on the last row; no scoring)\n",
                                   "error: --report needs decisions on a fully labeled input\n")
    assert log.read_text() == "timestamp_us,decision_value,threshold,is_attack,mode\n"
    assert not report.exists()


def test_alerts_into_a_pipe_closed_after_one_line_exit_141(flood_trace_file):
    # Thousands of alerts, far more than the pipe holds: the replay is still writing
    # when the reader goes, and it ends with the shell's status for SIGPIPE.
    proc = subprocess.Popen([sys.executable, "-m", "aadetect.cli", "replay",
                             str(flood_trace_file), "--set", "train.init_len=64", "--alerts", "-"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
    try:
        assert json.loads(proc.stdout.readline())["mode"] == "botnet"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_replay_without_enough_packets(tmp_path, capsys):
    short = tmp_path / "short.csv"
    assert cli.main(["synth", "--out", str(short), "--duration", "1", "--rate", "20"]) == 0
    rc = cli.main(["replay", str(short)])
    assert rc == 2
    assert "no decisions" in capsys.readouterr().err


def test_bench_command_smoke(capsys):
    # Exercised fully by the acceptance tests; here: flag parsing + line format.
    rc = cli.main(["bench", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out
    assert all(line.startswith(("PASS", "FAIL")) or "checks passed" in line
               for line in out.splitlines() if line.strip())


def test_readme_api_matches_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imported = set()
    for names in re.findall(r"from aadetect import (\([^)]*\)|[\w, ]+)", readme):
        imported.update(re.findall(r"\w+", names))
    assert imported and all(hasattr(aadetect, name) for name in imported), imported
    code = "\n".join(re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S))
    exported = {name for name, value in vars(aadetect).items()
                if not name.startswith("_") and not isinstance(value, type(aadetect))}
    unmentioned = {name for name in exported if not re.search(rf"\b{name}\b", code)}
    assert not unmentioned, f"exported but not in the README: {sorted(unmentioned)}"
