"""Configuration loading/validation/overrides and end-to-end CLI flows run
in-process through ``cli.main``."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aadetect
from aadetect import cli
from aadetect.config import (Config, apply_overrides, config_from_dict,
                             load_config)
from aadetect.detector import Decision, Detector, LifecycleError, Mode, Phase, save_state
from aadetect.evaluation import read_decision_log
from aadetect.traffic import (AttackSegment, FeatureTable, TraceSpec, load_feature_dataset,
                              load_trace, save_feature_dataset, save_trace, synth_trace)


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
    assert cfg.device.window_seconds == 30.0 and cfg.device.window_len is None


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
    assert "benign packets" in capsys.readouterr().err


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
    base = ["replay", str(flood_trace_file), "--cold-start", "--online",
            "--set", "train.init_len=64", "--set", "train.window_len=32"]
    assert cli.main(base + ["--log", str(l1), "--save-state", str(s1)]) == 0
    assert cli.main(base + ["--log", str(l2), "--save-state", str(s2)]) == 0
    assert l1.read_bytes() == l2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_replay_alerts_stream(flood_trace_file, tmp_path):
    alerts = tmp_path / "alerts.jsonl"
    assert cli.main(["replay", str(flood_trace_file), "--cold-start",
                     "--set", "train.init_len=64", "--alerts", str(alerts)]) == 0
    lines = alerts.read_text().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert doc["decision_value"] > doc["threshold"]
        assert doc["mode"] == "botnet"


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


@pytest.mark.parametrize("spec", ["tpr>=abc", "accuracy>=90, fpr<=1%"])
def test_eval_rejects_a_bad_assertion_before_printing_anything(flood_trace_file, tmp_path,
                                                              capsys, spec):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--cold-start",
                     "--set", "train.init_len=64", "--log", str(log)]) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file),
                   "--assert", spec])
    bad = spec.split(",")[-1].strip()
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: bad number in assertion clause {bad!r}\n")


@pytest.mark.parametrize("column, value, message", [
    (1, "abc", "could not convert string to float: 'abc'"),
    (3, "7", "is_attack must be 0 or 1, got '7'"),
])
def test_eval_names_the_log_line_of_a_bad_value(flood_trace_file, tmp_path, capsys,
                                                column, value, message):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--cold-start",
                     "--set", "train.init_len=64", "--log", str(log)]) == 0
    lines = log.read_text().splitlines()
    row = lines[5].split(",")
    row[column] = value
    lines[5] = ",".join(row)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--log", str(log), "--trace", str(flood_trace_file)]) == 2
    assert capsys.readouterr() == ("", f"error: {log}:6: {message}\n")


def test_the_io_section_is_unknown(flood_trace_file, tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^unknown config section\(s\): io$"):
        config_from_dict({"io": {"decision_log": "log.csv"}})
    assert "io" not in Config().to_dict()
    alerts = tmp_path / "alerts.jsonl"
    rc = cli.main(["replay", str(flood_trace_file), "--cold-start",
                   "--set", "train.init_len=64", "--set", f"io.alerts={alerts}"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown config section(s): io\n"
    assert not alerts.exists()


def test_replay_usage_errors(flood_trace_file, tmp_path, capsys):
    rc = cli.main(["replay", str(flood_trace_file), "--devices", "--features"])
    assert rc == 2
    rc = cli.main(["replay", str(flood_trace_file), "--state", "s.json", "--cold-start"])
    assert rc == 2
    rc = cli.main(["replay", str(flood_trace_file), "--cold-start",
                   "--set", "train.bogus=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    # A device bank cannot be loaded, saved or frozen.
    for flags in (["--state", "s.json"], ["--save-state", str(tmp_path / "out.json")],
                  ["--frozen"]):
        log = tmp_path / "never.csv"
        assert cli.main(["replay", str(flood_trace_file), "--devices", "--log", str(log)]
                        + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --devices does not take {flags[0]}")
        assert not log.exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("override", ["threshold.value=NaN", "train.window_seconds=NaN"])
def test_non_finite_config_value_exits_2(flood_trace_file, tmp_path, capsys, override):
    # Before the check, a NaN fixed threshold judged nothing an attack and a
    # NaN time window never closed, so its pending rows grew with the input.
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--cold-start", "--log", str(log),
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
                "device.init_len", "device.window_len", "device.window_seconds",
                "device.threshold_scale"]


def test_numeric_keys_are_every_number_in_the_config():
    numbers = {f"{section}.{key}" for section, body in Config().to_dict().items()
               for key, value in body.items()
               if isinstance(value, (int, float)) and not isinstance(value, bool)}
    assert numbers <= set(NUMERIC_KEYS)
    assert set(NUMERIC_KEYS) - numbers == {"train.window_seconds", "train.init_seconds",
                                           "threshold.value", "device.window_len"}  # None by default


@pytest.mark.parametrize("override", [f"{key}=abc" for key in NUMERIC_KEYS]
                         + ["threshold.value=nan", "metrics.N=2.5", "train.init_len=true"])
def test_a_wrong_type_in_a_numeric_key_exits_2(flood_trace_file, tmp_path, capsys, override):
    # Each value's type is checked before any rule compares it; "nan" in
    # lowercase is not JSON, so --set reads it as a string.
    log = tmp_path / "never.csv"
    rc = cli.main(["replay", str(flood_trace_file), "--cold-start", "--log", str(log),
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
    rc = cli.main(["replay", str(flood_trace_file), "--cold-start", "--log", str(log),
                   "--set", override])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not log.exists()


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
    lambda doc: dict(doc, hidden_weights=None),
    lambda doc: dict(doc, act=None),
    lambda doc: [1, 2],
    lambda doc: dict(doc, readout=_drop_last(doc["readout"])),
    lambda doc: dict(doc, hidden_weights=[_drop_last(doc["hidden_weights"][0])]
                     + doc["hidden_weights"][1:]),
    lambda doc: dict(doc, hidden_weights=[[row[:-1] for row in doc["hidden_weights"][0]]]
                     + doc["hidden_weights"][1:]),
    lambda doc: dict(doc, stats=dict(doc["stats"], G=_drop_last(doc["stats"]["G"]))),
    lambda doc: dict(doc, stats=dict(doc["stats"], C=[row[:-1] for row in doc["stats"]["C"]])),
    lambda doc: dict(doc, stats=dict(doc["stats"], n=-1)),
    lambda doc: dict(doc, scaling_factors={"kind": "max", "scale": [1.0, 2.0]}),
    # Only the stock network loads, and a state holds everything save_state writes.
    lambda doc: dict(doc, L=2),
    lambda doc: dict(doc, act=dict(doc["act"], r=2.0)),
    lambda doc: dict(doc, hidden_weights=doc["hidden_weights"][:1]
                     + [[row + [0.0] for row in doc["hidden_weights"][1]]]
                     + doc["hidden_weights"][2:]),
    lambda doc: {k: v for k, v in doc.items() if k != "stats"},
    lambda doc: {k: v for k, v in doc.items() if k != "gamma"},
], ids=["threshold-null", "stats-5", "hidden-null", "act-null", "top-level-list",
        "readout-rows", "hidden-rows", "hidden-columns", "stats-G", "stats-C", "stats-n",
        "scale-length", "L-2", "act-r-2", "hidden-M-by-M+1", "no-stats", "no-gamma"])
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


@pytest.mark.parametrize("flags", [["--state", "s.json"], ["--cold-start"], ["--devices"]],
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
    assert capsys.readouterr() == ("", "error: no packets to replay\n")
    assert sorted(os.listdir(tmp_path)) == before  # no log, alerts, report, plots or state


@pytest.mark.parametrize("mode, metrics", [("botnet", 3), ("device", 6)])
def test_a_state_whose_mode_does_not_fit_its_model_exits_2_before_any_log(
        flood_trace_file, tmp_path, capsys, mode, metrics):
    rng = np.random.default_rng(53)
    data = tmp_path / "features.csv"
    save_feature_dataset(feature_table(rng, 4, (40, 0.5, 0.05, None)), data)
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
    save_feature_dataset(feature_table(rng, 20, (40, 0.5, 0.05, None)), wide)
    save_feature_dataset(feature_table(rng, 4, (40, 0.5, 0.05, None)), narrow)
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
])
def test_an_output_written_after_the_replay_is_checked_before_it(flood_trace_file, tmp_path,
                                                                  capsys, monkeypatch, flags,
                                                                  named):
    monkeypatch.chdir(tmp_path)
    rc = main_closing_every_file(["replay", str(flood_trace_file), "--log", "L.csv"] + flags)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}")
    assert sorted(os.listdir(tmp_path)) == ["flood.csv"]  # no log, report or state


@pytest.mark.parametrize("flags, named", [
    (["--report", "missing/R.json"], "--report missing/R.json"),
    (["--plots", "flood.csv"], "--plots flood.csv: not a directory"),
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


@pytest.mark.parametrize("kind", ["packets", "features"])
def test_the_report_decision_series_is_the_decision_log(tmp_path, kind):
    if kind == "features":
        rng = np.random.default_rng(59)
        rows = feature_table(rng, 4, (60, 0.5, 0.05, None), (6, 3.0, 0.1, "shift"))
        data = tmp_path / "features.csv"
        save_feature_dataset(rows, data)
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
    assert capsys.readouterr().err == ("error: trace has only 254 usable benign packets, "
                                       "init needs train.init_seconds=100\n")
    rc = cli.main(["init", str(benign), "--out", str(state), "--set", "train.init_len=300"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: trace has only 254 usable benign packets, "
                                       "init needs train.init_len=300\n")
    assert not state.exists()


def stepped_packet_init(path, overrides, out):
    """Packet ``init`` as it was: the whole trace loaded, then each non-attack
    packet stepped until init ends."""
    trace = load_trace(path)
    det = Detector(3, apply_overrides(Config(), overrides), mode=Mode.BOTNET, online=False)
    for pkt, label in zip(trace, trace.label):
        if label is not True:
            det.step(pkt)
            if det.phase != Phase.INIT:
                break
    save_state(det, out)


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


@pytest.mark.parametrize("mode", ["packets", "features", "devices"])
def test_alerts_are_the_attack_rows_of_the_decision_log(tmp_path, mode):
    if mode == "features":
        rng = np.random.default_rng(47)
        rows = feature_table(rng, 4, (60, 0.5, 0.05, None), (6, 3.0, 0.1, "shift"),
                             (40, 0.5, 0.05, None))
        data = tmp_path / "features.csv"
        save_feature_dataset(rows, data)
        args = [str(data), "--features", "--cold-start", "--set", "train.init_len=40"]
    else:
        data = tmp_path / "trace.csv"
        assert cli.main(["synth", "--out", str(data), "--duration", "20", "--rate", "30",
                         "--seed", "3", "--hosts", "10.0.0.1,10.0.0.2,10.0.0.3",
                         "--flood", "12:20:20", "--attacker", "10.0.0.3"]) == 0
        args = [str(data), "--cold-start", "--set", "train.init_len=64"]
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
    save_feature_dataset(rows, data)

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


def stepped_feature_init(data, overrides, out):
    """``init --features`` the long way: every benign row stepped through."""
    table = load_feature_dataset(data)
    rows = [row for row, label in zip(table, table.label) if label is not True]
    config = apply_overrides(Config(), overrides + [f"train.init_len={len(rows)}"])
    det = Detector(len(rows[0]), config, mode=Mode.FEATURES, online=False)
    for row in rows:
        det.step(row)
    save_state(det, out)


def test_feature_init_fits_every_benign_row_whatever_train_init_len(tmp_path, capsys):
    rng = np.random.default_rng(41)
    rows = feature_table(rng, 4, (20, 0.5, 0.05, None), (3, 4.0, 0.1, "shift"),
                         (10, 0.5, 0.05, None))
    data = tmp_path / "features.csv"
    save_feature_dataset(rows, data)
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
    save_feature_dataset(rows, data)
    overrides = [] if init_seconds is None else [f"train.init_seconds={init_seconds}"]
    state, expected = tmp_path / "bulk.json", tmp_path / "stepped.json"
    set_args = [a for o in overrides for a in ("--set", o)]
    rc = cli.main(["init", str(data), "--features", "--out", str(state)] + set_args)
    if init_seconds == "0.001":  # 1000 row ticks: the window never closes on 80 rows
        assert rc == 2 and "not finished init" in capsys.readouterr().err
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
    save_feature_dataset(rows, data)
    overrides = [override, "train.window_len=8"]
    log, state = tmp_path / "replay.csv", tmp_path / "replay.json"
    args = ["replay", str(data), "--features", "--cold-start", "--log", str(log),
            "--save-state", str(state)] + ["--online"] * online
    assert cli.main(args + [a for o in overrides for a in ("--set", o)]) == 0

    det = Detector(4, apply_overrides(Config(), overrides), mode=Mode.FEATURES, online=online)
    decisions = [d for d in map(det.step, load_feature_dataset(data)) if d is not None]
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


def test_eval_rejects_an_unlabeled_trace(flood_trace_file, tmp_path, capsys):
    log = tmp_path / "log.csv"
    assert cli.main(["replay", str(flood_trace_file), "--cold-start",
                     "--set", "train.init_len=64", "--log", str(log)]) == 0
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


def test_replay_of_a_feature_file_without_rows(tmp_path, capsys):
    data = tmp_path / "features.csv"
    data.write_text("f1,f2,label,attack_type\n")
    assert cli.main(["replay", str(data), "--features"]) == 2
    assert "error: no feature rows to replay" in capsys.readouterr().err


def test_feature_replay_ending_in_init_leaves_a_header_only_log(tmp_path, capsys):
    rng = np.random.default_rng(53)
    data, log = tmp_path / "features.csv", tmp_path / "log.csv"
    save_feature_dataset(FeatureTable(rng.uniform(0, 1, size=(20, 3)), [False] * 20), data)
    assert cli.main(["replay", str(data), "--features", "--log", str(log),
                     "--set", "train.init_len=30"]) == 2
    assert "feature file ended before init completed" in capsys.readouterr().err
    assert log.read_text() == "timestamp_us,decision_value,threshold,is_attack,mode\n"


def test_replay_without_enough_packets(tmp_path, capsys):
    short = tmp_path / "short.csv"
    assert cli.main(["synth", "--out", str(short), "--duration", "1", "--rate", "20"]) == 0
    rc = cli.main(["replay", str(short), "--cold-start"])
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
