"""Scoring against brute-force confusion counts, the replay driver,
decision-log round-trips, and the report files."""

import json
import re

import numpy as np
import pytest

from aadetect import traffic
from aadetect.bench import run_flood_benchmark
from aadetect.cli import write_decision_log
from aadetect.config import Config, config_from_dict
from aadetect.detector import Decision, Detector, Mode, whisker_threshold
from aadetect.devices import DeviceBank, DeviceReportRow, InfectionReport
from aadetect.evaluation import (align_with_trace, compare_online_offline, ground_truth,
                                 read_decision_log, replay, run, score, write_report)
from aadetect.metrics import ScalingFactors
from aadetect.traffic import AttackSegment, FeatureTable, Trace, TraceSpec, save_trace, synth_trace
from oracles import per_row_read_decision_log, stepped


def mk_decision(is_attack, at_us=0, value=None, threshold=0.5):
    if value is None:
        value = 0.9 if is_attack else 0.1
    return Decision(at_us=at_us, value=value, threshold=threshold, is_attack=is_attack)


def stream_config(**train_overrides):
    train = {"init_len": 8, "window_len": 4, "seed": 0}
    train.update(train_overrides)
    return config_from_dict({"train": train, "metrics": {"N": 5, "T_seconds": 1.0}})


# -- score -------------------------------------------------------------------------


def test_score_worked_example():
    decisions = [mk_decision(x) for x in (True, True, False, False, False, False)]
    labels = [True, True, True, False, False, False]
    report = score(decisions, labels)
    assert (report.counts.tp, report.counts.fn) == (2, 1)
    assert (report.counts.tn, report.counts.fp) == (3, 0)
    assert report.accuracy == pytest.approx(83.333333333, abs=1e-6)
    assert report.tpr == pytest.approx(66.666666667, abs=1e-6)
    assert report.tnr == 100.0 and report.fpr == 0.0
    assert report.fnr == pytest.approx(33.333333333, abs=1e-6)


def test_score_rate_identities_on_random_inputs():
    rng = np.random.default_rng(307)
    for case in range(100):
        n = int(rng.integers(1, 60))
        flags = rng.integers(2, size=n).astype(bool)
        labels = rng.integers(2, size=n).astype(bool)
        report = score([mk_decision(bool(f)) for f in flags], list(labels))
        tp = int(np.sum(flags & labels))
        fn = int(np.sum(~flags & labels))
        tn = int(np.sum(~flags & ~labels))
        fp = int(np.sum(flags & ~labels))
        assert (report.counts.tp, report.counts.fn, report.counts.tn,
                report.counts.fp) == (tp, fn, tn, fp)
        assert report.accuracy == pytest.approx(100.0 * (tp + tn) / n, abs=1e-9)
        if tp + fn:
            assert report.tpr + report.fnr == pytest.approx(100.0, abs=1e-9)
        else:
            assert report.tpr is None and report.fnr is None
        if tn + fp:
            assert report.tnr + report.fpr == pytest.approx(100.0, abs=1e-9)
        else:
            assert report.tnr is None and report.fpr is None


def test_score_is_permutation_invariant():
    rng = np.random.default_rng(311)
    n = 40
    flags = rng.integers(2, size=n).astype(bool)
    labels = list(rng.integers(2, size=n).astype(bool))
    types = [("scan", "flood", None)[i % 3] for i in range(n)]
    decisions = [mk_decision(bool(f)) for f in flags]
    base = score(decisions, labels, types)
    for case in range(20):
        perm = rng.permutation(n)
        shuffled = score([decisions[i] for i in perm], [labels[i] for i in perm],
                         [types[i] for i in perm])
        assert shuffled.counts == base.counts
        assert shuffled.per_attack_type == base.per_attack_type
        assert shuffled.accuracy == base.accuracy


def test_score_validation_errors():
    with pytest.raises(ValueError):
        score([], [])
    with pytest.raises(ValueError):
        score([mk_decision(True)], [True, False])
    with pytest.raises(ValueError) as err:
        score([mk_decision(True)] * 3, [True, None, None])
    assert "1, 2" in str(err.value)
    with pytest.raises(ValueError) as err:
        score([mk_decision(True)] * 15, [None] * 15)
    assert "+5 more" in str(err.value)
    with pytest.raises(ValueError):
        score([mk_decision(True)], [True], attack_types=["a", "b"])


def test_score_per_type_accuracy_buckets():
    # Three typed attack rows per type; the detector catches two of them.
    decisions, labels, types = [], [], []
    for t in range(37):
        name = f"type{t:02d}"
        for hit in (True, True, False):
            decisions.append(mk_decision(hit))
            labels.append(True)
            types.append(name)
    decisions.append(mk_decision(False))  # benign, untyped
    labels.append(False)
    types.append(None)
    report = score(decisions, labels, types)
    assert len(report.per_attack_type) == 37
    assert list(report.per_attack_type) == sorted(report.per_attack_type)
    assert all(acc == pytest.approx(200.0 / 3, abs=1e-9)
               for acc in report.per_attack_type.values())


def test_report_summary_and_json(tmp_path):
    decisions = [mk_decision(True, at_us=3, threshold=0.4), mk_decision(False, at_us=4)]
    report = score(decisions, [True, True])
    assert report.decisions is decisions  # kept, not copied
    s = report.summary()
    assert "accuracy 50.00" in s and "tpr 50.00" in s and "n/a" in s  # no benign rows
    assert write_report(report, Config(), tmp_path / "r.json") == []
    text = (tmp_path / "r.json").read_text()
    doc = json.loads(text)
    assert doc["counts"] == {"tp": 1, "fn": 1, "tn": 0, "fp": 0}
    assert doc["rates"] == {"accuracy": 50.0, "tpr": 50.0, "fnr": 50.0, "tnr": None, "fpr": None}
    assert doc["decision_series"] == [[3, 0.9, 0.4], [4, 0.1, 0.5]]
    assert doc["config"] == Config().to_dict()
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


# -- the replay driver -------------------------------------------------------------------


def benign_trace(seed=21, duration=6.0):
    return synth_trace(TraceSpec(duration_s=duration, rate_pps=40.0,
                                 hosts=("10.0.0.1", "10.0.0.2")), seed=seed)


def test_run_skips_init_and_aligns_ground_truth():
    trace = benign_trace()
    report = run(Detector(3, stream_config(), online=True), trace)
    assert len(trace) - len(report.decisions) == 8
    assert ground_truth(trace, len(report.decisions))[0] == trace.label[8:] == trace[8:].label
    assert [d.at_us for d in report.decisions] == [pkt[0] for pkt in trace[8:]]
    assert report.counts.tn + report.counts.fp == len(trace) - 8
    assert report.fpr is not None and report.tpr is None  # all-benign trace


def test_the_flood_baseline_judges_the_rows_the_detector_judged(monkeypatch):
    # The bench rebuilds every row from a fresh metric pass over the trace;
    # they must be, bit for bit, the rows the detector scaled to fit its init
    # window and then judged.
    calls = []
    apply = ScalingFactors.apply

    def recording(self, raw):
        calls.append(apply(self, raw))
        return calls[-1]

    monkeypatch.setattr(ScalingFactors, "apply", recording)
    report, baseline = run_flood_benchmark(seed=7)
    init_rows, *judged, rebuilt = calls  # init's batch, one row per decision, the rebuild
    assert init_rows.ndim == rebuilt.ndim == 2 and {x.ndim for x in judged} == {1}
    assert len(judged) == len(report.decisions) == len(baseline.decisions)
    assert np.array_equal(rebuilt, np.concatenate([init_rows, judged]))
    theta = np.array([whisker_threshold(column) for column in init_rows.T])
    # Metric-wise thresholding: attack iff any value exceeds its theta, strictly.
    assert [d.is_attack for d in baseline.decisions] == \
        [any(v > th for v, th in zip(x, theta)) for x in judged]
    assert [d[:3] for d in baseline.decisions] == [d[:3] for d in report.decisions]


def test_run_feature_rows_offline_by_default():
    rng = np.random.default_rng(313)
    rows = FeatureTable(rng.uniform(0, 1, size=(30, 3)), [False] * 30)
    det = Detector(3, stream_config(init_len=10), mode=Mode.FEATURES)
    report = run(det, rows)
    assert len(report.decisions) == 20 and report.counts.tn + report.counts.fp == 20
    assert det.phase.value == "frozen"
    # A run is scored, so a run with no decisions, or one on unlabeled rows, raises.
    with pytest.raises(ValueError, match="nothing to score"):
        run(Detector(3, stream_config(), mode=Mode.FEATURES), FeatureTable(np.empty((0, 3))))
    with pytest.raises(ValueError, match="rows without ground-truth labels: 0, 1, 2"):
        run(Detector(3, stream_config(init_len=10), mode=Mode.FEATURES),
            FeatureTable(rows.features))


def test_ground_truth_is_the_input_suffix_at_every_n():
    trace = attack_trace()
    n = len(trace)
    assert trace.label[-0:] == trace.label  # why the helper does not slice [-n:]
    assert ground_truth(trace, 0) == ((), ())
    assert ground_truth(trace, n) == (trace.label, trace.attack_type)
    assert ground_truth(trace, 5) == (trace.label[n - 5:], trace.attack_type[n - 5:])
    table = FeatureTable(np.zeros((3, 2)), [False, True, None], [None, "x", None])
    assert ground_truth(table, 0) == ((), ())
    assert ground_truth(table, 3) == (table.label, table.attack_type)
    assert ground_truth(table, 2) == ((True, None), ("x", None))


def test_replay_of_a_bank_equals_ingesting_packet_by_packet():
    hosts = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
    seg = AttackSegment(3.0, 6.0, 10.0, attackers=("10.0.0.3",), spray=16,
                        size_mean=80.0, size_sigma=10.0)
    trace = synth_trace(TraceSpec(duration_s=6.0, rate_pps=60.0, hosts=hosts,
                                  attacks=(seg,)), seed=31)
    config = config_from_dict({"device": {"init_len": 6, "window_seconds": 1.0},
                               "metrics": {"N": 5, "T_seconds": 1.0}})
    stepped = DeviceBank(config)
    expected = [(addr, d) for pkt in trace for addr, d in stepped.ingest(pkt)]
    bank = DeviceBank(config)
    got = list(replay(bank, trace))
    assert len(got) > len(trace) // 2 and any(d.is_attack for _, d in got)
    assert got == expected
    assert bank.report() == stepped.report()


def test_replay_of_a_detector_equals_stepping_packets():
    trace = attack_trace()
    for online in (False, True):
        config = stream_config(init_len=64, window_len=16)
        ref, det = Detector(3, config, online=online), Detector(3, config, online=online)
        expected = stepped(ref, trace)
        assert list(replay(det, trace)) == expected
        assert len(expected) == len(trace) - 64
        assert det.threshold == ref.threshold and np.array_equal(det.stats.G, ref.stats.G)


@pytest.mark.parametrize("train", [{"init_len": 12}, {"init_seconds": 0.0},
                                   {"init_seconds": 2e-05}, {"init_seconds": 7.9e-05}])
def test_replay_of_a_detector_equals_stepping_feature_rows(train):
    rng = np.random.default_rng(331)
    feats = rng.normal(0.5, 0.05, size=(100, 4))
    feats[85:91] = rng.normal(3.0, 0.1, size=(6, 4))
    rows = FeatureTable(feats, [85 <= i < 91 for i in range(100)],
                        ["shift" if 85 <= i < 91 else None for i in range(100)])
    for online in (False, True):
        config = stream_config(window_len=8, **train)
        ref = Detector(4, config, mode=Mode.FEATURES, online=online)
        det = Detector(4, config, mode=Mode.FEATURES, online=online)
        expected = stepped(ref, rows)
        assert list(replay(det, rows)) == expected
        assert any(d.is_attack for _, d in expected)
        assert det.threshold == ref.threshold and np.array_equal(det.stats.G, ref.stats.G)


def attack_trace(seed=23):
    seg = AttackSegment(4.0, 6.0, 30.0, attackers=("198.51.100.66",),
                        victims=("10.0.0.1",), size_mean=80.0, size_sigma=10.0)
    return synth_trace(TraceSpec(duration_s=6.0, rate_pps=40.0,
                                 hosts=("10.0.0.1", "10.0.0.2"),
                                 attacks=(seg,)), seed=seed)


def test_compare_online_offline_is_deterministic():
    trace = attack_trace()
    cfg = stream_config(init_len=64, window_len=32)
    offline, online = compare_online_offline(trace, cfg)
    assert compare_online_offline(trace, cfg) == (offline, online)
    # The offline pass keeps its init threshold; the online pass re-estimates
    # it at every completed window.
    assert len({d.threshold for d in offline.decisions}) == 1
    assert len({d.threshold for d in online.decisions}) > 1


def test_compare_without_update_policy_degenerates_to_offline():
    # No window policy means the online run never retrains, so both passes
    # produce identical decisions.
    trace = attack_trace()
    cfg = stream_config(window_len=None, window_seconds=None)
    offline, online = compare_online_offline(trace, cfg)
    assert offline == online


def test_compare_rejects_attacks_inside_the_init_prefix():
    seg = AttackSegment(0.0, 1.0, 20.0, attackers=("x",), victims=("10.0.0.1",))
    trace = synth_trace(TraceSpec(duration_s=3.0, rate_pps=50.0, attacks=(seg,)), seed=1)
    with pytest.raises(ValueError):
        compare_online_offline(trace, stream_config())


def test_compare_checks_every_packet_init_consumed_is_benign():
    trace = benign_trace()
    offline, _ = compare_online_offline(trace, stream_config())
    assert offline.counts.total == len(trace) - 8
    with pytest.raises(ValueError) as err:
        compare_online_offline(trace, stream_config(init_len=len(trace) + 1))
    assert str(err.value) == f"trace has {len(trace)} packets and init never completed"
    label, attack_type = list(trace.label), list(trace.attack_type)
    label[1], attack_type[1] = True, "flood"
    poisoned = Trace(trace.timestamp_us, trace.src, trace.dst, trace.size_bytes,
                     label, attack_type)
    with pytest.raises(ValueError) as err:
        compare_online_offline(poisoned, stream_config())
    assert str(err.value) == "packet 1 fed init but is not labeled benign"


def test_compare_checks_the_init_seconds_window_not_init_len():
    # init_len keeps its default of 1000, past the first attack packet (408);
    # the 2 s window takes only the first 97 packets.
    seg = AttackSegment(8, 10, 10, ("1.2.3.4",), victims=("10.0.0.1",))
    trace = synth_trace(TraceSpec(duration_s=10, rate_pps=50, benign_until=8,
                                  attacks=(seg,)), seed=1)
    assert len(trace) == 1445 and trace.label[408] and not any(trace.label[:408])
    config = config_from_dict({"train": {"init_seconds": 2.0}})
    offline, online = compare_online_offline(trace, config)
    assert offline.counts.total == online.counts.total == len(trace) - 97


# -- decision logs -----------------------------------------------------------------------


def test_decision_log_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(317)
    decisions = [mk_decision(bool(rng.integers(2)), at_us=int(rng.integers(1e9)),
                             value=float(rng.uniform(0, 3)),
                             threshold=float(rng.uniform(0.1, 2)))
                 for _ in range(100)]
    path = tmp_path / "log.csv"
    write_decision_log(decisions, "botnet", path)
    assert read_decision_log(path) == decisions


def test_decision_log_rejects_malformed_files(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_decision_log(path)
    path.write_text("timestamp_us,decision_value,threshold,is_attack,mode\n1,0.5,0.4\n")
    with pytest.raises(ValueError):
        read_decision_log(path)


@pytest.mark.parametrize("row, message", [
    ("2,abc,0.4,0,botnet", "could not convert string to float: 'abc'"),
    ("2.5,0.5,0.4,0,botnet", "invalid literal for int() with base 10: '2.5'"),
    ("2,0.5,0.4,7,botnet", "is_attack must be 0 or 1, got '7'"),
    ("2,0.5,0.4,true,botnet", "is_attack must be 0 or 1, got 'true'"),
])
def test_decision_log_names_the_line_of_a_bad_value(tmp_path, row, message):
    path = tmp_path / "log.csv"
    path.write_text("timestamp_us,decision_value,threshold,is_attack,mode\n"
                    "1,0.5,0.4,1,botnet\n\n" + row + "\n")
    with pytest.raises(ValueError) as err:
        read_decision_log(path)
    assert str(err.value) == f"{path}:4: {message}"


LOG_HEADER = "timestamp_us,decision_value,threshold,is_attack,mode"


def decision_logs(st):
    """Decision-log texts that mix rows both readers must read alike with rows
    that each must reject alike: blank lines, quoted fields (a quoted newline
    among them), CR and CRLF endings, spaces around fields, ``1_0``, ``nan``,
    integers past int64, stray columns and a change of mode."""
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(["0.5", " 0.25 ", "1"]))
    odd_value = st.sampled_from(["nan", "inf", "-inf", "1e309", "1_0", "x", "", '"0.5"',
                                 '" 0.5\n"', '"1,5"', '"2'])
    at = st.integers(0, 10**9).map(str)
    odd_at = st.sampled_from([str(2**63), str(-2**63 - 1), str(2**70), "1_0", " 7 ", "1.5",
                              "", '"3"', "nan"])
    flag, odd_flag = st.sampled_from(["0", "1", " 1 "]), st.sampled_from(["2", "true", ""])
    mode = st.sampled_from(["botnet", " botnet ", '"botnet\n"'])
    odd_mode = st.sampled_from(["device", "features", ""])
    odd_line = st.sampled_from([
        lambda line: "", lambda line: "  ", lambda line: line + ",x",
        lambda line: line.rsplit(",", 1)[0], lambda line: '"' + line.replace(",", '",', 1)])

    @st.composite
    def text(draw):
        odd_in_100 = draw(st.sampled_from([0, 2, 15]))

        def pick(good, odd):
            return draw(odd if draw(st.integers(0, 99)) < odd_in_100 else good)

        lines = [LOG_HEADER + draw(st.sampled_from(["\n", "\r\n"]))]
        for _ in range(draw(st.integers(0, 30))):
            fields = [pick(at, odd_at), pick(value, odd_value), pick(value, odd_value),
                      pick(flag, odd_flag), pick(mode, odd_mode)]
            line = pick(st.just(lambda line: line), odd_line)(",".join(fields))
            lines.append(line + pick(st.just("\n"), st.sampled_from(["\r\n", "\r"])))
        if draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        return "".join(lines)

    return text()


def read_both(path, mode):
    """Each reader's decisions (as reprs, so that a nan equals a nan) or its error."""
    out = []
    for read in (read_decision_log, per_row_read_decision_log):
        try:
            out.append((list(map(repr, read(path, mode))), None))
        except ValueError as exc:
            out.append((None, exc))
    return out


@pytest.mark.parametrize("block", [1024, 3])
def test_decision_log_reader_equals_the_per_row_reader_on_generated_files(tmp_path, monkeypatch,
                                                                          block):
    # The one CSV reader gives the first reader's decisions, or its error at
    # the same line; its column-count error adds ", got N".
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(traffic, "_TRACE_BLOCK", block)
    path = tmp_path / "generated.csv"
    header = LOG_HEADER + "\n"

    @hypothesis.settings(deadline=None)  # a slow example on a loaded box is not a failure
    @hypothesis.given(decision_logs(hypothesis.strategies))
    # A quoted newline across a block edge, valid once the mode is stripped.
    @hypothesis.example(header + "0,0.5,0.4,0,botnet\n1,0.5,0.4,1,botnet\n"
                        '2,0.5,0.4,0,"botnet\n"\n3,0.5,0.4,0,botnet\n')
    @hypothesis.example(header + "0,0.5,0.4,0,botnet\n1,0.5,0.4,0,botnet\n"
                        '2,0.5,0.4,0,"botnet\n"\n3,0.5,0.4,0,device\n')
    @hypothesis.example(header + f"{2**63},nan,1_0,1,botnet\r\n\r\n 5 , 0.5 ,0.4, 0 ,botnet\r\n")
    @hypothesis.example(header + "0,0.5,0.4,0,device\n1,0.5,0.4,0,device\n")
    @hypothesis.example(header + "0,0.5,0.4,0,botnet\n\n1,0.5,0.4\n")
    def check(text):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        for mode in (None, "botnet"):
            (got, got_err), (want, want_err) = read_both(path, mode)
            if want_err is not None:
                assert got_err is not None
                declared = re.sub(r"(expected 5 columns), got \d+$", r"\1", str(got_err))
                assert declared == str(want_err)
            else:
                assert got_err is None and got == want

    check()


def test_align_with_trace_suffix_and_errors():
    trace = benign_trace()
    decisions = run(Detector(3, stream_config()), trace).decisions
    labels, types = align_with_trace(decisions, trace)
    assert (labels, types) == ground_truth(trace, len(decisions))

    shifted = [d._replace(at_us=d.at_us + 1) for d in decisions]
    with pytest.raises(ValueError) as err:
        align_with_trace(shifted, trace)
    assert "decision row 0" in str(err.value)

    bumped = list(decisions)
    k = len(bumped) // 2
    d = bumped[k]
    bumped[k] = d._replace(at_us=d.at_us + 7)
    with pytest.raises(ValueError) as err:
        align_with_trace(bumped, trace)
    assert str(err.value) == (f"log/trace misalignment at decision row {k}: "
                              f"decision timestamp {d.at_us + 7} != trace timestamp {d.at_us}")

    with pytest.raises(ValueError):
        align_with_trace(decisions * 2, trace)


# -- report files ---------------------------------------------------------------------------


def test_write_report_plots_for_eval_report(tmp_path):
    report = score([mk_decision(True, at_us=5), mk_decision(False, at_us=9)],
                   [True, False], ["flood", None])
    files = write_report(report, Config(), plots_dir=tmp_path / "plots")
    names = sorted(p.name for p in files)
    assert names == ["decision_series.csv", "per_type_accuracy.csv"]
    series = (tmp_path / "plots" / "decision_series.csv").read_text().splitlines()
    assert series[0] == "timestamp_us,decision_value,threshold"
    assert series[1].startswith("5,")
    per_type = (tmp_path / "plots" / "per_type_accuracy.csv").read_text().splitlines()
    assert per_type[1].split(",")[0] == "flood"
    assert float(per_type[1].split(",")[1]) == 100.0


def test_write_report_empty_type_map_is_header_only(tmp_path):
    report = score([mk_decision(False)], [False])
    write_report(report, Config(), plots_dir=tmp_path)
    assert (tmp_path / "per_type_accuracy.csv").read_text().splitlines() == [
        "attack_type,accuracy_pct"]


def test_write_report_for_infection_report(tmp_path):
    config = config_from_dict({"device": {"init_len": 6}})
    bank = DeviceBank(config)
    t = 0
    for i in range(30):
        t += 10_000
        bank.ingest((t, "a", "b", 400 + i))
    report = bank.report()
    files = write_report(report, config, tmp_path / "r.json", tmp_path)
    assert [p.name for p in files] == ["infection_levels.csv"]
    lines = (tmp_path / "infection_levels.csv").read_text().splitlines()
    assert lines[0] == "addr,infection_level,peak_level,is_compromised,decisions_count"
    assert len(lines) == 3  # two devices
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc == {"devices": [row._asdict() for row in report.devices],
                   "summary": {"packets": 30, "devices": 2,
                               "compromised": list(report.compromised)},
                   "config": config.to_dict()}


def test_every_csv_the_package_writes_has_exact_bytes(tmp_path):
    # Signed zero, the smallest subnormal and a huge value keep their repr;
    # a comma or a quote in a field is csv-quoted; every line ends in LF.
    types = [None, "a,b", 'say "hi"']
    save_trace(Trace([0, 5, 7], ["10.0.0.1", "10.0.0.3", "10.0.0.1"],
                     ["10.0.0.2", "10.0.0.1", "10.0.0.3"], [60, 0, 1500],
                     [None, True, False], types), tmp_path / "trace.csv")
    decisions = [Decision(0, -0.0, 5e-324, False), Decision(5, 1e300, 0.5, True),
                 Decision(7, 5e-324, 1e300, False)]
    write_report(score(decisions, [False, True, True], types), Config(), plots_dir=tmp_path)
    write_report(InfectionReport((DeviceReportRow("10.0.0.1", -0.0, 5e-324, True, 3, 7),
                                  DeviceReportRow("10.0.0.2", 0.5, 1e300, False, 0, 5)),
                                 packets=3, compromised=("10.0.0.1",)), Config(),
                 plots_dir=tmp_path)
    write_decision_log(decisions, "botnet", tmp_path / "log.csv")
    expected = {
        "trace.csv": b'timestamp_us,src,dst,size_bytes,label,attack_type\n'
                     b'0,10.0.0.1,10.0.0.2,60,,\n'
                     b'5,10.0.0.3,10.0.0.1,0,1,"a,b"\n'
                     b'7,10.0.0.1,10.0.0.3,1500,0,"say ""hi"""\n',
        "decision_series.csv": b"timestamp_us,decision_value,threshold\n"
                               b"0,-0.0,5e-324\n5,1e+300,0.5\n7,5e-324,1e+300\n",
        "per_type_accuracy.csv": b'attack_type,accuracy_pct\n"a,b",100.0\n"say ""hi""",0.0\n',
        "infection_levels.csv": b"addr,infection_level,peak_level,is_compromised,"
                                b"decisions_count\n"
                                b"10.0.0.1,-0.0,5e-324,1,3\n10.0.0.2,0.5,1e+300,0,0\n",
        "log.csv": b"timestamp_us,decision_value,threshold,is_attack,mode\n"
                   b"0,-0.0,5e-324,0,botnet\n5,1e+300,0.5,1,botnet\n7,5e-324,1e+300,0,botnet\n",
    }
    assert {name: (tmp_path / name).read_bytes() for name in expected} == expected
