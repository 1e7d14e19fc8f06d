"""Mutation check: every exactness guard and fast path in the table matters.

    python tests/mutants.py

Each row of ``MUTANTS`` replaces one exact piece of text in a file of
``src/`` with another and names the test files that should fail on it. The
script copies ``src/`` and ``tests/`` to a temporary directory, runs each
row's test files once on the unmutated copy, then applies each mutant in
turn and runs its files with ``pytest -x -W error`` under the ``ci``
Hypothesis profile, as the tier-1 run does. A mutant is killed when a test
fails on it (pytest exits 1); a mutant that breaks the run (a syntax error,
say) is not a kill, and counts as not as expected. A row's tests may be test
files or single tests, given as pytest node ids.

It exits 1 if a mutant expected to be killed survives, if one recorded as
equivalent is killed (the record is then wrong), if a row's old text is not
in its file exactly once, or if a row's tests fail on the unmutated copy.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
KILLED, EQUIVALENT = "killed", "equivalent"
METRICS, DETECTOR, TRAFFIC, TRAINING, AADRNN, DEVICES, CONFIG, CLI, EVALUATION = (
    f"src/aadetect/{name}.py"
    for name in ("metrics", "detector", "traffic", "training", "aadrnn", "devices", "config",
                 "cli", "evaluation"))
BLOCK_TESTS = ("tests/test_metrics.py", "tests/test_feed.py")
FEED_TESTS = ("tests/test_feed.py",)
TRACE_ERROR_TESTS = ("tests/test_traffic.py::"
                     "test_column_loader_reports_errors_as_the_per_row_loader",)
FEATURE_ERROR_TESTS = ("tests/test_traffic.py::"
                       "test_block_loader_reports_errors_as_the_per_row_loader",)
STRAY_QUOTE_TESTS = ("tests/test_hostile.py::"
                     "test_a_stray_quote_before_128_kib_is_one_error_naming_its_line",)
UNWRITABLE_STATE = ("tests/test_config_cli.py::"
                    "test_a_state_that_save_state_cannot_write_exits_2_naming_it_before_any_log")
STORED_CONFIG_TESTS = ("tests/test_config_cli.py::test_a_replay_decides_by_the_states_"
                       "settings_and_a_version_3_state_by_the_config",)
UNKNOWN_KEY_TESTS = ("tests/test_config_cli.py::"
                     "test_a_state_key_save_state_never_writes_exits_2_naming_it",)
DISTINCT_TESTS = ("tests/test_config_cli.py::"
                  "test_an_output_that_is_an_input_or_another_output_exits_2_before_any_write")
WHISKER_TESTS = ("tests/test_detector.py::test_whisker_degenerate_fallbacks",)
PARSER_TESTS = ("tests/test_config_cli.py::test_main_parses_as_the_parser_of_every_command",)
HAND_BUILT_TESTS = ("tests/test_config_cli.py::"
                    "test_a_hand_built_config_is_refused_naming_its_key",)
OVERFLOW_TESTS = ("tests/test_config_cli.py::"
                  "test_finite_feature_values_that_overflow_scaling_exit_2_naming_them",)


# The body and the end of read_csv's record loop, around the line that counts records.
RECORD_LOOP = ("                    if record:\n"
               "                        if len(record) != n_fields:\n"
               '                            raise ValueError(f"expected {n_fields} columns, '
               'got {len(record)}")\n'
               "                        rows.append(row(record))\n")
LOOP_END = ("                    if reader.line_num >= len(lines):"
            "  # lines pulled from the iterator\n"
            "                        break\n")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]
    expected: str = KILLED


MUTANTS = [
    # StreamMetrics: one arrival-order state, read by triple().
    Mutant("update: the trim keeps N + 1 packets", METRICS,
           "if len(recent) > 2 * self.N:", "if len(recent) > 2 * self.N + 2:", BLOCK_TESTS),
    Mutant("triple: the newest timestamp taken as the oldest", METRICS,
           "(recent[-2] - recent[0])", "(recent[-2] - recent[-2])", BLOCK_TESTS),
    Mutant("DirectionalMetrics.update: the idle directions swapped", METRICS,
           "idle_rx, idle_tx = self._rx.get(src), self._tx.get(dst)",
           "idle_tx, idle_rx = self._rx.get(src), self._tx.get(dst)", ("tests/test_metrics.py",)),
    Mutant("update_block: columns of unequal length not rejected", METRICS,
           "        if len(size_bytes) != n:\n"
           '            raise ValueError(f"ts_us has {n} values but size_bytes has '
           '{len(size_bytes)}")\n',
           "", ("tests/test_metrics.py::"
                "test_update_block_rejects_columns_of_unequal_length_before_any_state_changes",)),
    Mutant("update_block: columns converted without _int64_column", METRICS,
           '        ts_us = _int64_column(ts_us, "ts_us")\n'
           '        size_bytes = _int64_column(size_bytes, "size_bytes")\n',
           "        ts_us = np.asarray(ts_us, dtype=np.int64)\n"
           "        size_bytes = np.asarray(size_bytes, dtype=np.int64)\n",
           ("tests/test_metrics.py",)),
    # StreamMetrics.update_block: each guard that sends a block through update row by row.
    Mutant("update_block: m2 without the 2**53 span guard", METRICS,
           "if (oldest < _INT64_MIN or last - oldest >= 2**53 or",
           "if (oldest < _INT64_MIN or", BLOCK_TESTS),
    Mutant("update_block: no guard on t - T below int64", METRICS,
           "or first - self.T_us < _INT64_MIN or biggest", "or biggest", BLOCK_TESTS),
    Mutant("update_block: no guard on T_us above int64", METRICS,
           "or last - oldest >= 2**53 or self.T_us > _INT64_MAX", "or last - oldest >= 2**53",
           BLOCK_TESTS),
    Mutant("update_block: no guard on the size sum", METRICS,
           "or biggest * (carry + n) > _INT64_MAX):", "):", BLOCK_TESTS),
    # StreamMetrics.update_block: the window arithmetic.
    Mutant("update_block: m3 searched with side='left'", METRICS,
           'cutoff, side="right")', 'cutoff, side="left")', BLOCK_TESTS),
    Mutant("update_block: N - 2 packets carried", METRICS,
           "carry = min(held, self.N - 1)", "carry = min(held, self.N - 2)", BLOCK_TESTS),
    Mutant("update_block: the first cutoff one too high", METRICS,
           "lo = bisect_right(window, int(cutoff[0]), self._head)",
           "lo = bisect_right(window, int(cutoff[0]) + 1, self._head)", BLOCK_TESTS),
    # Windows are indexed by position: the extra carried packet is copied, never read.
    Mutant("update_block: N packets carried, not N - 1", METRICS,
           "carry = min(held, self.N - 1)", "carry = min(held, self.N)", BLOCK_TESTS,
           EQUIVALENT),
    # The config rule for init_seconds; Detector.init_cut, the one init rule.
    Mutant("config: a negative train.init_seconds accepted", CONFIG,
           '    "train.init_seconds": _at_least(0),\n', "",
           ("tests/test_detector.py::test_init_cut_matches_stepping_feature_rows",)),
    Mutant("init_cut: > for >=", DETECTOR,
           "int(times[i]) - int(first[0]) >= bound", "int(times[i]) - int(first[0]) > bound",
           FEED_TESTS),
    Mutant("init_cut: three rows for four", DETECTOR,
           "range(max(4 - held, 0), len(times))", "range(max(3 - held, 0), len(times))",
           FEED_TESTS),
    Mutant("init_cut: float differences", DETECTOR,
           "int(times[i]) - int(first[0]) >= bound", "float(times[i]) - float(first[0]) >= bound",
           FEED_TESTS),
    Mutant("init_cut: the first time taken per call", DETECTOR,
           "first = window[0][0] if window else times", "first = times",
           FEED_TESTS),
    Mutant("init_cut: the bound not clipped", DETECTOR,
           "math.ceil(min(self._init_seconds * 1e6, 2.0**64))",
           "math.ceil(self._init_seconds * 1e6)", FEED_TESTS),
    Mutant("init_cut: the count window one row long", DETECTOR,
           "held + len(times) >= self._init_len", "held + len(times) > self._init_len",
           FEED_TESTS),
    # Detector._join and the feature-row clock.
    Mutant("_join: joined rows not counted", DETECTOR,
           "self.state.row_counter += joined", "pass", FEED_TESTS),
    Mutant("_join: the window reset per call", DETECTOR,
           "self.state.init_rows.append((times[:joined], rows[:joined]))",
           "self.state.init_rows = [(times[:joined], rows[:joined])]", FEED_TESTS),
    Mutant("_slices: feature rows timed one late", DETECTOR,
           "yield range(self.state.row_counter, self.state.row_counter + len(rows)), rows",
           "yield range(self.state.row_counter + 1, self.state.row_counter + len(rows) + 1), rows",
           FEED_TESTS),
    # The packet front end: a Trace is the one input, sliced before a step back.
    Mutant("_packet_columns: no slice end before a timestamp that goes back", DETECTOR,
           "        back = np.flatnonzero(ts[1:] < ts[:-1])\n"
           "        if len(back):\n"
           "            yield ts[:back[0] + 1], sizes[:back[0] + 1]\n"
           "            ts, sizes = ts[back[0] + 1:], sizes[back[0] + 1:]\n",
           "", FEED_TESTS),
    Mutant("_slices: a botnet detector takes any input", DETECTOR,
           "if not isinstance(rows, Trace):", "if False:", ("tests/test_detector.py",)),
    # Trace, where packet integers become int64.
    Mutant("Trace: columns converted without the int64 check", TRAFFIC,
           "    column = np.asarray(values)\n",
           "    column = np.asarray(values, dtype=np.int64)\n", ("tests/test_traffic.py",)),
    Mutant("Trace: unsigned columns not range-checked", TRAFFIC,
           'if column.dtype.kind == "u" and column.size and', "if False and",
           ("tests/test_traffic.py",)),
    # read_csv, the one reader of trace, feature and decision-log files, and each kind's
    # fast converter.
    Mutant("trace fast converter: no check against the previous block's last timestamp",
           TRAFFIC, "(ts[1:] < ts[:-1]).any()\n"
                    "                or (prev_ts is not None and ts[0] < prev_ts)):",
           "(ts[1:] < ts[:-1]).any()):", TRACE_ERROR_TESTS),
    Mutant("read_csv: the line number not advanced past a fast block", TRAFFIC,
           "                    line_no += len(lines)\n", "", TRACE_ERROR_TESTS),
    Mutant("read_csv: the row loop's field count not checked", TRAFFIC,
           "                        if len(record) != n_fields:",
           "                        if False:", TRACE_ERROR_TESTS),
    Mutant("read_csv: csv's own errors not converted", TRAFFIC,
           "except (csv.Error, ValueError) as exc:", "except ValueError as exc:",
           ("tests/test_traffic.py::test_column_loader_keeps_csvs_field_size_limit",)),
    Mutant("read_csv: the header read outside the conversion", TRAFFIC,
           "    try:\n"
           '        with open(path, newline="", encoding="utf-8") as fh:\n'
           "            fields = next(csv.reader(fh, strict=True), None)\n",
           '    with open(path, newline="", encoding="utf-8") as fh:\n'
           "        fields = next(csv.reader(fh, strict=True), None)\n"
           "    try:\n"
           '        with open(path, newline="", encoding="utf-8") as fh:\n'
           "            next(csv.reader(fh, strict=True), None)\n",
           STRAY_QUOTE_TESTS),
    Mutant("read_csv: records numbered by enumerate, so a csv error names the record before",
           TRAFFIC, "                for record in reader:\n" + RECORD_LOOP
           + "                    line_no += 1\n" + LOOP_END,
           "                for line_no, record in enumerate(reader, start=line_no):\n"
           + RECORD_LOOP + LOOP_END + "                line_no += 1\n",
           STRAY_QUOTE_TESTS),
    Mutant("read_csv: csv read loosely, a quote left open to the end of the file", TRAFFIC,
           "csv.reader(chain(lines, fh), strict=True)", "csv.reader(chain(lines, fh))",
           ("tests/test_traffic.py::"
            "test_a_quote_left_open_or_closed_early_is_an_error_naming_its_line",)),
    Mutant("read_csv: a file that is not UTF-8 named at line 1", TRAFFIC,
           'raise TraceParseError(path, line_no, f"not UTF-8 text: {exc}")',
           'raise TraceParseError(path, 1, f"not UTF-8 text: {exc}")',
           ("tests/test_traffic.py::test_a_file_that_is_not_utf8_names_its_first_bad_line",)),
    Mutant("feature fast converter: non-finite values kept", TRAFFIC,
           "if np.isfinite(feats).all() else None", "if True else None", FEATURE_ERROR_TESTS),
    Mutant("feature fast converter: bad labels read as unknown", TRAFFIC,
           "labels = [_LABELS[text.strip()] for text in columns[0]]",
           "labels = [_LABELS.get(text.strip()) for text in columns[0]]", FEATURE_ERROR_TESTS),
    # One per oracle: the parser's fast split, the training fold and noise, the whisker.
    Mutant("_split_block: quotes, CRs and NULs split as plain text", TRAFFIC,
           r"""if any(char in text for char in '"\r\0\x1c\x1d\x1e\x1f'):""",
           r"""if any(char in text for char in '\x1c\x1d\x1e\x1f'):""",
           ("tests/test_traffic.py::test_column_loader_equals_per_row_loader_on_generated_files",)),
    Mutant("update_incremental: noise keyed by chunk, not by global row", TRAINING,
           "rng._replace(index=stats.n + lo)",
           "rng._replace(index=stats.n + lo // _FOLD_CHUNK)", ("tests/test_training.py",)),
    Mutant("NoiseStream.normal: the counter offset one low", TRAINING,
           "(3 * self.index * shape[-1] + 1) * _GAMMA", "(3 * self.index * shape[-1]) * _GAMMA",
           ("tests/test_training.py",)),
    Mutant("_linear_quantile: the t < 0.5 branch dropped", DETECTOR,
           "return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)",
           "return b - (b - a) * (1 - t)", ("tests/test_quartiles.py",)),
    Mutant("whisker_threshold: no fallback to the sample maximum", DETECTOR,
           "    if whisker <= 0:\n        whisker = float(vals.max())\n", "", WHISKER_TESTS),
    Mutant("whisker_threshold: no 1e-6 floor", DETECTOR,
           "    if whisker <= 0:\n        whisker = 1e-6\n", "", WHISKER_TESTS),
    Mutant("init_hidden_weights: SeedSequence's pool mix shifted by 15", AADRNN,
           "pool[dst] = mixed ^ mixed >> 16", "pool[dst] = mixed ^ mixed >> 15",
           ("tests/test_aadrnn.py::test_hidden_weights_equal_numpys_pcg64_draws",)),
    Mutant("init_hidden_weights: PCG64's output rotation read from the wrong bits", AADRNN,
           "state >> 122", "(state >> 58) & 63",
           ("tests/test_aadrnn.py::test_hidden_weights_equal_numpys_pcg64_draws",)),
    # The state record: each fit installed whole, the phase read from it.
    Mutant("_finish_window: the model swapped, the old threshold kept", DETECTOR,
           "state.fit = Fit(fit.scaler, model, stats, threshold)",
           "state.fit = Fit(fit.scaler, model, stats, fit.threshold)",
           ("tests/test_detector.py::test_count_window_triggers_refit_and_rethreshold",)),
    Mutant("_finish_window: no four-value floor under the whisker", DETECTOR,
           " and len(state.pending_d) >= 4:", ":",
           ("tests/test_detector.py::test_time_window_triggers_on_stream_time",)),
    Mutant("_finish_window: the pending window kept", DETECTOR,
           "state.pending, state.pending_d, state.window_start_us = [], [], None",
           "state.pending_d, state.window_start_us = [], None",
           ("tests/test_detector.py::test_count_window_triggers_refit_and_rethreshold",)),
    Mutant("initialize: the init window kept after the fit", DETECTOR,
           "        self.state.init_rows = []\n", "",
           ("tests/test_detector.py::test_init_buffers_then_first_decision",)),
    Mutant("load_state: a loaded detector's phase ignores online", DETECTOR,
           "return Detector(m, config, mode=mode, online=online,",
           "return Detector(m, config, mode=mode, online=False,",
           ("tests/test_detector.py::test_loaded_online_detector_continues_learning",)),
    Mutant("Detector: a packet detector on a record with no metric carry keeps none", DETECTOR,
           "if self.mode == Mode.BOTNET and self.state.metrics is None:", "if False:",
           ("tests/test_detector.py::"
            "test_feeding_rows_and_loading_a_state_change_no_attribute_but_the_record",)),
    # A state's settings: the values it holds override the config, which may not disagree.
    Mutant("_stored_config: the stored metrics.N ignored", DETECTOR,
           "for key in sorted(_KEYS[name]))", "for key in sorted(_KEYS[name] - {'N'}))",
           STORED_CONFIG_TESTS),
    Mutant("_stored_config: a version-3 state asked for the objects it does not hold",
           DETECTOR, 'if doc["version"] > 3 or name in doc:', "if True:", STORED_CONFIG_TESTS),
    Mutant("_stored_config: a config value that disagrees with the state's accepted", DETECTOR,
           "if getattr(given, key) not in (getattr(default, key), value):", "if False:",
           ("tests/test_config_cli.py::test_a_config_value_that_disagrees_with_the_state_"
            "exits_2_naming_both_before_any_log",)),
    Mutant("cmd_replay: the report names the replay's config, not the state's settings", CLI,
           "config = run._replace(metrics=run.metrics._replace(gamma=config.metrics.gamma))",
           "run = config", STORED_CONFIG_TESTS),
    Mutant("update_incremental: the noise keyed by train.seed, not the model's seed", TRAINING,
           "rng = noise_rng(model.seed, stats.n, salt)",
           "rng = noise_rng(train.seed, stats.n, salt)",
           ("tests/test_training.py::"
            "test_the_noise_is_keyed_by_the_models_seed_not_by_train_seed",)),
    # The network and the decision value, each exact to the last bit.
    Mutant("update_incremental: hidden on the (k, M) chunk, not (k, 1, M) rows", TRAINING,
           "H = model.hidden(noisy[:, None, :])[:, 0, :]", "H = model.hidden(noisy)",
           ("tests/test_training.py",)),
    Mutant("hidden: zeta as 1 - 1 / (1 + h)", AADRNN,
           "np.divide(h, h + 1.0, out=h)", "h = 1.0 - 1.0 / (1.0 + h)",
           ("tests/test_aadrnn.py::test_activation_monotone_and_bounded",)),
    Mutant("_weighted_gap: the weighted sum in another order", DETECTOR,
           "return np.abs(x - x_hat) @ gamma", "return (np.abs(x - x_hat) * gamma).sum(axis=-1)",
           ("tests/test_detector.py::"
            "test_decision_values_and_the_init_threshold_are_the_weighted_gap_bit_for_bit",)),
    # load_state's guards: a file save_state could not have written is refused.
    Mutant("load_state: _check_types skipped", DETECTOR, "        _check_types(doc)\n", "",
           ("tests/test_config_cli.py::"
            "test_a_state_value_of_a_json_type_save_state_never_writes_exits_2_naming_it",)),
    Mutant("_finite: a non-finite number accepted", DETECTOR,
           "    if not math.isfinite(value):\n", "    if False:\n",
           (UNWRITABLE_STATE + "[gamma-nan]",)),
    Mutant("load_state: stats G and C read without the shape check", DETECTOR,
           'SufficientStats(_array(stats["G"], (m, m), "stats G"),\n'
           '                                _array(stats["C"], (m, m), "stats C"), n)',
           'SufficientStats(np.asarray(stats["G"], dtype=float),\n'
           '                                np.asarray(stats["C"], dtype=float), n)',
           ("tests/test_detector.py::"
            "test_a_state_names_each_array_of_the_wrong_shape_and_an_unknown_scaler",)),
    Mutant("load_state: a threshold that is not positive accepted", DETECTOR,
           "if not 0 < threshold < math.inf:", "if False:",
           ("tests/test_detector.py::test_classify_rejects_bad_thresholds",)),
    Mutant("load_state: max scale factors not checked for positivity", DETECTOR,
           "if not (scaler.scale > 0).all():", "if False:",
           (UNWRITABLE_STATE + "[scale-zero]",)),
    Mutant("min_max_scaler: a loaded min-max hi below lo accepted", METRICS,
           "if (hi < lo).any():", "if False:", (UNWRITABLE_STATE + "[minmax-hi-below-lo]",)),
    Mutant("load_state: a min-max range past the largest float accepted", DETECTOR,
           'scaler = min_max_scaler(_array(scaling["lo"], (m,), "lo"),',
           'scaler = MinMaxScaler(_array(scaling["lo"], (m,), "lo"),',
           (UNWRITABLE_STATE + "[minmax-range-overflows]",)),
    Mutant("_check_types: a list or a number accepted where an object belongs", DETECTOR,
           '    if (key in _KEYS or key == "scaling_factors") and '
           'not isinstance(value, dict):\n',
           "    if False:\n",
           ("tests/test_config_cli.py::"
            "test_a_state_value_of_a_json_type_save_state_never_writes_exits_2_naming_it",)),
    Mutant("_check_types: a key save_state never writes accepted", DETECTOR,
           "        if unknown is not None:\n", "        if False:\n", UNKNOWN_KEY_TESTS),
    Mutant("_check_types: a scaler's keys checked without its kind", DETECTOR,
           """f"{key} {value.get('kind')}" if key == "scaling_factors" else key""", "key",
           UNKNOWN_KEY_TESTS),
    Mutant("replace_file: the target written directly, so a failed save loses it", TRAFFIC,
           'tmp = f"{path}.{os.getpid()}.tmp"', "tmp = path",
           ("tests/test_detector.py::"
            "test_a_save_that_fails_part_way_leaves_the_old_state_whole",)),
    Mutant("replace_file: an OSError names the temporary file", TRAFFIC,
           "if isinstance(exc, OSError) and exc.filename == tmp:", "if False:",
           ("tests/test_config_cli.py::"
            "test_an_output_that_cannot_be_written_is_an_error_naming_it",)),
    # Config errors that must name what they are about.
    Mutant("Detector: a hand-built config not validated", DETECTOR,
           "config = config.validate()  # a hand-built", "config = config  # a hand-built",
           HAND_BUILT_TESTS),
    Mutant("DeviceBank: a config value read before the probe detector", DEVICES,
           "        Detector(DEVICE_DIM, config, mode=Mode.DEVICE)  # first",
           "        int(round(config.device.ttl_seconds * 1e6))\n"
           "        Detector(DEVICE_DIM, config, mode=Mode.DEVICE)  # first", HAND_BUILT_TESTS),
    Mutant("Config.validate: a section of another class read as its own", CONFIG,
           "if not isinstance(section, _SECTIONS[name]):", "if False:", HAND_BUILT_TESTS),
    Mutant("Config.validate: a metrics.N past int64 accepted", CONFIG,
           "if self.metrics.N >= 2**63:", "if False:",
           ("tests/test_hostile.py::test_one_set_value_exits_0_or_2_naming_its_key",)),
    Mutant("load_config: a config error not naming the file", CONFIG,
           'raise ValueError(f"{path}: {exc}") from None', "raise",
           ("tests/test_hostile.py::test_one_edit_to_an_input_exits_0_or_2_naming_the_file",)),
    Mutant("write_csv: the target opened directly, so a failed write loses it", TRAFFIC,
           "    with replace_file(path) as fh:\n        writer = csv.writer(",
           '    with open(path, "w", newline="\\n", encoding="utf-8") as fh:\n'
           "        writer = csv.writer(",
           ("tests/test_traffic.py::"
            "test_a_csv_write_that_fails_part_way_leaves_the_old_file_whole",)),
    # A command's files, checked before any is read.
    Mutant("_check_files: paths compared as given, not as real paths", CLI,
           "seen.setdefault(os.path.realpath(path), flag)", "seen.setdefault(path, flag)",
           (DISTINCT_TESTS + "[log-over-state]",)),
    Mutant("_check_files: --save-state may not resume --state in place", CLI,
           ' and (other, flag) != ("--state", "--save-state"):', ":",
           (DISTINCT_TESTS + "[log-over-trace]",)),
    Mutant("_check_files: --plots DIR not counted as the files it writes", CLI,
           "paths = made + [os.path.join(given, name) for name in PLOT_FILES[args.devices]]",
           "paths = made + [given]", (DISTINCT_TESTS + "[plots-over-log]",)),
    Mutant("_check_files: the directories --plots makes not counted", CLI,
           "paths = made + [", "paths = [", (DISTINCT_TESTS + "[plots-dir-over-state]",)),
    Mutant("_check_files: init's output directory not checked", CLI,
           "elif made:", 'elif made and args.command != "init":',
           ("tests/test_config_cli.py::"
            "test_an_output_that_cannot_be_written_is_an_error_naming_it",)),
    Mutant("_check_files: an output under a file named as a missing directory", CLI,
           'else f"{flag} {given}: {existing} is not a directory")',
           'else f"{flag} {given}: directory {existing} does not exist")',
           ("tests/test_config_cli.py::"
            "test_an_output_that_cannot_be_written_is_an_error_naming_it",)),
    Mutant("_check_files: --plots DIR's nearest existing ancestor not checked", CLI,
           "if existing and not os.path.isdir(existing):",
           "if existing == given and not os.path.isdir(existing):",
           ("tests/test_config_cli.py::"
            "test_an_output_written_after_the_replay_is_checked_before_it",)),
    Mutant("_check_files: a dangling link taken for a name --plots may make", CLI,
           "while existing and not os.path.lexists(existing):",
           "while existing and not os.path.exists(existing):",
           ("tests/test_config_cli.py::"
            "test_plots_in_a_dangling_link_exits_2_before_any_output",)),
    Mutant("cmd_replay: --report on an unlabeled input refused only after the log", CLI,
           "(args.report or args.plots) and None in items.label:",
           "(args.report or args.plots) and False:",
           ("tests/test_config_cli.py::"
            "test_a_report_on_an_input_not_fully_labeled_exits_2_before_any_output",)),
    # main builds one subparser; its help and errors are the full parser's.
    Mutant("build_parser: metavar set when every subparser is built", CLI,
           " if len(built) == 1 else None)", ")", PARSER_TESTS),
    Mutant("build_parser: a non-command argv[0] builds no subparser", CLI,
           "built = (command,) if command in names else names", "built = (command,)",
           PARSER_TESTS),
    # Errors that must name what they are about.
    Mutant("write_report: a report may hold NaN", EVALUATION,
           "allow_nan=False)", "allow_nan=True)",
           ("tests/test_config_cli.py::test_a_report_is_strict_json_or_an_error_naming_it",)),
    Mutant("min_max_fit: a column range that overflows accepted", METRICS,
           "wide = np.flatnonzero(np.isinf(hi - lo))", "wide = np.flatnonzero(np.isnan(hi - lo))",
           OVERFLOW_TESTS),
    Mutant("MinMaxScaler.apply: a value that overflows its scaling passed on", METRICS,
           'with np.errstate(over="raise"):', "with np.errstate():", OVERFLOW_TESTS),
    Mutant("load_feature_dataset: a header that starts with a byte-order mark accepted",
           TRAFFIC, ' or header[0].startswith("\\ufeff"):', ":",
           ("tests/test_traffic.py::test_a_byte_order_mark_before_a_bad_header_is_named",)),
    Mutant("read_csv: a byte-order mark before a bad header not named", TRAFFIC,
           'if fields and fields[0].startswith("\\ufeff"):', "if False:",
           ("tests/test_traffic.py::test_a_byte_order_mark_before_a_bad_header_is_named",)),
    # The device bank.
    Mutant("ingest: the level divides by the threshold after the refit", DEVICES,
           "alpha, decision.threshold)", "alpha, det.threshold)",
           ("tests/test_devices.py::"
            "test_a_level_step_uses_the_threshold_its_decision_was_judged_against",)),
    Mutant("ingest: a device's init takes one vector more", DEVICES,
           "len(rec.init_rows) >= self._init_bytes", "len(rec.init_rows) > self._init_bytes",
           ("tests/test_devices.py::test_decisions_start_after_per_device_init",)),
]


def pytest_exit(tree: Path, tests: Tuple[str, ...]) -> int:
    """pytest's exit code on ``tests`` in ``tree``, stopping at the first failure:
    0 when all pass, 1 when a test fails, more when the run itself broke."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
               "-p", "no:cacheprovider", "--hypothesis-profile=ci", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="aadetect-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for tests in sorted({mutant.tests for mutant in MUTANTS}):
            if pytest_exit(tree, tests) != 0:
                print(f"FAIL  the unmutated tree fails {' '.join(tests)}")
                failures += 1
        if failures:
            return 1
        for mutant in MUTANTS:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"FAIL  {mutant.name}: its old text is in {mutant.path} "
                      f"{text.count(mutant.old)} times, not once")
                failures += 1
                continue
            start = time.perf_counter()
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = pytest_exit(tree, mutant.tests)
            finally:
                target.write_text(text, encoding="utf-8")
            outcome = {0: "survived", 1: KILLED}.get(code, f"broken (pytest exit {code})")
            ok = outcome == (KILLED if mutant.expected == KILLED else "survived")
            failures += not ok
            seconds = time.perf_counter() - start
            print(f"{'ok   ' if ok else 'FAIL '} {outcome:<9} {seconds:5.1f} s  "
                  f"{mutant.name}" + ("" if ok else f" (expected {mutant.expected})"), flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} not as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
