"""The benchmark's span tracer (``aadbench/spans.py``) wraps package
attributes that it names by string. A target that no longer resolves is only
reported as missing by the traced run, and its metrics read 0; these tests
catch a dropped or renamed wrap point at once. The tracer module is read and
executed here, never installed, so no package attribute is replaced."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "aadbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """The tracer module, executed from its source (no bytecode is written)."""
    module = types.ModuleType("aadbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("target, span", SPANS.WRAP_POINTS,
                         ids=[target for target, _ in SPANS.WRAP_POINTS])
def test_every_wrap_point_of_the_benchmark_tracer_resolves(target, span):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), target
    assert span.partition(".")[0] in SPANS.LAYERS, span


def test_the_wrapped_calls_keep_the_arguments_the_tracer_reads():
    # training.refit counts the rows of the second positional argument, and
    # cli.log_write the length of write_decision_log's first.
    from aadetect import cli, detector
    params = lambda fn: list(inspect.signature(fn).parameters)
    assert params(detector.fit_batch_with_stats)[1] == "X"
    assert params(detector.update_incremental)[1] == "window"
    assert params(cli.write_decision_log)[0] == "decisions"
