"""The package holds only code that something outside the tests runs: every
top-level function and class, and every method that is not a dunder,
defined in ``src/aadetect/`` is named somewhere in ``src/``, ``demos/`` or
``aadbench/``. A name counts when it appears as an AST ``Name``, an
``Attribute``, an import alias, or in a benchmark wrap point such as
``"aadetect.cli:write_decision_log"``. Reference implementations that only
tests call belong in ``tests/oracles.py``.

Every ``tests/<file>.py::<test>`` and ``tests/oracles.py:<name>`` that a
docstring in ``src/aadetect/`` cites is defined at the top level of its
file, and each exact fast path of ``FAST_PATHS`` cites its oracle and the
test that checks it against the oracle.

Immutable records are NamedTuples: no class in ``src/aadetect/`` is a frozen
dataclass, and no field of a record can be assigned. Dataclasses hold only
mutable state (``DetectorState``, ``DeviceRecord``)."""

import ast
import re
from pathlib import Path

import pytest

from aadetect.aadrnn import AadrnnModel
from aadetect.bench import BenchCheck
from aadetect.config import Config, DeviceSection, MetricsSection, ThresholdSection, TrainSection
from aadetect.devices import DeviceReportRow, InfectionReport
from aadetect.evaluation import ConfusionCounts, EvalReport
from aadetect.metrics import MinMaxScaler, ScalingFactors
from aadetect.traffic import AttackSegment, TraceSpec
from aadetect.training import SufficientStats

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aadetect"
WRAP_POINT = re.compile(r"^aadetect\.[\w.]+:([\w.]+)$")


def defined_names():
    """``module.name`` for each top-level def and class, and each
    non-dunder method, of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield path.stem, item.name


def referenced_names():
    names = set()
    for folder in ("src", "demos", "aadbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = WRAP_POINT.match(node.value)
                    if match:
                        names.update(match.group(1).split("."))
    return names


def test_every_package_name_is_used_outside_the_tests():
    defined, used = list(defined_names()), referenced_names()
    # The scan sees methods but no dunders, and names in wrap-point strings.
    assert ("detector", "accepted_rows") in defined and ("traffic", "__len__") not in defined
    assert "write_decision_log" in used
    unused = [f"{module}.{name}" for module, name in defined if name not in used]
    assert not unused, f"named nowhere in src, demos or aadbench: {unused}"


# The exact fast paths: each names its oracle and the test that checks it against the oracle.
FAST_PATHS = ("metrics.StreamMetrics.update_block", "training.update_incremental",
              "training.NoiseStream.normal", "detector.whisker_threshold",
              "aadrnn.init_hidden_weights", "evaluation.read_decision_log",
              "detector.Detector.step_rows")
CITED_TEST = re.compile(r"tests/(\w+)\.py::(\w+)")
CITED_ORACLE = re.compile(r"tests/oracles\.py:(\w+)|numpy\.random")


def docstrings(tree, prefix):
    """``(qualified name, docstring)`` of each def and class under ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, ast.get_docstring(node) or ""
            yield from docstrings(node, name)


def cited(text):
    """``(file under tests/, name)`` for each test and oracle ``text`` cites."""
    yield from ((f"{m.group(1)}.py", m.group(2)) for m in CITED_TEST.finditer(text))
    yield from (("oracles.py", m.group(1)) for m in CITED_ORACLE.finditer(text) if m.group(1))


def test_every_test_and_oracle_a_docstring_cites_exists():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = ast.get_docstring(tree) or ""
        found.update(docstrings(tree, path.stem))
    defined = {path.name: {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
               for path in (ROOT / "tests").glob("*.py")}
    missing = [f"{name}: tests/{file} {test}" for name, text in found.items()
               for file, test in cited(text) if test not in defined.get(file, ())]
    assert not missing, f"cited, but not defined at the top level of its file: {missing}"
    uncited = [name for name in FAST_PATHS
               if not (CITED_TEST.search(found[name]) and CITED_ORACLE.search(found[name]))]
    assert not uncited, f"fast paths that name no oracle or no test: {uncited}"


def test_no_class_in_the_package_is_a_frozen_dataclass():
    frozen = [f"{path.name}:{node.lineno} {node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ClassDef)
              for decorator in node.decorator_list
              if isinstance(decorator, ast.Call)
              and any(keyword.arg == "frozen" for keyword in decorator.keywords)]
    assert not frozen, f"frozen dataclasses, not NamedTuples: {frozen}"


@pytest.mark.parametrize("record", [AadrnnModel, SufficientStats, ScalingFactors, MinMaxScaler,
                                    AttackSegment, TraceSpec, DeviceReportRow, InfectionReport,
                                    ConfusionCounts, EvalReport, BenchCheck, Config,
                                    MetricsSection, TrainSection, ThresholdSection,
                                    DeviceSection],
                         ids=lambda record: record.__name__)
def test_no_field_of_a_record_can_be_assigned(record):
    value = record._make([None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
