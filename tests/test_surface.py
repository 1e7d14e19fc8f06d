"""The package holds only code that something outside the tests runs: every
top-level function and class, and every method that is not a dunder,
defined in ``src/aadetect/`` is named somewhere in ``src/``, ``demos/`` or
``aadbench/``. A name counts when it appears as an AST ``Name``, an
``Attribute``, an import alias, or in a benchmark wrap point such as
``"aadetect.cli:write_decision_log"``. Reference implementations that only
tests call belong in ``tests/oracles.py``."""

import ast
import re
from pathlib import Path

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
