"""The shared settings in ``tests/conftest.py`` keep a failing Hypothesis
property a test failure under the tier-1 flags: pytest exits 1, not 3."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TIER1_FLAGS = ("-q", "-W", "error", "--continue-on-collection-errors", "--hypothesis-profile=ci")


def test_a_failing_property_exits_1_under_the_tier1_flags(tmp_path):
    pytest.importorskip("hypothesis")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    out = subprocess.run([sys.executable, "-m", "pytest", *TIER1_FLAGS, "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed" in out.stdout and "INTERNALERROR" not in out.stdout + out.stderr
