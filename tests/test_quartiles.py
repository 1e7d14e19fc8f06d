"""The whisker threshold's quartiles against ``np.percentile``, bit for bit.

``whisker_threshold`` computes numpy's "linear" percentile itself, because
``np.percentile`` imports ``numpy.ma`` on first use under numpy 2; these
properties pin it to ``np.percentile`` for any finite input.
"""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from aadetect.detector import _linear_quantile, whisker_threshold  # noqa: E402
from oracles import percentile_whisker  # noqa: E402

# Bounded so that Q3 + 1.5 * IQR stays finite; subnormals are drawn too.
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
spread = st.lists(finite, min_size=4, max_size=300)
tied = st.lists(finite, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=4, max_size=300))
rounded = st.lists(st.integers(-20, 20).map(lambda k: k / 8), min_size=4, max_size=3000)
SUBNORMAL = 5e-324


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@settings(max_examples=300, deadline=None)
@given(st.one_of(spread, tied, rounded))
@example([1.0, 2.0, 3.0, 4.0])
@example([SUBNORMAL, 2 * SUBNORMAL, -SUBNORMAL, 7 * SUBNORMAL, 0.0])
@example([-0.0, 0.0, -0.0, 0.0])
@example([1e300, -1e300, 1e300, -1e300, 3.0])
@example([0.1, 0.1, 0.1, 0.7, 0.7, 0.7, 0.7])
def test_quartiles_are_np_percentile_bit_for_bit(vals):
    ordered = np.sort(np.asarray(vals, dtype=float))
    q1, q3 = np.percentile(vals, [25.0, 75.0])
    assert bits(_linear_quantile(ordered, 0.25)) == bits(q1)
    assert bits(_linear_quantile(ordered, 0.75)) == bits(q3)
    assert bits(whisker_threshold(vals)) == bits(percentile_whisker(vals))
