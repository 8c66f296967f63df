"""The numpy formatter of long CSVs against CPython's own ``'%.17g' % v``."""
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wentzell4 import csvtext

pytestmark = pytest.mark.skipif(not csvtext.X87, reason="the formatter needs the x87 longdouble")


def _expected(values, start=0):
    k, m = values.shape
    rows = zip(range(start, start + m), *values.tolist())
    return ("%d" + ",%.17g" * k + "\n") * m % tuple(itertools.chain.from_iterable(rows))


def _settled(values):
    return csvtext._fields(np.array(values, dtype=float))[1]


def _bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_rows_match_the_format_on_any_floats(values):
    block = np.array([values])
    assert csvtext.rows(block) == _expected(block)


@given(st.lists(st.integers(0, 2**64 - 1).map(_bits), min_size=1, max_size=64))
def test_rows_match_the_format_on_any_bit_pattern(values):
    block = np.array([values])
    assert csvtext.rows(block) == _expected(block)


# exact ties at the 17th digit: half of a unit in the last place, whose
# neighbour digit is odd (rounds up) or even (rounds down)
TIES = [(2**53 - 1) / 4, (2**53 - 3) / 4, (2**50 - 1) / 8, (2**50 - 3) / 8]


def test_exact_ties_round_half_even_by_the_fallback():
    assert ["%.17g" % v for v in TIES] == [
        "2251799813685247.8", "2251799813685247.2", "140737488355327.88", "140737488355327.62"]
    values = TIES + [-v for v in TIES]
    assert not _settled(values).any()
    block = np.array([values])
    assert csvtext.rows(block) == _expected(block)


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]


EDGES = [
    # the ends of 17 digits and of fixed notation, and a few decades
    *_around(1e16), *_around(1e17), *_around(1e-4), *_around(1e-5), *_around(1e-38),
    *_around(1.0), *_around(0.1), *_around(1e22), *_around(1e23), *_around(1e300),
    # subnormals and the extremes of float64
    5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    # values with trailing zeros, integer digits and nothing after the point
    100.0, 1e15, 123456789012345680.0, 0.5, 0.25, 1.5e-5, 12.0,
    0.0, -0.0, math.inf, -math.inf, math.nan,
]


def test_edge_values_match_the_format():
    values = EDGES + [-v for v in EDGES]
    block = np.array([values])
    assert csvtext.rows(block) == _expected(block)
    # zeros, inf and nan always take the fallback
    for v, settled in zip(values, _settled(values)):
        if v == 0.0 or not math.isfinite(v):
            assert not settled


def test_rows_of_several_columns_and_large_indices():
    rng = np.random.default_rng(1)
    block = rng.standard_normal((4, 40)) * 10.0 ** rng.integers(-30, 30, (4, 40))
    for start in (0, 1, 10**8 - 20, 10**8, 10**15):
        assert csvtext.rows(block, start) == _expected(block, start)
