"""The snapshot CSV kernel writes the text of '%.16e', byte for byte: on named edge
values, on drawn floats and matrices, and across its blocks."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from pfstrip.floatfmt import BLOCK, csv_rows

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def kernel(z) -> bytes:
    return b"".join(csv_rows(np.asarray(z, dtype=float)))


def ties() -> list[float]:
    """x = q / 2^(s+1) with q 5^s odd, so that x 10^s lies exactly halfway between two
    17-digit integers, for every s the vectorized lane uses; two q per s, one of each
    rounding direction."""
    out = []
    for s in range(1, 23):
        q = -(-2 * 10 ** 16 // 5 ** s) | 1
        for q in (q, q + 2):
            x = math.ldexp(q, -(s + 1))
            assert (Fraction(x) * 10 ** s).denominator == 2 and 10 ** 16 <= x * 10 ** s < 10 ** 17
            out.append(x)
    return out


POWERS = [y for k in range(-8, 19)
          for x in (float(Fraction(10) ** k),)
          for y in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))]
EDGES = ([0.0, -0.0, 5e-324, -5e-324, 1e-6, 9.999999999999999e-7, 1e308, -1e308,
          math.inf, -math.inf, math.nan, 2.2250738585072014e-308, 1.7976931348623157e308,
          1e17, 1e17 - 16.0]
         + POWERS + [-x for x in POWERS] + ties() + [-x for x in ties()])


def test_named_edges_match_percent_e():
    for x in EDGES:
        assert kernel([[x]]) == ("%.16e\n" % x).encode(), repr(x)
    z = np.resize(EDGES, (10, 30))   # every edge, and commas between them
    assert kernel(z) == oracles.percent_csv(z)


@DRAWS
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_drawn_floats_match_percent_e(x):
    assert kernel([[x]]) == ("%.16e\n" % x).encode()


@DRAWS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_drawn_matrices_match_percent_e(z):
    assert kernel(z) == oracles.percent_csv(z)


def test_blocks_of_whole_rows_match_percent_e(rng):
    """Rows split over several blocks, and rows longer than one block."""
    for shape in ((97, 96), (3, BLOCK + 5)):
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 19, shape)
        z.flat[::7] = 0.0
        chunks = list(csv_rows(z))
        assert len(chunks) == (math.ceil(shape[0] / (BLOCK // shape[1])) if shape[1] <= BLOCK
                               else shape[0])
        assert b"".join(chunks) == oracles.percent_csv(z)
