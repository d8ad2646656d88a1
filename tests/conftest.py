"""Shared test helpers."""

import math
import random
from fractions import Fraction

import pytest

from jetframes.algebra import coord, jet
from jetframes.jetspace import JetContext


def _chart_inverted_point(upsilon: int, ctx: JetContext, rng: random.Random) -> tuple:
    """Values of the n-jet of one rational polynomial curve w(t) in the chart
    inverted through z_upsilon, and of its image z(t) in the original chart:
    z_i = w_i / w_upsilon for i != upsilon and z_upsilon = 1 / w_upsilon,
    expanded as power series, so independent of chart_transfer_pairs."""
    n = ctx.n
    curve = {
        i: [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n + 1)]
        for i in range(1, ctx.nvars + 1)
    }
    lead = curve[upsilon]
    lead[0] = Fraction(rng.randint(2, 9), rng.randint(10, 13))  # neither 0 nor +-1
    inverse = [1 / lead[0]]
    for m in range(1, n + 1):
        inverse.append(-sum(lead[j] * inverse[m - j] for j in range(1, m + 1)) / lead[0])
    new_vals, old_vals = {}, {}
    for i, w in curve.items():
        if i == upsilon:
            z = inverse
        else:
            z = [sum(w[j] * inverse[m - j] for j in range(m + 1)) for m in range(n + 1)]
        new_vals[coord(i)], old_vals[coord(i)] = w[0], z[0]
        for lam in range(1, n + 1):
            new_vals[jet(i, lam)] = math.factorial(lam) * w[lam]
            old_vals[jet(i, lam)] = math.factorial(lam) * z[lam]
    return new_vals, old_vals


@pytest.fixture
def chart_inverted_point():
    """A point in two charts computed without chart_transfer_pairs; see
    _chart_inverted_point."""
    return _chart_inverted_point
