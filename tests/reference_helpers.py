"""Exact reference checks that only the tests call: the Jacobian's values
and its rank over Q, cofactor determinants, polynomial divisibility, the
per-monomial chart-change oracle, iterated total derivatives, the rank of
the jet matrix and the split identity behind the shifted coefficient fields."""

from fractions import Fraction
from itertools import product
from typing import Sequence

from jetframes.algebra import (
    Polynomial,
    _as_poly,
    _require_square,
    binomial_product,
    coord,
    iter_terms,
    jet,
    mi_sub,
    rank_rational,
)
from jetframes.analysis import chart_change_oracle
from jetframes.jetspace import JetContext, JetPoint, jacobian_matrix_at, total_derivative


def jacobian_values_at(point: JetPoint, ctx: JetContext) -> list:
    """The (n+1) x ambient Jacobian of the defining equations at the point,
    in Fractions: jacobian_matrix_at's integer rows divided by their scale."""
    rows, scale = jacobian_matrix_at(point, ctx)
    return [[Fraction(x, scale) for x in row] for row in rows]


def jacobian_rank_at(point: JetPoint, ctx: JetContext) -> int:
    """Rank over Q of the (n+1) x ambient Jacobian of the defining equations."""
    return rank_rational(jacobian_values_at(point, ctx))


def det_cofactor(matrix: Sequence[Sequence]) -> Polynomial:
    """Naive cofactor expansion; reference implementation for cross-checks."""
    m = [[_as_poly(x) for x in row] for row in matrix]
    _require_square(m)
    return _det_cofactor(m)


def _det_cofactor(m) -> Polynomial:
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Polynomial()
    sign = 1
    for j in range(k):
        a = m[0][j]
        if not a.is_zero():
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = total + sign * a * _det_cofactor(minor)
        sign = -sign
    return total


def monomial_oracle_order(p: Polynomial, upsilon: int, ctx: JetContext) -> int:
    """Independent oracle for pole_order: transport each monomial separately
    (no cross-term cancellation) and take the largest reduced exponent."""
    best = 0
    for pairs, c in iter_terms(p):
        _, exp = chart_change_oracle(Polynomial.monomial(pairs, c), upsilon, ctx)
        best = max(best, exp)
    return best


def divisible_by(p: Polynomial, divisor: Polynomial) -> bool:
    try:
        p.exact_div(divisor)
        return True
    except ValueError:
        return False


def iterated_total_derivative(p: Polynomial, order: int, ctx: JetContext) -> Polynomial:
    for _ in range(order):
        p = total_derivative(p, ctx)
    return p


def jet_matrix_rank(point: JetPoint, ctx: JetContext) -> int:
    rows = [
        [point.value(jet(i, lam)) for lam in range(1, ctx.n + 1)]
        for i in range(1, ctx.nvars + 1)
    ]
    return rank_rational(rows)


def wronskians_all_zero(point: JetPoint, ctx: JetContext) -> bool:
    """Membership in the locus where all n x n minors of the (n+1) x n jet
    matrix vanish, i.e. the jet matrix has rank < n."""
    return jet_matrix_rank(point, ctx) < ctx.n


def shift_split_identity(alpha, ell, js: Sequence[int], e1: int, ctx: JetContext) -> Polynomial:
    """The split sum over s <= ell of
    (-1)^{|s|} (ell choose s)  d^{e1}(z^{alpha-s})/dz_{j_1..j_{e1}} *
    d^{e-e1}(z^s)/dz_{j_{e1+1}..j_e};
    identically zero for every derivative count e <= n and every splitting."""
    alpha, ell = tuple(alpha), tuple(ell)
    total = Polynomial.zero()
    first, second = js[:e1], js[e1:]
    for sub in product(*(range(l + 1) for l in ell)):
        sign = -1 if sum(sub) % 2 else 1
        c = sign * binomial_product(ell, sub)
        p1 = ctx.monomial_z(mi_sub(alpha, sub))
        for j in first:
            p1 = p1.diff(coord(j))
        p2 = ctx.monomial_z(sub)
        for j in second:
            p2 = p2.diff(coord(j))
        total = total + c * p1 * p2
    return total
