"""Wronskian-type determinants and the Cramer-rule coefficient vectors that
make the coefficient vector fields tangent to the vertical jet space.

Two variants appear throughout:

* variant 1 works over the open set z_i' != 0 and uses the n x n matrix of
  total derivatives of the powers z_i, z_i^2, ..., z_i^n ("power Wronskian");
* variant 2 works where the classical n x n Wronskian of z_1, ..., z_n is
  nonzero and uses the plain jet matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Polynomial,
    coord,
    determinant,
    jet,
    mi_total,
    unit_index,
)
from .jetspace import JetContext, iterated_total_derivative, power_chain, power_jet_entry


def power_jet_matrix(i: int, ctx: JetContext) -> list:
    return [
        [power_jet_entry(ctx, i, k, kappa) for k in range(1, ctx.n + 1)]
        for kappa in range(1, ctx.n + 1)
    ]


@lru_cache(maxsize=None)
def power_wronskian(i: int, ctx: JetContext) -> Polynomial:
    """Determinant of the power-Wronskian matrix in chart i."""
    if not 1 <= i <= ctx.nvars:
        raise ValueError(f"chart must lie in 1..{ctx.nvars}")
    return determinant(power_jet_matrix(i, ctx))


def power_wronskian_closed_form(i: int, ctx: JetContext) -> Polynomial:
    """1! 2! ... n! times (z_i')^(n(n+1)/2)."""
    c = 1
    for k in range(1, ctx.n + 1):
        c *= math.factorial(k)
    return Polynomial.monomial([(jet(i, 1), ctx.n * (ctx.n + 1) // 2)], c)


def power_wronskian_identity_holds(n: int) -> bool:
    """Machine verification that the raw determinant expansion collapses to
    the factorial closed form (true for every n; checked by expansion)."""
    ctx = JetContext(n, n + 1)
    return power_wronskian(1, ctx) == power_wronskian_closed_form(1, ctx)


def jet_matrix(ctx: JetContext) -> list:
    """Entries z_k^(kappa) for rows kappa = 1..n, columns k = 1..n."""
    return [
        [Polynomial.var(jet(k, kappa)) for k in range(1, ctx.n + 1)]
        for kappa in range(1, ctx.n + 1)
    ]


@lru_cache(maxsize=None)
def classical_wronskian(ctx: JetContext) -> Polynomial:
    return determinant(jet_matrix(ctx))


VARIANT_POWER = 1
VARIANT_CLASSICAL = 2


def solved_exponents(variant: int, ctx: JetContext, chart: int | None = None) -> tuple:
    """Exponent vectors of the coefficient slots the graph representation
    solves for (excluding the constant slot alpha = 0)."""
    if variant == VARIANT_POWER:
        if chart is None:
            raise ValueError("variant 1 requires a chart index")
        return power_chain(ctx, chart)
    if variant == VARIANT_CLASSICAL:
        return tuple(unit_index(ctx.nvars, k) for k in range(1, ctx.n + 1))
    raise ValueError(f"unknown variant {variant}")


def excluded_exponents(variant: int, ctx: JetContext, chart: int | None = None) -> set:
    return {(0,) * ctx.nvars, *solved_exponents(variant, ctx, chart)}


@dataclass(frozen=True)
class CramerCoefficients:
    """The solved column multipliers: b = [B_0, B_1, ..., B_n].

    For k >= 1, B_k is the system determinant with the k-th column replaced by
    the column of total derivatives of z^alpha; B_0 closes the order-0 row.
    """

    variant: int
    alpha: tuple
    chart: int | None
    scale: Polynomial  # the system determinant (power or classical Wronskian)
    b: tuple

    def solved_row_polys(self, ctx: JetContext) -> list:
        """The polynomials multiplying B_1..B_n in the order-0 row: z_i^k for
        variant 1, z_k for variant 2."""
        if self.variant == VARIANT_POWER:
            return [Polynomial.var(coord(self.chart)) ** k for k in range(1, ctx.n + 1)]
        return [Polynomial.var(coord(k)) for k in range(1, ctx.n + 1)]


def cramer_coefficients(
    variant: int, alpha, ctx: JetContext, chart: int | None = None
) -> CramerCoefficients:
    """Solve the tangency system for the coefficient field attached to alpha
    by direct column-replacement determinants (Cramer's rule; the scale
    factor in front of the alpha-direction cancels the system determinant)."""
    alpha = tuple(alpha)
    if mi_total(alpha) > ctx.n:
        raise ValueError(f"|alpha| must be <= n, got {alpha}")
    if alpha in excluded_exponents(variant, ctx, chart):
        raise ValueError(f"{alpha} indexes a solved coefficient slot")
    if variant == VARIANT_POWER:
        matrix = power_jet_matrix(chart, ctx)
        scale = power_wronskian(chart, ctx)
    else:
        matrix = jet_matrix(ctx)
        scale = classical_wronskian(ctx)
    za = ctx.monomial_z(alpha)
    column = [iterated_total_derivative(za, kappa, ctx) for kappa in range(1, ctx.n + 1)]
    bs = []
    for k in range(ctx.n):
        replaced = [row[:k] + [column[kappa]] + row[k + 1:] for kappa, row in enumerate(matrix)]
        bs.append(determinant(replaced))
    coeffs = CramerCoefficients(
        variant=variant, alpha=alpha, chart=chart, scale=scale, b=(Polynomial.zero(), *bs)
    )
    row0 = coeffs.solved_row_polys(ctx)
    b0 = scale * za
    for bk, rk in zip(bs, row0):
        b0 = b0 - bk * rk
    return CramerCoefficients(
        variant=variant, alpha=alpha, chart=chart, scale=scale, b=(b0, *bs)
    )


def cramer_system_residuals(coeffs: CramerCoefficients, ctx: JetContext) -> list:
    """The defining linear system evaluated on the solution; every entry must
    be the zero polynomial."""
    za = ctx.monomial_z(coeffs.alpha)
    rows = []
    row0 = -coeffs.b[0] + coeffs.scale * za
    for bk, rk in zip(coeffs.b[1:], coeffs.solved_row_polys(ctx)):
        row0 = row0 - bk * rk
    rows.append(row0)
    for kappa in range(1, ctx.n + 1):
        row = coeffs.scale * iterated_total_derivative(za, kappa, ctx)
        for k, bk in enumerate(coeffs.b[1:], start=1):
            if coeffs.variant == VARIANT_POWER:
                col = power_jet_entry(ctx, coeffs.chart, k, kappa)
            else:
                col = Polynomial.var(jet(k, kappa))
            row = row - bk * col
        rows.append(row)
    return rows
