"""The Cramer systems that make the coefficient vector fields tangent to the
vertical jet space, and their determinants.

A variant is its solved coefficient slots beta_1..beta_n (besides the
constant slot alpha = 0), and both variants solve one system by Cramer's
rule: the n x n matrix [D^kappa(z^beta_k)], rows kappa = 1..n.

* variant 1 (chart i) solves the power chain beta_k = k e_i; its determinant,
  the power Wronskian, is 1! 2! ... n! (z_i')^(n(n+1)/2), nonzero where
  z_i' != 0;
* variant 2 solves the unit slots beta_k = e_k; its determinant is the
  classical Wronskian of z_1, ..., z_n.

Row kappa weighs kappa and column k weighs |beta_k|, so the multiplier B_k of
the field attached to alpha has pole order |alpha| + n(n+1)/2 + sum |beta| -
|beta_k| (with beta_0 = 0): at most n^2+2n for variant 1 and (n^2+5n)/2 for
variant 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Polynomial,
    adjugate,
    determinant,
    dot,
    jet,
    mi_total,
    unit_index,
)
from .jetspace import JetContext, monomial_jet_entry, power_chain

VARIANT_POWER = 1
VARIANT_CLASSICAL = 2
VARIANTS = ((VARIANT_POWER, "v1"), (VARIANT_CLASSICAL, "v2"))


def solved_exponents(variant: int, ctx: JetContext, chart: int | None = None) -> tuple:
    """Exponent vectors of the coefficient slots the graph representation
    solves for (excluding the constant slot alpha = 0).  The classical slots
    ignore the chart."""
    if variant == VARIANT_POWER:
        if chart is None:
            raise ValueError("variant 1 requires a chart index")
        return power_chain(ctx, chart)
    if variant == VARIANT_CLASSICAL:
        return tuple(unit_index(ctx.nvars, k) for k in range(1, ctx.n + 1))
    raise ValueError(f"unknown variant {variant}")


def excluded_exponents(variant: int, ctx: JetContext, chart: int | None = None) -> set:
    return {(0,) * ctx.nvars, *solved_exponents(variant, ctx, chart)}


def system_column(beta, ctx: JetContext) -> list:
    """[D^kappa(z^beta)] for kappa = 0..n: the column of slot beta in every
    Cramer system, row 0 being the order-0 row z^beta.  The systems, their
    solutions and the certificates about them read their entries here."""
    return [monomial_jet_entry(ctx, tuple(beta), kappa) for kappa in range(ctx.n + 1)]


def system_matrix(solved: tuple, ctx: JetContext) -> list:
    """Entries D^kappa(z^beta) for rows kappa = 1..n, one column per solved
    slot beta."""
    return [list(row) for row in zip(*(system_column(beta, ctx)[1:] for beta in solved))]


@lru_cache(maxsize=None)
def system_determinant(solved: tuple, ctx: JetContext) -> Polynomial:
    return determinant(system_matrix(solved, ctx))


@lru_cache(maxsize=None)
def system_adjugate(solved: tuple, ctx: JetContext) -> list:
    return adjugate(system_matrix(solved, ctx))


def adjugate_identity_holds(solved: tuple, ctx: JetContext) -> bool:
    """M adj(M) = W I for the system M over the solved slots, its cached
    adjugate and its cached determinant W: n^2 dots.  Row kappa >= 1 of the
    Cramer system of every alpha is then ((W I - M adj(M)) c_alpha)_kappa = 0,
    c_alpha = [D^kappa(z^alpha)]."""
    w = system_determinant(solved, ctx)
    columns = list(zip(*system_adjugate(solved, ctx)))
    return all(
        dot(zip(row, column)) == (w if i == j else 0)
        for i, row in enumerate(system_matrix(solved, ctx))
        for j, column in enumerate(columns)
    )


def power_wronskian(i: int, ctx: JetContext) -> Polynomial:
    """Determinant of the power-Wronskian matrix in chart i."""
    if not 1 <= i <= ctx.nvars:
        raise ValueError(f"chart must lie in 1..{ctx.nvars}")
    return system_determinant(solved_exponents(VARIANT_POWER, ctx, i), ctx)


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


def classical_wronskian(ctx: JetContext) -> Polynomial:
    """Determinant of the jet matrix z_k^(kappa), rows kappa, columns k = 1..n."""
    return system_determinant(solved_exponents(VARIANT_CLASSICAL, ctx), ctx)


@dataclass(frozen=True)
class CramerCoefficients:
    """The solved column multipliers: b = [B_0, B_1, ..., B_n].

    For k >= 1, B_k is the system determinant with the column of slot
    solved[k-1] replaced by the column of total derivatives of z^alpha, that
    is row k of the system's adjugate times that column; B_0 closes the
    order-0 row.
    """

    solved: tuple
    alpha: tuple
    scale: Polynomial  # the system determinant
    b: tuple


def cramer_system(variant: int, alpha, ctx: JetContext, chart: int | None = None) -> tuple:
    """The solved slots of the Cramer system of the coefficient field
    attached to alpha, once alpha is checked to be a free slot |alpha| <= n."""
    alpha = tuple(alpha)
    if mi_total(alpha) > ctx.n:
        raise ValueError(f"|alpha| must be <= n, got {alpha}")
    if alpha in excluded_exponents(variant, ctx, chart):
        raise ValueError(f"{alpha} indexes a solved coefficient slot")
    return solved_exponents(variant, ctx, chart)


def cramer_coefficients(
    variant: int, alpha, ctx: JetContext, chart: int | None = None
) -> CramerCoefficients:
    """Solve the tangency system for the coefficient field attached to alpha
    by Cramer's rule, B = adj(M) times the column of D^kappa(z^alpha) (the
    scale factor in front of the alpha-direction cancels the system
    determinant)."""
    alpha = tuple(alpha)
    solved = cramer_system(variant, alpha, ctx, chart)
    scale = system_determinant(solved, ctx)
    za, *column = system_column(alpha, ctx)
    bs = [dot(zip(row, column)) for row in system_adjugate(solved, ctx)]
    # the order-0 row: B_0 + sum_k B_k z^beta_k = scale * z^alpha
    b0 = dot([(scale, za), *((bk, -system_column(beta, ctx)[0]) for bk, beta in zip(bs, solved))])
    return CramerCoefficients(solved=solved, alpha=alpha, scale=scale, b=(b0, *bs))


def cramer_system_residuals(coeffs: CramerCoefficients, ctx: JetContext) -> list:
    """The defining linear system evaluated on the solution; every entry must
    be the zero polynomial."""
    za = ctx.monomial_z(coeffs.alpha)
    row0 = -coeffs.b[0] + coeffs.scale * za
    for bk, beta in zip(coeffs.b[1:], coeffs.solved):
        row0 = row0 - bk * ctx.monomial_z(beta)
    rows = [row0]
    for kappa, entries in enumerate(system_matrix(coeffs.solved, ctx), start=1):
        row = coeffs.scale * monomial_jet_entry(ctx, coeffs.alpha, kappa)
        for bk, col in zip(coeffs.b[1:], entries):
            row = row - bk * col
        rows.append(row)
    return rows
