"""The reparametrization action on points, polynomials and fields, with the
compositional inverse of a jet: test-only references around the pushforward
that jetframes.analysis uses."""

from fractions import Fraction

from jetframes.algebra import Polynomial, VectorField, jet
from jetframes.analysis import (
    ReparamJet,
    _invert_unipotent,
    _jet_substitution,
    action_matrix,
    pushforward_field,
)
from jetframes.frames import FrameField
from jetframes.jetspace import JetContext, JetPoint


def inverse_jet(rj: ReparamJet) -> ReparamJet:
    """The compositional inverse, read off the inverse action matrix (formal
    series inversion up to order n)."""
    inv = _invert_unipotent(action_matrix(rj), rj.n)
    return ReparamJet(rj.n, tuple(inv[k][1] for k in range(2, rj.n + 1)))


def reparam_point(point: JetPoint, rj: ReparamJet, ctx: JetContext) -> JetPoint:
    c = action_matrix(rj)
    assignment = dict(point.assignment)
    for i in range(1, ctx.nvars + 1):
        old = [point.value(jet(i, m)) for m in range(1, ctx.n + 1)]
        for lam in range(1, ctx.n + 1):
            assignment[jet(i, lam)] = sum(
                (c[lam][m] * old[m - 1] for m in range(1, lam + 1)), Fraction(0)
            )
    return JetPoint(assignment=assignment, chart=point.chart)


def reparam_polynomial(p: Polynomial, rj: ReparamJet, ctx: JetContext) -> Polynomial:
    """Substitute every jet variable by its transformed expression; the
    coordinates and coefficients are untouched."""
    return p.subs(_jet_substitution(action_matrix(rj), ctx))


def reparam_action(obj, rj: ReparamJet, ctx: JetContext):
    """Transform a point, a polynomial, or a vector field (pushforward)."""
    if isinstance(obj, JetPoint):
        return reparam_point(obj, rj, ctx)
    if isinstance(obj, Polynomial):
        return reparam_polynomial(obj, rj, ctx)
    if isinstance(obj, (VectorField, FrameField)):
        return pushforward_field(obj, rj, ctx)
    raise TypeError(f"cannot transform {type(obj).__name__}")
