"""Exact reference checks that only the tests call: the rank of the Jacobian
over Q and polynomial divisibility."""

from jetframes.algebra import Polynomial, rank_rational
from jetframes.jetspace import JetContext, JetPoint, jacobian_matrix_at


def jacobian_rank_at(point: JetPoint, ctx: JetContext) -> int:
    """Rank over Q of the (n+1) x ambient Jacobian of the defining equations."""
    return rank_rational(jacobian_matrix_at(point, ctx))


def divisible_by(p: Polynomial, divisor: Polynomial) -> bool:
    try:
        p.exact_div(divisor)
        return True
    except ValueError:
        return False
