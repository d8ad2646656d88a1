"""Variable universe for parameters (n, d), the total differentiation
operator, the n+1 defining equations of the vertical jet space in the affine
chart (built by two independent routes), and certified sample points.  The
values of the equations and of their derivatives at a point are read off
truncated power series along the curve germ whose n-jet the point is.

Conventions: coordinates z_1..z_{n+1}; hypersurface coefficients a_alpha for
|alpha| <= d excluding the normalized slot alpha = (d,0,...,0), which is the
constant 1; jet coordinates z_i^(lam) for 1 <= lam <= n.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from typing import Sequence

from .algebra import (
    JET,
    IntegerPoint,
    IntegerPolynomial,
    Polynomial,
    Variable,
    VectorField,
    coeff,
    coord,
    enumerate_exponents,
    falling_product,
    integer_bareiss,
    jet,
    mi_sub,
    mi_total,
    sum_terms,
    unit_index,
    var_name,
)


@dataclass(frozen=True)
class JetContext:
    """Parameters (n, d) with d > n, plus derived variable bookkeeping,
    built once per context; equality and hashing read (n, d) only."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("jet order n must be >= 1")
        if self.d <= self.n:
            raise ValueError(f"degree d must exceed the jet order n (got n={self.n}, d={self.d})")

    @property
    def nvars(self) -> int:
        return self.n + 1

    @cached_property
    def normalized_exponent(self) -> tuple:
        """The slot (d, 0, ..., 0) whose coefficient is the constant 1."""
        return (self.d,) + (0,) * self.n

    @cached_property
    def coeff_exponents(self) -> tuple:
        exps = enumerate_exponents(self.nvars, self.d)
        return tuple(a for a in exps if a != self.normalized_exponent)

    @property
    def num_coeffs(self) -> int:
        return math.comb(self.nvars + self.d, self.d) - 1

    @cached_property
    def coord_vars(self) -> tuple:
        return tuple(coord(i) for i in range(1, self.nvars + 1))

    @cached_property
    def jet_vars(self) -> tuple:
        return tuple(
            jet(i, lam) for lam in range(1, self.n + 1) for i in range(1, self.nvars + 1)
        )

    @cached_property
    def coeff_vars(self) -> tuple:
        return tuple(coeff(a) for a in self.coeff_exponents)

    @cached_property
    def ambient_variables(self) -> tuple:
        """Coordinates, then coefficients, then jets grouped by order."""
        return self.coord_vars + self.coeff_vars + self.jet_vars

    @property
    def ambient_dimension(self) -> int:
        return (self.nvars) + self.num_coeffs + self.n * self.nvars

    def coeff_var(self, alpha: Sequence[int]) -> Variable:
        alpha = tuple(alpha)
        if len(alpha) != self.nvars or any(e < 0 for e in alpha):
            raise ValueError(f"bad exponent vector {alpha}")
        if mi_total(alpha) > self.d:
            raise ValueError(f"|{alpha}| exceeds the degree {self.d}")
        if alpha == self.normalized_exponent:
            raise ValueError("the normalized coefficient slot is the constant 1, not a variable")
        return coeff(alpha)

    def coeff_poly(self, alpha: Sequence[int]) -> Polynomial:
        """a_alpha as a polynomial; the normalized slot yields the constant 1."""
        alpha = tuple(alpha)
        if alpha == self.normalized_exponent:
            return Polynomial.const(1)
        return Polynomial.var(self.coeff_var(alpha))

    def monomial_z(self, alpha: Sequence[int]) -> Polynomial:
        return Polynomial.monomial(
            ((coord(i + 1), e) for i, e in enumerate(alpha) if e), 1
        )


@lru_cache(maxsize=None)
def _total_derivation(ctx: JetContext) -> VectorField:
    """D = sum_k sum_(lam < n) z_k^(lam+1) d/dz_k^(lam), with z_k^(0) = z_k."""
    directions = {}
    for i in range(1, ctx.nvars + 1):
        directions[coord(i)] = Polynomial.var(jet(i, 1))
        for lam in range(1, ctx.n):
            directions[jet(i, lam)] = Polynomial.var(jet(i, lam + 1))
    return VectorField(directions)


def total_derivative(p: Polynomial, ctx: JetContext) -> Polynomial:
    """Apply the total differentiation operator: z_k^(lam) -> z_k^(lam+1),
    with coordinates counting as order-0 jets.  Inputs touching order-n jets
    are rejected, since the result would leave the order-n universe."""
    top = [v for v in p.variables() if v[0] == JET and v[2] >= ctx.n]
    if top:
        raise ValueError(f"total derivative of {var_name(min(top))} leaves the order-{ctx.n} jet space")
    return _total_derivation(ctx).apply(p)


@lru_cache(maxsize=None)
def power_chain(ctx: JetContext, chart: int) -> tuple:
    """The exponents k * e_chart, k = 1..n: the coefficient slots besides the
    constant one that the power chart solves for."""
    return tuple(tuple(k * e for e in unit_index(ctx.nvars, chart)) for k in range(1, ctx.n + 1))


@lru_cache(maxsize=None)
def monomial_jet_entry(ctx: JetContext, beta: tuple, kappa: int) -> Polynomial:
    """D^kappa(z^beta): the entry of a Cramer system matrix at row kappa,
    column beta, and the one home of these derivatives (kappa >= 0)."""
    if kappa == 0:
        return ctx.monomial_z(beta)
    return total_derivative(monomial_jet_entry(ctx, beta, kappa - 1), ctx)


@lru_cache(maxsize=None)
def universal_polynomial(ctx: JetContext) -> Polynomial:
    """z_1^d + sum of a_alpha z^alpha over all coefficient slots."""
    return sum_terms(
        [([(coord(1), ctx.d)], 1)]
        + [
            ([(v, 1)] + [(coord(i), e) for i, e in enumerate(alpha, start=1)], 1)
            for alpha, v in zip(ctx.coeff_exponents, ctx.coeff_vars)
        ]
    )


@lru_cache(maxsize=None)
def defining_equations_iterated(ctx: JetContext) -> tuple:
    """E_0 and its first n total derivatives."""
    eqs = [universal_polynomial(ctx)]
    for _ in range(ctx.n):
        eqs.append(total_derivative(eqs[-1], ctx))
    return tuple(eqs)


def jet_weight_partitions(kappa: int):
    """All (orders, multiplicities) with distinct orders l_1 < ... < l_e,
    multiplicities >= 1 and sum(l_i * m_i) = kappa."""
    out = []

    def rec(min_order: int, remaining: int, orders: list, mults: list):
        if remaining == 0:
            out.append((tuple(orders), tuple(mults)))
            return
        for lam in range(min_order, remaining + 1):
            max_mult = remaining // lam
            for mu in range(1, max_mult + 1):
                orders.append(lam)
                mults.append(mu)
                rec(lam + 1, remaining - lam * mu, orders, mults)
                orders.pop()
                mults.pop()

    rec(1, kappa, [], [])
    return out


def partition_coefficient(kappa: int, orders: Sequence[int], mults: Sequence[int]) -> int:
    """kappa! / prod((l_i!)^(m_i) * m_i!)."""
    denom = 1
    for lam, mu in zip(orders, mults):
        denom *= math.factorial(lam) ** mu * math.factorial(mu)
    return math.factorial(kappa) // denom


def defining_equations_partition_sum(ctx: JetContext) -> tuple:
    """The same equations assembled from the closed higher-order chain-rule
    sum over jet-weight partitions; independent of the iterated route.  Not
    cached: the equations suite compares it once, then drops it."""
    return (universal_polynomial(ctx),) + tuple(
        sum_terms(_chain_rule_terms(ctx, kappa)) for kappa in range(1, ctx.n + 1)
    )


def _chain_rule_terms(ctx: JetContext, kappa: int):
    """The terms (pairs, c) of E_kappa = D^kappa(sum_alpha a_alpha z^alpha),
    one at a time.  A term picks, for each block of mu derivatives of order
    lam of a partition, a multiset of the coordinates of z^alpha; c is the
    partition coefficient times each block's multinomial times the falling
    product of the picked counts."""
    shapes = [
        (orders, mults, partition_coefficient(kappa, orders, mults))
        for orders, mults in jet_weight_partitions(kappa)
    ]
    for alpha in [*ctx.coeff_exponents, ctx.normalized_exponent]:
        a_pairs = [] if alpha == ctx.normalized_exponent else [(ctx.coeff_var(alpha), 1)]
        support = [j for j, e in enumerate(alpha, start=1) if e]
        for orders, mults, base in shapes:
            for combos in product(*(combinations_with_replacement(support, mu) for mu in mults)):
                c, counts, jet_pairs = base, [0] * ctx.nvars, []
                for lam, mu, combo in zip(orders, mults, combos):
                    # the blocks have distinct orders: one pair per jet variable
                    c *= math.factorial(mu)
                    for j in set(combo):
                        k = combo.count(j)
                        c //= math.factorial(k)
                        counts[j - 1] += k
                        jet_pairs.append((jet(j, lam), k))
                c *= falling_product(alpha, counts)
                if c:
                    rem = mi_sub(alpha, counts)
                    yield [(coord(j), e) for j, e in enumerate(rem, start=1)] + jet_pairs + a_pairs, c


@dataclass(frozen=True)
class JetPoint:
    """Exact rational assignment to every ambient variable; constructed points
    are certified to satisfy all defining equations."""

    assignment: dict
    chart: int | None = None
    _series: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value(self, v: Variable) -> Fraction:
        return self.assignment[v]

    def series(self, ctx: JetContext) -> tuple:
        """(s, {alpha: I_alpha}): monomial_series along the point's curve germ
        scaled by s, kept per context.  D0 is the lcm of the denominators of
        the coordinates and the jets and s = D0 * n!, so the germ's
        coefficients z_i^(lam) * s / lam! are integers and
        I_alpha = s^|alpha| z(t)^alpha mod t^(n+1) is an integer series.  It
        reads only the coordinates and the jets, so the sampler may compute
        it before it solves the coefficients."""
        if ctx not in self._series:
            values = [
                [self.value(coord(i))] + [self.value(jet(i, lam)) for lam in range(1, ctx.n + 1)]
                for i in range(1, ctx.nvars + 1)
            ]
            s = math.lcm(*(x.denominator for row in values for x in row)) * math.factorial(ctx.n)
            curve = [
                [x.numerator * (s // (x.denominator * math.factorial(lam))) for lam, x in enumerate(row)]
                for row in values
            ]
            self._series[ctx] = (s, monomial_series(curve, ctx))
        return self._series[ctx]

    @cached_property
    def integer_point(self) -> IntegerPoint:
        """The assignment over its common denominator, with the power cache
        that every polynomial evaluated at this point shares.  Read it only
        once the assignment is complete."""
        return IntegerPoint(self.assignment)

    def to_json(self) -> str:
        data = {var_name(v): str(Fraction(val)) for v, val in sorted(self.assignment.items())}
        if self.chart is not None:
            data["_chart"] = str(self.chart)
        return json.dumps(data, sort_keys=True)


def _series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j > order:
                    break
                if bj:
                    out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def _series_plan(ctx: JetContext) -> tuple:
    """Each |alpha| <= d but 0 in graded order, so parents come first, with
    its parent alpha - e_j and j, its first nonzero slot (0-based)."""
    firsts = ((alpha, next(i for i, e in enumerate(alpha) if e)) for alpha in enumerate_exponents(ctx.nvars, ctx.d)[1:])
    return tuple((alpha, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:], j) for alpha, j in firsts)


def monomial_series(curve: Sequence[Sequence], ctx: JetContext) -> dict:
    """{alpha: z(t)^alpha mod t^(n+1)} for every |alpha| <= d, along the curve
    z_i(t) = sum_m curve[i-1][m] t^m.  Every pointwise value of D^kappa(z^alpha)
    is kappa! times a coefficient of these series.  Each alpha is its parent
    alpha - e_j times z_j(t), in the order of _series_plan."""
    series = {(0,) * ctx.nvars: [1] + [0] * ctx.n}
    for alpha, parent, j in _series_plan(ctx):
        series[alpha] = _series_mul(series[parent], curve[j], ctx.n)
    return series


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        if q != 0 or not nonzero:
            return q


def sample_vertical_jet(
    ctx: JetContext,
    chart: int = 1,
    rng: random.Random | int | None = None,
) -> JetPoint:
    """Draw a random point of the vertical jet space over the open set
    z_chart' != 0: coordinates and jets are random rationals, and
    lift_vertical_jet completes them."""
    if not 1 <= chart <= ctx.nvars:
        raise ValueError(f"chart must lie in 1..{ctx.nvars}")
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng)
    assignment: dict = {}
    for v in ctx.coord_vars:
        assignment[v] = random_rational(rng)
    for v in ctx.jet_vars:
        assignment[v] = random_rational(rng)
    assignment[jet(chart, 1)] = random_rational(rng, nonzero=True)
    return lift_vertical_jet(assignment, ctx, chart, rng)


def lift_vertical_jet(base: dict, ctx: JetContext, chart: int, rng: random.Random) -> JetPoint:
    """The point of the vertical jet space over the given coordinates and
    jets, with z_chart' != 0: the free coefficients are random rationals, and
    the chain a_0, a_{e_i}, ..., a_{n e_i} is solved exactly from the defining
    equations (the power-jet system is invertible there)."""
    assignment = dict(base)
    point = JetPoint(assignment=assignment, chart=chart)
    s, series = point.series(ctx)
    # E_kappa = kappa! [t^kappa] sum_alpha a_alpha z(t)^alpha: a_0 enters E_0
    # only, and the last n equations are linear in the solved chain.  Over
    # q * s^d, q the lcm of the drawn denominators, the known part of the
    # sum is the integer series K = sum_alpha (q a_alpha) s^(d-|alpha|) I_alpha
    solved = power_chain(ctx, chart)
    drawn = _drawn_slots(ctx, chart)
    for _, v in drawn:
        assignment[v] = random_rational(rng)
    q = math.lcm(*(assignment[v].denominator for _, v in drawn))
    powers = [s**k for k in range(ctx.d + 1)]
    known = [q * x for x in series[ctx.normalized_exponent]]
    for alpha, v in drawn:
        a = assignment[v]
        c = a.numerator * (q // a.denominator) * powers[ctx.d - mi_total(alpha)]
        known = [x + c * y for x, y in zip(known, series[alpha])]
    # E_1..E_n times q * s^d / kappa!, linear in y_k = a_(k e_chart) q s^(d-k)
    solution = integer_bareiss(chain_matrix(series, ctx, chart), [-x for x in known[1:]])[2]
    scale = q * powers[ctx.d]
    for k, (alpha, y) in enumerate(zip(solved, solution), start=1):
        assignment[coeff(alpha)] = Fraction(y * powers[k], scale)
    e0 = known[0] + sum(y * series[alpha][0] for alpha, y in zip(solved, solution))
    assignment[coeff((0,) * ctx.nvars)] = Fraction(-e0, scale)

    ipoint = point.integer_point
    if any(form.numerator(ipoint) for form in _equation_forms(ctx)):
        residues = [
            Fraction(form.numerator(ipoint), form.denominator(ipoint)) for form in _equation_forms(ctx)
        ]
        raise RuntimeError(
            f"sampled point fails certification: residues {residues} at {point.to_json()}"
        )
    return point


@lru_cache(maxsize=None)
def _drawn_slots(ctx: JetContext, chart: int) -> tuple:
    """(alpha, a_alpha) of each coefficient the sampler draws: every slot but
    a_0 and the power chain, which lift_vertical_jet solves."""
    solved = power_chain(ctx, chart)
    return tuple(
        (alpha, v)
        for alpha, v in zip(ctx.coeff_exponents, ctx.coeff_vars)
        if any(alpha) and alpha not in solved
    )


def chain_matrix(series: dict, ctx: JetContext, chart: int) -> list:
    """[I_(k e_chart)[kappa]], rows kappa = 1..n, columns k = 1..n, from a
    point's integer series: the system the sampler solves for the power
    chain.  Row kappa is row kappa of the power Wronskian [D^kappa(z_chart^k)]
    over kappa!, column k scaled by s^k, so its determinant is
    (s z_chart')^(n(n+1)/2), nonzero wherever z_chart' != 0."""
    solved = power_chain(ctx, chart)
    return [[series[alpha][kap] for alpha in solved] for kap in range(1, ctx.n + 1)]


@lru_cache(maxsize=None)
def _equation_forms(ctx: JetContext) -> tuple:
    """The integer forms of defining_equations_iterated, the sampler's certificate."""
    return tuple(IntegerPolynomial(eq) for eq in defining_equations_iterated(ctx))


def first_jets_all_zero(point: JetPoint, ctx: JetContext) -> bool:
    """Membership in the locus where every first-order jet vanishes."""
    return all(point.value(jet(i, 1)) == 0 for i in range(1, ctx.nvars + 1))


def jacobian_matrix_at(point: JetPoint, ctx: JetContext) -> tuple:
    """(rows, R): the (n+1) x ambient Jacobian of the defining equations at
    the point, times R and in integers, read off the monomial series along
    its curve germ: dE_kappa/da_alpha is kappa! [t^kappa] z(t)^alpha.  By
    the commutation rule
    d(D^kappa f)/dz^(lam) = C(kappa, lam) D^(kappa-lam)(df/dz), with z^(0) = z,
    dE_kappa/dz_i^(lam) is C(kappa, lam) (kappa-lam)! [t^(kappa-lam)] G_i for
    lam <= kappa and 0 above, where G_i = sum_alpha a_alpha alpha_i z(t)^(alpha - e_i).

    R = Q s^d, Q the lcm of the coefficients' denominators and (s, I) the
    point's series: a coefficient column is kappa! Q s^(d-|alpha|) I_alpha,
    and R G_i is the integer series
    sum_alpha (Q a_alpha) alpha_i s^(d+1-|alpha|) I_(alpha - e_i)."""
    n, d = ctx.n, ctx.d
    s, series = point.series(ctx)
    coeffs = {alpha: point.value(v) for alpha, v in zip(ctx.coeff_exponents, ctx.coeff_vars)}
    q = math.lcm(*(a.denominator for a in coeffs.values()))
    coeffs[ctx.normalized_exponent] = 1
    powers = [s**k for k in range(d + 2)]
    grads = [[0] * (n + 1) for _ in range(ctx.nvars)]
    for alpha, a in coeffs.items():
        if not a:
            continue
        c = a.numerator * (q // a.denominator) * powers[d + 1 - mi_total(alpha)]
        for i, e in enumerate(alpha):
            if e:
                parent = alpha[:i] + (e - 1,) + alpha[i + 1:]
                grads[i] = [x + e * c * y for x, y in zip(grads[i], series[parent])]

    def jet_entry(kappa, lam, i):
        if lam > kappa:
            return 0
        return math.comb(kappa, lam) * math.factorial(kappa - lam) * grads[i][kappa - lam]

    rows = [
        [jet_entry(kappa, 0, i) for i in range(ctx.nvars)]
        + [
            math.factorial(kappa) * q * powers[d - mi_total(alpha)] * series[alpha][kappa]
            for alpha in ctx.coeff_exponents
        ]
        + [jet_entry(kappa, lam, i) for lam in range(1, n + 1) for i in range(ctx.nvars)]
        for kappa in range(n + 1)
    ]
    return rows, q * powers[d]
