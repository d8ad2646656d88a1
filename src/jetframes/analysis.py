"""Pole-order accounting, the reparametrization-invariance checks, and the
spanning/rank verdicts.

Pole order of a polynomial in coordinates and jets is defined as the maximum
over its monomials of the per-variable weight sum, with weight(z_i) = 1 and
weight(z_i^(lam)) = lam + 1.  For a single monomial this equals the reduced
denominator exponent of the chart change, while multi-term objects may cancel
below it (the report records both numbers); the tests check both against an
independent chart-change oracle.

The reparametrization action on jets is Faa di Bruno's formula, summed over
the same jet-weight partitions as the equations' chain-rule route; the Lie
generators of G_n are read off its linear terms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .algebra import (
    COEFF,
    COORD,
    JET,
    IntegerPolynomial,
    Polynomial,
    VectorField,
    Variable,
    adjugate,
    common_integer_forms,
    enumerate_exponents,
    integer_bareiss,
    iter_terms,
    jet,
    mi_total,
    phi,
    rank_rational,
    sum_terms,
    var_name,
)
from .frames import CramerField, FrameField, admissible_coefficient_exponents, enumerate_frame, tangency_proof
from .jetspace import (
    JetContext,
    JetPoint,
    chain_matrix,
    first_jets_all_zero,
    jacobian_matrix_at,
    jet_weight_partitions,
    monomial_series,
    partition_coefficient,
    sample_vertical_jet,
    total_derivative,
)
from .wronskian import (
    VARIANT_POWER,
    VARIANTS,
    adjugate_identity_holds,
    classical_wronskian,
    cramer_coefficients,
    excluded_exponents,
    power_wronskian,
    solved_exponents,
    system_column,
    system_determinant,
)


class PoleOrder(NamedTuple):
    order: int
    uniform: bool


def variable_weight(v: Variable) -> int:
    if v[0] == COORD:
        return 1
    if v[0] == JET:
        return v[2] + 1
    raise ValueError(f"{var_name(v)} carries no chart weight (coordinates and jets only)")


def monomial_weight(mono) -> int:
    return sum(e * variable_weight(v) for v, e in mono)


def pole_order(p: Polynomial) -> PoleOrder:
    """Max over monomials of the weight sum, plus a uniformity flag."""
    if p.is_zero():
        return PoleOrder(0, True)
    weights = {monomial_weight(pairs) for pairs, _ in iter_terms(p)}
    return PoleOrder(max(weights), len(weights) == 1)


# -- pole table -------------------------------------------------------------------


@dataclass(frozen=True)
class PoleRow:
    name: str
    claimed: int
    computed: int
    uniform: bool
    match: bool
    method: str  # "expanded" or "structural"


@dataclass(frozen=True)
class PoleTableReport:
    n: int
    rows: tuple
    c_power: int
    c_classical: int
    alternate_w_claim: int
    alternate_w_matches: bool

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)


def _integer_curve_columns(ctx: JetContext, rng: random.Random):
    """Jet of a random integer polynomial curve, as truncated power series
    coefficients c_m = value^(m)/m! for each coordinate; exact and fast."""
    curve = []
    for _ in range(ctx.nvars):
        coeffs = [rng.randint(-9, 9) for _ in range(ctx.n + 1)]
        if coeffs[1] == 0:
            coeffs[1] = 1
        curve.append(coeffs)
    return curve


def verify_pole_table(ctx: JetContext, seed: int = 12345) -> PoleTableReport:
    """Compare computed pole orders of the named determinants against their
    closed forms.  The two Wronskians are expanded.  A Cramer coefficient is
    a determinant with entries D^kappa(z^beta); where each entry is uniform
    of weight |beta| + kappa (checked once per call), every monomial of its
    expansion has the claimed weight, so a nonzero exact integer value along
    a random curve proves its order without expanding it.  A row is expanded
    where that premise fails or its value draws zero."""
    n = ctx.n
    rng = random.Random(seed)
    rows = []

    delta = power_wronskian(1, ctx)
    po = pole_order(delta)
    rows.append(
        PoleRow("power_wronskian", n * n + n, po.order, po.uniform, po.order == n * n + n, "expanded")
    )

    w = classical_wronskian(ctx)
    pw = pole_order(w)
    w_claim = (n * n + 3 * n) // 2
    rows.append(
        PoleRow("classical_wronskian", w_claim, pw.order, pw.uniform, pw.order == w_claim, "expanded")
    )
    alternate = (n + 1) * (n + 2) // 2

    # D sends each coordinate and jet below order n to a uniform polynomial of
    # one more weight; D being a derivation, each nonzero D^kappa(z^beta) is
    # then uniform of weight |beta| + kappa
    structural = all(
        pole_order(total_derivative(Polynomial.var(v), ctx)) == (variable_weight(v) + 1, True)
        for v in ctx.coord_vars + ctx.jet_vars
        if v[0] == COORD or v[2] < n
    )
    series = monomial_series(_integer_curve_columns(ctx, rng), ctx)

    def column(alpha):
        """D^kappa(z^alpha) along the curve, kappa = 1..n."""
        return [math.factorial(kappa) * series[alpha][kappa] for kappa in range(1, n + 1)]

    for variant, label in VARIANTS:
        solved = solved_exponents(variant, ctx, 1)
        # the sum of the row weights 1..n and of the column weights |beta_k|
        base_order = n * (n + 1) // 2 + sum(map(mi_total, solved))
        base_cols = [column(beta) for beta in solved]
        row0 = [series[beta][0] for beta in solved]
        adj = [[x.constant_value() for x in row] for row in adjugate(list(zip(*base_cols)))]
        # (adj M)[0][0] = det M
        scale_val = sum(a * c for a, c in zip(adj[0], base_cols[0]))
        for alpha in admissible_coefficient_exponents(variant, ctx, 1):
            la = mi_total(alpha)
            alpha_col = column(alpha)
            # Cramer's rule: B_k is row k of adj times the column of z^alpha
            b_values = [sum(a * c for a, c in zip(row, alpha_col)) for row in adj]
            # B_k drops the column of beta_k (beta_0 = 0 for the order-0 row)
            claimed = [la + base_order - mi_total(beta) for beta in ((0,) * ctx.nvars, *solved)]
            b0_value = scale_val * series[alpha][0] - sum(bv * rv for bv, rv in zip(b_values, row0))
            values = [b0_value, *b_values]
            coeffs = None
            for k in range(n + 1):
                name = f"cramer[{label},a={alpha},k={k}]"
                if structural and values[k] != 0:
                    rows.append(PoleRow(name, claimed[k], claimed[k], True, True, "structural"))
                else:
                    if coeffs is None:
                        coeffs = cramer_coefficients(variant, alpha, ctx, 1)
                    pk = pole_order(coeffs.b[k])
                    rows.append(
                        PoleRow(name, claimed[k], pk.order, pk.uniform, pk.order == claimed[k], "expanded")
                    )

    c_power = max(r.computed for r in rows if r.name.startswith("cramer[v1"))
    c_classical = max(r.computed for r in rows if r.name.startswith("cramer[v2"))
    return PoleTableReport(
        n=n,
        rows=tuple(rows),
        c_power=c_power,
        c_classical=c_classical,
        alternate_w_claim=alternate,
        alternate_w_matches=pw.order == alternate,
    )


# -- reparametrization ------------------------------------------------------------


@dataclass(frozen=True)
class ReparamJet:
    """Jet of a source reparametrization tangent to the identity: the map is
    determined by its derivatives phi'' .. phi^(n) at the origin (phi' = 1)."""

    n: int
    values: tuple  # (phi'', ..., phi^(n)) as Fractions, length n - 1

    def __post_init__(self):
        if len(self.values) != max(self.n - 1, 0):
            raise ValueError("need exactly one value per derivative order 2..n")

    def value(self, k: int) -> Fraction:
        if k == 1:
            return Fraction(1)
        return Fraction(self.values[k - 2])

    @staticmethod
    def identity(n: int) -> "ReparamJet":
        return ReparamJet(n, tuple(Fraction(0) for _ in range(n - 1)))

    @staticmethod
    def random(n: int, rng: random.Random) -> "ReparamJet":
        return ReparamJet(
            n, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n - 1))
        )


@lru_cache(maxsize=None)
def action_coefficients_symbolic(n: int) -> tuple:
    """c[lam][m] as polynomials in the reparametrization derivatives, with
    phi' = 1: w^(lam) = sum_m c[lam][m] z^(m) for w = z o phi.  By Faa di
    Bruno's formula c[lam][m] is the partial Bell polynomial, a sum over the
    partitions of lam into m parts, each with mu parts of order l adding
    lam! / prod((l!)^mu mu!) prod_(l >= 2) (phi^(l))^mu."""
    out = [[None] * (n + 1) for _ in range(n + 1)]
    for lam in range(1, n + 1):
        terms = {m: [] for m in range(1, lam + 1)}
        for orders, mults in jet_weight_partitions(lam):
            pairs = [(phi(l), mu) for l, mu in zip(orders, mults) if l > 1]
            terms[sum(mults)].append((pairs, partition_coefficient(lam, orders, mults)))
        for m, parts in terms.items():
            out[lam][m] = sum_terms(parts)
    return tuple(map(tuple, out))


def action_matrix(rj: ReparamJet) -> list:
    """Lower-triangular unipotent matrix of the jet action: rational entries
    c[lam][m] with 1 <= m <= lam <= n."""
    sym = action_coefficients_symbolic(rj.n)
    binds = {phi(k): rj.value(k) for k in range(2, rj.n + 1)}
    out = [[Fraction(0)] * (rj.n + 1) for _ in range(rj.n + 1)]
    for lam in range(1, rj.n + 1):
        for m in range(1, lam + 1):
            out[lam][m] = Fraction(sym[lam][m].subs(binds).constant_value())
    return out


@lru_cache(maxsize=None)
def reparam_generators(ctx: JetContext) -> tuple:
    """V_2 .. V_n: the jet fields of the flows t -> t + eps t^k, which span
    the Lie algebra of the group G_n of reparametrization n-jets tangent to
    the identity (empty for n = 1, where G_n is trivial).  They come from the
    same action_coefficients_symbolic as action_matrix: phi^(k)(0) = k! eps
    along the flow, so V_k moves z_i^(lam) by k! times the derivative of
    c[lam][m] in phi^(k) at the identity, its phi^(k)-linear coefficient,
    times z_i^(m), summed over m."""
    sym = action_coefficients_symbolic(ctx.n)
    generators = []
    for k in range(2, ctx.n + 1):
        coeffs = {}
        linear = [(phi(k), 1)]
        for lam in range(1, ctx.n + 1):
            rates = [(m, math.factorial(k) * sym[lam][m].coefficient(linear)) for m in range(1, lam + 1)]
            for i in range(1, ctx.nvars + 1):
                coeffs[jet(i, lam)] = sum_terms((((jet(i, m), 1),), rate) for m, rate in rates)
        generators.append(VectorField(coeffs))
    return tuple(generators)


def _invert_unipotent(c: list, n: int) -> list:
    """Inverse of a unipotent lower-triangular matrix by exact forward substitution."""
    inv = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        inv[j][j] = Fraction(1)
        for r in range(j + 1, n + 1):
            inv[r][j] = -sum((c[r][k] * inv[k][j] for k in range(j, r)), Fraction(0))
    return inv


def _jet_substitution(matrix_rows, ctx: JetContext) -> dict:
    binds = {}
    for i in range(1, ctx.nvars + 1):
        for m in range(1, ctx.n + 1):
            total = Polynomial.zero()
            for j in range(1, ctx.n + 1):
                if matrix_rows[m][j] != 0:
                    total = total + matrix_rows[m][j] * Polynomial.var(jet(i, j))
            binds[jet(i, m)] = total
    return binds


@lru_cache(maxsize=1)
def _pushforward_maps(rj: ReparamJet, ctx: JetContext) -> tuple:
    """The action matrix of rj and the inverse jet substitution; every field
    pushed forward by one draw shares them."""
    c = action_matrix(rj)
    return c, _jet_substitution(_invert_unipotent(c, rj.n), ctx)


def pushforward_field(field, rj: ReparamJet, ctx: JetContext) -> VectorField:
    """Express the field in the transformed jet coordinates: directions mix
    by the action matrix, coefficient functions by the inverse substitution."""
    vf = field.field if isinstance(field, FrameField) else field
    c, binds = _pushforward_maps(rj, ctx)
    pushed: dict = {}
    for v, coeff_poly in vf.items():
        moved = coeff_poly.subs(binds)
        if v[0] == JET:
            i, m = v[1], v[2]
            for lam in range(m, ctx.n + 1):
                if c[lam][m] != 0:
                    target = jet(i, lam)
                    pushed[target] = pushed.get(target, Polynomial.zero()) + c[lam][m] * moved
        else:
            pushed[v] = pushed.get(v, Polynomial.zero()) + moved
    return VectorField(pushed)


def invariance_check(field, rj: ReparamJet, ctx: JetContext) -> bool:
    """Exact structural equality of the field with its pushforward."""
    vf = field.field if isinstance(field, FrameField) else field
    return pushforward_field(field, rj, ctx) == vf


@lru_cache(maxsize=None)
def _generators_act_on_columns(ctx: JetContext) -> bool:
    """The context's facts behind _cramer_invariant: each generator V_k moves
    only jets, by directions that hold only jets, and sends every column
    entry D^kappa(z^beta), |beta| <= n, kappa = 1..n, to
    C(kappa, k) k! D^(kappa-k+1)(z^beta), and to 0 for kappa < k.  So V_k
    acts on every column of the Cramer systems, solved or not, by one
    strictly lower triangular integer matrix N_k: V_k(M) = N_k M and
    V_k(c_alpha) = N_k c_alpha."""
    columns = [system_column(beta, ctx)[1:] for beta in enumerate_exponents(ctx.nvars, ctx.n)]
    for k, v in enumerate(reparam_generators(ctx), start=2):
        if any(u[0] != JET or any(w[0] != JET for w in c.variables()) for u, c in v.items()):
            return False
        for column in columns:
            for kappa, entry in enumerate(column, start=1):
                image = v.apply(entry)
                if kappa < k:
                    if not image.is_zero():
                        return False
                elif image != math.comb(kappa, k) * math.factorial(k) * column[kappa - k]:
                    return False
    return True


@lru_cache(maxsize=None)
def _cramer_invariant(solved: tuple, ctx: JetContext) -> bool:
    """True when every CramerField over the solved slots commutes with every
    V_k, from _generators_act_on_columns, W != 0, V_k(W) = 0 and
    M adj(M) = W I.  Then det(M) det(adj(M)) = W^n != 0, so
    adj(M) = W M^-1 and V_k(adj(M)) = -W M^-1 N_k M M^-1 = -adj(M) N_k;
    hence V_k(B) = -adj(M) N_k c_alpha + adj(M) N_k c_alpha = 0 for
    B = adj(M) c_alpha, and V_k(B_0) = 0, V_k fixing every z^gamma.  At
    each variable v, [V_k, X_alpha] is V_k(X_v) - X_alpha(V_k,v): the first
    is V_k of W, B_0 or B_k, and the second is 0, since X_alpha moves only
    coefficients and V_k's directions hold only jets."""
    w = system_determinant(solved, ctx)
    return (
        not w.is_zero()
        and _generators_act_on_columns(ctx)
        and all(v.apply(w).is_zero() for v in reparam_generators(ctx))
        and adjugate_identity_holds(solved, ctx)
    )


def invariance_proved(field, ctx: JetContext) -> bool:
    """True iff [V_k, field] = 0 for every generator of reparam_generators.
    Then invariance_check holds for every draw: G_n is connected and
    unipotent, so exp maps its Lie algebra onto it, and the jet action is a
    homomorphism.  A nonzero bracket means some element of G_n moves the
    field.  A CramerField is decided from its Cramer data where
    _cramer_invariant holds, with no field expanded; otherwise, and for
    every other field, by the brackets."""
    if isinstance(field, CramerField) and field.ctx == ctx and _cramer_invariant(field.solved, ctx):
        return True
    vf = field.field if isinstance(field, FrameField) else field
    return all(not v.bracket(vf).coeffs for v in reparam_generators(ctx))


# -- spanning ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpanningTrial:
    index: int
    tangent_ok: bool
    first_offender: str | None
    jacobian_rank: int
    rank: int
    expected_rank: int

    @property
    def ok(self) -> bool:
        return self.tangent_ok and self.rank == self.expected_rank


def field_vector(field: FrameField, point: JetPoint, ctx: JetContext) -> list:
    """The field's value at the point, one Fraction per ambient variable, by
    Polynomial.evaluate; the reference the integer rows of spanning_check are
    tested against."""
    return [
        Fraction(field.field.get(v).evaluate(point.assignment)) if v in field.field.coeffs else Fraction(0)
        for v in ctx.ambient_variables
    ]


def _field_forms(field: FrameField, ctx: JetContext, columns: Sequence[int] | None = None) -> list:
    """(ambient index, integer form) for each direction the field moves, or
    for those among the given ambient indices, the forms sharing one scale
    and degree.  A CramerField read at its own slot alone gives W's form,
    one per system, without expanding the field."""
    ambient = ctx.ambient_variables
    if isinstance(field, CramerField) and columns is not None and {ambient[j] for j in columns} == {field.slot}:
        return [(j, _determinant_form(field.solved, ctx)) for j in columns]
    directions = field.field.coeffs
    indices = range(len(ambient)) if columns is None else columns
    slots = [(j, directions[ambient[j]]) for j in indices if ambient[j] in directions]
    forms = common_integer_forms([p for _, p in slots])
    return [(j, form) for (j, _), form in zip(slots, forms)]


class SpanPatternError(ValueError):
    """The fields break the block-triangular pattern span_pattern reads; the
    message names the field and the column."""


@dataclass(frozen=True)
class SpanPattern:
    """The pivots of a frame whose rows are block upper triangular once the
    excluded slots' columns are dropped.  The columns are the jets, the
    coordinates, then the free coefficient slots, longest first.  The jet
    block (the rows that move a jet) meets the jet columns; every coordinate
    and free column has one pivot row, which is zero on every column before
    its pivot."""

    pivots: tuple  # (row, ambient column) of each coordinate and free pivot
    jet_rows: tuple
    jet_columns: tuple  # ambient indices

    def entries(self) -> dict:
        """{row: the ambient columns certifies reads in it}."""
        read = {r: [c] for r, c in self.pivots}
        for r in self.jet_rows:
            read.setdefault(r, []).extend(self.jet_columns)
        return read

    def certifies(self, rows) -> bool:
        """True when every pivot entry of the integer rows is nonzero and the
        jet block has full column rank on the jet columns, by exact
        elimination.  The rows then have rank at least the number of columns
        kept: ambient - (n + 1), the excluded slots being 0 and the n solved
        slots.  Only the entries() are read, so rows[r][c] may come from
        mappings that hold just those; a row scaled by a positive integer
        gives the same verdict."""
        if not all(rows[r][c] for r, c in self.pivots):
            return False
        block = tuple(tuple(rows[r][c] for c in self.jet_columns) for r in self.jet_rows)
        return _column_rank(block) == len(self.jet_columns)


@lru_cache(maxsize=1)
def _column_rank(block: tuple) -> int:
    """The rank of an integer matrix, kept for the last matrix asked: the
    variants' frames share their jet block, so at each point of a spanning
    pass the second variant's certificate reads the first one's
    elimination.  The pass empties it when it ends."""
    return integer_bareiss(block)[0]


def span_pattern(fields: Sequence[FrameField], ctx: JetContext, chart: int, variant: int) -> SpanPattern:
    """Read the block-triangular pattern off the supports of the symbolic
    fields.  A free slot is a coefficient slot outside excluded_exponents.
    A row that moves a coordinate moves exactly one, by a nonzero constant,
    and no jet.  Any other row that moves a jet belongs to the jet block.
    Every remaining row has its pivot at its longest free slot, and every
    other free slot it moves is strictly shorter.  Every coordinate and free
    column is the pivot of exactly one row.  Raises SpanPatternError, naming
    the field and the column, where the fields break this.

    A CramerField of this variant's system with W != 0 is read without
    expanding it: besides the excluded slots a_0 and a_(beta_k), it moves
    a_alpha alone, by W."""
    index = {v: j for j, v in enumerate(ctx.ambient_variables)}
    excluded = {ctx.coeff_var(alpha) for alpha in excluded_exponents(variant, ctx, chart)}
    solved = solved_exponents(variant, ctx, chart)
    owner: dict = {}  # pivot column -> label of its row
    pivots = []
    jet_rows = []
    for r, f in enumerate(fields):
        if isinstance(f, CramerField) and f.ctx == ctx and f.solved == solved and not f.scale.is_zero():
            moved = {f.slot: f.scale}  # its nonzero columns outside the excluded ones
        else:
            moved = {v: c for v, c in f.field.items() if v in index}  # the row's nonzero columns
        coords = [v for v in moved if v[0] == COORD]
        jets = [v for v in moved if v[0] == JET]
        if coords:
            pivot = coords[0]
            if len(coords) > 1:
                raise SpanPatternError(f"{f.label} moves a second coordinate, {var_name(coords[1])}")
            if jets:
                raise SpanPatternError(f"{f.label} moves a coordinate and the jet {var_name(jets[0])}")
            if not moved[pivot].is_constant():
                raise SpanPatternError(f"{f.label} moves {var_name(pivot)} by a nonconstant entry")
        elif jets:
            jet_rows.append(r)
            continue
        else:
            free = sorted(
                ((mi_total(v[1:]), v) for v in moved if v[0] == COEFF and v not in excluded), reverse=True
            )
            if not free:
                raise SpanPatternError(f"{f.label} moves no free slot")
            if len(free) > 1 and free[1][0] == free[0][0]:
                raise SpanPatternError(
                    f"{f.label} moves {var_name(free[1][1])}, as long as its pivot {var_name(free[0][1])}"
                )
            pivot = free[0][1]
        if pivot in owner:
            raise SpanPatternError(f"{var_name(pivot)} is the pivot of both {owner[pivot]} and {f.label}")
        owner[pivot] = f.label
        pivots.append((r, index[pivot]))
    for v in ctx.coord_vars + ctx.coeff_vars:
        if v not in owner and v not in excluded:
            raise SpanPatternError(f"no field has its pivot at {var_name(v)}")
    jet_columns = tuple(index[v] for v in ctx.jet_vars)
    return SpanPattern(tuple(pivots), tuple(jet_rows), jet_columns)


# Inadmissible draws in a row after which a variant gives up.  The degenerate
# loci are proper subvarieties, so a uniform draw rarely lands on one; hitting
# the limit means the sampler is broken, not unlucky.
SAMPLE_ATTEMPTS = 1000


class SamplingError(RuntimeError):
    """No draw left the degenerate locus within SAMPLE_ATTEMPTS tries."""


@lru_cache(maxsize=None)
def _determinant_form(solved: tuple, ctx: JetContext) -> IntegerPolynomial:
    """The integer form of the system determinant W over the solved slots."""
    return IntegerPolynomial(system_determinant(solved, ctx))


class _Draw:
    """One sampled point, and what every variant's trial reads of it, each
    taken at most once: rank J and each integer form's numerator."""

    def __init__(self, point: JetPoint, ctx: JetContext, chart: int):
        self.point = point
        self.ctx, self.chart = ctx, chart
        self._values: dict = {}  # integer form -> its numerator here

    def value(self, form: IntegerPolynomial) -> int:
        if form not in self._values:
            self._values[form] = form.numerator(self.point.integer_point)
        return self._values[form]

    def row(self, columns, forms) -> dict:
        """{column: integer entry} of a row read at the columns, from the
        forms of its nonzero entries there."""
        row = dict.fromkeys(columns, 0)
        row.update((j, self.value(form)) for j, form in forms)
        return row

    @cached_property
    def chain_minor_nonzero(self) -> bool:
        """J's minor on the columns a_0, a_(e_c), ..., a_(n e_c) (c the
        chart) is det(chain_matrix) up to a nonzero integer, the a_0 column
        being (1, 0, ..., 0); where it is nonzero, rank J = n+1."""
        return integer_bareiss(chain_matrix(self.point.series(self.ctx)[1], self.ctx, self.chart))[1] != 0

    @cached_property
    def jacobian(self) -> list:
        return jacobian_matrix_at(self.point, self.ctx)[0]

    @cached_property
    def jacobian_rank(self) -> int:
        return rank_rational(self.jacobian)


def _admissible_draws(ctx: JetContext, chart: int, rng: random.Random, variants: Sequence[int], trials: int):
    """Yield (draw, takers) until each variant has trials points: every
    draw is offered to each variant still short of them, and takers are the
    indices of those it is admissible for, in the open locus the variant
    needs: first jets not all zero (automatic: the chart jet is nonzero),
    and a nonvanishing system determinant of the variant's solved slots
    (automatic for the power chain on its own chart: c (z_chart')^m).  So a
    variant's t-th point is the t-th admissible draw of the stream, as if it
    drew alone.  A variant that meets SAMPLE_ATTEMPTS inadmissible draws in
    a row raises SamplingError."""
    forms = [_determinant_form(solved_exponents(variant, ctx, chart), ctx) for variant in variants]
    needed = [trials] * len(variants)
    misses = [0] * len(variants)
    while any(needed):
        draw = _Draw(sample_vertical_jet(ctx, chart, rng), ctx, chart)
        flat = first_jets_all_zero(draw.point, ctx)
        takers = []
        for k, variant in enumerate(variants):
            if not needed[k]:
                continue
            if flat or draw.value(forms[k]) == 0:
                misses[k] += 1
                if misses[k] == SAMPLE_ATTEMPTS:
                    raise SamplingError(
                        f"no admissible point for variant {variant} on chart {chart} "
                        f"in {SAMPLE_ATTEMPTS} draws at (n, d) = ({ctx.n}, {ctx.d})"
                    )
                continue
            misses[k] = 0
            needed[k] -= 1
            takers.append(k)
        if takers:
            yield draw, takers


def sample_for_variant(ctx: JetContext, chart: int, variant: int, rng: random.Random) -> JetPoint:
    """The first admissible draw for the variant (see _admissible_draws);
    rng advances past that draw and no further."""
    draw, _ = next(_admissible_draws(ctx, chart, rng, (variant,), 1))
    return draw.point


def _full_rows(fields, compiled, ipoint, jac, ctx) -> tuple[list, str | None]:
    """Each field's full integer row at the point, from its compiled forms,
    and, when the Jacobian rows jac are given, the label of the first field
    some row of jac does not annihilate (None when every field does)."""
    vectors = []
    offender = None
    for f, forms in zip(fields, compiled):
        entries = [(j, form.numerator(ipoint)) for j, form in forms]
        vec = [0] * ctx.ambient_dimension
        for j, x in entries:
            vec[j] = x
        vectors.append(vec)
        if jac is not None and offender is None:
            if any(sum(row[j] * x for j, x in entries) for row in jac):
                offender = f.label
    return vectors, offender


class _VariantSpan:
    """One variant's spanning check in a pass: its frame, pattern and
    certificate, read once, and its trials, one per admissible draw."""

    def __init__(self, ctx: JetContext, chart: int, variant: int, fields, forms: dict):
        self.ctx = ctx
        self.variant = variant
        self.cached = fields is None
        self.fields = enumerate_frame(ctx, chart, variant) if self.cached else fields
        self.expected = ctx.ambient_dimension - (ctx.n + 1)
        try:
            self.pattern = span_pattern(self.fields, ctx, chart, variant)
        except SpanPatternError:
            self.pattern = None
        self.proved = self.cached and tangency_proof(ctx, chart).holds
        self._forms = forms
        # with tangency proved, the certificate's entries are all a point needs
        self.certificate = None
        if self.proved and self.pattern is not None:
            self.certificate = [
                (r, columns, self._forms_of(self.fields[r], tuple(columns)))
                for r, columns in self.pattern.entries().items()
            ]
        self.compiled = None  # every field's full forms, built on first need
        self.results = []

    def _forms_of(self, field, columns) -> list:
        """_field_forms, built once per pass: the variants' frames share
        their variant-free fields, and so each form's value at a draw."""
        key = (field, columns)
        if key not in self._forms:
            self._forms[key] = _field_forms(field, self.ctx, columns)
        return self._forms[key]

    def trial(self, draw: _Draw) -> None:
        ctx = self.ctx
        if self.cached and draw.chain_minor_nonzero:
            jrank = ctx.n + 1
        else:
            jrank = draw.jacobian_rank
        offender = None
        certified = False
        if self.certificate is not None and jrank == ctx.n + 1:
            certified = self.pattern.certifies({r: draw.row(c, forms) for r, c, forms in self.certificate})
        if not certified:
            if self.compiled is None:
                self.compiled = [self._forms_of(f, None) for f in self.fields]
            jac = None if self.proved else draw.jacobian
            vectors, offender = _full_rows(self.fields, self.compiled, draw.point.integer_point, jac, ctx)
            if self.certificate is None:
                certified = (
                    offender is None
                    and jrank == ctx.n + 1
                    and self.pattern is not None
                    and self.pattern.certifies(vectors)
                )
        self.results.append(
            SpanningTrial(
                index=len(self.results),
                tangent_ok=offender is None,
                first_offender=offender,
                jacobian_rank=jrank,
                rank=self.expected if certified else rank_rational(vectors),
                expected_rank=self.expected,
            )
        )


def _spanning_pass(ctx: JetContext, chart: int, trials: int, seed: int, checks: Sequence[tuple]) -> list:
    """One SpanningTrial list per (variant, fields) of checks, from one
    stream of draws: each draw is lifted once and checked for every variant
    it is admissible for, then dropped."""
    forms: dict = {}  # (field, columns) -> integer forms; the frames share their variant-free fields
    spans = [_VariantSpan(ctx, chart, variant, fields, forms) for variant, fields in checks]
    draws = _admissible_draws(ctx, chart, random.Random(seed), [span.variant for span in spans], trials)
    for draw, takers in draws:
        for k in takers:
            spans[k].trial(draw)
    _column_rank.cache_clear()  # the last point's jet block; no point outlives the pass
    return [span.results for span in spans]


def spanning_checks(ctx: JetContext, chart: int = 1, trials: int = 5, seed: int = 0) -> list:
    """spanning_check of the cached frame for each variant of VARIANTS, in
    that order, in one pass: each draw is made, lifted and certified once,
    its chain minor and the variant-free entries taken once, and each
    variant's t-th trial is at the point spanning_check gives it."""
    return _spanning_pass(ctx, chart, trials, seed, [(variant, None) for variant, _ in VARIANTS])


def spanning_check(
    ctx: JetContext,
    chart: int = 1,
    trials: int = 5,
    seed: int = 0,
    variant: int = VARIANT_POWER,
    fields: Sequence[FrameField] | None = None,
) -> list:
    """For each trial: sample a point in the variant's admissible locus
    (the t-th admissible draw of random.Random(seed)), verify every
    enumerated field is tangent there (annihilates all Jacobian rows), and
    check the stacked field values span the full tangent space.  It is the
    one-variant case of the pass spanning_checks makes for both.

    All of it runs on integer rows: each field's row is its value times
    scale * D^degree (its integer forms, built once per pass, share one
    scale and degree; D is the point's common denominator), and
    jacobian_matrix_at gives the Jacobian times one integer.  Scaling a row
    by a nonzero integer changes neither tangency nor any rank.

    Tangent fields lie in ker J, of dimension expected once rank J = n+1, so
    the field rank is at most expected.  The frame's span_pattern, read once
    per pass, proves it at least expected wherever its pivots hold.  Where
    they fail, or the fields break the pattern, rank_rational decides.

    Fields passed explicitly take the full pointwise route, the reference:
    the integer product of every row with J, rank_rational on J's n+1 rows,
    and the certificate on the full rows.  The cached frame (fields=None)
    takes three certificates instead, each with that route as its fallback:
    - tangency_proof proves every field tangent, once per process;
    - J's minor on the columns a_0, a_(e_c), ..., a_(n e_c) (c the chart) is
      det(chain_matrix) up to a nonzero integer, the a_0 column being
      (1, 0, ..., 0), and proves rank J = n+1 where it is nonzero;
    - the rows are evaluated only at the pattern's entries(), and in full
      only where the certificate declines."""
    (results,) = _spanning_pass(ctx, chart, trials, seed, [(variant, fields)])
    return results
