"""Property tests of the polynomial kernel and of the per-point integer series,
with hypothesis (test-only)."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetframes.algebra import (  # noqa: E402
    IntegerPoint,
    IntegerPolynomial,
    LinearSolveError,
    Polynomial,
    VectorField,
    _integer_rows,
    coeff,
    common_integer_forms,
    coord,
    determinant,
    dot,
    enumerate_exponents,
    integer_adjugate,
    integer_bareiss,
    iter_terms,
    jet,
    mat,
    rank_rational,
    solve_linear_exact,
    sum_terms,
    unit_index,
)
from jetframes.analysis import sample_for_variant  # noqa: E402
from jetframes.frames import _remainder_columns  # noqa: E402
from jetframes.jetspace import JetContext, JetPoint, chain_matrix, monomial_series, power_chain  # noqa: E402
from jetframes.wronskian import VARIANT_POWER  # noqa: E402

from reference_helpers import (  # noqa: E402
    bracket_on_every_direction,
    det_cofactor,
    integer_bareiss_by_products,
    jacobian_values_at,
    remainder_by_products,
)

# one variable of every kind a table or an equation can hold
VARIABLES = (coord(1), coord(2), jet(1, 1), jet(2, 2), coeff((0, 1)), coeff((1, 0)), mat(1, 2))

scalars = st.fractions(min_value=-6, max_value=6, max_denominator=4)
monomials = st.lists(
    st.tuples(st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=3)),
    max_size=4,
    unique_by=lambda pair: pair[0],
)
polynomials = st.lists(st.tuples(monomials, scalars), max_size=8).map(
    lambda terms: sum((Polynomial.monomial(m, c) for m, c in terms), Polynomial())
)


def _power_rule_partial(p, v):
    """dp/dv term by term, the reference for the derivation kernel: a term
    c * v^e * rest gives c * e * v^(e-1) * rest."""
    total = Polynomial()
    for mono, c in iter_terms(p):
        e = dict(mono).get(v, 0)
        if e:
            total = total + Polynomial.monomial([(w, f - (w == v)) for w, f in mono], c * e)
    return total


@settings(max_examples=200, deadline=None)
@given(polynomials)
def test_gradient_equals_every_nonzero_partial(p):
    partials = {v: _power_rule_partial(p, v) for v in VARIABLES}
    assert p.gradient(p.variables()) == {v: d for v, d in partials.items() if not d.is_zero()}
    assert all(p.diff(v) == d for v, d in partials.items())


@settings(max_examples=100, deadline=None)
@given(polynomials, st.sets(st.sampled_from(VARIABLES)))
def test_restricted_gradient_keeps_only_the_named_variables(p, subset):
    assert p.gradient(subset) == {v: d for v, d in p.gradient(p.variables()).items() if v in subset}


def test_gradient_normalizes_integral_coefficients():
    p = Polynomial.var(coord(1), 2, Fraction(1, 2))
    (d,) = p.gradient(p.variables()).values()
    assert d == Polynomial.var(coord(1)) and type(d.coefficient([(coord(1), 1)])) is int


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    zero, one = Polynomial(), Polynomial.const(1)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p + (-p)).is_zero() and p - q == p + (-q)


def _canonical(p):
    """No zero coefficient is stored and integral ones are ints."""
    return all(c != 0 and (type(c) is int or c.denominator != 1) for _, c in iter_terms(p))


operands = st.one_of(polynomials, scalars, st.integers(min_value=-6, max_value=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(operands, operands | st.integers(min_value=-6, max_value=6)), max_size=5))
@example([])
@example([(Polynomial.var(coord(1), 1, Fraction(1, 2)), 2)]).via("an int weight clearing a Fraction")
@example([(Polynomial.var(coord(1), 1, Fraction(1, 3)), 3), (Polynomial.var(coord(1)), -1)]).via("int weights cancelling")
@example([(Fraction(2, 3), 0), (Polynomial.var(jet(1, 1)), 0)]).via("zero int weights")
def test_dot_is_the_sum_of_products(pairs):
    total = dot(iter(pairs))
    assert type(total) is Polynomial and _canonical(total)
    assert total == sum((p * q for p, q in pairs), Polynomial())
    # each product cancels against its negative: nothing, not a zero, is stored
    assert dot(pairs + [(p, -q) for p, q in pairs]).terms == {}


@settings(max_examples=200, deadline=None)
@given(operands, polynomials)
def test_difference_is_the_sum_with_the_negative(a, p):
    for left, right in ((p, a), (a, p), (p, p)):
        got = left - right
        assert type(got) is Polynomial and _canonical(got)
        assert got == left + (-right)
    assert (p - p).terms == {}


# bindings stay small, so that substituting twice keeps few terms
small_polynomials = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=2)),
            max_size=2,
            unique_by=lambda pair: pair[0],
        ),
        scalars,
    ),
    max_size=3,
).map(lambda terms: sum((Polynomial.monomial(m, c) for m, c in terms), Polynomial()))
bindings = st.dictionaries(st.sampled_from(VARIABLES), small_polynomials, max_size=2)


@settings(max_examples=60, deadline=None)
@given(polynomials, bindings, bindings)
def test_substitutions_compose(p, first, second):
    # substituting first, then second, is substituting v -> first[v] after second
    composed = {v: b.subs(second) for v, b in first.items()}
    composed.update({v: b for v, b in second.items() if v not in first})
    assert p.subs(first).subs(second) == p.subs(composed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(monomials, scalars), max_size=8), st.randoms(use_true_random=False))
def test_sum_terms_ignores_order_and_splitting(terms, rnd):
    expected = sum((Polynomial.monomial(m, c) for m, c in terms), Polynomial())
    pieces = []
    for mono, c in terms:
        cut = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        shuffled = list(mono)
        rnd.shuffle(shuffled)
        pieces += [(shuffled, c - cut), (mono[::-1], cut)]
    rnd.shuffle(pieces)
    assert sum_terms(terms) == sum_terms(pieces) == expected
    assert sum_terms(iter_terms(expected)) == expected
    # the read view gives sorted pairs and nonzero coefficients
    assert all(list(mono) == sorted(mono) and c != 0 for mono, c in iter_terms(expected))


fields = st.dictionaries(st.sampled_from(VARIABLES), polynomials, max_size=3).map(VectorField)


# rational values with zeros, negatives and several denominators
assignments = st.fixed_dictionaries(
    {v: st.fractions(min_value=-9, max_value=9, max_denominator=7) for v in VARIABLES}
)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials, assignments)
def test_integer_form_divides_back_to_evaluate(p, q, values):
    point = IntegerPoint(values)
    assert all(x == Fraction(n, point.den) for x, n in zip(values.values(), point.numerators.values()))
    forms = [IntegerPolynomial(p), IntegerPolynomial(q), *common_integer_forms([p, q])]
    for poly, form in zip((p, q, p, q), forms):
        num = form.numerator(point)
        assert type(num) is int
        assert form.denominator(point) == form.scale * point.den**form.degree > 0
        assert Fraction(num, form.denominator(point)) == poly.evaluate(values)


@settings(max_examples=100, deadline=None)
@given(fields, polynomials, polynomials)
def test_vector_field_obeys_the_leibniz_rule(x, p, q):
    assert x.apply(p * q) == x.apply(p) * q + p * x.apply(q)


def _field_sum(*xs):
    directions = {v for x in xs for v in x.coeffs}
    return VectorField({v: sum((x.get(v) for x in xs), Polynomial()) for v in directions})


# coefficients stay small, so that brackets of brackets keep few terms
small_fields = st.dictionaries(st.sampled_from(VARIABLES), small_polynomials, max_size=3).map(VectorField)


@settings(max_examples=100, deadline=None)
@given(fields, fields, polynomials)
def test_bracket_is_the_commutator_of_derivations(x, y, p):
    assert x.bracket(y).apply(p) == x.apply(y.apply(p)) - y.apply(x.apply(p))


# two fields over disjoint variables: neither moves what the other holds
disjoint_fields = st.tuples(
    st.dictionaries(st.sampled_from(VARIABLES[:3]), polynomials.filter(lambda p: p.variables() <= set(VARIABLES[:3])), max_size=3),
    st.dictionaries(st.sampled_from(VARIABLES[3:]), polynomials.filter(lambda p: p.variables() <= set(VARIABLES[3:])), max_size=3),
).map(lambda pair: tuple(map(VectorField, pair)))


@settings(max_examples=150, deadline=None)
@given(st.tuples(fields, fields) | disjoint_fields)
def test_bracket_applies_each_field_only_where_the_other_moves(pair):
    x, y = pair
    assert x.bracket(y) == bracket_on_every_direction(x, y)
    assert y.bracket(x) == bracket_on_every_direction(y, x)


@settings(max_examples=100, deadline=None)
@given(fields, fields)
def test_bracket_is_antisymmetric(x, y):
    assert x.bracket(y) == VectorField({v: -c for v, c in y.bracket(x).items()})
    assert not x.bracket(x).coeffs


@settings(max_examples=60, deadline=None)
@given(small_fields, small_fields, small_fields)
def test_bracket_obeys_the_jacobi_identity(x, y, z):
    assert not _field_sum(x.bracket(y.bracket(z)), y.bracket(z.bracket(x)), z.bracket(x.bracket(y))).coeffs


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials.filter(lambda q: not q.is_zero()))
def test_exact_division_undoes_multiplication(p, q):
    assert (p * q).exact_div(q) == p


@st.composite
def square_systems(draw):
    """A nonsingular integer matrix (checked by cofactor expansion, the
    reference) with one polynomial right side per row."""
    size = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-9, max_value=9)
    a = draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size))
    hypothesis.assume(not det_cofactor(a).is_zero())
    return a, draw(st.lists(polynomials, min_size=size, max_size=size))


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_solution_satisfies_the_system(system):
    a, b = system
    x = solve_linear_exact(a, b)
    assert [sum((c * xi for c, xi in zip(row, x)), Polynomial()) for row in a] == b


@st.composite
def integer_systems(draw):
    """An integer matrix of any shape, with small entries so that singular
    and inconsistent systems are common, and one int right side per row."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-3, max_value=3)
    a = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return a, draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=nrows, max_size=nrows))


@settings(max_examples=200, deadline=None)
@given(integer_systems())
@example(([[1, 1], [2, 2]], [1, 3])).via("inconsistent")
@example(([[1, 1], [2, 2]], [1, 2])).via("underdetermined")
@example(([[2, 1], [1, 3], [1, -2]], [3, 4, -1])).via("overdetermined, consistent")
def test_scalar_right_sides_solve_as_polynomial_ones(system):
    # integer_bareiss keeps int right sides as scalars; solve_linear_exact
    # wraps them in polynomials: both give one solution, or the same error
    a, b = system
    try:
        expected = [x.constant_value() for x in solve_linear_exact(a, b)]
    except LinearSolveError as error:
        with pytest.raises(type(error)):
            integer_bareiss(a, b)
        return
    x = integer_bareiss(a, b)[2]
    assert all(isinstance(xi, (int, Fraction)) for xi in x)
    assert x == expected
    assert [sum(c * xi for c, xi in zip(row, x)) for row in a] == b


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k), min_size=k, max_size=k)
)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
@example([[0]]).via("zero 1 x 1")
@example([[1, 2], [2, 4]]).via("rank 1")
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).via("a zero column")
@example([[0, 2], [3, 1]]).via("a row swap")
def test_integer_adjugate_is_the_determinant_times_the_inverse(a):
    det, adj = integer_adjugate(a)
    assert det == det_cofactor(a).constant_value()
    if det == 0:
        assert adj is None
        return
    size = range(len(a))
    scalar = [[det * (i == j) for j in size] for i in size]
    assert [[sum(a[i][r] * adj[r][j] for r in size) for j in size] for i in size] == scalar
    assert [[sum(adj[i][r] * a[r][j] for r in size) for j in size] for i in size] == scalar
    assert all(type(x) is int for row in adj for x in row)


@st.composite
def polynomial_systems(draw):
    """An integer matrix of any shape, with small entries so that singular
    and inconsistent systems are common, and right sides that are
    polynomials (one at least) or scalars."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-3, max_value=3)
    a = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.one_of(small_polynomials, scalars), min_size=nrows, max_size=nrows))
    b[draw(st.integers(min_value=0, max_value=nrows - 1))] = draw(small_polynomials)
    return a, b


@settings(max_examples=200, deadline=None)
@given(polynomial_systems())
@example(([[1, 1], [2, 2]], [Polynomial.var(coord(1)), Polynomial.var(coord(1), 1, 2)])).via("underdetermined")
@example(([[1, 1], [2, 2]], [Polynomial.var(coord(1)), 1])).via("inconsistent")
@example(([[0, 2], [3, 1]], [Polynomial.var(jet(1, 1)), Fraction(1, 2)])).via("a row swap")
def test_polynomial_right_sides_solve_as_the_product_loop(system):
    a, b = system
    try:
        expected = integer_bareiss_by_products(a, b)
    except LinearSolveError as error:
        with pytest.raises(type(error)):
            integer_bareiss(a, b)
        return
    rank, det, x = integer_bareiss(a, b)
    assert (rank, det) == expected[:2] and x == expected[2]
    assert all(type(xi) is Polynomial and _canonical(xi) for xi in x)


def _remainder_cases(ctx):
    for rho in (ctx.normalized_exponent, *ctx.coeff_exponents):
        for e in range(1, ctx.n + 1):
            for js in combinations_with_replacement(range(1, ctx.nvars + 1), e):
                yield rho, js, ctx


REMAINDER_CASES = [case for nd in [(1, 2), (2, 3), (3, 4)] for case in _remainder_cases(JetContext(*nd))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REMAINDER_CASES))
def test_remainder_is_its_sum_of_products(case):
    rho, js, ctx = case
    # the one row of js in the int columns, each column's entry times its monomial a_gamma * m(l, j)
    got = dot((monomial, y) for monomial, column in _remainder_columns(rho, (js,), ctx) for _, y in column)
    assert got == -remainder_by_products(*case) and _canonical(got)


def _truncated_product(a, b):
    """The product of two power series, cut after the length of a."""
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


@st.composite
def curves_and_exponents(draw):
    """A context, a rational curve with one series per coordinate, and two
    exponents whose sum has degree at most d."""
    ctx = draw(st.sampled_from([JetContext(2, 3), JetContext(3, 4)]))
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    curve = draw(st.lists(
        st.lists(coefficients, min_size=ctx.n + 1, max_size=ctx.n + 1),
        min_size=ctx.nvars, max_size=ctx.nvars,
    ))
    exponents = enumerate_exponents(ctx.nvars, ctx.d)
    alpha = draw(st.sampled_from(exponents))
    beta = draw(st.sampled_from([b for b in exponents if sum(alpha) + sum(b) <= ctx.d]))
    return ctx, curve, alpha, beta


@settings(max_examples=100, deadline=None)
@given(curves_and_exponents())
def test_monomial_series_multiply_as_truncated_series(case):
    ctx, curve, alpha, beta = case
    series = monomial_series(curve, ctx)
    total = tuple(a + b for a, b in zip(alpha, beta))
    assert series[total] == _truncated_product(series[alpha], series[beta])
    for i in range(1, ctx.nvars + 1):
        assert series[unit_index(ctx.nvars, i)] == curve[i - 1]


@st.composite
def jet_points(draw):
    """A context and a point with random rational coordinates and jets."""
    ctx = draw(st.sampled_from([JetContext(1, 2), JetContext(2, 3), JetContext(3, 4)]))
    values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return ctx, JetPoint(assignment={v: draw(values) for v in ctx.coord_vars + ctx.jet_vars})


@settings(max_examples=100, deadline=None)
@given(jet_points())
def test_integer_series_is_the_rational_series_scaled(case):
    ctx, point = case
    s, series = point.series(ctx)
    curve = [
        [point.value(coord(i))] + [point.value(jet(i, lam)) / math.factorial(lam) for lam in range(1, ctx.n + 1)]
        for i in range(1, ctx.nvars + 1)
    ]
    rational = monomial_series(curve, ctx)
    assert all(type(x) is int for xs in series.values() for x in xs)
    assert series == {alpha: [s ** sum(alpha) * x for x in xs] for alpha, xs in rational.items()}


@st.composite
def matrices_and_row_scales(draw):
    """A rational matrix, some of whose rows repeat others times a constant
    (so low ranks are common), and one nonzero integer per row."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    for k in draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=3)):
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2))
        rows.append([c * x for x in rows[k]])
    nonzero = st.integers(min_value=-(2**40), max_value=2**40).filter(bool)
    scales = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    return rows, scales


@settings(max_examples=150, deadline=None)
@given(matrices_and_row_scales())
def test_scaling_rows_by_nonzero_integers_keeps_the_rank(case):
    rows, scales = case
    rank = rank_rational(rows)
    assert rank == integer_bareiss(_integer_rows(rows)[0])[0]  # Bareiss without the content division
    assert rank_rational([[c * x for x in row] for c, row in zip(scales, rows)]) == rank


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 2), (2, 3), (3, 4)]), st.integers(0, 10**6), st.data())
def test_chain_minor_is_the_power_wronskian(nd, seed, data):
    # the Jacobian's minor on a_0 and the chart's power chain is
    # det [D^kappa(z_c^k)] = 1! 2! ... n! (z_c')^(n(n+1)/2); det(chain_matrix)
    # is the same minor over 1! 2! ... n!, times s^(n(n+1)/2)
    ctx = JetContext(*nd)
    chart = data.draw(st.integers(1, ctx.nvars))
    point = sample_for_variant(ctx, chart, VARIANT_POWER, random.Random(seed))
    s, series = point.series(ctx)
    top = ctx.n * (ctx.n + 1) // 2
    wronskian = math.prod(map(math.factorial, range(1, ctx.n + 1))) * point.value(jet(chart, 1)) ** top
    column = {v: j for j, v in enumerate(ctx.ambient_variables)}
    slots = [column[ctx.coeff_var(beta)] for beta in ((0,) * ctx.nvars, *power_chain(ctx, chart))]
    minor = [[row[j] for j in slots] for row in jacobian_values_at(point, ctx)]
    assert determinant(minor).constant_value() == wronskian != 0
    scaled = integer_bareiss(chain_matrix(series, ctx, chart))[1]
    assert scaled * math.prod(map(math.factorial, range(1, ctx.n + 1))) == wronskian * s**top
