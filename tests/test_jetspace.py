import hashlib
import math
import random
from fractions import Fraction
import pytest

from jetframes import jetspace
from jetframes.algebra import JET, Polynomial, coord, enumerate_exponents, iter_terms, jet
from jetframes.jetspace import (
    JetContext,
    defining_equations_iterated,
    defining_equations_partition_sum,
    first_jets_all_zero,
    jacobian_matrix_at,
    jet_weight_partitions,
    partition_coefficient,
    random_rational,
    sample_vertical_jet,
    total_derivative,
    universal_polynomial,
    JetPoint,
)

from reference_helpers import (
    iterated_total_derivative,
    jacobian_rank_at,
    jacobian_values_at,
    jet_matrix_rank,
    wronskians_all_zero,
)

CTX23 = JetContext(2, 3)
CTX34 = JetContext(3, 4)


def jet_weight(mono):
    return sum(e * v[2] for v, e in mono if v[0] == JET)


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext(2, 2)
    with pytest.raises(ValueError):
        JetContext(0, 5)


def test_context_builds_its_variables_once_and_compares_by_its_parameters():
    ctx = JetContext(2, 3)
    for name in ("normalized_exponent", "coeff_exponents", "coord_vars", "jet_vars", "coeff_vars", "ambient_variables"):
        assert getattr(ctx, name) is getattr(ctx, name), name
    fresh = JetContext(2, 3)
    assert ctx == fresh and hash(ctx) == hash(fresh) and ctx != JetContext(2, 4)
    assert fresh.ambient_variables == ctx.coord_vars + ctx.coeff_vars + ctx.jet_vars
    assert ctx.normalized_exponent == (3, 0, 0) and ctx.normalized_exponent not in ctx.coeff_exponents


def test_coefficient_count():
    # affine count: full projective count minus the normalized slot
    assert CTX23.num_coeffs == math.comb(6, 3) - 1 == 19
    assert len(CTX23.coeff_exponents) == 19
    assert CTX23.ambient_dimension == 3 + 19 + 6 == 28


def test_total_derivative_base_cases():
    z1 = Polynomial.var(coord(1))
    assert total_derivative(z1, CTX23) == Polynomial.var(jet(1, 1))
    assert total_derivative(z1 ** 2, CTX23) == 2 * z1 * Polynomial.var(jet(1, 1))


def test_second_total_derivative_of_product():
    z1, z2 = Polynomial.var(coord(1)), Polynomial.var(coord(2))
    z1p, z2p = Polynomial.var(jet(1, 1)), Polynomial.var(jet(2, 1))
    z1pp, z2pp = Polynomial.var(jet(1, 2)), Polynomial.var(jet(2, 2))
    got = iterated_total_derivative(z1 * z2, 2, CTX23)
    assert got == z1pp * z2 + 2 * z1p * z2p + z1 * z2pp


def test_total_derivative_rejects_top_order_jets():
    top = Polynomial.var(jet(1, CTX23.n))
    with pytest.raises(ValueError):
        total_derivative(top, CTX23)


def test_total_derivative_commutes_with_coordinate_partials():
    rng = random.Random(9)
    for _ in range(10):
        pairs = []
        for i in (1, 2, 3):
            if rng.random() < 0.7:
                pairs.append((coord(i), rng.randint(1, 2)))
            if rng.random() < 0.5:
                pairs.append((jet(i, 1), rng.randint(1, 2)))
        p = Polynomial.monomial(pairs, Fraction(rng.randint(1, 5)))
        for i in (1, 2, 3):
            left = total_derivative(p, CTX23).diff(coord(i))
            right = total_derivative(p.diff(coord(i)), CTX23)
            assert left == right


def _taylor_series_for(point, i, lam, order, n):
    """Truncated series of z_i^(lam) along the jet: coefficients ζ^m/m!."""
    out = []
    for m in range(order + 1):
        k = lam + m
        if k == 0:
            val = point[coord(i)]
        elif k <= n:
            val = point[jet(i, k)]
        else:
            val = Fraction(0)
        out.append(Fraction(val, math.factorial(m)))
    return out


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def test_total_derivative_matches_curve_differentiation():
    # independent oracle: D^k(p) evaluated on a jet equals the k-th
    # derivative in the curve parameter of p along any curve with that jet
    rng = random.Random(31)
    ctx = CTX34
    point = {coord(i): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in (1, 2, 3, 4)}
    point.update(
        {jet(i, lam): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in (1, 2, 3, 4) for lam in (1, 2, 3)}
    )
    for _ in range(6):
        pairs = []
        for i in (1, 2, 3, 4):
            if rng.random() < 0.6:
                pairs.append((coord(i), rng.randint(1, 2)))
        if rng.random() < 0.6:
            pairs.append((jet(rng.randint(1, 4), 1), 1))
        p = Polynomial.monomial(pairs, 1)
        for kappa in (1, 2):
            dk = iterated_total_derivative(p, kappa, ctx)
            series = [Fraction(1)] + [Fraction(0)] * kappa
            for v, e in next(iter_terms(p))[0]:
                lam = 0 if v[0] == 0 else v[2]
                s = _taylor_series_for(point, v[1], lam, kappa, ctx.n)
                for _ in range(e):
                    series = _series_mul(series, s, kappa)
            expected = series[kappa] * math.factorial(kappa)
            assert dk.evaluate(point) == expected


def first_order_equation_reference(ctx):
    """Transliteration of the displayed order-1 equation:
    sum_alpha a_alpha sum_j d(z^alpha)/dz_j * z_j'."""
    total = Polynomial.zero()
    for alpha in list(ctx.coeff_exponents) + [ctx.normalized_exponent]:
        za = ctx.monomial_z(alpha)
        block = Polynomial.zero()
        for j in range(1, ctx.nvars + 1):
            block = block + za.diff(coord(j)) * Polynomial.var(jet(j, 1))
        total = total + ctx.coeff_poly(alpha) * block
    return total


def test_first_equation_small_case():
    ctx = JetContext(1, 2)
    eqs = defining_equations_iterated(ctx)
    assert eqs[1] == first_order_equation_reference(ctx)
    # the z1^2 slot contributes 2 z1 z1'
    assert eqs[1].coefficient(((coord(1), 1), (jet(1, 1), 1))) == 2


def order3_equation_reference(ctx):
    """Transliteration of the displayed order-3 equation with its
    coefficient 3 on the z'z'' block."""
    total = Polynomial.zero()
    for alpha in list(ctx.coeff_exponents) + [ctx.normalized_exponent]:
        za = ctx.monomial_z(alpha)
        block = Polynomial.zero()
        for j1 in range(1, ctx.nvars + 1):
            block = block + za.diff(coord(j1)) * Polynomial.var(jet(j1, 3))
        for j1 in range(1, ctx.nvars + 1):
            for j2 in range(1, ctx.nvars + 1):
                d2 = za.diff(coord(j1)).diff(coord(j2))
                block = block + 3 * d2 * Polynomial.var(jet(j1, 1)) * Polynomial.var(jet(j2, 2))
                for j3 in range(1, ctx.nvars + 1):
                    d3 = d2.diff(coord(j3))
                    block = block + d3 * Polynomial.monomial(
                        [(jet(j1, 1), 1)], 1
                    ) * Polynomial.var(jet(j2, 1)) * Polynomial.var(jet(j3, 1))
        total = total + ctx.coeff_poly(alpha) * block
    return total


def order4_equation_reference(ctx):
    """Transliteration of the displayed order-4 equation with coefficients
    4 on z'z''', 3 on z''z'', and 6 on z'z'z''."""
    total = Polynomial.zero()
    rng1 = range(1, ctx.nvars + 1)
    for alpha in list(ctx.coeff_exponents) + [ctx.normalized_exponent]:
        za = ctx.monomial_z(alpha)
        block = Polynomial.zero()
        for j1 in rng1:
            block = block + za.diff(coord(j1)) * Polynomial.var(jet(j1, 4))
        for j1 in rng1:
            d1 = za.diff(coord(j1))
            for j2 in rng1:
                d2 = d1.diff(coord(j2))
                block = block + d2 * (
                    4 * Polynomial.var(jet(j1, 1)) * Polynomial.var(jet(j2, 3))
                    + 3 * Polynomial.var(jet(j1, 2)) * Polynomial.var(jet(j2, 2))
                )
                for j3 in rng1:
                    d3 = d2.diff(coord(j3))
                    block = block + 6 * d3 * (
                        Polynomial.var(jet(j1, 1))
                        * Polynomial.var(jet(j2, 1))
                        * Polynomial.var(jet(j3, 2))
                    )
                    for j4 in rng1:
                        d4 = d3.diff(coord(j4))
                        if d4.is_zero():
                            continue
                        block = block + d4 * (
                            Polynomial.var(jet(j1, 1))
                            * Polynomial.var(jet(j2, 1))
                            * Polynomial.var(jet(j3, 1))
                            * Polynomial.var(jet(j4, 1))
                        )
        total = total + ctx.coeff_poly(alpha) * block
    return total


def test_order3_equation_matches_display():
    eqs = defining_equations_iterated(CTX34)
    assert eqs[3] == order3_equation_reference(CTX34)


def test_order4_equation_matches_display():
    ctx = JetContext(4, 5)
    eqs = defining_equations_iterated(ctx)
    assert eqs[4] == order4_equation_reference(ctx)


def test_partition_coefficients():
    # weights {l: mu}: coefficient kappa!/prod((l!)^mu mu!)
    shapes = dict()
    for orders, mults in jet_weight_partitions(4):
        shapes[tuple(zip(orders, mults))] = partition_coefficient(4, orders, mults)
    assert shapes[((4, 1),)] == 1
    assert shapes[((1, 1), (3, 1))] == 4
    assert shapes[((2, 2),)] == 3
    assert shapes[((1, 2), (2, 1))] == 6
    assert shapes[((1, 4),)] == 1
    assert {ps: partition_coefficient(3, *zip(*ps)) for ps in
            [((o, m),) for o, m in [(3, 1)]]} == {((3, 1),): 1}
    assert partition_coefficient(3, (1, 2), (1, 1)) == 3


def test_partition_sum_route_matches_iterated():
    for n, d in [(1, 2), (2, 3), (3, 4), (3, 5)]:
        ctx = JetContext(n, d)
        assert defining_equations_partition_sum(ctx) == defining_equations_iterated(ctx)


@pytest.mark.parametrize("ctx", [CTX23, JetContext(3, 4)], ids=["2-3", "3-4"])
def test_partition_sum_equations_share_their_pairs(ctx):
    for eq in defining_equations_partition_sum(ctx):
        pairs = [pair for mono, _ in iter_terms(eq) for pair in mono]
        assert len({id(pair) for pair in pairs}) == len(set(pairs))


@pytest.mark.parametrize("ctx", [JetContext(1, 2), CTX23], ids=["1-2", "2-3"])
def test_iterated_equations_match_sympy_derivatives(ctx):
    # independent oracle: E_kappa is the kappa-th t-derivative of E_0 along
    # the curve z_i(t), with z_i^(lam) standing for d^lam z_i / dt^lam
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    curve = [sympy.Function(f"z{i}")(t) for i in range(1, ctx.nvars + 1)]
    symbols = {}

    def symbol(v):
        return symbols.setdefault(v, sympy.Symbol(f"v{len(symbols)}"))

    def to_sympy(p):
        return sympy.Add(*(c * sympy.Mul(*(symbol(v) ** e for v, e in mono)) for mono, c in iter_terms(p)))

    e0 = curve[0] ** ctx.d + sympy.Add(
        *(symbol(v) * sympy.Mul(*(z**e for z, e in zip(curve, alpha))) for v, alpha in zip(ctx.coeff_vars, ctx.coeff_exponents))
    )
    # the highest derivatives first, so that z_i(t) inside them stays intact
    to_jets = [
        (sympy.diff(curve[i - 1], t, lam), symbol(jet(i, lam)))
        for lam in range(ctx.n, 0, -1)
        for i in range(1, ctx.nvars + 1)
    ] + [(curve[i - 1], symbol(coord(i))) for i in range(1, ctx.nvars + 1)]
    for kappa, eq in enumerate(defining_equations_iterated(ctx)):
        reference = sympy.diff(e0, t, kappa).subs(to_jets)
        assert sympy.expand(reference - to_sympy(eq)) == 0, kappa


def test_equations_linear_in_coefficients():
    eqs = defining_equations_iterated(CTX23)
    for eq in eqs:
        for u in CTX23.coeff_vars:
            du = eq.diff(u)
            for v in CTX23.coeff_vars:
                assert du.diff(v).is_zero()


def test_equations_isobaric_weight():
    eqs = defining_equations_iterated(CTX23)
    for kappa, eq in enumerate(eqs):
        for mono, _ in iter_terms(eq):
            assert jet_weight(mono) == kappa


def test_coefficient_of_each_slot_is_derivative_of_its_monomial():
    # the kappa-th equation is sum_beta a_beta D^kappa(z^beta): the block
    # structure behind the closed form
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    for kappa in range(ctx.n + 1):
        for alpha in ((0, 0, 1), (1, 1, 0), (0, 2, 1)):
            block = eqs[kappa].diff(ctx.coeff_var(alpha))
            assert block == iterated_total_derivative(ctx.monomial_z(alpha), kappa, ctx)


def test_sampled_point_is_certified():
    for seed in (0, 1, 2):
        point = sample_vertical_jet(CTX23, chart=1, rng=seed)
        eqs = defining_equations_iterated(CTX23)
        assert all(eq.evaluate(point.assignment) == 0 for eq in eqs)
        assert point.value(jet(1, 1)) != 0
        assert not first_jets_all_zero(point, CTX23)


def test_sampled_point_other_context_and_chart():
    point = sample_vertical_jet(CTX34, chart=2, rng=5)
    eqs = defining_equations_iterated(CTX34)
    assert all(eq.evaluate(point.assignment) == 0 for eq in eqs)


def test_jacobian_rank_is_codimension():
    assert jacobian_rank_at(sample_vertical_jet(CTX23, 1, rng=7), CTX23) == 3
    assert jacobian_rank_at(sample_vertical_jet(CTX34, 1, rng=7), CTX34) == 4


def test_dimension_reconciliation():
    # affine tangent dimension = projective dimension formula minus one
    for ctx in (CTX23, CTX34):
        proj = math.comb(ctx.nvars + ctx.d, ctx.d) + ctx.n * ctx.nvars
        assert ctx.ambient_dimension - (ctx.n + 1) == proj - 1


def _point_with_jets(ctx, jets):
    assignment = {v: Fraction(0) for v in ctx.coord_vars}
    assignment.update({v: Fraction(0) for v in ctx.jet_vars})
    assignment.update({v: Fraction(jets.get(v, 0)) for v in ctx.jet_vars})
    return JetPoint(assignment=assignment, chart=None)


def test_degenerate_locus_membership():
    ctx = CTX23
    p0 = _point_with_jets(ctx, {})
    assert first_jets_all_zero(p0, ctx)
    assert wronskians_all_zero(p0, ctx)
    p1 = _point_with_jets(ctx, {jet(1, 1): 1})
    assert not first_jets_all_zero(p1, ctx)
    assert wronskians_all_zero(p1, ctx)  # rank 1 < n = 2
    p2 = _point_with_jets(ctx, {jet(1, 1): 1, jet(2, 2): 1})
    assert not wronskians_all_zero(p2, ctx)


def test_jet_point_json_roundtrip():
    point = sample_vertical_jet(CTX23, 1, rng=11)
    import json

    data = json.loads(point.to_json())
    assert data["_chart"] == "1"
    assert Fraction(data["z1'"]) == point.value(jet(1, 1))


def test_universal_polynomial_shape():
    p = universal_polynomial(CTX23)
    assert len(p.terms) == 20  # z1^3 plus 19 coefficient slots
    assert p.coefficient(((coord(1), 3),)) == 1


def _symbolic_jacobian(ctx):
    """Reference Jacobian: the partial derivatives of the symbolic equations,
    evaluated wherever the returned function is called."""
    grads = [[eq.diff(v) for v in ctx.ambient_variables] for eq in defining_equations_iterated(ctx)]
    return lambda point: [[g.evaluate(point.assignment) for g in row] for row in grads]


def _random_point(ctx, rng, jets=None):
    """Random values for every ambient variable: off the variety, almost surely."""
    assignment = {v: random_rational(rng) for v in ctx.ambient_variables}
    assignment.update(jets or {})
    return JetPoint(assignment=assignment)


@pytest.mark.parametrize("ctx", [CTX23, CTX34], ids=["n2d3", "n3d4"])
def test_series_jacobian_equals_symbolic_on_sampled_points(ctx):
    reference = _symbolic_jacobian(ctx)
    for chart in range(1, ctx.nvars + 1):
        for seed in (0, 1, 2):
            point = sample_vertical_jet(ctx, chart, rng=seed)
            assert jacobian_values_at(point, ctx) == reference(point), (chart, seed)


@pytest.mark.parametrize("ctx", [CTX23, CTX34], ids=["n2d3", "n3d4"])
def test_series_jacobian_equals_symbolic_off_the_variety(ctx):
    # the commutation rule is an identity of polynomials, so it holds at any point
    reference = _symbolic_jacobian(ctx)
    rng = random.Random(5)
    for _ in range(3):
        point = _random_point(ctx, rng)
        assert any(eq.evaluate(point.assignment) for eq in defining_equations_iterated(ctx))
        assert jacobian_values_at(point, ctx) == reference(point)


def test_series_jacobian_equals_symbolic_where_the_jet_matrix_has_rank_one():
    # z_i^(lam) = u_i * v_lam: first jets not all zero, yet every Wronskian vanishes
    ctx = CTX34
    rng = random.Random(8)
    u = [random_rational(rng, nonzero=True) for _ in range(ctx.nvars)]
    v = [random_rational(rng, nonzero=True) for _ in range(ctx.n)]
    jets = {
        jet(i, lam): u[i - 1] * v[lam - 1]
        for i in range(1, ctx.nvars + 1)
        for lam in range(1, ctx.n + 1)
    }
    point = _random_point(ctx, rng, jets)
    assert jet_matrix_rank(point, ctx) == 1 and not first_jets_all_zero(point, ctx)
    assert jacobian_values_at(point, ctx) == _symbolic_jacobian(ctx)(point)


def test_jacobian_reads_the_series_the_sampler_built(monkeypatch):
    calls = []
    series = jetspace.monomial_series

    def counted(curve, ctx):
        calls.append(ctx)
        return series(curve, ctx)

    monkeypatch.setattr(jetspace, "monomial_series", counted)
    point = sample_vertical_jet(CTX23, chart=1, rng=3)
    rows, scale = jacobian_matrix_at(point, CTX23)
    assert calls == [CTX23]
    assert scale > 0 and all(type(x) is int for row in rows for x in row)
    s, cached = point.series(CTX23)
    reference = _rational_series(point, CTX23)
    assert cached.keys() == reference.keys()
    for alpha, integers in cached.items():
        assert [Fraction(x, s ** sum(alpha)) for x in integers] == reference[alpha], alpha


def _rational_series(point, ctx):
    """{alpha: z(t)^alpha mod t^(n+1)} in Fractions, one coordinate factor at
    a time, along z_i(t) = sum_lam z_i^(lam) t^lam / lam!."""
    curve = [
        [point.value(coord(i))]
        + [Fraction(point.value(jet(i, lam)), math.factorial(lam)) for lam in range(1, ctx.n + 1)]
        for i in range(1, ctx.nvars + 1)
    ]
    out = {}
    for alpha in enumerate_exponents(ctx.nvars, ctx.d):
        acc = [Fraction(1)] + [Fraction(0)] * ctx.n
        for i, e in enumerate(alpha):
            for _ in range(e):
                acc = [sum(acc[m] * curve[i][k - m] for m in range(k + 1)) for k in range(ctx.n + 1)]
        out[alpha] = acc
    return out


def test_sampled_points_are_pinned():
    # the draws and solved values at (1,2), (2,3), (3,4) on every chart, seeds 0-3
    lines = []
    for n, d in ((1, 2), (2, 3), (3, 4)):
        ctx = JetContext(n, d)
        for chart in range(1, ctx.nvars + 1):
            for seed in range(4):
                lines.append(sample_vertical_jet(ctx, chart, seed).to_json())
    assert len(lines) == 36
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5c01867056c843f44060774563633dd8e24e626f47cbb07d77c4a480c5c14f2e"


def test_failed_certification_names_the_point(monkeypatch):
    solve = jetspace.integer_bareiss

    def perturbed(matrix, rhs):
        rank, det, x = solve(matrix, rhs)
        return rank, det, [y + 1 for y in x]

    monkeypatch.setattr(jetspace, "integer_bareiss", perturbed)
    with pytest.raises(RuntimeError, match="fails certification") as failure:
        sample_vertical_jet(CTX23, chart=2, rng=0)
    assert '"_chart": "2"' in str(failure.value)
