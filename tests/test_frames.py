import random
from fractions import Fraction
from itertools import product

import pytest

from jetframes.algebra import (
    COEFF,
    MAT,
    Polynomial,
    VectorField,
    coord,
    iter_terms,
    jet,
    mat,
    mi_sub,
    mi_total,
    enumerate_exponents,
)
from jetframes.frames import (
    FrameField,
    JetFieldTable,
    admissible_coefficient_exponents,
    canonical_shift_budget,
    canonical_shifted_fields,
    coefficient_field,
    coefficient_fields,
    coordinate_field,
    elementary_jet_fields,
    elementary_matrix,
    enumerate_frame,
    jet_field_block,
    shifted_coefficient_field,
    solve_jet_field_coefficients,
)
from jetframes.jetspace import (
    JetContext,
    defining_equations_iterated,
    monomial_jet_entry,
    sample_vertical_jet,
    total_derivative,
)
from jetframes.wronskian import (
    VARIANT_CLASSICAL,
    VARIANT_POWER,
    VARIANTS,
    cramer_coefficients,
    cramer_system_residuals,
)

from reference_helpers import (
    coefficient_direction,
    jet_field_table_by_products,
    jet_linear_field,
    matrix_partials,
    shift_split_identity,
)

CTX23 = JetContext(2, 3)
CTX34 = JetContext(3, 4)


# -- coefficient fields --------------------------------------------------------


@pytest.mark.parametrize("variant", [VARIANT_POWER, VARIANT_CLASSICAL])
def test_coefficient_fields_annihilate_every_equation(variant):
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    charts = range(1, ctx.nvars + 1) if variant == VARIANT_POWER else [None]
    for chart in charts:
        for alpha in admissible_coefficient_exponents(variant, ctx, chart):
            field = coefficient_field(variant, alpha, ctx, chart)
            for eq in eqs:
                assert field.apply(eq).is_zero()


def _cramer_rows(field: FrameField, ctx: JetContext, exponents=None) -> list:
    """X(E_kappa), kappa = 0..n, read off a field X that moves only the slots
    in exponents (by default |gamma| <= n): the sum of X[a_gamma]
    D^kappa(z^gamma)."""
    if exponents is None:
        exponents = enumerate_exponents(ctx.nvars, ctx.n)
    slots = {ctx.coeff_var(gamma): gamma for gamma in exponents}
    return [
        sum((c * monomial_jet_entry(ctx, slots[v], kappa) for v, c in field.field.items()), Polynomial.zero())
        for kappa in range(ctx.n + 1)
    ]


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 4)])
def test_rows_read_off_each_coefficient_field_are_its_residuals_and_its_action(n, d):
    ctx = JetContext(n, d)
    eqs = defining_equations_iterated(ctx)
    for chart in range(1, ctx.nvars + 1):
        for variant, _ in VARIANTS:
            alphas = admissible_coefficient_exponents(variant, ctx, chart)
            for alpha, f in zip(alphas, coefficient_fields(ctx, chart, variant), strict=True):
                rows = _cramer_rows(f, ctx)
                assert rows == cramer_system_residuals(cramer_coefficients(variant, alpha, ctx, chart), ctx)
                assert rows == [f.apply(eq) for eq in eqs]
    # one more z_1 d/da_(0,...,0,1) moves every E_kappa by z_1 z_(n+1)^(kappa)
    f = coefficient_fields(ctx, 1, VARIANT_POWER)[0]
    slot = ctx.coeff_var((0,) * ctx.n + (1,))
    moved = VectorField({**f.field.coeffs, slot: f.field.get(slot) + Polynomial.var(coord(1))})
    perturbed = FrameField(f.kind, f.label, moved)
    rows = _cramer_rows(perturbed, ctx)
    assert rows == [perturbed.apply(eq) for eq in eqs]
    assert not any(row.is_zero() for row in rows)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 4)])
def test_rows_read_off_each_shifted_field_are_its_action(n, d):
    ctx = JetContext(n, d)
    eqs = defining_equations_iterated(ctx)
    shifted = canonical_shifted_fields(ctx)
    assert shifted
    for f in shifted:
        assert _cramer_rows(f, ctx, ctx.coeff_exponents) == [f.apply(eq) for eq in eqs]
    # one more z_1 d/da_gamma on the longest slot moves every E_kappa by z_1 D^kappa(z^gamma)
    gamma = ctx.coeff_exponents[-1]
    f = shifted[-1]
    slot = ctx.coeff_var(gamma)
    moved = VectorField({**f.field.coeffs, slot: f.field.get(slot) + Polynomial.var(coord(1))})
    moved = FrameField(f.kind, f.label, moved)
    rows = _cramer_rows(moved, ctx, ctx.coeff_exponents)
    assert rows == [moved.apply(eq) for eq in eqs]
    assert not any(row.is_zero() for row in rows)


def test_coefficient_field_count_by_enumeration():
    # brute-force oracle: exponents of length <= n minus the n+1 solved slots
    ctx = CTX23
    all_short = enumerate_exponents(ctx.nvars, ctx.n)
    assert len(all_short) == 10
    assert len(admissible_coefficient_exponents(VARIANT_POWER, ctx, 1)) == len(all_short) - (ctx.n + 1)
    assert len(admissible_coefficient_exponents(VARIANT_CLASSICAL, ctx)) == len(all_short) - (ctx.n + 1)


def test_coefficient_field_touches_only_coefficient_directions():
    field = coefficient_field(VARIANT_POWER, (0, 1, 0), CTX23, 1)
    assert all(v[0] == COEFF for v in field.field.coeffs)


# -- shifted coefficient fields --------------------------------------------------


def test_shifted_field_matches_displayed_expansion():
    # ell = (2,2,0,0) in four coordinates: nine signed terms
    ctx = CTX34
    alpha = (2, 2, 0, 0)
    field = shifted_coefficient_field(alpha, (2, 2, 0, 0), ctx).field
    z1, z2 = Polynomial.var(coord(1)), Polynomial.var(coord(2))
    expected = {
        (2, 2, 0, 0): Polynomial.const(1),
        (1, 2, 0, 0): -2 * z1,
        (2, 1, 0, 0): -2 * z2,
        (0, 2, 0, 0): z1 ** 2,
        (1, 1, 0, 0): 4 * z1 * z2,
        (2, 0, 0, 0): z2 ** 2,
        (0, 1, 0, 0): -2 * z1 ** 2 * z2,
        (1, 0, 0, 0): -2 * z1 * z2 ** 2,
        (0, 0, 0, 0): z1 ** 2 * z2 ** 2,
    }
    assert field.coeffs == {ctx.coeff_var(a): p for a, p in expected.items()}


def test_shift_identities_vanish_for_all_splittings():
    # (j_1..j_{e1} | j_{e1+1}..j_e) == 0 for all e <= n, all index tuples
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        for ell in enumerate_exponents(ctx.nvars, n + 1):
            if mi_total(ell) != n + 1 or ell[0] >= ctx.d:
                continue
            alpha = ell
            for e in range(n + 1):
                for js in product(range(1, ctx.nvars + 1), repeat=e):
                    for e1 in range(e + 1):
                        assert shift_split_identity(alpha, ell, js, e1, ctx).is_zero()


def test_shift_identity_with_strictly_larger_alpha():
    ctx = JetContext(2, 4)
    ell = (1, 1, 1)
    alpha = (2, 1, 1)
    for e in range(ctx.n + 1):
        for js in product(range(1, ctx.nvars + 1), repeat=e):
            for e1 in range(e + 1):
                assert shift_split_identity(alpha, ell, js, e1, ctx).is_zero()


def test_shifted_fields_annihilate_every_equation():
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    for alpha in enumerate_exponents(ctx.nvars, ctx.d):
        if ctx.n + 1 <= mi_total(alpha) <= ctx.d and alpha[0] < ctx.d:
            field = shifted_coefficient_field(alpha, canonical_shift_budget(alpha, ctx), ctx)
            for eq in eqs:
                assert field.apply(eq).is_zero()


def test_shifted_field_preconditions():
    with pytest.raises(ValueError):
        shifted_coefficient_field((3, 0, 0), (2, 1, 0), CTX23)  # ell not <= alpha
    with pytest.raises(ValueError):
        shifted_coefficient_field((2, 1, 0), (1, 1, 0), CTX23)  # |ell| != n+1
    with pytest.raises(ValueError):
        shifted_coefficient_field((3, 0, 0), (3, 0, 0), CTX23)  # alpha_1 = d


def test_canonical_shift_budget_greedy():
    assert canonical_shift_budget((2, 1, 0), CTX23) == (2, 1, 0)
    assert canonical_shift_budget((1, 1, 1), CTX23) == (1, 1, 1)
    assert canonical_shift_budget((0, 2, 1), CTX23) == (0, 2, 1)
    ctx = JetContext(2, 5)
    assert canonical_shift_budget((4, 1, 0), ctx) == (3, 0, 0)


# -- coordinate fields -----------------------------------------------------------


def test_coordinate_fields_annihilate_every_equation():
    for ctx in (CTX23,):
        eqs = defining_equations_iterated(ctx)
        for i in range(1, ctx.nvars + 1):
            field = coordinate_field(i, ctx)
            for eq in eqs:
                assert field.apply(eq).is_zero()


def test_coordinate_field_order_zero_identity():
    # the two sums cancel term by term on the order-0 equation
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    for i in (1, 2, 3):
        field = coordinate_field(i, ctx).field
        drift = Polynomial.zero()
        for v, c in field.items():
            if v[0] == COEFF:
                drift = drift + c * ctx.monomial_z(v[1:])
        assert eqs[0].diff(coord(i)) + drift == Polynomial.zero()


def test_coordinate_field_normalized_slot_contributes_constant():
    # moving z_1 drags the normalized slot: constant -d on a_{(d-1,0,...,0)}
    ctx = CTX23
    field = coordinate_field(1, ctx).field
    assert field.get(ctx.coeff_var((2, 0, 0))) == Polynomial.const(-3)


def test_coordinate_field_commutes_with_total_derivative():
    rng = random.Random(19)
    ctx = CTX23
    fields = [coordinate_field(i, ctx).field for i in (1, 2, 3)]
    for _ in range(6):
        pairs = []
        for i in (1, 2, 3):
            if rng.random() < 0.7:
                pairs.append((coord(i), rng.randint(1, 2)))
            if rng.random() < 0.4:
                pairs.append((jet(i, 1), 1))
        if rng.random() < 0.5:
            pairs.append((ctx.coeff_var((0, 1, 1)), 1))
        p = Polynomial.monomial(pairs, Fraction(rng.randint(1, 4)))
        for f in fields:
            assert f.apply(total_derivative(p, ctx)) == total_derivative(f.apply(p), ctx)


# -- jet-linear fields -----------------------------------------------------------


def test_jet_table_small_case_pinned_by_hand():
    # n=1, d=2: the single top-block equation reads
    #   L_{(1,0)}^{(1,0)} + 2 m(1,1) + a(1,1) m(2,1) = 0
    # (coefficient of z1 in the first-order tangency), and the order-0 block
    # at rho = 0 forces L_{(0,0)}^{(0,0)} = a(0,0) * transfer factor.
    ctx = JetContext(1, 2)
    table = solve_jet_field_coefficients(ctx)
    a11, a00 = ctx.coeff_var((1, 1)), ctx.coeff_var((0, 0))
    expected_c = -2 * Polynomial.var(mat(1, 1)) - Polynomial.var(a11) * Polynomial.var(mat(2, 1))
    assert table.get((1, 0), (1, 0)) == expected_c
    assert table.top_factor == expected_c
    assert table.get((0, 0), (0, 0)) == Polynomial.var(a00) * expected_c


def test_jet_table_degree_structure_and_vanishing_rule():
    # Matrix entries appear linearly throughout.  The coefficient variables
    # appear linearly in the derivative blocks but quadratically wherever the
    # order-0 row injects a_rho times the (coefficient-linear) transfer
    # factor: strict (1,1)-bilinearity is impossible for a tangent solution,
    # and the degree in the coefficients is exactly bounded by 2.
    ctx = CTX23
    table = solve_jet_field_coefficients(ctx)  # symbolic matrix entries
    assert table.entries
    saw_quadratic = False
    for (alpha, beta), entry in table.entries.items():
        assert mi_total(alpha) + mi_total(beta) <= ctx.d
        for mono, _ in iter_terms(entry):
            a_deg = sum(e for v, e in mono if v[0] == COEFF)
            m_deg = sum(e for v, e in mono if v[0] == MAT)
            assert m_deg <= 1
            assert a_deg <= 2
            saw_quadratic = saw_quadratic or a_deg == 2
    assert saw_quadratic
    # the top block receives no order-0 coupling and stays strictly bilinear
    top = ctx.normalized_exponent
    for k in range(1, ctx.n + 1):
        beta = tuple(k if i == 0 else 0 for i in range(ctx.nvars))
        entry = table.get(mi_sub(top, beta), beta)
        for mono, _ in iter_terms(entry):
            assert sum(e for v, e in mono if v[0] == COEFF) <= 1
    # rule: zero whenever |alpha| + |beta| >= d + 1
    for alpha in enumerate_exponents(ctx.nvars, ctx.d):
        for beta in enumerate_exponents(ctx.nvars, ctx.n):
            if mi_total(alpha) + mi_total(beta) >= ctx.d + 1:
                assert table.get(alpha, beta).is_zero()


def test_jet_block_determinants_nonzero():
    table = solve_jet_field_coefficients(CTX23)
    assert table.block_dets
    for rho, det in table.block_dets.items():
        assert det != 0


def test_jet_block_determinants_match_sympy():
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import ZZ

    table = solve_jet_field_coefficients(CTX34)
    assert len(table.block_dets) == len(enumerate_exponents(CTX34.nvars, CTX34.d))
    for rho, det in table.block_dets.items():
        _, rows, _ = jet_field_block(CTX34, rho)
        block = matrices.DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), len(rows)), ZZ)
        assert det == int(block.det()), rho


def test_jet_field_table_eliminates_each_block_once(monkeypatch):
    # the block determinants come out of the elimination that solves the
    # block, so the table builds with determinant() unavailable
    from jetframes import algebra, frames

    def refuse(matrix):
        raise AssertionError("determinant() called while building the table")

    monkeypatch.setattr(algebra, "determinant", refuse)
    monkeypatch.setattr(frames, "determinant", refuse, raising=False)
    fresh = frames._solve_symbolic_table.__wrapped__(CTX34)
    cached = solve_jet_field_coefficients(CTX34)
    assert fresh.entries == cached.entries
    assert fresh.top_factor == cached.top_factor
    assert fresh.block_dets == cached.block_dets


@pytest.mark.parametrize("nd", [(1, 2), (2, 3), (3, 4)])
def test_jet_field_table_matches_the_block_by_block_product_solve(nd):
    ctx = JetContext(*nd)
    table = solve_jet_field_coefficients(ctx)
    entries, top_factor, block_dets = jet_field_table_by_products(ctx)
    assert table.entries == entries
    assert table.top_factor == top_factor and not top_factor.is_zero()
    assert table.block_dets == block_dets


def test_the_34_table_eliminates_each_distinct_block_once(monkeypatch):
    from jetframes import frames

    eliminated = []
    for name in ("integer_bareiss", "integer_adjugate"):
        real = getattr(frames, name, None)
        if real is not None:
            spy = lambda matrix, *rest, real=real: eliminated.append(tuple(map(tuple, matrix))) or real(matrix, *rest)
            monkeypatch.setattr(frames, name, spy)
    fresh = frames._solve_symbolic_table.__wrapped__(CTX34)
    blocks = [jet_field_block(CTX34, rho)[1] for rho in fresh.block_dets]
    assert len(blocks) == 70
    assert len({tuple(map(tuple, rows)) for rows in blocks}) == 17
    assert len(eliminated) == len(set(eliminated)) == 17


def test_jet_block_determinants_nonzero_at_35():
    # 126 integer blocks up to 19 x 19: out of reach of cofactor expansion
    ctx = JetContext(3, 5)
    table = solve_jet_field_coefficients(ctx)
    assert len(table.block_dets) == 126
    assert max(len(jet_field_block(ctx, rho)[0]) for rho in table.block_dets) == 19
    assert all(det != 0 for det in table.block_dets.values())


def test_jet_field_tangency_identities_symbolic():
    # order 0 reproduces top_factor * E_0; every higher order vanishes
    # identically even with symbolic matrix entries
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    field = jet_linear_field(None, ctx)
    table = solve_jet_field_coefficients(ctx)
    value0 = field.apply(eqs[0])
    assert value0 == table.top_factor * eqs[0]
    assert value0.exact_div(eqs[0]) == table.top_factor
    for kappa in range(1, ctx.n + 1):
        assert field.apply(eqs[kappa]).is_zero()


def test_jet_field_first_order_block_identity():
    # the z_j'' coefficient of the order-2 tangency equals the first-order
    # block, which vanishes identically once the blocks are solved
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    table = solve_jet_field_coefficients(ctx)
    field = jet_linear_field(None, ctx)
    for j in range(1, ctx.nvars + 1):
        block = Polynomial.zero()
        for alpha in ctx.coeff_exponents:
            block = block + coefficient_direction(table, alpha) * ctx.monomial_z(alpha).diff(coord(j))
        for gamma in list(ctx.coeff_exponents) + [ctx.normalized_exponent]:
            zg = ctx.monomial_z(gamma)
            for l in range(1, ctx.nvars + 1):
                block = block + ctx.coeff_poly(gamma) * zg.diff(coord(l)) * Polynomial.var(mat(l, j))
        assert block.is_zero()
        assert field.apply(eqs[2]).diff(jet(j, 2)) == block


def test_jet_field_top_factor_accessor():
    ctx = CTX23
    table = solve_jet_field_coefficients(ctx)
    total = Polynomial.zero()
    for k in range(1, ctx.n + 1):
        alpha = tuple((ctx.d - k) if i == 0 else 0 for i in range(ctx.nvars))
        beta = tuple(k if i == 0 else 0 for i in range(ctx.nvars))
        total = total + table.get(alpha, beta)
    assert total == table.top_factor


def test_jet_field_vanishes_at_certified_points():
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    rng = random.Random(3)
    lam = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
    field = jet_linear_field(lam, ctx)
    for seed in range(4):
        point = sample_vertical_jet(ctx, chart=1, rng=seed)
        for eq in eqs:
            assert field.apply(eq).evaluate(point.assignment) == 0


def test_jet_field_identity_matrix_is_euler_like():
    ctx = CTX23
    ident = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    field = jet_linear_field(ident, ctx).field
    for i in range(1, 4):
        for lam in (1, 2):
            assert field.get(jet(i, lam)) == Polynomial.var(jet(i, lam))


# -- frame enumeration ------------------------------------------------------------


def test_enumerate_frame_count_and_determinism():
    ctx = CTX23
    frame = enumerate_frame(ctx, chart=1)
    # independent count: 7 coefficient + 9 shifted + 3 coordinate + 9 jet
    n_coeff = len(enumerate_exponents(3, 2)) - 3
    n_shift = sum(
        1 for a in enumerate_exponents(3, 3) if mi_total(a) == 3 and a[0] < 3
    )
    assert [f.kind for f in frame].count("coefficient") == n_coeff == 7
    assert [f.kind for f in frame].count("shifted_coefficient") == n_shift == 9
    assert [f.kind for f in frame].count("coordinate") == 3
    assert [f.kind for f in frame].count("jet_linear") == 9
    assert len(frame) == 28
    again = enumerate_frame(ctx, chart=1)
    assert [f.label for f in frame] == [f.label for f in again]


def test_enumerate_frame_result_is_the_callers_own_list():
    frame = enumerate_frame(CTX23, chart=1)
    labels = [f.label for f in frame]
    frame.append(frame[0])
    del frame[:3]
    assert [f.label for f in enumerate_frame(CTX23, chart=1)] == labels


def test_enumerate_frame_every_long_exponent_covered_once():
    ctx = CTX34
    frame = enumerate_frame(ctx, chart=1)
    shifted = [f for f in frame if f.kind == "shifted_coefficient"]
    alphas = [f.label for f in shifted]
    assert len(alphas) == len(set(alphas))
    expected = [
        a
        for a in enumerate_exponents(4, 4)
        if ctx.n + 1 <= mi_total(a) <= ctx.d and a[0] < ctx.d
    ]
    assert len(shifted) == len(expected)


def _subs_reference(linear_map, ctx):
    """The jet-linear field at a numeric matrix, by substituting m(k,l) into
    every direction of the symbolic field, and the substituted table."""
    binds = {
        mat(k, l): Fraction(linear_map[k - 1][l - 1])
        for k in range(1, ctx.nvars + 1)
        for l in range(1, ctx.nvars + 1)
    }
    symbolic = solve_jet_field_coefficients(ctx)
    entries = {key: val.subs(binds) for key, val in symbolic.entries.items()}
    entries = {key: val for key, val in entries.items() if not val.is_zero()}
    field = jet_linear_field(None, ctx, table=symbolic).field
    directions = {v: c.subs(binds) for v, c in field.items()}
    return VectorField(directions), entries, symbolic.top_factor.subs(binds)


@pytest.mark.parametrize("ctx", [CTX23, CTX34], ids=["23", "34"])
def test_jet_linear_fields_from_linearity_match_substitution(ctx):
    size = ctx.nvars
    rng = random.Random(size)
    maps = [elementary_matrix(k, l, size) for k in range(1, size + 1) for l in range(1, size + 1)]
    maps += [
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)]
        for _ in range(3)
    ]
    framed = [f for f in enumerate_frame(ctx, chart=1) if f.kind == "jet_linear"]
    assert len(framed) == size * size
    for i, linear_map in enumerate(maps):
        ref_field, ref_entries, ref_top = _subs_reference(linear_map, ctx)
        table = solve_jet_field_coefficients(ctx).substitute_matrix(linear_map)
        assert table.entries == ref_entries and table.top_factor == ref_top, i
        assert jet_linear_field(linear_map, ctx).field == ref_field, i
        if i < len(framed):  # enumerate_frame builds E_kl's field from its part
            assert framed[i].field == ref_field, i


def test_matrix_parts_reject_a_table_not_linear_in_the_matrix():
    ctx = CTX23
    m11, m12 = Polynomial.var(mat(1, 1)), Polynomial.var(mat(1, 2))
    a0 = ctx.coeff_var((0, 0, 0))
    a = Polynomial.var(a0)
    for bad in (m11 * m12, a, m11 * m11, Polynomial.const(1) + m11):
        table = JetFieldTable(ctx, {((0, 0, 0), (0, 0, 0)): a * m11 + bad}, m12, {})
        with pytest.raises(ValueError, match="not linear"):
            matrix_partials(jet_linear_field(None, ctx, table=table).field, ctx.nvars)
    good = JetFieldTable(ctx, {((0, 0, 0), (0, 0, 0)): 3 * a * m11 + m12}, m12, {})
    parts = matrix_partials(jet_linear_field(None, ctx, table=good).field, ctx.nvars)
    assert sorted(parts) == [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    for (k, l), part in parts.items():
        coeffs = {v: c for v, c in part.items() if v[0] == COEFF}
        assert coeffs == {(1, 1): {a0: 3 * a}, (1, 2): {a0: Polynomial.const(1)}}.get((k, l), {})
        jets = {v: c for v, c in part.items() if v[0] != COEFF}
        assert jets == {jet(k, lam): Polynomial.var(jet(l, lam)) for lam in (1, 2)}
        # the part is the table at E_kl, whose top factor is m12's coefficient
        at_ekl = good.substitute_matrix(elementary_matrix(k, l, 3))
        assert at_ekl.top_factor == (1 if (k, l) == (1, 2) else 0)
        assert at_ekl.entries == ({((0, 0, 0), (0, 0, 0)): coeffs[a0]} if coeffs else {})


def test_jet_fields_split_off_the_table_reject_a_term_not_linear_in_the_matrix():
    ctx = CTX23
    m11, m12 = Polynomial.var(mat(1, 1)), Polynomial.var(mat(1, 2))
    a = Polynomial.var(ctx.coeff_var((0, 0, 0)))
    for bad in (m11 * m12, a, m11 * m11, Polynomial.const(1) + m11):
        table = JetFieldTable(ctx, {((0, 0, 0), (1, 0, 0)): a * m11 + bad}, m12, {})
        with pytest.raises(ValueError, match=r"d/da\(0,0,0\) direction is not linear"):
            elementary_jet_fields(table)
    good = JetFieldTable(ctx, {((0, 0, 0), (1, 0, 0)): 3 * a * m11 + m12}, m12, {})
    assert elementary_jet_fields(good) == matrix_partials(jet_linear_field(None, ctx, table=good).field, ctx.nvars)


@pytest.mark.parametrize("nd", [(1, 2), (2, 3), (3, 4)])
def test_jet_fields_split_off_the_table_are_the_symbolic_fields_parts(nd):
    ctx = JetContext(*nd)
    table = solve_jet_field_coefficients(ctx)
    parts = matrix_partials(jet_linear_field(None, ctx, table=table).field, ctx.nvars)
    split = elementary_jet_fields(table)
    assert list(split) == list(parts)
    for kl, field in split.items():
        assert list(field.items()) == list(parts[kl].items()), kl
