import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from jetframes.algebra import JET, Polynomial, VectorField, coeff, coord, jet
from jetframes.analysis import (
    PoleOrder,
    ReparamJet,
    action_coefficients_symbolic,
    action_matrix,
    field_vector,
    invariance_check,
    pole_order,
    pushforward_field,
    sample_for_variant,
    spanning_check,
    spanning_checks,
    verify_pole_table,
)
from jetframes.frames import (
    FrameField,
    admissible_coefficient_exponents,
    coefficient_field,
    coordinate_field,
    enumerate_frame,
    shifted_coefficient_field,
)
from jetframes.jetspace import (
    JetContext,
    JetPoint,
    defining_equations_iterated,
    sample_vertical_jet,
)
from jetframes.wronskian import (
    VARIANT_CLASSICAL,
    VARIANT_POWER,
    VARIANTS,
    classical_wronskian,
    power_wronskian,
)

from reference_helpers import (
    action_coefficients_by_derivation,
    chart_change_oracle,
    chart_transfer_pairs,
    jet_linear_field,
    monomial_oracle_order,
)
from reparam_helpers import inverse_jet, reparam_action, reparam_point, reparam_polynomial

CTX23 = JetContext(2, 3)
CTX34 = JetContext(3, 4)


# -- weight-rule pole orders -----------------------------------------------------


def test_pole_order_basic_weights():
    assert pole_order(Polynomial.var(jet(1, 1))) == PoleOrder(2, True)
    assert pole_order(Polynomial.var(coord(2))) == PoleOrder(1, True)
    assert pole_order(Polynomial.var(jet(3, 2))) == PoleOrder(3, True)


def test_pole_order_power_wronskian():
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        assert pole_order(power_wronskian(1, ctx)) == PoleOrder(n * n + n, True)


def test_pole_order_classical_wronskian_weight_count():
    # each monomial of the n x n jet determinant weighs 2 + 3 + ... + (n+1)
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        expected = (n * n + 3 * n) // 2
        assert pole_order(classical_wronskian(ctx)) == PoleOrder(expected, True)


def test_pole_order_rejects_coefficient_variables():
    with pytest.raises(ValueError):
        pole_order(Polynomial.var(coeff((0, 1, 0))))


def test_pole_order_nonuniform_flag():
    p = Polynomial.var(coord(1)) + Polynomial.var(jet(1, 1))
    assert pole_order(p) == PoleOrder(2, False)


# -- chart-change oracle ----------------------------------------------------------


def test_oracle_coordinate_and_jet_exponents():
    ctx = CTX23
    assert chart_change_oracle(Polynomial.var(coord(1)), 3, ctx)[1] == 1
    assert chart_change_oracle(Polynomial.var(jet(1, 1)), 3, ctx)[1] == 2
    assert chart_change_oracle(Polynomial.var(jet(1, 2)), 2, ctx)[1] == 3


def test_oracle_second_jet_transfer_pattern():
    # differentiating z_i/z_u twice: z_i''/z_u - z_i z_u''/z_u^2
    #   - 2 z_i' z_u'/z_u^2 + 2 z_i z_u'^2/z_u^3, i.e. reduced numerator
    # z_i'' z_u^2 - z_i z_u'' z_u - 2 z_i' z_u' z_u + 2 z_i z_u'^2 over z_u^3
    ctx = CTX23
    num, exp = chart_transfer_pairs(3, ctx)[jet(1, 2)]
    z1, zu = Polynomial.var(coord(1)), Polynomial.var(coord(3))
    z1p, zup = Polynomial.var(jet(1, 1)), Polynomial.var(jet(3, 1))
    z1pp, zupp = Polynomial.var(jet(1, 2)), Polynomial.var(jet(3, 2))
    assert exp == 3
    assert num == z1pp * zu ** 2 - z1 * zupp * zu - 2 * z1p * zup * zu + 2 * z1 * zup ** 2


def test_oracle_transfer_is_numerically_consistent(chart_inverted_point):
    # substituting the transfer pairs must reproduce the inversion chart map
    # evaluated on actual jets: the old-chart values come from power-series
    # division along a curve, not from the pairs under test
    ctx = CTX23
    rng = random.Random(13)
    objects = (
        power_wronskian(1, ctx),
        classical_wronskian(ctx),
        Polynomial.var(jet(3, 2)) * Polynomial.var(coord(1)) + 5,
    )
    for ups in (1, 2, 3):
        new_vals, old_vals = chart_inverted_point(ups, ctx, rng)
        zu = new_vals[coord(ups)]
        for v, (num, e) in chart_transfer_pairs(ups, ctx).items():
            assert old_vals[v] == num.evaluate(new_vals) / zu ** e, (ups, v)
        for p in objects:
            num, e = chart_change_oracle(p, ups, ctx)
            assert p.evaluate(old_vals) == num.evaluate(new_vals) / zu ** e, (ups, p)


def test_oracle_round_trip_involution():
    # the relabeled inversion substitution is an involution on the chart
    # overlap: transporting the reduced numerator back must recover the input
    # up to the bookkeeping powers of the chart variable
    ctx = CTX23
    ups = 3
    zu = Polynomial.var(coord(ups))
    for p in (
        power_wronskian(1, ctx),
        classical_wronskian(ctx),
        Polynomial.var(jet(2, 2)) * Polynomial.var(coord(3)) + Polynomial.var(coord(1)),
    ):
        num, e = chart_change_oracle(p, ups, ctx)
        back, e2 = chart_change_oracle(num, ups, ctx)
        assert back * zu ** e == p * zu ** e2


def test_oracle_equals_weight_on_power_wronskian():
    ctx = CTX23
    for ups in (1, 2, 3):
        assert chart_change_oracle(power_wronskian(1, ctx), ups, ctx)[1] == 6


def test_oracle_matches_weight_rule_on_every_monomial():
    # exhaustive at n=2 over all monomials of total degree <= 4, every chart
    ctx = CTX23
    variables = list(ctx.coord_vars) + list(ctx.jet_vars)
    for degree in (1, 2, 3, 4):
        for combo in combinations_with_replacement(variables, degree):
            mono = Polynomial.const(1)
            for v in combo:
                mono = mono * Polynomial.var(v)
            w = pole_order(mono).order
            for ups in (1, 2, 3):
                assert chart_change_oracle(mono, ups, ctx)[1] == w


def test_oracle_matches_weight_rule_on_every_monomial_n3():
    # exhaustive over total degree <= 4 in one chart, random charts sampled
    ctx = CTX34
    rng = random.Random(37)
    variables = list(ctx.coord_vars) + list(ctx.jet_vars)
    for degree in (1, 2, 3, 4):
        for combo in combinations_with_replacement(variables, degree):
            mono = Polynomial.const(1)
            for v in combo:
                mono = mono * Polynomial.var(v)
            w = pole_order(mono).order
            assert chart_change_oracle(mono, 2, ctx)[1] == w
            if rng.random() < 0.02:
                assert chart_change_oracle(mono, rng.randint(1, 4), ctx)[1] == w


def test_whole_object_transport_of_classical_wronskian_cancels():
    # the n x n Wronskian of coordinate ratios collapses to a bordered
    # (n+1) x (n+1) Wronskian over z_u^(n+1): the exact transported exponent
    # is n + 1, strictly below the weight count (n^2+3n)/2 for n >= 2
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        w = classical_wronskian(ctx)
        num, exp = chart_change_oracle(w, n + 1, ctx)
        assert exp == n + 1
        assert exp <= pole_order(w).order
        assert not num.is_zero()


def test_whole_object_transport_never_exceeds_weight():
    ctx = CTX23
    from jetframes.wronskian import cramer_coefficients

    objs = [power_wronskian(1, ctx), classical_wronskian(ctx)]
    coeffs = cramer_coefficients(VARIANT_POWER, (0, 1, 0), ctx, 1)
    objs.extend(coeffs.b)
    for p in objs:
        if p.is_zero():
            continue
        for ups in (1, 2, 3):
            assert chart_change_oracle(p, ups, ctx)[1] <= pole_order(p).order


def test_per_monomial_oracle_equals_weight_on_named_objects():
    ctx = CTX23
    from jetframes.wronskian import cramer_coefficients

    named = [power_wronskian(1, ctx), classical_wronskian(ctx)]
    for variant, chart in ((VARIANT_POWER, 1), (VARIANT_CLASSICAL, None)):
        for alpha in admissible_coefficient_exponents(variant, ctx, chart):
            named.extend(cramer_coefficients(variant, alpha, ctx, chart).b)
    for p in named:
        if p.is_zero():
            continue
        assert monomial_oracle_order(p, 3, ctx) == pole_order(p).order


# -- pole table -------------------------------------------------------------------


def test_pole_table_small_n_values():
    rep = verify_pole_table(CTX23)
    assert rep.all_match
    assert rep.c_power == 8  # n^2 + 2n
    assert rep.c_classical == 7  # (n^2 + 5n)/2
    assert rep.alternate_w_claim == 6
    assert not rep.alternate_w_matches
    rep3 = verify_pole_table(CTX34)
    assert rep3.all_match
    assert rep3.c_power == 15
    assert rep3.c_classical == 12


def _expanded_cramer_orders(ctx):
    """{row name: PoleOrder} of every Cramer coefficient the pole table
    names, each expanded here."""
    from jetframes.wronskian import cramer_coefficients

    return {
        f"cramer[{label},a={alpha},k={k}]": pole_order(b)
        for variant, label in VARIANTS
        for alpha in admissible_coefficient_exponents(variant, ctx, 1)
        for k, b in enumerate(cramer_coefficients(variant, alpha, ctx, 1).b)
    }


def _cramer_rows(report):
    return {r.name: r for r in report.rows if r.name.startswith("cramer[")}


def _break_the_premise(monkeypatch):
    """Give D(z_1) a term of lower weight, in analysis only: the pole table's
    premise fails, while the Cramer vectors are still solved with the true D."""
    import jetframes.analysis as analysis

    real = analysis.total_derivative
    z1 = Polynomial.var(coord(1))
    monkeypatch.setattr(analysis, "total_derivative", lambda p, ctx: real(p, ctx) + (p if p == z1 else 0))


def test_pole_table_structural_path_agrees_with_expansion():
    for ctx in (CTX23, CTX34):
        rows = _cramer_rows(verify_pole_table(ctx))
        assert all(r.method == "structural" for r in rows.values())
        expanded = _expanded_cramer_orders(ctx)
        assert {name: (r.computed, r.uniform) for name, r in rows.items()} == {
            name: (po.order, po.uniform) for name, po in expanded.items()
        }


def test_pole_table_expands_every_row_when_the_premise_fails(monkeypatch):
    reference = verify_pole_table(CTX23)
    _break_the_premise(monkeypatch)
    report = verify_pole_table(CTX23)
    rows = _cramer_rows(report)
    assert rows and all(r.method == "expanded" for r in rows.values())
    assert [(r.name, r.computed, r.uniform, r.match) for r in report.rows] == [
        (r.name, r.computed, r.uniform, r.match) for r in reference.rows
    ]


def test_pole_table_solves_each_cramer_vector_once(monkeypatch):
    import jetframes.analysis as analysis

    calls = []
    real = analysis.cramer_coefficients

    def spy(variant, alpha, ctx, chart):
        calls.append((variant, alpha))
        return real(variant, alpha, ctx, chart)

    monkeypatch.setattr(analysis, "cramer_coefficients", spy)
    verify_pole_table(CTX34)  # the premise holds and no certificate draws zero
    assert calls == []
    _break_the_premise(monkeypatch)
    verify_pole_table(CTX34)  # every row is expanded
    assert sorted(calls) == sorted(
        (variant, alpha) for variant, _ in VARIANTS for alpha in admissible_coefficient_exponents(variant, CTX34, 1)
    )


def test_pole_table_every_named_object_is_uniform():
    # every determinant coefficient shares a single weight over its monomials
    for ctx in (CTX23, CTX34):
        rep = verify_pole_table(ctx)
        assert all(r.uniform for r in rep.rows)
        assert all(po.uniform for po in _expanded_cramer_orders(ctx).values())


def test_pole_table_formulas_per_row():
    rep = verify_pole_table(CTX23)
    rows = {r.name: r for r in rep.rows}
    assert rows["power_wronskian"].computed == 6
    assert rows["cramer[v1,a=(0, 1, 0),k=0]"].computed == 1 + 6
    assert rows["cramer[v1,a=(0, 1, 0),k=1]"].computed == 1 + 6 - 1
    assert rows["cramer[v1,a=(0, 1, 0),k=2]"].computed == 1 + 6 - 2
    assert rows["cramer[v2,a=(0, 0, 2),k=0]"].computed == (4 + 6) // 2 + 2
    assert rows["cramer[v2,a=(0, 0, 2),k=1]"].computed == (4 + 6 - 2) // 2 + 2

    # every Cramer row at (3,4), structural and expanded here: B_k of variant
    # 1 drops the column z_i^k, of variant 2 the column z_k (B_0 drops none)
    n = CTX34.n
    claims = {
        "v1": lambda la, k: la + n * n + n - k,
        "v2": lambda la, k: la + n * (n + 1) // 2 + n - (k >= 1),
    }
    rows = {r.name: r for r in verify_pole_table(CTX34).rows}
    expanded = _expanded_cramer_orders(CTX34)
    checked = 0
    for variant, label in VARIANTS:
        for alpha in admissible_coefficient_exponents(variant, CTX34, 1):
            for k in range(n + 1):
                name = f"cramer[{label},a={alpha},k={k}]"
                row = rows[name]
                assert row.method == "structural"
                assert row.claimed == row.computed == expanded[name].order == claims[label](sum(alpha), k), row
                checked += 1
    # C(7, 3) = 35 exponents with |alpha| <= 3, less the n + 1 solved slots
    assert checked == sum(name.startswith("cramer[") for name in rows) == 2 * (35 - n - 1) * (n + 1)


# -- reparametrization ------------------------------------------------------------


def test_action_coefficients_match_displayed_orders():
    sym = action_coefficients_symbolic(3)
    assert sym[1][1] == Polynomial.const(1)
    assert sym[2][2] == Polynomial.const(1)
    assert sym[2][1] == Polynomial.var((4, 2))  # phi''
    assert sym[3][3] == Polynomial.const(1)
    assert sym[3][2] == 3 * Polynomial.var((4, 2))  # 3 phi''
    assert sym[3][1] == Polynomial.var((4, 3))  # phi'''


@pytest.mark.parametrize("n", range(1, 8))
def test_action_coefficients_are_the_derived_ones(n):
    # Faa di Bruno's partition sum against the iterated parameter derivative
    assert list(map(list, action_coefficients_symbolic(n))) == action_coefficients_by_derivation(n)


def test_identity_jet_acts_trivially():
    ctx = CTX23
    point = sample_vertical_jet(ctx, 1, rng=2)
    ident = ReparamJet.identity(2)
    assert reparam_point(point, ident, ctx).assignment == point.assignment
    w = classical_wronskian(ctx)
    assert reparam_polynomial(w, ident, ctx) == w


def test_inverse_jet_composes_to_identity():
    rng = random.Random(21)
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        for _ in range(4):
            rj = ReparamJet.random(n, rng)
            inv = inverse_jet(rj)
            point = sample_vertical_jet(ctx, 1, rng=rng.randint(0, 999))
            back = reparam_point(reparam_point(point, rj, ctx), inv, ctx)
            assert back.assignment == point.assignment
            # group law: the action matrix of the inverse is the matrix inverse
            c, ci = action_matrix(rj), action_matrix(inv)
            prod = [
                [sum(c[r][k] * ci[k][s] for k in range(1, n + 1)) for s in range(1, n + 1)]
                for r in range(1, n + 1)
            ]
            assert all(
                prod[r][s] == (1 if r == s else 0) for r in range(n) for s in range(n)
            )


def test_reparametrized_points_stay_on_the_variety():
    ctx = CTX23
    eqs = defining_equations_iterated(ctx)
    rng = random.Random(8)
    for seed in (0, 1):
        point = sample_vertical_jet(ctx, 1, rng=seed)
        moved = reparam_point(point, ReparamJet.random(2, rng), ctx)
        assert all(eq.evaluate(moved.assignment) == 0 for eq in eqs)


def test_invariance_of_all_families_small_case():
    ctx = CTX23
    rng = random.Random(77)
    frame = enumerate_frame(ctx, chart=1)
    for _ in range(2):
        rj = ReparamJet.random(2, rng)
        for f in frame:
            assert invariance_check(f, rj, ctx), f.label


def test_invariance_negative_control():
    # a bare first-jet direction is not invariant: it picks up phi'' d/dz''
    ctx = CTX23
    bare = VectorField({jet(1, 1): Polynomial.const(1)})
    rj = ReparamJet(2, (Fraction(1),))
    assert not invariance_check(bare, rj, ctx)
    pushed = pushforward_field(bare, rj, ctx)
    assert pushed.get(jet(1, 2)) == Polynomial.const(1)  # phi'' = 1 leaks upward


def test_invariance_representatives_n3():
    ctx = CTX34
    rng = random.Random(5)
    rj = ReparamJet.random(3, rng)
    reps = [
        coefficient_field(VARIANT_POWER, (0, 1, 0, 0), ctx, 1),
        coefficient_field(VARIANT_CLASSICAL, (0, 0, 0, 1), ctx),
        shifted_coefficient_field((2, 2, 0, 0), (2, 2, 0, 0), ctx),
        coordinate_field(2, ctx),
        jet_linear_field([[1 if r == c else 0 for c in range(4)] for r in range(4)], ctx),
    ]
    for f in reps:
        assert invariance_check(f, rj, ctx), f.label


def test_pushforward_builds_its_maps_once_per_draw(monkeypatch):
    import jetframes.analysis as analysis

    ctx = CTX34
    rj = ReparamJet.random(3, random.Random(8))
    builds = []
    real = analysis.action_matrix
    monkeypatch.setattr(analysis, "action_matrix", lambda r: builds.append(r) or real(r))
    analysis._pushforward_maps.cache_clear()
    frame = enumerate_frame(ctx, chart=1)
    assert all(invariance_check(f, rj, ctx) for f in frame[:20])
    assert len(builds) == 1


def test_reparam_action_dispatch():
    ctx = CTX23
    rj = ReparamJet(2, (Fraction(1, 2),))
    point = sample_vertical_jet(ctx, 1, rng=3)
    assert isinstance(reparam_action(point, rj, ctx), type(point))
    assert reparam_action(classical_wronskian(ctx), rj, ctx) == reparam_polynomial(
        classical_wronskian(ctx), rj, ctx
    )
    f = coordinate_field(1, ctx)
    assert reparam_action(f, rj, ctx) == f.field


# -- spanning ---------------------------------------------------------------------


def test_spanning_both_variants_small_case():
    ctx = CTX23
    for variant in (VARIANT_POWER, VARIANT_CLASSICAL):
        results = spanning_check(ctx, chart=1, trials=3, seed=42, variant=variant)
        for r in results:
            assert r.tangent_ok and r.first_offender is None
            assert r.jacobian_rank == 3
            assert r.rank == r.expected_rank == 25
            assert r.ok


def test_sampler_avoids_degenerate_loci():
    from jetframes.analysis import sample_for_variant
    from jetframes.jetspace import first_jets_all_zero
    from reference_helpers import wronskians_all_zero

    ctx = CTX23
    w = classical_wronskian(ctx)
    rng = random.Random(55)
    for _ in range(10):
        p1 = sample_for_variant(ctx, 1, VARIANT_POWER, rng)
        assert not first_jets_all_zero(p1, ctx)
        p2 = sample_for_variant(ctx, 1, VARIANT_CLASSICAL, rng)
        assert w.evaluate(p2.assignment) != 0
        assert not wronskians_all_zero(p2, ctx)


def test_power_sampler_accepts_every_draw():
    # on its own chart the power determinant c (z_chart')^m never vanishes, so
    # sample_for_variant returns the first draw and consumes nothing more
    for ctx in (CTX23, CTX34):
        for chart in range(1, ctx.nvars + 1):
            for seed in (0, 1, 2):
                ours, theirs = random.Random(seed), random.Random(seed)
                got = sample_for_variant(ctx, chart, VARIANT_POWER, ours)
                assert got == sample_vertical_jet(ctx, chart, theirs)
                assert ours.random() == theirs.random()


def test_sampler_gives_up_with_named_error(monkeypatch):
    import jetframes.analysis as analysis

    ctx = CTX23
    real = sample_vertical_jet(ctx, 1, rng=4)
    # keep only the chart jet: first jets are not all zero, but every
    # classical Wronskian minor vanishes, so no draw is admissible
    degenerate = {v: 0 if v[0] == JET and v != jet(1, 1) else x for v, x in real.assignment.items()}
    draws = []

    def stuck_sampler(ctx, chart, rng):
        draws.append(chart)
        return JetPoint(dict(degenerate), chart)

    monkeypatch.setattr(analysis, "sample_vertical_jet", stuck_sampler)
    monkeypatch.setattr(analysis, "SAMPLE_ATTEMPTS", 7)
    with pytest.raises(analysis.SamplingError, match="in 7 draws"):
        analysis.sample_for_variant(ctx, 1, VARIANT_CLASSICAL, random.Random(0))
    assert len(draws) == 7
    # the power variant accepts the same point at once
    assert analysis.sample_for_variant(ctx, 1, VARIANT_POWER, random.Random(0)).chart == 1


# -- both variants in one pass -------------------------------------------------


@pytest.mark.parametrize(
    "n, d, trials, seeds",
    [(1, 2, 6, (0, 1)), (2, 3, 6, (0, 1)), (2, 3, 120, (3, 4)), (3, 4, 2, (0,))],
    ids=["1-2", "2-3", "2-3-skipped-draws", "3-4"],
)
def test_one_pass_equals_a_check_per_variant(n, d, trials, seeds):
    ctx = JetContext(n, d)
    for chart in range(1, ctx.nvars + 1):
        for seed in seeds:
            alone = [spanning_check(ctx, chart=chart, trials=trials, seed=seed, variant=v) for v, _ in VARIANTS]
            assert spanning_checks(ctx, chart=chart, trials=trials, seed=seed) == alone


def _spy_on_trials(monkeypatch) -> list:
    """(variant, point) of each trial a spanning pass takes, in order."""
    import jetframes.analysis as analysis

    seen = []
    real = analysis._VariantSpan.trial

    def trial(self, draw):
        seen.append((self.variant, draw.point))
        return real(self, draw)

    monkeypatch.setattr(analysis._VariantSpan, "trial", trial)
    return seen


def test_each_variant_of_the_pass_checks_the_points_it_draws_alone(monkeypatch):
    seen = _spy_on_trials(monkeypatch)
    # at seeds 3 and 4 the classical variant skips draws the power variant takes
    for seed in (3, 4):
        seen.clear()
        spanning_checks(CTX23, chart=1, trials=120, seed=seed)
        for variant, _ in VARIANTS:
            rng = random.Random(seed)
            alone = [sample_for_variant(CTX23, 1, variant, rng) for _ in range(120)]
            assert [point for v, point in seen if v == variant] == alone


def test_a_span_run_draws_each_point_once(monkeypatch):
    import jetframes.analysis as analysis
    from jetframes.cli import RunConfig, run

    draws = []
    real = analysis.sample_vertical_jet
    monkeypatch.setattr(analysis, "sample_vertical_jet", lambda *args: draws.append(args[1]) or real(*args))
    for seed, skipped in ((0, 0), (3, 2)):
        # the classical variant alone skips these draws; the power variant takes every draw
        draws.clear()
        rng = random.Random(seed)
        for _ in range(120):
            sample_for_variant(CTX23, 1, VARIANT_CLASSICAL, rng)
        assert len(draws) == 120 + skipped
        draws.clear()
        assert run(RunConfig(n=2, d=3, trials=120, seed=seed, suites=("span",)))["ok"]
        assert len(draws) == 120 + skipped


def test_one_pass_gives_up_with_named_error(monkeypatch):
    import jetframes.analysis as analysis

    ctx = CTX23
    real = sample_vertical_jet(ctx, 1, rng=4)
    # every classical Wronskian minor vanishes where only the chart jet is
    # nonzero, while the power variant admits the point
    degenerate = {v: 0 if v[0] == JET and v != jet(1, 1) else x for v, x in real.assignment.items()}
    draws = []

    def stuck_sampler(ctx, chart, rng):
        draws.append(chart)
        return JetPoint(dict(degenerate), chart)

    monkeypatch.setattr(analysis, "sample_vertical_jet", stuck_sampler)
    monkeypatch.setattr(analysis, "SAMPLE_ATTEMPTS", 7)
    taken = _spy_on_trials(monkeypatch)
    with pytest.raises(analysis.SamplingError, match="for variant 2 on chart 1 in 7 draws"):
        spanning_checks(ctx, chart=1, trials=1, seed=0)
    assert [variant for variant, _ in taken] == [VARIANT_POWER]
    assert len(draws) == 7


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 4)])
def test_spanning_at_off_diagonal_parameters(n, d):
    # the construction is uniform in the degree; exercise d > n + 1 too
    ctx = JetContext(n, d)
    for variant in (VARIANT_POWER, VARIANT_CLASSICAL):
        for r in spanning_check(ctx, chart=1, trials=2, seed=3, variant=variant):
            assert r.tangent_ok and r.rank == r.expected_rank == ctx.ambient_dimension - (n + 1)


def test_spanning_reports_non_tangent_offender():
    ctx = CTX23
    fake = FrameField(
        kind="coefficient",
        label="bogus",
        field=VectorField({ctx.coeff_var((0, 0, 0)): Polynomial.const(1)}),
    )
    results = spanning_check(ctx, chart=1, trials=1, seed=0, fields=[fake])
    assert not results[0].tangent_ok
    assert results[0].first_offender == "bogus"


def test_field_vector_alignment():
    ctx = CTX23
    point = sample_vertical_jet(ctx, 1, rng=9)
    f = coordinate_field(2, ctx)
    vec = field_vector(f, point, ctx)
    assert vec[1] == 1  # the z2 slot of the ambient ordering
    assert len(vec) == ctx.ambient_dimension


@pytest.mark.parametrize("ctx", [CTX23, CTX34], ids=["2-3", "3-4"])
def test_integer_rows_are_positive_multiples_of_field_vectors(ctx):
    from jetframes.analysis import _field_forms

    rng = random.Random(13)
    for variant, _ in VARIANTS:
        point = sample_for_variant(ctx, 1, variant, rng)
        ipoint = point.integer_point
        for f in enumerate_frame(ctx, 1, variant):
            forms = _field_forms(f, ctx)
            (scale,) = {form.scale * ipoint.den**form.degree for _, form in forms}
            assert scale > 0
            row = [0] * ctx.ambient_dimension
            for j, form in forms:
                row[j] = form.numerator(ipoint)
            assert row == [x * scale for x in field_vector(f, point, ctx)], f.label


def test_spanning_check_never_calls_evaluate(monkeypatch):
    reference = {
        variant: spanning_check(CTX23, chart=1, trials=3, seed=42, variant=variant)
        for variant, _ in VARIANTS
    }

    def refuse(self, assignment):
        raise AssertionError("Polynomial.evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    for variant, _ in VARIANTS:
        results = spanning_check(CTX23, chart=1, trials=3, seed=42, variant=variant)
        assert results == reference[variant]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_spanning_certificate_concludes_without_exact_ranks(monkeypatch):
    import jetframes.analysis as analysis

    calls = _count_calls(monkeypatch, analysis, "rank_rational")
    results = spanning_check(CTX23, chart=1, trials=3, seed=42)
    # the chain minor gives rank J and the pivots the frame's rank: no exact rank
    assert calls == []
    assert all(r.ok and r.jacobian_rank == 3 and r.rank == 25 for r in results)
    # the reference route ranks the Jacobian's n+1 rows at each point; never the frame's
    reference = spanning_check(CTX23, chart=1, trials=3, seed=42, fields=enumerate_frame(CTX23, 1))
    assert calls == [3] * 3
    assert reference == results


def test_spanning_falls_back_to_exact_rank_when_the_certificate_fails(monkeypatch):
    import jetframes.analysis as analysis

    ctx = CTX23
    jacobian = ctx.n + 1
    reference = spanning_check(ctx, chart=1, trials=3, seed=42)
    calls = _count_calls(monkeypatch, analysis, "rank_rational")

    def unreadable(fields, ctx, chart, variant):
        raise analysis.SpanPatternError("declined")

    # the certificate declines at every point, or cannot read the frame at all
    declines = (
        (analysis.SpanPattern, "certifies", lambda self, rows: False),
        (analysis, "span_pattern", unreadable),
    )
    for target, name, decline in declines:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, decline)
            calls.clear()
            results = spanning_check(ctx, chart=1, trials=3, seed=42)
            assert calls == [28] * 3  # the frame's rows; the chain minor still gives rank J
            assert results == reference
    # short on the Jacobian only: unless rank J = n+1 is proven, expected
    # bounds nothing, so the frame's rank is taken exactly although the
    # pivots hold.  A zero chain minor proves nothing, so J is ranked
    real = analysis.rank_rational
    short = []

    def jacobian_short(matrix):
        short.append(len(matrix))
        return jacobian - 1 if len(matrix) == jacobian else real(matrix)

    monkeypatch.setattr(analysis, "chain_matrix", lambda series, ctx, chart: [[0] * ctx.n] * ctx.n)
    monkeypatch.setattr(analysis, "rank_rational", jacobian_short)
    results = spanning_check(ctx, chart=1, trials=3, seed=42)
    assert short == [jacobian, 28] * 3
    assert [r.jacobian_rank for r in results] == [jacobian - 1] * 3
    assert [r.rank for r in results] == [r.rank for r in reference]


def test_spanning_reports_exact_rank_with_a_non_tangent_field(monkeypatch):
    import jetframes.analysis as analysis

    ctx = CTX23
    bogus = FrameField(
        kind="coefficient",
        label="bogus",
        field=VectorField({ctx.coeff_var((0, 0, 0)): Polynomial.const(1)}),
    )
    frame = enumerate_frame(ctx, chart=1)
    # a certificate that claims the lower bound: only tangency stops the shortcut
    monkeypatch.setattr(analysis.SpanPattern, "certifies", lambda self, rows: True)
    monkeypatch.setattr(analysis, "span_pattern", lambda *args: analysis.SpanPattern((), (), ()))
    calls = _count_calls(monkeypatch, analysis, "rank_rational")
    (result,) = spanning_check(ctx, chart=1, trials=1, seed=0, fields=frame + [bogus])
    assert not result.tangent_ok and result.first_offender == "bogus"
    assert calls == [3, 29]  # the Jacobian, then the fields: tangency failed
    # d/da_0 leaves ker J, so the exact rank exceeds the tangent dimension
    assert result.jacobian_rank == 3 and result.rank == result.expected_rank + 1 == 26
