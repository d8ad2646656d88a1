"""The spanning certificate: the block-triangular pattern of the frame, its
pivots at sampled points, and the points of Sigma minus Sigma-tilde (nonzero
first jets, jet matrix of rank r < n) where it must decline."""

import math
import random
import re
from itertools import product

import pytest

import jetframes.analysis as analysis
import jetframes.frames as frames
import jetframes.wronskian as wronskian
from jetframes.algebra import (
    COEFF,
    MAT,
    Polynomial,
    VectorField,
    coord,
    determinant,
    integer_bareiss,
    jet,
    mat,
    rank_rational,
    var_name,
)
from jetframes.analysis import SpanPatternError, _field_forms, span_pattern, spanning_check
from jetframes.cli import RunConfig, run
from jetframes.frames import FrameField, enumerate_frame
from jetframes.jetspace import (
    JetContext,
    defining_equations_iterated,
    first_jets_all_zero,
    lift_vertical_jet,
    random_rational,
)
from jetframes.wronskian import (
    VARIANT_CLASSICAL,
    VARIANT_POWER,
    VARIANTS,
    solved_exponents,
    system_determinant,
)

from reference_helpers import jacobian_rank_at, jacobian_values_at, jet_matrix_rank

CONTEXTS = [(1, 2), (2, 3), (3, 4)]


def _integer_rows(fields, point, ctx):
    """Each field's integer row at the point, as spanning_check builds it,
    divided by its content: that keeps every rank and every nonzero entry,
    and rank_rational runs on far smaller integers."""
    ipoint = point.integer_point
    rows = []
    for f in fields:
        row = [0] * ctx.ambient_dimension
        for j, form in _field_forms(f, ctx):
            row[j] = form.numerator(ipoint)
        content = math.gcd(*row) or 1
        rows.append([x // content for x in row])
    return rows


def _expected(ctx):
    return ctx.ambient_dimension - (ctx.n + 1)


@pytest.mark.parametrize("n,d", CONTEXTS)
@pytest.mark.parametrize("chart_at", ["1", "n+1"])
@pytest.mark.parametrize("variant", [v for v, _ in VARIANTS])
def test_pattern_holds_symbolically(n, d, chart_at, variant):
    ctx = JetContext(n, d)
    chart = 1 if chart_at == "1" else ctx.nvars
    fields = enumerate_frame(ctx, chart, variant)
    pattern = span_pattern(fields, ctx, chart, variant)
    ambient = ctx.ambient_variables
    assert len(pattern.jet_columns) + len(pattern.pivots) == _expected(ctx)
    assert [fields[r].kind for r in pattern.jet_rows] == ["jet_linear"] * ctx.nvars**2
    assert sorted(ambient[c] for c in pattern.jet_columns) == sorted(ctx.jet_vars)
    w = system_determinant(solved_exponents(variant, ctx, chart), ctx)
    for r, c in pattern.pivots:
        f = fields[r]
        # the pivots are W for the coefficient fields and 1 for the others
        assert f.field.get(ambient[c]) == (w if f.kind == "coefficient" else Polynomial.const(1)), f.label


def _replaced(fields, label, field):
    return [FrameField(f.kind, f.label, field) if f.label == label else f for f in fields]


def test_a_shifted_field_moving_a_longer_slot_breaks_the_pattern():
    ctx = JetContext(2, 4)
    fields = enumerate_frame(ctx, 1, VARIANT_POWER)
    shifted = [f for f in fields if f.kind == "shifted_coefficient"]
    short = next(f for f in shifted if "a=(2, 1, 0)" in f.label)
    longer = ctx.coeff_var((2, 2, 0))
    assert any(f.field.get(longer) == Polynomial.const(1) for f in shifted)  # another field's pivot
    mutated = _replaced(fields, short.label, VectorField({**short.field.coeffs, longer: Polynomial.const(1)}))
    with pytest.raises(SpanPatternError) as failure:
        span_pattern(mutated, ctx, 1, VARIANT_POWER)
    assert short.label in str(failure.value) and var_name(longer) in str(failure.value)
    # a second slot as long as the pivot breaks the triangle too
    tied = ctx.coeff_var((1, 2, 0))
    mutated = _replaced(fields, short.label, VectorField({**short.field.coeffs, tied: Polynomial.const(1)}))
    with pytest.raises(SpanPatternError, match=re.escape(f"{short.label} moves {var_name(tied)}, as long as")):
        span_pattern(mutated, ctx, 1, VARIANT_POWER)


def test_a_coordinate_field_moving_a_jet_breaks_the_pattern():
    ctx = JetContext(2, 3)
    fields = enumerate_frame(ctx, 1, VARIANT_POWER)
    z1 = next(f for f in fields if f.label == "coord[1]")
    mutated = _replaced(fields, "coord[1]", VectorField({**z1.field.coeffs, jet(2, 1): Polynomial.const(1)}))
    with pytest.raises(SpanPatternError, match=re.escape("coord[1]") + ".*" + re.escape(var_name(jet(2, 1)))):
        span_pattern(mutated, ctx, 1, VARIANT_POWER)


def test_a_field_without_a_free_slot_or_a_missing_pivot_breaks_the_pattern():
    ctx = JetContext(2, 3)
    fields = enumerate_frame(ctx, 1, VARIANT_POWER)
    bogus = FrameField("coefficient", "bogus", VectorField({ctx.coeff_var((0, 0, 0)): Polynomial.const(1)}))
    with pytest.raises(SpanPatternError, match="bogus moves no free slot"):
        span_pattern(fields + [bogus], ctx, 1, VARIANT_POWER)
    with pytest.raises(SpanPatternError, match=re.escape("no field has its pivot at z2")):
        span_pattern([f for f in fields if f.label != "coord[2]"], ctx, 1, VARIANT_POWER)


def test_spanning_takes_the_dense_route_when_the_pattern_breaks(monkeypatch):
    # a repeated field leaves the span unchanged but gives a pivot two rows
    ctx = JetContext(2, 3)
    fields = enumerate_frame(ctx, 1, VARIANT_POWER)
    doubled = fields + [fields[0]]
    with pytest.raises(SpanPatternError, match="pivot of both"):
        span_pattern(doubled, ctx, 1, VARIANT_POWER)
    reference = spanning_check(ctx, chart=1, trials=2, seed=5)
    sizes = []
    real = analysis.rank_rational
    monkeypatch.setattr(analysis, "rank_rational", lambda m: sizes.append(len(m)) or real(m))
    results = spanning_check(ctx, chart=1, trials=2, seed=5, fields=doubled)
    assert results == reference
    assert sizes == [ctx.n + 1, len(doubled)] * 2


def test_pivots_bound_the_rank_only_from_below():
    # a bare jet direction keeps the pattern (one more jet row) but leaves
    # the tangent space, so the rank is taken exactly and exceeds expected
    ctx = JetContext(2, 3)
    bare = FrameField("jet_linear", "bare", VectorField({jet(1, 1): Polynomial.const(1)}))
    fields = enumerate_frame(ctx, 1, VARIANT_POWER) + [bare]
    span_pattern(fields, ctx, 1, VARIANT_POWER)
    for r in spanning_check(ctx, chart=1, trials=2, seed=0, fields=fields):
        assert not r.tangent_ok and r.first_offender == "bare"
        assert r.rank == r.expected_rank + 1 == 26


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
def test_certificate_agrees_with_the_exact_rank_at_sampled_points(n, d):
    ctx = JetContext(n, d)
    rng = random.Random(21)
    for variant, _ in VARIANTS:
        fields = enumerate_frame(ctx, 1, variant)
        pattern = span_pattern(fields, ctx, 1, variant)
        for _ in range(2):
            rows = _integer_rows(fields, analysis.sample_for_variant(ctx, 1, variant, rng), ctx)
            assert pattern.certifies(rows)
            assert rank_rational(rows) == _expected(ctx)
        # a vanishing pivot entry alone makes it decline
        for r, c in pattern.pivots[:: len(pattern.pivots) - 1]:
            zeroed = [row[:c] + [0] + row[c + 1:] if i == r else row for i, row in enumerate(rows)]
            assert not pattern.certifies(zeroed)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
def test_default_span_runs_take_no_modular_rank_of_the_frame(monkeypatch, n, d):
    sizes = []
    real = analysis.rank_rational
    monkeypatch.setattr(analysis, "rank_rational", lambda m: sizes.append(len(m)) or real(m))
    jacobians = []
    real_jacobian = analysis.jacobian_matrix_at
    monkeypatch.setattr(analysis, "jacobian_matrix_at", lambda *args: jacobians.append(1) or real_jacobian(*args))
    report = run(RunConfig(n=n, d=d, suites=("span",)))
    assert report["ok"]
    # the chain minor ranks the Jacobian and the pivots the frame, and the
    # proof gives tangency: no exact rank is taken and no Jacobian is built
    assert sizes == [] and jacobians == []


def _low_rank_point(ctx, r, rng):
    """A point of the variety over random coordinates whose jet matrix is
    U V, with U of size (n+1) x r and V of size r x n: rank r, with the
    chart jet z_1' nonzero."""
    while True:
        u = [[random_rational(rng, nonzero=True) for _ in range(r)] for _ in range(ctx.nvars)]
        v = [[random_rational(rng, nonzero=True) for _ in range(ctx.n)] for _ in range(r)]
        base = {c: random_rational(rng) for c in ctx.coord_vars}
        for i in range(1, ctx.nvars + 1):
            for lam in range(1, ctx.n + 1):
                base[jet(i, lam)] = sum(u[i - 1][s] * v[s][lam - 1] for s in range(r))
        if base[jet(1, 1)] != 0:
            point = lift_vertical_jet(base, ctx, 1, rng)
            if jet_matrix_rank(point, ctx) == r:
                return point


# at r = 1 the probe values: rank 22 of 25 at (2, 3) and 73 of 81 at (3, 4)
@pytest.mark.parametrize("n,d,rank_one", [(2, 3, (22, 25)), (3, 4, (73, 81))])
def test_variant1_frame_falls_short_on_sigma_minus_sigma_tilde(n, d, rank_one):
    ctx = JetContext(n, d)
    fields = enumerate_frame(ctx, 1, VARIANT_POWER)
    pattern = span_pattern(fields, ctx, 1, VARIANT_POWER)
    rng = random.Random(40 + n)
    for r in range(1, n):
        point = _low_rank_point(ctx, r, rng)
        assert not first_jets_all_zero(point, ctx)
        assert jacobian_rank_at(point, ctx) == ctx.n + 1
        rows = _integer_rows(fields, point, ctx)
        jacobian = jacobian_values_at(point, ctx)
        assert all(sum(a * x for a, x in zip(eq, row)) == 0 for row in rows for eq in jacobian)
        # every pivot holds (W is a power of z_1'), but the jet block is n+1
        # copies of a rank-r jet matrix, so the certificate declines there
        assert all(rows[i][c] for i, c in pattern.pivots)
        block = [[rows[i][c] for c in pattern.jet_columns] for i in pattern.jet_rows]
        assert integer_bareiss(block)[0] == ctx.nvars * r
        assert not pattern.certifies(rows)
        # and the frame's rank falls short by exactly (n+1)(n-r)
        rank = rank_rational(rows)
        assert rank == _expected(ctx) - ctx.nvars * (n - r), r
        if r == 1:
            assert (rank, _expected(ctx)) == rank_one


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
def test_jacobian_minor_on_the_solved_slots_is_w(n, d):
    # rank J = n + 1 wherever W != 0: dE_0/da_0 = 1, dE_kappa/da_0 = 0 for
    # kappa >= 1, and dE_kappa/da_beta = D^kappa(z^beta)
    ctx = JetContext(n, d)
    rng = random.Random(3)
    column = {v: j for j, v in enumerate(ctx.ambient_variables)}
    for variant, _ in VARIANTS:
        solved = solved_exponents(variant, ctx, 1)
        columns = [column[ctx.coeff_var(beta)] for beta in ((0,) * ctx.nvars, *solved)]
        w = system_determinant(solved, ctx)
        for _ in range(2):
            point = analysis.sample_for_variant(ctx, 1, variant, rng)
            minor = [[row[j] for j in columns] for row in jacobian_values_at(point, ctx)]
            assert determinant(minor).constant_value() == w.evaluate(point.assignment) != 0


def test_spanning_check_takes_the_exact_rank_at_a_rank_one_point(monkeypatch):
    # the certificate declines on Sigma minus Sigma-tilde, so rank_rational
    # decides on the frame's rows as spanning_check scales them
    ctx = JetContext(3, 4)
    point = _low_rank_point(ctx, 1, random.Random(43))
    monkeypatch.setattr(analysis, "sample_vertical_jet", lambda *args: point)
    (trial,) = spanning_check(ctx, chart=1, trials=1, variant=VARIANT_POWER)
    assert trial.tangent_ok and trial.jacobian_rank == ctx.n + 1
    assert (trial.rank, trial.expected_rank) == (73, 81)


# -- the cached frame's shortcuts against the full pointwise route -------------


@pytest.mark.parametrize("n,d", CONTEXTS)
@pytest.mark.parametrize("chart_at", ["1", "n+1"])
@pytest.mark.parametrize("variant", [v for v, _ in VARIANTS])
def test_default_route_matches_the_pointwise_reference(n, d, chart_at, variant):
    ctx = JetContext(n, d)
    chart = 1 if chart_at == "1" else ctx.nvars
    got = spanning_check(ctx, chart=chart, trials=2, seed=7, variant=variant)
    fields = enumerate_frame(ctx, chart, variant)
    assert got == spanning_check(ctx, chart=chart, trials=2, seed=7, variant=variant, fields=fields)
    assert all(r.ok for r in got)


@pytest.fixture
def fresh_frames():
    """Empty the frame and proof caches before and after a test that builds
    them from patched parts."""
    caches = (
        frames.coefficient_fields,
        frames.variant_free_frame,
        frames._columns_are_partials,
        frames.cramer_tangency,
        frames.tangency_proof,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_coefficient_field_failing_the_proof_takes_the_pointwise_product(monkeypatch, fresh_frames):
    ctx = JetContext(2, 3)
    a0 = ctx.coeff_var((0, 0, 0))
    real = frames.coefficient_field

    def broken(variant, alpha, ctx, chart=None):
        f = real(variant, alpha, ctx, chart)
        if variant == VARIANT_POWER and tuple(alpha) == (0, 1, 0):
            # one more unit of d/da_0 moves E_0 by 1
            return FrameField(f.kind, f.label, VectorField({**f.field.coeffs, a0: f.field.get(a0) + 1}))
        return f

    monkeypatch.setattr(frames, "coefficient_field", broken)
    label = real(VARIANT_POWER, (0, 1, 0), ctx, 1).label
    proof = frames.tangency_proof(ctx, 1)
    assert proof.coefficient == label and not proof.holds
    jacobians = _spy(monkeypatch, analysis, "jacobian_matrix_at")
    results = spanning_check(ctx, chart=1, trials=2, seed=0)
    assert len(jacobians) == 2  # the product needs J at each point
    assert all(not r.tangent_ok and r.first_offender == label for r in results)
    report = run(RunConfig(n=2, d=3, suites=("frames",)))
    assert [item["ok"] for item in report["suites"][0]["items"]] == [False] + [True] * 5
    # the wronskian suite reads the same verdict, variant by variant
    assert _cramer_items(run(RunConfig(n=2, d=3, suites=("wronskian",)))) == {"v1": False, "v2": True}


def _cramer_items(report) -> dict:
    """The wronskian suite's verdict on each variant's Cramer solutions."""
    (suite,) = [s for s in report["suites"] if s["name"] == "wronskian"]
    prefix = "cramer solution satisfies its system ("
    return {i["name"][len(prefix):-1]: i["ok"] for i in suite["items"] if i["name"].startswith(prefix)}


@pytest.fixture
def fresh_systems():
    """Empty the cached Cramer system determinants and adjugates before and
    after a test that builds them from patched jet entries."""
    caches = (wronskian.system_determinant, wronskian.system_adjugate)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_perturbed_jet_entry_fails_the_cramer_check(monkeypatch, fresh_frames, fresh_systems):
    ctx = JetContext(2, 3)
    real = wronskian.monomial_jet_entry

    def perturbed(ctx, beta, kappa):
        return real(ctx, beta, kappa) + (1 if (tuple(beta), kappa) == ((0, 1, 0), 1) else 0)

    monkeypatch.setattr(wronskian, "monomial_jet_entry", perturbed)
    # the Cramer vectors solve a system that is not E_1's partials: v1 reads
    # a wrong column for alpha = (0, 1, 0) only, v2 a wrong solved column
    # for every alpha, so its first field fails
    assert [frames.cramer_tangency(ctx, 1, v) for v, _ in VARIANTS] == [
        frames.coefficient_field(VARIANT_POWER, (0, 1, 0), ctx, 1).label,
        frames.coefficient_fields(ctx, 1, VARIANT_CLASSICAL)[0].label,
    ]
    report = run(RunConfig(n=2, d=3, suites=("wronskian", "frames")))
    assert _cramer_items(report) == {"v1": False, "v2": False}
    frames_items = report["suites"][1]["items"]
    assert [item["ok"] for item in frames_items] == [False] + [True] * 5


def test_the_shifted_fields_read_no_jet_entry_of_a_long_slot(monkeypatch, fresh_frames, fresh_systems):
    ctx = JetContext(2, 3)
    real = wronskian.monomial_jet_entry
    read = []
    monkeypatch.setattr(wronskian, "monomial_jet_entry", lambda ctx, beta, kappa: read.append(beta) or real(ctx, beta, kappa))
    assert frames.tangency_proof(ctx, 1).holds
    # shifted fields move slots |gamma| > n as well, and are decided by
    # E_kappa's own partials there: the cached entries stay those of the
    # Cramer systems
    assert read and all(sum(beta) <= ctx.n for beta in read)


@pytest.mark.parametrize("moved", ["long slot", "coordinate", "E_n only"])
def test_a_shifted_field_moving_an_equation_is_named(monkeypatch, fresh_frames, moved):
    ctx = JetContext(2, 3)
    z2 = Polynomial.var(coord(2))
    real = frames.canonical_shifted_fields
    broken = []

    def with_one_broken(ctx):
        fields = real(ctx)
        f = fields[-1]
        if moved == "E_n only":
            # the shift pattern with |ell| = n: it annihilates E_0 and E_1 but not E_2
            directions = {
                ctx.coeff_var((0, 3, 0)): 1,
                ctx.coeff_var((0, 2, 0)): -2 * z2,
                ctx.coeff_var((0, 1, 0)): z2 * z2,
            }
        else:
            v = ctx.coeff_var((0, 3, 0)) if moved == "long slot" else coord(2)
            directions = {**f.field.coeffs, v: f.field.get(v) + 1}
        fields[-1] = FrameField(f.kind, f.label, VectorField(directions))
        broken.append(fields[-1])
        return fields

    monkeypatch.setattr(frames, "canonical_shifted_fields", with_one_broken)
    proof = frames.tangency_proof(ctx, 1)
    assert proof.shifted == broken[0].label and proof.coefficient is None and proof.coordinate is None
    if moved == "E_n only":
        assert [broken[0].apply(eq).is_zero() for eq in defining_equations_iterated(ctx)] == [True, True, False]


@pytest.mark.parametrize("moved", ["long slot", "coordinate", "jet"])
def test_a_coefficient_field_moving_a_long_slot_is_named(monkeypatch, fresh_frames, moved):
    ctx = JetContext(2, 3)
    # outside the Cramer system: a slot |gamma| = 3 > n, z_2 (moves E_0) or z_1' (moves E_1)
    extra = {"long slot": ctx.coeff_var((0, 3, 0)), "coordinate": coord(2), "jet": jet(1, 1)}[moved]
    real = frames.coefficient_field

    def broken(variant, alpha, ctx, chart=None):
        f = real(variant, alpha, ctx, chart)
        if variant == VARIANT_CLASSICAL and tuple(alpha) == (0, 0, 1):
            return FrameField(f.kind, f.label, VectorField({**f.field.coeffs, extra: 1}))
        return f

    monkeypatch.setattr(frames, "coefficient_field", broken)
    label = real(VARIANT_CLASSICAL, (0, 0, 1), ctx, 1).label
    assert frames.cramer_tangency(ctx, 1, VARIANT_POWER) is None
    assert frames.cramer_tangency(ctx, 1, VARIANT_CLASSICAL) == label
    assert frames.tangency_proof(ctx, 1).coefficient == label


def test_a_default_run_applies_no_coefficient_field_to_an_equation(monkeypatch, fresh_frames):
    applied = []
    real = VectorField.apply
    monkeypatch.setattr(VectorField, "apply", lambda self, p: applied.append((self, p)) or real(self, p))
    assert run(RunConfig(n=2, d=3))["ok"]
    ctx = JetContext(2, 3)
    # a coefficient field can be applied only once its VectorField is built,
    # and the run builds none: every verdict on them reads their Cramer data
    fields = [f for v, _ in VARIANTS for f in frames.coefficient_fields(ctx, 1, v)]
    assert applied and fields
    assert not any("field" in vars(f) for f in fields)


def _move_one_jet_field(monkeypatch, ctx, k, l, v, extra) -> str:
    """Add extra to the v direction of the frame's E_kl field, the symbolic
    table left as it is; the field's label."""
    real = frames.elementary_jet_fields

    def moved(table):
        parts = real(table)
        part = parts[(k, l)]
        parts[(k, l)] = VectorField({**part.coeffs, v: part.get(v) + extra})
        return parts

    monkeypatch.setattr(frames, "elementary_jet_fields", moved)
    return "jet[" + ";".join(",".join(map(str, row)) for row in frames.elementary_matrix(k, l, ctx.nvars)) + "]"


def _frames_failures(config) -> list:
    (suite,) = run(config)["suites"]
    return [item["name"] for item in suite["items"] if not item["ok"]]


def test_a_jet_field_moving_e1_fails_the_proof(monkeypatch, fresh_frames):
    ctx = JetContext(2, 3)
    # E_1 = sum of z_i' dE_0/dz_i moves under d/dz_2'
    label = _move_one_jet_field(monkeypatch, ctx, 1, 2, jet(2, 1), 1)
    proof = frames.tangency_proof(ctx, 1)
    assert proof.jet_higher == label and proof.jet_order0 is None and not proof.holds
    # the cached frame takes the pointwise product, which names the same field
    results = spanning_check(ctx, chart=1, trials=2, seed=0)
    assert all(not r.tangent_ok and r.first_offender == label for r in results)


@pytest.mark.parametrize("added", ["one", "E_0"])
def test_a_jet_field_with_a_wrong_order0_image_fails_the_proof(monkeypatch, fresh_frames, added):
    ctx = JetContext(2, 3)
    # dE_0/da_0 = 1, so E_21(E_0) gains 1 (not a multiple of E_0) or E_0
    # (a multiple, by t_21 + 1 in place of t_21); no E_kappa, kappa >= 1,
    # holds a_0
    extra = 1 if added == "one" else defining_equations_iterated(ctx)[0]
    label = _move_one_jet_field(monkeypatch, ctx, 2, 1, ctx.coeff_var((0, 0, 0)), extra)
    proof = frames.tangency_proof(ctx, 1)
    assert proof.jet_order0 == label and proof.jet_higher is None and not proof.holds
    config = RunConfig(n=2, d=3, suites=("frames",))
    assert _frames_failures(config) == ["jet field order-0 tangency divisible by E0"]


@pytest.mark.parametrize("nd, kl", [((2, 3), (1, 1)), ((2, 3), (3, 2)), ((3, 4), (2, 3))])
@pytest.mark.parametrize("perturbed", ["doubled", "plus z_1"])
def test_a_perturbed_coefficient_direction_is_named_by_jet_order0(monkeypatch, fresh_frames, nd, kl, perturbed):
    ctx = JetContext(*nd)
    part = next(f for f in frames.variant_free_frame(ctx) if f.label == frames._jet_label(*kl, ctx.nvars))
    # E_0 is linear in the coefficients, so E_kl(E_0) moves by extra * z^gamma
    v, direction = next((v, c) for v, c in part.field.items() if v[0] == COEFF)
    frames.variant_free_frame.cache_clear()
    extra = direction if perturbed == "doubled" else Polynomial.var(coord(1))
    label = _move_one_jet_field(monkeypatch, ctx, *kl, v, extra)
    assert label == part.label
    assert frames.tangency_proof(ctx, 1).jet_order0 == label


def test_a_zero_chain_minor_ranks_the_jacobian(monkeypatch):
    ctx = JetContext(2, 3)
    reference = spanning_check(ctx, chart=1, trials=3, seed=4)
    monkeypatch.setattr(analysis, "chain_matrix", lambda series, ctx, chart: [[0] * ctx.n] * ctx.n)
    jacobians = _spy(monkeypatch, analysis, "jacobian_matrix_at")
    ranks = _spy(monkeypatch, analysis, "rank_rational")
    assert spanning_check(ctx, chart=1, trials=3, seed=4) == reference
    assert len(jacobians) == 3
    assert [len(m) for (m,) in ranks] == [ctx.n + 1] * 3


def test_a_declining_certificate_builds_the_full_rows(monkeypatch):
    ctx = JetContext(2, 3)
    reference = spanning_check(ctx, chart=1, trials=3, seed=4)
    monkeypatch.setattr(analysis.SpanPattern, "certifies", lambda self, rows: False)
    rows = _spy(monkeypatch, analysis, "_full_rows")
    ranks = _spy(monkeypatch, analysis, "rank_rational")
    assert spanning_check(ctx, chart=1, trials=3, seed=4) == reference
    assert len(rows) == 3
    assert [len(m) for (m,) in ranks] == [len(enumerate_frame(ctx, 1, VARIANT_POWER))] * 3


def test_a_moved_frame_jet_field_is_named_by_the_proof_and_by_span(monkeypatch, fresh_frames):
    ctx = JetContext(2, 3)
    # the frame's own E_11 moves E_1; the symbolic field it was split from
    # does not, so a proof that checked that field would miss it
    label = _move_one_jet_field(monkeypatch, ctx, 1, 1, jet(1, 1), 1)
    assert label == "jet[1,0,0;0,0,0;0,0,0]"
    assert frames.tangency_proof(ctx, 1).jet_higher == label
    config = RunConfig(n=2, d=3, suites=("frames",))
    assert _frames_failures(config) == ["jet field annihilates higher equations identically"]
    cached = spanning_check(ctx, chart=1, trials=2, seed=0)
    reference = spanning_check(ctx, chart=1, trials=2, seed=0, fields=enumerate_frame(ctx, 1))
    assert [r.first_offender for r in cached] == [r.first_offender for r in reference] == [label] * 2


def _fallback_fields(monkeypatch) -> list:
    """The labels of every list of fields _first_nonzero_image is given."""
    received = []
    real = frames._first_nonzero_image
    monkeypatch.setattr(frames, "_first_nonzero_image", lambda fields, eqs: received.append([f.label for f in fields]) or real(fields, eqs))
    return received


def _coordinate_labels(ctx) -> list:
    return [f"coord[{i}]" for i in range(1, ctx.nvars + 1)]


@pytest.mark.parametrize("nd, kl, alpha, c, j", [((2, 3), (1, 1), (0, 1, 0), 1, 1), ((2, 3), (3, 2), (1, 1, 1), -3, 3), ((3, 4), (2, 3), (0, 0, 2, 0), 2, 4)])
def test_a_coefficient_direction_plus_c_z_j_is_named_by_jet_higher(monkeypatch, fresh_frames, nd, kl, alpha, c, j):
    ctx = JetContext(*nd)
    # X(E_1) gains c z_j D(z^alpha), not 0 for |alpha| >= 1 (a_0 moves only E_0)
    label = _move_one_jet_field(monkeypatch, ctx, *kl, ctx.coeff_var(alpha), c * Polynomial.var(coord(j)))
    received = _fallback_fields(monkeypatch)
    assert frames.tangency_proof(ctx, 1).jet_higher == label
    # the Taylor identities decide it: only the coordinate fields take the images
    assert received == [_coordinate_labels(ctx)]


@pytest.mark.parametrize("nd", [(2, 3), (3, 4)])
def test_a_dropped_table_entry_is_named_by_jet_higher(monkeypatch, fresh_frames, nd):
    ctx = JetContext(*nd)
    real = frames._solve_symbolic_table  # its cached table is copied, not changed
    # the first entry (alpha, beta) with |alpha| >= 1: A_alpha loses T(alpha, beta) z^beta
    key = min(k for k in real(ctx).entries if sum(k[0]) >= 1)
    parts = sorted(v[1:] for v in real(ctx).entries[key].variables() if v[0] == MAT)

    def dropped(ctx):
        table = real(ctx)
        return frames.JetFieldTable(ctx, {k: p for k, p in table.entries.items() if k != key}, table.top_factor, table.block_dets)

    monkeypatch.setattr(frames, "_solve_symbolic_table", dropped)
    received = _fallback_fields(monkeypatch)
    proof = frames.tangency_proof(ctx, 1)
    # the first E_kl whose m(k, l) part of the entry is not 0
    assert proof.jet_higher == frames._jet_label(*parts[0], ctx.nvars)
    assert received == [_coordinate_labels(ctx)]
    jet_fields = [f for f in frames.variant_free_frame(ctx) if f.kind == "jet_linear"]
    assert proof.jet_higher == frames._first_nonzero_image(jet_fields, defining_equations_iterated(ctx)[1:])


@pytest.mark.parametrize("nd", [(1, 2), (2, 3), (3, 4)])
def test_a_changed_top_factor_part_is_named_by_jet_order0_alone(monkeypatch, fresh_frames, nd):
    ctx = JetContext(*nd)
    real = frames._solve_symbolic_table  # its cached table is copied, not changed
    table = real(ctx)
    received = _fallback_fields(monkeypatch)
    for k, l in product(range(1, ctx.nvars + 1), repeat=2):
        # t_kl gains a_0: E_kl - t_kl E_0 d/da_0 sends E_0 to -a_0 E_0, and E_1..E_n still to 0
        top_factor = table.top_factor + ctx.coeff_poly((0,) * ctx.nvars) * Polynomial.var(mat(k, l))
        changed = frames.JetFieldTable(ctx, dict(table.entries), top_factor, dict(table.block_dets))
        monkeypatch.setattr(frames, "_solve_symbolic_table", lambda c: changed if c == ctx else real(c))
        frames.tangency_proof.cache_clear()
        label = frames._jet_label(k, l, ctx.nvars)
        assert frames.tangency_proof(ctx, 1) == frames.TangencyProof(None, None, None, label, None), label
    assert received == [_coordinate_labels(ctx)] * ctx.nvars**2


@pytest.mark.parametrize("alpha, named", [((0, 1, 0), True), ((0, 0, 0), False)])
def test_a_jet_in_a_coefficient_direction_takes_the_fallback_for_jet_higher(monkeypatch, fresh_frames, alpha, named):
    ctx = JetContext(2, 3)
    # z_1' z_2 on a_alpha: X(E_1) gains z_1' z_2 D(z^alpha), 0 only for alpha = 0
    label = _move_one_jet_field(monkeypatch, ctx, 2, 1, ctx.coeff_var(alpha), Polynomial.var(jet(1, 1)) * Polynomial.var(coord(2)))
    received = _fallback_fields(monkeypatch)
    proof = frames.tangency_proof(ctx, 1)
    assert proof.jet_higher == (label if named else None)
    # the field alone takes the images, as the coordinate fields do
    assert received == [_coordinate_labels(ctx), [label]]
    if not named:
        assert proof.jet_order0 == label


def test_a_default_34_run_decides_the_coordinate_fields_on_e0_alone(monkeypatch, fresh_frames):
    received = []
    real = frames._first_nonzero_image
    monkeypatch.setattr(frames, "_first_nonzero_image", lambda fields, eqs: received.append((fields, eqs)) or real(fields, eqs))
    assert run(RunConfig(n=3, d=4))["ok"]
    ctx = JetContext(3, 4)
    # each coordinate field commutes with D, so X(E_kappa) = D^kappa X(E_0)
    (fields, eqs), = received
    assert [f.label for f in fields] == _coordinate_labels(ctx)
    assert list(eqs) == [defining_equations_iterated(ctx)[0]]


@pytest.mark.parametrize("nd", [(2, 3), (3, 4)])
def test_a_coordinate_field_moving_only_e_n_is_named(monkeypatch, fresh_frames, nd):
    ctx = JetContext(*nd)
    eqs = defining_equations_iterated(ctx)
    real = frames.coordinate_field

    def moved(i, ctx):
        f = real(i, ctx)
        if i != 1:
            return f
        # d/dz_1^(n) moves E_n alone, by dE_0/dz_1: the field no longer commutes with D
        return FrameField(f.kind, f.label, VectorField({**f.field.coeffs, jet(1, ctx.n): 1}))

    monkeypatch.setattr(frames, "coordinate_field", moved)
    field = frames.coordinate_field(1, ctx)
    assert frames._first_nonzero_image([field], eqs[:-1]) is None
    assert frames._first_nonzero_image([field], eqs) == "coord[1]"
    assert frames.tangency_proof(ctx, 1).coordinate == "coord[1]"
