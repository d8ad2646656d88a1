"""Coefficient fields held as Cramer data: the certificates that decide their
tangency (cramer_tangency), their invariance (invariance_proved) and their
span pattern without expanding them, against the expanded fields as the
reference."""

import pytest

import jetframes.analysis as analysis
import jetframes.frames as frames
import jetframes.wronskian as wronskian
from jetframes.algebra import Polynomial, VectorField, jet
from jetframes.analysis import _field_forms, invariance_proved, reparam_generators, span_pattern
from jetframes.cli import RunConfig, run, suite_invariance
from jetframes.frames import CramerField, FrameField, coefficient_fields, cramer_tangency, enumerate_frame
from jetframes.jetspace import JetContext, defining_equations_iterated
from jetframes.wronskian import VARIANTS

CONTEXTS = [(1, 2), (2, 3), (3, 4)]
CACHES = (
    frames.coefficient_fields,
    frames.variant_free_frame,
    frames._columns_are_partials,
    frames.cramer_tangency,
    frames.tangency_proof,
    wronskian.system_determinant,
    wronskian.system_adjugate,
    analysis._generators_act_on_columns,
    analysis._cramer_invariant,
)


@pytest.fixture
def fresh_caches():
    """Empty every cache the Cramer certificates read, before and after a
    test that builds them from patched parts."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def expanded(fields) -> list:
    """The fields as plain FrameFields: each VectorField built, so every
    route takes its expanded branch."""
    return [FrameField(f.kind, f.label, f.field) for f in fields]


def first_moving(fields, eqs):
    """The reference: the label of the first field that moves some equation,
    each field applied to each equation."""
    return next((f.label for f in fields if any(not f.apply(eq).is_zero() for eq in eqs)), None)


def _cramer_items(report) -> dict:
    (suite,) = [s for s in report["suites"] if s["name"] == "wronskian"]
    prefix = "cramer solution satisfies its system ("
    return {i["name"][len(prefix):-1]: i["ok"] for i in suite["items"] if i["name"].startswith(prefix)}


# -- tangency ------------------------------------------------------------------


def _perturb(monkeypatch, part, ctx):
    """Break one piece of data the tangency certificate reads."""
    if part == "adjugate entry":
        real = wronskian.system_adjugate

        def adjugate(solved, ctx):
            adj = [list(row) for row in real(solved, ctx)]
            adj[0][0] = adj[0][0] + 1
            return adj

        monkeypatch.setattr(wronskian, "system_adjugate", adjugate)
    elif part == "W":
        real = wronskian.system_determinant
        monkeypatch.setattr(wronskian, "system_determinant", lambda solved, ctx: real(solved, ctx) + 1)
    elif part == "c_alpha entry":
        # (0, 0, 1) is a free slot of both variants on chart 1
        real = wronskian.monomial_jet_entry
        monkeypatch.setattr(
            wronskian,
            "monomial_jet_entry",
            lambda ctx, beta, kappa: real(ctx, beta, kappa) + (1 if (tuple(beta), kappa) == ((0, 0, 1), 1) else 0),
        )
    else:
        # E_1 gains the term a_0, whose partial D(1) = 0 should be
        real = frames.defining_equations_iterated
        a0 = ctx.coeff_poly((0,) * ctx.nvars)
        monkeypatch.setattr(
            frames, "defining_equations_iterated", lambda ctx: tuple(e + a0 if k == 1 else e for k, e in enumerate(real(ctx)))
        )


@pytest.mark.parametrize("part", ["adjugate entry", "W", "c_alpha entry", "E_kappa term"])
def test_a_perturbed_piece_of_cramer_data_is_named_with_the_expanded_label(monkeypatch, fresh_caches, part):
    ctx = JetContext(2, 3)
    _perturb(monkeypatch, part, ctx)
    eqs = frames.defining_equations_iterated(ctx)
    for variant, _ in VARIANTS:
        fields = coefficient_fields(ctx, 1, variant)
        assert all(isinstance(f, CramerField) for f in fields)
        label = cramer_tangency(ctx, 1, variant)
        assert label is not None and label == first_moving(fields, eqs)
    report = run(RunConfig(n=2, d=3, suites=("wronskian", "frames")))
    assert _cramer_items(report) == {"v1": False, "v2": False}
    assert report["suites"][1]["items"][0] == {
        "name": "coefficient fields annihilate every equation",
        "claimed": "True",
        "computed": "False",
        "ok": False,
    }


def test_the_certificate_proves_tangency_without_expanding(monkeypatch, fresh_caches):
    ctx = JetContext(2, 3)
    expansions = []
    real = frames.cramer_coefficients
    monkeypatch.setattr(frames, "cramer_coefficients", lambda *args: expansions.append(args) or real(*args))
    assert [cramer_tangency(ctx, chart, v) for chart in range(1, ctx.nvars + 1) for v, _ in VARIANTS] == [None] * 6
    assert frames.tangency_proof(ctx, 1).holds
    assert expansions == []
    # a field is expanded when its VectorField is first read, and only then
    f = coefficient_fields(ctx, 1, VARIANTS[0][0])[0]
    assert f.field is f.field
    assert len(expansions) == 1


# -- invariance ----------------------------------------------------------------


def test_a_generator_breaking_the_column_identity_is_decided_by_brackets(monkeypatch, fresh_caches):
    config = RunConfig(n=2, d=3, trials=3, suites=("invariance",))
    ctx = config.context()
    (v2,) = reparam_generators(ctx)
    # z_1' d/dz_1' on top: V_2 no longer kills D(z_1) = z_1', and moves W = 2 (z_1')^3
    broken = (VectorField({**v2.coeffs, jet(1, 1): Polynomial.var(jet(1, 1))}),)
    monkeypatch.setattr(analysis, "reparam_generators", lambda ctx: broken)
    assert not analysis._generators_act_on_columns(ctx)
    frame = enumerate_frame(ctx, config.chart)
    want = next(f.label for f in frame if any(v.bracket(f.field).coeffs for v in broken))
    items, _ = suite_invariance(config)
    assert want.startswith("coeff[v1") and items == [
        {"name": f"frame field {want} invariant under reparametrization", "claimed": "True", "computed": "False", "ok": False}
    ]


def test_the_suite_names_a_variant2_coefficient_field_that_is_not_invariant(monkeypatch, fresh_caches):
    config = RunConfig(n=2, d=3, trials=3, suites=("invariance",))
    ctx = config.context()
    real = frames.coefficient_field

    def broken(variant, alpha, ctx, chart=None):
        f = real(variant, alpha, ctx, chart)
        if variant == VARIANTS[1][0] and tuple(alpha) == (0, 0, 1):
            # V_2 = 2 sum_i z_i' d/dz_i'', so [V_2, d/dz_1'] = -2 d/dz_1''
            return FrameField(f.kind, f.label, VectorField({**f.field.coeffs, jet(1, 1): 1}))
        return f

    monkeypatch.setattr(frames, "coefficient_field", broken)
    label = real(VARIANTS[1][0], (0, 0, 1), ctx, config.chart).label
    items, _ = suite_invariance(config)
    assert label.startswith("coeff[v2") and items == [
        {"name": f"frame field {label} invariant under reparametrization", "claimed": "True", "computed": "False", "ok": False}
    ]


@pytest.mark.parametrize("gate", ["W != 0", "V_k(W) = 0", "M adj(M) = W I"])
def test_a_field_failing_a_system_fact_is_decided_by_brackets(monkeypatch, fresh_caches, gate):
    ctx = JetContext(2, 3)
    real_w, real_adj = wronskian.system_determinant, wronskian.system_adjugate
    if gate == "W != 0":
        monkeypatch.setattr(analysis, "system_determinant", lambda solved, ctx: real_w(solved, ctx) * 0)
    elif gate == "V_k(W) = 0":
        # V_2 moves z_1'' by 2 z_1'
        monkeypatch.setattr(analysis, "system_determinant", lambda solved, ctx: real_w(solved, ctx) + Polynomial.var(jet(1, 2)))
    else:
        # B_2 gains D^2(z^alpha), which V_2 sends to 2 D(z^alpha)
        def adjugate(solved, ctx):
            adj = [list(row) for row in real_adj(solved, ctx)]
            adj[1][1] = adj[1][1] + 1
            return adj

        monkeypatch.setattr(wronskian, "system_adjugate", adjugate)
    brackets = []
    bracket = VectorField.bracket
    monkeypatch.setattr(VectorField, "bracket", lambda self, other: brackets.append(other) or bracket(self, other))
    f = coefficient_fields(ctx, 1, VARIANTS[0][0])[0]
    assert invariance_proved(f, ctx) == (gate != "M adj(M) = W I")
    assert brackets == [f.field]


# -- the structural and expanded routes agree ----------------------------------


@pytest.mark.parametrize(
    "n, d, chart, variant",
    [(n, d, chart, variant) for n, d in CONTEXTS for chart in range(1, n + 2) for variant, _ in VARIANTS],
)
def test_structural_and_expanded_routes_agree(n, d, chart, variant):
    ctx = JetContext(n, d)
    cramer = list(coefficient_fields(ctx, chart, variant))
    plain = expanded(cramer)
    frame = enumerate_frame(ctx, chart, variant)
    pattern = span_pattern(frame, ctx, chart, variant)
    assert pattern == span_pattern(plain + frame[len(cramer):], ctx, chart, variant)
    # the certificate reads each coefficient row at its pivot alone, W
    for r, columns in pattern.entries().items():
        if r < len(cramer):
            assert [_form(*jf) for jf in _field_forms(cramer[r], ctx, columns)] == [
                _form(*jf) for jf in _field_forms(plain[r], ctx, columns)
            ]
    eqs = defining_equations_iterated(ctx)
    assert cramer_tangency(ctx, chart, variant) is None
    assert frames._first_nonzero_image(plain, eqs) is None
    structural = [invariance_proved(f, ctx) for f in cramer]
    assert structural == [invariance_proved(f, ctx) for f in plain] == [True] * len(cramer)
    assert analysis._cramer_invariant(cramer[0].solved, ctx)


def _form(j, form) -> tuple:
    return j, form.scale, form.degree, form.terms
