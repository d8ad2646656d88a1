"""The shifted fields and the primed E_kl fields, E_kl - t_kl E_0 d/da_0,
proved tangent by their Taylor identities at the base point (frames._moves),
against their images of the equations as the reference: X(E_0) and
_first_nonzero_image over E_1..E_n."""

from itertools import product

import pytest

from jetframes import algebra, analysis, cli, frames, jetspace, wronskian
from jetframes.algebra import COEFF, JET, Polynomial, VectorField, coord, jet, mat
from jetframes.cli import RunConfig, run
from jetframes.jetspace import JetContext, defining_equations_iterated

CONTEXTS = [(1, 2), (2, 3), (3, 4)]


def _changed(field: VectorField, v, extra) -> VectorField:
    return VectorField({**field.coeffs, v: field.get(v) + extra})


def _mutations(field: VectorField, other: VectorField, ctx: JetContext) -> dict:
    """name -> (the field changed one way, whether _taylor_parts accepts it);
    other is another field of the same family."""
    slot = next(v for v in sorted(field.coeffs) if v[0] == COEFF and sum(v[1:]) >= 1)
    a0 = ctx.coeff_var((0,) * ctx.nvars)
    _, *rest = field.get(slot).terms.items()
    tangent = _shifted(ctx)[0].field
    return {
        "real": (field, True),
        "plus z_1 on a slot": (_changed(field, slot, Polynomial.var(coord(1))), True),
        "plus 1 on a_0": (_changed(field, a0, 1), True),
        # two terms that only a radix above d + the direction's z degree tells apart
        "plus z_1^d - z_2 on a slot": (_changed(field, slot, Polynomial.var(coord(1), ctx.d) - Polynomial.var(coord(2))), True),
        "a term dropped": (VectorField({**field.coeffs, slot: Polynomial(dict(rest))}), True),
        "a direction doubled": (_changed(field, slot, field.get(slot)), True),
        "plus a tangent shifted field": (
            VectorField({**field.coeffs, **{v: field.get(v) + c for v, c in tangent.items()}}),
            True,
        ),
        "another field's coefficient part": (
            VectorField({**{v: c for v, c in field.items() if v[0] == JET}, **{v: c for v, c in other.items() if v[0] == COEFF}}),
            True,
        ),
        "a jet in a slot's direction": (_changed(field, slot, Polynomial.var(jet(1, 1))), False),
        "a jet in a_0's direction": (_changed(field, a0, Polynomial.var(jet(1, 1))), False),
        "a jet direction added": (_changed(field, jet(1, 1), 1), False),
        "a coordinate moved": (_changed(field, coord(1), 1), False),
    }


def _shifted(ctx):
    return [f for f in frames.variant_free_frame(ctx) if f.kind == "shifted_coefficient"]


def _family(ctx, kind) -> list:
    """The frame's shifted fields, or for each E_kl field its primed field
    E_kl - t_kl E_0 d/da_0, t_kl the m(k, l) part of top_factor."""
    fields = [f.field for f in frames.variant_free_frame(ctx) if f.kind == kind]
    if kind == "shifted_coefficient":
        return fields
    top = frames.solve_jet_field_coefficients(ctx).top_factor
    e0, a0 = defining_equations_iterated(ctx)[0], ctx.coeff_var((0,) * ctx.nvars)
    kls = product(range(1, ctx.nvars + 1), repeat=2)  # the order of elementary_jet_fields
    return [_changed(f, a0, -top.diff(mat(*kl)) * e0) for kl, f in zip(kls, fields)]


@pytest.mark.parametrize("nd", CONTEXTS)
@pytest.mark.parametrize("kind", ["jet_linear", "shifted_coefficient"])
def test_the_taylor_rule_names_what_the_images_name(nd, kind):
    ctx = JetContext(*nd)
    eqs = defining_equations_iterated(ctx)
    family = _family(ctx, kind)
    decided: dict = {}
    for i, field in enumerate(family):
        for name, (changed, accepted) in _mutations(field, family[(i + 1) % len(family)], ctx).items():
            f = frames.FrameField(kind, f"{i}:{name}", changed)
            # E_0 and E_1..E_n each on their own
            reference = (not changed.apply(eqs[0]).is_zero(), frames._first_nonzero_image([f], eqs[1:]) == f.label)
            assert frames._moves([f], eqs, ctx) == {f: reference}, f.label
            # the rule decides every field _taylor_parts accepts, and only those
            rule = frames._TaylorIdentities(ctx, [changed], eqs[0]).moves(changed)
            assert (rule is not None) == accepted, f.label
            if accepted:
                assert rule == reference, f.label
                decided[rule] = decided.get(rule, 0) + 1
    # every real field is tangent, and each of E_0 and E_1..E_n is moved by some field
    assert decided[(False, False)] >= len(family)
    assert any(m0 for m0, _ in decided) and any(higher for _, higher in decided)
    fields = [frames.FrameField(kind, str(i), f) for i, f in enumerate(family)]
    assert set(frames._moves(fields, eqs, ctx).values()) == {(False, False)}


def _clear_every_cache():
    for module in (algebra, jetspace, wronskian, frames, analysis, cli):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_a_fresh_default_34_run_reads_images_of_the_coordinate_fields_only(monkeypatch):
    received = []
    real = frames._first_nonzero_image
    monkeypatch.setattr(frames, "_first_nonzero_image", lambda fields, eqs: received.append(fields) or real(fields, eqs))
    _clear_every_cache()
    try:
        assert run(RunConfig(n=3, d=4))["ok"]
    finally:
        _clear_every_cache()
    ctx = JetContext(3, 4)
    assert [[f.label for f in fields] for fields in received] == [[f"coord[{i}]" for i in range(1, ctx.nvars + 1)]]
    assert all(f.kind == "coordinate" for fields in received for f in fields)


def test_a_fresh_default_34_run_builds_one_set_of_taylor_identities_per_proof(monkeypatch):
    built = []
    real = frames._TaylorIdentities
    monkeypatch.setattr(frames, "_TaylorIdentities", lambda *args: built.append(args) or real(*args))
    _clear_every_cache()
    try:
        assert run(RunConfig(n=3, d=4))["ok"]
        proofs = frames.tangency_proof.cache_info().misses
    finally:
        _clear_every_cache()
    # the shifted and primed E_kl fields share one pass
    assert proofs == 1 and len(built) == proofs
