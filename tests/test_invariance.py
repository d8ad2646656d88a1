"""Invariance under reparametrization jets proved by brackets with the
generators of G_n, against the pushforward at random draws as the reference."""

import math
import random

import pytest

from jetframes import algebra, analysis, cli, frames, jetspace, wronskian
from jetframes.algebra import Polynomial, VectorField, jet
from jetframes.analysis import (
    ReparamJet,
    invariance_check,
    invariance_proved,
    reparam_generators,
)
from jetframes.cli import RunConfig, run, suite_invariance
from jetframes.frames import FrameField, enumerate_frame
from jetframes.jetspace import JetContext
from jetframes.wronskian import VARIANTS
from reference_helpers import bracket_on_every_direction

BARE = FrameField(kind="coordinate", label="bare d/dz1'", field=VectorField({jet(1, 1): 1}))


def closed_form_generator(k: int, ctx: JetContext) -> VectorField:
    """V_k = sum_i sum_{lam=k..n} C(lam, k) k! z_i^(lam-k+1) d/dz_i^(lam): the
    lam-th derivative of t^k z'(t) at t = 0, the eps-derivative of z(t + eps t^k)."""
    return VectorField(
        {
            jet(i, lam): math.comb(lam, k) * math.factorial(k) * Polynomial.var(jet(i, lam - k + 1))
            for i in range(1, ctx.nvars + 1)
            for lam in range(k, ctx.n + 1)
        }
    )


def reference_items(config: RunConfig, frame) -> list:
    """The per-draw loop of the invariance suite: every field pushed forward
    by every draw."""
    ctx = config.context()
    rng = random.Random(config.seed)
    items = []
    for t in range(config.trials):
        rj = ReparamJet.random(ctx.n, rng)
        ok = all(invariance_check(f, rj, ctx) for f in frame)
        items.append(
            {"name": f"frame invariant under reparametrization draw {t}", "claimed": "True", "computed": str(ok), "ok": ok}
        )
    return items


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generators_equal_the_closed_form(n):
    ctx = JetContext(n, n + 1)
    generators = reparam_generators(ctx)
    assert generators == tuple(closed_form_generator(k, ctx) for k in range(2, n + 1))


def _clear_every_cache():
    for module in (algebra, jetspace, wronskian, frames, analysis, cli):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("n, d", [(2, 3), (3, 4)])
def test_a_fresh_default_run_neither_substitutes_nor_differentiates(monkeypatch, n, d):
    # the generators are read off the linear terms of the action, so no
    # polynomial is substituted into or differentiated by a variable
    calls = []
    for name in ("subs", "diff"):
        real = getattr(Polynomial, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(Polynomial, name, counted)
    _clear_every_cache()
    try:
        assert run(RunConfig(n=n, d=d))["ok"]
    finally:
        _clear_every_cache()
    assert calls == []


def test_brackets_of_the_34_frame_apply_no_field_to_a_disjoint_direction(monkeypatch):
    ctx = JetContext(3, 4)
    fields = [f.field for f in enumerate_frame(ctx, 1)]
    generators = reparam_generators(ctx)
    disjoint = []
    real = VectorField.apply

    def spy(self, p):
        disjoint.append(p.variables().isdisjoint(self.coeffs))
        return real(self, p)

    monkeypatch.setattr(VectorField, "apply", spy)
    brackets = [v.bracket(f) for v in generators for f in fields]
    monkeypatch.undo()
    assert disjoint and not any(disjoint)
    assert brackets == [bracket_on_every_direction(v, f) for v in generators for f in fields]


def test_no_generators_at_n1():
    assert reparam_generators(JetContext(1, 2)) == ()
    assert invariance_proved(BARE, JetContext(1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_bare_first_jet_direction_is_not_proved(n):
    ctx = JetContext(n, n + 1)
    v2 = reparam_generators(ctx)[0]
    assert v2.bracket(BARE.field).coeffs
    assert not invariance_proved(BARE, ctx)


@pytest.mark.parametrize(
    "n, d, chart",
    [(1, 2, 1), (2, 3, 1), (2, 3, 3), (3, 4, 1)],
    ids=["1-2", "2-3", "2-3-chart3", "3-4"],
)
@pytest.mark.parametrize("variant", [v for v, _ in VARIANTS], ids=[label for _, label in VARIANTS])
def test_frame_is_proved_and_passes_two_draws(n, d, chart, variant):
    ctx = JetContext(n, d)
    frame = enumerate_frame(ctx, chart, variant)
    rng = random.Random(n * 10 + chart)
    draws = [ReparamJet.random(n, rng) for _ in range(2)]
    for f in frame:
        assert invariance_proved(f, ctx), f.label
        assert all(invariance_check(f, rj, ctx) for rj in draws), f.label


def _count_pushforwards(monkeypatch) -> list:
    calls = []
    real = analysis.pushforward_field
    monkeypatch.setattr(analysis, "pushforward_field", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("n, d", [(1, 2), (2, 3)])
def test_suite_proves_the_frame_without_pushing_forward(monkeypatch, n, d):
    config = RunConfig(n=n, d=d, trials=3, seed=4, suites=("invariance",))
    frame = enumerate_frame(config.context(), chart=config.chart)
    calls = _count_pushforwards(monkeypatch)
    items, extra = suite_invariance(config)
    assert calls == []
    assert extra == {}
    assert items == reference_items(config, frame)


def test_suite_names_an_unproved_field_without_pushing_forward(monkeypatch):
    # a nonzero bracket already proves that some element of G_n moves the
    # field: one failing item names it, and no draw is pushed forward
    config = RunConfig(n=2, d=3, trials=6, seed=1, suites=("invariance",))
    frame = [*enumerate_frame(config.context(), chart=config.chart), BARE]
    monkeypatch.setattr(cli, "enumerate_frame", lambda ctx, chart: list(frame))
    calls = _count_pushforwards(monkeypatch)
    items, extra = suite_invariance(config)
    assert calls == [] and extra == {}
    assert items == [
        {"name": "frame field bare d/dz1' invariant under reparametrization", "claimed": "True", "computed": "False", "ok": False}
    ]
    # the draws, the reference, agree that the frame is not invariant
    assert not all(item["ok"] for item in reference_items(config, frame))
