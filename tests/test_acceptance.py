"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every quantitative tolerance is exact (rational arithmetic, structural
equality); runtime budgets are asserted in wall-clock seconds.

Criteria 4, 5 and 6 assert the statements in the form the paper's pole
orders c_n = (n^2+5n)/2 and c'_n = 1 need, which exact computation confirms:

* 4: the jet-field table has degree 1 in the matrix entries and <= 2 in the
  coefficients; its quadratic part is exactly a_rho * top_factor * g_rho,
  injected by the order-0 row (so strict bilinearity is impossible, and
  degree 2 gives pole order 1 at infinity, i.e. c'_n = 1);
* 5: the classical Wronskian weighs 2 + 3 + ... + (n+1) = (n^2+3n)/2 and
  c_classical = weight(W) + n; the alternate figure (n+1)(n+2)/2 is
  recorded in the report and must not match;
* 6: the weight rule is an upper bound on pole order, exact per monomial
  and for single-term objects; every transported exponent is certified
  by an exact evaluation at a chart-inverted point, so multi-term objects
  (the classical Wronskian transports to z_u^(n+1)) cancel genuinely.
"""

import json
import random
import time
from fractions import Fraction

from jetframes.algebra import (
    COEFF,
    MAT,
    Polynomial,
    coord,
    enumerate_exponents,
    iter_terms,
    mi_sub,
    mi_total,
    phi,
    solve_linear_exact,
)
from jetframes.analysis import (
    ReparamJet,
    action_coefficients_symbolic,
    invariance_check,
    pole_order,
    spanning_check,
    verify_pole_table,
)
from jetframes.cli import RunConfig, main, run
from jetframes.frames import (
    admissible_coefficient_exponents,
    canonical_shifted_fields,
    coefficient_field,
    coordinate_field,
    enumerate_frame,
    jet_field_block,
    solve_jet_field_coefficients,
)
from jetframes.jetspace import (
    JetContext,
    defining_equations_iterated,
    defining_equations_partition_sum,
    jet_weight_partitions,
    partition_coefficient,
    sample_vertical_jet,
)
from jetframes.wronskian import (
    VARIANT_CLASSICAL,
    VARIANT_POWER,
    classical_wronskian,
    cramer_coefficients,
    power_wronskian,
    power_wronskian_closed_form,
)

from reference_helpers import chart_change_oracle, jacobian_rank_at, jet_linear_field, monomial_oracle_order


def _degrees(mono) -> tuple:
    """(degree in the coefficients, degree in the matrix entries)."""
    return (
        sum(e for v, e in mono if v[0] == COEFF),
        sum(e for v, e in mono if v[0] == MAT),
    )


def _is_bilinear(p: Polynomial) -> bool:
    """Every monomial has degree <= 1 in the coefficients (the chart sets
    a_(d,0,...,0) = 1) and degree exactly 1 in the matrix entries."""
    return all(a <= 1 and m == 1 for a, m in (_degrees(pairs) for pairs, _ in iter_terms(p)))


def _report(name: str, budget: float | None, start: float, ok: bool = True) -> None:
    elapsed = time.perf_counter() - start
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {verdict} in {elapsed:.1f}s{budget_note}")


def test_criterion_01_wronskian_identity():
    start = time.perf_counter()
    for n in range(1, 6):
        ctx = JetContext(n, n + 1)
        for i in range(1, n + 2):
            assert power_wronskian(i, ctx) == power_wronskian_closed_form(i, ctx), (n, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("1 (determinant identity, n=1..5, all charts)", 30, start)


def test_criterion_02_equation_cross_check():
    start = time.perf_counter()
    for n, d in ((1, 2), (2, 3), (3, 4), (4, 5)):
        ctx = JetContext(n, d)
        assert defining_equations_iterated(ctx) == defining_equations_partition_sum(ctx), (n, d)
    factors3 = {
        tuple(zip(o, m)): partition_coefficient(3, o, m) for o, m in jet_weight_partitions(3)
    }
    assert factors3[((1, 1), (2, 1))] == 3
    factors4 = {
        tuple(zip(o, m)): partition_coefficient(4, o, m) for o, m in jet_weight_partitions(4)
    }
    assert factors4[((1, 1), (3, 1))] == 4
    assert factors4[((2, 2),)] == 3
    assert factors4[((1, 2), (2, 1))] == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("2 (two equation routes agree; displayed factors 3; 4,3,6)", 60, start)


def test_criterion_03_exact_tangency():
    start = time.perf_counter()
    for n, d, charts in ((2, 3, (1, 2, 3)), (3, 4, (1,))):
        ctx = JetContext(n, d)
        eqs = defining_equations_iterated(ctx)
        fields = []
        for chart in charts:
            fields += [
                coefficient_field(VARIANT_POWER, a, ctx, chart)
                for a in admissible_coefficient_exponents(VARIANT_POWER, ctx, chart)
            ]
        fields += [
            coefficient_field(VARIANT_CLASSICAL, a, ctx)
            for a in admissible_coefficient_exponents(VARIANT_CLASSICAL, ctx)
        ]
        fields += canonical_shifted_fields(ctx)
        fields += [coordinate_field(i, ctx) for i in range(1, ctx.nvars + 1)]
        for f in fields:
            for eq in eqs:
                assert f.apply(eq).is_zero(), (n, d, f.label)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("3 (coefficient/shifted/coordinate fields annihilate all equations)", 120, start)


def test_criterion_04_jet_linear_tangency_and_table():
    start = time.perf_counter()
    ctx = JetContext(2, 3)
    eqs = defining_equations_iterated(ctx)
    rng = random.Random(404)
    for trial in range(5):
        lam = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)
        ]
        table = solve_jet_field_coefficients(ctx).substitute_matrix(lam)
        field = jet_linear_field(lam, ctx, table=table)
        order0 = field.apply(eqs[0])
        assert order0.exact_div(eqs[0]) == table.top_factor, trial
        for seed in range(20):
            point = sample_vertical_jet(ctx, chart=1, rng=seed + 1000 * trial)
            for eq in eqs:
                assert field.apply(eq).evaluate(point.assignment) == 0, (trial, seed)
    symbolic = solve_jet_field_coefficients(ctx)
    for alpha in enumerate_exponents(ctx.nvars, ctx.d):
        for beta in enumerate_exponents(ctx.nvars, ctx.n):
            if mi_total(alpha) + mi_total(beta) >= ctx.d + 1:
                assert symbolic.get(alpha, beta).is_zero(), (alpha, beta)
    # exact degree structure of the table: the top block and top_factor are
    # bilinear; every other block adds the order-0 coupling
    # top_factor * a_rho * g_rho, where g_rho solves the block against the
    # unit right side of its order-0 row
    max_a_deg = 0
    for n, d in ((1, 2), (2, 3), (3, 4)):
        sctx = JetContext(n, d)
        table = solve_jet_field_coefficients(sctx)
        top = sctx.normalized_exponent
        seen = set()
        assert _is_bilinear(table.top_factor), (n, d)
        for rho in enumerate_exponents(sctx.nvars, sctx.d):
            unknowns, rows, keys = jet_field_block(sctx, rho)
            if not unknowns:
                continue
            if rho == top:
                coupling = [0] * len(unknowns)
            else:
                assert keys[0] is None, (n, d, rho)
                unit = [1] + [0] * (len(rows) - 1)
                a_rho = sctx.coeff_poly(rho)
                coupling = [table.top_factor * a_rho * g for g in solve_linear_exact(rows, unit)]
            for beta, quadratic in zip(unknowns, coupling):
                key = (mi_sub(rho, beta), beta)
                seen.add(key)
                entry = table.get(*key)
                for mono, _ in iter_terms(entry):
                    a_deg, m_deg = _degrees(mono)
                    assert m_deg == 1, (n, d, key)
                    max_a_deg = max(max_a_deg, a_deg)
                assert _is_bilinear(entry - quadratic), (n, d, key)
        assert seen >= set(table.entries), (n, d)
    assert max_a_deg == 2  # the coupling is really there: c'_n = 1 needs <= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        "4 (jet-field tangency at 100 certified points; divisibility; table rules; "
        "degree structure)",
        120,
        start,
    )


def test_criterion_05_pole_order_ledger():
    start = time.perf_counter()
    failures = []
    for n in range(2, 7):
        ctx = JetContext(n, n + 1)
        report = verify_pole_table(ctx)
        rows = {r.name: r for r in report.rows}
        d_row = rows["power_wronskian"]
        if d_row.computed != n * n + n:
            failures.append(f"n={n}: power wronskian {d_row.computed} != {n*n+n}")
        for r in report.rows:
            if r.name.startswith("cramer[") and not r.match:
                failures.append(f"n={n}: {r.name} computed {r.computed} != {r.claimed}")
        if report.c_power != n * n + 2 * n:
            failures.append(f"n={n}: c_variant1 {report.c_power} != {n*n+2*n}")
        if report.c_classical != (n * n + 5 * n) // 2:
            failures.append(f"n={n}: c_variant2 {report.c_classical} != {(n*n+5*n)//2}")
        # row lambda of the classical Wronskian weighs lambda + 1, so every
        # monomial weighs 2 + 3 + ... + (n+1) = (n^2+3n)/2
        w_row = rows["classical_wronskian"]
        w_weight = (n * n + 3 * n) // 2
        if not (w_row.claimed == w_row.computed == w_weight and w_row.uniform and w_row.match):
            failures.append(
                f"n={n}: classical wronskian row {w_row} != uniform weight {w_weight}"
            )
        # the k = 0 Cramer entry is W * z^alpha - ..., with |alpha| <= n
        if report.c_classical != w_row.computed + n:
            failures.append(
                f"n={n}: c_variant2 {report.c_classical} != weight(W) + n = {w_row.computed + n}"
            )
        # the alternate figure (n+1)(n+2)/2 stays recorded, and refuted
        alternate = (n + 1) * (n + 2) // 2
        if report.alternate_w_claim != alternate or report.alternate_w_matches is not False:
            failures.append(
                f"n={n}: alternate claim {report.alternate_w_claim} "
                f"(matches={report.alternate_w_matches}) != (n+1)(n+2)/2 refuted"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("5 (pole-order ledger incl. c_2=7, c_3=12)", 10, start, ok=not failures)
    assert not failures, "pole-order ledger mismatches:\n" + "\n".join(failures)


def test_criterion_06_oracle_agreement(chart_inverted_point):
    start = time.perf_counter()
    rng = random.Random(606)
    for n in (2, 3):  # n = 3 fits comfortably inside the budget
        ctx = JetContext(n, n + 1)
        named = {
            "power_wronskian": power_wronskian(1, ctx),
            "classical_wronskian": classical_wronskian(ctx),
        }
        for variant, label, chart in ((VARIANT_POWER, "v1", 1), (VARIANT_CLASSICAL, "v2", None)):
            for alpha in admissible_coefficient_exponents(variant, ctx, chart):
                coeffs = cramer_coefficients(variant, alpha, ctx, chart)
                for k, b in enumerate(coeffs.b):
                    if not b.is_zero():
                        named[f"cramer[{label},a={alpha},k={k}]"] = b
        charts = range(1, ctx.nvars + 1) if n == 2 else (ctx.nvars,)
        points = {ups: chart_inverted_point(ups, ctx, rng) for ups in charts}
        transported = {}
        for name, p in sorted(named.items()):
            weight = pole_order(p).order
            # sound per-monomial agreement: exact for every named object
            assert monomial_oracle_order(p, ctx.nvars, ctx) == weight, (n, name)
            exponents = transported[name] = []
            for ups, (new_vals, old_vals) in points.items():
                num, e = chart_change_oracle(p, ups, ctx)
                # certificate: num / z_u^e is p at the chart-inverted point,
                # and no z_u divides num, so e is the exact pole order and a
                # value below the weight is genuine cancellation
                value = p.evaluate(old_vals)
                assert value != 0, (n, name, ups)
                assert value == num.evaluate(new_vals) / new_vals[coord(ups)] ** e, (n, name, ups)
                if e > 0:
                    assert not num.subs({coord(ups): 0}).is_zero(), (n, name, ups)
                exponents.append(e)
            # the weight bounds the pole order: transport only cancels downward
            assert max(exponents) <= weight, (n, name)
            if len(p.terms) == 1:  # nothing to cancel
                assert exponents == [weight] * len(exponents), (n, name, exponents)
        # W of the coordinate ratios is a bordered Wronskian over z_u^(n+1)
        assert transported["classical_wronskian"] == [n + 1] * len(charts), n
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("6 (chart-change oracle: weight bound, exact certificates)", 300, start)


def test_criterion_07_spanning():
    start = time.perf_counter()
    ctx = JetContext(2, 3)
    for variant in (VARIANT_POWER, VARIANT_CLASSICAL):
        results = spanning_check(ctx, chart=1, trials=5, seed=7, variant=variant)
        for r in results:
            assert r.tangent_ok, (variant, r.first_offender)
            assert r.rank == r.expected_rank == 25, (variant, r.rank)
    ctx34 = JetContext(3, 4)
    for variant in (VARIANT_POWER, VARIANT_CLASSICAL):
        results = spanning_check(ctx34, chart=1, trials=3, seed=7, variant=variant)
        for r in results:
            assert r.tangent_ok, (variant, r.first_offender)
            assert r.rank == r.expected_rank == 81, (variant, r.rank)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("7 (frame spans the tangent space: rank 25 at (2,3), 81 at (3,4))", 300, start)


def test_criterion_08_codimension():
    start = time.perf_counter()
    for n, d in ((2, 3), (3, 4)):
        ctx = JetContext(n, d)
        for seed in range(3):
            point = sample_vertical_jet(ctx, chart=1, rng=seed)
            assert jacobian_rank_at(point, ctx) == n + 1, (n, d, seed)
    _report("8 (jacobian rank equals n+1 at sampled points)", None, start)


def test_criterion_09_reparametrization_invariance():
    start = time.perf_counter()
    sym = action_coefficients_symbolic(3)
    assert sym[3][2] == 3 * Polynomial.var(phi(2))  # displayed coefficient 3
    assert sym[3][1] == Polynomial.var(phi(3))
    assert sym[2][1] == Polynomial.var(phi(2))
    for n, d in ((2, 3), (3, 4)):
        ctx = JetContext(n, d)
        frame = enumerate_frame(ctx, chart=1)
        kinds = {f.kind for f in frame}
        assert kinds == {"coefficient", "shifted_coefficient", "coordinate", "jet_linear"}
        rng = random.Random(99 + n)
        for _ in range(5):
            rj = ReparamJet.random(n, rng)
            for f in frame:
                assert invariance_check(f, rj, ctx), (n, f.label)
    _report("9 (all four families invariant; order-3 coefficients match)", None, start)


def test_criterion_10_cli_determinism(capsys):
    start = time.perf_counter()
    argv = ["--n", "2", "--d", "3", "--seed", "17", "--trials", "3", "--output", "json"]

    def one_run():
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        for suite in report["suites"]:
            suite.pop("elapsed_ms", None)
        return code, report

    code1, first = one_run()
    code2, second = one_run()
    assert code1 == code2 == 0
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["ok"] is True
    # the library-level runner is deterministic as well
    config = RunConfig(n=2, d=3, chart=1, seed=17, trials=3)
    third = run(config)
    for suite in third["suites"]:
        suite.pop("elapsed_ms", None)
    assert json.dumps(third, sort_keys=True) == json.dumps(
        {**first, "parameters": third["parameters"]}, sort_keys=True
    )
    _report("10 (identical JSON reports for identical config and seed)", None, start)
