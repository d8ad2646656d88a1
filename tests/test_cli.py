import gc
import hashlib
import json
import sys
from collections import Counter

import pytest

from jetframes import frames
from jetframes.algebra import MAT
from jetframes.cli import (
    ReportValidationError,
    RunConfig,
    SUITES,
    main,
    render_text,
    run,
    validate_report,
)
from jetframes.frames import (
    admissible_coefficient_exponents,
    canonical_shifted_fields,
    coefficient_field,
    coefficient_fields,
    coordinate_field,
    elementary_matrix,
    variant_free_frame,
)
from jetframes.jetspace import JetContext
from jetframes.wronskian import VARIANTS

from reference_helpers import jet_linear_field, matrix_partials


def run_json(capsys, args):
    code = main(args + ["--output", "json"])
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def test_wronskian_suite_reports_closed_form(capsys):
    code = main(["--n", "2", "--d", "3", "--suites", "wronskian"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 * z1'^3" in out
    assert "[PASS] wronskian" in out


def test_usage_error_when_degree_not_larger(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--n", "2", "--d", "2"])
    assert exc.value.code == 2


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["--suites", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_usage_error_when_no_trials(capsys, trials):
    # zero or negative trials would check nothing and still print PASS
    with pytest.raises(SystemExit) as exc:
        main(["--trials", trials])
    assert exc.value.code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_usage_error_empty_suite_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suites="])
    assert exc.value.code == 2
    assert "--suites must name at least one suite" in capsys.readouterr().err


def test_pole_orders_json_contains_recovered_constant(capsys):
    code, report, _ = run_json(capsys, ["--n", "2", "--d", "3", "--suites", "pole-orders"])
    assert code == 0
    suite = report["suites"][0]
    assert suite["c_variant2"] == 7
    assert suite["c_variant1"] == 8
    assert suite["classical_wronskian_alternate_matches"] is False


def test_full_run_passes_and_validates(capsys):
    code, report, _ = run_json(capsys, ["--n", "2", "--d", "3", "--trials", "2"])
    assert code == 0
    assert report["ok"] is True
    validate_report(report)
    assert report["version"]
    assert report["schema_version"] == "1"
    assert [s["name"] for s in report["suites"]] == [
        "equations",
        "wronskian",
        "frames",
        "pole-orders",
        "span",
        "invariance",
        "appendix",
    ]


def test_default_run_at_n1_passes(capsys):
    # at n = 1 every Cramer system is 1 x 1, with adjugate [[1]]
    code, report, _ = run_json(capsys, ["--n", "1", "--d", "2"])
    assert code == 0
    assert report["ok"] is True
    validate_report(report)
    assert len(report["suites"]) == len(SUITES)


def _strip_timing(report):
    clone = json.loads(json.dumps(report))
    for suite in clone["suites"]:
        suite.pop("elapsed_ms", None)
    return clone


def test_determinism_same_config_same_report():
    config = RunConfig(n=2, d=3, trials=2, seed=9, suites=("equations", "span", "pole-orders"))
    first = run(config)
    second = run(config)
    assert json.dumps(_strip_timing(first), sort_keys=True) == json.dumps(
        _strip_timing(second), sort_keys=True
    )


def test_truncated_report_fails_validation(capsys):
    code, report, _ = run_json(capsys, ["--n", "2", "--d", "3", "--suites", "appendix"])
    del report["suites"][0]["items"]
    with pytest.raises(ReportValidationError):
        validate_report(report)
    report2 = {"schema_version": "1"}
    with pytest.raises(ReportValidationError):
        validate_report(report2)


def test_schema_flag_prints_schema(capsys):
    code = main(["--schema"])
    out = capsys.readouterr().out
    assert code == 0
    schema = json.loads(out)
    assert schema["version"] == "1"
    assert "suites" in schema["properties"]


def test_failing_suite_yields_nonzero_exit_and_diagnostic(capsys, monkeypatch):
    def broken(cfg):
        return [{"name": "forced failure", "claimed": "0", "computed": "1", "ok": False}], {}

    monkeypatch.setitem(SUITES, "appendix", broken)
    code = main(["--n", "2", "--d", "3", "--suites", "appendix"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL appendix: forced failure" in captured.err


def test_render_text_marks_failures():
    report = {
        "version": "x",
        "parameters": {"n": 2, "d": 3, "chart": 1, "seed": 0},
        "suites": [
            {
                "name": "demo",
                "ok": False,
                "elapsed_ms": 1.0,
                "items": [{"name": "it", "claimed": "a", "computed": "b", "ok": False}],
            }
        ],
        "ok": False,
    }
    text = render_text(report)
    assert "[FAIL] demo" in text
    assert "result: FAIL" in text


def test_suite_with_no_checked_items_fails(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "appendix", lambda cfg: ([], {}))
    code, report, err = run_json(capsys, ["--n", "2", "--d", "3", "--suites", "appendix"])
    assert code == 1
    assert report["ok"] is False and report["suites"][0]["ok"] is False
    assert "FAIL appendix: no items checked" in err


def _hand_assembled_families(ctx, chart):
    """The frames suite's own assembly before it read the cached frames: the
    reference the families it reads are compared with."""
    coefficient = [
        coefficient_field(variant, a, ctx, chart)
        for variant, _ in VARIANTS
        for a in admissible_coefficient_exponents(variant, ctx, chart)
    ]
    shifted = canonical_shifted_fields(ctx)
    coordinate = [coordinate_field(i, ctx) for i in range(1, ctx.nvars + 1)]
    return coefficient, shifted, coordinate


@pytest.mark.parametrize("n, d", [(2, 3), (3, 4)])
@pytest.mark.parametrize("last_chart", [False, True], ids=["chart1", "chart_n+1"])
def test_frames_suite_reads_the_hand_assembled_families(n, d, last_chart):
    ctx = JetContext(n, d)
    chart = ctx.nvars if last_chart else 1
    fields = variant_free_frame(ctx)
    read = (
        [f for variant, _ in VARIANTS for f in coefficient_fields(ctx, chart, variant)],
        [f for f in fields if f.kind == "shifted_coefficient"],
        [f for f in fields if f.kind == "coordinate"],
    )
    for got, want in zip(read, _hand_assembled_families(ctx, chart), strict=True):
        assert [f.label for f in got] == [f.label for f in want]
        assert [f.to_text() for f in got] == [f.to_text() for f in want]
    # one E_kl field per matrix entry, each the symbolic field's part in m(k, l)
    parts = matrix_partials(jet_linear_field(None, ctx).field, ctx.nvars)
    labels = [
        "jet[" + ";".join(",".join(map(str, row)) for row in elementary_matrix(k, l, ctx.nvars)) + "]" for k, l in parts
    ]
    assert [(f.label, f.field) for f in fields if f.kind == "jet_linear"] == list(zip(labels, parts.values()))


def test_default_run_builds_each_frame_part_once(monkeypatch):
    counts = Counter()

    def counted(name, fn, key=lambda *args: ()):
        def wrapper(*args, **kwargs):
            counts[(name, *key(*args))] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(frames, name, wrapper)

    built = []
    real_field = frames.VectorField
    monkeypatch.setattr(frames, "VectorField", lambda directions=None: built.append(real_field(directions)) or built[-1])
    counted("elementary_jet_fields", frames.elementary_jet_fields)
    counted("coefficient_field", frames.coefficient_field, lambda variant, alpha, *rest: (variant, tuple(alpha)))
    # a coefficient field is expanded into polynomials only where its
    # VectorField is read
    counted("cramer_coefficients", frames.cramer_coefficients, lambda variant, alpha, *rest: (variant, tuple(alpha)))
    caches = (frames.coefficient_fields, frames.variant_free_frame, frames.cramer_tangency)
    for cache in caches:
        cache.cache_clear()
    try:
        assert run(RunConfig(n=2, d=3, trials=2))["ok"]
        ctx = JetContext(2, 3)
        # the E_kl fields are split off the table once, and no field holds a
        # matrix entry: none is the symbolic jet-linear field
        assert counts.pop(("elementary_jet_fields",)) == 1
        assert built and not any(v[0] == MAT for f in built for _, c in f.items() for v in c.variables())
        assert {key[1:]: count for key, count in counts.items() if key[0] == "coefficient_field"} == {
            (variant, alpha): 1
            for variant, _ in VARIANTS
            for alpha in admissible_coefficient_exponents(variant, ctx, 1)
        }
        assert not any(key[0] == "cramer_coefficients" for key in counts)
        # a field read twice is expanded once
        f = coefficient_fields(ctx, 1, VARIANTS[0][0])[0]
        assert f.field is f.field
        assert {key: count for key, count in counts.items() if key[0] == "cramer_coefficients"} == {
            ("cramer_coefficients", f.variant, f.alpha): 1
        }
    finally:
        for cache in caches:
            cache.cache_clear()



def test_singular_jet_field_block_fails_its_items(capsys, monkeypatch):
    real_block = frames.jet_field_block

    def duplicated_row(ctx, rho):
        unknowns, rows, keys = real_block(ctx, rho)
        if rho == (0, 1, 1):
            rows = [rows[0]] + rows[:1] + rows[2:]
        return unknowns, rows, keys

    monkeypatch.setattr(frames, "jet_field_block", duplicated_row)
    caches = (frames._solve_symbolic_table, frames.variant_free_frame, frames.tangency_proof)
    for cache in caches:
        cache.cache_clear()
    try:
        code = main(["--n", "2", "--d", "3", "--suites", "frames", "--output", "json"])
        captured = capsys.readouterr()
        items = {item["name"]: item["ok"] for item in json.loads(captured.out)["suites"][0]["items"]}
        ctx = JetContext(2, 3)
        assert frames.solve_jet_field_coefficients(ctx).block_dets[(0, 1, 1)] == 0
        proof = frames.tangency_proof(ctx, 1)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == 1
    assert "FAIL frames: jet-field blocks all invertible" in captured.err
    assert not items["jet-field blocks all invertible"]
    assert not items["jet field order-0 tangency divisible by E0"]
    assert not items["jet field annihilates higher equations identically"]
    assert proof.jet_order0.startswith("jet[") and proof.jet_higher.startswith("jet[")


def test_default_run_keeps_no_partition_sum_equations(monkeypatch):
    import jetframes.cli as cli

    built = []
    real = cli.defining_equations_partition_sum
    monkeypatch.setattr(cli, "defining_equations_partition_sum", lambda ctx: built.append(real(ctx)) or built[-1])
    assert run(RunConfig(n=2, d=3))["ok"]
    gc.collect()
    # a tuple or a Polynomial takes no weak reference, so count them: `eqs`
    # alone holds the tuple, and the tuple alone E_1..E_n (E_0 is the cached
    # universal polynomial); getrefcount's argument adds one to each
    eqs = built.pop()
    refs = [sys.getrefcount(eqs)] + [sys.getrefcount(eqs[k]) for k in range(1, len(eqs))]
    assert not built and refs == [2] * len(eqs)

# SHA-256 of the compact, key-sorted JSON of run(RunConfig(n, d)) with every
# suite's elapsed_ms dropped: a change to any default report shows here
DEFAULT_REPORT_DIGESTS = {
    (1, 2): "2dd93536459f5b0df008cecdbdf45cb7c961787f49f92afe3e3ff92d1eb40c17",
    (2, 3): "cd224aed7eb6ec2df0ab9f342a80e5fa34ae3732772209828ad06e762a3625f5",
    (3, 4): "129c13d660041d9f4b1c058fcfb55748821fcf6ea6a15dd68cf23cd69cd86468",
}


@pytest.mark.parametrize("n, d", sorted(DEFAULT_REPORT_DIGESTS))
def test_default_reports_are_pinned(n, d):
    report = run(RunConfig(n, d))
    for suite in report["suites"]:
        del suite["elapsed_ms"]
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DEFAULT_REPORT_DIGESTS[(n, d)]


def test_default_run_proves_tangency_once_and_shares_it(monkeypatch):
    import jetframes.analysis as analysis
    import jetframes.cli as cli

    reads = []
    for module in (cli, analysis):
        real = module.tangency_proof
        monkeypatch.setattr(
            module, "tangency_proof", lambda ctx, chart, real=real, name=module.__name__: reads.append(name) or real(ctx, chart)
        )
    frames.tangency_proof.cache_clear()
    assert run(RunConfig(n=2, d=3))["ok"]
    # frames computes the proof, and span reads it once per variant
    assert frames.tangency_proof.cache_info().misses == 1
    assert reads == ["jetframes.cli"] + ["jetframes.analysis"] * len(VARIANTS)
