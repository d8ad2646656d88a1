"""Command-line surface: run any subset of the verification suites for given
parameters and emit a human-readable or machine-readable (JSON) report.

Exit status: 0 when every selected suite passes, 1 on any suite failure
(a suite that checks nothing fails), 2 on usage errors.  JSON goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .algebra import COEFF, JET, iter_terms
from .analysis import invariance_proved, spanning_checks, verify_pole_table
from .frames import coefficient_fields, cramer_tangency, enumerate_frame, solve_jet_field_coefficients, tangency_proof
from .jetspace import (
    JetContext,
    defining_equations_iterated,
    defining_equations_partition_sum,
    jet_weight_partitions,
    partition_coefficient,
)
from .wronskian import (
    VARIANT_CLASSICAL,
    VARIANTS,
    power_wronskian,
    power_wronskian_closed_form,
    power_wronskian_identity_holds,
)

SCHEMA_VERSION = "1"

SUITE_ORDER = (
    "equations",
    "wronskian",
    "frames",
    "pole-orders",
    "span",
    "invariance",
    "appendix",
)


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    d: int = 3
    chart: int = 1
    seed: int = 0
    trials: int = 5
    suites: tuple = SUITE_ORDER
    output: str = "text"

    def context(self) -> JetContext:
        return JetContext(self.n, self.d)


def _item(name, claimed, computed) -> dict:
    claimed_s, computed_s = str(claimed), str(computed)
    return {
        "name": name,
        "claimed": claimed_s,
        "computed": computed_s,
        "ok": claimed_s == computed_s,
    }


def _bool_item(name, ok: bool) -> dict:
    return {"name": name, "claimed": "True", "computed": str(bool(ok)), "ok": bool(ok)}


def suite_equations(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    items = []
    same = defining_equations_iterated(ctx) == defining_equations_partition_sum(ctx)
    items.append(_bool_item("iterated equals partition-sum route", same))
    eqs = defining_equations_iterated(ctx)
    linear = all(
        sum(e for v, e in pairs if v[0] == COEFF) <= 1 for eq in eqs for pairs, _ in iter_terms(eq)
    )
    items.append(_bool_item("equations linear in the coefficients", linear))

    def jet_weight(pairs):
        return sum(e * v[2] for v, e in pairs if v[0] == JET)

    isobaric = all(
        all(jet_weight(pairs) == kappa for pairs, _ in iter_terms(eq)) for kappa, eq in enumerate(eqs)
    )
    items.append(_bool_item("order-k equation is isobaric of weight k", isobaric))
    expected_factors = {3: {((1, 1), (2, 1)): 3}, 4: {((1, 1), (3, 1)): 4, ((2, 2),): 3, ((1, 2), (2, 1)): 6}}
    for kappa, table in expected_factors.items():
        if kappa > ctx.n:
            continue
        got = {
            tuple(zip(orders, mults)): partition_coefficient(kappa, orders, mults)
            for orders, mults in jet_weight_partitions(kappa)
        }
        for shape, value in table.items():
            items.append(_item(f"chain-rule factor kappa={kappa} shape={shape}", value, got[shape]))
    return items, {}


def suite_wronskian(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    items = []
    for i in range(1, ctx.nvars + 1):
        got = power_wronskian(i, ctx)
        items.append(
            _item(f"power wronskian chart {i}", power_wronskian_closed_form(i, ctx).to_text(), got.to_text())
        )
    for variant, label in VARIANTS:
        ok = cramer_tangency(ctx, config.chart, variant) is None
        items.append(_bool_item(f"cramer solution satisfies its system ({label})", ok))
    return items, {}


def suite_frames(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    proof = tangency_proof(ctx, config.chart)
    items = [
        _bool_item("coefficient fields annihilate every equation", proof.coefficient is None),
        _bool_item("shifted fields annihilate every equation", proof.shifted is None),
        _bool_item("coordinate fields annihilate every equation", proof.coordinate is None),
    ]
    table = solve_jet_field_coefficients(ctx)
    items.append(_bool_item("jet-field blocks all invertible", all(d != 0 for d in table.block_dets.values())))
    items.append(_bool_item("jet field order-0 tangency divisible by E0", proof.jet_order0 is None))
    items.append(_bool_item("jet field annihilates higher equations identically", proof.jet_higher is None))
    return items, {}


def suite_pole_orders(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    report = verify_pole_table(ctx)
    items = [
        _bool_item("all closed-form pole orders match", report.all_match),
        _item("max pole order, power variant (n^2+2n)", ctx.n * ctx.n + 2 * ctx.n, report.c_power),
        _item(
            "max pole order, classical variant ((n^2+5n)/2)",
            (ctx.n * ctx.n + 5 * ctx.n) // 2,
            report.c_classical,
        ),
    ]
    mismatches = [r for r in report.rows if not r.match]
    for r in mismatches[:5]:
        items.append(_item(f"pole order {r.name}", r.claimed, r.computed))
    extra = {
        "c_variant1": report.c_power,
        "c_variant2": report.c_classical,
        "classical_wronskian_alternate_claim": report.alternate_w_claim,
        "classical_wronskian_alternate_matches": report.alternate_w_matches,
    }
    return items, extra


def suite_span(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    items = []
    checks = spanning_checks(ctx, chart=config.chart, trials=config.trials, seed=config.seed)
    for (_, label), results in zip(VARIANTS, checks):
        items.append(_bool_item(f"all frame fields tangent at sampled points ({label})", all(r.tangent_ok for r in results)))
        items.append(
            _item(
                f"tangent-space rank at each sampled point ({label})",
                [r.expected_rank for r in results],
                [r.rank for r in results],
            )
        )
        items.append(
            _item(
                f"defining-equation jacobian rank ({label})",
                [ctx.n + 1] * len(results),
                [r.jacobian_rank for r in results],
            )
        )
    return items, {}


def suite_invariance(config: RunConfig) -> tuple[list, dict]:
    ctx = config.context()
    # variant 2's frame differs from variant 1's in its coefficient fields only
    frame = [*enumerate_frame(ctx, chart=config.chart), *coefficient_fields(ctx, config.chart, VARIANT_CLASSICAL)]
    moved = next((f for f in frame if not invariance_proved(f, ctx)), None)
    if moved is not None:
        # G_n is connected, so a nonzero bracket means some element moves the field
        return [_bool_item(f"frame field {moved.label} invariant under reparametrization", False)], {}
    # the brackets prove every draw invariant, so no draw is pushed forward
    return [
        _bool_item(f"frame invariant under reparametrization draw {t}", True) for t in range(config.trials)
    ], {}


def suite_appendix(config: RunConfig) -> tuple[list, dict]:
    items = []
    for k in range(1, config.n + 1):
        items.append(
            _bool_item(f"determinant identity 1!..n!*(z')^(n(n+1)/2) at n={k}", power_wronskian_identity_holds(k))
        )
    return items, {}


# Every suite returns (items, extra): its checked items and the keys it adds
# to its entry in the report.
SUITES = {
    "equations": suite_equations,
    "wronskian": suite_wronskian,
    "frames": suite_frames,
    "pole-orders": suite_pole_orders,
    "span": suite_span,
    "invariance": suite_invariance,
    "appendix": suite_appendix,
}


def run(config: RunConfig) -> dict:
    """Execute the selected suites in declaration order and assemble the
    report; deterministic for a fixed config (timing fields aside)."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact": "jetframes",
        "version": __version__,
        "parameters": {
            "n": config.n,
            "d": config.d,
            "chart": config.chart,
            "seed": config.seed,
            "trials": config.trials,
            "suites": list(config.suites),
            "output": config.output,
        },
        "suites": [],
        "ok": True,
    }
    for name in SUITE_ORDER:
        if name not in config.suites:
            continue
        start = time.perf_counter()
        items, extra = SUITES[name](config)
        ok = bool(items) and all(item["ok"] for item in items)  # checking nothing is no pass
        suite_report = {
            "name": name,
            "ok": ok,
            "items": items,
            "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        suite_report.update(extra)
        report["suites"].append(suite_report)
        report["ok"] = report["ok"] and ok
    return report


def report_schema() -> dict:
    """Schema document for the JSON report; validate_report interprets it."""
    item_schema = {
        "type": "object",
        "required": ["name", "claimed", "computed", "ok"],
        "properties": {
            "name": {"type": "string"},
            "claimed": {"type": "string"},
            "computed": {"type": "string"},
            "ok": {"type": "boolean"},
        },
    }
    return {
        "version": SCHEMA_VERSION,
        "type": "object",
        "required": ["schema_version", "artifact", "version", "parameters", "suites", "ok"],
        "properties": {
            "schema_version": {"type": "string"},
            "artifact": {"type": "string"},
            "version": {"type": "string"},
            "parameters": {
                "type": "object",
                "required": ["n", "d", "chart", "seed", "trials", "suites", "output"],
                "properties": {
                    "n": {"type": "integer"},
                    "d": {"type": "integer"},
                    "chart": {"type": "integer"},
                    "seed": {"type": "integer"},
                    "trials": {"type": "integer"},
                    "suites": {"type": "array", "items": {"type": "string"}},
                    "output": {"type": "string"},
                },
            },
            "suites": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "ok", "items", "elapsed_ms"],
                    "properties": {
                        "name": {"type": "string"},
                        "ok": {"type": "boolean"},
                        "items": {"type": "array", "items": item_schema},
                        "elapsed_ms": {"type": "number"},
                    },
                },
            },
            "ok": {"type": "boolean"},
        },
    }


class ReportValidationError(ValueError):
    pass


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def validate_report(obj, schema: dict | None = None, path: str = "$") -> None:
    """Structural validation of a report against the schema document; raises
    ReportValidationError on the first violation."""
    if schema is None:
        schema = report_schema()
    expected = schema.get("type")
    if expected and not _TYPE_CHECKS[expected](obj):
        raise ReportValidationError(f"{path}: expected {expected}")
    if expected == "object":
        for key in schema.get("required", []):
            if key not in obj:
                raise ReportValidationError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_report(obj[key], sub, f"{path}.{key}")
    elif expected == "array":
        sub = schema.get("items")
        if sub:
            for idx, element in enumerate(obj):
                validate_report(element, sub, f"{path}[{idx}]")


def render_text(report: dict) -> str:
    lines = [
        f"jetframes {report['version']} | n={report['parameters']['n']} "
        f"d={report['parameters']['d']} chart={report['parameters']['chart']} "
        f"seed={report['parameters']['seed']}"
    ]
    for suite in report["suites"]:
        mark = "PASS" if suite["ok"] else "FAIL"
        lines.append(f"[{mark}] {suite['name']} ({suite['elapsed_ms']} ms)")
        for item in suite["items"]:
            mark = "ok " if item["ok"] else "FAIL"
            lines.append(f"    {mark} {item['name']}: {item['computed']}")
    lines.append("result: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetframes",
        description="Exact symbolic verification of tangent frames on vertical jet spaces.",
    )
    parser.add_argument("--n", type=int, default=2, help="jet order / fiber dimension (>= 1)")
    parser.add_argument("--d", type=int, default=3, help="hypersurface degree (> n)")
    parser.add_argument("--chart", type=int, default=1, help="chart index in [1, n+1]")
    parser.add_argument("--seed", type=int, default=0, help="seed for all random draws")
    parser.add_argument("--trials", type=int, default=5, help="sampled points / draws per check")
    parser.add_argument(
        "--suites",
        default=",".join(SUITE_ORDER),
        help="comma-separated subset of: " + ", ".join(SUITE_ORDER),
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--schema", action="store_true", help="print the report JSON schema and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(report_schema(), indent=2, sort_keys=True))
        return 0
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.d <= args.n:
        parser.error(f"--d must exceed --n (got n={args.n}, d={args.d})")
    if not 1 <= args.chart <= args.n + 1:
        parser.error(f"--chart must lie in [1, {args.n + 1}]")
    if args.trials < 1:
        parser.error(f"--trials must be >= 1 (got {args.trials})")
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    if not suites:
        parser.error("--suites must name at least one suite")
    unknown = [s for s in suites if s not in SUITE_ORDER]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}")
    config = RunConfig(
        n=args.n,
        d=args.d,
        chart=args.chart,
        seed=args.seed,
        trials=args.trials,
        suites=suites,
        output=args.output,
    )
    report = run(config)
    if args.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    if not report["ok"]:
        for suite in report["suites"]:
            if not suite["ok"]:
                first = next((item for item in suite["items"] if not item["ok"]), None)
                if first is None:
                    print(f"FAIL {suite['name']}: no items checked", file=sys.stderr)
                    continue
                print(
                    f"FAIL {suite['name']}: {first['name']} "
                    f"(claimed {first['claimed']}, computed {first['computed']})",
                    file=sys.stderr,
                )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
