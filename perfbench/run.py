"""jetframes benchmark: run one workload in fresh processes, check every
report, print every metric.

    python3 perfbench/run.py --workload build-34 --seed 1 --seconds 60 --trace 0

Load model: a closed loop with one client.  Each run of the workload is a new
single-threaded Python process (``perfbench/worker.py``), started only after
the previous one ended, so caches start cold as for a command-line user.
Every round of runs starts with a few set-up-only processes that measure
``setup_s``, so its probes are spread over the whole run like the runs are.  A
new round is started only while it is expected to end within ``--seconds``; at
least one always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of the same workload and reports the per-layer
metrics of the traced runs plus ``trace.overhead_s``; it also writes the spans
of the first traced run to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment stamp and each metric with its unit and sample count.
Exit status: 0 after a completed benchmark (even one with failed runs, which
``correct`` reports), 2 when the jetframes sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "jetframes")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 5  # set-up-only processes at the start of every round of runs
SETUP_BUDGET_S = 30.0
HARD_LIMIT_S = 170.0  # every process of a benchmark run ends by then
SPAN_COVERAGE = 0.97  # suite spans must cover this share of traced verify_s

sys.path.insert(0, HERE)
from tracer import PER_LAYER_METRICS, metric_unit  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "ratio"}


def environment_stamp() -> dict:
    """What a number depends on besides the code: commit, interpreter, cores, CPU."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def run_worker(workload: str, seed: int, hard_deadline: float, *, trace=False,
               setup_only=False, spans_out=None) -> dict:
    """Start one worker process and wait for it; never raises for its failure."""
    budget = SETUP_BUDGET_S if setup_only else WORKLOADS[workload].budget_s
    budget = max(0.1, min(budget, hard_deadline - time.monotonic()))
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failure": f"timeout: killed after its budget of {budget:.1f} s", "wall_s": budget}
    wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"failure": f"exit code {proc.returncode}: {last[0]}", "wall_s": wall_s}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"failure": "no JSON result line", "wall_s": wall_s}
    out["wall_s"] = wall_s
    return out


def check_run(result: dict, workload: str, seed: int, validate) -> dict:
    """Return ``result`` with a ``failure`` reason set if its report is wrong."""
    if "failure" in result:
        return result
    report = result["report"]
    try:
        validate(report)
    except ValueError as exc:
        return {**result, "failure": f"invalid report: {exc}"}
    if not report["ok"]:
        bad = [s["name"] for s in report["suites"] if not s["ok"]]
        return {**result, "failure": f"report not ok: failing suites {bad}"}
    if report["parameters"]["seed"] != seed:
        return {**result, "failure": "report carries another seed"}
    got = fingerprint(report)
    if got != WORKLOADS[workload].fingerprint:
        return {**result, "failure": f"fingerprint mismatch: {got}"}
    trace = result.get("trace")
    if trace is not None:
        if trace["unrestored"]:
            return {**result, "failure": f"names left patched: {trace['unrestored']}"}
        coverage = trace["suite_span_s"] / result["verify_s"]
        if not SPAN_COVERAGE <= coverage <= 1.0:
            return {**result, "failure": f"suite spans cover {coverage:.3f} of traced verify_s"}
    return result


def tail(values: list):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values: list, unit: str) -> str:
    """Median and tail percentile; the tail is '-' below eleven samples."""
    pct = tail(values)
    tail_text = "-" if pct is None else f"p{pct[0]:.0f} {pct[1]:.6g}"
    return f"{name:44s} {statistics.median(values):12.6g} {unit:6s} n={len(values):<3d} tail {tail_text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"jetframes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from jetframes.cli import validate_report

    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + HARD_LIMIT_S
    print("env " + json.dumps(environment_stamp(), sort_keys=True))
    print("each run: python3 -m jetframes " + " ".join(WORKLOADS[args.workload].cli_args(args.seed)))

    setup, plain, traced, rounds = [], [], [], []
    spans_out = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.json")
    while True:
        t = time.monotonic()
        setup += [run_worker(args.workload, args.seed, hard_deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        plain.append(check_run(run_worker(args.workload, args.seed, hard_deadline),
                               args.workload, args.seed, validate_report))
        if args.trace:
            result = run_worker(args.workload, args.seed, hard_deadline, trace=True,
                                spans_out=spans_out if not traced else None)
            traced.append(check_run(result, args.workload, args.seed, validate_report))
        rounds.append(time.monotonic() - t)
        now = time.monotonic()
        if now + statistics.median(rounds) > min(deadline, hard_deadline):
            break

    runs = plain + traced
    failures = [r["failure"] for r in setup + runs if "failure" in r]
    for reason in failures:
        print(f"FAILED RUN: {reason}")
    attempted = len(runs)
    failed = sum("failure" in r for r in runs)
    ok_plain = [r for r in plain if "failure" not in r]
    ok_traced = [r for r in traced if "failure" not in r]
    ok_setup = [r for r in setup if "failure" not in r]
    # A failed run counts as missing every latency limit: without any good run
    # the timings fall back to the wall time spent on the attempts.
    verify = [r["verify_s"] for r in ok_plain] or [r["wall_s"] for r in plain]

    if not args.trace:
        samples = {
            "verify_s": verify,
            "setup_s": [r["setup_s"] for r in ok_setup + ok_plain] or [r["wall_s"] for r in setup],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok_plain] or [0.0],
            "pass_share": [(attempted - failed) / attempted],
        }
        units = END_TO_END_UNITS
    else:
        samples = {m: [] for m in PER_LAYER_METRICS}
        for r in ok_traced:
            for name, value in r["trace"]["metrics"].items():
                samples[name].append(value)
        traced_verify = [r["verify_s"] for r in ok_traced] or [r["wall_s"] for r in traced]
        samples["trace.overhead_s"] = [statistics.median(traced_verify) - statistics.median(verify)]
        samples = {m: v or [0] for m, v in samples.items()}
        units = {m: metric_unit(m) for m in PER_LAYER_METRICS}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} runs, {failed} failed, failed_share {failed / attempted:.6g}, "
          f"{len(ok_setup)} set-up probes, {time.monotonic() - started:.3f} s")
    metrics = {}
    for name, values in samples.items():
        print(describe(name, values, units[name]))
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    print("verify_s samples: " + " ".join(f"{v:.4f}" for v in verify))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
