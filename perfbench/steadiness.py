"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads build-34,points-23] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, interleaving the
workloads (seed-major) so that drift on a shared machine hits all of them
alike, with ``run_seconds`` from ``BENCHMARK.json``.  For each workload and
end-to-end metric it prints the median over seeds and the spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound.  Exits 1 if any run was
incorrect or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None, help="write every run's result line here (JSON)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    results = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                continue
            results[workload].append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)

    print(f"{'workload':14s} {'metric':12s} {'median':>10s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        if len(runs) < 2:
            continue
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            flag = ""
            if s > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:14s} {metric['name']:12s} {statistics.median(values):10.5g} "
                  f"{s:8.4f} {metric['bound']:6.3f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
