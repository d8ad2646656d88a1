"""One benchmark process: import jetframes cold, run one workload, print one
JSON line.  ``run.py`` starts a fresh interpreter for every run, so the
``lru_cache``s in ``frames``, ``wronskian`` and ``jetspace`` start empty, as
they do for a command-line user.

    python3 perfbench/worker.py --workload points-23 --seed 1 --t0 <monotonic>
        [--setup-only | --trace [--spans-out FILE]]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` includes the
interpreter start and the import.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import jetframes
    import jetframes.cli as cli
    from workloads import WORKLOADS

    if not os.path.abspath(jetframes.__file__).startswith(SRC + os.sep):
        print(f"imported jetframes from {jetframes.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    config = cli.RunConfig(
        n=spec.n, d=spec.d, trials=spec.trials, seed=args.seed, suites=spec.suites, output="json"
    )
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, leftover_wrappers

            tracer = Tracer()
            tracer.install(jetframes)
        try:
            start = time.perf_counter()
            report = cli.run(config)
            cli.validate_report(report)
            out["verify_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                unrestored = tracer.restore()
        out["report"] = report
        if tracer is not None:
            out["trace"] = {
                "metrics": tracer.metrics(),
                "suite_span_s": tracer.suite_seconds(),
                "unrestored": unrestored + leftover_wrappers(jetframes),
            }
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"fields": ["id", "name", "start", "end", "parent"],
                               "spans": tracer.spans}, fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
