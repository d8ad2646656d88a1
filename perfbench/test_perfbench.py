"""The benchmark's own checks: pinned fingerprints hold on a seed no run of the
benchmark uses, the tracer leaves the package as it found it, and the harness
refuses to report without the sources.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import jetframes  # noqa: E402
import jetframes.cli as cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, PER_LAYER_METRICS, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

# Not a seed of any recorded benchmark run; claims are re-checked on it.
UNSEEN_SEED = 104729


def test_fingerprint_does_not_depend_on_seed():
    digests = {
        fingerprint(cli.run(cli.RunConfig(n=2, d=3, trials=7, seed=seed, output="json")))
        for seed in (0, 5, 123, UNSEEN_SEED)
    }
    assert len(digests) == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pinned_fingerprint_holds_on_unseen_seed(workload):
    deadline = time.monotonic() + run.HARD_LIMIT_S
    result = run.check_run(run.run_worker(workload, UNSEEN_SEED, deadline),
                           workload, UNSEEN_SEED, cli.validate_report)
    assert "failure" not in result, result["failure"]
    assert result["verify_s"] > 0 and result["setup_s"] > 0 and result["peak_rss_mb"] > 0


def test_traced_run_matches_and_restores():
    config = cli.RunConfig(n=2, d=3, trials=2, seed=UNSEEN_SEED, output="json")
    plain = cli.run(config)
    before = {name: dict(vars(getattr(jetframes, name))) for name in ("algebra", "frames", "cli")}
    methods = dict(vars(jetframes.algebra.Polynomial))
    tracer = Tracer()
    tracer.install(jetframes)
    assert leftover_wrappers(jetframes)  # the probes really are in place
    try:
        start = time.perf_counter()
        traced = cli.run(config)
        verify_s = time.perf_counter() - start
    finally:
        unrestored = tracer.restore()
    assert unrestored == [] and leftover_wrappers(jetframes) == []
    for name, namespace in before.items():
        after = vars(getattr(jetframes, name))
        assert all(after[k] is v for k, v in namespace.items()), name
    assert all(vars(jetframes.algebra.Polynomial)[k] is v for k, v in methods.items())
    assert fingerprint(traced) == fingerprint(plain)

    metrics = tracer.metrics()
    assert set(metrics) == set(PER_LAYER_METRICS) - {"trace.overhead_s"}
    assert metrics["algebra.mul.calls"] > 0 and metrics["algebra.determinant.calls"] > 0
    suites = tracer.suite_seconds()
    assert 0.97 * verify_s <= suites <= verify_s
    # self times partition the suite spans: nothing is counted twice or lost
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(suites, rel=1e-6)
    spans = tracer.spans
    assert all(parent < span_id for span_id, _, _, _, parent in spans)
    assert all(start <= end for _, _, start, end, _ in spans)


def test_missing_per_layer_metric_raises():
    tracer = Tracer()
    tracer.install(jetframes)
    assert tracer.restore() == []
    del tracer.stats["algebra.rank_rational"]
    with pytest.raises(KeyError):
        tracer.metrics()


def test_cut_off_run_is_a_timeout_with_its_budget():
    result = run.run_worker("build-34", UNSEEN_SEED, time.monotonic() + 0.5)
    assert result["failure"].startswith("timeout") and "budget" in result["failure"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points-23", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
