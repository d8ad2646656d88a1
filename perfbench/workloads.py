"""The benchmark's workloads, their time budgets and pinned report fingerprints.

Only ``--seed`` varies between runs; everything else is fixed here.  Why each
workload exists, which layers it loads and which it bypasses, is in
``perfbench/README.md`` and in the ``why`` of each workload in
``BENCHMARK.json``.
"""

import copy
import hashlib
import json
from dataclasses import dataclass

ALL_SUITES = ("equations", "wronskian", "frames", "pole-orders", "span", "invariance", "appendix")


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    trials: int
    suites: tuple
    budget_s: float  # a process running longer is killed and counted as failed
    fingerprint: str  # of the report at any seed; see fingerprint()

    def cli_args(self, seed: int) -> list:
        """The equivalent ``python -m jetframes`` arguments."""
        return ["--n", str(self.n), "--d", str(self.d), "--trials", str(self.trials),
                "--suites", ",".join(self.suites), "--seed", str(seed), "--output", "json"]


WORKLOADS = {
    # ROADMAP's baseline configuration; most of the time builds the frame
    # (jet-field table, cofactor determinants of integer blocks).
    "build-34": Workload(
        n=3, d=4, trials=2, suites=ALL_SUITES, budget_s=100.0,
        fingerprint="394e15d96182cfc9f43ac1ed6d4a517a2f398163148839f1d99037a7d2199045",
    ),
    # A small frame checked at 240 sampled points and under 120
    # reparametrization draws: per-point evaluation, Jacobians, ranks, subs.
    "points-23": Workload(
        n=2, d=3, trials=120, suites=("span", "invariance"), budget_s=40.0,
        fingerprint="4505620e691086c06e848091e756e70c0b6b115efa7c86a3494106fddb49a198",
    ),
    # Pure polynomial kernel: products, total derivatives, small polynomial
    # determinants, Cramer vectors and residuals; no jet table, no sampling.
    "identities-45": Workload(
        n=4, d=5, trials=5, suites=("equations", "wronskian", "pole-orders", "appendix"),
        budget_s=40.0, fingerprint="040510c98f3856a1fa859fb6b977f0290c506d96909217457c8bf399ceb38b20",
    ),
}


def fingerprint(report: dict) -> str:
    """SHA-256 of the report with its timing fields and its seed removed.

    It covers the parameters, every suite's name, items and extras and the
    overall verdict, so it does not depend on the seed for a correct run."""
    doc = copy.deepcopy(report)
    doc["parameters"].pop("seed", None)
    for suite in doc["suites"]:
        suite.pop("elapsed_ms", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
