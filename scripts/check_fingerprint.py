"""Check a jetframes JSON report against a pinned fingerprint.

    python scripts/check_fingerprint.py REPORT PINNED

PINNED is a SHA-256 digest, or the name of a benchmark workload in
perfbench/workloads.py, whose pinned fingerprint is then used.  The
fingerprint (perfbench/workloads.py) leaves out the timing fields and the
seed.  Prints the report's fingerprint; exits 1 when it differs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, fingerprint  # noqa: E402


def main(argv: list) -> int:
    report, pinned = argv
    want = WORKLOADS[pinned].fingerprint if pinned in WORKLOADS else pinned
    with open(report) as f:
        got = fingerprint(json.load(f))
    print("fingerprint", got)
    if got != want:
        print(f"expected {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
