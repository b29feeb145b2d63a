"""Compare two result files of the repo benchmark against its bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit, or the first of two runs of one
commit), ``B`` the candidate; both are ``result.json`` files written by
``run.py`` without ``--workload``.  For every workload x end-to-end
metric: both values, how much worse B is as a share of A (negative =
better), and the bound ``BENCHMARK.json`` fixes.  Exits 1 if any metric
is worse by more than its bound, or if B failed an op A did not.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)["workloads"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    first, second = _load(argv[0]), _load(argv[1])
    breaches = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        a, b = first[workload]["end_to_end"], second[workload]["end_to_end"]
        print(f"# {workload}")
        if b["failed"] > a["failed"]:
            breaches += 1
            print(f"  failed ops rose: {a['failed']} -> {b['failed']}  BREACH")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = a["metrics"][name]["value"]
            after = b["metrics"][name]["value"]
            worse = (after - before) / before
            if metric["better"] == "higher":
                worse = -worse
            breach = worse > metric["bound"]
            breaches += breach
            print(f"  {name:<26}{before:>14.4f}{after:>14.4f} "
                  f"{metric['unit']:<4} worse by {worse:>+7.1%} "
                  f"(bound {metric['bound']:.0%})"
                  f"{'  BREACH' if breach else ''}")
    print(f"# {breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
