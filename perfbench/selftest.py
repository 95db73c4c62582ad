"""Self-test of the traced run: its counts must repeat exactly.

For each seed and workload it runs ``run.py --trace 1`` twice and requires
every count metric (calls, n cubed, walk multiplications, complement edges,
catalog entries, bound reports and the distinct/useful ratios) to be
identical, every op to pass its output check, and every per-layer metric to
be reported.  Two seeds show that the workloads are not tuned to one seed.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)
SECONDS = 2.0
COUNT_SUFFIXES = ("_calls", "_n3", "_int_mults", "_edges", "_entries", "_frac")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def is_count(name: str) -> bool:
    return name != "trace.overhead_frac" and (
        name.endswith(COUNT_SUFFIXES) or name == "theorems.reports"
    )


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    problems = []
    for seed in SEEDS:
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            first, second = (traced_run(workload, seed, SECONDS) for _ in range(2))
            where = f"{workload} seed={seed}"
            for result in (first, second):
                if not result["correct"] or result["failed"]:
                    problems.append(f"{where}: {result['failed']} op(s) failed their check")
                if set(result["metrics"]) != expected:
                    problems.append(f"{where}: metrics differ from BENCHMARK.json per_layer")
            counts = {n: v["value"] for n, v in first["metrics"].items() if is_count(n)}
            for name, value in counts.items():
                again = second["metrics"][name]["value"]
                if again != value:
                    problems.append(f"{where}: {name} {value} then {again}")
            print(where, json.dumps(counts), flush=True)
    for problem in problems:
        print("FAILED", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
