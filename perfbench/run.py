"""hypestra benchmark: closed-loop runs of the CLI, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload check_sweep --seed 1 --seconds 30 --trace 0

One client runs the ops of a workload back to back (a closed loop), each op
an in-process ``hypestra.cli.main(argv)`` call with stdout and stderr
captured, and checks every op's output.  Whole passes over the workload's
ops repeat until ``--seconds`` have gone by.  Each pass runs in a fresh
interpreter (passrun.py), so no library state carries from one pass to the
next.  Times are converted to reference seconds by the machine-speed probe
of speed.py, and each op's time is its median across passes, so one slow
pass on a shared machine moves no metric.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every public library function wrapped (see
tracing.py), and prints the per-layer metrics plus the tracing overhead.
The last stdout line is the result object; the line before it records the
machine and build.  Spans and results are also written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: one client, one BLAS thread: at most nproc, and steady on a shared box
THREADS = "1"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hypestra.cli; "
    "print(time.perf_counter() - t)"
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_import_seconds() -> float:
    """Time to import hypestra.cli in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


class Loop:
    """Closed-loop passes over a workload's ops, each pass in a fresh
    interpreter (passrun.py), with outcome tallies."""

    def __init__(self, ops, warmup):
        self.ops = ops
        self.warmup = warmup
        self.intervals = [[] for _ in ops]  # per op: raw (start, end) of each pass
        self.times = [[] for _ in ops]  # per op: reference seconds of each pass
        self.outcomes = {"ok": 0, "refused": 0, "failed": 0}
        self.failures: list[str] = []
        self.layer_passes: list[dict] = []
        self.probe_medians: list[float] = []
        self.peak_rss_mb = 0.0
        self.passes = 0

    def run(self, seconds: float, trace_path=None) -> None:
        """Whole passes until `seconds` have elapsed (at least one).  With a
        trace_path, the passes are traced and their spans written there."""
        deadline = perf_counter() + seconds
        while True:
            request = {
                "src": str(SRC),
                "warmup": self.warmup,
                "ops": [op.argv for op in self.ops],
                "trace_path": str(trace_path) if trace_path else None,
                "pass_index": self.passes,
            }
            done = subprocess.run(
                [sys.executable, str(HERE / "passrun.py")],
                cwd=ROOT, input=json.dumps(request), capture_output=True, text=True,
                timeout=PASS_TIMEOUT_S, check=True,
            )
            reply = json.loads(done.stdout.strip().splitlines()[-1])
            for i, (op, (start, end, seconds_ref, rc, out, err)) in enumerate(
                zip(self.ops, reply["ops"])
            ):
                self.intervals[i].append((start, end))
                self.times[i].append(seconds_ref)
                try:
                    verdict = op.check(rc, out, err)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    verdict = f"unreadable output: {exc!r}"
                if verdict == workloads.OK:
                    self.outcomes["ok"] += 1
                elif verdict == workloads.REFUSED:
                    self.outcomes["refused"] += 1
                else:
                    self.outcomes["failed"] += 1
                    self.failures.append(f"{op.label}: {verdict}")
            if reply["layers"] is not None:
                self.layer_passes.append(reply["layers"])
            self.probe_medians.append(reply["probe_median_s"])
            self.peak_rss_mb = max(self.peak_rss_mb, reply["peak_rss_mb"])
            self.passes += 1
            if perf_counter() >= deadline:
                return

    def op_medians(self) -> list[float]:
        """Per op, the median of its reference-second times across passes."""
        return [statistics.median(times) for times in self.times]

    def raw_op_medians(self) -> list[float]:
        """Per op, the median wall-clock time across passes (seconds)."""
        return [statistics.median(end - start for start, end in ivs) for ivs in self.intervals]

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())


def machine_info() -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "hypestra").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "none" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypestra" / "cli.py").is_file():
        print(f"error: no hypestra sources under {SRC}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    from speed import SpeedProbe  # imports numpy, so only after the thread counts are set

    env = machine_info()
    # the probe must sample the CPU the ops run on; children inherit this
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inputs = WORK / f"inputs-{args.workload}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with SpeedProbe() as probe:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            called = perf_counter()
            imported = child_import_seconds()
            start = perf_counter()
            ops = workloads.WORKLOADS[args.workload](args.seed, inputs)
            end = perf_counter()
            setups.append(imported * probe.factor(called, start) + probe.normalize(start, end))
            raw_setups.append(imported + end - start)
    warmup = workloads.warmup(inputs)

    if args.trace:
        import tracing

        untraced = Loop(ops, warmup)
        untraced.run(args.seconds / 2)
        traced = Loop(ops, warmup)
        trace_path = WORK / f"spans-{tag}.jsonl"
        trace_path.unlink(missing_ok=True)
        traced.run(args.seconds / 2, trace_path)
        loops, sampled = (untraced, traced), traced
        metrics = {}
        for name in tracing.TIME_METRICS + tracing.COUNT_METRICS:
            unit = "s" if name in tracing.TIME_METRICS else "ratio" if name.endswith("_frac") else "count"
            value = statistics.median(layers[name] for layers in traced.layer_passes)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": sum(traced.op_medians()) / sum(untraced.op_medians()) - 1.0,
            "unit": "ratio",
        }
    else:
        loop = Loop(ops, warmup)
        loop.run(args.seconds)
        loops, sampled = (loop,), loop
        medians = loop.op_medians()
        ok_per_pass = loop.outcomes["ok"] / loop.passes
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ok_per_pass / sum(medians), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * percentile(medians, 50), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile(medians, 90), "unit": "ms"},
            "ok_frac": {"value": loop.outcomes["ok"] / loop.attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": loop.peak_rss_mb, "unit": "MB"},
        }

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.outcomes["failed"] for lp in loops)
    refused = sum(lp.outcomes["refused"] for lp in loops)
    for message in [f for lp in loops for f in lp.failures][:10]:
        print(f"FAILED {message}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "passes": sampled.passes,
        # op_p50_ms and op_p90_ms are taken over one median per op
        "latency_values": len(ops),
        "refused_known_overflow": refused,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "probe_median_s": statistics.median(sampled.probe_medians),
        "raw_op_p50_ms": 1e3 * percentile(sampled.raw_op_medians(), 50),
        "raw_op_p90_ms": 1e3 * percentile(sampled.raw_op_medians(), 90),
        "machine": env,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    record = {
        **info,
        "op_labels": [op.label for op in ops],
        "op_samples_s": sampled.times,
        "op_intervals": sampled.intervals,
        "pass_probe_medians_s": sampled.probe_medians,
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
