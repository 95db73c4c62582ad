"""One pass of a benchmark workload, in an interpreter of its own.

run.py starts this script once per pass, so no state the library keeps for
the life of a process (a cache of spectra, adjacency matrices or catalogs)
carries from one pass into the next, as it cannot between two CLI commands
of a user.  The request arrives as JSON on stdin:

    {"src": ..., "warmup": [argv, ...], "ops": [argv, ...],
     "trace_path": null | path, "pass_index": int}

The warm-up ops run first, untimed, on inputs no timed op uses.  Then every
op runs once, in order, as an in-process ``hypestra.cli.main(argv)`` call
under the speed probe of speed.py.  With a ``trace_path`` the library is
wrapped by tracing.Tracer for the timed ops, and the pass's spans are
appended to that file.  The reply is one JSON line on stdout: per op its raw
start and end, its time in reference seconds, its exit status and its
captured output; the per-layer metrics of a traced pass; probe statistics;
and the peak resident set size of this process.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def run_op(cli, argv) -> tuple[float, float, int | None, str, str]:
    """One CLI call; returns (start, end, exit status, stdout, stderr).
    An exception escaping main gives status None and its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an internal error is a failed op, not a crash
            rc = None
            traceback.print_exc()
        end = perf_counter()
    return start, end, rc, out.getvalue(), err.getvalue()


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"])
    sys.path.insert(0, str(src))
    import hypestra.cli as cli

    if Path(cli.__file__).resolve().parent != src / "hypestra":
        print(f"error: imported hypestra from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    import tracing
    from speed import SpeedProbe

    tracer = tracing.Tracer() if request["trace_path"] else None
    results = []
    with SpeedProbe() as probe:
        for argv in request["warmup"]:
            run_op(cli, argv)
        if tracer:
            tracer.install()
        try:
            pass_start = perf_counter()
            for i, argv in enumerate(request["ops"]):
                if tracer:
                    tracer.op = i
                results.append(run_op(cli, argv))
            pass_end = perf_counter()
        finally:
            if tracer:
                tracer.uninstall()

    layers = None
    if tracer:
        layers = tracer.metrics()
        # layer self times in reference seconds, at the pass's mean speed
        speed = probe.factor(pass_start, pass_end)
        for name in tracing.TIME_METRICS:
            layers[name] *= speed
        tracer.write_jsonl(request["trace_path"], request["pass_index"])
    reply = {
        "ops": [
            [start, end, probe.normalize(start, end), rc, out, err]
            for start, end, rc, out, err in results
        ],
        "layers": layers,
        "probe_samples": len(probe.durations),
        "probe_median_s": statistics.median(probe.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
