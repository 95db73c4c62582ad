"""Benchmark workloads: seeded inputs, the ops that run on them, and a
check of every op's output by meaning rather than by bytes.

Each workload builder writes its input files into ``workdir`` and returns
the ops of one pass, in order.  An op is one ``hypestra.cli.main(argv)``
call.  ``warmup`` writes the inputs of a few small ops that run once before
timing, so lazy set-up (first calls into numpy, first allocations) is not
measured.  No timed op of any workload uses those inputs, so the warm-up
cannot fill a cache that a timed op then hits.

An op's check returns ``OK``, ``REFUSED`` or a failure message.  ``REFUSED``
is only possible for ``check`` ops on ``scale``: the bound catalog exits
with status 2 and an ``OverflowError`` message once the Estrada index of
the complement leaves double precision (known defect, n above about 30).
The benchmark reports those ops in ``ok_frac`` and keeps them apart from
genuine failures.  Once the defect is fixed the same ops must pass the full
bound check.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

OK = "ok"
REFUSED = "refused"

#: instances per (k, n); 19 (k, n) pairs make 190 instances a pass
SWEEP_PER_ORDER = 10
SWEEP_MAX_N = 12
ORDERING_BUDGET = 16
#: acceptance grid of the extremal suite: (k, n_over)
EXTREMAL_GRID = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4))
SCALE_ORDERS = (24, 40, 64)
SCALE_SMAX = 8

#: bound ids every check_all_bounds report list contains; an
#: ee-monotonicity probe is added when some k-subset is missing
BASE_BOUND_IDS = frozenset(
    {
        "thm3.1-sum-largest",
        "cor3.2-sum-largest",
        "thm2.12-moment-lower",
        "thm2.12-moment-upper",
        "ee-lower-spectral",
        "thm4.1-ee-lower",
        "thm4.2-ee-upper",
        "thm4.3-ee-upper-energy",
        "rem4.4-ee-upper-energy",
        "thm4.5-nordhaus-gaddum",
    }
)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int | None, str, str], str]


# --- inputs ------------------------------------------------------------------


def _write_hypergraph(path: Path, n: int, edges) -> None:
    """JSON or text format by extension, written without the library."""
    if path.suffix == ".json":
        text = json.dumps({"n": n, "edges": [list(e) for e in edges]}) + "\n"
    else:
        text = "\n".join([str(n)] + [" ".join(map(str, e)) for e in edges]) + "\n"
    path.write_text(text, encoding="utf-8")


def _random_edges(rng: random.Random, n: int, k: int, m: int) -> list[tuple[int, ...]]:
    return sorted(rng.sample(list(combinations(range(n), k)), m))


def _pair_counts(edges) -> Counter:
    return Counter(pair for e in edges for pair in combinations(e, 2))


# --- output checks -------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _exit_failure(rc, err: str) -> str:
    return f"exit status {rc}: {err.strip()[-300:]}"


def check_bounds(n: int, k: int, edges, rc, out: str, err: str) -> str:
    """Every report holds, and the second moment equals 2 * sum of squared
    pair counts, computed here from the edge list."""
    if rc != 0:
        return _exit_failure(rc, err)
    reports = {r["bound_id"]: r for r in json.loads(out)}
    missing = BASE_BOUND_IDS - reports.keys()
    if missing:
        return f"missing bound reports {sorted(missing)}"
    failed = sorted(bid for bid, r in reports.items() if r["holds"] is not True)
    if failed:
        return f"bounds do not hold: {failed}"
    upper = reports["thm2.12-moment-upper"]
    if (upper["inputs"]["n"], upper["inputs"]["m"], upper["inputs"]["k"]) != (n, len(edges), k):
        return f"report inputs {upper['inputs']} do not match n={n} m={len(edges)} k={k}"
    expected = 2 * sum(c * c for c in _pair_counts(edges).values())
    for moment in (upper["lhs"], reports["thm2.12-moment-lower"]["rhs"]):
        if not _close(moment, expected, 1e-8):
            return f"second moment {moment} != 2 * sum(pair count^2) = {expected}"
    return OK


def check_scale_bounds(n: int, k: int, edges, rc, out: str, err: str) -> str:
    """As check_bounds, except that the known overflow refusal is REFUSED."""
    if rc == 2 and "overflow" in err.lower():
        return REFUSED
    return check_bounds(n, k, edges, rc, out, err)


def check_orderings(rc, out: str, err: str) -> str:
    """Every ordering instance is strict: ee_left < ee_right."""
    if rc != 0:
        return _exit_failure(rc, err)
    reports = json.loads(out)
    instances = 0
    for report in reports:
        for inst in report["instances"]:
            instances += 1
            if not (inst["strict_holds"] is True and inst["ee_left"] < inst["ee_right"]):
                return f"{report['lemma_id']}: {inst['left']} -> {inst['right']} not strict"
        if report["all_strict"] is not True:
            return f"{report['lemma_id']}: all_strict is not true"
    return OK if instances else "no ordering instances"


def expected_extremal_labels(k: int, n_over: int) -> tuple[str, str]:
    """The paper's maximum and runner-up among unicyclic shapes."""
    top = f"cm:{k}:{n_over - 2},0"
    if n_over >= 4:
        return top, f"cm:{k}:{n_over - 3},1"
    return top, f"cmx:{k}:2:0,0,1" + ",0" * (2 * (k - 1) - 3)


def check_extremal(k: int, n_over: int, rc, out: str, err: str) -> str:
    """The report passes, names the expected leaders among its top two
    groups, and ranks by non-increasing Estrada index."""
    if rc != 0:
        return _exit_failure(rc, err)
    report = json.loads(out)
    top, second = expected_extremal_labels(k, n_over)
    if report["n"] != (k - 1) * n_over or report["passed"] is not True:
        return f"extremal report for k={k} n_over={n_over} did not pass"
    if top not in report["max_labels"] or second not in report["second_labels"]:
        return (
            f"leaders {report['max_labels']} / {report['second_labels']} "
            f"do not contain {top} / {second}"
        )
    values = [ee for _, ee in report["ranking"]]
    if any(a < b for a, b in zip(values, values[1:])):
        return "ranking is not sorted by descending Estrada index"
    return OK


def exact_traces(n: int, edges, s_max: int) -> list[int]:
    """tr(A^s) for s = 0..s_max over Python integers, A the pair-count
    adjacency matrix, from powers up to ceil(s_max / 2)."""
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), c in _pair_counts(edges).items():
        adj[u][v] = c
        adj[v][u] = c
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range((s_max + 1) // 2):
        prev = powers[-1]
        nxt = []
        for row in prev:
            out = [0] * n
            for w, x in enumerate(row):
                if x:
                    for v, c in adj[w].items():
                        out[v] += x * c
            nxt.append(out)
        powers.append(nxt)
    traces = []
    for s in range(s_max + 1):
        a, b = powers[s // 2], powers[s - s // 2]
        # A^a and A^b are symmetric, so tr(A^a A^b) is the entrywise dot
        traces.append(sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb)))
    return traces


def check_spectrum(n: int, edges, traces: dict, rc, out: str, err: str) -> str:
    """Summed closed walks of length s equal tr(A^s), and moments match."""
    if rc != 0:
        return _exit_failure(rc, err)
    summary = json.loads(out)
    if (summary["n"], summary["m"], len(summary["eigenvalues"])) != (n, len(edges), n):
        return "spectrum size does not match the input"
    if "exact" not in traces:
        traces["exact"] = exact_traces(n, edges, SCALE_SMAX)
    exact = traces["exact"]
    walks = summary["closed_walks"]
    if sorted(walks, key=int) != [str(u) for u in range(n)]:
        return "closed walks are not reported for every vertex"
    for s in range(1, SCALE_SMAX + 1):
        total = sum(walks[str(u)][s - 1] for u in range(n))
        if total != exact[s]:
            return f"closed walks of length {s} sum to {total}, tr(A^{s}) = {exact[s]}"
    for t, moment in enumerate(summary["moments"]):
        if not _close(moment, exact[t], 1e-6):
            return f"moment {t} = {moment}, tr(A^{t}) = {exact[t]}"
    return OK


# --- workloads -----------------------------------------------------------------


def check_sweep(seed: int, workdir: Path) -> list[Op]:
    """Random k-uniform hypergraphs, one ``check`` op each, with n and m
    distributed as ``verify bounds`` draws them: n uniform on 3..12 (at
    least k), m uniform on 1..min(C(n, k), 3n).  The draw is stratified
    (SWEEP_PER_ORDER instances per (k, n), one per slice of the m range)
    so the total work varies little from seed to seed."""
    rng = random.Random(seed)
    cells = []
    for k in (3, 4):
        for n in range(max(k, 3), SWEEP_MAX_N + 1):
            m_max = min(comb(n, k), 3 * n)
            for j in range(SWEEP_PER_ORDER):
                lo = 1 + j * m_max // SWEEP_PER_ORDER
                hi = max(lo, (j + 1) * m_max // SWEEP_PER_ORDER)
                cells.append((k, n, rng.randint(lo, hi)))
    rng.shuffle(cells)
    ops = []
    for i, (k, n, m) in enumerate(cells):
        edges = _random_edges(rng, n, k, m)
        path = workdir / f"sweep-{i:03d}.{'json' if i % 2 == 0 else 'txt'}"
        _write_hypergraph(path, n, edges)
        ops.append(
            Op(
                f"check k={k} n={n} m={m}",
                ("check", str(path), "--k", str(k), "--format", "json"),
                partial(check_bounds, n, k, edges),
            )
        )
    return ops


def suites(seed: int, workdir: Path) -> list[Op]:
    """The acceptance grid of ``verify orderings`` and ``verify extremal``;
    the seed only fixes the order of the ops in a pass."""
    ops = [
        Op(
            f"orderings k={k}",
            ("verify", "orderings", "--k", str(k), "--budget", str(ORDERING_BUDGET), "--format", "json"),
            check_orderings,
        )
        for k in (3, 4)
    ]
    ops += [
        Op(
            f"extremal k={k} n_over={n_over}",
            ("verify", "extremal", "--nover", str(n_over), "--k", str(k), "--format", "json"),
            partial(check_extremal, k, n_over),
        )
        for k, n_over in EXTREMAL_GRID
    ]
    random.Random(seed).shuffle(ops)
    return ops


def scale(seed: int, workdir: Path) -> list[Op]:
    """One seeded 3-uniform hypergraph per order in SCALE_ORDERS with
    m = 2n; a ``spectrum --smax 8`` op and a ``check`` op on each."""
    rng = random.Random(seed)
    ops = []
    for n in SCALE_ORDERS:
        edges = _random_edges(rng, n, 3, 2 * n)
        path = workdir / f"scale-{n}.json"
        _write_hypergraph(path, n, edges)
        ops.append(
            Op(
                f"spectrum n={n}",
                ("spectrum", str(path), "--smax", str(SCALE_SMAX), "--format", "json"),
                partial(check_spectrum, n, edges, {}),
            )
        )
        ops.append(
            Op(
                f"check n={n}",
                ("check", str(path), "--k", "3", "--format", "json"),
                partial(check_scale_bounds, n, 3, edges),
            )
        )
    return ops


def warmup(workdir: Path) -> list[tuple[str, ...]]:
    """Argvs of the warm-up ops: ``check`` and ``spectrum`` on a 2-uniform
    5-cycle with a chord, and the extremal suite at k = 5.  The timed ops
    use only k = 3 and 4."""
    path = workdir / "warmup.txt"
    _write_hypergraph(path, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    return [
        ("check", str(path), "--k", "2", "--format", "json"),
        ("spectrum", str(path), "--smax", "3", "--format", "json"),
        ("verify", "extremal", "--nover", "3", "--k", "5", "--format", "json"),
    ]


WORKLOADS = {"check_sweep": check_sweep, "suites": suites, "scale": scale}
