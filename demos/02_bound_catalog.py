"""Run the spectral bound catalog on named families and a random sweep.

Every checker evaluates both sides of one inequality and reports the
slack; `holds` must come back true on every uniform hypergraph.  The
README lists the catalog of bound identifiers with their statements.

Run with:  python demos/02_bound_catalog.py
"""

import math
import random

from hypestra import (
    check_all_bounds,
    complete_uniform,
    cycle,
    edgeless,
    fano_plane,
    random_uniform,
    unicyclic_cm,
)

instances = [
    ("edgeless on 5 vertices", edgeless(5), 3),
    ("single 3-edge", complete_uniform(3, 3), 3),
    ("two-edge ring", cycle(2, 3), 3),
    ("complete 3-uniform on 4", complete_uniform(4, 3), 3),
    ("ring with pendants", unicyclic_cm(3, [2, 1]), 3),
    ("balanced triple system", fano_plane(), 3),
]

for name, h, k in instances:
    print(f"== {name} (n={h.n}, m={h.m}, k={k})")
    for report in check_all_bounds(h, k):
        flag = "=" if report.equality else " "
        print(
            f"  {report.bound_id:26s} {report.lhs:14.6f} vs {report.rhs:14.6f} "
            f"slack={report.slack:12.6f}{flag} holds={report.holds}"
        )
    print()

# The edgeless row above is the only kind of input where the edge-count
# Estrada bounds are tight; every slack elsewhere is strictly positive.

# Seeded random sweep: one thousand instances like this back the test
# suite; ten are enough to see the shape of the slack distribution.
rng = random.Random(0)
print("== random sweep (seed 0)")
for index in range(10):
    k = rng.choice((2, 3, 4))
    n = rng.randint(max(3, k), 10)
    m = rng.randint(1, min(math.comb(n, k), 3 * n))
    h = random_uniform(n, k, m, rng)
    reports = check_all_bounds(h, k)
    tightest = min(reports, key=lambda r: r.slack)
    status = "ok" if all(r.holds for r in reports) else "FAILED"
    print(
        f"  instance {index}: n={h.n:2d} m={h.m:2d} k={k} -> {status}, "
        f"tightest {tightest.bound_id} (slack {tightest.slack:.6f})"
    )
