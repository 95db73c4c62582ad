"""Extremal Estrada ranking over the unicyclic catalog.

Among connected uniform hypergraphs with exactly one cycle, the Estrada
index is maximized by the two-edge ring with every pendant edge stacked
on one ring vertex; moving a single pendant to the other ring vertex
gives the runner-up.  This script enumerates the catalog, ranks it, and
replays the strict orderings that drive that conclusion.

Run with:  python demos/04_extremal_unicyclic.py
"""

from hypestra import (
    estrada_index,
    spectrum_of,
    unicyclic_catalog,
    verify_extremal,
    verify_ordering_lemmas,
)

# Catalog for order 12 at k=3 (n_over = n/(k-1) = 6): rings of every
# length with pendant edges on ring vertices and fillers, plus depth-2
# pendant chains.
entries = unicyclic_catalog(6, 3)
print(f"catalog size for n=12, k=3: {len(entries)} shapes")

# The packaged ranking sorts the catalog by Estrada index (ties, such as
# mirror-image shapes, by label) and also confirms uniqueness of the
# maximum, identity of the runner-up, and the diameter pattern (2 then 3).
report = verify_extremal(6, 3)
print("top five by Estrada index:")
for label, ee in report.ranking[:5]:
    print(f"  {label:22s} {ee:.6f}")
print("\nranking verdict:", "PASS" if report.passed else "FAIL")
print("maximum:", report.max_labels, "diameter", report.diameter_max)
print("runner-up:", report.second_labels, "diameter", report.diameter_second)
print("note:", report.scope_note)

# The strict orderings behind the ranking, swept over every
# parameterization fitting in 14 vertices.
print("\nstrict ordering sweeps (k=3, budget 14 vertices):")
for ordering in verify_ordering_lemmas(3, 14):
    verdict = "all strict" if ordering.all_strict else "FAILED"
    print(f"  {ordering.lemma_id:30s} {len(ordering.instances):3d} instance(s): {verdict}")

# One concrete chain, smallest order first: consolidating pendants onto
# a single ring vertex only ever increases the Estrada index.
from hypestra import unicyclic_cm

chain = [(2, 1), (3, 0)]
values = [
    (pair, estrada_index(spectrum_of(unicyclic_cm(3, list(pair))))) for pair in chain
]
print("\npendant shift on the two-edge ring (order 10):")
for pair, ee in values:
    print(f"  pendants {pair}: estrada {ee:.6f}")
