"""Tour of the core objects: hypergraphs, adjacency spectra, walk counts.

Run with:  python demos/01_spectra_and_walks.py
"""

import numpy as np

from hypestra import (
    Hypergraph,
    adjacency,
    closed_walk_counts,
    degrees,
    diameter,
    distinct_eigenvalues,
    energy,
    estrada_index,
    spectral_moment,
    spectrum_of,
    to_text,
    walk_count,
    walk_dominance,
    unicyclic_cm,
)

# A hypergraph is a vertex count plus a list of edges (vertex sets of
# size >= 2).  Edges are stored sorted, so equal hypergraphs print the
# same way.
h = Hypergraph(4, [{0, 1, 2}, {0, 1, 3}])
print("two-edge ring on 4 vertices:")
print(to_text(h))

# The adjacency matrix counts, for each vertex pair, how many edges
# contain both vertices.  Vertices 0 and 1 sit in both edges here.
print("adjacency matrix:")
print(adjacency(h))

# All spectrum statistics come from one eigenvalue solve; moments are
# exact traces of powers of the integer adjacency matrix.
spectrum = spectrum_of(h)
print("\neigenvalues (descending):", np.round(spectrum.eigenvalues, 6))
print("estrada index:", round(estrada_index(spectrum), 6))
print("energy:", round(energy(spectrum), 6))
print("second moment (= squared Frobenius norm):", spectral_moment(spectrum, 2))
print("distinct eigenvalues:", [(round(v, 6), m) for v, m in distinct_eigenvalues(spectrum)])

# Walk counts use exact integer matrix powers, so they stay correct at
# any magnitude: each step moves between two distinct vertices through
# any edge containing both.
print("\nwalks from 0 to 1 of length 1 (two shared edges):", walk_count(h, 0, 1, 1))
print("closed walks at vertex 0, lengths 1..6:", closed_walk_counts(h, 0, 6))
print("closed walks at vertex 2, lengths 1..6:", closed_walk_counts(h, 2, 6))

# Closed-walk dominance compares those count vectors: a pendant vertex
# is strictly dominated by the ring vertex it hangs from.
grown, labeling = unicyclic_cm(3, [1, 0])
pendant = [v for v in labeling.pendant_map[0][0] if v != 0][0]
print("\npendant-attached family:", to_text(grown).strip().replace("\n", " | "))
print("dominance(pendant vs ring vertex):", walk_dominance(grown, pendant, 0, 10))
print("dominance(symmetric filler pair):", walk_dominance(h, 2, 3, 10))

# Degrees and distances round out the structural toolkit.
print("\ndegrees:", degrees(grown).tolist())
print("diameter:", diameter(grown))
