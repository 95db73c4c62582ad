import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hypestra import (
    Hypergraph,
    complete_uniform,
    cycle,
    edgeless,
    fano_plane,
    g_star_star,
    hyperstar,
    path_p3,
    unicyclic_cm,
)


def family_fixtures() -> list[tuple[str, Hypergraph, int]]:
    """The (name, hypergraph, k) triples exercised across the suite."""
    return [
        ("single-edge-k3", complete_uniform(3, 3), 3),
        ("edgeless-5", edgeless(5), 3),
        ("cycle-2-3", cycle(2, 3), 3),
        ("cycle-3-3", cycle(3, 3), 3),
        ("complete-4-3", complete_uniform(4, 3), 3),
        ("complete-5-3", complete_uniform(5, 3), 3),
        ("x6", unicyclic_cm(3, [1, 0]), 3),
        ("c2-2-0", unicyclic_cm(3, [2, 0]), 3),
        ("c2-1-1", unicyclic_cm(3, [1, 1]), 3),
        ("c2-3-1", unicyclic_cm(3, [3, 1]), 3),
        ("c3-2-1-0", unicyclic_cm(3, [2, 1, 0]), 3),
        ("gss-3", g_star_star(3), 3),
        ("p3-3", path_p3(3), 3),
        ("star-3-2", hyperstar(3, 2), 3),
        ("fano", fano_plane(), 3),
        ("cycle-2-4", cycle(2, 4), 4),
        ("star-4-2", hyperstar(4, 2), 4),
        ("path-graph-4", Hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 2),
        ("cycle-5-2", cycle(5, 2), 2),
        ("star-2-3", hyperstar(2, 3), 2),
    ]


@pytest.fixture(scope="session")
def fixtures():
    return family_fixtures()


@pytest.fixture(scope="session")
def small_fixtures():
    """Fixtures small enough for exhaustive walk enumeration."""
    return [(name, h, k) for name, h, k in family_fixtures() if h.n <= 8]
