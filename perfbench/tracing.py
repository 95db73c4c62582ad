"""Per-layer tracing of hypestra from outside the library.

``Tracer.install()`` replaces every public function of the five library
modules (``hypercore``, ``families``, ``spectral``, ``theorems``, ``cli``)
with a timing wrapper, in the defining module and at every site that
imported the function by name, and ``uninstall()`` puts the originals back.
The library source is not touched.

A wrapper records one span per call: name, start, end, parent span and op
id.  Spans stay in memory until ``write_jsonl``.  A span's self time is its
duration minus the durations of its direct children; a layer's time is the
sum of the self times of the functions mapped to it.  Every wrapped
function belongs to a reported layer (a public function that no layer
names falls into ``lib.other``), so the layers add up to the time spent
inside library calls.  Counts (eigensolves, n cubed, walk multiplications, ...)
are computed from call arguments and results at the same boundaries.

Generator functions are not wrapped: a call only creates the generator, and
the work happens in the consumer, whose span the time then belongs to.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("hypercore", "families", "spectral", "theorems", "cli")

#: layer name -> functions whose self time it sums; public functions not
#: listed fall into their module's layer in MODULE_LAYERS, or "lib.other"
LAYERS = {
    "spectral.eigensolve": ("spectral.spectrum_of", "spectral.eigendecompose", "spectral.jacobi_eigh"),
    "spectral.adjacency": ("spectral.adjacency", "spectral.adjacency_int"),
    "spectral.walks": (
        "spectral.closed_walk_counts",
        "spectral.walk_count",
        "spectral.walk_dominance",
        "spectral.trace_power",
    ),
    "spectral.stats": (
        "spectral.spectral_moment",
        "spectral.estrada_index",
        "spectral.energy",
        "spectral.negative_count",
        "spectral.positive_count",
        "spectral.distinct_eigenvalues",
        "spectral.summarize",
    ),
    "hypercore.parse": (
        "hypercore.read_file",
        "hypercore.from_text",
        "hypercore.from_json",
        "hypercore.write_file",
        "hypercore.to_text",
        "hypercore.to_json",
    ),
    "hypercore.complement": ("hypercore.complement_uniform",),
    "spectral.render": (
        "spectral.summary_to_dict",
        "spectral.spectrum_to_csv",
        "spectral.format_float",
    ),
    "theorems.bounds": (
        "theorems.check_all_bounds",
        "theorems.check_sum_t_largest_matrix",
        "theorems.check_sum_t_largest_hypergraph",
        "theorems.check_moment2_bounds",
        "theorems.check_ee_lower_spectral",
        "theorems.check_ee_lower_edges",
        "theorems.check_ee_upper_edges",
        "theorems.check_ee_upper_energy",
        "theorems.check_nordhaus_gaddum",
        "theorems.classify_two_eigenvalue",
    ),
    "theorems.suites": (
        "theorems.verify_ordering_lemmas",
        "theorems.verify_extremal",
        "theorems.ring_reduction",
    ),
    "theorems.render": (
        "theorems.bound_report_to_dict",
        "theorems.bound_reports_to_csv",
        "theorems.ordering_report_to_dict",
        "theorems.ordering_reports_to_csv",
        "theorems.extremal_report_to_dict",
    ),
}
#: modules whose unlisted functions all belong to one layer: hypercore's
#: are structure queries and edits (degrees, distances, diameter, shrink,
#: coalesce, edge swaps)
MODULE_LAYERS = {
    "hypercore": "hypercore.structure",
    "families": "families.build",
    "cli": "cli.self",
}

#: per-layer metrics reported, in order; BENCHMARK.json lists the same names
TIME_METRICS = (
    "spectral.eigensolve_s",
    "spectral.adjacency_s",
    "spectral.walks_s",
    "spectral.stats_s",
    "spectral.render_s",
    "hypercore.parse_s",
    "hypercore.complement_s",
    "hypercore.structure_s",
    "families.build_s",
    "theorems.bounds_s",
    "theorems.suites_s",
    "theorems.render_s",
    "cli.self_s",
    "lib.other_s",
)
COUNT_METRICS = (
    "spectral.eigensolve_calls",
    "spectral.eigensolve_n3",
    "spectral.eigensolve_distinct_frac",
    "spectral.adjacency_calls",
    "spectral.adjacency_useful_frac",
    "spectral.walk_int_mults",
    "hypercore.complement_edges",
    "families.catalog_entries",
    "theorems.reports",
)


def _layer_of(name: str) -> str:
    for layer, names in LAYERS.items():
        if name in names:
            return layer
    return MODULE_LAYERS.get(name.split(".", 1)[0], "lib.other")


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _matrix_order_and_digest(matrix) -> tuple[int, bytes]:
    a = np.ascontiguousarray(getattr(matrix, "entries", matrix), dtype=float)
    digest = hashlib.blake2b(a.tobytes(), digest_size=16)
    digest.update(repr(a.shape).encode())
    return a.shape[0], digest.digest()


def _power_matmuls(s: int) -> int:
    """Matrix products binary exponentiation spends on a**s."""
    return bin(s).count("1") + max(s.bit_length() - 1, 0)


def _hypergraph_key(h) -> int:
    return hash((h.n, h.edges))


# name -> (group, counter); counter(args, kwargs, result) -> dict of counts.
# Only the outermost call of a group counts, so a solve that goes through
# both eigendecompose and jacobi_eigh is one eigensolve.
def _eigensolve(args, kwargs, result):
    order, digest = _matrix_order_and_digest(_arg(args, kwargs, 0, "matrix"))
    return {"eigensolve_calls": 1, "eigensolve_n3": order**3, "matrix": digest}


def _adjacency(args, kwargs, result):
    return {"adjacency_calls": 1, "hypergraph": _hypergraph_key(_arg(args, kwargs, 0, "h"))}


def _walk_mults(n: int, matmuls: int) -> dict:
    return {"walk_int_mults": n**3 * matmuls}


COUNTERS = {
    "spectral.eigendecompose": ("eigensolve", _eigensolve),
    "spectral.jacobi_eigh": ("eigensolve", _eigensolve),
    "spectral.adjacency": ("adjacency", _adjacency),
    "spectral.adjacency_int": ("adjacency", _adjacency),
    "spectral.closed_walk_counts": (
        "walks",
        lambda a, k, r: _walk_mults(_arg(a, k, 0, "h").n, _arg(a, k, 2, "s_max")),
    ),
    "spectral.walk_dominance": (
        "walks",
        lambda a, k, r: _walk_mults(_arg(a, k, 0, "h").n, _arg(a, k, 3, "s_max")),
    ),
    "spectral.walk_count": (
        "walks",
        lambda a, k, r: _walk_mults(_arg(a, k, 0, "h").n, _power_matmuls(_arg(a, k, 3, "s"))),
    ),
    "spectral.trace_power": (
        "walks",
        lambda a, k, r: _walk_mults(
            len(_arg(a, k, 0, "matrix")), _power_matmuls(_arg(a, k, 1, "t"))
        ),
    ),
    "hypercore.complement_uniform": ("complement", lambda a, k, r: {"complement_edges": r.m}),
    "families.unicyclic_catalog": ("catalog", lambda a, k, r: {"catalog_entries": len(r)}),
    "theorems.check_all_bounds": ("reports", lambda a, k, r: {"reports": len(r)}),
}


class Tracer:
    """Span recorder for one traced stretch of a benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[int, dict] = {}  # span id -> counter output
        self.op = None
        self._stack: list[tuple[int, str | None]] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    def _wrap(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        counter = COUNTERS.get(name)
        group = counter[0] if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append((sid, group))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent[0] if parent else None, self.op))
            if counter and not any(g == group for _, g in stack):
                counts[sid] = counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = sys.modules["hypestra"]
        modules = [package] + [sys.modules[f"hypestra.{m}"] for m in MODULES]
        for short in MODULES:
            module = sys.modules[f"hypestra.{short}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for site in modules:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, site_attr, wrapper)
                            self._patched.append((site, site_attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        """Forget recorded spans (between passes); ids restart at 0."""
        self.spans.clear()
        self.counts.clear()
        self._ids = itertools.count()

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and counts over the spans recorded."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layer_time: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            layer_time[_layer_of(name)] += (end - start) - child_time[sid]
        totals: dict[str, float] = defaultdict(float)
        matrices, hypergraphs = set(), set()
        for found in self.counts.values():
            for key, value in found.items():
                if key == "matrix":
                    matrices.add(value)
                elif key == "hypergraph":
                    hypergraphs.add(value)
                else:
                    totals[key] += value
        out = {name: layer_time[name[: -len("_s")]] for name in TIME_METRICS}
        solves = totals["eigensolve_calls"]
        builds = totals["adjacency_calls"]
        out.update(
            {
                "spectral.eigensolve_calls": solves,
                "spectral.eigensolve_n3": totals["eigensolve_n3"],
                "spectral.eigensolve_distinct_frac": len(matrices) / solves if solves else 0.0,
                "spectral.adjacency_calls": builds,
                "spectral.adjacency_useful_frac": len(hypergraphs) / builds if builds else 0.0,
                "spectral.walk_int_mults": totals["walk_int_mults"],
                "hypercore.complement_edges": totals["complement_edges"],
                "families.catalog_entries": totals["catalog_entries"],
                "theorems.reports": totals["reports"],
            }
        )
        return out

    def write_jsonl(self, path, pass_index: int) -> None:
        """Append the recorded spans, times relative to tracer creation."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "span": sid,
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
