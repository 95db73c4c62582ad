"""Per-layer times of ``check`` ops, in process, for one source tree or two.

Writes the inputs of ``perfbench/workloads.check_sweep(seed)`` into a
temporary directory and times each of its ``check`` ops layer by layer, the
way ``hypestra.cli.main`` runs them:

- ``parse``: the ``check`` parser's ``parse_known_args``;
- ``read``: ``read_file`` of the input;
- ``bounds``: ``check_all_bounds``, the bound catalog;
- ``render``: ``_render_bound_reports`` of its reports;
- ``op``: the whole ``main(argv)`` call, stdout captured.

Each layer's time for an op is its minimum over the rounds; the table
prints the mean of those minima over the ops, in microseconds, for the
tree this script is in.  With ``--against TREE`` a second source tree (a
checkout, or its ``src`` directory) is loaded beside it under another
package name, the trees take turns op by op (which goes first
alternates), and the table adds the second tree's column and the ratio
of the two.  The ``op`` row's ratio is the whole-op ratio.

    OPENBLAS_NUM_THREADS=1 taskset -c 1 python3 tools/op_split.py --rounds 20 --against ../parent

Needs only the standard library and numpy; from this repository it
imports ``perfbench/workloads.py`` and the trees it times.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("parse", "read", "bounds", "render", "op")


def load_cli(tree: Path, name: str):
    """``hypestra.cli`` of the tree, its package imported as ``name``."""
    package = tree / "src" / "hypestra"
    if not package.is_dir():
        package = tree / "hypestra"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def time_op(cli, argv) -> list[int]:
    """Nanoseconds of each layer of one ``check`` op, in ``LAYERS`` order."""
    parser = cli._parsers()[1][argv[0]]
    t0 = perf_counter_ns()
    args, _ = parser.parse_known_args(argv[1:])
    t1 = perf_counter_ns()
    h = cli.read_file(args.input)
    t2 = perf_counter_ns()
    reports = cli.th.check_all_bounds(h, args.k, t=args.t, variant=args.variant)
    t3 = perf_counter_ns()
    text = cli._render_bound_reports(reports, args.format)
    t4 = perf_counter_ns()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t5 = perf_counter_ns()
        code = cli.main(list(argv))
        t6 = perf_counter_ns()
    if code not in (0, 1) or out.getvalue() != text:
        raise RuntimeError(f"{' '.join(argv)}: the op and its layers disagree (exit {code})")
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5]


def split(clis, ops, rounds: int) -> list[list[float]]:
    """Per tree, the mean over ops of each layer's minimum over rounds, in µs."""
    best = [[[float("inf")] * len(LAYERS) for _ in ops] for _ in clis]
    for r in range(rounds):
        for i, argv in enumerate(ops):
            order = range(len(clis)) if (r + i) % 2 == 0 else reversed(range(len(clis)))
            for side in order:
                times = time_op(clis[side], argv)
                best[side][i] = list(map(min, best[side][i], times))
    return [[sum(column) / len(ops) / 1e3 for column in zip(*per_op)] for per_op in best]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5506, help="check_sweep seed")
    parser.add_argument("--ops", type=int, default=None, help="time only the first N ops")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--against", type=Path, default=None, help="a second tree to compare")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.ops is not None and args.ops < 1):
        parser.error("--rounds and --ops must be >= 1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    trees = [ROOT] + ([args.against] if args.against else [])
    clis = [load_cli(tree.resolve(), f"_op_split_tree{i}") for i, tree in enumerate(trees)]
    with tempfile.TemporaryDirectory() as workdir:
        ops = [op.argv for op in workloads.check_sweep(args.seed, Path(workdir))][: args.ops]
        for cli in clis:  # untimed, so first calls into numpy are not measured
            time_op(cli, ops[0])
        means = split(clis, ops, args.rounds)
    print(f"{len(ops)} check ops of check_sweep seed {args.seed}, minimum of {args.rounds} round(s)")
    head = f"{'layer':<8}{'tree µs':>10}"
    if len(clis) > 1:
        head += f"{'against µs':>12}{'ratio':>8}"
    print(head)
    for j, layer in enumerate(LAYERS):
        line = f"{layer:<8}{means[0][j]:>10.1f}"
        if len(clis) > 1:
            line += f"{means[1][j]:>12.1f}{means[0][j] / means[1][j]:>8.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
