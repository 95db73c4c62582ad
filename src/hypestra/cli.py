"""Command line surface: generate families, compute spectra, run checks.

Every output format is written here: floats to 12 significant digits,
RFC 4180 CSV cells, and JSON as ``json.dumps`` writes it with an indent
of 2.

Exit codes: 0 when every requested check holds, 1 when a check fails,
2 on input errors (bad grammar, malformed files, invalid parameters).
Output is deterministic byte-for-byte for a fixed command line and seed
on the same machine and numpy/BLAS build.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from json.encoder import encode_basestring_ascii
from math import comb, isfinite

import numpy as np

from . import families as fam
from . import theorems as th
from .hypercore import (
    Hypergraph,
    HypergraphError,
    complement_uniform,
    read_file,
    to_json,
    to_text,
    write_file,
)
from .spectral import (
    _compare,
    _walk_diagonals,
    distinct_eigenvalues,
    energy,
    estrada_index,
    negative_count,
    spectra_of,
    spectrum_of,
)

_INPUT_ERRORS = (HypergraphError, fam.FamilyGrammarError, OverflowError, OSError)


def _json_float(x: float) -> str:
    if isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


#: the json module's text for each scalar type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
#: the types json writes, in the order its encoder tests them
_JSON_BASES = (str, type(None), bool, int, float, list, tuple, dict)


def _json_text(payload) -> str:
    """What ``json.dumps`` writes with an indent of 2, then a newline.

    Python's C encoder takes no indent, so ``json.dumps`` would run its
    pure-Python encoder, which resumes a generator for every token; this
    writer joins each container's rendered items in one call instead.
    Dict keys must be strings; any other key raises ``TypeError``.
    """
    return _json_value(payload, "\n") + "\n"


def _json_value(x, newline: str) -> str:
    """One value; ``newline`` is the line break and padding of its depth."""
    kind = type(x)
    if kind is not dict and kind is not list:
        # a scalar, a tuple or a subclass (numpy's float64, say) is written
        # as the first of json's types it is an instance of
        kind = next((t for t in _JSON_BASES if isinstance(x, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        render = _JSON_SCALARS.get(kind)
        if render is not None:
            return render(x)
    if not x:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    scalar = _JSON_SCALARS.get
    items = []
    if kind is dict:
        for k, v in x.items():
            render = scalar(type(v))
            value = render(v) if render is not None else _json_value(v, inner)
            items.append(encode_basestring_ascii(k) + ": " + value)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for v in x:
        render = scalar(type(v))
        items.append(render(v) if render is not None else _json_value(v, inner))
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _rounded(x: float) -> float:
    """x rounded to 12 significant digits, as every output reports it."""
    return float(f"{x:.12g}")


def format_float(x: float) -> str:
    """Render with 12 significant digits, locale independent.

    The integer test runs on the value rounded to those 12 digits, so a
    float one ulp off an integer prints as that integer, with no decimal
    point at any size.
    """
    rounded = _rounded(x)
    if rounded.is_integer():
        return np.format_float_positional(
            rounded, precision=12, unique=False, fractional=False, trim="-"
        )
    return np.format_float_positional(x, precision=12, unique=False, fractional=False)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row of cells: None as an empty
    cell, bools in lower case, floats through ``format_float``, and a cell
    holding a comma, a double quote or a line break quoted with its quotes
    doubled (RFC 4180)."""
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


#: the columns of a bound report, in ``_bound_cells`` order
_BOUND_CSV_HEADER = "bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"


def _bound_cells(r: th.BoundReport) -> list:
    inputs = (r.inputs.get(key) for key in "nmkt")
    return [r.bound_id, *inputs, r.lhs, r.rhs, r.slack, r.holds, r.equality]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_hypergraph(h: Hypergraph, out: str | None) -> None:
    if out:
        write_file(h, out)
    else:
        sys.stdout.write(to_text(h))


def cmd_gen(args) -> int:
    h = fam.build_family(args.family)
    _write_hypergraph(h, args.out)
    return 0


def cmd_spectrum(args) -> int:
    h = read_file(args.input)
    if args.smax < 0:
        raise HypergraphError(f"s_max must be >= 0, got {args.smax}")
    spectrum = spectrum_of(h)
    # solver-noise zeros are reported as exact zeros
    fro = spectrum.frobenius_norm
    eigenvalues = [0.0 if _compare(v, 0.0, fro) == 0 else v for v in spectrum.eigenvalues.tolist()]
    if args.format == "csv":
        _emit(csv_text("eigenvalue", ([v] for v in eigenvalues)), args.out)
        return 0
    # moments 0..8 and the closed walks of lengths 1..smax from one exact pass
    diagonals = _walk_diagonals(spectrum.matrix, max(8, args.smax))
    walks = [list(row) for row in zip(*diagonals[: args.smax])]
    summary = {
        "n": h.n,
        "lambda1": _rounded(spectrum.lambda1),
        "estrada": _rounded(estrada_index(spectrum)),
        "energy": _rounded(energy(spectrum)),
        "negative_count": negative_count(spectrum),
        "distinct_count": len(distinct_eigenvalues(spectrum)),
        "moments": [h.n, *map(sum, diagonals[:8])],
        "eigenvalues": [_rounded(v) for v in eigenvalues],
        "m": h.m,
    }
    if args.smax:
        summary["closed_walks"] = {str(u): row for u, row in enumerate(walks)}
    if args.format == "json":
        _emit(_json_text(summary), args.out)
        return 0
    lines = [f"n {h.n}", f"m {h.m}"]
    lines += [f"eigenvalue {format_float(v)}" for v in summary["eigenvalues"]]
    for key in ("lambda1", "estrada", "energy"):
        lines.append(f"{key} {format_float(summary[key])}")
    lines.append(f"negative_count {summary['negative_count']}")
    lines.append(f"distinct_count {summary['distinct_count']}")
    lines += [f"moment {t} {v}" for t, v in enumerate(summary["moments"])]
    for u, counts in enumerate(walks):
        lines.append(f"closed_walks {u} {' '.join(map(str, counts))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _json_inputs(inputs: dict) -> str:
    """``_json_value`` of a bound report's inputs, from one fixed layout when
    they are n, m, k and t, in that order."""
    if tuple(inputs) != ("n", "m", "k", "t"):
        return _json_value(inputs, "\n    ")
    (n, m, k, t), w = inputs.values(), _JSON_SCALARS
    return (
        f'{{\n      "n": {w[type(n)](n)},\n      "m": {w[type(m)](m)},'
        f'\n      "k": {w[type(k)](k)},\n      "t": {w[type(t)](t)}\n    }}'
    )


def _render_bound_reports(reports, fmt: str) -> str:
    if fmt == "json":
        # _json_text([vars(r) for r in reports]) from one layout in BoundReport's field order: each
        # scalar as the writer's table writes its field's type, the two dicts at their depth
        text, real = _JSON_SCALARS[str], _JSON_SCALARS[float]
        nested = "\n    "
        items = ",\n  ".join([
            f'{{\n    "bound_id": {text(r.bound_id)},\n    "lhs": {real(r.lhs)},'
            f'\n    "rhs": {real(r.rhs)},\n    "slack": {real(r.slack)},'
            f'\n    "holds": {"true" if r.holds else "false"},'
            f'\n    "equality": {"true" if r.equality else "false"},'
            f'\n    "inputs": {_json_inputs(r.inputs)},'
            f'\n    "extra": {_json_value(r.extra, nested)}\n  }}'
            for r in reports
        ])
        return "[\n  " + items + "\n]\n" if items else "[]\n"
    if fmt == "csv":
        return csv_text(_BOUND_CSV_HEADER, map(_bound_cells, reports))
    lines = []
    for r in reports:
        lines.append(
            f"{r.bound_id} holds={str(r.holds).lower()} equality={str(r.equality).lower()} "
            f"lhs={format_float(r.lhs)} rhs={format_float(r.rhs)} slack={format_float(r.slack)}"
        )
    failed = sum(not r.holds for r in reports)
    lines.append(
        "all bounds hold" if failed == 0 else f"{failed} bound check(s) FAILED"
    )
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    h = read_file(args.input)
    reports = th.check_all_bounds(h, args.k, t=args.t, variant=args.variant)
    _emit(_render_bound_reports(reports, args.format), args.out)
    return 0 if all(r.holds for r in reports) else 1


def cmd_complement(args) -> int:
    h = read_file(args.input)
    _write_hypergraph(complement_uniform(h, args.k), args.out)
    return 0


def cmd_enumerate(args) -> int:
    entries = fam.unicyclic_catalog(args.nover, args.k)
    spectra = spectra_of(e.hypergraph for e in entries)
    scored = [
        (e.label, e.hypergraph, estrada_index(spectrum))
        for e, spectrum in zip(entries, spectra)
    ]
    if args.format == "json":
        payload = [
            {
                "label": label,
                "n": h.n,
                "m": h.m,
                "estrada": _rounded(ee),
                "edges": [list(edge) for edge in h.edges],
            }
            for label, h, ee in scored
        ]
        _emit(_json_text(payload), args.out)
        return 0
    if args.format == "csv":
        rows = ((label, h.n, h.m, ee) for label, h, ee in scored)
        _emit(csv_text("label,n,m,estrada", rows), args.out)
        return 0
    lines = [
        f"{label} n={h.n} m={h.m} estrada={format_float(ee)}" for label, h, ee in scored
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify_extremal(args) -> tuple[str, bool]:
    report = th.verify_extremal(args.nover, args.k)
    if args.format == "json":
        return _json_text(vars(report)), report.passed
    if args.format == "csv":
        return csv_text("label,estrada", report.ranking), report.passed
    lines = [f"extremal ranking for n_over={report.n_over} k={report.k} (n={report.n})"]
    lines += [
        f"  {label} estrada={format_float(ee)}" for label, ee in report.ranking
    ]
    lines.append(f"max: {', '.join(report.max_labels)} (expected {report.expected_max_label})")
    lines.append(
        f"second: {', '.join(report.second_labels)} (expected {report.expected_second_label})"
    )
    lines.append(f"diameters: max={report.diameter_max} second={report.diameter_second}")
    lines.append(f"note: {report.scope_note}")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines) + "\n", report.passed


#: the JSON keys and CSV columns of an ordering instance, in output order
_INSTANCE_FIELDS = ("left", "right", "ee_left", "ee_right", "gap", "strict_holds")


def _verify_orderings(args) -> tuple[str, bool]:
    reports = th.verify_ordering_lemmas(args.k, args.budget)
    ok = all(r.all_strict for r in reports)
    if args.format == "json":
        payload = [
            {
                "lemma_id": r.lemma_id,
                "all_strict": r.all_strict,
                "instances": [{f: getattr(i, f) for f in _INSTANCE_FIELDS} for i in r.instances],
            }
            for r in reports
        ]
        return _json_text(payload), ok
    if args.format == "csv":
        rows = (
            [r.lemma_id, *(getattr(i, f) for f in _INSTANCE_FIELDS)]
            for r in reports
            for i in r.instances
        )
        return csv_text("lemma_id," + ",".join(_INSTANCE_FIELDS), rows), ok
    lines = []
    for r in reports:
        lines.append(
            f"{r.lemma_id}: {len(r.instances)} instance(s), "
            + ("all strict" if r.all_strict else "STRICTNESS FAILED")
        )
        for inst in r.instances:
            if not inst.strict_holds:
                lines.append(
                    f"  FAILED {inst.left} -> {inst.right}: "
                    f"{format_float(inst.ee_left)} vs {format_float(inst.ee_right)}"
                )
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", ok


def _verify_bounds(args) -> tuple[str, bool]:
    rng = random.Random(args.seed)
    k = args.k
    # instances have at most 12 vertices
    if not 2 <= k <= 12:
        raise HypergraphError(f"need 2 <= k <= 12, got k={k}")
    count = args.budget
    if count < 1:
        raise HypergraphError(f"need budget >= 1, got budget={count}")
    failures = []
    for index in range(count):
        n = rng.randint(max(k, 3), 12)
        m = rng.randint(1, min(comb(n, k), 3 * n))
        h = fam.random_uniform(n, k, m, rng)
        for r in th.check_all_bounds(h, k, variant=args.variant):
            if not r.holds:
                failures.append((index, h, r))
    ok = not failures
    if args.format == "json":
        failed = [
            {"instance": i, "hypergraph": json.loads(to_json(h)), "report": vars(r)}
            for i, h, r in failures
        ]
        payload = {"k": k, "seed": args.seed, "checked": count, "passed": ok, "failures": failed}
        return _json_text(payload), ok
    if args.format == "csv":
        rows = ([index, *_bound_cells(r)] for index, _, r in failures)
        return csv_text("instance," + _BOUND_CSV_HEADER, rows), ok
    lines = [f"checked {count} random {k}-uniform hypergraph(s), seed={args.seed}"]
    for index, h, r in failures:
        lines.append(f"FAILED instance {index}: {r.bound_id} on {to_json(h)}")
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", ok


def cmd_verify(args) -> int:
    text, ok = args.suite(args)
    _emit(text, args.out)
    return 0 if ok else 1


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and each command's own parser by name,
    built once per process."""
    parser = argparse.ArgumentParser(
        prog="hypestra",
        description="k-uniform hypergraph spectra, Estrada index and bound checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = dict(default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("gen", help="generate a named family")
    p.add_argument("family", help="family description, e.g. cm:3:4,0 or fano")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", help="eigenvalues and spectrum statistics")
    p.add_argument("input", help="hypergraph file (.json or text)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--smax", type=int, default=0, help="also report closed walk counts up to this length")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="run the bound catalog on a hypergraph")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True, help="uniformity of the hypergraph")
    p.add_argument("--t", type=int, default=2, help="how many leading eigenvalues to sum")
    p.add_argument("--variant", choices=th.VARIANTS, default=th.AS_WRITTEN)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_check)

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(required=True)
    extremal = suites.add_parser("extremal", help="rank the unicyclic catalog by Estrada index")
    extremal.add_argument("--nover", type=int, default=4, help="order divided by k-1")
    orderings = suites.add_parser("orderings", help="check the strict Estrada orderings")
    orderings.add_argument("--budget", type=int, default=14, help="most vertices an instance may have")
    bounds = suites.add_parser("bounds", help="run the bound catalog on seeded random hypergraphs")
    bounds.add_argument("--budget", type=int, default=14, help="how many random instances to check")
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--variant", choices=th.VARIANTS, default=th.AS_WRITTEN)
    for p, suite in ((extremal, _verify_extremal), (orderings, _verify_orderings), (bounds, _verify_bounds)):
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", **common_out)
        p.set_defaults(func=cmd_verify, suite=suite)

    p = sub.add_parser("enumerate", help="list the unicyclic catalog")
    p.add_argument("--nover", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("complement", help="k-uniform complement of a hypergraph")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", **common_out)
    p.set_defaults(func=cmd_complement)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    return _parsers()[0]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        flag = argv[1] if argv[0] == "verify" and len(argv) > 1 else ""
        if flag.startswith("-") and flag != "-h" and not "--help".startswith(flag):
            # argparse would misread the word after such a flag as the suite name
            command.error(f"{flag} comes before the suite name; suite flags go after it")
        # the command's own parser reads what the top-level parser would hand it
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
