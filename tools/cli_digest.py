"""Digest of hypestra's command line output over a fixed corpus.

Runs every call of the corpus through in-process ``hypestra.cli.main``,
against whichever ``hypestra`` is importable, and prints one line per call:
the SHA-256 of its stdout, stderr and exit code (or the exception that
escaped ``main``), two spaces, then its argv.
Two trees print the same lines exactly when their CLI output is
byte-identical over the corpus, so an output change shows up as a diff:

    PYTHONPATH=old/src python3 tools/cli_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

The corpus (5,481 calls, about 4 s on one core):

- ``check`` in text, JSON and CSV, with ``--t 2|3`` and ``--k`` at the
  true k and k +- 1, ``check --variant theta-plus-one`` at the true k,
  and ``spectrum --smax 8`` in every format, on 200 seeded random inputs
  (k in {2, 3, 4}, n <= 12, edgeless and complete ones among them) and
  on 3-uniform inputs at n = 24, 40 and 64 with m = 2n, and
  ``complement --k 3`` of those three (up to 41,536 edges);
- ``spectrum --smax 0|3|12`` in text and JSON on 16 of the random
  inputs and on text and JSON inputs of order 0 and 1: no walks, fewer
  walks than the 9 moments, and more walks than moments;
- ``check --format json`` with ``--t 8``, ``--t n`` and ``--variant
  theta-plus-one --t n`` on those of the inputs with n >= 9, so that 8
  or more eigenvalues are summed;
- ``check`` on n = 100, k = 51 inputs whose errors compete for the one
  line on stderr;
- ``check --format json`` on the complete 3-uniform hypergraphs of order
  7 to 16 and the complete 4-uniform ones of order 6 to 10, where the
  Estrada index dwarfs the ``ee-lower-spectral`` slack (order 16 exits on
  the Estrada sum past double precision), and ``spectrum`` and ``check``
  in text and CSV on the complete 3-uniform ones of order 8 to 10, whose
  values of 1e15 and more print without a decimal point;
- ``check`` (also with ``--t 1``), ``spectrum`` (also with ``--smax -1``
  in every format) and ``complement`` on a small input, on a file that
  is not UTF-8 and on a missing file;
- ``check`` and ``spectrum`` on JSON inputs whose n is 3.0, true, NaN or
  1e400, or whose vertex is 0.5, and ``verify bounds|orderings`` with
  ``--budget -1``;
- ``verify`` suites that would check nothing (``bounds --budget 0``, and
  ``orderings --budget -1|0|k`` at k = 3 and 4) beside ``orderings
  --budget k+1``, each suite given a flag of another suite, and a flag
  placed before the suite name;
- no arguments, ``-h``, an unknown command, a flag before the command,
  ``check -h``, and arguments left over after ``check``, ``gen`` and
  ``verify extremal``;
- ``check`` (JSON at k = 2, text at k = 3) and ``spectrum`` on files with
  CRLF or lone-CR line ends (a CRLF JSON file among them with a syntax
  error on line 4), with a UTF-8 byte order mark, with vertices written
  as ``1_0`` or in fullwidth or Arabic-Indic digits, with signed
  vertices under a non-ASCII comment, with ASCII control characters in
  data lines and in comments, and with tabs between vertices;
- ``verify orderings|extremal|bounds`` and ``enumerate`` on the acceptance
  grid, and ``verify bounds --variant theta-plus-one``, in every format;
- ``gen`` for every family head, for rings with a wrap-around edge and
  for the combinations builders at larger sizes, plus malformed labels.

Inputs are written with the standard library alone, into a temporary
directory that is the working directory during the calls, so argv and
messages name files by relative path only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import combinations

from hypestra import cli

FORMATS = ("text", "json", "csv")
THETA_PLUS_ONE = "theta-plus-one"


def write_input(name: str, n: int, edges) -> str:
    """Write n and the edges as JSON (.json names) or as text."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    with open(name, "w", encoding="utf-8") as fh:
        if name.endswith(".json"):
            fh.write(json.dumps({"n": n, "edges": [list(e) for e in edges]}) + "\n")
        else:
            fh.write(f"{n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges))
    return name


def random_inputs(rng: random.Random) -> list[tuple[str, int, int]]:
    """(file, n, k) for 200 small inputs (the edgeless and the complete one
    at n = k and k + 2 for each k, the rest seeded random), then the
    three large 3-uniform ones."""
    out = []
    for k in (2, 3, 4):
        for n in (k, k + 2):
            out.append((write_input(f"edgeless-{n}-{k}.txt", n, []), n, k))
            full = list(combinations(range(n), k))
            out.append((write_input(f"complete-{n}-{k}.json", n, full), n, k))
    for i in range(200 - len(out)):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k, 12)
        pool = list(combinations(range(n), k))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        out.append((write_input(f"r{i:03d}.{('txt', 'json')[i % 2]}", n, edges), n, k))
    for n in (24, 40, 64):
        edges = set()
        while len(edges) < 2 * n:
            edges.add(tuple(sorted(rng.sample(range(n), 3))))
        out.append((write_input(f"scale-{n}.txt", n, edges), n, 3))
    return out


def precedence_inputs(rng: random.Random) -> list[str]:
    """n = 100, k = 51 inputs with 15 random edges and with one edge: a
    bound's exp, the t range and the int64 complement pair count can each
    raise first."""
    many = set()
    while len(many) < 15:
        many.add(tuple(sorted(rng.sample(range(100), 51))))
    return [
        write_input("wide-15.txt", 100, many),
        write_input("wide-1.txt", 100, [tuple(range(51))]),
    ]


def tiny_inputs() -> list[str]:
    """Inputs of order 0 and 1, as text and as JSON."""
    return [write_input(f"order-{n}.{ext}", n, []) for n in (0, 1) for ext in ("txt", "json")]


def undecodable() -> str:
    """A text input whose bytes are not UTF-8."""
    with open("latin1.txt", "wb") as fh:
        fh.write("4\n0 1 2\n# caf\u00e9\n".encode("latin-1"))
    return "latin1.txt"


def non_integer_inputs() -> list[str]:
    """JSON inputs whose vertex count or a vertex is not an integer."""
    texts = {
        "n-float.json": '{"n": 3.0, "edges": [[0, 1]]}',
        "n-true.json": '{"n": true, "edges": [[0, 1]]}',
        "n-nan.json": '{"n": NaN, "edges": [[0, 1]]}',
        "n-huge.json": '{"n": 1e400, "edges": [[0, 1]]}',
        "vertex-float.json": '{"n": 3, "edges": [[0.5, 1]]}',
    }
    for name, text in texts.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return list(texts)


def raw_inputs() -> list[str]:
    """Inputs written byte for byte: CRLF and lone-CR line ends, a CRLF
    JSON file with a syntax error on line 4, a UTF-8 byte order mark,
    vertices written with digit separators or non-ASCII digits, a
    non-ASCII comment beside signed vertices, ASCII control characters
    in data lines and in comments, and tabs between vertices."""
    raw = {
        "crlf.txt": "4\r\n0 1 2\r\n# note\r\n0 1 3\r\n",
        "cr.txt": "4\r0 1 2\r\r0 1 3\r",
        "crlf.json": '{\r\n  "n": 4,\r\n  "edges": [[0, 1, 2],\r\n  ]\r\n}\r\n',
        "crlf-ok.json": '{"n": 4,\r\n"edges": [[0, 1, 2], [0, 1, 3]]}\r\n',
        "bom.txt": "\ufeff4\n0 1 2\n",
        "bom.json": '\ufeff{"n": 4, "edges": [[0, 1, 2]]}\n',
        "underscore.txt": "12\n0 1_0\n",
        "underscore-n.txt": "1_2\n0 1\n",
        "fullwidth.txt": "4\n0 \uff13\n",
        "arabic-indic.txt": "4\n0 \u0663\n",
        "signed.txt": "4\n# caf\u00e9 \uff13\n+0 1 +2\n-0 1 3\n",
        "unit-separator.txt": "4\n0\x1f1 2\n",
        "form-feed.txt": "4\n0 1 2\x0c\n0 1 3\n",
        "form-feed-comment.txt": "4\n# a\x0c0 1 2\n0 1 3\n",
        "form-feed-then-error.txt": "4\n# a\x0c b\n0 x 3\n",
        "vertical-tab.txt": "4\n\x0b0 1 2\n",
        "tabs.txt": "4\n\t0\t1 2\n0 1\t3 \n",
    }
    for name, text in raw.items():
        with open(name, "wb") as fh:
            fh.write(text.encode("utf-8"))
    return list(raw)


def corpus(rng: random.Random) -> list[list[str]]:
    calls = []
    inputs = random_inputs(rng)
    for path, n, k in inputs:
        for kk in (k, k - 1, k + 1):
            for t in ("2", "3"):
                for fmt in FORMATS:
                    calls.append(["check", path, "--k", str(kk), "--t", t, "--format", fmt])
        for fmt in FORMATS:
            variant = ["--variant", THETA_PLUS_ONE, "--format", fmt]
            calls.append(["check", path, "--k", str(k), *variant])
            calls.append(["spectrum", path, "--smax", "8", "--format", fmt])
        if n >= 9:
            # 8 or more eigenvalues summed, where numpy's pairwise sum and a
            # left-to-right sum give different bits
            for t in ("8", str(n)):
                calls.append(["check", path, "--k", str(k), "--t", t, "--format", "json"])
            variant = ["--variant", THETA_PLUS_ONE, "--format", "json"]
            calls.append(["check", path, "--k", str(k), "--t", str(n), *variant])
    # no walks, fewer walks than the 9 moments, and more walks than moments
    for path in [path for path, _, _ in inputs[:16]] + tiny_inputs():
        for smax in ("0", "3", "12"):
            for fmt in ("text", "json"):
                calls.append(["spectrum", path, "--smax", smax, "--format", fmt])
    for n in (24, 40, 64):
        calls.append(["complement", f"scale-{n}.txt", "--k", "3"])
    for k, orders in ((3, range(7, 17)), (4, range(6, 11))):
        for n in orders:
            path = write_input(f"full-{n}-{k}.json", n, combinations(range(n), k))
            calls.append(["check", path, "--k", str(k), "--format", "json"])
            if k == 3 and 8 <= n <= 10:
                # values of 1e15 and more in text and CSV
                for fmt in ("text", "csv"):
                    calls.append(["spectrum", path, "--format", fmt])
                    calls.append(["check", path, "--k", "3", "--format", fmt])
    for path in precedence_inputs(rng):
        calls.append(["check", path, "--k", "51", "--format", "json"])
        calls.append(["check", path, "--k", "51", "--t", "150"])
    for path in (write_input("small.txt", 4, [(0, 1, 2), (0, 1, 3)]), undecodable(), "missing.txt"):
        calls.append(["check", path, "--k", "3", "--t", "1"])
        calls.append(["check", path, "--k", "3"])
        calls.append(["spectrum", path, "--smax", "-1"])
        for fmt in ("json", "csv"):
            calls.append(["spectrum", path, "--smax", "-1", "--format", fmt])
        calls.append(["spectrum", path])
        calls.append(["complement", path, "--k", "3"])
    for path in non_integer_inputs():
        calls.append(["check", path, "--k", "2", "--format", "json"])
        calls.append(["spectrum", path])
    for path in raw_inputs():
        calls.append(["check", path, "--k", "2", "--format", "json"])
        calls.append(["check", path, "--k", "3"])
        calls.append(["spectrum", path])
    for suite in ("bounds", "orderings"):
        calls.append(["verify", suite, "--budget", "-1"])
    # suites that would check nothing
    calls.append(["verify", "bounds", "--budget", "0"])
    for k in ("3", "4"):
        for budget in ("-1", "0", k, str(int(k) + 1)):
            calls.append(["verify", "orderings", "--k", k, "--budget", budget])
    # each suite with a flag of another suite, and a flag before the suite
    foreign = {
        "extremal": ("--budget", "--seed", "--variant"),
        "orderings": ("--nover", "--seed", "--variant"),
        "bounds": ("--nover",),
    }
    for suite, flags in foreign.items():
        for flag in flags:
            calls.append(["verify", suite, flag, THETA_PLUS_ONE if flag == "--variant" else "3"])
    calls.append(["verify", "--k", "3", "orderings"])
    # argv that is no command name, a command's help, and arguments a command leaves over
    calls += [[], ["-h"], ["frobnicate"], ["--k", "3", "check"], ["check", "-h"]]
    calls.append(["check", "small.txt", "--k", "3", "--bogus", "x"])
    calls.append(["gen", "fano", "extra"])
    calls.append(["verify", "extremal", "extra", "--bogus"])
    for fmt in FORMATS:
        for k in (3, 4):
            calls.append(["verify", "orderings", "--k", str(k), "--budget", "16", "--format", fmt])
        for k, n_overs in ((3, (3, 4, 5, 6)), (4, (3, 4))):
            for n_over in n_overs:
                nover = ["--nover", str(n_over), "--k", str(k), "--format", fmt]
                calls.append(["verify", "extremal", *nover])
                calls.append(["enumerate", *nover])
        for k in (2, 3, 4):
            for seed in ("0", "1"):
                calls.append(
                    ["verify", "bounds", "--k", str(k), "--budget", "20", "--seed", seed, "--format", fmt]
                )
            variant = ["--variant", THETA_PLUS_ONE, "--format", fmt]
            calls.append(["verify", "bounds", "--k", str(k), "--budget", "20", *variant])
    labels = [
        "complete:6,3", "edgeless:5", "cycle:3,3", "xn:8,3", "star:3,4", "p3:4",
        "gss:3", "fano", "cm:3:2,1,0", "cm:4:1,0",
        "cycle:5,4", "cm:4:0,2,1", "xn:12,4", "gss:5", "complete:9,4",
        # malformed or rejected labels
        "cycle:2,2", "complete:4,x", "fano:x", "cm:3", "cm:x:1,2", "cm:3:1",
        "cmx:3:2:0,0,1", "nope:1", "star:3", "",
    ]
    calls += [["gen", label] for label in labels]
    return calls


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome to compare too
            code = f"{type(exc).__name__}: {exc}"
    payload = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(payload.encode()).hexdigest()


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal's width
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in corpus(random.Random(20261018)):
                sys.stdout.write(f"{digest(argv)}  {' '.join(argv)}\n")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
