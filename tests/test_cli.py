import argparse
import csv
import dataclasses
import io
import json
import math
import random
import re
import sys
from itertools import combinations

import numpy as np
import pytest

from hypestra import (
    Hypergraph,
    adjacency,
    build_family,
    cli,
    closed_walk_table,
    estrada_index,
    from_text,
    spectrum_of,
    to_text,
    trace_power,
    unicyclic_cm,
)
from hypestra.theorems import BoundReport, check_all_bounds, verify_extremal

from conftest import criterion_3_sample, family_fixtures
from oracles import jacobi_eigh


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cm:3:4,0")
        assert code == 0
        h = from_text(out)
        assert h.n == 12
        assert h.m == 6

    def test_gen_fano_file(self, capsys, tmp_path):
        path = tmp_path / "fano.json"
        code, _, _ = run(capsys, "gen", "fano", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 7
        assert len(payload["edges"]) == 7

    def test_gen_bad_family_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "cycle:2,2")
        assert code == 2
        assert "duplicate edge" in err

    def test_gen_grammar_error_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "complete:4,x")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "family,message",
        [
            ("fano:x", "fano takes no parameters"),
            ("cm:3", "cm:3: expected cm:k:n1,n2,..."),
            ("cm:x:1,2", "cm:x:1,2: expected an integer at position 1, got 'x'"),
            ("xn:7,3", "order 7 is not a multiple of k-1 = 2"),
        ],
    )
    def test_gen_errors_exit_2(self, capsys, family, message):
        code, out, err = run(capsys, "gen", family)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_gen_rebuilds_a_reported_label(self, capsys):
        _, out, _ = run(capsys, "verify", "orderings", "--k", "3", "--format", "json")
        instances = [i for r in json.loads(out) for i in r["instances"]]
        inst = next(i for i in instances if i["left"].startswith("cm:"))
        code, out, _ = run(capsys, "gen", inst["left"])
        assert code == 0
        assert out == to_text(build_family(inst["left"]))
        assert estrada_index(spectrum_of(from_text(out))) == inst["ee_left"]


class TestSpectrum:
    def test_text_output(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert "eigenvalue 3.23606797750" in out
        assert "eigenvalue -2" in out
        assert "negative_count 2" in out
        assert "moment 2 16" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "e5.txt"
        run(capsys, "gen", "edgeless:5", "--out", str(path))
        code, out, _ = run(capsys, "spectrum", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["estrada"] == 5.0
        assert payload["moments"][0] == 5.0

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "k43.txt"
        run(capsys, "gen", "complete:4,3", "--out", str(path))
        code, out, _ = run(capsys, "spectrum", str(path), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "eigenvalue"
        assert out.splitlines()[1] == "6"

    def test_walk_profile(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "spectrum", str(path), "--smax", "3")
        assert code == 0
        assert "closed_walks 0 0 6 8" in out

    def test_walk_table_matches_per_vertex_counts(self, capsys, tmp_path):
        # no walks, fewer walks than the 9 moments, and more walks than
        # moments: both come from one exact pass
        for name, h, _ in family_fixtures():
            path = tmp_path / f"{name}.txt"
            path.write_text(to_text(h))
            moments = [trace_power(adjacency(h), t) for t in range(9)]
            for smax in (0, 1, 3, 6, 10, 12):
                argv = ("spectrum", str(path), "--smax", str(smax), "--format", "json")
                code, out, _ = run(capsys, *argv)
                assert code == 0, name
                payload = json.loads(out)
                assert payload["moments"] == moments, (name, smax)
                if not smax:
                    assert list(payload)[-1] == "m", name
                    continue
                assert list(payload)[-2:] == ["m", "closed_walks"], name
                expected = {str(u): row for u, row in enumerate(closed_walk_table(h, smax))}
                assert payload["closed_walks"] == expected, (name, smax)

    def test_exact_moments(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        _, out, _ = run(capsys, "spectrum", str(path))
        moments = [line for line in out.splitlines() if line.startswith("moment ")]
        assert moments[:4] == ["moment 0 4", "moment 1 0", "moment 2 16", "moment 3 24"]
        _, out, _ = run(capsys, "spectrum", str(path), "--format", "json")
        assert json.loads(out)["moments"][:4] == [4, 0, 16, 24]

    def test_round_trip_matches_handwritten(self, capsys, tmp_path):
        generated = tmp_path / "gen.txt"
        run(capsys, "gen", "cm:3:1,0", "--out", str(generated))
        handwritten = tmp_path / "hand.txt"
        handwritten.write_text(to_text(unicyclic_cm(3, [1, 0])))
        _, out_a, _ = run(capsys, "spectrum", str(generated))
        _, out_b, _ = run(capsys, "spectrum", str(handwritten))
        assert out_a == out_b

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "/nonexistent/file.txt")
        assert code == 2
        assert "error" in err

    def test_bad_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 zebra 2\n")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "line 2" in err


class TestCheck:
    def test_all_hold_exit_0(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--k", "3")
        assert code == 0
        assert "all bounds hold" in out
        assert "thm4.5-nordhaus-gaddum holds=true" in out

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--k", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["holds"] for entry in payload)

    def test_variant_flag(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(
            capsys, "check", str(path), "--k", "3", "--variant", "theta-plus-one"
        )
        assert code == 0

    def test_wrong_k_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, _, err = run(capsys, "check", str(path), "--k", "4")
        assert code == 2
        assert "uniform" in err

    @pytest.mark.parametrize("k", ["1", "6"])
    def test_complement_order_guard_exits_2(self, capsys, tmp_path, k):
        path = tmp_path / "edgeless5.txt"
        path.write_text("5\n")
        code, out, err = run(capsys, "check", str(path), "--k", k)
        assert (code, out) == (2, "")
        assert err == f"error: need 2 <= k <= n for complement, got k={k}, n=5\n"

    @pytest.mark.parametrize(
        "m,t,message",
        [
            # thm4.2's exp overflows before the complement is reached
            (15, None, "math range error"),
            # the t range is checked first of all the bounds
            (15, "150", "need 2 <= t <= n, got t=150, n=100"),
            (1, "150", "need 2 <= t <= n, got t=150, n=100"),
            # every bound before thm4.5 is finite; C(98, 49) is past int64
            (1, "2", "Python int too large to convert to C long"),
        ],
    )
    def test_error_precedence(self, capsys, tmp_path, m, t, message):
        rng = random.Random(20261018 + m)
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(100), 51))))
        path = tmp_path / "wide.txt"
        path.write_text(to_text(Hypergraph(100, edges)))
        argv = ["check", str(path), "--k", "51"] + (["--t", t] if t else [])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_failed_bound_exits_1(self, capsys, tmp_path, monkeypatch):
        failing = BoundReport(
            bound_id="synthetic", lhs=1.0, rhs=0.0, slack=-1.0,
            holds=False, equality=False, inputs={"n": 1, "m": 0, "k": None, "t": None},
        )
        monkeypatch.setattr(cli.th, "check_all_bounds", lambda *a, **kw: [failing])
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--k", "3")
        assert code == 1
        assert "1 bound check(s) FAILED" in out


def _oracle_eigvalsh(a):
    """eigvalsh's contract (ascending eigenvalues, one row per matrix of a
    stack) from the Jacobi oracle."""
    if a.ndim > 2:
        return np.array([_oracle_eigvalsh(m) for m in a]).reshape(a.shape[:-1])
    return jacobi_eigh(a)[0][::-1]


class TestSolverIndependence:
    """Printed output must not depend on which solver produced the
    eigenvalues: the shipping LAPACK driver and the Jacobi oracle agree to
    roughly 1e-15, far below the 12 printed significant digits."""

    def _outputs(self, capsys, tmp_path):
        outputs = {}
        for name, h, k in family_fixtures():
            path = tmp_path / f"{name}.txt"
            path.write_text(to_text(h))
            outputs[name] = [
                run(capsys, "spectrum", str(path)),
                run(capsys, "spectrum", str(path), "--format", "csv"),
                run(capsys, "check", str(path), "--k", str(k)),
            ]
        return outputs

    def test_spectrum_and_check_output_byte_identical(self, capsys, tmp_path, monkeypatch):
        shipped = self._outputs(capsys, tmp_path)
        monkeypatch.setattr(np.linalg, "eigvalsh", _oracle_eigvalsh)
        oracle = self._outputs(capsys, tmp_path)
        for name in shipped:
            assert shipped[name] == oracle[name], name


class TestComplement:
    def test_involution_via_cli(self, capsys, tmp_path):
        original = tmp_path / "c23.txt"
        once = tmp_path / "comp.txt"
        twice = tmp_path / "back.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(original))
        assert run(capsys, "complement", str(original), "--k", "3", "--out", str(once))[0] == 0
        assert run(capsys, "complement", str(once), "--k", "3", "--out", str(twice))[0] == 0
        assert twice.read_text() == original.read_text()

    def test_complete_complement_is_edgeless(self, capsys, tmp_path):
        path = tmp_path / "k43.txt"
        run(capsys, "gen", "complete:4,3", "--out", str(path))
        code, out, _ = run(capsys, "complement", str(path), "--k", "3")
        assert code == 0
        assert out == "4\n"


class TestVerifyAndEnumerate:
    def test_verify_extremal(self, capsys):
        code, out, _ = run(capsys, "verify", "extremal", "--nover", "4", "--k", "3")
        assert code == 0
        assert "max: cm:3:0,2, cm:3:2,0" in out
        assert "second: cm:3:1,1" in out
        assert out.strip().endswith("PASS")

    def test_verify_extremal_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "extremal", "--nover", "3", "--k", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["diameter_max"] == 2

    def test_verify_orderings(self, capsys):
        code, out, _ = run(capsys, "verify", "orderings", "--k", "3", "--budget", "10")
        assert code == 0
        assert "all strict" in out
        assert out.strip().endswith("PASS")

    def test_verify_bounds_seeded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bounds", "--k", "3", "--budget", "5", "--seed", "7"
        )
        assert code == 0
        assert "seed=7" in out
        assert out.strip().endswith("PASS")

    def test_deterministic_output(self, capsys):
        args = ("verify", "bounds", "--k", "2", "--budget", "4", "--seed", "0")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--nover", "3", "--k", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("cm:3:0,1 n=6 m=3 estrada=")

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--nover", "2", "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["label"] == "cm:3:0,0"
        assert payload[0]["edges"] == [[0, 1, 2], [0, 1, 3]]

    def test_enumerate_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--nover", "3", "--k", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "label,n,m,estrada"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_enumerate_scores_in_one_stacked_call(self, capsys, monkeypatch, fmt):
        args = ("enumerate", "--nover", "5", "--k", "3", "--format", fmt)
        calls = 0
        solve = np.linalg.eigvalsh

        def counting(a):
            nonlocal calls
            calls += 1
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stacked = run(capsys, *args)
        assert calls == 1  # the whole catalog is one order, within one stack
        monkeypatch.setattr(cli, "spectra_of", lambda hs: [spectrum_of(h) for h in hs])
        assert run(capsys, *args) == stacked

    def test_enumerate_bad_nover_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--nover", "1", "--k", "3")
        assert code == 2
        assert "n_over" in err


class TestParser:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum"])  # missing input
        assert exc.value.code == 2

    def test_verify_has_no_smax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "extremal", "--smax", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "suite,flag",
        [
            ("extremal", "--budget"), ("extremal", "--seed"), ("extremal", "--variant"),
            ("orderings", "--nover"), ("orderings", "--seed"), ("orderings", "--variant"),
            ("bounds", "--nover"),
        ],
    )
    def test_verify_suite_rejects_other_suites_flags(self, capsys, suite, flag):
        value = "theta-plus-one" if flag == "--variant" else "3"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--k", "3", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--k", "3", "orderings"],
            ["verify", "--format", "json", "bounds", "--budget", "2"],
            ["verify", "--bogus", "extremal"],
        ],
    )
    def test_verify_flags_follow_the_suite(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"hypestra verify: error: {argv[1]} comes before the suite name; "
            "suite flags go after it\n"
        )

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_verify_help_before_the_suite(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hypestra verify")

    @pytest.mark.parametrize(
        "argv",
        [
            ("extremal", "--nover", "3"),
            ("orderings", "--budget", "8"),
            ("bounds", "--budget", "2", "--seed", "1", "--variant", "theta-plus-one"),
        ],
    )
    def test_verify_suite_takes_each_of_its_flags(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, "verify", *argv, "--k", "3", "--format", "csv", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text(encoding="utf-8").count("\n") >= 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_built_once(self, capsys, monkeypatch):
        parsers = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        cli.main(["gen", "fano"])
        cli.main(["gen", "fano"])
        # a known command goes straight to its own parser, the same object both times
        assert len(parsers) == 2
        assert parsers[0] is parsers[1]
        assert parsers[0].prog == "hypestra gen"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["frobnicate"],
            ["--k", "3", "check"],
            ["check", "-h"],
            ["check", "h.txt", "--k", "3", "--bogus", "x"],
            ["gen", "fano", "extra"],
            ["verify", "extremal", "extra", "--bogus"],
        ],
    )
    def test_same_outcome_as_two_level_parse(self, capsys, argv):
        def outcome(call):
            with pytest.raises(SystemExit) as exc:
                call(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        expected = outcome(cli.build_parser().parse_args)
        assert outcome(cli.main) == expected
        assert expected[1] or expected[2]

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        expected = run(capsys, "gen", "fano")
        monkeypatch.setattr(sys, "argv", ["hypestra", "gen", "fano"])
        code = cli.main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert expected[0] == 0 and expected[1]


def _failing_report():
    return BoundReport(
        bound_id="synthetic", lhs=1.0, rhs=0.0, slack=-1.0,
        holds=False, equality=False, inputs={"n": 1, "m": 0, "k": None, "t": None},
    )


class TestVerifyFormats:
    """Every verify suite renders the format it is asked for; text output
    and exit codes are those of the text suites."""

    BOUNDS = ("verify", "bounds", "--k", "3", "--budget", "3", "--seed", "5")

    def test_bounds_json_when_all_hold(self, capsys):
        code, out, _ = run(capsys, *self.BOUNDS, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "k": 3, "seed": 5, "checked": 3, "passed": True, "failures": []
        }

    def test_bounds_json_lists_failures(self, capsys, monkeypatch):
        seen = []

        def failing(h, k, variant):
            seen.append(h)
            return [_failing_report()]

        monkeypatch.setattr(cli.th, "check_all_bounds", failing)
        code, out, _ = run(capsys, *self.BOUNDS, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert list(payload) == ["k", "seed", "checked", "passed", "failures"]
        assert payload["passed"] is False
        assert [f["instance"] for f in payload["failures"]] == [0, 1, 2]
        for failure, h in zip(payload["failures"], seen):
            assert list(failure) == ["instance", "hypergraph", "report"]
            assert Hypergraph(**failure["hypergraph"]) == h
            assert failure["report"]["bound_id"] == "synthetic"
            assert failure["report"]["inputs"] == {"n": 1, "m": 0, "k": None, "t": None}

    def test_bounds_csv(self, capsys, monkeypatch):
        header = "instance,bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"
        assert run(capsys, *self.BOUNDS, "--format", "csv") == (0, header + "\n", "")
        monkeypatch.setattr(cli.th, "check_all_bounds", lambda *a, **kw: [_failing_report()])
        code, out, _ = run(capsys, *self.BOUNDS, "--format", "csv")
        assert code == 1
        assert out.splitlines() == [header] + [
            f"{i},synthetic,1,0,,,1,0,-1,false,false" for i in range(3)
        ]

    def test_bounds_text_unchanged(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.th, "check_all_bounds", lambda *a, **kw: [_failing_report()])
        code, out, _ = run(capsys, *self.BOUNDS[:4], "--budget", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "checked 1 random 3-uniform hypergraph(s), seed=0"
        assert lines[1].startswith('FAILED instance 0: synthetic on {"n": ')
        assert lines[2:] == ["FAIL"]

    def test_extremal_csv_in_ranking_order(self, capsys):
        code, out, _ = run(
            capsys, "verify", "extremal", "--nover", "4", "--k", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,estrada"
        # labels hold commas of their own, so they are quoted
        expected = [f'"{label}",{cli.format_float(ee)}' for label, ee in verify_extremal(4, 3).ranking]
        assert lines[1:] == expected

    @pytest.mark.parametrize(
        "argv,label_columns",
        [
            (("enumerate", "--nover", "4", "--k", "3"), ["label"]),
            (("verify", "extremal", "--nover", "4", "--k", "3"), ["label"]),
            (("verify", "orderings", "--k", "3", "--budget", "12"), ["left", "right"]),
        ],
    )
    def test_csv_rows_read_back(self, capsys, argv, label_columns):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        assert all(len(row) == len(header) for row in rows)
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        if argv[0] == "enumerate":
            expected = [[e["label"]] for e in payload]
        elif argv[1] == "extremal":
            expected = [[label] for label, _ in payload["ranking"]]
        else:
            expected = [[i["left"], i["right"]] for r in payload for i in r["instances"]]
        columns = [header.index(name) for name in label_columns]
        assert [[row[c] for c in columns] for row in rows] == expected
        assert any("," in label for labels in expected for label in labels)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bounds", "--budget", "-3"), "need budget >= 1, got budget=-3"),
            (("orderings", "--budget", "-1"), "no ordering instance fits a size budget of -1 at k=3"),
        ],
    )
    def test_negative_budget_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bounds", "--budget", "0"), "need budget >= 1, got budget=0"),
            (("orderings", "--budget", "0"), "no ordering instance fits a size budget of 0 at k=3"),
            (("orderings", "--budget", "3"), "no ordering instance fits a size budget of 3 at k=3"),
            (("orderings", "--k", "4", "--budget", "4"), "no ordering instance fits a size budget of 4 at k=4"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_suite_that_checks_nothing_exits_2(self, capsys, argv, message, fmt):
        code, out, err = run(capsys, "verify", *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("k", ["-1", "0", "1", "13"])
    def test_bounds_k_out_of_range_exits_2(self, capsys, k):
        code, out, err = run(capsys, "verify", "bounds", "--k", k, "--budget", "2")
        assert (code, out, err) == (2, "", f"error: need 2 <= k <= 12, got k={k}\n")


class TestExitCodes:
    """Exit code 2 means bad input; an internal error propagates."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 3.0, "edges": [[0, 1]]}', '"n" must be an integer, got 3.0'),
            ('{"n": true, "edges": [[0, 1]]}', '"n" must be an integer, got true'),
            ('{"n": NaN, "edges": [[0, 1]]}', '"n" must be an integer, got NaN'),
            ('{"n": 1e400, "edges": [[0, 1]]}', '"n" must be an integer, got Infinity'),
            ('{"n": 3, "edges": [[0.5, 1]]}', "edge [0.5, 1]: vertex 0.5 is not an integer"),
        ],
    )
    def test_non_integer_json_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text + "\n")
        code, out, err = run(capsys, "check", str(path), "--k", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_internal_value_error_propagates(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli.th, "check_all_bounds", broken)
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["check", str(path), "--k", "3"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--k", "3"),
            ("spectrum",),
            ("spectrum", "--smax", "3"),
            ("complement", "--k", "3"),
        ],
    )
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_read_as_newlines(self, capsys, tmp_path, end):
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes(b"4\n0 1 2\n0 1 3\n")
        other.write_bytes(lf.read_bytes().replace(b"\n", end.encode()))
        assert run(capsys, "spectrum", str(other)) == run(capsys, "spectrum", str(lf))
        # a JSON error position counts one character per line end
        bad = tmp_path / "bad.json"
        bad.write_bytes(f'{{{end}  "n": 4,{end}  "edges": [[0, 1, 2],{end}  ]{end}}}'.encode())
        code, out, err = run(capsys, "check", str(bad), "--k", "3")
        assert (code, out) == (2, "")
        assert err == "error: invalid JSON: Expecting value: line 4 column 3 (char 37)\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("check", "--k", "3", "--t", "1"), "need 2 <= t <= n, got t=1, n=4"),
            (("spectrum", "--smax", "-1"), "s_max must be >= 0, got -1"),
        ],
    )
    def test_parameter_errors_exit_2(self, capsys, tmp_path, argv, message):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_negative_smax_exits_2_in_every_format(self, capsys, tmp_path, monkeypatch, fmt):
        path = tmp_path / "c23.txt"
        run(capsys, "gen", "cycle:2,3", "--out", str(path))

        def spectrum_of(*args, **kwargs):
            raise AssertionError("spectrum solved for a rejected --smax")

        monkeypatch.setattr(cli, "spectrum_of", spectrum_of)
        code, out, err = run(capsys, "spectrum", str(path), "--smax", "-1", "--format", fmt)
        assert (code, out, err) == (2, "", "error: s_max must be >= 0, got -1\n")


def _dumps(value) -> str:
    return json.dumps(value, indent=2) + "\n"


class _Float(float):
    pass


class _Text(str):
    pass


class TestJsonText:
    """``cli._json_text`` writes what ``json.dumps`` writes with an indent
    of 2, then a newline, byte for byte."""

    CASES = [
        "", "plain", "caf\u00e9 \u2028 \U0001f600", "\x00\x1f\x7f\t\n\r", '"\\/', "\ud800",
        0, -1, 2**64, -(2**64) - 1, 2**200,
        0.0, -0.0, 0.1, 1e-320, 1.7976931348623157e308, 1e16, -2.5,
        math.nan, math.inf, -math.inf,
        True, False, None,
        [], {}, (), [[]], [{}], {"a": []}, ((1, 2), (3,)),
        {"k\u00e9y": [1, 2.5, None, True, "x"], "nested": {"deep": [[{"x": -0.0}]]}},
        [np.float64(1.5), np.float64(-0.0), np.float64("nan")],
        [_Float(2.0), _Text("sub"), {_Text("k"): _Float("inf")}],
    ]

    @pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
    def test_fixed_cases(self, value):
        assert cli._json_text(value) == _dumps(value)

    def test_bound_report_layout(self):
        hand_built = [
            BoundReport("nan", math.nan, math.inf, -math.inf, False, False, {}),
            BoundReport(
                "caf\u00e9", -0.0, 1e300, 1e16, True, True, {"n": 3, "t": None},
                {"claim": "le", "nested": {"a": [1, 2.5, None], "b": {}, "c": [math.nan]}},
            ),
        ]
        # equal under ==, written differently: a writer that reuses the text
        # of an equal value or block writes some of these wrong
        nmkt = {"n": 1, "m": 1, "k": None, "t": None}
        alike = [
            BoundReport("ints", 0.0, 1.0, 1.0, True, False, nmkt, {"claim": "le", "theta": 1}),
            BoundReport("bools", -0.0, 1.0, -0.0, True, True, {**nmkt, "n": True},
                        {"claim": "le", "theta": True}),
            BoundReport("floats", 0.0, -0.0, 0.0, False, False, {**nmkt, "m": 1.0, "k": -0.0},
                        {"claim": "le", "theta": 1.0, "zeros": [0.0, -0.0, 0]}),
            BoundReport("nans", math.nan, float("nan"), -0.0, False, False, {**nmkt, "t": math.nan},
                        {"claim": "le", "ee": math.nan, "ee_complement": float("nan")}),
            BoundReport("again", -0.0, 0.0, 1.0, True, False, dict(nmkt), {"claim": "le", "theta": 1}),
        ]
        # the layout writes BoundReport's fields in order, so a field gained,
        # lost or moved fails here and in the comparisons below
        keys = re.findall(r'^    "(\w+)": ', cli._render_bound_reports(hand_built[:1], "json"), re.M)
        assert keys == [f.name for f in dataclasses.fields(BoundReport)]
        batches = [[], hand_built, alike, alike[::-1]]
        batches += [check_all_bounds(h, None if h.m else 2) for h in criterion_3_sample() if h.n >= 2]
        for n in range(7, 16):
            full = list(combinations(range(n), 3))
            batches.append(check_all_bounds(Hypergraph(n, full), 3))  # no probe
            batches.append(check_all_bounds(Hypergraph(n, full[1:]), 3))  # probe
        for reports in batches:
            assert cli._render_bound_reports(reports, "json") == _dumps([vars(r) for r in reports])

    @pytest.mark.parametrize(
        "value", [np.int64(3), {1, 2}, b"x", [object()], {"a": {(1,): 2}}, {1: 2}], ids=range(6)
    )
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_random_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        scalars = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
            st.floats(),
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            st.text(),
            st.text(st.characters(max_codepoint=0x1F) | st.characters(min_codepoint=0x80)),
        )
        values = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=24,
        )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(values)
        def check(value):
            assert cli._json_text(value) == _dumps(value)

        check()

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "{path}", "--smax", "4"),
            ("check", "{path}", "--k", "3"),
            ("enumerate", "--nover", "3", "--k", "3"),
            ("verify", "extremal", "--nover", "3", "--k", "3"),
            ("verify", "orderings", "--k", "3", "--budget", "10"),
            ("verify", "bounds", "--k", "3", "--budget", "3"),
        ],
        ids=lambda argv: "-".join(argv[:2]).replace("-{path}", ""),
    )
    def test_cli_output_is_json_dumps(self, capsys, tmp_path, argv):
        path = tmp_path / "c33.txt"
        run(capsys, "gen", "cm:3:1,0,1", "--out", str(path))
        argv = [a.format(path=path) for a in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == _dumps(json.loads(out))
