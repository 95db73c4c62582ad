import argparse
import json

import numpy as np
import pytest

from hypestra import (
    build_family,
    cli,
    closed_walk_counts,
    estrada_index,
    from_text,
    spectrum_of,
    to_text,
    unicyclic_cm,
)
from hypestra.theorems import BoundReport

from conftest import family_fixtures
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
        for name, h, _ in family_fixtures():
            path = tmp_path / f"{name}.txt"
            path.write_text(to_text(h))
            for smax in (6, 10):
                argv = ("spectrum", str(path), "--smax", str(smax), "--format", "json")
                code, out, _ = run(capsys, *argv)
                assert code == 0, name
                payload = json.loads(out)
                assert list(payload)[-2:] == ["m", "closed_walks"], name
                expected = {str(u): closed_walk_counts(h, u, smax) for u in range(h.n)}
                assert payload["closed_walks"] == expected, (name, smax)
                assert len(payload["moments"]) == 9, name

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

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_built_once(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        cli.main(["gen", "fano"])
        cli.main(["gen", "fano"])
        assert len(parsers) == 2
        assert parsers[0] is parsers[1]
