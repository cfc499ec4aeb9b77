import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isospec as iso
from isospec import cli, serialize
from isospec.cli import main
from isospec.model import load_potential_csv
from isospec.serialize import dumps_json


@pytest.fixture()
def paper_files(tmp_path, capsys):
    prob = tmp_path / "problem.json"
    pert = tmp_path / "pert.json"
    assert main(["example", "paper-example-2x2"]) == 0
    prob.write_text(capsys.readouterr().out)
    assert main(["example", "paper-example-2x2", "--perturbation"]) == 0
    pert.write_text(capsys.readouterr().out)
    return prob, pert


@pytest.fixture()
def scalar_files(tmp_path, capsys):
    prob = tmp_path / "scalar.json"
    pert = tmp_path / "scalar-pert.json"
    assert main(["example", "scalar-zero"]) == 0
    prob.write_text(capsys.readouterr().out)
    assert main(["example", "scalar-zero", "--perturbation"]) == 0
    pert.write_text(capsys.readouterr().out)
    return prob, pert


@pytest.fixture()
def coupled4_file(tmp_path):
    """A fully coupled N = 4 grid potential R diag(-3, 0, 1.5, -0.5) R^T, Dirichlet ends."""
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    grid = iso.Grid.uniform(401)
    samples = np.broadcast_to(q @ np.diag([-3.0, 0.0, 1.5, -0.5]) @ q.T, (grid.n, 4, 4))
    dirichlet = iso.BoundaryPair(np.eye(4), np.zeros((4, 4)))
    problem = iso.Problem(iso.GridPotential(grid, samples), dirichlet, dirichlet)
    prob = tmp_path / "c4.json"
    prob.write_text(dumps_json(iso.problem_to_json_obj(problem)))
    return prob


def test_cli_import_loads_no_interpolate_or_fft():
    # a fresh interpreter, so no earlier test has loaded either subpackage
    src = os.path.dirname(os.path.dirname(os.path.abspath(iso.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import isospec.cli, sys; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.interpolate', 'scipy.fft'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """The library and every CLI command run in a fresh interpreter where
    importing scipy fails, and load no scipy module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(iso.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = Path(__file__).with_name("cli_without_scipy.py")
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "s" / "path.csv").stat().st_size and (tmp_path / "v" / "verify.json").exists()


class TestRunConfig:
    """The run settings: the default grid declared once in spectrum, the grid
    rule checked where the scan reads it."""

    def test_defaults_valid(self, paper_files, capsys):
        prob, _ = paper_files
        assert main(["spectrum", str(prob)]) == 0
        printed = [(r["lambda"], r["multiplicity"]) for r in json.loads(capsys.readouterr().out)]
        report = iso.scan_spectrum(iso.load_problem(str(prob)), -10.0, 30.0)
        assert report.grid.n == 401
        assert cli.build_parser().parse_args(["spectrum", str(prob)]).grid == 401
        assert printed == [(p.lam, p.multiplicity) for p in report.pairs]

    def test_parser_is_built_once(self, paper_files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["example", "scalar-zero"]) == 0
        # a reused parser gives each call its own namespace: no value leaks
        prob, _ = paper_files
        assert cli._PARSER.parse_args(["spectrum", str(prob), "--grid", "801"]).grid == 801
        assert cli._PARSER.parse_args(["spectrum", str(prob)]).grid == 401

    def test_invariants(self, paper):
        for n in (400, 3):                      # even, too small
            with pytest.raises(ValueError, match="--grid must be odd and >= 5"):
                iso.scan_spectrum(paper, 0.0, 5.0, iso.Grid.uniform(n))
        with pytest.raises(ValueError):
            iso.scan_spectrum(paper, 2.0, 1.0)

    @pytest.mark.parametrize("field, value", [("tol", 0.0), ("tol", float("nan")),
                                              ("tol", -1e-10), ("tol", 1e-8), ("tol", 1e-13),
                                              ("rank_tol", -1.0), ("rank_tol", float("nan")),
                                              ("rank_tol", 1.0), ("rank_tol", 1e3),
                                              ("rank_tol", float("inf"))])
    def test_bad_tolerance_is_a_value_error(self, paper, field, value):
        # tol and rank_tol are gone: every value of them, the once-bad ones
        # included, is refused as an unknown argument rather than silently ignored
        with pytest.raises(TypeError, match=field):
            iso.scan_spectrum(paper, 0.0, 5.0, **{field: value})

    def test_rank_threshold_is_gone(self):
        # multiplicities come from the eigenvalue count, Newton and the root
        # merge run at fixed tolerances, and the grid is the scan's one setting
        params = inspect.signature(iso.scan_spectrum).parameters
        assert list(params) == ["p", "lambda_min", "lambda_max", "grid"]
        assert [f.name for f in dataclasses.fields(iso.SpectrumReport)] == [
            "problem", "grid", "window", "pairs"]

    @pytest.mark.parametrize("window", [(-np.inf, 5.0), (0.0, np.inf), (np.nan, 5.0)],
                             ids=["-inf", "inf", "nan"])
    def test_non_finite_window_is_a_value_error(self, paper, window):
        with pytest.raises(ValueError, match="lambda window must be finite"):
            iso.scan_spectrum(paper, *window)

    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--rank-tol", "nan"], ["--tol", "0"],
                                       ["--grid", "400"], ["--min", "3", "--max", "1"],
                                       ["--min=-inf"], ["--rank-tol", "1"], ["--rank-tol", "1e3"],
                                       ["--rank-tol", "inf"]],
                             ids=["tol-nan", "rank-tol-nan", "tol-zero", "even-grid",
                                  "reversed-window", "infinite-min", "rank-tol-1",
                                  "rank-tol-1e3", "rank-tol-inf"])
    def test_bad_setting_exits_2(self, paper_files, tmp_path, capsys, flags):
        prob, _ = paper_files
        out = tmp_path / "never"
        argv = ["spectrum", str(prob), "--out", str(out)] + flags
        if flags[0] in ("--rank-tol", "--tol"):
            # the flag is gone: argparse refuses it with a usage message
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ") and f"unrecognized arguments: {flags[0]}" in err
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @staticmethod
    def _assert_removed_flag(paper_files, tmp_path, capsys, command, flag):
        prob, pert = paper_files
        args = [str(prob)] if command == "spectrum" else [str(prob), str(pert)]
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(out), flag, "1e-6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "transform", "verify"])
    def test_removed_rank_tol_flag_is_a_usage_error(self, paper_files, tmp_path, capsys,
                                                     command):
        self._assert_removed_flag(paper_files, tmp_path, capsys, command, "--rank-tol")

    @pytest.mark.parametrize("command", ["spectrum", "transform", "verify"])
    def test_removed_tol_flag_is_a_usage_error(self, paper_files, tmp_path, capsys, command):
        self._assert_removed_flag(paper_files, tmp_path, capsys, command, "--tol")


class TestValidate:
    def test_builtin_file_passes(self, paper_files):
        prob, _ = paper_files
        assert main(["validate", str(prob)]) == 0

    def test_rank_deficient_fails_naming_condition(self, tmp_path, capsys):
        obj = {"n": 1, "potential": {"kind": "constant-diagonal", "values": [0.0]},
               "left": {"A": [[0.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 1
        assert "rank" in capsys.readouterr().out

    def test_malformed_json_exits_2(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        assert main(["validate", str(f)]) == 2

    @pytest.mark.parametrize("doc, field", [
        ([1, 2], "problem"),
        ({"n": 1, "potential": 5, "left": {"A": [[1]], "B": [[0]]},
          "right": {"A": [[1]], "B": [[0]]}}, "potential"),
        ({"n": 1, "potential": {"kind": "constant-diagonal", "values": [0]}, "left": [1],
          "right": {"A": [[1]], "B": [[0]]}}, "left"),
    ])
    def test_json_of_the_wrong_shape_exits_2(self, tmp_path, capsys, doc, field):
        f = tmp_path / "shape.json"
        f.write_text(json.dumps(doc))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be a JSON object")

    @pytest.mark.parametrize("field, message", [
        ({"n": [1]}, "n must be an integer, not [1]"),
        ({"n": 1.5}, "n must be an integer, not 1.5"),
        ({"potential": {"kind": "builtin", "name": [1]}}, "potential name must be a string"),
        ({"potential": {"kind": "constant-diagonal", "values": {"v": 0}}},
         "potential values must be an array of numbers"),
        ({"potential": {"kind": "grid", "path": 5}}, "potential path must be a string"),
        ({"left": {"A": {"a": 1}, "B": [[0]]}}, "left A must be an array of numbers"),
        ({"potential": {"kind": "constant-diagonal", "values": "0"}},
         "potential values must be an array of numbers"),
        ({"left": {"A": "1", "B": [[0]]}}, "left A must be an array of numbers"),
        ({"potential": {"kind": [1], "values": [0]}},
         "potential kind must be builtin, constant-diagonal or grid, not [1]"),
        ({"left": {"A": None, "B": [[0]]}}, "left A must be an array of numbers"),
        ({"n": 2, "potential": {"kind": "constant-diagonal", "values": [True, 0]},
          "left": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]},
          "right": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]}},
         "potential values must be an array of numbers"),
    ], ids=["n-list", "n-fraction", "builtin-name-list", "values-object", "grid-path-number",
            "boundary-A-object", "values-string", "boundary-A-string", "kind-list",
            "boundary-A-null", "values-boolean"])
    def test_field_of_the_wrong_type_exits_2(self, tmp_path, capsys, field, message):
        doc = {"n": 1, "potential": {"kind": "constant-diagonal", "values": [0]},
               "left": {"A": [[1]], "B": [[0]]}, "right": {"A": [[1]], "B": [[0]]}}
        f = tmp_path / "type.json"
        f.write_text(json.dumps({**doc, **field}))
        assert main(["validate", str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_file_exits_2(self):
        assert main(["validate", "/nonexistent/problem.json"]) == 2

    def test_infinite_potential_value_exits_2(self, tmp_path, capsys):
        f = tmp_path / "inf.json"
        f.write_text('{"n": 2, "potential": {"kind": "constant-diagonal", "values": [Infinity, 0]},'
                     ' "left": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]},'
                     ' "right": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]}}')
        assert main(["validate", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: constant-diagonal potential values must be finite\n"

    def test_header_only_potential_csv_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty-q.csv").write_text("x,p11\n")
        obj = {"n": 1, "potential": {"kind": "grid", "path": "empty-q.csv"},
               "left": {"A": [[1.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "empty-q.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty-q.csv" in err and "no data rows" in err

    def test_x_only_potential_csv_exits_2(self, tmp_path, capsys):
        (tmp_path / "x-only.csv").write_text(f"x\n0\n{np.pi / 2!r}\n{np.pi!r}\n")
        obj = {"n": 1, "potential": {"kind": "grid", "path": "x-only.csv"},
               "left": {"A": [[1.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "x-only.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x-only.csv" in err and "no potential columns" in err

    def test_short_potential_csv_row_exits_2(self, tmp_path, capsys):
        (tmp_path / "short-q.csv").write_text("x,p11,p12,p22\n0,1\n")
        obj = {"n": 2, "potential": {"kind": "grid", "path": "short-q.csv"},
               "left": {"A": np.eye(2).tolist(), "B": np.zeros((2, 2)).tolist()},
               "right": {"A": np.eye(2).tolist(), "B": np.zeros((2, 2)).tolist()}}
        f = tmp_path / "short-q.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "short-q.csv" in err and "line 2" in err

    def test_non_numeric_potential_field_names_file_and_line(self, tmp_path, capsys):
        (tmp_path / "abc-q.csv").write_text("x,p11\n0,1\n1.5,abc\n3.14159,1\n")
        obj = {"n": 1, "potential": {"kind": "grid", "path": "abc-q.csv"},
               "left": {"A": [[1.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "abc-q.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "abc-q.csv" in err and "line 3" in err
        assert "'abc'" in err

    @pytest.mark.parametrize("xs", ["0,1,3.141592653589793", "0,1.5,3.0"],
                             ids=["non-uniform", "short-of-pi"])
    def test_bad_potential_x_column_names_file(self, tmp_path, capsys, xs):
        body = "".join(f"{x},0\n" for x in xs.split(","))
        (tmp_path / "x-q.csv").write_text("x,p11\n" + body)
        obj = {"n": 1, "potential": {"kind": "grid", "path": "x-q.csv"},
               "left": {"A": [[1.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "x-q.json"
        f.write_text(json.dumps(obj))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x-q.csv" in err and "grid must" in err


class TestSpectrum:
    def test_paper_spectrum_artifacts(self, paper_files, tmp_path, capsys):
        prob, _ = paper_files
        out = tmp_path / "art"
        rc = main(["spectrum", str(prob), "--min", "-5", "--max", "20", "--out", str(out)])
        assert rc == 0
        obj = json.loads((out / "spectrum.json").read_text())
        assert [(round(r["lambda"]), r["multiplicity"]) for r in obj] == \
            [(-2, 1), (1, 2), (4, 1), (6, 1), (9, 1), (13, 1), (16, 1)]
        assert (out / "eigenfunction_k1_l2.csv").exists()
        header = (out / "eigenfunction_k0_l1.csv").read_text().splitlines()[0]
        assert header == "x,c1,c2"
        capsys.readouterr()

    @pytest.mark.parametrize("left,right,check", [
        ((np.eye(2), np.zeros((2, 2))), (np.diag([1.0, 0.0]), np.zeros((2, 2))),
         "right pair rank [A, B] = N"),
        ((np.zeros((2, 2)), np.zeros((2, 2))), (np.eye(2), np.zeros((2, 2))),
         "left pair rank [A, B] = N"),
        ((np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])), (np.eye(2), np.zeros((2, 2))),
         "left pair B*A^T = A*B^T"),
    ])
    def test_broken_boundary_hypothesis_exits_1_naming_it(self, tmp_path, capsys, left, right,
                                                          check):
        # before the check, these exited 2 with "Singular matrix" (rank 1 right
        # end) or 1 with a misleading WindowTooCoarse (the two left ends)
        problem = iso.Problem(iso.ConstantDiagonalPotential([-3.0, 0.0]), iso.BoundaryPair(*left),
                              iso.BoundaryPair(*right))
        f = tmp_path / "broken.json"
        f.write_text(dumps_json(iso.problem_to_json_obj(problem)))
        assert main(["validate", str(f)]) == 1
        assert f"[FAIL] {check}" in capsys.readouterr().out
        assert main(["spectrum", str(f), "--min", "-5", "--max", "20"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConditionViolated: {check} fails") and "isospec validate" in err

    def test_empty_window_ok(self, scalar_files, capsys):
        prob, _ = scalar_files
        assert main(["spectrum", str(prob), "--min", "1.5", "--max", "3.5"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_byte_identical_reruns(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        outs = []
        for d in ("d1", "d2"):
            out = tmp_path / d
            assert main(["spectrum", str(prob), "--min", "0.5", "--max", "10",
                         "--out", str(out)]) == 0
            outs.append((out / "spectrum.json").read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_byte_identical_reruns_coupled_4x4(self, coupled4_file, tmp_path, capsys):
        # an N = 4 coupled grid potential: lambda batches span several tree chunks
        trees = []
        for d in ("d1", "d2"):
            out = tmp_path / d
            assert main(["spectrum", str(coupled4_file), "--min", "-2.5", "--max", "5",
                         "--out", str(out)]) == 0
            trees.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        rows = json.loads(trees[0]["spectrum.json"])
        assert [(round(r["lambda"], 6), r["multiplicity"]) for r in rows] == \
            [(-2.0, 1), (0.5, 1), (1.0, 2), (2.5, 1), (3.5, 1), (4.0, 1)]
        assert len(trees[0]) == 1 + 7
        capsys.readouterr()

    def test_dump_path(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        out = tmp_path / "pth"
        assert main(["spectrum", str(prob), "--min", "0.5", "--max", "10",
                     "--out", str(out), "--dump-path", "1.0"]) == 0
        lines = (out / "path.csv").read_text().splitlines()
        assert lines[0] == "x,y11,yp11"
        assert len(lines) == 402
        capsys.readouterr()

    def test_overflowing_dump_path_writes_nothing(self, paper_files, tmp_path, capsys):
        prob, _ = paper_files
        out = tmp_path / "s2"
        assert main(["spectrum", str(prob), "--min", "-5", "--max", "20",
                     "--dump-path=-1e8", "--out", str(out)]) == 1
        assert "NonFiniteState" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_w_damped_to_zero_exits_1(self, scalar_files, capsys):
        # RK4 damps W to 0.0 across this window at grid 3201 (lambda h^2 ~ 3.9)
        prob, _ = scalar_files
        assert main(["spectrum", str(prob), "--grid", "3201", "--min", "4e6",
                     "--max", "4.0016e6"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: WindowTooCoarse: W is not resolved")
        assert captured.out == ""

    def test_dump_path_without_out_is_a_usage_error(self, scalar_files, tmp_path, capsys,
                                                    monkeypatch):
        prob, _ = scalar_files
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("isospec.cli.scan_spectrum", lambda *a, **k: pytest.fail("scanned"))
        before = sorted(tmp_path.iterdir())
        assert main(["spectrum", str(prob), "--dump-path", "2.0"]) == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_dump_path_is_a_usage_error(self, scalar_files, tmp_path, capsys,
                                                   monkeypatch, lam):
        # refused before the scan, as --min nan is, not left to overflow the integration
        prob, _ = scalar_files
        monkeypatch.setattr("isospec.cli.scan_spectrum", lambda *a, **k: pytest.fail("scanned"))
        out = tmp_path / "art"
        assert main(["spectrum", str(prob), f"--dump-path={lam}", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --dump-path must be finite\n")
        assert not out.exists()

    def test_csv_summary_format(self, scalar_files, capsys):
        prob, _ = scalar_files
        assert main(["spectrum", str(prob), "--min", "0.5", "--max", "10",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "lambda,multiplicity,residual"
        assert len(out) == 4
        for line in out[1:]:
            lam, mult, res = line.split(",")
            assert lam == "%.17g" % float(lam) and res == "%.17g" % float(res)
            assert mult == "%.17g" % int(mult) == "1"
        # an empty window prints the header alone
        assert main(["spectrum", str(prob), "--min", "0.5", "--max", "0.9",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "lambda,multiplicity,residual\n"


class TestCsvArtifacts:
    @pytest.mark.parametrize("coupled", [False, True], ids=["paper", "coupled4"])
    def test_files_equal_the_row_rendering_of_their_tables(self, paper_files, coupled4_file,
                                                           tmp_path, monkeypatch, capsys,
                                                           coupled):
        # every CSV equals the per-row '%' rendering of the table the command wrote
        prob, pert = paper_files
        if coupled:
            prob, pert = coupled4_file, tmp_path / "c4-pert.json"
            pert.write_text('[{"k": 0, "i": 1, "c": 1.0}]')
        tables = []
        write_csvs = serialize.write_csvs

        def spy(batch):
            tables.extend(batch)
            write_csvs(batch)

        monkeypatch.setattr(serialize, "write_csvs", spy)
        window = ["--min", "-5", "--max", "20"]
        assert main(["spectrum", str(prob), *window, "--dump-path", "2",
                     "--out", str(tmp_path / "s")]) == 0
        assert main(["transform", str(prob), str(pert), *window, "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        assert (tmp_path / "s/path.csv").exists() and (tmp_path / "t/q_potential.csv").exists()
        assert sorted(tmp_path.glob("[st]/*.csv")) == sorted(Path(p) for p, _, _ in tables)
        for path, header, rows in tables:
            fmt = ",".join(["%.17g"] * rows.shape[1])
            lines = [",".join(header)] + [fmt % tuple(row) for row in rows.tolist()]
            assert Path(path).read_bytes() == "".join(line + "\n" for line in lines).encode()


class TestTransform:
    def test_mixed_transform_artifacts_roundtrip(self, paper_files, tmp_path, capsys):
        prob, pert = paper_files
        out = tmp_path / "tr"
        rc = main(["transform", str(prob), str(pert), "--min", "-5", "--max", "20",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        boundary = json.loads((out / "boundary.json").read_text())
        assert boundary["Atilde"] == [[1, 0], [0, 1]]
        assert boundary["AtildeRight"] == [[1, 0], [0, 1]]
        qpot = load_potential_csv(str(out / "q_potential.csv"))
        assert qpot.dimension == 2
        assert (out / "psi_k1_i1.csv").exists()
        assert (out / "kernel_diagnostics.json").exists()

    def test_robin_and_mixed_boundary_matrices(self, tmp_path, capsys):
        # Robin left (B = I), rank-one B on the right: both ends move with K
        left_a = [[1.0, 0.2], [0.2, -0.5]]
        right_a, right_b = [[1.0, 0.0], [0.0, 0.7]], [[0.0, 0.0], [0.0, 1.0]]
        obj = {"n": 2, "potential": {"kind": "constant-diagonal", "values": [-1.0, 0.5]},
               "left": {"A": left_a, "B": np.eye(2).tolist()},
               "right": {"A": right_a, "B": right_b}}
        prob, pert = tmp_path / "robin.json", tmp_path / "robin-pert.json"
        prob.write_text(json.dumps(obj))
        pert.write_text(json.dumps([{"k": 0, "i": 1, "c": 0.7}]))
        out = tmp_path / "tr"
        assert main(["transform", str(prob), str(pert), "--min", "-5", "--max", "20",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        b = {k: np.array(v) for k, v in json.loads((out / "boundary.json").read_text()).items()}
        assert np.array_equal(b["Atilde"], np.array(left_a) - np.eye(2) @ b["K00"])
        assert np.array_equal(b["AtildeRight"], np.array(right_a) - np.array(right_b) @ b["Kpipi"])
        assert not np.array_equal(b["Atilde"], left_a)
        assert not np.array_equal(b["AtildeRight"], right_a)

    @pytest.mark.parametrize("entry, error", [
        ('{"k": 1.7, "i": 1, "c": 1.0}', "IndexOutOfRange"),
        ('{"k": 1, "i": 1.5, "c": 1.0}', "IndexOutOfRange"),
        ('{"k": 1, "i": 1, "c": NaN}', "ConditionViolated"),
        ('{"k": 1, "i": 1, "c": Infinity}', "ConditionViolated"),
        ('{"k": 1, "i": 1, "c": 1.0, "theta": [-2.0, -Infinity]}', "ConditionViolated"),
    ], ids=["k-fraction", "i-fraction", "c-nan", "c-infinity", "theta-infinity"])
    def test_bad_entry_exits_1_before_writing(self, paper_files, tmp_path, capsys, entry, error):
        prob, _ = paper_files
        pert = tmp_path / "bad.json"
        pert.write_text(f"[{entry}]")
        out = tmp_path / "never"
        assert main(["transform", str(prob), str(pert), "--min", "-5", "--max", "20",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert error in err and "perturbation entry 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        '1', '[0, 1]', '{"k": null, "i": 1, "c": 1.0}', '{"k": 0, "i": 1}',
        '{"k": 0, "i": 1, "c": 1.0, "theta": 2.0}',
    ], ids=["number", "short-list", "null-k", "missing-c", "scalar-theta"])
    def test_malformed_entry_exits_2_before_writing(self, scalar_files, tmp_path, capsys, entry):
        prob, _ = scalar_files
        pert = tmp_path / "malformed.json"
        pert.write_text(f"[{{\"k\": 0, \"i\": 1, \"c\": 1.0}}, {entry}]")
        out = tmp_path / "never"
        assert main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: perturbation entry 1 ")
        assert not out.exists()

    def test_integral_float_indices_accepted(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        pert = tmp_path / "floats.json"
        pert.write_text(json.dumps([{"k": 0.0, "i": 1.0, "c": 1.0}]))
        assert main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                     "--out", str(tmp_path / "tr")]) == 0
        assert "kernel rank 1" in capsys.readouterr().out
        assert (tmp_path / "tr" / "psi_k0_i1.csv").exists()

    def test_empty_perturbation_writes_base_potential(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        pert = tmp_path / "empty.json"
        pert.write_text("[]\n")
        out = tmp_path / "tr0"
        assert main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        qpot = load_potential_csv(str(out / "q_potential.csv"))
        assert np.max(np.abs(qpot.samples)) == 0.0

    def test_inadmissible_coefficient_exits_1(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        pert = tmp_path / "badc.json"
        # ||sin||^2 = pi/2, so c = -1 violates 1 + c ||phi||^2 > 0
        pert.write_text(json.dumps([{"k": 0, "i": 1, "c": -1.0}]))
        rc = main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "1 + c*||phi||^2" in capsys.readouterr().err

    def test_missing_out_is_a_usage_error(self, scalar_files, tmp_path, capsys, monkeypatch):
        prob, pert = scalar_files
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["transform", str(prob), str(pert)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_transformed_potential_rescan_roundtrip(self, scalar_files, tmp_path, capsys):
        # q_potential.csv reloaded as a grid potential reproduces the spectrum
        prob, pert = scalar_files
        out = tmp_path / "rt"
        assert main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        qpot = load_potential_csv(str(out / "q_potential.csv"))
        dirichlet = iso.BoundaryPair(np.eye(1), np.zeros((1, 1)))
        reloaded = iso.Problem(qpot, dirichlet, dirichlet)
        report = iso.scan_spectrum(reloaded, 0.5, 10.0)
        assert np.max(np.abs(report.sigma_sequence - [1.0, 4.0, 9.0])) < 1e-6
        # the 17-significant-digit CSV preserves samples bit-exactly, so the
        # reloaded problem rescans to the in-memory transform's spectrum
        scalar = iso.builtin_problem("scalar-zero")
        base = iso.scan_spectrum(scalar, 0.5, 10.0)
        new_problem, _ = iso.transform_problem(scalar, iso.build_perturbation(base, [(0, 1, 1.0)]))
        direct = iso.scan_spectrum(new_problem, 0.5, 10.0)
        assert np.max(np.abs(report.sigma_sequence - direct.sigma_sequence)) <= 1e-10


class TestVerify:
    def test_pipeline_passes(self, scalar_files, capsys):
        prob, pert = scalar_files
        rc = main(["verify", str(prob), str(pert), "--pipeline",
                   "--min", "0.5", "--max", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass] isospectral" in out
        assert "[pass] wave-eq" in out
        assert "[pass] trace" in out

    def test_two_problem_mode_shifted_fails(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        shifted = {"n": 1, "potential": {"kind": "constant-diagonal", "values": [0.1]},
                   "left": {"A": [[1.0]], "B": [[0.0]]},
                   "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "shifted.json"
        f.write_text(json.dumps(shifted))
        rc = main(["verify", str(prob), str(f), "--min", "0.5", "--max", "10"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert obj["verdict"] == "fail"
        assert abs(obj["maxShift"] - 0.1) < 1e-6

    def test_self_comparison_passes(self, scalar_files, capsys):
        prob, _ = scalar_files
        rc = main(["verify", str(prob), str(prob), "--min", "0.5", "--max", "10"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_paper_pipeline_passes(self, paper_files, capsys):
        prob, pert = paper_files
        rc = main(["verify", str(prob), str(pert), "--pipeline",
                   "--min", "-5", "--max", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[pass]") == 8 and "[FAIL]" not in out

    def test_non_finite_residual_exits_1(self, paper_files, tmp_path, monkeypatch, capsys):
        # a NaN in the kernel factor A makes the wave residual NaN, which no
        # tolerance may pass: exit 1, naming the identity, with no verify.json
        from isospec import verify
        wave = verify.residual_wave_equation

        def corrupted(kernel, base, q):
            a = kernel.a.copy()
            a[100] = np.nan
            return wave(dataclasses.replace(kernel, a=a), base, q)

        monkeypatch.setattr(verify, "residual_wave_equation", corrupted)
        prob, pert = paper_files
        rc = main(["verify", str(prob), str(pert), "--pipeline", "--min", "-5", "--max", "20",
                   "--out", str(tmp_path / "v")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "NonFiniteState" in captured.err and "wave-eq" in captured.err
        assert not (tmp_path / "v").exists()

    def test_paper_rank_two_pipeline_passes(self, paper_files, tmp_path, capsys):
        # both branches of the double eigenvalue 1: the second-order wave
        # residual read 6.43e-4 here at grid 401, over its 5e-4 tolerance
        prob, _ = paper_files
        pert = tmp_path / "pert2.json"
        pert.write_text('[{"k": 1, "i": 1, "c": 1, "theta": [-2, -1]},'
                        ' {"k": 1, "i": 2, "c": 0.5, "theta": [-2, 1]}]')
        rc = main(["verify", str(prob), str(pert), "--pipeline", "--min", "-5", "--max", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[pass]") == 10 and "[FAIL]" not in out
        wave = float(out.split("[pass] wave-eq: max residual ")[1].split()[0])
        assert wave <= 5e-5

    @pytest.mark.parametrize("command", ["verify", "transform"])
    def test_zero_norm_selection_exits_1(self, paper_files, tmp_path, capsys, command):
        # theta = 0 selects no eigenfunction: every residual would read 0 and
        # certify nothing
        prob, _ = paper_files
        pert = tmp_path / "zero.json"
        pert.write_text('[{"k": 1, "i": 1, "c": 1, "theta": [0, 0]}]')
        out = tmp_path / "never"
        flags = ["--pipeline"] if command == "verify" else []
        rc = main([command, str(prob), str(pert), *flags, "--min", "-5", "--max", "20",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ConditionViolated: entry (k=1, i=1)")
        assert not out.exists()

    def test_pipeline_grid_five_has_no_wave_residual(self, scalar_files, capsys):
        # 5 nodes leave no node pair for the five-point stencils in x and y
        prob, pert = scalar_files
        rc = main(["verify", str(prob), str(pert), "--pipeline", "--min", "0.5",
                   "--max", "5", "--grid", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: GridTooSmall: wave-equation residual needs at least 7")

    def test_corrupted_q_file_fails(self, scalar_files, tmp_path, capsys):
        # tamper with the written transformed potential, rebuild a problem
        # from it, and check the eigenvalue comparison flags the corruption
        prob, pert = scalar_files
        out = tmp_path / "c"
        assert main(["transform", str(prob), str(pert), "--min", "0.5", "--max", "10",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        qpot = load_potential_csv(str(out / "q_potential.csv"))
        from isospec.model import potential_to_csv_rows
        from isospec.serialize import write_csv
        corrupted = iso.GridPotential(qpot.grid, qpot.samples + 0.1)
        header, rows = potential_to_csv_rows(corrupted)
        write_csv(str(tmp_path / "qbad.csv"), header, rows)
        bad_problem = {"n": 1, "potential": {"kind": "grid", "path": "qbad.csv"},
                       "left": {"A": [[1.0]], "B": [[0.0]]},
                       "right": {"A": [[1.0]], "B": [[0.0]]}}
        f = tmp_path / "qbad-problem.json"
        f.write_text(json.dumps(bad_problem))
        rc = main(["verify", str(prob), str(f), "--min", "0.5", "--max", "10"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert obj["verdict"] == "fail"
        assert abs(obj["maxShift"] - 0.1) < 1e-3

    @pytest.mark.parametrize("shift_tol,rc", [("1e-4", 0), ("1e-15", 1)])
    def test_verify_json_matches_printed_verdicts(self, scalar_files, tmp_path, capsys,
                                                  shift_tol, rc):
        prob, pert = scalar_files
        out = tmp_path / "v"
        assert main(["verify", str(prob), str(pert), "--pipeline", "--min", "0.5",
                     "--max", "10", "--shift-tol", shift_tol, "--out", str(out)]) == rc
        printed = [(line.split("] ")[0][1:], line.split("] ")[1].split(":")[0])
                   for line in capsys.readouterr().out.splitlines()]
        obj = json.loads((out / "verify.json").read_text())
        written = [("pass" if obj["isospectral"]["verdict"] == "pass" else "FAIL", "isospectral")]
        written += [("pass" if r["passed"] else "FAIL", r["name"]) for r in obj["residuals"]]
        assert printed == written
        assert [v for v, _ in written].count("FAIL") == rc

    def test_two_problem_verify_json(self, scalar_files, tmp_path, capsys):
        prob, _ = scalar_files
        out = tmp_path / "v2"
        assert main(["verify", str(prob), str(prob), "--min", "0.5", "--max", "10",
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads((out / "verify.json").read_text()) == \
            {"isospectral": printed, "residuals": []}

    def test_count_mismatch_fails_with_null_shift(self, paper_files, tmp_path, capsys):
        # [-5, 3] holds three eigenvalues of the paper problem and two of free-2x2
        prob, _ = paper_files
        assert main(["example", "free-2x2"]) == 0
        free = tmp_path / "free.json"
        free.write_text(capsys.readouterr().out)
        out = tmp_path / "v"
        assert main(["verify", str(prob), str(free), "--min", "-5", "--max", "3",
                     "--out", str(out)]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["maxShift"] is None and printed["verdict"] == "fail"
        assert len(printed["pairsA"]) == 2 and len(printed["pairsB"]) == 1
        assert json.loads((out / "verify.json").read_text())["isospectral"] == printed

    def test_noise_level_residual_has_no_location(self, paper_files, tmp_path, capsys):
        # at grid 1601 the representation residual is 2.2e-16, and where it
        # peaks moved between revisions with no change to any verdict
        prob, pert = paper_files
        out = tmp_path / "v"
        assert main(["verify", str(prob), str(pert), "--pipeline", "--grid", "1601",
                     "--min", "-5", "--max", "20", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads((out / "verify.json").read_text())["residuals"]
        located = {r["name"]: r["location"] is not None for r in rows}
        assert located == {"wave-eq": True, "goursat": False, "trace": True, "eigen-ode": True,
                           "eigen-bc": True, "endpoint": False, "representation": False}
        assert all((r["maxResidual"] >= iso.verify.LOCATION_FLOOR) == located[r["name"]]
                   for r in rows)

    @pytest.mark.parametrize("shift_tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("pipeline", [[], ["--pipeline"]], ids=["two-problem", "pipeline"])
    def test_bad_shift_tol_exits_2(self, scalar_files, tmp_path, capsys, shift_tol, pipeline):
        prob, pert = scalar_files
        second = pert if pipeline else prob
        out = tmp_path / "v"
        assert main(["verify", str(prob), str(second), *pipeline, "--min", "0.5", "--max", "10",
                     "--shift-tol", shift_tol, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: shift tolerance must be positive and finite (--shift-tol)\n"

    @pytest.mark.parametrize("command", ["verify", "transform"])
    def test_format_flag_rejected(self, scalar_files, tmp_path, command, capsys):
        prob, pert = scalar_files
        with pytest.raises(SystemExit) as exc:
            main([command, str(prob), str(pert), "--out", str(tmp_path / "o"), "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestIOErrors:
    @pytest.mark.parametrize("argv", [
        "spectrum {prob} --min 0.5 --max 10 --out {prob}",
        "validate {tmp}",
        "transform {prob} {pert} --min 0.5 --max 10 --out {prob}/x",
        "verify {prob} {pert} --pipeline --min 0.5 --max 10 --out {prob}",
    ], ids=["out-is-a-file", "problem-is-a-directory", "out-below-a-file", "verify-out-is-a-file"])
    def test_os_error_exits_2(self, scalar_files, tmp_path, capsys, argv):
        prob, pert = scalar_files
        assert main(argv.format(prob=prob, pert=pert, tmp=tmp_path).split()) == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")

    @pytest.mark.parametrize("argv", [
        "spectrum {prob} --min 0.5 --max 10 --out {prob}",
        "spectrum {prob} --min 0.5 --max 10 --format csv --out {prob}",
        "verify {prob} {pert} --pipeline --min 0.5 --max 10 --out {prob}",
        "verify {prob} {prob} --min 0.5 --max 10 --out {prob}",
    ], ids=["spectrum", "spectrum-csv", "verify-pipeline", "verify-two-problem"])
    def test_unwritable_out_prints_nothing(self, scalar_files, capsys, argv):
        # the results are computed, but none reach stdout when --out fails
        prob, pert = scalar_files
        assert main(argv.format(prob=prob, pert=pert).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 17] File exists")


class TestExample:
    def test_unknown_name_exits_1(self, capsys):
        assert main(["example", "nope"]) == 1
        assert "unknown builtin" in capsys.readouterr().err

    def test_json_is_fixed_format(self, capsys):
        assert main(["example", "scalar-zero"]) == 0
        text = capsys.readouterr().out
        assert text == dumps_json(iso.problem_to_json_obj(iso.builtin_problem("scalar-zero")))
