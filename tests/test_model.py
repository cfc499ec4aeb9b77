import json

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import isospec as iso
from isospec.errors import DimensionMismatch, OutOfDomain, UnknownName
from isospec.model import (_cyclic_reduction, load_potential_csv, potential_to_csv_rows,
                           problem_from_json_obj, problem_to_json_obj)


class TestGrid:
    def test_uniform_endpoints_exact(self):
        g = iso.Grid.uniform(401)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == np.pi
        assert g.n == 401
        assert np.isclose(g.h, np.pi / 400)

    def test_rejects_tiny_and_nonuniform(self):
        with pytest.raises(ValueError):
            iso.Grid(np.array([0.0, np.pi]))
        with pytest.raises(ValueError):
            iso.Grid(np.array([0.0, 1.0, np.pi]))
        with pytest.raises(ValueError):
            iso.Grid(np.linspace(0, 3.0, 11))


class TestPotentials:
    def test_constant_diagonal(self):
        pot = iso.ConstantDiagonalPotential([-3.0, 0.0])
        assert pot.dimension == 2
        assert np.array_equal(pot.evaluate_many([1.3])[0], np.diag([-3.0, 0.0]))

    def test_grid_potential_node_values_exact(self):
        g = iso.Grid.uniform(41)
        samples = np.einsum("q,ab->qab", np.sin(g.nodes), np.array([[2.0, 1.0], [1.0, 0.5]]))
        pot = iso.GridPotential(g, samples)
        for i in (0, 7, 40):
            assert np.array_equal(pot.evaluate_many([g.nodes[i]])[0], samples[i])

    def test_grid_potential_between_nodes_symmetric_and_accurate(self):
        g = iso.Grid.uniform(201)
        samples = np.einsum("q,ab->qab", np.cos(g.nodes), np.eye(2))
        pot = iso.GridPotential(g, samples)
        x = 1.2345
        m = pot.evaluate_many([x])[0]
        assert np.array_equal(m, m.T)
        assert abs(m[0, 0] - np.cos(x)) < 1e-8

    @staticmethod
    def assert_matches_cubic_spline(n, n_dim, scale=1.0):
        g = iso.Grid.uniform(n)
        rng = np.random.default_rng(10 * n + n_dim)
        noise = rng.standard_normal((n, n_dim, n_dim))
        samples = (np.einsum("q,ab->qab", np.cos(3 * g.nodes), np.diag(np.arange(1.0, n_dim + 1)))
                   + 0.1 * (noise + noise.transpose(0, 2, 1)))
        half = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        xs = np.concatenate([g.nodes, half, [0.0, np.pi], rng.uniform(0.0, np.pi, 200)])
        with np.errstate(over="raise", under="raise", invalid="raise"):
            pot = iso.GridPotential(g, scale * samples)
            got = pot.evaluate_many(xs)
        expect = CubicSpline(g.nodes, pot.samples, axis=0)(xs)
        expect = 0.5 * (expect + expect.transpose(0, 2, 1))
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=1e-14 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("n_dim", [1, 2, 4])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 400, 401, 1601])
    def test_grid_potential_matches_scipy_cubic_spline(self, n, n_dim):
        # the in-house not-a-knot spline agrees with scipy's CubicSpline, the
        # parabola through three points included, to a few ulp of the samples
        self.assert_matches_cubic_spline(n, n_dim)

    @pytest.mark.parametrize("m", [1, 2, 32, 33, 34, 65, 66, 127, 400, 1599])
    def test_cyclic_reduction_solves_dominant_tridiagonal_systems(self, m):
        # every parity of every level: the odd-even reduction against a dense LU
        rng = np.random.default_rng(m)
        lo, up = rng.uniform(-1.0, 1.0, (2, m))
        lo[0] = up[-1] = 0.0
        mid = 2.0 + rng.uniform(0.0, 1.0, m)
        r = rng.standard_normal((m, 3))
        dense = np.diag(mid) + np.diag(up[:-1], 1) + np.diag(lo[1:], -1)
        np.testing.assert_allclose(_cyclic_reduction(lo, mid, up, r), np.linalg.solve(dense, r),
                                   rtol=0, atol=1e-14 * np.max(np.abs(r)))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("n", [3, 6, 401])
    def test_spline_of_extreme_samples(self, n, scale):
        # the slope solve neither overflows nor underflows at either scale
        self.assert_matches_cubic_spline(n, 2, scale)

    def test_asymmetric_samples_recorded_and_symmetrized(self):
        g = iso.Grid.uniform(11)
        samples = np.zeros((11, 2, 2))
        samples[:, 0, 1] = 1e-3
        pot = iso.GridPotential(g, samples)
        assert pot.symmetry_defect > 1e-12
        assert np.array_equal(pot.samples[3], pot.samples[3].T)

    def test_domain_enforced(self):
        pot = iso.ConstantDiagonalPotential([0.0])
        with pytest.raises(OutOfDomain):
            pot.evaluate_many(np.array([3.5]))

    def test_evaluate_many_accepts_lists(self):
        g = iso.Grid.uniform(41)
        samples = np.einsum("q,ab->qab", np.cos(g.nodes), np.array([[1.0, 0.5], [0.5, -1.0]]))
        for pot in (iso.ConstantDiagonalPotential([-3.0, 0.0]), iso.GridPotential(g, samples)):
            assert np.array_equal(pot.evaluate_many([1.3]), pot.evaluate_many(np.array([1.3])))
            assert pot.evaluate_many([0.0, 1.3]).shape == (2, 2, 2)
            with pytest.raises(OutOfDomain):
                pot.evaluate_many([3.5])


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("make, field", [
        (lambda v: iso.Grid(np.where(np.arange(11) == 5, v, np.linspace(0, np.pi, 11))),
         "grid nodes"),
        (lambda v: iso.ConstantDiagonalPotential([v, 0.0]), "constant-diagonal potential values"),
        (lambda v: iso.GridPotential(iso.Grid.uniform(11),
                                     np.where(np.arange(11)[:, None, None] == 3, v,
                                              np.zeros((11, 2, 2)))), "grid potential samples"),
        (lambda v: iso.BoundaryPair(np.array([[1.0, v], [v, 1.0]]), np.zeros((2, 2))),
         "boundary matrix A"),
        (lambda v: iso.BoundaryPair(np.eye(2), np.array([[0.0, 0.0], [0.0, v]])),
         "boundary matrix B"),
    ], ids=["grid", "constant-diagonal", "grid-potential", "boundary-A", "boundary-B"])
    def test_constructor_names_the_field(self, make, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            make(bad)

    def test_json_nan_rejected_on_load(self):
        obj = json.loads('{"n": 1, "potential": {"kind": "constant-diagonal", "values": [0]},'
                         ' "left": {"A": [[NaN]], "B": [[0]]}, "right": {"A": [[1]], "B": [[0]]}}')
        with pytest.raises(ValueError, match="boundary matrix A"):
            problem_from_json_obj(obj)


class TestValidation:
    def test_builtins_all_pass(self):
        for name in ("paper-example-2x2", "scalar-zero", "free-2x2"):
            report = iso.validate_problem(iso.builtin_problem(name))
            assert report.all_passed, str(report)

    def test_zero_pair_fails_rank(self):
        p = iso.Problem(iso.ConstantDiagonalPotential([0.0, 0.0]),
                        iso.BoundaryPair(np.zeros((2, 2)), np.zeros((2, 2))),
                        iso.BoundaryPair(np.eye(2), np.zeros((2, 2))))
        report = iso.validate_problem(p)
        assert not report.all_passed
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["left pair rank [A, B] = N"]

    def test_nonsymmetric_pair_fails(self):
        # A not symmetric and B = I forces B A^T != A B^T
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = iso.Problem(iso.ConstantDiagonalPotential([0.0, 0.0]),
                        iso.BoundaryPair(a, np.eye(2)),
                        iso.BoundaryPair(np.eye(2), np.zeros((2, 2))))
        report = iso.validate_problem(p)
        names = [c.name for c in report.checks if not c.passed]
        assert names == ["left pair B*A^T = A*B^T"]

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            iso.Problem(iso.ConstantDiagonalPotential([0.0]),
                        iso.BoundaryPair(np.eye(2), np.zeros((2, 2))),
                        iso.BoundaryPair(np.eye(2), np.zeros((2, 2))))

    def test_validated_invariants(self):
        p = iso.builtin_problem("paper-example-2x2")
        for pair in (p.left, p.right):
            scale = 1 + np.linalg.norm(pair.A, 2) * np.linalg.norm(pair.B, 2)
            assert pair.symmetry_defect() <= 1e-12 * scale
            assert pair.rank_ratio() > 1e-10


class TestBuiltins:
    def test_paper_example_is_the_worked_setup(self):
        p = iso.builtin_problem("paper-example-2x2")
        assert p.n == 2
        assert np.array_equal(p.potential.evaluate_many([0.3])[0], np.diag([-3.0, 0.0]))
        assert np.array_equal(p.left.A, np.eye(2))
        assert np.array_equal(p.left.B, np.zeros((2, 2)))
        assert np.array_equal(p.right.A, np.eye(2))

    def test_scalar_zero_and_free(self):
        assert iso.builtin_problem("scalar-zero").n == 1
        assert iso.builtin_problem("free-2x2").n == 2

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            iso.builtin_problem("does-not-exist")


class TestSerialization:
    def test_problem_json_roundtrip(self):
        p = iso.builtin_problem("paper-example-2x2")
        obj = problem_to_json_obj(p)
        assert obj["n"] == 2
        assert obj["potential"]["kind"] == "constant-diagonal"
        q = problem_from_json_obj(json.loads(json.dumps(obj)))
        assert np.array_equal(q.left.A, p.left.A)
        assert np.array_equal(q.potential.evaluate_many([0.5]), p.potential.evaluate_many([0.5]))

    def test_grid_potential_csv_roundtrip(self, tmp_path):
        g = iso.Grid.uniform(41)
        samples = np.einsum("q,ab->qab", np.sin(g.nodes) + 2.0,
                            np.array([[1.0, 0.25], [0.25, -0.5]]))
        pot = iso.GridPotential(g, samples)
        header, rows = potential_to_csv_rows(pot)
        assert header == ["x", "p11", "p12", "p22"]
        path = tmp_path / "pot.csv"
        from isospec.serialize import write_csv
        write_csv(str(path), header, rows)
        loaded = load_potential_csv(str(path))
        assert loaded.dimension == 2
        assert np.array_equal(loaded.samples, pot.samples)

    def test_problem_json_with_grid_csv_path(self, tmp_path):
        g = iso.Grid.uniform(21)
        pot = iso.GridPotential(g, np.zeros((21, 1, 1)))
        header, rows = potential_to_csv_rows(pot)
        from isospec.serialize import write_csv
        write_csv(str(tmp_path / "p.csv"), header, rows)
        obj = {"n": 1, "potential": {"kind": "grid", "path": "p.csv"},
               "left": {"A": [[1.0]], "B": [[0.0]]},
               "right": {"A": [[1.0]], "B": [[0.0]]}}
        (tmp_path / "prob.json").write_text(json.dumps(obj))
        p = iso.load_problem(str(tmp_path / "prob.json"))
        assert p.n == 1
        assert iso.validate_problem(p).all_passed

    def test_builtin_kind_roundtrip(self):
        obj = {"n": 2, "potential": {"kind": "builtin", "name": "paper-example-2x2"},
               "left": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]},
               "right": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]}}
        p = problem_from_json_obj(obj)
        assert np.array_equal(p.potential.evaluate_many([1.0])[0], np.diag([-3.0, 0.0]))


class TestPublicApi:
    def test_all_is_pinned_and_resolves(self):
        assert iso.__all__ == [
            "BoundaryPair", "ConstantDiagonalPotential", "Eigenpair", "Grid",
            "GridPotential", "IsospectralReport", "KernelField", "MatrixPotential",
            "Perturbation", "PerturbationEntry", "Problem", "ResidualReport",
            "SpectrumReport", "ValidationReport", "boundary_matrices", "build_perturbation",
            "builtin_problem", "check_isospectral",
            "commutator_diagnostic", "compare_spectra", "eigenbasis", "errors",
            "fd_oracle_eigenvalues", "integral", "integrate_ivp", "load_potential_csv",
            "load_problem", "pipeline_residuals", "potential_q", "problem_from_json_obj",
            "problem_to_json_obj", "residual_endpoint", "residual_goursat",
            "residual_representation", "residual_transformed_eigen",
            "residual_wave_equation", "running_integral", "scan_spectrum",
            "solve_kernel", "transform_eigenfunction", "transform_problem",
            "validate_problem",
        ]
        assert iso.__all__ == sorted(iso.__all__)
        assert all(getattr(iso, name) is not None for name in iso.__all__)
