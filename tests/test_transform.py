import dataclasses

import numpy as np
import pytest

import isospec as iso
from isospec.errors import (ConditionViolated, GridMismatch, IndexOutOfRange,
                            SingularResolvent)
from isospec.quadrature import running_integral
from isospec.transform import solve_kernel

import oracles


class TestBuildPerturbation:
    def test_mixed_eigenfunction_accepted(self, paper_report):
        pert = oracles.mixed_perturbation(paper_report)
        assert pert.rank == 1
        assert abs(pert.norms_sq[0] - np.pi) < 1e-7     # int sin^2 2x + sin^2 x = pi
        # selected eigenfunction really is (sin 2x, sin x)
        xs = pert.grid.nodes
        phi = pert.phis[:, :, 0]
        assert np.max(np.abs(phi - oracles.mixed_phi(xs))) < 1e-7

    def test_condition_violated_with_margin_report(self, paper_report):
        with pytest.raises(ConditionViolated) as err:
            oracles.mixed_perturbation(paper_report, c=-2.0 / np.pi)
        assert "1 + c*||phi||^2" in str(err.value)

    def test_empty_accepted(self, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        assert pert.rank == 0

    def test_index_errors(self, scalar_report):
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(99, 1, 1.0)])
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(0, 2, 1.0)])
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(0, 1, 0.5), (0, 1, 0.2)])

    def test_theta_must_be_null_vector(self, paper_report):
        k4 = oracles.pair_index(paper_report, 4.0)     # simple eigenvalue of the second channel
        with pytest.raises(iso.errors.NotAnEigenvalue):
            iso.build_perturbation(paper_report, [{"k": k4, "i": 1, "c": 1.0,
                                                   "theta": [1.0, 0.0]}])

    def test_theta_off_the_eigenspace_is_refused(self, paper_report):
        # the eigenspace at the simple eigenvalue 4 is spanned by (0, 1)
        k4 = oracles.pair_index(paper_report, 4.0)
        with pytest.raises(iso.errors.NotAnEigenvalue, match="not in the eigenspace"):
            iso.build_perturbation(paper_report, [{"k": k4, "i": 1, "c": 1.0,
                                                   "theta": [1e-3, 1.0]}])

    @pytest.mark.parametrize("i", [1, 2])
    def test_stored_column_as_theta_selects_the_stored_branch(self, paper_report, i):
        k1 = oracles.pair_index(paper_report, 1.0)
        column = paper_report.pairs[k1].thetas[:, i - 1]
        plain = iso.build_perturbation(paper_report, [(k1, i, 1.0)])
        given = iso.build_perturbation(paper_report, [{"k": k1, "i": i, "c": 1.0,
                                                       "theta": list(column)}])
        tripled = iso.build_perturbation(paper_report, [{"k": k1, "i": i, "c": 1.0,
                                                         "theta": list(3 * column)}])
        for name in ("thetas", "phis", "phi_derivs", "norms_sq"):
            assert np.array_equal(getattr(given, name), getattr(plain, name))
        assert np.allclose(tripled.phis, 3 * plain.phis, rtol=1e-13, atol=0)
        assert np.allclose(tripled.phi_derivs, 3 * plain.phi_derivs, rtol=1e-13, atol=0)
        assert np.allclose(tripled.norms_sq, 9 * plain.norms_sq, rtol=1e-13, atol=0)

    def test_theta_selection_integrates_no_ode(self, paper_report, monkeypatch):
        # the selection is read from the stored eigenspace; every IVP
        # integration (integrate_ivp, integrate_final_batch) starts here
        from isospec import ode
        monkeypatch.setattr(ode, "_initial_state", lambda *a: pytest.fail("integrated"))
        pert = oracles.mixed_perturbation(paper_report)
        assert pert.rank == 1

    def test_same_eigenspace_selections_must_be_orthogonal(self, paper_report):
        k1 = oracles.pair_index(paper_report, 1.0)
        entries = [{"k": k1, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]},
                   {"k": k1, "i": 2, "c": 0.5, "theta": [1.0, 1.0]}]
        with pytest.raises(ConditionViolated):
            iso.build_perturbation(paper_report, entries)

    def test_orthogonal_pair_in_eigenspace_accepted(self, paper_report):
        # (sin 2x, sin x) and (sin 2x, -4 sin x)/2... : theta (-2, 1) gives (sin 2x, -sin x)
        k1 = oracles.pair_index(paper_report, 1.0)
        entries = [{"k": k1, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]},
                   {"k": k1, "i": 2, "c": 0.5, "theta": [-2.0, 1.0]}]
        pert = iso.build_perturbation(paper_report, entries)
        assert pert.rank == 2


class TestSolveKernel:
    def test_rank_one_closed_form_mixed(self, mixed_rank_one):
        kernel = mixed_rank_one["kernel"]
        self._check_rank_one(kernel, c=1.0)

    def test_rank_one_closed_form_diagonal(self, paper, paper_report):
        pert = oracles.diagonal_perturbation(paper_report)
        self._check_rank_one(solve_kernel(pert), c=1.0)

    def test_rank_one_closed_form_scalar(self, scalar_transform):
        self._check_rank_one(scalar_transform["kernel"], c=1.0)

    @staticmethod
    def _check_rank_one(kernel, c):
        # oracle: k_ij(x,y) = -c phi_i(x) phi_j(y) / (1 + c int_0^x |phi|^2),
        # with the same running quadrature in the denominator
        g = kernel.grid
        phi = kernel.phi[:, :, 0]
        denom = 1.0 + c * running_integral(np.einsum("qn,qn->q", phi, phi), g.h)
        expected = np.einsum("i,in,jm->ijnm", -c / denom, phi, phi)
        actual = oracles.dense_kernel(kernel)
        tri = np.tril_indices(g.n)
        assert np.max(np.abs(actual[tri] - expected[tri])) <= 1e-10

    def test_zero_above_diagonal(self, mixed_rank_one):
        k = oracles.dense_kernel(mixed_rank_one["kernel"])
        iy, ix = np.meshgrid(np.arange(k.shape[0]), np.arange(k.shape[0]), indexing="ij")
        assert np.max(np.abs(k[iy < ix])) == 0.0

    def test_integral_equation_residual(self, mixed_rank_one):
        # K(pi, y) + F(pi, y) + int_0^pi K(pi, t) F(t, y) dt = 0 for every node y,
        # with the same running quadrature: residual is round-off only
        kernel = mixed_rank_one["kernel"]
        g = kernel.grid
        phi = kernel.phi[:, :, 0]
        c = kernel.coeffs[0]
        kmat = oracles.dense_kernel(kernel)
        fmat = c * np.einsum("in,jm->ijnm", phi, phi)
        integrand = np.einsum("tnm,tjmk->tjnk", kmat[-1], fmat)
        tail = running_integral(integrand, g.h)[-1]
        residual = kmat[-1] + fmat[-1] + tail
        assert np.max(np.abs(residual)) < 1e-12

    def test_coefficients_at_origin(self, mixed_rank_one):
        kernel = mixed_rank_one["kernel"]
        expected = -kernel.coeffs[0] * kernel.phi[0, :, 0]
        assert np.max(np.abs(kernel.a[0, :, 0] - expected)) < 1e-14

    def test_kpipi_vanishes_for_dirichlet_eigenfunction(self, mixed_rank_one):
        # phi(pi) = 0, so K(pi, pi) = 0
        assert np.max(np.abs(mixed_rank_one["kernel"].kpipi)) < 1e-10

    def test_empty_kernel(self, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        kernel = solve_kernel(pert)
        assert kernel.rank == 0
        assert np.array_equal(kernel.k00, np.zeros((1, 1)))

    def test_singular_resolvent_detected(self, scalar_transform):
        # bypass admissibility to force 1 + c g(x) = 0 inside (0, pi)
        pert = scalar_transform["pert"]
        bad = dataclasses.replace(pert, coeffs=np.array([-0.7]))
        with pytest.raises(SingularResolvent):
            solve_kernel(bad)


class TestPotentialQ:
    def test_matches_displayed_closed_form(self, paper, mixed_rank_one):
        # measured 6.0e-9 at n=401; the closed form is fully analytic
        kernel = mixed_rank_one["kernel"]
        q = mixed_rank_one["problem"].potential
        xs = kernel.grid.nodes
        expected = np.array([oracles.mixed_q(x) for x in xs])
        assert np.max(np.abs(q.samples - expected)) <= 1e-8

    def test_diagonal_selection_gives_diagonal_q(self, paper, paper_report):
        pert = oracles.diagonal_perturbation(paper_report)
        kernel = solve_kernel(pert)
        q = iso.potential_q(kernel, paper.potential)
        xs = kernel.grid.nodes
        assert np.max(np.abs(q.samples[:, 0, 0] + 3.0)) == 0.0
        assert np.max(np.abs(q.samples[:, 0, 1])) == 0.0
        expected = np.array([oracles.diagonal_q22(x) for x in xs])
        assert np.max(np.abs(q.samples[:, 1, 1] - expected)) < 1e-8

    def test_empty_perturbation_samples_base(self, paper, paper_report):
        pert = iso.build_perturbation(paper_report, [])
        q = iso.potential_q(solve_kernel(pert), paper.potential)
        nodes = paper_report.grid.nodes
        assert np.array_equal(q.samples, paper.potential.evaluate_many(nodes))

    def test_symmetry_defect_recorded(self, mixed_rank_one):
        q = mixed_rank_one["problem"].potential
        assert q.symmetry_defect <= 1e-9
        assert np.array_equal(q.samples, q.samples.transpose(0, 2, 1))


class TestBoundaryMatrices:
    def test_dirichlet_identity(self, paper, mixed_rank_one):
        atilde, catilde = iso.boundary_matrices(mixed_rank_one["kernel"], paper)
        assert np.array_equal(atilde, np.eye(2))
        assert np.array_equal(catilde, np.eye(2))

    def test_empty_unchanged(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        atilde, catilde = iso.boundary_matrices(solve_kernel(pert), scalar)
        assert np.array_equal(atilde, scalar.left.A)
        assert np.array_equal(catilde, scalar.right.A)

    def test_neumann_left_k00_from_representation(self, neumann_left, neumann_transform):
        # K(0,0) = a_1(0) phi_1(0)^T = -c phi(0) phi(0)^T with phi(0) = B^T theta
        kernel = neumann_transform["kernel"]
        pert = neumann_transform["pert"]
        expected = -pert.coeffs[0] * np.outer(kernel.phi[0, :, 0], kernel.phi[0, :, 0])
        assert np.max(np.abs(kernel.k00 - expected)) < 1e-14
        atilde = neumann_transform["problem"].left.A
        assert np.max(np.abs(atilde - (neumann_left.left.A - neumann_left.left.B @ kernel.k00))) == 0.0

    def test_selfadjointness_preserved(self, neumann_transform):
        d = neumann_transform["result"].diagnostics
        assert d["selfadjoint_defect_left"] <= 1e-10
        assert d["selfadjoint_defect_right"] <= 1e-10


class TestTransformEigenfunction:
    def test_endpoint_value_vanishes(self, mixed_rank_one):
        # psi(pi) = phi(pi) / (1 + c ||phi||^2) and phi(pi) = 0 here
        psi = mixed_rank_one["result"].psi[:, :, 0]
        assert np.max(np.abs(psi[-1])) < 1e-8

    def test_rank_one_closed_form(self, mixed_rank_one):
        # psi = phi / (1 + c g(x)) with the same running g
        kernel = mixed_rank_one["kernel"]
        psi = mixed_rank_one["result"].psi[:, :, 0]
        phi = kernel.phi[:, :, 0]
        g = running_integral(np.einsum("qn,qn->q", phi, phi), kernel.grid.h)
        assert np.max(np.abs(psi - phi / (1 + g)[:, None])) < 1e-13

    def test_initial_value_preserved(self, scalar_transform):
        kernel = scalar_transform["kernel"]
        psi = scalar_transform["result"].psi[:, :, 0]
        assert np.array_equal(psi[0], kernel.phi[0, :, 0])

    def test_empty_kernel_is_identity(self, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        kernel = solve_kernel(pert)
        pair = scalar_report.pairs[0]
        psi, dpsi = iso.transform_eigenfunction(kernel, pair.phis, pair.phi_derivs)
        assert np.array_equal(psi, pair.phis)
        assert np.array_equal(dpsi, pair.phi_derivs)

    @pytest.mark.parametrize("which", ["mixed-rank-one", "paper-rank-two"])
    def test_stack_equals_column_by_column(self, paper_report, mixed_rank_one, which):
        # one L = 3 call gives the same bits as three single-column calls
        if which == "mixed-rank-one":
            kernel = mixed_rank_one["kernel"]
        else:
            k1 = oracles.pair_index(paper_report, 1.0)
            k0 = oracles.pair_index(paper_report, -2.0)
            kernel = solve_kernel(iso.build_perturbation(paper_report, [(k0, 1, 0.8), (k1, 2, -0.1)]))
        # the selections themselves, then eigenfunctions of the scan
        phi = np.concatenate([kernel.phi] + [p.phis for p in paper_report.pairs], axis=2)[:, :, :3]
        dphi = np.concatenate([kernel.dphi] + [p.phi_derivs for p in paper_report.pairs],
                              axis=2)[:, :, :3]
        psi, dpsi = iso.transform_eigenfunction(kernel, phi, dphi)
        assert psi.shape == dpsi.shape == phi.shape
        for j in range(3):
            one, done = iso.transform_eigenfunction(kernel, phi[:, :, j:j + 1], dphi[:, :, j:j + 1])
            assert np.array_equal(psi[:, :, j:j + 1], one)
            assert np.array_equal(dpsi[:, :, j:j + 1], done)
            # and the same bits as the one-vector contraction psi = phi + A w
            w = running_integral(np.einsum("qnm,qn->qm", kernel.phi, phi[:, :, j]), kernel.grid.h)
            assert np.array_equal(psi[:, :, j], phi[:, :, j] + np.einsum("qnm,qm->qn", kernel.a, w))

    def test_grid_mismatch(self, mixed_rank_one):
        coarse = np.zeros((51, 2, 1))
        with pytest.raises(GridMismatch):
            iso.transform_eigenfunction(mixed_rank_one["kernel"], coarse, coarse)

    def test_fine_grid_ode_residual(self, paper, paper_report):
        # -psi'' + Q psi = psi to 1e-6 on a fine grid: n = 12801
        lam = paper_report.pairs[oracles.pair_index(paper_report, 1.0)].lam
        grid = iso.Grid.uniform(12801)
        pair = iso.eigenbasis(paper, lam, grid)
        report = iso.SpectrumReport(paper, grid, (0.5, 1.5),
                                    iso.ScanOptions(grid_nodes=12801), (pair,))
        pert = iso.build_perturbation(report, [{"k": 0, "i": 1, "c": 1.0,
                                                "theta": [-2.0, -1.0]}])
        new_problem, result = iso.transform_problem(paper, pert)
        res = iso.residual_transformed_eigen(new_problem, lam, result.psi[:, :, 0],
                                             result.dpsi[:, :, 0], tolerance=1e-6)[0]
        assert res.max_residual <= 1e-6


class TestIdentities:
    def test_representation_a_equals_minus_c_psi(self, mixed_rank_one):
        rep = iso.residual_representation(mixed_rank_one["kernel"], mixed_rank_one["result"].psi)
        assert rep.max_residual <= 1e-9

    def test_endpoint_formula_relative(self, mixed_rank_one):
        rep = iso.residual_endpoint(mixed_rank_one["kernel"], mixed_rank_one["pert"],
                                    mixed_rank_one["result"].psi)
        assert rep.max_residual <= 1e-8

    def test_rank_two_transform_still_isospectral_identities(self, paper, paper_report):
        k1 = oracles.pair_index(paper_report, 1.0)
        k0 = oracles.pair_index(paper_report, -2.0)
        pert = iso.build_perturbation(paper_report, [(k0, 1, 0.8), (k1, 2, -0.1)])
        kernel = solve_kernel(pert)
        new_problem, result = iso.transform_problem(paper, pert)
        rep = iso.residual_representation(kernel, result.psi)
        assert rep.max_residual <= 1e-9
        gs = iso.residual_goursat(kernel, paper)
        assert gs[1].max_residual <= 1e-6


class TestTransformProblem:
    def test_empty_perturbation_takes_general_path(self, neumann_left):
        # rank 0 runs the general formulas: empty stacks, Q = P at the nodes,
        # Atilde = A, and identities that hold exactly
        report = iso.scan_spectrum(neumann_left, 0.0, 8.0)
        pert = iso.build_perturbation(report, [])
        new_problem, result = iso.transform_problem(neumann_left, pert)
        n = report.grid.n
        assert result.kernel.a.shape == result.psi.shape == result.dpsi.shape == (n, 1, 0)
        nodes = report.grid.nodes
        assert np.array_equal(new_problem.potential.evaluate_many(nodes),
                              neumann_left.potential.evaluate_many(nodes))
        assert np.array_equal(new_problem.left.A, neumann_left.left.A)
        assert np.array_equal(new_problem.right.A, neumann_left.right.A)
        reps = iso.residual_goursat(result.kernel, neumann_left)
        reps.append(iso.residual_representation(result.kernel, result.psi))
        assert [(r.name, r.max_residual, r.location) for r in reps] == [
            ("goursat", 0.0, 0.0), ("trace", 0.0, 0.0), ("representation", 0.0, 0.0)]

    def test_scalar_rank_one_spectrum_preserved(self, scalar, scalar_transform):
        new_problem = scalar_transform["problem"]
        report = iso.scan_spectrum(new_problem, 0.5, 10.0)
        assert np.max(np.abs(report.sigma_sequence - [1.0, 4.0, 9.0])) < 1e-6
        # and the potential matches the scalar closed form
        q = scalar_transform["problem"].potential
        expected = np.array([oracles.scalar_q(x) for x in q.grid.nodes])
        assert np.max(np.abs(q.samples[:, 0, 0] - expected)) < 1e-8

    def test_result_diagnostics(self, mixed_rank_one):
        d = mixed_rank_one["result"].diagnostics
        assert d["rank"] == 1
        assert d["q_presymmetrization_defect"] <= 1e-9
        assert d["resolvent_min_sigma"] > 0.2
        assert "atilde_alternative_sign_gap" in d
