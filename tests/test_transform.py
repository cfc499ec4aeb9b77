import dataclasses

import numpy as np
import pytest

import isospec as iso
from isospec.errors import (ConditionViolated, GridMismatch, IndexOutOfRange,
                            SingularResolvent)
from isospec.quadrature import running_integral
from isospec import transform
from isospec.transform import RESOLVENT_TOL, kernel_diagnostics, solve_kernel

import oracles


def svd_resolvent_test(res_mat, nodes):
    """The message of the resolvent test taken with the SVD at every node, or None."""
    dets = np.linalg.det(res_mat)
    sv = np.linalg.svd(res_mat, compute_uv=False)
    sv_min = sv.min(axis=1, initial=np.inf)
    bad = (dets <= RESOLVENT_TOL) | (sv_min <= RESOLVENT_TOL * sv.max(axis=1, initial=1.0))
    if not bad.any():
        return None
    q = int(np.argmax(bad))
    return (f"I + G(x)C is singular on [0, x] for x = {nodes[q]:.6g} "
            f"(det = {dets[q]:.3e}, sigma_min = {sv_min[q]:.3e})")


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

    @pytest.mark.parametrize("theta", [[0.0, 0.0], [1e-300, 0.0]], ids=["zero", "underflow"])
    def test_zero_norm_selection_is_refused(self, paper_report, theta):
        # ||phi||^2 = 0 gives F = 0: every residual would read 0 and certify nothing
        k1 = oracles.pair_index(paper_report, 1.0)
        with pytest.raises(ConditionViolated, match=rf"entry \(k={k1}, i=1\).*not positive"):
            iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": 1.0, "theta": theta}])

    def test_empty_accepted(self, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        assert pert.rank == 0

    def test_numpy_numbers_accepted(self, paper_report):
        k1 = oracles.pair_index(paper_report, 1.0)
        plain = iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": 1.0,
                                                       "theta": [-2.0, -1.0]}])
        typed = iso.build_perturbation(paper_report, [{"k": np.int64(k1), "i": np.int32(1),
                                                       "c": np.float64(1.0),
                                                       "theta": np.array([-2, -1])}])
        assert typed.entries == plain.entries
        assert np.array_equal(typed.phis, plain.phis)

    def test_index_errors(self, scalar_report):
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(99, 1, 1.0)])
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(0, 2, 1.0)])
        with pytest.raises(IndexOutOfRange):
            iso.build_perturbation(scalar_report, [(0, 1, 0.5), (0, 1, 0.2)])

    def test_index_into_an_empty_window_names_the_window(self, paper):
        # [1.5, 3] holds no eigenvalue of the paper example
        report = iso.scan_spectrum(paper, 1.5, 3.0)
        with pytest.raises(IndexOutOfRange, match=r"the window \[1\.5, 3\] holds 0 distinct "
                                                  r"eigenvalues"):
            iso.build_perturbation(report, [(1, 1, 1.0)])

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
        phi = kernel.pert.phis[:, :, 0]
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
        phi = kernel.pert.phis[:, :, 0]
        c = kernel.pert.coeffs[0]
        kmat = oracles.dense_kernel(kernel)
        fmat = c * np.einsum("in,jm->ijnm", phi, phi)
        integrand = np.einsum("tnm,tjmk->tjnk", kmat[-1], fmat)
        tail = running_integral(integrand, g.h)[-1]
        residual = kmat[-1] + fmat[-1] + tail
        assert np.max(np.abs(residual)) < 1e-12

    def test_coefficients_at_origin(self, mixed_rank_one):
        kernel = mixed_rank_one["kernel"]
        expected = -kernel.pert.coeffs[0] * kernel.pert.phis[0, :, 0]
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

    @pytest.mark.parametrize("depth", [1.1, 1.0, 1 - 1e-13])
    def test_singular_resolvent_message_is_the_svd_tests(self, scalar_transform, depth):
        # c = -depth / g(pi): 1 + c g(x) crosses zero inside (0, pi), reaches
        # it at pi, or stays 1e-13 above it there
        pert = scalar_transform["pert"]
        gram = running_integral(np.einsum("qni,qnj->qij", pert.phis, pert.phis), pert.grid.h)
        c = -depth / gram[-1, 0, 0]
        pert = dataclasses.replace(pert, coeffs=np.array([c]))
        expected = svd_resolvent_test(np.eye(1) + gram * c, pert.grid.nodes)
        assert expected is not None
        with pytest.raises(SingularResolvent) as err:
            solve_kernel(pert)
        assert str(err.value) == expected

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_norm_bound_clears_no_node_the_svd_flags(self, rank):
        # stacks of well-conditioned matrices, of matrices whose condition
        # number straddles the limit 1e12 at a positive determinant, and of
        # well-conditioned ones with a negative determinant at one node: the
        # resolvent test passes and fails where the SVD at every node does,
        # with the same message, and its inverse is numpy's
        rng = np.random.default_rng(rank)
        nodes = np.linspace(0.0, np.pi, 8)
        outcomes = []
        for trial in range(60):
            u = np.linalg.qr(rng.standard_normal((nodes.size, rank, rank)))[0]
            v = np.linalg.qr(rng.standard_normal((nodes.size, rank, rank)))[0]
            v[:, :, 0] *= np.sign(np.linalg.det(u) * np.linalg.det(v))[:, None]
            top = 10.0 ** rng.uniform(4, 8, (nodes.size, 1))
            sv = top * 10.0 ** -rng.uniform(0, 6, (nodes.size, rank))
            if trial % 3 == 1:
                sv[:, -1] = top[:, 0] * 10.0 ** -rng.uniform(11, 13, nodes.size)
            if trial % 3 == 2:
                v[rng.integers(nodes.size), :, 0] *= -1.0
            res_mat = (u * sv[:, None, :]) @ v.transpose(0, 2, 1)
            expected = svd_resolvent_test(res_mat, nodes)
            outcomes.append((trial % 3, expected is not None))
            if expected is None:
                assert np.array_equal(transform._resolvent(res_mat, nodes), np.linalg.inv(res_mat))
                continue
            with pytest.raises(SingularResolvent) as err:
                transform._resolvent(res_mat, nodes)
            assert str(err.value) == expected
        # at rank 1 the condition number is 1; above, the straddling stacks pass and fail
        assert {(0, False), (2, True)} <= set(outcomes)
        assert rank == 1 or {(1, False), (1, True)} <= set(outcomes)


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
        expected = -pert.coeffs[0] * np.outer(kernel.pert.phis[0, :, 0], kernel.pert.phis[0, :, 0])
        assert np.max(np.abs(kernel.k00 - expected)) < 1e-14
        atilde = neumann_transform["problem"].left.A
        assert np.max(np.abs(atilde - (neumann_left.left.A - neumann_left.left.B @ kernel.k00))) == 0.0

    def test_selfadjointness_preserved(self, neumann_left, neumann_transform):
        d = kernel_diagnostics(neumann_left, neumann_transform["problem"],
                               neumann_transform["kernel"])
        assert d["selfadjoint_defect_left"] <= 1e-10
        assert d["selfadjoint_defect_right"] <= 1e-10


class TestTransformEigenfunction:
    def test_endpoint_value_vanishes(self, mixed_rank_one):
        # psi(pi) = phi(pi) / (1 + c ||phi||^2) and phi(pi) = 0 here
        psi = mixed_rank_one["psi"][:, :, 0]
        assert np.max(np.abs(psi[-1])) < 1e-8

    def test_rank_one_closed_form(self, mixed_rank_one):
        # psi = phi / (1 + c g(x)) with the same running g
        kernel = mixed_rank_one["kernel"]
        psi = mixed_rank_one["psi"][:, :, 0]
        phi = kernel.pert.phis[:, :, 0]
        g = running_integral(np.einsum("qn,qn->q", phi, phi), kernel.grid.h)
        assert np.max(np.abs(psi - phi / (1 + g)[:, None])) < 1e-13

    def test_initial_value_preserved(self, scalar_transform):
        kernel = scalar_transform["kernel"]
        psi = scalar_transform["psi"][:, :, 0]
        assert np.array_equal(psi[0], kernel.pert.phis[0, :, 0])

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
        pert = kernel.pert
        phi = np.concatenate([pert.phis] + [p.phis for p in paper_report.pairs], axis=2)[:, :, :3]
        dphi = np.concatenate([pert.phi_derivs] + [p.phi_derivs for p in paper_report.pairs],
                              axis=2)[:, :, :3]
        psi, dpsi = iso.transform_eigenfunction(kernel, phi, dphi)
        assert psi.shape == dpsi.shape == phi.shape
        for j in range(3):
            one, done = iso.transform_eigenfunction(kernel, phi[:, :, j:j + 1], dphi[:, :, j:j + 1])
            assert np.array_equal(psi[:, :, j:j + 1], one)
            assert np.array_equal(dpsi[:, :, j:j + 1], done)
            # and the same bits as the one-vector contraction psi = phi + A w
            w = running_integral(np.einsum("qnm,qn->qm", pert.phis, phi[:, :, j]), kernel.grid.h)
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
        report = iso.SpectrumReport(paper, grid, (0.5, 1.5), (pair,))
        pert = iso.build_perturbation(report, [{"k": 0, "i": 1, "c": 1.0,
                                                "theta": [-2.0, -1.0]}])
        new_problem, kernel = iso.transform_problem(paper, pert)
        psi, dpsi = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        res = iso.residual_transformed_eigen(new_problem, lam, psi[:, :, 0], dpsi[:, :, 0],
                                             tolerance=1e-6)[0]
        assert res.max_residual <= 1e-6


class TestIdentities:
    def test_representation_a_equals_minus_c_psi(self, mixed_rank_one):
        rep = iso.residual_representation(mixed_rank_one["kernel"], mixed_rank_one["psi"])
        assert rep.max_residual <= 1e-9

    def test_endpoint_formula_relative(self, mixed_rank_one):
        rep = iso.residual_endpoint(mixed_rank_one["kernel"], mixed_rank_one["psi"])
        assert rep.max_residual <= 1e-8

    def test_endpoint_is_relative_to_max_phi(self, paper, paper_report):
        # at theta = 1e-4 (-2, -1) an endpoint error of 1e-6 max |phi| fails,
        # as it does at theta = (-2, -1): no floor of 1 hides a small selection
        k1 = oracles.pair_index(paper_report, 1.0)
        pert = iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": 1e8,
                                                      "theta": [-2e-4, -1e-4]}])
        _, kernel = iso.transform_problem(paper, pert)
        psi, _ = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        assert iso.residual_endpoint(kernel, psi).passed
        psi[-1] += 1e-6 * np.max(np.abs(pert.phis))
        rep = iso.residual_endpoint(kernel, psi)
        assert not rep.passed and rep.max_residual >= 1e-6

    def test_rank_two_transform_still_isospectral_identities(self, paper, paper_report):
        k1 = oracles.pair_index(paper_report, 1.0)
        k0 = oracles.pair_index(paper_report, -2.0)
        pert = iso.build_perturbation(paper_report, [(k0, 1, 0.8), (k1, 2, -0.1)])
        new_problem, kernel = iso.transform_problem(paper, pert)
        psi, _ = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        rep = iso.residual_representation(kernel, psi)
        assert rep.max_residual <= 1e-9
        gs = iso.residual_goursat(kernel, paper, new_problem.potential)
        assert gs[1].max_residual <= 1e-6


class TestTransformProblem:
    def test_empty_perturbation_takes_general_path(self, neumann_left):
        # rank 0 runs the general formulas: empty stacks, Q = P at the nodes,
        # Atilde = A, and identities that hold exactly
        report = iso.scan_spectrum(neumann_left, 0.0, 8.0)
        pert = iso.build_perturbation(report, [])
        new_problem, kernel = iso.transform_problem(neumann_left, pert)
        psi, dpsi = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        n = report.grid.n
        assert kernel.a.shape == psi.shape == dpsi.shape == (n, 1, 0)
        nodes = report.grid.nodes
        assert np.array_equal(new_problem.potential.evaluate_many(nodes),
                              neumann_left.potential.evaluate_many(nodes))
        assert np.array_equal(new_problem.left.A, neumann_left.left.A)
        assert np.array_equal(new_problem.right.A, neumann_left.right.A)
        reps = iso.residual_goursat(kernel, neumann_left, new_problem.potential)
        reps.append(iso.residual_representation(kernel, psi))
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

    def test_result_diagnostics(self, paper, mixed_rank_one):
        d = kernel_diagnostics(paper, mixed_rank_one["problem"], mixed_rank_one["kernel"])
        assert d["rank"] == 1
        assert d["q_presymmetrization_defect"] <= 1e-9
        assert d["resolvent_min_sigma"] > 0.2
        assert "atilde_alternative_sign_gap" in d
