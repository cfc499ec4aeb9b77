import dataclasses
import tracemalloc

import numpy as np
import pytest

import isospec as iso
from isospec.errors import GridTooSmall
from isospec.transform import solve_kernel

import oracles


class TestIsospectral:
    @pytest.mark.parametrize("name,window", [
        ("scalar-zero", (0.5, 10.0)),
        ("free-2x2", (0.5, 5.0)),
        ("paper-example-2x2", (-5.0, 8.0)),
    ])
    def test_reflexive(self, name, window):
        p = iso.builtin_problem(name)
        report = iso.check_isospectral(p, p, window, 1e-8)
        assert report.verdict == "pass"
        assert report.max_shift <= 1e-10

    def test_shifted_potential_fails(self, paper):
        shifted = iso.Problem(iso.ConstantDiagonalPotential([-3.1, 0.0]),
                              paper.left, paper.right)
        report = iso.check_isospectral(paper, shifted, (-5.0, 20.0), 1e-4)
        assert report.verdict == "fail"
        assert abs(report.max_shift - 0.1) < 1e-6

    def test_transform_pass(self, paper_report, mixed_rank_one):
        rescan = iso.scan_spectrum(mixed_rank_one["problem"], -5.0, 20.0)
        report = iso.compare_spectra(paper_report, rescan, 1e-4)
        assert report.passed
        assert report.multiplicity_match
        assert report.max_shift <= 1e-4

    def test_count_mismatch_fails(self, scalar_report, scalar):
        other = iso.scan_spectrum(scalar, 0.5, 5.0)
        report = iso.compare_spectra(scalar_report, other, 1e-4)
        assert not report.passed
        assert report.max_shift == float("inf")

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf])
    def test_shift_tolerance_must_be_positive_and_finite(self, scalar_report, tol):
        with pytest.raises(ValueError, match="shift tolerance"):
            iso.compare_spectra(scalar_report, scalar_report, tol)

    def test_json_shape(self, scalar_report):
        report = iso.compare_spectra(scalar_report, scalar_report, 1e-6)
        obj = report.to_json_obj()
        assert obj["verdict"] == "pass"
        assert obj["maxShift"] == 0.0
        assert len(obj["pairsA"]) == 3


def coupled3_rank_two(n=101):
    """Rank-two transform of an N = 3 Dirichlet problem with an x-dependent coupled grid P."""
    grid = iso.Grid.uniform(n)
    x = grid.nodes
    rng = np.random.default_rng(3)
    r, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    samples = r @ np.diag([-1.0, 0.5, 2.0]) @ r.T + 0.4 * np.sin(x)[:, None, None] * np.array(
        [[0.0, 1.0, 0.5], [1.0, 0.0, -0.3], [0.5, -0.3, 1.0]])
    dirichlet = iso.BoundaryPair(np.eye(3), np.zeros((3, 3)))
    problem = iso.Problem(iso.GridPotential(grid, samples), dirichlet, dirichlet)
    report = iso.scan_spectrum(problem, -5.0, 8.0, iso.ScanOptions(grid_nodes=n))
    pert = iso.build_perturbation(report, [(0, 1, 0.7), (2, 1, 0.3)])
    new_problem, result = iso.transform_problem(problem, pert)
    return problem, new_problem, result


class TestWaveEquation:
    def test_factored_matches_dense_reference(self, paper, mixed_rank_one):
        coupled, coupled_new, coupled_result = coupled3_rank_two()
        assert coupled_result.kernel.a.shape[1:] == (3, 2)
        for kernel, base, q in ((mixed_rank_one["kernel"], paper.potential,
                                 mixed_rank_one["problem"].potential),
                                (coupled_result.kernel, coupled.potential, coupled_new.potential)):
            rep = iso.residual_wave_equation(kernel, base, q)
            ref_max, ref_loc = oracles.dense_wave_residual(kernel, base, q)
            assert ref_max > 0
            # the double-precision stencil rounds at about eps max|K| / h^2 (1e-6
            # of the residual at n = 401); the factored and dense values differ
            # by 0.69 (paper, n = 401) and 0.95 (coupled3, n = 101) times that
            rounding = np.finfo(float).eps * np.max(np.abs(oracles.dense_kernel(kernel)))
            assert abs(rep.max_residual - ref_max) <= 2 * rounding / kernel.grid.h**2
            assert rep.location == ref_loc

    def test_peak_memory_stays_linear_in_nodes(self, paper, paper_report):
        # the dense (n, n, 2, 2) kernel alone would be 82 MB at n = 1601
        grid = iso.Grid.uniform(1601)
        lam = paper_report.pairs[oracles.pair_index(paper_report, 1.0)].lam
        pair = iso.eigenbasis(paper, lam, grid)
        report = iso.SpectrumReport(paper, grid, (0.5, 1.5), iso.ScanOptions(grid_nodes=1601), (pair,))
        pert = iso.build_perturbation(report, [{"k": 0, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]}])
        new_problem, result = iso.transform_problem(paper, pert)
        tracemalloc.start()
        try:
            rep = iso.residual_wave_equation(result.kernel, paper.potential, new_problem.potential)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.max_residual <= 5e-4
        assert peak < 2 * 2**20
    def test_mixed_transform_residual(self, paper, mixed_rank_one):
        rep = iso.residual_wave_equation(mixed_rank_one["kernel"], paper.potential,
                                         mixed_rank_one["problem"].potential)
        assert rep.max_residual <= 5e-4

    def test_zero_kernel_zero_residual(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        kernel = solve_kernel(pert)
        rep = iso.residual_wave_equation(kernel, scalar.potential, scalar.potential)
        assert rep.max_residual == 0.0

    def test_corrupted_q_detected(self, paper, mixed_rank_one):
        kernel = mixed_rank_one["kernel"]
        g = kernel.grid
        q = mixed_rank_one["problem"].potential
        corrupted = iso.GridPotential(g, q.evaluate_many(g.nodes) + 0.1 * np.eye(2))
        rep = iso.residual_wave_equation(kernel, paper.potential, corrupted)
        kscale = np.max(np.abs(oracles.dense_kernel(kernel)))
        assert rep.max_residual >= 0.09 * kscale

    def test_order_decay(self, paper, mixed_rank_one, mixed_rank_one_801):
        r1, r2 = (iso.residual_wave_equation(b["kernel"], paper.potential, b["problem"].potential)
                  for b in (mixed_rank_one, mixed_rank_one_801))
        assert r1.max_residual / r2.max_residual >= 3.5

    def test_grid_too_small(self, scalar_report):
        pert = iso.build_perturbation(scalar_report, [(0, 1, 0.5)])
        kernel = dataclasses.replace(solve_kernel(pert), grid=iso.Grid.uniform(3))
        with pytest.raises(GridTooSmall):
            iso.residual_wave_equation(kernel, iso.builtin_problem("scalar-zero").potential,
                                       iso.builtin_problem("scalar-zero").potential)


class TestGoursat:
    def test_dirichlet_trace(self, paper, mixed_rank_one):
        gs = iso.residual_goursat(mixed_rank_one["kernel"], paper)
        by_name = {r.name: r for r in gs}
        assert by_name["goursat"].max_residual <= 1e-6
        assert by_name["trace"].max_residual <= 1e-6

    def test_empty_perturbation_exact_zero(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        gs = iso.residual_goursat(solve_kernel(pert), scalar)
        assert gs[0].max_residual == 0.0
        assert gs[1].max_residual == 0.0

    def test_neumann_left_case(self, neumann_left, neumann_transform):
        gs = iso.residual_goursat(neumann_transform["kernel"], neumann_left)
        assert gs[0].max_residual <= 1e-6
        assert gs[1].max_residual <= 1e-6

    def test_neumann_f00_consistency(self, neumann_transform):
        # F(0,0) = B^T (c theta theta^T) B = c here, and K(0,0) = -F(0,0)
        kernel = neumann_transform["kernel"]
        pert = neumann_transform["pert"]
        theta = pert.thetas[0, 0]
        f00 = pert.coeffs[0] * theta * theta
        assert abs(kernel.k00[0, 0] + f00) < 1e-14

    def test_trace_decay(self, paper, mixed_rank_one, mixed_rank_one_801):
        t1 = iso.residual_goursat(mixed_rank_one["kernel"], paper)[1]
        t2 = iso.residual_goursat(mixed_rank_one_801["kernel"], paper)[1]
        assert t1.max_residual / t2.max_residual >= 3.5


class TestTransformedEigen:
    def test_mixed_transform_eigen_residuals(self, mixed_rank_one):
        result = mixed_rank_one["result"]
        ode, bc = iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                                 result.kernel.lambdas[0],
                                                 result.psi[:, :, 0], result.dpsi[:, :, 0])
        # measured 1.67e-6 at n=401; frozen with headroom
        assert (ode.name, bc.name) == ("eigen-ode", "eigen-bc")
        assert ode.max_residual <= 8e-4
        assert bc.max_residual <= 1e-8
        assert bc.location in (0.0, np.pi)

    def test_empty_perturbation_matches_original(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        new_problem, _ = iso.transform_problem(scalar, pert)
        pair = scalar_report.pairs[0]
        psi, dpsi = iso.transform_eigenfunction(solve_kernel(pert), pair.phis, pair.phi_derivs)
        ode, bc = iso.residual_transformed_eigen(new_problem, pair.lam, psi[:, :, 0],
                                                 dpsi[:, :, 0])
        # psi == phi, so the residual is the original eigenfunction's (near 0)
        assert ode.max_residual <= 1e-4
        assert bc.max_residual <= 1e-10

    def test_boundary_residual_decides_verdict(self, mixed_rank_one):
        # a psi(0) off by 1e-7 fails the boundary condition on its own line,
        # while the ODE residual it moves by about 1e-7 / (12 h^2) still passes
        result = mixed_rank_one["result"]
        psi = result.psi[:, :, 0].copy()
        psi[0] += 1e-7
        ode, bc = iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                                 result.kernel.lambdas[0], psi,
                                                 result.dpsi[:, :, 0])
        assert ode.passed
        assert not bc.passed and bc.to_json_obj()["passed"] is False
        assert bc.location == 0.0 and bc.max_residual >= 1e-7 - 1e-9

    def test_wrong_lambda_detected(self, mixed_rank_one):
        result = mixed_rank_one["result"]
        rep = iso.residual_transformed_eigen(mixed_rank_one["problem"], result.kernel.lambdas[0] + 1.0,
                                             result.psi[:, :, 0], result.dpsi[:, :, 0])[0]
        scale = np.max(np.abs(result.psi))
        assert rep.max_residual >= 0.9 * scale

    def test_order_decay(self, mixed_rank_one, mixed_rank_one_801):
        def resid(bundle):
            result = bundle["result"]
            return iso.residual_transformed_eigen(bundle["problem"], result.kernel.lambdas[0],
                                                  result.psi[:, :, 0],
                                                  result.dpsi[:, :, 0])[0].max_residual

        assert resid(mixed_rank_one) / resid(mixed_rank_one_801) >= 3.5

    def test_grid_too_small(self, mixed_rank_one):
        # the five-point stencil leaves no node below 7 nodes
        result = mixed_rank_one["result"]
        psi, dpsi = result.psi[::80, :, 0], result.dpsi[::80, :, 0]     # 6 nodes
        with pytest.raises(GridTooSmall, match="at least 7 nodes"):
            iso.residual_transformed_eigen(mixed_rank_one["problem"], result.kernel.lambdas[0],
                                           psi, dpsi)


class TestCommutator:
    def test_mixed_transform_noncommuting(self, mixed_rank_one):
        value, _ = iso.commutator_diagnostic(mixed_rank_one["problem"].potential,
                                             mixed_rank_one["kernel"].grid)
        assert value > 0.1

    def test_diagonal_transform_commutes(self, paper, paper_report):
        pert = oracles.diagonal_perturbation(paper_report)
        new_problem, _ = iso.transform_problem(paper, pert)
        q = new_problem.potential
        value, _ = iso.commutator_diagnostic(q, iso.Grid.uniform(401))
        assert value <= 1e-8
        assert np.max(np.abs(q.samples[:, 0, 0] + 3.0)) <= 1e-9
        assert np.max(np.abs(q.samples[:, 0, 1])) <= 1e-9

    def test_constant_diagonal_zero(self, paper):
        value, _ = iso.commutator_diagnostic(paper.potential, iso.Grid.uniform(101))
        assert value <= 1e-8

    def test_invariant_under_orthogonal_conjugation(self, mixed_rank_one):
        rng = np.random.default_rng(3)
        r, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        g = mixed_rank_one["kernel"].grid
        q = mixed_rank_one["problem"].potential
        rotated = iso.GridPotential(
            g, np.einsum("ab,qbc,cd->qad", r.T, q.evaluate_many(g.nodes), r))
        v1, _ = iso.commutator_diagnostic(q, g)
        v2, _ = iso.commutator_diagnostic(rotated, g)
        assert abs(v1 - v2) <= 1e-10

    def test_grid_too_small(self, paper):
        with pytest.raises(GridTooSmall):
            iso.commutator_diagnostic(paper.potential, iso.Grid.uniform(4))
