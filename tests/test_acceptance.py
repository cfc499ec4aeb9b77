"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success). Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import isospec as iso
from isospec.quadrature import integral, running_integral
from isospec.transform import solve_kernel

import oracles

WINDOW = (-5.0, 20.0)
EXACT_SIGMA = np.array([-2.0, 1.0, 1.0, 4.0, 6.0, 9.0, 13.0, 16.0])


def _line(num, label, ok, details):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"criterion {num} failed: {details}"


def _pipeline(paper, n):
    opts = iso.ScanOptions(grid_nodes=n)
    report = iso.scan_spectrum(paper, *WINDOW, opts)
    pert = oracles.mixed_perturbation(report)
    kernel = solve_kernel(pert)
    problem, result = iso.transform_problem(paper, pert)
    return {"report": report, "pert": pert, "kernel": kernel,
            "problem": problem, "result": result, "opts": opts}


@pytest.fixture(scope="module")
def paper():
    return iso.builtin_problem("paper-example-2x2")


@pytest.fixture(scope="module")
def mixed401(paper):
    return _pipeline(paper, 401)


@pytest.fixture(scope="module")
def mixed801(paper):
    return _pipeline(paper, 801)


def test_criterion_1_spectrum_reproduction(paper):
    t0 = time.perf_counter()
    report = iso.scan_spectrum(paper, *WINDOW, iso.ScanOptions(grid_nodes=401))
    elapsed = time.perf_counter() - t0
    sigma = report.sigma_sequence
    mults = [(round(p.lam), p.multiplicity) for p in report.pairs]
    err = np.max(np.abs(sigma - EXACT_SIGMA)) if sigma.size == EXACT_SIGMA.size else np.inf
    ok = (sigma.size == EXACT_SIGMA.size and err <= 1e-6
          and mults == [(-2, 1), (1, 2), (4, 1), (6, 1), (9, 1), (13, 1), (16, 1)]
          and elapsed <= 10.0)
    _line(1, "spectrum reproduction", ok,
          f"max |dlambda| = {err:.2e} (<= 1e-6), multiplicity 2 at lambda=1, {elapsed:.1f}s (<= 10s)")


def test_criterion_2_isospectral_transform(paper):
    t0 = time.perf_counter()
    run401 = _pipeline(paper, 401)
    rescan401 = iso.scan_spectrum(run401["problem"], *WINDOW, run401["opts"])
    iso401 = iso.compare_spectra(run401["report"], rescan401, 1e-4)
    elapsed = time.perf_counter() - t0

    run801 = _pipeline(paper, 801)
    rescan801 = iso.scan_spectrum(run801["problem"], *WINDOW, run801["opts"])
    iso801 = iso.compare_spectra(run801["report"], rescan801, 1e-4)

    ratio = iso401.max_shift / iso801.max_shift if iso801.max_shift > 0 else np.inf
    exact_boundaries = (np.array_equal(run401["problem"].left.A, np.eye(2))
                        and np.array_equal(run401["problem"].right.A, np.eye(2)))
    ok = (iso401.multiplicity_match and iso401.max_shift <= 1e-4
          and ratio >= 3.5 and exact_boundaries and elapsed <= 30.0)
    _line(2, "isospectral transform", ok,
          f"shift(401) = {iso401.max_shift:.2e} (<= 1e-4), shrink x{ratio:.1f} (>= 3.5), "
          f"Atilde = AtildeRight = I exactly: {exact_boundaries}, {elapsed:.1f}s (<= 30s)")


def test_criterion_3_nondiagonalizability(paper, mixed401):
    grid = mixed401["kernel"].grid
    mixed_value, _ = iso.commutator_diagnostic(mixed401["problem"].potential, grid)

    pert_diag = oracles.diagonal_perturbation(mixed401["report"])
    problem_diag, _ = iso.transform_problem(paper, pert_diag)
    diag_value, _ = iso.commutator_diagnostic(problem_diag.potential, grid)
    q11 = np.max(np.abs(problem_diag.potential.samples[:, 0, 0] + 3.0))
    q12 = np.max(np.abs(problem_diag.potential.samples[:, 0, 1]))

    ok = mixed_value > 0.1 and diag_value <= 1e-8 and q11 <= 1e-9 and q12 <= 1e-9
    _line(3, "non-diagonalizability certificate", ok,
          f"commutator(mixed) = {mixed_value:.3g} (> 0.1), commutator(diagonal) = "
          f"{diag_value:.2e} (<= 1e-8), |Q11+3| = {q11:.2e}, |Q12| = {q12:.2e} (<= 1e-9)")


def test_criterion_4_rank_one_oracle_equivalence(paper, mixed401):
    worst = 0.0
    scalar = iso.builtin_problem("scalar-zero")
    scalar_report = iso.scan_spectrum(scalar, 0.5, 10.0)
    cases = [
        mixed401["kernel"],
        solve_kernel(oracles.diagonal_perturbation(mixed401["report"])),
        solve_kernel(iso.build_perturbation(scalar_report, [(0, 1, 1.0)])),
    ]
    for kernel in cases:
        g = kernel.grid
        phi = kernel.phi[:, :, 0]
        c = kernel.coeffs[0]
        denom = 1.0 + c * running_integral(np.einsum("qn,qn->q", phi, phi), g.h)
        expected = np.einsum("i,in,jm->ijnm", -c / denom, phi, phi)
        tri = np.tril_indices(g.n)
        worst = max(worst, float(np.max(np.abs(oracles.dense_kernel(kernel)[tri] - expected[tri]))))
    ok = worst <= 1e-10
    _line(4, "rank-one oracle equivalence", ok,
          f"max entrywise solver-vs-closed-form difference = {worst:.2e} (<= 1e-10)")


def test_criterion_5_identity_residual_suite(paper, mixed401, mixed801):
    gs = iso.residual_goursat(mixed401["kernel"], paper)
    by_name = {r.name: r for r in gs}
    trace = by_name["trace"].max_residual
    goursat = by_name["goursat"].max_residual
    wave = iso.residual_wave_equation(mixed401["kernel"], paper.potential,
                                      mixed401["problem"].potential).max_residual
    wave_fine = iso.residual_wave_equation(mixed801["kernel"], paper.potential,
                                           mixed801["problem"].potential).max_residual
    decay = wave / wave_fine if wave_fine > 0 else np.inf
    endpoint = iso.residual_endpoint(mixed401["kernel"], mixed401["pert"], mixed401["result"].psi).max_residual
    representation = iso.residual_representation(mixed401["kernel"], mixed401["result"].psi).max_residual

    ok = (trace <= 1e-6 and goursat <= 1e-6 and wave <= 5e-4 and decay >= 3.5
          and endpoint <= 1e-8 and representation <= 1e-9)
    _line(5, "identity residual suite", ok,
          f"trace = {trace:.2e} (<= 1e-6), goursat = {goursat:.2e} (<= 1e-6), "
          f"wave-eq = {wave:.2e} (<= 5e-4) decaying x{decay:.1f} (>= 3.5), "
          f"endpoint = {endpoint:.2e} (<= 1e-8), representation = {representation:.2e} (<= 1e-9)")


def test_criterion_6_scalar_regression():
    scalar = iso.builtin_problem("scalar-zero")
    report = iso.scan_spectrum(scalar, 0.5, 10.0)
    pert = iso.build_perturbation(report, [(0, 1, 1.0)])
    new_problem, _ = iso.transform_problem(scalar, pert)
    rescan = iso.scan_spectrum(new_problem, 0.5, 10.0)
    sigma = rescan.sigma_sequence
    err = np.max(np.abs(sigma - [1.0, 4.0, 9.0])) if sigma.size == 3 else np.inf
    ok = err <= 1e-6
    _line(6, "scalar rank-one regression", ok,
          f"transformed spectrum {{1, 4, 9}} reproduced, max |dlambda| = {err:.2e} (<= 1e-6)")


def test_criterion_7_property_suite(paper, mixed401):
    # Wronskian conservation on a generic pair of paths
    rng = np.random.default_rng(42)
    grid = iso.Grid.uniform(401)
    y1, yp1 = iso.integrate_ivp(paper.potential, 2.7, rng.normal(size=(2, 2)),
                                rng.normal(size=(2, 2)), grid)
    y2, yp2 = iso.integrate_ivp(paper.potential, 2.7, rng.normal(size=(2, 2)),
                                rng.normal(size=(2, 2)), grid)
    w = np.einsum("qab,qac->qbc", y1, yp2) - np.einsum("qab,qac->qbc", yp1, y2)
    drift = float(np.max(np.abs(w - w[0]))) / np.pi

    # self-adjointness preservation on a non-Dirichlet transform
    neumann = iso.Problem(iso.ConstantDiagonalPotential([0.0]),
                          iso.BoundaryPair(np.zeros((1, 1)), np.eye(1)),
                          iso.BoundaryPair(np.eye(1), np.zeros((1, 1))))
    nrep = iso.scan_spectrum(neumann, 0.0, 8.0)
    npert = iso.build_perturbation(nrep, [(0, 1, 1.0)])
    _, nres = iso.transform_problem(neumann, npert)
    sa_defect = max(nres.diagnostics["selfadjoint_defect_left"],
                    nres.diagnostics["selfadjoint_defect_right"])

    # orthogonal eigenspace basis at the double eigenvalue
    pair = mixed401["report"].pairs[oracles.pair_index(mixed401["report"], 1.0)]
    ip = integral(np.einsum("qn,qn->q", pair.phis[:, :, 0], pair.phis[:, :, 1]), grid.h)
    ortho = abs(ip) / np.sqrt(pair.norms_sq[0] * pair.norms_sq[1])

    # reflexive isospectrality on every builtin
    reflexive = True
    for name, window in (("paper-example-2x2", WINDOW), ("scalar-zero", (0.5, 10.0)),
                         ("free-2x2", (0.5, 5.0))):
        problem = iso.builtin_problem(name)
        reflexive &= iso.check_isospectral(problem, problem, window, 1e-8).passed

    ok = drift <= 1e-8 and sa_defect <= 1e-10 and ortho <= 1e-8 and reflexive
    _line(7, "property suite", ok,
          f"wronskian drift = {drift:.2e} (<= 1e-8 per unit length), self-adjointness "
          f"defect = {sa_defect:.2e} (<= 1e-10), eigenspace orthogonality = {ortho:.2e} "
          f"(<= 1e-8 relative), reflexive isospectrality on all builtins: {reflexive}")
