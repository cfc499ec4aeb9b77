import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import isospec as iso
from isospec import spectrum, verify
from isospec.cli import main
from isospec.errors import ConditionViolated, GridTooSmall, NonFiniteState
from isospec.transform import KernelField, solve_kernel

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_shift_tolerance_is_checked_before_any_scan(self, scalar, monkeypatch, tol):
        def scan(*args):
            raise AssertionError("scanned before the shift tolerance was checked")

        monkeypatch.setattr(verify, "scan_spectrum", scan)
        with pytest.raises(ValueError, match="shift tolerance"):
            iso.check_isospectral(scalar, scalar, (0.5, 10.0), tol)

    def test_both_problems_are_scanned_cold(self, paper, mixed_rank_one, monkeypatch):
        # a pair of problems that differ is the common case of a plain verify,
        # so it pays for no warm attempt: one pencil per problem
        pieces = []
        piece_roots = spectrum._piece_roots

        def recording(*args):
            pieces.append(args[1:3])
            return piece_roots(*args)

        monkeypatch.setattr(spectrum, "_piece_roots", recording)
        q = mixed_rank_one["problem"]
        report = iso.check_isospectral(paper, q, (-5.0, 20.0), 1e-4)
        assert report.passed and len(pieces) == 2
        assert report == iso.compare_spectra(iso.scan_spectrum(paper, -5.0, 20.0),
                                             iso.scan_spectrum(q, -5.0, 20.0), 1e-4)

    def test_a_shift_below_the_residuals_is_not_resolved(self, paper_report):
        # a self-comparison reads a shift of 0, but each eigenvalue is known
        # only to about its residual: a tolerance below the sum of two fails
        worst = 2 * max(p.residual for p in paper_report.pairs)
        assert worst > 0
        assert iso.compare_spectra(paper_report, paper_report, worst).passed
        report = iso.compare_spectra(paper_report, paper_report, worst / 2)
        assert report.max_shift == 0 and not report.passed
        assert report.to_json_obj()["verdict"] == "fail"

    def test_pipeline_shift_below_the_stopping_step_fails_a_smaller_tolerance(
            self, tmp_path, capsys):
        # at 1601 nodes Q's eigenvalues lie within Newton's stopping step of
        # P's, so the rescan returns P's values and maxShift reads 0; a cold
        # rescan read 3.93e-11, and 1e-11 must fail as it did there
        prob, pert = tmp_path / "problem.json", tmp_path / "pert.json"
        assert main(["example", "paper-example-2x2"]) == 0
        prob.write_text(capsys.readouterr().out)
        assert main(["example", "paper-example-2x2", "--perturbation"]) == 0
        pert.write_text(capsys.readouterr().out)
        out = tmp_path / "v"
        assert main(["verify", str(prob), str(pert), "--pipeline", "--grid", "1601", "--min",
                     "-5", "--max", "20", "--shift-tol", "1e-11", "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith(
            "[FAIL] isospectral: max shift 0.000e+00 (tolerance 1e-11)")
        obj = json.loads((out / "verify.json").read_text())
        assert obj["isospectral"]["maxShift"] == 0
        assert all(r["passed"] for r in obj["residuals"])

    def test_one_pipeline_op_scans_once_and_rescans_warm(self, tmp_path, monkeypatch, capsys):
        # verify --pipeline on the paper example: the first scan takes 33
        # pencil samples and no Newton evaluation, and folds its 16 count
        # probes with the paths of its 7 roots; the rescan takes one Newton
        # step from each of P's 7 eigenvalues, W at lambda and lambda -/+ delta
        # in one batch of 21, and folds its 16 probes with the 7 roots' endpoints
        calls = {"_piece_roots": 0, "_eigenpairs": 0}
        for name in calls:
            def count(*args, _f=getattr(spectrum, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(spectrum, name, count)
        lambdas, folds = [], []
        char_batch, fold = spectrum._char_batch, spectrum._fold

        def counting(p, lams, *args, **kwargs):
            lambdas.append(np.size(lams))
            return char_batch(p, lams, *args, **kwargs)

        def recording(tables, lams, z0, stride, paths):
            folds.append((lams.size, paths))
            return fold(tables, lams, z0, stride, paths)

        monkeypatch.setattr(spectrum, "_char_batch", counting)
        monkeypatch.setattr(spectrum, "_fold", recording)
        prob, pert = tmp_path / "problem.json", tmp_path / "pert.json"
        assert main(["example", "paper-example-2x2"]) == 0
        prob.write_text(capsys.readouterr().out)
        assert main(["example", "paper-example-2x2", "--perturbation"]) == 0
        pert.write_text(capsys.readouterr().out)
        assert main(["verify", str(prob), str(pert), "--pipeline", "--min", "-5",
                     "--max", "20"]) == 0
        assert capsys.readouterr().out.count("[pass]") == 8
        assert calls == {"_piece_roots": 1, "_eigenpairs": 1}
        assert folds == [(23, 7), (23, 0)]
        assert lambdas == [9, 8, 16, 21]

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
    report = iso.scan_spectrum(problem, -5.0, 8.0, grid)
    pert = iso.build_perturbation(report, [(0, 1, 0.7), (2, 1, 0.3)])
    new_problem, kernel = iso.transform_problem(problem, pert)
    return problem, new_problem, kernel


#: the rank-two perturbation of the paper's double eigenvalue run in CI
PERT2 = [{"k": 1, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]},
         {"k": 1, "i": 2, "c": 0.5, "theta": [-2.0, 1.0]}]


def wave_cases(paper, n):
    """(name, kernel, P, Q) of paper ranks 1, 2 and 0, coupled4 rank 2 and a
    corrupted Q, all at n nodes."""
    grid = iso.Grid.uniform(n)
    paper_report = iso.scan_spectrum(paper, -5.0, 20.0, grid)
    coupled = oracles.coupled4(n)
    coupled_report = iso.scan_spectrum(coupled, -5.0, 20.0, grid)
    cases = []
    for name, problem, report, entries in (
            ("rank1", paper, paper_report, [PERT2[0]]),
            ("rank2", paper, paper_report, PERT2),
            ("rank0", paper, paper_report, []),
            ("coupled4", coupled, coupled_report, [(0, 1, 1.0), (2, 1, 0.5)])):
        new_problem, kernel = iso.transform_problem(problem, iso.build_perturbation(report, entries))
        assert kernel.rank == len(entries)
        cases.append((name, kernel, problem.potential, new_problem.potential))
    kernel, q = cases[0][1], cases[0][3]
    corrupted = iso.GridPotential(kernel.grid, q.evaluate_many(kernel.grid.nodes) + 0.1 * np.eye(2))
    return cases + [("corrupted", kernel, paper.potential, corrupted)]


def synthetic_kernel(n, rank, seed=1):
    """A KernelField on n nodes with random factors A and Phi, N = 2."""
    rng = np.random.default_rng(seed)
    a, phi = rng.standard_normal((2, n, 2, rank))
    zeros = np.zeros((n, 2, rank))
    pert = iso.Perturbation((), iso.Grid.uniform(n), np.zeros(rank), np.zeros((2, rank)),
                            np.ones(rank), np.ones(rank), phi, zeros)
    return KernelField(pert, a, zeros, np.zeros((n, rank, rank)))


def corrupt(kernel, field, index, value):
    """kernel with one entry of a or da, or of its perturbation's phi (phis)
    or dphi (phi_derivs), set to value."""
    owner, name = ((kernel, field) if field in ("a", "da")
                   else (kernel.pert, {"phi": "phis", "dphi": "phi_derivs"}[field]))
    bad = getattr(owner, name).copy()
    bad[index] = value
    bad_owner = dataclasses.replace(owner, **{name: bad})
    return bad_owner if owner is kernel else dataclasses.replace(kernel, pert=bad_owner)


class TestWaveEquation:
    @pytest.mark.parametrize("n", [401, 801])
    def test_row_blocks_match_the_row_loop_bit_for_bit(self, paper, n):
        for name, kernel, base, q in wave_cases(paper, n):
            rep = iso.residual_wave_equation(kernel, base, q)
            assert (rep.max_residual, rep.location) == oracles.loop_wave_residual(kernel, base, q), name

    @pytest.mark.parametrize("n", [7, 9])
    @pytest.mark.parametrize("rows", [1, 2, None])
    def test_small_grids_match_the_row_loop_bit_for_bit(self, monkeypatch, n, rows):
        # blocks of one row, of two rows (the last one partial at 9 nodes),
        # and the default budget, which takes every row in one block
        rng = np.random.default_rng(n)
        samples = rng.standard_normal((n, 2, 2))
        q = iso.GridPotential(iso.Grid.uniform(n), samples + samples.transpose(0, 2, 1))
        base = iso.ConstantDiagonalPotential([-3.0, 0.0])
        for rank in (0, 1, 2, 3):
            kernel = synthetic_kernel(n, rank)
            if rows is not None:
                monkeypatch.setattr(verify, "_WAVE_BYTES", rows * 8 * 2 * (n - 4) * 2)
            rep = iso.residual_wave_equation(kernel, base, q)
            assert (rep.max_residual, rep.location) == oracles.loop_wave_residual(kernel, base, q)
            assert (rep.max_residual > 0) == (rank > 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field,node", [("a", 200), ("phi", 100), ("a", 396)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_residual_raises(self, paper, mixed_rank_one, field, node, value):
        kernel = corrupt(mixed_rank_one["kernel"], field, (node, 1, 0), value)
        with pytest.raises(NonFiniteState, match="wave-eq"):
            iso.residual_wave_equation(kernel, paper.potential,
                                       mixed_rank_one["problem"].potential)

    def test_factored_matches_dense_reference(self, paper, mixed_rank_one):
        coupled, coupled_new, coupled_kernel = coupled3_rank_two()
        assert coupled_kernel.a.shape[1:] == (3, 2)
        for kernel, base, q in ((mixed_rank_one["kernel"], paper.potential,
                                 mixed_rank_one["problem"].potential),
                                (coupled_kernel, coupled.potential, coupled_new.potential)):
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
        report = iso.SpectrumReport(paper, grid, (0.5, 1.5), (pair,))
        pert = iso.build_perturbation(report, [{"k": 0, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]}])
        new_problem, kernel = iso.transform_problem(paper, pert)
        tracemalloc.start()
        try:
            rep = iso.residual_wave_equation(kernel, paper.potential, new_problem.potential)
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
        small = dataclasses.replace(pert, grid=iso.Grid.uniform(3))
        kernel = dataclasses.replace(solve_kernel(pert), pert=small)
        with pytest.raises(GridTooSmall):
            iso.residual_wave_equation(kernel, iso.builtin_problem("scalar-zero").potential,
                                       iso.builtin_problem("scalar-zero").potential)


class TestNonFiniteResidual:
    def test_nan_at_node_zero_does_not_pass(self):
        x = np.array([0.0, 1.0, 2.0])
        for res in (np.array([[np.nan], [0.0], [0.0]]), np.array([[0.0], [0.0], [-np.inf]])):
            with pytest.raises(NonFiniteState, match="the t residual is not finite"):
                verify._peak_report("t", res, x, 1e-3)

    @pytest.mark.parametrize("field,name", [("phi", "goursat"), ("dphi", "goursat"),
                                            ("phi", "trace")])
    def test_goursat_and_trace(self, paper, mixed_rank_one, field, name):
        # goursat reads phi and dphi at node 0 only; K(x, x) reads phi at every node
        kernel = corrupt(mixed_rank_one["kernel"], field, (0 if name == "goursat" else 7, 0, 0),
                         np.nan)
        with pytest.raises(NonFiniteState, match=name):
            iso.residual_goursat(kernel, paper, mixed_rank_one["problem"].potential)

    @pytest.mark.parametrize("which,name", [("psi", "eigen-ode"), ("dpsi", "eigen-bc")])
    def test_transformed_eigen(self, mixed_rank_one, which, name):
        args = {k: mixed_rank_one[k][:, :, 0].copy() for k in ("psi", "dpsi")}
        args[which][0 if which == "dpsi" else 50, 1] = np.nan
        with pytest.raises(NonFiniteState, match=name):
            iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                           mixed_rank_one["pert"].lambdas[0],
                                           args["psi"], args["dpsi"])

    def test_representation(self, mixed_rank_one):
        psi = mixed_rank_one["psi"].copy()
        psi[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteState, match="representation"):
            iso.residual_representation(mixed_rank_one["kernel"], psi)


class TestGoursat:
    def test_dirichlet_trace(self, paper, mixed_rank_one):
        gs = iso.residual_goursat(mixed_rank_one["kernel"], paper,
                                  mixed_rank_one["problem"].potential)
        by_name = {r.name: r for r in gs}
        assert by_name["goursat"].max_residual <= 1e-6
        assert by_name["trace"].max_residual <= 1e-6

    def test_empty_perturbation_exact_zero(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        new_problem, kernel = iso.transform_problem(scalar, pert)
        gs = iso.residual_goursat(kernel, scalar, new_problem.potential)
        assert gs[0].max_residual == 0.0
        assert gs[1].max_residual == 0.0

    def test_neumann_left_case(self, neumann_left, neumann_transform):
        gs = iso.residual_goursat(neumann_transform["kernel"], neumann_left,
                                  neumann_transform["problem"].potential)
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
        t1, t2 = (iso.residual_goursat(b["kernel"], paper, b["problem"].potential)[1]
                  for b in (mixed_rank_one, mixed_rank_one_801))
        assert t1.max_residual / t2.max_residual >= 3.5

    def test_trace_reads_q(self, paper, mixed_rank_one):
        # Q built as P + d/dx K(x, x), half the correct term, and Q + 0.1 I both
        # fail trace; goursat does not read Q
        g = mixed_rank_one["kernel"].grid
        base = paper.potential.evaluate_many(g.nodes)
        q = mixed_rank_one["problem"].potential.evaluate_many(g.nodes)
        for wrong in (base + 0.5 * (q - base), q + 0.1 * np.eye(2)):
            goursat, trace = iso.residual_goursat(mixed_rank_one["kernel"], paper,
                                                  iso.GridPotential(g, wrong))
            assert goursat.passed
            assert not trace.passed and trace.max_residual >= 0.1


class TestRepresentation:
    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1.0, 1e4])
    def test_every_line_is_free_of_the_scale_of_theta(self, paper, paper_report, s):
        # theta = s (-2, -1) with c = 1/s^2 is one transform at every s; an
        # absolute representation residual read 2.2e-8 at s = 1e-8 and failed
        k1 = oracles.pair_index(paper_report, 1.0)
        pert = iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": s**-2,
                                                      "theta": [-2.0 * s, -s]}])
        new_problem, kernel = iso.transform_problem(paper, pert)
        reps = iso.pipeline_residuals(paper, new_problem, kernel)
        assert all(rep.passed for rep in reps), [(r.name, r.max_residual) for r in reps]
        assert reps[-1].name == "representation" and reps[-1].max_residual <= 1e-14

    def test_zero_weight_reads_zero(self, paper, paper_report):
        # c = 0 gives a_j = 0: the column has no scale and reads 0, not NaN
        k1 = oracles.pair_index(paper_report, 1.0)
        pert = iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": 0.0,
                                                      "theta": [-2.0, -1.0]}])
        _, kernel = iso.transform_problem(paper, pert)
        psi, _ = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = iso.residual_representation(kernel, psi)
        assert rep.max_residual == 0.0 and rep.passed


class TestPipelineResiduals:
    def test_suite_order_and_values(self, paper, paper_report):
        # rank 2: one eigen-ode and eigen-bc pair per selection, each report
        # the one its residual function gives on its own
        k0, k1 = oracles.pair_index(paper_report, -2.0), oracles.pair_index(paper_report, 1.0)
        pert = iso.build_perturbation(paper_report, [(k0, 1, 0.8), (k1, 2, -0.1)])
        new_problem, kernel = iso.transform_problem(paper, pert)
        reps = iso.pipeline_residuals(paper, new_problem, kernel)
        assert [r.name for r in reps] == ["wave-eq", "goursat", "trace", "eigen-ode", "eigen-bc",
                                          "eigen-ode", "eigen-bc", "endpoint", "representation"]
        psi, dpsi = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
        direct = [iso.residual_wave_equation(kernel, paper.potential, new_problem.potential)]
        direct += iso.residual_goursat(kernel, paper, new_problem.potential)
        for j in range(2):
            direct += iso.residual_transformed_eigen(new_problem, pert.lambdas[j],
                                                     psi[:, :, j], dpsi[:, :, j])
        direct += [iso.residual_endpoint(kernel, psi), iso.residual_representation(kernel, psi)]
        assert reps == direct

    def test_empty_perturbation_has_no_eigen_lines(self, paper, paper_report):
        pert = iso.build_perturbation(paper_report, [])
        new_problem, kernel = iso.transform_problem(paper, pert)
        reps = iso.pipeline_residuals(paper, new_problem, kernel)
        assert [(r.name, r.max_residual) for r in reps] == [
            (name, 0.0) for name in ("wave-eq", "goursat", "trace", "endpoint", "representation")]


class TestTransformedEigen:
    def test_mixed_transform_eigen_residuals(self, mixed_rank_one):
        ode, bc = iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                                 mixed_rank_one["pert"].lambdas[0],
                                                 mixed_rank_one["psi"][:, :, 0],
                                                 mixed_rank_one["dpsi"][:, :, 0])
        # measured 2.29e-6 relative to max |psi| at n=401; frozen with headroom
        assert (ode.name, bc.name) == ("eigen-ode", "eigen-bc")
        assert ode.max_residual <= 8e-4
        assert bc.max_residual <= 1e-8
        assert bc.location in (0.0, np.pi)

    def test_empty_perturbation_matches_original(self, scalar, scalar_report):
        pert = iso.build_perturbation(scalar_report, [])
        new_problem, kernel = iso.transform_problem(scalar, pert)
        pair = scalar_report.pairs[0]
        psi, dpsi = iso.transform_eigenfunction(kernel, pair.phis, pair.phi_derivs)
        ode, bc = iso.residual_transformed_eigen(new_problem, pair.lam, psi[:, :, 0],
                                                 dpsi[:, :, 0])
        # psi == phi, so the residual is the original eigenfunction's (near 0)
        assert ode.max_residual <= 1e-4
        assert bc.max_residual <= 1e-10

    def test_boundary_residual_decides_verdict(self, mixed_rank_one):
        # a psi(0) off by 1e-7 fails the boundary condition on its own line,
        # while the ODE residual it moves by about 1e-7 / (12 h^2) still passes;
        # both are relative to max |psi|
        psi = mixed_rank_one["psi"][:, :, 0].copy()
        psi[0] += 1e-7
        ode, bc = iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                                 mixed_rank_one["pert"].lambdas[0], psi,
                                                 mixed_rank_one["dpsi"][:, :, 0])
        assert ode.passed
        assert not bc.passed and bc.to_json_obj()["passed"] is False
        assert bc.location == 0.0
        assert bc.max_residual >= (1e-7 - 1e-9) / np.max(np.abs(psi))

    def test_wrong_lambda_detected(self, mixed_rank_one):
        rep = iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                             mixed_rank_one["pert"].lambdas[0] + 1.0,
                                             mixed_rank_one["psi"][:, :, 0],
                                             mixed_rank_one["dpsi"][:, :, 0])[0]
        # the residual is relative to max |psi|, and lambda is off by 1
        assert rep.max_residual >= 0.9

    def test_residuals_do_not_depend_on_the_scale_of_theta(self, paper, paper_report):
        # theta = s (-2, -1) with c = 1/s^2 is one transform at every s: the
        # kernel depends on c ||phi||^2 only, and the residuals are relative
        k1 = oracles.pair_index(paper_report, 1.0)
        values = []
        for s in (1e-4, 1.0, 1e2, 1e4):
            pert = iso.build_perturbation(paper_report, [{"k": k1, "i": 1, "c": s**-2,
                                                          "theta": [-2.0 * s, -s]}])
            new_problem, kernel = iso.transform_problem(paper, pert)
            psi, dpsi = iso.transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
            reps = iso.residual_transformed_eigen(new_problem, pert.lambdas[0],
                                                  psi[:, :, 0], dpsi[:, :, 0])
            reps.append(iso.residual_endpoint(kernel, psi))
            assert all(rep.passed for rep in reps), s
            values.append([rep.max_residual for rep in reps[:2]])
        np.testing.assert_allclose(values, [values[1]] * 4, rtol=1e-3)

    def test_order_decay(self, mixed_rank_one, mixed_rank_one_801):
        def resid(bundle):
            return iso.residual_transformed_eigen(bundle["problem"], bundle["pert"].lambdas[0],
                                                  bundle["psi"][:, :, 0],
                                                  bundle["dpsi"][:, :, 0])[0].max_residual

        assert resid(mixed_rank_one) / resid(mixed_rank_one_801) >= 3.5

    def test_identically_zero_psi_is_named(self, paper):
        # an all-zero psi has no scale: refused by name, before any 0 / 0
        zeros = np.zeros((401, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditionViolated, match="psi is identically zero"):
                iso.residual_transformed_eigen(paper, 1.0, zeros, zeros)

    def test_grid_too_small(self, mixed_rank_one):
        # the five-point stencil leaves no node below 7 nodes
        psi, dpsi = (mixed_rank_one[k][::80, :, 0] for k in ("psi", "dpsi"))    # 6 nodes
        with pytest.raises(GridTooSmall, match="at least 7 nodes"):
            iso.residual_transformed_eigen(mixed_rank_one["problem"],
                                           mixed_rank_one["pert"].lambdas[0], psi, dpsi)


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
