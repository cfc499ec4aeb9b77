import collections
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import isospec as iso
from isospec import spectrum
from isospec.errors import NonFiniteState, NotAnEigenvalue, WindowTooCoarse
from isospec.ode import potential_tables
from isospec.quadrature import integral

import oracles


def mixed_end_problem():
    """N = 2, non-constant grid P; rank-one B on the left (Robin along one
    rotated direction, Dirichlet along the other), invertible B on the right."""
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    left = iso.BoundaryPair(rot @ np.diag([0.4, 1.0]) @ rot.T, rot @ np.diag([1.0, 0.0]) @ rot.T)
    right = iso.BoundaryPair(np.array([[0.3, 0.2], [0.2, -0.5]]), np.eye(2))
    grid = iso.Grid.uniform(401)
    x = grid.nodes
    off = 0.3 * np.sin(2 * x)
    samples = np.stack([np.stack([np.cos(x), off], -1), np.stack([off, 1 + x / 3], -1)], -2)
    return iso.Problem(iso.GridPotential(grid, samples), left, right)


def dense_lumped_fem_eigenvalues(p, n_nodes):
    """Reference for the oracle: the lumped-mass linear-FEM matrix assembled
    densely on all N components per node, with the boundary forms
    -+ B^+ A taken in full coordinates, then restricted to range(B^T) at each
    end by an orthonormal basis."""
    n, h = p.n, np.pi / (n_nodes - 1)
    ps = p.potential.evaluate_many(np.linspace(0.0, np.pi, n_nodes))
    mass = np.full(n_nodes, h)
    mass[[0, -1]] = h / 2
    lap = (2 * np.eye(n_nodes) - np.eye(n_nodes, k=1) - np.eye(n_nodes, k=-1)) / h
    lap[0, 0] = lap[-1, -1] = 1 / h
    k = np.kron(lap, np.eye(n)) + scipy.linalg.block_diag(*(mass[:, None, None] * ps))
    frames = []
    for node, pair, sign in ((0, p.left, -1.0), (n_nodes - 1, p.right, 1.0)):
        q = scipy.linalg.orth(pair.B.T)
        g = q.T @ np.linalg.pinv(pair.B) @ pair.A @ q
        k[node * n:(node + 1) * n, node * n:(node + 1) * n] += sign * q @ (0.5 * (g + g.T)) @ q.T
        frames.append(q)
    t = scipy.linalg.block_diag(frames[0], np.eye((n_nodes - 2) * n), frames[1])
    return scipy.linalg.eigvalsh(t.T @ k @ t, t.T @ (np.repeat(mass, n)[:, None] * t))


def cos3_diagonal(n_dim):
    """P = diag(d_j + j cos 3x), j = 1..N, d = linspace(-3, 1.5, N), Dirichlet ends."""
    grid = iso.Grid.uniform(401)
    d = np.linspace(-3.0, 1.5, n_dim)
    j = np.arange(1, n_dim + 1)
    samples = np.zeros((grid.n, n_dim, n_dim))
    samples[:, j - 1, j - 1] = d + j * np.cos(3 * grid.nodes)[:, None]
    dirichlet = iso.BoundaryPair(np.eye(n_dim), np.zeros((n_dim, n_dim)))
    return iso.Problem(iso.GridPotential(grid, samples), dirichlet, dirichlet)


def coupled4_robin_problems():
    """N = 4 grid potential R diag(-3, 0, 1.5, -0.5) R^T (1 + x) with a
    Robin right end (B^{-1} A symmetric), and either a Dirichlet left end or
    a rank-two B along two rotated directions."""
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    grid = iso.Grid.uniform(401)
    samples = q @ np.diag([-3.0, 0.0, 1.5, -0.5]) @ q.T * (1 + grid.nodes)[:, None, None]
    s = rng.standard_normal((4, 4))
    robin = iso.BoundaryPair(q @ (s + s.T), q)        # B^{-1} A = s + s^T
    dirichlet = iso.BoundaryPair(np.eye(4), np.zeros((4, 4)))
    potential = iso.GridPotential(grid, samples)
    rank_two = iso.BoundaryPair(q @ np.diag([0.5, -1.0, 1.0, 1.0]) @ q.T,
                                q @ np.diag([1.0, 1.0, 0.0, 0.0]) @ q.T)
    return iso.Problem(potential, dirichlet, robin), iso.Problem(potential, rank_two, robin)


def robin_pair():
    """-y'' = lambda y with y'(0) = -40 y(0) and y'(pi) = 40 y(pi): two
    boundary-layer eigenvalues near -1600, exponentially close together."""
    return iso.Problem(iso.ConstantDiagonalPotential([0.0]),
                       iso.BoundaryPair(np.array([[40.0]]), np.array([[1.0]])),
                       iso.BoundaryPair(np.array([[-40.0]]), np.array([[1.0]])))


def assert_residuals_bound(p, report):
    """Each residual is at most Newton's tolerance, and bounds the distance to
    the discrete eigenvalue: where Newton with the exact derivative, iterated
    from the reported one, stops shrinking its step."""
    for pair in report.pairs:
        assert pair.residual <= max(1e-10, 64 * np.spacing(1.0) * abs(pair.lam))
        lam, last = pair.lam, np.inf
        for _ in range(20):
            w, dw = oracles.exact_derivative(p, [lam], report.grid)
            mu = spectrum._newton_steps(w, dw)[0]
            if abs(mu) >= last:
                break
            lam, last = lam - mu.real, abs(mu)
        assert abs(pair.lam - lam) <= 2 * pair.residual + 4 * np.spacing(abs(pair.lam))


def inject_roots(monkeypatch, change, converged):
    """Scans whose roots entering the count are change(starts), with the
    Newton step of the count's fold taken as 0 at the roots within 1e-7 of
    one of converged."""
    certify, steps = spectrum._certify, spectrum._central_steps

    def changed(p, starts, *args, **kwargs):
        return certify(p, change(starts), *args, **kwargs)

    def taken(w, w_lo, w_hi, lo, hi):
        at = 0.5 * (lo + hi)
        near = np.min(np.abs(at[:, None] - np.asarray(converged, dtype=float)), axis=1,
                      initial=np.inf) <= 1e-7
        return np.where(near, 0.0, steps(w, w_lo, w_hi, lo, hi))

    monkeypatch.setattr(spectrum, "_certify", changed)
    monkeypatch.setattr(spectrum, "_central_steps", taken)


def counts(p, lams, raw=False):
    """Eigenvalue counts N(lambda) of p at 401 nodes, rounded unless raw."""
    grid = iso.Grid.uniform(401)
    count = spectrum._raw_counts if raw else spectrum._counts
    return count(p, np.asarray(lams, dtype=float), grid, potential_tables(p.potential, grid),
                 spectrum._potential_range(p, grid))[0]


def char_matrix(p, lam, grid):
    """W(lam) of p on grid."""
    return spectrum._char_batch(p, [lam], grid, None)[0]


def dirichlet_2x2(p11, p22):
    return iso.Problem(iso.ConstantDiagonalPotential([p11, p22]),
                       iso.BoundaryPair(np.eye(2), np.zeros((2, 2))),
                       iso.BoundaryPair(np.eye(2), np.zeros((2, 2))))


class TestCharacteristicMatrix:
    def test_scalar_zero_at_eigenvalue(self, scalar):
        w = char_matrix(scalar, 4.0, iso.Grid.uniform(401))
        assert abs(w[0, 0]) < 1e-8

    def test_scalar_zero_off_eigenvalue(self, scalar):
        w = char_matrix(scalar, 2.0, iso.Grid.uniform(401))
        exact = -np.sin(np.sqrt(2) * np.pi) / np.sqrt(2)   # = 0.68158201738...
        assert abs(w[0, 0] - exact) < 1e-6

    def test_paper_double_zero(self, paper):
        w = char_matrix(paper, 1.0, iso.Grid.uniform(401))
        assert np.max(np.abs(w)) < 1e-7

    def test_overflow_raises(self, scalar):
        with pytest.raises(NonFiniteState):
            char_matrix(scalar, -1e8, iso.Grid.uniform(101))

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(3)
        grid = iso.Grid.uniform(201)
        a = rng.normal(size=(grid.n, 2, 2))
        problem = iso.Problem(iso.GridPotential(grid, a + a.transpose(0, 2, 1)),
                              iso.BoundaryPair(0.5 * np.eye(2), np.eye(2)),
                              iso.BoundaryPair(np.eye(2), 0.3 * np.eye(2)))
        tables = potential_tables(problem.potential, grid)
        lams = np.array([-4.0, 0.3, 17.0])
        # the reference's W is the scan's, and its exact derivative a central difference of it
        w, dw = oracles.exact_derivative(problem, lams, grid)
        assert np.max(np.abs(w - spectrum._char_batch(problem, lams, grid, tables))) <= \
            1e-12 * np.max(np.abs(w))
        d = 1e-5
        fd = (spectrum._char_batch(problem, lams + d, grid, tables)
              - spectrum._char_batch(problem, lams - d, grid, tables)) / (2 * d)
        for k in range(lams.size):
            assert np.max(np.abs(dw[k] - fd[k])) <= 1e-6 * np.max(np.abs(dw[k]))

    @pytest.mark.parametrize("which,window", [("paper", (-5.0, 20.0)), ("coupled4", (-5.0, 20.0)),
                                              ("scalar", (0.5, 2600.0))])
    def test_central_step_is_the_exact_derivative_step(self, which, window):
        # 1e-6 above each eigenvalue, Newton's step from the central
        # difference of W at -/+ 1e-8 (1 + |lambda|) is the step of the exact
        # lambda-derivative within 1e-6 of its size
        p = {"paper": iso.builtin_problem("paper-example-2x2"), "coupled4": oracles.coupled4(),
             "scalar": iso.builtin_problem("scalar-zero")}[which]
        report = iso.scan_spectrum(p, *window)
        lams = np.array([pair.lam for pair in report.pairs]) + 1e-6
        stepped, _, stepping, _, _ = spectrum._newton_refine(
            p, lams, np.ones(lams.size), report.grid, potential_tables(p.potential, report.grid),
            passes=1)
        exact = spectrum._newton_steps(*oracles.exact_derivative(p, lams, report.grid))
        assert stepping.all() and np.all(np.abs(exact) > 5e-7)
        assert np.all(np.abs(lams - stepped - exact.real) <= 1e-6 * np.abs(exact))


class TestScan:
    def test_paper_sigma_sequence(self, paper_report):
        exact = oracles.dirichlet_spectrum([-3.0, 0.0], -5.0, 20.0)
        assert np.array_equal(exact, [-2.0, 1.0, 1.0, 4.0, 6.0, 9.0, 13.0, 16.0])
        sigma = paper_report.sigma_sequence
        assert sigma.size == exact.size
        assert np.max(np.abs(sigma - exact)) < 1e-6
        mults = [(round(p.lam), p.multiplicity) for p in paper_report.pairs]
        assert mults == [(-2, 1), (1, 2), (4, 1), (6, 1), (9, 1), (13, 1), (16, 1)]

    def test_scalar_zero_scan(self, scalar_report):
        assert [(round(p.lam), p.multiplicity) for p in scalar_report.pairs] == \
            [(1, 1), (4, 1), (9, 1)]
        assert np.max(np.abs(scalar_report.sigma_sequence - [1.0, 4.0, 9.0])) < 1e-6

    def test_free_2x2_double_eigenvalues(self):
        report = iso.scan_spectrum(iso.builtin_problem("free-2x2"), 0.5, 5.0)
        assert [(round(p.lam), p.multiplicity) for p in report.pairs] == [(1, 2), (4, 2)]

    def test_empty_window(self, scalar):
        report = iso.scan_spectrum(scalar, 1.5, 3.5)
        assert report.pairs == ()
        assert report.sigma_sequence.size == 0

    def test_sigma_sequence_nondecreasing(self, paper_report):
        sigma = paper_report.sigma_sequence
        assert np.all(np.diff(sigma) >= 0)
        assert sigma.size == sum(p.multiplicity for p in paper_report.pairs)

    def test_deterministic(self, scalar):
        r1 = iso.scan_spectrum(scalar, 0.5, 10.0)
        r2 = iso.scan_spectrum(scalar, 0.5, 10.0)
        assert np.array_equal(r1.sigma_sequence, r2.sigma_sequence)
        assert np.array_equal(r1.pairs[0].phis, r2.pairs[0].phis)

    def test_close_pair_resolved_with_oracle(self):
        report = iso.scan_spectrum(dirichlet_2x2(-0.02, 0.0), 0.5, 5.0)
        lams = [round(p.lam, 6) for p in report.pairs]
        assert lams == [0.98, 1.0, 3.98, 4.0]
        assert all(p.multiplicity == 1 for p in report.pairs)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_near_double_roots_are_two_simple_roots(self, delta):
        # two simple roots delta apart, not one double root
        report = iso.scan_spectrum(dirichlet_2x2(-delta, 0.0), 0.5, 2.0)
        assert [p.multiplicity for p in report.pairs] == [1, 1]
        lams = np.array([p.lam for p in report.pairs])
        assert np.max(np.abs(lams - [1.0 - delta, 1.0])) <= 1e-9
        assert abs(lams[1] - lams[0] - delta) <= 1e-12

    def test_multiplicity_capped_by_dimension(self, paper_report):
        assert all(p.multiplicity <= 2 for p in paper_report.pairs)

    def test_multiplicity_is_the_count_jump(self, paper, paper_report):
        # the count rises by the multiplicity within the merge tolerance of
        # each root, and by nothing else across the window
        lams = np.array([p.lam for p in paper_report.pairs])
        delta = spectrum._MERGE_RTOL * (1.0 + np.abs(lams))
        n = counts(paper, np.concatenate([[-5.0], lams - delta, lams + delta, [20.0]]))
        rises = n[1 + lams.size:-1] - n[1:1 + lams.size]
        assert list(rises) == [p.multiplicity for p in paper_report.pairs]
        assert n[-1] - n[0] == rises.sum() == 8
        # and the null basis spans that many directions of small singular values
        for pair in paper_report.pairs:
            svals = np.linalg.svd(char_matrix(paper, pair.lam, pair.grid),
                                  compute_uv=False)
            assert np.all(svals[-pair.multiplicity:] <= 1e-6 * max(svals[0], 1.0))

    def test_shifted_window_same_spectrum(self, paper, paper_report):
        # Newton from other starting points converges to the same roots
        report = iso.scan_spectrum(paper, -4.87, 19.3)
        assert [p.multiplicity for p in report.pairs] == [p.multiplicity for p in paper_report.pairs]
        assert len(report.pairs) == 7
        lams = np.array([p.lam for p in report.pairs])
        assert np.max(np.abs(lams - [p.lam for p in paper_report.pairs])) <= 1e-9
        double = report.pairs[oracles.pair_index(report, 1.0)]
        assert double.multiplicity == 2 and abs(double.lam - 1.0) <= 1e-6

    def test_every_paper_pencil_start_converges_by_newton(self, paper, paper_report, monkeypatch):
        # every pencil start is a converged Newton root already: the count's
        # fold confirms each as it is, and no Newton pass runs. The root at 22
        # lies past the upper edge 20; no pencil start leads there
        starts, newton = [], []
        certify, refine = spectrum._certify, spectrum._newton_refine

        def recording(p, s, *args, **kwargs):
            starts.append(s.copy())
            return certify(p, s, *args, **kwargs)

        def no_newton(*args, **kwargs):
            newton.append(args[1])
            return refine(*args, **kwargs)

        monkeypatch.setattr(spectrum, "_certify", recording)
        monkeypatch.setattr(spectrum, "_newton_refine", no_newton)
        report = iso.scan_spectrum(paper, -5.0, 20.0)
        assert newton == [] and len(starts) == 1
        # the double eigenvalue 1 has two starts within the merge tolerance
        merged = starts[0][spectrum._first_of_runs(starts[0])]
        assert starts[0].size == 8 and np.all(np.diff(merged) > 0)
        assert np.array_equal(merged, [pair.lam for pair in report.pairs])
        assert all(pair.residual <= 1e-10 for pair in report.pairs)
        assert max(p.lam for p in report.pairs) < 17.0
        assert np.array_equal(report.sigma_sequence, paper_report.sigma_sequence)

    def test_dropped_starts_fail_the_count(self, paper, monkeypatch):
        # every start 1e-3 off its eigenvalue, so the count confirms none of
        # them; with no Newton pass every start is dropped, and the scan must
        # refuse rather than return a short spectrum
        certify = spectrum._certify
        monkeypatch.setattr(spectrum, "_certify",
                            lambda p, starts, *args: certify(p, starts + 1e-3, *args))
        monkeypatch.setattr(spectrum, "_NEWTON_PASSES", 0)
        with pytest.raises(WindowTooCoarse, match="count predicts 8 eigenvalues .* found 0"):
            iso.scan_spectrum(paper, -5.0, 20.0)

    def test_root_without_a_count_jump_is_rejected(self, paper, paper_report, monkeypatch):
        # roots at 2.5 and 7.5 enter the count with the pencil's, their Newton
        # steps taken as converged: the count does not rise across them, so
        # they are dropped and the spectrum is unchanged
        inject_roots(monkeypatch, lambda starts: np.sort(np.append(starts, [2.5, 7.5])),
                     [2.5, 7.5])
        report = iso.scan_spectrum(paper, -5.0, 20.0)
        assert [(p.lam, p.multiplicity) for p in report.pairs] == \
            [(p.lam, p.multiplicity) for p in paper_report.pairs]

    def test_root_standing_for_a_missed_neighbour_raises(self, paper, monkeypatch):
        # the root at 6 missing from the count: the count rises by 1 within
        # the merge tolerance of the root at 4, and by 1 more in the gap
        # between it and the root at 9, so 4 is not taken as a double eigenvalue
        inject_roots(monkeypatch, lambda starts: starts[np.abs(starts - 6.0) > 0.5], [])
        with pytest.raises(WindowTooCoarse,
                           match=r"predicts 1 eigenvalues in \[4\.00000005, 8\.99999995\] "
                                 r"but the scan found 0 there"):
            iso.scan_spectrum(paper, -5.0, 20.0)

    def test_simple_root_off_by_more_than_delta_raises(self, paper, monkeypatch):
        # the root at 4 enters the count moved by 1e-6, far beyond the merge
        # tolerance 5e-8 there, with its Newton step taken as converged: the
        # count does not rise within delta of it, and the gap below it holds
        # the eigenvalue 4
        inject_roots(monkeypatch,
                     lambda starts: np.where(np.abs(starts - 4.0) < 0.5, starts + 1e-6, starts),
                     [4.0 + 1e-6])
        with pytest.raises(WindowTooCoarse, match="predicts 1 eigenvalues") as err:
            iso.scan_spectrum(paper, -5.0, 20.0)
        lo, hi = map(float, re.search(r"in \[(\S+), (\S+)\]", str(err.value)).groups())
        assert lo < 4.0 < hi < 4.000001

    @pytest.mark.parametrize("window", [(-5.0, 20.0), (1.5, 3.5), (-2.5, 0.0)])
    def test_uncut_window_counts_once(self, paper, monkeypatch, window):
        # one count gives every root its multiplicity and checks every gap,
        # and its fold carries the paths of every root to the eigenpairs
        calls = []
        count = spectrum._counts

        def recording(*args):
            calls.append((np.size(args[1]), np.size(args[5])))
            return count(*args)

        monkeypatch.setattr(spectrum, "_counts", recording)
        report = iso.scan_spectrum(paper, *window)
        assert len(spectrum._envelope_pieces(-3.0, *window)) == 2
        assert calls == [(2 + 2 * len(report.pairs), len(report.pairs))]

    @pytest.mark.parametrize("window,cuts", [((-5.0, 20.0), 0), ((1.5, 3.5), 0),
                                             ((-1000.0, 20.0), 1)])
    def test_scan_folds_its_path_once(self, paper, monkeypatch, window, cuts):
        # the count certifies the roots by their endpoints, and one path fold
        # of the accepted roots gives the eigenpairs; a cut window folds once
        # more for the count at its cuts, and nothing else integrates a path.
        # On [-1000, 20] the count confirms 3 of the 7 pencil starts; Newton
        # moves the other 4, and a last fold counts only the 8 ends of their
        # windows, and still one path fold takes the 7 roots. A count lane
        # folds at span r = 2^min(3, floor(log2(k/2))), k the largest with
        # N s k h <= 2.5, and keeps every 2r-th node and the last: k = 33 on
        # [-5, 20] gives r = 8, 26 of the 401 nodes, and k = 5 on [-1000, 20]
        # r = 2. The scan's own _fold and _paths are recorded: the endpoints
        # and paths fold through ode._fold too
        lanes, kept, spans, paths = [], [], [], []
        fold, path = spectrum._fold, spectrum._paths

        def recording(tables, lams, z0, span):
            lanes.append(lams.size)
            spans.append(span)
            z = fold(tables, lams, z0, span)
            kept.append(z.shape[0])
            return z

        def path_recording(tables, lams, z0):
            paths.append(lams.size)
            return path(tables, lams, z0)

        monkeypatch.setattr(spectrum, "_fold", recording)
        monkeypatch.setattr(spectrum, "_paths", path_recording)
        report = iso.scan_spectrum(paper, *window)
        edges = spectrum._envelope_pieces(-3.0, *window)
        assert (len(edges) > 2) == bool(cuts)
        roots = len(report.pairs)
        assert lanes == [len(edges)] * cuts + [2 + 3 * roots] + [8] * cuts
        assert paths == ([roots] if roots else [])       # [1.5, 3.5] holds none
        assert kept == {(-5.0, 20.0): [26], (1.5, 3.5): [26],
                        (-1000.0, 20.0): [101, 101, 26]}[window]
        assert spans == {(-5.0, 20.0): [8], (1.5, 3.5): [8], (-1000.0, 20.0): [2, 2, 8]}[window]

    def test_coupled4_count_lane_keeps_26_nodes(self, monkeypatch):
        # N = 4 and s^2 = 20 - (-3) at the top of [-5, 20]: k = 16, span 8,
        # 26 of the 401 nodes
        spans = []
        fold = spectrum._fold

        def recording(tables, lams, z0, span):
            z = fold(tables, lams, z0, span)
            spans.append((span, z.shape[0]))
            return z

        monkeypatch.setattr(spectrum, "_fold", recording)
        iso.scan_spectrum(oracles.coupled4(), -5.0, 20.0)
        assert spans == [(8, 26)]

    def test_scan_work_counts(self, paper, monkeypatch):
        # the count's fold is the only certifying evaluation of W: 33 pencil
        # samples, no Newton evaluation, and one fold at stride 33 (span 8)
        # of the 16 count probes and the 7 roots' endpoints. Over the 400
        # steps the count lanes take 25 sequential products of 8-leaf
        # segments, the one path fold of the 7 accepted roots 200 of pair
        # leaves, and each batch of pencil samples one, of its one segment
        evaluated, folds, paths, products, newton = [], [], [], [], []
        char_batch, fold, path, matmul = (spectrum._char_batch, spectrum._fold, spectrum._paths,
                                          np.matmul)
        refine = spectrum._newton_refine

        def counting(p, lams, *args):
            evaluated.append(np.size(lams))
            return char_batch(p, lams, *args)

        def no_newton(*args, **kwargs):
            newton.append(args[1])
            return refine(*args, **kwargs)

        def recording(tables, lams, z0, span):
            folds.append((lams.size, span))
            return fold(tables, lams, z0, span)

        def path_recording(tables, lams, z0):
            paths.append(lams.size)
            return path(tables, lams, z0)

        def product(*args, **kwargs):
            products.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(spectrum, "_char_batch", counting)
        monkeypatch.setattr(spectrum, "_fold", recording)
        monkeypatch.setattr(spectrum, "_paths", path_recording)
        monkeypatch.setattr(spectrum, "_newton_refine", no_newton)
        monkeypatch.setattr(np, "matmul", product)
        report = iso.scan_spectrum(paper, -5.0, 20.0, iso.Grid.uniform(401))
        assert len(report.pairs) == 7
        assert sum(evaluated) == 33 and newton == []
        assert folds == [(23, 8)] and paths == [7]
        sequential = [shape for shape in products if len(shape) == 3]
        endpoints = collections.Counter((size, 4, 4) for size in evaluated)
        assert collections.Counter(sequential) == collections.Counter(
            {(23, 4, 4): 25, (7, 4, 4): 200}) + endpoints

    @pytest.mark.parametrize("which,window", [("paper", (-5.0, 20.0)), ("coupled4", (-5.0, 20.0)),
                                              ("scalar", (0.5, 2600.0))])
    def test_residual_bounds_the_distance_to_the_discrete_eigenvalue(self, which, window):
        p = {"paper": iso.builtin_problem("paper-example-2x2"), "coupled4": oracles.coupled4(),
             "scalar": iso.builtin_problem("scalar-zero")}[which]
        report = iso.scan_spectrum(p, *window)
        assert len(report.pairs) >= 7
        assert_residuals_bound(p, report)

    @pytest.mark.parametrize("which,window", [("paper", (-5.0, 400.0)), ("paper", (-1000.0, 20.0)),
                                              ("scalar", (0.5, 2600.0)),
                                              ("coupled4-robin", (-5.0, 20.0))])
    def test_hard_windows(self, which, window):
        # Newton runs after the count on 3 of the 38 pencil starts of paper
        # [-5, 400] and on 4 of the 7 of [-1000, 20]: every window keeps the
        # multiplicities of the closed form (of the finite-difference oracle
        # for the coupled N = 4 Robin problem), within the discretisation
        # error of RK4, and residuals that bound the distance to the discrete
        # eigenvalue
        p = {"paper": iso.builtin_problem("paper-example-2x2"),
             "scalar": iso.builtin_problem("scalar-zero"),
             "coupled4-robin": coupled4_robin_problems()[1]}[which]
        report = iso.scan_spectrum(p, *window)
        if which == "coupled4-robin":
            ref, tol = iso.fd_oracle_eigenvalues(p, 201), 0.02
            ref = ref[(ref >= window[0]) & (ref <= window[1])]
        else:
            # RK4 moves the eigenvalue 400 of paper 0.004 above the window
            ref = oracles.dirichlet_spectrum([-3.0, 0.0] if which == "paper" else [0.0],
                                             window[0], window[1] - 1e-9)
            tol = 1e-3 * np.maximum(np.abs(ref), 1.0)
        assert [pair.multiplicity for pair in report.pairs] == \
            list(np.unique(ref, return_counts=True)[1])
        assert np.all(np.abs(report.sigma_sequence - ref) <= tol)
        assert_residuals_bound(p, report)

    @pytest.mark.parametrize("window,moved", [((-5.0, 400.0), 3), ((-1000.0, 20.0), 4)])
    def test_only_what_newton_moved_is_counted_again(self, paper, monkeypatch, window, moved):
        # the count confirms all but `moved` pencil starts; Newton moves
        # those, and the second count takes only the probes that changed,
        # with no root riding in it
        calls = []
        count = spectrum._counts

        def recording(p, lams, grid, tables, prange, roots=()):
            calls.append((np.array(lams), np.array(roots)))
            return count(p, lams, grid, tables, prange, roots)

        monkeypatch.setattr(spectrum, "_counts", recording)
        report = iso.scan_spectrum(paper, *window)
        (probes, roots), (recounted, lanes) = calls[-2:]
        lams = np.array([pair.lam for pair in report.pairs])
        final = spectrum._probes(lams, *window)
        assert roots.size == lams.size and lanes.size == 0
        assert np.count_nonzero(~np.isin(lams, roots)) == moved
        assert np.array_equal(recounted, final[~np.isin(final, probes)])
        assert recounted.size == 2 * moved

    def test_unresolvable_piece_raises(self, scalar):
        # near the RK4 stability limit (lambda h^2 ~ 8) W is not resolved at
        # any degree; bisection stops at the least interpolation width
        with pytest.raises(WindowTooCoarse, match="not resolved"):
            iso.scan_spectrum(scalar, 1.2e5, 1.4e5)

    @pytest.mark.filterwarnings("error")
    def test_w_damped_to_zero_raises(self, scalar):
        # at lambda h^2 ~ 3.9 RK4 damps W to 0.0 at every sample; an all-zero
        # series resolves nothing, so the piece bisects to the least width
        grid = iso.Grid.uniform(3201)
        assert not np.any(char_matrix(scalar, 4.0008e6, grid))
        assert spectrum._chopped_degree(np.zeros((9, 1, 1))) is None
        with pytest.raises(WindowTooCoarse, match="W is not resolved"):
            iso.scan_spectrum(scalar, 4e6, 4.0016e6, grid)

    def test_damped_high_window_equals_its_halves(self, scalar):
        # RK4 damps W by about 1e-22 across [6e4, 7e4] at 401 nodes; a piece
        # whose halves differ in size by more than 1e5 is bisected
        whole = [p.lam for p in iso.scan_spectrum(scalar, 6e4, 7e4).pairs]
        halves = [p.lam for lo, hi in ((6e4, 6.4e4), (6.4e4, 7e4))
                  for p in iso.scan_spectrum(scalar, lo, hi).pairs]
        assert len(whole) == len(halves) == 27
        assert np.max(np.abs(np.subtract(whole, halves))) <= 1e-8

    def test_newton_converges_at_the_rounding_floor(self, scalar):
        # near lambda = 7e4 the rounding of W keeps the Newton step above
        # 1e-10: from the first start it alternates between two neighbours
        # with |mu| ~ 1.3e-10, and must still converge
        grid = iso.Grid.uniform(401)
        starts = np.array([69697.9348730483, 69697.9348728527])
        lams, _, _, converged, _ = spectrum._newton_refine(scalar, starts, np.ones(2), grid,
                                                           potential_tables(scalar.potential, grid))
        assert converged.all()
        assert np.all(np.abs(lams - 69697.934873394) <= 1e-9)

    @pytest.mark.parametrize("width", [1.0, 1e-4, 1e-7])
    def test_narrow_window_at_high_root(self, scalar, width):
        # W is interpolated on at least a fixed fraction of its oscillation,
        # so its variation stays far above rounding however narrow the window
        root = iso.scan_spectrum(scalar, 2490.0, 2510.0).pairs[0].lam
        report = iso.scan_spectrum(scalar, root - width, root + width)
        assert [p.multiplicity for p in report.pairs] == [1]
        assert abs(report.pairs[0].lam - root) <= 1e-9

    def test_scalar_squares_up_to_400(self, scalar):
        # the pencil finds exactly k^2, each simple, and the count confirms
        # all 20 up to the window's upper edge
        report = iso.scan_spectrum(scalar, 0.5, 410.0)
        assert [p.multiplicity for p in report.pairs] == [1] * 20
        exact = np.arange(1, 21) ** 2
        assert np.max(np.abs(report.sigma_sequence - exact)) <= 1e-2

    def test_roots_just_outside_window_rejected(self, scalar):
        # an edge 1e-9 from the discrete root near 4: Newton converges to the
        # root, which lies outside the window, and the count leaves it out
        root = iso.scan_spectrum(scalar, 3.5, 4.5).pairs[0].lam
        assert iso.scan_spectrum(scalar, root + 1e-9, 8.0).pairs == ()
        below = iso.scan_spectrum(scalar, 0.5, root - 1e-9)
        assert [round(p.lam) for p in below.pairs] == [1]

    def test_report_json(self, scalar_report):
        obj = scalar_report.to_json_obj()
        assert [round(r["lambda"]) for r in obj] == [1, 4, 9]
        assert all(set(r) == {"lambda", "multiplicity", "residual"} for r in obj)

    def test_wide_negative_window_same_spectrum(self, paper, paper_report, monkeypatch):
        # W grows by exp(pi sqrt(997)) across [-1000, -3]; the envelope pieces
        # keep the roots near -2 resolved, and the count at the cuts skips
        # the 8 pieces below -3 that hold no eigenvalue (264 of 328 W
        # evaluations when each was sampled)
        evaluated = []
        char_batch = spectrum._char_batch

        def counting(p, lams, *args, **kwargs):
            evaluated.append(np.size(lams))
            return char_batch(p, lams, *args, **kwargs)

        monkeypatch.setattr(spectrum, "_char_batch", counting)
        report = iso.scan_spectrum(paper, -1000.0, 20.0)
        assert sum(evaluated) < 100
        assert [p.multiplicity for p in report.pairs] == [p.multiplicity for p in paper_report.pairs]
        lams = np.array([p.lam for p in report.pairs])
        assert np.max(np.abs(lams - [p.lam for p in paper_report.pairs])) <= 1e-9

    @pytest.mark.parametrize("n_dim", [4, 8])
    def test_oscillating_diagonal_problem_scans_fully(self, n_dim):
        # at N = 4 the eigenvalue near 1.27 sits 0.2 above one at 1.069 whose
        # slowly rising sigma_min hides its narrow dip from sampling
        report = iso.scan_spectrum(cos3_diagonal(n_dim), -5.0, 60.0)
        assert [p.multiplicity for p in report.pairs] == [1] * (7 * n_dim)
        if n_dim == 4:
            lams = np.array([p.lam for p in report.pairs])
            assert np.sum(np.abs(lams - 1.17) < 0.15) == 2


class TestCount:
    def test_dirichlet_channels_closed_form(self):
        # eigenvalues k^2 + p_i; probes at least 0.05 from every one of them
        problem = iso.Problem(iso.ConstantDiagonalPotential([-3.0, 0.0, 1.5]),
                              iso.BoundaryPair(np.eye(3), np.zeros((3, 3))),
                              iso.BoundaryPair(np.eye(3), np.zeros((3, 3))))
        exact = (np.arange(1, 10)[:, None] ** 2 + [-3.0, 0.0, 1.5]).ravel()
        lams = np.arange(-4.6, 60.0, 0.9)
        assert np.min(np.abs(lams[:, None] - exact)) >= 0.05
        assert list(counts(problem, lams)) == [int(np.sum(exact < lam)) for lam in lams]

    def test_neumann_left_dirichlet_right_closed_form(self):
        # -y'' = lambda y, y'(0) = 0, y(pi) = 0: eigenvalues (k + 1/2)^2
        problem = iso.Problem(iso.ConstantDiagonalPotential([0.0]),
                              iso.BoundaryPair(np.zeros((1, 1)), np.eye(1)),
                              iso.BoundaryPair(np.eye(1), np.zeros((1, 1))))
        exact = (np.arange(20) + 0.5) ** 2
        lams = np.arange(0.1, 100.0, 0.7)
        assert np.min(np.abs(lams[:, None] - exact)) >= 0.05
        assert list(counts(problem, lams)) == [int(np.sum(exact < lam)) for lam in lams]

    def test_zero_below_the_spectrum(self, paper):
        assert list(counts(paper, [-1000.0, -100.0, -5.0, -2.5])) == [0, 0, 0, 0]

    @pytest.mark.parametrize("which", ["mixed-end", "robin-dirichlet", "robin-rank-two"])
    def test_matches_oracle_count_at_low_lambda(self, which):
        # the mixed-end and rank-two ends have ker B directions whose boundary
        # phase is an exact 0: taken on the wrong side of 0, it counts one too many
        problem = {"mixed-end": mixed_end_problem(),
                   "robin-dirichlet": coupled4_robin_problems()[0],
                   "robin-rank-two": coupled4_robin_problems()[1]}[which]
        fd = iso.fd_oracle_eigenvalues(problem, 201)
        lams = np.concatenate([[fd[0] - 1.0], 0.5 * (fd[:8] + fd[1:9])])
        assert list(counts(problem, lams)) == list(range(9))
        raw = counts(problem, lams, raw=True)
        assert np.max(np.abs(raw - np.rint(raw))) <= 1e-9

    def test_raw_counts_are_integers(self, paper, scalar):
        for problem, lams in ((paper, np.linspace(-50.0, 30.0, 37)),
                              (scalar, np.linspace(0.3, 2600.3, 41))):
            raw = counts(problem, lams, raw=True)
            assert np.max(np.abs(raw - np.rint(raw))) <= 1e-9

    def test_boundary_phase_of_ker_b_is_exactly_zero(self):
        # left end of mixed_end_problem: X = R diag(-0.4 + i s, -1) R^T, so the
        # phases are 2 arg(-0.4 + i s) and, along ker B, 0 (2 pi on the right)
        left = mixed_end_problem().left
        s = np.array([1.0, 3.0, 40.0])
        robin = 2 * np.angle(-0.4 + 1j * s)
        assert np.max(np.abs(spectrum._boundary_phases(left, s, False) - robin)) <= 1e-12
        assert np.max(np.abs(spectrum._boundary_phases(left, s, True) - robin - 2 * np.pi)) <= 1e-12

    def test_robin_boundary_layer_pair_is_counted(self):
        # W is a small difference of terms of size 1e56 near the pair at -1600
        assert list(counts(robin_pair(), [-2000.0, -1700.0, -1500.0, 10.0])) == [0, 0, 2, 5]

    def test_robin_boundary_layer_pair_is_not_lost(self):
        # the FD oracle's margin did not flag the missed pair: 3 of 5 returned
        with pytest.raises(WindowTooCoarse):
            iso.scan_spectrum(robin_pair(), -2000.0, 10.0)

    def test_root_window_holding_more_than_n_eigenvalues_raises(self, monkeypatch):
        # the Robin pair lies within delta of -1600; a root there taken as
        # converged has both in its window, more than the one an N = 1 root
        # can be, and is not returned as a double eigenvalue
        p, grid = robin_pair(), iso.Grid.uniform(401)
        monkeypatch.setattr(spectrum, "_central_steps", lambda w, *args: np.zeros(w.shape[0]))
        with pytest.raises(WindowTooCoarse, match=r"predicts 2 eigenvalues in \[-1600\.00002, "
                                                  r"-1599\.99998\], more than the N = 1"):
            spectrum._certify(p, np.array([-1600.0]), -1700.0, -1500.0, grid,
                              potential_tables(p.potential, grid),
                              spectrum._potential_range(p, grid))

    @pytest.mark.parametrize("which, k", [("scalar", 2), ("paper", 33), ("coupled4-robin", 3)])
    def test_stride_at_the_phase_bound_counts_as_every_node(self, monkeypatch, which, k):
        # det(Y' + i s Y) sampled every k nodes, with N s k h just under 2.5 at
        # the top lambda, counts as it does sampled at every node
        grid = iso.Grid.uniform(401)
        p = {"scalar": iso.builtin_problem("scalar-zero"),
             "paper": iso.builtin_problem("paper-example-2x2"),
             "coupled4-robin": coupled4_robin_problems()[1]}[which]
        pmin, pmax = spectrum._potential_range(p, grid)
        if which == "paper":
            lams = np.linspace(-5.0, 20.0, 40)         # the scan window, >= 0.02 from each eigenvalue
        else:
            top = pmin + (2.5 * (1 - 1e-6) / (p.n * k * grid.h)) ** 2
            lams = np.linspace(0.99 * top, top, 12)
        s = np.sqrt(np.maximum(lams[-1] - pmin, pmax - lams[-1]))
        assert 2.48 < p.n * s * k * grid.h <= 2.5
        spans = []
        path = spectrum._paths

        def every_node(tables, lams, z0, span):
            spans.append(span)
            return path(tables, lams, z0).swapaxes(0, 1)

        strided = counts(p, lams)
        monkeypatch.setattr(spectrum, "_fold", every_node)
        assert list(counts(p, lams)) == list(strided)
        assert spans == [{2: 1, 33: 8, 3: 1}[k]]          # span 2^min(3, floor(log2(k/2)))

    def test_phase_step_beyond_the_limit_raises(self):
        # N s h = 8 sqrt(2006.5) pi / 400 = 2.8 at lambda = 2000
        with pytest.raises(WindowTooCoarse, match="N s h <= 2.5"):
            iso.scan_spectrum(cos3_diagonal(8), -5.0, 2000.0)


class TestEigenbasis:
    def test_paper_double_eigenspace_span(self, paper, paper_report):
        # eigenspace of lambda=1 is span{(sin 2x, 0), (0, sin x)}
        pair = paper_report.pairs[oracles.pair_index(paper_report, 1.0)]
        xs = pair.grid.nodes
        for l in range(2):
            phi = pair.phis[:, :, l]
            # components must be multiples of sin 2x and sin x respectively
            c1 = phi[100, 0] / np.sin(2 * xs[100])
            c2 = phi[100, 1] / np.sin(xs[100])
            assert np.max(np.abs(phi[:, 0] - c1 * np.sin(2 * xs))) < 1e-7
            assert np.max(np.abs(phi[:, 1] - c2 * np.sin(xs))) < 1e-7

    def test_within_eigenspace_orthogonality(self, paper_report):
        pair = paper_report.pairs[oracles.pair_index(paper_report, 1.0)]
        g = pair.grid
        ip = integral(np.einsum("qn,qn->q", pair.phis[:, :, 0], pair.phis[:, :, 1]), g.h)
        assert abs(ip) <= 1e-8 * np.sqrt(pair.norms_sq[0] * pair.norms_sq[1])

    def test_free_2x2_gram_diagonal(self):
        report = iso.scan_spectrum(iso.builtin_problem("free-2x2"), 0.5, 2.0)
        pair = report.pairs[0]
        assert pair.multiplicity == 2
        z = pair.phis
        gram = integral(np.einsum("qni,qnj->qij", z, z), pair.grid.h)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(gram))

    def test_simple_eigenvalue_single_branch(self, scalar_report):
        pair = scalar_report.pairs[0]
        assert pair.multiplicity == 1
        assert pair.thetas.shape == (1, 1)
        assert abs(pair.norms_sq[0] - np.pi / 2) < 1e-8

    def test_cross_eigenvalue_orthogonality(self, paper_report):
        # self-adjointness: eigenfunctions at distinct eigenvalues are orthogonal
        h = paper_report.grid.h
        pairs = paper_report.pairs
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                for i in range(pairs[a].multiplicity):
                    for j in range(pairs[b].multiplicity):
                        ip = integral(np.einsum("qn,qn->q", pairs[a].phis[:, :, i],
                                                pairs[b].phis[:, :, j]), h)
                        bound = 1e-8 * np.sqrt(pairs[a].norms_sq[i] * pairs[b].norms_sq[j])
                        assert abs(ip) <= bound

    def test_not_an_eigenvalue(self, paper):
        with pytest.raises(NotAnEigenvalue):
            iso.eigenbasis(paper, 2.0, iso.Grid.uniform(401))

    @pytest.mark.parametrize("rank_tol", [1e3, 1.0, 0.0, -1.0, float("nan")])
    def test_bad_rank_tol_is_a_value_error(self, paper, rank_tol):
        # the threshold is gone (1e3 once counted every singular value:
        # multiplicity 2 at the simple -2); any value of it is refused
        with pytest.raises(TypeError, match="rank_tol"):
            iso.eigenbasis(paper, -1.9999999999365838, iso.Grid.uniform(401), rank_tol=rank_tol)

    def test_multiplicity_is_the_count_rise(self, paper):
        # no threshold to set: a rank_tol of 1e3 once gave multiplicity 2 at
        # the simple -2
        grid = iso.Grid.uniform(401)
        assert iso.eigenbasis(paper, -1.9999999999365838, grid).multiplicity == 1
        assert iso.eigenbasis(paper, 1.0, grid).multiplicity == 2
        # two simple roots 1e-6 apart lie farther apart than the merge tolerance
        assert iso.eigenbasis(dirichlet_2x2(-1e-6, 0.0), 1.0, grid).multiplicity == 1

    @pytest.mark.parametrize("start, exact, mult", [(-2 + 1e-8, -2.0, 1), (1 + 5e-9, 1.0, 2),
                                                    (4 + 1e-8, 4.0, 1)])
    def test_refines_a_start_within_delta(self, paper, paper_report, start, exact, mult):
        # Newton refines the start as the scan refines its roots
        scan = paper_report.pairs[oracles.pair_index(paper_report, exact)]
        pair = iso.eigenbasis(paper, start, paper_report.grid)
        assert pair.multiplicity == scan.multiplicity == mult
        assert pair.residual <= 1e-10
        # the two discrete eigenvalues near 1 lie 4e-9 apart: only delta bounds that root
        bound = 2 * scan.residual if mult == 1 else spectrum._MERGE_RTOL * (1 + abs(scan.lam))
        assert abs(pair.lam - scan.lam) <= bound

    def test_scan_and_eigenbasis_certify_on_one_path(self, paper, monkeypatch):
        calls = []
        for name in ("_certify", "_newton_refine", "_eigenpairs"):
            def record(*args, _f=getattr(spectrum, name), _name=name, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(spectrum, name, record)
        report = iso.scan_spectrum(paper, -5.0, 20.0)
        assert calls == ["_certify", "_eigenpairs"]
        calls.clear()
        iso.eigenbasis(paper, report.pairs[0].lam, report.grid)
        assert calls == ["_certify", "_eigenpairs"]
        calls.clear()
        # a start the count does not confirm takes Newton's method on the same path
        iso.eigenbasis(paper, report.pairs[0].lam + 1e-9, report.grid)
        assert calls == ["_certify", "_newton_refine", "_eigenpairs"]

    def test_residual_small_at_eigenvalue(self, paper_report):
        assert all(p.residual < 1e-7 for p in paper_report.pairs)

    def test_non_finite_start_raises_the_window_error(self, paper):
        with pytest.raises(ValueError, match="lambda window must be finite"):
            iso.eigenbasis(paper, float("nan"), iso.Grid.uniform(401))

    def test_rank_deficient_boundary_pair_raises_condition_violated(self, paper):
        # rank [A, B] = 1 < N at the right end: the boundary phases would
        # solve with a singular X, as the scan's checks refuse it first
        bad = iso.Problem(paper.potential, paper.left,
                          iso.BoundaryPair(np.zeros((2, 2)), np.diag([1.0, 0.0])))
        with pytest.raises(iso.errors.ConditionViolated, match="fails"):
            iso.eigenbasis(bad, 1.0, iso.Grid.uniform(401))

    def test_even_grid_raises(self, paper):
        with pytest.raises(ValueError, match="--grid must be odd and >= 5"):
            iso.eigenbasis(paper, 1.0, iso.Grid.uniform(400))


class TestChebyshevRoots:
    def test_coefficients_of_a_matrix_polynomial(self):
        # diag(T_3 - 0.5 T_1, 2 T_0 + T_2) sampled at degree 8 points
        x = np.cos(np.pi * np.arange(9) / 8)
        values = np.zeros((9, 2, 2))
        values[:, 0, 0] = 4 * x**3 - 3 * x - 0.5 * x
        values[:, 1, 1] = 2 + (2 * x**2 - 1)
        c = spectrum._chebyshev_coeffs(values)
        expect = np.zeros((9, 2, 2))
        expect[3, 0, 0], expect[1, 0, 0] = 1.0, -0.5
        expect[0, 1, 1], expect[2, 1, 1] = 2.0, 1.0
        assert np.max(np.abs(c - expect)) <= 1e-15
        assert spectrum._chopped_degree(c) == 3

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 24, 32, 48, 64, 96])
    def test_coefficients_match_scipy_dct(self, d):
        # the real FFT of the even extension is the DCT-I that scipy.fft computes
        values = np.random.default_rng(d).standard_normal((d + 1, 3, 3))
        expect = scipy.fft.dct(values, type=1, axis=0) / d
        expect[[0, -1]] *= 0.5
        np.testing.assert_allclose(spectrum._chebyshev_coeffs(values), expect,
                                   rtol=1e-14, atol=1e-14 * np.max(np.abs(expect)))

    def test_unresolved_series_is_not_chopped(self):
        x = np.cos(np.pi * np.arange(9) / 8)
        c = spectrum._chebyshev_coeffs(np.cos(20 * x)[:, None, None])
        assert spectrum._chopped_degree(c) is None

    def test_colleague_roots_of_coupled_polynomial(self):
        # P(x) = R diag((x - 0.3)(x + 0.5), (x - 0.3)(x - 2)) R^T: a double
        # root at 0.3 and simple ones at -0.5 and 2
        x = np.cos(np.pi * np.arange(9) / 8)
        rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        diag = np.zeros((9, 2, 2))
        diag[:, 0, 0] = (x - 0.3) * (x + 0.5)
        diag[:, 1, 1] = (x - 0.3) * (x - 2.0)
        c = spectrum._chebyshev_coeffs(rot @ diag @ rot.T)
        roots = spectrum._colleague_roots(c[:spectrum._chopped_degree(c) + 1])
        assert np.max(np.abs(roots - [-0.5, 0.3, 0.3, 2.0])) <= 1e-12

    @staticmethod
    def assert_roots_match_qz(c):
        # the real roots in the piece [-1, 1], by shift and invert and by the
        # QZ algorithm on the same pencil, agree within the root slack
        slack = spectrum._ROOT_SLACK
        x = scipy.linalg.eigvals(*spectrum._colleague_pencil(c / np.max(np.abs(c))))
        x = x[np.isfinite(x)]
        qz = np.sort(x[np.abs(x.imag) <= slack].real)
        ours = spectrum._colleague_roots(c)
        qz, ours = (r[np.abs(r) <= 1.0 + slack] for r in (qz, ours))
        assert ours.size == qz.size
        assert np.all(np.abs(ours - qz) <= slack)
        return ours

    @pytest.mark.parametrize("problem, window", [
        (lambda: iso.builtin_problem("paper-example-2x2"), (-5.0, 20.0)),
        (oracles.coupled4, (-5.0, 20.0)),
        (lambda: cos3_diagonal(8), (-5.0, 60.0)),
        (lambda: iso.builtin_problem("scalar-zero"), (6e4, 7e4)),     # damped pieces
    ], ids=["paper", "coupled4", "cos3-8", "scalar-damped"])
    def test_scan_pencils_match_qz(self, monkeypatch, problem, window):
        series = []
        roots = spectrum._colleague_roots
        monkeypatch.setattr(spectrum, "_colleague_roots", lambda c: series.append(c) or roots(c))
        iso.scan_spectrum(problem(), *window)
        monkeypatch.undo()
        assert series
        for c in series:
            self.assert_roots_match_qz(c)

    def test_singular_leading_coefficient(self):
        # diag(T_3 - 0.2 T_1, T_1 + 0.1): C_3 = diag(1, 0), so the pencil has
        # two infinite eigenvalues besides the four finite roots
        x = np.cos(np.pi * np.arange(9) / 8)
        rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        diag = np.zeros((9, 2, 2))
        diag[:, 0, 0] = 4 * x**3 - 3 * x - 0.2 * x
        diag[:, 1, 1] = x + 0.1
        c = spectrum._chebyshev_coeffs(rot @ diag @ rot.T)
        c = c[:spectrum._chopped_degree(c) + 1]
        assert c.shape[0] == 4 and np.linalg.matrix_rank(c[-1]) == 1
        expect = np.sort(np.concatenate([[-0.1, 0.0], np.array([-1, 1]) * np.sqrt(3.2 / 4)]))
        assert np.max(np.abs(self.assert_roots_match_qz(c) - expect)) <= 1e-12

    def test_double_real_root(self):
        # diag((x - 0.3)^2 (x + 0.6), (x - 0.1)(x + 0.8)): a double root at 0.3
        # that is not semi-simple, found to about the square root of rounding
        x = np.cos(np.pi * np.arange(9) / 8)
        rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        diag = np.zeros((9, 2, 2))
        diag[:, 0, 0] = (x - 0.3) ** 2 * (x + 0.6)
        diag[:, 1, 1] = (x - 0.1) * (x + 0.8)
        c = spectrum._chebyshev_coeffs(rot @ diag @ rot.T)
        roots = self.assert_roots_match_qz(c[:spectrum._chopped_degree(c) + 1])
        assert np.max(np.abs(roots - [-0.8, -0.6, 0.1, 0.3, 0.3])) <= 1e-7

    def test_envelope_pieces_bound_the_growth_exponent(self):
        edges = spectrum._envelope_pieces(-3.0, -1000.0, 20.0)
        assert edges[0] == -1000.0 and edges[-1] == 20.0
        exponent = np.pi * np.sqrt(np.maximum(-3.0 - edges, 0.0))
        assert np.all(np.diff(edges) > 0)
        assert np.all(-np.diff(exponent) <= np.log(1e5) + 1e-9)
        assert edges[-2] < -3.0
        assert np.array_equal(spectrum._envelope_pieces(-3.0, -5.0, 20.0), [-5.0, 20.0])


class TestOracle:
    @pytest.mark.parametrize("name", ["paper-example-2x2", "scalar-zero", "free-2x2"])
    def test_fd_oracle_matches_scan_to_second_order(self, name):
        problem = iso.builtin_problem(name)
        fd = iso.fd_oracle_eigenvalues(problem, 201)
        report = iso.scan_spectrum(problem, -5.0, 20.0)
        sigma = report.sigma_sequence
        in_window = fd[(fd >= -5.0) & (fd <= 20.0)]
        assert in_window.size == sigma.size
        h2 = (np.pi / 200) ** 2
        assert np.all(np.abs(np.sort(in_window) - sigma) <= h2 * (1.0 + sigma**2))

    @pytest.mark.parametrize("n_dim", [1, 2, 8])
    def test_dirichlet_closed_form(self, n_dim):
        values = np.linspace(-3.0, 3.0, n_dim)
        dirichlet = iso.BoundaryPair(np.eye(n_dim), np.zeros((n_dim, n_dim)))
        problem = iso.Problem(iso.ConstantDiagonalPotential(values), dirichlet, dirichlet)
        fd = iso.fd_oracle_eigenvalues(problem, 201)
        h = np.pi / 200
        k = np.arange(1, 200)
        exact = np.sort((values[:, None] + 4 / h**2 * np.sin(k * h / 2) ** 2).ravel())
        assert fd.shape == exact.shape
        assert np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-9

    def test_mixed_ends_count_and_second_order(self):
        problem = mixed_end_problem()
        sigma = iso.scan_spectrum(problem, -2.0, 23.0).sigma_sequence
        assert sigma.size == 10

        def err(n):
            fd = iso.fd_oracle_eigenvalues(problem, n)
            fd = fd[(fd >= -2.0) & (fd <= 23.0)]
            assert fd.size == sigma.size
            return np.max(np.abs(fd - sigma))

        assert err(101) / err(201) >= 3.5

    def test_matches_dense_assembly(self):
        # the rank-two B keeps two of four components at its end
        for problem in coupled4_robin_problems() + (mixed_end_problem(),):
            fd = iso.fd_oracle_eigenvalues(problem, 101)
            dense = dense_lumped_fem_eigenvalues(problem, 101)
            assert fd.shape == dense.shape
            assert np.max(np.abs(fd - dense)) <= 1e-11 * np.max(np.abs(dense))

    def test_oracle_second_order_decay(self, scalar):
        def err(n):
            fd = iso.fd_oracle_eigenvalues(scalar, n)
            fd = fd[(fd > 0.5) & (fd < 10.0)]
            return np.max(np.abs(np.sort(fd) - np.array([1.0, 4.0, 9.0])))

        assert err(101) / err(201) > 3.5


def conjugated(p, rot):
    """p with P, A and B conjugated by the constant orthogonal rot: the same
    eigenvalues, with eigenfunctions rot phi."""
    pot = p.potential
    samples = rot @ pot.samples @ rot.T
    pairs = [iso.BoundaryPair(rot @ e.A @ rot.T, rot @ e.B @ rot.T) for e in (p.left, p.right)]
    return iso.Problem(iso.GridPotential(pot.grid, samples), *pairs)


def shifted(p, c):
    """p with P + c I: every eigenvalue moves up by c."""
    pot = p.potential
    return iso.Problem(iso.GridPotential(pot.grid, pot.samples + c * np.eye(p.n)), p.left, p.right)


def reflected(p):
    """p under x -> pi - x: P(pi - x), the ends swapped, and each B negated
    since phi' changes sign."""
    pot = p.potential
    return iso.Problem(iso.GridPotential(pot.grid, pot.samples[::-1]),
                       iso.BoundaryPair(p.right.A, -p.right.B),
                       iso.BoundaryPair(p.left.A, -p.left.B))


class TestInvariance:
    @pytest.mark.parametrize("which", [0, 1], ids=["dirichlet-robin", "rank-two-robin"])
    @pytest.mark.parametrize("change", ["conjugation", "shift", "reflection"])
    def test_coupled4_robin_spectrum_is_invariant(self, which, change):
        # the discrete problems differ in their rounding (and, reflected, in
        # the direction RK4 steps), not in their eigenvalues: the same
        # multiplicities on [-20, 60] at 401 nodes, within 1e-9 (largest
        # moves measured: 8.8e-11, 1.24e-10 and 8.8e-11). Both ends' boundary
        # phases are checked this way without a reference solver
        p = coupled4_robin_problems()[which]
        rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
        c = {"conjugation": 0.0, "shift": 7.5, "reflection": 0.0}[change]
        q = {"conjugation": lambda: conjugated(p, rot), "shift": lambda: shifted(p, c),
             "reflection": lambda: reflected(p)}[change]()
        base = iso.scan_spectrum(p, -20.0, 60.0)
        other = iso.scan_spectrum(q, -20.0 + c, 60.0 + c)
        assert len(base.pairs) >= 31
        assert [e.multiplicity for e in other.pairs] == [e.multiplicity for e in base.pairs]
        moved = np.array([e.lam - c for e in other.pairs]) - [e.lam for e in base.pairs]
        assert np.max(np.abs(moved)) <= 1e-9


def coupled4_x_dependent():
    """N = 4 Dirichlet grid potential with x-dependent eigenvalues and a
    rotating eigenbasis, so every channel couples to every other."""
    rng = np.random.default_rng(3)
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    grid = iso.Grid.uniform(401)
    samples = np.empty((grid.n, 4, 4))
    for q, x in enumerate(grid.nodes):
        g = np.eye(4)
        g[:2, :2] = [[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]]
        m = g @ rot
        samples[q] = m @ np.diag([-3.0 + x, 0.5 * np.sin(3 * x), 1.5, -0.5 - x]) @ m.T
    dirichlet = iso.BoundaryPair(np.eye(4), np.zeros((4, 4)))
    return iso.Problem(iso.GridPotential(grid, samples), dirichlet, dirichlet)


class TestBatchedEigenpairs:
    @pytest.mark.parametrize("which", ["paper", "coupled4", "mixed-end"])
    def test_scan_pairs_match_the_root_loop_bit_for_bit(self, which):
        # double eigenvalues at 1 next to simple ones (paper, coupled4) and
        # the mixed Robin ends; the loop takes its paths from integrate_ivp
        p = {"paper": iso.builtin_problem("paper-example-2x2"), "coupled4": oracles.coupled4(),
             "mixed-end": mixed_end_problem()}[which]
        report = iso.scan_spectrum(p, -5.0, 20.0)
        assert len({pair.multiplicity for pair in report.pairs}) >= (1 if which == "mixed-end" else 2)
        ref = oracles.loop_eigenpairs(p, [pair.lam for pair in report.pairs],
                                      [pair.multiplicity for pair in report.pairs], report.grid)
        assert len(ref) == len(report.pairs)
        for pair, b in zip(report.pairs, ref):
            # eigenbasis folds its one root with its own count
            for a in (pair, iso.eigenbasis(p, pair.lam, report.grid)):
                assert (a.lam, a.multiplicity, a.residual, a.grid) == (b.lam, b.multiplicity,
                                                                      b.residual, b.grid)
                for f in ("thetas", "phis", "phi_derivs", "norms_sq"):
                    assert getattr(a, f).shape == getattr(b, f).shape
                    assert np.array_equal(getattr(a, f), getattr(b, f)), (a.lam, f)

    def test_newton_moved_roots_match_the_root_loop_bit_for_bit(self, paper):
        # on [-1000, 20] Newton moves 4 of the 7 pencil starts after the
        # count; every accepted root's path is still folded once, so all 7
        # eigenspaces match the loop's bit for bit. The moved roots'
        # residuals come from Newton, not from the count, and are bounded
        # as every scan's are
        report = iso.scan_spectrum(paper, -1000.0, 20.0)
        assert len(report.pairs) == 7
        ref = oracles.loop_eigenpairs(paper, [pair.lam for pair in report.pairs],
                                      [pair.multiplicity for pair in report.pairs], report.grid)
        for a, b in zip(report.pairs, ref):
            assert (a.lam, a.multiplicity) == (b.lam, b.multiplicity)
            for f in ("thetas", "phis", "phi_derivs", "norms_sq"):
                assert np.array_equal(getattr(a, f), getattr(b, f)), (a.lam, f)
        assert_residuals_bound(paper, report)

    @pytest.mark.parametrize("which,window", [
        ("paper", (-5.0, 20.0)), ("paper", (-1000.0, 20.0)), ("coupled4", (-5.0, 20.0)),
        ("dirichlet-robin", (-20.0, 60.0)), ("rank-two-robin", (-20.0, 60.0))])
    def test_null_direction_paths_match_the_frame_projection(self, which, window):
        # each root folds only the path of z0 V, V its null directions from
        # the W that certified it; the reference folds the whole N x N frame
        # Y and projects it on the null vectors of W at the frame's end. Both
        # agree within 1e-13 of the frame's size: max |Y| for phis, max |Y'|
        # for phi_derivs and max |Y|^2 for norms_sq. At negative lambda the
        # Robin problems' eigenfunctions are up to 970x smaller than their
        # frames, and there they differ by up to 1.8e-12 of their own size.
        # On [-1000, 20] Newton moves 4 of the paper example's 7 roots
        p = {"paper": iso.builtin_problem("paper-example-2x2"), "coupled4": oracles.coupled4(),
             "dirichlet-robin": coupled4_robin_problems()[0],
             "rank-two-robin": coupled4_robin_problems()[1]}[which]
        report = iso.scan_spectrum(p, *window)
        lams = [pair.lam for pair in report.pairs]
        mult = [pair.multiplicity for pair in report.pairs]
        assert len(lams) >= 7 and (max(mult) == 2) == (which in ("paper", "coupled4"))
        ref = oracles.frame_eigenpairs(p, lams, mult, report.grid)
        y, yp = iso.integrate_ivp(p.potential, np.array(lams), p.left.B.T, -p.left.A.T,
                                  report.grid)
        for k, (a, b) in enumerate(zip(report.pairs, ref)):
            size = np.max(np.abs(y[k]))
            for f, scale in (("thetas", 1.0), ("phis", size), ("phi_derivs", np.max(np.abs(yp[k]))),
                             ("norms_sq", size ** 2)):
                assert getattr(a, f).shape == getattr(b, f).shape
                assert np.max(np.abs(getattr(a, f) - getattr(b, f))) <= 1e-13 * scale, (a.lam, f)

    def test_coupled4_scan_peak_memory(self):
        # the benchmark's coupled4-spectrum input (seed 7): the eigenpairs
        # fold the 16 roots' null directions, not their N x N frames, so the
        # scan's traced peak stays under 4.0 MB (5.35 MB with whole frames)
        p = oracles.coupled4(seed=7)
        tracemalloc.start()
        try:
            report = iso.scan_spectrum(p, -5.0, 20.0, iso.Grid.uniform(401))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(pair.multiplicity for pair in report.pairs) == 16
        assert peak <= 4.0e6

    def test_scan_pairs_match_single_root_eigenbasis(self):
        # no sign alignment: the canonical sign makes both paths agree
        p = coupled4_x_dependent()
        report = iso.scan_spectrum(p, -5.0, 15.0)
        assert len(report.pairs) >= 8
        for pair in report.pairs:
            one = iso.eigenbasis(p, pair.lam, report.grid)
            assert one.multiplicity == pair.multiplicity
            for l in range(pair.multiplicity):
                assert np.max(np.abs(one.thetas[:, l] - pair.thetas[:, l])) <= 1e-10
                for a, b in ((one.phis, pair.phis), (one.phi_derivs, pair.phi_derivs)):
                    assert np.max(np.abs(a[:, :, l] - b[:, :, l])) <= 1e-10 * np.max(np.abs(b))

    def test_thetas_canonically_signed(self, paper_report):
        # one batch holds the double eigenvalue 1 next to simple ones
        # (test_paper_sigma_sequence pins the multiplicities)
        for pair in paper_report.pairs:
            m = pair.multiplicity
            assert pair.thetas.shape == (2, m)
            assert pair.phis.shape == pair.phi_derivs.shape == (paper_report.grid.n, 2, m)
            for theta in pair.thetas.T:
                assert theta[np.argmax(np.abs(theta))] > 0

    def test_canonical_sign_takes_first_entry_on_ties(self):
        thetas = np.array([[-0.5, 0.5, 0.2], [0.5, -0.5, -0.9]])
        assert np.array_equal(thetas * spectrum._canonical_signs(thetas),
                              np.array([[0.5, 0.5, -0.2], [-0.5, -0.5, 0.9]]))


def assert_same_report(a, b):
    """a and b hold the same eigenvalues, bit for bit, and the same record types."""
    assert (a.problem, a.grid, a.window) == (b.problem, b.grid, b.window)
    assert len(a.pairs) == len(b.pairs)
    for x, y in zip(a.pairs, b.pairs):
        assert type(x) is type(y)
        for f in dataclasses.fields(x):
            assert np.array_equal(getattr(x, f.name), getattr(y, f.name)), (x.lam, f.name)


def recorded(monkeypatch, name):
    """Record the calls of spectrum.<name> in the returned list."""
    calls, f = [], getattr(spectrum, name)

    def record(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(spectrum, name, record)
    return calls


def rank_two(report):
    k = oracles.pair_index(report, 1.0)
    return iso.build_perturbation(report, [{"k": k, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]},
                                           {"k": k, "i": 2, "c": 0.5, "theta": [-2.0, 1.0]}])


class TestRescan:
    @pytest.mark.parametrize("which,n", [("paper", 401), ("paper", 1601), ("rank-two", 401),
                                         ("scalar", 401), ("coupled4-robin", 401)])
    def test_warm_rescan_matches_the_cold_scan(self, monkeypatch, which, n):
        # Newton from P's eigenvalues finds Q's, with the multiplicities of the
        # count; each residual bounds the distance to the discrete eigenvalue
        # within a factor of 2, as in the scan's own residual test
        p, window, pert = {
            "paper": (iso.builtin_problem("paper-example-2x2"), (-5.0, 20.0),
                      oracles.mixed_perturbation),
            "rank-two": (iso.builtin_problem("paper-example-2x2"), (-5.0, 20.0), rank_two),
            "scalar": (iso.builtin_problem("scalar-zero"), (0.5, 2600.0),
                       lambda r: iso.build_perturbation(r, [(0, 1, 1.0)])),
            "coupled4-robin": (coupled4_robin_problems()[1], (-5.0, 20.0),
                               lambda r: iso.build_perturbation(r, [(0, 1, 1.0)])),
        }[which]
        first = iso.scan_spectrum(p, *window, iso.Grid.uniform(n))
        q, _ = iso.transform_problem(p, pert(first))
        cold = iso.scan_spectrum(q, *window, first.grid)
        pieces = recorded(monkeypatch, "_piece_roots")
        folds = recorded(monkeypatch, "_fold")
        paths = recorded(monkeypatch, "_paths")
        warm = spectrum.rescan_spectrum(q, first)
        # one count fold of the probes and the roots' endpoints, and no path
        assert pieces == [] and paths == []
        assert [args[1].size for args in folds] == [2 + 3 * len(first.pairs)]
        assert (warm.problem, warm.grid, warm.window) == (q, first.grid, first.window)
        assert all(type(e) is spectrum.Eigenvalue for e in warm.pairs)
        assert [e.multiplicity for e in warm.pairs] == [e.multiplicity for e in cold.pairs]
        assert len(warm.pairs) >= 7
        for a, b in zip(warm.pairs, cold.pairs):
            bound = 2 * (a.residual + b.residual) + 4 * np.spacing(abs(b.lam))
            assert abs(a.lam - b.lam) <= bound
        assert warm.to_json_obj()[0].keys() == cold.to_json_obj()[0].keys()
        assert warm.sigma_sequence.shape == cold.sigma_sequence.shape

    @pytest.mark.parametrize("reverse", [False, True], ids=["paper-to-free", "free-to-paper"])
    def test_fallback_is_the_cold_scan(self, paper_report, reverse):
        # free-2x2 holds other multiplicities than the paper example on [-5, 20]
        p, q = paper_report.problem, iso.builtin_problem("free-2x2")
        first = iso.scan_spectrum(q, -5.0, 20.0) if reverse else paper_report
        other = p if reverse else q
        assert_same_report(spectrum.rescan_spectrum(other, first),
                           iso.scan_spectrum(other, -5.0, 20.0))

    def test_empty_first_report(self, paper, monkeypatch):
        # [1.5, 3.5] holds no eigenvalue of the paper example or its transform,
        # and the eigenvalue 3 of diag(-1, 0)
        first = iso.scan_spectrum(paper, 1.5, 3.5)
        q, _ = iso.transform_problem(paper, oracles.mixed_perturbation(
            iso.scan_spectrum(paper, -5.0, 20.0)))
        pieces = recorded(monkeypatch, "_piece_roots")
        warm = spectrum.rescan_spectrum(q, first)
        assert first.pairs == warm.pairs == () and pieces == []
        other = dirichlet_2x2(-1.0, 0.0)
        cold = iso.scan_spectrum(other, 1.5, 3.5)
        assert [e.lam for e in cold.pairs] == pytest.approx([3.0], abs=1e-6)
        assert_same_report(spectrum.rescan_spectrum(other, first), cold)
        assert len(pieces) == 2        # the cold scan above and the fallback's

    @pytest.mark.parametrize("reverse", [False, True], ids=["p-to-q", "q-to-p"])
    def test_window_edge_between_the_two_spectra(self, paper, paper_report, reverse):
        # P's eigenvalue near 4 lies at 4.0000000041 and Q's at 4.0000000054:
        # the edge leaves one inside and the other outside
        q, _ = iso.transform_problem(paper, oracles.mixed_perturbation(paper_report))
        window = (-5.0, 4.0000000047)
        lams = [r.pairs[oracles.pair_index(r, 4.0)].lam
                for r in (paper_report, iso.scan_spectrum(q, -5.0, 20.0))]
        assert lams[0] < window[1] < lams[1]
        a, b = (q, paper) if reverse else (paper, q)
        first = iso.scan_spectrum(a, *window)
        assert_same_report(spectrum.rescan_spectrum(b, first), iso.scan_spectrum(b, *window))

    def test_rescan_runs_the_scan_checks(self, paper, paper_report):
        bad = iso.Problem(paper.potential, iso.BoundaryPair(np.eye(2), np.zeros((2, 2))),
                          iso.BoundaryPair(np.diag([1.0, 0.0]), np.zeros((2, 2))))
        with pytest.raises(iso.errors.ConditionViolated):
            spectrum.rescan_spectrum(bad, paper_report)
