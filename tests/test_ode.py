import numpy as np
import pytest

import isospec as iso
from isospec import ode
from isospec.errors import NonFiniteState
from isospec.ode import integrate_final_batch, potential_tables


def dirichlet_path(problem, lam, n=401):
    """(grid, Y, Y') of the Dirichlet solution Y(0) = 0, Y'(0) = -I."""
    grid = iso.Grid.uniform(n)
    y, yp = iso.integrate_ivp(problem.potential, lam,
                              problem.left.B.T, -problem.left.A.T, grid)
    return grid, y, yp


class TestIntegration:
    def test_scalar_sine(self, scalar):
        grid, y, _ = dirichlet_path(scalar, 1.0)
        assert np.max(np.abs(y[:, 0, 0] + np.sin(grid.nodes))) < 1e-8
        assert abs(y[-1, 0, 0]) < 1e-8

    def test_paper_example_diagonal_channels(self, paper):
        # each channel decouples: Y = diag(-sin(2x)/2, -sin x) at lambda = 1
        grid, y, _ = dirichlet_path(paper, 1.0)
        xs = grid.nodes
        assert np.max(np.abs(y[:, 0, 0] + np.sin(2 * xs) / 2)) < 1e-8
        assert np.max(np.abs(y[:, 1, 1] + np.sin(xs))) < 1e-8
        assert np.max(np.abs(y[:, 0, 1])) == 0.0
        assert np.max(np.abs(y[-1])) < 1e-8

    def test_constant_solution_is_exact(self, scalar):
        grid = iso.Grid.uniform(101)
        y, _ = iso.integrate_ivp(scalar.potential, 0.0, np.ones((1, 1)), np.zeros((1, 1)), grid)
        assert np.array_equal(y[:, 0, 0], np.ones(101))

    def test_initial_data_stored_exactly(self, paper):
        grid = iso.Grid.uniform(51)
        y0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        yp0 = np.array([[0.5, 0.0], [0.0, -0.5]])
        y, yp = iso.integrate_ivp(paper.potential, 2.2, y0, yp0, grid)
        assert np.array_equal(y[0], y0)
        assert np.array_equal(yp[0], yp0)

    def test_nonfinite_detected(self, scalar):
        with pytest.raises(NonFiniteState):
            dirichlet_path(scalar, -1e8, n=101)


class TestEvaluatePath:
    """Path values at named nodes."""

    def test_half_pi_value(self, scalar):
        _, y, _ = dirichlet_path(scalar, 1.0)
        assert abs(y[200, 0, 0] + 1.0) < 1e-8          # node 200 of 401 is pi/2

    def test_paper_endpoint_derivative(self, paper):
        # oracle: d/dx diag(-sin(2x)/2, -sin x) = diag(-cos 2x, -cos x) -> diag(-1, 1) at pi
        _, y, yp = dirichlet_path(paper, 1.0)
        assert np.max(np.abs(y[-1])) < 1e-7
        assert np.max(np.abs(yp[-1] - np.diag([-1.0, 1.0]))) < 1e-7


class TestProperties:
    def test_wronskian_constant_for_random_data(self, paper):
        rng = np.random.default_rng(7)
        grid = iso.Grid.uniform(401)
        y1, yp1 = iso.integrate_ivp(paper.potential, 2.7, rng.normal(size=(2, 2)),
                                    rng.normal(size=(2, 2)), grid)
        y2, yp2 = iso.integrate_ivp(paper.potential, 2.7, rng.normal(size=(2, 2)),
                                    rng.normal(size=(2, 2)), grid)
        w = np.einsum("qab,qac->qbc", y1, yp2) - np.einsum("qab,qac->qbc", yp1, y2)
        assert np.max(np.abs(w - w[0])) < 1e-8 * np.pi

    def test_wronskian_zero_for_selfadjoint_data(self, paper):
        _, y, yp = dirichlet_path(paper, 5.3)
        w = np.einsum("qab,qac->qbc", y, yp) - np.einsum("qab,qac->qbc", yp, y)
        assert np.max(np.abs(w)) < 1e-8 * np.pi

    def test_fourth_order_convergence(self, scalar):
        def max_err(n):
            grid = iso.Grid.uniform(n)
            y, _ = iso.integrate_ivp(scalar.potential, 9.3, np.zeros((1, 1)), -np.eye(1), grid)
            mu = np.sqrt(9.3)
            return np.max(np.abs(y[:, 0, 0] + np.sin(mu * grid.nodes) / mu))

        assert max_err(51) / max_err(101) >= 12.0

    def test_linearity_in_initial_data(self, paper):
        rng = np.random.default_rng(11)
        grid = iso.Grid.uniform(201)
        m = rng.normal(size=(2, 2))
        y0, yp0 = np.eye(2), 0.5 * np.eye(2)
        ya, ypa = iso.integrate_ivp(paper.potential, 3.3, y0 @ m, yp0 @ m, grid)
        yb, ypb = iso.integrate_ivp(paper.potential, 3.3, y0, yp0, grid)
        assert np.max(np.abs(ya - yb @ m)) < 1e-12
        assert np.max(np.abs(ypa - ypb @ m)) < 1e-12


def random_grid_potential(n_dim, n_nodes, seed):
    rng = np.random.default_rng(seed)
    grid = iso.Grid.uniform(n_nodes)
    a = rng.normal(size=(n_nodes, n_dim, n_dim))
    return iso.GridPotential(grid, a + a.transpose(0, 2, 1)), grid


def rk4_step(p0, pm, p1, lam, h, y, v):
    """One classical RK4 step of (Y, Y')' = (Y', (P - lam) Y), P at x, x + h/2 and x + h.

    Broadcasts over leading axes, so it takes a batch of steps at once.
    """
    def f(p, y):
        return p @ y - lam * y

    k1y, k1v = v, f(p0, y)
    k2y, k2v = v + h / 2 * k1v, f(pm, y + h / 2 * k1y)
    k3y, k3v = v + h / 2 * k2v, f(pm, y + h / 2 * k2y)
    k4y, k4v = v + h * k3v, f(p1, y + h * k3y)
    return (y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
            v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))


def rk4_reference(pot, lam, y0, yp0, grid):
    """Plain per-step classical RK4 on (Y, Y'); the kernel's reference."""
    p_nodes = pot.evaluate_many(grid.nodes)
    p_half = pot.evaluate_many(0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
    y, v = np.array(y0, dtype=float), np.array(yp0, dtype=float)
    for i in range(grid.n - 1):
        y, v = rk4_step(p_nodes[i], p_half[i], p_nodes[i + 1], lam, grid.h, y, v)
    return y, v


class TestStepKernel:
    @pytest.mark.parametrize("n_dim", [1, 2, 4])
    def test_step_table_is_one_classical_rk4_step(self, n_dim):
        # every step polynomial of the table, evaluated at lambda and applied
        # to a random state, is one reference RK4 step of that state
        pot, grid = random_grid_potential(n_dim, 401, seed=40 + n_dim)
        p_nodes = pot.evaluate_many(grid.nodes)
        p_half = pot.evaluate_many(0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
        z = np.random.default_rng(n_dim).normal(size=(grid.n - 1, 2 * n_dim, n_dim))
        lams = np.array([-1e4, -5.0, 20.0, 2600.0, 4e4])
        steps = ode._step_matrices(potential_tables(pot, grid)[0], lams)
        for k, lam in enumerate(lams):
            y, v = rk4_step(p_nodes[:-1], p_half, p_nodes[1:], lam, grid.h,
                            z[:, :n_dim], z[:, n_dim:])
            ref = np.concatenate((y, v), axis=1)
            scale = np.max(np.abs(ref), axis=(1, 2))
            err = np.max(np.abs(steps[:, k] @ z - ref), axis=(1, 2))
            assert np.all(err <= 1e-14 * scale), (lam, np.max(err / scale))

    @pytest.mark.parametrize("n_dim", [1, 2, 4])
    def test_tree_fold_and_reference_agree(self, n_dim):
        pot, grid = random_grid_potential(n_dim, 201, seed=n_dim)
        rng = np.random.default_rng(10 + n_dim)
        y0, yp0 = rng.normal(size=(n_dim, n_dim)), rng.normal(size=(n_dim, n_dim))
        tables = potential_tables(pot, grid)
        steps, pairs = tables
        assert steps.shape == (grid.n - 1, 3, 2 * n_dim, 2 * n_dim)
        assert pairs.shape == (grid.n // 2, 5, 2 * n_dim, 2 * n_dim)
        lams = np.array([-4.0, 0.3, 17.0])
        y_tree, yp_tree = integrate_final_batch(pot, lams, y0, yp0, grid, tables)
        for k, lam in enumerate(lams):
            y_ref, yp_ref = rk4_reference(pot, lam, y0, yp0, grid)
            y_path, yp_path = iso.integrate_ivp(pot, lam, y0, yp0, grid)
            scale = max(np.max(np.abs(y_ref)), np.max(np.abs(yp_ref)))
            for y, yp in ((y_tree[k], yp_tree[k]), (y_path[-1], yp_path[-1])):
                assert np.max(np.abs(y - y_ref)) <= 1e-12 * scale
                assert np.max(np.abs(yp - yp_ref)) <= 1e-12 * scale

    def test_endpoint_independent_of_batch_position(self):
        # lambda batches are cut into tree chunks; each endpoint is the same
        # as when the lambda is propagated alone
        pot, grid = random_grid_potential(4, 401, seed=5)
        y0, yp0 = np.eye(4), np.zeros((4, 4))
        lams = np.linspace(-3.0, 12.0, 23)
        y_all, yp_all = integrate_final_batch(pot, lams, y0, yp0, grid)
        for k in (0, 7, 22):
            y_one, yp_one = integrate_final_batch(pot, lams[k:k + 1], y0, yp0, grid)
            scale = max(np.max(np.abs(y_one)), np.max(np.abs(yp_one)))
            assert np.max(np.abs(y_all[k] - y_one[0])) <= 1e-13 * scale
            assert np.max(np.abs(yp_all[k] - yp_one[0])) <= 1e-13 * scale


def single_step_fold(tables, lams, y0, yp0):
    """Endpoint z = (Y, Y') folded one RK4 step at a time."""
    z = np.broadcast_to(np.concatenate((y0, yp0)), (lams.size, 2 * len(y0), len(y0)))
    for t in ode._step_matrices(tables[0], lams):
        z = t @ z
    return z


def pair_fold(tables, lams, y0, yp0):
    """Endpoint z = (Y, Y') folded one pair leaf at a time."""
    z = np.tile(np.concatenate((y0, yp0)), (lams.size, 1, 1))
    for leaf in ode._step_matrices(tables[1], lams):
        z = leaf @ z
    return z


class TestPairLeaves:
    """The endpoint tree multiplies precomputed products of step pairs."""

    @pytest.mark.parametrize("n_dim", [1, 2, 4])
    def test_pair_tree_matches_single_step_fold(self, n_dim):
        pot, grid = random_grid_potential(n_dim, 401, seed=30 + n_dim)
        rng = np.random.default_rng(n_dim)
        y0, yp0 = rng.normal(size=(n_dim, n_dim)), rng.normal(size=(n_dim, n_dim))
        tables = potential_tables(pot, grid)
        lams = np.array([-1e4, -5.0, 20.0, 2600.0, 4e4])
        y, yp = integrate_final_batch(pot, lams, y0, yp0, grid, tables)
        y_path, yp_path = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        z_ref = single_step_fold(tables, lams, y0, yp0)
        z_pairs = pair_fold(tables, lams, y0, yp0)
        for k in range(lams.size):
            z_path = np.concatenate((y_path[k, -1], yp_path[k, -1]))
            assert np.array_equal(z_pairs[k], z_path)
            scale = np.max(np.abs(z_ref[k]))
            assert np.max(np.abs(z_path - z_ref[k])) <= 1e-12 * scale
            assert np.max(np.abs(np.concatenate((y[k], yp[k])) - z_ref[k])) <= 1e-12 * scale

    def test_path_nodes_match_single_step_fold(self):
        # even nodes come from the pair leaves and odd ones by one step from
        # their even neighbour; every node agrees with the step-by-step fold
        pot, grid = random_grid_potential(2, 201, seed=8)
        tables = potential_tables(pot, grid)
        y0, yp0 = np.eye(2), np.zeros((2, 2))
        lams = np.array([-30.0, 2.0, 150.0])
        y, yp = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        z = np.tile(np.concatenate((y0, yp0)), (lams.size, 1, 1))
        for i, t in enumerate(ode._step_matrices(tables[0], lams), 1):
            z = t @ z
            err = np.abs(np.concatenate((y[:, i], yp[:, i]), axis=1) - z)
            assert np.all(err <= 1e-12 * np.max(np.abs(z), axis=(1, 2), keepdims=True)), i

    def test_odd_step_count_matches_reference(self):
        # an even node count leaves the last step as a leaf of its own
        pot, grid = random_grid_potential(2, 200, seed=3)
        steps, pairs = potential_tables(pot, grid)
        assert steps.shape[0] == 199 and pairs.shape[0] == 100
        assert np.array_equal(pairs[-1, :3], steps[-1]) and not pairs[-1, 3:].any()
        y0, yp0 = np.eye(2), np.array([[0.5, 1.0], [1.0, -2.0]])
        lams = np.array([-4.0, 0.3, 17.0])
        y, yp = integrate_final_batch(pot, lams, y0, yp0, grid)
        for k, lam in enumerate(lams):
            y_ref, yp_ref = rk4_reference(pot, lam, y0, yp0, grid)
            scale = max(np.max(np.abs(y_ref)), np.max(np.abs(yp_ref)))
            assert np.max(np.abs(y[k] - y_ref)) <= 1e-12 * scale
            assert np.max(np.abs(yp[k] - yp_ref)) <= 1e-12 * scale

    def test_tree_chunks_do_not_change_endpoints(self, monkeypatch):
        # a small budget evaluates the leaves a few lambdas at a time, down
        # to one lambda per chunk; every endpoint stays bit-identical
        pot, grid = random_grid_potential(4, 401, seed=12)
        y0, yp0 = np.zeros((4, 4)), -np.eye(4)
        lams = np.linspace(-30.0, 400.0, 37)
        whole = integrate_final_batch(pot, lams, y0, yp0, grid)
        for budget in (1, 3 * 200 * 64 * 8):
            monkeypatch.setattr(ode, "_TREE_BYTES", budget)
            chunked = integrate_final_batch(pot, lams, y0, yp0, grid)
            assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


class TestBatchedPath:
    """integrate_ivp with an array of lambdas folds them all at once."""

    @pytest.mark.parametrize("n_dim", [1, 2, 4])
    @pytest.mark.parametrize("end", ["dirichlet", "robin"])
    def test_batch_matches_per_lambda_calls(self, n_dim, end):
        pot, grid = random_grid_potential(n_dim, 201, seed=20 + n_dim)
        if end == "dirichlet":
            y0, yp0 = np.zeros((n_dim, n_dim)), -np.eye(n_dim)
        else:
            # Robin left end B = I: Y(0) = B^T, Y'(0) = -A^T with A symmetric
            a = np.random.default_rng(n_dim).normal(size=(n_dim, n_dim))
            y0, yp0 = np.eye(n_dim), -(a + a.T)
        lams = np.array([-6.0, -0.5, 0.3, 17.0, 40.0])
        y_all, yp_all = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        assert y_all.shape == yp_all.shape == (lams.size, grid.n, n_dim, n_dim)
        for k, lam in enumerate(lams):
            y, yp = iso.integrate_ivp(pot, lam, y0, yp0, grid)
            assert y.shape == (grid.n, n_dim, n_dim)
            scale = max(np.max(np.abs(y)), np.max(np.abs(yp)))
            assert np.max(np.abs(y_all[k] - y)) <= 1e-13 * scale
            assert np.max(np.abs(yp_all[k] - yp)) <= 1e-13 * scale

    def test_step_blocks_do_not_change_the_path(self, monkeypatch):
        # a small step-matrix budget folds the path in many blocks of steps
        pot, grid = random_grid_potential(4, 201, seed=9)
        y0, yp0 = np.zeros((4, 4)), -np.eye(4)
        lams = np.linspace(-2.0, 9.0, 6)
        whole = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        monkeypatch.setattr(ode, "_TREE_BYTES", 3 * lams.size * 64 * 8)
        blocked = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])

    @pytest.mark.parametrize("stride", [1, 3, 7, 200, 400])
    def test_strided_fold_keeps_the_path_nodes(self, monkeypatch, stride):
        # 200 steps, in blocks of steps. A count lane keeps every node at
        # stride 1, else every 2r-th node and the last, r = 2^min(3,
        # floor(log2(stride / 2))) pair leaves per segment product: r = 1 at
        # 3, 2 at 7 and 8 at 200 and 400. At r = 1 it folds as a path does,
        # bit for bit; a segment product rounds differently
        pot, grid = random_grid_potential(2, 201, seed=5)
        y0, yp0 = np.zeros((2, 2)), -np.eye(2)
        lams = np.array([-3.0, 0.5, 11.0])
        y, yp = iso.integrate_ivp(pot, lams, y0, yp0, grid)
        ref = np.concatenate((y, yp), axis=2)
        monkeypatch.setattr(ode, "_TREE_BYTES", 5 * lams.size * 16 * 8)
        span = {1: 1, 3: 1, 7: 2, 200: 8, 400: 8}[stride]
        nodes = (np.arange(grid.n) if stride == 1
                 else np.union1d(np.arange(0, grid.n, 2 * span), [grid.n - 1]))
        tables = potential_tables(pot, grid)
        # the last `paths` lambdas keep every node instead, in the same fold
        for paths in range(lams.size + 1):
            m = lams.size - paths
            z, path = ode._fold(tables, lams, np.vstack([y0, yp0]), stride, paths)
            assert z.shape == (nodes.size, m, 4, 2) and path.shape == (paths, grid.n, 4, 2)
            kept = ref[:m, nodes].swapaxes(0, 1)
            if span == 1:
                assert np.array_equal(z, kept)
            else:
                scale = np.max(np.abs(kept), axis=(0, 2, 3))
                assert np.all(np.max(np.abs(z - kept), axis=(0, 2, 3)) <= 1e-13 * scale)
            assert np.array_equal(path[:, :, :2], y[m:])
            assert np.array_equal(path[:, :, 2:], yp[m:])

    def test_overflowing_lambda_in_batch_raises(self, scalar):
        grid = iso.Grid.uniform(101)
        with pytest.raises(NonFiniteState):
            iso.integrate_ivp(scalar.potential, np.array([1.0, -1e8, 4.0]),
                              scalar.left.B.T, -scalar.left.A.T, grid)
