"""Closed-form oracles used by the tests.

Everything here is written directly from the analytic solutions of the
constant-diagonal Dirichlet problems and stays independent of the code paths
it checks: quadratures appear only where the quantity being tested is itself
defined through the package's running quadrature. At the end come the
benchmark's coupled N = 4 problem, the straightforward per-row and per-root
forms of two batched computations, kept to pin the batched ones to the same
bits, the eigenpairs of whole solution frames, a reference for the
eigenpairs of null directions, and the exact lambda-derivative of W, the
reference for the scan's central differences.
"""

import numpy as np

import isospec as iso
from isospec import ode, spectrum, verify
from isospec.ode import potential_tables


def dirichlet_spectrum(diag_values, lo, hi):
    """Eigenvalues of -phi'' + diag(p) phi = lambda phi with Dirichlet ends.

    Each channel contributes p_i + n^2 for n >= 1; returned sorted with
    multiplicity.
    """
    vals = []
    for p in diag_values:
        n = 1
        while p + n * n <= hi:
            if p + n * n >= lo:
                vals.append(p + n * n)
            n += 1
    return np.sort(np.array(vals))


def mixed_phi(x):
    """The rank-one eigenfunction (sin 2x, sin x) at the double eigenvalue 1."""
    return np.stack([np.sin(2 * x), np.sin(x)], axis=-1)


def mixed_denominator(x):
    """1 + int_0^x (sin^2 t + sin^2 2t) dt in closed form."""
    return 1.0 + x - np.sin(2 * x) / 4 - np.sin(4 * x) / 8


def mixed_q(x):
    """Transformed potential for phi0 = (sin 2x, sin x), c = 1, in closed form.

    Q = diag(-3, 0) - 2 d/dx [ phi0 phi0^T / D ] with D the closed-form
    denominator; the product rule is carried out by hand.
    """
    s1, c1, s2, c2 = np.sin(x), np.cos(x), np.sin(2 * x), np.cos(2 * x)
    m = np.array([[s2 * s2, s2 * s1], [s1 * s2, s1 * s1]])
    mp = np.array([[4 * s2 * c2, 2 * c2 * s1 + s2 * c1],
                   [2 * c2 * s1 + s2 * c1, 2 * s1 * c1]])
    d = mixed_denominator(x)
    dp = s1 * s1 + s2 * s2
    return np.diag([-3.0, 0.0]) - 2.0 * (mp / d - m * dp / d / d)


def diagonal_q22(x):
    """Q_22 for phi0 = (0, sin x), c = 1: d/dx( -2 sin^2 x / (1 + int sin^2) )."""
    d = 1.0 + x / 2 - np.sin(2 * x) / 4
    dp = np.sin(x) ** 2
    f = -2.0 * np.sin(x) ** 2
    fp = -2.0 * np.sin(2 * x)
    return (fp * d - f * dp) / d / d


def scalar_q(x):
    """Scalar transformed potential for P = 0, c = 1 on sin x (same formula)."""
    return diagonal_q22(x)


def pair_index(report, lam, tol=1e-3):
    """Index of the eigenpair of report whose eigenvalue is closest to lam (within tol)."""
    lams = np.array([p.lam for p in report.pairs])
    k = int(np.argmin(np.abs(lams - lam)))
    assert abs(lams[k] - lam) <= tol, f"no eigenvalue within {tol} of {lam}"
    return k


def mixed_perturbation(report, c=1.0):
    """The worked rank-one selection: theta = (-2, -1) makes Y(x;1) theta = (sin 2x, sin x)."""
    k = pair_index(report, 1.0)
    return iso.build_perturbation(report, [{"k": k, "i": 1, "c": c, "theta": [-2.0, -1.0]}])


def diagonal_perturbation(report, c=1.0):
    """Selection theta = (0, 1) giving the diagonal transformed potential."""
    k = pair_index(report, 1.0)
    return iso.build_perturbation(report, [{"k": k, "i": 1, "c": c, "theta": [0.0, 1.0]}])


def dense_kernel(kernel, dtype=float):
    """K(x_i, y_j) = A(x_i) Phi^T(y_j) at every node pair, shape (n, n, N, N), zero for y > x."""
    k = np.einsum("iam,jbm->ijab", kernel.a.astype(dtype), kernel.pert.phis.astype(dtype))
    iy, ix = np.meshgrid(np.arange(kernel.grid.n), np.arange(kernel.grid.n), indexing="ij")
    k[iy < ix] = 0.0
    return k


def dense_wave_residual(kernel, base, q):
    """Reference (max |K_xx - Q K - K_yy + K P|, x location) from the dense kernel.

    Differences the (n, n, N, N) kernel samples directly, one x row at a time,
    with the five-point fourth-order stencil, on the node pairs whose stencils
    in x and in y stay on y <= x (j = 2..i-2). The samples are O(1) and the
    differences are divided by h^2, so in double precision the reference
    itself would carry about eps max|K| / h^2 of rounding (2.5e-12 at n = 401);
    it is evaluated in long double to stay well below that.
    """
    grid = kernel.grid
    h = np.longdouble(grid.h)
    k = dense_kernel(kernel, np.longdouble)
    qs = q.evaluate_many(grid.nodes).astype(np.longdouble)
    ps = base.evaluate_many(grid.nodes).astype(np.longdouble)
    w = np.array([-1, 16, -30, 16, -1], dtype=np.longdouble) / (12 * h**2)
    best = (0.0, 0.0)
    for i in range(4, grid.n - 2):
        j = np.arange(2, i - 1)
        kxx = sum(wt * k[i + s, j] for wt, s in zip(w, range(-2, 3)))
        kyy = sum(wt * k[i, j + s] for wt, s in zip(w, range(-2, 3)))
        mx = float(np.max(np.abs(kxx - qs[i] @ k[i, j] - kyy + k[i, j] @ ps[j])))
        if mx > best[0]:
            best = (mx, float(grid.nodes[i]))
    return best


def coupled4(n=401, seed=0):
    """The benchmark's fully coupled N = 4 Dirichlet problem R diag(-3, 0, 1.5, -0.5) R^T
    on n nodes, R the sign-fixed Q factor of a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    rot = q * np.sign(np.diag(r))
    grid = iso.Grid.uniform(n)
    samples = np.broadcast_to(rot @ np.diag([-3.0, 0.0, 1.5, -0.5]) @ rot.T, (n, 4, 4))
    dirichlet = iso.BoundaryPair(np.eye(4), np.zeros((4, 4)))
    return iso.Problem(iso.GridPotential(grid, samples), dirichlet, dirichlet)


def loop_wave_residual(kernel, base, q):
    """(max_residual, location) of iso.residual_wave_equation, one x row at a time.

    The factors X = [A'' - Q A, -A] and Z = [Phi, Phi'' - P Phi] are formed as
    there; x node i = 4..n-3 meets the y nodes j = 2..i-2 in one
    (i - 3) N x 2M by 2M x N product.
    """
    grid = kernel.grid
    n = grid.n
    a, phi = kernel.a[2:-2], kernel.pert.phis[2:-2]
    qs = q.evaluate_many(grid.nodes[2:-2])
    ps = base.evaluate_many(grid.nodes[2:-2])
    x_fac = np.concatenate([verify._second_difference4(kernel.a, grid.h) - qs @ a, -a], axis=2)
    z_fac = np.concatenate([phi, verify._second_difference4(kernel.pert.phis, grid.h) - ps @ phi],
                           axis=2)
    n_dim = phi.shape[1]
    z_rows = z_fac.reshape((n - 4) * n_dim, 2 * kernel.rank)
    res = np.array([np.max(np.abs(z_rows[:(i - 3) * n_dim] @ x_fac[i - 2].T))
                    for i in range(4, n - 2)])
    k = int(np.argmax(res))
    return (float(res[k]), float(grid.nodes[4 + k])) if res[k] > 0 else (0.0, 0.0)


def loop_eigenpairs(p, lams, mult, grid):
    """Eigenpairs of spectrum._eigenpairs, one root at a time.

    Each root's W and residual come from the count of its window ends
    lam -/+ 1e-8 (1 + |lam|) with the root riding as a lane, or, where that
    count does not confirm the root, from Newton's pass that converges at
    it. V holds the b = min(N, max(m, 2)) right singular vectors of W with
    the smallest singular values, most-null first; the path of z0 V is
    folded by ode._paths alone, and the eigenpair is formed from V's first m
    columns. The count's W at a root is the scan's bit for bit when both
    counts multiply the same r pair leaves per segment, as both do (r = 8)
    on [-5, 20], where the scan's stride is 33 for the paper example and 16
    for the coupled N = 4 problem. The paper example's W is diagonal, so its
    V is the same signed permutation from the W of any fold."""
    tables = potential_tables(p.potential, grid)
    prange = spectrum._potential_range(p, grid)
    z0 = ode._initial_state(p.left.B.T, -p.left.A.T)
    pairs = []
    for lam, m in zip(np.asarray(lams, dtype=float), mult):
        delta = spectrum._MERGE_RTOL * (1.0 + abs(lam))
        ends = np.array([lam - delta, lam + delta])
        w_ends = spectrum._counts(p, ends, grid, tables, prange, [lam])[1]
        w = w_ends[2]
        residual = abs(spectrum._central_steps(w_ends[2:], w_ends[:1], w_ends[1:2],
                                               ends[:1], ends[1:])[0])
        if not residual <= spectrum._newton_tol(np.array([lam]))[0]:
            _, steps, _, converged, w_newton = spectrum._newton_refine(
                p, np.array([lam]), np.array([delta]), grid, tables)
            assert converged[0]
            residual, w = steps[0], w_newton[0]
        b = min(p.n, max(m, 2))
        v = np.ascontiguousarray(np.linalg.svd(w)[2][::-1][:b].T)
        z = ode._paths(tables, np.array([lam]), z0 @ v)[0]
        y = z[:, :p.n, :m]
        d, u = np.linalg.eigh(iso.integral(np.einsum("qni,qnj->qij", y, y), grid.h))
        thetas = v[:, :m] @ u
        lead = thetas[np.argmax(np.abs(thetas), axis=0), np.arange(m)]
        sign = np.where(lead < 0, -1.0, 1.0)
        zt = (z.reshape(-1, b)[:, :m] @ (u * sign)).reshape(-1, 2 * p.n, m)
        pairs.append(spectrum.Eigenpair(float(lam), int(m), thetas * sign, zt[:, :p.n],
                                        zt[:, p.n:], np.maximum(d, 0.0), float(residual), grid))
    return pairs


def frame_eigenpairs(p, lams, mult, grid):
    """Eigenpairs from whole solution frames, the reference for the
    null-direction fold: the N x N frame Y of each root from iso.integrate_ivp,
    V from the SVD of W at the frame's end, and phi = Y theta with theta the
    columns of V U, U diagonalizing int_0^pi (Y V)^T (Y V) dx. Residuals are
    not computed (NaN)."""
    lams = np.asarray(lams, dtype=float)
    y, yp = iso.integrate_ivp(p.potential, lams, p.left.B.T, -p.left.A.T, grid)
    w = p.right.B @ yp[:, -1] + p.right.A @ y[:, -1]
    vt = np.linalg.svd(w)[2]
    pairs = []
    for k, m in enumerate(mult):
        v_k = vt[k, -m:][::-1].T
        z = y[k] @ v_k
        gram = iso.integral(np.einsum("qni,qnj->qij", z, z), grid.h)
        d, u = np.linalg.eigh(gram)
        thetas = v_k @ u
        lead = thetas[np.argmax(np.abs(thetas), axis=0), np.arange(m)]
        thetas = np.where(lead < 0, -thetas, thetas)
        pairs.append(spectrum.Eigenpair(float(lams[k]), int(m), thetas, y[k] @ thetas,
                                        yp[k] @ thetas, np.maximum(d, 0.0), np.nan, grid))
    return pairs


def exact_derivative(p, lams, grid):
    """W(lambda) and its exact lambda-derivative dW/dlambda of the discrete
    problem, (L, N, N) each.

    The endpoint z = (Y, Y') is folded one RK4 step at a time, and its
    derivative by the product rule: dz <- dT z + T dz with T = C0 + lam C1 +
    lam^2 C2 the step polynomial of potential_tables and dT = C1 + 2 lam C2.
    """
    n = p.n
    lams = np.asarray(lams, dtype=float)[:, None, None]
    z = np.tile(np.concatenate((p.left.B.T, -p.left.A.T)), (lams.shape[0], 1, 1))
    dz = np.zeros_like(z)
    for c in potential_tables(p.potential, grid)[0]:
        t, dt = c[0] + lams * c[1] + lams ** 2 * c[2], c[1] + 2 * lams * c[2]
        z, dz = t @ z, dt @ z + t @ dz
    w, dw = (p.right.B @ v[:, n:] + p.right.A @ v[:, :n] for v in (z, dz))
    return w, dw
