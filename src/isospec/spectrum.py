"""Characteristic matrix, eigenvalue scan, and eigenspace bases.

lambda is an eigenvalue iff W(lambda) = cB Y'(pi; lambda) + cA Y(pi; lambda)
is singular, where Y solves the matrix IVP with Y(0) = B^T, Y'(0) = -A^T.
Multiplicity equals the nullity of W. Roots are located as minima of
sigma_min(W(lambda)): determinant sign changes miss even-multiplicity
eigenvalues, which are exactly the interesting case here. Each bracketed
minimum is refined by Newton's method on W itself (successive linear
problems, Ruhe 1973), which converges quadratically at simple and at
semi-simple multiple eigenvalues alike. A bracket where Newton fails is
dropped; the eigenvalue count of an independent finite-difference oracle
flags any eigenvalue lost that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotAnEigenvalue, WindowTooCoarse
from .model import RANK_RTOL, BoundaryPair, Grid, Problem
from .ode import integrate_final_batch, integrate_ivp, potential_tables
from .quadrature import integral

#: lambda spacing of the sigma_min sweep, unless the oracle gap asks for less
SCAN_CELL = 0.05
#: node count of the finite-difference oracle grid
ORACLE_NODES = 201


@dataclass(frozen=True)
class ScanOptions:
    """Settings of :func:`scan_spectrum`: refinement tolerance, rank
    threshold and the x-grid of the IVP integration. Raises ValueError unless
    grid_nodes is odd and >= 5, tol > 0 and 0 < rank_tol < 1 (NaN is rejected):
    a rank_tol of 1 or more would count every singular value of W."""

    tol: float = 1e-10              # final Newton step size on each eigenvalue
    rank_tol: float = 1e-6          # relative threshold deciding rank deficiency of W
    grid_nodes: int = 401           # x-grid for the IVP integration

    def __post_init__(self):
        if self.grid_nodes < 5 or self.grid_nodes % 2 == 0:
            raise ValueError("--grid must be odd and >= 5 (Simpson alignment)")
        if not self.tol > 0 or not 0 < self.rank_tol < 1:
            raise ValueError("tolerances must be positive, with rank_tol below 1")


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with an L2-orthogonal basis of its eigenspace.

    thetas holds null vectors of W(lambda_k) as columns, each signed so that
    its largest-magnitude entry is positive; phis[:, :, l] samples
    the eigenfunction Y(x; lambda_k) theta_l. norms_sq are the squared L2
    norms of those eigenfunctions.
    """

    lam: float
    multiplicity: int
    thetas: np.ndarray       # (N, m)
    phis: np.ndarray         # (n, N, m)
    phi_derivs: np.ndarray   # (n, N, m)
    norms_sq: np.ndarray     # (m,)
    residual: float          # sigma_min(W) / local W scale at lam
    grid: Grid


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues found in a window, ascending, with multiplicities."""

    problem: Problem
    grid: Grid
    window: tuple[float, float]
    options: ScanOptions
    pairs: tuple[Eigenpair, ...] = field(default_factory=tuple)

    @property
    def sigma_sequence(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, nondecreasing."""
        return np.array([p.lam for p in self.pairs for _ in range(p.multiplicity)])

    def to_json_obj(self):
        return [
            {"lambda": p.lam, "multiplicity": p.multiplicity, "residual": p.residual}
            for p in self.pairs
        ]


def characteristic_matrix(p: Problem, lam: float, grid: Grid,
                          tables=None) -> np.ndarray:
    """W(lambda) = cB Y'(pi) + cA Y(pi) with Y(0) = B^T, Y'(0) = -A^T."""
    return _char_batch(p, [lam], grid, tables)[0]


def _char_batch(p: Problem, lams: np.ndarray, grid: Grid, tables, derivative: bool = False):
    """W(lambda) for a batch, (L, N, N); with derivative, also dW/dlambda."""
    ends = integrate_final_batch(p.potential, lams, p.left.B.T, -p.left.A.T, grid, tables,
                                 derivative=derivative)
    w = p.right.B @ ends[1] + p.right.A @ ends[0]
    if not derivative:
        return w
    return w, p.right.B @ ends[3] + p.right.A @ ends[2]


def _sigma_batch(p, lams, grid, tables):
    w = _char_batch(p, np.asarray(lams, dtype=float), grid, tables)
    s = np.linalg.svd(w, compute_uv=False)
    return s[:, -1], s[:, 0]


# ---------------------------------------------------------------------------
# finite-difference oracle

def _end_frame(pair: BoundaryPair, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Free directions and boundary form of one endpoint for the oracle.

    Every phi obeying B phi' + A phi = 0 at the end has (phi, phi') =
    (B^T c, -A^T c) for some c. The ker B components of phi are therefore
    Dirichlet, and phi = V b with V an orthonormal basis of range(B^T). With
    B = U S V^T, the weak form's boundary terms psi(0)^T phi'(0) and
    -psi(pi)^T phi'(pi) become sign * b_psi^T G b_phi, sign -1 at 0 and +1 at
    pi, with G = S_r^{-1} U_r^T (B A^T) U_r S_r^{-1}, symmetric because
    B A^T = A B^T. An invertible B keeps the identity frame, where
    G = B^{-1} A.

    Returns (V, sign * G), V of shape (N, r) with r = rank B.
    """
    a, b = pair.A, pair.B
    n = pair.n
    u, s, vt = np.linalg.svd(b)
    r = int(np.sum(s > RANK_RTOL * np.linalg.norm(np.hstack([a, b]), 2)))
    if r == n:
        v, g = np.eye(n), np.linalg.solve(b, a)
    else:
        us = u[:, :r] / s[:r]
        v, g = vt[:r].T, us.T @ (b @ a.T) @ us
    return v, sign * 0.5 * (g + g.T)


def _set_band(band: np.ndarray, blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Write the lower-triangle entries of blocks (k, p, q), placed with their
    top-left corners at (rows[k], cols[k]), into lower band storage."""
    p, q = blocks.shape[1:]
    i, j = np.divmod(np.arange(p * q), q)
    i = rows[:, None] + i
    j = cols[:, None] + j
    # zeros are skipped: a coupling block's zeros may fall outside the band
    keep = (i >= j) & (blocks.reshape(-1, p * q) != 0.0)
    band[(i - j)[keep], j[keep]] = blocks.reshape(-1, p * q)[keep]


def fd_oracle_eigenvalues(p: Problem, n_nodes: int = ORACLE_NODES) -> np.ndarray:
    """Independent O(h^2) eigenvalue estimates from a symmetric banded matrix.

    Linear finite elements with lumped mass (at interior nodes, the
    second-order central-difference scheme) on a uniform grid. The ker B
    components of each endpoint value are eliminated as Dirichlet unknowns,
    and the remaining ones carry the symmetric boundary form of
    :func:`_end_frame`. Scaling by the diagonal mass gives a standard
    symmetric matrix, stored node-major in lower band form with bandwidth N
    (up to 2N - 2 when an end has a B of intermediate rank). Its band
    eigensolve takes O((nN)^2 N) operations and O(nN^2) memory, against
    O((nN)^3) and O((nN)^2) for a dense solve.

    Returns every eigenvalue of the discrete problem, ascending.
    """
    n_dim = p.n
    grid = Grid.uniform(n_nodes)
    h = grid.h
    m = n_nodes - 1
    diag = p.potential.evaluate_many(grid.nodes) + (2.0 / h**2) * np.eye(n_dim)
    v_l, g_l = _end_frame(p.left, -1.0)
    v_r, g_r = _end_frame(p.right, 1.0)
    r_l, r_r = v_l.shape[1], v_r.shape[1]
    first, last = r_l, r_l + (m - 1) * n_dim        # offsets of nodes 1 and m
    # the half-cell mass h/2 at the ends scales their couplings by sqrt(2)
    c_l = -np.sqrt(2.0) / h**2 * v_l                 # node 1 rows, node 0 columns
    c_r = -np.sqrt(2.0) / h**2 * v_r.T               # node m rows, node m-1 columns
    width = n_dim
    for c, offset in ((c_l, r_l), (c_r, n_dim)):
        rows, cols = np.nonzero(c)
        if rows.size:
            width = max(width, offset + int(np.max(rows - cols)))

    band = np.zeros((width + 1, last + r_r))
    interior = first + n_dim * np.arange(m - 1)
    _set_band(band, diag[1:m], interior, interior)
    band[n_dim, first:last - n_dim] = -1.0 / h**2
    if r_l:
        end = v_l.T @ diag[0] @ v_l + (2.0 / h) * g_l
        _set_band(band, end[None], np.array([0]), np.array([0]))
        _set_band(band, c_l[None], np.array([first]), np.array([0]))
    if r_r:
        end = v_r.T @ diag[m] @ v_r + (2.0 / h) * g_r
        _set_band(band, end[None], np.array([last]), np.array([last]))
        _set_band(band, c_r[None], np.array([last]), np.array([last - n_dim]))
    return scipy.linalg.eigvals_banded(band, lower=True, overwrite_a_band=True)


def _cluster(values: np.ndarray, tol_fn) -> list[float]:
    """Representatives of groups of near-equal sorted values."""
    reps: list[float] = []
    for v in values:
        if reps and abs(v - reps[-1]) <= tol_fn(v):
            continue
        reps.append(float(v))
    return reps


# ---------------------------------------------------------------------------
# refinement

#: Newton passes a bracket gets before it is dropped
_NEWTON_PASSES = 8
#: dW/dlambda counts as singular below this relative smallest singular value
_SINGULAR_RTOL = 1e-13


def _newton_refine(p: Problem, a: np.ndarray, b: np.ndarray, grid: Grid, tables,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton iteration on W(lambda) over the brackets [a, b].

    Each pass solves W(lam) v = mu W'(lam) v and steps lam <- lam - mu with mu
    the eigenvalue of smallest modulus, starting from the bracket midpoints.
    Near an eigenvalue lam_k of multiplicity m, W(lam) ~ (lam - lam_k) W'(lam)
    on the m-dimensional null space, so mu ~ lam - lam_k and convergence is
    quadratic even at semi-simple multiple eigenvalues. A bracket converges
    when |mu| <= tol; it fails when its iterate leaves [a, b], W' is singular
    there, or it has not converged within _NEWTON_PASSES passes.

    Returns the iterates and a mask of the brackets that converged.
    """
    lam = 0.5 * (a + b)
    active = np.ones(lam.size, dtype=bool)
    converged = np.zeros(lam.size, dtype=bool)
    for _ in range(_NEWTON_PASSES):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        w, dw = _char_batch(p, lam[idx], grid, tables, derivative=True)
        s = np.linalg.svd(dw, compute_uv=False)
        regular = s[:, -1] > _SINGULAR_RTOL * s[:, 0]
        active[idx[~regular]] = False
        idx, w, dw = idx[regular], w[regular], dw[regular]
        if idx.size == 0:
            break
        mus = np.linalg.eigvals(np.linalg.solve(dw, w))
        mu = mus[np.arange(idx.size), np.argmin(np.abs(mus), axis=1)].real
        step = lam[idx] - mu
        inside = (step >= a[idx]) & (step <= b[idx])
        active[idx[~inside]] = False
        idx, step, mu = idx[inside], step[inside], mu[inside]
        lam[idx] = step
        done = np.abs(mu) <= tol
        converged[idx[done]] = True
        active[idx[done]] = False
    return lam, converged


# ---------------------------------------------------------------------------
# eigenspace basis

def _canonical_signs(thetas: np.ndarray) -> np.ndarray:
    """Flip each column so that its largest-magnitude entry (the first on
    ties) is positive; the null vectors of W are defined only up to sign."""
    lead = thetas[np.argmax(np.abs(thetas), axis=0), np.arange(thetas.shape[1])]
    return np.where(lead < 0, -thetas, thetas)


def _eigenpairs(p: Problem, lams, scales, grid: Grid, rank_tol: float, tables,
                svd) -> list[Eigenpair]:
    """Eigenpairs at refined eigenvalues lams, all formed in one batch.

    svd = (svals (L, N), vt (L, N, N)) is the full SVD of W at lams, the one
    the caller took for its rank test. The multiplicity at lams[k] is
    the count of singular values at most rank_tol * scales[k]. A null-space
    basis V_k comes from the SVD; the matrix int_0^pi (Y V_k)^T (Y V_k) dx is
    diagonalized by an orthogonal U, and theta_l are the columns of V_k U,
    which makes the eigenfunctions Y theta_l mutually L2-orthogonal. Each
    theta_l is signed by :func:`_canonical_signs`. One batched path fold gives
    Y at every lambda.
    """
    lams = np.asarray(lams, dtype=float)
    svals, vt = svd
    mult = np.sum(svals <= rank_tol * np.asarray(scales)[:, None], axis=1)
    for lam, m, sv, sc in zip(lams, mult, svals, scales):
        if m == 0:
            raise NotAnEigenvalue(f"sigma_min(W({lam})) = {sv[-1]:.3e} exceeds "
                                  f"{rank_tol * sc:.3e}; not an eigenvalue")
    y, yp = integrate_ivp(p.potential, lams, p.left.B.T, -p.left.A.T, grid, tables)
    pairs = []
    for k, m in enumerate(mult):
        v_k = vt[k, -m:][::-1].T                 # (N, m), most-null direction first
        z = y[k] @ v_k                           # (n, N, m)
        gram = integral(np.einsum("qni,qnj->qij", z, z), grid.h)
        d, u = np.linalg.eigh(gram)
        thetas = _canonical_signs(v_k @ u)
        pairs.append(Eigenpair(float(lams[k]), int(m), thetas, y[k] @ thetas, yp[k] @ thetas,
                               np.maximum(d, 0.0), float(svals[k, -1] / scales[k]), grid))
    return pairs


def eigenbasis(p: Problem, lam_k: float, grid: Grid,
               rank_tol: float = ScanOptions.rank_tol) -> Eigenpair:
    """Eigenpair at a refined eigenvalue lam_k; see :func:`_eigenpairs`.

    The rank decision compares singular values against rank_tol times a local
    scale of W. sigma_1(W(lam_k)) itself vanishes at full-multiplicity
    eigenvalues, so the scale is taken as max of sigma_1 at lam_k and at
    lam_k +/- 0.25.
    """
    tables = potential_tables(p.potential, grid)
    _, svals, vt = np.linalg.svd(_char_batch(p, [lam_k], grid, tables))
    _, s1 = _sigma_batch(p, [lam_k - 0.25, lam_k + 0.25], grid, tables)
    scale = max(float(svals[0, 0]), float(np.max(s1)))
    return _eigenpairs(p, [lam_k], [scale], grid, rank_tol, tables, (svals, vt))[0]


# ---------------------------------------------------------------------------
# spectrum scan

def scan_spectrum(p: Problem, lambda_min: float, lambda_max: float,
                  opts: ScanOptions = ScanOptions()) -> SpectrumReport:
    """All eigenvalues in [lambda_min, lambda_max] with multiplicities.

    One path: the finite-difference oracle sets the sweep cell (SCAN_CELL,
    or a third of the smallest oracle eigenvalue gap if that is smaller);
    sigma_min(W) is sampled on that lambda grid and each interior local
    minimum is bracketed; Newton's method on W refines every bracket until
    its step is at most opts.tol, and a bracket where it does not converge
    is dropped; a root is accepted iff it lies in the window and sigma_min
    falls below rank_tol times the local scale of W, and the one SVD of W
    per root that decides this also gives the eigenspace bases of all
    accepted roots (:func:`_eigenpairs`); finally the oracle's
    count of eigenvalues away from the window edges must not exceed the
    multiplicities found.

    Raises
    ------
    ValueError
        If the window is not finite with lambda_min < lambda_max.
    WindowTooCoarse
        If the oracle eigenvalue gap is below the resolvable scale, two
        accepted eigenvalues lie inside one sweep cell, or the oracle
        predicts more interior eigenvalues than were found (one the sweep
        skipped, or whose bracket Newton dropped).
    """
    if not (np.isfinite(lambda_min) and np.isfinite(lambda_max) and lambda_min < lambda_max):
        raise ValueError("lambda window must be finite with lambda_min < lambda_max (--min < --max)")
    grid = Grid.uniform(opts.grid_nodes)

    h_o = np.pi / (ORACLE_NODES - 1)
    all_oracle = fd_oracle_eigenvalues(p, ORACLE_NODES)
    oracle_vals = all_oracle[(all_oracle >= lambda_min) & (all_oracle <= lambda_max)]
    reps = _cluster(oracle_vals, lambda v: max(1e-3, h_o**2 * (1.0 + v * v)))
    resolution = SCAN_CELL
    if len(reps) >= 2:
        gap = float(np.min(np.diff(reps)))
        floor = max(1e-4, 16 * opts.tol)
        if gap / 3.0 < floor:
            raise WindowTooCoarse(
                f"oracle eigenvalue gap {gap:.3e} is below the resolvable scale"
            )
        resolution = min(resolution, gap / 3.0)

    tables = potential_tables(p.potential, grid)
    n_samples = int(np.ceil((lambda_max - lambda_min) / resolution)) + 1
    lams = np.linspace(lambda_min, lambda_max, max(n_samples, 3))
    cell = lams[1] - lams[0]
    # one extra sample past each edge makes a minimum at an edge interior, so
    # every bracket straddles its minimum and no root-free edge bracket exists
    lams = np.concatenate([[lambda_min - cell], lams, [lambda_max + cell]])
    smin, s1 = _sigma_batch(p, lams, grid, tables)

    i = np.where((smin[1:-1] <= smin[:-2]) & (smin[1:-1] <= smin[2:]))[0] + 1
    found: list[tuple[float, float, int]] = []   # (lambda, scale, index into roots)
    if i.size:
        roots, converged = _newton_refine(p, lams[i - 1], lams[i + 1], grid, tables, opts.tol)
        roots = roots[converged]
        bscale = np.max([s1[i - 1], s1[i], s1[i + 1]], axis=0)[converged]
        # one W and one full SVD per root serve the rank test and the eigenbasis
        _, rsvals, rvt = np.linalg.svd(_char_batch(p, roots, grid, tables))
        for k, (lam, sv, sc) in enumerate(zip(roots, rsvals, bscale)):
            scale = max(sv[0], sc)
            if lambda_min <= lam <= lambda_max and scale > 0 and sv[-1] <= opts.rank_tol * scale:
                found.append((float(lam), float(scale), k))

    found.sort()
    merged: list[tuple[float, float, int]] = []
    for lam, sc, k in found:
        merge_tol = max(100 * opts.tol, 1e-8) * (1.0 + abs(lam))
        if merged and lam - merged[-1][0] <= merge_tol:
            merged[-1] = (merged[-1][0], max(merged[-1][1], sc), merged[-1][2])
            continue
        merged.append((lam, sc, k))

    for (la, _, _), (lb, _, _) in zip(merged, merged[1:]):
        if lb - la < cell:
            raise WindowTooCoarse(
                f"eigenvalues {la:.6g} and {lb:.6g} lie inside one sweep cell "
                f"({cell:.3g}); the sweep cannot separate them"
            )

    pairs = []
    if merged:
        keep = [k for _, _, k in merged]
        pairs = _eigenpairs(p, [lam for lam, _, _ in merged], [sc for _, sc, _ in merged],
                            grid, opts.rank_tol, tables, (rsvals[keep], rvt[keep]))

    margin = lambda v: cell + 0.1 + 2 * h_o**2 * (1.0 + v * v)
    interior_count = int(np.sum([(v - lambda_min) > margin(v) and (lambda_max - v) > margin(v)
                                 for v in oracle_vals]))
    found_count = sum(q.multiplicity for q in pairs)
    if interior_count > found_count:
        raise WindowTooCoarse(
            f"finite-difference oracle predicts {interior_count} interior eigenvalues "
            f"but the scan found {found_count}"
        )

    return SpectrumReport(p, grid, (float(lambda_min), float(lambda_max)), opts, tuple(pairs))
