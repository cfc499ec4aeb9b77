"""Fixed-step integration of the matrix initial value problem.

    -Y'' + P(x) Y = lambda Y,   Y(0), Y'(0) prescribed N x N matrices.

A classical 4th-order Runge-Kutta step on z = (Y, Y') with step h taken from
the grid. With Q = P - lambda at node i (Q0), at the half-step (Qh) and at
node i+1 (Q1), one step is z_{i+1} = T_i(lambda) z_i with

    T_i = [[I + h^2/6 (Q0 + 2 Qh) + h^4/24 Qh Q0,   h I + h^3/6 Qh],
           [h/6 (Q0 + 4 Qh + Q1) + h^3/12 (Qh Q0 + Q1 Qh),
            I + h^2/6 (2 Qh + Q1) + h^4/24 Q1 Qh]],

a polynomial of degree 2 in lambda whose 2N x 2N coefficients depend only on
P and the grid. :func:`potential_tables` builds them once per (potential,
grid), together with the degree-4 products T_{2j+1} T_{2j} of consecutive
step pairs; every propagation evaluates them:

* endpoints (:func:`integrate_final_batch`) multiply the pair leaves
  ... (T_3 T_2)(T_1 T_0) in a pairwise tree, ceil(log2(ceil((n-1)/2)))
  batched matrix products per chunk of lambdas; with an odd step count the
  last step is a leaf of its own;
* paths (:func:`_fold`) fold the same leaves, z_{2j+2} = (T_{2j+1} T_{2j}) z_{2j},
  one batched product per two steps for all lambdas of a call; each lambda
  keeps every k-th node or every node, and a kept odd node comes from its
  even neighbour by one single step, batched per block. A scan of
  :mod:`isospec.spectrum` folds once: the eigenvalue count's lambdas keep
  every k-th node, k the largest with N s k h <= 2.5: each channel's phase
  moves at most s h per node, so arg det(Y' + i s Y) moves less than pi
  between kept nodes and unwraps. The roots keep every node for their
  eigenpairs; :func:`integrate_ivp` keeps every node.

Leaves stay at two steps: the monomial sum of a longer product cancels at
large sqrt(lambda) times its length (octets lose about 2e-10 relative at
lambda = 4e4 on 401 nodes, pairs stay within a few 1e-13).

Eigenfunction data is smooth, so no adaptivity: fixed grids keep downstream
quadrature and kernel algebra node-aligned.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteState
from .model import Grid, MatrixPotential

#: bytes of step matrices evaluated at once; bounds the (ceil((n-1)/2), chunk,
#: 2N, 2N) pair leaves of a lambda chunk in the endpoint tree and the (block, L,
#: 2N, 2N) steps with their (block, L, 2N, N) states of a step block in the fold
_TREE_BYTES = 1 << 20


def potential_tables(pot: MatrixPotential, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """RK4 step and pair-leaf polynomials (C, Pi) of a potential on a grid.

    C, shape (n-1, 3, 2N, 2N), gives T_i(lam) = sum_k lam^k C[i, k]: the
    closed block form of the module docstring with P taken at node i, at the
    half-step and at node i+1. Pi, shape (ceil((n-1)/2), 5, 2N, 2N), gives
    T_{2j+1}(lam) T_{2j}(lam) = sum_k lam^k Pi[j, k]; with an odd step count
    the last leaf is the last step alone, zero-padded to degree 4.
    """
    p_nodes = pot.evaluate_many(grid.nodes)
    p0, p1 = p_nodes[:-1], p_nodes[1:]
    ph = pot.evaluate_many(0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
    h = grid.h
    s, n = ph.shape[0], pot.dimension
    eye = np.eye(n)
    # scans near RK4's stability limit depend on these last bits: with correctly rounded
    # h^3/6 and h^4/24, the 401-node scan of scalar-zero on [6.4e4, 7e4] raises WindowTooCoarse
    h6 = h / 6
    h2_6, h3_6 = h6 * h, h6 * (h * h)
    h4_24 = h3_6 * h / 4
    ph_p0, p1_ph = ph @ p0, p1 @ ph
    c = np.zeros((s, 3, 2 * n, 2 * n))
    c[:, 0, :n, :n] = eye + h2_6 * (p0 + 2 * ph) + h4_24 * ph_p0
    c[:, 0, :n, n:] = h * eye + h3_6 * ph
    c[:, 0, n:, :n] = h6 * (p0 + 4 * ph + p1) + (h3_6 / 2) * (ph_p0 + p1_ph)
    c[:, 0, n:, n:] = eye + h2_6 * (2 * ph + p1) + h4_24 * p1_ph
    c[:, 1, :n, :n] = -(h * h / 2) * eye - h4_24 * (p0 + ph)
    c[:, 1, :n, n:] = -h3_6 * eye
    c[:, 1, n:, :n] = -h * eye - (h3_6 / 2) * (p0 + 2 * ph + p1)
    c[:, 1, n:, n:] = -(h * h / 2) * eye - h4_24 * (ph + p1)
    c[:, 2, :n, :n] = c[:, 2, n:, n:] = h4_24 * eye
    c[:, 2, n:, :n] = h3_6 * eye
    full = s // 2
    pairs = np.zeros((full + s % 2, 5, 2 * n, 2 * n))
    lo, hi = c[0:2 * full:2], c[1::2]
    for a in range(3):
        for b in range(3):
            pairs[:full, a + b] += hi[:, a] @ lo[:, b]
    if s % 2:
        pairs[-1, :3] = c[-1]
    return c, pairs


def _step_matrices(coeffs: np.ndarray, lams: np.ndarray, derivative: bool):
    """Polynomials sum_k lam^k coeffs[:, k] at every lambda, (s, L, 2N, 2N), and d/dlam if asked.

    coeffs is (s, d+1, 2N, 2N): the step or pair-leaf tables of :func:`potential_tables`.
    """
    s, d1, n2, _ = coeffs.shape
    flat = coeffs.reshape(s, d1, n2 * n2)
    # matmul sends a single row through BLAS gemv, which rounds differently
    # from the gemm of a batch; a duplicated row keeps every value independent
    # of how many lambdas are evaluated with it
    rows = max(2, lams.size)
    powers = np.resize(lams, rows)[:, None] ** np.arange(d1)
    t = (powers @ flat)[:, :lams.size].reshape(s, lams.size, n2, n2)
    if not derivative:
        return t, None
    dpowers = np.zeros_like(powers)
    dpowers[:, 1:] = np.arange(1, d1) * powers[:, :-1]
    return t, (dpowers @ flat)[:, :lams.size].reshape(s, lams.size, n2, n2)


def _tree_product(t: np.ndarray, dt: np.ndarray | None):
    """Ordered product t[-1] @ ... @ t[0] over axis 0 by pairwise reduction.

    With dt, also d/dlam of the product by the product rule on (T, dT) pairs.
    """
    while t.shape[0] > 1:
        odd = t.shape[0] % 2
        lo, hi = t[0:-1:2], t[1::2]
        if dt is not None:
            dprod = dt[1::2] @ lo + hi @ dt[0:-1:2]
            dt = np.concatenate((dprod, dt[-1:])) if odd else dprod
        prod = hi @ lo
        t = np.concatenate((prod, t[-1:])) if odd else prod
    return t[0], None if dt is None else dt[0]


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteState("integration overflowed; check lambda window and grid scaling")


def _initial_state(y0, yp0) -> np.ndarray:
    return np.concatenate((np.asarray(y0, dtype=float), np.asarray(yp0, dtype=float)))


def _fold(tables: tuple[np.ndarray, np.ndarray], lams: np.ndarray, z0: np.ndarray, stride: int,
          paths: int) -> tuple[np.ndarray, np.ndarray]:
    """States z_i = T_{i-1}(lam) ... T_0(lam) z0 of the first L - paths lambdas
    at the nodes i = 0, stride, 2 stride, ... and the last, (K, L - paths, 2N, N),
    and of the last paths lambdas at every node, (paths, n, 2N, N).

    tables is the output of :func:`potential_tables`. All lambdas are folded
    together through the even nodes (and the last), one batched product per
    pair leaf, in blocks of leaves whose leaves and states fit _TREE_BYTES.
    Once a block is done, its states are copied out to the nodes each lambda
    keeps, and a kept odd node 2j + 1 is T_{2j} times node 2j: one batched
    product for the path lambdas at every odd node of the block, one for
    the others at the odd nodes they keep.
    """
    c, pairs = tables
    s, n2 = c.shape[0], c.shape[2]
    m = lams.size - paths
    block = min(pairs.shape[0], max(1, _TREE_BYTES // (lams.size * (n2 * n2 + z0.size) * 8)))
    kept = np.union1d(np.arange(0, s + 1, stride), [s])
    strided = np.empty((kept.size, m) + z0.shape)
    path = np.empty((paths, s + 1) + z0.shape)
    states = np.empty((block + 1, lams.size) + z0.shape)    # nodes 2 lo .. 2 hi
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, pairs.shape[0], block):
            leaves, _ = _step_matrices(pairs[lo:lo + block], lams, derivative=False)
            hi = lo + len(leaves)
            for j in range(hi - lo):
                np.matmul(leaves[j], states[j], out=states[j + 1])
            del leaves                  # before the single steps are evaluated
            nodes = np.minimum(2 * np.arange(lo, hi + 1), s)
            path[:, nodes] = states[:hi - lo + 1, m:].swapaxes(0, 1)
            done = np.isin(kept, nodes)
            strided[done] = states[np.searchsorted(nodes, kept[done]), :m]
            odd = np.arange(lo, min(hi, s // 2))            # j of the odd nodes 2j + 1 < s
            if paths:
                steps, _ = _step_matrices(c[2 * odd], lams[m:], derivative=False)
                path[:, 2 * odd + 1] = (steps @ states[:odd.size, m:]).swapaxes(0, 1)
            odd = odd[(2 * odd + 1) % stride == 0]
            if m and odd.size:
                steps, _ = _step_matrices(c[2 * odd], lams[:m], derivative=False)
                strided[(2 * odd + 1) // stride] = steps @ states[odd - lo, :m]
            states[0] = states[hi - lo]
    _check_finite(states[0])
    return strided, path


def integrate_ivp(pot: MatrixPotential, lam, y0: np.ndarray, yp0: np.ndarray,
                  grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Integrate -Y'' + P Y = lam Y from x=0 to pi on the grid.

    Parameters
    ----------
    pot : MatrixPotential
    lam : float or 1-D array of L floats
        Real spectral parameter(s).
    y0, yp0 : (N, N) arrays
        Initial Y(0) and Y'(0).
    grid : Grid

    Returns
    -------
    (Y, Y'): the solution at every node, each (n, N, N) for a scalar lam and
    (L, n, N, N) for an array, lambda axis first, from one :func:`_fold` of all
    lambdas. Global error O(h^4) for C^2 potentials. Deterministic for fixed inputs.
    """
    n = pot.dimension
    if np.shape(y0) != (n, n) or np.shape(yp0) != (n, n):
        raise ValueError("initial data must be N x N matching the potential")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    z = _fold(potential_tables(pot, grid), np.atleast_1d(lams), _initial_state(y0, yp0),
              grid.n - 1, lams.size)[1]
    z = z[0] if lams.ndim == 0 else z
    return z[..., :n, :].copy(), z[..., n:, :].copy()


def integrate_final_batch(pot: MatrixPotential, lams: np.ndarray, y0: np.ndarray, yp0: np.ndarray,
                          grid: Grid, tables: tuple[np.ndarray, np.ndarray] | None = None,
                          derivative: bool = False):
    """Endpoint (Y(pi), Y'(pi)) for a batch of lambda values, shape (L, N, N) each.

    The pair leaves of :func:`potential_tables` are evaluated for a chunk of
    lambdas and multiplied in a pairwise tree. With ``derivative=True`` also
    returns (dY(pi)/dlam, dY'(pi)/dlam), the exact lambda-derivatives of the
    discrete endpoint map.
    """
    pairs = (potential_tables(pot, grid) if tables is None else tables)[1]
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    z0 = _initial_state(y0, yp0)
    m, _, n2, _ = pairs.shape
    n = n2 // 2
    chunk = max(1, _TREE_BYTES // ((1 + derivative) * m * n2 * n2 * 8))
    z = np.empty((lams.size, n2, n))
    dz = np.empty_like(z) if derivative else None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, lams.size, chunk):
            sl = slice(lo, lo + chunk)
            prod, dprod = _tree_product(*_step_matrices(pairs, lams[sl], derivative))
            z[sl] = prod @ z0
            if derivative:
                dz[sl] = dprod @ z0
    _check_finite(z)
    if not derivative:
        return z[:, :n], z[:, n:]
    _check_finite(dz)
    return z[:, :n], z[:, n:], dz[:, :n], dz[:, n:]
