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
  one batched product per two steps for all path lambdas of a call, and a
  kept odd node comes from its even neighbour by one single step, batched
  per block; :func:`integrate_ivp` keeps every node;
* count lanes, the lambdas of the eigenvalue count of :mod:`isospec.spectrum`,
  ride in the same fold. The count samples arg det(Y' + i s Y) every k
  nodes at most, k the largest with N s k h <= 2.5: each channel's phase
  moves at most s h per node, so the sampled phase moves less than pi
  between samples and unwraps. A count lane therefore multiplies the leaves
  of each segment of r = 2^l of them in a pairwise tree, l = min(3,
  floor(log2(k/2))), and folds the segment products, keeping every 2r-th
  node (2r <= k) and the last: 25 sequential products instead of 200 on 401
  nodes. At k = 1 it keeps every node, as a path does.

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
#: 2N, 2N) leaves of a block of the fold with its segment products and path states
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


def _step_matrices(coeffs: np.ndarray, lams: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Polynomials sum_k lam^k coeffs[:, k] at every lambda, (s, L, 2N, 2N).

    coeffs is (s, d+1, 2N, 2N): the step or pair-leaf tables of :func:`potential_tables`.
    out, if given, is a flat array with room for s max(2, L) (2N)^2 values
    that the result is written into.
    """
    s, d1, n2, _ = coeffs.shape
    flat = coeffs.reshape(s, d1, n2 * n2)
    # matmul sends a single row through BLAS gemv, which rounds differently
    # from the gemm of a batch; a duplicated row keeps every value independent
    # of how many lambdas are evaluated with it
    rows = max(2, lams.size)
    powers = np.resize(lams, rows)[:, None] ** np.arange(d1)
    if out is not None:
        out = out[:s * rows * n2 * n2].reshape(s, rows, n2 * n2)
    return np.matmul(powers, flat, out=out)[:, :lams.size].reshape(s, lams.size, n2, n2)


def _tree_product(t: np.ndarray, levels: int, half: np.ndarray | None = None) -> np.ndarray:
    """Ordered products t[(j+1) r - 1] @ ... @ t[j r] of the runs of r = 2^levels
    consecutive matrices along axis 0 (the last run may be shorter), by levels
    rounds of pairwise products t[2i+1] @ t[2i]; an odd one out passes on as it is.

    The rounds write alternately into half, with room for ceil(len(t) / 2)
    matrices (allocated when None), and into t itself, which the first round
    has consumed: t is overwritten.
    """
    buffers = (np.empty(((t.shape[0] + 1) // 2,) + t.shape[1:]) if half is None else half, t)
    for k in range(levels):
        size = t.shape[0]
        out = buffers[k % 2][:(size + 1) // 2]
        np.matmul(t[1:size:2], t[0:size - 1:2], out=out[:size // 2])
        if size % 2:
            out[-1] = t[-1]
        t = out
    return t


def _work(leaves: int, rows: int, lanes: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """One flat work array for the leaves of :func:`_step_matrices` (leaves
    pair leaves at rows lambdas) and, behind them, the (ceil(leaves / 2),
    lanes, 2N, 2N) half buffer of :func:`_tree_product`; returns both."""
    room = leaves * rows * n2 * n2
    work = np.empty(room + (leaves + 1) // 2 * lanes * n2 * n2)
    return work, work[room:].reshape((leaves + 1) // 2, lanes, n2, n2)


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteState("integration overflowed; check lambda window and grid scaling")


def _initial_state(y0, yp0) -> np.ndarray:
    return np.concatenate((np.asarray(y0, dtype=float), np.asarray(yp0, dtype=float)))


def _fold(tables: tuple[np.ndarray, np.ndarray], lams: np.ndarray, z0: np.ndarray, stride: int,
          paths: int) -> tuple[np.ndarray, np.ndarray]:
    """States z_i = T_{i-1}(lam) ... T_0(lam) z0 of the first m = L - paths
    lambdas, the count lanes, at the nodes they keep, (K, m, 2N, N), and of the
    last paths lambdas at every node, (paths, n, 2N, N).

    tables is the output of :func:`potential_tables`. At stride 1 the count
    lanes keep every node and fold as the paths do. Above it they keep the
    nodes 0, 2r, 4r, ... and the last, with r = 2^l pair leaves and
    l = min(3, floor(log2(stride / 2))), so that 2r <= stride: the leaves of
    each segment of r are multiplied in a pairwise tree
    (:func:`_tree_product`), and the states fold one segment product at a
    time. The paths fold through the even nodes (and the last), one batched
    product per pair leaf, and a kept odd node 2j + 1 is T_{2j} times node
    2j, one batched product per block. The leaves of all lambdas are
    evaluated together, in blocks of leaves (a multiple of r) whose leaves,
    segment products and path states fit _TREE_BYTES.
    """
    c, pairs = tables
    s, n2 = c.shape[0], c.shape[2]
    m = lams.size - paths
    first = 0 if stride == 1 else m             # lanes [:first] fold by segments
    walk = lams.size - first                    # lanes [first:] fold by pairs
    span = 1 << min(3, (stride // 2).bit_length() - 1) if stride > 1 else 1
    levels = span.bit_length() - 1
    # per leaf: the leaves of every lane, half a segment product and a path state
    fit = _TREE_BYTES // (8 * (lams.size * n2 * n2 + first * n2 * n2 // 2 + walk * z0.size))
    block = max(span, fit // span * span)
    work, half = _work(min(block, pairs.shape[0]), max(2, lams.size), first, n2)
    strided = np.empty((len(range(0, s, 2 * span)) + 1, first) + z0.shape)
    strided[0] = z0
    path = np.empty((walk, s + 1) + z0.shape)
    states = np.empty((min(block, pairs.shape[0]) + 1, walk) + z0.shape)  # nodes 2 lo .. 2 hi
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, pairs.shape[0], block):
            leaves = _step_matrices(pairs[lo:lo + block], lams, work)
            hi = lo + len(leaves)
            if first:
                for k, product in enumerate(_tree_product(leaves[:, :first], levels, half),
                                            lo // span):
                    np.matmul(product, strided[k], out=strided[k + 1])
            if walk:
                kept = list(states[:hi - lo + 1])
                for leaf, z, out in zip(leaves[:, first:], kept, kept[1:]):
                    np.matmul(leaf, z, out=out)
                nodes = np.minimum(2 * np.arange(lo, hi + 1), s)
                path[:, nodes] = states[:hi - lo + 1].swapaxes(0, 1)
                odd = np.arange(lo, min(hi, s // 2))        # j of the odd nodes 2j + 1 < s
                steps = _step_matrices(c[2 * odd], lams[first:])
                path[:, 2 * odd + 1] = (steps @ states[:odd.size]).swapaxes(0, 1)
                states[0] = states[hi - lo]
    _check_finite(strided[-1])
    _check_finite(states[0])
    if stride == 1:
        return path[:m].swapaxes(0, 1), path[m:]
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
                          grid: Grid, tables: tuple[np.ndarray, np.ndarray] | None = None):
    """Endpoint (Y(pi), Y'(pi)) for a batch of lambda values, shape (L, N, N) each.

    The pair leaves of :func:`potential_tables` are evaluated for a chunk of
    lambdas and multiplied in one pairwise tree (:func:`_tree_product`).
    """
    pairs = (potential_tables(pot, grid) if tables is None else tables)[1]
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    z0 = _initial_state(y0, yp0)
    m, _, n2, _ = pairs.shape
    n = n2 // 2
    chunk = max(1, _TREE_BYTES // (m * n2 * n2 * 8))
    work, half = _work(m, max(2, min(chunk, lams.size)), min(chunk, lams.size), n2)
    z = np.empty((lams.size, n2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, lams.size, chunk):
            leaves = _step_matrices(pairs, lams[lo:lo + chunk], work)
            prod = _tree_product(leaves, (m - 1).bit_length(), half[:, :leaves.shape[1]])
            z[lo:lo + chunk] = prod[0] @ z0
    _check_finite(z)
    return z[:, :n], z[:, n:]
