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
step pairs. One kernel, :func:`_fold`, multiplies those pair leaves: it
evaluates them for a chunk of lambdas, a block at a time, multiplies the
span leaves of each segment in a pairwise tree and folds the segment
products, keeping the states at the nodes 0, 2 span, 4 span, ... and the
last (with an odd step count the last leaf is a step of its own). It has
three uses:

* endpoints (:func:`integrate_final_batch`): one segment of every leaf,
  ceil(log2(ceil((n-1)/2))) batched matrix products per chunk of lambdas;
* count lanes (the eigenvalue count's lambdas and the roots it certifies).
  The count samples arg det(Y' + i s Y) every k nodes at most, k the
  largest with N s k h <= 2.5: each channel's phase moves at most s h per
  node, so the sampled phase moves less than pi between samples and
  unwraps. Span 2^min(3, floor(log2(k/2))) keeps every (2 span)-th node,
  2 span <= k: 25 sequential products instead of 200 on 401 nodes;
* paths (:func:`_paths`, every node, for :func:`integrate_ivp`, the
  eigenpairs and a count at k = 1): span 1 folds z_{2j+2} =
  (T_{2j+1} T_{2j}) z_{2j}, one batched product per two steps, and an odd
  node comes from its even neighbour by one single step, batched per block.

A lane's initial state z0 is any 2N x w matrix, shared by all lanes or one
per lane: the frame (B^T, -A^T) of the left boundary plane for the endpoints
and the count, and for an eigenpair only that frame times the null
directions of W at its eigenvalue. Each lane's states depend on its lambda
and z0 alone, not on the other lanes, the chunks or the blocks.

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

#: bytes of step matrices evaluated at once: the (block, chunk, 2N, 2N) pair
#: leaves of :func:`_fold`, or a block of the single steps to a path's odd nodes
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


def _tree_product(t: np.ndarray, levels: int, half: np.ndarray) -> np.ndarray:
    """Ordered products t[(j+1) r - 1] @ ... @ t[j r] of the runs of r = 2^levels
    consecutive matrices along axis 0 (the last run may be shorter), by levels
    rounds of pairwise products t[2i+1] @ t[2i]; an odd one out passes on as it is.

    The rounds write alternately into half (room for ceil(len(t) / 2) matrices)
    and into t itself, which the first round has consumed: t is overwritten.
    """
    buffers = (half, t)
    for k in range(levels):
        size = t.shape[0]
        out = buffers[k % 2][:(size + 1) // 2]
        np.matmul(t[1:size:2], t[0:size - 1:2], out=out[:size // 2])
        if size % 2:
            out[-1] = t[-1]
        t = out
    return t


def _initial_state(y0, yp0) -> np.ndarray:
    return np.concatenate((np.asarray(y0, dtype=float), np.asarray(yp0, dtype=float)))


def _leaf_room(n2: int) -> int:
    """How many 2N x 2N matrices fit _TREE_BYTES, at least one."""
    return max(1, _TREE_BYTES // (8 * n2 * n2))


def _fold(tables: tuple[np.ndarray, np.ndarray], lams: np.ndarray, z0: np.ndarray,
          span: int, out: np.ndarray | None = None) -> np.ndarray:
    """States z_i = T_{i-1}(lam) ... T_0(lam) z0 of lams at the nodes 0,
    2 span, 4 span, ... and the last, (K, L, 2N, w), written into out if
    given; tables those of :func:`potential_tables`, span a power of 2, and
    z0 one (2N, w) initial state for every lane or (L, 2N, w), one per lane.

    Each segment's span pair leaves are multiplied in a pairwise tree
    (:func:`_tree_product`) and the states fold one segment product at a
    time. The lanes go in chunks and the leaves in blocks of whole segments
    whose leaves fit _TREE_BYTES; a lane's states do not depend on either.
    """
    pairs, n2 = tables[1], z0.shape[-2]
    m, room = len(pairs), _leaf_room(n2)
    chunk = max(1, min(lams.size, room // min(span, m)))
    block = min(m, max(span, room // chunk // span * span))
    # work and the half the tree's rounds write into (none at span 1) are one block:
    # glibc trims its heap only past twice the largest mmapped block freed, so pages stay mapped
    size = block * max(2, chunk) * n2 * n2
    buf = np.empty(size + ((block + 1) // 2 if span > 1 else 0) * chunk * n2 * n2)
    work, half = buf[:size], buf[size:].reshape(-1, chunk, n2, n2)
    states = np.empty((-(-m // span) + 1, lams.size) + z0.shape[-2:]) if out is None else out
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, lams.size, chunk):
            kept = list(states[:, a:a + chunk])
            for lo in range(0, m, block):
                leaves = _step_matrices(pairs[lo:lo + block], lams[a:a + chunk], work)
                products = _tree_product(leaves, span.bit_length() - 1, half[:, :leaves.shape[1]])
                for k, product in enumerate(products, lo // span):
                    np.matmul(product, kept[k], out=kept[k + 1])
    if not np.all(np.isfinite(states[-1])):
        raise NonFiniteState("integration overflowed; check lambda window and grid scaling")
    return states


def _paths(tables: tuple[np.ndarray, np.ndarray], lams: np.ndarray,
           z0: np.ndarray) -> np.ndarray:
    """States z_i = T_{i-1}(lam) ... T_0(lam) z0 of lams at every node,
    (L, n, 2N, w), tables those of :func:`potential_tables` and z0 as in
    :func:`_fold`: one (2N, w) state for every lane or one per lane.

    The even nodes and the last are :func:`_fold` at span 1, written in
    place; an odd node 2j + 1 is T_{2j} times node 2j, one batched product
    per chunk of lanes and block of steps whose single steps fit _TREE_BYTES.
    """
    c = tables[0]
    s = c.shape[0]
    # with an odd step count the last node is odd: the fold leaves it in a spare node
    path = np.empty((lams.size, s + 1 + s % 2) + z0.shape[-2:])
    _fold(tables, lams, z0, 1, path[:, ::2].swapaxes(0, 1))
    path[:, s] = path[:, -1]
    path = path[:, :s + 1]
    room = _leaf_room(z0.shape[-2])
    chunk = max(1, min(lams.size, room))
    block = max(1, room // chunk)
    for a in range(0, lams.size, chunk):
        lanes = path[a:a + chunk]
        for lo in range(0, s // 2, block):
            hi = min(lo + block, s // 2)              # odd nodes 2j + 1 < s, lo <= j < hi
            np.matmul(_step_matrices(c[2 * lo:2 * hi:2], lams[a:a + chunk]),
                      lanes[:, 2 * lo:2 * hi:2].swapaxes(0, 1),
                      out=lanes[:, 2 * lo + 1:2 * hi:2].swapaxes(0, 1))
    return path


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
    (L, n, N, N) for an array, lambda axis first, from one :func:`_paths` of all
    lambdas. Global error O(h^4) for C^2 potentials. Deterministic for fixed inputs.
    """
    n = pot.dimension
    if np.shape(y0) != (n, n) or np.shape(yp0) != (n, n):
        raise ValueError("initial data must be N x N matching the potential")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    z = _paths(potential_tables(pot, grid), np.atleast_1d(lams), _initial_state(y0, yp0))
    z = z[0] if lams.ndim == 0 else z
    return z[..., :n, :].copy(), z[..., n:, :].copy()


def integrate_final_batch(pot: MatrixPotential, lams: np.ndarray, y0: np.ndarray, yp0: np.ndarray,
                          grid: Grid, tables: tuple[np.ndarray, np.ndarray] | None = None):
    """Endpoint (Y(pi), Y'(pi)) for a batch of lambda values, shape (L, N, N) each.

    :func:`_fold` of the pair leaves of :func:`potential_tables` in one segment.
    """
    tables = potential_tables(pot, grid) if tables is None else tables
    z = _fold(tables, np.atleast_1d(np.asarray(lams, dtype=float)), _initial_state(y0, yp0),
              1 << (len(tables[1]) - 1).bit_length())[-1]
    return z[:, :pot.dimension], z[:, pot.dimension:]
