"""Characteristic matrix, eigenvalue scan and count, and eigenspace bases.

lambda is an eigenvalue iff W(lambda) = cB Y'(pi; lambda) + cA Y(pi; lambda)
is singular, where Y solves the matrix IVP with Y(0) = B^T, Y'(0) = -A^T.
Multiplicity equals the nullity of W. Under RK4, W is a polynomial in lambda
(of degree 2(n-1)), so on a window it is resolved to rounding by a Chebyshev
interpolant of low degree, and the real roots of that matrix polynomial come
from one block colleague pencil (Effenberger & Kressner, BIT 52, 2012),
solved by shift and invert: a root of any multiplicity is found, where
determinant sign changes miss the even-multiplicity ones. Which roots are
eigenvalues, and with what multiplicity, is decided by counting: the matrix
oscillation theorem gives N(lambda), the number of eigenvalues below lambda
of the discrete problem the scan solves, from the winding of a unitary map of
the solution frame along x (Atkinson 1964, *Discrete and Continuous Boundary
Problems*; Greenberg & Marletta, SLEUTH, ACM TOMS 1997). The count is taken
at root -/+ delta, and its fold also gives W at each root: with the central
difference of W across that window it is the Newton step on W (successive
linear problems, Ruhe 1973), which confirms the roots that are converged.
Newton's method, quadratic at simple and at semi-simple multiple eigenvalues
alike, runs only on the others; a start where it fails is dropped. A rescan of
a second problem takes one Newton step from a first report's eigenvalues and
keeps the count as its certificate, with no pencil.
The finite-difference oracle discretises the problem independently and solves
it densely with numpy; it is a cross-check that the scan does not call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionViolated, NonFiniteState, NotAnEigenvalue, WindowTooCoarse
from .model import RANK_RTOL, BoundaryPair, Grid, Problem, boundary_checks
from .ode import _fold, _initial_state, _paths, integrate_final_batch, potential_tables
from .quadrature import integral

#: node count of the finite-difference oracle grid
ORACLE_NODES = 201
#: x-grid of the IVP integration when the caller names none (the CLI's --grid)
DEFAULT_GRID = Grid.uniform(401)


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
    residual: float          # |mu| of the Newton step on W at lam: about its error
    grid: Grid


@dataclass(frozen=True)
class Eigenvalue:
    """One certified eigenvalue without its eigenspace: a scan's record where it builds none."""

    lam: float
    multiplicity: int
    residual: float          # |mu| of the Newton step on W at lam: about its error


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues found in a window, ascending, with multiplicities."""

    problem: Problem
    grid: Grid
    window: tuple[float, float]
    pairs: tuple[Eigenpair | Eigenvalue, ...] = field(default_factory=tuple)

    @property
    def sigma_sequence(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, nondecreasing."""
        return np.array([p.lam for p in self.pairs for _ in range(p.multiplicity)])

    def to_json_obj(self):
        return [
            {"lambda": p.lam, "multiplicity": p.multiplicity, "residual": p.residual}
            for p in self.pairs
        ]


def characteristic_matrix(p: Problem, lam: float, grid: Grid) -> np.ndarray:
    """W(lambda) = cB Y'(pi) + cA Y(pi); not exported, only perfbench's tests call it."""
    return _char_batch(p, [lam], grid, None)[0]


def _char_batch(p: Problem, lams: np.ndarray, grid: Grid, tables) -> np.ndarray:
    """W(lambda) for a batch, (L, N, N)."""
    y, yp = integrate_final_batch(p.potential, lams, p.left.B.T, -p.left.A.T, grid, tables)
    return p.right.B @ yp + p.right.A @ y


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
    B A^T = A B^T. For an invertible B this is V^T B^{-1} A V.

    Returns (V, sign * G), V of shape (N, r) with r = rank B.
    """
    a, b = pair.A, pair.B
    u, s, vt = np.linalg.svd(b)
    r = int(np.sum(s > RANK_RTOL * np.linalg.norm(np.hstack([a, b]), 2)))
    us = u[:, :r] / s[:r]
    g = us.T @ (b @ a.T) @ us
    return vt[:r].T, sign * 0.5 * (g + g.T)


def fd_oracle_eigenvalues(p: Problem, n_nodes: int = ORACLE_NODES) -> np.ndarray:
    """Independent O(h^2) eigenvalue estimates from a dense symmetric matrix.

    Linear finite elements with lumped mass (at interior nodes, the
    second-order central-difference scheme) on a uniform grid. The ker B
    components of each endpoint value are eliminated as Dirichlet unknowns,
    and the remaining ones carry the symmetric boundary form of
    :func:`_end_frame`. Scaling by the diagonal mass gives a standard
    symmetric matrix, ordered node by node and solved densely by
    ``numpy.linalg.eigvalsh``: O((nN)^3) operations and O((nN)^2) memory.

    Returns every eigenvalue of the discrete problem, ascending.
    """
    n_dim = p.n
    grid = Grid.uniform(n_nodes)
    h = grid.h
    m = n_nodes - 1
    diag = p.potential.evaluate_many(grid.nodes) + (2.0 / h**2) * np.eye(n_dim)
    v_l, g_l = _end_frame(p.left, -1.0)
    v_r, g_r = _end_frame(p.right, 1.0)
    first, last = v_l.shape[1], v_l.shape[1] + (m - 1) * n_dim   # offsets of nodes 1 and m
    a = np.zeros((last + v_r.shape[1],) * 2)
    idx = first + n_dim * np.arange(m - 1)[:, None] + np.arange(n_dim)
    a[idx[:, :, None], idx[:, None, :]] = diag[1:m]
    i = np.arange(first, last - n_dim)
    a[i + n_dim, i] = -1.0 / h**2      # eigvalsh reads the lower triangle only
    a[:first, :first] = v_l.T @ diag[0] @ v_l + (2.0 / h) * g_l
    a[last:, last:] = v_r.T @ diag[m] @ v_r + (2.0 / h) * g_r
    # the half-cell mass h/2 at the ends scales their couplings by sqrt(2)
    a[first:first + n_dim, :first] = -np.sqrt(2.0) / h**2 * v_l
    a[last:, last - n_dim:last] = -np.sqrt(2.0) / h**2 * v_r.T
    return np.linalg.eigvalsh(a)


# ---------------------------------------------------------------------------
# eigenvalue count

#: the count's one bound: det(Y' + i s Y), whose N phases move at most s h per node
#: each, is sampled every k nodes, k the largest with N s k h <= 2.5 < pi, so it
#: unwraps; N s h above it raises, and at k > 1 RK4 steps at a smaller s h
_MAX_PHASE_STEP = 2.5
#: a boundary eigenphase within this of 0 mod 2 pi is the exact 0 of a ker B
#: direction, which rounding may move to either side of 0
_PHASE_SLACK = 1e-9


def _potential_range(p: Problem, grid: Grid) -> tuple[float, float]:
    """Smallest and largest eigenvalue of P over the grid nodes."""
    e = np.linalg.eigvalsh(p.potential.evaluate_many(grid.nodes))
    return float(e.min()), float(e.max())


def _boundary_phases(pair: BoundaryPair, s: np.ndarray, upper: bool) -> np.ndarray:
    """Sum of the eigenphases of Theta = X conj(X)^{-1}, X = -A^T + i s B^T,
    for each of s: the map Theta of the frame (B^T, -A^T) of the boundary
    plane. Phases lie in [0, 2 pi), or in (0, 2 pi] with upper; a phase
    within _PHASE_SLACK of 0 mod 2 pi is taken as 0, or as 2 pi with upper."""
    x = -pair.A.T + 1j * s[:, None, None] * pair.B.T
    ph = np.angle(np.linalg.eigvals(np.linalg.solve(x.conj(), x)))
    return np.where(np.abs(ph) <= _PHASE_SLACK, 2 * np.pi * upper, ph % (2 * np.pi)).sum(axis=1)


def _raw_counts(p: Problem, lams, grid: Grid, tables, prange: tuple[float, float],
                roots=()) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_counts` before rounding the counts to integers."""
    lams, roots = np.asarray(lams, dtype=float), np.asarray(roots, dtype=float)
    n = p.n
    s = np.sqrt(np.maximum(np.maximum(np.abs(lams - prange[0]), np.abs(lams - prange[1])), 1.0))
    step = n * s * grid.h
    if step.max() > _MAX_PHASE_STEP:
        raise WindowTooCoarse(
            f"the eigenvalue count unwraps its phase only for N s h <= {_MAX_PHASE_STEP}, "
            f"s^2 = max(|lambda - P|, 1), but N s h = {step.max():.3g} at lambda = "
            f"{lams[np.argmax(step)]:.9g}; refine the grid (--grid)")
    k, lanes = int(_MAX_PHASE_STEP / step.max()), np.concatenate([lams, roots])
    z0 = _initial_state(p.left.B.T, -p.left.A.T)
    z = (_fold(tables, lanes, z0, 1 << min(3, (k // 2).bit_length() - 1)) if k > 1
         else _paths(tables, lanes, z0).swapaxes(0, 1))
    w = p.right.B @ z[-1, :, n:] + p.right.A @ z[-1, :, :n]
    z = z[:, :lams.size]
    g = z[..., n:, :] + 1j * s[:, None, None] * z[..., :n, :]      # Y' + i s Y, (K, L, N, N)
    sign, _ = np.linalg.slogdet(g)
    delta = 2.0 * np.angle(sign[1:] * sign[:-1].conj()).sum(axis=0)
    # Theta(pi)^{-1} Theta_R is similar to G^{-1} X conj(X)^{-1} conj(G), G = g at pi
    x = -p.right.A.T + 1j * s[:, None, None] * p.right.B.T
    meet = np.linalg.solve(g[-1], x @ np.linalg.solve(x.conj(), g[-1].conj()))
    end = (np.angle(np.linalg.eigvals(meet)) % (2 * np.pi)).sum(axis=1)
    total = (_boundary_phases(p.left, s, False) + delta
             - _boundary_phases(p.right, s, True) + end)
    return total / (2 * np.pi), w


def _counts(p: Problem, lams, grid: Grid, tables, prange: tuple[float, float],
            roots=()) -> tuple[np.ndarray, np.ndarray]:
    """N(lambda), the number of eigenvalues below each of lams, with
    multiplicity, of the discrete problem whose W the scan evaluates, and W
    at lams and then at roots, (L + R, N, N), from the endpoints of the same
    fold.

    Along the RK4 path of the frame (Y, Y') from (B^T, -A^T), the map
    Theta(x) = G conj(G)^{-1}, G = Y' + i s Y, is unitary up to the
    symplectic defect of RK4, and lambda is an eigenvalue of multiplicity m
    iff Theta(pi) and Theta_R, the same map of the right boundary plane
    (cB^T, -cA^T), agree on an m-dimensional subspace. The matrix
    oscillation theorem then gives

        2 pi N = sum of phases of Theta(0) in [0, 2 pi) + Delta
                 - sum of phases of Theta_R in (0, 2 pi]
                 + sum of phases of Theta(pi)^{-1} Theta_R in [0, 2 pi),

    Delta the unwrapped change of arg det Theta = 2 arg det G from 0 to pi
    (:func:`_boundary_phases` fixes the side of exact boundary phases 0).
    With s^2 = max(|lambda - pmin|, |lambda - pmax|, 1), pmin and pmax of
    prange the extreme eigenvalues of P over the nodes, each channel's phase
    moves by at most s h per node, so det G may be sampled every k nodes,
    k the largest with N s k h <= 2.5 (_MAX_PHASE_STEP): arg det G then
    moves less than pi between samples and unwraps, and at k > 1 RK4 steps
    at a smaller s h than at k = 1 on the bound. One
    :func:`isospec.ode._fold` of all lams at span 2^min(3, floor(log2(k/2)))
    samples it every 2 span <= k nodes, and at k = 1 one
    :func:`isospec.ode._paths` at every node. The count
    is independent of s; lams must not be eigenvalues. The roots ride along
    in that fold as lanes whose endpoints alone are used.

    Raises WindowTooCoarse if N s h exceeds 2.5 at one of lams.
    """
    raw, w = _raw_counts(p, lams, grid, tables, prange, roots)
    return np.rint(raw).astype(int), w


# ---------------------------------------------------------------------------
# root location: Chebyshev interpolants of W and their colleague pencils

#: largest change of the size of W across one piece, a factor of 1e5: with the
#: series chopped at _CHOP_RTOL of its largest coefficient, W stays resolved to
#: about 1e-8 of its local size everywhere on the piece
_ENVELOPE_RANGE = 1e5
#: change of the growth exponent pi sqrt(pmin - lambda) across one piece below pmin
_ENVELOPE_STEP = np.log(_ENVELOPE_RANGE)
#: first sampling degree of a piece; doubling it reuses every earlier sample
_FIRST_DEGREE = 8
#: trailing Chebyshev coefficients below this fraction of the largest are chopped
_CHOP_RTOL = 1e-13
#: pencil dimension N d that caps the degree at max(_FIRST_DEGREE, _MAX_PENCIL // N);
#: bigger QZ solves cost more than the samples that splitting a piece takes
_MAX_PENCIL = 96
#: least half-width of the interval W is interpolated on, in units of
#: sqrt(max(|lambda - pmin|, 1)): the phase (or growth exponent)
#: pi sqrt(|lambda - pmin|) of W moves by about +/- 0.16 across it, so W varies
#: on the scale of its size there, far above the rounding of its evaluation
_MIN_HALF_WIDTH = 0.1
#: a pencil root x counts as real when |Im x| is at most this, and inside its
#: piece when it lies within this many half-widths of it
_ROOT_SLACK = 1e-6


def _envelope_pieces(pmin: float, lambda_min: float, lambda_max: float) -> np.ndarray:
    """Edges of the pieces that [lambda_min, lambda_max] is cut into a priori.

    Below pmin, the smallest eigenvalue of P over the grid nodes, every
    channel of W grows at most like exp(pi sqrt(pmin - lambda)). The cuts
    split that exponent into equal steps of at most _ENVELOPE_STEP, so each
    piece spans a bounded dynamic range of W and its interpolant resolves
    the small values near roots. Above pmin, W oscillates with slowly varying
    amplitude and is not cut.
    """
    e_lo, e_hi = (np.pi * np.sqrt(max(pmin - lam, 0.0)) for lam in (lambda_min, lambda_max))
    steps = int(np.ceil((e_lo - e_hi) / _ENVELOPE_STEP))
    cuts = pmin - (np.linspace(e_lo, e_hi, steps + 1)[1:-1] / np.pi) ** 2
    return np.concatenate([[lambda_min], cuts, [lambda_max]])


def _chebyshev_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients C_k of sum_k C_k T_k(x) interpolating values (d+1, N, N)
    taken at the Chebyshev points of the second kind x_j = cos(j pi / d): their
    DCT-I, the real FFT of the even extension [v_0 .. v_d, v_{d-1} .. v_1]."""
    d = values.shape[0] - 1
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / d
    c[[0, -1]] *= 0.5
    return c


def _chopped_degree(c: np.ndarray) -> int | None:
    """Degree of the series c after chopping, or None if it is not resolved.

    Coefficients below _CHOP_RTOL times the largest are negligible; the
    series is resolved when its last max(2, d/8) coefficients all are. An
    all-zero series, as from W that RK4 damps to 0 at large lambda h^2,
    resolves nothing.
    """
    d = c.shape[0] - 1
    norms = np.max(np.abs(c), axis=(1, 2))
    if not norms.any():
        return None
    big = np.flatnonzero(norms > _CHOP_RTOL * norms.max())
    top = int(big[-1]) if big.size else 0
    return max(top, 2) if top <= d - max(2, d // 8) else None


def _colleague_pencil(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block colleague pencil (A, B), each (dN, dN), of sum_k C_k T_k(x), d >= 2.

    With u_k = T_k(x) v, A - x B encodes x u_0 = u_1,
    x u_k = (u_{k+1} + u_{k-1}) / 2 for 0 < k < d-1, and, with C_d u_d
    eliminated by P(x) v = 0, 2 C_d x u_{d-1} = C_d u_{d-2} - sum_{k<d} C_k u_k."""
    d, n = c.shape[0] - 1, c.shape[1]
    a = np.zeros((d, n, d, n))
    b = np.zeros((d, n, d, n))
    k = np.arange(d)
    b[k, :, k, :] = np.eye(n)
    a[0, :, 1, :] = np.eye(n)
    a[k[1:-1], :, k[:-2], :] = 0.5 * np.eye(n)
    a[k[1:-1], :, k[2:], :] = 0.5 * np.eye(n)
    a[-1] = -c[:-1].transpose(1, 0, 2)
    a[-1, :, -2, :] += c[-1]
    b[-1, :, -1, :] = 2.0 * c[-1]
    return a.reshape(d * n, d * n), b.reshape(d * n, d * n)


def _colleague_roots(c: np.ndarray) -> np.ndarray:
    """Real roots of the matrix polynomial sum_k C_k T_k(x), d >= 2, ascending.

    The eigenvalues x of the colleague pencil (:func:`_colleague_pencil`) come
    by shift and invert: x = sigma + 1/mu for the eigenvalues mu of
    (A - sigma B)^{-1} B, mu = 0 standing for an infinite x. The shift sigma
    is the Chebyshev point x_j = cos(j pi / d) where P(x_j) has the largest
    smallest singular value, so A - sigma B is as well conditioned as the
    best sample of P. Finite roots within _ROOT_SLACK of the real axis count.
    """
    d = c.shape[0] - 1
    c = c / np.max(np.abs(c))
    k = np.arange(d + 1)
    values = np.tensordot(np.cos(np.pi / d * np.outer(k, k)), c, 1)     # P(x_j), (d+1, N, N)
    sigma = np.cos(np.pi / d * np.argmax(np.linalg.svd(values, compute_uv=False)[:, -1]))
    a, b = _colleague_pencil(c)
    mu = np.linalg.eigvals(np.linalg.solve(a - sigma * b, b))
    x = sigma + 1.0 / mu[mu != 0]
    x = x[np.isfinite(x)]
    return np.sort(x[np.abs(x.imag) <= _ROOT_SLACK].real)


def _piece_roots(p: Problem, lo: float, hi: float, pmin: float, grid: Grid,
                 tables) -> np.ndarray:
    """Estimates of the real roots of W on [lo, hi], ascending.

    W is interpolated on [lo, hi], widened about its midpoint mid to the
    half-width _MIN_HALF_WIDTH sqrt(max(|mid - pmin|, 1)) if it is narrower:
    on a narrower interval around a root, the variation of W sinks toward
    the rounding of its evaluation and no degree resolves it. W is sampled
    at Chebyshev points of the second kind, doubling the degree from
    _FIRST_DEGREE while it is below the largest pencil degree,
    max(_FIRST_DEGREE, _MAX_PENCIL // N). Once the chopped series is
    resolved within that degree and the largest samples of W on the two
    halves of the interval differ by at most _ENVELOPE_RANGE, its colleague
    pencil gives the roots. Otherwise [lo, hi] is bisected: the size of W
    can change fast where no a priori cut foresees it, as under the
    numerical damping of RK4 at large lambda h^2.

    Raises WindowTooCoarse if W is not resolved on an interval of the least
    half-width, where rounding dominates its samples: RK4 near its stability
    limit (lambda h^2 ~ 8), or W a small difference of large terms.
    """
    mid = 0.5 * (lo + hi)
    least = _MIN_HALF_WIDTH * np.sqrt(max(abs(mid - pmin), 1.0))
    half = max(0.5 * (hi - lo), least)
    top = max(_FIRST_DEGREE, _MAX_PENCIL // p.n)
    d = _FIRST_DEGREE
    w = _char_batch(p, mid + half * np.cos(np.pi * np.arange(d + 1) / d), grid, tables)
    while True:
        c = _chebyshev_coeffs(w)
        chop = _chopped_degree(c)
        resolved = chop is not None and chop <= top
        if resolved or d >= top:
            break
        odd = _char_batch(p, mid + half * np.cos(np.pi * np.arange(1, 2 * d, 2) / (2 * d)),
                          grid, tables)
        both = np.empty((2 * d + 1,) + w.shape[1:])
        both[0::2], both[1::2] = w, odd
        w, d = both, 2 * d
    size = np.max(np.abs(w), axis=(1, 2))        # samples run from x = 1 to x = -1
    upper, lower = size[:d // 2 + 1].max(), size[d // 2:].max()
    even = max(upper, lower) <= _ENVELOPE_RANGE * min(upper, lower)
    if resolved and (even or half == least):
        lams = mid + half * _colleague_roots(c[:chop + 1])
        slack = _ROOT_SLACK * half
        return lams[(lams >= lo - slack) & (lams <= hi + slack)]
    if half == least:
        raise WindowTooCoarse(
            f"W is not resolved at degree {d} on [{mid - half:.9g}, {mid + half:.9g}]: "
            f"rounding dominates it there; refine the grid or move the window")
    return np.concatenate([_piece_roots(p, lo, mid, pmin, grid, tables),
                           _piece_roots(p, mid, hi, pmin, grid, tables)])


# ---------------------------------------------------------------------------
# refinement

#: Newton passes a start gets before it is dropped
_NEWTON_PASSES = 8
#: a start converges once its Newton step is at most this, or at most
#: 64 eps |lambda| where rounding keeps W from a smaller one (|lambda| > 7.0e3)
_NEWTON_TOL = 1e-10
#: roots closer than this times (1 + |lambda|) are one root, which stands for
#: every eigenvalue that close to it
_MERGE_RTOL = 1e-8
#: the difference quotient of W counts as singular below this relative smallest singular value
_SINGULAR_RTOL = 1e-13


def _newton_steps(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The eigenvalue mu of smallest modulus of W v = mu W' v for each
    (W, W') of the batch: the Newton step on W, complex in general."""
    mus = np.linalg.eigvals(np.linalg.solve(dw, w))
    return mus[np.arange(mus.shape[0]), np.argmin(np.abs(mus), axis=1)]


def _central_steps(w: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """:func:`_newton_steps` at W = w with W' taken as the difference quotient
    D = (W(hi) - W(lo)) / (hi - lo), lo < lambda < hi; NaN where D is
    singular (relative smallest singular value below _SINGULAR_RTOL).

    With hi - lambda = lambda - lo = delta = 1e-8 (1 + |lambda|), D is the
    central difference, within delta^2 / 6 times the third derivative of W of W'.
    """
    mu = np.full(w.shape[0], np.nan, dtype=complex)
    if w.shape[0]:
        d = (w_hi - w_lo) / (hi - lo)[:, None, None]
        s = np.linalg.svd(d, compute_uv=False)
        regular = s[:, -1] > _SINGULAR_RTOL * s[:, 0]
        if regular.any():
            mu[regular] = _newton_steps(w[regular], d[regular])
    return mu


def _newton_tol(lams: np.ndarray) -> np.ndarray:
    """max(_NEWTON_TOL, 64 eps |lambda|): a Newton step at most this is converged."""
    return np.maximum(_NEWTON_TOL, 64 * np.spacing(1.0) * np.abs(lams))


def _newton_refine(p: Problem, starts: np.ndarray, radius: np.ndarray, grid: Grid, tables,
                   passes: int | None = None):
    """Batched Newton iteration on W(lambda) from starts, each within its radius.

    Each pass evaluates W at lam - delta, lam and lam + delta,
    delta = _MERGE_RTOL (1 + |lam|), in one :func:`_char_batch` and solves
    W(lam) v = mu D v for mu the eigenvalue of smallest modulus, D the
    central difference of W (:func:`_central_steps`). Near an eigenvalue
    lam_k of multiplicity m, W(lam) ~ (lam - lam_k) W'(lam) on the
    m-dimensional null space, so mu ~ lam - lam_k and convergence is
    quadratic even at semi-simple multiple eigenvalues. A start converges at
    the first iterate whose own step |mu| is at most max(_NEWTON_TOL,
    64 eps |lam|), a floor set by the rounding of W, and is not stepped
    further; the others step lam <- lam - Re mu. A start fails when its
    iterate moves farther than its radius from the start, D is singular
    there, or it has not converged within the passes, _NEWTON_PASSES unless given.

    Returns the iterates, |mu| at each converged one (inf elsewhere), a mask
    of the starts still stepping after the passes, one of those that
    converged, and W at each converged iterate from the pass in which it
    converged, (L, N, N), NaN elsewhere.
    """
    lam = np.array(starts, dtype=float)
    residual = np.full(lam.size, np.inf)
    w_done = np.full((lam.size, p.n, p.n), np.nan)
    active = np.ones(lam.size, dtype=bool)
    for _ in range(_NEWTON_PASSES if passes is None else passes):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        at = lam[idx]
        delta = _MERGE_RTOL * (1.0 + np.abs(at))
        lo, hi = at - delta, at + delta
        w = _char_batch(p, np.concatenate([lo, at, hi]), grid, tables)
        w = w.reshape(3, idx.size, p.n, p.n)
        mu = _central_steps(w[1], w[0], w[2], lo, hi)
        done = np.abs(mu) <= _newton_tol(at)
        residual[idx[done]], w_done[idx[done]] = np.abs(mu[done]), w[1][done]
        go = np.isfinite(mu) & ~done
        active[idx[~go]] = False
        idx, step = idx[go], at[go] - mu[go].real
        inside = np.abs(step - starts[idx]) <= radius[idx]
        active[idx[~inside]] = False
        lam[idx[inside]] = step[inside]
    return lam, residual, active, np.isfinite(residual), w_done


# ---------------------------------------------------------------------------
# eigenspace basis

def _canonical_signs(thetas: np.ndarray) -> np.ndarray:
    """-1 or +1 for each column of each (N, m) matrix, (..., 1, m): the sign of
    its largest-magnitude entry (the first on ties), which the column times
    its sign makes positive; null vectors of W have no sign."""
    lead = np.take_along_axis(thetas, np.argmax(np.abs(thetas), axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0, -1.0, 1.0)


def _eigenpairs(p: Problem, lams: np.ndarray, mult: np.ndarray, residuals: np.ndarray,
                w: np.ndarray, grid: Grid, tables, bases=None) -> list[Eigenpair | Eigenvalue]:
    """Eigenpairs at the positions bases (all if None), Eigenvalues elsewhere,
    of the certified eigenvalues lams of multiplicities mult, with the Newton
    residuals |mu| and W(lams), (L, N, N), that certified them.

    A root of multiplicity m folds only the path of Y V from z0 V, z0 =
    (B^T, -A^T) and V the b = min(N, max(m, 2)) right singular vectors of W
    with the smallest singular values, most-null first: its null directions,
    and for a simple root one more, since numpy sends a single column
    through BLAS gemv, which rounds differently from gemm. The roots of each
    width b go in one :func:`isospec.ode._paths`, so a root's eigenpair
    depends on its lambda, m and W alone, not on the other roots built. With
    V_m the first m columns of V, the matrix int_0^pi (Y V_m)^T (Y V_m) dx is
    diagonalized by an orthogonal U, and theta_l are the columns of V_m U
    signed by :func:`_canonical_signs`, S: the eigenfunctions Y theta_l, the
    columns of (Y V_m) U S, are mutually L2-orthogonal.
    """
    n = p.n
    pairs = list(map(Eigenvalue, lams.tolist(), mult.tolist(), residuals.tolist()))
    built = (np.arange(lams.size) if bases is None
             else np.array(sorted({k for k in bases if 0 <= k < lams.size}), dtype=int))
    width = np.minimum(n, np.maximum(mult, 2))
    z0 = _initial_state(p.left.B.T, -p.left.A.T)
    for b in np.unique(width[built]):
        g = built[width[built] == b]
        g = g[np.argsort(mult[g], kind="stable")]     # each multiplicity's lanes in one run
        vt = np.linalg.svd(w[g])[2][:, ::-1]         # rows most-null first
        v = np.ascontiguousarray(vt[:, :b].swapaxes(1, 2))           # (G, N, b)
        z = _paths(tables, lams[g], z0 @ v)                          # (G, n, 2N, b)
        for m in np.unique(mult[g]):
            k = np.flatnonzero(mult[g] == m)
            run = slice(k[0], k[-1] + 1)
            y = z[run, :, :n, :m]
            d, u = np.linalg.eigh(integral(np.einsum("kqni,kqnj->qkij", y, y), grid.h))
            thetas = v[run, :, :m] @ u
            sign = _canonical_signs(thetas)
            thetas *= sign
            rot = u * sign
            # each root's eigenfunctions are copied on their own: a block the
            # size of a batch is mmapped and faults its pages on every scan
            for r, (j, path) in enumerate(zip(g[run], z[run])):
                zt = (path.reshape(-1, b)[:, :m] @ rot[r]).reshape(-1, 2 * n, m)
                pairs[j] = Eigenpair(float(lams[j]), int(m), thetas[r], zt[:, :n].copy(),
                                     zt[:, n:].copy(), np.maximum(d[r], 0.0),
                                     float(residuals[j]), grid)
    return pairs


def eigenbasis(p: Problem, lam_k: float, grid: Grid) -> Eigenpair:
    """:func:`_certify` of the one start lam_k on [lam_k - delta, lam_k + delta], after
    :func:`_check_scan`; delta = _MERGE_RTOL (1 + |lam_k|): its eigenpair, or NotAnEigenvalue."""
    delta = _MERGE_RTOL * (1.0 + abs(lam_k))
    _check_scan(p, lam_k - delta, lam_k + delta, grid)
    pairs = _certify(p, np.array([lam_k], dtype=float), lam_k - delta, lam_k + delta, grid,
                     potential_tables(p.potential, grid), _potential_range(p, grid))
    if not pairs:
        raise NotAnEigenvalue(f"no eigenvalue is certified within {delta:.3g} of {lam_k}")
    return pairs[0]


# ---------------------------------------------------------------------------
# spectrum scan

def _check_scan(p: Problem, lambda_min: float, lambda_max: float, grid: Grid) -> None:
    """The input checks of every scan and of :func:`eigenbasis`, in the order
    of :func:`scan_spectrum`'s Raises: grid and window, then boundary pairs."""
    if grid.n < 5 or grid.n % 2 == 0:
        raise ValueError("--grid must be odd and >= 5 (Simpson alignment)")
    if not (np.isfinite(lambda_min) and np.isfinite(lambda_max) and lambda_min < lambda_max):
        raise ValueError("lambda window must be finite with lambda_min < lambda_max (--min < --max)")
    for c in boundary_checks(p):
        if not c.passed:
            raise ConditionViolated(f"{c.name} fails: defect={c.defect:.3e} (threshold "
                                    f"{c.threshold:.3e}); the scan needs it, see isospec validate")


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask keeping each sorted value that lies more than _MERGE_RTOL (1 + |value|)
    above the last value kept."""
    keep = np.zeros(values.size, dtype=bool)
    last = -np.inf
    for k, v in enumerate(values):
        if v - last > _MERGE_RTOL * (1.0 + abs(v)):
            keep[k], last = True, v
    return keep


def _ascending_runs(idx: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """idx sorted by lam[idx], keeping the first of each run (:func:`_first_of_runs`)."""
    idx = idx[np.argsort(lam[idx], kind="stable")]
    return idx[_first_of_runs(lam[idx])]


def _probes(roots: np.ndarray, lambda_min: float, lambda_max: float) -> np.ndarray:
    """The count's probes for ascending roots: lambda_min, then the ends of
    each root's window, root -/+ delta cut at the midpoints to its
    neighbours, then lambda_max. The rises of N between them alternate
    between gaps (even) and root windows (odd)."""
    mids = np.concatenate([[lambda_min], 0.5 * (roots[:-1] + roots[1:]), [lambda_max]])
    delta = _MERGE_RTOL * (1.0 + np.abs(roots))
    ends = np.stack([np.maximum(roots - delta, mids[:-1]), np.minimum(roots + delta, mids[1:])])
    return np.concatenate([[lambda_min], ends.T.ravel(), [lambda_max]])


def _certify(p: Problem, starts: np.ndarray, lambda_min: float, lambda_max: float, grid: Grid,
             tables, prange: tuple[float, float], bases=None,
             warm: bool = False) -> list[Eigenpair | Eigenvalue]:
    """The eigenvalues in [lambda_min, lambda_max] from ascending root estimates.

    Estimates closer than the merge tolerance delta = 1e-8 (1 + |lambda|)
    are one start. The starts in the window are the roots, and one count of
    N decides them (:func:`_counts`): at the window edges and at both ends
    of each root's window, root +/- delta cut at the midpoints to its
    neighbours (:func:`_probes`). The roots ride in the count's fold by
    their endpoints, so the fold also gives W at each root and at its window
    ends: the Newton step mu of :func:`_central_steps`. A root is converged
    when |mu| <= max(1e-10, 64 eps |lambda|), and |mu|, about its distance
    to the eigenvalue of the discrete problem, is its residual.

    Newton's method (:func:`_newton_refine`) runs only on the starts that
    the count did not confirm and on those outside the window, each within
    half the gap to the nearest other start plus delta. A start where it
    does not converge is dropped, and its window falls to the check of the
    surrounding gap. A count depends on lambda alone, so a second count
    takes only the probes that changed; converged roots in the window are
    merged within delta. A root's multiplicity is the rise of N across its
    window (0 rejects it, above N raises WindowTooCoarse), and N must not
    rise between windows (WindowTooCoarse). Each accepted root keeps the W
    that certified it, from its count lane or from the Newton pass in which
    it converged. The roots at the positions bases (all if None) are
    Eigenpairs: their null directions, from one SVD of that W, are folded
    along x once (:func:`_eigenpairs`). The others are Eigenvalues.

    Warm starts (the rescan: another problem's eigenvalues) take one Newton
    step before the count.
    """
    starts = starts[_first_of_runs(starts)]
    # a lone start may move across the whole window
    far = 2.0 * (lambda_max - lambda_min)
    gaps = np.diff(starts, prepend=starts[:1] - far, append=starts[-1:] + far)
    radius = 0.5 * np.minimum(gaps[:-1], gaps[1:]) + _MERGE_RTOL * (1.0 + np.abs(starts))
    lam, alive = starts, np.ones(starts.size, dtype=bool)
    if warm:
        lam, _, stepping, converged, _ = _newton_refine(p, starts, radius, grid, tables, passes=1)
        alive = stepping | converged
    inside = alive & (lam >= lambda_min) & (lam <= lambda_max)
    roots = _ascending_runs(np.flatnonzero(inside), lam)      # indices of starts, ascending
    probes = _probes(lam[roots], lambda_min, lambda_max)
    counts, w = _counts(p, probes, grid, tables, prange, lam[roots])
    w, w_roots = w[:probes.size], w[probes.size:]
    mu = _central_steps(w_roots, w[1:-1:2], w[2:-1:2], probes[1:-1:2], probes[2:-1:2])
    confirmed = np.abs(mu) <= _newton_tol(lam[roots])
    residual = np.full(starts.size, np.inf)
    residual[roots[confirmed]] = np.abs(mu[confirmed])
    w_at = np.empty((starts.size, p.n, p.n))         # W at each accepted start's lambda
    w_at[roots] = w_roots
    retry = np.concatenate([roots[~confirmed], np.flatnonzero(alive & ~inside)])
    if retry.size:
        refined, steps, _, converged, w_new = _newton_refine(p, starts[retry], radius[retry],
                                                             grid, tables)
        ok = converged & (refined >= lambda_min) & (refined <= lambda_max)
        lam = lam.copy()
        lam[retry[ok]], residual[retry[ok]], w_at[retry[ok]] = refined[ok], steps[ok], w_new[ok]
        roots = _ascending_runs(np.concatenate([roots[confirmed], retry[ok]]), lam)
        # a count depends on lambda alone: count only the probes that changed
        changed = _probes(lam[roots], lambda_min, lambda_max)
        fresh = ~np.isin(changed, probes)
        recount = np.empty(changed.size, dtype=int)
        recount[~fresh] = counts[np.searchsorted(probes, changed[~fresh])]
        if fresh.any():
            recount[fresh] = _counts(p, changed[fresh], grid, tables, prange)[0]
        counts, probes = recount, changed
    rise = np.diff(counts)
    missed = 2 * np.flatnonzero(rise[0::2])
    if missed.size:
        k = missed[0]
        raise WindowTooCoarse(f"the eigenvalue count predicts {rise[k]} eigenvalues in "
                              f"[{probes[k]:.9g}, {probes[k + 1]:.9g}] but the scan found 0 there")
    mult = rise[1::2]
    crowded = np.flatnonzero(mult > p.n)
    if crowded.size:
        k = 2 * crowded[0] + 1
        raise WindowTooCoarse(f"the eigenvalue count predicts {rise[k]} eigenvalues in "
                              f"[{probes[k]:.9g}, {probes[k + 1]:.9g}], more than the N = {p.n} "
                              f"one root can stand for")
    keep, mult = roots[mult > 0], mult[mult > 0]
    return _eigenpairs(p, lam[keep], mult, residual[keep], w_at[keep], grid, tables, bases)


def scan_spectrum(p: Problem, lambda_min: float, lambda_max: float,
                  grid: Grid = DEFAULT_GRID, bases=None) -> SpectrumReport:
    """All eigenvalues in [lambda_min, lambda_max], with multiplicities, on grid:
    Eigenpairs at the positions k in bases (all if None), Eigenvalues elsewhere.

    One path: starts, then one refine-and-certify step. The window is cut
    into pieces of bounded dynamic range of W (:func:`_envelope_pieces`);
    when it is cut, the eigenvalue count N of :func:`_counts` at the cuts
    picks the pieces that hold eigenvalues. The colleague pencil of a chopped
    Chebyshev interpolant of W on each such piece gives root estimates
    (:func:`_piece_roots`), the starts of :func:`_certify`.

    Raises
    ------
    ValueError
        If the grid's node count is not odd and >= 5 (Simpson alignment),
        or the window is not finite with lambda_min < lambda_max.
    ConditionViolated
        If a boundary pair fails B A^T = A B^T or rank [A, B] = N
        (:func:`isospec.model.boundary_checks`), before anything is scanned.
    WindowTooCoarse
        If N rises between root windows (an eigenvalue that no root lies
        within delta of; the message names the gap) or by more than N across
        one root's window (eigenvalues closer than delta), N s h exceeds the
        limit of the count at a counted lambda (:func:`_counts`), or W is
        not resolved on a piece of the least width (:func:`_piece_roots`).
    NonFiniteState
        If W or the path of the count overflows at some lambda.
    """
    return _scan(p, lambda_min, lambda_max, grid, None, bases)


def rescan_spectrum(q: Problem, first: SpectrumReport) -> SpectrumReport:
    """q's eigenvalues in first.window on first.grid, by Newton from first's and
    certified by :func:`_certify`'s count, with no pencil or eigenspaces; unless that
    certifies first's multiplicities, ``scan_spectrum(q, *first.window, first.grid, ())``."""
    return _scan(q, *first.window, first.grid, first, ())


def _scan(p: Problem, lambda_min: float, lambda_max: float, grid: Grid,
          first: SpectrumReport | None, bases) -> SpectrumReport:
    """:func:`scan_spectrum` of p, or with a first report :func:`rescan_spectrum`."""
    _check_scan(p, lambda_min, lambda_max, grid)
    tables = potential_tables(p.potential, grid)
    prange = _potential_range(p, grid)
    window = (float(lambda_min), float(lambda_max))
    if first is not None:
        starts = np.array([e.lam for e in first.pairs], dtype=float)
        try:                    # else the cold scan below gives p's report or error
            found = _certify(p, starts, *window, grid, tables, prange, bases, warm=True)
            if [e.multiplicity for e in found] == [e.multiplicity for e in first.pairs]:
                return SpectrumReport(p, grid, window, tuple(found))
        except (WindowTooCoarse, NonFiniteState):
            pass
    edges = _envelope_pieces(prange[0], lambda_min, lambda_max)
    pieces = list(zip(edges[:-1], edges[1:]))
    if len(pieces) > 1:
        # a piece across which N does not rise holds no root
        rise = np.diff(_counts(p, edges, grid, tables, prange)[0])
        pieces = [piece for piece, r in zip(pieces, rise) if r > 0]
    starts = np.sort(np.concatenate([np.empty(0)] + [_piece_roots(p, lo, hi, prange[0], grid, tables)
                                                     for lo, hi in pieces]))
    return SpectrumReport(p, grid, window,
                          tuple(_certify(p, starts, *window, grid, tables, prange, bases)))
