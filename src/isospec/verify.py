"""Independent numerical verification of the transform's structural identities.

Everything here re-derives quantities by a route different from the one that
produced them: spectra are re-scanned, the kernel PDE residual differences
the factors of the degenerate representation to fourth order, and the
non-commutativity diagnostic certifies that a matrix potential is not
simultaneously diagonalizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall
from .model import Grid, MatrixPotential, Problem
from .quadrature import running_integral
from .spectrum import ScanOptions, SpectrumReport, scan_spectrum
from .transform import KernelField, Perturbation

#: a residual below this is at the rounding level of the O(1) quantities the
#: identities compare, and where it peaks is noise: verify.json writes no location
LOCATION_FLOOR = 1e-12


@dataclass(frozen=True)
class IsospectralReport:
    """Positional comparison of two eigenvalue sequences."""

    window: tuple[float, float]
    pairs_a: tuple[tuple[float, int], ...]
    pairs_b: tuple[tuple[float, int], ...]
    max_shift: float
    multiplicity_match: bool
    tolerance: float

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def passed(self) -> bool:
        return self.multiplicity_match and self.max_shift <= self.tolerance

    def to_json_obj(self):
        return {
            "window": list(self.window),
            "pairsA": [[l, m] for l, m in self.pairs_a],
            "pairsB": [[l, m] for l, m in self.pairs_b],
            # counts that differ give an infinite shift, which JSON cannot hold
            "maxShift": self.max_shift if np.isfinite(self.max_shift) else None,
            "multiplicityMatch": self.multiplicity_match,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residual of one identity over the grid, and the x where it
    peaks; the JSON form writes that location as null for a residual below
    LOCATION_FLOOR."""

    name: str
    max_residual: float
    location: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json_obj(self):
        return {
            "name": self.name,
            "maxResidual": self.max_residual,
            "location": self.location if self.max_residual >= LOCATION_FLOOR else None,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_isospectral(p_a: Problem, p_b: Problem, window: tuple[float, float],
                      tol: float, opts: ScanOptions = ScanOptions()) -> IsospectralReport:
    """Scan both problems over the window and compare their eigenvalue sequences.

    Matching is positional in the multiplicity-expanded sequences (the claim
    being verified is equality of the full sequences, not nearest-neighbor
    closeness). The verdict passes iff the (lambda, multiplicity) structure
    agrees pairwise and the largest positional shift is within tol.
    """
    if p_a.n != p_b.n:
        raise ValueError("problems have different dimensions")
    lo, hi = window
    ra = scan_spectrum(p_a, lo, hi, opts)
    rb = scan_spectrum(p_b, lo, hi, opts)
    return compare_spectra(ra, rb, tol)


def compare_spectra(ra: SpectrumReport, rb: SpectrumReport, tol: float) -> IsospectralReport:
    """Positional comparison of two already-computed reports; tol must be positive and finite."""
    if not 0 < tol < np.inf:
        raise ValueError("shift tolerance must be positive and finite (--shift-tol)")
    pa = tuple((p.lam, p.multiplicity) for p in ra.pairs)
    pb = tuple((p.lam, p.multiplicity) for p in rb.pairs)
    sa, sb = ra.sigma_sequence, rb.sigma_sequence
    if sa.size != sb.size:
        return IsospectralReport(ra.window, pa, pb, float("inf"), False, tol)
    shift = float(np.max(np.abs(sa - sb))) if sa.size else 0.0
    mult_match = len(pa) == len(pb) and all(ma == mb for (_, ma), (_, mb) in zip(pa, pb))
    return IsospectralReport(ra.window, pa, pb, shift, mult_match, tol)


def _peak(res: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Largest |res| and the node x[q] where it first occurs along axis 0.

    A residual that is identically zero (or has no entries) reports node 0.
    """
    mag = np.abs(res).max(axis=tuple(range(1, res.ndim)), initial=0.0)
    q = int(np.argmax(mag))
    return (float(mag[q]), float(x[q])) if mag[q] > 0 else (0.0, 0.0)


def _second_difference4(v: np.ndarray, h: float) -> np.ndarray:
    """Five-point fourth-order second difference along axis 0 at nodes 2..n-3."""
    return (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h**2)


def residual_wave_equation(kernel: KernelField, base: MatrixPotential,
                           q: MatrixPotential, tolerance: float = 5e-4) -> ResidualReport:
    """Residual of K_xx - Q(x) K = K_yy - K P(y) below the diagonal.

    On y <= x, K(x_i, y_j) = A_i Phi_j^T, so with P = P^T the residual at
    (x_i, y_j) is X_i Z_j^T, X = [A'' - Q A, -A] and Z = [Phi, Phi'' - P Phi].
    The factors are smooth in one variable each; their second derivatives
    take the five-point fourth-order stencil. The max runs over the node
    pairs j = 2..i-2, whose stencils in x and y stay on y <= x (the kink
    along y = x enters none), one (i - 3) N x 2M by 2M x N product per x row.
    The rows next to the ends (y node 1, x node n-2) have no centered
    five-point stencil and are not checked. Raises GridTooSmall below 7
    nodes, where no node pair is left.
    """
    grid = kernel.grid
    n = grid.n
    if n < 7:
        raise GridTooSmall("wave-equation residual needs at least 7 nodes")
    a, phi = kernel.a[2:-2], kernel.phi[2:-2]      # nodes 2..n-3
    qs = q.evaluate_many(grid.nodes[2:-2])
    ps = base.evaluate_many(grid.nodes[2:-2])
    x_fac = np.concatenate([_second_difference4(kernel.a, grid.h) - qs @ a, -a], axis=2)
    z_fac = np.concatenate([phi, _second_difference4(kernel.phi, grid.h) - ps @ phi], axis=2)
    n_dim = phi.shape[1]
    z_rows = z_fac.reshape((n - 4) * n_dim, 2 * kernel.rank)   # row j N + b holds Z_{j+2}[b]
    # x node i = 4..n-3 meets y nodes j = 2..i-2, the first (i-3) N rows of z_rows
    res = np.array([np.max(np.abs(z_rows[:(i - 3) * n_dim] @ x_fac[i - 2].T))
                    for i in range(4, n - 2)])
    return ResidualReport("wave-eq", *_peak(res, grid.nodes[4:n - 2]), tolerance)


def residual_goursat(kernel: KernelField, p: Problem,
                     tolerance: float = 1e-6) -> list[ResidualReport]:
    """Boundary and diagonal identities pinning the kernel down.

    goursat: K(x,0) A^T + (dK/dy)|_{y=0} B^T = 0 at every node, with the y
    derivative taken from the representation (A(x) Phi'^T(0)).
    trace:   K(x,x) = 1/2 int_0^x [Q - P] dt - F(0,0), where F(0,0) =
             B^T (sum_j c_j theta_j theta_j^T) B and Q - P = 2 d/dx K(x,x).
    """
    grid = kernel.grid
    k_x0 = np.einsum("qnm,bm->qnb", kernel.a, kernel.phi[0])
    dk_y0 = np.einsum("qnm,bm->qnb", kernel.a, kernel.dphi[0])
    g_res = k_x0 @ p.left.A.T + dk_y0 @ p.left.B.T

    f00 = p.left.B.T @ (kernel.thetas * kernel.coeffs[None, :]) @ kernel.thetas.T @ p.left.B
    dq = 2.0 * kernel.diagonal_derivative()
    half_int = 0.5 * running_integral(dq, grid.h)
    t_res = kernel.diagonal() - half_int + f00
    return [ResidualReport("goursat", *_peak(g_res, grid.nodes), tolerance),
            ResidualReport("trace", *_peak(t_res, grid.nodes), tolerance)]


def residual_transformed_eigen(p_new: Problem, lam: float, psi: np.ndarray,
                               dpsi: np.ndarray, tolerance: float = 1e-3,
                               boundary_tolerance: float = 1e-8) -> list[ResidualReport]:
    """Residuals of -psi'' + Q psi = lam psi and of both boundary conditions.

    psi and dpsi are (n, N) samples on the uniform n-node grid.
    eigen-ode: the ODE residual, psi'' by the five-point fourth-order stencil
               at nodes 2..n-3. The default tolerance leaves wide headroom
               over its O(h^4) truncation at the default 401-node grid.
    eigen-bc:  the boundary residuals B psi'(0) + Atilde psi(0) and
               cB psi'(pi) + cAtilde psi(pi), from the analytic derivative
               samples, against boundary_tolerance.
    Raises GridTooSmall below 7 nodes, as residual_wave_equation does.
    """
    if psi.shape[0] < 7:
        raise GridTooSmall("eigen-ode residual needs at least 7 nodes")
    grid = Grid.uniform(psi.shape[0])
    qs = p_new.potential.evaluate_many(grid.nodes[2:-2])
    res = (-_second_difference4(psi, grid.h) + np.einsum("qab,qb->qa", qs, psi[2:-2])
           - lam * psi[2:-2])
    ends = np.stack([p_new.left.B @ dpsi[0] + p_new.left.A @ psi[0],
                     p_new.right.B @ dpsi[-1] + p_new.right.A @ psi[-1]])
    return [ResidualReport("eigen-ode", *_peak(res, grid.nodes[2:-2]), tolerance),
            ResidualReport("eigen-bc", *_peak(ends, grid.nodes[[0, -1]]), boundary_tolerance)]


def residual_endpoint(kernel: KernelField, pert: Perturbation, psi: np.ndarray,
                      tolerance: float = 1e-8) -> ResidualReport:
    """Endpoint identity psi_l(pi) (1 + c_l ||phi_l||^2) = phi_l(pi), relative,
    for the (n, N, M) stack psi of transformed selections."""
    lhs = psi[-1] * (1.0 + pert.coeffs * pert.norms_sq)
    scale = np.maximum(1.0, np.abs(kernel.phi).max(axis=(0, 1)))
    worst = np.max(np.abs(lhs - kernel.phi[-1]), axis=0) / scale
    return ResidualReport("endpoint", float(worst.max(initial=0.0)), float(np.pi), tolerance)


def residual_representation(kernel: KernelField, psi: np.ndarray,
                            tolerance: float = 1e-9) -> ResidualReport:
    """Representation identity a_j(x) = -c_j psi_j(x), entrywise, for the
    (n, N, M) stack psi of transformed selections."""
    diff = kernel.a + kernel.coeffs * psi
    return ResidualReport("representation", *_peak(diff, kernel.grid.nodes), tolerance)


def commutator_diagnostic(q: MatrixPotential, grid: Grid) -> tuple[float, float]:
    """Certificate that Q(x) is not simultaneously diagonalizable.

    Returns the max over nodes of the spectral norm of Q(x) Q'(x) - Q'(x) Q(x)
    (Q' by second-order differencing, one-sided at the ends) and its argmax.
    A strictly positive value rules out Q(x) = R D(x) R^T with constant
    orthogonal R; the spectral norm keeps the value invariant under such
    conjugations.
    """
    if grid.n < 5:
        raise GridTooSmall("commutator diagnostic needs at least 5 nodes")
    h = grid.h
    qs = q.evaluate_many(grid.nodes)
    dq = np.empty_like(qs)
    dq[1:-1] = (qs[2:] - qs[:-2]) / (2 * h)
    dq[0] = (-3 * qs[0] + 4 * qs[1] - qs[2]) / (2 * h)
    dq[-1] = (3 * qs[-1] - 4 * qs[-2] + qs[-3]) / (2 * h)
    comm = qs @ dq - dq @ qs
    norms = np.linalg.norm(comm, ord=2, axis=(1, 2))
    i = int(np.argmax(norms))
    return float(norms[i]), float(grid.nodes[i])
