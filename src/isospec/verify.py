"""Independent numerical verification of the transform's structural identities.

Everything here re-derives quantities by a route different from the one that
produced them: spectra are re-scanned, the kernel PDE residual differences
the factors of the degenerate representation to fourth order, and the
non-commutativity diagnostic certifies that a matrix potential is not
simultaneously diagonalizable. pipeline_residuals runs the whole suite on
one solved transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated, GridTooSmall, NonFiniteState
from .model import Grid, MatrixPotential, Problem
from .quadrature import running_integral
from .spectrum import DEFAULT_GRID, SpectrumReport, scan_spectrum
from .transform import KernelField, transform_eigenfunction

#: a residual below this is at the rounding level of the O(1) quantities the
#: identities compare, and where it peaks is noise: verify.json writes no location
LOCATION_FLOOR = 1e-12
_WAVE_BYTES = 1 << 18      # bytes of one x-row block's products in the wave residual


@dataclass(frozen=True)
class IsospectralReport:
    """Positional comparison of two eigenvalue sequences."""

    window: tuple[float, float]
    pairs_a: tuple[tuple[float, int], ...]
    pairs_b: tuple[tuple[float, int], ...]
    max_shift: float
    multiplicity_match: bool
    tolerance: float
    resolution: float = 0.0   # largest sum of the two Newton residuals of a pair

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def passed(self) -> bool:
        return self.multiplicity_match and max(self.max_shift, self.resolution) <= self.tolerance

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


def check_shift_tol(tol: float) -> None:
    """Raise ValueError unless the shift tolerance tol is positive and finite."""
    if not 0 < tol < np.inf:
        raise ValueError("shift tolerance must be positive and finite (--shift-tol)")


def check_isospectral(p_a: Problem, p_b: Problem, window: tuple[float, float],
                      tol: float, grid: Grid = DEFAULT_GRID) -> IsospectralReport:
    """Scan both problems over the window on grid and compare their eigenvalue sequences.

    Matching is positional in the multiplicity-expanded sequences (the claim
    being verified is equality of the full sequences, not nearest-neighbor
    closeness). The verdict passes iff the (lambda, multiplicity) structure
    agrees pairwise and the largest positional shift is within tol.
    """
    check_shift_tol(tol)
    if p_a.n != p_b.n:
        raise ValueError("problems have different dimensions")
    ra = scan_spectrum(p_a, *window, grid)
    rb = scan_spectrum(p_b, *window, grid)
    return compare_spectra(ra, rb, tol)


def compare_spectra(ra: SpectrumReport, rb: SpectrumReport, tol: float) -> IsospectralReport:
    """Positional comparison of two already-computed reports; tol must be positive and finite.

    A shift below Newton's stopping step max(1e-10, 64 eps |lambda|) is not
    resolved: a rescan from ra returns ra's value for an eigenvalue that close.
    So the verdict counts each shift as at least the sum of the two residuals.
    """
    check_shift_tol(tol)
    pa = tuple((p.lam, p.multiplicity) for p in ra.pairs)
    pb = tuple((p.lam, p.multiplicity) for p in rb.pairs)
    sa, sb = ra.sigma_sequence, rb.sigma_sequence
    if sa.size != sb.size:
        return IsospectralReport(ra.window, pa, pb, float("inf"), False, tol)
    shift = float(np.max(np.abs(sa - sb))) if sa.size else 0.0
    resolution = max((a.residual + b.residual for a, b in zip(ra.pairs, rb.pairs)), default=0.0)
    mult_match = len(pa) == len(pb) and all(ma == mb for (_, ma), (_, mb) in zip(pa, pb))
    return IsospectralReport(ra.window, pa, pb, shift, mult_match, tol, resolution)


def _peak_report(name: str, res: np.ndarray, x: np.ndarray, tolerance: float) -> ResidualReport:
    """Report of the largest |res| and the node x[q] where it first occurs
    along axis 0; an identically zero residual (or none) reports node 0.
    Raises NonFiniteState, naming the identity, if res holds a NaN or an
    infinity: a residual that is not finite must not pass.
    """
    mag = np.abs(res).max(axis=tuple(range(1, res.ndim)), initial=0.0)
    q = int(np.argmax(mag))
    if not np.isfinite(mag[q]):
        raise NonFiniteState(f"the {name} residual is not finite at x = {x[q]:.9g}")
    return ResidualReport(name, float(mag[q]), float(x[q]) if mag[q] > 0 else 0.0, tolerance)


def _second_difference4(v: np.ndarray, h: float) -> np.ndarray:
    """Five-point fourth-order second difference along axis 0 at nodes 2..n-3."""
    return (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h**2)


@np.errstate(invalid="ignore")   # inf * 0 makes a NaN that _peak_report raises on
def residual_wave_equation(kernel: KernelField, base: MatrixPotential,
                           q: MatrixPotential, tolerance: float = 5e-4) -> ResidualReport:
    """Residual of K_xx - Q(x) K = K_yy - K P(y) below the diagonal.

    On y <= x, K(x_i, y_j) = A_i Phi_j^T, so with P = P^T the residual at
    (x_i, y_j) is X_i Z_j^T, X = [A'' - Q A, -A] and Z = [Phi, Phi'' - P Phi].
    The factors are smooth in one variable each; their second derivatives
    take the five-point fourth-order stencil. The max runs over the node
    pairs j = 2..i-2, whose stencils in x and y stay on y <= x (the kink
    along y = x enters none), in blocks of x rows: one product of a block's
    X with the Z of every y node it meets, its own triangle j > i-2 masked,
    and as many rows as fit _WAVE_BYTES. The rows next to the ends (y node
    1, x node n-2) have no centered five-point stencil and are not checked.
    Raises GridTooSmall below 7 nodes, where no node pair is left.
    """
    grid = kernel.grid
    n = grid.n
    if n < 7:
        raise GridTooSmall("wave-equation residual needs at least 7 nodes")
    phis = kernel.pert.phis
    a, phi = kernel.a[2:-2], phis[2:-2]      # nodes 2..n-3
    qs = q.evaluate_many(grid.nodes[2:-2])
    ps = base.evaluate_many(grid.nodes[2:-2])
    x_fac = np.concatenate([_second_difference4(kernel.a, grid.h) - qs @ a, -a], axis=2)
    z_fac = np.concatenate([phi, _second_difference4(phis, grid.h) - ps @ phi], axis=2)
    n_dim = phi.shape[1]
    x_rows = x_fac[2:].reshape((n - 6) * n_dim, 2 * kernel.rank)   # x nodes 4..n-3
    z_rows = z_fac.reshape((n - 4) * n_dim, 2 * kernel.rank)   # row j N + b holds Z_{j+2}[b]
    res = np.empty(n - 6)
    block = max(1, _WAVE_BYTES // (8 * n_dim * z_rows.shape[0]))
    for lo in range(0, n - 6, block):
        hi = min(lo + block, n - 6)
        # x node i = lo+4 .. hi+3 meets y nodes 2..i-2: the first (i-3) N rows of z_rows
        prod = x_rows[lo * n_dim:hi * n_dim] @ z_rows[:hi * n_dim].T
        prod = np.abs(prod, out=prod).reshape(hi - lo, n_dim, hi, n_dim)
        above = np.arange(lo + 1, hi) >= np.arange(lo + 1, hi + 1)[:, None]
        np.copyto(prod[:, :, lo + 1:], 0.0, where=above[:, None, :, None])
        res[lo:hi] = prod.max(axis=(1, 2, 3))
        del prod                        # before the next block's product is formed
    return _peak_report("wave-eq", res, grid.nodes[4:n - 2], tolerance)


def residual_goursat(kernel: KernelField, p: Problem, q: MatrixPotential,
                     tolerance: float = 1e-6) -> list[ResidualReport]:
    """Boundary and diagonal identities pinning the kernel down.

    goursat: K(x,0) A^T + (dK/dy)|_{y=0} B^T = 0 at every node, with the y
    derivative taken from the representation (A(x) Phi'^T(0)).
    trace:   K(x,x) = 1/2 int_0^x [Q - P] dt - F(0,0), where F(0,0) =
             B^T (sum_j c_j theta_j theta_j^T) B and Q - P is read from the
             node samples of the transformed potential q, so a wrong Q fails.
    """
    grid = kernel.grid
    pert = kernel.pert
    k_x0 = np.einsum("qnm,bm->qnb", kernel.a, pert.phis[0])
    dk_y0 = np.einsum("qnm,bm->qnb", kernel.a, pert.phi_derivs[0])
    g_res = k_x0 @ p.left.A.T + dk_y0 @ p.left.B.T

    f00 = p.left.B.T @ (pert.thetas * pert.coeffs[None, :]) @ pert.thetas.T @ p.left.B
    dq = q.evaluate_many(grid.nodes) - p.potential.evaluate_many(grid.nodes)
    k_xx = np.einsum("qam,qbm->qab", kernel.a, pert.phis)
    t_res = k_xx - 0.5 * running_integral(dq, grid.h) + f00
    return [_peak_report("goursat", g_res, grid.nodes, tolerance),
            _peak_report("trace", t_res, grid.nodes, tolerance)]


def residual_transformed_eigen(p_new: Problem, lam: float, psi: np.ndarray,
                               dpsi: np.ndarray, tolerance: float = 1e-3,
                               boundary_tolerance: float = 1e-8) -> list[ResidualReport]:
    """Residuals of -psi'' + Q psi = lam psi and of both boundary conditions,
    relative to the largest |psi| sample and so free of the selection's scale.

    psi and dpsi are (n, N) samples on the uniform n-node grid.
    eigen-ode: the ODE residual, psi'' by the five-point fourth-order stencil
               at nodes 2..n-3. The default tolerance leaves wide headroom
               over its O(h^4) truncation at the default 401-node grid.
    eigen-bc:  the boundary residuals B psi'(0) + Atilde psi(0) and
               cB psi'(pi) + cAtilde psi(pi), from the analytic derivative
               samples, against boundary_tolerance.
    Raises GridTooSmall below 7 nodes, as residual_wave_equation does, and
    ConditionViolated for an identically zero psi, which has no scale.
    """
    if psi.shape[0] < 7:
        raise GridTooSmall("eigen-ode residual needs at least 7 nodes")
    scale = np.abs(psi).max()
    if scale == 0.0:
        raise ConditionViolated("psi is identically zero; the selection certifies nothing")
    grid = Grid.uniform(psi.shape[0])
    qs = p_new.potential.evaluate_many(grid.nodes[2:-2])
    res = (-_second_difference4(psi, grid.h) + np.einsum("qab,qb->qa", qs, psi[2:-2])
           - lam * psi[2:-2])
    ends = np.stack([p_new.left.B @ dpsi[0] + p_new.left.A @ psi[0],
                     p_new.right.B @ dpsi[-1] + p_new.right.A @ psi[-1]])
    return [_peak_report("eigen-ode", res / scale, grid.nodes[2:-2], tolerance),
            _peak_report("eigen-bc", ends / scale, grid.nodes[[0, -1]], boundary_tolerance)]


def residual_endpoint(kernel: KernelField, psi: np.ndarray,
                      tolerance: float = 1e-8) -> ResidualReport:
    """Endpoint identity psi_l(pi) (1 + c_l ||phi_l||^2) = phi_l(pi), relative
    to max |phi_l|, for the (n, N, M) stack psi of transformed selections."""
    pert = kernel.pert
    lhs = psi[-1] * (1.0 + pert.coeffs * pert.norms_sq)
    scale = np.abs(pert.phis).max(axis=(0, 1))
    worst = np.max(np.abs(lhs - pert.phis[-1]), axis=0) / scale
    return ResidualReport("endpoint", float(worst.max(initial=0.0)), float(np.pi), tolerance)


def residual_representation(kernel: KernelField, psi: np.ndarray,
                            tolerance: float = 1e-9) -> ResidualReport:
    """Representation identity a_j(x) = -c_j psi_j(x), entrywise, for the
    (n, N, M) stack psi of transformed selections, each column relative to
    max |a_j| and so free of the selection's scale; a selection with c_j = 0
    has a_j = 0 and reads 0."""
    scale = np.abs(kernel.a).max(axis=(0, 1))
    diff = (kernel.a + kernel.pert.coeffs * psi) / np.where(scale > 0.0, scale, 1.0)
    return _peak_report("representation", diff, kernel.grid.nodes, tolerance)


def pipeline_residuals(p: Problem, new_problem: Problem,
                       kernel: KernelField) -> list[ResidualReport]:
    """The residual suite of the transform of p into new_problem by kernel,
    at default tolerances: wave-eq, goursat, trace, eigen-ode and eigen-bc
    for each selection, endpoint and representation, in that order."""
    pert = kernel.pert
    psi, dpsi = transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
    reports = [residual_wave_equation(kernel, p.potential, new_problem.potential)]
    reports += residual_goursat(kernel, p, new_problem.potential)
    for j, lam in enumerate(pert.lambdas):
        reports += residual_transformed_eigen(new_problem, lam, psi[:, :, j], dpsi[:, :, j])
    reports.append(residual_endpoint(kernel, psi))
    reports.append(residual_representation(kernel, psi))
    return reports


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
