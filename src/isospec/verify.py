"""Independent numerical verification of the transform's structural identities.

Everything here re-derives quantities by a route different from the one that
produced them: spectra are re-scanned, kernel PDE residuals use second-order
differencing of the degenerate representation, and the non-commutativity
diagnostic certifies that a matrix potential is not simultaneously
diagonalizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall
from .model import Grid, MatrixPotential, Problem
from .quadrature import running_integral
from .spectrum import SampledVectorFunction, ScanOptions, SpectrumReport, scan_spectrum
from .transform import KernelField, Perturbation, TransformResult


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
            "maxShift": self.max_shift,
            "multiplicityMatch": self.multiplicity_match,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residual of one identity over the grid."""

    name: str
    max_residual: float
    location: float
    tolerance: float
    extras: dict | None = None

    @property
    def passed(self) -> bool:
        """max_residual within tolerance, and any boundary residuals in extras
        within boundary_tolerance."""
        extras = self.extras or {}
        btol = extras.get("boundary_tolerance")
        ends_ok = btol is None or max(extras["boundary_left"], extras["boundary_right"]) <= btol
        return self.max_residual <= self.tolerance and ends_ok

    def to_json_obj(self):
        obj = {
            "name": self.name,
            "maxResidual": self.max_residual,
            "location": self.location,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.extras:
            obj["extras"] = self.extras
        return obj


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
    """Positional comparison of two already-computed reports."""
    pa = tuple((p.lam, p.multiplicity) for p in ra.pairs)
    pb = tuple((p.lam, p.multiplicity) for p in rb.pairs)
    sa, sb = ra.sigma_sequence, rb.sigma_sequence
    if sa.size != sb.size:
        return IsospectralReport(ra.window, pa, pb, float("inf"), False, tol)
    shift = float(np.max(np.abs(sa - sb))) if sa.size else 0.0
    mult_match = len(pa) == len(pb) and all(ma == mb for (_, ma), (_, mb) in zip(pa, pb))
    return IsospectralReport(ra.window, pa, pb, shift, mult_match, tol)


def residual_wave_equation(kernel: KernelField, base: MatrixPotential,
                           q: MatrixPotential, tolerance: float = 5e-4) -> ResidualReport:
    """Residual of K_xx - Q(x) K = K_yy - K P(y) below the diagonal.

    Second derivatives come from centered second-order differencing of the
    degenerate kernel representation on nodes whose full stencils stay in the
    open triangle y < x, so the kink along y = x never enters a stencil.
    """
    grid = kernel.grid
    n = grid.n
    if n < 5:
        raise GridTooSmall("wave-equation residual needs at least 5 nodes")
    h = grid.h
    k = kernel.kernel_matrix()                    # (n, n, N, N), zero above diagonal
    qs = q.evaluate_many(grid.nodes)
    ps = base.evaluate_many(grid.nodes)

    best = (0.0, 0.0)
    for i in range(2, n - 1):                     # x index; y stencil needs j+1 <= i-... j <= i-2
        j = np.arange(1, i - 1)
        if j.size == 0:
            continue
        kxx = (k[i - 1, j] - 2 * k[i, j] + k[i + 1, j]) / h**2
        kyy = (k[i, j - 1] - 2 * k[i, j] + k[i, j + 1]) / h**2
        res = kxx - qs[i] @ k[i, j] - kyy + k[i, j] @ ps[j]
        mx = float(np.max(np.abs(res)))
        if mx > best[0]:
            best = (mx, float(grid.nodes[i]))
    return ResidualReport("wave-eq", best[0], best[1], tolerance)


def residual_goursat(kernel: KernelField, p: Problem, pert: Perturbation,
                     tolerance: float = 1e-6) -> list[ResidualReport]:
    """Boundary and diagonal identities pinning the kernel down.

    goursat: K(x,0) A^T + (dK/dy)|_{y=0} B^T = 0 at every node, with the y
    derivative taken from the representation (A(x) Phi'^T(0)).
    trace:   K(x,x) = 1/2 int_0^x [Q - P] dt - F(0,0), where F(0,0) =
             B^T (sum_j c_j theta_j theta_j^T) B and Q - P = 2 d/dx K(x,x).
    """
    grid = kernel.grid
    if kernel.rank == 0:
        return [ResidualReport("goursat", 0.0, 0.0, tolerance),
                ResidualReport("trace", 0.0, 0.0, tolerance)]

    k_x0 = np.einsum("qnm,bm->qnb", kernel.a, kernel.phi[0])
    dk_y0 = np.einsum("qnm,bm->qnb", kernel.a, kernel.dphi[0])
    g_res = k_x0 @ p.left.A.T + dk_y0 @ p.left.B.T
    g_max = float(np.max(np.abs(g_res)))
    g_loc = float(grid.nodes[int(np.argmax(np.max(np.abs(g_res), axis=(1, 2))))])

    f00 = p.left.B.T @ (kernel.thetas * kernel.coeffs[None, :]) @ kernel.thetas.T @ p.left.B
    dq = 2.0 * kernel.diagonal_derivative()
    half_int = 0.5 * running_integral(dq, grid.h)
    t_res = kernel.diagonal() - half_int + f00
    t_max = float(np.max(np.abs(t_res)))
    t_loc = float(grid.nodes[int(np.argmax(np.max(np.abs(t_res), axis=(1, 2))))])
    return [ResidualReport("goursat", g_max, g_loc, tolerance),
            ResidualReport("trace", t_max, t_loc, tolerance)]


def residual_transformed_eigen(result: TransformResult, p_new: Problem, lam: float,
                               psi: SampledVectorFunction,
                               tolerance: float = 1e-3,
                               boundary_tolerance: float = 1e-8) -> ResidualReport:
    """-psi'' + Q psi = lam psi by differencing, plus both boundary residuals.

    The ODE residual uses centered second-order differences at interior
    nodes; boundary residuals ||B psi'(0) + Atilde psi(0)|| and
    ||cB psi'(pi) + cAtilde psi(pi)|| use the analytic derivative samples.
    The default tolerance encodes the O(h^2) truncation at the default
    401-node grid; pin a tighter value on finer grids.
    """
    grid = psi.grid
    if grid.n < 5:
        raise GridTooSmall("eigen-ode residual needs at least 5 nodes")
    h = grid.h
    v = psi.values
    qs = result.q.evaluate_many(grid.nodes)
    dd = (v[:-2] - 2 * v[1:-1] + v[2:]) / h**2
    res = -dd + np.einsum("qab,qb->qa", qs[1:-1], v[1:-1]) - lam * v[1:-1]
    ode_max = float(np.max(np.abs(res)))
    loc = float(grid.nodes[1 + int(np.argmax(np.max(np.abs(res), axis=1)))])

    extras = {}
    if psi.derivs is not None:
        b_left = p_new.left.B @ psi.derivs[0] + p_new.left.A @ v[0]
        b_right = p_new.right.B @ psi.derivs[-1] + p_new.right.A @ v[-1]
        extras = {
            "boundary_left": float(np.max(np.abs(b_left))),
            "boundary_right": float(np.max(np.abs(b_right))),
            "boundary_tolerance": boundary_tolerance,
        }
    return ResidualReport("eigen-ode", ode_max, loc, tolerance, extras)


def residual_endpoint(kernel: KernelField, pert: Perturbation,
                      psis: tuple[SampledVectorFunction, ...],
                      tolerance: float = 1e-8) -> ResidualReport:
    """Endpoint identity psi_l(pi) (1 + c_l ||phi_l||^2) = phi_l(pi), relative."""
    worst = 0.0
    for j, psi in enumerate(psis):
        phi_pi = kernel.phi[-1, :, j]
        lhs = psi.values[-1] * (1.0 + pert.coeffs[j] * pert.norms_sq[j])
        scale = max(1.0, float(np.max(np.abs(kernel.phi[:, :, j]))))
        worst = max(worst, float(np.max(np.abs(lhs - phi_pi))) / scale)
    return ResidualReport("endpoint", worst, float(np.pi), tolerance)


def residual_representation(kernel: KernelField,
                            psis: tuple[SampledVectorFunction, ...],
                            tolerance: float = 1e-9) -> ResidualReport:
    """Representation identity a_j(x) = -c_j psi_j(x), entrywise."""
    worst, loc = 0.0, 0.0
    for j, psi in enumerate(psis):
        diff = np.abs(kernel.a[:, :, j] + kernel.coeffs[j] * psi.values)
        mx = float(np.max(diff))
        if mx > worst:
            worst = mx
            loc = float(kernel.grid.nodes[int(np.argmax(np.max(diff, axis=1)))])
    return ResidualReport("representation", worst, loc, tolerance)


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
