"""Finite-rank transformation kernels and isospectral problem construction.

Given eigenpairs (lambda_j, phi_j) of a base problem and coefficients c_j with
1 + c_j ||phi_j||^2 > 0, the degenerate kernel

    F(x, y) = sum_j c_j phi_j(x) phi_j^T(y)

defines the integral equation K(x,y) + F(x,y) + int_0^x K(x,t) F(t,y) dt = 0
on 0 <= y < x <= pi. Because F has finite rank M, the solution is closed-form
linear algebra: with Phi(x) = [phi_1 .. phi_M], C = diag(c_j) and the running
Gram G(x) = int_0^x Phi^T Phi dt,

    K(x, y) = A(x) Phi^T(y),      A(x) = -Phi(x) C (I + G(x) C)^{-1}.

The transformed problem (Q, Atilde, B, cAtilde, cB) with

    Q = P + 2 d/dx K(x,x),  Atilde = A - B K(0,0),  cAtilde = cA - cB K(pi,pi)

has the same eigenvalue sequence as the base problem, and phi maps to the
transformed eigenfunction psi = phi + int_0^x K(x,t) phi(t) dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConditionViolated, GridMismatch, IndexOutOfRange,
                     NotAnEigenvalue, SingularResolvent)
from .model import BoundaryPair, Grid, GridPotential, MatrixPotential, Problem
from .quadrature import running_integral
from .spectrum import Eigenpair, SpectrumReport

#: relative resolvent singularity threshold for I + G(x) C
RESOLVENT_TOL = 1e-12
#: allowed relative L2 cross-talk between selections inside one eigenspace
ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class PerturbationEntry:
    """One selected eigenfunction: eigenvalue index k, branch i (1-based), weight c.

    ``theta`` optionally overrides the stored branch with the eigenfunction
    Y(x; lambda_k) theta for an explicit vector theta in the reported
    eigenspace, which is how a specific direction inside a degenerate
    eigenspace (where the orthogonal basis is not unique) is selected. The
    eigenfunction is used unnormalized, so c is interpreted relative to its
    norm.
    """

    k: int
    i: int
    c: float
    theta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Perturbation:
    """Validated finite-rank perturbation resolved against a spectrum report."""

    entries: tuple[PerturbationEntry, ...]
    grid: Grid
    lambdas: np.ndarray    # (M,)
    thetas: np.ndarray     # (N, M)
    coeffs: np.ndarray     # (M,)
    norms_sq: np.ndarray   # (M,)
    phis: np.ndarray       # (n, N, M) on grid
    phi_derivs: np.ndarray

    @property
    def rank(self) -> int:
        return self.coeffs.size


def _number(x) -> float:
    """float(x) of a number; a string or a boolean, which float() reads too, is a TypeError."""
    if isinstance(x, (str, bool, np.bool_)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _normalize_entries(entries) -> list[PerturbationEntry]:
    """Entries as PerturbationEntry, refusing non-integral k, i (rather than
    truncating them) and non-finite c, theta; an entry that is not k, i, c[,
    theta] numbers raises ValueError naming its position."""
    out = []
    for n, e in enumerate(entries):
        try:
            if isinstance(e, dict):
                e = PerturbationEntry(e["k"], e["i"], e["c"], e.get("theta"))
            elif not isinstance(e, PerturbationEntry):
                e = PerturbationEntry(*e)
            k, i, c = _number(e.k), _number(e.i), _number(e.c)
            theta = None if e.theta is None else tuple(_number(t) for t in e.theta)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"perturbation entry {n} is not a {{k, i, c[, theta]}} "
                             f"entry of numbers ({type(exc).__name__}: {exc})") from None
        name = f"perturbation entry {n} (k={e.k}, i={e.i}, c={e.c})"
        if not (k.is_integer() and i.is_integer()):
            raise IndexOutOfRange(f"{name}: k and i must be integers")
        if not np.isfinite(c) or (theta is not None and not np.all(np.isfinite(theta))):
            raise ConditionViolated(f"{name}: c and theta must be finite")
        out.append(PerturbationEntry(int(k), int(i), c, theta))
    return out


def build_perturbation(report: SpectrumReport, entries) -> Perturbation:
    """Resolve and validate perturbation entries against a spectrum report.

    Each entry addresses eigenvalue index k (position in the report) and
    branch i in 1..m_k, and becomes a coefficient vector u in the report's
    eigenspace basis: e_i, or thetas^T theta for an entry with theta, whose
    theta must lie in the span of the stored thetas (orthonormal columns)
    within 1e-5 relative. Its theta, eigenfunction samples and squared norm
    are the stored thetas u, phis u, phi_derivs u and norms_sq . u^2; no ODE
    is integrated. The positivity condition 1 + c ||phi||^2 > 0 is checked
    against those norms, and selections within one eigenspace must stay
    L2-orthogonal.

    Raises
    ------
    IndexOutOfRange
        Bad or non-integral k or i, a k whose eigenspace the report lacks,
        duplicate (k, i), or a theta of the wrong length.
    NotAnEigenvalue
        A theta farther than 1e-5 |theta| from the reported eigenspace.
    ConditionViolated
        A non-finite c or theta, a selection with ||phi||^2 = 0 (a zero theta),
        some 1 + c ||phi||^2 <= 0 (message carries the margin), or
        non-orthogonal same-eigenspace selections.
    """
    entries = _normalize_entries(entries)
    seen = set()
    for e in entries:
        if not 0 <= e.k < len(report.pairs):
            raise IndexOutOfRange(f"eigenvalue index k={e.k} outside 0..{len(report.pairs) - 1}: "
                                  f"the window [{report.window[0]:.9g}, {report.window[1]:.9g}] "
                                  f"holds {len(report.pairs)} distinct eigenvalues")
        if not 1 <= e.i <= report.pairs[e.k].multiplicity:
            raise IndexOutOfRange(
                f"branch i={e.i} outside 1..{report.pairs[e.k].multiplicity} for k={e.k}"
            )
        if (e.k, e.i) in seen:
            raise IndexOutOfRange(f"duplicate entry (k={e.k}, i={e.i})")
        if not isinstance(report.pairs[e.k], Eigenpair):
            raise IndexOutOfRange(f"the report holds no eigenspace at k={e.k}; scan with k in bases")
        seen.add((e.k, e.i))

    grid = report.grid
    n_dim = report.problem.n
    m = len(entries)
    lambdas = np.empty(m)
    coeffs = np.empty(m)
    norms_sq = np.empty(m)
    thetas = np.empty((n_dim, m))
    phis = np.empty((grid.n, n_dim, m))
    phi_derivs = np.empty((grid.n, n_dim, m))
    coords = []                 # each selection in its stored eigenspace basis
    for j, e in enumerate(entries):
        pair = report.pairs[e.k]
        if e.theta is None:
            u = np.eye(pair.multiplicity)[e.i - 1]
        else:
            theta = np.asarray(e.theta, dtype=float)
            if theta.shape != (n_dim,):
                raise IndexOutOfRange(f"theta for entry (k={e.k}, i={e.i}) must have length {n_dim}")
            u = pair.thetas.T @ theta
            if np.linalg.norm(theta - pair.thetas @ u) > 1e-5 * np.linalg.norm(theta):
                raise NotAnEigenvalue(f"theta for entry (k={e.k}, i={e.i}) is not in the "
                                      f"eigenspace of lambda = {pair.lam:.6g}")
        coords.append(u)
        lambdas[j] = pair.lam
        coeffs[j] = e.c
        thetas[:, j] = pair.thetas @ u
        phis[:, :, j] = pair.phis @ u
        phi_derivs[:, :, j] = pair.phi_derivs @ u
        norms_sq[j] = pair.norms_sq @ u**2
        if not norms_sq[j] > 0.0:
            raise ConditionViolated(f"entry (k={e.k}, i={e.i}): ||phi||^2 = {norms_sq[j]:.6g} "
                                    f"is not positive; the selection certifies nothing")
        margin = 1.0 + e.c * norms_sq[j]
        if margin <= 0.0:
            raise ConditionViolated(
                f"entry (k={e.k}, i={e.i}, c={e.c}): 1 + c*||phi||^2 = {margin:.6g} <= 0 "
                f"(||phi||^2 = {norms_sq[j]:.6g})"
            )

    # selections sharing an eigenspace must stay mutually L2-orthogonal; its
    # stored eigenfunctions are, so their inner product is u_j . (norms_sq u_l)
    for j in range(m):
        for l in range(j + 1, m):
            if entries[j].k != entries[l].k:
                continue
            ip = coords[j] @ (report.pairs[entries[j].k].norms_sq * coords[l])
            if abs(ip) > ORTHO_TOL * np.sqrt(norms_sq[j] * norms_sq[l]):
                raise ConditionViolated(
                    f"entries (k={entries[j].k}, i={entries[j].i}) and "
                    f"(k={entries[l].k}, i={entries[l].i}) select non-orthogonal "
                    f"eigenfunctions of the same eigenspace (inner product {ip:.3e})"
                )

    return Perturbation(tuple(entries), grid, lambdas, thetas, coeffs, norms_sq, phis, phi_derivs)


@dataclass(frozen=True)
class KernelField:
    """Solved degenerate kernel K(x, y) = A(x) Phi^T(y) for y <= x (0 above),
    with Phi the eigenfunction stack of the perturbation it solves."""

    pert: Perturbation
    a: np.ndarray           # (n, N, M) coefficient functions a_j(x)
    da: np.ndarray          # (n, N, M) their derivatives
    gram: np.ndarray        # (n, M, M) running Gram G(x)

    @cached_property
    def resolvent_sv(self) -> np.ndarray:
        """(n, M) singular values of I + G(x) C at every node, descending."""
        return np.linalg.svd(_resolvent_matrices(self.gram, self.pert.coeffs), compute_uv=False)

    @property
    def rank(self) -> int:
        return self.pert.rank

    @property
    def grid(self) -> Grid:
        return self.pert.grid

    @property
    def k00(self) -> np.ndarray:
        return self.a[0] @ self.pert.phis[0].T

    @property
    def kpipi(self) -> np.ndarray:
        return self.a[-1] @ self.pert.phis[-1].T


def _resolvent_matrices(gram: np.ndarray, c: np.ndarray) -> np.ndarray:
    """I + G(x) C at every node, (n, M, M)."""
    return np.eye(c.size) + gram * c[None, None, :]


def _resolvent(res_mat: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(I + G(x) C)^{-1} at every node x of nodes, from res_mat = I + G(x) C.

    Raises SingularResolvent at the first node where det(I + G C) <=
    RESOLVENT_TOL or sigma_min <= RESOLVENT_TOL max(sigma_max, 1). The
    inverse is taken once the determinants pass, and only a node whose
    bound max(|R|_F, 1) |R^-1|_F >= max(sigma_max, 1) / sigma_min comes
    within a factor 2 of 1 / RESOLVENT_TOL takes its SVD.
    """
    # det(I + G(0)C) = 1; in the uniqueness regime the determinant never
    # reaches zero, so a non-positive value at any node flags a crossing even
    # when no node lands exactly on the singularity
    dets = np.linalg.det(res_mat)
    near = np.arange(nodes.size)
    if np.all(dets > RESOLVENT_TOL):
        resolvent = np.linalg.inv(res_mat)
        bound = (np.maximum(np.linalg.norm(res_mat, axis=(1, 2)), 1.0)
                 * np.linalg.norm(resolvent, axis=(1, 2)))
        near = near[bound >= 0.5 / RESOLVENT_TOL]
    sv = np.linalg.svd(res_mat[near], compute_uv=False)
    # the initial values keep the test well defined at rank 0
    sv_min = np.full(nodes.size, np.inf)
    sv_min[near] = sv.min(axis=1, initial=np.inf)
    bad = dets <= RESOLVENT_TOL
    bad[near] |= sv_min[near] <= RESOLVENT_TOL * sv.max(axis=1, initial=1.0)
    if np.any(bad):
        q = int(np.argmax(bad))
        raise SingularResolvent(
            f"I + G(x)C is singular on [0, x] for x = {nodes[q]:.6g} "
            f"(det = {dets[q]:.3e}, sigma_min = {sv_min[q]:.3e})"
        )
    return resolvent


def solve_kernel(pert: Perturbation) -> KernelField:
    """Solve the kernel integral equation in closed degenerate form.

    The coefficient block A(x) = -Phi(x) C (I + G(x) C)^{-1} is evaluated at
    every node, together with its analytic derivative

        A'(x) = -Phi'(x) C R(x) - A(x) G'(x) C R(x),   R = (I + G C)^{-1},

    where G'(x) = Phi^T(x) Phi(x) needs no quadrature. The running Gram uses
    composite Simpson with 4th-order end cells, so all later identities close
    at quadrature accuracy.

    Raises
    ------
    SingularResolvent
        If I + G(x) C is numerically singular at some node (outside the
        uniqueness regime).
    """
    grid, phi, dphi, c = pert.grid, pert.phis, pert.phi_derivs, pert.coeffs
    gp = np.einsum("qni,qnj->qij", phi, phi)
    gram = running_integral(gp, grid.h)
    resolvent = _resolvent(_resolvent_matrices(gram, c), grid.nodes)
    phi_c = phi * c[None, None, :]
    a = -phi_c @ resolvent
    da = -(dphi * c[None, None, :]) @ resolvent - a @ ((gp * c[None, None, :]) @ resolvent)
    return KernelField(pert, a, da, gram)


def potential_q(kernel: KernelField, base: MatrixPotential) -> GridPotential:
    """Transformed potential Q(x) = P(x) + 2 d/dx K(x, x), sampled on the kernel grid.

    The diagonal derivative A'(x) Phi^T(x) + A(x) Phi'^T(x) is analytic (no
    differencing of K samples, which would amplify quadrature noise into the
    spectrum re-scan). Samples are symmetrized; the pre-symmetrization defect
    is recorded on the result.
    """
    grid, pert = kernel.grid, kernel.pert
    dk = (np.einsum("qam,qbm->qab", kernel.da, pert.phis)
          + np.einsum("qam,qbm->qab", kernel.a, pert.phi_derivs))
    return GridPotential(grid, base.evaluate_many(grid.nodes) + 2.0 * dk)


def boundary_matrices(kernel: KernelField, p: Problem) -> tuple[np.ndarray, np.ndarray]:
    """(Atilde, cAtilde) = (A - B K(0,0), cA - cB K(pi,pi)).

    K(0,0) and K(pi,pi) are taken from the solved kernel representation. With
    Dirichlet data (B = cB = 0) or rank 0 both matrices equal A and cA.
    """
    atilde = p.left.A - p.left.B @ kernel.k00
    catilde = p.right.A - p.right.B @ kernel.kpipi
    return atilde, catilde


def transform_eigenfunction(kernel: KernelField, phi: np.ndarray,
                            dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi(x) = phi(x) + int_0^x K(x, t) phi(t) dt via the running quadrature.

    phi and dphi are (n, N, L) stacks of L functions and their derivatives on
    the kernel grid. With the degenerate representation psi = phi + A(x) w(x)
    where w(x) = int_0^x Phi^T phi dt; the derivative samples come along
    analytically as phi' + A'(x) w(x) + A(x) Phi^T(x) phi(x). psi(0) = phi(0)
    exactly. Returns the (psi, psi') stacks.
    """
    if phi.shape[0] != kernel.grid.n or dphi.shape[0] != kernel.grid.n:
        raise GridMismatch("eigenfunctions are not sampled on the kernel grid")
    pointwise = np.einsum("qnm,qnl->qml", kernel.pert.phis, phi)
    w = running_integral(pointwise, kernel.grid.h)
    psi = phi + np.einsum("qnm,qml->qnl", kernel.a, w)
    dpsi = (dphi + np.einsum("qnm,qml->qnl", kernel.da, w)
            + np.einsum("qnm,qml->qnl", kernel.a, pointwise))
    return psi, dpsi


def transform_problem(p: Problem, pert: Perturbation) -> tuple[Problem, KernelField]:
    """The isospectral problem (Q, Atilde, B, cAtilde, cB) and the solved
    kernel; an empty perturbation gives P sampled on the grid and the original
    boundary matrices."""
    kernel = solve_kernel(pert)
    atilde, catilde = boundary_matrices(kernel, p)
    new_problem = Problem(potential_q(kernel, p.potential), BoundaryPair(atilde, p.left.B),
                          BoundaryPair(catilde, p.right.B))
    return new_problem, kernel


def kernel_diagnostics(p: Problem, new_problem: Problem, kernel: KernelField) -> dict:
    """Numerical health of a transform of p into new_problem by kernel: the
    symmetry and self-adjointness defects, and at rank > 0 the resolvent's
    conditioning, the final Gram's cross-talk and the boundary sign gap."""
    diag = {
        "rank": kernel.rank,
        "q_presymmetrization_defect": float(new_problem.potential.symmetry_defect),
        "selfadjoint_defect_left": new_problem.left.symmetry_defect(),
        "selfadjoint_defect_right": new_problem.right.symmetry_defect(),
    }
    if kernel.rank:
        sv = kernel.resolvent_sv
        diag["resolvent_min_sigma"] = float(sv[:, -1].min())
        diag["resolvent_max_cond"] = float((sv[:, 0] / sv[:, -1]).max())
        gpi = kernel.gram[-1]
        diag["final_gram_offdiagonal_max"] = float(np.max(np.abs(gpi - np.diag(np.diag(gpi)))))
        # the boundary formulas use K(0,0) from the solved kernel; the opposite
        # sign convention is surfaced here so a mismatch is visible, not guessed
        alt = p.left.A + p.left.B @ kernel.k00
        diag["atilde_alternative_sign_gap"] = float(np.max(np.abs(alt - new_problem.left.A)))
    return diag
