"""Problem definitions: grids, matrix potentials, boundary pairs.

The eigenvalue problem is

    -phi'' + P(x) phi = lambda phi,   0 <= x <= pi,
    B phi'(0) + A phi(0) = 0,         cB phi'(pi) + cA phi(pi) = 0,

with P(x) a continuous symmetric N x N matrix and the boundary pairs
satisfying B A^T = A B^T and rank [A, B] = N (self-adjointness). A problem is
the tuple (P, A, B, cA, cB); ``cA``/``cB`` are the right-endpoint matrices.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfDomain, UnknownName

SYMMETRY_RTOL = 1e-12
RANK_RTOL = 1e-10


def _readonly(a: np.ndarray, name: str) -> np.ndarray:
    a = np.array(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, pi] with n >= 3 nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _readonly(self.nodes, "grid nodes")
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 nodes")
        ulp = 32 * np.spacing(np.pi)
        if abs(nodes[0]) > ulp or abs(nodes[-1] - np.pi) > ulp:
            raise ValueError("grid must span [0, pi] exactly")
        d = np.diff(nodes)
        if np.any(d <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        h = np.pi / (nodes.size - 1)
        if np.max(np.abs(d - h)) > ulp:
            raise ValueError("grid must be uniform")

    @classmethod
    def uniform(cls, n: int) -> "Grid":
        if n < 3:
            raise ValueError("grid needs at least 3 nodes")
        return cls(np.linspace(0.0, np.pi, n))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def h(self) -> float:
        return np.pi / (self.nodes.size - 1)


class MatrixPotential:
    """Continuous symmetric N x N matrix-valued function on [0, pi].

    Subclasses implement ``evaluate_many(xs)``, the (len(xs), N, N) samples at
    xs, symmetrized as (M + M^T)/2 after interpolation.
    """

    dimension: int
    symmetry_defect: float = 0.0

    def evaluate_many(self, xs) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _check_domain(xs) -> np.ndarray:
        """xs as a float array, after checking that it lies in [0, pi]."""
        xs = np.asarray(xs, dtype=float)
        if np.any(xs < -1e-12) or np.any(xs > np.pi + 1e-12):
            raise OutOfDomain("potential evaluated outside [0, pi]")
        return xs


class ConstantDiagonalPotential(MatrixPotential):
    """P(x) = diag(values), constant in x."""

    def __init__(self, values: Sequence[float]):
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if vals.ndim != 1:
            raise DimensionMismatch("constant-diagonal potential takes a vector")
        self.values = _readonly(vals, "constant-diagonal potential values")
        self.dimension = vals.size
        self._mat = _readonly(np.diag(vals), "constant-diagonal potential values")

    def evaluate_many(self, xs) -> np.ndarray:
        xs = self._check_domain(xs)
        return np.broadcast_to(self._mat, (len(xs), self.dimension, self.dimension))

    def to_json_obj(self):
        return {"kind": "constant-diagonal", "values": self.values.tolist()}


def _cyclic_reduction(lo, mid, up, r: np.ndarray) -> np.ndarray:
    """s (m, k) solving lo_i s_{i-1} + mid_i s_i + up_i s_{i+1} = r_i (lo_0 = up_{m-1} = 0)
    by odd-even reduction, stable without pivoting on diagonally dominant rows: each
    level eliminates the odd unknowns from the even rows, and one LU solves the last
    32 rows or fewer, where it costs less than further levels."""
    m = mid.size
    if m <= 32:
        return np.linalg.solve(np.diag(mid) + np.diag(up[:-1], 1) + np.diag(lo[1:], -1), r)
    if m % 2 == 0:      # a last row s = 0 gives every odd row two even neighbours
        lo, mid, up = np.append(lo, 0.0), np.append(mid, 1.0), np.append(up, 0.0)
        r = np.concatenate([r, np.zeros_like(r[:1])])
    o = slice(1, None, 2)
    left, right = -lo[2::2] / mid[o], -up[:-1:2] / mid[o]
    mid2, r2 = mid[::2].copy(), r[::2].copy()
    mid2[1:] += left * up[o]
    mid2[:-1] += right * lo[o]
    r2[1:] += left[:, None] * r[o]
    r2[:-1] += right[:, None] * r[o]
    even = _cyclic_reduction(np.append(0.0, left * lo[o]), mid2, np.append(right * up[o], 0.0), r2)
    s = np.empty_like(r)
    s[::2] = even
    s[o] = (r[o] - lo[o, None] * even[:-1] - up[o, None] * even[1:]) / mid[o, None]
    return s[:m]


def _not_a_knot_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c (4, n-1, N, N) of the not-a-knot cubic spline through (x, y),
    piece i being sum_k c[3-k, i] (t - x_i)^k: scipy's CubicSpline system,
    whose end rows at n = 3 give the parabola through the three points (a
    3 x 3 solve). For n > 3 each end row, subtracted from its neighbour,
    leaves for s_1 .. s_{n-2} a diagonally dominant tridiagonal system, on
    uniform x about h times (2, 1) / (1, 4, 1) / (1, 2)."""
    n, dx = x.size, np.diff(x)
    dxr = dx[:, None, None]
    slope = np.diff(y, axis=0) / dxr
    m = slope.reshape(n - 1, -1)
    # row i: lo_i s_{i-1} + mid_i s_i + up_i s_{i+1} = r_i, with the parabola's end rows
    lo, up = np.concatenate(([0.0], dx[1:], [1.0])), np.concatenate(([1.0], dx[:-1], [0.0]))
    mid = np.concatenate(([1.0], 2 * (dx[:-1] + dx[1:]), [1.0]))
    r = np.concatenate([2 * m[:1], 3 * (dx[1:, None] * m[:-1] + dx[:-1, None] * m[1:]), 2 * m[-1:]])
    if n == 3:
        s = _cyclic_reduction(lo, mid, up, r)
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        r0 = ((dx[0] + 2 * d0) * dx[1] * m[0] + dx[0]**2 * m[1]) / d0
        r1 = (dx[-1]**2 * m[-2] + (2 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1
        # rows 1 and n-2 minus the end rows (dx_1, d0) and (d1, dx_{n-2}): s_0, s_{n-1} drop out
        mid[1], mid[-2], r[1], r[-2] = mid[1] - d0, mid[-2] - d1, r[1] - r0, r[-2] - r1
        lo[1] = up[-2] = 0.0
        inner = _cyclic_reduction(lo[1:-1], mid[1:-1], up[1:-1], r[1:-1])
        s = np.concatenate([(r0 - d0 * inner[:1]) / dx[1], inner, (r1 - d1 * inner[-1:]) / dx[-2]])
    s = s.reshape(y.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


class GridPotential(MatrixPotential):
    """Symmetric samples on a uniform grid with C^2 piecewise-cubic interpolation.

    Node evaluation returns the stored (symmetrized) sample exactly; between
    nodes the not-a-knot cubic spline of each entry is summed in increasing
    powers (scipy PPoly's order, not Horner's) and the result symmetrized.
    """

    def __init__(self, grid: Grid, samples: np.ndarray):
        samples = _readonly(samples, "grid potential samples")
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise DimensionMismatch("grid potential samples must be (n, N, N)")
        if samples.shape[0] != grid.n:
            raise DimensionMismatch("sample count does not match grid")
        scale = 1.0 + np.max(np.abs(samples))
        defect = float(np.max(np.abs(samples - samples.transpose(0, 2, 1))))
        self.symmetry_defect = defect / scale
        self.grid = grid
        self.samples = _readonly(0.5 * (samples + samples.transpose(0, 2, 1)), "grid potential samples")
        self.dimension = samples.shape[1]
        self._coeffs = _not_a_knot_coeffs(grid.nodes, self.samples)

    def evaluate_many(self, xs) -> np.ndarray:
        xs = self._check_domain(xs)
        # exact node lookup beats spline round-off, and needs no spline when every x is a node
        idx = np.round(xs / self.grid.h).astype(int)
        on_node = (np.abs(idx * self.grid.h - xs) <= 32 * np.spacing(np.pi)) & (idx >= 0) & (idx < self.grid.n)
        if np.all(on_node):
            return self.samples[idx]
        xs = np.clip(xs, 0.0, np.pi)
        piece = np.clip(np.searchsorted(self.grid.nodes, xs, side="right") - 1, 0, self.grid.n - 2)
        ds = (xs - self.grid.nodes[piece])[:, None, None]
        out, power = 0.0, 1.0
        for c in self._coeffs[::-1, piece]:
            out, power = out + c * power, power * ds
        out = 0.5 * (out + out.transpose(0, 2, 1))
        out[on_node] = self.samples[idx[on_node]]
        return out

    def to_json_obj(self):
        return {
            "kind": "grid",
            "x": self.grid.nodes.tolist(),
            "samples": self.samples.tolist(),
        }


@dataclass(frozen=True)
class BoundaryPair:
    """Pair (A, B) of N x N matrices defining B phi' + A phi = 0."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _readonly(self.A, "boundary matrix A")
        B = _readonly(self.B, "boundary matrix B")
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
            raise DimensionMismatch("boundary pair matrices must be square and equally sized")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def symmetry_defect(self) -> float:
        """max-entry norm of B A^T - A B^T (zero for self-adjoint pairs)."""
        return float(np.max(np.abs(self.B @ self.A.T - self.A @ self.B.T)))

    def rank_ratio(self) -> float:
        """sigma_N / sigma_1 of the N x 2N block [A, B]."""
        s = np.linalg.svd(np.hstack([self.A, self.B]), compute_uv=False)
        return float(s[-1] / s[0]) if s[0] > 0 else 0.0


@dataclass(frozen=True)
class Problem:
    """Self-adjoint eigenvalue problem (P, A, B, cA, cB) on [0, pi]."""

    potential: MatrixPotential
    left: BoundaryPair
    right: BoundaryPair

    def __post_init__(self):
        n = self.potential.dimension
        if self.left.n != n or self.right.n != n:
            raise DimensionMismatch(
                f"boundary pairs are {self.left.n}x{self.left.n}/{self.right.n}x{self.right.n} "
                f"but the potential is {n}x{n}"
            )

    @property
    def n(self) -> int:
        return self.potential.dimension


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    defect: float
    threshold: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: defect={c.defect:.3e} (threshold {c.threshold:.3e})")
        lines.append("result: " + ("all checks passed" if self.all_passed else "violations found"))
        return "\n".join(lines)


def validate_problem(p: Problem) -> ValidationReport:
    """Check the structural hypotheses of a problem.

    Reports symmetry of the potential samples, then :func:`boundary_checks`.
    Violations are reported, not raised; only inconsistent dimensions raise
    ``DimensionMismatch`` (at Problem construction).
    """
    defect = p.potential.symmetry_defect
    return ValidationReport((Check("potential symmetry", defect <= SYMMETRY_RTOL, defect,
                                   SYMMETRY_RTOL),) + boundary_checks(p))


def boundary_checks(p: Problem) -> tuple[Check, ...]:
    """B A^T = A B^T for both boundary pairs, then rank [A, B] = N for both."""
    checks = []
    # the spectral norms ||A||_2, ||B||_2 of both ends from one batched SVD
    norms = np.linalg.svd([[p.left.A, p.left.B], [p.right.A, p.right.B]], compute_uv=False)[..., 0]
    for label, pair, (a, b) in (("left", p.left, norms[0]), ("right", p.right, norms[1])):
        tol = SYMMETRY_RTOL * (1.0 + a * b)
        defect = pair.symmetry_defect()
        checks.append(Check(f"{label} pair B*A^T = A*B^T", defect <= tol, defect, tol))
    for label, pair in (("left", p.left), ("right", p.right)):
        ratio = pair.rank_ratio()
        checks.append(Check(f"{label} pair rank [A, B] = N", ratio > RANK_RTOL, ratio, RANK_RTOL))
    return tuple(checks)


# ---------------------------------------------------------------------------
# builtin catalog

def _dirichlet_problem(values: list[float]) -> Problem:
    """Constant P = diag(values) with Dirichlet data at both ends."""
    pair = BoundaryPair(np.eye(len(values)), np.zeros((len(values), len(values))))
    return Problem(ConstantDiagonalPotential(values), pair, pair)


_BUILTINS: dict[str, Callable[[], Problem]] = {
    "paper-example-2x2": lambda: _dirichlet_problem([-3.0, 0.0]),
    "scalar-zero": lambda: _dirichlet_problem([0.0]),
    "free-2x2": lambda: _dirichlet_problem([0.0, 0.0]),
}


def builtin_problem(name: str) -> Problem:
    """Construct a catalog problem by name.

    Known names: ``paper-example-2x2`` (P = diag(-3, 0), Dirichlet both ends,
    eigenvalue 1 has multiplicity 2), ``scalar-zero`` (N=1, P = 0, Dirichlet)
    and ``free-2x2`` (N=2, P = 0, Dirichlet).
    """
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise UnknownName(f"unknown builtin problem {name!r}; known: {sorted(_BUILTINS)}") from None


# ---------------------------------------------------------------------------
# serialization

def potential_to_csv_rows(pot: GridPotential) -> tuple[list[str], np.ndarray]:
    """CSV form of a grid potential: columns x, p11, p12, ..., pNN.

    Columns list the upper triangle in row-major order; the lower triangle is
    mirrored on load.
    """
    iu = np.triu_indices(pot.dimension)
    rows = np.column_stack([pot.grid.nodes] + [pot.samples[:, i, j] for i, j in zip(*iu)])
    return ["x"] + [f"p{i + 1}{j + 1}" for i, j in zip(*iu)], rows


def load_potential_csv(path: str) -> GridPotential:
    """Load a grid potential from the x, p11, ..., pNN CSV format."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"potential CSV {path!r} line {reader.line_num} has "
                                 f"{len(row)} fields; the header has {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"potential CSV {path!r} line {reader.line_num}: {exc}") from None
    data = np.array(rows)
    if data.size == 0:
        raise ValueError(f"potential CSV {path!r} has no data rows")
    k = len(header) - 1
    if k < 1:
        raise ValueError(f"potential CSV {path!r} has no potential columns after x")
    n_dim = int(round((np.sqrt(8 * k + 1) - 1) / 2))
    if n_dim * (n_dim + 1) // 2 != k:
        raise DimensionMismatch(f"{k} potential columns do not form an upper triangle")
    try:
        grid = Grid(data[:, 0])
    except ValueError as exc:
        raise ValueError(f"potential CSV {path!r}: {exc}") from None
    # columns are the upper triangle in row-major order, as potential_to_csv_rows writes it
    i, j = np.triu_indices(n_dim)
    samples = np.empty((grid.n, n_dim, n_dim))
    samples[:, i, j] = samples[:, j, i] = data[:, 1:]
    return GridPotential(grid, samples)


def _numbers(obj: dict, key: str, where: str) -> np.ndarray:
    """A float array from a JSON number or nested lists of them. numpy's inferred
    type flags a string, null or object; booleans read as 0 or 1, so 0s and 1s are typed."""
    try:
        a = np.array(obj[key])
        suspect = (a == 0) | (a == 1) if a.dtype.kind in "iuf" else np.ones(a.shape, bool)
        typed = np.array(obj[key], dtype=object)[suspect] if suspect.any() else ()
        if all(type(v) in (int, float) for v in typed):
            return a.astype(float)
    except (ValueError, OverflowError):     # ragged, or an integer beyond float range
        pass
    raise ValueError(f"{where} {key} must be an array of numbers")


def _string(obj: dict, key: str, where: str) -> str:
    if not isinstance(obj[key], str):
        raise ValueError(f"{where} {key} must be a string")
    return obj[key]


def potential_from_json_obj(obj: dict, base_dir: str = ".") -> MatrixPotential:
    kind = obj.get("kind")
    if kind == "constant-diagonal":
        return ConstantDiagonalPotential(_numbers(obj, "values", "potential"))
    if kind == "builtin":
        return builtin_problem(_string(obj, "name", "potential")).potential
    if kind == "grid":
        if "path" in obj:
            return load_potential_csv(os.path.join(base_dir, _string(obj, "path", "potential")))
        return GridPotential(Grid(_numbers(obj, "x", "potential")), _numbers(obj, "samples", "potential"))
    raise ValueError(f"potential kind must be builtin, constant-diagonal or grid, not {kind!r}")


def problem_to_json_obj(p: Problem) -> dict:
    return {
        "n": p.n,
        "potential": p.potential.to_json_obj(),
        "left": {"A": p.left.A.tolist(), "B": p.left.B.tolist()},
        "right": {"A": p.right.A.tolist(), "B": p.right.B.tolist()},
    }


def problem_from_json_obj(obj: dict, base_dir: str = ".") -> Problem:
    for name in ("problem", "potential", "left", "right"):
        if not isinstance(obj if name == "problem" else obj[name], dict):
            raise ValueError(f"{name} must be a JSON object")
    pot = potential_from_json_obj(obj["potential"], base_dir)
    n = obj["n"]
    if isinstance(n, bool) or not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
        raise ValueError(f"n must be an integer, not {n!r}")
    if pot.dimension != n:
        raise DimensionMismatch(f"declared n={n} but potential is {pot.dimension}x{pot.dimension}")

    def pair(end):
        return BoundaryPair(_numbers(obj[end], "A", end), _numbers(obj[end], "B", end))

    return Problem(pot, pair("left"), pair("right"))


def load_problem(path: str) -> Problem:
    with open(path) as f:
        obj = json.load(f)
    return problem_from_json_obj(obj, base_dir=os.path.dirname(os.path.abspath(path)))
