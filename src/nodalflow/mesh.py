"""Finite-difference discretization of H^1_0 on an interval or rectangle.

Interior nodes only (homogeneous Dirichlet boundary), lumped diagonal mass.
The stiffness operator A realizes the H^1_0 inner product u'Av ~ int grad u . grad v,
the mass operator M the L^2 product u'Mv ~ int u v.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class MeshError(ValueError):
    """Invalid grid specification or non-conforming field."""


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on an interval (dimension 1) or axis-aligned rectangle (dimension 2).

    ``n`` counts interior nodes per axis; spacing per axis is (b-a)/(n+1).
    """

    dimension: int
    bounds: tuple[tuple[float, float], ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise MeshError(f"dimension must be 1 or 2, got {self.dimension}")
        if len(self.bounds) != self.dimension or len(self.n) != self.dimension:
            raise MeshError("bounds and n must have one entry per axis")
        for (a, b) in self.bounds:
            if not b > a:
                raise MeshError(f"degenerate bounds ({a}, {b})")
        for k in self.n:
            if k < 2:
                raise MeshError(f"need at least 2 interior nodes per axis, got {k}")

    @staticmethod
    def interval(a: float, b: float, n: int) -> "GridSpec":
        return GridSpec(1, ((float(a), float(b)),), (int(n),))

    @staticmethod
    def rectangle(bounds, n) -> "GridSpec":
        bt = tuple((float(a), float(b)) for a, b in bounds)
        return GridSpec(2, bt, tuple(int(k) for k in n))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (k + 1) for (a, b), k in zip(self.bounds, self.n))

    @property
    def size(self) -> int:
        out = 1
        for k in self.n:
            out *= k
        return out

    def axis_nodes(self, axis: int) -> np.ndarray:
        (a, b), k = self.bounds[axis], self.n[axis]
        h = (b - a) / (k + 1)
        return a + h * np.arange(1, k + 1)

    def coords(self) -> np.ndarray:
        """Interior node coordinates, shape (size, dimension). C-order, x-major."""
        if self.dimension == 1:
            return self.axis_nodes(0)[:, None]
        xs, ys = self.axis_nodes(0), self.axis_nodes(1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def _stiffness_1d(n: int, h: float) -> sp.csc_matrix:
    main = np.full(n, 2.0 / h)
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc")


class DiscreteSpace:
    """Grid plus the operator pair (A, M) and a generalized eigenpair cache.

    Immutable after construction; all methods are pure.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        dim = grid.size
        h = grid.spacing
        if grid.dimension == 1:
            self.A = _stiffness_1d(grid.n[0], h[0])
            self.M_diag = np.full(dim, h[0])
        else:
            Tx = _stiffness_1d(grid.n[0], h[0])
            Ty = _stiffness_1d(grid.n[1], h[1])
            Ix = sp.identity(grid.n[0], format="csc")
            Iy = sp.identity(grid.n[1], format="csc")
            self.A = (h[1] * sp.kron(Tx, Iy) + h[0] * sp.kron(Ix, Ty)).tocsc()
            self.M_diag = np.full(dim, h[0] * h[1])
        self.dim = dim
        self._solver = spla.splu(self.A)
        # upper band storage of A: _A_band[bw + i - j, j] = A[i, j] for i <= j
        coo = self.A.tocoo()
        self._bw = bw = int(np.max(np.abs(coo.row - coo.col)))
        self._A_band = np.zeros((bw + 1, dim))
        for k in range(bw + 1):
            self._A_band[bw - k, k:] = self.A.diagonal(k)
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    # -- fields ---------------------------------------------------------

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise MeshError(f"field shape {u.shape} does not match grid size {self.dim}")
        return u

    def zero_field(self) -> np.ndarray:
        return np.zeros(self.dim)

    # -- inner products and norms ----------------------------------------

    def h1_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        u, v = self.check_field(u), self.check_field(v)
        return float(u @ (self.A @ v))

    def h1_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.h1_inner(u, u), 0.0)))

    def l2_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        u, v = self.check_field(u), self.check_field(v)
        return float(u @ (self.M_diag * v))

    def l2_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.l2_inner(u, u), 0.0)))

    def lp_norm(self, u: np.ndarray, p: float) -> float:
        u = self.check_field(u)
        if p == np.inf:
            return float(np.max(np.abs(u))) if self.dim else 0.0
        if p < 1:
            raise MeshError(f"lp_norm needs p >= 1 or p = inf, got {p}")
        return float(np.sum(self.M_diag * np.abs(u) ** p) ** (1.0 / p))

    def dual_norm(self, g: np.ndarray) -> float:
        """Riesz dual norm sqrt(g' A^-1 g) of a functional in coordinates."""
        g = self.check_field(g)
        return float(np.sqrt(max(g @ self.solve(g), 0.0)))

    def solve(self, g: np.ndarray) -> np.ndarray:
        """A^-1 g, the Riesz representative of the functional g."""
        return self._solver.solve(np.asarray(g, dtype=float))

    def solve_reduced(self, rhs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Solve A[idx,idx] x = rhs for an ascending index subset (used by
        active-set QPs).

        A principal submatrix of the band matrix A keeps A's bandwidth, so one
        banded Cholesky solve serves every grid."""
        m = len(idx)
        bw = min(self._bw, m - 1)
        sub = np.zeros((bw + 1, m))
        for k in range(bw + 1):
            gap = idx[k:] - idx[:m - k]
            near = gap <= self._bw
            sub[bw - k, k:][near] = self._A_band[self._bw - gap[near], idx[k:][near]]
        return scipy.linalg.solveh_banded(sub, rhs)

    # -- spectrum ---------------------------------------------------------

    def eigenpairs(self, k: int) -> list[tuple[float, np.ndarray]]:
        """First k generalized eigenpairs of A phi = lambda M phi.

        M-orthonormal, eigenvalues ascending, each phi sign-fixed so its
        largest-magnitude entry is positive (phi_1 comes out entrywise positive).
        """
        if not 1 <= k <= self.dim:
            raise MeshError(f"k must be in [1, {self.dim}], got {k}")
        if self._eigvals is None or len(self._eigvals) < k:
            self._compute_eigen(k)
        return [(float(self._eigvals[i]), self._eigvecs[:, i].copy()) for i in range(k)]

    def _compute_eigen(self, k: int):
        if self.dim <= 2000 or k >= self.dim - 1:
            A = self.A.toarray()
            M = np.diag(self.M_diag)
            vals, vecs = scipy.linalg.eigh(A, M)
        else:
            M = sp.diags(self.M_diag).tocsc()
            vals, vecs = spla.eigsh(self.A, k=k, M=M, sigma=0.0, which="LM")
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
        for i in range(vecs.shape[1]):
            j = int(np.argmax(np.abs(vecs[:, i])))
            if vecs[j, i] < 0:
                vecs[:, i] *= -1.0
        self._eigvals, self._eigvecs = vals, vecs

    @property
    def lambda1(self) -> float:
        return self.eigenpairs(1)[0][0]


def build_space(spec: GridSpec) -> DiscreteSpace:
    """Construct the discrete space; raises MeshError on an invalid spec."""
    return DiscreteSpace(spec)


def sign_changes(u: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Count sign alternations along a 1D nodal field, ignoring near-zero nodes."""
    u = np.asarray(u, dtype=float)
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return 0
    signs = np.sign(u[np.abs(u) > rel_tol * scale])
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


# -- CSV import/export ----------------------------------------------------

def field_to_csv(space: DiscreteSpace, u: np.ndarray, header_lines: tuple[str, ...] = ()) -> str:
    """Serialize a field as CSV rows of node coordinates plus value."""
    u = space.check_field(u)
    coords = space.grid.coords()
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    names = ["x", "y"][: space.grid.dimension]
    buf.write(",".join(names + ["value"]) + "\n")
    for row, val in zip(coords, u):
        buf.write(",".join(repr(float(c)) for c in row) + f",{float(val)!r}\n")
    return buf.getvalue()


def field_from_csv(space: DiscreteSpace, text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if header[-1] != "value":
        raise MeshError("field CSV must end with a 'value' column")
    vals = np.array([float(row[-1]) for row in reader])
    return space.check_field(vals)
