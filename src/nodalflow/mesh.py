"""Finite-difference discretization of H^1_0 on an interval or rectangle.

Interior nodes only (homogeneous Dirichlet boundary), lumped diagonal mass.
The stiffness operator A realizes the H^1_0 inner product u'Av ~ int grad u . grad v,
the mass operator M the L^2 product u'Mv ~ int u v.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from ._serial import csv_text


class MeshError(ValueError):
    """Invalid grid specification or non-conforming field."""


# eigenvalues this close (relative) are one eigenvalue computed in two rounding orders
EIGEN_TIE_RTOL = 1e-12
# sign_changes ignores nodes below this fraction of the field's sup norm
SIGN_CHANGE_RTOL = 1e-8


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

    Results are pure functions of the arguments; the state behind them is the
    eigenpair cache.
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
        # A[j - d, j] by column j, for each offset d > 0 of a diagonal that
        # holds entries of A: 1 in 1D, 1 and n_y in 2D
        coo = self.A.tocoo()
        offsets = np.unique(coo.col - coo.row)
        self._diag = self.A.diagonal()
        self._upper = {int(d): np.concatenate((np.zeros(d), self.A.diagonal(d)))
                       for d in offsets[offsets > 0]}
        self._bw = max(self._upper)
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    def __reduce__(self):
        # copies and pickles rebuild from the grid: the factorization can be
        # neither copied nor pickled
        return DiscreteSpace, (self.grid,)

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
        rhs = np.asarray(rhs, dtype=float)
        # the LAPACK calls do not check their input; solveh_banded did
        if not np.all(np.isfinite(rhs)):
            raise ValueError("array must not contain infs or NaNs")
        idx = np.asarray(idx, dtype=np.intp)
        return _band_solve(self._reduced_band(idx), rhs)

    def _reduced_band(self, idx: np.ndarray) -> np.ndarray:
        """Upper band storage of A[idx,idx]: sub[bw + i - j, j] = A[idx_i, idx_j].

        Each diagonal offset d of A pairs node idx_j with idx_j - d; where that
        node is in the subset, at position p, the entry lands at compressed
        distance j - p <= d.  ``searchsorted`` gives p <= j, so every lookup is
        in range.  The band is cut to min(bw, m-1) rows."""
        m = len(idx)
        bw = min(self._bw, m - 1)
        sub = np.zeros((bw + 1, m))
        sub[bw] = self._diag[idx]
        for d, diagonal in self._upper.items():
            pos = np.searchsorted(idx, idx - d)
            cols = np.flatnonzero(idx[pos] == idx - d)
            sub[bw - cols + pos[cols], cols] = diagonal[idx[cols]]
        return sub

    # -- spectrum ---------------------------------------------------------

    def eigenpairs(self, k: int) -> list[tuple[float, np.ndarray]]:
        """First k generalized eigenpairs of A phi = lambda M phi.

        M-orthonormal sine modes, eigenvalues ascending, each positive at the first
        node; eigenvalues within EIGEN_TIE_RTOL (relative) go by mode index (i, j).
        """
        if not 1 <= k <= self.dim:
            raise MeshError(f"k must be in [1, {self.dim}], got {k}")
        if self._eigvals is None or len(self._eigvals) < k:
            self._compute_eigen(k)
        return [(float(self._eigvals[i]), self._eigvecs[:, i].copy()) for i in range(k)]

    def _compute_eigen(self, k: int):
        """Closed form for the uniform 3-point (1D) or 5-point (2D) Dirichlet pair
        with lumped mass: phi_ij(x_a, y_b) = prod over axes of sqrt(2/L) sin(i pi a/(n+1)),
        lambda_ij = sum over axes of (2/h sin(i pi/(2(n+1))))^2 (2 - 2cos would cancel)."""
        n, vals = self.grid.n, np.zeros(1)
        for nk, hk in zip(n, self.grid.spacing):
            mu = (2.0 / hk * np.sin(np.arange(1, nk + 1) * np.pi / (2 * nk + 2))) ** 2
            vals = np.add.outer(vals, mu).ravel()
        order = np.argsort(vals)
        # the modes of one cluster of equal eigenvalues go by flat index, the (i, j) order
        cluster = np.cumsum(np.r_[True, np.diff(vals[order]) > EIGEN_TIE_RTOL * vals[order][1:]])
        order = order[np.lexsort((order, cluster))][:k]
        vecs = np.ones((1, k))
        for nk, (a, b), i in zip(n, self.grid.bounds, np.unravel_index(order, n)):
            arg = np.outer(np.arange(1, nk + 1), i + 1) * (np.pi / (nk + 1))
            vecs = (vecs[:, None, :] * (np.sqrt(2.0 / (b - a)) * np.sin(arg))).reshape(-1, k)
        self._eigvals, self._eigvecs = vals[order], vecs

    @cached_property
    def lambda1(self) -> float:
        return self.eigenpairs(1)[0][0]

    @cached_property
    def condition(self) -> float:
        """Gershgorin bound on lambda_max / lambda_1 of A phi = lambda M phi."""
        rows = np.asarray(abs(self.A).sum(axis=1)).ravel() / self.M_diag
        return float(rows.max()) / self.lambda1


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with an upper-form positive definite band: factor, then the two
    triangular solves.

    ``scipy.linalg.solveh_banded`` takes ?ptsv (pttrf, then pttrs) for a
    two-row band and ?pbsv (pbtrf, then pbtrs) otherwise.  The same LAPACK
    pair is used here, so the result is bit-identical to it."""
    if band.shape[0] == 2:
        d, e, info = lapack.dpttrf(band[1], band[0, 1:])
        solve = partial(lapack.dpttrs, d, e)
    else:
        c, info = lapack.dpbtrf(band)
        solve = partial(lapack.dpbtrs, c)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    return solve(rhs)[0]


def build_space(spec: GridSpec) -> DiscreteSpace:
    """Construct the discrete space; raises MeshError on an invalid spec."""
    return DiscreteSpace(spec)


def sign_changes(u: np.ndarray) -> int:
    """Count sign alternations along a 1D nodal field, ignoring near-zero nodes."""
    u = np.asarray(u, dtype=float)
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return 0
    signs = np.sign(u[np.abs(u) > SIGN_CHANGE_RTOL * scale])
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


# -- CSV import/export ----------------------------------------------------

def field_to_csv(space: DiscreteSpace, u: np.ndarray, header_lines: tuple[str, ...] = ()) -> str:
    """Serialize a field as CSV rows of node coordinates plus value."""
    u = space.check_field(u)
    names = ["x", "y"][: space.grid.dimension]
    return csv_text(header_lines, names + ["value"],
                    np.column_stack([space.grid.coords(), u]).tolist())


def field_from_csv(space: DiscreteSpace, text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if header[-1] != "value":
        raise MeshError("field CSV must end with a 'value' column")
    vals = np.array([float(row[-1]) for row in reader])
    if not np.isfinite(vals).all():
        raise MeshError("field CSV values must be finite")
    return space.check_field(vals)
