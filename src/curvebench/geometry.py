"""Coordinate Riemannian geometry on gridded fields.

Index conventions used throughout (all functions accept leading batch
dimensions):

* ``g[..., i, j]``            metric components g_ij
* ``dg[..., i, j, k]``        first derivatives  d g_ij / d x_k
* ``d2g[..., i, j, k, l]``    second derivatives d^2 g_ij / d x_k d x_l
* ``gamma[..., k, i, j]``     Christoffel symbols Gamma^k_ij
* ``dgamma[..., k, i, j, l]`` derivatives d Gamma^k_ij / d x_l
* ``riem[..., l, i, j, k]``   curvature components R^l_ijk

The component formula implemented by :func:`riemann_at` is

    R^l_ijk = d_j Gamma^l_ik - d_i Gamma^l_jk
              + sum_p (Gamma^p_ik Gamma^l_jp - Gamma^p_jk Gamma^l_ip)

which is antisymmetric in (i, j).  With this ordering the plane spanned
by coordinate directions i < j has sectional curvature

    K_ij = -sum_l R^l_ijj g_li / (g_ii g_jj - g_ij^2)

with the square root of the denominator in ``paper_sqrt`` mode.  The sign
makes the round sphere positive: the metric diag(1, sin^2 x1) yields
K_12 = +1 and diag(1, exp(2 x1)) yields -1.  :func:`sectional_at` returns
(values, floored): where a plane's squared area is at most PLANE_FLOOR it
is floored to PLANE_FLOOR and the node is marked in ``floored``, never
raised on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError

MODES = ("standard", "paper_sqrt")

# eigenvalue floor below which a metric counts as degenerate
EIG_FLOOR = 1e-10
# relative Tikhonov weight used to regularize degenerate metrics
REG_SCALE = 1e-8
# plane-area floor for the sectional denominator
PLANE_FLOOR = 1e-12


def pair_indices(n: int):
    """Unordered coordinate pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def sym_indices(n: int):
    """Upper-triangle index pairs (i, j), i <= j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def unpack_symmetric(packed, n: int) -> np.ndarray:
    """Symmetric tensors from upper triangles packed along axis 1.

    ``packed`` has shape (Q, n(n+1)/2, ...) in :func:`sym_indices` order;
    the result has shape (Q, n, n, ...), trailing axes kept.
    """
    col = np.empty((n, n), dtype=int)
    for idx, (i, j) in enumerate(sym_indices(n)):
        col[i, j] = col[j, i] = idx
    return np.take(np.asarray(packed, dtype=float), col, axis=1)


def pullback_from_jacobian(J):
    """Pullback of the Euclidean metric under a map with Jacobian ``J``.

    ``J`` has shape (..., m, n) with column i holding df/dx_i; the result
    is J^T J with shape (..., n, n).
    """
    J = np.asarray(J, dtype=float)
    if not np.all(np.isfinite(J)):
        raise ValueError("Jacobian entries must be finite")
    return np.einsum("...ai,...aj->...ij", J, J)


def regularization_for(g):
    """Per-point Tikhonov weight that makes ``g`` safely invertible.

    Returns 0 where the smallest eigenvalue already clears the floor.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    w = np.linalg.eigvalsh(g)[..., 0]
    tr = np.einsum("...ii->...", g)
    lam = np.where(w < EIG_FLOOR, np.maximum(REG_SCALE * tr / n, EIG_FLOOR - w), 0.0)
    return lam if lam.ndim else float(lam)


def _metric_bracket(dg):
    # term[m, i, j] = d_j g_mi + d_i g_mj - d_m g_ij, from dg[i, j, k] = d_k g_ij
    nb = dg.ndim - 3
    a = dg.transpose(*range(nb), nb, nb + 2, nb + 1)  # a[m,i,j] = dg[m,j,i] = d_i g_mj
    b = dg                                            # b[m,i,j] = dg[m,i,j] = d_j g_mi
    c = dg.transpose(*range(nb), nb + 2, nb, nb + 1)  # c[m,i,j] = dg[i,j,m] = d_m g_ij
    return b + a - c


def christoffel(g, dg, d2g, lam=0.0):
    """Christoffel symbols of the Levi-Civita connection of ``g`` and their
    closed-form derivatives: (gamma, dgamma).

    Gamma^k_ij = 1/2 sum_m g^mk (d_j g_mi + d_i g_mj - d_m g_ij), where the
    inverse is taken of g + lam*Id, and d_l Gamma^k_ij follows from dg and
    d2g.  Raises DegenerateMetricError if that matrix is singular.
    """
    g = np.asarray(g, dtype=float)
    dg = np.asarray(dg, dtype=float)
    d2g = np.asarray(d2g, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), g.shape[:-2])
    try:
        ginv = np.linalg.inv(g + lam[..., None, None] * np.eye(g.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            f"metric not invertible even after regularization lambda={lam}"
        ) from exc
    term = _metric_bracket(dg)
    gamma = 0.5 * np.einsum("...mk,...mij->...kij", ginv, term)
    # d_l g^mk = -g^ma (d_l g_ab) g^bk
    dginv = -np.einsum("...ma,...abl,...bk->...mkl", ginv, dg, ginv)
    # dterm[m,i,j,l] = d_l (d_j g_mi + d_i g_mj - d_m g_ij), from
    # d2g[i,j,k,l] = d_k d_l g_ij:
    nb = d2g.ndim - 4
    t_ji = d2g                                            # [m,i,j,l] = d_l d_j g_mi
    t_ij = d2g.swapaxes(-3, -2)                           # [m,i,j,l] = d2g[m,j,i,l]
    t_m = d2g.transpose(*range(nb), nb + 2, nb, nb + 1, nb + 3)  # = d2g[i,j,m,l]
    dterm = t_ji + t_ij - t_m
    dgamma = 0.5 * (
        np.einsum("...mkl,...mij->...kijl", dginv, term)
        + np.einsum("...mk,...mijl->...kijl", ginv, dterm)
    )
    return gamma, dgamma


def riemann_at(gamma, dgamma):
    """Riemann curvature components R^l_ijk from Christoffel data.

    R^l_ijk = d_j Gamma^l_ik - d_i Gamma^l_jk
              + sum_p (Gamma^p_ik Gamma^l_jp - Gamma^p_jk Gamma^l_ip)
    """
    gamma = np.asarray(gamma, dtype=float)
    dgamma = np.asarray(dgamma, dtype=float)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(dgamma))):
        raise ValueError("Christoffel data must be finite")
    nb = gamma.ndim - 3
    # d_j Gamma^l_ik : dgamma[l, i, k, j] -> out[l, i, j, k]
    t1 = dgamma.transpose(*range(nb), nb, nb + 1, nb + 3, nb + 2)
    # d_i Gamma^l_jk : dgamma[l, j, k, i] -> out[l, i, j, k]
    t2 = dgamma.transpose(*range(nb), nb, nb + 3, nb + 1, nb + 2)
    q1 = np.einsum("...pik,...ljp->...lijk", gamma, gamma)
    q2 = np.einsum("...pjk,...lip->...lijk", gamma, gamma)
    return t1 - t2 + q1 - q2


def sectional_at(g, riem, mode: str = "standard"):
    """Sectional curvatures of all coordinate planes, pairs (i, j), i < j.

    The numerator contracts the curvature components with the metric; the
    denominator is the squared plane area D = g_ii g_jj - g_ij^2 in
    ``standard`` mode and sqrt(D) in ``paper_sqrt`` mode.  Both modes share
    the same zero set and agree whenever the metric is the identity at the
    evaluation point.  The sign is normalized so spheres are positive.

    Returns (values, floored): ``values`` has shape (..., n(n-1)/2) and
    ``floored`` (...) marks the nodes where some plane has D <= PLANE_FLOOR;
    there D is replaced by PLANE_FLOOR, never raised on.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g = np.asarray(g, dtype=float)
    riem = np.asarray(riem, dtype=float)
    n = g.shape[-1]
    pairs = pair_indices(n)
    out = np.empty(g.shape[:-2] + (len(pairs),))
    floored = np.zeros(g.shape[:-2], dtype=bool)
    for idx, (i, j) in enumerate(pairs):
        num = -np.einsum("...l,...l->...", riem[..., :, i, j, j], g[..., :, i])
        den = g[..., i, i] * g[..., j, j] - g[..., i, j] ** 2
        bad = den <= PLANE_FLOOR
        floored |= bad
        den = np.where(bad, PLANE_FLOOR, den)
        if mode == "paper_sqrt":
            den = np.sqrt(den)
        out[..., idx] = num / den
    return out, floored


@dataclass(frozen=True)
class TensorGrid:
    """Full tensor grid over a box, defined by per-axis node positions."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        for a in axes:
            if (a.ndim != 1 or a.size < 2 or not np.all(np.isfinite(a))
                    or np.any(np.diff(a) <= 0)):
                raise ValueError("each axis must be a strictly increasing, finite 1-D array")
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All grid nodes as an (N, n) array in row-major axis order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def unit_grid(n: int, resolution: int) -> TensorGrid:
    """Equispaced tensor grid with nodes i/(resolution-1) on [0, 1]^n."""
    if resolution < 4:
        raise ValueError(
            "resolution must be >= 4 (cubic-spline estimation needs 4 nodes per axis)"
        )
    axis = np.arange(resolution) / (resolution - 1)
    return TensorGrid(tuple(axis for _ in range(n)))


@dataclass(frozen=True)
class MetricField:
    """Symmetric metric matrices on a tensor grid, upper triangle stored."""

    grid: TensorGrid
    packed: np.ndarray  # (N, n(n+1)/2) upper-triangle components

    def __post_init__(self):
        packed = np.asarray(self.packed, dtype=float)
        expect = len(sym_indices(self.grid.n))
        if packed.ndim != 2 or packed.shape != (self.grid.num_points, expect):
            raise ValueError(
                f"packed metric must have shape ({self.grid.num_points}, {expect})"
            )
        object.__setattr__(self, "packed", packed)

    @property
    def n(self) -> int:
        return self.grid.n

    def matrices(self) -> np.ndarray:
        """Full symmetric (N, n, n) copy of the stored upper triangles."""
        return unpack_symmetric(self.packed, self.n)

    @classmethod
    def from_matrices(cls, grid: TensorGrid, mats):
        mats = np.asarray(mats, dtype=float)
        n = grid.n
        if mats.shape != (grid.num_points, n, n):
            raise ValueError("metric array must have shape (N, n, n)")
        sym = 0.5 * (mats + mats.swapaxes(-1, -2))
        packed = np.stack([sym[:, i, j] for (i, j) in sym_indices(n)], axis=1)
        return cls(grid=grid, packed=packed)


@dataclass(frozen=True)
class SectionalCurvatureField:
    """Sectional curvature of every coordinate pair at every grid node."""

    grid: TensorGrid
    values: np.ndarray  # (N, n(n-1)/2)
    mode: str = "standard"
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expect = len(pair_indices(self.grid.n))
        if values.shape != (self.grid.num_points, expect):
            raise ValueError(
                f"sectional values must have shape ({self.grid.num_points}, {expect})"
            )
        object.__setattr__(self, "values", values)

    def as_grid(self) -> np.ndarray:
        """Values reshaped to (*grid.shape, n_pairs)."""
        return self.values.reshape(*self.grid.shape, -1)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.empty_like(axis)
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


def check_trim(shape, trim: int) -> None:
    """Raise ValueError unless ``trim`` keeps >= 2 interior nodes per axis."""
    if trim < 1:
        raise ValueError("trim must be >= 1")
    for size in shape:
        if size - 2 * trim < 2:
            raise ValueError(
                f"trim={trim} leaves fewer than 2 interior nodes on an axis of size {size}"
            )


def l2_curvature_score(fld: SectionalCurvatureField, trim: int = 2) -> float:
    """L2 norm of all sectional curvatures over the trimmed grid interior.

    sqrt( sum_{i<j} integral K_ij^2 dV ), trapezoidal rule on the tensor
    grid after removing ``trim`` node layers from every boundary side.
    """
    trim = int(trim)
    grid = fld.grid
    check_trim(grid.shape, trim)
    kept = [a[trim:-trim] for a in grid.axes]
    kgrid = fld.as_grid()[tuple(slice(trim, -trim) for _ in grid.axes)]
    weights = _trapezoid_weights(kept[0])
    for a in kept[1:]:
        weights = np.multiply.outer(weights, _trapezoid_weights(a))
    total = float(np.sum(weights[..., None] * kgrid**2))
    return float(np.sqrt(total))
