"""Coordinate Riemannian geometry on gridded fields.

Index conventions used throughout: component axes come first and any node
axes trail, while metric fields at the estimators keep numpy.linalg's
node-first layout ``([S,] N, n, n)``:

* ``g[i, j, ...]``            metric components g_ij
* ``dg[i, j, k, ...]``        first derivatives  d g_ij / d x_k
* ``d2g[i, j, k, l, ...]``    second derivatives d^2 g_ij / d x_k d x_l
* ``gamma[k, i, j, ...]``     Christoffel symbols Gamma^k_ij
* ``dgamma[k, i, j, l, ...]`` derivatives d Gamma^k_ij / d x_l
* ``riem[l, i, j, k, ...]``   curvature components R^l_ijk

The component formula implemented by :func:`riemann_at` is

    R^l_ijk = d_j Gamma^l_ik - d_i Gamma^l_jk
              + sum_p (Gamma^p_ik Gamma^l_jp - Gamma^p_jk Gamma^l_ip)

which is antisymmetric in (i, j).  With this ordering the plane spanned
by coordinate directions i < j has sectional curvature

    K_ij = -sum_l R^l_ijj g_li / (g_ii g_jj - g_ij^2)

with the square root of the denominator in ``paper_sqrt`` mode.  The sign
makes the round sphere positive: the metric diag(1, sin^2 x1) yields
K_12 = +1 and diag(1, exp(2 x1)) yields -1.  :func:`sectional_at` returns
(values, floored), ``values`` shaped (pairs, ...) and ``floored`` (...):
where a plane's squared area is at most PLANE_FLOOR it is floored to
PLANE_FLOOR and the node is marked in ``floored``, never raised on.
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


def unpack_symmetric(packed, n: int, axis: int) -> np.ndarray:
    """Symmetric tensors from upper triangles packed along ``axis``.

    The n(n+1)/2 components on ``axis``, in ``np.triu_indices(n)`` order,
    become two axes (i, j) in its place; the other axes are kept.
    """
    i, j = np.triu_indices(n)
    col = np.empty((n, n), dtype=int)
    col[i, j] = col[j, i] = np.arange(len(i))
    return np.take(np.asarray(packed, dtype=float), col, axis=axis)


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
    """Per-point Tikhonov weight that makes ``g[i, j, ...]`` safely invertible.

    Returns 0 where the smallest eigenvalue already clears the floor.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    w = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))[..., 0]
    tr = np.einsum("ii...->...", g)
    lam = np.where(w < EIG_FLOOR, np.maximum(REG_SCALE * tr / n, EIG_FLOOR - w), 0.0)
    return lam if lam.ndim else float(lam)


def christoffel(g, dg, d2g, lam=0.0):
    """Christoffel symbols of the Levi-Civita connection of ``g`` and their
    closed-form derivatives: (gamma, dgamma).

    Gamma^k_ij = 1/2 sum_m g^mk (d_j g_mi + d_i g_mj - d_m g_ij), where the
    inverse is taken of g + lam*Id, and d_l Gamma^k_ij follows from dg and
    d2g.  Raises DegenerateMetricError if that matrix is singular.
    """
    g, dg, d2g = (np.asarray(a, dtype=float) for a in (g, dg, d2g))
    lam = np.broadcast_to(np.asarray(lam, dtype=float), g.shape[2:])
    n = g.shape[0]
    try:
        ginv = np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1)) + lam[..., None, None] * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            f"metric not invertible even after regularization lambda={lam}"
        ) from exc
    # Index strings name the component axes; the batch axes trail ("...").
    ginv = np.ascontiguousarray(np.moveaxis(ginv, (-2, -1), (0, 1)))
    # term[m,i,j] = d_j g_mi + d_i g_mj - d_m g_ij, from dg[i,j,k] = d_k g_ij
    term = dg + dg.swapaxes(1, 2) - dg.transpose(2, 0, 1, *range(3, dg.ndim))
    # dterm[m,i,j,l] = d_l (d_j g_mi + d_i g_mj - d_m g_ij), from
    # d2g[i,j,k,l] = d_k d_l g_ij
    dterm = d2g + d2g.swapaxes(1, 2) - d2g.transpose(2, 0, 1, 3, *range(4, d2g.ndim))
    # dginv[m,k,l] = d_l g^mk = -sum_ab g^ma (d_l g_ab) g^bk
    dginv = -np.einsum("ma...,abl...,bk...->mkl...", ginv, dg, ginv)
    # gamma[k,i,j] = sum_m g^mk term[m,i,j] / 2, and its derivative
    # dgamma[k,i,j,l] = sum_m (d_l g^mk term[m,i,j] + g^mk dterm[m,i,j,l]) / 2
    gamma = np.einsum("mk...,mij...->kij...", ginv, term)
    dgamma = np.einsum("mkl...,mij...->kijl...", dginv, term) \
        + np.einsum("mk...,mijl...->kijl...", ginv, dterm)
    return 0.5 * gamma, 0.5 * dgamma


def riemann_at(gamma, dgamma):
    """Riemann curvature components R^l_ijk from Christoffel data.

    R^l_ijk = d_j Gamma^l_ik - d_i Gamma^l_jk
              + sum_p (Gamma^p_ik Gamma^l_jp - Gamma^p_jk Gamma^l_ip)
    """
    gamma, dgamma = np.asarray(gamma, dtype=float), np.asarray(dgamma, dtype=float)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(dgamma))):
        raise ValueError("Christoffel data must be finite")
    t1 = dgamma.swapaxes(2, 3)  # d_j Gamma^l_ik: dgamma[l,i,k,j] -> [l,i,j,k]
    t2 = np.moveaxis(dgamma, 3, 1)  # d_i Gamma^l_jk: dgamma[l,j,k,i] -> [l,i,j,k]
    q1 = np.einsum("pik...,ljp...->lijk...", gamma, gamma)  # Gamma^p_ik Gamma^l_jp
    q2 = np.einsum("pjk...,lip...->lijk...", gamma, gamma)  # Gamma^p_jk Gamma^l_ip
    return t1 - t2 + q1 - q2


def sectional_at(g, riem, mode: str = "standard"):
    """Sectional curvatures of all coordinate planes, pairs (i, j), i < j, in
    ``np.triu_indices(n, 1)`` (lexicographic) order.

    The numerator contracts the curvature components with the metric; the
    denominator is the squared plane area D = g_ii g_jj - g_ij^2 in
    ``standard`` mode and sqrt(D) in ``paper_sqrt`` mode.  Both modes share
    the same zero set and agree whenever the metric is the identity at the
    evaluation point.  The sign is normalized so spheres are positive.

    Returns (values, floored): ``values`` has shape (n(n-1)/2, ...) and
    ``floored`` (...) marks the nodes where some plane has D <= PLANE_FLOOR;
    there D is replaced by PLANE_FLOOR, never raised on.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g, riem = np.asarray(g, dtype=float), np.asarray(riem, dtype=float)
    i, j = np.triu_indices(g.shape[0], 1)
    # sum over l in order from +0 whatever the layout: the same bits anywhere
    num = np.zeros(i.shape + g.shape[2:])
    for term in riem[:, i, j, j] * g[:, i]:
        num = num + term
    den = g[i, i] * g[j, j] - g[i, j] ** 2
    bad = den <= PLANE_FLOOR
    den = np.where(bad, PLANE_FLOOR, den)
    if mode == "paper_sqrt":
        den = np.sqrt(den)
    return -num / den, bad.any(axis=0)


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
class SectionalCurvatureField:
    """Sectional curvature of every coordinate pair at every grid node.

    ``values`` is (N, n(n-1)/2), or (S, N, n(n-1)/2) for a stack of S
    fields on the same grid; node lists in ``diagnostics`` then index the
    stack set-major, node i of set s as s * N + i.
    """

    grid: TensorGrid
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expect = (self.grid.num_points, self.grid.n * (self.grid.n - 1) // 2)
        if values.ndim not in (2, 3) or values.shape[-2:] != expect:
            raise ValueError(
                f"sectional values must have shape ([S,] {expect[0]}, {expect[1]})"
            )
        object.__setattr__(self, "values", values)

    def as_grid(self) -> np.ndarray:
        """Values reshaped to ([S,] *grid.shape, n_pairs)."""
        return self.values.reshape(self.values.shape[:-2] + self.grid.shape + (-1,))


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
    if fld.values.ndim != 2:
        raise ValueError("l2_curvature_score takes a one-set field")
    check_trim(grid.shape, trim)
    kept = [a[trim:-trim] for a in grid.axes]
    kgrid = fld.as_grid()[tuple(slice(trim, -trim) for _ in grid.axes)]
    weights = _trapezoid_weights(kept[0])
    for a in kept[1:]:
        weights = np.multiply.outer(weights, _trapezoid_weights(a))
    total = float(np.sum(weights[..., None] * kgrid**2))
    return float(np.sqrt(total))
