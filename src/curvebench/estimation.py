"""Estimate pullback metrics and sectional curvature from point samples.

Two routes, selected by :class:`EstimationConfig.method`:

``function_spline``
    Tensor-product cubic splines (not-a-knot) interpolate the sampled map
    component-wise; the metric and its first two derivatives follow from
    spline derivatives of the map (orders 1..3) by the product rule.

``metric_knn``
    The pullback metric is first estimated at every grid node by a
    least-squares fit over K-nearest-neighbor difference vectors, then the
    metric components themselves are splined so only two derivative orders
    of the (noisier) spline are ever taken.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.interpolate import NdBSpline, make_interp_spline

from . import geometry
from .errors import MetricEstimationError
from .geometry import (
    EIG_FLOOR,
    MetricField,
    SectionalCurvatureField,
    TensorGrid,
    christoffel,
    l2_curvature_score,
    regularization_for,
    riemann_at,
    sectional_at,
    sym_indices,
    unpack_symmetric,
)
from .neighbors import nearest_neighbors, squared_distance


def fit_spline(grid: TensorGrid, samples) -> NdBSpline:
    """Interpolating cubic spline (not-a-knot) of row-aligned grid samples.

    ``samples`` is (N, c) with rows in the grid's row-major order; the
    spline's coefficients are (*basis_shape, c), so a call at (Q, n) points
    returns (Q, c).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != grid.num_points:
        raise ValueError(
            f"expected {grid.num_points} sample rows aligned with the grid, "
            f"got shape {samples.shape}"
        )
    if any(size < 4 for size in grid.shape):
        raise ValueError("cubic splines need at least 4 nodes per axis")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")

    coeffs = samples.reshape(*grid.shape, samples.shape[1])
    knots = []
    for ax, nodes in enumerate(grid.axes):
        spl = make_interp_spline(nodes, coeffs, k=3, axis=ax)
        knots.append(spl.t)
        coeffs = np.moveaxis(spl.c, 0, ax)
    return NdBSpline(tuple(knots), coeffs, k=3)


def _spline_derivatives(spline: NdBSpline, pts, order: int) -> np.ndarray:
    """All partial derivatives of total ``order`` of ``spline`` at ``pts``.

    Returns the symmetric (Q, c, n, ..., n) tensor with ``order`` trailing
    axes; one spline call per sorted index tuple fills every permutation.
    """
    n = len(spline.t)
    out = np.empty((pts.shape[0], spline.c.shape[-1]) + (n,) * order)
    for axes in combinations_with_replacement(range(n), order):
        nu = [0] * n
        for axis in axes:
            nu[axis] += 1
        vals = spline(pts, nu=nu)
        for perm in set(permutations(axes)):
            out[(slice(None), slice(None)) + perm] = vals
    return out


@dataclass(frozen=True)
class EstimationConfig:
    """Estimator selection and its knobs."""

    method: str = "metric_knn"
    k_neighbors: int = 8
    trim: int = 2
    mode: str = "standard"
    rescale_output: bool = True

    def __post_init__(self):
        if self.method not in ("function_spline", "metric_knn"):
            raise ValueError(
                f"method must be 'function_spline' or 'metric_knn', got {self.method!r}"
            )
        if self.mode not in geometry.MODES:
            raise ValueError(f"mode must be one of {geometry.MODES}")
        if self.trim < 1:
            raise ValueError("trim must be >= 1")


def rescale_to_unit_box(points) -> np.ndarray:
    """Affine per-coordinate rescale onto the unit bounding box.

    Collapsed coordinates (zero extent) are only re-centered.
    """
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    extent = points.max(axis=0) - lo
    extent = np.where(extent > 0, extent, 1.0)
    return (points - lo) / extent


# nodes per stacked least-squares call: bounds the design array's memory
KNN_CHUNK = 256
# (grid, k) neighbor tables kept per process by knn_stencil, N*k*8 bytes each;
# a score's two passes, and a run of scores, use one (grid, k)
STENCIL_CACHE_SIZE = 2


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _solve_knn(v, w):
    """The stacked least-squares solve of :func:`fit_knn_metrics` on neighbor
    differences ``v`` (B, K, n) and ``w`` (B, K, m), rows already in the
    canonical order."""
    num, k, n = v.shape
    targets = (w @ w.swapaxes(-1, -2)).reshape(num, k * k, 1)
    pairs = sym_indices(n)
    design = np.empty((num, k * k, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        block = v[:, :, None, a] * v[:, None, :, b]
        if a != b:
            block = block + v[:, :, None, b] * v[:, None, :, a]
        design[:, :, col] = block.reshape(num, k * k)
    rcond = np.finfo(float).eps * max(k * k, len(pairs))
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        solution, _, rank, _ = _umath_linalg.lstsq(
            design, targets, rcond, signature="ddd->ddid"
        )
    mats = unpack_symmetric(solution[..., 0], n)
    failed = np.nonzero(rank < len(pairs))[0]
    mats[failed] = EIG_FLOOR * np.eye(n)
    return mats, failed


def _canonical_order(neighbors, image_neighbors=None):
    """Canonical row order of each node's neighbors: by source coordinates,
    first axis first, then by image coordinates."""
    keys = tuple(neighbors[..., c] for c in range(neighbors.shape[-1] - 1, -1, -1))
    if image_neighbors is not None:
        keys = tuple(image_neighbors[..., c]
                     for c in range(image_neighbors.shape[-1] - 1, -1, -1)) + keys
    return np.lexsort(keys, axis=-1)


def fit_knn_metrics(x, neighbors, image_x, image_neighbors):
    """Least-squares pullback metrics at B nodes from K neighbor differences.

    ``x`` is (B, n), ``neighbors`` (B, K, n), ``image_x`` (B, m) and
    ``image_neighbors`` (B, K, m).  At each node the symmetric matrix A
    minimizing sum_{i,j} (v_i^T A v_j - t_ij)^2 over all K^2 neighbor pairs
    is fitted, where v_i = neighbors[i] - x and t_ij is the scalar product
    of the image differences.  Exact for linear maps.  Each node's rows are
    put in a canonical order first, so any permutation of its neighbors
    gives a bit-identical result.  All B fits are one call of the gufunc
    behind ``np.linalg.lstsq``, with its default ``rcond``, so each node's
    result equals a ``np.linalg.lstsq`` fit bit for bit.

    Returns (mats (B, n, n), failed): ``failed`` indexes the nodes whose
    neighbor vectors do not span the source space (rank-deficient fit);
    their matrices are ``EIG_FLOOR * I``.
    """
    x, neighbors, image_x, image_neighbors = (
        np.asarray(a, dtype=float) for a in (x, neighbors, image_x, image_neighbors)
    )
    if not all(
        np.all(np.isfinite(a)) for a in (x, neighbors, image_x, image_neighbors)
    ):
        raise ValueError("knn metric fit inputs must be finite")
    if neighbors.ndim != 3 or image_neighbors.ndim != 3:
        raise ValueError("neighbors and image_neighbors must be (B, K, dim) stacks")
    num, k, n = neighbors.shape
    if image_neighbors.shape[:2] != (num, k):
        raise ValueError("neighbors and image_neighbors must have matching rows")
    if x.shape != (num, n) or image_x.shape != (num, image_neighbors.shape[2]):
        raise ValueError("x and image_x must hold one row per node")
    if k <= n:
        raise ValueError(
            f"need more neighbors than source dimensions (K > n); got K={k}, n={n}"
        )

    order = _canonical_order(neighbors, image_neighbors)[..., None]
    v = np.take_along_axis(neighbors, order, axis=1) - x[:, None, :]
    w = np.take_along_axis(image_neighbors, order, axis=1) - image_x[:, None, :]
    return _solve_knn(v, w)


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _cached_stencil(axes_bytes, k):
    pts = TensorGrid(tuple(np.frombuffer(b) for b in axes_bytes)).points()
    nn = nearest_neighbors(pts, k, key=squared_distance)
    nn = np.take_along_axis(nn, _canonical_order(pts[nn]), axis=1)
    nn.flags.writeable = False
    return nn


def knn_stencil(grid: TensorGrid, k: int) -> np.ndarray:
    """The (N, k) nearest-neighbor table of ``grid``'s nodes, each row in the
    canonical order of :func:`fit_knn_metrics`, cached per (axes, k).

    The nodes of a tensor grid are distinct, so the source coordinates alone
    fix the order and the image never breaks a tie: fitting these rows
    directly equals :func:`fit_knn_metrics` bit for bit.  The table is
    read-only.
    """
    return _cached_stencil(tuple(a.tobytes() for a in grid.axes), int(k))


def knn_metric_at(x, neighbors, image_x, image_neighbors) -> np.ndarray:
    """Least-squares pullback metric at one node: :func:`fit_knn_metrics`
    for B = 1, raising :class:`MetricEstimationError` when the neighbor
    vectors do not span the source space."""
    mats, failed = fit_knn_metrics(
        np.reshape(x, (1, -1)), np.atleast_2d(neighbors)[None],
        np.reshape(image_x, (1, -1)), np.atleast_2d(image_neighbors)[None],
    )
    if failed.size:
        raise MetricEstimationError(
            "neighbor vectors do not span the source space; metric fit is rank-deficient"
        )
    return mats[0]


def estimate_metric_knn(grid: TensorGrid, f_samples, k_neighbors: int):
    """KNN least-squares metric at every grid node.

    The neighbors come from :func:`knn_stencil`, so each (grid, k) is
    searched once per process; the nodes are fitted :data:`KNN_CHUNK` at a
    time.  Returns (MetricField, diagnostics).  Eigenvalues below the
    inversion floor are clamped so curvature can proceed; clamped and failed
    nodes are listed in the diagnostics.
    """
    f_samples = np.asarray(f_samples, dtype=float)
    pts = grid.points()
    n = grid.n
    if f_samples.shape[0] != pts.shape[0]:
        raise ValueError("f_samples rows must align with the grid rows")
    if k_neighbors <= n:
        raise ValueError(f"k_neighbors must exceed n={n}")
    if not np.all(np.isfinite(f_samples)):
        raise ValueError("knn metric fit inputs must be finite")

    stencil = knn_stencil(grid, k_neighbors)
    mats = np.empty((pts.shape[0], n, n))
    failed = []
    for start in range(0, pts.shape[0], KNN_CHUNK):
        rows = slice(start, start + KNN_CHUNK)
        idx = stencil[rows]
        mats[rows], bad = _solve_knn(pts[idx] - pts[rows, None, :],
                                     f_samples[idx] - f_samples[rows, None, :])
        failed.extend(start + int(i) for i in bad)

    w, vecs = np.linalg.eigh(mats)
    clamped = np.nonzero(np.any(w < EIG_FLOOR, axis=1))[0]
    if clamped.size:
        w = np.maximum(w, EIG_FLOOR)
        mats = np.einsum("nij,nj,nkj->nik", vecs, w, vecs)
    diagnostics = {
        "failed_nodes": failed,
        "clamped_nodes": [int(i) for i in clamped],
    }
    return MetricField.from_matrices(grid, mats), diagnostics


def _sectional_from_metric_data(grid, g, dg, d2g, mode):
    """Shared tail of both estimators: metric data -> sectional field."""
    lam = regularization_for(g)
    degenerate = [int(i) for i in np.nonzero(lam > 0)[0]]
    riem = riemann_at(*christoffel(g, dg, d2g, lam))
    values, floored = sectional_at(g, riem, mode)
    diagnostics = {
        "degenerate_nodes": degenerate,
        "floored_plane_nodes": [int(i) for i in np.nonzero(floored)[0]],
        "regularization": float(lam.max()) if degenerate else 0.0,
    }
    return SectionalCurvatureField(grid=grid, values=values, mode=mode, diagnostics=diagnostics)


def _prepare_samples(f_samples, config: EstimationConfig, method: str):
    """Check the method; return the (N, c), optionally rescaled, samples."""
    if config.method != method:
        raise ValueError(f"config.method must be {method!r}")
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.ndim == 1:
        f_samples = f_samples[:, None]
    if config.rescale_output:
        f_samples = rescale_to_unit_box(f_samples)
    return f_samples


def estimate_curvature_via_function(grid, f_samples, config: EstimationConfig):
    """Sectional curvature via spline interpolation of the sampled map.

    The pullback metric g = J^T J and its first two derivatives are formed
    from spline derivatives of f (orders 1..3) by the product rule, then
    fed through the Christoffel/Riemann/sectional chain at every node.
    """
    f_samples = _prepare_samples(f_samples, config, "function_spline")
    spline = fit_spline(grid, f_samples)
    pts = grid.points()

    # derivative tensors of f: d1[q, c, i], d2[q, c, i, j], d3[q, c, i, j, l]
    d1, d2, d3 = (_spline_derivatives(spline, pts, order) for order in (1, 2, 3))
    g = np.einsum("qci,qcj->qij", d1, d1)
    dg = np.einsum("qcik,qcj->qijk", d2, d1) + np.einsum("qci,qcjk->qijk", d1, d2)
    d2g = (
        np.einsum("qcikl,qcj->qijkl", d3, d1)
        + np.einsum("qcik,qcjl->qijkl", d2, d2)
        + np.einsum("qcil,qcjk->qijkl", d2, d2)
        + np.einsum("qci,qcjkl->qijkl", d1, d3)
    )
    return _sectional_from_metric_data(grid, g, dg, d2g, config.mode)


def curvature_from_metric_field(metric: MetricField, config: EstimationConfig):
    """Sectional curvature of a sampled metric, derivatives from splines.

    Each of the n(n+1)/2 stored components is splined over the grid; the
    metric and its first two derivatives are then read off the splines.
    """
    grid = metric.grid
    spline = fit_spline(grid, metric.packed)
    pts = grid.points()
    g, dg, d2g = (
        unpack_symmetric(_spline_derivatives(spline, pts, order), grid.n)
        for order in (0, 1, 2)
    )
    return _sectional_from_metric_data(grid, g, dg, d2g, config.mode)


def estimate_curvature_via_metric(grid, f_samples, config: EstimationConfig):
    """Sectional curvature via KNN metric estimation plus metric splines."""
    f_samples = _prepare_samples(f_samples, config, "metric_knn")
    metric, knn_diag = estimate_metric_knn(grid, f_samples, config.k_neighbors)
    fld = curvature_from_metric_field(metric, config)
    diagnostics = dict(fld.diagnostics)
    diagnostics.update(knn_diag)
    return replace(fld, diagnostics=diagnostics)


def estimate_curvature(grid, f_samples, config: EstimationConfig):
    """Dispatch on ``config.method``."""
    if config.method == "function_spline":
        return estimate_curvature_via_function(grid, f_samples, config)
    return estimate_curvature_via_metric(grid, f_samples, config)


@dataclass(frozen=True)
class RoundTripScore:
    """Curvature score of one reduced point set."""

    score: float
    score_raw: float
    field: SectionalCurvatureField


def roundtrip_score(grid: TensorGrid, reduced_points, config: EstimationConfig) -> RoundTripScore:
    """Curvature score of a round trip, at both stored scales.

    ``score`` honors ``config.rescale_output``; ``score_raw`` is always the
    raw-coordinate score.  Both run the same estimator.
    """
    fld = estimate_curvature(grid, reduced_points, config)
    score = l2_curvature_score(fld, trim=config.trim)
    if config.rescale_output:
        raw_cfg = replace(config, rescale_output=False)
        raw_fld = estimate_curvature(grid, reduced_points, raw_cfg)
        score_raw = l2_curvature_score(raw_fld, trim=config.trim)
    else:
        score_raw = score
    return RoundTripScore(score=float(score), score_raw=float(score_raw), field=fld)
