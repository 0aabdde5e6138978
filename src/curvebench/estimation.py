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
from itertools import combinations_with_replacement, permutations

import numpy as np
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
    sym_indices,
    unpack_symmetric,
)
from .neighbors import nearest_neighbors, squared_distance


@dataclass(frozen=True)
class SplineField:
    """Tensor-product cubic spline of a c-component field on a tensor grid.

    Derivative queries of order <= 3 per axis are available everywhere in
    the hypercube; the third derivative is piecewise constant per cell.
    """

    grid: TensorGrid
    spline: NdBSpline  # coefficients (*basis_shape, c)

    @property
    def ncomp(self) -> int:
        return self.spline.c.shape[-1]

    def __call__(self, points, nu=None) -> np.ndarray:
        """Evaluate (or differentiate) all components at ``points`` (Q, n).

        ``nu`` is a per-axis derivative-order tuple, each entry <= 3.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if nu is not None:
            nu = tuple(int(d) for d in nu)
            if len(nu) != self.grid.n or any(d < 0 or d > 3 for d in nu):
                raise ValueError("nu must give one order in 0..3 per axis")
        return self.spline(points, nu=nu)


def fit_spline(grid: TensorGrid, samples) -> SplineField:
    """Interpolating cubic spline (not-a-knot) of row-aligned grid samples.

    ``samples`` is (N, c) with rows in the grid's row-major order.
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
    return SplineField(grid=grid, spline=NdBSpline(tuple(knots), coeffs, k=3))


def _spline_derivatives(spline: SplineField, pts, order: int) -> np.ndarray:
    """All partial derivatives of total ``order`` of ``spline`` at ``pts``.

    Returns the symmetric (Q, c, n, ..., n) tensor with ``order`` trailing
    axes; one spline call per sorted index tuple fills every permutation.
    """
    n = spline.grid.n
    out = np.empty((pts.shape[0], spline.ncomp) + (n,) * order)
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


def knn_metric_at(x, neighbors, image_x, image_neighbors) -> np.ndarray:
    """Least-squares pullback metric at ``x`` from K neighbor differences.

    Fits the symmetric matrix A minimizing
    sum_{i,j} (v_i^T A v_j - t_ij)^2 over all K^2 neighbor pairs, where
    v_i = neighbors[i] - x and t_ij is the scalar product of the image
    differences.  Exact for linear maps.  The rows are put in a canonical
    order internally, so any permutation of the neighbors returns a
    bit-identical result.
    """
    x = np.asarray(x, dtype=float)
    neighbors = np.atleast_2d(np.asarray(neighbors, dtype=float))
    image_x = np.asarray(image_x, dtype=float)
    image_neighbors = np.atleast_2d(np.asarray(image_neighbors, dtype=float))
    if not all(
        np.all(np.isfinite(a)) for a in (x, neighbors, image_x, image_neighbors)
    ):
        raise ValueError("knn_metric_at inputs must be finite")
    n = x.size
    k = neighbors.shape[0]
    if image_neighbors.shape[0] != k:
        raise ValueError("neighbors and image_neighbors must have matching rows")
    if k <= n:
        raise ValueError(
            f"need more neighbors than source dimensions (K > n); got K={k}, n={n}"
        )

    order = np.lexsort(
        tuple(image_neighbors[:, c] for c in range(image_neighbors.shape[1] - 1, -1, -1))
        + tuple(neighbors[:, c] for c in range(n - 1, -1, -1))
    )
    v = neighbors[order] - x
    w = image_neighbors[order] - image_x

    targets = (w @ w.T).ravel()
    pairs = sym_indices(n)
    design = np.empty((k * k, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        if a == b:
            block = np.multiply.outer(v[:, a], v[:, a])
        else:
            block = np.multiply.outer(v[:, a], v[:, b]) + np.multiply.outer(v[:, b], v[:, a])
        design[:, col] = block.ravel()
    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < len(pairs):
        raise MetricEstimationError(
            "neighbor vectors do not span the source space; metric fit is rank-deficient"
        )
    out = np.empty((n, n))
    for col, (a, b) in enumerate(pairs):
        out[a, b] = solution[col]
        out[b, a] = solution[col]
    return out


def estimate_metric_knn(grid, f_samples, k_neighbors: int):
    """KNN least-squares metric at every grid node.

    Returns (MetricField, diagnostics).  Eigenvalues below the inversion
    floor are clamped so curvature can proceed; clamped and failed nodes
    are listed in the diagnostics.
    """
    if not isinstance(grid, TensorGrid):
        grid = TensorGrid(tuple(grid))
    f_samples = np.asarray(f_samples, dtype=float)
    pts = grid.points()
    n = grid.n
    if f_samples.shape[0] != pts.shape[0]:
        raise ValueError("f_samples rows must align with the grid rows")
    if k_neighbors <= n:
        raise ValueError(f"k_neighbors must exceed n={n}")

    nn = nearest_neighbors(pts, k_neighbors, key=squared_distance)
    mats = np.empty((pts.shape[0], n, n))
    failed = []
    for row in range(pts.shape[0]):
        idx = nn[row]
        try:
            mats[row] = knn_metric_at(pts[row], pts[idx], f_samples[row], f_samples[idx])
        except MetricEstimationError:
            failed.append(row)
            mats[row] = EIG_FLOOR * np.eye(n)

    w, vecs = np.linalg.eigh(mats)
    clamped = np.nonzero(np.any(w < EIG_FLOOR, axis=1))[0]
    if clamped.size:
        w = np.maximum(w, EIG_FLOOR)
        mats = np.einsum("nij,nj,nkj->nik", vecs, w, vecs)
        mats = 0.5 * (mats + mats.swapaxes(-1, -2))
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
    values, floored = geometry._sectional_floored(g, riem, mode)
    diagnostics = {
        "degenerate_nodes": degenerate,
        "floored_plane_nodes": [int(i) for i in np.nonzero(floored)[0]],
        "regularization": float(lam.max()) if degenerate else 0.0,
    }
    return SectionalCurvatureField(grid=grid, values=values, mode=mode, diagnostics=diagnostics)


def _prepare_samples(grid, f_samples, config: EstimationConfig, method: str):
    """Check the method; return the grid and the (N, c), optionally rescaled, samples."""
    if config.method != method:
        raise ValueError(f"config.method must be {method!r}")
    if not isinstance(grid, TensorGrid):
        grid = TensorGrid(tuple(grid))
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.ndim == 1:
        f_samples = f_samples[:, None]
    if config.rescale_output:
        f_samples = rescale_to_unit_box(f_samples)
    return grid, f_samples


def estimate_curvature_via_function(grid, f_samples, config: EstimationConfig):
    """Sectional curvature via spline interpolation of the sampled map.

    The pullback metric g = J^T J and its first two derivatives are formed
    from spline derivatives of f (orders 1..3) by the product rule, then
    fed through the Christoffel/Riemann/sectional chain at every node.
    """
    grid, f_samples = _prepare_samples(grid, f_samples, config, "function_spline")
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
    grid, f_samples = _prepare_samples(grid, f_samples, config, "metric_knn")
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
    diagnostics: dict


def roundtrip_score(grid, reduced_points, config: EstimationConfig) -> RoundTripScore:
    """Curvature score of a round trip, at both stored scales.

    ``score`` honors ``config.rescale_output``; ``score_raw`` is always the
    raw-coordinate score.  Both run the same estimator.
    """
    if not isinstance(grid, TensorGrid):
        grid = TensorGrid(tuple(grid))
    fld = estimate_curvature(grid, reduced_points, config)
    score = l2_curvature_score(fld, trim=config.trim)
    if config.rescale_output:
        raw_cfg = replace(config, rescale_output=False)
        raw_fld = estimate_curvature(grid, reduced_points, raw_cfg)
        score_raw = l2_curvature_score(raw_fld, trim=config.trim)
    else:
        score_raw = score
    return RoundTripScore(
        score=float(score),
        score_raw=float(score_raw),
        field=fld,
        diagnostics=fld.diagnostics,
    )
