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

Both routes take one (N, m) sample set or an (S, N, m) stack of sets on the
same grid, and return one field or a stack of S fields.  A stack shares each
grid-only step (neighbor gather, least-squares design, spline knots and
basis) and runs the curvature chain once over all S * N nodes; every set's
numbers equal a one-set call's bit for bit.  The estimators use the samples
as given: :func:`roundtrip_score` alone rescales them.
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
from .neighbors import grid_neighbors


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


@dataclass(frozen=True)
class EstimationConfig:
    """Estimator selection and its knobs; ``trim`` and ``rescale_output``
    are read by :func:`roundtrip_score` alone."""

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
    """Affine per-coordinate rescale of (N, m) points, or of each set of an
    (S, N, m) stack, onto the unit bounding box.

    Collapsed coordinates (zero extent) are only re-centered.
    """
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=-2, keepdims=True)
    extent = points.max(axis=-2, keepdims=True) - lo
    extent = np.where(extent > 0, extent, 1.0)
    return (points - lo) / extent


# nodes per stacked least-squares call: bounds the design array's memory
KNN_CHUNK = 256
# (grid, k) neighbor tables kept per process by knn_stencil, N*k*8 bytes each;
# a score fits all its sets in one stacked pass, so a run of scores at one
# (grid, k) searches once
STENCIL_CACHE_SIZE = 2


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _solve_knn(v, w):
    """The stacked least-squares solve of :func:`knn_metric_at` on neighbor
    differences ``v`` (B, K, n) and ``w`` ([S,] B, K, m), rows already in the
    canonical order.

    The design depends on ``v`` only and is built once; the gufunc
    broadcasts it over the S sets, so each node of each set is still its own
    single right-hand-side solve.  Returns (mats ([S,] B, n, n), failed
    ([S,] B) bool).
    """
    num, k, n = v.shape
    targets = (w @ w.swapaxes(-1, -2)).reshape(w.shape[:-2] + (k * k, 1))
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
    mats = unpack_symmetric(solution.reshape(-1, len(pairs)), n, 1).reshape(rank.shape + (n, n))
    failed = rank < len(pairs)
    mats[failed] = EIG_FLOOR * np.eye(n)
    return mats, failed


def _canonical_order(neighbors, image_neighbors):
    """Canonical row order of each node's neighbors: by source coordinates,
    first axis first, then by image coordinates."""
    keys = tuple(a[..., c] for a in (image_neighbors, neighbors)
                 for c in range(a.shape[-1] - 1, -1, -1))
    return np.lexsort(keys, axis=-1)


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _cached_stencil(axes_bytes, k):
    nn = grid_neighbors(TensorGrid(tuple(np.frombuffer(b) for b in axes_bytes)), k)
    nn.flags.writeable = False
    return nn


def knn_stencil(grid: TensorGrid, k: int) -> np.ndarray:
    """The (N, k) nearest-neighbor table of ``grid``'s nodes, each row in the
    canonical order of :func:`knn_metric_at`, cached per (axes, k).

    The nodes of a tensor grid are distinct, so the source coordinates alone
    fix the order, which is :func:`grid_neighbors`'s ascending index order,
    and the image never breaks a tie: fitting these rows
    directly equals :func:`knn_metric_at` bit for bit.  The table is
    read-only.
    """
    return _cached_stencil(tuple(a.tobytes() for a in grid.axes), int(k))


def knn_metric_at(x, neighbors, image_x, image_neighbors) -> np.ndarray:
    """Least-squares pullback metric at one node from K neighbor differences.

    ``x`` is (n,), ``neighbors`` (K, n), ``image_x`` (m,) and
    ``image_neighbors`` (K, m).  The symmetric matrix A minimizing
    sum_{i,j} (v_i^T A v_j - t_ij)^2 over all K^2 neighbor pairs is fitted,
    where v_i = neighbors[i] - x and t_ij is the scalar product of the image
    differences.  Exact for linear maps.  The rows are put in the canonical
    order first, so any permutation of the neighbors gives a bit-identical
    result, and the fit is one call of the gufunc behind
    ``np.linalg.lstsq``, with its default ``rcond``, so it equals a
    ``np.linalg.lstsq`` fit bit for bit.

    Raises :class:`MetricEstimationError` when the neighbor vectors do not
    span the source space (rank-deficient fit).
    """
    x, neighbors, image_x, image_neighbors = (
        np.asarray(a, dtype=float) for a in (x, neighbors, image_x, image_neighbors)
    )
    if not all(
        np.all(np.isfinite(a)) for a in (x, neighbors, image_x, image_neighbors)
    ):
        raise ValueError("knn metric fit inputs must be finite")
    if neighbors.ndim != 2 or image_neighbors.ndim != 2:
        raise ValueError("neighbors and image_neighbors must be (K, dim) arrays")
    k, n = neighbors.shape
    if image_neighbors.shape[0] != k:
        raise ValueError("neighbors and image_neighbors must have matching rows")
    if x.shape != (n,) or image_x.shape != image_neighbors.shape[1:]:
        raise ValueError("x and image_x must be single points")
    if k <= n:
        raise ValueError(
            f"need more neighbors than source dimensions (K > n); got K={k}, n={n}"
        )

    order = _canonical_order(neighbors, image_neighbors)
    mats, failed = _solve_knn((neighbors[order] - x)[None],
                              (image_neighbors[order] - image_x)[None])
    if failed[0]:
        raise MetricEstimationError(
            "neighbor vectors do not span the source space; metric fit is rank-deficient"
        )
    return mats[0]


def _node_list(mask) -> list:
    """Flat indices of the set entries of a ([S,] N) node mask: node i of set
    s is s * N + i."""
    return [int(i) for i in np.flatnonzero(mask)]


def estimate_metric_knn(grid: TensorGrid, f_samples, k_neighbors: int):
    """KNN least-squares metric at every grid node, for one (N, m) sample
    set or for each set of an (S, N, m) stack.

    The neighbors come from :func:`knn_stencil`, so each (grid, k) is
    searched once per process; the nodes are fitted :data:`KNN_CHUNK` at a
    time, every set of a stack in the same call.  Returns (metrics,
    diagnostics), the symmetric ([S,] N, n, n) metrics stacked as the samples
    are.  Eigenvalues below the inversion floor are clamped so curvature can
    proceed; clamped and failed nodes are listed in the diagnostics, node i
    of set s as s * N + i.
    """
    f_samples = np.asarray(f_samples, dtype=float)
    pts = grid.points()
    num, n = pts.shape
    if f_samples.ndim not in (2, 3) or f_samples.shape[-2] != num:
        raise ValueError("f_samples rows must align with the grid rows")
    if k_neighbors <= n:
        raise ValueError(f"k_neighbors must exceed n={n}")
    if not np.all(np.isfinite(f_samples)):
        raise ValueError("knn metric fit inputs must be finite")

    sets = f_samples.reshape((-1,) + f_samples.shape[-2:])
    stencil = knn_stencil(grid, k_neighbors)
    mats = np.empty((len(sets), num, n, n))
    failed = np.empty((len(sets), num), dtype=bool)
    for start in range(0, num, KNN_CHUNK):
        rows = slice(start, start + KNN_CHUNK)
        idx = stencil[rows]
        mats[:, rows], failed[:, rows] = _solve_knn(pts[idx] - pts[rows, None, :],
                                                    sets[:, idx] - sets[:, rows, None, :])

    w, vecs = np.linalg.eigh(mats)
    clamped = np.any(w < EIG_FLOOR, axis=-1)
    w, vecs = w[clamped], vecs[clamped]
    fixed = np.einsum("nij,nj,nkj->nik", vecs, np.maximum(w, EIG_FLOOR), vecs)
    mats[clamped] = 0.5 * (fixed + fixed.swapaxes(-1, -2))
    diagnostics = {
        "failed_nodes": _node_list(failed),
        "clamped_nodes": _node_list(clamped),
    }
    return mats.reshape(f_samples.shape[:-2] + mats.shape[1:]), diagnostics


def _stacked_derivatives(grid: TensorGrid, sets, orders) -> list:
    """Spline derivatives at the grid nodes of each set of an (S, N, c) stack.

    The S sets are splined side by side as one (N, S * c) fit, so they share
    its knots and basis.  For each order in ``orders`` the symmetric
    (c, n, ..., n, S * N) tensor of all partial derivatives of that total
    order is returned, nodes set-major on the last axis; one spline call per
    sorted index tuple fills every permutation.
    """
    num_sets, num, width = sets.shape
    spline = fit_spline(grid, np.moveaxis(sets, 0, 1).reshape(num, -1))
    pts, n = grid.points(), grid.n
    out = []
    for order in orders:
        derivs = np.empty((width,) + (n,) * order + (num_sets, num))
        for axes in combinations_with_replacement(range(n), order):
            nu = [axes.count(axis) for axis in range(n)]
            vals = spline(pts, nu=nu).reshape(num, num_sets, width).T
            for perm in set(permutations(axes)):
                derivs[(slice(None),) + perm] = vals
        out.append(derivs.reshape((width,) + (n,) * order + (-1,)))
    return out


def _sectional_from_metric_data(grid, sets_shape, g, dg, d2g, mode):
    """Shared tail of both estimators: ``g[i, j, q]``, ``dg`` and ``d2g`` of
    S * N nodes q, set-major, -> field shaped ``sets_shape`` + (N, pairs)."""
    lam = regularization_for(g)
    riem = riemann_at(*christoffel(g, dg, d2g, lam))
    values, floored = sectional_at(g, riem, mode)
    grid_shape = sets_shape + (grid.num_points,)
    diagnostics = {
        "degenerate_nodes": _node_list(lam > 0),
        "floored_plane_nodes": _node_list(floored),
        # the largest weight of each set: a float for one set
        "regularization": lam.reshape(grid_shape).max(axis=-1).tolist(),
    }
    values = np.ascontiguousarray(values.T).reshape(grid_shape + (-1,))
    return SectionalCurvatureField(grid=grid, values=values, diagnostics=diagnostics)


def estimate_curvature_via_function(grid, f_samples, mode: str = "standard"):
    """Sectional curvature via spline interpolation of the sampled map.

    The pullback metric g = J^T J and its first two derivatives are formed
    from spline derivatives of f (orders 1..3) by the product rule, then
    fed through the Christoffel/Riemann/sectional chain at every node.  The
    sets of an (S, N, m) stack share one spline fit and its basis.
    """
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.ndim not in (2, 3):
        raise ValueError(f"f_samples must be (N, m) or (S, N, m), got shape {f_samples.shape}")
    # derivative tensors of f at the Q nodes, node axis last: d1[c, i, q],
    # d2[c, i, j, q], d3[c, i, j, l, q]
    d1, d2, d3 = _stacked_derivatives(
        grid, f_samples.reshape((-1,) + f_samples.shape[-2:]), (1, 2, 3))
    g = np.einsum("ci...,cj...->ij...", d1, d1)
    dg = np.einsum("cik...,cj...->ijk...", d2, d1) + np.einsum("ci...,cjk...->ijk...", d1, d2)
    d2g = (
        np.einsum("cikl...,cj...->ijkl...", d3, d1)
        + np.einsum("cik...,cjl...->ijkl...", d2, d2)
        + np.einsum("cil...,cjk...->ijkl...", d2, d2)
        + np.einsum("ci...,cjkl...->ijkl...", d1, d3)
    )
    return _sectional_from_metric_data(grid, f_samples.shape[:-2], g, dg, d2g, mode)


def curvature_from_metric_field(grid: TensorGrid, metrics, mode: str = "standard"):
    """Sectional curvature of ([S,] N, n, n) metrics sampled at the grid
    nodes, derivatives from splines.

    Each of the n(n+1)/2 components of the symmetrized metric is splined
    over the grid; the metric and its first two derivatives are then read
    off the splines.  The sets of a stack share one spline fit and its basis.
    """
    metrics = np.asarray(metrics, dtype=float)
    n = grid.n
    if metrics.ndim not in (3, 4) or metrics.shape[-3:] != (grid.num_points, n, n):
        raise ValueError("metric array must have shape ([S,] N, n, n)")
    sets = metrics.reshape((-1,) + metrics.shape[-3:])
    i, j = np.array(sym_indices(n)).T
    packed = 0.5 * (sets[..., i, j] + sets[..., j, i])
    g, dg, d2g = (unpack_symmetric(derivs, n, 0)
                  for derivs in _stacked_derivatives(grid, packed, (0, 1, 2)))
    return _sectional_from_metric_data(grid, metrics.shape[:-3], g, dg, d2g, mode)


def estimate_curvature(grid, f_samples, config: EstimationConfig):
    """Sectional curvature of ([S,] N, m) samples, used as given, by the
    estimator ``config.method`` names; the KNN route adds its fit's
    diagnostics to the field's."""
    if config.method == "function_spline":
        return estimate_curvature_via_function(grid, f_samples, config.mode)
    metrics, knn_diag = estimate_metric_knn(grid, f_samples, config.k_neighbors)
    fld = curvature_from_metric_field(grid, metrics, config.mode)
    return replace(fld, diagnostics={**fld.diagnostics, **knn_diag})


def _one_set(fld: SectionalCurvatureField, s: int) -> SectionalCurvatureField:
    """Set ``s`` of a stacked field, its node lists back on the grid."""
    num = fld.grid.num_points
    lo = s * num
    diagnostics = {
        key: val[s] if key == "regularization" else [i - lo for i in val if lo <= i < lo + num]
        for key, val in fld.diagnostics.items()
    }
    return replace(fld, values=fld.values[s], diagnostics=diagnostics)


@dataclass(frozen=True)
class RoundTripScore:
    """Curvature score of one reduced point set."""

    score: float
    score_raw: float
    field: SectionalCurvatureField


def roundtrip_score(grid: TensorGrid, reduced_points, config: EstimationConfig) -> RoundTripScore:
    """Curvature score of a round trip, at both stored scales.

    ``score`` honors ``config.rescale_output``; ``score_raw`` is always the
    raw-coordinate score.  With rescaling on, the rescaled and the raw
    points go through the estimator as one two-set stack; ``field`` is the
    field of ``score``.
    """
    points = np.asarray(reduced_points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    sets = np.stack([rescale_to_unit_box(points), points]) if config.rescale_output \
        else points[None]
    stacked = estimate_curvature(grid, sets, config)
    fields = [_one_set(stacked, s) for s in range(len(sets))]
    scores = [l2_curvature_score(fld, trim=config.trim) for fld in fields]
    return RoundTripScore(score=float(scores[0]), score_raw=float(scores[-1]), field=fields[0])
