"""Spline fields, KNN metric fitting, and the two curvature estimators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvebench import estimation
from curvebench.errors import MetricEstimationError
from curvebench.estimation import (
    EstimationConfig,
    estimate_curvature,
    estimate_curvature_via_function,
    estimate_metric_knn,
    curvature_from_metric_field,
    fit_spline,
    knn_metric_at,
    knn_stencil,
    rescale_to_unit_box,
    roundtrip_score,
)
from curvebench.generator import sample_special_orthogonal
from curvebench.geometry import (
    EIG_FLOOR,
    TensorGrid,
    l2_curvature_score,
    pair_indices,
    unit_grid,
)

CFG_KNN = EstimationConfig(method="metric_knn", rescale_output=False)


def sphere_patch_samples(radius, resolution):
    """Embedding (u, v) -> radius * (cos u cos v, sin u cos v, sin v)."""
    u = np.arange(resolution) / (resolution - 1)
    U, V = np.meshgrid(u, u, indexing="ij")
    return np.stack(
        [
            radius * np.cos(U) * np.cos(V),
            radius * np.sin(U) * np.cos(V),
            radius * np.sin(V),
        ],
        axis=-1,
    ).reshape(-1, 3)


def lstsq_metric_reference(x, neighbors, image_x, image_neighbors):
    """One node's metric by a plain ``np.linalg.lstsq`` call, or None when
    the fit is rank-deficient: the per-node fit the batched one replaces."""
    n = x.size
    k = neighbors.shape[0]
    order = np.lexsort(
        tuple(image_neighbors[:, c] for c in range(image_neighbors.shape[1] - 1, -1, -1))
        + tuple(neighbors[:, c] for c in range(n - 1, -1, -1))
    )
    v = neighbors[order] - x
    w = image_neighbors[order] - image_x
    targets = (w @ w.T).ravel()
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    design = np.empty((k * k, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        if a == b:
            block = np.multiply.outer(v[:, a], v[:, a])
        else:
            block = np.multiply.outer(v[:, a], v[:, b]) + np.multiply.outer(v[:, b], v[:, a])
        design[:, col] = block.ravel()
    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < len(pairs):
        return None
    out = np.empty((n, n))
    for col, (a, b) in enumerate(pairs):
        out[a, b] = out[b, a] = solution[col]
    return out


def brute_force_stencil(points, k):
    """The former grid search: a stable argsort of ``((p_i - p_j) ** 2).sum(-1)``
    with the node itself dropped, so exact ties go to the lowest index."""
    order = np.argsort(((points[:, None, :] - points) ** 2).sum(-1), axis=1, kind="stable")
    return np.array([row[row != i][:k] for i, row in enumerate(order)])


def central_window(field, lo=0.3, hi=0.7):
    axis = field.grid.axes[0]
    mask = (axis >= lo) & (axis <= hi)
    return field.as_grid()[np.ix_(mask, mask)][..., 0]


class TestFitSpline:
    def test_constant_samples(self):
        grid = unit_grid(2, 8)
        spline = fit_spline(grid, np.full((64, 1), 3.25))
        pts = np.array([[0.31, 0.77], [0.5, 0.5]])
        assert np.allclose(spline(pts), 3.25, atol=1e-12)
        assert np.allclose(spline(pts, nu=(1, 0)), 0.0, atol=1e-10)
        assert np.allclose(spline(pts, nu=(2, 1)), 0.0, atol=1e-8)

    def test_cubic_polynomials_reproduced_with_derivatives(self):
        # not-a-knot cubic splines reproduce cubics; check value and all
        # three derivative orders at cell midpoints
        grid = unit_grid(2, 9)
        pts = grid.points()
        x, y = pts[:, 0], pts[:, 1]
        samples = (x**3 - 0.5 * x**2 + 1.0) * (2 * y**3 + y)
        spline = fit_spline(grid, samples[:, None])
        mid = grid.axes[0][:-1] + np.diff(grid.axes[0]) / 2
        X, Y = np.meshgrid(mid, mid, indexing="ij")
        q = np.stack([X.ravel(), Y.ravel()], axis=1)

        def fx(d, t):
            return {0: t**3 - 0.5 * t**2 + 1.0, 1: 3 * t**2 - t, 2: 6 * t - 1.0,
                    3: np.full_like(t, 6.0)}[d]

        def fy(d, t):
            return {0: 2 * t**3 + t, 1: 6 * t**2 + 1.0, 2: 12 * t,
                    3: np.full_like(t, 12.0)}[d]

        for dx in range(4):
            for dy in range(4):
                got = spline(q, nu=(dx, dy))[:, 0]
                want = fx(dx, q[:, 0]) * fy(dy, q[:, 1])
                assert np.max(np.abs(got - want)) < 1e-8, (dx, dy)

    def test_interpolates_at_nodes(self):
        rng = np.random.default_rng(0)
        grid = unit_grid(2, 12)
        samples = rng.normal(size=(grid.num_points, 2))
        spline = fit_spline(grid, samples)
        got = spline(grid.points())
        scale = np.abs(samples).max()
        assert np.max(np.abs(got - samples)) < 1e-10 * scale

    def test_row_count_must_match_grid(self):
        with pytest.raises(ValueError, match="sample rows"):
            fit_spline(unit_grid(2, 8), np.zeros((63, 1)))

    def test_minimum_nodes_per_axis(self):
        axis = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="4 nodes"):
            fit_spline(TensorGrid((axis, axis)), np.zeros((9, 1)))


class TestKnnMetric:
    def test_diagonal_linear_map(self):
        rng = np.random.default_rng(1)
        M = np.diag([2.0, 3.0])
        x = np.array([0.4, 0.6])
        nb = x + 0.05 * rng.normal(size=(8, 2))
        A = knn_metric_at(x, nb, M @ x, nb @ M.T)
        assert np.allclose(A, [[4, 0], [0, 9]], atol=1e-10)

    def test_identity_map(self):
        rng = np.random.default_rng(2)
        x = np.zeros(2)
        nb = 0.1 * rng.normal(size=(10, 2))
        A = knn_metric_at(x, nb, x, nb)
        assert np.allclose(A, np.eye(2), atol=1e-10)

    def test_general_linear_maps_are_exact(self):
        # first-order differences are exact for linear maps, so the fit
        # recovers M^T M to rounding for any spanning neighbor set
        rng = np.random.default_rng(3)
        for _ in range(100):
            M = rng.uniform(-2, 2, size=(2, 2))
            x = rng.normal(size=2)
            nb = x + 0.2 * rng.normal(size=(8, 2))
            A = knn_metric_at(x, nb, M @ x, nb @ M.T)
            assert np.max(np.abs(A - M.T @ M)) < 1e-10

    def test_too_few_neighbors_rejected(self):
        x = np.zeros(2)
        nb = np.eye(2)
        with pytest.raises(ValueError, match="K > n"):
            knn_metric_at(x, nb, x, nb)

    def test_non_spanning_neighbors_rejected(self):
        x = np.zeros(2)
        nb = np.outer(np.arange(1, 6), [1.0, 0.0])  # collinear
        with pytest.raises(MetricEstimationError):
            knn_metric_at(x, nb, x, nb)

    def test_permutation_of_neighbors_is_bit_identical(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=2)
        nb = x + rng.normal(size=(9, 2))
        img = np.column_stack([nb[:, 0] + nb[:, 1] ** 2, nb[:, 1] - 0.3 * nb[:, 0]])
        A1 = knn_metric_at(x, nb, x, img)
        perm = rng.permutation(9)
        A2 = knn_metric_at(x, nb[perm], x, img[perm])
        assert np.array_equal(A1, A2)

    def test_non_finite_rejected(self):
        x = np.zeros(2)
        nb = np.ones((5, 2))
        nb[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            knn_metric_at(x, nb, x, nb)


class TestEstimateMetricKnn:
    def test_identity_map_recovers_identity(self):
        grid = unit_grid(2, 12)
        metric, diag = estimate_metric_knn(grid, grid.points(), 8)
        assert np.max(np.abs(metric - np.eye(2))) < 1e-9
        assert diag["failed_nodes"] == []
        assert diag["clamped_nodes"] == []

    def test_collapsed_output_reports_clamping(self):
        grid = unit_grid(2, 8)
        samples = grid.points().copy()
        samples[:, 1] = 0.0
        metric, diag = estimate_metric_knn(grid, samples, 8)
        assert len(diag["clamped_nodes"]) == grid.num_points
        assert np.all(np.linalg.eigvalsh(metric)[:, 0] >= 1e-10)
        # a collapse off the axes clamps along an oblique direction; the
        # clamped metrics are still exactly symmetric
        t = grid.points() @ [1.0, 0.3]
        metric, diag = estimate_metric_knn(grid, np.column_stack([t, 2 * t]), 8)
        assert len(diag["clamped_nodes"]) == grid.num_points
        assert np.array_equal(metric, metric.swapaxes(1, 2))

    def test_neighbor_count_validation(self):
        grid = unit_grid(2, 8)
        with pytest.raises(ValueError, match="exceed"):
            estimate_metric_knn(grid, grid.points(), 2)


class TestBatchedKnnFit:
    """The stacked fit equals a per-node ``np.linalg.lstsq`` fit bit for bit."""

    @staticmethod
    def assert_matches_reference(mats, failed, x, neighbors, image_x, image_neighbors):
        expected_failed = []
        for node in range(x.shape[0]):
            ref = lstsq_metric_reference(
                x[node], neighbors[node], image_x[node], image_neighbors[node]
            )
            if ref is None:
                expected_failed.append(node)
                assert np.array_equal(mats[node], EIG_FLOOR * np.eye(x.shape[1]))
            else:
                assert mats[node].tobytes() == ref.tobytes()
        assert [int(i) for i in failed] == expected_failed

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 3),
        extra=st.integers(1, 10),
        m=st.integers(1, 5),
        kinds=st.lists(
            st.sampled_from(["generic", "low-rank", "near-low-rank", "duplicate", "rounded"]),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_clouds_match_per_node_lstsq(self, n, extra, m, kinds, seed):
        k = min(n + extra, 12)
        rng = np.random.default_rng(seed)
        nodes = len(kinds)
        x = rng.normal(size=(nodes, n))
        v = rng.normal(size=(nodes, k, n))
        for node, kind in enumerate(kinds):
            if kind in ("low-rank", "near-low-rank"):
                # neighbor differences in (or just off) a subspace of dimension < n,
                # so the rank test decides at rcond's edge
                basis = rng.normal(size=(rng.integers(1, n), n))
                v[node] = rng.normal(size=(k, basis.shape[0])) @ basis
                if kind == "near-low-rank":
                    v[node] += 10.0 ** rng.uniform(-8.5, -6) * rng.normal(size=(k, n))
            elif kind == "duplicate":
                # repeated neighbor rows: ties in the canonical order
                v[node] = v[node][rng.integers(0, rng.integers(1, k + 1), size=k)]
            elif kind == "rounded":
                # small integers: exact ties in single coordinates
                v[node] = rng.integers(-2, 3, size=(k, n))
        neighbors = x[:, None, :] + v
        lift = rng.normal(size=(n, m))
        image_x = np.tanh(x @ lift)
        image_neighbors = np.tanh(neighbors @ lift) + 0.1 * neighbors[..., :1] ** 2
        for node in range(nodes):
            args = (x[node], neighbors[node], image_x[node], image_neighbors[node])
            ref = lstsq_metric_reference(*args)
            if ref is None:
                with pytest.raises(MetricEstimationError):
                    knn_metric_at(*args)
            else:
                assert knn_metric_at(*args).tobytes() == ref.tobytes()

    def test_chunked_grid_fit_matches_per_node_lstsq(self):
        # 400 nodes span two chunks of the stacked call
        grid = unit_grid(2, 20)
        pts = grid.points()
        samples = np.column_stack([pts[:, 0], pts[:, 1], np.sin(pts[:, 0] * pts[:, 1])])
        metric, diag = estimate_metric_knn(grid, samples, 9)
        assert diag == {"failed_nodes": [], "clamped_nodes": []}
        nn = brute_force_stencil(pts, 9)
        self.assert_matches_reference(
            metric, [], pts, pts[nn], samples, samples[nn]
        )

    def test_collinear_neighbor_rows_fail_as_before(self):
        # rows 4-7 of the first axis see only their own row among 8 neighbors
        grid = TensorGrid((np.arange(12) * 0.02, np.arange(12) / 11))
        pts = grid.points()
        metric, diag = estimate_metric_knn(grid, pts, 8)
        assert diag["failed_nodes"] == list(range(48, 96))
        nn = brute_force_stencil(pts, 8)
        self.assert_matches_reference(
            metric, diag["failed_nodes"], pts, pts[nn], pts, pts[nn]
        )


def stencil_image(grid, m, seed):
    """A random map: a full-rank linear part (so that clamping is rare) plus
    ``m`` smooth and noisy coordinates."""
    pts = grid.points()
    rng = np.random.default_rng(seed)
    linear = pts @ sample_special_orthogonal(grid.n, rng) * rng.uniform(0.5, 2.0, grid.n)
    lift = rng.normal(size=(grid.n, m))
    rough = np.tanh(pts @ lift) + 0.1 * rng.normal(size=(pts.shape[0], m)) ** 3
    return np.column_stack([linear, rough])


@st.composite
def stencil_cases(draw):
    """A strictly increasing, non-uniform 2-D grid, a k in n+1..12 and an image."""
    sizes = draw(st.lists(st.integers(2, 9), min_size=2, max_size=2)
                 .filter(lambda s: s[0] * s[1] > 3))
    axes = tuple(
        np.cumsum(draw(st.lists(st.floats(0.01, 3.0), min_size=size, max_size=size)))
        for size in sizes
    )
    k = draw(st.integers(3, min(12, sizes[0] * sizes[1] - 1)))
    grid = TensorGrid(axes)
    return grid, k, stencil_image(grid, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


def fixed_stencil_case(grid, k, m, seed):
    return grid, k, stencil_image(grid, m, seed)


FOLD_GRID = unit_grid(2, 9)
# (|x - 0.5|, y) folds the square along x = 0.5: 9 of its 81 nodes clamp at k = 8
FOLD_CASE = (FOLD_GRID, 8, np.column_stack([np.abs(FOLD_GRID.points()[:, 0] - 0.5),
                                             FOLD_GRID.points()[:, 1]]))


class TestKnnStencil:
    """estimate_metric_knn on the cached (grid, k) table equals a per-node
    ``np.linalg.lstsq`` fit on a freshly searched table, on cache miss and hit,
    at every node that is not clamped."""

    @staticmethod
    def check_against_reference(grid, k, samples):
        metric, diag = estimate_metric_knn(grid, samples, k)
        pts = grid.points()
        nn = brute_force_stencil(pts, k)
        refs = [lstsq_metric_reference(pts[i], pts[nn[i]], samples[i], samples[nn[i]])
                for i in range(grid.num_points)]
        assert diag["failed_nodes"] == [i for i, ref in enumerate(refs) if ref is None]
        ref_mats = np.stack([EIG_FLOOR * np.eye(grid.n) if ref is None else ref
                             for ref in refs])
        clamped = np.linalg.eigvalsh(ref_mats)[:, 0] < EIG_FLOOR
        assert diag["clamped_nodes"] == [int(i) for i in np.flatnonzero(clamped)]
        assert metric[~clamped].tobytes() == ref_mats[~clamped].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(first=stencil_cases(), second=stencil_cases())
    @example(
        first=fixed_stencil_case(
            TensorGrid((np.array([0.0, 0.1, 0.5, 0.6]), np.array([0.0, 1.0, 1.1, 3.0]),
                        np.array([0.0, 0.3, 2.0]))), 12, 4, 7),
        second=fixed_stencil_case(unit_grid(2, 5), 3, 1, 8),
    )
    @example(first=FOLD_CASE, second=fixed_stencil_case(unit_grid(2, 5), 3, 1, 8))
    def test_cached_table_matches_per_node_lstsq(self, first, second):
        estimation._cached_stencil.cache_clear()
        cases = [first, second]
        for grid, k, samples in cases + cases:  # miss, miss, then hit, hit
            self.check_against_reference(grid, k, samples)
        for grid, k, _ in cases:
            table = knn_stencil(grid, k)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
        assert estimation._cached_stencil.cache_info().misses == len({
            (tuple(a.tobytes() for a in grid.axes), k) for grid, k, _ in cases
        })


class TestFunctionEstimator:
    def test_identity_is_flat(self):
        grid = unit_grid(2, 32)
        fld = estimate_curvature_via_function(grid, grid.points())
        assert np.max(np.abs(fld.values)) < 1e-8

    def test_rigid_motion_scores_under_threshold(self):
        grid = unit_grid(2, 32)
        theta = np.pi / 6
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = grid.points() @ rot.T + np.array([0.4, -1.0])
        fld = estimate_curvature_via_function(grid, moved)
        assert l2_curvature_score(fld, trim=2) < 1e-6

    def test_parabolic_immersion_is_flat(self):
        # same-dimension immersion pullback stays flat
        grid = unit_grid(2, 32)
        pts = grid.points()
        samples = np.column_stack([pts[:, 0], pts[:, 1] + pts[:, 0] ** 2])
        fld = estimate_curvature_via_function(grid, samples)
        interior = fld.as_grid()[2:-2, 2:-2]
        assert np.max(np.abs(interior)) < 1e-3

    @settings(max_examples=10, deadline=None)
    @given(radius=st.floats(0.25, 4.0))
    @example(radius=1.0)  # relative errors 7.4e-4, 1.7e-4, 4.2e-5
    def test_sphere_patch_refinement_is_monotone(self, radius):
        errs = []
        for res in (16, 32, 64):
            fld = estimate_curvature_via_function(unit_grid(2, res),
                                                  sphere_patch_samples(radius, res))
            errs.append(np.max(np.abs(central_window(fld) - 1 / radius**2)) * radius**2)
        assert errs[0] < 1e-3
        assert errs[0] >= errs[1] >= errs[2]


def product_rule_einsum(grid, f_samples, mode):
    """:func:`estimate_curvature_via_function` with its product rule as
    einsums over batch-first arrays, kept as the reference its
    component-first einsums must equal bit for bit."""
    d1, d2, d3 = (np.moveaxis(d, -1, 0) for d in estimation._stacked_derivatives(
        grid, f_samples.reshape((-1,) + f_samples.shape[-2:]), (1, 2, 3)))
    g = np.einsum("qci,qcj->qij", d1, d1)
    dg = np.einsum("qcik,qcj->qijk", d2, d1) + np.einsum("qci,qcjk->qijk", d1, d2)
    d2g = (
        np.einsum("qcikl,qcj->qijkl", d3, d1)
        + np.einsum("qcik,qcjl->qijkl", d2, d2)
        + np.einsum("qcil,qcjk->qijkl", d2, d2)
        + np.einsum("qci,qcjkl->qijkl", d1, d3)
    )
    g, dg, d2g = (np.moveaxis(t, 0, -1) for t in (g, dg, d2g))
    return estimation._sectional_from_metric_data(grid, f_samples.shape[:-2], g, dg, d2g, mode)


@st.composite
def function_stacks(draw):
    """A grid and a ([S,] N, m) stack whose columns are random, linear or
    signed-zero, so the derivative tensors hold exact (and negative) zeros."""
    n = draw(st.sampled_from([2, 3]))
    grid = unit_grid(n, draw(st.integers(5, 8) if n == 2 else st.integers(4, 5)))
    width = draw(st.integers(1, 7))
    shape = draw(st.sampled_from([(), (1,), (2,)])) + (grid.num_points,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = grid.points()
    columns = []
    for kind in draw(st.lists(st.sampled_from(["random", "linear", "zero", "-zero"]),
                              min_size=width, max_size=width)):
        if kind == "random":
            columns.append(rng.normal(size=shape))
        elif kind == "linear":
            columns.append(np.broadcast_to(pts @ rng.normal(size=n), shape))
        else:
            columns.append(np.full(shape, 0.0 if kind == "zero" else -0.0))
    return grid, np.stack(columns, axis=-1), draw(st.sampled_from(["standard", "paper_sqrt"]))


class TestProductRule:
    @settings(max_examples=60, deadline=None)
    @given(case=function_stacks())
    def test_same_bits_as_batch_first_einsums(self, case):
        grid, samples, mode = case
        got = estimate_curvature_via_function(grid, samples, mode)
        want = product_rule_einsum(grid, samples, mode)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.diagnostics == want.diagnostics


class TestMetricEstimator:
    def test_identity_scores_tiny(self):
        grid = unit_grid(2, 32)
        fld = estimate_curvature(grid, grid.points(), CFG_KNN)
        assert l2_curvature_score(fld, trim=2) < 1e-6

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_patch_recovers_curvature(self, radius):
        fld = estimate_curvature(unit_grid(2, 32), sphere_patch_samples(radius, 32), CFG_KNN)
        window = central_window(fld)
        assert np.max(np.abs(window - 1 / radius**2)) < 0.05 / radius**2

    def test_mesh_refinement_is_monotone(self):
        errs = []
        for res in (16, 32):
            fld = estimate_curvature(unit_grid(2, res), sphere_patch_samples(1.0, res), CFG_KNN)
            errs.append(np.max(np.abs(central_window(fld) - 1.0)))
        assert errs[1] <= errs[0]


class TestRigidMotionProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        shift=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
        method=st.sampled_from(["metric_knn", "function_spline"]),
        rescale=st.booleans(),
    )
    def test_flat_grid_under_rigid_motion_scores_zero(self, m, seed, shift, method, rescale):
        # a rigid motion of the flat grid into R^m is an isometry, and the
        # per-coordinate rescale keeps it affine, so both scores vanish
        grid = unit_grid(2, 12)
        pts = grid.points()
        rot = sample_special_orthogonal(m, np.random.default_rng(seed))
        moved = np.hstack([pts, np.zeros((pts.shape[0], m - 2))]) @ rot.T + shift[:m]
        result = roundtrip_score(
            grid, moved, EstimationConfig(method=method, rescale_output=rescale)
        )
        assert result.score < 1e-6
        assert result.score_raw < 1e-6


@st.composite
def sweep_cases(draw):
    """A strictly increasing 2-D or 3-D grid, a k, an estimator, a mode and
    2-3 sample sets on the grid.

    The first axis is squeezed on a drawn share of cases, so some KNN
    neighborhoods lie in one grid line and their fits fail.  A set is smooth,
    or collapsed (all but the first grid direction shrunk by 1e-7), which
    clamps KNN metrics, regularizes metrics before inversion and floors plane
    areas.
    """
    n = draw(st.integers(2, 3))
    lo, hi = (8, 12) if n == 2 else (4, 6)
    sizes = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    axes = [np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
            for size in sizes]
    if draw(st.booleans()):
        axes[0] = axes[0] * 0.01
    grid = TensorGrid(tuple(axes))
    k = draw(st.integers(n + 1, 12))
    method = draw(st.sampled_from(["metric_knn", "function_spline"]))
    mode = draw(st.sampled_from(["standard", "paper_sqrt"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = grid.points() / grid.points().max(axis=0)
    sets = []
    for kind in draw(st.lists(st.sampled_from(["smooth", "collapsed"]), min_size=2, max_size=3)):
        lift = rng.normal(size=(n, 3))
        if kind == "collapsed":
            pts_kept = np.column_stack([pts[:, :1], 1e-7 * pts[:, 1:]])
        else:
            pts_kept = pts
        sets.append(np.column_stack([pts_kept, np.tanh(pts_kept @ lift)])
                    * rng.uniform(0.5, 4.0))
    return grid, k, method, mode, np.stack(sets)


class TestStackedSweep:
    """An (S, N, m) stack through either estimator equals S one-set calls bit
    for bit, node lists indexing the stack set-major."""

    @staticmethod
    def check_stacked_equals_one_set_calls(grid, k, method, mode, sets):
        cfg = EstimationConfig(method=method, mode=mode, k_neighbors=k)
        stacked = estimate_curvature(grid, sets, cfg)
        singles = [estimate_curvature(grid, one, cfg) for one in sets]
        num = grid.num_points
        assert stacked.values.shape == (len(sets), num, len(pair_indices(grid.n)))
        for s, one in enumerate(singles):
            assert stacked.values[s].tobytes() == one.values.tobytes()
        assert list(stacked.diagnostics) == list(singles[0].diagnostics)
        for key, val in stacked.diagnostics.items():
            if key == "regularization":
                assert val == [one.diagnostics[key] for one in singles]
            else:
                assert val == [s * num + i for s, one in enumerate(singles)
                               for i in one.diagnostics[key]]
        if method == "metric_knn":
            metric, diag = estimate_metric_knn(grid, sets, k)
            for s, one in enumerate(sets):
                one_metric, one_diag = estimate_metric_knn(grid, one, k)
                assert metric[s].tobytes() == one_metric.tobytes()
                for key in diag:
                    assert [i - s * num for i in diag[key] if s * num <= i < (s + 1) * num] \
                        == one_diag[key]
        return stacked

    @settings(max_examples=40, deadline=None)
    @given(case=sweep_cases())
    def test_stack_matches_one_set_calls(self, case):
        self.check_stacked_equals_one_set_calls(*case)

    @pytest.mark.parametrize("method", ["metric_knn", "function_spline"])
    @pytest.mark.parametrize("mode", ["standard", "paper_sqrt"])
    def test_failed_clamped_and_floored_nodes_split_by_set(self, method, mode):
        # a squeezed first axis (failed fits) and a collapsed second set
        grid = TensorGrid((np.arange(12) * 0.02, np.arange(12) / 11))
        pts = grid.points() / grid.points().max(axis=0)
        smooth = np.column_stack([pts, np.sin(2 * pts[:, 0]) * pts[:, 1]])
        collapsed = np.column_stack([pts[:, 0], 1e-7 * pts[:, 1], np.sin(2 * pts[:, 0])])
        stacked = self.check_stacked_equals_one_set_calls(
            grid, 8, method, mode, np.stack([smooth, collapsed]))
        diag = stacked.diagnostics
        expected = ["degenerate_nodes", "floored_plane_nodes"]
        if method == "metric_knn":
            expected += ["failed_nodes", "clamped_nodes"]
        for key in expected:
            assert diag[key], key
        if method == "metric_knn":
            # the grid decides which fits fail, the samples which are clamped
            failed, half = diag["failed_nodes"], len(diag["failed_nodes"]) // 2
            assert failed[half:] == [i + grid.num_points for i in failed[:half]]
            assert min(diag["clamped_nodes"]) >= grid.num_points

    @settings(max_examples=15, deadline=None)
    @given(case=sweep_cases(), rescale=st.booleans())
    def test_roundtrip_score_equals_two_one_set_passes(self, case, rescale):
        # the score of the former two-pass roundtrip_score: one estimator
        # call on the (optionally rescaled) points, one on the raw points
        grid, k, method, mode, sets = case
        cfg = EstimationConfig(method=method, mode=mode, k_neighbors=k, trim=1,
                               rescale_output=rescale)
        result = roundtrip_score(grid, sets[0], cfg)
        fld = estimate_curvature(grid, rescale_to_unit_box(sets[0]) if rescale else sets[0], cfg)
        raw = estimate_curvature(grid, sets[0], cfg)
        assert result.score == l2_curvature_score(fld, trim=1)
        assert result.score_raw == l2_curvature_score(raw, trim=1)
        assert result.field.values.tobytes() == fld.values.tobytes()
        assert result.field.diagnostics == fld.diagnostics


class TestMethodAgreement:
    def test_estimators_agree_on_smooth_curved_samples(self):
        # the sphere patch has analytic pullback curvature 1; both routes
        # must land within 20% of each other
        grid = unit_grid(2, 32)
        samples = sphere_patch_samples(1.0, 32)
        s_fn = l2_curvature_score(estimate_curvature_via_function(grid, samples), trim=2)
        s_knn = l2_curvature_score(estimate_curvature(grid, samples, CFG_KNN), trim=2)
        assert abs(s_fn - s_knn) / s_fn < 0.2


class TestRescaling:
    def test_rescale_maps_to_unit_box(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(50, 2)) * [3.0, 0.5] + [10.0, -4.0]
        scaled = rescale_to_unit_box(pts)
        assert np.allclose(scaled.min(axis=0), 0.0)
        assert np.allclose(scaled.max(axis=0), 1.0)

    def test_collapsed_coordinate_survives(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.full(10, 2.0)])
        scaled = rescale_to_unit_box(pts)
        assert np.allclose(scaled[:, 1], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(0.1, 10.0),
        shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        method=st.sampled_from(["metric_knn", "function_spline"]),
    )
    def test_score_invariant_under_similarity_when_rescaling(self, scale, shift, method):
        # the rescale maps c * Y + t and Y onto the same unit box; the raw
        # pullback metric is c^2 times Y's, so its curvature is 1/c^2 times
        grid = unit_grid(2, 16)
        cfg = EstimationConfig(method=method, rescale_output=True)
        base = sphere_patch_samples(1.0, 16)
        r1 = roundtrip_score(grid, base, cfg)
        r2 = roundtrip_score(grid, scale * base + np.array(shift), cfg)
        assert r2.score == pytest.approx(r1.score, rel=1e-8)
        assert r2.score_raw == pytest.approx(r1.score_raw / scale**2, rel=1e-8)


class TestRoundTripScore:
    def test_raw_equals_scaled_when_rescale_off(self):
        grid = unit_grid(2, 16)
        result = roundtrip_score(grid, grid.points(), CFG_KNN)
        assert result.score == result.score_raw

    def test_curvature_from_metric_field_interpolates_input(self):
        # sanity: splining an analytic constant metric keeps K at zero
        grid = unit_grid(2, 16)
        mats = np.tile(np.diag([2.0, 5.0]), (grid.num_points, 1, 1))
        fld = curvature_from_metric_field(grid, mats)
        assert np.max(np.abs(fld.values)) < 1e-9

    @pytest.mark.parametrize("mode", ["standard", "paper_sqrt"])
    def test_singular_node_is_listed_not_raised(self, mode):
        # a metric of rank 1 at one interior node: the node is regularized
        # before inversion and its plane area floored, and both are recorded
        grid = unit_grid(2, 12)
        mats = np.tile(np.eye(2), (grid.num_points, 1, 1))
        node = 5 * 12 + 6
        mats[node] = np.diag([1.0, 0.0])
        fld = curvature_from_metric_field(grid, mats, mode)
        assert fld.diagnostics["degenerate_nodes"] == [node]
        assert fld.diagnostics["floored_plane_nodes"] == [node]
        assert fld.diagnostics["regularization"] > 0.0
        assert np.all(np.isfinite(fld.values))


class TestEstimationConfig:
    def test_method_validated(self):
        with pytest.raises(ValueError, match="method"):
            EstimationConfig(method="nearest")

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            EstimationConfig(mode="bogus")

    def test_trim_validated(self):
        with pytest.raises(ValueError, match="trim"):
            EstimationConfig(trim=0)
