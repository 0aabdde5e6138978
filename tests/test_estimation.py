"""Spline fields, KNN metric fitting, and the two curvature estimators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvebench.errors import MetricEstimationError
from curvebench.estimation import (
    EstimationConfig,
    estimate_curvature_via_function,
    estimate_curvature_via_metric,
    estimate_metric_knn,
    curvature_from_metric_field,
    fit_spline,
    knn_metric_at,
    rescale_to_unit_box,
    roundtrip_score,
)
from curvebench.generator import sample_special_orthogonal
from curvebench.geometry import MetricField, TensorGrid, l2_curvature_score, unit_grid

CFG_FN = EstimationConfig(method="function_spline", rescale_output=False)
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

    def test_derivative_order_capped(self):
        grid = unit_grid(2, 8)
        spline = fit_spline(grid, np.zeros((64, 1)))
        with pytest.raises(ValueError, match="nu"):
            spline(np.array([[0.5, 0.5]]), nu=(4, 0))


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
        assert np.max(np.abs(metric.matrices() - np.eye(2))) < 1e-9
        assert diag["failed_nodes"] == []
        assert diag["clamped_nodes"] == []

    def test_collapsed_output_reports_clamping(self):
        grid = unit_grid(2, 8)
        samples = grid.points().copy()
        samples[:, 1] = 0.0
        metric, diag = estimate_metric_knn(grid, samples, 8)
        assert len(diag["clamped_nodes"]) == grid.num_points
        assert np.all(np.linalg.eigvalsh(metric.matrices())[:, 0] >= 1e-10)

    def test_neighbor_count_validation(self):
        grid = unit_grid(2, 8)
        with pytest.raises(ValueError, match="exceed"):
            estimate_metric_knn(grid, grid.points(), 2)


class TestFunctionEstimator:
    def test_identity_is_flat(self):
        grid = unit_grid(2, 32)
        fld = estimate_curvature_via_function(grid, grid.points(), CFG_FN)
        assert np.max(np.abs(fld.values)) < 1e-8

    def test_rigid_motion_scores_under_threshold(self):
        grid = unit_grid(2, 32)
        theta = np.pi / 6
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = grid.points() @ rot.T + np.array([0.4, -1.0])
        fld = estimate_curvature_via_function(grid, moved, CFG_FN)
        assert l2_curvature_score(fld, trim=2) < 1e-6

    def test_parabolic_immersion_is_flat(self):
        # same-dimension immersion pullback stays flat
        grid = unit_grid(2, 32)
        pts = grid.points()
        samples = np.column_stack([pts[:, 0], pts[:, 1] + pts[:, 0] ** 2])
        fld = estimate_curvature_via_function(grid, samples, CFG_FN)
        interior = fld.as_grid()[2:-2, 2:-2]
        assert np.max(np.abs(interior)) < 1e-3

    @settings(max_examples=10, deadline=None)
    @given(radius=st.floats(0.25, 4.0))
    @example(radius=1.0)  # relative errors 7.4e-4, 1.7e-4, 4.2e-5
    def test_sphere_patch_refinement_is_monotone(self, radius):
        errs = []
        for res in (16, 32, 64):
            fld = estimate_curvature_via_function(
                unit_grid(2, res), sphere_patch_samples(radius, res), CFG_FN
            )
            errs.append(np.max(np.abs(central_window(fld) - 1 / radius**2)) * radius**2)
        assert errs[0] < 1e-3
        assert errs[0] >= errs[1] >= errs[2]

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError, match="function_spline"):
            estimate_curvature_via_function(unit_grid(2, 8), np.zeros((64, 2)), CFG_KNN)


class TestMetricEstimator:
    def test_identity_scores_tiny(self):
        grid = unit_grid(2, 32)
        fld = estimate_curvature_via_metric(grid, grid.points(), CFG_KNN)
        assert l2_curvature_score(fld, trim=2) < 1e-6

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_sphere_patch_recovers_curvature(self, radius):
        fld = estimate_curvature_via_metric(
            unit_grid(2, 32), sphere_patch_samples(radius, 32), CFG_KNN
        )
        window = central_window(fld)
        assert np.max(np.abs(window - 1 / radius**2)) < 0.05 / radius**2

    def test_mesh_refinement_is_monotone(self):
        errs = []
        for res in (16, 32):
            fld = estimate_curvature_via_metric(
                unit_grid(2, res), sphere_patch_samples(1.0, res), CFG_KNN
            )
            errs.append(np.max(np.abs(central_window(fld) - 1.0)))
        assert errs[1] <= errs[0]

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError, match="metric_knn"):
            estimate_curvature_via_metric(unit_grid(2, 8), np.zeros((64, 2)), CFG_FN)


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


class TestMethodAgreement:
    def test_estimators_agree_on_smooth_curved_samples(self):
        # the sphere patch has analytic pullback curvature 1; both routes
        # must land within 20% of each other
        grid = unit_grid(2, 32)
        samples = sphere_patch_samples(1.0, 32)
        s_fn = l2_curvature_score(
            estimate_curvature_via_function(grid, samples, CFG_FN), trim=2
        )
        s_knn = l2_curvature_score(
            estimate_curvature_via_metric(grid, samples, CFG_KNN), trim=2
        )
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

    def test_score_invariant_under_similarity_when_rescaling(self):
        grid = unit_grid(2, 16)
        cfg = EstimationConfig(method="metric_knn", rescale_output=True)
        base = sphere_patch_samples(1.0, 16)[:, :2]  # arbitrary smooth 2-D data
        r1 = roundtrip_score(grid, base, cfg)
        r2 = roundtrip_score(grid, 3.0 * base + 11.0, cfg)
        assert r1.score == pytest.approx(r2.score, rel=1e-8)
        assert r1.score_raw != pytest.approx(r2.score_raw, rel=1e-3)


class TestRoundTripScore:
    def test_raw_equals_scaled_when_rescale_off(self):
        grid = unit_grid(2, 16)
        result = roundtrip_score(grid, grid.points(), CFG_KNN)
        assert result.score == result.score_raw

    def test_curvature_from_metric_field_interpolates_input(self):
        # sanity: splining an analytic constant metric keeps K at zero
        grid = unit_grid(2, 16)
        mats = np.tile(np.diag([2.0, 5.0]), (grid.num_points, 1, 1))
        fld = curvature_from_metric_field(
            MetricField.from_matrices(grid, mats), EstimationConfig()
        )
        assert np.max(np.abs(fld.values)) < 1e-9


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
