"""Curvature families, turning angles, and curve reconstruction."""

import numpy as np
import pytest

from curvebench.curves import (
    CurvatureSpec,
    _cumulative_simpson,
    curvature_value,
    reconstruct_curve,
)

H = 1e-3


def fine_grid(h=H, total=1.0):
    return np.linspace(0.0, total, int(round(total / h)) + 1)


class TestCurvatureValue:
    def test_flat_is_identically_zero(self):
        assert curvature_value(CurvatureSpec("flat", 1.8), 3.7) == 0.0

    def test_circle_is_constant_two_pi_theta(self):
        assert curvature_value(CurvatureSpec("circle", 1.2), 0.5) == pytest.approx(
            2.4 * np.pi, abs=1e-12
        )

    def test_logistic_at_zero(self):
        assert curvature_value(CurvatureSpec("logistic", 1.0), 0.0) == pytest.approx(5.0)

    def test_sine_quarter_period(self):
        assert curvature_value(CurvatureSpec("sine", 1.0), 0.25) == pytest.approx(5.0)

    def test_sine_amplitude_grows_with_theta(self):
        assert curvature_value(CurvatureSpec("sine", 1.8), 0.25) == pytest.approx(13.0)

    def test_polyroll_closed_form(self):
        spec = CurvatureSpec("polyroll", 1.2)
        s = 0.7
        assert curvature_value(spec, s) == pytest.approx(4 * 1.2 * (s + 1) ** 2.4)

    def test_vectorized_evaluation(self):
        s = np.array([0.0, 0.5, 1.0])
        vals = curvature_value(CurvatureSpec("circle", 1.0), s)
        assert np.allclose(vals, 2 * np.pi)

    def test_non_finite_arc_length_rejected(self):
        with pytest.raises(ValueError):
            curvature_value(CurvatureSpec("flat", 1.0), np.inf)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            CurvatureSpec("spiral", 1.0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(ValueError):
            CurvatureSpec("circle", theta)


class TestCumulativeSimpson:
    def test_exact_on_cubics(self):
        # Simpson integrates cubics exactly; prefix values must match the
        # antiderivative at every node, odd and even.
        t = np.linspace(0.0, 2.0, 41)
        y = t**3 - 2 * t**2 + 0.5
        want = t**4 / 4 - 2 * t**3 / 3 + 0.5 * t
        got = _cumulative_simpson(y, t[1] - t[0])
        assert np.max(np.abs(got - want)) < 1e-13

    def test_fourth_order_on_smooth_integrand(self):
        t = fine_grid()
        got = _cumulative_simpson(np.cos(2 * np.pi * t), t[1] - t[0])
        want = np.sin(2 * np.pi * t) / (2 * np.pi)
        assert np.max(np.abs(got - want)) < 5e-11

    def test_odd_interval_count(self):
        t = np.linspace(0.0, 1.0, 6)  # 5 intervals
        got = _cumulative_simpson(t**2, t[1] - t[0])
        assert got[-1] == pytest.approx(1 / 3, abs=1e-13)


def turning_angle(spec, s):
    """alpha(s), the last entry of the reconstructed curve's turning-angle table."""
    return reconstruct_curve(spec, np.array([0.0, s]))._fine_alpha[-1]


class TestTurningAngle:
    def test_flat_integral_is_zero(self):
        assert turning_angle(CurvatureSpec("flat", 1.3), 1.0) == 0.0

    def test_circle_half_turn(self):
        # analytic antiderivative of the constant 2*pi
        got = turning_angle(CurvatureSpec("circle", 1.0), 0.5)
        assert got == pytest.approx(np.pi, abs=1e-10)

    def test_sine_full_period_cancels(self):
        # integral_0^1 5 sin(2 pi u) du = 0
        got = turning_angle(CurvatureSpec("sine", 1.0), 1.0)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_negative_arc_length_is_signed(self):
        # a negative step integrates backwards
        nodes = np.linspace(0.0, -0.25, 251)
        kappa = curvature_value(CurvatureSpec("circle", 1.0), nodes)
        got = _cumulative_simpson(kappa, nodes[1] - nodes[0])[-1]
        assert got == pytest.approx(-np.pi / 2, abs=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            turning_angle(CurvatureSpec("circle", 1.0), np.nan)


class TestReconstructCurve:
    def test_flat_curve_is_the_segment(self):
        curve = reconstruct_curve(CurvatureSpec("flat", 1.0), np.array([0.0, 0.5, 1.0]))
        assert np.allclose(curve.points, [[0, 0], [0.5, 0], [1, 0]], atol=1e-12)

    def test_circle_at_half_turn(self):
        # analytic: gamma(s) = (sin(2 pi s), 1 - cos(2 pi s)) / (2 pi)
        curve = reconstruct_curve(CurvatureSpec("circle", 1.0), fine_grid())
        p = curve.at(0.5)
        assert np.allclose(p, [0.0, 1 / np.pi], atol=1e-9)

    @pytest.mark.parametrize("theta", [1.0, 1.2, 1.8])
    def test_circle_samples_lie_on_circle(self, theta):
        # constant curvature kappa reconstructs the circle of radius 1/kappa
        # centered at (0, 1/kappa)
        curve = reconstruct_curve(CurvatureSpec("circle", theta), fine_grid())
        radius = 1.0 / (2 * np.pi * theta)
        dist = np.linalg.norm(curve.points - np.array([0.0, radius]), axis=1)
        assert np.max(np.abs(dist - radius)) < 1e-8

    def test_normalization_at_origin(self):
        for family in ("circle", "logistic", "sine", "polyroll"):
            curve = reconstruct_curve(CurvatureSpec(family, 1.2), fine_grid())
            assert np.allclose(curve.at(0.0), [0.0, 0.0], atol=1e-15)
            assert np.allclose(curve.tangent_at(0.0), [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("family", ["flat", "circle", "logistic", "sine"])
    @pytest.mark.parametrize("theta", [1.2, 1.8])
    def test_unit_speed_moderate_families(self, family, theta):
        # consecutive-sample chord speed within 10 h^2 of 1
        curve = reconstruct_curve(CurvatureSpec(family, theta), fine_grid())
        chords = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
        speed = chords / np.diff(curve.s_values)
        assert np.max(np.abs(speed - 1.0)) < 10 * H**2

    @pytest.mark.parametrize("theta", [1.2, 1.8])
    def test_unit_speed_polyroll(self, theta):
        # polyroll reaches |kappa| ~ 4 theta 2^(2 theta); the intrinsic
        # chord-shortening term (kappa h)^2 / 24 then exceeds the 10 h^2
        # budget of the other families, so the bound must carry kappa.
        curve = reconstruct_curve(CurvatureSpec("polyroll", theta), fine_grid())
        kmax = float(curvature_value(CurvatureSpec("polyroll", theta), 1.0))
        chords = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
        speed = chords / np.diff(curve.s_values)
        bound = max(10 * H**2, (kmax * H) ** 2 / 12)
        assert np.max(np.abs(speed - 1.0)) < bound

    @pytest.mark.parametrize("family", ["flat", "circle", "logistic", "sine"])
    @pytest.mark.parametrize("theta", [1.2, 1.8])
    def test_curvature_roundtrip(self, family, theta):
        self._roundtrip(family, theta, h=1e-3)

    @pytest.mark.parametrize("theta", [1.2, 1.8])
    def test_curvature_roundtrip_polyroll(self, theta):
        # needs the finer step: the second-difference bias h^2 kappa^3 / 12
        # only clears the 1e-3 floor once h <= 1e-4
        self._roundtrip("polyroll", theta, h=1e-4)

    @staticmethod
    def _roundtrip(family, theta, h):
        spec = CurvatureSpec(family, theta)
        curve = reconstruct_curve(spec, fine_grid(h), step=h)
        pts = curve._fine_points
        s = curve._fine_s
        # centered second difference for gamma'', left-normal of gamma'
        interior = slice(1, -1)
        gpp = (pts[2:] - 2 * pts[1:-1] + pts[:-2]) / h**2
        tangent = (pts[2:] - pts[:-2]) / (2 * h)
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        est = np.einsum("ij,ij->i", normal, gpp)
        want = curvature_value(spec, s[interior])
        mask = (s[interior] >= 0.05) & (s[interior] <= 0.95)
        tol = max(1e-3, 100 * h**2)
        assert np.max(np.abs(est[mask] - want[mask])) < tol

    def test_off_node_queries_interpolate(self):
        curve = reconstruct_curve(CurvatureSpec("circle", 1.0), fine_grid())
        p = curve.at(0.25037)
        radius = 1.0 / (2 * np.pi)
        assert abs(np.linalg.norm(p - [0, radius]) - radius) < 1e-6

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            reconstruct_curve(CurvatureSpec("flat", 1.0), np.array([0.0, 0.5, 0.4]))

    def test_step_larger_than_spacing_rejected(self):
        with pytest.raises(ValueError, match="step"):
            reconstruct_curve(
                CurvatureSpec("flat", 1.0), np.array([0.0, 5e-4, 1.0]), step=1e-3
            )

    def test_query_outside_domain_rejected(self):
        curve = reconstruct_curve(CurvatureSpec("flat", 1.0), fine_grid())
        with pytest.raises(ValueError, match="domain"):
            curve.at(1.5)
