"""Closed-form plane-curve curvature families and curve reconstruction.

A unit-speed plane curve is recovered from a prescribed curvature
function ``kappa(s)`` through its turning angle::

    alpha(s) = integral_0^s kappa(u) du
    gamma(s) = (integral_0^s cos(alpha(t)) dt, integral_0^s sin(alpha(t)) dt)

Integration base points are fixed to zero, which picks the canonical
representative with gamma(0) = (0, 0) and gamma'(0) = (1, 0) out of the
rigid-move equivalence class.
"""

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("logistic", "polyroll", "sine", "circle", "flat")

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class CurvatureSpec:
    """One axis's curvature family plus its growth parameter theta."""

    family: str
    theta: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown curvature family {self.family!r}; expected one of {FAMILIES}"
            )
        theta = float(self.theta)
        if not np.isfinite(theta) or theta <= 0.0:
            raise ValueError(f"theta must be finite and > 0, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)


def curvature_value(spec: CurvatureSpec, s):
    """Evaluate the closed-form curvature of ``spec`` at arc length ``s``.

    ``s`` may be a scalar or an ndarray; the result has the same shape.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("arc length s must be finite")
    th = spec.theta
    if spec.family == "logistic":
        out = 10.0 * th / (1.0 + np.exp(-0.5 * s))
    elif spec.family == "polyroll":
        out = 4.0 * th * (s + 1.0) ** (2.0 * th)
    elif spec.family == "sine":
        out = (5.0 + 10.0 * (th - 1.0)) * np.sin(2.0 * np.pi * s)
    elif spec.family == "circle":
        out = np.full_like(s, 2.0 * np.pi * th)
    else:  # flat
        out = np.zeros_like(s)
    return out if out.ndim else float(out)


def _cumulative_simpson(y, dx):
    """Prefix integrals of uniformly sampled ``y`` along axis 0.

    Composite Simpson pairs give the even-index prefixes; odd indices add
    one half-panel (three-point Newton-Cotes), so every node carries an
    O(dx^4) error for smooth integrands.  ``dx`` may be negative, in which
    case signed integrals come out naturally.
    """
    y = np.asarray(y, dtype=float)
    m = y.shape[0] - 1  # number of intervals
    out = np.zeros_like(y)
    if m <= 0:
        return out
    if m == 1:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
    pair = (dx / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    if m == 2:
        out[1] = out[0] + (dx / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
        return out
    # odd nodes: cubic-exact one-interval rule (Adams-Moulton weights) on the
    # four nearest nodes, forward where possible, backward near the far end
    k = np.arange(1, m + 1, 2)
    fwd = k[k + 2 <= m]
    out[fwd] = out[fwd - 1] + (dx / 24.0) * (
        9.0 * y[fwd - 1] + 19.0 * y[fwd] - 5.0 * y[fwd + 1] + y[fwd + 2]
    )
    bwd = k[k + 2 > m]
    out[bwd] = out[bwd - 1] + (dx / 24.0) * (
        y[bwd - 3] - 5.0 * y[bwd - 2] + 19.0 * y[bwd - 1] + 9.0 * y[bwd]
    )
    return out


@dataclass(frozen=True)
class PlaneCurve:
    """Sampled unit-speed plane curve with a fixed curvature profile.

    ``s_values``/``points`` hold the samples requested at construction.
    The full quadrature table is kept privately so that positions and
    tangents can be queried anywhere in the arc-length domain by linear
    interpolation between quadrature nodes.
    """

    s_values: np.ndarray
    points: np.ndarray
    _fine_s: np.ndarray = field(default=None, repr=False)
    _fine_alpha: np.ndarray = field(default=None, repr=False)
    _fine_points: np.ndarray = field(default=None, repr=False)

    def at(self, s):
        """Curve position(s) at arc length ``s`` (scalar or array)."""
        s = np.asarray(s, dtype=float)
        self._check_domain(s)
        x = np.interp(s, self._fine_s, self._fine_points[:, 0])
        y = np.interp(s, self._fine_s, self._fine_points[:, 1])
        return np.stack([x, y], axis=-1)

    def tangent_at(self, s):
        """Unit tangent(s) (cos alpha, sin alpha) at arc length ``s``.

        The turning angle is interpolated, so the returned vector has unit
        norm exactly.
        """
        s = np.asarray(s, dtype=float)
        self._check_domain(s)
        a = np.interp(s, self._fine_s, self._fine_alpha)
        return np.stack([np.cos(a), np.sin(a)], axis=-1)

    def _check_domain(self, s):
        lo, hi = self._fine_s[0], self._fine_s[-1]
        if np.any(s < lo) or np.any(s > hi):
            raise ValueError(
                f"arc length outside the curve domain [{lo}, {hi}]"
            )


def reconstruct_curve(
    spec: CurvatureSpec, s_grid, step: float = DEFAULT_STEP
) -> PlaneCurve:
    """Reconstruct the unit-speed curve with curvature ``spec`` on ``s_grid``.

    Parameters
    ----------
    spec : CurvatureSpec
    s_grid : array of strictly increasing, non-negative arc lengths.
    step : quadrature step; must not exceed the smallest grid spacing.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 2:
        raise ValueError("s_grid must be a 1-D array with at least two samples")
    if not np.all(np.isfinite(s_grid)):
        raise ValueError("s_grid must be finite")
    spacing = np.diff(s_grid)
    if np.any(spacing <= 0):
        raise ValueError("s_grid must be strictly increasing")
    if s_grid[0] < 0:
        raise ValueError("s_grid must start at or after 0")
    if step > spacing.min() + 1e-15:
        raise ValueError(
            f"integration step {step} exceeds the smallest grid spacing {spacing.min()}"
        )

    total = float(s_grid[-1])
    m = max(2, int(np.ceil(total / step - 1e-12)))
    fine = np.linspace(0.0, total, m + 1)
    dx = fine[1] - fine[0]
    alpha = _cumulative_simpson(curvature_value(spec, fine), dx)
    xs = _cumulative_simpson(np.cos(alpha), dx)
    ys = _cumulative_simpson(np.sin(alpha), dx)
    fine_points = np.stack([xs, ys], axis=1)

    px = np.interp(s_grid, fine, xs)
    py = np.interp(s_grid, fine, ys)
    return PlaneCurve(
        s_values=s_grid,
        points=np.stack([px, py], axis=1),
        _fine_s=fine,
        _fine_alpha=alpha,
        _fine_points=fine_points,
    )
