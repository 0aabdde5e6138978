"""Problem-instance generator: padded curves, random rotation, translation.

An instance immerses the unit hypercube grid of R^n into R^m by running a
reconstructed unit-speed curve along each source axis, padding curve i
into ambient coordinates (i, i+1) (1-based, so adjacent curves share one
coordinate), summing, then applying a Haar-random rotation of SO(m) and a
Gaussian translation with standard deviation eta.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .curves import DEFAULT_STEP, FAMILIES, CurvatureSpec, PlaneCurve, reconstruct_curve
from .geometry import pullback_from_jacobian

DEFAULT_N = 2
DEFAULT_M = 7
DEFAULT_RESOLUTION = 32
DEFAULT_ETA = 0.01
THETA_EASY = 1.2
THETA_HARD = 1.8

ORTHOGONALITY_TOL = 1e-10
DETERMINANT_TOL = 1e-8


def instance_id_for(n, m, families, thetas, eta, grid_resolution) -> str:
    """Deterministic identifier built from the instance parameters."""
    axes = "-".join(f"{f}{t:g}" for f, t in zip(families, thetas))
    return f"{axes}-e{eta:g}-r{grid_resolution}-n{n}m{m}"


def derive_seed(base_seed: int, tag: str) -> int:
    """Stable 64-bit stream seed for ``tag`` under a master seed."""
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class InstanceDescriptor:
    """Everything needed to regenerate one problem instance bit-exactly."""

    n: int
    m: int
    families: tuple
    thetas: tuple
    eta: float
    seed: int
    grid_resolution: int
    instance_id: str

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if not (self.m > self.n >= 1):
            raise ValueError(f"need m > n >= 1, got n={self.n}, m={self.m}")
        if len(self.families) != self.n or len(self.thetas) != self.n:
            raise ValueError("families and thetas must both have length n")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown curvature family {fam!r}")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and >= 0")
        if self.grid_resolution < 4:
            raise ValueError("grid_resolution must be >= 4")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        expected = instance_id_for(
            self.n, self.m, self.families, self.thetas, self.eta, self.grid_resolution
        )
        if self.instance_id != expected:
            raise ValueError(
                f"instance_id {self.instance_id!r} does not match parameters ({expected!r})"
            )

    def specs(self):
        return [CurvatureSpec(f, t) for f, t in zip(self.families, self.thetas)]


def make_descriptor(
    families,
    thetas,
    eta=DEFAULT_ETA,
    seed=0,
    grid_resolution=DEFAULT_RESOLUTION,
    m=DEFAULT_M,
) -> InstanceDescriptor:
    """Build a descriptor, deriving n and the instance id automatically."""
    families = tuple(families)
    thetas = tuple(float(t) for t in thetas)
    n = len(families)
    return InstanceDescriptor(
        n=n,
        m=m,
        families=families,
        thetas=thetas,
        eta=float(eta),
        seed=int(seed),
        grid_resolution=int(grid_resolution),
        instance_id=instance_id_for(n, m, families, thetas, float(eta), int(grid_resolution)),
    )


@dataclass(frozen=True)
class PointCloud:
    """N points of R^d; the row index is the point's identity."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a non-empty (N, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)


def sample_special_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation of SO(m).

    QR of a Gaussian matrix with the R-diagonal sign correction gives Haar
    measure on O(m); reflecting the last column when det = -1 restricts it
    to SO(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    z = rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


@dataclass(frozen=True)
class ImmersionMap:
    """A sampled instance: per-axis curves plus rigid randomization."""

    curves: tuple
    rotation: np.ndarray
    translation: np.ndarray
    descriptor: InstanceDescriptor

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        m = self.descriptor.m
        if r.shape != (m, m):
            raise ValueError(f"rotation must be {m}x{m}")
        if np.max(np.abs(r.T @ r - np.eye(m))) > ORTHOGONALITY_TOL:
            raise ValueError("rotation is not orthogonal within tolerance")
        if abs(np.linalg.det(r) - 1.0) > DETERMINANT_TOL:
            raise ValueError("rotation must have determinant +1")
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (m,):
            raise ValueError(f"translation must be an m-vector, m={m}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "curves", tuple(self.curves))

    def evaluate(self, pts) -> PointCloud:
        """Apply the immersion to every row of ``pts``, preserving row order."""
        return PointCloud(self.unrotated(pts) @ self.rotation.T + self.translation)

    def unrotated(self, pts) -> np.ndarray:
        """Assembled padded-curve sum before rotation and translation."""
        pts = np.asarray(pts, dtype=float)
        m = self.descriptor.m
        out = np.zeros((pts.shape[0], m))
        for i, curve in enumerate(self.curves):
            try:
                vals = curve.at(pts[:, i])
            except ValueError:
                row = _first_offending_row(curve, pts[:, i])
                raise ValueError(
                    f"grid row {row} has coordinate {pts[row, i]} outside the "
                    f"arc-length domain of axis {i}"
                ) from None
            out[:, i] += vals[:, 0]
            out[:, i + 1] += vals[:, 1]
        return out

    def jacobian(self, x) -> np.ndarray:
        """Analytic Jacobian (m, n) at a single source point ``x``."""
        x = np.asarray(x, dtype=float)
        n, m = self.descriptor.n, self.descriptor.m
        J0 = np.zeros((m, n))
        for i, curve in enumerate(self.curves):
            tan = curve.tangent_at(x[i])
            J0[i, i] = tan[0]
            J0[i + 1, i] = tan[1]
        return self.rotation @ J0

    def pullback_metrics(self, pts) -> np.ndarray:
        """Analytic pullback metric (N, n, n) at every row of ``pts``."""
        jacs = np.stack([self.jacobian(x) for x in np.asarray(pts, dtype=float)])
        return pullback_from_jacobian(jacs)


def _first_offending_row(curve: PlaneCurve, coords) -> int:
    lo, hi = curve._fine_s[0], curve._fine_s[-1]
    bad = np.nonzero((coords < lo) | (coords > hi))[0]
    return int(bad[0])


def makegen(descriptor: InstanceDescriptor, *, rotation=None) -> ImmersionMap:
    """Sample the immersion map described by ``descriptor``.

    All randomness flows from ``descriptor.seed`` (rotation drawn first,
    translation second), so identical descriptors give bit-identical maps.
    ``rotation`` is a test hook that replaces the sampled rotation without
    consuming different random draws.
    """
    rng = np.random.default_rng(descriptor.seed)
    s_grid = np.linspace(0.0, 1.0, int(round(1.0 / DEFAULT_STEP)) + 1)
    curves = tuple(reconstruct_curve(spec, s_grid) for spec in descriptor.specs())
    sampled_rot = sample_special_orthogonal(descriptor.m, rng)
    translation = rng.normal(0.0, descriptor.eta, size=descriptor.m) if descriptor.eta > 0 \
        else np.zeros(descriptor.m)
    return ImmersionMap(
        curves=curves,
        rotation=sampled_rot if rotation is None else np.asarray(rotation, dtype=float),
        translation=translation,
        descriptor=descriptor,
    )


def enumerate_suite(
    theta_easy: float = THETA_EASY,
    theta_hard: float = THETA_HARD,
    eta: float = DEFAULT_ETA,
    base_seed: int = 0,
    grid_resolution: int = DEFAULT_RESOLUTION,
):
    """The 60-instance experiment suite.

    All 15 unordered family pairs (multisets of size 2 over the 5 families)
    crossed with all 4 ordered (theta_1, theta_2) pairs drawn from
    {easy, hard}; n = 2, m = 7.  Per-instance seeds derive from
    ``base_seed`` by stable hashing of the instance id.
    """
    if theta_easy <= 0 or theta_hard <= 0:
        raise ValueError("theta values must be positive")
    out = []
    for a in range(len(FAMILIES)):
        for b in range(a, len(FAMILIES)):
            for t1 in (theta_easy, theta_hard):
                for t2 in (theta_easy, theta_hard):
                    families = (FAMILIES[a], FAMILIES[b])
                    thetas = (t1, t2)
                    iid = instance_id_for(
                        DEFAULT_N, DEFAULT_M, families, thetas, eta, grid_resolution
                    )
                    out.append(
                        make_descriptor(
                            families,
                            thetas,
                            eta=eta,
                            seed=derive_seed(base_seed, iid),
                            grid_resolution=grid_resolution,
                        )
                    )
    return out
