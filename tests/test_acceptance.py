"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a PASS line on success (pytest -s or -rA shows them); a
failing criterion surfaces as an ordinary pytest failure.
"""

import stat
import sys
import time

import numpy as np
import pytest

from curvebench.cli import main
from curvebench.curves import CurvatureSpec, reconstruct_curve
from curvebench.errors import (
    ReducerExitError,
    ReducerRowCountError,
    ReducerTimeoutError,
)
from curvebench.estimation import (
    EstimationConfig,
    curvature_from_metric_field,
    estimate_curvature_via_function,
    estimate_curvature_via_metric,
    knn_metric_at,
)
from curvebench.generator import enumerate_suite
from curvebench.geometry import (
    MetricField,
    TensorGrid,
    l2_curvature_score,
    sectional_at,
    unit_grid,
)
from curvebench.reducers import npr, run_external_reducer

H = 1e-3
CFG_FN = EstimationConfig(method="function_spline", rescale_output=False)
CFG_KNN = EstimationConfig(method="metric_knn", rescale_output=False)


def report(number, label):
    print(f"\nACCEPTANCE {number:02d} PASS - {label}", flush=True)


def sphere_patch(radius, resolution):
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


def test_criterion_01_circle_reconstruction():
    start = time.perf_counter()
    for theta in (1.2, 1.8):
        curve = reconstruct_curve(
            CurvatureSpec("circle", theta), np.linspace(0, 1, 1001), step=H
        )
        radius = 1.0 / (2 * np.pi * theta)
        dist = np.linalg.norm(curve.points - np.array([0.0, radius]), axis=1)
        assert np.max(np.abs(dist - radius)) < 1e-6
        speed = np.linalg.norm(np.diff(curve.points, axis=0), axis=1) / np.diff(
            curve.s_values
        )
        assert np.max(np.abs(speed - 1.0)) < 10 * H**2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"circle reconstruction, radius 1e-6 and unit speed 10h^2 ({elapsed:.2f}s)")


def test_criterion_02_flat_space_zero():
    start = time.perf_counter()
    # constant metric: exactly zero at every node
    k, floored = sectional_at(np.eye(2), np.zeros((2, 2, 2, 2)))
    assert np.array_equal(k, [0.0]) and not floored
    # identity round trip under both estimators on a 32x32 grid
    grid = unit_grid(2, 32)
    pts = grid.points()
    for cfg in (CFG_FN, CFG_KNN):
        fld = (estimate_curvature_via_function if cfg.method == "function_spline"
               else estimate_curvature_via_metric)(grid, pts, cfg)
        assert l2_curvature_score(fld, trim=2) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"flat metric exactly zero; identity round trip < 1e-6 ({elapsed:.2f}s)")


def test_criterion_03_isometry_zero():
    start = time.perf_counter()
    grid = unit_grid(2, 32)
    theta = 0.37
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = grid.points() @ rot.T + np.array([1.3, -0.2])
    for cfg in (CFG_FN, CFG_KNN):
        fld = (estimate_curvature_via_function if cfg.method == "function_spline"
               else estimate_curvature_via_metric)(grid, moved, cfg)
        assert l2_curvature_score(fld, trim=2) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"rotation+translation scores < 1e-6 under both estimators ({elapsed:.2f}s)")


def test_criterion_04_constant_curvature_oracles():
    start = time.perf_counter()
    res = 32
    other = np.linspace(0.0, 1.0, res)
    # sphere: diag(1, sin^2 x1) away from its coordinate singularity
    sphere_axis = np.linspace(0.5, 1.5, res)
    grid = TensorGrid((sphere_axis, other))
    mats = np.zeros((grid.num_points, 2, 2))
    mats[:, 0, 0] = 1.0
    mats[:, 1, 1] = np.sin(grid.points()[:, 0]) ** 2
    fld = curvature_from_metric_field(
        MetricField.from_matrices(grid, mats), EstimationConfig()
    )
    assert np.max(np.abs(fld.as_grid()[2:-2, 2:-2, 0] - 1.0)) < 1e-3
    # hyperbolic: diag(1, exp(2 x1))
    hyper_axis = np.linspace(0.0, 0.8, res)
    grid = TensorGrid((hyper_axis, other))
    mats = np.zeros((grid.num_points, 2, 2))
    mats[:, 0, 0] = 1.0
    mats[:, 1, 1] = np.exp(2 * grid.points()[:, 0])
    fld = curvature_from_metric_field(
        MetricField.from_matrices(grid, mats), EstimationConfig()
    )
    assert np.max(np.abs(fld.as_grid()[2:-2, 2:-2, 0] + 1.0)) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"sphere +1 and hyperbolic -1 within 1e-3 from spline derivatives ({elapsed:.2f}s)")


def test_criterion_05_knn_estimator_sphere_patch():
    start = time.perf_counter()
    for radius in (1.0, 2.0):
        errs = []
        for res in (16, 32, 64):
            grid = unit_grid(2, res)
            fld = estimate_curvature_via_metric(grid, sphere_patch(radius, res), CFG_KNN)
            axis = grid.axes[0]
            mask = (axis >= 0.3) & (axis <= 0.7)
            window = fld.as_grid()[np.ix_(mask, mask)][..., 0]
            errs.append(np.max(np.abs(window - 1 / radius**2)) * radius**2)
        assert errs[1] < 0.05  # resolution 32 within 5% of 1/r^2
        assert errs[0] >= errs[1] >= errs[2]  # non-increasing under refinement
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"sphere patch: 5% at res 32, monotone 16->32->64 ({elapsed:.2f}s)")


def test_criterion_06_linear_map_exactness():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        M = rng.uniform(-3, 3, size=(2, 2))
        x = rng.normal(size=2)
        neighbors = x + 0.3 * rng.normal(size=(8, 2))
        A = knn_metric_at(x, neighbors, M @ x, neighbors @ M.T)
        assert np.max(np.abs(A - M.T @ M)) < 1e-10
    report(6, "knn_metric_at recovers M^T M to 1e-10 over 100 random linear maps")


def test_criterion_07_suite_shape(tmp_path):
    suite = enumerate_suite(base_seed=11)
    assert len(suite) == 60
    for d in suite:
        assert d.n == 2 and d.m == 7
        assert set(d.thetas) <= {1.2, 1.8}
        assert d.eta == 0.01
    again = enumerate_suite(base_seed=11)
    assert [(d.instance_id, d.seed) for d in suite] == [
        (d.instance_id, d.seed) for d in again
    ]
    # byte-identical regeneration of the generated files under a fixed seed
    import hashlib

    digests = []
    for out in ("one", "two"):
        assert main([
            "generate", "--suite", "--seed", "11",
            "--out-dir", str(tmp_path / out),
        ]) == 0
        h = hashlib.sha256()
        for path in sorted((tmp_path / out).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    report(7, "suite enumerates 60 instances (n=2, m=7, thetas 1.2/1.8, eta 0.01), regeneration byte-identical")


@pytest.mark.slow
def test_criterion_08_ranking_property(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "fullsuite"
    assert main([
        "suite", "--methods", "pca,tsvd,mds", "--repeats", "3",
        "--seed", "0", "--workers", "2", "--out-dir", str(out_dir),
    ]) == 0
    rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
    scores = {}
    for row in rows:
        iid, method, repeat, score, _raw, _npr, status = row.split(",")
        assert status == "ok", row
        families = iid.split("-e")[0]
        bucket = "flat" if "flat" in families else "curved"
        scores.setdefault((method, bucket), []).append(float(score))
    for method in ("pca", "tsvd", "mds"):
        flat_median = np.median(scores[(method, "flat")])
        curved_median = np.median(scores[(method, "curved")])
        assert flat_median < curved_median, (
            f"{method}: median on flat-containing instances {flat_median} "
            f"not below fully-curved median {curved_median}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(8, f"PCA/tSVD/MDS medians: flat-containing < fully curved ({elapsed:.0f}s)")


def test_criterion_09_npr_baseline():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    assert npr(X, X, kn=7) == 1.0
    assert npr(X, 2.0 * X + 3.0, kn=7) == 1.0
    # Monte-Carlo oracle for the random-permutation expectation kn/(N-1)
    X10 = rng.normal(size=(10, 4))
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        total += npr(X10, X10[rng.permutation(10)], kn=3)
    assert abs(total / trials - 3 / 9) < 0.05
    report(9, "NPR exact on identity/similarity; permutation mean within 0.05 of 1/3")


def test_criterion_10_protocol_robustness(tmp_path):
    X = np.random.default_rng(4).normal(size=(6, 3))

    def stub(name, body):
        path = tmp_path / name
        path.write_text("#!/usr/bin/env python3\n" + body)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return f"{sys.executable} {path} {{input}} {{output}} {{k}}"

    drop = stub("drop.py", (
        "import sys\n"
        "rows = open(sys.argv[1]).read().splitlines()\n"
        "open(sys.argv[2], 'w').write('\\n'.join([rows[0].replace('x','y')] + rows[1:-2]) + '\\n')\n"
    ))
    sleeper = stub("sleep.py", "import time\ntime.sleep(30)\n")
    crash = stub("crash.py", "import sys\nsys.exit(9)\n")

    errors = []
    for command, expect in (
        (drop, ReducerRowCountError),
        (sleeper, ReducerTimeoutError),
        (crash, ReducerExitError),
    ):
        with pytest.raises(expect) as err:
            run_external_reducer(command, X, 3, timeout=1.5,
                                 workdir=tmp_path / expect.__name__)
        errors.append(type(err.value))
    assert len(set(errors)) == 3  # three distinct protocol errors

    # a crashing reducer never corrupts the suite summary
    out_dir = tmp_path / "suite"
    assert main([
        "suite", "--methods", f"pca,external:{crash}", "--repeats", "1",
        "--limit", "2", "--resolution", "16", "--out-dir", str(out_dir),
    ]) == 0
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[0] == "instance_id,method,repeat,score,score_raw,npr,status"
    payload = [r.split(",") for r in rows[1:]]
    assert all(len(p) == 7 for p in payload)
    assert sum(p[-1] == "ok" for p in payload) == 2
    assert sum(p[-1] == "failed" for p in payload) == 2
    report(10, "wrong-rows / timeout / nonzero-exit raise distinct errors; suite summary intact")
