"""The benchmark's calls into curvebench, and the checks on what they return.

Operations go through curvebench's public API: ``cli.main``,
``cli.score_embedding`` and the functions the package exports.  The trace
probes wrap the module attributes through which curvebench reaches its
layers; one of them, ``cli._run_suite_job``, is private and marks where a
suite job starts.
"""

import csv
import importlib
import json
import os
import platform
import sys
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Scores pass through SMACOF, whose BLAS reductions are ordered differently
# with different thread counts: MDS scores moved by up to 4.8e-8 relative
# between OPENBLAS_NUM_THREADS=1 and the default, so 1e-12 cannot hold.
SCORE_RTOL = 1e-6
NPR_ATOL = 1e-9     # NPR is a ratio of neighbor counts

# Many outputs are ill-conditioned: a change of a few ulps in the embedding
# moves some scores by as much as their own size, and NPR by up to 0.056
# through ties between neighbor distances on a grid.  The reference stores,
# per score-* operation, how far its outputs move when the embedding is
# perturbed by ROUNDOFF_EPS relative, and the check allows NOISE_FACTOR
# times that where it exceeds the plain tolerance.
ROUNDOFF_EPS = 1e-15
ROUNDOFF_DRAWS = 2
NOISE_FACTOR = 10.0


def work_dir() -> Path:
    """Scratch space for suite output, inside the checkout and git-ignored."""
    path = Path(__file__).resolve().parent / ".work"
    path.mkdir(exist_ok=True)
    return path


def import_curvebench():
    """Import curvebench from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cb = importlib.import_module("curvebench")
    importlib.import_module("curvebench.cli")
    if Path(cb.__file__).resolve().parent.parent != src:
        raise ImportError(f"curvebench imported from {cb.__file__}, not from {src}")
    return cb


def prepare_score_ops(cb, ops) -> list:
    """Generate each call's instance and reduce it: (op, descriptor, Y, config)."""
    suites = {}
    out = []
    for op in ops:
        if op.resolution not in suites:
            suites[op.resolution] = cb.enumerate_suite(
                base_seed=workloads.INSTANCE_BASE_SEED, grid_resolution=op.resolution)
        desc = suites[op.resolution][op.instance]
        X = cb.makegen(desc).evaluate(cb.unit_grid(desc.n, desc.grid_resolution).points()).points
        Y = cb.reduce_dataset(op.reducer, X, desc.n).Y
        config = cb.EstimationConfig(method=op.estimator.replace("-", "_"),
                                     k_neighbors=op.k_neighbors)
        out.append((op, desc, Y, config))
    return out


def score(cb, prepared) -> dict:
    """One score-* operation: a ``score_embedding`` call."""
    _, desc, Y, config = prepared
    return cb.cli.score_embedding(desc, Y, config)


def outcome(report) -> dict:
    """The parts of a score report that the reference check compares."""
    return {
        "score": report["curvature_score"],
        "score_raw": report["curvature_score_raw"],
        "npr": report["npr"],
        "degenerate": len(report["degenerate_nodes"]),
    }


def roundoff_noise(cb, prepared, want) -> dict:
    """How far the outputs ``want`` of a score-* operation move when its
    embedding is perturbed by ROUNDOFF_EPS relative: the largest change
    over ROUNDOFF_DRAWS fixed draws."""
    import numpy as np

    op, desc, Y, config = prepared
    noise = {"score": 0.0, "score_raw": 0.0, "npr": 0.0}
    for draw in range(ROUNDOFF_DRAWS):
        rng = np.random.default_rng(draw)
        Yp = Y * (1.0 + ROUNDOFF_EPS * rng.standard_normal(Y.shape))
        got = outcome(score(cb, (op, desc, Yp, config)))
        for name in noise:
            noise[name] = max(noise[name], abs(got[name] - want[name]))
    return noise


def suite_outcomes(out_dir):
    """Row key -> outcome (None for a failed row) of one suite run, and the
    seconds each successful row took to reduce and score, as its report says."""
    out_dir = Path(out_dir)
    rows = {}
    with open(out_dir / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{row['instance_id']},{row['method']},{row['repeat']}"
            if row["status"] != "ok":
                rows[key] = None
                continue
            rows[key] = {"score": float(row["score"]), "score_raw": float(row["score_raw"]),
                         "npr": float(row["npr"]), "degenerate": None}
    seconds = []
    for path in sorted((out_dir / "reports").glob("*.json")):
        rep = json.loads(path.read_text())
        key = f"{rep['instance_id']},{rep['method']},{rep['repeat']}"
        if rows.get(key) is not None:
            rows[key]["degenerate"] = len(rep["degenerate_nodes"])
            seconds.append(rep["wall_time_reduce"] + rep["wall_time_score"])
    return rows, seconds


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["outcomes"]


def mismatch(got, want):
    """Why ``got`` differs from the reference ``want``, or None if it matches."""
    if want is None:
        return "no reference for this operation"
    if got is None:
        return "operation failed"
    noise = want.get("noise", {})   # suite-paper rows store none
    # written as "not <=" so that a NaN output is a mismatch
    for name in ("score", "score_raw"):
        a, b = got[name], want[name]
        if not abs(a - b) <= max(SCORE_RTOL * abs(b), NOISE_FACTOR * noise.get(name, 0.0)):
            return f"{name} {a!r} != reference {b!r}"
    if not abs(got["npr"] - want["npr"]) <= max(NPR_ATOL, NOISE_FACTOR * noise.get("npr", 0.0)):
        return f"npr {got['npr']!r} != reference {want['npr']!r}"
    if got["degenerate"] != want["degenerate"]:
        return f"degenerate nodes {got['degenerate']} != reference {want['degenerate']}"
    return None


def provenance() -> dict:
    """Machine, library and BLAS-thread settings of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def probes() -> list:
    """Spans at the boundaries between curvebench's layers."""
    from curvebench import cli, estimation, generator, reducers

    def mds_iters(tracer, result):
        tracer.add("reducers.mds_iters", result.hyperparameters["n_iter"])

    def knn_counts(tracer, result):
        diag = result[1]
        tracer.add("estimation.failed_nodes", len(diag["failed_nodes"]))
        tracer.add("estimation.clamped_nodes", len(diag["clamped_nodes"]))

    def field_counts(tracer, fld):
        tracer.add("geometry.degenerate_nodes", len(fld.diagnostics["degenerate_nodes"]))
        tracer.add("geometry.floored_plane_nodes", len(fld.diagnostics["floored_plane_nodes"]))

    P = tracing.Probe
    return [
        P(cli, "_run_suite_job", "cli.suite_job", new_op=True),
        P(cli, "score_embedding", "cli.score_embedding"),
        P(cli, "makegen", "generator.makegen"),
        P(generator.ImmersionMap, "evaluate", "generator.evaluate"),
        P(reducers, "pca_project", "reducers.linear"),
        P(reducers, "truncated_svd_project", "reducers.linear"),
        P(reducers, "mds_project", "reducers.mds", on_result=mds_iters),
        P(reducers, "classical_mds", "reducers.classical_mds"),
        P(reducers, "smacof", "reducers.smacof"),
        P(cli, "npr", "reducers.npr"),
        P(estimation, "estimate_metric_knn", "estimation.knn_fit", on_result=knn_counts),
        P(estimation, "curvature_from_metric_field", "estimation.metric_curvature",
          on_result=field_counts),
        P(estimation, "estimate_curvature_via_function", "estimation.function_spline",
          on_result=field_counts),
        P(estimation, "l2_curvature_score", "geometry.l2_score"),
    ]
