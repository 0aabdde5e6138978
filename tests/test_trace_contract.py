"""The benchmark's trace probes still find the code they time.

A traced benchmark run (``bench/run.py --trace 1``) wraps curvebench's module
attributes by name, as listed by ``probes()`` in ``bench/program.py``.  There,
a renamed or moved attribute only prints a warning and its span goes
missing; here it fails a test.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import program  # noqa: E402
import tracing  # noqa: E402

from curvebench import (  # noqa: E402
    EstimationConfig,
    cli,
    enumerate_suite,
    makegen,
    reduce_dataset,
    unit_grid,
)

SCORE_SPANS = {"cli.score_embedding", "geometry.l2_score", "reducers.npr"}
SCORE_COUNTS = {"geometry.degenerate_nodes", "geometry.floored_plane_nodes"}
# the spans and counts that only one estimator's route records
ESTIMATOR_SPANS = {
    "metric_knn": {"estimation.knn_fit", "estimation.metric_curvature"},
    "function_spline": {"estimation.function_spline"},
}
ESTIMATOR_COUNTS = {
    "metric_knn": {"estimation.failed_nodes", "estimation.clamped_nodes"},
    "function_spline": set(),
}


def test_every_probe_target_resolves():
    missing = [
        f"{probe.owner.__name__}.{probe.attr}"
        for probe in program.probes()
        if not callable(getattr(probe.owner, probe.attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("method", ["metric_knn", "function_spline"])
def test_traced_score_records_every_layer(method):
    desc = enumerate_suite(grid_resolution=16)[0]
    X = makegen(desc).evaluate(unit_grid(desc.n, 16).points()).points
    Y = reduce_dataset("pca", X, desc.n).Y
    original = cli.score_embedding
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, program.probes()):
        cli.score_embedding(desc, Y, EstimationConfig(method=method))
    spans = {span.name for span in tracer.spans}
    assert SCORE_SPANS | ESTIMATOR_SPANS[method] <= spans
    other = "function_spline" if method == "metric_knn" else "metric_knn"
    assert not spans & ESTIMATOR_SPANS[other]
    assert SCORE_COUNTS | ESTIMATOR_COUNTS[method] <= set(tracer.counts)
    assert cli.score_embedding is original


def test_traced_suite_records_every_mds_layer(tmp_path):
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, program.probes()):
        assert cli.main(["suite", "--methods", "mds", "--limit", "1", "--repeats", "1",
                         "--resolution", "12", "--mds-max-iter", "5", "--workers", "1",
                         "--out-dir", str(tmp_path / "out")]) == 0
    spans = {span.name for span in tracer.spans}
    assert {"reducers.mds", "reducers.classical_mds", "reducers.smacof"} <= spans
    assert "reducers.mds_iters" in tracer.counts
