"""One pass of every benchmark workload, checked against bench/reference/.

A pass draws a sample of the stored operations (47 of the 341), so this
checks that ``bench/run.py`` runs end to end, untraced and traced;
``test_bench_references.py`` checks every stored reference output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the layer metrics a traced pass of each workload must report above 0
TRACED_LAYERS = {
    "score-warm": ["estimation.knn_fit_ms"],
    "score-cold": ["estimation.knn_fit_ms", "estimation.function_spline_ms"],
    "suite-paper": ["reducers.smacof_ms_per_iter"],
}


def one_pass(workload, trace):
    """The result of one correct ``bench/run.py`` pass with no failed operation."""
    # --seconds 0.1 still completes the first pass
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["score-warm", "score-cold", "suite-paper"])
def test_one_pass_matches_the_references(workload):
    one_pass(workload, trace=0)


@pytest.mark.parametrize("workload,layers", TRACED_LAYERS.items(), ids=list(TRACED_LAYERS))
def test_traced_pass_records_each_layer(workload, layers):
    metrics = one_pass(workload, trace=1)["metrics"]
    for name in layers:
        assert metrics.get(name, {}).get("value", 0) > 0, f"no {name} span in the traced pass"
