"""One pass of every benchmark workload, checked against bench/reference/.

A pass draws a sample of the stored operations (47 of the 341), so this
checks that ``bench/run.py`` runs end to end; ``test_bench_references.py``
checks every stored reference output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["score-warm", "score-cold", "suite-paper"])
def test_one_pass_matches_the_references(workload):
    # --seconds 0.1 still completes the first pass
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
