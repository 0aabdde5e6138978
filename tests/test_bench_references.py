"""Every stored benchmark reference operation, checked as the benchmark checks it.

``test_bench_smoke.py`` runs one pass per workload, a sample of the stored
operations; this runs all of them: each score-* call any seed can draw and
the suite of every suite-paper seed, through ``bench/program.py``.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import program  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cb():
    return program.import_curvebench()


@pytest.mark.parametrize("workload", ["score-warm", "score-cold"])
def test_every_score_operation_matches_its_reference(cb, workload):
    reference = program.load_reference(workload)
    ops = {"score-warm": workloads.warm_universe,
           "score-cold": workloads.cold_universe}[workload]()
    assert len(ops) == len(reference)
    failures = []
    for prepared in program.prepare_score_ops(cb, ops):
        got = program.outcome(program.score(cb, prepared))
        why = program.mismatch(got, reference.get(prepared[0].key))
        if why is not None:
            failures.append(f"{prepared[0].key}: {why}")
    assert failures == []


def test_every_suite_seed_matches_its_references(cb, tmp_path):
    reference = program.load_reference("suite-paper")
    failures, checked = [], 0
    for suite_seed in workloads.SUITE_SEEDS:
        out_dir = tmp_path / f"seed{suite_seed}"
        with redirect_stdout(StringIO()):
            assert cb.cli.main(workloads.suite_argv(suite_seed, out_dir)) == 0
        for key, got in program.suite_outcomes(out_dir)[0].items():
            checked += 1
            why = program.mismatch(got, reference.get(f"{suite_seed}/{key}"))
            if why is not None:
                failures.append(f"{suite_seed}/{key}: {why}")
    assert failures == []
    assert checked == len(reference)
