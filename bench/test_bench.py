"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import json
import types

import pytest

import program
import run
import tracing
import workloads


def test_warm_pass_is_deterministic_per_seed():
    assert workloads.warm_pass(1) == workloads.warm_pass(1)
    assert workloads.warm_pass(1) != workloads.warm_pass(2)
    ops = workloads.warm_pass(1)
    assert len(ops) == 2 * workloads.WARM_SLICE
    assert {(op.resolution, op.k_neighbors, op.estimator) for op in ops} == {(32, 8, "metric-knn")}


def test_cold_cycles_are_deterministic_per_seed():
    assert workloads.cold_cycles(3) == workloads.cold_cycles(3)
    assert workloads.cold_cycles(3) != workloads.cold_cycles(4)


@pytest.mark.parametrize("seed", range(20))
def test_cold_never_repeats_a_pair(seed):
    cycles = workloads.cold_cycles(seed)
    pairs = [(op.resolution, op.k_neighbors) for c in cycles for op in c]
    assert len(pairs) == len(set(pairs))
    assert len(pairs) == len(workloads.COLD_RESOLUTIONS) * len(workloads.COLD_K)
    for c in cycles:
        assert sorted(op.resolution for op in c) == list(workloads.COLD_RESOLUTIONS)
        assert sum(op.estimator == "function-spline" for op in c) == 8
        ks = {op.resolution: op.k_neighbors for op in c}
        for lo in range(24, 49, 5):
            assert sorted(ks[r] for r in range(lo, lo + 5)) == list(workloads.COLD_K)
        # any prefix of a cycle holds small and large problems alike
        first = [op.resolution for op in c[:6]]
        assert min(first) <= 30 and max(first) >= 42


def test_suite_seeds_are_deterministic_per_seed():
    assert workloads.suite_seeds(5) == workloads.suite_seeds(5)
    assert workloads.suite_seeds(5) != workloads.suite_seeds(6)
    assert sorted(workloads.suite_seeds(5)) == list(workloads.SUITE_SEEDS)


def test_every_drawable_operation_has_a_reference():
    warm = program.load_reference("score-warm")
    cold = program.load_reference("score-cold")
    suite = program.load_reference("suite-paper")
    assert {op.key for op in workloads.warm_universe()} == set(warm)
    assert {op.key for op in workloads.cold_universe()} == set(cold)
    for seed in range(50):
        assert {op.key for op in workloads.warm_pass(seed)} <= set(warm)
        assert {op.key for c in workloads.cold_cycles(seed) for op in c} <= set(cold)
    rows = workloads.SUITE_LIMIT * len(workloads.SUITE_METHODS.split(","))
    for s in workloads.SUITE_SEEDS:
        assert sum(key.startswith(f"{s}/") for key in suite) == rows


def _span(i, start, end, parent=None):
    return tracing.Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 9.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_instrumented_records_nested_calls_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = tracing.Tracer()
    probes = [tracing.Probe(mod, "outer", "outer", new_op=True),
              tracing.Probe(mod, "inner", "inner",
                            on_result=lambda t, r: t.add("inner.results", r))]
    with tracing.Instrumented(tracer, probes):
        assert mod.outer(1) == 4
        assert mod.outer(2) == 6
        tracer.enabled = False
        assert mod.outer(3) == 8
    assert mod.inner is original
    assert [s.name for s in tracer.spans] == ["outer", "inner", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, None, 2]
    assert [s.op for s in tracer.spans] == [0, 0, 1, 1]
    assert tracer.counts == {"inner.results": 2 + 3}


def test_reference_check_rejects_a_perturbed_score():
    key, want = next(iter(program.load_reference("score-warm").items()))
    assert program.mismatch(dict(want), want) is None
    close = dict(want, score=want["score"] * (1 + 1e-9))
    assert program.mismatch(close, want) is None
    for name in ("score", "score_raw"):
        assert program.mismatch(dict(want, **{name: want[name] * (1 + 1e-4)}), want)
    assert program.mismatch(dict(want, npr=want["npr"] + 1e-3), want)
    assert program.mismatch(dict(want, degenerate=want["degenerate"] + 1), want)
    assert program.mismatch(None, want) == "operation failed"
    assert program.mismatch(dict(want), None)


def test_reference_check_rejects_a_one_percent_change_of_a_tiny_score():
    want = {"score": 3.37e-9, "score_raw": 5.37e-10, "npr": 0.5, "degenerate": 0}
    assert program.mismatch(dict(want), want) is None
    for name in ("score", "score_raw"):
        assert program.mismatch(dict(want, **{name: want[name] * 1.01}), want)
        assert program.mismatch(dict(want, **{name: 0.0}), want)


def test_measured_roundoff_widens_only_its_own_output():
    noise = {"score": 1e-9, "score_raw": 0.0, "npr": 0.0}
    want = {"score": 3e-9, "score_raw": 5e-10, "npr": 0.5, "degenerate": 0, "noise": noise}
    assert program.mismatch(dict(want, score=want["score"] + 5e-9), want) is None
    assert program.mismatch(dict(want, score=want["score"] + 2e-8), want)
    assert program.mismatch(dict(want, score_raw=want["score_raw"] * 1.01), want)
    assert program.mismatch(dict(want, npr=want["npr"] + 1e-6), want)
    for name in ("score", "score_raw", "npr"):
        assert program.mismatch(dict(want, **{name: float("nan")}), want)


def test_every_score_reference_has_its_roundoff_measured():
    for name in ("score-warm", "score-cold"):
        for want in program.load_reference(name).values():
            assert set(want["noise"]) == {"score", "score_raw", "npr"}


def test_a_suite_that_raises_fails_every_expected_row():
    def main(argv):
        raise RuntimeError("pool broke")

    cb = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    checker, job_seconds = run.Checker({}), []
    run.suite_pass(cb, checker, 0, job_seconds=job_seconds)
    rows = workloads.SUITE_LIMIT * len(workloads.SUITE_METHODS.split(","))
    assert checker.attempted == len(checker.failures) == rows
    assert job_seconds == []


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail(range(100))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert sum(x > value for x in range(100)) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    # 16 samples: the 11th largest is below the median, so the median stands in
    assert run.tail(range(16)) == (7.5, 50.0, 16)
    assert run.tail(range(21))[0] == 10


def test_reference_files_are_json_with_provenance():
    for name in workloads.WORKLOADS:
        doc = json.loads((program.REFERENCE_DIR / f"{name}.json").read_text())
        assert doc["workload"] == name
        assert {"nproc", "numpy", "scipy", "blas"} <= set(doc["provenance"])
