"""Linear reducers, NPR, and the external-reducer protocol."""

import stat
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from curvebench import reducers
from curvebench.errors import (
    ReducerExitError,
    ReducerOutputError,
    ReducerRowCountError,
    ReducerTimeoutError,
)
from curvebench.reducers import (
    classical_mds,
    mds_project,
    npr,
    pca_project,
    reduce_dataset,
    run_external_reducer,
    share_classical_mds_lock,
    smacof,
    truncated_svd_project,
)


def planar_cloud(n=60, seed=0):
    """Random 2-D cloud isometrically embedded into R^7."""
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(n, 2))
    basis, _ = np.linalg.qr(rng.normal(size=(7, 2)))
    return flat @ basis.T, flat


class TestPca:
    def test_distances_preserved_for_low_rank_data(self):
        X7, flat = planar_cloud()
        emb = pca_project(X7, 2)
        assert np.max(np.abs(pdist(emb.Y) - pdist(X7))) < 1e-10

    def test_duplicate_rows_stay_duplicates(self):
        X = np.vstack([np.eye(3), np.eye(3)[0]])
        emb = pca_project(X, 2)
        assert np.array_equal(emb.Y[0], emb.Y[3])

    def test_k_range_validated(self):
        with pytest.raises(ValueError, match="k"):
            pca_project(np.eye(3), 4)

    def test_orientation_is_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5))
        Y1 = pca_project(X, 3).Y
        Y2 = pca_project(X, 3).Y
        assert np.array_equal(Y1, Y2)

    def test_components_ordered_by_variance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3)) * [5.0, 1.0, 0.2]
        Y = pca_project(X, 2).Y
        assert Y[:, 0].std() > Y[:, 1].std()


class TestTruncatedSvd:
    def test_matches_pca_on_centered_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        X = X - X.mean(axis=0)
        assert np.max(np.abs(truncated_svd_project(X, 2).Y - pca_project(X, 2).Y)) < 1e-8

    def test_rank_k_data_reconstructs_exactly(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 6))
        Y = truncated_svd_project(X, 2).Y
        # Y spans the row space, so projecting X onto it loses nothing
        coeffs, *_ = np.linalg.lstsq(Y, X, rcond=None)
        assert np.max(np.abs(X - Y @ coeffs)) < 1e-8

    def test_full_rank_preserves_inner_products(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4))
        Y = truncated_svd_project(X, 4).Y
        assert np.max(np.abs(Y @ Y.T - X @ X.T)) < 1e-8


class TestMds:
    def test_planar_data_reaches_zero_stress(self):
        X7, _ = planar_cloud()
        emb = mds_project(X7, 2)
        assert emb.hyperparameters["normalized_stress"] < 1e-6

    def test_equilateral_triangle_embeds_exactly(self):
        side = np.sqrt(2)
        X = np.eye(3) @ np.vstack([np.eye(3), np.zeros((4, 3))]).T  # 3 pts in R^7
        emb = mds_project(X, 2)
        assert np.max(np.abs(pdist(emb.Y) - side)) < 1e-6

    def test_stress_sequence_is_monotone(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 5))
        from scipy.spatial.distance import squareform

        D = squareform(pdist(X))
        _, stresses = smacof(D, classical_mds(D, 2), max_iter=100, tol=0.0)
        diffs = np.diff(stresses)
        assert np.all(diffs <= 1e-9 * np.maximum(stresses[:-1], 1.0))

    def test_non_finite_rejected(self):
        X = np.ones((4, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mds_project(X, 2)

    def test_classical_mds_holds_shared_lock(self, monkeypatch):
        class RecordingLock:
            def __init__(self):
                self.entered = 0
                self.held = False

            def __enter__(self):
                assert not self.held
                self.entered += 1
                self.held = True

            def __exit__(self, *exc):
                self.held = False

        X7, _ = planar_cloud()
        D = squareform(pdist(X7))
        unlocked = classical_mds(D, 2)
        # restored after the test, so other tests run without the lock
        monkeypatch.setattr(reducers, "_classical_mds_lock", reducers._classical_mds_lock)
        lock = RecordingLock()
        share_classical_mds_lock(lock)
        assert np.array_equal(classical_mds(D, 2), unlocked)
        assert lock.entered == 1 and not lock.held
        mds_project(X7, 2)
        assert lock.entered == 2 and not lock.held


class TestNpr:
    def test_identity_is_exact_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        assert npr(X, X, kn=5) == 1.0

    def test_similarity_transform_is_exact_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        assert npr(X, 2.0 * X + 3.0, kn=5) == 1.0

    def test_random_permutation_expectation(self):
        # brute-force Monte-Carlo oracle: for a random row permutation the
        # expected overlap fraction is kn / (N - 1)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 4))
        total = 0.0
        trials = 2000
        for _ in range(trials):
            total += npr(X, X[rng.permutation(10)], kn=3)
        assert abs(total / trials - 1 / 3) < 0.05

    def test_kn_bounds(self):
        X = np.eye(4)
        with pytest.raises(ValueError, match="kn"):
            npr(X, X, kn=0)
        with pytest.raises(ValueError, match="kn"):
            npr(X, X, kn=4)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            npr(np.eye(4), np.eye(3), kn=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_input_rejected(self, bad, side):
        pair = [np.random.default_rng(12).normal(size=(8, 3)) for _ in range(2)]
        pair[side][2, 1] = bad
        with pytest.raises(ValueError, match="NPR inputs must be finite"):
            npr(*pair, kn=3)


class TestNprNeighborCache:
    def test_dataset_table_is_searched_once_per_dataset(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 7))
        embeddings = [X[:, :2], X[:, 1:3] * [2.0, 0.5]]
        searched = []
        search = reducers.nearest_neighbors

        def counting(points, k, key):
            searched.append(np.array(points))
            return search(points, k, key=key)

        fresh = []
        for Y in embeddings:  # every call on an empty cache
            reducers._cached_high_neighbors.cache_clear()
            fresh.append(npr(X, Y, kn=6))
        reducers._cached_high_neighbors.cache_clear()
        monkeypatch.setattr(reducers, "nearest_neighbors", counting)
        cached = [npr(X, Y, kn=6) for Y in embeddings]
        assert cached == fresh
        assert sum(np.array_equal(pts, X) for pts in searched) == 1
        assert len(searched) == 3  # X once, each embedding once

        moved = X.copy()
        moved[4, 2] += 1e-12
        npr(moved, embeddings[0], kn=6)
        npr(X, embeddings[0], kn=7)
        assert sum(pts.shape == X.shape for pts in searched) == 3
        assert reducers._cached_high_neighbors.cache_info().misses == 3

    def test_cached_table_is_read_only(self):
        X = np.random.default_rng(14).normal(size=(20, 4))
        npr(X, X[:, :2], kn=3)
        table = reducers._cached_high_neighbors(X.tobytes(), X.shape, 3)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def write_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(
        "#!/usr/bin/env python3\n" + textwrap.dedent(body)
    )
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


COPY_STUB = """
import sys
src, dst = sys.argv[1], sys.argv[2]
rows = open(src).read().splitlines()
header = rows[0].replace("x", "y")
open(dst, "w").write("\\n".join([header] + rows[1:]) + "\\n")
"""

DROP_ROW_STUB = """
import sys
src, dst = sys.argv[1], sys.argv[2]
rows = open(src).read().splitlines()
header = rows[0].replace("x", "y")
open(dst, "w").write("\\n".join([header] + rows[1:-1]) + "\\n")
"""

SLEEP_STUB = """
import sys
import time
print("partial", flush=True)
print("partial error", file=sys.stderr, flush=True)
time.sleep(30)
"""

NAN_STUB = """
import sys
dst = sys.argv[2]
open(dst, "w").write("y1,y2\\n0.0,1.0\\nnan,2.0\\n3.0,4.0\\n")
"""

FAIL_STUB = """
import sys
sys.stderr.write("deliberate failure\\n")
sys.exit(3)
"""


class TestExternalReducer:
    def command(self, stub):
        return f"{sys.executable} {stub} {{input}} {{output}} {{k}}"

    def test_copy_through_identity(self, tmp_path):
        stub = write_stub(tmp_path, "copy.py", COPY_STUB)
        X = np.random.default_rng(10).normal(size=(12, 3))
        result = run_external_reducer(self.command(stub), X, 3, timeout=30)
        assert np.allclose(result.Y, X, atol=1e-15)

    def test_row_count_mismatch_error(self, tmp_path):
        stub = write_stub(tmp_path, "drop.py", DROP_ROW_STUB)
        X = np.zeros((5, 2))
        with pytest.raises(ReducerRowCountError):
            run_external_reducer(self.command(stub), X, 2, timeout=30)

    def test_timeout_error(self, tmp_path):
        stub = write_stub(tmp_path, "sleep.py", SLEEP_STUB)
        with pytest.raises(ReducerTimeoutError) as err:
            run_external_reducer(self.command(stub), np.zeros((3, 2)), 2, timeout=3.0)
        # the partial output comes back as text, like every other protocol error's
        assert (err.value.stdout, err.value.stderr) == ("partial\n", "partial error\n")

    def test_nonzero_exit_error_captures_stderr(self, tmp_path):
        stub = write_stub(tmp_path, "fail.py", FAIL_STUB)
        with pytest.raises(ReducerExitError) as err:
            run_external_reducer(self.command(stub), np.zeros((3, 2)), 2, timeout=30)
        assert "deliberate failure" in err.value.stderr

    def test_missing_output_error(self, tmp_path):
        stub = write_stub(tmp_path, "noop.py", "pass\n")
        with pytest.raises(ReducerOutputError, match="no output"):
            run_external_reducer(self.command(stub), np.zeros((3, 2)), 2, timeout=30)

    def test_non_finite_output_error(self, tmp_path):
        stub = write_stub(tmp_path, "nan.py", NAN_STUB)
        with pytest.raises(ReducerOutputError, match="non-finite cell on line 3"):
            run_external_reducer(self.command(stub), np.zeros((3, 2)), 2, timeout=30)

    @pytest.mark.parametrize("case", ["missing", "not-executable"])
    def test_program_that_cannot_start_is_an_exit_error(self, tmp_path, case):
        program = tmp_path / "reduce"
        if case == "not-executable":
            program.write_text("#!/bin/sh\n")
        with pytest.raises(ReducerExitError, match="could not be started") as err:
            run_external_reducer(f"{program} {{input}} {{output}} {{k}}", np.zeros((3, 2)), 2,
                                 timeout=30)
        assert err.value.command.startswith(str(program))

    def test_no_temp_dir_left_behind(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        copy = write_stub(tmp_path, "copy.py", COPY_STUB)
        run_external_reducer(self.command(copy), np.eye(3), 3, timeout=30)
        fail = write_stub(tmp_path, "fail.py", FAIL_STUB)
        with pytest.raises(ReducerExitError):
            run_external_reducer(self.command(fail), np.zeros((3, 2)), 2, timeout=30)
        assert not list(scratch.glob("curvebench-reducer-*"))

    def test_template_placeholders_required(self):
        with pytest.raises(ValueError, match="template"):
            run_external_reducer("python3 reduce.py", np.zeros((3, 2)), 2)

    def test_error_types_are_distinct(self):
        assert not issubclass(ReducerTimeoutError, ReducerExitError)
        assert not issubclass(ReducerExitError, ReducerOutputError)
        assert issubclass(ReducerRowCountError, ReducerOutputError)


class TestCrossReducerInvariants:
    def test_projection_is_idempotent_on_k_dimensional_data(self):
        X7, _ = planar_cloud()
        for project in (pca_project, truncated_svd_project):
            once = project(X7, 2).Y
            twice = project(once, 2).Y
            assert np.max(np.abs(pdist(twice) - pdist(once))) < 1e-10

    def test_npr_invariant_under_common_similarity(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 6))
        Y = rng.normal(size=(30, 2))
        base = npr(X, Y, kn=6)
        assert npr(0.5 * X - 2.0, 3.0 * Y + 1.0, kn=6) == base

    def test_linear_isometry_gives_full_npr_for_all_reducers(self):
        # tie-free random cloud: every reducer recovers the plane, so
        # neighbor orders survive exactly
        X7, _ = planar_cloud(50, seed=12)
        for method in ("pca", "tsvd", "mds"):
            Y = reduce_dataset(method, X7, 2).Y
            assert npr(X7, Y, kn=10) == 1.0


class TestReduceDispatch:
    def test_builtin_methods(self):
        X7, _ = planar_cloud(30)
        for method in ("pca", "tsvd", "mds"):
            result = reduce_dataset(method, X7, 2)
            assert result.Y.shape == (30, 2)
            assert result.method == method

    def test_unknown_method_lists_valid_ones(self):
        with pytest.raises(ValueError, match="pca, tsvd, mds"):
            reduce_dataset("umap", np.eye(4), 2)
