"""Linear reducers, NPR, and the external-reducer protocol."""

import os
import stat
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from curvebench import reducers
from curvebench.errors import (
    ReducerExitError,
    ReducerOutputError,
    ReducerRowCountError,
    ReducerTimeoutError,
)
from curvebench.reducers import (
    classical_mds,
    distance_tiles,
    mds_project,
    npr,
    pca_project,
    reduce_dataset,
    run_external_reducer,
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
        _, stresses = smacof(distance_tiles(X), classical_mds(X, 2), max_iter=100, tol=0.0)
        diffs = np.diff(stresses)
        assert np.all(diffs <= 1e-9 * np.maximum(stresses[:-1], 1.0))

    def test_non_finite_rejected(self):
        X = np.ones((4, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mds_project(X, 2)

    @pytest.mark.parametrize("settings,message", [
        ({"max_iter": 2.7}, "max_iter must be an integer >= 1, got 2.7"),
        ({"max_iter": True}, "max_iter must be an integer >= 1, got True"),
        ({"max_iter": 0}, "max_iter must be an integer >= 1, got 0"),
        ({"max_iter": float("inf")}, "max_iter must be an integer >= 1, got inf"),
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"tol": -1}, "tol must be finite and >= 0, got -1"),
        ({"tol": float("inf")}, "tol must be finite and >= 0, got inf"),
    ])
    def test_bad_settings_rejected(self, settings, message):
        X7, _ = planar_cloud(n=12)
        with pytest.raises(ValueError, match=message):
            mds_project(X7, 2, **settings)
        with pytest.raises(ValueError, match=message):
            reduce_dataset("mds", X7, 2, hyperparameters=settings)

    def test_integral_float_iterations_accepted(self):
        X7, _ = planar_cloud(n=12)
        emb = reduce_dataset("mds", X7, 2, hyperparameters={"max_iter": 3.0, "tol": 0})
        assert emb.hyperparameters["max_iter"] == 3
        assert type(emb.hyperparameters["max_iter"]) is int
        assert type(emb.hyperparameters["tol"]) is float
        assert emb.Y.tobytes() == mds_project(X7, 2, max_iter=3, tol=0.0).Y.tobytes()

    def test_more_columns_than_points_rejected(self):
        X7, _ = planar_cloud(n=3)
        with pytest.raises(ValueError, match=r"k must be in \[1, 3\] for 3 points, got 5"):
            mds_project(X7, 5)

    @pytest.mark.parametrize("method,settings,message", [
        ("mds", {"max_iters": 5}, "mds reads no hyperparameter 'max_iters'; "
                                  "it accepts max_iter, tol"),
        ("mds", {"max_iter": 5, "alpha": 1}, "mds reads no hyperparameter 'alpha'"),
        ("pca", {"max_iter": 5}, "pca reads no hyperparameter 'max_iter'; it accepts none"),
        ("tsvd", {"tol": 0.1}, "tsvd reads no hyperparameter 'tol'; it accepts none"),
    ])
    def test_unread_hyperparameters_rejected(self, method, settings, message):
        X7, _ = planar_cloud(n=12)
        with pytest.raises(ValueError, match=message):
            reduce_dataset(method, X7, 2, hyperparameters=settings)


def torgerson_mds(X, k):
    """Reference classical MDS: the top-k eigenpairs of -1/2 J D^2 J."""
    npts = X.shape[0]
    D = squareform(pdist(X))
    J = np.eye(npts) - np.ones((npts, npts)) / npts
    w, v = np.linalg.eigh(-0.5 * J @ (D**2) @ J)
    order = np.argsort(w)[::-1]
    return v[:, order[:k]] * np.sqrt(np.maximum(w[order[:k]], 0.0)), w[order]


@st.composite
def point_clouds(draw):
    """(X, k): N in 3..40 rows in R^m, m in 1..7, some rows possibly repeated,
    entries in [-10, 10] to six decimals (no squared distance underflows)."""
    npts = draw(st.integers(3, 40))
    dim = draw(st.integers(1, 7))
    distinct = draw(st.integers(1, npts))
    values = st.floats(-10, 10).map(lambda v: round(v, 6))
    rows = np.array(draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                  min_size=distinct, max_size=distinct)))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=npts, max_size=npts))
    return rows[picks], draw(st.integers(1, npts))


def smacof_reference(D, init, max_iter, tol):
    """SMACOF's former iteration over full N x N arrays: the distances, the
    masked ratio D / d and the residual D - d of every pair, each stored.
    It stops by the same rules, the round-off floor included.

    Also returns the largest magnitude of the Guttman transform's terms,
    max_i (sum_j r_ij) * max|Y| / N over all iterations: the scale of the
    transform's round-off, which near-coincident points raise far above
    max|Y| through large ratios D / d.
    """
    npts = D.shape[0]
    floor = reducers.SMACOF_FLOOR * np.finfo(float).eps ** 2 * 0.5 * (D**2).sum()
    Y = np.array(init, dtype=float)
    d = cdist(Y, Y)
    buf = np.subtract(D, d)
    stresses = [0.5 * float(np.einsum("ij,ij->", buf, buf))]
    scale = 0.0
    for _ in range(max_iter):
        buf.fill(0.0)
        np.divide(D, d, out=buf, where=d > 0)
        scale = max(scale, buf.sum(axis=1).max() * np.abs(Y).max() / npts)
        Y = (buf.sum(axis=1)[:, None] * Y
             - np.einsum("ij,kj->ik", buf, np.ascontiguousarray(Y.T))) / npts
        d = cdist(Y, Y)
        np.subtract(D, d, out=buf)
        stresses.append(0.5 * float(np.einsum("ij,ij->", buf, buf)))
        prev, cur = stresses[-2], stresses[-1]
        if cur <= floor or prev - cur < tol * max(prev, np.finfo(float).tiny):
            break
    return Y, stresses, scale


@st.composite
def smacof_cases(draw):
    """(X, Y0, max_iter): N in 3..700, so up to three row blocks and a ragged
    last one.  Y0 is random or X's classical MDS.  Some rows repeat in both X
    and Y0 (D = d = 0 off the diagonal) and some in Y0 alone (d = 0 < D),
    across blocks too."""
    blocks = draw(st.integers(0, 2))
    npts = min(700, blocks * reducers.SMACOF_BLOCK + draw(st.integers(1 if blocks else 3,
                                                                      reducers.SMACOF_BLOCK)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(npts, draw(st.integers(1, 6))))
    k = draw(st.integers(1, 3))
    Y0 = classical_mds(X, k) if draw(st.booleans()) else rng.normal(size=(npts, k))
    src, dst = rng.integers(0, npts, size=(2, draw(st.integers(0, npts // 2))))
    X[dst], Y0[dst] = X[src], Y0[src]
    src, dst = rng.integers(0, npts, size=(2, draw(st.integers(0, npts // 2))))
    Y0[dst] = Y0[src]
    return X, Y0, draw(st.integers(1, 6))


class TestMdsForms:
    @settings(max_examples=200, deadline=None)
    @given(cloud=point_clouds())
    def test_classical_mds_matches_torgerson(self, cloud):
        X, k = cloud
        got = classical_mds(X, k)
        want, eigenvalues = torgerson_mds(X, k)
        assert got.shape == (len(X), k)
        assert not got[:, min(X.shape):].any()
        # centering X costs a few ulps of its largest entry, and forming D
        # costs as much, so tolerances are taken relative to the larger of the
        # largest reference entry and 1e-4 of the largest input entry
        scale = max(np.abs(want).max(), 1e-4 * np.abs(X).max())
        top = max(eigenvalues[0], len(X) * scale**2)
        # every column carries its eigenvalue: |y_j|^2 = lambda_j
        assert np.abs((got**2).sum(axis=0) - (want**2).sum(axis=0)).max() <= 1e-9 * top
        # a column is fixed up to sign when its eigenvalue is clear of round-off
        # and of its neighbours; a near-tie leaves the basis of its eigenspace free
        gaps = np.abs(np.diff(eigenvalues))
        for j in range(k):
            near = gaps[max(j - 1, 0):j + 1].min() if len(gaps) else np.inf
            if eigenvalues[j] > 1e-8 * top and near > 1e-4 * top:
                sign = 1.0 if got[:, j] @ want[:, j] >= 0 else -1.0
                assert np.abs(sign * got[:, j] - want[:, j]).max() <= 1e-9 * scale

    def test_smacof_step_is_the_guttman_transform(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(50, 6))
        D = squareform(pdist(X))
        Y0 = rng.normal(size=(50, 2))
        Y1, _ = smacof(distance_tiles(X), Y0, max_iter=1, tol=0.0)
        d = squareform(pdist(Y0))
        ratio = np.where(d > 0, D / np.where(d > 0, d, 1.0), 0.0)
        B = -ratio
        B[np.arange(50), np.arange(50)] = ratio.sum(axis=1)
        want = (B @ Y0) / 50
        assert np.abs(Y1 - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(case=smacof_cases())
    def test_smacof_matches_the_full_matrix_iteration(self, case):
        X, Y0, max_iter = case
        D = squareform(pdist(X))
        Y, stresses = smacof(distance_tiles(X), Y0, max_iter=max_iter, tol=0.0)
        want_Y, want_stresses, scale = smacof_reference(D, Y0, max_iter=max_iter, tol=0.0)
        # The block sweep sums each row in another order: round-off only.
        # Y then carries about an ulp of yscale, and each residual D - d about
        # an ulp of D plus two of yscale, so a stress s is known to about
        # eps * sqrt(2 s) * (|D| + 2 N yscale) (Cauchy-Schwarz); stresses are
        # compared within 1e-12 relative plus a thousand times that.
        yscale = max(np.abs(want_Y).max(), scale)
        noise = (1e3 * np.finfo(float).eps * np.sqrt(2 * np.array(want_stresses))
                 * (np.sqrt((D**2).sum()) + 2 * len(D) * yscale))
        common = min(len(stresses), len(want_stresses))
        assert np.all(np.abs(np.subtract(stresses[:common], want_stresses[:common]))
                      <= 1e-12 * np.array(want_stresses[:common]) + noise[:common])
        if len(stresses) != len(want_stresses):
            # tol = 0 stops on the first rise, so the runs may part only where
            # the stress no longer falls by more than its round-off
            stop = common - 1
            assert want_stresses[stop - 1] - want_stresses[stop] <= noise[stop - 1] + noise[stop]
            return
        assert np.abs(Y - want_Y).max() <= 1e-12 * yscale

    @pytest.mark.parametrize("npts", [3, 255, 256, 257, 600, 1024])
    def test_tiles_are_the_blocks_of_the_distance_matrix(self, npts):
        rng = np.random.default_rng(npts)
        X = rng.normal(size=(npts, 5))
        src, dst = rng.integers(0, npts, size=(2, npts // 3 + 1))
        X[dst] = X[src]  # repeated rows, across blocks too
        D = cdist(X, X)
        size = reducers.SMACOF_BLOCK
        blocks = [slice(s, min(s + size, npts)) for s in range(0, npts, size)]
        want = [D[rows, cols] for a, rows in enumerate(blocks) for cols in blocks[a:]]
        tiles = distance_tiles(X)
        assert len(tiles) == len(want)
        for tile, block in zip(tiles, want):
            assert tile.flags.c_contiguous
            assert tile.shape == block.shape
            assert tile.tobytes() == np.ascontiguousarray(block).tobytes()
        half = 0.5 * float((D**2).sum())
        assert abs(reducers._pair_sum_squares(tiles, npts) - half) <= 1e-12 * half

    def test_smacof_keeps_no_square_scratch(self):
        rng = np.random.default_rng(4)
        npts = 1000
        tiles = distance_tiles(rng.normal(size=(npts, 5)))
        Y0 = rng.normal(size=(npts, 2))
        tracemalloc.start()
        try:
            smacof(tiles, Y0, max_iter=3, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * npts * npts * 8  # half of an N x N array's bytes

    def test_mds_project_holds_one_distance_matrix(self):
        # no N x N array: the upper-triangle distance tiles (0.63 of an
        # N x N array at N = 1024) and SMACOF's two 256 x 256 buffers (0.12)
        npts = 1024
        X = np.random.default_rng(4).normal(size=(npts, 7))
        tracemalloc.start()
        try:
            mds_project(X, 2, max_iter=3, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * npts * npts * 8  # an N x N array's bytes

    def test_smacof_does_not_depend_on_blas_threads(self):
        # k = 4 puts 5 columns in each block product, above OpenBLAS's
        # single-thread size, and N = 600 is two full blocks and a ragged one
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from curvebench.reducers import distance_tiles, smacof
            rng = np.random.default_rng(19)
            X = rng.normal(size=(600, 6))
            Y, stresses = smacof(distance_tiles(X), rng.normal(size=(600, 4)), 8, 0.0)
            sys.stdout.write(Y.tobytes().hex() + " " + np.array(stresses).tobytes().hex())
        """)
        outputs = outputs_at_one_and_two_blas_threads(script)
        assert outputs[0] == outputs[1]

    def test_exact_embedding_stops_at_the_round_off_floor(self):
        # Classical MDS of a flat-flat instance is exact, so from there on
        # every stress is round-off, and without the floor the number of
        # iterations before a round-off decrease fell below tol was up to 16
        # under a 1e-15 relative perturbation of the start.
        script = textwrap.dedent("""
            import numpy as np
            from curvebench import reducers
            from curvebench.generator import enumerate_suite, makegen
            from curvebench.geometry import unit_grid
            desc = next(d for d in enumerate_suite(base_seed=0, grid_resolution=32)
                        if d.instance_id.startswith("flat1.2-flat1.8"))
            X = makegen(desc).evaluate(unit_grid(2, 32).points()).points
            tiles = reducers.distance_tiles(X)
            init = reducers.classical_mds(X, 2)
            rng = np.random.default_rng(0)
            for z in [np.zeros_like(init)] + [rng.normal(size=init.shape) for _ in range(3)]:
                _, stresses = reducers.smacof(tiles, init * (1 + 1e-15 * z), 150, 1e-7)
                print(len(stresses) - 1)
        """)
        outputs = outputs_at_one_and_two_blas_threads(script)
        assert outputs[0] == outputs[1] == "1\n" * 4


def outputs_at_one_and_two_blas_threads(script):
    """stdout of ``script`` run by a fresh interpreter at one and at two BLAS
    threads: a BLAS library reads its thread count once, when it loads."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(reducers.__file__).parent.parent)]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


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

        def counting(points, k):
            searched.append(np.array(points))
            return search(points, k)

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
