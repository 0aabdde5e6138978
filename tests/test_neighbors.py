"""Exact nearest-neighbor search against brute-force references."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from curvebench.generator import enumerate_suite, makegen
from curvebench.geometry import TensorGrid, unit_grid
from curvebench.neighbors import grid_neighbors, nearest_neighbors, pdist_squared_distance
from curvebench.reducers import npr, pca_project, truncated_svd_project


def brute_force(points, k):
    """Stable argsort of the whole pdist key matrix, self dropped by index."""
    order = np.argsort(squareform(pdist(points)) ** 2, axis=1, kind="stable")
    return np.array([row[row != i][:k] for i, row in enumerate(order)])


def grid_brute_force(points, k, chunk=512):
    """The KNN metric fit's former search, chunked over query rows: a stable
    argsort of ``((p_i - p_j) ** 2).sum(-1)``, self dropped by index."""
    npts = points.shape[0]
    out = np.empty((npts, k), dtype=np.intp)
    for start in range(0, npts, chunk):
        stop = min(start + chunk, npts)
        d2 = ((points[start:stop, None, :] - points[None, :, :]) ** 2).sum(-1)
        order = np.argsort(d2, axis=1, kind="stable")
        for local, row in enumerate(range(start, stop)):
            cand = order[local]
            out[row] = cand[cand != row][:k]
    return out


def set_based_npr(x_high, y_low, kn):
    """NPR's former implementation: dense distances and Python sets."""
    def neighbor_sets(X):
        order = np.argsort(squareform(pdist(X)) ** 2, axis=1, kind="stable")
        return [set(row[row != i][:kn].tolist()) for i, row in enumerate(order)]

    pairs = zip(neighbor_sets(x_high), neighbor_sets(y_low))
    return float(np.mean([len(h & l) / kn for h, l in pairs]))


@st.composite
def clouds(draw):
    """Random clouds, tie-heavy integer lattices, and clouds with duplicates."""
    npts = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "lattice", "duplicates"]))
    if kind == "lattice":
        scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
        ints = draw(arrays(np.int64, (npts, dim), elements=st.integers(-3, 3)))
        points = ints * scale
    else:
        points = draw(arrays(np.float64, (npts, dim),
                             elements=st.floats(-100, 100, allow_subnormal=False)))
        if kind == "duplicates":
            copies = draw(st.lists(st.integers(0, npts - 1), min_size=1, max_size=npts))
            points = np.vstack([points, points[copies]])
    k = draw(st.integers(1, points.shape[0] - 1))
    return points, k


@settings(max_examples=150, deadline=None)
@given(case=clouds())
def test_matches_brute_force(case):
    points, k = case
    assert np.array_equal(nearest_neighbors(points, k), brute_force(points, k))


@settings(max_examples=100, deadline=None)
@given(case=clouds())
def test_pdist_key_reproduces_pdist_bitwise(case):
    points, _ = case
    want = squareform(pdist(points)) ** 2
    assert np.array_equal(pdist_squared_distance(points[:, None, :] - points), want)


def test_all_duplicates_go_to_lowest_indices():
    points = np.ones((50, 3))
    got = nearest_neighbors(points, 4)
    assert got[0].tolist() == [1, 2, 3, 4]
    assert np.all(got[10:] == [0, 1, 2, 3])


@pytest.mark.parametrize("resolution", [24, 32, 48])
def test_unit_grids_match_the_former_fit_search(resolution):
    grid = unit_grid(2, resolution)
    reference = grid_brute_force(grid.points(), 12)
    for k in range(8, 13):
        got = grid_neighbors(grid, k)
        assert np.array_equal(got, np.sort(reference[:, :k], axis=1))


@st.composite
def tensor_grids(draw):
    """Tensor grids of 1-3 axes, each uneven, rounded to a coarse lattice (so
    that keys tie) or equispaced, with a k up to 29."""
    ndim = draw(st.integers(1, 3))
    axes = []
    for _ in range(ndim):
        size = draw(st.integers(2, 40 if ndim == 1 else 9))
        kind = draw(st.sampled_from(["uneven", "rounded", "equispaced"]))
        if kind == "uneven":
            steps = draw(st.lists(st.floats(0.01, 3.0), min_size=size, max_size=size))
            axes.append(np.cumsum(steps))
        elif kind == "rounded":
            steps = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
            scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
            axes.append(np.round(np.cumsum(steps) * scale, 6))
        else:
            axes.append(np.arange(size) / (size - 1))
    grid = TensorGrid(tuple(axes))
    return grid, draw(st.integers(1, min(29, grid.num_points - 1)))


@settings(max_examples=150, deadline=None)
@given(case=tensor_grids())
@example(case=(TensorGrid((np.arange(12) * 0.02, np.arange(12) / 11)), 8))
@example(case=(unit_grid(3, 10), 20))
@example(case=(unit_grid(2, 4), 15))
@example(case=(TensorGrid((np.array([0.0, 1.0]),)), 1))
@example(case=(TensorGrid((np.arange(9) / 8, np.array([1.0, 2.0]))), 16))
def test_grid_neighbors_match_brute_force(case):
    grid, k = case
    want = np.sort(grid_brute_force(grid.points(), k), axis=1)
    assert np.array_equal(grid_neighbors(grid, k), want)


@pytest.mark.parametrize("index", [0, 17, 42, 59])
def test_npr_matches_set_based_npr_on_suite_instances(index):
    descriptor = enumerate_suite()[index]
    grid = unit_grid(descriptor.n, descriptor.grid_resolution)
    X = makegen(descriptor).evaluate(grid.points()).points
    for project in (pca_project, truncated_svd_project):
        Y = project(X, 2).Y
        assert npr(X, Y, kn=10) == set_based_npr(X, Y, 10)


def test_input_validation():
    with pytest.raises(ValueError, match="2-D"):
        nearest_neighbors(np.arange(5.0), 2)
    for k in (0, 5):
        with pytest.raises(ValueError, match="k="):
            nearest_neighbors(np.eye(5), k)
    for k in (0, 16):
        with pytest.raises(ValueError, match="k="):
            grid_neighbors(unit_grid(2, 4), k)
