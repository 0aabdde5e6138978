"""Exact nearest-neighbor search against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from curvebench.generator import enumerate_suite, makegen
from curvebench.geometry import unit_grid
from curvebench.neighbors import (
    nearest_neighbors,
    pdist_squared_distance,
    squared_distance,
)
from curvebench.reducers import npr, pca_project, truncated_svd_project

# The full matrix each key stands for, computed the way the brute-force
# searches that nearest_neighbors replaced computed it.
KEY_MATRICES = {
    "squared_distance": lambda p: ((p[:, None, :] - p[None, :, :]) ** 2).sum(-1),
    "pdist_squared_distance": lambda p: squareform(pdist(p)) ** 2,
}
KEYS = {
    "squared_distance": squared_distance,
    "pdist_squared_distance": pdist_squared_distance,
}


def brute_force(points, k, key_name):
    """Stable argsort of the whole key matrix, self dropped by index."""
    order = np.argsort(KEY_MATRICES[key_name](points), axis=1, kind="stable")
    return np.array([row[row != i][:k] for i, row in enumerate(order)])


def grid_brute_force(points, k, chunk=512):
    """The KNN metric fit's former search, chunked over query rows."""
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


@pytest.mark.parametrize("key_name", sorted(KEYS))
@settings(max_examples=150, deadline=None)
@given(case=clouds())
def test_matches_brute_force(key_name, case):
    points, k = case
    got = nearest_neighbors(points, k, key=KEYS[key_name])
    assert np.array_equal(got, brute_force(points, k, key_name))


@settings(max_examples=100, deadline=None)
@given(case=clouds())
def test_pdist_key_reproduces_pdist_bitwise(case):
    points, _ = case
    want = KEY_MATRICES["pdist_squared_distance"](points)
    assert np.array_equal(pdist_squared_distance(points[:, None, :] - points), want)


def test_all_duplicates_go_to_lowest_indices():
    points = np.ones((50, 3))
    got = nearest_neighbors(points, 4, key=squared_distance)
    assert got[0].tolist() == [1, 2, 3, 4]
    assert np.all(got[10:] == [0, 1, 2, 3])


@pytest.mark.parametrize("resolution", [24, 32, 48])
def test_unit_grids_match_the_former_fit_search(resolution):
    points = unit_grid(2, resolution).points()
    reference = grid_brute_force(points, 12)
    for k in range(8, 13):
        got = nearest_neighbors(points, k, key=squared_distance)
        assert np.array_equal(got, reference[:, :k])


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
        nearest_neighbors(np.arange(5.0), 2, key=squared_distance)
    for k in (0, 5):
        with pytest.raises(ValueError, match="k="):
            nearest_neighbors(np.eye(5), k, key=squared_distance)
