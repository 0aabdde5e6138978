"""Exact K-nearest-neighbor search, with exact ties going to the lowest row
index.

``grid_neighbors``
    The nodes of a tensor grid, used by the KNN metric fit.  Candidates
    come from each node's index window; the key is
    ``((p_i - p_j) ** 2).sum(-1)``, summed axis by axis.
``nearest_neighbors``
    Any point cloud, used by NPR.  A k-d tree proposes candidates and the
    key is ``squareform(pdist(X)) ** 2``.  Taking the square root and
    squaring again rounds some distinct sums to one value, so this key
    breaks ties differently from the grid's.

A search is widened until the k-th key lies strictly inside the searched
radius, so points it left out can never belong to the result.
"""

import numpy as np
from scipy.spatial import cKDTree

# Relative margin by which the k-th key must undercut the searched radius;
# far above the round-off between the tree's distances and either key.
_RADIUS_MARGIN = 1e-9


def pdist_squared_distance(diff) -> np.ndarray:
    """Square of ``scipy.spatial.distance.pdist``'s Euclidean distance.

    Sums the squared coordinates in order, as pdist does, takes the square
    root and squares it again.
    """
    acc = np.zeros(diff.shape[:-1])
    for col in range(diff.shape[-1]):
        acc += diff[..., col] ** 2
    return np.sqrt(acc) ** 2


def _check_k(k, npts):
    if not 1 <= k < npts:
        raise ValueError(f"k={k} requires 1 <= k < number of points ({npts})")


def nearest_neighbors(points, k: int) -> np.ndarray:
    """Exact ``k`` nearest rows of every row of ``points`` (self excluded).

    Returns an (N, k) index array, each row ordered by
    :func:`pdist_squared_distance` and then by row index, so exact ties
    resolve to the lowest row index.  ``points`` must be finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    npts = pts.shape[0]
    _check_k(k, npts)
    tree = cKDTree(pts)
    out = np.empty((npts, k), dtype=np.intp)
    rows = np.arange(npts)
    # k + 2 candidates are the fewest that can settle a row: the row itself,
    # its k neighbors and one more whose distance bounds the radius.  Rows
    # whose k-th key ties or reaches that radius are queried again, wider.
    width = min(npts, k + 2)
    while rows.size:
        radius, cand = tree.query(pts[rows], k=width)
        keys = pdist_squared_distance(pts[rows, None, :] - pts[cand])
        # The row itself sorts last, so a duplicate of it stays a neighbor.
        keys[cand == rows[:, None]] = np.inf
        order = np.lexsort((cand, keys), axis=-1)[:, :k]
        out[rows] = np.take_along_axis(cand, order, axis=-1)
        if width == npts:
            break
        kth = np.take_along_axis(keys, order[:, -1:], axis=-1)[:, 0]
        inside = kth < radius[:, -1] ** 2 * (1.0 - _RADIUS_MARGIN)
        rows = rows[~inside]
        width = min(npts, 2 * width)
    return out


def grid_neighbors(grid, k: int) -> np.ndarray:
    """Exact ``k`` nearest nodes of every node of the tensor grid ``grid``
    (self excluded), as an (N, k) array of row-major node indices.

    The k nodes are those of least ``((p_i - p_j) ** 2).sum(-1)``, exact
    ties going to the lowest index; the key is summed axis by axis, which
    gives numpy's floats for fewer than 8 axes.  Each row lists its nodes in
    ascending index order, which on a tensor grid is the lexicographic order
    of their coordinates.
    """
    shape = grid.shape
    npts = grid.num_points
    _check_k(k, npts)
    ndim = len(shape)
    # the smallest index window around a node that holds k other nodes
    width = 1
    while (2 * width + 1) ** ndim - 1 < k:
        width += 1
    out = np.empty((npts, k), dtype=np.intp)
    rows = np.arange(npts)
    while rows.size:
        # per-axis half-widths, each capped where the window spans its axis
        halves = [min(width, size - 1) for size in shape]
        if np.prod([2 * h + 1 for h in halves]) - 1 < k:
            # a short axis caps the window below k other nodes: widen it
            width *= 2
            continue
        # window offsets in row-major order, so each row's candidates come
        # in ascending index order and a stable sort gives ties to the lowest
        offsets = np.meshgrid(*(np.arange(-h, h + 1) for h in halves), indexing="ij")
        keys = np.zeros((rows.size, offsets[0].size))
        cand = np.zeros(keys.shape, dtype=np.intp)
        inside = np.ones(keys.shape, dtype=bool)
        radius = np.full(rows.size, np.inf)
        for axis, node, half, off in zip(grid.axes, np.unravel_index(rows, shape),
                                         halves, offsets):
            size = axis.size
            j = node[:, None] + off.ravel()
            inside &= (j >= 0) & (j < size)
            j = np.clip(j, 0, size - 1)
            keys += (axis[node][:, None] - axis[j]) ** 2
            cand = cand * size + j
            # the nearest node outside the window along this axis bounds the radius
            lo, hi = node - half - 1, node + half + 1
            below = np.where(lo >= 0, axis[node] - axis[np.maximum(lo, 0)], np.inf)
            above = np.where(hi < size, axis[np.minimum(hi, size - 1)] - axis[node], np.inf)
            radius = np.minimum(radius, np.minimum(below, above))
        keys[~inside] = np.inf
        keys[:, keys.shape[1] // 2] = np.inf  # the zero offset: the node itself
        order = np.argsort(keys, axis=1, kind="stable")[:, :k]
        kth = np.take_along_axis(keys, order[:, -1:], axis=1)[:, 0]
        settled = kth < radius ** 2 * (1.0 - _RADIUS_MARGIN)
        out[rows[settled]] = np.sort(np.take_along_axis(cand[settled], order[settled], axis=1),
                                     axis=1)
        rows = rows[~settled]
        width *= 2
    return out
