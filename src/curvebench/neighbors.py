"""Exact K-nearest-neighbor search with a caller-chosen ranking key.

A k-d tree proposes candidates; the caller's key re-ranks them, with exact
ties going to the lowest row index.  The key decides which distances count
as ties, so each caller passes the expression it ranks by:

``squared_distance``
    ``((p_i - p_j) ** 2).sum(-1)``, used by the KNN metric fit on the
    source grid.
``pdist_squared_distance``
    ``squareform(pdist(X)) ** 2``, used by NPR.  Taking the square root
    and squaring again rounds some distinct sums to one value, so this key
    breaks ties differently from ``squared_distance``.

A query is widened until the k-th key lies strictly inside the queried
radius, so points the tree left out can never belong to the result.
"""

import numpy as np
from scipy.spatial import cKDTree

# Relative margin by which the k-th key must undercut the queried radius;
# far above the round-off between the tree's distances and either key.
_RADIUS_MARGIN = 1e-9


def squared_distance(diff) -> np.ndarray:
    """Squared Euclidean length of difference vectors, summed by numpy."""
    return (diff**2).sum(-1)


def pdist_squared_distance(diff) -> np.ndarray:
    """Square of ``scipy.spatial.distance.pdist``'s Euclidean distance.

    Sums the squared coordinates in order, as pdist does, takes the square
    root and squares it again.
    """
    acc = np.zeros(diff.shape[:-1])
    for col in range(diff.shape[-1]):
        acc += diff[..., col] ** 2
    return np.sqrt(acc) ** 2


def nearest_neighbors(points, k: int, key) -> np.ndarray:
    """Exact ``k`` nearest rows of every row of ``points`` (self excluded).

    Returns an (N, k) index array, each row ordered by ``key`` of the
    difference vectors and then by row index, so exact ties resolve to the
    lowest row index.  ``points`` must be finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    npts = pts.shape[0]
    if not 1 <= k < npts:
        raise ValueError(f"k={k} requires 1 <= k < number of points ({npts})")
    tree = cKDTree(pts)
    out = np.empty((npts, k), dtype=np.intp)
    rows = np.arange(npts)
    # k + 2 candidates are the fewest that can settle a row: the row itself,
    # its k neighbors and one more whose distance bounds the radius.  Rows
    # whose k-th key ties or reaches that radius are queried again, wider.
    width = min(npts, k + 2)
    while rows.size:
        radius, cand = tree.query(pts[rows], k=width)
        keys = key(pts[rows, None, :] - pts[cand])
        # The row itself sorts last, so a duplicate of it stays a neighbor.
        is_self = cand == rows[:, None]
        order = np.lexsort((cand, keys, is_self), axis=-1)[:, :k]
        out[rows] = np.take_along_axis(cand, order, axis=-1)
        if width == npts:
            break
        kth = np.take_along_axis(keys, order[:, -1:], axis=-1)[:, 0]
        inside = kth < radius[:, -1] ** 2 * (1.0 - _RADIUS_MARGIN)
        rows = rows[~inside]
        width = min(npts, 2 * width)
    return out
