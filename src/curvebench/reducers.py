"""Built-in linear reducers, the NPR baseline, and the external protocol.

External reducers are arbitrary subprocesses speaking a small CSV
protocol: the input dataset is written to ``{input}`` (header
``x1,...,xm``), the command template is run with ``{input}``, ``{output}``
and ``{k}`` substituted, and the embedding is read back from ``{output}``
(header ``y1,...,yk``, one row per input row, 17 significant digits).
"""

import numbers
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    ReducerExitError,
    ReducerOutputError,
    ReducerRowCountError,
    ReducerTimeoutError,
)
from . import fileio
from .neighbors import nearest_neighbors

@dataclass(frozen=True)
class EmbeddingResult:
    """Embedding rows aligned with the input rows, plus provenance."""

    Y: np.ndarray
    method: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float)
        if y.ndim != 2:
            raise ValueError("embedding must be a 2-D array")
        if not np.all(np.isfinite(y)):
            raise ValueError("embedding entries must be finite")
        object.__setattr__(self, "Y", y)


def _check_k(X, k):
    n_rows, n_cols = X.shape
    if not (1 <= k <= min(n_rows, n_cols)):
        raise ValueError(f"k must be in [1, {min(n_rows, n_cols)}], got {k}")


def _principal_scores(M, k):
    """``M`` on its top-k right singular vectors, each flipped so its
    largest-magnitude entry is positive (deterministic orientation)."""
    _, _, vt = np.linalg.svd(M, full_matrices=False)
    vt = vt[:k].copy()
    for comp in range(k):
        lead = np.argmax(np.abs(vt[comp]))
        if vt[comp, lead] < 0:
            vt[comp] = -vt[comp]
    return M @ vt.T


def pca_project(X, k: int) -> EmbeddingResult:
    """Coordinates of mean-centered ``X`` on its top-k principal directions.

    The embedding is the pointwise projection onto the loading vectors, so
    duplicate input rows stay bit-identical duplicates.
    """
    X = np.asarray(X, dtype=float)
    _check_k(X, k)
    Y = _principal_scores(X - X.mean(axis=0), k)
    return EmbeddingResult(Y=Y, method="pca", hyperparameters={"k": k})


def truncated_svd_project(X, k: int) -> EmbeddingResult:
    """Rank-k factor coordinates of the raw (uncentered) matrix."""
    X = np.asarray(X, dtype=float)
    _check_k(X, k)
    return EmbeddingResult(Y=_principal_scores(X, k), method="tsvd", hyperparameters={"k": k})


def classical_mds(X, k: int) -> np.ndarray:
    """Classical (Torgerson) MDS of the Euclidean distances between the rows
    of ``X``.  The double-centered squared distances -1/2 J D^2 J equal
    (JX)(JX)^T, so its top-k eigenvectors scaled by the root eigenvalues are
    the PCA scores of ``X`` (Gower 1966).  Columns past min(N, m) are zero."""
    Y = _principal_scores(X - X.mean(axis=0), min(k, *X.shape))
    return np.pad(Y, ((0, 0), (0, k - Y.shape[1])))


# rows per block of a SMACOF sweep; its two block buffers take 1 MB
SMACOF_BLOCK = 256
# SMACOF stops once its raw stress is at most SMACOF_FLOOR * eps^2 *
# sum_{i<j} D_ij^2.  An exact embedding keeps a stress of a few eps^2 *
# sum D^2 from round-off alone (at most 4.6 on the flat-containing
# instances of a 32 x 32 suite), and a decrease below that is round-off too
SMACOF_FLOOR = 1e4


def _block_pairs(npts):
    """The (rows, cols) slices of the row-block pairs rows <= cols of
    ``npts`` points, in the order a SMACOF sweep visits them."""
    blocks = [slice(s, min(s + SMACOF_BLOCK, npts)) for s in range(0, npts, SMACOF_BLOCK)]
    return [(rows, cols) for a, rows in enumerate(blocks) for cols in blocks[a:]]


def distance_tiles(X):
    """The Euclidean distances between the rows of ``X`` as contiguous tiles
    ``cdist(X[rows], X[cols])``, one per block pair of :func:`_block_pairs`.

    ``cdist`` computes each pair on its own, so every tile is byte-equal to
    the block ``cdist(X, X)[rows, cols]``; together the tiles hold the upper
    triangle of blocks, about half of the N x N matrix.
    """
    X = np.asarray(X, dtype=float)
    return [cdist(X[rows], X[cols]) for rows, cols in _block_pairs(len(X))]


def _pair_sum_squares(tiles, npts):
    """sum_{i<j} D_ij^2 over the distance tiles of ``npts`` points: a
    diagonal tile holds each of its pairs twice, any other tile once."""
    return 0.5 * sum((1.0 if rows == cols else 2.0) * float(np.einsum("ij,ij->", tile, tile))
                     for (rows, cols), tile in zip(_block_pairs(npts), tiles, strict=True))


def _smacof_sweep(tiles, Y, bufs):
    """Raw stress of ``Y`` and its Guttman transform, in one pass over the
    distance tiles of :func:`distance_tiles` and the same blocks of d(Y).

    Each pair's distances, residuals and ratios r = D / d (0 where d = 0)
    are computed once and serve its rows through r and its cols through
    r^T.  ``bufs`` are two SMACOF_BLOCK**2 scratch arrays.
    """
    npts, k = Y.shape
    Y1 = np.hstack([Y, np.ones((npts, 1))])
    acc = np.zeros_like(Y1)  # sum_j r_ij [y_j | 1]
    stress = 0.0
    for (rows, cols), tile in zip(_block_pairs(npts), tiles, strict=True):
        d, r = (buf[:tile.size].reshape(tile.shape) for buf in bufs)
        cdist(Y[rows], Y[cols], out=d)
        np.subtract(tile, d, out=r)
        stress += (1.0 if rows == cols else 2.0) * float(np.einsum("ij,ij->", r, r))
        # D / inf = 0 is the ratio's value at d = 0, without a masked divide
        d[d == 0] = np.inf
        np.divide(tile, d, out=r)
        # Guttman transform (B Y)_i = sum_j r_ij (y_i - y_j) without forming B
        acc[rows] += r @ Y1[cols]
        if rows != cols:
            acc[cols] += r.T @ Y1[rows]
    return 0.5 * stress, (acc[:, k:] * Y - acc[:, :k]) / npts


def smacof(tiles, init, max_iter: int, tol: float):
    """SMACOF stress majorization over the distance tiles of
    :func:`distance_tiles`.  Returns (Y, stress_history).

    The Guttman transform guarantees a non-increasing raw stress
    sum_{i<j} (D_ij - d_ij(Y))^2; iteration stops when the relative stress
    decrease drops below ``tol``, or once the stress is at its round-off
    floor SMACOF_FLOOR * eps^2 * sum_{i<j} D_ij^2.  Besides the tiles,
    memory is two SMACOF_BLOCK x SMACOF_BLOCK buffers and a few (N, k + 1)
    arrays.
    """
    bufs = [np.empty(SMACOF_BLOCK * SMACOF_BLOCK) for _ in range(2)]
    floor = SMACOF_FLOOR * np.finfo(float).eps ** 2 * _pair_sum_squares(tiles, len(init))
    Y = np.array(init, dtype=float)
    stress, transformed = _smacof_sweep(tiles, Y, bufs)
    stresses = [stress]
    for _ in range(max_iter):
        Y = transformed
        stress, transformed = _smacof_sweep(tiles, Y, bufs)
        stresses.append(stress)
        prev, cur = stresses[-2], stresses[-1]
        if cur <= floor or prev - cur < tol * max(prev, np.finfo(float).tiny):
            break
    return Y, stresses


def check_mds_setting(name: str, value):
    """MDS setting ``name`` as an int ('max_iter', >= 1; 50.0 counts, True
    does not) or a float ('tol', finite and >= 0), or ValueError."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"mds hyperparameter {name!r} must be a number, got {value!r}")
    if name == "max_iter":
        if isinstance(value, bool) or not 1 <= value < np.inf or value % 1:
            raise ValueError(f"mds max_iter must be an integer >= 1, got {value!r}")
        return int(value)
    if not 0 <= value < np.inf:
        raise ValueError(f"mds tol must be finite and >= 0, got {value!r}")
    return float(value)


def mds_project(X, k: int, max_iter: int = 300, tol: float = 1e-9) -> EmbeddingResult:
    """Metric MDS: SMACOF initialized from classical MDS."""
    X = np.asarray(X, dtype=float)
    max_iter, tol = check_mds_setting("max_iter", max_iter), check_mds_setting("tol", tol)
    if not 1 <= k <= len(X):
        raise ValueError(f"k must be in [1, {len(X)}] for {len(X)} points, got {k}")
    if not np.all(np.isfinite(X)):
        raise ValueError("distances must be finite")
    tiles = distance_tiles(X)
    Y, stresses = smacof(tiles, classical_mds(X, k), max_iter, tol)
    denom = _pair_sum_squares(tiles, len(X))
    normalized = np.sqrt(stresses[-1] / denom) if denom > 0 else 0.0
    return EmbeddingResult(
        Y=Y,
        method="mds",
        hyperparameters={
            "k": k,
            "max_iter": max_iter,
            "tol": tol,
            "n_iter": len(stresses) - 1,
            "normalized_stress": float(normalized),
        },
    )


def check_kn(npts: int, kn: int) -> None:
    """Raise ValueError unless ``kn`` is an NPR neighborhood size for ``npts`` points."""
    if not (1 <= kn <= npts - 1):
        raise ValueError(f"kn must be in [1, {npts - 1}], got {kn}")


# high-dimensional (N, kn) neighbor tables kept per process by npr, N*kn*8
# bytes each plus the key's copy of the dataset; a suite worker's pca, tsvd
# and mds jobs on one instance, and every draw of a tune, share one dataset
NPR_CACHE_SIZE = 2


@lru_cache(maxsize=NPR_CACHE_SIZE)
def _cached_high_neighbors(data: bytes, shape: tuple, kn: int) -> np.ndarray:
    pts = np.frombuffer(data).reshape(shape)
    table = nearest_neighbors(pts, kn)
    table.flags.writeable = False
    return table


def npr(x_high, y_low, kn: int = 10) -> float:
    """Neighborhood preservation ratio in [0, 1].

    Mean over points of the fraction of each point's ``kn`` nearest
    neighbors (Euclidean, exact ties resolved by lowest row index) that are
    still among its ``kn`` nearest neighbors after reduction.  The neighbor
    table of ``x_high`` is cached per process, keyed by its bytes, shape and
    ``kn``, so scoring several embeddings of one dataset searches it once.
    """
    x_high = np.asarray(x_high, dtype=float)
    y_low = np.asarray(y_low, dtype=float)
    if x_high.shape[0] != y_low.shape[0]:
        raise ValueError("point counts differ between the two spaces")
    check_kn(x_high.shape[0], kn)
    if not (np.all(np.isfinite(x_high)) and np.all(np.isfinite(y_low))):
        raise ValueError("NPR inputs must be finite")
    high = _cached_high_neighbors(x_high.tobytes(), x_high.shape, int(kn))
    low = nearest_neighbors(y_low, kn)
    # A row of either table holds distinct indices, so after merging and
    # sorting, every shared neighbor is one pair of equal adjacent entries.
    merged = np.sort(np.concatenate([high, low], axis=1), axis=1)
    overlap = np.count_nonzero(merged[:, 1:] == merged[:, :-1], axis=1)
    return float(np.mean(overlap / kn))


REQUIRED_PLACEHOLDERS = ("{input}", "{output}", "{k}")


def run_external_reducer(
    command: str,
    X,
    k: int,
    timeout: float = 300.0,
    seed: int = 0,
) -> EmbeddingResult:
    """Run an external reducer subprocess over the CSV protocol.

    ``command`` is a template containing ``{input}``, ``{output}`` and
    ``{k}`` (and optionally ``{seed}``).  Protocol violations raise
    distinct error types: nonzero exit (or a program that cannot start),
    timeout, malformed, non-finite or missing output, and row-count
    mismatch.  The protocol files live in a temporary directory that is
    removed when the call returns or raises.
    """
    X = np.asarray(X, dtype=float)
    for placeholder in REQUIRED_PLACEHOLDERS:
        if placeholder not in command:
            raise ValueError(f"command template must contain {placeholder}")
    with tempfile.TemporaryDirectory(prefix="curvebench-reducer-") as tmp:
        input_path = Path(tmp) / "input.csv"
        output_path = Path(tmp) / "output.csv"
        fileio.write_point_cloud_csv(input_path, X, prefix="x")

        try:
            rendered = command.format(input=str(input_path), output=str(output_path),
                                      k=k, seed=seed)
        except (KeyError, IndexError, AttributeError) as exc:
            raise ValueError(
                f"unresolved placeholder {exc} in reducer command template; "
                "hyperparameter names must be supplied"
            ) from None
        argv = shlex.split(rendered)

        def protocol_error(error, message, run):
            """``error`` carrying the rendered command and ``run``'s output as
            str: a timeout hands back partial output as bytes (or None)."""
            out, err = (text.decode(errors="replace") if isinstance(text, bytes) else text or ""
                        for text in (run.stdout, run.stderr))
            return error(message, command=rendered, stdout=out, stderr=err)

        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=tmp)
        except subprocess.TimeoutExpired as exc:
            raise protocol_error(ReducerTimeoutError,
                                 f"external reducer exceeded {timeout}s and was terminated",
                                 exc) from None
        except OSError as exc:  # missing or not executable: a shell's status 127
            raise ReducerExitError(f"external reducer could not be started: {exc}",
                                   command=rendered) from None
        if proc.returncode != 0:
            raise protocol_error(ReducerExitError,
                                 f"external reducer exited with status {proc.returncode}", proc)
        if not output_path.exists():
            raise protocol_error(ReducerOutputError, "external reducer wrote no output file", proc)
        try:
            Y = fileio.read_point_cloud_csv(output_path, prefix="y")
        except ValueError as exc:
            raise protocol_error(ReducerOutputError, f"malformed reducer output: {exc}",
                                 proc) from None
        if Y.shape[0] != X.shape[0]:
            raise protocol_error(ReducerRowCountError,
                                 f"expected {X.shape[0]} embedding rows, got {Y.shape[0]}", proc)
        if Y.shape[1] != k:
            raise protocol_error(ReducerOutputError,
                                 f"expected {k} embedding columns, got {Y.shape[1]}", proc)
        return EmbeddingResult(
            Y=Y,
            method="external",
            hyperparameters={"command": command, "k": k, "seed": seed},
        )


# the hyperparameters each built-in reducer reads; any other name is refused
BUILTIN_HYPERPARAMETERS = {"pca": (), "tsvd": (), "mds": ("max_iter", "tol")}


def reduce_dataset(method: str, X, k: int, seed: int = 0, *,
                   timeout: float = 300.0, hyperparameters=None) -> EmbeddingResult:
    """Dispatch a method spec: 'pca', 'tsvd', 'mds' or 'external:<command>'.

    MDS reads ``max_iter`` and ``tol`` from ``hyperparameters``, each
    defaulting to and checked by :func:`mds_project`; PCA and tSVD read
    none, and a built-in reducer refuses a name it does not read.  An
    external command has every hyperparameter substituted into its template.
    """
    hyperparameters = dict(hyperparameters or {})
    if method in BUILTIN_HYPERPARAMETERS:
        accepted = BUILTIN_HYPERPARAMETERS[method]
        for name in hyperparameters:
            if name not in accepted:
                raise ValueError(f"{method} reads no hyperparameter {name!r}; it accepts "
                                 + (", ".join(accepted) or "none"))
    if method == "pca":
        return pca_project(X, k)
    if method == "tsvd":
        return truncated_svd_project(X, k)
    if method == "mds":
        return mds_project(X, k, **hyperparameters)
    if method.startswith("external:"):
        command = method.split(":", 1)[1]
        if hyperparameters:
            command = _render_hyperparameters(command, hyperparameters)
        return run_external_reducer(command, X, k, timeout=timeout, seed=seed)
    raise ValueError(
        f"unknown method {method!r}; valid methods: pca, tsvd, mds, external:<command>"
    )


def _render_hyperparameters(command: str, hyperparameters: dict) -> str:
    """Substitute tuned hyperparameters into an external command template,
    leaving the protocol placeholders for run_external_reducer."""
    out = command
    for name, value in hyperparameters.items():
        # str() of a float is its shortest round-tripping repr, so the
        # reducer receives exactly the value that tune and suite report
        out = out.replace("{" + name + "}", str(value))
    return out
