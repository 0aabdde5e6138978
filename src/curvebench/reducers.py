"""Built-in linear reducers, the NPR baseline, and the external protocol.

External reducers are arbitrary subprocesses speaking a small CSV
protocol: the input dataset is written to ``{input}`` (header
``x1,...,xm``), the command template is run with ``{input}``, ``{output}``
and ``{k}`` substituted, and the embedding is read back from ``{output}``
(header ``y1,...,yk``, one row per input row, 17 significant digits).
"""

import contextlib
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import (
    ReducerExitError,
    ReducerOutputError,
    ReducerRowCountError,
    ReducerTimeoutError,
)
from . import fileio
from .neighbors import nearest_neighbors, pdist_squared_distance

@dataclass(frozen=True)
class EmbeddingResult:
    """Embedding rows aligned with the input rows, plus provenance."""

    Y: np.ndarray
    method: str
    hyperparameters: dict = field(default_factory=dict)
    wall_time: float = 0.0

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


def _oriented_loadings(M, k):
    """Top-k right singular vectors, each flipped so its largest-magnitude
    entry is positive (deterministic orientation)."""
    _, _, vt = np.linalg.svd(M, full_matrices=False)
    vt = vt[:k].copy()
    for comp in range(k):
        lead = np.argmax(np.abs(vt[comp]))
        if vt[comp, lead] < 0:
            vt[comp] = -vt[comp]
    return vt


def pca_project(X, k: int) -> EmbeddingResult:
    """Coordinates of mean-centered ``X`` on its top-k principal directions.

    The embedding is the pointwise projection onto the loading vectors, so
    duplicate input rows stay bit-identical duplicates.
    """
    X = np.asarray(X, dtype=float)
    _check_k(X, k)
    start = time.perf_counter()
    centered = X - X.mean(axis=0)
    vt = _oriented_loadings(centered, k)
    Y = centered @ vt.T
    return EmbeddingResult(
        Y=Y, method="pca", hyperparameters={"k": k},
        wall_time=time.perf_counter() - start,
    )


def truncated_svd_project(X, k: int) -> EmbeddingResult:
    """Rank-k factor coordinates of the raw (uncentered) matrix."""
    X = np.asarray(X, dtype=float)
    _check_k(X, k)
    start = time.perf_counter()
    vt = _oriented_loadings(X, k)
    Y = X @ vt.T
    return EmbeddingResult(
        Y=Y, method="tsvd", hyperparameters={"k": k},
        wall_time=time.perf_counter() - start,
    )


# Classical MDS runs two N^3 matrix products and a dense eigendecomposition
# on every BLAS thread.  Two processes doing that at once on the same cores
# thrash: on 2 cores at N=1024 it took 0.5-1.0 s alone and 2.6-5.1 s when
# two suite workers overlapped.  Suite pool workers therefore share one lock
# for it; elsewhere this is a no-op.
_classical_mds_lock = contextlib.nullcontext()


def share_classical_mds_lock(lock) -> None:
    """Make this process hold ``lock`` around every classical MDS.

    Used as the suite pool's worker initializer.
    """
    global _classical_mds_lock
    _classical_mds_lock = lock


def classical_mds(D, k: int) -> np.ndarray:
    """Classical (Torgerson) MDS of a distance matrix: top-k eigenpairs of
    the double-centered squared distances."""
    npts = D.shape[0]
    with _classical_mds_lock:
        J = np.eye(npts) - np.ones((npts, npts)) / npts
        B = -0.5 * J @ (D**2) @ J
        w, v = np.linalg.eigh(B)
    order = np.argsort(w)[::-1][:k]
    w = np.maximum(w[order], 0.0)
    return v[:, order] * np.sqrt(w)


def smacof(D, init, max_iter: int, tol: float):
    """SMACOF stress majorization.  Returns (Y, stress_history).

    The Guttman transform guarantees a non-increasing raw stress
    sum_{i<j} (D_ij - d_ij(Y))^2; iteration stops when the relative stress
    decrease drops below ``tol``.
    """
    npts = D.shape[0]
    Y = np.array(init, dtype=float)
    d = squareform(pdist(Y))
    stresses = [0.5 * float(((D - d) ** 2).sum())]
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, D / np.where(d > 0, d, 1.0), 0.0)
        B = -ratio
        B[np.arange(npts), np.arange(npts)] = ratio.sum(axis=1)
        Y = (B @ Y) / npts
        d = squareform(pdist(Y))
        stresses.append(0.5 * float(((D - d) ** 2).sum()))
        prev, cur = stresses[-2], stresses[-1]
        if prev - cur < tol * max(prev, np.finfo(float).tiny):
            break
    return Y, stresses


def mds_project(X, k: int, max_iter: int = 300, tol: float = 1e-9) -> EmbeddingResult:
    """Metric MDS: SMACOF initialized from classical MDS."""
    X = np.asarray(X, dtype=float)
    if k < 1 or max_iter < 1:
        raise ValueError("need k >= 1 and max_iter >= 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("distances must be finite")
    start = time.perf_counter()
    D = squareform(pdist(X))
    Y, stresses = smacof(D, classical_mds(D, k), max_iter, tol)
    denom = float((squareform(D) ** 2).sum())
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
        wall_time=time.perf_counter() - start,
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
    table = nearest_neighbors(pts, kn, key=pdist_squared_distance)
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
    low = nearest_neighbors(y_low, kn, key=pdist_squared_distance)
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

        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=tmp)
        except subprocess.TimeoutExpired as exc:
            raise protocol_error(ReducerTimeoutError,
                                 f"external reducer exceeded {timeout}s and was terminated",
                                 exc) from None
        except OSError as exc:  # missing or not executable: a shell's status 127
            raise ReducerExitError(f"external reducer could not be started: {exc}",
                                   command=rendered) from None
        elapsed = time.perf_counter() - start
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
            wall_time=elapsed,
        )


def reduce_dataset(method: str, X, k: int, seed: int = 0, *,
                   timeout: float = 300.0, hyperparameters=None) -> EmbeddingResult:
    """Dispatch a method spec: 'pca', 'tsvd', 'mds' or 'external:<command>'.

    MDS reads ``max_iter`` and ``tol`` from ``hyperparameters``, each
    defaulting to :func:`mds_project`'s; an external command has every
    hyperparameter substituted into its template.
    """
    hyperparameters = dict(hyperparameters or {})
    if method == "pca":
        return pca_project(X, k)
    if method == "tsvd":
        return truncated_svd_project(X, k)
    if method == "mds":
        opts = {}
        for name, cast in (("max_iter", int), ("tol", float)):
            if name in hyperparameters:
                value = hyperparameters[name]
                try:
                    opts[name] = cast(value)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"mds hyperparameter {name!r} must be a number, "
                                     f"got {value!r}") from None
        return mds_project(X, k, **opts)
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
