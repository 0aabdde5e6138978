"""The benchmark's workloads: which operations a run makes, drawn from its seed.

Each workload draws its operations from a fixed, finite universe, so that
every operation any seed can produce has a stored reference output (see
``reference/``).  This module only plans operations; it imports neither
numpy nor curvebench, so the benchmark can time the program's import as
part of set-up.

score-warm
    ``score_embedding`` with the default estimator on the PCA and tSVD
    embeddings of a seed-drawn slice of suite instances at 32x32.  Every
    call shares one (grid, k), so a (grid, k) cache would be hit.
score-cold
    ``score_embedding`` where no (resolution, k_neighbors) pair repeats in
    a run: resolutions 24-48, k 8-12, about one call in three with the
    function-spline estimator.  A (grid, k) cache always misses.  Every
    cycle of 25 calls has the same mix of problem sizes whatever the seed.
suite-paper
    ``curvebench suite`` with criterion 08's settings on the first
    ``SUITE_LIMIT`` instances, one invocation per pass, each with its own
    suite master seed.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("score-warm", "score-cold", "suite-paper")

SUITE_SIZE = 60              # instances in enumerate_suite()
INSTANCE_BASE_SEED = 0       # suite master seed of the score-* instances
REDUCERS = ("pca", "tsvd")   # reducers behind the score-* embeddings

WARM_RESOLUTION = 32
WARM_K = 8
WARM_SLICE = 8               # instances per score-warm pass, each with both reducers

COLD_RESOLUTIONS = tuple(range(24, 49))
COLD_K = tuple(range(8, 13))

SUITE_METHODS = "pca,tsvd,mds"
SUITE_LIMIT = 2
SUITE_WORKERS = 2
SUITE_SEEDS = tuple(range(16))  # suite master seeds with stored references


@dataclass(frozen=True)
class ScoreOp:
    """One ``score_embedding`` call of a score-* workload."""

    instance: int      # index into enumerate_suite(grid_resolution=resolution)
    reducer: str
    resolution: int
    k_neighbors: int
    estimator: str     # CLI spelling: "metric-knn" or "function-spline"

    @property
    def key(self) -> str:
        return (f"{self.instance}/{self.reducer}/r{self.resolution}"
                f"/k{self.k_neighbors}/{self.estimator}")


def _rng(workload: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream is the same in
    # every process and on every platform.
    return random.Random(f"{workload}:{seed}")


def warm_pass(seed: int) -> list:
    """The score-warm calls of one pass; every pass of a run repeats them."""
    rng = _rng("score-warm", seed)
    instances = rng.sample(range(SUITE_SIZE), WARM_SLICE)
    ops = [ScoreOp(i, r, WARM_RESOLUTION, WARM_K, "metric-knn")
           for i in instances for r in REDUCERS]
    rng.shuffle(ops)
    return ops


def cold_pair_op(resolution: int, k: int) -> ScoreOp:
    """The fixed call behind one (resolution, k) pair.  The middle one of
    each three consecutive resolutions is scored with function-spline."""
    rng = random.Random(f"score-cold-pair:{resolution}:{k}")
    spline = (resolution - COLD_RESOLUTIONS[0]) % 3 == 1
    return ScoreOp(rng.randrange(SUITE_SIZE), rng.choice(REDUCERS), resolution, k,
                   "function-spline" if spline else "metric-knn")


COLD_STEP = 16   # coprime with the 25 resolutions, near 25 / golden ratio


def cold_cycles(seed: int) -> list:
    """Every score-cold cycle a run may make, in order.

    A cycle scores each resolution once, with a k that resolution has not
    had yet in the run, so no (resolution, k) pair repeats; in every cycle
    each k serves one of each five consecutive resolutions.  The middle one
    of each three consecutive resolutions is scored with function-spline
    (48, left over, never is).  Every cycle visits the resolutions in one fixed
    golden-ratio stride, so a run cut short in its second cycle has scored
    the same problem sizes whatever the seed, and any prefix of a cycle
    mixes small and large problems.
    """
    rng = _rng("score-cold", seed)
    n = len(COLD_RESOLUTIONS)
    offsets = []   # each five consecutive resolutions take each k once per cycle
    for _ in range(0, n, len(COLD_K)):
        offsets += rng.sample(range(len(COLD_K)), len(COLD_K))
    cycles = []
    for i in range(len(COLD_K)):
        ops = []
        for j in range(n):
            r = j * COLD_STEP % n
            k = COLD_K[(offsets[r] + i) % len(COLD_K)]
            ops.append(cold_pair_op(COLD_RESOLUTIONS[r], k))
        cycles.append(ops)
    return cycles


def suite_seeds(seed: int) -> list:
    """Suite master seeds for successive suite-paper passes."""
    seeds = list(SUITE_SEEDS)
    _rng("suite-paper", seed).shuffle(seeds)
    return seeds


def suite_argv(suite_seed: int, out_dir, workers: int = SUITE_WORKERS) -> list:
    """``curvebench suite`` arguments of one suite-paper pass."""
    return ["suite", "--methods", SUITE_METHODS, "--repeats", "1",
            "--workers", str(workers), "--limit", str(SUITE_LIMIT),
            "--seed", str(suite_seed), "--out-dir", str(out_dir)]


def warm_universe() -> list:
    """Every score-warm call any seed can make."""
    return [ScoreOp(i, r, WARM_RESOLUTION, WARM_K, "metric-knn")
            for i in range(SUITE_SIZE) for r in REDUCERS]


def cold_universe() -> list:
    """Every score-cold call any seed can make."""
    return [cold_pair_op(res, k) for res in COLD_RESOLUTIONS for k in COLD_K]
