"""
Benchmarking reducers over a slice of the suite
===============================================

Runs PCA, truncated SVD, and metric MDS over a few instances and prints
the curvature score next to the NPR baseline.  Linear methods ace the
flat instances and fall apart once both axes carry curvature; NPR barely
separates the two regimes.
"""

from curvebench import EstimationConfig, make_descriptor, makegen, reduce_dataset, unit_grid
from curvebench.cli import score_embedding

INSTANCES = [
    (("flat", "flat"), (1.2, 1.2)),
    (("flat", "circle"), (1.2, 1.8)),
    (("sine", "logistic"), (1.2, 1.2)),
    (("circle", "circle"), (1.8, 1.8)),
]

config = EstimationConfig()
grid = unit_grid(2, 32).points()

print(f"{'instance':>28} {'method':>6} {'curvature score':>16} {'npr':>6}")
for families, thetas in INSTANCES:
    descriptor = make_descriptor(families, thetas, eta=0.01, seed=7)
    dataset = makegen(descriptor).evaluate(grid).points
    for method in ("pca", "tsvd", "mds"):
        emb = reduce_dataset(method, dataset, 2,
                             hyperparameters={"max_iter": 150, "tol": 1e-7})
        report = score_embedding(descriptor, emb.Y, config)
        label = "-".join(f"{f}{t}" for f, t in zip(families, thetas))
        print(f"{label:>28} {method:>6} {report['curvature_score']:>16.4g} "
              f"{report['npr']:>6.3f}")

# The same comparison in one number per regime: median score on instances
# containing a flat axis versus fully curved ones mirrors how quasi-linear
# methods behave.
print("\n(lower is better; the full 60-instance run is `curvebench suite`)")
