"""curvebench: benchmark dimensionality reduction with sectional curvature.

Synthetic datasets are produced by immersing a low-dimensional grid into a
higher-dimensional space along curves of prescribed curvature; reducers
are then scored by how much sectional curvature their round trip
introduces, with the neighborhood preservation ratio as a baseline.
"""

from .curves import FAMILIES, CurvatureSpec, curvature_value, reconstruct_curve
from .errors import CurvebenchError
from .estimation import EstimationConfig, roundtrip_score
from .generator import enumerate_suite, make_descriptor, makegen
from .geometry import unit_grid
from .reducers import pca_project, reduce_dataset

__version__ = "0.1.0"

__all__ = [
    "CurvatureSpec",
    "FAMILIES",
    "curvature_value",
    "reconstruct_curve",
    "enumerate_suite",
    "make_descriptor",
    "makegen",
    "EstimationConfig",
    "roundtrip_score",
    "unit_grid",
    "pca_project",
    "reduce_dataset",
    "CurvebenchError",
]
