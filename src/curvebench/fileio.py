"""On-disk formats: dataset/embedding CSV and instance/report JSON.

All numbers are written with 17 significant digits, which round-trips
IEEE doubles exactly, and files always end with a newline so repeated
writes of the same data are byte-identical.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .generator import InstanceDescriptor

INSTANCE_KEYS = ("n", "m", "families", "thetas", "eta", "seed", "grid_resolution", "instance_id")


def _format_value(v: float) -> str:
    return f"{v:.17g}"


def write_point_cloud_csv(path, points, prefix: str = "x") -> None:
    """CSV with header ``<prefix>1,...,<prefix>d``, one row per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    header = ",".join(f"{prefix}{i + 1}" for i in range(d))
    lines = [header]
    lines.extend(",".join(_format_value(v) for v in row) for row in points)
    Path(path).write_text("\n".join(lines) + "\n")


def read_point_cloud_csv(path, prefix=None) -> np.ndarray:
    """Read a point-cloud CSV back; validates the header when ``prefix`` given."""
    numbered = [
        (lineno, ln) for lineno, ln in enumerate(Path(path).read_text().splitlines(), 1)
        if ln.strip()
    ]
    if not numbered:
        raise ValueError(f"{path}: empty CSV")
    header = [col.strip() for col in numbered[0][1].split(",")]
    if prefix is not None:
        expected = [f"{prefix}{i + 1}" for i in range(len(header))]
        if header != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)}, got {numbered[0][1]!r}"
            )
    rows = []
    for lineno, ln in numbered[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}: ragged rows (line {lineno} has {len(cells)} cells, "
                f"the header {len(header)})"
            )
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell on line {lineno} ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_instance_json(path, descriptor: InstanceDescriptor) -> None:
    Path(path).write_text(json.dumps(asdict(descriptor), indent=2) + "\n")


def read_instance_json(path) -> InstanceDescriptor:
    obj = json.loads(Path(path).read_text())
    missing = [key for key in INSTANCE_KEYS if key not in obj]
    if missing:
        raise ValueError(f"{path}: instance file missing keys {missing}")
    if not (isinstance(obj["families"], list)
            and all(isinstance(f, str) for f in obj["families"])):
        raise ValueError(f"{path}: 'families' must be a list of strings, "
                         f"got {obj['families']!r}")
    if not (isinstance(obj["thetas"], list)
            and all(isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in obj["thetas"])):
        raise ValueError(f"{path}: 'thetas' must be a list of numbers, got {obj['thetas']!r}")
    return InstanceDescriptor(
        n=int(obj["n"]),
        m=int(obj["m"]),
        families=tuple(obj["families"]),
        thetas=tuple(float(t) for t in obj["thetas"]),
        eta=float(obj["eta"]),
        seed=int(obj["seed"]),
        grid_resolution=int(obj["grid_resolution"]),
        instance_id=str(obj["instance_id"]),
    )


def write_json(path, obj) -> None:
    """Deterministic JSON dump (sorted keys, trailing newline)."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
