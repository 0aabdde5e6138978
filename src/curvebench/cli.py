"""Command-line pipeline: generate, reduce, score, suite, tune, plot.

Every run is a pure function of the master seed and the flags; the
``CURVEBENCH_SEED`` environment variable overrides the master seed.
"""

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import fileio
from .errors import CurvebenchError, ScoringError, TuningError
from .estimation import EstimationConfig, roundtrip_score
from .generator import (
    DEFAULT_ETA,
    DEFAULT_M,
    DEFAULT_RESOLUTION,
    THETA_EASY,
    THETA_HARD,
    InstanceDescriptor,
    derive_seed,
    enumerate_suite,
    make_descriptor,
    makegen,
)
from .geometry import check_trim, unit_grid
from .reducers import check_kn, check_mds_setting, npr, reduce_dataset

DEFAULT_KN = 10
# the header of the summary.csv that `suite` writes and `plot` reads
SUMMARY_HEADER = "instance_id,method,repeat,score,score_raw,npr,status"


# ----------------------------------------------------------------------
# shared helpers

def _master_seed(args) -> int:
    env = os.environ.get("CURVEBENCH_SEED")
    if env is not None:
        return int(env)
    return int(args.seed)


def _estimator_config(args) -> EstimationConfig:
    return EstimationConfig(
        method=args.estimator.replace("-", "_"),
        k_neighbors=args.k_neighbors,
        trim=args.trim,
        mode=args.mode.replace("-", "_"),
        rescale_output=(args.rescale == "on"),
    )


def _add_estimator_flags(parser):
    parser.add_argument("--estimator", choices=["metric-knn", "function-spline"],
                        default="metric-knn")
    parser.add_argument("--k-neighbors", type=int, default=8)
    parser.add_argument("--trim", type=int, default=2)
    parser.add_argument("--mode", choices=["standard", "paper-sqrt"], default="standard")
    parser.add_argument("--rescale", choices=["on", "off"], default="on")
    parser.add_argument("--kn", type=int, default=DEFAULT_KN,
                        help="neighborhood size for the NPR baseline")


def _mds_settings(args, method: str) -> dict:
    """The ``--mds-*`` flags as ``method``'s hyperparameters; none unless MDS."""
    return {"max_iter": args.mds_max_iter, "tol": args.mds_tol} if method == "mds" else {}


def _dataset(descriptor: InstanceDescriptor, rotation=None) -> np.ndarray:
    """The instance's (N, m) point cloud on its unit grid."""
    grid = unit_grid(descriptor.n, descriptor.grid_resolution)
    return makegen(descriptor, rotation=rotation).evaluate(grid.points()).points


def _write_dataset(descriptor: InstanceDescriptor, out_dir: Path,
                   identity_rotation: bool = False) -> Path:
    cloud = _dataset(descriptor, np.eye(descriptor.m) if identity_rotation else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_instance_json(out_dir / f"{descriptor.instance_id}.json", descriptor)
    csv_path = out_dir / f"{descriptor.instance_id}.csv"
    fileio.write_point_cloud_csv(csv_path, cloud, prefix="x")
    return csv_path


def _check_scoring_args(grid, config: EstimationConfig, kn: int) -> None:
    """Reject a ``trim``, KNN ``k_neighbors`` or NPR ``kn`` that ``grid``
    cannot support."""
    check_trim(grid.shape, config.trim)
    if config.method == "metric_knn" and not grid.n < config.k_neighbors < grid.num_points:
        raise ValueError(f"k_neighbors must be in [{grid.n + 1}, {grid.num_points - 1}], "
                         f"got {config.k_neighbors}")
    check_kn(grid.num_points, kn)


def score_embedding(descriptor: InstanceDescriptor, Y, config: EstimationConfig,
                    kn: int = DEFAULT_KN, dataset=None) -> dict:
    """Score one embedding against its instance: curvature score plus NPR.

    The high-dimensional dataset is regenerated from the descriptor unless
    ``dataset`` is supplied (e.g. read back from a generated CSV).
    """
    grid = unit_grid(descriptor.n, descriptor.grid_resolution)
    _check_scoring_args(grid, config, kn)
    npts = grid.num_points
    Y = np.asarray(Y, dtype=float)
    if Y.shape[0] != npts:
        raise ValueError(
            f"embedding has {Y.shape[0]} rows but the instance grid has {npts}"
        )
    if not np.all(np.isfinite(Y)):
        raise ValueError("embedding entries must be finite")
    if dataset is not None:
        dataset = np.asarray(dataset, dtype=float)
        if dataset.shape[0] != npts:
            raise ValueError(
                f"dataset has {dataset.shape[0]} rows but the instance grid has {npts}"
            )
        if not np.all(np.isfinite(dataset)):
            raise ValueError("dataset entries must be finite")
    start = time.perf_counter()
    result = roundtrip_score(grid, Y, config)
    diag = result.field.diagnostics
    suspect = set(diag.get("degenerate_nodes", [])) | set(diag.get("clamped_nodes", [])) \
        | set(diag.get("failed_nodes", [])) | set(diag.get("floored_plane_nodes", []))
    if len(suspect) > 0.5 * npts:
        raise ScoringError(
            f"{len(suspect)}/{npts} nodes degenerate; embedding too collapsed to assess"
        )
    if dataset is None:
        dataset = _dataset(descriptor)
    npr_value = npr(dataset, Y, kn=kn)
    return {
        "instance_id": descriptor.instance_id,
        "curvature_score": result.score,
        "curvature_score_raw": result.score_raw,
        "npr": npr_value,
        "degenerate_nodes": sorted(suspect),
        "estimator": asdict(config),
        "kn": kn,
        "wall_time_score": time.perf_counter() - start,
        "seeds": {"instance": descriptor.seed},
    }


# ----------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    if args.instance:
        descriptors = [fileio.read_instance_json(args.instance)]
    elif args.suite:
        descriptors = enumerate_suite(
            theta_easy=args.theta_easy,
            theta_hard=args.theta_hard,
            eta=args.eta,
            base_seed=_master_seed(args),
            grid_resolution=args.resolution,
        )
    elif args.families and args.thetas:
        families = args.families.split(",")
        thetas = [float(t) for t in args.thetas.split(",")]
        descriptors = [
            make_descriptor(
                families, thetas, eta=args.eta, seed=_master_seed(args),
                grid_resolution=args.resolution, m=args.m,
            )
        ]
    else:
        print("generate: need --instance, --suite, or --families/--thetas", file=sys.stderr)
        return 2
    for descriptor in descriptors:
        _write_dataset(descriptor, out_dir, identity_rotation=args.identity_rotation)
    print(f"wrote {len(descriptors)} instance(s) to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# reduce

def cmd_reduce(args) -> int:
    X = fileio.read_point_cloud_csv(args.dataset, prefix="x")
    result = reduce_dataset(
        args.method, X, args.k, seed=_master_seed(args), timeout=args.timeout,
        hyperparameters=_mds_settings(args, args.method),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_point_cloud_csv(out, result.Y, prefix="y")
    fileio.write_json(
        out.with_suffix(".meta.json"),
        {
            "method": result.method,
            "hyperparameters": result.hyperparameters,
            "wall_time": result.wall_time,
            "dataset": str(args.dataset),
        },
    )
    print(f"wrote embedding {out}")
    return 0


# ----------------------------------------------------------------------
# score

def cmd_score(args) -> int:
    descriptor = fileio.read_instance_json(args.instance)
    Y = fileio.read_point_cloud_csv(args.embedding, prefix="y")
    config = _estimator_config(args)
    dataset = (
        fileio.read_point_cloud_csv(args.dataset, prefix="x") if args.dataset else None
    )
    report = score_embedding(descriptor, Y, config, kn=args.kn, dataset=dataset)
    report["embedding"] = str(args.embedding)
    out = Path(args.out) if args.out else Path(args.embedding).with_suffix(".score.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_json(out, report)
    print(
        f"{descriptor.instance_id}: curvature_score={report['curvature_score']:.6g} "
        f"npr={report['npr']:.4f} -> {out}"
    )
    return 0


# ----------------------------------------------------------------------
# suite

def _run_suite_job(job):
    """One (instance, method, repeat) evaluation; returns a report dict.

    Module-level so it can cross a process pool boundary.
    """
    desc_obj, method, repeat, config, kn, hyperparameters = job
    descriptor = replace(
        desc_obj, seed=derive_seed(desc_obj.seed, f"repeat-{repeat}")
    )
    report = {
        "instance_id": descriptor.instance_id,
        "method": method,
        "repeat": repeat,
        "status": "ok",
    }
    try:
        X = _dataset(descriptor)
        reducer_seed = derive_seed(descriptor.seed, f"{method}-reduce")
        result = reduce_dataset(method, X, descriptor.n, seed=reducer_seed,
                                hyperparameters=hyperparameters)
        scored = score_embedding(descriptor, result.Y, config, kn=kn, dataset=X)
        report.update(scored)
        report["method"] = method
        report["hyperparameters"] = result.hyperparameters
        report["wall_time_reduce"] = result.wall_time
        report["seeds"] = {"instance": descriptor.seed, "reducer": reducer_seed}
    except (CurvebenchError, ValueError) as exc:
        report["status"] = "failed"
        report["error"] = f"{type(exc).__name__}: {exc}"
    return report


def _summary_line(report) -> str:
    if report["status"] == "ok":
        return (
            f"{report['instance_id']},{report['method']},{report['repeat']},"
            f"{report['curvature_score']:.17g},{report['curvature_score_raw']:.17g},"
            f"{report['npr']:.17g},ok"
        )
    return f"{report['instance_id']},{report['method']},{report['repeat']},,,,failed"


def cmd_suite(args) -> int:
    if args.limit < 0 or args.repeats < 1 or args.workers < 1:
        print("suite: need --limit >= 0, --repeats >= 1 and --workers >= 1", file=sys.stderr)
        return 2
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        print("suite: need at least one method", file=sys.stderr)
        return 2
    for i, method in enumerate(methods):
        if method in methods[:i]:
            print(f"suite: method {method!r} appears twice in --methods", file=sys.stderr)
            return 2
    master_seed = _master_seed(args)
    descriptors = enumerate_suite(
        theta_easy=args.theta_easy,
        theta_hard=args.theta_hard,
        eta=args.eta,
        base_seed=master_seed,
        grid_resolution=args.resolution,
    )
    if args.limit:
        descriptors = descriptors[: args.limit]
    config = _estimator_config(args)
    try:
        for n in {d.n for d in descriptors}:
            _check_scoring_args(unit_grid(n, args.resolution), config, args.kn)
    except ValueError as exc:
        print(f"suite: {exc} (--resolution {args.resolution})", file=sys.stderr)
        return 2

    settings = {method: _mds_settings(args, method) for method in methods}
    for name, value in settings.get("mds", {}).items():
        try:
            check_mds_setting(name, value)
        except ValueError as exc:
            print(f"suite: {exc} (--mds-{name.replace('_', '-')})", file=sys.stderr)
            return 2
    tuned = {}
    if args.tune_space:
        space = _read_space(args.tune_space)
        for method in methods:
            if method in space:
                tuned[method] = tune_hyperparameters(
                    method, space[method], args.tune_budget, descriptors[0],
                    config, seed=derive_seed(master_seed, f"tune-{method}"),
                    objective=args.objective, kn=args.kn, settings=settings[method],
                )["hyperparameters"]
    out_dir = Path(args.out_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    # one repeat's jobs share a dataset and run back to back, so npr's cache serves them
    jobs = [
        (desc, method, repeat, config, args.kn, {**settings[method], **tuned.get(method, {})})
        for desc in descriptors
        for repeat in range(1, args.repeats + 1)
        for method in methods
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            reports = list(pool.map(_run_suite_job, jobs, chunksize=4))
    else:
        reports = [_run_suite_job(job) for job in jobs]

    reports.sort(key=lambda r: (r["instance_id"], r["method"], r["repeat"]))
    for rep in reports:
        name = f"{rep['instance_id']}__{rep['method'].replace(':', '_').replace('/', '_')}__r{rep['repeat']}.json"
        fileio.write_json(reports_dir / name, rep)

    lines = [SUMMARY_HEADER] + [_summary_line(rep) for rep in reports]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    _write_median_table(out_dir / "medians.csv", reports, methods, descriptors)
    fileio.write_json(
        out_dir / "manifest.json",
        {
            "master_seed": master_seed,
            "methods": methods,
            "repeats": args.repeats,
            "resolution": args.resolution,
            "eta": args.eta,
            "theta_easy": args.theta_easy,
            "theta_hard": args.theta_hard,
            "estimator": asdict(config),
            "kn": args.kn,
            "instances": [d.instance_id for d in descriptors],
            "tuned": tuned,
        },
    )
    n_ok = sum(1 for r in reports if r["status"] == "ok")
    print(f"suite: {n_ok}/{len(reports)} runs ok -> {out_dir}")
    if n_ok == 0:
        print("suite: every run failed", file=sys.stderr)
        return 1
    return 0


def _family_pair(descriptor: InstanceDescriptor) -> str:
    return "+".join(sorted(descriptor.families))


def _write_median_table(path, reports, methods, descriptors) -> None:
    by_id = {d.instance_id: d for d in descriptors}
    cells = {}
    for rep in reports:
        if rep["status"] != "ok":
            continue
        pair = _family_pair(by_id[rep["instance_id"]])
        cells.setdefault((pair, rep["method"]), []).append(rep["curvature_score"])
    pairs = sorted({_family_pair(d) for d in descriptors})
    lines = ["family_pair," + ",".join(methods)]
    for pair in pairs:
        row = [pair]
        for method in methods:
            scores = cells.get((pair, method))
            row.append(f"{np.median(scores):.17g}" if scores else "")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# tune

def _read_space(path) -> dict:
    """A hyperparameter space JSON file, which must hold one object."""
    space = fileio.read_json(path)
    if not isinstance(space, dict):
        raise ValueError(f"{path}: hyperparameter space must be a JSON object")
    return space


def _bounds(name: str, decl: dict) -> tuple:
    """The finite numeric (low, high), low <= high, of a range hyperparameter."""
    bounds = []
    for key in ("low", "high"):
        value = decl[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"hyperparameter {name!r}: {key!r} must be a finite number, "
                             f"got {value!r}")
        bounds.append(value)
    if bounds[0] > bounds[1]:
        raise ValueError(f"hyperparameter {name!r}: low {bounds[0]!r} > high {bounds[1]!r}")
    return tuple(bounds)


def _sample_space(space: dict, rng: np.random.Generator) -> dict:
    if not isinstance(space, dict):
        raise ValueError("hyperparameter space must be a JSON object")
    out = {}
    for name, decl in sorted(space.items()):
        if isinstance(decl, dict) and decl.get("values"):
            choices = decl["values"]
            if not isinstance(choices, list):
                raise ValueError(f"hyperparameter {name!r}: 'values' must be a list, "
                                 f"got {choices!r}")
            out[name] = choices[int(rng.integers(len(choices)))]
        elif not (isinstance(decl, dict) and "low" in decl and "high" in decl):
            raise ValueError(
                f"hyperparameter {name!r} must declare non-empty 'values' "
                "or both 'low' and 'high'"
            )
        else:
            low, high = _bounds(name, decl)
            try:
                if decl.get("type") == "int":
                    out[name] = int(rng.integers(int(low), int(high) + 1))
                else:
                    out[name] = float(rng.uniform(float(low), float(high)))
            except (ValueError, OverflowError) as exc:  # a range too wide to draw from
                raise ValueError(f"hyperparameter {name!r}: {exc}") from None
    return out


def tune_hyperparameters(method: str, space: dict, budget: int,
                         descriptor: InstanceDescriptor, config: EstimationConfig,
                         seed: int = 0, objective: str = "curvature",
                         kn: int = DEFAULT_KN, settings=None) -> dict:
    """Seeded uniform random search; returns the best configuration.

    Each draw is laid over the fixed hyperparameters ``settings`` before
    the reducer runs; only the drawn values are reported.
    ``objective='curvature'`` minimizes the curvature score,
    ``objective='npr'`` maximizes NPR.  Failed runs count as infinitely
    bad; ties go to the earliest draw.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if objective not in ("curvature", "npr"):
        raise ValueError(f"objective must be 'curvature' or 'npr', got {objective!r}")
    grid = unit_grid(descriptor.n, descriptor.grid_resolution)
    _check_scoring_args(grid, config, kn)
    rng = np.random.default_rng(seed)
    X = _dataset(descriptor)

    best = None
    draws = []
    for draw_index in range(budget):
        draw = {"hyperparameters": _sample_space(space, rng)}
        try:
            result = reduce_dataset(method, X, descriptor.n, seed=seed,
                                    hyperparameters={**(settings or {}),
                                                     **draw["hyperparameters"]})
            scored = score_embedding(descriptor, result.Y, config, kn=kn, dataset=X)
            draw["objective"] = scored["curvature_score"] if objective == "curvature" \
                else -scored["npr"]
        except (CurvebenchError, ValueError) as exc:
            draw.update(objective=float("inf"), error=f"{type(exc).__name__}: {exc}")
        draws.append(draw)
        if best is None or draw["objective"] < best["objective"]:
            best = dict(draw, draw=draw_index)
    if not np.isfinite(best["objective"]):
        raise TuningError("every sampled configuration failed; the first with "
                          + draws[0]["error"])
    return {
        "method": method,
        "objective_name": objective,
        "hyperparameters": best["hyperparameters"],
        "objective": best["objective"],
        "draw": best["draw"],
        "budget": budget,
        "draws": draws,
    }


def cmd_tune(args) -> int:
    descriptor = fileio.read_instance_json(args.instance)
    space = _read_space(args.space) if args.space else {}
    config = _estimator_config(args)
    result = tune_hyperparameters(
        args.method, space, args.budget, descriptor, config,
        seed=_master_seed(args), objective=args.objective, kn=args.kn,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_json(out, result)
    print(
        f"best {args.method} configuration {result['hyperparameters']} "
        f"(objective {result['objective']:.6g}) -> {out}"
    )
    return 0


# ----------------------------------------------------------------------
# plot

SVG_SIZE = 520
SVG_MARGIN = 40


def _scatter_svg(points) -> str:
    pts = np.asarray(points, dtype=float)
    npts = pts.shape[0]
    res = int(round(np.sqrt(npts)))
    lattice = res * res == npts
    lo = pts.min(axis=0)
    spread = np.ptp(pts, axis=0)
    extent = np.where(spread > 0, spread, 1.0)
    span = SVG_SIZE - 2 * SVG_MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for idx, p in enumerate(pts):
        cx = SVG_MARGIN + span * (p[0] - lo[0]) / extent[0]
        cy = SVG_SIZE - SVG_MARGIN - span * (p[1] - lo[1]) / extent[1]
        if lattice:
            row, col = divmod(idx, res)
            r = int(40 + 200 * row / max(res - 1, 1))
            g = int(40 + 200 * col / max(res - 1, 1))
            b = 140
        else:
            r = int(40 + 200 * idx / max(npts - 1, 1))
            g = 90
            b = 140
        out.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="rgb({r},{g},{b})"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _box_svg(summary_rows) -> str:
    by_method = {}
    for row in summary_rows:
        if row["status"] != "ok":
            continue
        by_method.setdefault(row["method"], []).append(float(row["score"]))
    if not by_method:
        raise ValueError("summary contains no successful runs to plot")
    methods = sorted(by_method)
    hi = max(max(v) for v in by_method.values())
    hi = hi if hi > 0 else 1.0
    span = SVG_SIZE - 2 * SVG_MARGIN
    width = span / len(methods)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for pos, method in enumerate(methods):
        values = np.array(by_method[method])
        q0, q1, q2, q3, q4 = np.percentile(values, [0, 25, 50, 75, 100])
        cx = SVG_MARGIN + width * (pos + 0.5)

        def ypix(v):
            return SVG_SIZE - SVG_MARGIN - span * v / hi

        half = width * 0.25
        out.append(
            f'<g class="box" data-method="{method}">'
            f'<line x1="{cx:.2f}" y1="{ypix(q0):.2f}" x2="{cx:.2f}" y2="{ypix(q4):.2f}" stroke="black"/>'
            f'<rect x="{cx - half:.2f}" y="{ypix(q3):.2f}" width="{2 * half:.2f}" '
            f'height="{abs(ypix(q1) - ypix(q3)):.2f}" fill="lightsteelblue" stroke="black"/>'
            f'<line x1="{cx - half:.2f}" y1="{ypix(q2):.2f}" x2="{cx + half:.2f}" y2="{ypix(q2):.2f}" stroke="black"/>'
            f'<text x="{cx:.2f}" y="{SVG_SIZE - 10}" text-anchor="middle" font-size="14">{method}</text>'
            f"</g>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args) -> int:
    path = Path(args.input)
    text = path.read_text()
    if not text.strip():
        raise ValueError(f"{path}: empty CSV")
    first = text.splitlines()[0].strip()
    header = [c.strip() for c in first.split(",")]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if header[0] in ("x1", "y1"):
        pts = fileio.read_point_cloud_csv(path)
        if pts.shape[1] != 2:
            raise ValueError(
                f"can only scatter 2-D embeddings, got {pts.shape[1]} columns; "
                "run `curvebench score` for higher-dimensional results"
            )
        out.write_text(_scatter_svg(pts))
    elif ",".join(header) == SUMMARY_HEADER:
        rows = []
        for lineno, line in enumerate(text.splitlines()[1:], start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, "
                                 f"got {len(cells)}")
            row = dict(zip(header, cells))
            if row["status"] == "ok":
                try:
                    score = float(row["score"])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric score {row['score']!r} "
                                     "on an ok row") from None
                if not np.isfinite(score):
                    raise ValueError(f"{path}:{lineno}: non-finite score {row['score']!r} "
                                     "on an ok row")
            rows.append(row)
        out.write_text(_box_svg(rows))
    else:
        raise ValueError(f"unrecognized CSV header {first!r}")
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvebench",
        description="Synthetic-manifold benchmark for dimensionality reduction, "
        "scored by round-trip sectional curvature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate instance datasets")
    gen.add_argument("--instance", help="existing instance JSON to regenerate")
    gen.add_argument("--suite", action="store_true", help="emit the full 60-instance suite")
    gen.add_argument("--families", help="comma-separated curvature families")
    gen.add_argument("--thetas", help="comma-separated theta values")
    gen.add_argument("--eta", type=float, default=DEFAULT_ETA)
    gen.add_argument("--m", type=int, default=DEFAULT_M)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    gen.add_argument("--theta-easy", type=float, default=THETA_EASY)
    gen.add_argument("--theta-hard", type=float, default=THETA_HARD)
    gen.add_argument("--identity-rotation", action="store_true",
                     help="test hook: skip the random rotation")
    gen.add_argument("--out-dir", default="curvebench-out")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", help="run one reducer over a dataset CSV")
    red.add_argument("--dataset", required=True)
    red.add_argument("--method", required=True,
                     help="pca | tsvd | mds | external:<command template>")
    red.add_argument("--k", type=int, default=2)
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--mds-max-iter", type=int, default=300)
    red.add_argument("--mds-tol", type=float, default=1e-9)
    red.add_argument("--timeout", type=float, default=300.0)
    red.add_argument("--out", required=True, help="embedding CSV path")
    red.set_defaults(func=cmd_reduce)

    sco = sub.add_parser("score", help="score an embedding against its instance")
    sco.add_argument("--instance", required=True)
    sco.add_argument("--embedding", required=True)
    sco.add_argument("--dataset",
                     help="dataset CSV for the NPR baseline (default: regenerate)")
    sco.add_argument("--out")
    _add_estimator_flags(sco)
    sco.set_defaults(func=cmd_score)

    sui = sub.add_parser("suite", help="run the full generate/reduce/score pipeline")
    sui.add_argument("--methods", default="pca,tsvd,mds")
    sui.add_argument("--repeats", type=int, default=3)
    sui.add_argument("--seed", type=int, default=0)
    sui.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    sui.add_argument("--eta", type=float, default=DEFAULT_ETA)
    sui.add_argument("--theta-easy", type=float, default=THETA_EASY)
    sui.add_argument("--theta-hard", type=float, default=THETA_HARD)
    sui.add_argument("--mds-max-iter", type=int, default=150)
    sui.add_argument("--mds-tol", type=float, default=1e-7)
    sui.add_argument("--workers", type=int, default=1)
    sui.add_argument("--limit", type=int, default=0,
                     help="run only the first N instances (0 = all)")
    sui.add_argument("--tune-space", help="hyperparameter space JSON keyed by method")
    sui.add_argument("--tune-budget", type=int, default=8)
    sui.add_argument("--objective", choices=["curvature", "npr"], default="curvature")
    sui.add_argument("--out-dir", default="curvebench-out")
    _add_estimator_flags(sui)
    sui.set_defaults(func=cmd_suite)

    tun = sub.add_parser("tune", help="random-search hyperparameters for a method")
    tun.add_argument("--method", required=True)
    tun.add_argument("--space", help="hyperparameter space JSON")
    tun.add_argument("--budget", type=int, required=True)
    tun.add_argument("--objective", choices=["curvature", "npr"], default="curvature")
    tun.add_argument("--instance", required=True)
    tun.add_argument("--seed", type=int, default=0)
    tun.add_argument("--out", default="tuned.json")
    _add_estimator_flags(tun)
    tun.set_defaults(func=cmd_tune)

    plo = sub.add_parser("plot", help="render an embedding or summary as SVG")
    plo.add_argument("--input", required=True)
    plo.add_argument("--out", required=True)
    plo.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurvebenchError, ValueError, OSError) as exc:
        print(f"curvebench {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
