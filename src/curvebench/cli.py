"""Command-line pipeline: generate, reduce, score, suite, tune, plot.

Every run is a pure function of the master seed and the flags; the
``CURVEBENCH_SEED`` environment variable overrides the master seed.
"""

import argparse
import math
import os
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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


def _add_instance_flags(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    parser.add_argument("--eta", type=float, default=DEFAULT_ETA)
    parser.add_argument("--theta-easy", type=float, default=THETA_EASY)
    parser.add_argument("--theta-hard", type=float, default=THETA_HARD)


def _suite_descriptors(args) -> list:
    """The instances of the suite that the instance flags describe."""
    return enumerate_suite(theta_easy=args.theta_easy, theta_hard=args.theta_hard,
                           eta=args.eta, base_seed=_master_seed(args),
                           grid_resolution=args.resolution)


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


def _grid_rows(name: str, array, npts: int) -> np.ndarray:
    """``array`` as finite float rows, one per grid node, or a ValueError
    naming it ``name``."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2 or array.shape[1] == 0:
        raise ValueError(f"{name} must be a 2-D array with at least one column, "
                         f"got shape {array.shape}")
    if array.shape[0] != npts:
        raise ValueError(f"{name} has {array.shape[0]} rows but the instance grid has {npts}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} entries must be finite")
    return array


def score_embedding(descriptor: InstanceDescriptor, Y, config: EstimationConfig,
                    kn: int = DEFAULT_KN, dataset=None) -> dict:
    """Score one embedding against its instance: curvature score plus NPR.

    The high-dimensional dataset is regenerated from the descriptor unless
    ``dataset`` is supplied (e.g. read back from a generated CSV).
    """
    grid = unit_grid(descriptor.n, descriptor.grid_resolution)
    _check_scoring_args(grid, config, kn)
    npts = grid.num_points
    Y = _grid_rows("embedding", Y, npts)
    if dataset is not None:
        dataset = _grid_rows("dataset", dataset, npts)
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
        descriptors = _suite_descriptors(args)
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
    start = time.perf_counter()
    result = reduce_dataset(
        args.method, X, args.k, seed=_master_seed(args), timeout=args.timeout,
        hyperparameters=_mds_settings(args, args.method),
    )
    wall_time = time.perf_counter() - start
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_point_cloud_csv(out, result.Y, prefix="y")
    fileio.write_json(
        out.with_suffix(".meta.json"),
        {
            "method": result.method,
            "hyperparameters": result.hyperparameters,
            "wall_time": wall_time,
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

def _failed(report: dict, exc: Exception) -> dict:
    """``report`` marked ``failed`` by ``exc``; called in the ``except`` block
    that caught ``exc``.  The ``error`` starts with the exception's type, and
    one outside the package's and the reducers' refusals (CurvebenchError,
    ValueError) also keeps its traceback."""
    report.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    if not isinstance(exc, (CurvebenchError, ValueError)):
        report["traceback"] = traceback.format_exc()  # a fault: keep where it happened
    return report


def _reduce_and_score(descriptor, method, reducer_seed, config, kn, hyperparameters,
                      dataset=None) -> dict:
    """Reduce the instance's dataset (generated unless given) with ``method``,
    score the embedding and return the report; any exception gives a
    :func:`_failed` report, so one run cannot take a suite or a tune down."""
    report = {"instance_id": descriptor.instance_id, "method": method, "status": "ok"}
    try:
        X = _dataset(descriptor) if dataset is None else dataset
        start = time.perf_counter()
        result = reduce_dataset(method, X, descriptor.n, seed=reducer_seed,
                                hyperparameters=hyperparameters)
        wall_time = time.perf_counter() - start
        report.update(score_embedding(descriptor, result.Y, config, kn=kn, dataset=X),
                      hyperparameters=result.hyperparameters, wall_time_reduce=wall_time,
                      seeds={"instance": descriptor.seed, "reducer": reducer_seed})
    except Exception as exc:
        _failed(report, exc)
    return report


def _run_suite_job(job):
    """One (instance, method, repeat) evaluation; returns a report dict.
    Module-level so it can cross a process pool boundary."""
    desc_obj, method, repeat, config, kn, hyperparameters = job
    descriptor = replace(desc_obj, seed=derive_seed(desc_obj.seed, f"repeat-{repeat}"))
    reducer_seed = derive_seed(descriptor.seed, f"{method}-reduce")
    return dict(_reduce_and_score(descriptor, method, reducer_seed, config, kn,
                                  hyperparameters), repeat=repeat)


def _summary_line(report) -> str:
    if report["status"] == "ok":
        return (
            f"{report['instance_id']},{report['method']},{report['repeat']},"
            f"{report['curvature_score']:.17g},{report['curvature_score_raw']:.17g},"
            f"{report['npr']:.17g},ok"
        )
    return f"{report['instance_id']},{report['method']},{report['repeat']},,,,failed"


def cmd_suite(args) -> int:
    start = time.perf_counter()
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
    descriptors = _suite_descriptors(args)
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

    # one repeat's jobs share a dataset and are handed out back to back, so
    # npr's cache serves them when one process runs two of them in a row
    jobs = [
        (desc, method, repeat, config, args.kn, {**settings[method], **tuned.get(method, {})})
        for desc in descriptors
        for repeat in range(1, args.repeats + 1)
        for method in methods
    ]
    # one job at a time, so the worker that draws a long MDS job is not also
    # holding a queue of others; a fork pool starts all its workers up front
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_suite_job, job) for job in jobs]
            reports = []
            for job, future in zip(jobs, futures):
                try:
                    reports.append(future.result())
                except BrokenProcessPool as exc:  # a worker died before this job was done
                    desc, method, repeat = job[:3]
                    reports.append(_failed({"instance_id": desc.instance_id, "method": method,
                                            "repeat": repeat}, exc))
    else:
        reports = [_run_suite_job(job) for job in jobs]

    reports.sort(key=lambda r: (r["instance_id"], r["method"], r["repeat"]))
    for rep in reports:
        name = f"{rep['instance_id']}__{rep['method'].replace(':', '_').replace('/', '_')}__r{rep['repeat']}.json"
        fileio.write_json(reports_dir / name, rep)

    lines = [SUMMARY_HEADER] + [_summary_line(rep) for rep in reports]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    _write_median_table(out_dir / "medians.csv", reports, methods, descriptors)
    failures = Counter(rep["error"].split(":", 1)[0] for rep in reports
                       if rep["status"] == "failed")
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
            "failures": dict(sorted(failures.items())),
            "wall_time": time.perf_counter() - start,
        },
    )
    n_ok = len(reports) - failures.total()
    tally = "".join(f", {count} {name}" for name, count in sorted(failures.items()))
    print(f"suite: {n_ok}/{len(reports)} runs ok{tally} -> {out_dir}")
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
        report = _reduce_and_score(descriptor, method, seed, config, kn,
                                   {**(settings or {}), **draw["hyperparameters"]}, dataset=X)
        if report["status"] == "ok":
            draw["objective"] = report["curvature_score"] if objective == "curvature" \
                else -report["npr"]
        else:
            draw["objective"] = float("inf")
            draw.update((key, report[key]) for key in ("error", "traceback") if key in report)
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


def _svg(elements) -> str:
    """A white SVG_SIZE x SVG_SIZE canvas holding ``elements``."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        *elements,
        "</svg>",
    ]) + "\n"


def _scatter_svg(points) -> str:
    pts = np.asarray(points, dtype=float)
    npts = pts.shape[0]
    res = int(round(np.sqrt(npts)))
    lattice = res * res == npts
    lo = pts.min(axis=0)
    spread = np.ptp(pts, axis=0)
    extent = np.where(spread > 0, spread, 1.0)
    span = SVG_SIZE - 2 * SVG_MARGIN
    out = []
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
    return _svg(out)


def _box_svg(by_method) -> str:
    """Box glyphs of the scores of each method, a dict method -> scores."""
    if not by_method:
        raise ValueError("summary contains no successful runs to plot")
    methods = sorted(by_method)
    hi = max(max(v) for v in by_method.values())
    hi = hi if hi > 0 else 1.0
    span = SVG_SIZE - 2 * SVG_MARGIN
    width = span / len(methods)
    out = []
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
    return _svg(out)


def _summary_scores(path, text: str) -> dict:
    """method -> scores of the ok rows of a summary.csv's ``text``."""
    header = SUMMARY_HEADER.split(",")
    by_method = {}
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, "
                             f"got {len(cells)}")
        row = dict(zip(header, cells))
        if row["status"] != "ok":
            continue
        try:
            score = float(row["score"])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric score {row['score']!r} "
                             "on an ok row") from None
        if not np.isfinite(score):
            raise ValueError(f"{path}:{lineno}: non-finite score {row['score']!r} "
                             "on an ok row")
        by_method.setdefault(row["method"], []).append(score)
    return by_method


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
        out.write_text(_box_svg(_summary_scores(path, text)))
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
    gen.add_argument("--m", type=int, default=DEFAULT_M)
    _add_instance_flags(gen)
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
    _add_instance_flags(sui)
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
