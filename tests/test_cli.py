"""CLI pipeline: generate, reduce, score, suite, tune, plot."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebench import cli, estimation, fileio, reducers
from curvebench.cli import main, score_embedding, tune_hyperparameters
from curvebench.estimation import EstimationConfig

FLAT_ID = "flat1.2-flat1.2-e0-r16-n2m7"


def run(argv):
    return main([str(a) for a in argv])


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def generate_flat(tmp_path, out="gen", identity=True, eta="0", resolution=16):
    args = [
        "generate", "--families", "flat,flat", "--thetas", "1.2,1.2",
        "--eta", eta, "--resolution", resolution, "--out-dir", tmp_path / out,
    ]
    if identity:
        args.append("--identity-rotation")
    assert run(args) == 0
    iid = f"flat1.2-flat1.2-e{eta}-r{resolution}-n2m7"
    return tmp_path / out / f"{iid}.json", tmp_path / out / f"{iid}.csv"


class TestGenerate:
    def test_flat_flat_identity_rotation_pads_with_zeros(self, tmp_path):
        _, csv = generate_flat(tmp_path)
        data = fileio.read_point_cloud_csv(csv, prefix="x")
        assert data.shape == (256, 7)
        assert np.max(np.abs(data[:, 2:])) < 1e-12

    def test_same_seed_is_byte_identical(self, tmp_path):
        for out in ("g1", "g2"):
            assert run([
                "generate", "--families", "circle,sine", "--thetas", "1.8,1.2",
                "--eta", "0.01", "--seed", "5", "--resolution", "16",
                "--out-dir", tmp_path / out,
            ]) == 0
        assert tree_digest(tmp_path / "g1") == tree_digest(tmp_path / "g2")

    def test_suite_writes_sixty_instances(self, tmp_path):
        assert run([
            "generate", "--suite", "--resolution", "16",
            "--out-dir", tmp_path / "suite",
        ]) == 0
        assert len(list((tmp_path / "suite").glob("*.json"))) == 60
        assert len(list((tmp_path / "suite").glob("*.csv"))) == 60

    def test_regenerate_from_instance_json(self, tmp_path):
        inst, csv = generate_flat(tmp_path)
        out2 = tmp_path / "regen"
        assert run(["generate", "--instance", inst, "--out-dir", out2,
                    "--identity-rotation"]) == 0
        assert (out2 / csv.name).read_bytes() == csv.read_bytes()

    @pytest.mark.parametrize("edit", [{"eta": None}, {"seed": [1]}, 5])
    def test_malformed_instance_json_exits_one(self, tmp_path, capsys, edit):
        inst, _ = generate_flat(tmp_path)
        obj = fileio.read_json(inst)
        obj = {**obj, **edit} if isinstance(edit, dict) else edit
        inst.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["generate", "--instance", inst, "--out-dir", tmp_path / "regen"]) == 1
        assert str(inst) in capsys.readouterr().err

    def test_env_variable_overrides_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVEBENCH_SEED", "77")
        run([
            "generate", "--families", "circle,circle", "--thetas", "1.2,1.2",
            "--seed", "0", "--resolution", "16", "--out-dir", tmp_path / "env",
        ])
        monkeypatch.delenv("CURVEBENCH_SEED")
        run([
            "generate", "--families", "circle,circle", "--thetas", "1.2,1.2",
            "--seed", "77", "--resolution", "16", "--out-dir", tmp_path / "flag",
        ])
        assert tree_digest(tmp_path / "env") == tree_digest(tmp_path / "flag")

    def test_missing_selection_is_an_error(self, tmp_path):
        assert run(["generate", "--out-dir", tmp_path]) == 2

    def test_families_without_thetas_is_a_usage_error(self, tmp_path, capsys):
        assert run(["generate", "--families", "sine,circle", "--out-dir", tmp_path]) == 2
        assert "need --instance, --suite, or --families/--thetas" in capsys.readouterr().err


class TestReduceAndScore:
    def test_pca_roundtrip_scores_as_isometry(self, tmp_path):
        inst, csv = generate_flat(tmp_path)
        emb = tmp_path / "emb.csv"
        assert run(["reduce", "--dataset", csv, "--method", "pca",
                    "--k", "2", "--out", emb]) == 0
        report_path = tmp_path / "report.json"
        assert run(["score", "--instance", inst, "--embedding", emb,
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["curvature_score"] < 1e-6
        assert report["npr"] > 0.9
        for key in ("curvature_score_raw", "estimator", "degenerate_nodes", "seeds"):
            assert key in report

    def test_identity_embedding_scores_zero_and_full_npr(self, tmp_path):
        # identity-rotation dataset: padded-with-zeros grid, so the high- and
        # low-dimensional neighbor orders coincide bit-exactly
        inst, csv = generate_flat(tmp_path)
        grid = fileio.read_point_cloud_csv(csv, prefix="x")[:, :2]
        emb = tmp_path / "grid.csv"
        fileio.write_point_cloud_csv(emb, grid, prefix="y")
        report_path = tmp_path / "report.json"
        assert run(["score", "--instance", inst, "--embedding", emb,
                    "--dataset", csv, "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["curvature_score"] < 1e-6
        assert report["npr"] == 1.0

    def test_reduce_meta_sidecar(self, tmp_path):
        _, csv = generate_flat(tmp_path)
        emb = tmp_path / "emb.csv"
        run(["reduce", "--dataset", csv, "--method", "mds", "--k", "2",
             "--out", emb])
        meta = json.loads(emb.with_suffix(".meta.json").read_text())
        assert meta["method"] == "mds"
        assert "hyperparameters" in meta

    def test_unknown_method_is_reported(self, tmp_path, capsys):
        _, csv = generate_flat(tmp_path)
        code = run(["reduce", "--dataset", csv, "--method", "umap",
                    "--k", "2", "--out", tmp_path / "x.csv"])
        assert code == 1
        assert "valid methods" in capsys.readouterr().err

    def test_row_mismatch_is_an_error(self, tmp_path, capsys):
        inst, csv = generate_flat(tmp_path)
        emb = tmp_path / "short.csv"
        fileio.write_point_cloud_csv(emb, np.zeros((10, 2)), prefix="y")
        assert run(["score", "--instance", inst, "--embedding", emb]) == 1
        assert "rows" in capsys.readouterr().err

    def test_non_finite_embedding_or_dataset_rejected(self, tmp_path):
        inst, csv = generate_flat(tmp_path)
        descriptor = fileio.read_instance_json(inst)
        X = fileio.read_point_cloud_csv(csv, prefix="x")
        config = EstimationConfig()
        bad_y = X[:, :2].copy()
        bad_y[5, 0] = np.nan
        with pytest.raises(ValueError, match="embedding entries must be finite"):
            score_embedding(descriptor, bad_y, config)
        bad_x = X.copy()
        bad_x[5, 3] = np.inf
        with pytest.raises(ValueError, match="dataset entries must be finite"):
            score_embedding(descriptor, X[:, :2], config, dataset=bad_x)

    @pytest.mark.parametrize("trim,kn,match,k_neighbors", [
        (8, 10, "trim=8 leaves fewer than 2 interior nodes", 8),
        (2, 0, r"kn must be in \[1, 255\], got 0", 8),
        (2, 256, r"kn must be in \[1, 255\], got 256", 8),
        (2, 10, r"k_neighbors must be in \[3, 255\], got 2", 2),
    ])
    def test_bad_trim_or_kn_rejected_before_any_fit(self, tmp_path, monkeypatch,
                                                    trim, kn, match, k_neighbors):
        inst, csv = generate_flat(tmp_path)
        descriptor = fileio.read_instance_json(inst)
        X = fileio.read_point_cloud_csv(csv, prefix="x")

        def no_fit(*args, **kwargs):
            raise AssertionError("fit started before the trim/kn check")

        monkeypatch.setattr(cli, "roundtrip_score", no_fit)
        with pytest.raises(ValueError, match=match):
            score_embedding(descriptor, X[:, :2],
                            EstimationConfig(trim=trim, k_neighbors=k_neighbors), kn=kn,
                            dataset=X)

    def test_two_scores_search_the_grid_once(self, tmp_path, monkeypatch):
        inst, csv = generate_flat(tmp_path, identity=False, eta="0.01")
        descriptor = fileio.read_instance_json(inst)
        X = fileio.read_point_cloud_csv(csv, prefix="x")
        calls = []
        search = estimation.nearest_neighbors

        def counting_search(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(estimation, "nearest_neighbors", counting_search)
        estimation._cached_stencil.cache_clear()
        config = EstimationConfig(k_neighbors=9, rescale_output=True)
        first = score_embedding(descriptor, X[:, :2], config, dataset=X)
        second = score_embedding(descriptor, X[:, 2:4], config, dataset=X)
        assert calls == [9]
        assert first["curvature_score"] != second["curvature_score"]

    def test_estimator_and_mode_flags(self, tmp_path):
        inst, csv = generate_flat(tmp_path)
        grid = fileio.read_point_cloud_csv(csv, prefix="x")[:, :2]
        emb = tmp_path / "grid.csv"
        fileio.write_point_cloud_csv(emb, grid, prefix="y")
        for extra in (
            ["--estimator", "function-spline"],
            ["--mode", "paper-sqrt"],
            ["--rescale", "off", "--trim", "3", "--k-neighbors", "10"],
        ):
            out = tmp_path / "flagged.json"
            assert run(["score", "--instance", inst, "--embedding", emb,
                        "--out", out] + extra) == 0
            assert json.loads(out.read_text())["curvature_score"] < 1e-6

    def test_collapsed_embedding_raises_scoring_error(self, tmp_path, capsys):
        inst, csv = generate_flat(tmp_path)
        grid = fileio.read_point_cloud_csv(csv, prefix="x")[:, :2]
        collapsed = grid.copy()
        collapsed[:, 1] = 0.0
        emb = tmp_path / "collapsed.csv"
        fileio.write_point_cloud_csv(emb, collapsed, prefix="y")
        assert run(["score", "--instance", inst, "--embedding", emb]) == 1
        assert "collapsed" in capsys.readouterr().err


class TestSuite:
    def test_small_suite_runs_and_is_deterministic(self, tmp_path):
        argv = [
            "suite", "--methods", "pca,tsvd", "--repeats", "2", "--limit", "2",
            "--resolution", "16", "--seed", "3",
        ]
        assert run(argv + ["--out-dir", tmp_path / "s1"]) == 0
        assert run(argv + ["--out-dir", tmp_path / "s2"]) == 0
        s1 = (tmp_path / "s1" / "summary.csv").read_bytes()
        assert s1 == (tmp_path / "s2" / "summary.csv").read_bytes()
        lines = s1.decode().splitlines()
        assert lines[0] == "instance_id,method,repeat,score,score_raw,npr,status"
        assert len(lines) == 1 + 2 * 2 * 2  # instances x methods x repeats
        assert (tmp_path / "s1" / "medians.csv").exists()
        assert (tmp_path / "s1" / "manifest.json").exists()
        reports = list((tmp_path / "s1" / "reports").glob("*.json"))
        assert len(reports) == 8

    @pytest.mark.parametrize("program", ["exits", "missing", "attribute"])
    def test_failing_external_runs_are_isolated(self, tmp_path, program):
        # a reducer that exits with status 2, one that cannot start, and a
        # template whose placeholder reads an attribute of the input path
        stub = tmp_path / "fail.py"
        stub.write_text("#!/usr/bin/env python3\nimport sys\nsys.exit(2)\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        launch = {"exits": f"{sys.executable} {stub}", "missing": tmp_path / "missing",
                  "attribute": "true {input.foo}"}[program]
        method = f"external:{launch} {{input}} {{output}} {{k}}"
        assert run([
            "suite", "--methods", f"pca,{method}", "--repeats", "1",
            "--limit", "2", "--resolution", "16",
            "--out-dir", tmp_path / "mix",
        ]) == 0
        rows = (tmp_path / "mix" / "summary.csv").read_text().splitlines()[1:]
        status = [row.split(",")[-1] for row in rows]
        assert status.count("ok") == 2
        assert status.count("failed") == 2

    def test_all_failures_fail_the_suite(self, tmp_path):
        stub = tmp_path / "fail.py"
        stub.write_text("#!/usr/bin/env python3\nimport sys\nsys.exit(2)\n")
        method = f"external:{sys.executable} {stub} {{input}} {{output}} {{k}}"
        assert run([
            "suite", "--methods", method, "--repeats", "1", "--limit", "1",
            "--resolution", "16", "--out-dir", tmp_path / "allfail",
        ]) == 1

    @pytest.mark.parametrize("flag,value", [("--limit", "-59"), ("--repeats", "0"),
                                            ("--workers", "0"), ("--workers", "-2"),
                                            ("--methods", "pca,pca")])
    def test_out_of_range_counts_rejected_before_any_work(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "bad"
        assert run([
            "suite", "--methods", "pca", "--resolution", "16", flag, value,
            "--out-dir", out_dir,
        ]) == 2
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [("--mds-tol", "nan"), ("--mds-tol", "-1"),
                                            ("--mds-tol", "inf"), ("--mds-max-iter", "0")])
    def test_bad_mds_settings_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                       flag, value):
        def no_job(job):
            raise AssertionError("suite job started before the MDS settings check")

        monkeypatch.setattr(cli, "_run_suite_job", no_job)
        out_dir = tmp_path / "bad"
        assert run([
            "suite", "--methods", "pca,mds", "--resolution", "16", flag, value,
            "--out-dir", out_dir,
        ]) == 2
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [
        ["--trim", "8"], ["--kn", "0"], ["--kn", "256"], ["--methods", "mds", "--kn", "300"],
        ["--k-neighbors", "2"], ["--k-neighbors", "256"],
    ])
    def test_bad_trim_or_kn_rejected_before_any_job(self, tmp_path, monkeypatch, capsys,
                                                    flags):
        def no_job(job):
            raise AssertionError("suite job started before the trim/kn check")

        monkeypatch.setattr(cli, "_run_suite_job", no_job)
        out_dir = tmp_path / "bad"
        assert run([
            "suite", "--methods", "pca", "--resolution", "16", "--limit", "1",
            *flags, "--out-dir", out_dir,
        ]) == 2
        err = capsys.readouterr().err
        assert "--resolution 16" in err
        assert "trim=8" in err or "kn must be" in err or "k_neighbors must be" in err
        assert not out_dir.exists()

    def test_repeats_share_the_npr_dataset_cache(self, tmp_path):
        # jobs run instance by instance, repeat by repeat: each repeat's tsvd
        # job finds the dataset its pca job searched
        reducers._cached_high_neighbors.cache_clear()
        assert run([
            "suite", "--methods", "pca,tsvd", "--repeats", "3", "--limit", "1",
            "--resolution", "16", "--out-dir", tmp_path / "out",
        ]) == 0
        assert reducers._cached_high_neighbors.cache_info().hits == 3

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_parallel_workers_match_serial(self, seed):
        argv = [
            "suite", "--methods", "pca,tsvd,mds", "--repeats", "2", "--limit", "2",
            "--resolution", "12", "--mds-max-iter", "20", "--seed", seed,
        ]
        with tempfile.TemporaryDirectory() as tmp:
            serial, par = Path(tmp) / "serial", Path(tmp) / "par"
            assert run(argv + ["--out-dir", serial]) == 0
            assert run(argv + ["--workers", "2", "--out-dir", par]) == 0
            for name in ("summary.csv", "medians.csv", "manifest.json"):
                assert (serial / name).read_bytes() == (par / name).read_bytes(), name

    def test_summary_does_not_depend_on_blas_threads(self, tmp_path):
        # each run is a fresh interpreter, because a BLAS library reads its
        # thread count once, when it loads
        summaries = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(cli.__file__).parent.parent)]
                + [p for p in [env.get("PYTHONPATH")] if p])
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "curvebench.cli", "suite", "--methods", "mds",
                 "--limit", "1", "--repeats", "1", "--resolution", "24",
                 "--mds-max-iter", "20", "--seed", "0", "--out-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]


WARP_STUB = """
import sys
import numpy as np
src, dst, k, amp = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
rows = np.loadtxt(src, delimiter=",", skiprows=1)
out = rows[:, :k].copy()
out[:, 1] = out[:, 1] + amp * np.sin(4 * np.pi * out[:, 0])
header = ",".join(f"y{i+1}" for i in range(k))
np.savetxt(dst, out, delimiter=",", header=header, comments="", fmt="%.17g")
"""


ECHO_STUB = """
import sys
import numpy as np
src, dst, k, value, log = sys.argv[1:6]
open(log, "w").write(value)
X = np.loadtxt(src, delimiter=",", skiprows=1)
header = ",".join(f"y{i+1}" for i in range(int(k)))
np.savetxt(dst, X[:, :int(k)], delimiter=",", header=header, comments="", fmt="%.17g")
"""


# hyperparameter spaces that cannot be sampled, and the name the error gives
# (None: the file's path)
MALFORMED_SPACES = [
    pytest.param({"max_iter": {"low": 5}}, "'max_iter'", id="no-high"),
    pytest.param({"max_iter": {"type": "int", "high": 5}}, "'max_iter'", id="int-no-low"),
    pytest.param({"max_iter": {"values": []}}, "'max_iter'", id="empty-values"),
    pytest.param([{"max_iter": {"low": 1, "high": 5}}], None, id="top-level-list"),
]


BAD_DECLARATIONS = [
    pytest.param({"low": float("nan"), "high": 2}, "'low' must be a finite number", id="nan-low"),
    pytest.param({"low": 1, "high": float("inf")}, "'high' must be a finite number",
                 id="inf-high"),
    pytest.param({"type": "int", "low": 5, "high": 2}, "low 5 > high 2", id="int-low-above-high"),
    pytest.param({"low": 5.5, "high": 2.0}, "low 5.5 > high 2.0", id="float-low-above-high"),
    pytest.param({"low": "a", "high": 2}, "'low' must be a finite number", id="string-low"),
    pytest.param({"low": -1e308, "high": 1e308}, "range exceeds", id="range-overflows"),
    pytest.param({"values": 5}, "'values' must be a list", id="values-not-a-list"),
    pytest.param({"values": "abc"}, "'values' must be a list", id="values-a-string"),
]


class TestTune:
    @pytest.mark.parametrize("decl,message", BAD_DECLARATIONS)
    def test_bad_declaration_is_reported(self, tmp_path, capsys, decl, message):
        inst, _ = generate_flat(tmp_path)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"max_iter": decl}))  # NaN and Infinity literals
        assert run([
            "tune", "--method", "pca", "--space", path, "--budget", "1",
            "--instance", inst, "--out", tmp_path / "tuned.json",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvebench tune: hyperparameter 'max_iter': ")
        assert message in err

    def make_warp_method(self, tmp_path):
        stub = tmp_path / "warp.py"
        stub.write_text("#!/usr/bin/env python3\n" + textwrap.dedent(WARP_STUB))
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        return f"external:{sys.executable} {stub} {{input}} {{output}} {{k}} {{amp}}"

    def test_budget_one_returns_the_single_draw(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        space = tmp_path / "space.json"
        space.write_text('{"amp": {"low": 0.0, "high": 0.5}}\n')
        out = tmp_path / "tuned.json"
        assert run([
            "tune", "--method", self.make_warp_method(tmp_path),
            "--space", space, "--budget", "1", "--instance", inst,
            "--out", out,
        ]) == 0
        result = json.loads(out.read_text())
        assert len(result["draws"]) == 1
        assert result["hyperparameters"] == result["draws"][0]["hyperparameters"]

    def test_external_reducer_receives_the_reported_float(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        stub = tmp_path / "echo.py"
        stub.write_text(textwrap.dedent(ECHO_STUB))
        log = tmp_path / "received.txt"
        space = tmp_path / "space.json"
        space.write_text('{"alpha": {"low": 0.1, "high": 0.2}}\n')
        out = tmp_path / "tuned.json"
        assert run([
            "tune", "--method",
            f"external:{sys.executable} {stub} {{input}} {{output}} {{k}} {{alpha}} {log}",
            "--space", space, "--budget", "1", "--instance", inst, "--out", out,
        ]) == 0
        reported = json.loads(out.read_text())["hyperparameters"]["alpha"]
        assert float(log.read_text()) == reported

    def test_pca_with_empty_space_returns_no_hyperparameters(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        out = tmp_path / "tuned.json"
        assert run([
            "tune", "--method", "pca", "--budget", "3", "--instance", inst,
            "--out", out,
        ]) == 0
        assert json.loads(out.read_text())["hyperparameters"] == {}

    def test_objective_weakly_improves_with_budget(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        space = tmp_path / "space.json"
        space.write_text('{"amp": {"low": 0.0, "high": 0.5}}\n')
        method = self.make_warp_method(tmp_path)
        best = []
        for budget in (1, 3, 6):
            out = tmp_path / f"tuned{budget}.json"
            assert run([
                "tune", "--method", method, "--space", space,
                "--budget", str(budget), "--instance", inst, "--seed", "5",
                "--out", out,
            ]) == 0
            best.append(json.loads(out.read_text())["objective"])
        assert best[0] >= best[1] >= best[2]

    def test_npr_objective(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        out = tmp_path / "tuned.json"
        assert run([
            "tune", "--method", "pca", "--budget", "1", "--instance", inst,
            "--objective", "npr", "--out", out,
        ]) == 0
        result = json.loads(out.read_text())
        assert result["objective_name"] == "npr"
        assert -1.0 <= result["objective"] <= 0.0  # negated NPR

    def test_unknown_objective_rejected(self, tmp_path):
        inst, _ = generate_flat(tmp_path)
        descriptor = fileio.read_instance_json(inst)
        with pytest.raises(ValueError, match="objective"):
            tune_hyperparameters("pca", {}, 1, descriptor, EstimationConfig(),
                                 objective="curvatur")

    @pytest.mark.parametrize("space,named", MALFORMED_SPACES)
    def test_malformed_space_is_reported(self, tmp_path, capsys, space, named):
        inst, _ = generate_flat(tmp_path)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        assert run([
            "tune", "--method", "pca", "--space", path, "--budget", "1",
            "--instance", inst, "--out", tmp_path / "tuned.json",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvebench tune: ")
        assert (named or str(path)) in err

    def test_space_that_is_not_an_object_rejected(self, tmp_path):
        descriptor = fileio.read_instance_json(generate_flat(tmp_path)[0])
        with pytest.raises(ValueError, match="JSON object"):
            tune_hyperparameters("pca", [{"low": 1, "high": 5}], 1, descriptor,
                                 EstimationConfig())

    @pytest.mark.parametrize("space,named", MALFORMED_SPACES)
    def test_malformed_suite_space_is_reported(self, tmp_path, capsys, space, named):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"pca": space} if named else space))
        assert run([
            "suite", "--methods", "pca", "--resolution", "16", "--limit", "1",
            "--repeats", "1", "--tune-space", path, "--tune-budget", "1",
            "--out-dir", tmp_path / "out",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("curvebench suite: ")
        assert (named or str(path)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", None])
    def test_every_failed_draw_names_its_error(self, tmp_path, capsys, value):
        inst, _ = generate_flat(tmp_path)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"max_iter": {"values": [value]}}))
        assert run([
            "tune", "--method", "mds", "--space", path, "--budget", "2",
            "--instance", inst, "--out", tmp_path / "tuned.json",
        ]) == 1
        err = capsys.readouterr().err
        assert "every sampled configuration failed; the first with ValueError: " \
            f"mds hyperparameter 'max_iter' must be a number, got {value!r}" in err

    def test_misspelled_mds_hyperparameter_is_named(self, tmp_path, capsys):
        inst, _ = generate_flat(tmp_path)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"max_iters": {"type": "int", "low": 2, "high": 5}}))
        assert run([
            "tune", "--method", "mds", "--space", path, "--budget", "2",
            "--instance", inst, "--out", tmp_path / "tuned.json",
        ]) == 1
        err = capsys.readouterr().err
        assert "ValueError: mds reads no hyperparameter 'max_iters'; " \
            "it accepts max_iter, tol" in err

    def test_failed_draws_carry_their_error(self, tmp_path):
        descriptor = fileio.read_instance_json(generate_flat(tmp_path)[0])
        result = tune_hyperparameters("mds", {"max_iter": {"values": ["abc", 3]}}, 6,
                                      descriptor, EstimationConfig())
        failed = [d for d in result["draws"] if d["hyperparameters"]["max_iter"] == "abc"]
        assert 0 < len(failed) < 6
        assert all(d["error"].startswith("ValueError: mds hyperparameter") for d in failed)
        assert all("error" not in d for d in result["draws"] if d not in failed)

    def test_out_of_range_draws_fail_with_the_mds_check(self, tmp_path):
        descriptor = fileio.read_instance_json(generate_flat(tmp_path)[0])
        result = tune_hyperparameters("mds", {"max_iter": {"values": [2.7, 3]}}, 6,
                                      descriptor, EstimationConfig())
        failed = [d for d in result["draws"] if d["hyperparameters"]["max_iter"] == 2.7]
        assert 0 < len(failed) < 6
        assert all(d["error"] == "ValueError: mds max_iter must be an integer >= 1, got 2.7"
                   for d in failed)
        assert result["hyperparameters"] == {"max_iter": 3}

    def test_bad_kn_rejected_before_any_reduction(self, tmp_path, monkeypatch):
        inst, _ = generate_flat(tmp_path)
        descriptor = fileio.read_instance_json(inst)

        def no_reduce(*args, **kwargs):
            raise AssertionError("reduction started before the kn check")

        monkeypatch.setattr(cli, "reduce_dataset", no_reduce)
        with pytest.raises(ValueError, match="kn must be"):
            tune_hyperparameters("pca", {}, 3, descriptor, EstimationConfig(), kn=0)

    def test_suite_tunes_mds_under_its_mds_flags(self, tmp_path, monkeypatch):
        calls = []
        project = reducers.mds_project

        def spy(X, k, **opts):
            calls.append(opts)
            return project(X, k, **opts)

        monkeypatch.setattr(reducers, "mds_project", spy)
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"mds": {"tol": {"low": 1e-8, "high": 1e-6}}}))
        assert run([
            "suite", "--methods", "mds", "--tune-space", path, "--tune-budget", "2",
            "--mds-max-iter", "20", "--limit", "1", "--repeats", "1", "--resolution", "12",
            "--out-dir", tmp_path / "out",
        ]) == 0
        assert len(calls) == 3  # two draws, then the suite's run
        assert all(opts["max_iter"] == 20 for opts in calls)


class TestPlot:
    def test_embedding_scatter_is_deterministic(self, tmp_path):
        _, csv = generate_flat(tmp_path)
        grid = fileio.read_point_cloud_csv(csv, prefix="x")[:, :2]
        emb = tmp_path / "emb.csv"
        fileio.write_point_cloud_csv(emb, grid, prefix="y")
        s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert run(["plot", "--input", emb, "--out", s1]) == 0
        assert run(["plot", "--input", emb, "--out", s2]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().startswith("<svg")

    def test_summary_box_plot_has_one_glyph_per_method(self, tmp_path):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "instance_id,method,repeat,score,score_raw,npr,status\n"
            "a,pca,1,1.0,1.0,0.5,ok\n"
            "a,mds,1,2.0,2.0,0.4,ok\n"
            "b,pca,1,1.5,1.5,0.6,ok\n"
            "b,mds,1,2.5,2.5,0.3,ok\n"
        )
        out = tmp_path / "boxes.svg"
        assert run(["plot", "--input", summary, "--out", out]) == 0
        assert out.read_text().count('class="box"') == 2

    def test_empty_csv_is_reported(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["plot", "--input", empty, "--out", tmp_path / "x.svg"]) == 1
        assert "empty CSV" in capsys.readouterr().err

    def test_ragged_summary_row_is_reported(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "instance_id,method,repeat,score,score_raw,npr,status\n"
            "a,pca,1,1.0,1.0,0.5,ok\n"
            "a,mds,1,2.0\n"
        )
        assert run(["plot", "--input", summary, "--out", tmp_path / "x.svg"]) == 1
        assert f"{summary}:3: expected 7 cells, got 4" in capsys.readouterr().err

    def test_summary_without_status_column_is_unrecognized(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text("instance_id,method,repeat,score\na,pca,1,1.0\n")
        assert run(["plot", "--input", summary, "--out", tmp_path / "x.svg"]) == 1
        assert "unrecognized CSV header 'instance_id,method,repeat,score'" \
            in capsys.readouterr().err

    def test_non_numeric_score_on_ok_row_is_located(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "instance_id,method,repeat,score,score_raw,npr,status\n"
            "a,pca,1,1.0,1.0,0.5,ok\n"
            "a,mds,1,abc,2.0,0.4,ok\n"
        )
        assert run(["plot", "--input", summary, "--out", tmp_path / "x.svg"]) == 1
        assert f"{summary}:3: non-numeric score 'abc' on an ok row" in capsys.readouterr().err

    def test_non_finite_embedding_is_reported(self, tmp_path, capsys):
        emb = tmp_path / "nan.csv"
        emb.write_text("y1,y2\n0.0,1.0\nnan,2.0\n")
        out = tmp_path / "x.svg"
        assert run(["plot", "--input", emb, "--out", out]) == 1
        assert "non-finite cell on line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_score_on_ok_row_is_reported(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "instance_id,method,repeat,score,score_raw,npr,status\n"
            "a,pca,1,1.0,1.0,0.5,ok\n"
            "a,mds,1,inf,2.0,0.4,ok\n"
        )
        assert run(["plot", "--input", summary, "--out", tmp_path / "x.svg"]) == 1
        assert f"{summary}:3: non-finite score 'inf' on an ok row" in capsys.readouterr().err

    def test_high_dimensional_embedding_rejected(self, tmp_path, capsys):
        emb = tmp_path / "wide.csv"
        fileio.write_point_cloud_csv(emb, np.zeros((4, 3)), prefix="y")
        assert run(["plot", "--input", emb, "--out", tmp_path / "x.svg"]) == 1
        assert "2-D" in capsys.readouterr().err
