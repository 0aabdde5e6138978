"""The README library example and demos run, and the exports match the docs."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curvebench

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    library = ROOT.joinpath("README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_exactly_the_exports():
    library = ROOT.joinpath("README.md").read_text().split("## Library", 1)[1]
    sentence = re.search(r"The package root exports (.*?)\.\s", library, re.S).group(1)
    assert re.findall(r"`(\w+)`", sentence) == curvebench.__all__


def library_prose() -> str:
    """README's Library section without its code blocks."""
    library = ROOT.joinpath("README.md").read_text().split("## Library", 1)[1]
    return re.sub(r"```.*?```", "", library, flags=re.S)


# the submodules that the Library section points to
MODULES = [importlib.import_module(f"curvebench.{name}") for name in
           ("cli", "generator", "geometry", "estimation", "reducers", "errors")]


def test_library_section_names_resolve():
    # a backticked name or call in the Library prose is a root export or
    # lives in one of the submodules that the section points to
    names = set(re.findall(r"`([A-Za-z_]\w*)[`(]", library_prose()))
    assert "estimate_curvature" in names
    stale = sorted(name for name in names if name not in curvebench.__all__
                   and not any(hasattr(module, name) for module in MODULES))
    assert stale == []


def test_library_section_signatures_match():
    # a backticked call whose arguments are bare names lists the function's
    # leading parameters, in order
    modules = [curvebench, *MODULES]
    checked, wrong = set(), {}
    for name, arglist in re.findall(r"`(\w+)\(([^`()]*)\)`", library_prose()):
        args = [arg.strip() for arg in arglist.split(",")]
        if all(arg.isidentifier() for arg in args):
            func = next(getattr(m, name) for m in modules if hasattr(m, name))
            params = list(inspect.signature(func).parameters)[:len(args)]
            checked.add(name)
            if params != args:
                wrong[name] = params
    assert "curvature_from_metric_field" in checked
    assert wrong == {}


def test_every_exported_name_resolves():
    for name in curvebench.__all__:
        assert hasattr(curvebench, name), name


def test_demo_imports_are_exported():
    for demo in sorted(ROOT.joinpath("demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "curvebench":
                for alias in node.names:
                    assert alias.name in curvebench.__all__, f"{demo.name}: {alias.name}"


@pytest.mark.parametrize("name", ["01_curvature_families", "02_generate_instances",
                                  "03_curvature_score", "04_benchmark_reducers"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def top_level_imports(path: Path) -> set:
    """The top-level modules that a file's absolute imports name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared():
    # installing ".[test]" is all the tests need: each module they import is
    # stdlib, local or declared in pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(ROOT.joinpath("pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {"curvebench"} | {path.stem for folder in ("bench", "tests")
                              for path in ROOT.joinpath(folder).glob("*.py")}
    undeclared = {
        path.name: sorted(top_level_imports(path) - set(sys.stdlib_module_names)
                          - local - declared)
        for path in [*sorted(ROOT.joinpath("tests").glob("*.py")),
                     ROOT / "bench" / "test_bench.py"]
    }
    assert {name: mods for name, mods in undeclared.items() if mods} == {}


def test_ci_runs_the_tier1_command():
    roadmap = ROOT.joinpath("ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = ROOT.joinpath(".github", "workflows", "tier1.yml").read_text()
    assert f"run: {command}\n" in workflow
    assert 'pip install ".[test]"' in workflow
