"""The README library example runs and the package exports what demos import."""

import ast
import re
from pathlib import Path

import curvebench

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    library = ROOT.joinpath("README.md").read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    for name in curvebench.__all__:
        assert hasattr(curvebench, name), name


def test_demo_imports_are_exported():
    for demo in sorted(ROOT.joinpath("demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "curvebench":
                for alias in node.names:
                    assert alias.name in curvebench.__all__, f"{demo.name}: {alias.name}"
