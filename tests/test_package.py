"""The package is pure standard-library Python with exact integers only,
and runs as ``python -m doodlepoly``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import doodlepoly

MODULES = sorted(Path(doodlepoly.__file__).parent.glob("*.py"))


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            roots = []
        for root in roots:
            if root != "doodlepoly" and root not in sys.stdlib_module_names:
                found.append(f"{where}: imports {root}")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: uses float")
        if isinstance(getattr(node, "op", None), ast.Div):
            found.append(f"{where}: true division")
    return found


def test_modules_found():
    assert {"poly.py", "twin.py", "rep.py", "invariant.py", "cli.py"} <= {
        p.name for p in MODULES
    }


def test_stdlib_only_and_exact_integers():
    assert [v for path in MODULES for v in _violations(path)] == []


def test_checks_detect_each_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy\nfrom requests import get\nfrom . import poly\n"
        "x = 1.5\ny = float(2)\nz = 3 / 4\nz /= 2\nw = 3 // 4\n"
    )
    assert sorted(_violations(bad)) == [
        "bad.py:1: imports numpy",
        "bad.py:2: imports requests",
        "bad.py:4: float literal 1.5",
        "bad.py:5: uses float",
        "bad.py:6: true division",
        "bad.py:7: true division",
    ]


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(doodlepoly.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "doodlepoly", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_module_entry_point():
    done = _run_module("compute", "--word", "(12)^3", "--format", "table")
    assert (done.returncode, done.stdout) == (0, "{2}(1,-2,1)\n")
    done = _run_module("compute", "--word", "(1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
