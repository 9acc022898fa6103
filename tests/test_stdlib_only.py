"""The runtime is pure standard library: numpy must not become a dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absorbing_ideals"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, module)
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_importing_the_package_loads_no_code_generation_modules():
    # dataclasses and what it pulls in cost more at start-up than the
    # package's own modules; -S keeps site hooks out of the check
    probe = "import sys, absorbing_ideals, absorbing_ideals.cli; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(ast.literal_eval(done.stdout))
    assert "absorbing_ideals.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast"})
