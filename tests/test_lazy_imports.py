"""numpy is imported lazily: importing what the benchmark imports loads none.

Every numpy use in ``src/klingen`` imports it inside the function that needs
it, so that the CLI and the census path start without it.  This test reads
the imports of ``perfbench/workloads.py``, imports each of them in a fresh
interpreter and checks that ``numpy`` is still absent from ``sys.modules``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _imported_modules(path: Path) -> list:
    """Absolute module names imported at the top level of the file; for
    ``from package import name`` the submodule package.name when it is one
    of klingen's modules."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "klingen":
                names += [f"klingen.{alias.name}" for alias in node.names]
            elif node.module != "__future__":
                names.append(node.module)
    return names


def test_workload_imports_leave_numpy_unloaded():
    modules = _imported_modules(WORKLOADS)
    assert {"klingen.chartab", "klingen.cli", "klingen.groupfq"} <= set(modules)
    code = "\n".join(
        ["import sys",
         f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
         "import importlib",
         f"for name in {modules!r}:",
         "    importlib.import_module(name)",
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"]
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout
