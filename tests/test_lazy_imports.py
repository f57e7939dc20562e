"""numpy is imported lazily: importing what the benchmark imports loads none,
and neither does running the census commands.

Every numpy use in ``src/klingen`` imports it inside the function that needs
it, so that the CLI and the census path start without it.  One test reads
the imports of ``perfbench/workloads.py``, imports each of them in a fresh
interpreter and checks that ``numpy`` is still absent from ``sys.modules``;
the other runs the census commands through ``cli.main`` in a fresh
interpreter and checks the same after they ran.
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


def _numpy_modules_after(lines: list) -> list:
    """What a fresh interpreter with ``src`` and ``perfbench`` on its path
    prints, line by line, when it runs ``lines`` and then prints the sorted
    numpy modules in ``sys.modules``."""
    code = "\n".join(
        ["import sys",
         f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
         *lines,
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"]
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip().splitlines()


def test_workload_imports_leave_numpy_unloaded():
    modules = _imported_modules(WORKLOADS)
    assert {"klingen.chartab", "klingen.cli", "klingen.groupfq"} <= set(modules)
    lines = _numpy_modules_after(["import importlib",
                                  f"for name in {modules!r}:",
                                  "    importlib.import_module(name)"])
    assert lines == ["[]"], lines


CENSUS_COMMANDS = [
    ["dim", "--q", "3", "--n", "9", "--sigma", "typeII", "-o", "json"],
    ["table", "--q", "2,3,4,5,7,8,9", "--n", "0..40", "--sigma", "typeI"],
    ["enumerate", "--q", "5", "--n", "12", "-o", "json"],
    ["verify", "counts", "--q", "2,3,5,7", "--n-max", "12"],
    ["verify", "theorem", "--q", "2,3,4,5,7,8,9"],
]


def test_census_commands_run_without_numpy():
    # each command must run to exit 0, so a refusal cannot pass for a run
    lines = _numpy_modules_after(
        ["import io",
         "from klingen import cli",
         f"for argv in {CENSUS_COMMANDS!r}:",
         "    out, err = io.StringIO(), io.StringIO()",
         "    code = cli.main(argv, out, err)",
         "    assert code == 0 and out.getvalue(), (argv, code, err.getvalue())",
         "    print(argv[0], code)"]
    )
    assert lines == [f"{argv[0]} 0" for argv in CENSUS_COMMANDS] + ["[]"], lines
