"""Every top-level function, class and constant of ``src/dpcheck`` has a use
in ``src/dpcheck`` outside its own definition.

A name that only tests use is a second implementation or a lemma check;
it belongs in ``tests/oracles.py``.  A use is a ``Name`` or an
``Attribute`` node; import statements and the re-exports of
``__init__.py`` do not count.  Importing the command line also leaves
``scipy.stats`` unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dpcheck"


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(stmt: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_top_level_names() -> list[str]:
    """``module.name`` for each top-level name with no use elsewhere in src."""
    statements = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    return [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if not any(name in used for j, used in enumerate(uses) if j != i)
    ]


def test_every_top_level_name_is_used_in_src():
    unused = unused_top_level_names()
    assert not unused, "no use in src/dpcheck: " + ", ".join(unused)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs more import time and memory than the rest of
    # the command line; the library needs only scipy.special
    probe = "import sys, dpcheck.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
