"""What a benchmark world imports and defines before its first event.

`perfbench/child.py` imports harness, simcore and world, and every module
those import is compiled and run again in each fresh process. The presets,
the command line and the process pool stay out of that path, and a record
that nothing mutates is a NamedTuple, which defines about ten times faster
than a frozen dataclass.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The one frozen dataclass kept: the world reads an op's fields about nine
# times per request, and an attribute load costs more on a NamedTuple.
FROZEN_DATACLASSES_KEPT = ["app.py:OpType"]


def test_benchmark_child_imports_no_cli_and_no_pool():
    code = ("import sys\n"
            "from murbsim import harness\n"
            "from murbsim.simcore import EventLoop\n"
            "from murbsim.world import World\n"
            "print(' '.join(m for m in ('murbsim.cli', 'concurrent.futures')"
            " if m in sys.modules))\n")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _is_frozen_dataclass(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and getattr(decorator.func, "id", "") == "dataclass" \
        and any(k.arg == "frozen" and getattr(k.value, "value", False) is True
                for k in decorator.keywords)


def test_no_frozen_dataclass_but_optype():
    found = [f"{path.name}:{node.name}"
             for path in sorted((SRC / "murbsim").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(_is_frozen_dataclass(d) for d in node.decorator_list)]
    assert found == FROZEN_DATACLASSES_KEPT
