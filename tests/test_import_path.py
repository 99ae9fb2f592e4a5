"""What a benchmark world imports and defines before its first event.

`perfbench/child.py` imports harness, simcore and world, and every module
those import is compiled and run again in each fresh process. The presets,
the command line and the process pool stay out of that path. Config sections
and records are plain classes on `config.Record`, not dataclasses, so a world
loads none of the modules a dataclass needs (dataclasses, inspect, ast, dis,
tokenize and more) and compiles no method at import: the traced bytes still
held once the simulator is imported fell from 1.666 to 0.704 MB (Python 3.11.7).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from murbsim.app import OpType

SRC = Path(__file__).resolve().parent.parent / "src"

CODE_GENERATION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _run(code: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_child_imports_no_cli_and_no_pool():
    code = ("import sys\n"
            "from murbsim import harness\n"
            "from murbsim.simcore import EventLoop\n"
            "from murbsim.world import World\n"
            "print(' '.join(m for m in ('murbsim.cli', 'concurrent.futures')"
            " if m in sys.modules))\n")
    assert _run(code).split() == []


def test_world_process_loads_no_code_generation_modules(tmp_path):
    """Parse, build, run and export a small world with a fault and a scripted
    microreboot, as the benchmark child does, and list what got loaded."""
    code = ("import sys\n"
            "from murbsim import harness\n"
            "from murbsim.simcore import EventLoop\n"
            "from murbsim.world import World\n"
            "scenario = harness.parse_scenario('[scenario]\\nduration_ms 5000\\n"
            "[workload]\\nclients_per_node 20\\n"
            "[fault]\\nat 1000\\nclass transient_exception\\ntarget ViewItem\\n"
            "[murb]\\nat 3000\\ntarget Item\\n')\n"
            "world = World(scenario)\n"
            "world.run()\n"
            "harness.write_outputs(world, sys.argv[1])\n"
            f"print(' '.join(m for m in {CODE_GENERATION_MODULES!r} if m in sys.modules))\n")
    assert _run(code, str(tmp_path)).split() == []
    assert (tmp_path / "summary.json").is_file()


def test_import_bytes_are_bounded():
    """What scripts/world_memory.py reports as `import_mb`."""
    code = ("import argparse, hashlib, json, os, resource, statistics, sys, time, tracemalloc\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "tracemalloc.start()\n"
            "from murbsim import harness\n"
            "from murbsim.simcore import EventLoop\n"
            "from murbsim.world import World\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    # measured 703,700 B on Python 3.11.7, and 1,666,000 B with the config
    # sections and records as dataclasses
    assert int(_run(code, str(SRC))) <= 703_700 * 1.05


def test_no_dataclass_and_optype_has_slots():
    found = []
    for path in sorted((SRC / "murbsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: from {node.module}"] if node.module == "dataclasses" else []
            elif isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name == "dataclasses"]
            elif isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{node.name}" for d in node.decorator_list
                          if "dataclass" in ast.unparse(d)]
    assert found == []
    # the world reads an op's fields about nine times a request, and a slot
    # loads faster than a dataclass's instance dict entry or a NamedTuple field
    assert "__slots__" in vars(OpType)
