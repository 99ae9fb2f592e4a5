"""The scripts under `scripts/` still run against the simulator's API."""

import subprocess
import sys
from pathlib import Path

from murbsim.runtime import Registry, load_catalog

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_recovery_cost_sweep_microreboots_every_group_once():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "recovery_cost_sweep.py"),
                           "--clients", "5"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["target", "window_ms", "failed_requests"]
    registry = Registry(*load_catalog())
    groups = {registry.groups[name].members for name in registry.specs}
    assert len(rows) == len(groups)
    assert rows[0].split()[0] == registry.web_component
    assert all(int(window) > 0 and int(failed) >= 0
               for _, window, failed in (row.split() for row in rows))
