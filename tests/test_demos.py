"""Every script under ``demos/`` runs to completion against the library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Lines each demo must print, as (start, end) pairs.
EXPECTED = {
    "compare_variants.py": [],
    "insert_and_test.py": [],
    "switch_level_validation.py": [
        (f"{variant:6}:", " 0 mismatches")
        for variant in ("mux", "gdi", "approx")
    ],
}


def test_every_demo_is_run():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path("demos") / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for start, end in EXPECTED[name]:
        assert any(line.startswith(start) and line.endswith(end) for line in lines), start
