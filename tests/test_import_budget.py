"""Import budget: a process that runs one subcommand loads only its modules.

Each case calls ``scanforge.cli.main`` in a fresh interpreter and compares
the ``scanforge.*`` modules then in ``sys.modules`` with the set that
subcommand needs; ``import scanforge`` alone loads no submodule. The lazy
package attributes must still list and resolve every public name, and every
public name must have a reader outside the tests.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scanforge

SRC = Path(scanforge.__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
CHAIN10 = str(FIXTURES / "chain10.snl")
PATTERNS = str(FIXTURES / "chain10.pat")
PLAIN = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"

FRONT = {"cli", "cells", "errors", "reports"}
SIM = {"netlist", "scan", "protocol", "logic"}

BUDGETS = [
    ("insert", ["insert", "{plain}"], FRONT | {"netlist", "scan"}),
    ("sta", ["sta", CHAIN10], FRONT | {"netlist", "sta"}),
    ("compare", ["compare", CHAIN10], FRONT | {"netlist", "sta", "power"}),
    ("compare-fixture", ["compare"], FRONT | {"netlist", "sta", "power"}),
    ("sim", ["sim", CHAIN10], FRONT | SIM),
    ("sim-vcd", ["sim", CHAIN10, "--vcd", "{tmp}/sim.vcd"], FRONT | SIM | {"vcd"}),
    ("scan-test", ["scan-test", CHAIN10, PATTERNS], FRONT | SIM),
    ("power", ["power", CHAIN10], FRONT | SIM | {"power"}),
    ("power-patterns", ["power", CHAIN10, PATTERNS], FRONT | SIM | {"power"}),
    ("switchsim", ["switchsim", "approx_sff.tnl", "--check-behavioral", "--vectors", "4"],
     FRONT | {"switchsim", "ffmodel", "logic"}),
]

# prints [exit code or null, the scanforge submodules loaded]
_PROBE = """
import json, sys
import scanforge
code = None
if sys.argv[1:]:
    from scanforge import cli
    code = cli.main(sys.argv[1:])
loaded = [m.partition(".")[2] for m in sys.modules if m.startswith("scanforge.")]
print(json.dumps([code, sorted(loaded)]))
"""


def loaded_after(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules it loaded."""
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60, check=True,
    )
    code, modules = json.loads(res.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv,budget", [b[1:] for b in BUDGETS], ids=[b[0] for b in BUDGETS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, budget):
    plain = tmp_path / "plain.snl"
    plain.write_text(PLAIN, encoding="utf-8")
    argv = [a.format(plain=plain, tmp=tmp_path) for a in argv]
    code, loaded = loaded_after([*argv, "-o", str(tmp_path / "report.json")])
    assert code == 0
    assert loaded == budget


def test_import_scanforge_loads_no_submodule():
    assert loaded_after([]) == (None, set())


def test_every_public_name_resolves_to_its_home_object():
    assert set(scanforge.__all__) <= set(dir(scanforge))
    for name in scanforge.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"scanforge.{scanforge._HOME[name]}")
        assert getattr(scanforge, name) is getattr(home, name), name


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from scanforge import *", namespace)
    assert set(scanforge.__all__) <= set(namespace)
    assert namespace["check_behavioral"] is scanforge.switchsim.check_behavioral
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        scanforge.no_such_name
    with pytest.raises(ImportError):
        exec("from scanforge import no_such_name", {})


# Public names kept without a reader outside the tests, each with its reason.
KEEP = {
    "weighted_transition_count": "the reference of ACCEPTANCE's shift-power check",
}


def _reads(tree: ast.AST, name: str) -> int:
    """Loads, attribute reads and imports of ``name`` in one module.

    Annotations do not count, nor does anything inside the definition of
    ``name`` itself, so a name read only by its own body or in another
    signature has no reader.
    """
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                continue
        if isinstance(node, ast.Name):
            count += node.id == name and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute):
            count += node.attr == name and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.alias):
            count += node.name == name
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            children = value if isinstance(value, list) else [value]
            stack.extend(c for c in children if isinstance(c, ast.AST))
    return count


def _reader_sources() -> list[Path]:
    """The package's modules but ``__init__``, the demos, and the benchmark."""
    root = Path(__file__).resolve().parent.parent
    package = [p for p in (SRC / "scanforge").glob("*.py") if p.name != "__init__.py"]
    scripts = [*(root / "demos").rglob("*.py"), *(root / "bench").rglob("*.py")]
    return package + [p for p in scripts if "tests" not in p.relative_to(root).parts]


def test_every_public_name_has_a_reader_outside_the_tests():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in _reader_sources()]
    unread = sorted(
        name for name in scanforge._HOME
        if name not in KEEP and not any(_reads(tree, name) for tree in trees)
    )
    assert unread == []
    assert set(KEEP) <= set(scanforge._HOME)
