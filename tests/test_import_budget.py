"""Import budget: a process that runs one subcommand loads only its modules.

Each case calls ``scanforge.cli.main`` in a fresh interpreter and compares
the ``scanforge.*`` modules then in ``sys.modules`` with the set that
subcommand needs, and checks that it loaded neither ``dataclasses`` nor
``inspect``; ``import scanforge`` alone loads no submodule. The lazy
package attributes must still list and resolve every public name; every
public name, public module-level function and public method or property of
an exported class must have a reader outside the tests, and every optional
parameter of the public API a caller outside the tests that passes it and
one that leaves it out.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

import pytest

import scanforge

SRC = Path(scanforge.__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
CHAIN10 = str(FIXTURES / "chain10.snl")
PATTERNS = str(FIXTURES / "chain10.pat")
PLAIN = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"

# Every subcommand names variants and stages through ``kinds``; only the
# ones that price cells (sta, power, compare) load the data in ``cells``.
FRONT = {"cli", "kinds", "errors", "reports"}
SIM = {"netlist", "protocol", "logic"}

BUDGETS = [
    ("insert", ["insert", "{plain}"], FRONT | {"netlist", "scan"}),
    ("sta", ["sta", CHAIN10], FRONT | {"cells", "netlist", "sta"}),
    ("compare", ["compare", CHAIN10], FRONT | {"cells", "netlist", "sta", "power"}),
    ("compare-fixture", ["compare"], FRONT | {"cells", "netlist", "sta", "power"}),
    ("sim", ["sim", CHAIN10], FRONT | SIM),
    ("sim-vcd", ["sim", CHAIN10, "--vcd", "{tmp}/sim.vcd"], FRONT | SIM | {"vcd"}),
    ("scan-test", ["scan-test", CHAIN10, PATTERNS], FRONT | SIM | {"scan"}),
    ("power", ["power", CHAIN10], FRONT | SIM | {"cells", "power"}),
    ("power-patterns", ["power", CHAIN10, PATTERNS], FRONT | SIM | {"cells", "power", "scan"}),
    ("switchsim", ["switchsim", "approx_sff.tnl", "--check-behavioral", "--vectors", "4"],
     FRONT | {"switchsim", "ffmodel", "logic"}),
]

# Standard modules no subcommand needs: ``dataclasses`` imports ``inspect``,
# and ``inspect`` imports ``ast``, ``dis`` and ``tokenize``, all compiled
# again at every start-up.
HEAVY = ("dataclasses", "inspect")

# prints [exit code or null, the scanforge submodules loaded, the HEAVY
# modules loaded after interpreter start-up]
_PROBE = f"""
import sys
heavy = [m for m in {HEAVY!r} if m not in sys.modules]
import json
import scanforge
code = None
if sys.argv[1:]:
    from scanforge import cli
    code = cli.main(sys.argv[1:])
loaded = [m.partition(".")[2] for m in sys.modules if m.startswith("scanforge.")]
print(json.dumps([code, sorted(loaded), [m for m in heavy if m in sys.modules]]))
"""


def loaded_after(argv: list[str]) -> tuple[int, set[str], list[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, the scanforge
    modules it loaded, and the ``HEAVY`` ones it loaded."""
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60, check=True,
    )
    code, modules, heavy = json.loads(res.stdout.splitlines()[-1])
    return code, set(modules), heavy


@pytest.mark.parametrize("argv,budget", [b[1:] for b in BUDGETS], ids=[b[0] for b in BUDGETS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, budget):
    plain = tmp_path / "plain.snl"
    plain.write_text(PLAIN, encoding="utf-8")
    argv = [a.format(plain=plain, tmp=tmp_path) for a in argv]
    code, loaded, heavy = loaded_after([*argv, "-o", str(tmp_path / "report.json")])
    assert code == 0
    assert loaded == budget
    assert heavy == []


def test_import_scanforge_loads_no_submodule():
    assert loaded_after([]) == (None, set(), [])


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "scanforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in HEAVY for n in names), (path.name, names)


def test_cells_re_exports_the_enums_of_kinds():
    cells = importlib.import_module("scanforge.cells")
    kinds = importlib.import_module("scanforge.kinds")
    for name in ("FFVariant", "Stage", "Mode", "GateType"):
        assert getattr(cells, name) is getattr(kinds, name) is getattr(scanforge, name)


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


# Public names ("name", "module.function" or "Class.method") kept without a
# reader outside the tests, each with its reason.
KEEP = {
    "weighted_transition_count": "the reference of ACCEPTANCE's shift-power check",
    "Netlist.comb_order": "bench/tracer.py times it by name and bench/tests read it until "
    "Benchmark v2",
    "ModeTiming.inconsistent": "flags the characterized rows whose printed t_pd disagrees with "
    "t_su + t_cq, so downstream consumers can decide which figure to trust",
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


def _public_defs() -> dict[str, str]:
    """The package's public module-level functions that it does not export,
    and the public methods and properties of its exported classes, each
    keyed "module.function" or "Class.method" and mapped to the name a
    reader spells."""
    found = {}
    for path in sorted((SRC / "scanforge").glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            exported = scanforge._HOME.get(getattr(node, "name", None)) == module
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_") and not exported:
                    found[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and exported:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        found[f"{node.name}.{fn.name}"] = fn.name
    return found


def test_every_public_name_has_a_reader_outside_the_tests():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in _reader_sources()]
    spelled = {name: name for name in scanforge._HOME} | _public_defs()
    unread = sorted(
        key for key, name in spelled.items()
        if key not in KEEP and not any(_reads(tree, name) for tree in trees)
    )
    assert unread == []
    assert set(KEEP) <= set(spelled)


# Optional parameters kept without a caller outside the tests that passes
# them, or without one that leaves them out, by "function.parameter", each
# with its reason.
KEEP_PARAMETERS: dict[str, str] = {}

# The hand-written ``def``s a call of the class itself runs
_CONSTRUCTORS = ("__init__", "__new__")


def _owner(cls: str, name: str) -> str:
    """How a parameter key names the ``def`` named ``name`` in class ``cls``
    ("" at module level): the function, the class for ``__init__`` and
    ``__new__``, else class.method."""
    if not cls:
        return name
    return cls if name in _CONSTRUCTORS else f"{cls}.{name}"


def _optional_parameters() -> dict[str, tuple[str, int]]:
    """Every optional parameter of the public API, by "owner.parameter".

    Each maps to the name a call spells (the function's, the class's for a
    hand-written ``__init__``, the method's) and the parameter's position
    among the call's arguments, or -1 when it is keyword-only. Covered are
    the exported functions and each exported class's hand-written
    ``__init__`` and ``__new__`` and public methods; a named tuple's
    generated ``__new__`` has no ``def`` to find.
    """
    found: dict[str, tuple[str, int]] = {}

    def collect(owner: str, called: str, fn: ast.FunctionDef, bound: bool) -> None:
        args = fn.args
        positional = [*args.posonlyargs, *args.args][bound:]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            found[f"{owner}.{arg.arg}"] = (called, index)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{owner}.{arg.arg}"] = (called, -1)

    for module in set(scanforge._HOME.values()):
        tree = ast.parse((SRC / "scanforge" / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if scanforge._HOME.get(getattr(node, "name", None)) != module:
                continue
            if isinstance(node, ast.FunctionDef):
                collect(node.name, node.name, node, False)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    if fn.name in _CONSTRUCTORS:
                        collect(node.name, node.name, fn, True)
                    elif not fn.name.startswith("_"):
                        collect(_owner(node.name, fn.name), fn.name, fn, not static)
    return found


def _calls() -> dict[str, list[tuple[ast.Call, str]]]:
    """Every call in the reader sources, by the name it spells, with the
    owner (as ``_optional_parameters`` names it) of the ``def`` it is in,
    or "" outside every ``def``."""
    calls: dict[str, list[tuple[ast.Call, str]]] = {}

    def visit(node: ast.AST, owner: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner, inner_cls = owner, ""
            if isinstance(child, ast.ClassDef):
                inner_cls = child.name
            elif isinstance(child, ast.FunctionDef) and not owner:
                inner = _owner(cls, child.name)
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append((child, owner))
            visit(child, inner, inner_cls)

    for path in _reader_sources():
        visit(ast.parse(path.read_text(encoding="utf-8")), "", "")
    return calls


def _passed(call: ast.Call, owner: str, parameter: str, index: int) -> Optional[str]:
    """What a call gives the parameter: None when it leaves it out, the key
    of the caller's own parameter when it hands that on by name, else ""."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return ""
    value = next((k.value for k in call.keywords if k.arg == parameter), None)
    if value is None and 0 <= index < len(call.args):
        value = call.args[index]
    if value is None:
        return None
    return f"{owner}.{value.id}" if owner and isinstance(value, ast.Name) else ""


def _closure(
    parameters: dict[str, tuple[str, int]],
    calls: dict[str, list[tuple[ast.Call, str]]],
    counts: Callable[[Optional[str]], bool],
) -> set[str]:
    """The parameters that some call gives what ``counts`` accepts.

    A call that hands on another optional parameter by name gives what
    that one is given: it counts once that parameter is in the set.
    """
    found: set[str] = set()
    while True:
        more = {
            key for key, (called, index) in parameters.items()
            if key not in found and any(
                given in found if given in parameters else counts(given)
                for given in (
                    _passed(call, owner, key.rpartition(".")[2], index)
                    for call, owner in calls.get(called, [])
                )
            )
        }
        if not more:
            return found
        found |= more


def test_every_optional_parameter_has_a_caller_outside_the_tests():
    # some caller passes it and some caller leaves it out: a default that
    # no caller outside the tests uses belongs to a required parameter
    parameters = _optional_parameters()
    calls = _calls()
    passed = _closure(parameters, calls, lambda given: given is not None)
    left_out = _closure(parameters, calls, lambda given: given is None)
    kept = set(parameters) - set(KEEP_PARAMETERS)
    assert sorted(kept - passed) == []
    assert sorted(kept - left_out) == []
    assert set(KEEP_PARAMETERS) <= set(parameters)
