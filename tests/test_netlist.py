from __future__ import annotations

import itertools
import random
import re

import pytest

from scanforge import netlist as netlist_module
from scanforge.cells import FFVariant, GateType, Mode, Stage
from scanforge.netlist import (
    CombinationalCycleError,
    Dff,
    DuplicateInstanceError,
    Gate,
    MultiplyDrivenNetError,
    Netlist,
    NetlistSyntaxError,
    PatternSyntaxError,
    PatternWidthError,
    ScanFF,
    UndrivenNetError,
    load_netlist,
    load_patterns,
    parse_netlist,
    parse_patterns,
    serialize_netlist,
)
from scanforge.protocol import CycleSim, run_scan_test, sim_functional
from scanforge.sta import analyze_timing
from oracles import naive_check, random_netlist

MINIMAL = "module m\ninput a\noutput y\ngate g1 INV y a\nendmodule\n"


def test_minimal_module():
    n = parse_netlist(MINIMAL)
    assert n.name == "m"
    assert n.inputs == ("a",)
    assert n.outputs == ("y",)
    assert len(n.instances) == 1
    g = n.instances[0]
    assert isinstance(g, Gate)
    assert g.gtype is GateType.INV
    assert g.out == "y" and g.ins == ("a",)


def test_declaration_order_preserved():
    text = (
        "module m\ninput a\noutput q2 q1\n"
        "dff fb q2 q1\n"
        "dff fa q1 a\n"
        "endmodule\n"
    )
    n = parse_netlist(text)
    assert [f.id for f in n.flops] == ["fb", "fa"]


def test_comments_and_blank_lines():
    text = "# header\nmodule m # trailing\n\ninput a\noutput y\ngate g1 BUF y a\nendmodule\n"
    n = parse_netlist(text)
    assert n.name == "m"


def test_multiply_driven_net_rejected():
    text = (
        "module m\ninput a\noutput y\n"
        "gate g1 INV y a\n"
        "gate g2 BUF y a\n"
        "endmodule\n"
    )
    with pytest.raises(MultiplyDrivenNetError):
        parse_netlist(text)


def test_duplicate_instance_id_rejected():
    text = (
        "module m\ninput a\noutput y z\n"
        "gate g1 INV y a\n"
        "gate g1 BUF z a\n"
        "endmodule\n"
    )
    with pytest.raises(DuplicateInstanceError):
        parse_netlist(text)


def test_undriven_net_rejected():
    with pytest.raises(UndrivenNetError):
        parse_netlist("module m\noutput y\ngate g1 INV y a\nendmodule\n")
    with pytest.raises(UndrivenNetError):
        parse_netlist("module m\ninput a\noutput y\nendmodule\n")


def test_combinational_cycle_rejected():
    text = (
        "module m\ninput a\noutput y\n"
        "gate g1 NAND2 n1 a n2\n"
        "gate g2 NAND2 n2 a n1\n"
        "gate g3 BUF y n1\n"
        "endmodule\n"
    )
    with pytest.raises(CombinationalCycleError):
        parse_netlist(text)


def inject_fault(rng: random.Random, n: Netlist) -> Netlist:
    """The netlist with one structural fault of a random kind put in."""
    inputs, outputs, instances = list(n.inputs), list(n.outputs), list(n.instances)
    k = rng.randrange(len(instances))
    inst = instances[k]
    kind = rng.choice(["id", "input", "driver", "read", "output", "cycle"])
    if kind == "id":
        instances[k] = inst._replace(id=rng.choice(instances).id)
    elif kind == "input":
        inputs.append(rng.choice(inputs))
    elif kind == "driver":
        net = rng.choice(inputs + [i.output_net for i in instances])
        instances[k] = inst._replace(out=net) if isinstance(inst, Gate) else inst._replace(q=net)
    elif kind == "read":
        fresh = f"U{rng.randrange(1000)}"
        if isinstance(inst, Gate):
            instances[k] = inst._replace(ins=(fresh,) + inst.ins[1:])
        else:
            pin = "di" if isinstance(inst, Dff) else rng.choice(["di", "si", "se"])
            instances[k] = inst._replace(**{pin: fresh})
    elif kind == "output":
        outputs.append(f"V{rng.randrange(1000)}")
    else:
        # a gate reads itself or a gate declared after it
        gates = [j for j, i in enumerate(instances) if isinstance(i, Gate)]
        first = rng.choice(gates)
        later = instances[rng.choice([j for j in gates if j >= first])]
        instances[first] = instances[first]._replace(ins=(later.out,) + instances[first].ins[1:])
    return Netlist(n.name, tuple(inputs), tuple(outputs), tuple(instances))


# what each structural message says, in the order the faults rank
FAULT_SHAPES = (
    "duplicate instance id",
    "declared input twice",
    "has more than one driver",
    "read by instance",
    "output net",
    "combinational cycle",
)


def test_compiling_raises_the_first_fault_as_the_oracle_finds_it():
    rng = random.Random(23)
    seen = set()
    for _ in range(600):
        n = random_netlist(rng, max_ffs=3, scan=rng.random() < 0.5)
        for _ in range(rng.randint(1, 2)):
            n = inject_fault(rng, n)
        want = naive_check(n)
        if want is None:
            n.compiled
            continue
        with pytest.raises(want[0]) as exc:
            n.compiled
        assert (type(exc.value), str(exc.value)) == want
        seen.update(shape for shape in FAULT_SHAPES if shape in want[1])
    assert seen == set(FAULT_SHAPES)


def test_a_netlist_built_in_code_is_checked_where_it_is_compiled():
    def two_drivers() -> Netlist:
        gates = (Gate("g1", GateType.INV, "y", ("a",)), Gate("g2", GateType.BUF, "y", ("a",)))
        return Netlist("m", ("a",), ("y",), gates)

    message = re.escape("net 'y' has more than one driver (instance 'g2')")
    with pytest.raises(MultiplyDrivenNetError, match=message):
        analyze_timing(two_drivers(), FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    with pytest.raises(MultiplyDrivenNetError, match=message):
        CycleSim(two_drivers(), None)


def test_cycle_through_flop_is_fine():
    text = "module m\noutput q\ngate g1 INV d q\ndff f1 q d\nendmodule\n"
    n = parse_netlist(text)
    assert len(n.flops) == 1


@pytest.mark.parametrize(
    "bad,line,column",
    [
        ("module m\ngadget g1 INV y a\nendmodule\n", 2, 1),
        ("module m\ninput a\ngate g1 FROB y a\nendmodule\n", 3, 9),
        ("module m\ninput a\ngate g1 INV y\nendmodule\n", 3, 1),
        ("module m\nscanff f1 MUXY q d s e\nendmodule\n", 2, 11),
        ("module m\ninput 9bad\nendmodule\n", 2, 7),
    ],
)
def test_syntax_errors_carry_position(bad, line, column):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(bad)
    assert exc.value.line == line
    assert exc.value.column == column
    assert f"line {line}, column {column}" in str(exc.value)


def test_missing_endmodule():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\ninput a\n")


def test_text_after_endmodule():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\nendmodule\nmodule n\nendmodule\n")


def test_clk_is_reserved():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\ninput CLK\nendmodule\n")
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\ninput a\ngate g1 BUF CLK a\nendmodule\n")


def test_gate_arity_enforced():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\ninput a b\ngate g1 INV y a b\nendmodule\n")
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("module m\ninput a\ngate g1 NAND2 y a\nendmodule\n")


def test_empty_module_round_trip():
    n = parse_netlist("module m\nendmodule\n")
    assert serialize_netlist(n) == "module m\nendmodule\n"


def test_scanff_line_parses_all_variants():
    for name in ("MUX", "GDI", "APPROX", "mux"):
        text = (
            "module m\ninput d s e\noutput q\n"
            f"scanff f1 {name} q d s e\nendmodule\n"
        )
        f = parse_netlist(text).flops[0]
        assert isinstance(f, ScanFF)
        assert f.variant is FFVariant(name.lower())


def test_parse_serialize_identity_on_fixture(chain10_path):
    n = load_netlist(chain10_path)
    assert len(n.flops) == 10
    text = serialize_netlist(n)
    again = parse_netlist(text)
    assert again == n
    # serializer output is already normalized: one more pass is byte-identical
    assert serialize_netlist(again) == text


@pytest.mark.parametrize("seed", range(25))
def test_parse_serialize_identity_randomized(seed):
    rng = random.Random(1000 + seed)
    n = random_netlist(rng, scan=rng.random() < 0.5, min_ffs=1)
    n.compiled
    assert parse_netlist(serialize_netlist(n)) == n


def test_topological_order_is_valid():
    rng = random.Random(7)
    for _ in range(20):
        net = random_netlist(rng)
        seen: set[str] = set(net.inputs) | {f.q for f in net.flops}
        for g in net.comb_order():
            assert all(i in seen for i in g.ins)
            seen.add(g.out)



def test_one_sort_serves_timing_and_simulation(monkeypatch, chain10_path, chain10_patterns_path):
    # parsing compiles (that is the structural check); nothing compiles again
    builds = []
    real = netlist_module.CompiledNetlist
    monkeypatch.setattr(netlist_module, "CompiledNetlist", lambda m: builds.append(m) or real(m))
    n = load_netlist(str(chain10_path))
    for variant, stage, mode in itertools.product(FFVariant, Stage, Mode):
        analyze_timing(n, variant, stage, mode)
    run_scan_test(n, load_patterns(str(chain10_patterns_path), 10))
    sim_functional(n, [{"A": 0, "SI": 0, "SE": 0}], cycles=8, init=None)
    assert len(builds) == 1 and builds[0] is n
    assert n.comb_order() is n.compiled.gates


def test_patterns_basic():
    ps = parse_patterns("101\n", 3)
    assert ps.chain_length == 3
    assert ps.vectors == ("101",)
    assert ps.expected == (None,)


def test_patterns_with_expected_and_comments():
    text = "# two vectors\n101 -> 110\n000\n"
    ps = parse_patterns(text, 3)
    assert ps.vectors == ("101", "000")
    assert ps.expected == ("110", None)


def test_patterns_width_mismatch():
    with pytest.raises(PatternWidthError):
        parse_patterns("10\n", 3)
    with pytest.raises(PatternWidthError):
        parse_patterns("101 -> 10\n", 3)


def test_patterns_illegal_character():
    with pytest.raises(PatternSyntaxError):
        parse_patterns("1a1\n", 3)


def test_patterns_fixture_scale(chain10_patterns_path):
    ps = parse_patterns(chain10_patterns_path.read_text(), 10)
    assert len(ps.vectors) == 4
    assert all(len(v) == 10 for v in ps.vectors)
