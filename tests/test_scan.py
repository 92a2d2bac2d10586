"""Scan insertion and chain recovery tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanforge.cells import FFVariant
from scanforge.netlist import (
    CompiledNetlist,
    Dff,
    Gate,
    GateType,
    Netlist,
    PatternSet,
    ScanFF,
    parse_netlist,
    serialize_netlist,
)
from scanforge.protocol import run_scan_test
from scanforge.scan import (
    BrokenChainError,
    MixedVariantError,
    MultipleChainsError,
    NameCollisionError,
    ScanChainPlan,
    ScanPlanError,
    default_plan,
    insert_scan,
    verify_chain,
)

from oracles import NaiveSim, naive_check, random_netlist

TWO_FF = """
module two
input A B
output Y
gate g1 AND2 N1 A B
dff f1 Q1 N1
gate g2 XOR2 N2 Q1 A
dff f2 Q2 N2
gate gy INV Y Q2
endmodule
"""


def test_insert_stitches_a_chain():
    n = parse_netlist(TWO_FF)
    plan = default_plan(n, FFVariant.MUX)
    s = insert_scan(n, plan)

    assert s.inputs == ("A", "B", "SI", "SE")
    assert s.outputs == ("Y", "SO")
    ffs = {f.id: f for f in s.flops}
    assert all(isinstance(f, ScanFF) for f in ffs.values())
    assert ffs["f1"].si == "SI" and ffs["f2"].si == "Q1"
    assert ffs["f1"].se == ffs["f2"].se == "SE"
    # functional pins are untouched
    assert ffs["f1"].di == "N1" and ffs["f1"].q == "Q1"
    assert ffs["f2"].di == "N2" and ffs["f2"].q == "Q2"
    stitch = [g for g in s.gates if g.out == "SO"]
    assert len(stitch) == 1 and stitch[0].ins == ("Q2",)


def test_insert_output_reparses():
    n = parse_netlist(TWO_FF)
    s = insert_scan(n, default_plan(n, FFVariant.GDI))
    assert parse_netlist(serialize_netlist(s)) == s


def test_verify_round_trips_the_plan():
    n = parse_netlist(TWO_FF)
    for variant in FFVariant:
        plan = default_plan(n, variant)
        assert verify_chain(insert_scan(n, plan)) == plan


def test_verify_round_trips_shuffled_orders():
    rng = random.Random(404)
    for k in range(40):
        n = random_netlist(rng, max_gates=10, max_ffs=4, min_ffs=1)
        order = [f.id for f in n.flops]
        rng.shuffle(order)
        plan = ScanChainPlan(
            variant=rng.choice(list(FFVariant)), order=tuple(order)
        )
        assert verify_chain(insert_scan(n, plan)) == plan


def test_inserted_netlist_is_functionally_identical_with_se_low():
    rng = random.Random(929)
    variants = list(FFVariant)
    for k in range(30):
        n = random_netlist(rng, max_gates=10, max_ffs=4, min_ffs=1)
        plan = default_plan(n, variants[k % 3])
        s = insert_scan(n, plan)
        sim_a = NaiveSim(n)
        sim_b = NaiveSim(s)
        for _ in range(100):
            pi = {name: rng.randint(0, 1) for name in n.inputs}
            got_a = sim_a.cycle(pi)
            got_b = sim_b.cycle({**pi, plan.chain_in: 0, plan.enable: 0})
            for net in n.outputs:
                assert got_a[net] == got_b[net]
            assert sim_a.q == {f: sim_b.q[f] for f in sim_a.q}


def _variant_design(rng: random.Random, shape: str) -> Netlist:
    """A random plain-flop design, changed as ``shape`` names."""
    n = random_netlist(rng, max_gates=10, max_ffs=5, min_ffs=1)
    inputs, outputs, instances = n.inputs, n.outputs, n.instances
    if shape == "no_gates":
        flops = [f for f in instances if isinstance(f, Dff)]
        qs = [f.q for f in flops]
        instances = tuple(f._replace(di=rng.choice([*inputs, *qs])) for f in flops)
        outputs = (rng.choice(qs),)
    elif shape == "taken_ports":
        # SI, SE, SO and SO_1 are taken, so the plan's ports are bumped
        inputs += ("SI", "SE")
        instances += (
            Gate("gso", GateType.BUF, "SO", ("SI",)),
            Gate("gso1", GateType.INV, "SO_1", ("SE",)),
        )
        outputs += ("SO",)
    elif shape == "taken_u_so":
        # u_so and u_so_1 are taken, so the stitch buffer is u_so_2
        gates = [i for i, inst in enumerate(instances) if isinstance(inst, Gate)]
        renamed = list(instances)
        for i, name in zip(rng.sample(gates, min(2, len(gates))), ("u_so", "u_so_1")):
            renamed[i] = renamed[i]._replace(id=name)
        instances = tuple(renamed)
    return Netlist(n.name, inputs, outputs, instances)


@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["plain", "no_gates", "taken_ports", "taken_u_so"]),
    st.sampled_from(list(FFVariant)),
)
def test_inserted_compiled_form_equals_a_fresh_compile(rng, shape, variant):
    n = _variant_design(rng, shape)
    plan = default_plan(n, variant)
    order = list(plan.order)
    rng.shuffle(order)
    plan = plan._replace(order=tuple(order))
    scanned = insert_scan(n, plan)
    assert naive_check(scanned) is None
    derived = scanned.compiled
    fresh = CompiledNetlist(scanned)
    assert vars(derived) == vars(fresh)  # every field: nets, ids, program, ff arrays, ...
    assert derived.gates[derived.sources - 1].out == plan.chain_out
    if shape == "taken_u_so" and len(n.gates) > 1:
        assert derived.gates[derived.sources - 1].id == "u_so_2"

    # a twin netlist compiles its own form from scratch; both run alike
    twin = Netlist(scanned.name, scanned.inputs, scanned.outputs, scanned.instances)
    length = len(plan.order)
    vectors = tuple("".join(rng.choice("01") for _ in range(length)) for _ in range(2))
    patterns = PatternSet(length, vectors, (None, None))
    for pipelined in (False, True):
        assert run_scan_test(scanned, patterns, pipelined=pipelined) == run_scan_test(
            twin, patterns, pipelined=pipelined
        )


def test_default_plan_bumps_colliding_port_names():
    n = parse_netlist(
        """
module clash
input A SI SI_1 SE
output SO
dff f1 Q1 A
gate gy BUF SO Q1
endmodule
"""
    )
    plan = default_plan(n, FFVariant.MUX)
    assert plan.chain_in == "SI_2"
    assert plan.chain_out == "SO_1"
    assert plan.enable == "SE_1"
    s = insert_scan(n, plan)
    assert verify_chain(s).chain_in == "SI_2"


def test_insert_rejects_bad_plans():
    n = parse_netlist(TWO_FF)
    good = default_plan(n, FFVariant.MUX)

    with pytest.raises(ScanPlanError):
        insert_scan(n, ScanChainPlan(FFVariant.MUX, ("f1",)))
    with pytest.raises(ScanPlanError):
        insert_scan(n, ScanChainPlan(FFVariant.MUX, ("f1", "f2", "f3")))
    with pytest.raises(ScanPlanError):
        insert_scan(n, ScanChainPlan(FFVariant.MUX, ("f1", "f1")))
    with pytest.raises(ScanPlanError):
        insert_scan(insert_scan(n, good), good)

    gates_only = parse_netlist("module g\ninput A\noutput Y\ngate g1 INV Y A\nendmodule\n")
    with pytest.raises(ScanPlanError):
        insert_scan(gates_only, ScanChainPlan(FFVariant.MUX, ()))


@pytest.mark.parametrize(
    "chain_in, chain_out, enable",
    [
        ("A", "SO", "SE"),  # collides with an existing net
        ("Q1", "SO", "SE"),
        ("SI", "SI", "SE"),  # ports must be distinct
        ("SI", "SO", "CLK"),  # the implicit clock is reserved
    ],
)
def test_insert_rejects_port_collisions(chain_in, chain_out, enable):
    n = parse_netlist(TWO_FF)
    plan = ScanChainPlan(
        FFVariant.MUX, ("f1", "f2"), chain_in=chain_in, chain_out=chain_out, enable=enable
    )
    with pytest.raises(NameCollisionError):
        insert_scan(n, plan)


@pytest.mark.parametrize("port", ["chain_in", "chain_out", "enable"])
@pytest.mark.parametrize("name", ["a b", "#x", "", "1x", "a,b"])
def test_insert_rejects_a_port_name_the_parser_would_refuse(port, name):
    n = parse_netlist(TWO_FF)
    plan = default_plan(n, FFVariant.MUX)._replace(**{port: name})
    with pytest.raises(ScanPlanError, match=f"chain port name {name!r} is not"):
        insert_scan(n, plan)


def _verify_text(text):
    return verify_chain(parse_netlist(text))


def test_verify_accepts_q_as_chain_output():
    plan = _verify_text(
        """
module direct
input A SI SE
output Q2
scanff f1 MUX Q1 A SI SE
scanff f2 MUX Q2 Q1 Q1 SE
endmodule
"""
    )
    assert plan.order == ("f1", "f2")
    assert plan.chain_out == "Q2"


def test_verify_rejects_plain_netlist():
    with pytest.raises(BrokenChainError):
        _verify_text(TWO_FF)


def test_verify_rejects_mixed_variants():
    with pytest.raises(MixedVariantError):
        _verify_text(
            """
module mixed
input A SI SE
output Q2
scanff f1 MUX Q1 A SI SE
scanff f2 GDI Q2 Q1 Q1 SE
endmodule
"""
        )


def test_verify_rejects_split_enables():
    with pytest.raises(BrokenChainError):
        _verify_text(
            """
module enables
input A SI SE SE2
output Q2
scanff f1 MUX Q1 A SI SE
scanff f2 MUX Q2 Q1 Q1 SE2
endmodule
"""
        )


def test_verify_rejects_derived_enable():
    with pytest.raises(BrokenChainError):
        _verify_text(
            """
module degate
input A SI
output Q1
gate ge BUF SEN A
scanff f1 MUX Q1 A SI SEN
endmodule
"""
        )


def test_verify_rejects_two_heads():
    with pytest.raises(MultipleChainsError):
        _verify_text(
            """
module heads
input A SI SI2 SE
output Q1 Q2
scanff f1 MUX Q1 A SI SE
scanff f2 MUX Q2 A SI2 SE
endmodule
"""
        )


def test_verify_rejects_scan_path_cycle():
    with pytest.raises(BrokenChainError):
        _verify_text(
            """
module loop
input A SE
output Q1
scanff f1 MUX Q1 A Q2 SE
scanff f2 MUX Q2 A Q1 SE
endmodule
"""
        )


def test_verify_rejects_forked_chain():
    with pytest.raises(MultipleChainsError):
        _verify_text(
            """
module fork
input A SI SE
output Q2 Q3
scanff f1 MUX Q1 A SI SE
scanff f2 MUX Q2 A Q1 SE
scanff f3 MUX Q3 A Q1 SE
endmodule
"""
        )


def test_verify_rejects_unreached_flops():
    with pytest.raises(BrokenChainError):
        _verify_text(
            """
module island
input A SI SE
output Q1 Q2
scanff f1 MUX Q1 A SI SE
scanff f2 MUX Q2 A Q2 SE
endmodule
"""
        )


def test_verify_rejects_hidden_chain_output():
    with pytest.raises(BrokenChainError):
        _verify_text(
            """
module hidden
input A SI SE
output Y
scanff f1 MUX Q1 A SI SE
gate gy INV Y Q1
endmodule
"""
        )
