"""INV and BUF outputs share their root's toggles.

An INV or BUF output flips in exactly the cycles its input flips, so a
trace counts the toggles of the nets at the heads of INV/BUF chains only
and copies each count and first toggle down the chain
(``CompiledNetlist.toggle_roots``). Each case here puts such chains where
a shortcut could go wrong: behind a primary input, an X-held input, a flop
Q, the SO buffer that scan insertion adds, and a net that never toggles.
The ``net_toggles`` of every run, keys, values and order, must equal the
cycle-by-cycle oracle's, and so must the power reports, which add their
energies in that order.
"""

from __future__ import annotations

import random

import pytest

from scanforge.kinds import FFVariant, GateType, Stage
from scanforge.logic import X
from scanforge.netlist import Gate, Netlist, parse_netlist, parse_patterns
from scanforge.power import estimate_power
from scanforge.protocol import CycleSim, Phase, run_scan_test, sim_functional
from scanforge.scan import default_plan, insert_scan, verify_chain

from oracles import NaiveRun, naive_scan_test, random_netlist
from test_scan_engine import assert_same_run, functional_oracle

# Every chain shape the table must resolve, around three flops:
# - INV of A and of B, where a scan test holds A at 0 and may hold B at X;
# - BUF of C, then INV -> INV behind it;
# - INV -> INV -> INV of Q1, and BUF -> INV -> BUF of Q2;
# - an INV, then a BUF, of Z0 = Q1 AND NOT Q1, which never toggles.
SHARE = """module share
input A B C
output Y Z W
gate ia INV NA A
gate ib INV NB B
gate ib2 INV NB2 NB
gate bc BUF BC C
gate c1 INV C1 BC
gate c2 INV C2 C1
gate p1 INV P1 Q1
gate p2 INV P2 P1
gate p3 INV P3 P2
gate r1 BUF R1 Q2
gate r2 INV R2 R1
gate r3 BUF R3 R2
gate nq INV NQ Q1
gate z0 AND2 Z0 Q1 NQ
gate k0 INV K0 Z0
gate y BUF Y K0
gate d1 XOR2 D1 P3 R3
gate d2 XOR2 D2 Q1 C2
gate d3 OR2 D3 NB2 R3
gate da NAND2 DA NA D3
gate z INV Z DA
gate w BUF W Q3
dff f1 Q1 D1
dff f2 Q2 D2
dff f3 Q3 D3
endmodule
"""

VECTORS = ["101", "011", "110", "000"]


def scanned(variant: FFVariant = FFVariant.APPROX) -> Netlist:
    n = parse_netlist(SHARE)
    return insert_scan(n, default_plan(n, variant))


def assert_same_power(trace, run: NaiveRun) -> None:
    """Each variant's report equals the one priced from the oracle's counts."""
    oracle = trace._replace(
        net_toggles=dict(run.net_toggles), ff_internal_toggles=dict(run.internal)
    )
    for variant in FFVariant:
        got = estimate_power(trace, variant, Stage.POST_LAYOUT, t_clk_ns=1.0)
        assert got == estimate_power(oracle, variant, Stage.POST_LAYOUT, t_clk_ns=1.0)


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("pi_defaults", [None, {"B": X}, {"A": 1, "B": X, "C": 1}])
@pytest.mark.parametrize("variant", list(FFVariant))
def test_scan_test_toggles_equal_the_oracle(pipelined, pi_defaults, variant):
    n = scanned(variant)
    plan = verify_chain(n)
    trace, responses = run_scan_test(
        n, parse_patterns("\n".join(VECTORS) + "\n", 3),
        pipelined=pipelined, pi_defaults=pi_defaults,
    )
    run, want = naive_scan_test(
        n, 3, plan.chain_in, plan.enable, plan.chain_out, VECTORS, pipelined, pi_defaults,
    )
    assert responses == want
    assert list(trace.net_toggles.items()) == list(run.net_toggles.items())
    # the SO buffer toggles with the last chain Q, and the never-toggling
    # chain not at all
    last_q = n.compiled.nets[n.compiled.ff_q[-1]]
    assert trace.net_toggles[plan.chain_out] == trace.net_toggles[last_q]
    assert not {"Z0", "K0", "Y"} & trace.net_toggles.keys()
    assert_same_run(trace, run)
    assert_same_power(trace, run)


STIMULI = {
    "inputs change every cycle": [
        {"A": t % 2, "B": t // 2 % 2, "C": t // 3 % 2} for t in range(9)
    ],
    "X comes and goes": [
        {"A": X, "B": 1, "C": 0}, {"A": 1}, {"B": X}, {"C": X}, {"A": 0, "B": 0, "C": 1},
        {"C": 0}, {"B": 1},
    ],
    "one map held": [{"A": 1, "B": 0, "C": 1}],
}


@pytest.mark.parametrize("name", list(STIMULI))
@pytest.mark.parametrize("init", [None, {"f1": 1, "f2": 0, "f3": 1}])
def test_functional_toggles_equal_the_oracle(name, init):
    n = parse_netlist(SHARE)
    stimulus = STIMULI[name]
    trace = sim_functional(n, stimulus, cycles=20, init=init)
    run, _ = functional_oracle(n, stimulus, 20, init)
    assert list(trace.net_toggles.items()) == list(run.net_toggles.items())
    assert_same_run(trace, run)
    assert_same_power(trace, run)


@pytest.mark.parametrize("seed", range(12))
def test_hand_driven_cyclesim_toggles_equal_the_oracle(seed):
    # SE changes too, so the scan cells shift and capture in turn
    rng = random.Random(seed)
    n = scanned()
    init = {f.id: rng.choice((0, 1, X)) for f in n.flops}
    sim = CycleSim(n, init=init)
    run = NaiveRun(n, init)
    for _ in range(rng.randint(1, 16)):
        pi = {net: X if rng.random() < 0.15 else rng.randint(0, 1) for net in n.inputs}
        sim.cycle(pi, Phase.FUNCTIONAL)
        run.cycle(pi, "functional")
    trace = sim.finish()
    assert list(trace.net_toggles.items()) == list(run.net_toggles.items())
    assert_same_run(trace, run)
    assert_same_power(trace, run)


def with_chains(n: Netlist, rng: random.Random) -> Netlist:
    """The netlist with INV/BUF chains of one to four links hung off random
    nets, each chain's gates declared in a random order."""
    nets = sorted(n.nets())
    gates = []
    for c in range(rng.randint(1, 4)):
        src = rng.choice(nets)
        for link in range(rng.randint(1, 4)):
            out = f"S{c}_{link}"
            gtype = rng.choice((GateType.INV, GateType.BUF))
            gates.append(Gate(f"s{c}_{link}", gtype, out, (src,)))
            src = out
    rng.shuffle(gates)
    return Netlist(n.name, n.inputs, n.outputs, n.instances + tuple(gates))


@pytest.mark.parametrize("seed", range(40))
def test_random_chains_equal_the_oracle(seed):
    rng = random.Random(70_000 + seed)
    n = with_chains(random_netlist(rng, max_gates=8, max_ffs=3, min_ffs=1), rng)
    stimulus = [
        {net: X if rng.random() < 0.1 else rng.randint(0, 1) for net in n.inputs}
        for _ in range(rng.randint(1, 12))
    ]
    trace = sim_functional(n, stimulus, cycles=16, init=None)
    run, _ = functional_oracle(n, stimulus, 16, None)
    assert list(trace.net_toggles.items()) == list(run.net_toggles.items())
    assert_same_power(trace, run)


# -- the table itself ----------------------------------------------------------


def head(n: Netlist, net: str) -> str:
    """The net at the head of the INV/BUF chain that ends at ``net``."""
    gates = {g.out: g for g in n.gates}
    while net in gates and gates[net].gtype in (GateType.INV, GateType.BUF):
        net = gates[net].ins[0]
    return net


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_each_inv_or_buf_output_shares_the_head_of_its_chain(seed):
    if seed is None:
        n = scanned()
    else:
        rng = random.Random(71_000 + seed)
        n = with_chains(random_netlist(rng, max_gates=10, max_ffs=3), rng)
    cn = n.compiled
    counted, shared = cn.toggle_roots
    one_input = {
        cn.index[g.out] for g in n.gates if g.gtype in (GateType.INV, GateType.BUF)
    }
    # every INV/BUF output once, with its chain's head, which is counted;
    # every other net counted directly, in id order
    assert sorted(i for i, _ in shared) == sorted(one_input)
    for i, root in shared:
        assert root not in one_input
        assert cn.nets[root] == head(n, cn.nets[i])
    assert list(counted) == sorted(set(range(len(cn.nets))) - one_input)


def test_the_table_is_built_on_first_use():
    n = parse_netlist(SHARE)
    # parsing compiles the netlist, and set-up pays nothing for the table
    assert "compiled" in vars(n)
    assert n.compiled._toggle_roots is None
    s = scanned()
    verify_chain(s)
    assert s.compiled._toggle_roots is None
    run_scan_test(s, parse_patterns("101\n", 3))
    assert s.compiled._toggle_roots is s.compiled.toggle_roots
