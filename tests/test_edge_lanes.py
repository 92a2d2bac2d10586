"""What each rising edge saw, read off the end-of-cycle lanes one cycle later.

A trace takes the flop pins' view at each rising edge from the settled
lanes: a Q or a gate fed by held inputs shows at edge t its end-of-cycle
value of cycle t - 1, cycle 0 sees the power-up values, and gates fed by
an input that changes are settled again. Each case here drives one of
those paths and checks every figure against the cycle-by-cycle oracle in
``oracles.py``: per-net values, toggles, internal toggles, contention,
warnings and the per-cycle SE.
"""

from __future__ import annotations

import pytest

from scanforge.logic import X
from scanforge.netlist import parse_netlist, parse_patterns
from scanforge.protocol import CycleSim, Phase, run_scan_test, sim_functional
from scanforge.scan import verify_chain

from oracles import NaiveRun, naive_scan_test
from test_scan_engine import WalkCounter, assert_same_run, functional_oracle


# A gate reads input A beside the flop's Q and feeds the flop's DI, so a
# change of A reaches the flop in the cycle it is applied, not a cycle later.
GATED_DI = """module gated
input A B
output Q
gate g0 AND2 N A Q
gate g1 XOR2 D N B
gate g2 INV Y Q
dff f0 Q D
endmodule
"""

STIMULI = {
    "A changes every cycle": [{"A": t % 2, "B": 0} for t in range(6)],
    "A and B change, then hold": [{"A": 1, "B": 1}, {"A": 0}, {"B": 0}, {"A": 1}, {"B": 1}],
    "X comes and goes": [{"A": X, "B": 1}, {"A": 1}, {"B": X}, {"A": 0, "B": 0}, {"A": 1}],
    "one map, A held": [{"A": 1, "B": 0}],
}


@pytest.mark.parametrize("name", list(STIMULI))
@pytest.mark.parametrize("init", [None, {"f0": 0}, {"f0": 1}])
def test_a_gate_fed_by_a_changing_input_is_settled_again(name, init, monkeypatch):
    n = parse_netlist(GATED_DI)
    stimulus = STIMULI[name]
    walks = WalkCounter(monkeypatch)
    trace = sim_functional(n, stimulus, cycles=14, init=init)
    run, _ = functional_oracle(n, stimulus, 14, init)
    assert_same_run(trace, run)
    # the gates behind A are settled again only when A's lane changes
    cn = n.compiled
    resettles = [p for p in walks.programs if p is not cn.program and p is not cn.flop_cone]
    assert len(resettles) == (len(stimulus) > 1)


def test_a_hand_driven_run_settles_again_what_its_inputs_feed():
    n = parse_netlist(GATED_DI)
    stimulus = [{"A": 1, "B": 0}, {"A": 0, "B": 1}, {"A": 1, "B": 1}, {"A": X, "B": 0}]
    sim = CycleSim(n, init={"f0": 1})
    run = NaiveRun(n, {"f0": 1})
    for pi in stimulus * 3:
        sim.cycle(pi, Phase.FUNCTIONAL)
        run.cycle(pi, "functional")
    assert_same_run(sim.finish(), run)


# SE is a gate's output: EN XOR the second flop's Q, so the power-up
# enable follows f1's init, and it changes as f1 does.
GATED_ENABLE = """module gated_se
input SI EN
output Q1
gate ge XOR2 SE EN Q1
gate gi INV D0 Q0
scanff f0 {variant} Q0 D0 SI SE
scanff f1 {variant} Q1 D0 Q0 SE
endmodule
"""


@pytest.mark.parametrize("variant", ["MUX", "APPROX"])
@pytest.mark.parametrize("init", [{"f0": 0, "f1": 0}, {"f0": 1, "f1": 1}, {"f1": 0}, None])
@pytest.mark.parametrize("en", [0, 1, X])
def test_an_enable_driven_by_a_gate_is_seen_from_power_up(variant, init, en):
    n = parse_netlist(GATED_ENABLE.format(variant=variant))
    stimulus = [{"SI": 1, "EN": en}]
    trace = sim_functional(n, stimulus, cycles=12, init=init)
    run, se = functional_oracle(n, stimulus, 12, init)
    assert_same_run(trace, run)
    assert trace.se == se


# The approx cell's DI and SI fight when SE=1 and they differ. DI is a
# buffer of the cell's own Q, so with Q at 1 on power-up and SI at 0 the
# cell fights in cycle 0 only; after that it holds SI.
FIGHT_AT_POWER_UP = """module fight
input SI SE
output Q0
gate gd BUF D0 Q0
scanff f0 APPROX Q0 D0 SI SE
endmodule
"""


def test_an_approx_flop_fights_at_power_up(monkeypatch):
    n = parse_netlist(FIGHT_AT_POWER_UP)
    stimulus = [{"SI": 0, "SE": 1}]
    walks = WalkCounter(monkeypatch)
    trace = sim_functional(n, stimulus, cycles=8, init={"f0": 1})
    run, se = functional_oracle(n, stimulus, 8, {"f0": 1})
    assert_same_run(trace, run)
    assert trace.se == se
    assert trace.ff_contentions == {"f0": 1}
    # one step to the repeat, the program, and the power-up walk of the cone
    cn = n.compiled
    assert walks.programs[-2:] == [cn.program, cn.flop_cone]


# In a scan test the first edge sees SE=1 and the vector's first bit at
# the chain input; the head cell's DI, a gate of two inputs held at 1, is
# known at power-up although every flop powers up X.
HEAD_FIGHTS = """module head
input SI SE A B
output SO
gate gd AND2 D0 A B
gate gx XOR2 D1 Q0 A
scanff f0 APPROX Q0 D0 SI SE
scanff f1 APPROX Q1 D1 Q0 SE
gate gso BUF SO Q1
endmodule
"""


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("vectors", [["00", "11"], ["01", "10", "00"]])
def test_the_chain_head_fights_in_the_first_scan_cycle(pipelined, vectors):
    n = parse_netlist(HEAD_FIGHTS)
    plan = verify_chain(n)
    trace, responses = run_scan_test(
        n, parse_patterns("\n".join(vectors) + "\n", 2), pipelined=pipelined,
        pi_defaults={"A": 1, "B": 1},
    )
    run, want = naive_scan_test(
        n, 2, plan.chain_in, plan.enable, plan.chain_out, vectors, pipelined, {"A": 1, "B": 1},
    )
    assert responses == want
    assert_same_run(trace, run)
    assert trace.se == [r[plan.enable] for r in run.records]
    # the first vector's first bit is 0 and the head's DI is 1 from the start
    assert trace.ff_contentions["f0"] >= 1


# A toggle flop and a shift pair: the edge from a known init value to a
# different first latched Q is an internal toggle; an X init makes none.
INIT_RUN = """module init
input EN
output Q0 Q2
gate gt XOR2 D0 Q0 EN
dff f0 Q0 D0
dff f1 Q1 Q0
gate ga AND2 D2 Q1 EN
dff f2 Q2 D2
endmodule
"""


@pytest.mark.parametrize("init", [
    {"f0": 0, "f1": 0, "f2": 0},
    {"f0": 1, "f1": 0, "f2": 1},
    {"f0": 1},
    {"f1": 1, "f2": X},
])
@pytest.mark.parametrize("en", [0, 1, X])
def test_a_run_with_init_counts_the_power_up_edge(init, en):
    n = parse_netlist(INIT_RUN)
    trace = sim_functional(n, [{"EN": en}], cycles=10, init=init)
    run, _ = functional_oracle(n, [{"EN": en}], 10, init)
    assert_same_run(trace, run)
