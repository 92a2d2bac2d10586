"""Scan test protocol tests.

Capture behavior is checked against a one-cycle fixpoint oracle (load the
chain state directly, step once, read the flops back in shift-out order), so
none of the shift machinery under test is reused by the expected values.
"""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path

import pytest

from scanforge.logic import X
from scanforge.netlist import (
    PatternSyntaxError,
    PatternWidthError,
    load_netlist,
    parse_netlist,
    parse_patterns,
)
from scanforge.protocol import (
    CycleSim,
    Phase,
    ProtocolError,
    cycle_budget,
    flush_chain,
    run_scan_test,
    sim_functional,
)
from scanforge.scan import verify_chain

from oracles import NaiveSim, random_netlist


def shift_chain_text(n, capture="identity"):
    """A pure n-FF chain; capture reloads each flop with f(own Q)."""
    lines = ["module chain", "input SI SE", "output SO"]
    for k in range(n):
        si = "SI" if k == 0 else f"Q{k - 1}"
        if capture == "invert":
            lines.append(f"gate i{k} INV D{k} Q{k}")
            lines.append(f"scanff f{k} MUX Q{k} D{k} {si} SE")
        else:
            lines.append(f"scanff f{k} MUX Q{k} Q{k} {si} SE")
    lines.append(f"gate gso BUF SO Q{n - 1}")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def expected_response(n, plan, vector):
    """Load the chain state directly, capture once, read back SO-side first."""
    length = len(plan.order)
    loaded = {fid: int(vector[length - 1 - i]) for i, fid in enumerate(plan.order)}
    sim = NaiveSim(n, init=loaded)
    sim.cycle({name: 0 for name in n.inputs})
    captured = [sim.q[fid] for fid in plan.order]
    return "".join("x" if b is None else str(b) for b in reversed(captured))


def test_cycle_budget_values():
    assert cycle_budget(10, 1, False) == 21
    assert cycle_budget(1, 1, False) == 3
    assert cycle_budget(10, 5, True) == 65
    assert cycle_budget(3, 2, False) == 14
    assert cycle_budget(3, 2, True) == 11
    with pytest.raises(ProtocolError):
        cycle_budget(0, 1, False)
    with pytest.raises(ProtocolError):
        cycle_budget(3, 0, True)


def test_identity_capture_returns_the_pattern():
    n = parse_netlist(shift_chain_text(3))
    patterns = parse_patterns("101\n010\n111\n000\n", 3)
    _, responses = run_scan_test(n, patterns)
    assert responses == ["101", "010", "111", "000"]


def test_inverting_capture_complements_in_order():
    # The first-shifted bit sits in the far flop at capture, so it is also the
    # first bit back out: responses align bit-for-bit with the pattern.
    n = parse_netlist(shift_chain_text(3, capture="invert"))
    _, responses = run_scan_test(n, parse_patterns("101\n110\n", 3))
    assert responses == ["010", "001"]


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_flush_is_the_identity_exhaustively(length):
    n = parse_netlist(shift_chain_text(length))
    for word in itertools.product("01", repeat=length):
        bits = "".join(word)
        assert flush_chain(n, bits) == bits


def test_flush_on_the_ten_ff_fixture(chain10_path):
    n = load_netlist(str(chain10_path))
    rng = random.Random(3)
    for _ in range(20):
        bits = "".join(str(rng.randint(0, 1)) for _ in range(10))
        assert flush_chain(n, bits) == bits


def test_flush_rejects_wrong_width():
    n = parse_netlist(shift_chain_text(3))
    with pytest.raises(PatternWidthError):
        flush_chain(n, "10")


def test_flush_rejects_non_bits():
    n = parse_netlist(shift_chain_text(3))
    with pytest.raises(PatternSyntaxError):
        flush_chain(n, "1x0")


def test_plan_ports_must_be_distinct_primary_inputs():
    n = parse_netlist(shift_chain_text(2))
    plan = verify_chain(n)
    patterns = parse_patterns("10\n", 2)
    with pytest.raises(ProtocolError):
        run_scan_test(n, patterns, plan=plan._replace(chain_in="SE"))
    with pytest.raises(ProtocolError):
        run_scan_test(n, patterns, plan=plan._replace(enable="Q0"))


def test_capture_matches_the_fixpoint_oracle():
    rng = random.Random(6021)
    for _ in range(40):
        n = random_netlist(rng, max_gates=8, max_ffs=4, min_ffs=1, scan=True)
        plan = verify_chain(n)
        length = len(plan.order)
        vectors = [
            "".join(str(rng.randint(0, 1)) for _ in range(length)) for _ in range(3)
        ]
        patterns = parse_patterns("\n".join(vectors) + "\n", length)
        want = [expected_response(n, plan, v) for v in vectors]

        trace, responses = run_scan_test(n, patterns)
        assert responses == want
        assert trace.cycles == cycle_budget(length, 3, False)

        trace_p, responses_p = run_scan_test(n, patterns, pipelined=True)
        assert responses_p == want
        assert trace_p.cycles == cycle_budget(length, 3, True)


def test_trace_structure_on_the_ten_ff_fixture(chain10_path, chain10_patterns_path):
    n = load_netlist(str(chain10_path))
    patterns = parse_patterns("1010101010\n", 10)
    trace, responses = run_scan_test(n, patterns)
    assert trace.cycles == 21
    assert trace.phase_counts == {
        "shift_in": 9,
        "launch": 1,
        "capture": 1,
        "shift_out": 10,
    }
    si = trace.bit_string("SI")
    assert trace.phases[9] == Phase.LAUNCH
    assert all(se == 1 for se in trace.se[:10])
    assert trace.phases[10] == Phase.CAPTURE
    assert trace.se[10] == 0 and si[10] == "0"
    assert si[:10] == "1010101010"
    assert len(responses) == 1 and len(responses[0]) == 10


def test_pipelined_phase_counts():
    n = parse_netlist(shift_chain_text(3))
    trace, _ = run_scan_test(n, parse_patterns("101\n110\n", 3), pipelined=True)
    assert trace.cycles == 11
    assert trace.phase_counts == {
        "shift_in": 4,
        "launch": 2,
        "capture": 2,
        "shift_out": 3,
    }


def test_net_toggles_match_record_hamming_distance(chain10_path):
    n = load_netlist(str(chain10_path))
    patterns = parse_patterns("1010101010\n0110011001\n", 10)
    trace, _ = run_scan_test(n, patterns)
    recount: dict[str, int] = {}
    for net in trace.nets:
        bits = trace.bit_string(net)
        for old, bit in zip(bits, bits[1:]):
            if "x" not in (old, bit) and old != bit:
                recount[net] = recount.get(net, 0) + 1
    assert recount == {k: v for k, v in trace.net_toggles.items() if v}
    assert trace.total_net_toggles == sum(recount.values())


def test_unknown_data_input_warns_once_per_flop(chain10_path):
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1111111111\n", 10))
    assert trace.warnings
    flagged = [w.split()[1] for w in trace.warnings]
    assert len(flagged) == len(set(flagged))
    assert all(w.startswith("flip-flop f") for w in trace.warnings)


def test_warmup_suppresses_early_unknowns():
    # an X from cycle 0 is silent through cycle 3 and warned at cycle 4
    text = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
    n = parse_netlist(text)
    silent = sim_functional(n, [{"EN": 0}], cycles=4, init=None)
    assert not silent.warnings
    noisy = sim_functional(n, [{"EN": 0}], cycles=5, init=None)
    assert noisy.warnings == ["flip-flop f1 data input is X at cycle 4"]
    seeded = sim_functional(n, [{"EN": 0}], cycles=8, init={"f1": 0})
    assert not seeded.warnings


def test_functional_toggle_flop():
    text = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
    n = parse_netlist(text)
    trace = sim_functional(n, [{"EN": 0}], cycles=8, init={"f1": 0})
    assert trace.bit_string("Q") == "10101010"
    assert trace.ff_internal_toggles["f1"] == 16
    assert trace.phase_counts == {"functional": 8}


def test_functional_argument_validation():
    n = parse_netlist(shift_chain_text(2))
    with pytest.raises(ProtocolError):
        sim_functional(n, [], cycles=1, init=None)
    with pytest.raises(ProtocolError):
        sim_functional(n, [{"SI": 0, "SE": 0}], cycles=0, init=None)
    with pytest.raises(ProtocolError):
        sim_functional(n, [{"NOPE": 0}], cycles=1, init=None)


def test_scan_test_rejects_wrong_pattern_width():
    n = parse_netlist(shift_chain_text(3))
    with pytest.raises(PatternWidthError):
        run_scan_test(n, parse_patterns("1010\n", 4))


XOR_CAPTURE = """
module xid
input A SI SE
output SO
gate x1 XOR2 D1 Q1 A
scanff f1 MUX Q1 D1 SI SE
gate gso BUF SO Q1
endmodule
"""


def test_pi_defaults_steer_the_capture():
    n = parse_netlist(XOR_CAPTURE)
    patterns = parse_patterns("1\n0\n", 1)
    assert run_scan_test(n, patterns)[1] == ["1", "0"]
    assert run_scan_test(n, patterns, pi_defaults={"A": 1})[1] == ["0", "1"]
    assert run_scan_test(n, patterns, pi_defaults={"A": X})[1] == ["x", "x"]


def test_pi_defaults_validation():
    n = parse_netlist(XOR_CAPTURE)
    patterns = parse_patterns("1\n", 1)
    with pytest.raises(ProtocolError):
        run_scan_test(n, patterns, pi_defaults={"NOPE": 0})
    with pytest.raises(ProtocolError):
        run_scan_test(n, patterns, pi_defaults={"SE": 0})


def test_contention_shows_up_in_the_trace():
    # An approximate chain shifting ones over a grounded DI fights every cycle.
    text = """
module appx
input A SI SE
output SO
gate gz AND2 D0 A A
scanff f0 APPROX Q0 D0 SI SE
gate gso BUF SO Q0
endmodule
"""
    n = parse_netlist(text)
    trace, responses = run_scan_test(n, parse_patterns("1\n", 1))
    assert responses == ["0"]
    assert trace.ff_contentions["f0"] == 1
    assert trace.contention_cycles == 1


TFF = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
CHAIN10 = Path(__file__).parent / "fixtures" / "chain10.snl"

# entry point -> (call with one bad value, the net or flop it is given for)
BIT_ENTRY_POINTS = {
    "stimulus": (
        lambda bad: sim_functional(parse_netlist(TFF), [{"EN": 0}, {"EN": bad}], 2, None), "EN"
    ),
    "sim_functional init": (
        lambda bad: sim_functional(parse_netlist(TFF), [{"EN": 0}], 1, {"f1": bad}), "f1"
    ),
    "CycleSim init": (lambda bad: CycleSim(parse_netlist(TFF), init={"f1": bad}), "f1"),
    "CycleSim.cycle": (
        lambda bad: CycleSim(parse_netlist(TFF)).cycle({"EN": bad}, Phase.FUNCTIONAL), "EN"
    ),
    "pi_defaults": (
        lambda bad: run_scan_test(
            load_netlist(str(CHAIN10)), parse_patterns("0110100101\n", 10), pi_defaults={"A": bad}
        ),
        "A",
    ),
}


@pytest.mark.parametrize("bad", [2, -1, "1", "x", 0.5, [1]], ids=repr)
@pytest.mark.parametrize("entry", sorted(BIT_ENTRY_POINTS))
def test_a_value_that_is_not_a_bit_is_a_protocol_error(entry, bad):
    call, net = BIT_ENTRY_POINTS[entry]
    with pytest.raises(ProtocolError, match=re.escape(repr(net))):
        call(bad)


@pytest.mark.parametrize("bad", ["bogus", "FUNCTIONAL", None, 3, [1]], ids=repr)
def test_a_value_that_is_not_a_phase_is_a_protocol_error_at_the_call(bad):
    sim = CycleSim(parse_netlist(TFF), init={"f1": 0})
    with pytest.raises(ProtocolError, match="is not a phase"):
        sim.cycle({"EN": 0}, bad)
    assert sim.finish().cycles == 0  # the bad cycle left nothing behind


def test_cyclesim_cycle_takes_a_phase_value():
    by_value = CycleSim(parse_netlist(TFF), init={"f1": 0})
    by_member = CycleSim(parse_netlist(TFF), init={"f1": 0})
    assert by_value.cycle({"EN": 0}, "capture").phase is Phase.CAPTURE
    by_member.cycle({"EN": 0}, Phase.CAPTURE)
    assert by_value.finish().phase_counts == by_member.finish().phase_counts == {"capture": 1}


# -- trace equality ----------------------------------------------------------------

BUF_FLOP = "module t\ninput A\ngate g BUF Y A\ndff f Q Y\nendmodule\n"


def test_traces_with_different_waveforms_compare_unequal():
    n = parse_netlist(BUF_FLOP)
    low = sim_functional(n, [{"A": 0}], cycles=3, init={"f": 0})
    high = sim_functional(n, [{"A": 1}], cycles=3, init={"f": 1})
    assert (low.bit_string("Y"), high.bit_string("Y")) == ("000", "111")
    # the same phases, SE and counts; only the lanes differ
    assert low._replace(value_lanes=high.value_lanes) == high
    assert low != high and not low == high


@pytest.mark.parametrize("rail", ["value_lanes", "known_lanes"])
def test_flipping_one_lane_bit_makes_traces_unequal(chain10_path, rail):
    trace, _ = run_scan_test(load_netlist(str(chain10_path)), parse_patterns("1010101010\n", 10))
    lanes = list(getattr(trace, rail))
    i = trace.netlist.compiled.index["SI"]
    lanes[i] ^= 1 << 5
    flipped = trace._replace(**{rail: lanes})
    assert flipped != trace and not flipped == trace
    lanes[i] ^= 1 << 5
    assert trace._replace(**{rail: lanes}) == trace


def test_runs_on_equal_distinct_netlists_compare_equal(chain10_path):
    a, b = load_netlist(str(chain10_path)), load_netlist(str(chain10_path))
    assert a is not b and a == b
    patterns = parse_patterns("1010101010\n0110011001\n", 10)
    assert run_scan_test(a, patterns) == run_scan_test(b, patterns)
    stimulus = [{"SI": 0, "SE": 0}]
    assert sim_functional(a, stimulus, 6, None) == sim_functional(b, stimulus, 6, None)
