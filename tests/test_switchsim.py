"""Switch-level simulator tests.

Strength resolution is pinned down on hand-built two-to-six transistor
networks where every rank can be computed by inspection, then the bundled
flip-flop networks are checked against the behavioral model, and ``settle``
against the full synchronous sweep of ``oracles.naive_settle`` on random
small networks.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_settle

import scanforge
from scanforge import switchsim
from scanforge.ffmodel import FFState, ff_cycle
from scanforge.kinds import FFVariant
from scanforge.logic import X
from scanforge.switchsim import (
    RANK_CHARGED,
    RANK_FLOATING,
    RANK_SUPPLY,
    DanglingNodeError,
    MissingSupplyError,
    NetworkSyntaxError,
    NodeValue,
    OscillationError,
    StimulusError,
    SwitchFF,
    bundled_network,
    check_behavioral,
    load_network,
    run_cycles,
    settle,
)

INVERTER = """
node IN
node OUT
supply VDD
supply GND
io in IN
io out OUT
t p P IN VDD OUT 1
t n N IN OUT GND 1
"""


def test_inverter_truth_table():
    net = load_network(INVERTER)
    assert settle(net, {"IN": 0})["OUT"] == NodeValue(1, 2.5)
    assert settle(net, {"IN": 1})["OUT"] == NodeValue(0, 2.5)


def test_unknown_gate_drives_unknown_at_full_strength():
    net = load_network(INVERTER)
    assert settle(net, {"IN": X})["OUT"] == NodeValue(X, 2.5)


def test_supplies_are_pinned():
    net = load_network(INVERTER)
    settled = settle(net, {"IN": 0})
    assert settled["VDD"] == NodeValue(1, RANK_SUPPLY)
    assert settled["GND"] == NodeValue(0, RANK_SUPPLY)


FIGHT = """
node GP
node GN
node OUT
supply VDD
supply GND
io in GP
io in GN
io out OUT
t p P GP VDD OUT {wp}
t n N GN OUT GND {wn}
"""


def test_wider_device_wins_a_fight():
    net = load_network(FIGHT.format(wp=2, wn=1))
    out = settle(net, {"GP": 0, "GN": 1})["OUT"]
    assert out == NodeValue(1, 2.5)


def test_equal_strength_fight_is_unknown():
    net = load_network(FIGHT.format(wp=1, wn=1))
    out = settle(net, {"GP": 0, "GN": 1})["OUT"]
    assert out == NodeValue(X, 2.5)


def test_nmos_passes_a_degraded_one():
    net = load_network(
        """
node G
node OUT
supply VDD
supply GND
io in G
io out OUT
t n N G VDD OUT 1
"""
    )
    assert settle(net, {"G": 1})["OUT"] == NodeValue(1, 2.25)
    assert settle(net, {"G": 0})["OUT"] == NodeValue(X, RANK_FLOATING)


def test_pmos_passes_a_degraded_zero():
    net = load_network(
        """
node G
node OUT
supply VDD
supply GND
io in G
io out OUT
t p P G OUT GND 1
"""
    )
    assert settle(net, {"G": 0})["OUT"] == NodeValue(0, 2.25)


def test_degraded_one_loses_to_full_zero():
    # Pseudo-NMOS case: an NMOS pull-up conducts a weakened 1 that a same
    # width NMOS pull-down overrides.
    net = load_network(
        """
node GU
node GD
node OUT
supply VDD
supply GND
io in GU
io in GD
io out OUT
t nu N GU VDD OUT 1
t nd N GD OUT GND 1
"""
    )
    assert settle(net, {"GU": 1, "GD": 1})["OUT"] == NodeValue(0, 2.5)
    assert settle(net, {"GU": 1, "GD": 0})["OUT"] == NodeValue(1, 2.25)


# A transmission gate between two driven pins, A and N
OWN_RANK = """
node A
node N
node G
node GB
supply VDD
supply GND
io in A
io in N
io in G
io in GB
t n N G A N 2
t p P GB A N 2
"""


def test_a_pass_device_delivers_at_its_own_rank():
    # A width-1 pin through a width-2 device beats N's own width-1 pin: the
    # device passes at its own rank (2.5), not at its source's (2.25).
    net = load_network(OWN_RANK)
    for a in (0, 1):
        settled = settle(net, {"A": a, "N": 1 - a, "G": 1, "GB": 0})
        assert settled["N"] == NodeValue(a, 2.5)
        # so does N's pin through the same devices into A: the pins swap
        assert settled["A"] == NodeValue(1 - a, 2.5)


PASS_GATE = """
node EN
node IN
node M storage
supply VDD
supply GND
io in EN
io in IN
t n N EN IN M 1
"""


def test_storage_node_retains_charge_when_isolated():
    net = load_network(PASS_GATE)
    assert settle(net, {"EN": 0, "IN": 0}, {"M": 1})["M"] == NodeValue(1, RANK_CHARGED)
    assert settle(net, {"EN": 0, "IN": 1}, {"M": 0})["M"] == NodeValue(0, RANK_CHARGED)
    assert settle(net, {"EN": 0, "IN": 1})["M"] == NodeValue(X, RANK_CHARGED)


def test_driven_value_overwrites_charge():
    net = load_network(PASS_GATE)
    assert settle(net, {"EN": 1, "IN": 0}, {"M": 1})["M"] == NodeValue(0, 2.5)
    assert settle(net, {"EN": 1, "IN": 1}, {"M": 0})["M"] == NodeValue(1, 2.25)


def test_charge_sharing_keeps_charged_rank():
    net = load_network(
        """
node EN
node M storage
node O
supply VDD
supply GND
io in EN
io out O
t n N EN M O 1
"""
    )
    assert settle(net, {"EN": 1}, {"M": 1})["O"] == NodeValue(1, RANK_CHARGED)
    assert settle(net, {"EN": 1}, {"M": 0})["O"] == NodeValue(0, RANK_CHARGED)
    assert settle(net, {"EN": 0}, {"M": 1})["O"] == NodeValue(X, RANK_FLOATING)


RING = """
node A storage
node B storage
node C storage
supply VDD
supply GND
t pa P A VDD B 1
t na N A B GND 1
t pb P B VDD C 1
t nb N B C GND 1
t pc P C VDD A 1
t nc N C A GND 1
"""


def test_ring_oscillator_raises():
    net = load_network(RING)
    with pytest.raises(OscillationError):
        settle(net, {}, {"A": 0, "B": 0, "C": 0})


def test_stimulus_validation():
    net = load_network(INVERTER)
    with pytest.raises(StimulusError):
        settle(net, {})
    with pytest.raises(StimulusError):
        settle(net, {"IN": 0, "BOGUS": 1})


@pytest.mark.parametrize(
    "text, inputs, charge, node",
    [
        (INVERTER, {"IN": 0, "OUT": 0}, None, "OUT"),
        (INVERTER, {"IN": 0, "VDD": 1}, None, "VDD"),
        (INVERTER, {"IN": 2}, None, "IN"),
        (INVERTER, {"IN": "1"}, None, "IN"),
        (INVERTER, {"IN": 0.5}, None, "IN"),
        (INVERTER, {"IN": [0]}, None, "IN"),
        (PASS_GATE, {"EN": 0, "IN": 0}, {"IN": 1}, "IN"),
        (PASS_GATE, {"EN": 0, "IN": 0}, {"BOGUS": 1}, "BOGUS"),
        (PASS_GATE, {"EN": 0, "IN": 0}, {"M": 7}, "M"),
    ],
    ids=[
        "output", "supply", "two", "string", "half", "list",
        "charge-on-input", "charge-on-unknown", "charge-seven",
    ],
)
def test_stimulus_that_cannot_be_read_names_its_node(text, inputs, charge, node):
    # Outputs, supplies and non-storage charge used to be dropped, and a bad
    # value switched off every device it gates or came back as logic.
    with pytest.raises(StimulusError) as exc:
        settle(load_network(text), inputs, charge)
    assert repr(node) in str(exc.value)


@pytest.mark.parametrize("di", [2, [0]])
def test_switch_ff_rejects_a_pin_that_is_not_a_bit(di):
    with pytest.raises(StimulusError, match="'DI'"):
        SwitchFF(bundled_network(FFVariant.MUX)).cycle(di, 0, 0)


def assert_freed(text, use):
    # The compiled form and its phase memo live on the network object only.
    # The spare node keeps the network unequal to those of other tests.
    net = load_network(text + "node SPARE\n")
    use(net)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None


def test_a_settled_network_is_freed():
    assert_freed(INVERTER, lambda net: settle(net, {"IN": 0}))


def test_a_checked_network_is_freed():
    mux = (Path(scanforge.__file__).parent / "data" / "mux_sff.tnl").read_text("utf-8")
    assert_freed(
        mux,
        lambda net: check_behavioral(net, FFVariant.MUX, random.Random(1), 16),
    )


@pytest.mark.parametrize(
    "line, exc",
    [
        ("nodes A", NetworkSyntaxError),
        ("node A extra junk", NetworkSyntaxError),
        ("node IN", NetworkSyntaxError),
        ("supply VSS", NetworkSyntaxError),
        ("t q N IN VDD OUT", NetworkSyntaxError),
        ("t q Z IN VDD OUT 1", NetworkSyntaxError),
        ("t q N IN VDD OUT abc", NetworkSyntaxError),
        ("t q N IN VDD OUT 0", NetworkSyntaxError),
        ("t q N IN VDD OUT -1", NetworkSyntaxError),
        ("t q N IN VDD OUT nan", NetworkSyntaxError),
        ("t q N IN VDD OUT inf", NetworkSyntaxError),
        ("t q N MISSING VDD OUT 1", DanglingNodeError),
        ("t q N OUT OUT GND 1", NetworkSyntaxError),
        ("t q N IN OUT OUT 1", NetworkSyntaxError),
        ("t p P IN VDD OUT 1", NetworkSyntaxError),
        ("io down OUT", NetworkSyntaxError),
        ("io in MISSING", DanglingNodeError),
        ("io in VDD", NetworkSyntaxError),
    ],
)
def test_network_syntax_errors(line, exc):
    with pytest.raises(exc):
        load_network(INVERTER + line + "\n")


def test_missing_supply_is_rejected():
    with pytest.raises(MissingSupplyError):
        load_network("node A\nsupply VDD\nio in A\n")


def test_comments_and_blank_lines_are_ignored():
    net = load_network("# header\n\n" + INVERTER + "t extra N IN OUT GND 1 # tail\n")
    assert len(net.transistors) == 3


@pytest.mark.parametrize(
    "variant, count",
    [(FFVariant.MUX, 16), (FFVariant.GDI, 12), (FFVariant.APPROX, 14)],
)
def test_bundled_network_shapes(variant, count):
    net = bundled_network(variant)
    assert len(net.transistors) == count
    assert net.inputs == ("CLK", "DI", "SI", "SE")
    assert net.outputs == ("Q",)
    assert net.storage


@pytest.mark.parametrize("variant", list(FFVariant))
def test_scan_shift_streams_bits(variant):
    net = bundled_network(variant)
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    assert run_cycles(net, [(0, b, 1) for b in bits]) == bits


def test_approx_si_overpowers_di():
    net = bundled_network(FFVariant.APPROX)
    assert run_cycles(net, [(0, 1, 1), (1, 0, 1)]) == [1, 0]


def test_q_moves_only_after_the_falling_phase():
    net = bundled_network(FFVariant.MUX)
    ff = SwitchFF(net)
    rng = random.Random(17)
    last_q = None
    for i in range(50):
        di, si, se = (rng.randint(0, 1) for _ in range(3))
        high = ff.step_phase({"CLK": 1, "DI": di, "SI": si, "SE": se})
        if i > 0:
            assert high["Q"].logic == last_q
        low = ff.step_phase({"CLK": 0, "DI": di, "SI": si, "SE": se})
        last_q = low["Q"].logic


def test_step_phase_waveform():
    # Q after each phase: X while CLK is high from X charge, DI once it falls
    ff = SwitchFF(bundled_network(FFVariant.MUX))
    phases = [{"CLK": clk, "DI": 1, "SI": 0, "SE": 0} for clk in (1, 0)]
    assert [ff.step_phase(pins)["Q"].logic for pins in phases] == [X, 1]


@pytest.mark.parametrize("variant", list(FFVariant))
def test_matches_behavioral_model_exhaustively(variant):
    # Every binary four-cycle stimulus; the behavioral model is authoritative
    # wherever it predicts a known Q.
    net = bundled_network(variant)
    for stim in itertools.product(itertools.product((0, 1), repeat=3), repeat=4):
        got = run_cycles(net, stim)
        state = FFState(variant=variant)
        for i, (di, si, se) in enumerate(stim):
            state = ff_cycle(state, di, si, se)
            if state.q is not X:
                assert got[i] == state.q, (variant, stim, i)


@pytest.mark.parametrize("variant", list(FFVariant))
def test_matches_behavioral_model_on_random_runs(variant):
    net = bundled_network(variant)
    rng = random.Random(7000 + hash(variant.value) % 97)
    for _ in range(300):
        stim = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(8)]
        got = run_cycles(net, stim)
        state = FFState(variant=variant)
        for i, (di, si, se) in enumerate(stim):
            state = ff_cycle(state, di, si, se)
            if state.q is not X:
                assert got[i] == state.q


# SHA-256 of every node's (logic, rank) after settle(), over all 3**4 input x
# 3**2 charge combinations of each bundled cell, in node order; recorded
# from the name-keyed solver that the index-keyed one replaced.
SETTLE_PINS = {
    FFVariant.MUX: "04a3f68c9d56f2035d0ecf474681ffaccbc889753c56ee98d4c618e67d870d0a",
    FFVariant.GDI: "f0273a312f14c0104ba418b0970d41c8378bdac33fc0216a8b151b4ad8cadfc0",
    FFVariant.APPROX: "4004514d08d25aab5eba8d522d2ee7ea8b0f594f359810e16ded8777fa87bedc",
}


@pytest.mark.parametrize("variant", list(FFVariant))
def test_settle_is_pinned_on_every_state_of_the_bundled_cells(variant):
    net = bundled_network(variant)
    storage = sorted(net.storage)
    digest = hashlib.sha256()
    for ins in itertools.product((0, 1, X), repeat=len(net.inputs)):
        for charge in itertools.product((0, 1, X), repeat=len(storage)):
            settled = settle(net, dict(zip(net.inputs, ins)), dict(zip(storage, charge)))
            digest.update(
                repr([(n, v.logic, v.rank) for n, v in settled.items()]).encode()
            )
    assert digest.hexdigest() == SETTLE_PINS[variant]


def test_channel_oscillation_names_the_moving_nodes():
    # Frozen conduction whose channel messages never settle: the error names
    # the nodes whose incoming messages still change.
    net = load_network(
        """
supply VDD
supply GND
node N0 storage
node N1
node N2
node N3
io in N3
io in N1
io in N2
t t0 N N2 N0 GND 2
t t1 N N3 N1 N2 1.5
t t2 P N2 N0 N1 1
t t3 N N3 N2 N0 0.5
"""
    )
    with pytest.raises(OscillationError) as exc:
        settle(net, {"N1": 0, "N2": 1, "N3": 1}, {"N0": 0})
    assert exc.value.nodes == {"N0", "N2"}


def test_cycle_steps_a_clock_cycle_from_a_restored_state():
    net = bundled_network(FFVariant.MUX)
    ff = SwitchFF(net)
    start = ff.state
    assert start == (X,) * len(net.storage)
    assert ff.cycle(1, 0, 0) == 1
    loaded = ff.state
    assert ff.cycle(0, 0, 0) == 0
    ff.state = loaded
    assert ff.cycle(0, 1, 1) == 1
    ff.state = start
    assert [ff.cycle(0, b, 1) for b in (1, 0, 1)] == [1, 0, 1]


@pytest.mark.parametrize("state", [(1,), (0, 1, 0), ()])
def test_a_state_of_the_wrong_length_is_rejected_before_the_memo(state):
    net = bundled_network(FFVariant.MUX)
    ff = SwitchFF(net)
    ff.cycle(1, 0, 0)
    memo = dict(net.compiled.cycles)
    ff.state = state
    with pytest.raises(StimulusError, match="the network has 2 storage nodes"):
        ff.cycle(0, 0, 0)
    with pytest.raises(StimulusError, match="the network has 2 storage nodes"):
        ff.step_phase({"CLK": 1, "DI": 0, "SI": 0, "SE": 0})
    assert net.compiled.cycles == memo


@pytest.mark.parametrize("pins", [(2, 0, 0), (0, "1", 0), (0, 0, 0.5)])
def test_a_pin_that_is_not_a_bit_is_rejected_before_the_memo(pins, settle_calls):
    net = bundled_network(FFVariant.MUX)
    ff = SwitchFF(net)
    ff.cycle(1, 0, 0)
    memo = dict(net.compiled.cycles)
    with pytest.raises(StimulusError, match="not 0, 1 or X"):
        ff.cycle(*pins)
    assert net.compiled.cycles == memo
    assert len(settle_calls) == 2


def test_a_network_without_q_stores_no_cycle():
    text = (Path(scanforge.__file__).parent / "data" / "mux_sff.tnl").read_text("utf-8")
    net = load_network(text.replace(" Q\n", " QB\n").replace(" Q ", " QB "))
    assert "Q" not in net.nodes
    with pytest.raises(StimulusError, match="no node named Q"):
        SwitchFF(net).cycle(1, 0, 0)
    assert net.compiled.cycles == {}


@pytest.fixture()
def settle_calls(monkeypatch):
    """Counts the phases settled, by ``SwitchFF.step_phase`` or into the
    network's cycle memo."""
    calls = []
    real = switchsim.settle

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(switchsim, "settle", counting)
    return calls


def test_phases_are_memoised_on_the_network(settle_calls):
    net = bundled_network(FFVariant.MUX)
    stim = [(1, 0, 0), (0, 1, 1), (1, 0, 0)]
    first = run_cycles(net, stim)
    assert len(settle_calls) == 6
    assert run_cycles(net, stim) == first
    assert len(settle_calls) == 6


@pytest.mark.parametrize("variant", list(FFVariant))
def test_check_behavioral_settles_48_phases_on_a_fresh_network(variant, settle_calls):
    check_behavioral(bundled_network(variant), variant, random.Random(1), 256)
    assert len(settle_calls) == 48


@pytest.mark.parametrize("variant", list(FFVariant))
def test_check_behavioral_leaves_the_cycle_memo_that_run_cycles_reads(variant, settle_calls):
    # from X charge, binary pins reach three charge states, and each of the
    # eight pin triples leads from each of them: 24 edges, two phases each
    net = bundled_network(variant)
    check_behavioral(net, variant, random.Random(1), 256)
    memo = net.compiled.cycles
    assert len(memo) == 24
    assert len({charge for charge, _ in memo}) == 3
    settled = len(settle_calls)
    rng = random.Random(5)
    stim = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(64)]
    got = run_cycles(net, stim)
    assert len(settle_calls) == settled
    assert got == run_cycles(bundled_network(variant), stim)


def _outcome(settle_fn, net, inputs, charge):
    """Every node's (logic, rank), or the nodes an OscillationError names."""
    try:
        settled = settle_fn(net, inputs, charge)
    except OscillationError as exc:
        return ("oscillates", exc.nodes)
    return ("settles", {
        n: (v.logic, v.rank) if isinstance(v, NodeValue) else v for n, v in settled.items()
    })


@st.composite
def small_networks(draw):
    """A random network of up to five nodes besides the supplies and up to
    nine devices, with 0/1/X on every input and charge on some of the
    storage nodes.

    Channels join any two nodes, so they form loops and parallel devices,
    and widths repeat, so equal-rank fights happen.
    """
    inner = [f"N{k}" for k in range(draw(st.integers(1, 5)))]
    names = [*inner, "VDD", "GND"]
    storage = draw(st.lists(st.sampled_from(inner), unique=True))
    inputs = draw(st.lists(st.sampled_from(inner), unique=True))
    lines = [f"node {n}{' storage' if n in storage else ''}" for n in inner]
    lines += ["supply VDD", "supply GND", *(f"io in {n}" for n in inputs)]
    for k in range(draw(st.integers(1, 9))):
        src, drn = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        gate = draw(st.sampled_from([n for n in names if n not in (src, drn)]))
        kind = draw(st.sampled_from("NP"))
        width = draw(st.sampled_from([0.5, 1, 2]))
        lines.append(f"t t{k} {kind} {gate} {src} {drn} {width}")
    bit = st.sampled_from([0, 1, X])
    pins = {n: draw(bit) for n in inputs}
    charge = {n: draw(bit) for n in storage if draw(st.booleans())}
    return "\n".join(lines), pins, charge


# a ring of three inverters: the outer (conduction) loop never settles
_RING_CASE = (RING, {}, {"A": 0, "B": 0, "C": 0})
# frozen conduction whose channel messages never settle
_CHANNEL_CASE = ("""
supply VDD
supply GND
node N0 storage
node N1
node N2
node N3
io in N3
io in N1
io in N2
t t0 N N2 N0 GND 2
t t1 N N3 N1 N2 1.5
t t2 P N2 N0 N1 1
t t3 N N3 N2 N0 0.5
""", {"N1": 0, "N2": 1, "N3": 1}, {"N0": 0})
# a channel loop D-B-C-D whose B-C edge has two parallel devices, charge on
# one of its two storage nodes
_LOOP = """
node G
node D
node B storage
node C storage
supply VDD
supply GND
io in G
io in D
t db N VDD D B 1
t bc N G B C 2
t cd N VDD C D 1
t bc2 P G B C 1
"""


@settings(max_examples=300)
@example(_RING_CASE)
@example(_CHANNEL_CASE)
@example((_LOOP, {"G": 1, "D": 1}, {"C": 0}))
@example((_LOOP, {"G": X, "D": 0}, {"C": 1}))
@given(small_networks())
def test_settle_matches_the_full_synchronous_sweep(case):
    text, inputs, charge = case
    net = load_network(text)
    assert _outcome(settle, net, inputs, charge) == _outcome(naive_settle, net, inputs, charge)
