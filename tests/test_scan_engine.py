"""The lane-based scan engine against the cycle-by-cycle oracle.

``run_scan_test`` steps only the capture cycles (or every cycle when a flop
sits outside the chain) and reads everything else from whole-run lanes. The
oracle in ``oracles.py`` re-interprets the netlist one cycle at a time and
counts toggles, contention and warnings its own way, so every figure the
engine reports is checked here against an independent run: responses,
per-cycle values, toggle counts in their first-toggle order, internal
toggles, contention, phase counts and warnings.

``sim_functional`` stops stepping at the first repeated state and repeats
the periodic segment; it is checked the same way over whole runs, and the
number of walks of the gate program is pinned for functional runs, single
``CycleSim.cycle`` calls (whose records settle on first read) and scan
tests.

A trace's bit columns are built in groups of lanes of about 64 kB; they
are checked bit by bit at the group edges, and their memory against the
size of what they return.

The captured bits are packed into lanes eight cycles to a byte from the
stepper's state rows; that packing is checked bit by bit, and whole runs
against the oracle with captures at the edges of a byte, runs of 1 to 71
cycles, every cycle stepped (a flop off the chain) and none (a flush). A
long pipelined run on shift-wide's shape is held to four times the bytes of
the lanes it returns.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from scanforge.cells import FFVariant, GateType
from scanforge.logic import X, bit_char
from scanforge.netlist import Dff, Gate, Netlist, ScanFF, parse_netlist, parse_patterns
from scanforge import protocol
from scanforge.protocol import (
    CycleSim,
    Phase,
    ProtocolTrace,
    evaluate,
    flush_chain,
    run_scan_test,
    sim_functional,
)
from scanforge.scan import verify_chain

from oracles import NaiveRun, naive_gate, naive_scan_test, random_netlist


@pytest.mark.parametrize("gtype", list(GateType))
def test_two_rail_evaluator_matches_the_scalar_gates(gtype):
    # Every 0/1/X input combination, one per bit of a lane: the wide pass
    # and the width-1 steps must both agree with the oracle's truth tables.
    pins = ["A", "B"][: gtype.num_inputs]
    text = f"module g\ninput A B\noutput Y\ngate g0 {gtype.value} Y {' '.join(pins)}\nendmodule\n"
    cn = parse_netlist(text).compiled
    combos = list(itertools.product((0, 1, X), repeat=gtype.num_inputs))
    want = [naive_gate(gtype.value, ins) for ins in combos]

    v = [0] * len(cn.nets)
    k = [0] * len(cn.nets)
    for p, pin in enumerate(pins):
        i = cn.index[pin]
        for t, ins in enumerate(combos):
            if ins[p] is not None:
                k[i] |= 1 << t
                v[i] |= ins[p] << t
    evaluate(cn.program, v, k)
    y = cn.index["Y"]
    assert [(v[y] >> t & 1) if k[y] >> t & 1 else X for t in range(len(combos))] == want

    for ins, out in zip(combos, want):
        v1 = [0] * len(cn.nets)
        k1 = [0] * len(cn.nets)
        for pin, bit in zip(pins, ins):
            if bit is not None:
                v1[cn.index[pin]], k1[cn.index[pin]] = bit, 1
        evaluate(cn.program, v1, k1)
        assert (v1[y] if k1[y] else X) == out, ins


def approx_chain(n: Netlist) -> Netlist:
    instances = tuple(
        i._replace(variant=FFVariant.APPROX) if isinstance(i, ScanFF) else i
        for i in n.instances
    )
    return Netlist(n.name, n.inputs, n.outputs, instances)


def partial_scan(n: Netlist, rng: random.Random) -> Netlist:
    """Add a plain D flip-flop beside the chain, feeding the first scan cell."""
    nets = sorted(n.nets())
    instances = list(n.instances)
    instances.append(Dff("p0", "P0", rng.choice(nets)))
    instances.append(Gate("gp", GateType.XOR2, "NP", ("P0", rng.choice(nets))))
    first = next(k for k, i in enumerate(instances) if isinstance(i, ScanFF))
    instances[first] = instances[first]._replace(di="NP")
    return Netlist(n.name, n.inputs, n.outputs + ("NP",), tuple(instances))


def random_bits(rng: random.Random, width: int) -> str:
    return "".join(str(rng.randint(0, 1)) for _ in range(width))


def columns(trace: ProtocolTrace) -> str:
    """Every net's bit string, one after another in lane order."""
    return "".join(trace.bit_string(net) for net in trace.nets)


def assert_same_run(trace, run: NaiveRun) -> None:
    assert trace.cycles == len(run.records)
    # every net in every cycle, net-major as the trace's columns are
    for rec in run.records:
        assert rec.keys() == set(trace.nets)
    want = "".join(bit_char(rec[net]) for net in trace.nets for rec in run.records)
    assert columns(trace) == want
    assert [p.value for p in trace.phases] == run.phases
    assert list(trace.net_toggles.items()) == list(run.net_toggles.items())
    assert list(trace.ff_internal_toggles.items()) == list(run.internal.items())
    assert list(trace.ff_contentions.items()) == list(run.contention.items())
    assert list(trace.phase_counts.items()) == list(run.phase_counts().items())
    assert trace.warnings == run.warnings


def scan_case(seed: int):
    """A random scan design: plain, approx, partial-scan, or both."""
    rng = random.Random(seed)
    n = random_netlist(rng, max_gates=10, max_ffs=5, min_ffs=1, scan=True)
    if seed % 4 in (1, 3):
        n = approx_chain(n)
    if seed % 4 in (2, 3):
        n = partial_scan(n, rng)
    return rng, n


@pytest.mark.parametrize("seed", range(240))
def test_scan_test_matches_the_oracle(seed):
    rng, n = scan_case(seed)
    plan = verify_chain(n)
    length = len(plan.order)
    vectors = [random_bits(rng, length) for _ in range(rng.randint(1, 3))]
    free = [net for net in n.inputs if net not in (plan.chain_in, plan.enable)]
    pi_defaults = {net: rng.choice((0, 1, X)) for net in free if rng.random() < 0.6}
    pipelined = seed % 8 < 4

    trace, responses = run_scan_test(
        n, parse_patterns("\n".join(vectors) + "\n", length),
        pipelined=pipelined, pi_defaults=pi_defaults,
    )
    run, want = naive_scan_test(
        n, length, plan.chain_in, plan.enable, plan.chain_out,
        vectors, pipelined, pi_defaults,
    )
    assert responses == want
    assert_same_run(trace, run)
    assert trace.se == [values[plan.enable] for values in run.records]


@pytest.mark.parametrize("seed", range(0, 240, 6))
def test_flush_is_the_identity_on_random_chains(seed):
    rng, n = scan_case(seed)
    length = len(verify_chain(n).order)
    for _ in range(3):
        bits = random_bits(rng, length)
        assert flush_chain(n, bits) == bits


@pytest.mark.parametrize("seed", range(60))
def test_hand_driven_cyclesim_matches_sim_functional_and_the_oracle(seed):
    # Free-running cycles with inputs (SE included) changing every cycle and
    # sometimes X: the counts come from the trace's lanes at finish().
    rng = random.Random(90_000 + seed)
    n = random_netlist(rng, max_gates=10, max_ffs=4, min_ffs=1, scan=seed % 2 == 0)
    if seed % 4 == 0:
        n = approx_chain(n)
    ids = [f.id for f in n.flops]
    init = {fid: rng.choice((0, 1, X)) for fid in ids if rng.random() < 0.5}
    stimulus = [
        {net: X if rng.random() < 0.1 else rng.randint(0, 1) for net in n.inputs}
        for _ in range(rng.randint(1, 24))
    ]

    sim = CycleSim(n, init=init)
    records = [sim.cycle(pi, Phase.FUNCTIONAL) for pi in stimulus]
    hand = sim.finish()
    want = sim_functional(n, stimulus, cycles=len(stimulus), init=init)
    oracle = NaiveRun(n, init)
    for pi in stimulus:
        oracle.cycle(pi, "functional")

    assert [dict(r.values) for r in records] == oracle.records
    assert columns(hand) == columns(want)
    assert hand.net_toggles == want.net_toggles
    assert hand.warnings == want.warnings
    assert_same_run(hand, oracle)


def test_cyclesim_appends_after_finish():
    # Each finish() builds the trace from every cycle so far, so cycles
    # added after one count in the next.
    n = parse_netlist("module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n")
    sim = CycleSim(n, init={"f1": 0})
    for _ in range(3):
        sim.cycle({"EN": 0}, Phase.FUNCTIONAL)
    assert sim.finish().bit_string("Q") == "101"
    for _ in range(2):
        sim.cycle({"EN": 0}, Phase.FUNCTIONAL)
    trace = sim.finish()
    assert trace.bit_string("Q") == "10101"
    assert trace.net_toggles == {"D": 4, "Q": 4}
    assert trace.ff_internal_toggles == {"f1": 10}


# -- functional runs -------------------------------------------------------------


def counter_text(bits: int, extra_inputs: str = "") -> str:
    """A ripple counter that adds EN each cycle: period 2**bits with EN at 1."""
    lines = [f"module count{bits}", f"input EN {extra_inputs}".rstrip(), "output Q0"]
    carry = "EN"
    for b in range(bits):
        lines.append(f"gate x{b} XOR2 D{b} Q{b} {carry}")
        lines.append(f"gate c{b} AND2 C{b} Q{b} {carry}")
        lines.append(f"dff f{b} Q{b} D{b}")
        carry = f"C{b}"
    return "\n".join(lines + ["endmodule"]) + "\n"


def approx_ring_text(gated: bool = False) -> str:
    """Three approx scan cells whose D inputs invert their own Qs.

    ``gated`` drives SE from EN and a flop, so only the enable reads that gate.
    """
    lines = ["module ring", f"input SI {'EN' if gated else 'SE'}", "output Q2"]
    if gated:
        lines.append("gate ge XOR2 SE EN Q1")
    for b in range(3):
        si = "SI" if b == 0 else f"Q{b - 1}"
        lines.append(f"gate i{b} INV D{b} Q{b}")
        lines.append(f"scanff f{b} APPROX Q{b} D{b} {si} SE")
    return "\n".join(lines + ["endmodule"]) + "\n"


def functional_oracle(n: Netlist, stimulus, cycles: int, init=None):
    """sim_functional spelled out: the oracle runs every cycle, the last map held.

    Returns the run and, per cycle, the shared enable the rising edge saw
    (X when the scan flops do not share one).
    """
    enables = {f.se for f in n.flops if isinstance(f, ScanFF)}
    enable = enables.pop() if len(enables) == 1 else None
    run = NaiveRun(n, init)
    pi = dict.fromkeys(n.inputs, X)  # an input never given is X
    se = []
    for t in range(cycles):
        pi.update(stimulus[min(t, len(stimulus) - 1)])
        run.cycle(dict(pi), "functional")
        se.append(run.sim.seen.get(enable) if enable else X)
    return run, se


def first_repeat(run: NaiveRun, n: Netlist, held: int) -> tuple[int, int]:
    """(t0, period) of the first end-of-cycle state row, from cycle ``held`` on,
    that an earlier one repeats; (len, 0) when none does."""
    state = list(n.inputs) + [f.q for f in n.flops]
    seen: dict = {}
    for t, rec in enumerate(run.records):
        if t < held:
            continue
        t0 = seen.setdefault(tuple(rec.get(net) for net in state), t)
        if t0 < t:
            return t0, t - t0
    return len(run.records), 0


class WalkCounter:
    """Counts the walks of the gate program made through ``protocol.evaluate``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.programs = []  # what each walk walked
        real = protocol.evaluate

        def counting(program, v, k):
            self.calls += 1
            self.programs.append(program)
            real(program, v, k)

        monkeypatch.setattr(protocol, "evaluate", counting)


def check_functional(n: Netlist, stimulus, cycles: int, init, walks: WalkCounter) -> None:
    """sim_functional against the oracle, and its walks of the gate program:
    one per cycle up to the first repeated state, plus the trace's two."""
    before = walks.calls
    trace = sim_functional(n, stimulus, cycles=cycles, init=init)
    made = walks.calls - before
    run, se = functional_oracle(n, stimulus, cycles, init)
    assert_same_run(trace, run)
    assert trace.se == se
    t0, period = first_repeat(run, n, len(stimulus) - 1)
    assert made <= (t0 + period + 1 if period else cycles) + 2


FUNCTIONAL_CASES = {
    "held tail longer than the stimulus": (
        counter_text(4), [{"EN": 0}, {"EN": 1}, {"EN": 0}, {"EN": 1}], 90, "zero",
    ),
    "X init": (counter_text(3), [{"EN": 1}], 30, {"f0": 0}),
    "X init flushed by the inputs": (
        "module sr\ninput A\noutput Q2\ndff f0 Q0 A\ndff f1 Q1 Q0\ndff f2 Q2 Q1\nendmodule\n",
        [{"A": 1}, {"A": 0}], 25, None,
    ),
    "partial input maps": (
        counter_text(3, "B"), [{"B": 0}, {"EN": 1}, {}, {"B": 1}, {"EN": 0}, {"EN": 1}], 40,
        "zero",
    ),
    "cycles < len(stimulus)": (
        counter_text(3), [{"EN": t % 2} for t in range(10)], 6, "zero",
    ),
    "SE held at 1 on an approx chain": (approx_ring_text(), [{"SI": 1, "SE": 1}], 30, "zero"),
    "X enable": (approx_ring_text(), [{"SI": 1, "SE": X}], 30, "zero"),
    "enable driven by a flop": (approx_ring_text(gated=True), [{"SI": 1, "EN": 1}], 30, "zero"),
    "period 1": (counter_text(4), [{"EN": 0}], 50, "zero"),
    "4-bit counter": (counter_text(4), [{"EN": 1}], 100, "zero"),
    "no repeat within T": (counter_text(8), [{"EN": 1}], 100, "zero"),
    "no flops": (
        "module c\ninput A B\noutput Y\ngate g0 AND2 N A B\ngate g1 INV Y N\nendmodule\n",
        [{"A": 1, "B": 1}, {"A": 0}, {"B": X}], 12, None,
    ),
}


@pytest.mark.parametrize("case", list(FUNCTIONAL_CASES))
def test_functional_run_matches_the_oracle(case, monkeypatch):
    text, stimulus, cycles, init = FUNCTIONAL_CASES[case]
    n = parse_netlist(text)
    if init == "zero":
        init = {f.id: 0 for f in n.flops}
    check_functional(n, stimulus, cycles, init, WalkCounter(monkeypatch))


@pytest.mark.parametrize("seed", range(80))
def test_random_functional_runs_match_the_oracle(seed, monkeypatch):
    # Partial maps, X inputs and X init, tails longer and shorter than the
    # stimulus, scan designs with SE changing or held.
    rng = random.Random(70_000 + seed)
    n = random_netlist(rng, max_gates=10, max_ffs=5, scan=seed % 3 == 0)
    if seed % 6 == 0:
        n = approx_chain(n)
    init = {f.id: rng.choice((0, 1, X)) for f in n.flops if rng.random() < 0.7}
    stimulus = [
        {net: X if rng.random() < 0.1 else rng.randint(0, 1)
         for net in n.inputs if t == 0 or rng.random() < 0.5}
        for t in range(rng.randint(1, 6))
    ]
    cycles = rng.randint(1, 40)
    check_functional(n, stimulus, cycles, init, WalkCounter(monkeypatch))


# -- walks of the gate program -----------------------------------------------------


def test_functional_run_stops_stepping_at_the_first_repeat(monkeypatch):
    # 4-bit counter: the state after cycle 16 repeats cycle 0's, so 17 width-1
    # steps and the trace's 2 width-T passes, whatever the run length.
    n = parse_netlist(counter_text(4))
    walks = WalkCounter(monkeypatch)
    for cycles in (100, 10_000):
        before = walks.calls
        trace = sim_functional(n, [{"EN": 1}], cycles=cycles, init={f.id: 0 for f in n.flops})
        assert walks.calls - before == 17 + 2
        assert trace.cycles == cycles
        assert trace.net_toggles["Q0"] == cycles - 1


def test_cycle_walks_once_unless_its_values_are_read(monkeypatch):
    n = parse_netlist(counter_text(3))
    walks = WalkCounter(monkeypatch)
    sim = CycleSim(n, init={f.id: 0 for f in n.flops})
    rec = sim.cycle({"EN": 1}, Phase.FUNCTIONAL)
    assert walks.calls == 1
    assert len(rec.values) == len(n.nets())
    assert set(rec.values) == n.nets()
    assert walks.calls == 1
    assert (rec.values["Q0"], rec.values["D0"], rec.values["C0"]) == (1, 0, 1)
    assert walks.calls == 2
    assert rec.values["D1"] == 1 and dict(rec.values) == dict(rec.values)
    assert walks.calls == 2


def test_cycle_walks_the_flop_cone_and_its_record_the_whole_program(monkeypatch):
    # g1 feeds only the output, so the cone leaves it out.
    n = parse_netlist(
        "module c\ninput EN\noutput Y\ndff f0 Q0 D0\n"
        "gate g0 XOR2 D0 Q0 EN\ngate g1 INV Y Q0\nendmodule\n"
    )
    cn = n.compiled
    assert [cn.nets[step[1]] for step in cn.flop_cone] == ["D0"]
    walks = WalkCounter(monkeypatch)
    sim = CycleSim(n, init={"f0": 0})
    recs = [sim.cycle({"EN": 1}, Phase.FUNCTIONAL) for _ in range(3)]
    assert all(program is cn.flop_cone for program in walks.programs)
    assert [(r.values["Q0"], r.values["Y"]) for r in recs] == [(1, 0), (0, 1), (1, 0)]
    assert walks.programs[3:] == [cn.program] * 3


def test_scan_test_walks_once_per_capture(monkeypatch):
    rng = random.Random(5)
    n = random_netlist(rng, max_gates=10, max_ffs=5, min_ffs=3, scan=True)
    length = len(verify_chain(n).order)
    vectors = [random_bits(rng, length) for _ in range(4)]
    for pipelined in (False, True):
        walks = WalkCounter(monkeypatch)
        run_scan_test(n, parse_patterns("\n".join(vectors) + "\n", length), pipelined=pipelined)
        assert walks.calls == len(vectors) + 2
        # the captures walk the flops' cone; the trace settles the whole
        # program, then its pre-edge pass walks the cone again
        cn = n.compiled
        assert all(program is cn.flop_cone for program in walks.programs[:-2])
        assert walks.programs[-2] is cn.program and walks.programs[-1] is cn.flop_cone


# -- records settled on first read ----------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_records_read_late_equal_the_eager_values(seed):
    # A record keeps its own state bits: cycles after it, and a chain load
    # through _shift, do not change what it reads.
    rng = random.Random(40_000 + seed)
    n = random_netlist(rng, max_gates=10, max_ffs=4, min_ffs=1, scan=True)
    chain = protocol._shift_chain(n.compiled, verify_chain(n))
    stimulus = [
        {net: X if rng.random() < 0.1 else rng.randint(0, 1) for net in n.inputs}
        for _ in range(12)
    ]
    eager_sim, late_sim = CycleSim(n), CycleSim(n)
    oracle = NaiveRun(n)
    eager, late = [], []
    for pi in stimulus:
        eager.append(dict(eager_sim.cycle(pi, Phase.FUNCTIONAL).values))
        late.append(late_sim.cycle(pi, Phase.FUNCTIONAL))
        oracle.cycle(pi, "functional")
    late_sim._shift(chain, [1] * len(stimulus), len(stimulus) - 1)
    late_sim.cycle(stimulus[0], Phase.FUNCTIONAL)
    first = [dict(rec.values) for rec in late]
    assert first == eager == oracle.records
    assert [dict(rec.values) for rec in late] == first
    assert [rec.se for rec in late] == late_sim.finish().se[: len(stimulus)]


# -- one lane's characters --------------------------------------------------------


def random_lanes(rng: random.Random, count: int, width: int) -> ProtocolTrace:
    """A trace of ``count`` nets over ``width`` cycles with random 0/1/X lanes.

    The value rail is random under an unknown bit too: it must read x.
    """
    n = Netlist("lanes", tuple(f"n{i}" for i in range(count)), (), ())
    v = [rng.getrandbits(width) for _ in n.compiled.nets]
    k = [rng.getrandbits(width) | rng.getrandbits(width) for _ in n.compiled.nets]
    return ProtocolTrace(n, v, k, [Phase.FUNCTIONAL] * width, [0] * width, {}, {}, {}, {}, [])


def per_bit(trace: ProtocolTrace) -> str:
    return "".join(
        bit_char((v >> t & 1) if k >> t & 1 else X)
        for v, k in zip(trace.value_lanes, trace.known_lanes) for t in range(trace.cycles)
    )


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65])
def test_bit_string_matches_the_bits_at_each_lane_width(width):
    trace = random_lanes(random.Random(width), 40, width)
    assert columns(trace) == per_bit(trace)


def test_bit_string_stays_within_three_times_its_result():
    # one lane as long as capture-deep's 2,600 nets over 194 cycles
    trace = random_lanes(random.Random(3), 1, 2600 * 194)
    tracemalloc.start()
    try:
        bits = trace.bit_string(trace.nets[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == 2600 * 194
    assert peak < 3 * len(bits)


# -- captured bits deposited into lanes ------------------------------------------


@pytest.mark.parametrize("width", [1, 7, 8, 9, 65, 200])
def test_deposit_puts_each_row_at_its_cycle_bit(width):
    # rows at cycles 0, 7 and 8 (the first and last bit of a byte and the
    # first of the next) when the run is that long, the last cycle, and a
    # random rest; a column is read against its bits placed one at a time
    rng = random.Random(width)
    edges = {t for t in (0, 7, 8, width - 1) if t < width}
    cycles = sorted(edges | set(rng.sample(range(width), width // 3)))
    stride, start = 12, 3
    rows = bytes(rng.randint(0, 1) for _ in range(stride * len(cycles)))
    want = [
        sum(rows[j * stride + c] << t for j, t in enumerate(cycles))
        for c in range(start, stride)
    ]
    assert protocol._deposit(rows, stride, start, cycles, width) == want
    assert protocol._deposit(b"", stride, start, [], width) == [0] * (stride - start)


def chain_of(rng: random.Random, length: int, approx: bool) -> Netlist:
    n = random_netlist(rng, max_gates=12, max_ffs=length, min_ffs=length, scan=True)
    return approx_chain(n) if approx else n


@pytest.mark.parametrize("length, vectors, pipelined", [
    (7, 3, True),    # captures at cycles 7, 15 and 23: bit 7 of each byte
    (8, 4, False),   # captures at 8, 25, 42 and 59: bit 0 of byte 1 on; 68 cycles
    (8, 7, True),    # captures at 8, 17, ..., 62; 71 cycles
    (2, 2, True),    # 8 cycles
    (1, 4, True),    # 9 cycles, captures at 1, 3, 5 and 7
    (3, 1, True),    # 7 cycles
    (1, 1, False),   # 3 cycles
])
@pytest.mark.parametrize("partial", [False, True])
def test_captured_lanes_match_the_oracle_at_byte_edges(length, vectors, pipelined, partial):
    # Full scan steps only the captures; with a flop off the chain every
    # cycle is stepped and the lanes are the rows' columns. Free inputs X.
    for seed in range(6):
        rng = random.Random(1_000 * length + 10 * vectors + seed)
        n = chain_of(rng, length, approx=seed % 2 == 1)
        if partial:
            n = partial_scan(n, rng)
        plan = verify_chain(n)
        free = [net for net in n.inputs if net not in (plan.chain_in, plan.enable)]
        pi_defaults = {net: X for net in free[: seed % 3]}
        vecs = [random_bits(rng, length) for _ in range(vectors)]
        trace, responses = run_scan_test(
            n, parse_patterns("\n".join(vecs) + "\n", length),
            pipelined=pipelined, pi_defaults=pi_defaults,
        )
        run, want = naive_scan_test(
            n, length, plan.chain_in, plan.enable, plan.chain_out, vecs, pipelined, pi_defaults,
        )
        assert responses == want
        assert_same_run(trace, run)


@pytest.mark.parametrize("length", [1, 4, 5, 33])
@pytest.mark.parametrize("partial", [False, True])
def test_flush_lanes_match_the_oracle(length, partial):
    # 2n - 1 cycles: 1, 7, 9 and 65; full scan steps none of them
    rng = random.Random(70_000 + length)
    n = chain_of(rng, length, approx=length % 2 == 1)
    if partial:
        n = partial_scan(n, rng)
    plan = verify_chain(n)
    free = {net: 0 for net in n.inputs if net not in (plan.chain_in, plan.enable)}
    bits = random_bits(rng, length)
    run = NaiveRun(n)
    so = [
        run.cycle({**free, plan.chain_in: si, plan.enable: 1}, "shift")[plan.chain_out]
        for si in [int(c) for c in bits] + [0] * (length - 1)
    ]
    assert flush_chain(n, bits) == "".join(bit_char(b) for b in so[length - 1:])


def wide_chain(rng: random.Random, ffs: int, gates: int, inputs: int) -> Netlist:
    """shift-wide's shape: an approx chain over a two-level cloud."""
    pis = [f"I{k}" for k in range(inputs)]
    qs = [f"Q{k}" for k in range(ffs)]
    instances: list = []
    prev = pool = pis + qs
    for level in range(2):
        outs = [f"N{level}_{k}" for k in range(gates // 2)]
        for out in outs:
            gtype = rng.choice(list(GateType))
            ins = (rng.choice(prev), rng.choice(pool))[: gtype.num_inputs]
            instances.append(Gate(f"g{out}", gtype, out, ins))
        pool = pool + outs
        prev = outs
    for k, q in enumerate(qs):
        si = "SCAN_IN" if k == 0 else qs[k - 1]
        instances.append(ScanFF(f"f{k}", FFVariant.APPROX, q, rng.choice(prev), si, "SCAN_EN"))
    return Netlist("wide", tuple(pis + ["SCAN_IN", "SCAN_EN"]), (qs[-1],), tuple(instances))


def test_scan_test_stays_within_four_times_its_lanes():
    # shift-wide's shape (128 flops, 144 gates in two levels, 8 inputs) over
    # 40 pipelined vectors: 5,288 cycles, 40 of them captures
    rng = random.Random(16)
    n = wide_chain(rng, ffs=128, gates=144, inputs=8)
    plan = verify_chain(n)
    patterns = parse_patterns("".join(random_bits(rng, 128) + "\n" for _ in range(40)), 128)
    n.compiled  # built once per netlist, not part of the run
    tracemalloc.start()
    try:
        trace, _ = run_scan_test(n, patterns, pipelined=True, plan=plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lane_bytes = sum((lane.bit_length() + 7) // 8 for lane in trace.value_lanes + trace.known_lanes)
    assert trace.cycles == 128 + 40 * 129
    assert peak < 4 * lane_bytes
