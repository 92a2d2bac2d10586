"""The lane-based scan engine against the cycle-by-cycle oracle.

``run_scan_test`` steps only the capture cycles (or every cycle when a flop
sits outside the chain) and reads everything else from whole-run lanes. The
oracle in ``oracles.py`` re-interprets the netlist one cycle at a time and
counts toggles, contention and warnings its own way, so every figure the
engine reports is checked here against an independent run: responses,
per-cycle values, toggle counts in their first-toggle order, internal
toggles, contention, phase counts and warnings.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from scanforge.cells import FFVariant, GateType
from scanforge.logic import X
from scanforge.netlist import Dff, Gate, Netlist, ScanFF, parse_netlist, parse_patterns
from scanforge.protocol import (
    CycleSim,
    Phase,
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
        dataclasses.replace(i, variant=FFVariant.APPROX) if isinstance(i, ScanFF) else i
        for i in n.instances
    )
    return dataclasses.replace(n, instances=instances)


def partial_scan(n: Netlist, rng: random.Random) -> Netlist:
    """Add a plain D flip-flop beside the chain, feeding the first scan cell."""
    nets = sorted(n.nets())
    instances = list(n.instances)
    instances.append(Dff("p0", "P0", rng.choice(nets)))
    instances.append(Gate("gp", GateType.XOR2, "NP", ("P0", rng.choice(nets))))
    first = next(k for k, i in enumerate(instances) if isinstance(i, ScanFF))
    instances[first] = dataclasses.replace(instances[first], di="NP")
    return dataclasses.replace(n, outputs=n.outputs + ("NP",), instances=tuple(instances))


def random_bits(rng: random.Random, width: int) -> str:
    return "".join(str(rng.randint(0, 1)) for _ in range(width))


def assert_same_run(trace, run: NaiveRun) -> None:
    assert trace.cycles == len(run.records)
    for rec, want in zip(trace.records, run.records):
        assert dict(rec.values) == want, f"cycle {rec.index}"
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
    for rec, values in zip(trace.records, run.records):
        assert (rec.si, rec.se, rec.so) == (
            values[plan.chain_in], values[plan.enable], values[plan.chain_out]
        )


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
    want = sim_functional(n, stimulus, init=init)
    oracle = NaiveRun(n, init)
    for pi in stimulus:
        oracle.cycle(pi, "functional")

    assert [dict(r.values) for r in records] == [dict(r.values) for r in want.records]
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
    assert sim.finish().output_waveform("Q") == [1, 0, 1]
    for _ in range(2):
        sim.cycle({"EN": 0}, Phase.FUNCTIONAL)
    trace = sim.finish()
    assert trace.output_waveform("Q") == [1, 0, 1, 0, 1]
    assert trace.net_toggles == {"D": 4, "Q": 4}
    assert trace.ff_internal_toggles == {"f1": 10}
