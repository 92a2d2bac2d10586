"""``to_vcd`` and ``dump_vcd`` against the per-net oracle.

``to_vcd`` reads the trace's two-rail lanes packed eight cycles to a byte
and builds each cycle a column at a time, one byte per net: each net's
state (0, 1 or 2 for X) comes from one bit of its packed rails, a keep mask
from the change against the cycle before selects the values and each
column of the id codes (shorter codes padded with ``\x01``), and strided
slice assignments interleave them into lines. ``oracles.naive_vcd``
compares every net's bit string with itself one cycle back. They must agree
byte for byte on scan tests and functional runs with X, at the edges of a
run and of the packed bytes, on a value rail set under an unknown, and at
the net counts where the id codes grow a character (94/95 and 8,930/8,931),
where no padding byte may be left in the text.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from scanforge.logic import X
from scanforge.netlist import Netlist, parse_netlist, parse_patterns
from scanforge.protocol import (
    CycleSim, Phase, ProtocolTrace, run_scan_test, sim_functional,
)
from scanforge.scan import verify_chain
from scanforge.vcd import dump_vcd, to_vcd

from oracles import line_netlist, naive_vcd, random_netlist, vcd_codes
from test_scan_engine import random_bits, scan_case
from test_trace_pins import line_trace

TFF = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"


@pytest.mark.parametrize("seed", range(240))
def test_scan_tests_match_the_oracle(seed):
    # plain, approx and partial-scan designs, pipelined and not; the flops
    # start at X and the free inputs are held at 0, 1 or X
    rng, n = scan_case(seed)
    plan = verify_chain(n)
    length = len(plan.order)
    vectors = [random_bits(rng, length) for _ in range(rng.randint(1, 3))]
    free = [net for net in n.inputs if net not in (plan.chain_in, plan.enable)]
    pi_defaults = {net: rng.choice((0, 1, X)) for net in free}
    trace, _ = run_scan_test(
        n, parse_patterns("\n".join(vectors) + "\n", length),
        pipelined=seed % 2 == 0, pi_defaults=pi_defaults,
    )
    assert to_vcd(trace) == naive_vcd(trace)


@pytest.mark.parametrize("seed", range(60))
def test_functional_runs_match_the_oracle(seed):
    rng = random.Random(90_000 + seed)
    n = random_netlist(rng, max_gates=10, max_ffs=4, min_ffs=1, scan=seed % 2 == 0)
    init = {f.id: rng.choice((0, 1, X)) for f in n.flops}
    stimulus = [
        {net: X if rng.random() < 0.1 else rng.randint(0, 1) for net in n.inputs}
        for _ in range(rng.randint(1, 24))
    ]
    trace = sim_functional(n, stimulus, cycles=len(stimulus), init=init)
    assert to_vcd(trace) == naive_vcd(trace)


def test_a_one_cycle_trace_is_the_initial_dump():
    trace = line_trace(12, 1)
    text = to_vcd(trace)
    assert text == naive_vcd(trace)
    assert text.endswith("$dumpvars\n" + "".join(
        f"{trace.bit_string(net)}{code}\n"
        for net, code in zip(sorted(trace.nets), vcd_codes(12))
    ) + "$end\n")


def test_nets_that_never_change_are_dumped_once():
    # A held at 1 from a known state: the line settles, then nothing moves
    n = line_netlist(30)
    init = dict.fromkeys((f.id for f in n.flops), 0)
    trace = sim_functional(n, [{"A": 1}], cycles=12, init=init)
    text = to_vcd(trace)
    assert text == naive_vcd(trace)
    code_a = vcd_codes(30)[sorted(trace.nets).index("A")]
    assert text.count(f"\n1{code_a}\n") == 1
    assert text.endswith("#9\n#10\n#11\n")


def test_an_all_x_run_has_no_changes_after_the_initial_dump():
    trace = sim_functional(line_netlist(30), [{"A": X}], cycles=6, init=None)
    text = to_vcd(trace)
    assert text == naive_vcd(trace)
    assert text.endswith("$end\n#1\n#2\n#3\n#4\n#5\n")
    assert {trace.bit_string(net) for net in trace.nets} == {"xxxxxx"}


@pytest.mark.parametrize("nets, width", [(94, 1), (95, 2), (8930, 2), (8931, 3)])
def test_id_code_boundaries(nets, width, tmp_path):
    trace = line_trace(nets, 5)
    text = to_vcd(trace)
    assert text == naive_vcd(trace)
    last = text.splitlines()[nets + 2]  # the last $var line
    assert last.startswith(f"$var wire 1 {vcd_codes(nets)[-1]} ")
    assert len(vcd_codes(nets)[-1]) == width
    assert min(text) == "\n"  # no NUL or \x01 padding byte is left
    out = tmp_path / "wave.vcd"
    dump_vcd(trace, str(out))
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("nets", [94, 95])
@pytest.mark.parametrize("cycles", [1, 7, 8, 9, 15, 16, 17])
def test_packed_byte_edges(nets, cycles):
    # the lanes are read eight cycles to a byte: the last cycle of a byte,
    # the first of the next and a partial last byte
    trace = line_trace(nets, cycles)
    assert to_vcd(trace) == naive_vcd(trace)


def test_a_value_rail_under_an_unknown_is_x():
    # D's value rail moves while it is unknown, Q's reads 1 under known 0:
    # both read x whatever the value rail holds, as bit_string reads them
    n = parse_netlist(TFF)
    lanes = {"EN": (0b0010, 0b1111), "D": (0b0110, 0b0000), "Q": (0b1111, 0b0101)}
    index = n.compiled.index
    v, k = [0] * len(index), [0] * len(index)
    for net, (value, known) in lanes.items():
        v[index[net]], k[index[net]] = value, known
    trace = ProtocolTrace(n, v, k, [Phase.FUNCTIONAL] * 4, [0] * 4, {}, {}, {}, {}, [])
    assert [trace.bit_string(net) for net in ("D", "EN", "Q")] == ["xxxx", "0100", "1x1x"]
    text = to_vcd(trace)
    assert text == naive_vcd(trace)
    assert text.endswith(
        "#0\n$dumpvars\nx!\n0\"\n1#\n$end\n#1\n1\"\nx#\n#2\n0\"\n1#\n#3\nx#\n"
    )


def test_dump_vcd_stays_below_a_character_per_net_and_cycle(tmp_path):
    # 300 nets over 4,000 cycles: 1,171 kB as one character per net and
    # cycle; the packed rails take a quarter of that
    trace = line_trace(300, 4000)
    out = tmp_path / "wave.vcd"
    tracemalloc.start()
    try:
        dump_vcd(trace, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(trace.nets) * trace.cycles
    assert out.read_bytes() == naive_vcd(trace).encode()


def test_dump_vcd_writes_as_it_goes(tmp_path):
    # 4,000 toggling cycles, 47 kB of text. to_vcd holds every cycle's
    # chunk, their join and its decoding; dump_vcd holds the packed rails
    # and one cycle, so its peak stays below to_vcd's by more than the text.
    trace = sim_functional(parse_netlist(TFF), [{"EN": 0}], cycles=4000, init={"f1": 0})
    out = tmp_path / "wave.vcd"
    tracemalloc.start()
    try:
        dump_vcd(trace, str(out))
        dumped = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        text = to_vcd(trace)
        joined = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == text.encode()
    assert dumped + len(text) < joined


def test_an_empty_trace_writes_no_file(tmp_path):
    out = tmp_path / "wave.vcd"
    with pytest.raises(ValueError, match="no cycles"):
        dump_vcd(CycleSim(Netlist("empty", (), (), ())).finish(), str(out))
    assert not out.exists()
