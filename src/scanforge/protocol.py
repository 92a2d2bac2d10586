"""Cycle-based logic simulation: functional runs and the scan test protocol.

One cycle = apply primary inputs, settle combinational logic (zero delay, in
topological order), clock every flip-flop through a rising then a falling
edge, re-settle, and record the end-of-cycle net values. Toggle counts (0<->1
flips between consecutive end-of-cycle records) feed the power engine.

The scan test per vector is launch-off-shift: n shift cycles with SE=1
feeding SI (leftmost pattern bit first, the nth shift doubling as launch), SE
dropping after the final shift edge, one capture cycle with SE=0, then n
shift cycles with SE=1 unloading at SO. The response bit of the FF nearest SO
is visible at the end of the capture cycle, so a vector's response string is
SO at capture end plus SO at the end of the first n-1 unload cycles. With
pipelining the unload cycles double as the next vector's shift-in.

Values are two-rail: a value rail and a known rail, both Python ints, with X
encoded as a known bit of 0 (and a value bit of 0). An int of width 1 holds
one net in one cycle; an int of width T is a lane holding one net over all T
cycles, bit t for cycle t. One evaluator (``evaluate``) runs the gate
program of ``Netlist.compiled`` over either width; the netlist keeps that
compiled form, so repeated runs on one netlist do not sort it again.

Every trace is built one way: from the lanes of the primary inputs and the
flip-flop Qs, which fix every other net's end-of-cycle value, one width-T
pass over all cycles gives the end-of-cycle lanes of every net.
``CycleSim`` steps every cycle at width 1, one walk each of the gates that
feed the flops (``CompiledNetlist.flop_cone``), and keeps only those state
nets' bits per cycle; its ``finish``, which may be called at any point,
builds the trace of every cycle so far from them. That trace is the one
way to read a run's values. ``sim_functional`` steps through the same
width-1 step and stops at the first repeated state row once its last input
map is held: from there the run is periodic, and each state lane repeats
its segment to the end.

``run_scan_test`` and ``flush_chain`` check every vector's width and bits,
then lay the schedule out as two byte streams, SI and SE, one 0/1 byte
per cycle: the checked vectors become SI bytes in one ``encode`` and
``translate``, and SE is repeated blocks of ones and zeros. They step
every cycle, and return the stepper's own trace, when some flop is not on
the SI -> Q chain. Otherwise they step at width 1 only the SE=0 capture
cycles, the zero bytes of the SE stream, and write the shift down: on
every SE=1 cycle each chain flop loads SI, so the Q lane of chain position
p is ``((Q_{p-1} << 1) & SHIFT) | CAP_p`` (SI itself for the head). CAP_p
is read from the stepper's own state rows, one per stepped cycle: each
row's Q bytes are ORed, at their cycle's bit, into lanes packed eight
cycles to a byte, so the work follows the stepped rows plus T/8 bytes per
lane. The known rail of CAP_p is the capture cycles' mask whenever every
Q bit the captures latched is known, which the known rows show; only when
some capture latched X are those rows transposed too.

A trace keeps those lanes by net id, with the netlist they came from,
whose compiled form gives the net names, column order and drivers. Its
counts all come from the lanes: net toggles are
``popcount((v ^ v>>1) & k & k>>1)``, and internal toggles are twice a Q's
toggles plus its power-up edge. What each rising edge saw needs no second
pass (``_edge_lanes``): one cycle behind, it is a Q's or a gate's own
end-of-cycle lane, and an input's lane shifted down a cycle. Only gates
downstream of an input that changes during the run are settled again,
and there are none in a scan test of an inserted design or a functional
run with one input map. From these come ``approx`` contention
``popcount(SE & k(DI) & k(SI) & (DI ^ SI))``, each flop's first X data
input from cycle ``WARMUP_CYCLES`` on, the lowest set bit of the unknown
rail, and the trace's per-cycle SE: the enable every scan flop shares (X in
every cycle when they share none), which ``estimate_power`` bills at the
test rate where it is 1.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain, compress
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import ScanforgeError
from .kinds import GateType
from .logic import X, Bit
from .netlist import AND2, BUF, INV, NAND2, OR2, XOR2, CompiledNetlist, Netlist, PatternSet
from .netlist import PatternSyntaxError, PatternWidthError

if TYPE_CHECKING:
    from .scan import ScanChainPlan


# X data inputs before this cycle raise no warning
WARMUP_CYCLES = 4


class ProtocolError(ScanforgeError):
    code = "protocol.run"


class Phase(str, Enum):
    SHIFT_IN = "shift_in"
    LAUNCH = "launch"
    CAPTURE = "capture"
    SHIFT_OUT = "shift_out"
    FUNCTIONAL = "functional"


# -- the two-rail evaluator ------------------------------------------------------


def evaluate(program: Sequence[tuple[int, int, int, int]], v: list[int], k: list[int]) -> None:
    """Settle the gate program in place over two-rail values of any width.

    ``v`` and ``k`` are indexed by net id. A value bit is only ever set where
    its known bit is set, which every step below preserves.
    """
    for op, out, a, b in program:
        va = v[a]
        ka = k[a]
        if op == INV:
            v[out] = ka ^ va
            k[out] = ka
            continue
        if op == BUF:
            v[out] = va
            k[out] = ka
            continue
        vb = v[b]
        kb = k[b]
        if op == XOR2:
            known = ka & kb
            v[out] = (va ^ vb) & known
        elif op <= NAND2:
            one = va & vb
            # known where both are 1 or either is a known 0
            known = one | (ka ^ va) | (kb ^ vb)
            v[out] = one if op == AND2 else known ^ one
        else:
            one = va | vb
            known = one | (ka & kb)
            v[out] = one if op == OR2 else known ^ one
        k[out] = known


_RAILS = {0: (0, 1), 1: (1, 1), X: (0, 0)}


def _rail(bit: Bit, net: str) -> tuple[int, int]:
    """The (value, known) rails of a bit given for a net."""
    try:
        return _RAILS[bit]
    except (KeyError, TypeError):
        raise ProtocolError(f"{net!r} given {bit!r}, not 0, 1 or X") from None


def _latch(cn: CompiledNetlist, v: list[int], k: list[int]) -> tuple[list[int], list[int]]:
    """Width-1 next Q of every flop: DI, SI by SE, or DI where DI equals SI."""
    qv: list[int] = []
    qk: list[int] = []
    for di, si, se in zip(cn.ff_di, cn.ff_si, cn.ff_se):
        if se < 0 or (k[se] and not v[se]):
            src = di
        elif k[se]:
            src = si
        else:
            known = k[di] & k[si] & (1 ^ v[di] ^ v[si])
            qv.append(v[di] & known)
            qk.append(known)
            continue
        qv.append(v[src])
        qk.append(k[src])
    return qv, qk


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# SI characters '0' and '1' as the bytes 0 and 1
_SI_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# A cycle's hex digit in a lane's value numeral plus twice its unknown
# numeral: 0 or 1 known, 2 or 3 unknown
_CHARS = str.maketrans("0123", "01xx")
# '0', '1' and 'x' as the bytes 0, 1 and 2
_CHAR_CODES = bytes.maketrans(b"01x", b"\x00\x01\x02")


def _bits_to_lane(bits: bytes) -> int:
    """Bytes of 0/1 as a lane: byte t becomes bit t."""
    return int(bits[::-1].translate(_DIGITS), 2) if bits else 0


def _lane_chars(value: int, known: int, width: int) -> str:
    """'0', '1' or 'x' per cycle of a two-rail lane of ``width`` cycles,
    cycle 0 first.

    The value and unknown rails are written as binary numerals and read
    back as hexadecimal, so each cycle has a digit of its own: the value
    plus twice the unknown adds with no carry, and its hex digits, last
    cycle first, are reversed and mapped to characters.
    """
    if not width:
        return ""
    spec = f"0{width}b"
    unknown = ((1 << width) - 1) ^ known
    digits = int(format(value, spec), 16) + 2 * int(format(unknown, spec), 16)
    return format(digits, f"0{width}x")[::-1].translate(_CHARS)


def _zeros(bits: bytes) -> Iterator[int]:
    """The indices of the zero bytes, in order."""
    t = bits.find(0)
    while t >= 0:
        yield t
        t = bits.find(0, t + 1)


def _deposit(rows: bytes, stride: int, start: int, cycles: Sequence[int], width: int) -> list[int]:
    """One lane of ``width`` cycles per row column from ``start`` on.

    ``rows`` holds rows of ``stride`` 0/1 bytes, the jth for the jth of
    ``cycles``; cycles no row names read 0. The lanes are packed
    column-major, ``ceil(width / 8)`` bytes each: a row's column bytes,
    read as one int and shifted by its cycle's bit, are ORed into the byte
    that holds that cycle in every lane at once.
    """
    count = stride - start
    size = (width + 7) >> 3
    packed = bytearray(count * size)
    for j, t in enumerate(cycles):
        row = int.from_bytes(rows[j * stride + start:(j + 1) * stride], "big")
        at = t >> 3
        held = int.from_bytes(packed[at::size], "big")
        packed[at::size] = (held | row << (t & 7)).to_bytes(count, "big")
    return [int.from_bytes(packed[f * size:(f + 1) * size], "little") for f in range(count)]


# -- traces --------------------------------------------------------------------


class ProtocolTrace(NamedTuple):
    """What one run produced: the netlist, every net's end-of-cycle lanes,
    per-cycle phase and SE, and the counts.

    ``value_lanes`` and ``known_lanes`` are indexed by the compiled net ids
    of ``netlist``; net names, their column order and the gates that drive
    them are read from ``netlist.compiled``. Traces compare equal when their
    netlists, lanes, phases, SE and counts are equal.
    """

    netlist: Netlist
    value_lanes: list[int]
    known_lanes: list[int]
    phases: list[Phase]
    se: list[Bit]
    net_toggles: dict[str, int]
    ff_internal_toggles: dict[str, int]
    ff_contentions: dict[str, int]
    phase_counts: dict[str, int]
    warnings: list[str]

    # the repr names the netlist and its nets, not the netlist and the lanes
    _SHOWN = (
        "netlist_name", "nets", "net_toggles", "net_drivers", "ff_internal_toggles",
        "ff_contentions", "phase_counts", "warnings", "phases", "se",
    )

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._SHOWN)
        return f"ProtocolTrace({fields})"

    @property
    def netlist_name(self) -> str:
        return self.netlist.name

    @property
    def nets(self) -> tuple[str, ...]:
        """The net names in lane order."""
        return self.netlist.compiled.nets

    @property
    def net_drivers(self) -> dict[str, GateType]:
        """The gate type that drives each gate output net."""
        return self.netlist.compiled.drivers

    @property
    def cycles(self) -> int:
        return len(self.phases)

    @property
    def total_net_toggles(self) -> int:
        return sum(self.net_toggles.values())

    @property
    def contention_cycles(self) -> int:
        return sum(self.ff_contentions.values())

    def bit_string(self, net: str) -> str:
        """The net's end-of-cycle values, one '0', '1' or 'x' per cycle."""
        i = self.netlist.compiled.index[net]
        return _lane_chars(self.value_lanes[i], self.known_lanes[i], self.cycles)


def _edge_lanes(
    cn: CompiledNetlist, v: list[int], k: list[int], full: int,
    init: Sequence[tuple[int, int]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """What the flop pins saw at each rising edge, by net id, from the
    settled end-of-cycle lanes ``v`` and ``k`` (``full`` has a bit set for
    every cycle): two-rail lanes one cycle behind, whose bit t is what the
    edge of cycle t + 1 saw, and the width-1 rails of the edge of cycle 0.

    A rising edge sees this cycle's inputs with the last cycle's Qs. So,
    one cycle behind, a Q, or a gate fed only by Qs and by inputs that
    hold one value all run, is its own end-of-cycle lane, and an input is
    its lane shifted down one cycle; bit T - 1, past the last edge, is
    left for the reader to mask off. The cone's gates downstream of an
    input whose lane changes are settled again at width T from the lanes
    behind. The edge of cycle 0 saw the power-up values: each input's
    cycle-0 rail, each flop's init rail, and for the gates one width-1
    walk of the flop cone from those. That walk runs only when the shared
    enable or an approx flop's contention reads a gate pin at cycle 0 (X
    warnings start at ``WARMUP_CYCLES``); otherwise the gates stay X there.
    """
    inputs = cn.inputs.values()
    bv, bk = list(v), list(k)
    uv = [0] * len(v)
    uk = [0] * len(v)
    for i in inputs:
        bv[i] = v[i] >> 1
        bk[i] = k[i] >> 1
        uv[i] = v[i] & 1
        uk[i] = k[i] & 1
    for q, (a, b) in zip(cn.ff_q, init):
        uv[q] = a
        uk[q] = b
    # the pins read at cycle 0, and the nets no gate drives (-1: no enable)
    approx = cn.ff_approx
    read = chain((cn.enable,), *(compress(p, approx) for p in (cn.ff_di, cn.ff_si, cn.ff_se)))
    ungated = {-1, *inputs, *cn.ff_q}
    if any(i not in ungated for i in read):
        evaluate(cn.flop_cone, uv, uk)

    # the cone's inputs whose lanes change, and the gates they reach
    hit = {i for i in cn.cone_inputs if v[i] not in (0, full) or k[i] not in (0, full)}
    if hit:
        steps = []
        for step in cn.flop_cone:
            if step[2] in hit or step[3] in hit:
                hit.add(step[1])
                steps.append(step)
        evaluate(steps, bv, bk)
    return bv, bk, uv, uk


def _lane_trace(
    n: Netlist, v: list[int], k: list[int], phases: list[Phase],
    init: Sequence[tuple[int, int]],
) -> ProtocolTrace:
    """The trace of a run, from its state lanes and the flops' power-up rails.

    ``v`` and ``k`` hold, by net id, the two-rail lanes of the primary inputs
    and the flop Qs over the run's cycles; one width-T pass settles every
    other net's end-of-cycle lane in place, and ``_edge_lanes`` reads off
    them what each rising edge saw. The SE of each cycle is the shared
    enable its rising edge saw, X when the scan flops share none.
    """
    cn = n.compiled
    width = len(phases)
    full = (1 << width) - 1
    evaluate(cn.program, v, k)

    # Toggles in the order they first happen, ties in net order: one int key
    # per toggling net, its first toggle times the net count plus its id.
    nets = len(cn.nets)
    keys = []
    counts = [0] * nets
    for i, (lv, lk) in enumerate(zip(v, k)):
        flips = (lv ^ lv >> 1) & lk & lk >> 1
        if flips:
            keys.append((flips & -flips).bit_length() * nets + i)
            counts[i] = flips.bit_count()
    keys.sort()
    net_toggles = {cn.nets[i]: counts[i] for i in [key % nets for key in keys]}

    bv, bk, uv, uk = _edge_lanes(cn, v, k, full, init)
    s = cn.enable
    if s >= 0:
        chars = _lane_chars((bv[s] << 1 | uv[s]) & full, (bk[s] << 1 | uk[s]) & full, width)
    else:
        chars = "x" * width
    se: list[Bit] = list(chars.encode().translate(_CHAR_CODES))
    if "x" in chars:
        se = [X if c == 2 else c for c in se]

    # the edges of cycles 1 to T - 1, and of WARMUP_CYCLES on, one cycle behind
    behind = full >> 1
    after_warmup = behind >> WARMUP_CYCLES - 1 << WARMUP_CYCLES - 1
    internal: dict[str, int] = {}
    contention: dict[str, int] = {}
    first_x = []
    flops = zip(cn.ff_ids, cn.ff_q, cn.ff_di, cn.ff_si, cn.ff_se, cn.ff_approx, init)
    for f, (fid, q, di, si, en, approx, (iv, ik)) in enumerate(flops):
        # master and slave each flip once per Q flip, the power-up edge included
        internal[fid] = 2 * (counts[q] + (ik & k[q] & (iv ^ v[q]) & 1))
        if en >= 0:
            fights = 0
            if approx:
                later = behind & bv[en] & bk[en] & bk[di] & bk[si] & (bv[di] ^ bv[si])
                first = uv[en] & uk[en] & uk[di] & uk[si] & (uv[di] ^ uv[si])
                fights = later.bit_count() + first
            contention[fid] = fights
        unknown = after_warmup & ~bk[di]
        if unknown:
            # bit t is the edge of cycle t + 1
            first_x.append(((unknown & -unknown).bit_length(), f))
    first_x.sort()
    warnings = [f"flip-flop {cn.ff_ids[f]} data input is X at cycle {t}" for t, f in first_x]
    # a Counter keeps its keys in the order they are first seen
    phase_counts = {p.value: c for p, c in Counter(phases).items()}
    return ProtocolTrace(
        n, v, k, phases, se, net_toggles, internal, contention, phase_counts, warnings
    )


# -- stepping one cycle at a time ------------------------------------------------


class CycleSim:
    """Incremental simulator; drives one netlist cycle by cycle.

    Each cycle keeps only the bits of the primary inputs and the flop Qs,
    from which ``finish`` builds the trace of every cycle so far (and
    ``run_scan_test`` the captured Q lanes). That trace reads what each
    rising edge saw, the scan enable included, off the same lanes one
    cycle behind, with the init rails at cycle 0 (``_edge_lanes``).
    """

    def __init__(self, n: Netlist, init: Optional[Mapping[str, Bit]] = None):
        self.netlist = n
        cn = self.compiled = n.compiled
        self._v = [0] * len(cn.nets)
        self._k = [0] * len(cn.nets)
        # every flop powers up X, both rails 0, unless init names it
        self._init = [(0, 0)] * len(cn.ff_ids)
        if init:
            ids = set(cn.ff_ids)
            for fid in init:
                if fid not in ids:
                    raise ProtocolError(f"{fid!r} is not a flip-flop instance")
            self._init = [_rail(init.get(fid, X), fid) for fid in cn.ff_ids]
            for q, (a, b) in zip(cn.ff_q, self._init):
                self._v[q] = a
                self._k[q] = b
        self._state_ids = (*cn.inputs.values(), *cn.ff_q)
        self._state_v = bytearray()  # one row of state bits per cycle
        self._state_k = bytearray()
        self._phases: list[Phase] = []

    def cycle(self, pi_values: Mapping[str, Bit], phase: Phase) -> None:
        """Apply inputs and clock every flop once.

        The map may be partial: an input left out keeps the value it was last
        given, and one never given is X. ``phase`` is a Phase or its value.
        The cycle's end-of-cycle values are read from ``finish``.
        """
        try:
            phase = Phase(phase)
        except ValueError:
            raise ProtocolError(f"{phase!r} is not a phase") from None
        self._step(pi_values, phase)

    def _step(self, pi_values: Mapping[str, Bit], phase: Phase) -> tuple[bytes, bytes]:
        """One width-1 cycle: apply inputs, settle the flops' cone, clock the flops.

        Only ``CompiledNetlist.flop_cone`` is walked; the nets outside it
        are left stale. Keeps and returns the cycle's state row.
        """
        cn, v, k = self.compiled, self._v, self._k
        for net, bit in pi_values.items():
            i = cn.inputs.get(net)
            if i is None:
                raise ProtocolError(f"{net!r} is not a primary input")
            v[i], k[i] = _rail(bit, net)
        evaluate(cn.flop_cone, v, k)
        qv, qk = _latch(cn, v, k)
        for q, a, b in zip(cn.ff_q, qv, qk):
            v[q] = a
            k[q] = b

        row_v = bytes(map(v.__getitem__, self._state_ids))
        row_k = bytes(map(k.__getitem__, self._state_ids))
        self._state_v += row_v
        self._state_k += row_k
        self._phases.append(phase)
        return row_v, row_k

    def _shift(self, chain: Sequence[int], si: bytes, end: int) -> None:
        """Load what the SE=1 cycles ending at cycle ``end`` leave in the chain.

        ``chain`` holds the chain's Q net ids from SI to SO. At least
        ``len(chain)`` of those cycles run, so chain position p holds the
        SI byte of cycle end - p.
        """
        v, k = self._v, self._k
        for q, bit in zip(chain, si[end + 1 - len(chain):end + 1][::-1]):
            v[q] = bit
            k[q] = 1

    def finish(self) -> ProtocolTrace:
        """The trace of every cycle so far."""
        return self._trace(len(self._phases), len(self._phases))

    def _trace(self, start: int, cycles: int) -> ProtocolTrace:
        """The trace of the cycles so far, those from ``start`` on repeated to ``cycles``."""
        state = self._state_ids
        stepped = len(self._phases)
        extra = cycles - stepped
        phases = list(self._phases)
        if extra:
            period = stepped - start
            copies = -(-extra // period)
            ones = ((1 << copies * period) - 1) // ((1 << period) - 1)  # bit i * period set
            tail = (1 << extra) - 1
            phases += (phases[start:] * copies)[:extra]
        v = [0] * len(self.compiled.nets)
        k = [0] * len(self.compiled.nets)
        for j, i in enumerate(state):
            for lanes, rows in ((v, self._state_v), (k, self._state_k)):
                lane = _bits_to_lane(rows[j::len(state)])
                if extra:
                    lane |= ((lane >> start) * ones & tail) << stepped
                lanes[i] = lane
        return _lane_trace(self.netlist, v, k, phases, self._init)


def sim_functional(
    n: Netlist,
    stimulus: Sequence[Mapping[str, Bit]],
    cycles: int,
    init: Optional[Mapping[str, Bit]],
) -> ProtocolTrace:
    """Run normal operation; per-cycle input maps, last map held if short.

    Scan-inserted netlists are fine here as long as the stimulus pins SE to 0.
    init seeds flip-flop state by instance id; unlisted FFs, and every FF
    when init is None, start at X.

    Each cycle walks only the gates that feed the flops, one width-1 step.
    Once the last map is applied the inputs no longer change, so each
    end-of-cycle state row (inputs and Qs) fixes the next: at the first row
    seen twice the run has become periodic, and each state lane repeats its
    last period to the end. The trace is built as ``CycleSim.finish`` builds
    it.
    """
    if cycles < 1:
        raise ProtocolError("cycles must be >= 1")
    if not stimulus:
        raise ProtocolError("stimulus must supply at least one input map")
    sim = CycleSim(n, init)
    held = len(stimulus) - 1  # the cycle that applies the last map
    seen: dict[bytes, int] = {}
    for t in range(cycles):
        row_v, row_k = sim._step(stimulus[t] if t <= held else {}, Phase.FUNCTIONAL)
        if t >= held:
            first = seen.setdefault(row_v + row_k, t)
            if first < t:
                return sim._trace(first + 1, cycles)
    return sim.finish()


# -- the scan protocol over whole lanes -------------------------------------------


def _shift_chain(cn: CompiledNetlist, plan: ScanChainPlan) -> Optional[list[int]]:
    """The flops' Q net ids from SI to SO when every flop is a scan cell on
    one path.

    Such a path shifts in closed form: with the plan's enable at 1 each flop
    loads the Q of the one before it (the chain input for the first). None
    when a flop is off the path, so every cycle must be stepped.
    """
    if len(plan.order) != len(cn.ff_ids) or len(set(plan.order)) != len(plan.order):
        return None
    position = {fid: f for f, fid in enumerate(cn.ff_ids)}
    enable = cn.index[plan.enable]
    src = cn.index[plan.chain_in]
    chain = []
    for fid in plan.order:
        f = position.get(fid)
        if f is None or cn.ff_si[f] != src or cn.ff_se[f] != enable:
            return None
        src = cn.ff_q[f]
        chain.append(src)
    return chain


def _run_schedule(
    n: Netlist,
    plan: ScanChainPlan,
    base_pi: Mapping[str, Bit],
    phases: list[Phase],
    si: bytes,
    se: bytes,
) -> ProtocolTrace:
    """Simulate cycles with fixed free inputs and per-cycle SI and SE, one
    0/1 byte per cycle in each stream."""
    for net in (plan.chain_in, plan.enable):
        if net not in n.inputs:
            raise ProtocolError(f"{net!r} is not a primary input")
    if plan.chain_in == plan.enable:
        raise ProtocolError(f"{plan.chain_in!r} cannot be both scan-in and scan-enable")
    sim = CycleSim(n)
    cn = sim.compiled
    if plan.chain_out not in cn.index:
        raise ProtocolError(f"chain output {plan.chain_out!r} is not a net")
    base = {cn.index[net]: _rail(bit, net) for net, bit in base_pi.items()}
    width = len(phases)
    chain = _shift_chain(cn, plan)

    # Step the cycles the shift does not cover through the one width-1
    # stepper: every cycle when a flop is off the chain, and the run's trace
    # is then the stepper's own; else the SE=0 captures, whose state rows
    # hold each flop's Q at those cycles. Each capture follows at least one
    # chain length of shift cycles, which leave only SI bits in the chain.
    stepped = range(width) if chain is None else list(_zeros(se))
    pi = dict(base_pi)
    for t in stepped:
        if chain is not None:
            sim._shift(chain, si, t - 1)
        pi[plan.chain_in] = si[t]
        pi[plan.enable] = se[t]
        sim.cycle(pi, phases[t])
    if chain is None:
        return sim.finish()

    full = (1 << width) - 1
    si_lane = _bits_to_lane(si)
    se_lane = _bits_to_lane(se)
    lv = [0] * len(cn.nets)
    lk = [0] * len(cn.nets)
    stride = len(sim._state_ids)
    qs = stride - len(cn.ff_q)  # where the Qs start in a state row
    rows_k = sim._state_k
    # A flop's captured known lane is the capture cycles' mask unless some
    # capture latched X into it, so only then are the known rows transposed.
    if any(rows_k.find(0, j + qs, j + stride) >= 0 for j in range(0, len(rows_k), stride)):
        known = _deposit(rows_k, stride, qs, stepped, width)
    else:
        known = [full ^ se_lane] * len(cn.ff_q)
    captured = _deposit(sim._state_v, stride, qs, stepped, width)
    for q, a, b in zip(cn.ff_q, captured, known):
        lv[q], lk[q] = a, b
    pin_v, pin_k = si_lane, full  # what the next chain flop's SI sees
    for q in chain:
        lv[q] |= pin_v & se_lane
        lk[q] |= pin_k & se_lane
        pin_v, pin_k = lv[q] << 1, lk[q] << 1
    for i, (a, b) in base.items():
        lv[i], lk[i] = full * a, full * b
    lv[cn.index[plan.chain_in]], lk[cn.index[plan.chain_in]] = si_lane, full
    lv[cn.index[plan.enable]], lk[cn.index[plan.enable]] = se_lane, full
    return _lane_trace(n, lv, lk, phases, sim._init)


def cycle_budget(chain_length: int, num_vectors: int, pipelined: bool) -> int:
    """Clock cycles to apply and unload all vectors through an n-FF chain."""
    if chain_length < 1:
        raise ProtocolError("chain_length must be >= 1")
    if num_vectors < 1:
        raise ProtocolError("num_vectors must be >= 1")
    if pipelined:
        return chain_length + num_vectors * (chain_length + 1)
    return num_vectors * (2 * chain_length + 1)


def _si_stream(words: Sequence[str], length: int, what: str, gap: int) -> bytes:
    """The words as one SI stream of 0/1 bytes, ``gap`` zero bytes between
    each two; each word must be ``length`` characters, each '0' or '1'."""
    for word in words:
        if len(word) != length:
            raise PatternWidthError(
                f"{what} {word!r} has width {len(word)}, chain length is {length}"
            )
        if word.strip("01"):
            raise PatternSyntaxError(f"{what} {word!r} is not bits")
    return ("0" * gap).join(words).encode().translate(_SI_BYTES)


def _free_inputs(n: Netlist, plan: ScanChainPlan) -> dict[str, Bit]:
    return {net: 0 for net in n.inputs if net not in (plan.chain_in, plan.enable)}


def run_scan_test(
    n: Netlist,
    patterns: PatternSet,
    pipelined: bool = False,
    pi_defaults: Optional[Mapping[str, Bit]] = None,
    plan: Optional[ScanChainPlan] = None,
) -> tuple[ProtocolTrace, list[str]]:
    """Shift-in / capture / shift-out every vector; return trace + responses.

    Primary inputs other than SI/SE hold 0 unless overridden in pi_defaults.
    Before any cycle runs, an empty chain or pattern set raises
    ProtocolError, a vector not as wide as the chain PatternWidthError, and
    a vector with a character other than 0 or 1 PatternSyntaxError. The
    schedule is two byte streams, SI and SE, one byte per cycle; only the
    captures are stepped when every flop is on the chain, and the captured
    known rail is the capture mask unless some capture latched X.
    """
    if plan is None:
        from .scan import verify_chain

        plan = verify_chain(n)
    length = len(plan.order)
    if patterns.chain_length != length:
        raise PatternWidthError(
            f"patterns are width {patterns.chain_length}, chain length is {length}"
        )
    cycle_budget(length, len(patterns.vectors), pipelined)

    # Per vector: shift-in ending in launch, capture, and, unpipelined, the
    # unload; pipelined, the next vector's shift-in unloads, and one unload
    # follows the last capture.
    vectors = patterns.vectors
    si = _si_stream(vectors, length, "vector", 1 if pipelined else length + 1)
    si += bytes(length + 1)
    shift_in = b"\x01" * length
    block = [Phase.SHIFT_IN] * (length - 1) + [Phase.LAUNCH, Phase.CAPTURE]
    unload = [Phase.SHIFT_OUT] * length
    if pipelined:
        se = (shift_in + b"\x00") * len(vectors) + shift_in
        phases = block * len(vectors) + unload
    else:
        se = (shift_in + b"\x00" + shift_in) * len(vectors)
        phases = (block + unload) * len(vectors)

    base_pi = _free_inputs(n, plan)
    if pi_defaults:
        for net, bit in pi_defaults.items():
            if net not in base_pi:
                raise ProtocolError(f"{net!r} is not a free primary input")
            base_pi[net] = bit

    trace = _run_schedule(n, plan, base_pi, phases, si, se)
    # A vector's response is SO at its capture and the next length-1 cycles.
    so = trace.bit_string(plan.chain_out)
    return trace, [so[c:c + length] for c in _zeros(se)]


def flush_chain(n: Netlist, bits: str) -> str:
    """Shift the bits through the whole chain with no capture; return what SO saw.

    With an n-FF chain the first bit appears at SO at the end of shift cycle
    n, so 2n-1 shift cycles run and the last n end-of-cycle SO values are the
    flushed word.
    """
    from .scan import verify_chain

    plan = verify_chain(n)
    length = len(plan.order)
    si = _si_stream([bits], length, "flush word", 0) + bytes(length - 1)
    phases = [Phase.SHIFT_IN] * length + [Phase.SHIFT_OUT] * (length - 1)
    trace = _run_schedule(n, plan, _free_inputs(n, plan), phases, si, b"\x01" * len(si))
    return trace.bit_string(plan.chain_out)[length - 1:]
