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
nets' bits per cycle; the ``CycleRecord`` it returns settles the whole gate
program from those bits on its first value read. ``sim_functional`` steps
through the same width-1 step and stops at the first repeated state row
once its last input map is held: from there the run is periodic, and each
state lane repeats its segment to the end. ``run_scan_test`` and
``flush_chain`` step at width 1 only where the chain's shift cannot be
written down: the SE=0 capture cycles, or every cycle when some flop is not
on the SI -> Q chain; the loop visits only those cycles, the zero bytes of
the SE stream. On every SE=1 cycle each chain flop loads SI, so the Q lane
of chain position p is ``((Q_{p-1} << 1) & SHIFT) | CAP_p`` (SI itself for
the head). CAP_p is read from the stepper's own state rows, one per stepped
cycle: each row's Q bytes are ORed, at their cycle's bit, into lanes packed
eight cycles to a byte, so the work follows the stepped rows plus T/8
bytes per lane. When every cycle is stepped, a row column already is the
lane.

A trace keeps those lanes by net id, with the netlist they came from,
whose compiled form gives the net names, column order and drivers. Its
counts all come from the lanes: net toggles are
``popcount((v ^ v>>1) & k & k>>1)``, and a second width-T pass over the
flops' fan-in cone (this cycle's inputs with the previous cycle's Q) gives
the flip-flop inputs each rising edge saw. That pass yields internal
toggles (twice the Q toggles), ``approx`` contention
``popcount(SE & k(DI) & k(SI) & (DI ^ SI))``, and each flop's first X data
input from cycle ``WARMUP_CYCLES`` on, the lowest set bit of the unknown
rail.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import ScanforgeError
from .kinds import GateType
from .logic import X, Bit
from .netlist import AND2, BUF, INV, NAND2, OR2, XOR2, CompiledNetlist, Netlist, PatternSet
from .netlist import PatternSyntaxError, PatternWidthError
from .scan import ScanChainPlan, verify_chain


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
# A cycle's hex digit in a lane's value numeral plus twice its unknown
# numeral: 0 or 1 known, 2 or 3 unknown
_CHARS = str.maketrans("0123", "01xx")


def _bits_to_lane(bits: bytes) -> int:
    """Bytes of 0/1 as a lane: byte t becomes bit t."""
    return int(bits[::-1].translate(_DIGITS), 2) if bits else 0


def _lane_chars(value: int, known: int, width: int) -> str:
    """'0', '1' or 'x' per cycle of a two-rail lane of ``width`` >= 1 cycles,
    cycle 0 first.

    The value and unknown rails are written as binary numerals and read
    back as hexadecimal, so each cycle has a digit of its own: the value
    plus twice the unknown adds with no carry, and its hex digits, last
    cycle first, are reversed and mapped to characters.
    """
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


class _CycleValues(Mapping[str, Bit]):
    """Read-only end-of-cycle net values of one cycle.

    It keeps only the cycle's state row (the primary inputs and the flop Qs)
    and settles the gate program from it on the first value read; ``len``
    and iteration need no values and settle nothing.
    """

    __slots__ = ("_cn", "_state_ids", "_row_v", "_row_k", "_settled")

    def __init__(self, cn: CompiledNetlist, state_ids: Sequence[int], row_v: bytes, row_k: bytes):
        self._cn = cn
        self._state_ids = state_ids
        self._row_v = row_v
        self._row_k = row_k
        self._settled: Optional[tuple[list[int], list[int]]] = None

    def __getitem__(self, net: str) -> Bit:
        i = self._cn.index[net]
        if self._settled is None:
            v = [0] * len(self._cn.nets)
            k = [0] * len(self._cn.nets)
            for j, a, b in zip(self._state_ids, self._row_v, self._row_k):
                v[j] = a
                k[j] = b
            evaluate(self._cn.program, v, k)
            self._settled = v, k
        v, k = self._settled
        return v[i] if k[i] else X

    def __iter__(self) -> Iterator[str]:
        return iter(self._cn.index)

    def __len__(self) -> int:
        return len(self._cn.index)

    def __repr__(self) -> str:
        return repr(dict(self))


class CycleRecord(NamedTuple):
    index: int
    phase: Phase
    se: Bit
    values: Mapping[str, Bit]  # end-of-cycle net values, settled on first read


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
        if not self.cycles:
            return ""
        return _lane_chars(self.value_lanes[i], self.known_lanes[i], self.cycles)


def _lane_trace(
    n: Netlist, v: list[int], k: list[int], phases: list[Phase], se: list[Bit],
    init: Sequence[tuple[int, int]],
) -> ProtocolTrace:
    """The trace of a run, from its state lanes and the flops' power-up rails.

    ``v`` and ``k`` hold, by net id, the two-rail lanes of the primary inputs
    and the flop Qs over the run's cycles; one width-T pass settles every
    other net's end-of-cycle lane in place.
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

    # What each rising edge saw: this cycle's inputs with the last cycle's Q.
    # Only the flops' rails are read, so only their fan-in cone is walked.
    pv, pk = list(v), list(k)
    for q, (iv, ik) in zip(cn.ff_q, init):
        pv[q] = (v[q] << 1 | iv) & full
        pk[q] = (k[q] << 1 | ik) & full
    evaluate(cn.flop_cone, pv, pk)

    after_warmup = full >> WARMUP_CYCLES << WARMUP_CYCLES
    internal: dict[str, int] = {}
    contention: dict[str, int] = {}
    first_x = []
    for f, fid in enumerate(cn.ff_ids):
        q, di, si, en = cn.ff_q[f], cn.ff_di[f], cn.ff_si[f], cn.ff_se[f]
        # master and slave each flip once per Q flip
        internal[fid] = 2 * ((pv[q] ^ v[q]) & pk[q] & k[q]).bit_count()
        if en >= 0:
            fights = pv[en] & pk[en] & pk[di] & pk[si] & (pv[di] ^ pv[si])
            contention[fid] = fights.bit_count() if cn.ff_approx[f] else 0
        unknown = after_warmup & ~pk[di]
        if unknown:
            first_x.append(((unknown & -unknown).bit_length() - 1, f))
    first_x.sort()
    warnings = [f"flip-flop {cn.ff_ids[f]} data input is X at cycle {t}" for t, f in first_x]
    firsts = sorted((phases.index(p), p) for p in Phase if p in phases)
    phase_counts = {p.value: phases.count(p) for _, p in firsts}
    return ProtocolTrace(
        n, v, k, phases, se, net_toggles, internal, contention, phase_counts, warnings
    )


# -- stepping one cycle at a time ------------------------------------------------


class CycleSim:
    """Incremental simulator; drives one netlist cycle by cycle.

    Each cycle keeps the bits of the primary inputs and the flop Qs, from
    which ``finish`` builds the trace (and ``run_scan_test`` the captured
    Q lanes), and the scan enable the rising edge
    saw when every scan flop shares one enable net (X otherwise), so
    ``estimate_power`` bills its SE=1 cycles at the test rate.
    """

    def __init__(self, n: Netlist, init: Optional[Mapping[str, Bit]] = None):
        self.netlist = n
        cn = self.compiled = n.compiled
        if init:
            ids = set(cn.ff_ids)
            for fid in init:
                if fid not in ids:
                    raise ProtocolError(f"{fid!r} is not a flip-flop instance")
        self._v = [0] * len(cn.nets)
        self._k = [0] * len(cn.nets)
        self._init = [_rail(init.get(fid, X) if init else X, fid) for fid in cn.ff_ids]
        for q, (a, b) in zip(cn.ff_q, self._init):
            self._v[q] = a
            self._k[q] = b
        self._state_ids = (*cn.inputs.values(), *cn.ff_q)
        self._state_v = bytearray()  # one row of state bits per cycle
        self._state_k = bytearray()
        self._phases: list[Phase] = []
        self._se: list[Bit] = []

    def cycle(self, pi_values: Mapping[str, Bit], phase: Phase) -> CycleRecord:
        """Apply inputs, clock every flop once, and return the end-of-cycle values.

        The map may be partial: an input left out keeps the value it was last
        given, and one never given is X. ``phase`` is a Phase or its value.
        The record's values are settled on their first read.
        """
        try:
            phase = Phase(phase)
        except ValueError:
            raise ProtocolError(f"{phase!r} is not a phase") from None
        row_v, row_k = self._step(pi_values, phase)
        values = _CycleValues(self.compiled, self._state_ids, row_v, row_k)
        return CycleRecord(len(self._phases) - 1, phase, self._se[-1], values)

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
        s = cn.enable
        se = X if s < 0 or not k[s] else v[s]
        qv, qk = _latch(cn, v, k)
        for q, a, b in zip(cn.ff_q, qv, qk):
            v[q] = a
            k[q] = b

        row_v = bytes(map(v.__getitem__, self._state_ids))
        row_k = bytes(map(k.__getitem__, self._state_ids))
        self._state_v += row_v
        self._state_k += row_k
        self._phases.append(phase)
        self._se.append(se)
        return row_v, row_k

    def _shift(self, chain: Sequence[int], si_bits: Sequence[int], end: int) -> None:
        """Load what the SE=1 cycles ending at cycle ``end`` leave in the chain.

        At least ``len(chain)`` of them run, so chain position p holds the SI
        bit of cycle end - p.
        """
        v, k, ff_q = self._v, self._k, self.compiled.ff_q
        for p, f in enumerate(chain):
            v[ff_q[f]] = si_bits[end - p]
            k[ff_q[f]] = 1

    def finish(self) -> ProtocolTrace:
        """The trace of every cycle so far."""
        return self._trace(len(self._phases), len(self._phases))

    def _trace(self, start: int, cycles: int) -> ProtocolTrace:
        """The trace of the cycles so far, those from ``start`` on repeated to ``cycles``."""
        state = self._state_ids
        stepped = len(self._phases)
        extra = cycles - stepped
        phases, se = list(self._phases), list(self._se)
        if extra:
            period = stepped - start
            copies = -(-extra // period)
            ones = ((1 << copies * period) - 1) // ((1 << period) - 1)  # bit i * period set
            tail = (1 << extra) - 1
            phases += (phases[start:] * copies)[:extra]
            se += (se[start:] * copies)[:extra]
        v = [0] * len(self.compiled.nets)
        k = [0] * len(self.compiled.nets)
        for j, i in enumerate(state):
            for lanes, rows in ((v, self._state_v), (k, self._state_k)):
                lane = _bits_to_lane(rows[j::len(state)])
                if extra:
                    lane |= ((lane >> start) * ones & tail) << stepped
                lanes[i] = lane
        return _lane_trace(self.netlist, v, k, phases, se, self._init)


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
    """Flop indices from SI to SO when every flop is a scan cell on one path.

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
        chain.append(f)
        src = cn.ff_q[f]
    return chain


def _run_schedule(
    n: Netlist,
    plan: ScanChainPlan,
    base_pi: Mapping[str, Bit],
    phases: list[Phase],
    si_bits: list[int],
    se_bits: list[int],
) -> ProtocolTrace:
    """Simulate cycles with fixed free inputs and per-cycle SI/SE bits."""
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
    full = (1 << width) - 1
    se = bytes(se_bits)
    si_lane = _bits_to_lane(bytes(si_bits))
    se_lane = _bits_to_lane(se)
    chain = _shift_chain(cn, plan)
    shift = se_lane if chain is not None else 0

    # Step the cycles the shift does not cover (the SE=0 captures, or every
    # cycle when a flop is off the chain) through the one width-1 stepper;
    # its state rows then hold each flop's Q over those cycles. Each capture
    # follows at least one chain length of shift cycles, which leave only
    # SI bits in the chain.
    stepped = range(width) if chain is None else list(_zeros(se))
    pi = dict(base_pi)
    for t in stepped:
        if chain is not None:
            sim._shift(chain, si_bits, t - 1)
        pi[plan.chain_in] = si_bits[t]
        pi[plan.enable] = se_bits[t]
        sim.cycle(pi, phases[t])

    lv = [0] * len(cn.nets)
    lk = [0] * len(cn.nets)
    stride = len(sim._state_ids)
    qs = stride - len(cn.ff_q)  # where the Qs start in a state row
    for lanes, rows in ((lv, sim._state_v), (lk, sim._state_k)):
        if chain is None:  # a row per cycle: each Q column is its lane
            qlanes = [_bits_to_lane(rows[j::stride]) for j in range(qs, stride)]
        else:
            qlanes = _deposit(rows, stride, qs, stepped, width)
        for q, lane in zip(cn.ff_q, qlanes):
            lanes[q] = lane
    if chain is not None:
        pin_v, pin_k = si_lane, full  # what the next chain flop's SI sees
        for q in (cn.ff_q[f] for f in chain):
            lv[q] |= pin_v & shift
            lk[q] |= pin_k & shift
            pin_v, pin_k = lv[q] << 1, lk[q] << 1
    for i, (a, b) in base.items():
        lv[i], lk[i] = full * a, full * b
    lv[cn.index[plan.chain_in]], lk[cn.index[plan.chain_in]] = si_lane, full
    lv[cn.index[plan.enable]], lk[cn.index[plan.enable]] = se_lane, full
    return _lane_trace(n, lv, lk, phases, list(se_bits), sim._init)


def cycle_budget(chain_length: int, num_vectors: int, pipelined: bool) -> int:
    """Clock cycles to apply and unload all vectors through an n-FF chain."""
    if chain_length < 1:
        raise ProtocolError("chain_length must be >= 1")
    if num_vectors < 1:
        raise ProtocolError("num_vectors must be >= 1")
    if pipelined:
        return chain_length + num_vectors * (chain_length + 1)
    return num_vectors * (2 * chain_length + 1)


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
    """
    if plan is None:
        plan = verify_chain(n)
    length = len(plan.order)
    if patterns.chain_length != length:
        raise PatternWidthError(
            f"patterns are width {patterns.chain_length}, chain length is {length}"
        )

    base_pi = _free_inputs(n, plan)
    if pi_defaults:
        for net, bit in pi_defaults.items():
            if net not in base_pi:
                raise ProtocolError(f"{net!r} is not a free primary input")
            base_pi[net] = bit

    phases: list[Phase] = []
    si_bits: list[int] = []
    se_bits: list[int] = []
    captures: list[int] = []

    def shift_out() -> None:
        phases.extend([Phase.SHIFT_OUT] * length)
        si_bits.extend([0] * length)
        se_bits.extend([1] * length)

    for vector in patterns.vectors:
        phases.extend([Phase.SHIFT_IN] * (length - 1) + [Phase.LAUNCH])
        si_bits.extend(int(ch) for ch in vector)
        se_bits.extend([1] * length)
        captures.append(len(phases))
        phases.append(Phase.CAPTURE)
        si_bits.append(0)
        se_bits.append(0)
        if not pipelined:
            shift_out()
    if pipelined:
        shift_out()

    trace = _run_schedule(n, plan, base_pi, phases, si_bits, se_bits)
    # A vector's response is SO at its capture and the next length-1 cycles.
    so = trace.bit_string(plan.chain_out)
    return trace, [so[c:c + length] for c in captures]


def flush_chain(n: Netlist, bits: str) -> str:
    """Shift the bits through the whole chain with no capture; return what SO saw.

    With an n-FF chain the first bit appears at SO at the end of shift cycle
    n, so 2n-1 shift cycles run and the last n end-of-cycle SO values are the
    flushed word.
    """
    plan = verify_chain(n)
    length = len(plan.order)
    if len(bits) != length:
        raise PatternWidthError(
            f"flush word is width {len(bits)}, chain length is {length}"
        )
    if any(c not in "01" for c in bits):
        raise PatternSyntaxError(f"flush word {bits!r} is not bits")
    stream = [int(c) for c in bits] + [0] * (length - 1)
    phases = [Phase.SHIFT_IN] * length + [Phase.SHIFT_OUT] * (length - 1)
    trace = _run_schedule(n, plan, _free_inputs(n, plan), phases, stream, [1] * len(stream))
    return trace.bit_string(plan.chain_out)[length - 1:]
