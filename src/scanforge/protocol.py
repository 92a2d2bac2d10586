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
``CycleSim`` and ``sim_functional`` step every cycle at width 1 and keep
only those state nets' bits per cycle. ``run_scan_test`` and
``flush_chain`` step at width 1 only where the chain's shift cannot be
written down: the SE=0 capture cycles, or every cycle when some flop is not
on the SI -> Q chain. On every SE=1 cycle each chain flop loads SI, so the
Q lane of chain position p is ``((Q_{p-1} << 1) & SHIFT) | CAP_p`` (SI
itself for the head), with CAP_p the bits of the stepped cycles.

A trace stores those lanes as per-net columns. Its counts all come from the
columns: net toggles are ``popcount((v ^ v>>1) & k & k>>1)``, and a second
width-T pass (this cycle's inputs with the previous cycle's Q) gives the
flip-flop inputs each rising edge saw. That pass yields internal toggles
(twice the Q toggles), ``approx`` contention
``popcount(SE & k(DI) & k(SI) & (DI ^ SI))``, and each flop's first X data
input at or after warmup, the lowest set bit of the unknown rail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence

from .cells import GateType
from .errors import ScanforgeError
from .logic import X, Bit, bit_from_char
from .netlist import AND2, BUF, INV, NAND2, OR2, XOR2, CompiledNetlist, Netlist, PatternSet
from .netlist import PatternSyntaxError, PatternWidthError
from .scan import ScanChainPlan, verify_chain


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
_VALUE_BIT = bytes.maketrans(b"01x", b"\x00\x01\x00")
_KNOWN_BIT = bytes.maketrans(b"01x", b"\x01\x01\x00")
_X_DIGIT = str.maketrans("2", "x")


def _bits_to_lane(bits: bytes) -> int:
    """Bytes of 0/1 as a lane: byte t becomes bit t."""
    return int(bits[::-1].translate(_DIGITS), 2) if bits else 0


def _lane_chars(lanes: Sequence[tuple[int, int]], width: int) -> str:
    """'0', '1' or 'x' per cycle of each two-rail lane, cycle 0 first.

    The lanes' strings follow one another in order, ``width`` characters each.
    """
    full = (1 << width) - 1
    values = "".join(format(v, f"0{width}b") for v, _ in reversed(lanes))
    unknown = "".join(format(full ^ k, f"0{width}b") for _, k in reversed(lanes))
    # Binary numerals read in base 16 add digit by digit with no carry.
    digits = int(values, 16) + 2 * int(unknown, 16)
    return format(digits, f"0{len(values)}x").translate(_X_DIGIT)[::-1]


# -- traces --------------------------------------------------------------------


class _CycleValues(Mapping[str, Bit]):
    """Read-only end-of-cycle net values of one cycle."""

    __slots__ = ("_index", "_v", "_k")

    def __init__(self, index: dict[str, int], v: bytes, k: bytes):
        self._index = index
        self._v = v
        self._k = k

    def __getitem__(self, net: str) -> Bit:
        i = self._index[net]
        return self._v[i] if self._k[i] else X

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class CycleRecord:
    index: int
    phase: Phase
    se: Bit
    si: Bit
    so: Bit
    values: Mapping[str, Bit]  # end-of-cycle net values


@dataclass
class ProtocolTrace:
    """End-of-cycle lanes of every net, per-cycle pins, and the counts.

    ``nets`` lists the net names in column order; ``_lane_trace`` fills the
    columns and the counts.
    """

    netlist_name: str
    nets: tuple[str, ...] = ()
    net_toggles: dict[str, int] = field(default_factory=dict)
    net_drivers: dict[str, GateType] = field(default_factory=dict)
    ff_internal_toggles: dict[str, int] = field(default_factory=dict)
    ff_contentions: dict[str, int] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    se: list[Bit] = field(default_factory=list)
    si: list[Bit] = field(default_factory=list)
    so: list[Bit] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {net: i for i, net in enumerate(self.nets)}
        self._v = [0] * len(self.nets)
        self._k = [0] * len(self.nets)

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
        return self.bit_columns([net])

    def bit_columns(self, nets: Sequence[str]) -> str:
        """The nets' bit strings, one after another.

        Net i's value in cycle t is at ``i * cycles + t``.
        """
        ids = [self._index[net] for net in nets]
        if not ids or not self.cycles:
            return ""
        return _lane_chars([(self._v[i], self._k[i]) for i in ids], self.cycles)

    @property
    def records(self) -> list[CycleRecord]:
        """One record per cycle, built from the columns on every read."""
        width = self.cycles
        if not width:
            return []
        # net-major; cycle t's row is every width-th character from t
        chars = self.bit_columns(self.nets).encode()
        v_bits = chars.translate(_VALUE_BIT)
        k_bits = chars.translate(_KNOWN_BIT)
        return [
            CycleRecord(
                t, self.phases[t], self.se[t], self.si[t], self.so[t],
                _CycleValues(self._index, v_bits[t::width], k_bits[t::width]),
            )
            for t in range(width)
        ]

    def output_waveform(self, net: str) -> list[Bit]:
        return [bit_from_char(c) for c in self.bit_string(net)]


def _lane_trace(
    n: Netlist, v: list[int], k: list[int], phases: list[Phase], se: list[Bit], si: list[Bit],
    init: Sequence[tuple[int, int]], warmup_cycles: int,
) -> ProtocolTrace:
    """The trace of a run, from its state lanes and the flops' power-up rails.

    ``v`` and ``k`` hold, by net id, the two-rail lanes of the primary inputs
    and the flop Qs over the run's cycles; one width-T pass settles every
    other net's end-of-cycle lane in place. SO is recorded as X.
    """
    cn = n.compiled
    width = len(phases)
    full = (1 << width) - 1
    evaluate(cn.program, v, k)
    trace = ProtocolTrace(
        n.name, cn.nets, net_drivers=dict(cn.drivers), phases=phases, se=se, si=si, so=[X] * width
    )
    trace._v, trace._k = v, k

    # Toggles in the order they first happen, ties in net order.
    firsts = []
    for i, (lv, lk) in enumerate(zip(v, k)):
        flips = (lv ^ lv >> 1) & lk & lk >> 1
        if flips:
            firsts.append(((flips & -flips).bit_length(), i, flips.bit_count()))
    firsts.sort()
    trace.net_toggles = {cn.nets[i]: count for _, i, count in firsts}

    # What each rising edge saw: this cycle's inputs with the last cycle's Q.
    pv, pk = list(v), list(k)
    for q, (iv, ik) in zip(cn.ff_q, init):
        pv[q] = (v[q] << 1 | iv) & full
        pk[q] = (k[q] << 1 | ik) & full
    evaluate(cn.program, pv, pk)

    after_warmup = full >> max(warmup_cycles, 0) << max(warmup_cycles, 0)
    internal: dict[str, int] = {}
    contention: dict[str, int] = {}
    first_x = []
    for f, fid in enumerate(cn.ff_ids):
        q, di, si, se = cn.ff_q[f], cn.ff_di[f], cn.ff_si[f], cn.ff_se[f]
        # master and slave each flip once per Q flip
        internal[fid] = 2 * ((pv[q] ^ v[q]) & pk[q] & k[q]).bit_count()
        if se >= 0:
            fights = pv[se] & pk[se] & pk[di] & pk[si] & (pv[di] ^ pv[si])
            contention[fid] = fights.bit_count() if cn.ff_approx[f] else 0
        unknown = after_warmup & ~pk[di]
        if unknown:
            first_x.append(((unknown & -unknown).bit_length() - 1, f))
    first_x.sort()
    trace.ff_internal_toggles = internal
    trace.ff_contentions = contention
    trace.warnings = [
        f"flip-flop {cn.ff_ids[f]} data input is X at cycle {t}" for t, f in first_x
    ]
    phase_counts: dict[str, int] = {}
    for phase in phases:
        phase_counts[phase.value] = phase_counts.get(phase.value, 0) + 1
    trace.phase_counts = phase_counts
    return trace


# -- stepping one cycle at a time ------------------------------------------------


class CycleSim:
    """Incremental simulator; drives one netlist cycle by cycle.

    Each cycle keeps the bits of the primary inputs and the flop Qs, from
    which ``finish`` builds the trace, and the scan enable the rising edge
    saw when every scan flop shares one enable net (X otherwise), so
    ``estimate_power`` bills its SE=1 cycles at the test rate; SI and SO are
    recorded as X.
    """

    def __init__(
        self,
        n: Netlist,
        warmup_cycles: int = 4,
        init: Optional[Mapping[str, Bit]] = None,
    ):
        self.netlist = n
        self.warmup_cycles = warmup_cycles
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
        given, and one never given is X.
        """
        cn, v, k = self.compiled, self._v, self._k
        for net, bit in pi_values.items():
            i = cn.inputs.get(net)
            if i is None:
                raise ProtocolError(f"{net!r} is not a primary input")
            v[i], k[i] = _rail(bit, net)
        evaluate(cn.program, v, k)
        s = cn.enable
        se = X if s < 0 or not k[s] else v[s]
        qv, qk = _latch(cn, v, k)
        for q, a, b in zip(cn.ff_q, qv, qk):
            v[q] = a
            k[q] = b
        evaluate(cn.program, v, k)

        self._state_v += bytes(map(v.__getitem__, self._state_ids))
        self._state_k += bytes(map(k.__getitem__, self._state_ids))
        index = len(self._phases)
        self._phases.append(phase)
        self._se.append(se)
        return CycleRecord(index, phase, se, X, X, _CycleValues(cn.index, bytes(v), bytes(k)))

    def _shift(self, chain: Sequence[int], si_bits: Sequence[int], end: int, gap: int) -> None:
        """Load what `gap` SE=1 cycles ending at cycle `end` leave in the chain.

        Chain position p then holds the SI bit of cycle end - p, or what
        position p - gap held before.
        """
        v, k, ff_q = self._v, self._k, self.compiled.ff_q
        head = [(si_bits[end - p], 1) for p in range(min(gap, len(chain)))]
        held = [(v[ff_q[f]], k[ff_q[f]]) for f in chain[: max(len(chain) - gap, 0)]]
        for f, (a, b) in zip(chain, head + held):
            v[ff_q[f]] = a
            k[ff_q[f]] = b

    def finish(self) -> ProtocolTrace:
        """The trace of every cycle so far."""
        state, width = self._state_ids, len(self._phases)
        v = [0] * len(self.compiled.nets)
        k = [0] * len(self.compiled.nets)
        for j, i in enumerate(state):
            v[i] = _bits_to_lane(self._state_v[j::len(state)])
            k[i] = _bits_to_lane(self._state_k[j::len(state)])
        return _lane_trace(
            self.netlist, v, k, list(self._phases), list(self._se), [X] * width,
            self._init, self.warmup_cycles,
        )


def sim_functional(
    n: Netlist,
    stimulus: Sequence[Mapping[str, Bit]],
    cycles: Optional[int] = None,
    warmup_cycles: int = 4,
    init: Optional[Mapping[str, Bit]] = None,
) -> ProtocolTrace:
    """Run normal operation; per-cycle input maps, last map held if short.

    Scan-inserted netlists are fine here as long as the stimulus pins SE to 0.
    init seeds flip-flop state by instance id; unlisted FFs start at X.
    """
    if cycles is None:
        cycles = len(stimulus)
    if cycles < 1:
        raise ProtocolError("cycles must be >= 1")
    if not stimulus:
        raise ProtocolError("stimulus must supply at least one input map")
    sim = CycleSim(n, warmup_cycles, init)
    for i in range(cycles):
        pi = stimulus[i] if i < len(stimulus) else stimulus[-1]
        sim.cycle(pi, Phase.FUNCTIONAL)
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
    si_lane = _bits_to_lane(bytes(si_bits))
    se_lane = _bits_to_lane(bytes(se_bits))
    chain = _shift_chain(cn, plan)
    shift = se_lane if chain is not None else 0
    flops = len(cn.ff_q)

    # Step the cycles the shift does not cover, through the one width-1
    # stepper (its state rows go unused); their Q bits go to cap_v/cap_k,
    # flop-major (flop f's cycle t at f * width + t).
    cap_v = bytearray(flops * width)
    cap_k = bytearray(flops * width)
    pi = dict(base_pi)
    last = -1
    for t in range(width):
        if chain is not None and se_bits[t]:
            continue
        if t - 1 > last:
            sim._shift(chain, si_bits, t - 1, t - 1 - last)
        last = t
        pi[plan.chain_in] = si_bits[t]
        pi[plan.enable] = se_bits[t]
        sim.cycle(pi, phases[t])
        cap_v[t::width] = bytes(sim._v[q] for q in cn.ff_q)
        cap_k[t::width] = bytes(sim._k[q] for q in cn.ff_q)

    lv = [0] * len(cn.nets)
    lk = [0] * len(cn.nets)
    for f, q in enumerate(cn.ff_q):
        lv[q] = _bits_to_lane(cap_v[f * width:(f + 1) * width])
        lk[q] = _bits_to_lane(cap_k[f * width:(f + 1) * width])
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
    trace = _lane_trace(
        n, lv, lk, phases, list(se_bits), list(si_bits), sim._init, sim.warmup_cycles
    )
    trace.so = [bit_from_char(c) for c in trace.bit_string(plan.chain_out)]
    return trace


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


def flush_chain(n: Netlist, bits: str, plan: Optional[ScanChainPlan] = None) -> str:
    """Shift the bits through the whole chain with no capture; return what SO saw.

    With an n-FF chain the first bit appears at SO at the end of shift cycle
    n, so 2n-1 shift cycles run and the last n end-of-cycle SO values are the
    flushed word.
    """
    if plan is None:
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
