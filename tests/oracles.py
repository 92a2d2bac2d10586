"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written differently from the library code:
gate evaluation uses truth tables and fixpoint relaxation instead of
topological ordering, flip-flop next-state is a one-line mux, longest
paths come from exhaustive DFS enumeration, a VCD dump compares each
net's bit string with itself one cycle back, and a switch-level phase is
settled by name with every channel message recomputed every round. Slow and
obvious beats fast and clever for an oracle.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Optional

from scanforge.kinds import FFVariant, GateType
from scanforge.netlist import (
    CombinationalCycleError,
    Dff,
    DuplicateInstanceError,
    Gate,
    MultiplyDrivenNetError,
    Netlist,
    ScanFF,
    UndrivenNetError,
)
from scanforge.switchsim import OscillationError, TransistorNetwork, TransistorType

Bit = Optional[int]

# truth tables keyed by known input tuples; anything else resolves via
# controlling values or X
_TT = {
    "INV": {(0,): 1, (1,): 0},
    "BUF": {(0,): 0, (1,): 1},
    "AND2": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "OR2": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "NAND2": {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "NOR2": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0},
    "XOR2": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
}

_CONTROLLING = {"AND2": (0, 0), "OR2": (1, 1), "NAND2": (0, 1), "NOR2": (1, 0)}


def naive_gate(gtype: str, ins: tuple[Bit, ...]) -> Bit:
    if all(b is not None for b in ins):
        return _TT[gtype][tuple(ins)]
    if gtype in _CONTROLLING:
        ctrl, out = _CONTROLLING[gtype]
        if ctrl in ins:
            return out
    return None


def naive_ff_next(kind: str, di: Bit, si: Bit, se: Bit) -> Bit:
    """Next Q of a flip-flop over one full clock cycle."""
    if kind == "dff":
        return di
    if se == 1:
        return si
    if se == 0:
        return di
    return di if di == si else None


class NaiveSim:
    """Fixpoint-relaxation re-interpreter of a netlist, one cycle at a time."""

    def __init__(self, n: Netlist, init: Optional[dict[str, Bit]] = None):
        self.n = n
        self.q: dict[str, Bit] = {}
        for inst in n.instances:
            if isinstance(inst, (Dff, ScanFF)):
                self.q[inst.id] = (init or {}).get(inst.id)

    def _relax(self, values: dict[str, Bit]) -> dict[str, Bit]:
        gates = [i for i in self.n.instances if isinstance(i, Gate)]
        changed = True
        while changed:
            changed = False
            for g in gates:
                ins = tuple(values.get(net) for net in g.ins)
                out = naive_gate(g.gtype.value, ins)
                if values.get(g.out, "missing") != out:
                    values[g.out] = out
                    changed = True
        return values

    def cycle(self, pi: dict[str, Bit]) -> dict[str, Bit]:
        """One clock cycle; returns end-of-cycle values and keeps the values
        the rising edge saw in ``self.seen``."""
        values: dict[str, Bit] = dict(pi)
        for inst in self.n.instances:
            if isinstance(inst, (Dff, ScanFF)):
                values[inst.q] = self.q[inst.id]
        values = self._relax(values)
        self.seen = dict(values)

        next_q: dict[str, Bit] = {}
        for inst in self.n.instances:
            if isinstance(inst, Dff):
                next_q[inst.id] = naive_ff_next("dff", values.get(inst.di), None, None)
            elif isinstance(inst, ScanFF):
                next_q[inst.id] = naive_ff_next(
                    "scan", values.get(inst.di), values.get(inst.si), values.get(inst.se)
                )
        self.q = next_q

        for inst in self.n.instances:
            if isinstance(inst, (Dff, ScanFF)):
                values[inst.q] = self.q[inst.id]
        return self._relax(values)


class NaiveRun:
    """Everything a run of NaiveSim produced, counted cycle by cycle."""

    def __init__(self, n: Netlist, init: Optional[dict[str, Bit]] = None):
        self.n = n
        self.sim = NaiveSim(n, init)
        self.records: list[dict[str, Bit]] = []
        self.phases: list[str] = []
        self.net_toggles: dict[str, int] = {}
        self.internal: dict[str, int] = {}
        self.contention: dict[str, int] = {}
        self.warnings: list[str] = []
        self._warned: set[str] = set()
        self._order = list(n.nets())
        for inst in n.instances:
            if isinstance(inst, (Dff, ScanFF)):
                self.internal[inst.id] = 0
                if isinstance(inst, ScanFF):
                    self.contention[inst.id] = 0

    def cycle(self, pi: dict[str, Bit], phase: str, warmup: int = 4) -> dict[str, Bit]:
        t = len(self.records)
        before = dict(self.sim.q)
        now = self.sim.cycle(pi)
        seen = self.sim.seen
        for inst in self.n.instances:
            if not isinstance(inst, (Dff, ScanFF)):
                continue
            old, new = before[inst.id], self.sim.q[inst.id]
            if old is not None and new is not None and old != new:
                self.internal[inst.id] += 2  # master on the rise, slave on the fall
            di = seen.get(inst.di)
            if isinstance(inst, ScanFF) and inst.variant is FFVariant.APPROX:
                si, se = seen.get(inst.si), seen.get(inst.se)
                if se == 1 and di is not None and si is not None and di != si:
                    self.contention[inst.id] += 1
            if t >= warmup and di is None and inst.id not in self._warned:
                self._warned.add(inst.id)
                self.warnings.append(f"flip-flop {inst.id} data input is X at cycle {t}")
        if self.records:
            prev = self.records[-1]
            for net in self._order:
                a, b = prev.get(net), now.get(net)
                if a is not None and b is not None and a != b:
                    self.net_toggles[net] = self.net_toggles.get(net, 0) + 1
        self.records.append(dict(now))
        self.phases.append(phase)
        return now

    def phase_counts(self) -> dict[str, int]:
        return {p: self.phases.count(p) for p in dict.fromkeys(self.phases)}


def naive_scan_test(
    n: Netlist,
    length: int,
    chain_in: str,
    enable: str,
    chain_out: str,
    vectors: list[str],
    pipelined: bool,
    pi_defaults: Optional[dict[str, Bit]] = None,
) -> tuple[NaiveRun, list[str]]:
    """The scan protocol spelled out as a list of cycles, then run on NaiveSim.

    Each vector shifts in (last bit = launch), captures with SE low, and is
    read at SO on the capture cycle and the next length - 1 cycles, which are
    the unload cycles or, pipelined, the next vector's shift-in.
    """
    free = {net: 0 for net in n.inputs if net not in (chain_in, enable)}
    free.update(pi_defaults or {})
    cycles: list[tuple[int, int, str]] = []  # (SI, SE, phase)
    capture_at = []
    for vector in vectors:
        for pos, bit in enumerate(vector):
            cycles.append((int(bit), 1, "launch" if pos == length - 1 else "shift_in"))
        capture_at.append(len(cycles))
        cycles.append((0, 0, "capture"))
        if not pipelined:
            cycles += [(0, 1, "shift_out")] * length
    if pipelined:
        cycles += [(0, 1, "shift_out")] * length
    run = NaiveRun(n)
    so: list[Bit] = []
    for si, se, phase in cycles:
        now = run.cycle({**free, chain_in: si, enable: se}, phase)
        so.append(now[chain_out])
    responses = [
        "".join("x" if b is None else str(b) for b in so[c:c + length])
        for c in capture_at
    ]
    return run, responses


_GATE_KINDS = ["INV", "BUF", "AND2", "OR2", "NAND2", "NOR2", "XOR2"]


def random_netlist(
    rng: random.Random,
    max_gates: int = 12,
    max_ffs: int = 4,
    min_ffs: int = 0,
    scan: bool = False,
) -> Netlist:
    """Acyclic-by-construction netlist with plain DFFs (or a scan chain)."""
    num_pis = rng.randint(1, 3)
    num_ffs = rng.randint(min_ffs, max_ffs)
    num_gates = rng.randint(1, max_gates)

    inputs = [f"I{k}" for k in range(num_pis)]
    q_nets = [f"Q{k}" for k in range(num_ffs)]
    avail = inputs + q_nets

    instances: list = []
    gate_outs: list[str] = []
    for k in range(num_gates):
        kind = GateType(rng.choice(_GATE_KINDS))
        ins = tuple(rng.choice(avail) for _ in range(kind.num_inputs))
        out = f"N{k}"
        instances.append(Gate(f"g{k}", kind, out, ins))
        gate_outs.append(out)
        avail.append(out)

    chain_variant = rng.choice(list(FFVariant))
    for k in range(num_ffs):
        di = rng.choice(avail)
        if scan:
            si = "SCAN_IN" if k == 0 else q_nets[k - 1]
            instances.append(ScanFF(f"f{k}", chain_variant, q_nets[k], di, si, "SCAN_EN"))
        else:
            instances.append(Dff(f"f{k}", q_nets[k], di))

    observable = gate_outs + q_nets
    outputs = sorted(rng.sample(observable, rng.randint(1, min(3, len(observable)))))
    if scan:
        inputs += ["SCAN_IN", "SCAN_EN"]
        # the chain tail must be observable for verify_chain
        if num_ffs and q_nets[-1] not in outputs:
            outputs.append(q_nets[-1])
    return Netlist(
        name="rand",
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        instances=tuple(instances),
    )


def _pins(inst) -> tuple[str, tuple[str, ...]]:
    """An instance's output net and its input nets, read off its fields."""
    if isinstance(inst, Gate):
        return inst.out, inst.ins
    if isinstance(inst, Dff):
        return inst.q, (inst.di,)
    return inst.q, (inst.di, inst.si, inst.se)


def naive_check(n: Netlist) -> Optional[tuple[type, str]]:
    """A netlist's first structural fault as (error class, message), or None.

    Three loops over the instances, in the order the faults rank: ids, then
    drivers (inputs first), then reads against every driven net; then the
    outputs, then cycles, found by placing gates whose inputs are all
    placed until no more can be.
    """
    ids: list[str] = []
    for inst in n.instances:
        if inst.id in ids:
            return DuplicateInstanceError, f"duplicate instance id {inst.id!r}"
        ids.append(inst.id)

    driven: list[str] = []
    for net in n.inputs:
        if net in driven:
            return MultiplyDrivenNetError, f"net {net!r} declared input twice"
        driven.append(net)
    for inst in n.instances:
        out, _ = _pins(inst)
        if out in driven:
            return MultiplyDrivenNetError, (
                f"net {out!r} has more than one driver (instance {inst.id!r})"
            )
        driven.append(out)

    for inst in n.instances:
        for net in _pins(inst)[1]:
            if net not in driven:
                return UndrivenNetError, f"net {net!r} read by instance {inst.id!r} has no driver"
    for net in n.outputs:
        if net not in driven:
            return UndrivenNetError, f"output net {net!r} has no driver"

    pending = [i for i in n.instances if isinstance(i, Gate)]
    placed = set(driven) - {g.out for g in pending}
    while True:
        ready = [g for g in pending if all(net in placed for net in g.ins)]
        if not ready:
            break
        placed.update(g.out for g in ready)
        pending = [g for g in pending if g not in ready]
    if pending:
        stuck = ", ".join(sorted(g.id for g in pending))
        return CombinationalCycleError, f"combinational cycle through gates: {stuck}"
    return None


def vcd_codes(count: int) -> list[str]:
    """The first ``count`` VCD id codes: every 1-character code from '!' to
    '~', then every 2-character one, and so on, each length in
    lexicographic order."""
    chars = [chr(c) for c in range(ord("!"), ord("~") + 1)]
    by_length = (itertools.product(chars, repeat=k) for k in itertools.count(1))
    return ["".join(c) for c in itertools.islice(itertools.chain.from_iterable(by_length), count)]


def naive_vcd(trace) -> str:
    """A trace's VCD text built one net at a time from its bit strings.

    Nets are sorted by name and numbered in that order. ``#0`` dumps every
    net; each later ``#t`` lists the nets whose character at t differs from
    the one at t - 1, in net order.
    """
    nets = sorted(trace.nets)
    codes = dict(zip(nets, vcd_codes(len(nets))))
    bits = {net: trace.bit_string(net) for net in nets}
    lines = [
        "$version scanforge $end",
        "$timescale 1ns $end",
        f"$scope module {trace.netlist_name} $end",
    ]
    lines += [f"$var wire 1 {codes[net]} {net} $end" for net in nets]
    lines += ["$upscope $end", "$enddefinitions $end", "#0", "$dumpvars"]
    lines += [bits[net][0] + codes[net] for net in nets]
    lines.append("$end")
    for t in range(1, trace.cycles):
        lines.append(f"#{t}")
        for net in nets:
            if bits[net][t] != bits[net][t - 1]:
                lines.append(bits[net][t] + codes[net])
    return "".join(line + "\n" for line in lines)


def line_netlist(nets: int) -> Netlist:
    """A line of ``nets - 1`` stages from input ``A``: ``nets`` nets in all.

    Stage k drives ``L{k}`` from the stage before it. Every fifth stage is a
    D flip-flop ``f{k}`` and the others alternate BUF and INV, so a value
    moves one flop per cycle and most nets hold still over a short run.
    """
    instances: list = []
    prev = "A"
    for k in range(nets - 1):
        out = f"L{k}"
        if k % 5 == 4:
            instances.append(Dff(f"f{k}", out, prev))
        else:
            kind = GateType.BUF if k % 2 else GateType.INV
            instances.append(Gate(f"g{k}", kind, out, (prev,)))
        prev = out
    return Netlist(name="line", inputs=("A",), outputs=(prev,), instances=tuple(instances))


def brute_force_longest(
    n: Netlist, gate_delay: dict[str, float], test_mode: bool
) -> float:
    """Max summed gate delay over every source-to-endpoint path, by DFS."""
    drivers: dict[str, Gate] = {g.out: g for g in n.instances if isinstance(g, Gate)}

    def longest_into(net: str) -> float:
        g = drivers.get(net)
        if g is None:
            return 0.0
        return gate_delay[g.id] + max(longest_into(i) for i in g.ins)

    best = 0.0
    endpoints: list[str] = list(n.outputs)
    for inst in n.instances:
        if isinstance(inst, (Dff, ScanFF)):
            endpoints.append(inst.di)
            if test_mode and isinstance(inst, ScanFF):
                endpoints.append(inst.si)
    for net in endpoints:
        best = max(best, longest_into(net))
    return best


def weighted_transition_count(vector: str) -> int:
    """Shift-power proxy: adjacent transitions weighted by remaining distance.

    Each transition between bits i and i+1 of the inbound vector toggles
    L - i flip-flops on its way down a chain as long as the vector, so the
    count is sum over i of (L - i) * [bit_i != bit_i+1]. It is the closed
    formula that ACCEPTANCE 7 holds simulated shift toggles to.
    """
    if any(c not in "01" for c in vector):
        raise ValueError("vector must be bits")
    length = len(vector)
    total = 0
    for i in range(1, length):
        if vector[i - 1] != vector[i]:
            total += length - i
    return total


def wtc_by_list_shift(bits: str) -> int:
    """Weighted transition count via literal list shifting of a quiet chain."""
    length = len(bits)
    chain = [bits[0]] * length
    toggles = 0
    for b in bits:
        new = [b] + chain[:-1]
        toggles += sum(1 for old, now in zip(chain, new) if old != now)
        chain = new
    return toggles


_TOKEN_RE = re.compile(r"\S+")


def regex_tokenize(text: str) -> list[list[tuple[str, int, int]]]:
    """(token, 1-based line, 1-based column) rows of a .snl text, one per nonblank line.

    The netlist parser's original regex tokenizer, kept as the reference for
    its positions: a token is a maximal ``\\S+`` run of a line cut at its
    first '#', and its column counts code points from the start of the line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        body = raw if pos < 0 else raw[:pos]
        row = [(m.group(), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if row:
            rows.append(row)
    return rows


def _strongest(contribs: list[tuple[Bit, float]]) -> tuple[Bit, float]:
    """The top rank, with the logic every contribution at that rank agrees on
    (X if any of them is X or two differ); (X, 0.0) with no contribution."""
    if not contribs:
        return (None, 0.0)
    top = max(rank for _, rank in contribs)
    logics = {logic for logic, rank in contribs if rank == top}
    return (logics.pop() if logics in ({0}, {1}) else None, top)


def naive_settle(
    net: TransistorNetwork, inputs: dict, charge: Optional[dict] = None
) -> dict[str, tuple[Bit, float]]:
    """Each node's settled (logic, rank) by the full synchronous sweep.

    Works by node name, from the transistor list alone. The outer loop
    freezes every device's conduction from the node values; the inner loop
    starts from no messages and recomputes the message across every channel
    pair (parallel devices on one node pair together) into each of its ends,
    every round, from the far end's value without the message that came back
    across the same pair, until a round changes none. Either loop still
    moving after 100 rounds raises ``OscillationError`` with the unpinned
    nodes whose value (outer) or incoming message (inner) changed in the
    last round.
    """
    widest = max((t.width for t in net.transistors), default=1.0)

    def rank(width: float) -> float:
        return 2.0 + 0.5 * (width / widest)

    pinned = {"VDD": (1, 3.0), "GND": (0, 3.0)}
    base: dict[str, list] = {n: [] for n in net.nodes}
    for n in net.inputs:
        base[n].append((inputs[n], rank(1.0)))
    for n in net.storage:
        base[n].append(((charge or {}).get(n), 1.0))
    pairs: dict[frozenset, list] = {}
    for t in net.transistors:
        pairs.setdefault(frozenset((t.src, t.drn)), []).append(t)

    def value(node: str, msgs: dict, skip: Optional[frozenset]) -> tuple[Bit, float]:
        if node in pinned:
            return pinned[node]
        came = [m for (pair, to), m in msgs.items() if to == node and pair != skip]
        return _strongest(base[node] + came)

    def sweep(state: dict) -> dict:
        msgs: dict = {}
        for _ in range(100):
            new = {}
            for pair, devices in pairs.items():
                for src, dst in itertools.permutations(pair):
                    logic, r = value(src, msgs, pair)
                    contribs = []
                    for t in devices:
                        on = 1 if t.ttype is TransistorType.NMOS else 0
                        if state[t.id] == "off":
                            continue
                        if r >= 2.0 and state[t.id] == "on":
                            full = logic != on
                            contribs.append((logic, rank(t.width if full else t.width * 0.5)))
                        elif r >= 2.0:
                            contribs.append((None, rank(t.width)))
                        elif r == 1.0:
                            contribs.append((logic if state[t.id] == "on" else None, 1.0))
                    if contribs:
                        new[(pair, dst)] = _strongest(contribs)
            if new == msgs:
                return {n: value(n, msgs, None) for n in net.nodes}
            msgs, last = new, msgs
        moving = {to for pair, to in {**msgs, **last} if msgs.get((pair, to)) != last.get((pair, to))}
        raise OscillationError(moving - set(pinned))

    values = {n: pinned.get(n) or _strongest(base[n]) for n in net.nodes}
    for _ in range(100):
        state = {}
        for t in net.transistors:
            g = values[t.gate][0]
            on = 1 if t.ttype is TransistorType.NMOS else 0
            state[t.id] = "maybe" if g is None else "on" if g == on else "off"
        new_values = sweep(state)
        if new_values == values:
            return values
        values, last_values = new_values, values
    raise OscillationError(n for n in net.nodes if values[n] != last_values[n])
