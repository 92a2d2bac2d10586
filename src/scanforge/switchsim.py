"""Switch-level MOS network simulator with strength-based resolution.

Transistors are strength-rated switches: an NMOS conducts when its gate is 1,
a PMOS when its gate is 0, and an unknown gate conducts "maybe", contributing
X. Node values carry a numeric strength rank:

    supply    3.0                      (VDD/GND, immovable)
    driven    2.0 + w/(2*W_max)        in (2.0, 2.5], scales with width
    charged   1.0                      (storage-node charge)
    floating  0.0                      (undriven, logic X)

A conducting transistor whose source side is driven-or-stronger contributes
the passed logic at the transistor's OWN driven rank: delivered strength is
set by the switch's width, which is how a double-width device overpowers a
width-1 driver in a ratioed fight. A charged source side charge-shares at
rank 1; a floating side contributes nothing. Pass degradation (an NMOS
passing 1 or a PMOS passing 0) halves the effective width, lowering the rank
but keeping it above charge strength. External input pins drive their node
at width-1.0 rank. A node's contributions fold into its value with one
join, associative and commutative, so their order never matters: the higher
rank wins, and at equal rank the node keeps a logic value only if all agree
and none is X.

Evaluation nests two fixed-point loops. The outer loop freezes every
transistor's conduction state (on / off / maybe) from the current node
values. The inner loop then solves the channel network, starting from no
messages, by synchronous message passing over channel edges (parallel
transistors joining the same node pair, e.g. a transmission gate, form one
edge): the message an edge sends into a node is computed from the far
node's value EXCLUDING that same edge's reverse message, so a value never
reflects back through the device that delivered it. Supplies are pinned
and never relay. The rounds are change-driven (selective trace): a message
is a pure function of the other messages into its source, so the first
round computes every message and each later round recomputes only the
messages that read one changed in the round before, which gives the same
rounds and the same fixed point as recomputing all of them. On the
tree-structured channel graphs of CMOS latches this converges exactly and
independently of transistor list order; a network where either loop is
still moving after ``MAX_ITERS`` rounds (e.g. a ring oscillator) raises
OscillationError with the unsettled nodes. A network is compiled on first
use into node indices, channel messages with their ranks and readers and a
memo of whole clock cycles (``TransistorNetwork.compiled``), kept on the
network object only: ``SwitchFF.cycle``, ``run_cycles`` and
``check_behavioral`` settle a cycle's two phases once per (charge, pins).
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ScanforgeError, read_text
from .ffmodel import ff_selected_input
from .kinds import FFVariant, FrozenRecord
from .logic import Bit, X

RANK_FLOATING = 0.0
RANK_CHARGED = 1.0
RANK_DRIVEN_BASE = 2.0
RANK_SUPPLY = 3.0

# Driven ranks span (2.0, 2.5] so even the widest device stays below supply.
_DRIVEN_SPAN = 0.5
INPUT_DRIVE_WIDTH = 1.0
DEGRADED_WIDTH_FACTOR = 0.5

VDD = "VDD"
GND = "GND"

# Rounds each fixed-point loop may take before it counts as oscillating.
MAX_ITERS = 100

# The shipped flip-flop networks by file name, under src/scanforge/data.
BUNDLED = {
    "mux_sff.tnl": FFVariant.MUX,
    "gdi_sff.tnl": FFVariant.GDI,
    "approx_sff.tnl": FFVariant.APPROX,
}

_OFF, _MAYBE, _ON = 0, 1, 2
_BITS: dict[object, Bit] = {0: 0, 1: 1, X: X}


class NetworkSyntaxError(ScanforgeError):
    code = "switchsim.syntax"


class DanglingNodeError(ScanforgeError):
    code = "switchsim.dangling_node"


class MissingSupplyError(ScanforgeError):
    code = "switchsim.missing_supply"


class StimulusError(ScanforgeError):
    code = "switchsim.stimulus"


class OscillationError(ScanforgeError):
    """No fixed point within MAX_ITERS rounds; carries the still-changing nodes."""

    code = "switchsim.oscillation"

    def __init__(self, nodes: Iterable[str]):
        self.nodes = frozenset(nodes)
        super().__init__(
            "no fixed point, oscillating nodes: " + ", ".join(sorted(self.nodes))
        )


class TransistorType(str, Enum):
    NMOS = "N"
    PMOS = "P"


class Transistor(NamedTuple):
    id: str
    ttype: TransistorType
    gate: str
    src: str
    drn: str
    width: float


class NodeValue(NamedTuple):
    logic: Bit
    rank: float


class TransistorNetwork(FrozenRecord):
    """A cell's nodes (VDD and GND included), ports and transistors.

    Its fields cannot be assigned, so the compiled form built on first use
    stays the network's own.
    """

    _fields = ("nodes", "storage", "inputs", "outputs", "transistors")

    def __init__(
        self,
        nodes: tuple[str, ...],
        storage: frozenset[str],
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        transistors: tuple[Transistor, ...],
    ) -> None:
        super().__init__(nodes, storage, inputs, outputs, transistors)

    @cached_property
    def compiled(self) -> "CompiledNetwork":
        """The network's compiled form, built on first use and then kept."""
        return CompiledNetwork(self)


class CompiledNetwork:
    """A transistor network by node index, with its clock-cycle memo.

    Built once per network object by ``TransistorNetwork.compiled``; ``settle``
    and ``SwitchFF`` read it. ``gates[t]`` is transistor t's (on level, gate
    node): 1 for an NMOS, 0 for a PMOS. Parallel transistors on one unordered
    node pair (e.g. a transmission gate) form one channel edge, and edge e
    carries two messages: 2*e into its first node in name order, 2*e+1 into
    the other. ``messages[m]`` is message m's (target, source, devices,
    others, readers): a device is (transistor index, on level, driven rank,
    driven rank at the degraded width), and passes its own on level
    degraded; ``others`` are the messages into the source over its other
    edges, which with the source's own drive give the value m carries;
    ``readers`` are the messages out of the target over its other edges,
    the ones that read m. ``into[n]`` lists the messages node n joins into
    its value, none for a supply. ``pinned[n]`` is a supply's fixed value,
    else None. ``storage`` is the storage nodes in sorted order, the order of
    ``SwitchFF.state``, and ``cycles`` maps (charge, (DI, SI, SE)), the
    charge a clock cycle starts from and its pins, to (Q after the falling
    phase, new charge).
    """

    def __init__(self, net: TransistorNetwork):
        self.index = index = {n: i for i, n in enumerate(net.nodes)}
        widest = max((t.width for t in net.transistors), default=1.0)

        def rank(width: float) -> float:
            return RANK_DRIVEN_BASE + _DRIVEN_SPAN * (width / widest)

        on = [1 if t.ttype == TransistorType.NMOS else 0 for t in net.transistors]
        self.gates = tuple((on[ti], index[t.gate]) for ti, t in enumerate(net.transistors))
        self.pinned: list[Optional[tuple[Bit, float]]] = [None] * len(net.nodes)
        self.pinned[index[VDD]] = (1, RANK_SUPPLY)
        self.pinned[index[GND]] = (0, RANK_SUPPLY)
        groups: dict[frozenset, list[tuple]] = {}
        for ti, t in enumerate(net.transistors):
            groups.setdefault(frozenset((t.src, t.drn)), []).append(
                (ti, on[ti], rank(t.width), rank(t.width * DEGRADED_WIDTH_FACTOR))
            )
        ends: list[tuple[int, int, tuple]] = []  # per message: target, source, devices
        into: list[list[int]] = [[] for _ in net.nodes]
        for key, devices in groups.items():
            a, b = (index[n] for n in sorted(key))
            for target, source in ((a, b), (b, a)):
                if self.pinned[target] is None:
                    into[target].append(len(ends))
                ends.append((target, source, tuple(devices)))
        self.into = tuple(tuple(ms) for ms in into)
        self.messages = tuple(
            (
                target, source, devices,
                tuple(u for u in self.into[source] if u != m ^ 1),
                tuple(u ^ 1 for u in self.into[target] if u != m),
            )
            for m, (target, source, devices) in enumerate(ends)
        )
        self.input_rank = rank(INPUT_DRIVE_WIDTH)
        self.storage = tuple(sorted(net.storage))
        self.cycles: dict = {}


def _join(a: tuple[Bit, float], b: tuple[Bit, float]) -> tuple[Bit, float]:
    """Two contributions to one node as one: the higher rank wins; at equal
    rank the logic stays only if both agree and it is not X."""
    if a[1] != b[1]:
        return a if a[1] > b[1] else b
    return a if a[0] == b[0] else (X, a[1])


def _bit(bit: object, node: str) -> Bit:
    """A stimulus value as a bit; anything but 0, 1 or X names its node."""
    try:
        return _BITS[bit]
    except (KeyError, TypeError):
        raise StimulusError(f"{node!r} given {bit!r}, not 0, 1 or X") from None


def settle(
    net: TransistorNetwork,
    inputs: Mapping[str, Bit],
    charge: Optional[Mapping[str, Bit]] = None,
) -> dict[str, NodeValue]:
    """Evaluate to a fixed point and return every node's resolved value.

    ``inputs`` must give 0, 1 or X for exactly the io-in nodes; ``charge``
    gives storage-node contents from the previous phase (missing entries
    float as X charge). Each fixed-point loop runs at most ``MAX_ITERS``
    rounds.
    """
    for name in inputs:
        if name not in net.inputs:
            raise StimulusError(f"{name!r} is not an input node")
    missing = [n for n in net.inputs if n not in inputs]
    if missing:
        raise StimulusError(f"uncovered input nodes: {', '.join(sorted(missing))}")
    charge = charge or {}
    for name in charge:
        if name not in net.storage:
            raise StimulusError(f"{name!r} is not a storage node")

    c = net.compiled
    nodes, messages, into = net.nodes, c.messages, c.into
    # each node's own drive: a supply's pinned value, else the join of its
    # input pin and its charge (None for neither)
    own = list(c.pinned)
    drives = [(n, _bit(inputs[n], n), c.input_rank) for n in net.inputs]
    drives += [(n, _bit(charge.get(n, X), n), RANK_CHARGED) for n in c.storage]
    for name, bit, rank in drives:
        i = c.index[name]
        own[i] = (bit, rank) if own[i] is None else _join(own[i], (bit, rank))

    def joined(n: int, heard: Iterable[int], msgs: list) -> Optional[tuple[Bit, float]]:
        value = own[n]
        for u in heard:
            got = msgs[u]
            if got is not None:
                value = got if value is None else _join(value, got)
        return value

    def solve_edges(conduction: list[int]) -> list[tuple[Bit, float]]:
        msgs: list[Optional[tuple[Bit, float]]] = [None] * len(messages)
        pending: Iterable[int] = range(len(messages))
        for _ in range(MAX_ITERS):
            changed = []
            for m in pending:
                _, source, devices, others, _ = messages[m]
                value = joined(source, others, msgs)
                sent = None
                if value is not None:  # else the source floats and passes nothing
                    logic, rank = value
                    for ti, on, full, degraded in devices:
                        state = conduction[ti]
                        if state == _OFF:
                            continue
                        if rank >= RANK_DRIVEN_BASE:
                            if state == _ON:
                                got = (logic, degraded if logic == on else full)
                            else:
                                got = (X, full)
                        else:  # a charged source shares its charge
                            got = (X if state == _MAYBE else logic, RANK_CHARGED)
                        sent = got if sent is None else _join(sent, got)
                if sent != msgs[m]:
                    changed.append((m, sent))
            if not changed:
                break
            pending = set()
            for m, sent in changed:
                msgs[m] = sent
                pending.update(messages[m][4])
        else:
            raise OscillationError(
                nodes[messages[m][0]] for m, _ in changed if c.pinned[messages[m][0]] is None
            )
        return [
            (X, RANK_FLOATING) if v is None else v
            for v in (joined(n, heard, msgs) for n, heard in enumerate(into))
        ]

    values = [(X, RANK_FLOATING) if v is None else v for v in own]
    prev = values
    for _ in range(MAX_ITERS):
        conduction = []
        for on, gate in c.gates:
            g = values[gate][0]
            conduction.append(_MAYBE if g is None else _ON if g == on else _OFF)
        new_values = solve_edges(conduction)
        if new_values == values:
            return {n: NodeValue(*v) for n, v in zip(nodes, values)}
        prev, values = values, new_values
    raise OscillationError(n for n, p, v in zip(nodes, prev, values) if p != v)


class SwitchFF:
    """Stateful wrapper: one flip-flop network stepped cycle by cycle.

    ``state`` is the storage-node charge in sorted node order; it persists
    between cycles and may be assigned to restore an earlier charge. Clock
    cycles are memoised on the network (``_cycle``), so every ``SwitchFF``
    on one network shares them; ``step_phase`` settles on every call.
    """

    def __init__(self, net: TransistorNetwork):
        self.net = net
        self.state: tuple[Bit, ...] = (X,) * len(net.compiled.storage)

    def step_phase(self, pins: Mapping[str, Bit]) -> dict[str, NodeValue]:
        """Settle one phase from ``state``, which becomes the charge it leaves."""
        net = self.net
        c = net.compiled
        if len(self.state) != len(c.storage):
            raise StimulusError(
                f"state has {len(self.state)} charges; the network has"
                f" {len(c.storage)} storage nodes"
            )
        inputs = {n: pins.get(n, X) for n in net.inputs}
        settled = settle(net, inputs, dict(zip(c.storage, self.state)))
        self.state = tuple(settled[n].logic for n in c.storage)
        return settled

    def cycle(self, di: Bit, si: Bit, se: Bit) -> Bit:
        """One clock cycle, CLK high then low; Q's logic after the falling phase."""
        pins = (_bit(di, "DI"), _bit(si, "SI"), _bit(se, "SE"))
        q, self.state = _cycle(self.net, self.state, pins)
        return q


def _cycle(
    net: TransistorNetwork, charge: tuple[Bit, ...], pins: tuple[Bit, Bit, Bit]
) -> tuple[Bit, tuple[Bit, ...]]:
    """``SwitchFF.cycle`` from ``charge`` under (DI, SI, SE): (Q, new charge).

    The network's cycle memo is keyed by the charge the cycle starts from; a
    miss settles both phases (a charge of the wrong length, which no key
    has, is refused there) and stores the result only once Q is read.
    """
    memo = net.compiled.cycles
    hit = memo.get((charge, pins))
    if hit is None:
        ff = SwitchFF(net)
        ff.state = charge
        named = dict(zip(("DI", "SI", "SE"), pins))
        ff.step_phase({"CLK": 1, **named})
        q = ff.step_phase({"CLK": 0, **named}).get("Q")
        if q is None:
            raise StimulusError("the network has no node named Q to sample")
        hit = memo[(charge, pins)] = (q.logic, ff.state)
    return hit


def run_cycles(
    net: TransistorNetwork, stimulus: Sequence[tuple[Bit, Bit, Bit]]
) -> list[Bit]:
    """Full clock cycles (``SwitchFF.cycle``); Q sampled after each falling phase."""
    ff = SwitchFF(net)
    return [ff.cycle(di, si, se) for di, si, se in stimulus]


def check_behavioral(
    net: TransistorNetwork,
    variant: Optional[FFVariant],
    rng: random.Random,
    vectors: int,
) -> tuple[int, int]:
    """Check a network against the ``ffmodel`` cycle model; (sequences, mismatches).

    The stimulus is every length-4 sequence of (DI, SI, SE) bits, 4,096 of
    them, plus ``vectors`` random length-8 ones, each started from X charge
    on every storage node. A mismatch is a cycle where
    the network's Q after the falling phase differs from the model's Q (known
    in every cycle, since every pin is a bit); the count is over all cycles
    of all sequences.

    Sequences are not replayed one by one. After one cycle the model's Q is
    ``ff_selected_input`` of that cycle's pins, whatever it held before, so a
    state of the product machine is the storage charge alone, and each step
    reads the network's cycle memo of (charge, pins). The exhaustive part
    counts the prefixes that reach each state, so a mismatch at depth d
    stands for ``count * 8**(3 - d)`` sequences; the random part steps the
    memo with the draws a replay would make, in the same order. A negative
    ``vectors`` raises StimulusError before any phase is settled.
    """
    if vectors < 0:
        raise StimulusError(f"vectors must be >= 0, got {vectors}")

    all_pins = list(itertools.product((0, 1), repeat=3))
    model = {pins: ff_selected_input(variant, *pins) for pins in all_pins}

    def step(state: tuple, pins: tuple[int, int, int]) -> tuple[tuple, bool]:
        q, new = _cycle(net, state, pins)
        return new, q != model[pins]

    start = SwitchFF(net).state
    mismatches = 0
    level = {start: 1}
    for depth in range(4):
        weight = len(all_pins) ** (3 - depth)
        reached: dict = {}
        for state, count in level.items():
            for pins in all_pins:
                new, bad = step(state, pins)
                mismatches += bad * count * weight
                reached[new] = reached.get(new, 0) + count
        level = reached
    for _ in range(vectors):
        state = start
        for _ in range(8):
            state, bad = step(state, (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)))
            mismatches += bad
    return len(all_pins) ** 4 + vectors, mismatches


def load_network(text: str) -> TransistorNetwork:
    """Parse the .tnl format; see the bundled *_sff.tnl fixtures."""
    nodes: list[str] = []
    node_set: set[str] = set()
    storage: set[str] = set()
    inputs: list[str] = []
    outputs: list[str] = []
    transistors: list[Transistor] = []
    tran_ids: set[str] = set()
    supplies: set[str] = set()

    def declare(name: str, lineno: int) -> None:
        if name in node_set:
            raise NetworkSyntaxError(f"line {lineno}: node {name!r} declared twice")
        node_set.add(name)
        nodes.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        body = raw if pos < 0 else raw[:pos]
        toks = body.split()
        if not toks:
            continue
        word = toks[0]
        if word == "node":
            if len(toks) == 2:
                declare(toks[1], lineno)
            elif len(toks) == 3 and toks[2] == "storage":
                declare(toks[1], lineno)
                storage.add(toks[1])
            else:
                raise NetworkSyntaxError(
                    f"line {lineno}: expected 'node <name> [storage]'"
                )
        elif word == "supply":
            if len(toks) != 2 or toks[1] not in (VDD, GND):
                raise NetworkSyntaxError(
                    f"line {lineno}: expected 'supply VDD' or 'supply GND'"
                )
            declare(toks[1], lineno)
            supplies.add(toks[1])
        elif word == "t":
            if len(toks) != 7:
                raise NetworkSyntaxError(
                    f"line {lineno}: expected 't <id> <N|P> <gate> <src> <drn> <width>'"
                )
            _, tid, ttype_s, gate, src, drn, width_s = toks
            if tid in tran_ids:
                raise NetworkSyntaxError(
                    f"line {lineno}: transistor {tid!r} declared twice"
                )
            tran_ids.add(tid)
            try:
                ttype = TransistorType(ttype_s)
            except ValueError:
                raise NetworkSyntaxError(
                    f"line {lineno}: transistor type must be N or P"
                ) from None
            try:
                width = float(width_s)
            except ValueError:
                raise NetworkSyntaxError(
                    f"line {lineno}: bad width {width_s!r}"
                ) from None
            if not 0 < width < math.inf:
                raise NetworkSyntaxError(f"line {lineno}: width must be finite and > 0")
            for name in (gate, src, drn):
                if name not in node_set:
                    raise DanglingNodeError(
                        f"line {lineno}: transistor {tid!r} references "
                        f"undeclared node {name!r}"
                    )
            if gate in (src, drn):
                raise NetworkSyntaxError(
                    f"line {lineno}: transistor {tid!r} gate shorts its own channel"
                )
            if src == drn:
                raise NetworkSyntaxError(
                    f"line {lineno}: transistor {tid!r} channel terminals are shorted"
                )
            transistors.append(Transistor(tid, ttype, gate, src, drn, width))
        elif word == "io":
            if len(toks) != 3 or toks[1] not in ("in", "out"):
                raise NetworkSyntaxError(
                    f"line {lineno}: expected 'io <in|out> <name>'"
                )
            name = toks[2]
            if name not in node_set:
                raise DanglingNodeError(
                    f"line {lineno}: io references undeclared node {name!r}"
                )
            if name in supplies:
                raise NetworkSyntaxError(f"line {lineno}: supply cannot be io")
            (inputs if toks[1] == "in" else outputs).append(name)
        else:
            raise NetworkSyntaxError(f"line {lineno}: unknown directive {word!r}")

    for name in (VDD, GND):
        if name not in supplies:
            raise MissingSupplyError(f"missing 'supply {name}' declaration")
    for name in storage:
        if name in supplies:
            raise NetworkSyntaxError(f"supply {name} cannot be a storage node")

    return TransistorNetwork(
        nodes=tuple(nodes),
        storage=frozenset(storage),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        transistors=tuple(transistors),
    )


def load_network_file(path: str) -> TransistorNetwork:
    return load_network(read_text(path))


def bundled_network(variant: FFVariant) -> TransistorNetwork:
    """The shipped transistor-level encoding of one scan flip-flop variant."""
    name = next(name for name, v in BUNDLED.items() if v is variant)
    text = (Path(__file__).parent / "data" / name).read_text("utf-8")
    return load_network(text)
