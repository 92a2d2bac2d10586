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
at width-1.0 rank. Each node resolves to its strongest contribution;
equal-rank disagreement resolves to X.

Evaluation nests two fixed-point loops. The outer loop freezes every
transistor's conduction state (on / off / maybe) from the current node
values. The inner loop then solves the channel network by synchronous
message passing over channel edges (parallel transistors joining the same
node pair, e.g. a transmission gate, form one edge): the message an edge
sends into a node is computed from the far node's value EXCLUDING that same
edge's reverse message, so a value never reflects back through the device
that delivered it. Supplies are pinned and never relay. On the
tree-structured channel graphs of CMOS latches this converges exactly and
independently of transistor list order; a network where either loop is still
moving after ``MAX_ITERS`` rounds (e.g. a ring oscillator) raises
OscillationError with the unsettled nodes. A network is compiled on first use
into node indices, channel edges with their ranks and a memo of settled
phases (``TransistorNetwork.compiled``), kept on the network object only.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Iterable, Mapping, Optional, Sequence

from .cells import FFVariant
from .errors import ScanforgeError
from .ffmodel import ff_selected_input
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


@dataclass(frozen=True)
class Transistor:
    id: str
    ttype: TransistorType
    gate: str
    src: str
    drn: str
    width: float


@dataclass(frozen=True)
class NodeValue:
    logic: Bit
    rank: float


@dataclass(frozen=True)
class TransistorNetwork:
    nodes: tuple[str, ...]  # includes VDD/GND
    storage: frozenset[str]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    transistors: tuple[Transistor, ...]

    @cached_property
    def compiled(self) -> "CompiledNetwork":
        """The network's compiled form, built on first use and then kept."""
        return CompiledNetwork(self)


class CompiledNetwork:
    """A transistor network by node index, with its settled-phase memo.

    Built once per network object by ``TransistorNetwork.compiled``; ``settle``
    and ``SwitchFF`` read it. ``gates[t]`` is transistor t's (on level, gate
    node): 1 for an NMOS, 0 for a PMOS. An edge (a, b, devices) joins one
    unordered node pair; parallel transistors on the same pair (e.g. a
    transmission gate) share it. A device is (transistor index, on level,
    driven rank, driven rank at the degraded width); a device passes its own
    on level degraded. Edge ei's message into its node a sits in slot 2*ei,
    into b in 2*ei+1, and ``into[n]`` lists node n's (edge, slot) pairs.
    ``pinned[n]`` is a supply's fixed value, else None. ``storage`` is the
    storage nodes in sorted order, the order of ``SwitchFF.state``, and
    ``phases`` maps (input bits, charge) to (settled values, new charge).
    """

    def __init__(self, net: TransistorNetwork):
        self.index = index = {n: i for i, n in enumerate(net.nodes)}
        widest = max((t.width for t in net.transistors), default=1.0)

        def rank(width: float) -> float:
            return RANK_DRIVEN_BASE + _DRIVEN_SPAN * (width / widest)

        on = [1 if t.ttype == TransistorType.NMOS else 0 for t in net.transistors]
        self.gates = tuple((on[ti], index[t.gate]) for ti, t in enumerate(net.transistors))
        groups: dict[frozenset, list[tuple]] = {}
        for ti, t in enumerate(net.transistors):
            groups.setdefault(frozenset((t.src, t.drn)), []).append(
                (ti, on[ti], rank(t.width), rank(t.width * DEGRADED_WIDTH_FACTOR))
            )
        edges = []
        self.into: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
        for ei, (key, devices) in enumerate(groups.items()):
            a, b = (index[n] for n in sorted(key))
            edges.append((a, b, tuple(devices)))
            self.into[a].append((ei, 2 * ei))
            self.into[b].append((ei, 2 * ei + 1))
        self.edges = tuple(edges)
        self.pinned: list[Optional[tuple[Bit, float]]] = [None] * len(net.nodes)
        self.pinned[index[VDD]] = (1, RANK_SUPPLY)
        self.pinned[index[GND]] = (0, RANK_SUPPLY)
        self.input_rank = rank(INPUT_DRIVE_WIDTH)
        self.storage = tuple(sorted(net.storage))
        self.phases: dict = {}


def _resolve(contribs: list[tuple[Bit, float]]) -> tuple[Bit, float]:
    """The strongest contribution; X if any of the strongest is X or they disagree."""
    top, logic, clash = -1.0, X, True
    for cl, rank in contribs:
        if rank > top:
            top, logic, clash = rank, cl, cl is None
        elif rank == top and cl != logic:
            clash = True
    if top < RANK_FLOATING:
        return (X, RANK_FLOATING)
    return (X if clash else logic, top)


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
    nodes, edges, into, pinned = net.nodes, c.edges, c.into, c.pinned
    base: list[list[tuple[Bit, float]]] = [[] for _ in nodes]
    for name in net.inputs:
        base[c.index[name]].append((_bit(inputs[name], name), c.input_rank))
    for name in c.storage:
        base[c.index[name]].append((_bit(charge.get(name, X), name), RANK_CHARGED))

    def node_value(n: int, msgs: list, exclude: int) -> tuple[Bit, float]:
        fixed = pinned[n]
        if fixed is not None:
            return fixed
        return _resolve(base[n] + [
            msgs[slot] for ej, slot in into[n] if ej != exclude and msgs[slot] is not None
        ])

    def solve_edges(conduction: list[int]) -> list[tuple[Bit, float]]:
        msgs: list[Optional[tuple[Bit, float]]] = [None] * (2 * len(edges))
        for _ in range(MAX_ITERS):
            new_msgs = list(msgs)
            for ei, (a, b, devs) in enumerate(edges):
                for src, slot in ((a, 2 * ei + 1), (b, 2 * ei)):
                    logic, rank = node_value(src, msgs, ei)
                    contribs: list[tuple[Bit, float]] = []
                    for ti, on, full, degraded in devs:
                        state = conduction[ti]
                        if state == _OFF:
                            continue
                        if rank >= RANK_DRIVEN_BASE:
                            if state == _ON:
                                contribs.append((logic, degraded if logic == on else full))
                            else:
                                contribs.append((X, full))
                        elif rank == RANK_CHARGED:
                            contribs.append(
                                (X if state == _MAYBE else logic, RANK_CHARGED)
                            )
                    new_msgs[slot] = _resolve(contribs) if contribs else None
            if new_msgs == msgs:
                break
            msgs, last = new_msgs, msgs
        else:
            moving = (
                edges[slot // 2][slot % 2]
                for slot, (m, old) in enumerate(zip(msgs, last))
                if m != old
            )
            raise OscillationError(nodes[n] for n in moving if pinned[n] is None)
        return [node_value(n, msgs, -1) for n in range(len(nodes))]

    values = [
        _resolve(contribs) if fixed is None else fixed
        for fixed, contribs in zip(pinned, base)
    ]
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
    """Stateful wrapper: one flip-flop network stepped phase by phase.

    ``state`` is the storage-node charge in sorted node order; it persists
    between phases and may be assigned to restore an earlier charge. Settled
    phases are memoised on the network, keyed by (input bits, charge), so
    every ``SwitchFF`` on one network shares them.
    """

    def __init__(self, net: TransistorNetwork):
        self.net = net
        self.state: tuple[Bit, ...] = (X,) * len(net.compiled.storage)

    def step_phase(self, pins: Mapping[str, Bit]) -> dict[str, NodeValue]:
        net = self.net
        c = net.compiled
        if len(self.state) != len(c.storage):
            raise StimulusError(
                f"state has {len(self.state)} charges; the network has"
                f" {len(c.storage)} storage nodes"
            )
        inputs = {n: _bit(pins.get(n, X), n) for n in net.inputs}
        key = (tuple(inputs.values()), self.state)
        hit = c.phases.get(key)
        if hit is None:
            settled = settle(net, inputs, dict(zip(c.storage, self.state)))
            hit = c.phases[key] = (settled, tuple(settled[n].logic for n in c.storage))
        settled, self.state = hit
        return settled

    def cycle(self, di: Bit, si: Bit, se: Bit) -> Bit:
        """One clock cycle, CLK high then low; Q's logic after the falling phase."""
        self.step_phase({"CLK": 1, "DI": di, "SI": si, "SE": se})
        q = self.step_phase({"CLK": 0, "DI": di, "SI": si, "SE": se}).get("Q")
        if q is None:
            raise StimulusError("the network has no node named Q to sample")
        return q.logic


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
    state of the product machine is the storage charge alone, and ``step``
    memoises one switch-level clock cycle per (charge, pins). The exhaustive
    part counts the prefixes that reach each state, so a mismatch at depth d
    stands for ``count * 8**(3 - d)`` sequences; the random part steps the
    memo with the draws a replay would make, in the same order.
    """
    ff = SwitchFF(net)
    memo: dict = {}

    def step(state: tuple, pins: tuple[int, int, int]) -> tuple[tuple, bool]:
        hit = memo.get((state, pins))
        if hit is None:
            ff.state = state
            q = ff.cycle(*pins)
            model_q = ff_selected_input(variant, *pins)
            hit = memo[(state, pins)] = (ff.state, q != model_q)
        return hit

    start = ff.state
    mismatches = 0
    level = {start: 1}
    all_pins = list(itertools.product((0, 1), repeat=3))
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
    with open(path, "r", encoding="utf-8") as fh:
        return load_network(fh.read())


def bundled_network(variant: FFVariant) -> TransistorNetwork:
    """The shipped transistor-level encoding of one scan flip-flop variant."""
    name = next(name for name, v in BUNDLED.items() if v is variant)
    text = (resources.files(__package__) / "data" / name).read_text("utf-8")
    return load_network(text)
