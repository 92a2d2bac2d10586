"""Structural netlist data model plus the .snl and .pat file formats.

A netlist is a flat module of 1/2-input gates, plain D flip-flops, and scan
flip-flops, all clocked by one implicit global net CLK (never written in the
file). Nets are implicitly declared by first use; ports are declared by
``input``/``output`` lines. Declaration order is meaningful: it defines the
default scan-stitch order and is preserved by the serializer.

Grammar (.snl), one directive per line, '#' starts a comment:

    module <name>
    input <net> [<net> ...]
    output <net> [<net> ...]
    gate <id> <TYPE> <out> <in> [<in>]
    dff <id> <Q> <DI>
    scanff <id> <MUX|GDI|APPROX> <Q> <DI> <SI> <SE>
    endmodule

Rows are read by ``errors.token_rows``, as those of .pat and .tnl files
are. Lines are those of ``str.splitlines()`` (so a vertical tab or form
feed also ends one), and tokens are separated by ``str.split()``
whitespace, any character for which ``str.isspace()`` holds. Syntax
errors carry a 1-based line and column; the column counts code points from the start of the line,
in the text left once the comment is cut.

An ``input``, ``output``, ``gate``, ``dff`` or ``scanff`` row is checked in
one step: its identifier tokens, joined by spaces, make one match of one
anchored pattern, beside its arity, its gate type or variant (one dict
lookup) and the absence of CLK. It is built on that one path. Only a row
that fails is checked again token by token, by ``_refuse``, which finds and
raises its first error with the class, message and position it always had.

Pattern files (.pat) hold one bit vector per line, leftmost bit shifted
first, with an optional ``-> <expected>`` response suffix.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress
from typing import NamedTuple, Optional, Union

from .errors import Row, ScanforgeError, read_text, token_rows
from .kinds import FFVariant, FrozenRecord, GateType

CLK_NET = "CLK"

_IDENT = r"[A-Za-z_][A-Za-z0-9_$.\[\]]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
# a row's identifier tokens joined by single spaces (no token holds one)
_IDENTS_RE = re.compile(rf"{_IDENT}(?: {_IDENT})*\Z")
# each gate type by value (the lookup GateType(value) makes) with its row's length
_GATE_ROWS = {t.value: (t, 4 + t.num_inputs) for t in GateType}
_VARIANTS = {v.value: v for v in FFVariant}


class NetlistSyntaxError(ScanforgeError):
    """Malformed .snl text; carries the 1-based line and column."""

    code = "netlist.syntax"

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateInstanceError(ScanforgeError):
    code = "netlist.duplicate_instance"


class MultiplyDrivenNetError(ScanforgeError):
    code = "netlist.multiply_driven"


class UndrivenNetError(ScanforgeError):
    """A net is read (instance input or module output) but nothing drives it."""

    code = "netlist.undriven"


class CombinationalCycleError(ScanforgeError):
    code = "netlist.comb_cycle"


class PatternSyntaxError(ScanforgeError):
    code = "patterns.syntax"


class PatternWidthError(ScanforgeError):
    code = "patterns.width"


class Gate(NamedTuple):
    id: str
    gtype: GateType
    out: str
    ins: tuple[str, ...]


class Dff(NamedTuple):
    id: str
    q: str
    di: str

    @property
    def input_nets(self) -> tuple[str, ...]:
        return (self.di,)


class ScanFF(NamedTuple):
    id: str
    variant: FFVariant
    q: str
    di: str
    si: str
    se: str

    @property
    def input_nets(self) -> tuple[str, ...]:
        return (self.di, self.si, self.se)


Instance = Union[Gate, Dff, ScanFF]
Flop = Union[Dff, ScanFF]


class Netlist(FrozenRecord):
    """A module's name, ports and instances, each in declaration order.

    Its fields cannot be assigned, so the compiled form built on first use
    stays the netlist's own; a changed netlist is a new ``Netlist`` built
    from the fields.
    """

    _fields = ("name", "inputs", "outputs", "instances")

    def __init__(
        self,
        name: str,
        inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        instances: tuple[Instance, ...],
    ) -> None:
        super().__init__(name, inputs, outputs, instances)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(i for i in self.instances if isinstance(i, Gate))

    @property
    def flops(self) -> tuple[Flop, ...]:
        """Flip-flops in declaration order (the default scan-chain order)."""
        return tuple(i for i in self.instances if not isinstance(i, Gate))

    def nets(self) -> set[str]:
        nets = set(self.inputs) | set(self.outputs)
        for inst in self.instances:
            if isinstance(inst, Gate):
                nets.add(inst.out)
                nets.update(inst.ins)
            else:
                nets.add(inst.q)
                nets.update(inst.input_nets)
        return nets

    def comb_order(self) -> tuple[Gate, ...]:
        """Gates in topological order (flip-flops cut). Raises on a cycle."""
        return self.compiled.gates

    @cached_property
    def compiled(self) -> "CompiledNetlist":
        """The netlist's compiled form, built on first use and then kept."""
        return CompiledNetlist(self)


# -- the compiled form -------------------------------------------------------

INV, BUF, AND2, NAND2, OR2, NOR2, XOR2 = range(7)

_OPCODE = {
    GateType.INV: INV,
    GateType.BUF: BUF,
    GateType.AND2: AND2,
    GateType.NAND2: NAND2,
    GateType.OR2: OR2,
    GateType.NOR2: NOR2,
    GateType.XOR2: XOR2,
}


class CompiledNetlist:
    """A checked netlist as integer net ids, a flat gate program and flop index arrays.

    Built once per netlist object by ``Netlist.compiled``, on first use,
    whether the netlist was parsed, built in code or returned by
    ``insert_scan``. Building it is the one structural check. It raises, in
    this order, on a duplicate instance id, an input declared twice, a net
    with a second driver, a read net with no driver (the first in instance
    order), an output with no driver, and a combinational cycle; so every
    compiled net has one driver.

    Net ids follow ``Netlist.nets()`` iteration order, which the string hash
    seed changes. ``estimate_power`` adds float energies in ``net_toggles``
    order, first toggle first with ties in id order, so the last bits of its
    figures do depend on the seed; the benchmark pins ``PYTHONHASHSEED``
    (see "Declaration-order net ids" in ROADMAP.md).
    Program step i is ``(op, out, a, b)`` for ``gates[i]``, sorted by Kahn's
    algorithm from declaration order, with ``b == a`` for one-input gates.
    Flop arrays follow ``Netlist.flops``; ``ff_si`` and ``ff_se`` are -1 for
    a plain D flip-flop. ``enable`` is the enable net every scan flop
    shares, or -1 if they do not share one.

    It also keeps what its users derive once and then reuse: ``flop_cone``,
    the program steps that cycle simulation walks, ``cone_inputs``, the
    primary inputs those steps read, ``toggle_roots``, the nets whose
    toggles a trace counts and the INV/BUF outputs that share them, and
    ``walks``, the most
    recent longest-path walk of ``sta`` (one entry, keyed by its gate-delay
    table, so memory stays O(nets)).
    """

    def __init__(self, n: Netlist):
        instances = n.instances
        if len({inst.id for inst in instances}) < len(instances):
            ids: set[str] = set()
            for inst in instances:
                if inst.id in ids:
                    raise DuplicateInstanceError(f"duplicate instance id {inst.id!r}")
                ids.add(inst.id)

        # each driven net's driver: -1 for an input or a flop Q, else the
        # gate's index in declaration order
        driver: dict[str, int] = {}
        for net in n.inputs:
            if net in driver:
                raise MultiplyDrivenNetError(f"net {net!r} declared input twice")
            driver[net] = -1
        gates: list[Gate] = []
        flops: list[Flop] = []
        for inst in instances:
            if isinstance(inst, Gate):
                out, index = inst.out, len(gates)
                gates.append(inst)
            else:
                out, index = inst.q, -1
                flops.append(inst)
            if out in driver:
                raise MultiplyDrivenNetError(
                    f"net {out!r} has more than one driver (instance {inst.id!r})"
                )
            driver[out] = index

        # Kahn's sort: a gate waits for each of its inputs that a gate drives
        indegree = [0] * len(gates)
        readers: list[list[int]] = [[] for _ in gates]
        for inst in instances:
            if isinstance(inst, Gate):
                reader, ins = driver[inst.out], inst.ins
            else:
                reader, ins = -1, inst.input_nets
            for net in ins:
                src = driver.get(net)
                if src is None:
                    raise UndrivenNetError(
                        f"net {net!r} read by instance {inst.id!r} has no driver"
                    )
                if src >= 0 and reader >= 0:
                    indegree[reader] += 1
                    readers[src].append(reader)
        for net in n.outputs:
            if net not in driver:
                raise UndrivenNetError(f"output net {net!r} has no driver")
        ready = [i for i, waits in enumerate(indegree) if not waits]
        for i in ready:  # grows as the loop runs
            for succ in readers[i]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    ready.append(succ)
        if len(ready) < len(gates):
            stuck = sorted(gates[i].id for i, waits in enumerate(indegree) if waits)
            raise CombinationalCycleError(
                f"combinational cycle through gates: {', '.join(stuck)}"
            )

        self.nets: tuple[str, ...] = tuple(n.nets())
        self.index = index = {net: i for i, net in enumerate(self.nets)}
        self.inputs = {net: index[net] for net in n.inputs}
        self.outputs = tuple(index[net] for net in n.outputs)
        self.gates = tuple(gates[i] for i in ready)
        self.program = tuple(
            (_OPCODE[g.gtype], index[g.out], index[g.ins[0]], index[g.ins[-1]])
            for g in self.gates
        )
        self.drivers = {g.out: g.gtype for g in self.gates}
        scan = [f if isinstance(f, ScanFF) else None for f in flops]
        self.ff_ids = tuple(f.id for f in flops)
        self.ff_q = tuple(index[f.q] for f in flops)
        self.ff_di = tuple(index[f.di] for f in flops)
        self.ff_si = tuple(index[s.si] if s else -1 for s in scan)
        self.ff_se = tuple(index[s.se] if s else -1 for s in scan)
        self.ff_approx = tuple(bool(s) and s.variant is FFVariant.APPROX for s in scan)
        enables = {se for se in self.ff_se if se >= 0}
        self.enable = enables.pop() if len(enables) == 1 else -1
        self.walks: dict[tuple, tuple[list[float], list[int], list[int]]] = {}
        self._flop_cone: Optional[tuple[tuple[int, int, int, int], ...]] = None
        self._cone_inputs: Optional[frozenset[int]] = None
        self._toggle_roots: Optional[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = None

    @property
    def flop_cone(self) -> tuple[tuple[int, int, int, int], ...]:
        """The program steps that feed some flop's DI, SI or SE, or the enable.

        Found on first use. It is kept in an attribute set in ``__init__``,
        not by ``cached_property``: on CPython 3.11 writing through
        ``__dict__`` slows every later attribute read of the object, and
        the simulator reads these arrays in its loops.
        """
        if self._flop_cone is None:
            need = {*self.ff_di, *self.ff_si, *self.ff_se, self.enable}
            steps = []
            for step in reversed(self.program):
                if step[1] in need:
                    steps.append(step)
                    need.add(step[2])
                    need.add(step[3])
            self._flop_cone = tuple(steps[::-1])
        return self._flop_cone

    @property
    def cone_inputs(self) -> frozenset[int]:
        """The ids of the primary inputs that some step of ``flop_cone`` reads."""
        if self._cone_inputs is None:
            reads = {i for step in self.flop_cone for i in step[2:]}
            self._cone_inputs = frozenset(reads.intersection(self.inputs.values()))
        return self._cone_inputs

    @property
    def toggle_roots(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The net ids whose toggles are counted, in id order, and each INV or
        BUF output, in program order, with the counted id whose toggles it
        shares.

        An INV or BUF output flips in exactly the cycles its input flips, so
        a chain of them shares the toggles of the net at its head. Found on
        first use, and kept as ``flop_cone`` is.
        """
        if self._toggle_roots is None:
            root = list(range(len(self.nets)))
            counted = bytearray(b"\x01") * len(root)
            shared = []
            # in program order a one-input gate's input is resolved first
            for op, out, a, _ in self.program:
                if op <= BUF:
                    root[out] = head = root[a]
                    counted[out] = 0
                    shared.append((out, head))
            self._toggle_roots = tuple(compress(range(len(root)), counted)), tuple(shared)
        return self._toggle_roots


def _at(row: Row, index: int = 0) -> tuple[int, int]:
    """1-based (line, column) of token ``index`` of a row; used only to raise.

    The line is scanned again token by token, so a token that occurs more
    than once on it gets the column of its own occurrence.
    """
    lineno, body, words = row
    end = 0
    for word in words[: index + 1]:
        start = body.find(word, end)
        end = start + len(word)
    return lineno, start + 1


def _require_ident(row: Row, index: int, what: str) -> str:
    word = row[2][index]
    if not _IDENT_RE.match(word):
        raise NetlistSyntaxError(f"bad {what} {word!r}", *_at(row, index))
    if word == CLK_NET:
        raise NetlistSyntaxError(
            f"{CLK_NET} is the implicit clock and may not be named", *_at(row, index)
        )
    return word


def _require_arity(row: Row, count: int) -> None:
    words = row[2]
    if len(words) != count:
        raise NetlistSyntaxError(
            f"{words[0]!r} expects {count - 1} arguments, got {len(words) - 1}", *_at(row)
        )


def _refuse(row: Row, output_decls: set[str]) -> None:
    """Raise the first error of an instance or port row that the one match refused.

    The per-token checks of its directive, in the order its errors rank,
    ending with each net name (and, on an ``output`` row, whether that net
    was declared before).
    """
    words = row[2]
    word = words[0]
    first = 1
    if word == "gate":
        if len(words) < 4:
            raise NetlistSyntaxError("'gate' expects <id> <TYPE> <out> <in>...", *_at(row))
        _require_ident(row, 1, "instance id")
        try:
            gtype = GateType(words[2].upper())
        except ValueError:
            raise NetlistSyntaxError(
                f"unknown gate type {words[2]!r}", *_at(row, 2)
            ) from None
        _require_arity(row, 4 + gtype.num_inputs)
        first = 3
    elif word == "dff":
        _require_arity(row, 4)
        _require_ident(row, 1, "instance id")
        first = 2
    elif word == "scanff":
        _require_arity(row, 7)
        _require_ident(row, 1, "instance id")
        try:
            FFVariant(words[2].lower())
        except ValueError:
            raise NetlistSyntaxError(
                f"unknown scan flip-flop variant {words[2]!r}", *_at(row, 2)
            ) from None
        first = 3
    elif len(words) < 2:
        raise NetlistSyntaxError(f"{word!r} expects at least one net", *_at(row))
    for i in range(first, len(words)):
        net = _require_ident(row, i, "net name")
        if word == "output" and (net in output_decls or net in words[1:i]):
            raise NetlistSyntaxError(f"net {net!r} declared output twice", *_at(row, i))


def parse_netlist(text: str) -> Netlist:
    rows = token_rows(text)
    if not rows:
        raise NetlistSyntaxError("empty file, expected 'module'", 1)

    head = rows[0]
    if head[2][0] != "module":
        raise NetlistSyntaxError(f"expected 'module', got {head[2][0]!r}", *_at(head))
    _require_arity(head, 2)
    name = _require_ident(head, 1, "module name")
    pos = 1

    inputs: list[str] = []
    outputs: list[str] = []
    instances: list[Instance] = []
    output_decls: set[str] = set()
    ended = False
    match = _IDENTS_RE.match

    # An instance or port row is built once one match of its identifier
    # tokens, its arity and its type pass; else _refuse raises its error.
    while pos < len(rows):
        row = rows[pos]
        pos += 1
        words = row[2]
        word = words[0]
        if word == "gate":
            kind = _GATE_ROWS.get(words[2].upper()) if len(words) > 3 else None
            if not (
                kind
                and len(words) == kind[1]
                and CLK_NET not in words
                and match(" ".join([words[1], *words[3:]]))
            ):
                _refuse(row, output_decls)
            # tuple.__new__ skips the named tuple's generated Python __new__,
            # the largest cost of a row after its match
            instances.append(tuple.__new__(Gate, (words[1], kind[0], words[3], tuple(words[4:]))))
        elif word == "dff":
            if not (len(words) == 4 and CLK_NET not in words and match(" ".join(words[1:]))):
                _refuse(row, output_decls)
            instances.append(Dff(words[1], words[2], words[3]))
        elif word == "scanff":
            variant = _VARIANTS.get(words[2].lower()) if len(words) == 7 else None
            if not (
                variant and CLK_NET not in words and match(" ".join([words[1], *words[3:]]))
            ):
                _refuse(row, output_decls)
            instances.append(ScanFF(words[1], variant, *words[3:]))
        elif word == "input" or word == "output":
            nets = words[1:]
            fresh = word == "input" or (
                output_decls.isdisjoint(nets) and len(set(nets)) == len(nets)
            )
            if not (nets and fresh and CLK_NET not in nets and match(" ".join(nets))):
                _refuse(row, output_decls)
            if word == "input":
                inputs += nets
            else:
                outputs += nets
                output_decls.update(nets)
        elif word == "endmodule":
            _require_arity(row, 1)
            ended = True
            break
        elif word == "module":
            raise NetlistSyntaxError("nested module", *_at(row))
        else:
            raise NetlistSyntaxError(f"unknown directive {word!r}", *_at(row))

    if not ended:
        raise NetlistSyntaxError("missing 'endmodule'", *_at(rows[-1]))
    if pos < len(rows):
        raise NetlistSyntaxError("text after 'endmodule'", *_at(rows[pos]))

    n = Netlist(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        instances=tuple(instances),
    )
    n.compiled  # compiling checks the structure
    return n


def serialize_netlist(n: Netlist) -> str:
    lines = [f"module {n.name}"]
    if n.inputs:
        lines.append("input " + " ".join(n.inputs))
    if n.outputs:
        lines.append("output " + " ".join(n.outputs))
    for inst in n.instances:
        if isinstance(inst, Gate):
            lines.append(
                f"gate {inst.id} {inst.gtype.value} {inst.out} " + " ".join(inst.ins)
            )
        elif isinstance(inst, Dff):
            lines.append(f"dff {inst.id} {inst.q} {inst.di}")
        else:
            lines.append(
                f"scanff {inst.id} {inst.variant.value.upper()} "
                f"{inst.q} {inst.di} {inst.si} {inst.se}"
            )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


class PatternSet(NamedTuple):
    """Scan vectors of one width and each one's expected response or None."""

    chain_length: int
    vectors: tuple[str, ...]
    expected: tuple[Optional[str], ...]


_BITS_RE = re.compile(r"[01]+\Z")


def parse_patterns(text: str, chain_length: int) -> PatternSet:
    """Parse a .pat file; every vector must be exactly chain_length bits."""
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    vectors: list[str] = []
    expected: list[Optional[str]] = []
    for lineno, _, parts in token_rows(text):
        if len(parts) == 1:
            vec, exp = parts[0], None
        elif len(parts) == 3 and parts[1] == "->":
            vec, exp = parts[0], parts[2]
        else:
            raise PatternSyntaxError(
                f"line {lineno}: expected '<bits>' or '<bits> -> <bits>'"
            )
        for s in (vec, exp):
            if s is None:
                continue
            if not _BITS_RE.match(s):
                raise PatternSyntaxError(
                    f"line {lineno}: illegal character in {s!r} (bits are 0/1)"
                )
            if len(s) != chain_length:
                raise PatternWidthError(
                    f"line {lineno}: vector {s!r} has width {len(s)}, "
                    f"chain length is {chain_length}"
                )
        vectors.append(vec)
        expected.append(exp)
    return PatternSet(
        chain_length=chain_length, vectors=tuple(vectors), expected=tuple(expected)
    )


def load_netlist(path: str) -> Netlist:
    return parse_netlist(read_text(path))


def load_patterns(path: str, chain_length: int) -> PatternSet:
    return parse_patterns(read_text(path), chain_length)
