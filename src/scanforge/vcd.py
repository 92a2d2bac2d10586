"""Waveform dump in VCD text form, one timestep per simulated cycle.

Output is deterministic: nets are sorted by name, identifier codes are
assigned in that order, and only value changes are emitted after the initial
dump, so identical traces produce byte-identical files.

The body is built a cycle at a time straight from the trace's two-rail
lanes, with no Python object per value change and no character per net per
cycle. Each net's value and known rails are packed once, in net order, as
little-endian bytes, eight cycles to a byte. Every eighth cycle one strided
slice of each rail gathers the next byte of every net into an int, one byte
per net. A cycle's state then takes one shift and one AND per rail against
a constant with 0x01 in every byte: 0 for a known 0, 1 for a known 1 and 2
for an unknown, whatever its value rail holds. XORing the state with the
cycle before and folding the two bits of each byte together gives a keep
mask, 0xFF for each net whose character changed and 0 for the rest. The
state plus one (1, 2 or 3), ANDed with the mask, translates to ``0``, ``1``
or ``x`` with the NULs of the unchanged nets deleted. Each column of the id
codes is kept as an int with one byte per net, codes shorter than the
longest padded with ``\x01``, and is selected by the same mask. The value
column and the code columns are interleaved into a newline-filled buffer
with one strided slice assignment each, and deleting ``\x01`` leaves
exactly the lines of the changed nets. Neither NUL nor ``\x01`` occurs in
the text itself: values are ``0``, ``1`` or ``x``, codes use ``!`` to
``~``, and the only other bytes are the newline and the timestamps. The
working memory is the packed rails, two bits per net per cycle, and O(nets)
per cycle; ``dump_vcd`` writes each cycle as it is built.
"""

from __future__ import annotations

from typing import Iterator, Union

from .protocol import ProtocolTrace

_ID_CHARS = [chr(c) for c in range(33, 127)]
# translate table: a changed net's state plus one (1, 2, 3) becomes its value
_VALUES = bytes.maketrans(b"\x01\x02\x03", b"01x")


def _id_codes(count: int) -> list[str]:
    """The first ``count`` id codes: every one-character code, then every
    two-character one, and so on, each length in lexicographic order."""
    codes: list[str] = []
    level = [""]
    while len(codes) < count:
        need = count - len(codes)
        # only the first prefixes of the shorter codes lead to needed ones
        level = [a + c for a in level[:-(-need // len(_ID_CHARS))] for c in _ID_CHARS]
        codes += level[:need]
    return codes


def _chunks(trace: ProtocolTrace) -> Iterator[Union[str, bytes]]:
    """The header as one str, then the body as bytes, a cycle at a time."""
    if not trace.cycles:
        raise ValueError("trace has no cycles to dump")
    nets = sorted(trace.nets)
    codes = _id_codes(len(nets))
    width = len(codes[-1]) if codes else 1

    lines = [
        "$version scanforge $end",
        "$timescale 1ns $end",
        f"$scope module {trace.netlist_name} $end",
    ]
    lines += [f"$var wire 1 {code} {net} $end" for code, net in zip(codes, nets)]
    lines += ["$upscope $end", "$enddefinitions $end", ""]
    yield "\n".join(lines)

    count = len(nets)
    size = width + 2  # a line: value, code, newline
    padded = "".join([code.ljust(width, "\x01") for code in codes]).encode()
    columns = [int.from_bytes(padded[j::width], "big") for j in range(width)]
    ones = int.from_bytes(b"\x01" * count, "big")
    full = ones * 255

    def changed(head: bytes, state: int, keep: int) -> bytes:
        """``head``, then the line of every net whose byte of ``keep`` is 0xFF."""
        values = ((state + ones) & keep).to_bytes(count, "big").translate(_VALUES, b"\0")
        out = bytearray(head) + b"\n" * (len(values) * size)
        start = len(head)
        out[start::size] = values
        for j, column in enumerate(columns, start + 1):
            out[j::size] = (column & keep).to_bytes(count, "big").translate(None, b"\0")
        # bytes, not the bytearray: to_vcd holds every cycle's chunk
        return bytes(out).translate(None, b"\x01")

    # Byte j of net i's rail is rails[i * stride + j], so byte j of every
    # net, in net order, is rails[j::stride]; its bit b is cycle 8j + b.
    stride = -(-trace.cycles // 8)
    index = trace.netlist.compiled.index
    ids = [index[net] for net in nets]
    value = b"".join([trace.value_lanes[i].to_bytes(stride, "little") for i in ids])
    known = b"".join([trace.known_lanes[i].to_bytes(stride, "little") for i in ids])
    for t in range(trace.cycles):
        bit = t & 7
        if not bit:
            k = int.from_bytes(known[t >> 3::stride], "big")
            one = int.from_bytes(value[t >> 3::stride], "big") & k
            unknown = k ^ full
        state = ((one >> bit) & ones) | ((unknown >> bit) & ones) << 1
        if t:
            diff = state ^ prev
            yield changed(b"#%d\n" % t, state, ((diff | diff >> 1) & ones) * 255)
        else:
            yield changed(b"#0\n$dumpvars\n", state, full) + b"$end\n"
        prev = state


def to_vcd(trace: ProtocolTrace) -> str:
    chunks = _chunks(trace)
    header = next(chunks)
    return header + b"".join(chunks).decode("ascii")


def dump_vcd(trace: ProtocolTrace, path: str) -> None:
    chunks = _chunks(trace)
    header = next(chunks)  # an empty trace raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(chunks)
