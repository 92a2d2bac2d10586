"""Waveform dump in VCD text form, one timestep per simulated cycle.

Output is deterministic: nets are sorted by name, identifier codes are
assigned in that order, and only value changes are emitted after the initial
dump, so identical traces produce byte-identical files.

The body is built a cycle at a time from bytes, with no Python object per
value change. Each net has a fixed slot of ``2 + w`` bytes, where ``w`` is
the longest id code: its value, its code padded with NUL, and a newline.
Per cycle the values are written into the slots, the slots are ANDed (as
one int) with a mask that is 0xFF over the slot of every net whose value
differs from the cycle before and 0 elsewhere, and deleting every NUL
leaves exactly the lines of the changed nets. NUL never occurs in the text itself:
values are ``0``, ``1`` or ``x``, codes use ``!`` to ``~``, and the only
other byte is the newline. The working memory is O(nets) per cycle on top
of the trace's columns; ``dump_vcd`` writes each cycle as it is built.
"""

from __future__ import annotations

from typing import Iterator, Union

from .protocol import ProtocolTrace

_ID_CHARS = [chr(c) for c in range(33, 127)]
# translate table: a zero byte of a cycle's XOR stays 0, any other becomes 1
_CHANGED = bytes([0]) + bytes([1]) * 255


def _id_code(index: int) -> str:
    base = len(_ID_CHARS)
    out = _ID_CHARS[index % base]
    index //= base
    while index:
        index -= 1
        out = _ID_CHARS[index % base] + out
        index //= base
    return out


def _chunks(trace: ProtocolTrace, module: str) -> Iterator[Union[str, bytes]]:
    """The header as one str, then the body as bytes, a cycle at a time."""
    if not trace.cycles:
        raise ValueError("trace has no cycles to dump")
    nets = sorted(trace.nets)
    width = len(_id_code(max(len(nets) - 1, 0)))

    lines = [
        "$version scanforge $end",
        "$timescale 1ns $end",
        f"$scope module {module or trace.netlist_name} $end",
    ]
    slots = []
    for i, net in enumerate(nets):
        code = _id_code(i)
        lines.append(f"$var wire 1 {code} {net} $end")
        slots.append("\0" + code.ljust(width, "\0") + "\n")
    lines += ["$upscope $end", "$enddefinitions $end", ""]
    yield "\n".join(lines)

    # Net i's value in cycle t is data[i * stride + t], so cycle t's values
    # in net order are data[t::stride]; they go to the slots' first bytes.
    size = width + 2
    body = bytearray("".join(slots).encode())
    length = len(body)
    # A 1 byte in a slot's last position, times ``spread``, fills the slot
    # with 0xFF; slots do not overlap, so the product has no carries.
    marks = bytearray(length)
    spread = (1 << 8 * size) - 1
    stride = trace.cycles
    data = trace.bit_columns(nets).encode()

    values = data[0::stride]
    body[0::size] = values
    yield b"#0\n$dumpvars\n" + body.translate(None, b"\0") + b"$end\n"
    prev = int.from_bytes(values, "big")
    for t in range(1, stride):
        values = data[t::stride]
        body[0::size] = values
        now = int.from_bytes(values, "big")
        marks[size - 1::size] = (now ^ prev).to_bytes(len(values), "big").translate(_CHANGED)
        prev = now
        kept = int.from_bytes(body, "big") & int.from_bytes(marks, "big") * spread
        yield b"#%d\n" % t + kept.to_bytes(length, "big").translate(None, b"\0")


def to_vcd(trace: ProtocolTrace, module: str = "") -> str:
    chunks = _chunks(trace, module)
    header = next(chunks)
    return header + b"".join(chunks).decode("ascii")


def dump_vcd(trace: ProtocolTrace, path: str, module: str = "") -> None:
    chunks = _chunks(trace, module)
    header = next(chunks)  # an empty trace raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(chunks)
