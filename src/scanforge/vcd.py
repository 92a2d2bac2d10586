"""Waveform dump in VCD text form, one timestep per simulated cycle.

Output is deterministic: nets are sorted by name, identifier codes are
assigned in that order, and only value changes are emitted after the initial
dump, so identical traces produce byte-identical files.

The body is built a cycle at a time from bytes, with no Python object per
value change and one byte per net per column. A cycle's values (one byte
per net, in net order) are XORed, as ints, with the cycle before, and the
result is translated to a keep mask: 0xFF for each net whose value changed,
0 for the rest. ANDing the values with the mask and deleting the NULs gives
the values of the changed nets. Each column of the id codes is kept as an
int with one byte per net, codes shorter than the longest padded with
``\x01``, and is selected by the same mask. The value column and the code
columns are interleaved into a newline-filled buffer with one strided slice
assignment each, and deleting ``\x01`` leaves exactly the lines of the
changed nets. Neither NUL nor ``\x01`` occurs in the text itself: values
are ``0``, ``1`` or ``x``, codes use ``!`` to ``~``, and the only other
bytes are the newline and the timestamps. The working memory is O(nets)
per cycle on top of the trace's columns; ``dump_vcd`` writes each cycle as
it is built.
"""

from __future__ import annotations

from typing import Iterator, Union

from .protocol import ProtocolTrace

_ID_CHARS = [chr(c) for c in range(33, 127)]
# translate table: a zero byte of a cycle's XOR stays 0, any other becomes 0xFF
_KEEP = bytes([0]) + bytes([255]) * 255


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

    def changed(head: bytes, now: int, keep: int) -> bytes:
        """``head``, then the line of every net whose byte of ``keep`` is 0xFF."""
        values = (now & keep).to_bytes(count, "big").translate(None, b"\0")
        out = bytearray(head) + b"\n" * (len(values) * size)
        start = len(head)
        out[start::size] = values
        for j, column in enumerate(columns, start + 1):
            out[j::size] = (column & keep).to_bytes(count, "big").translate(None, b"\0")
        # bytes, not the bytearray: to_vcd holds every cycle's chunk
        return bytes(out).translate(None, b"\x01")

    # Net i's value in cycle t is data[i * stride + t], so cycle t's values
    # in net order are data[t::stride].
    stride = trace.cycles
    data = trace._columns(nets)
    prev = int.from_bytes(data[0::stride], "big")
    yield changed(b"#0\n$dumpvars\n", prev, (1 << 8 * count) - 1) + b"$end\n"
    for t in range(1, stride):
        now = int.from_bytes(data[t::stride], "big")
        keep = (now ^ prev).to_bytes(count, "big").translate(_KEEP)
        prev = now
        yield changed(b"#%d\n" % t, now, int.from_bytes(keep, "big"))


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
