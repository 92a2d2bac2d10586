"""Waveform dump in VCD text form, one timestep per simulated cycle.

Output is deterministic: nets are sorted by name, identifier codes are
assigned in that order, and only value changes are emitted after the initial
dump, so identical traces produce byte-identical files.

The nets are split into segments. A segment is a run of nets, in name
order, whose id codes have one length and at most 85 distinct prefixes, a
prefix being every character of a code but the last. Each net of a
segment has a base, 3 * (its prefix's place in the segment) + 1, and the
segment keeps its nets' bases and last characters as ints with one byte
per net, and 256-byte translate tables from a symbol to the value
character and to each prefix character.

The body is built a cycle at a time straight from the trace's two-rail
lanes, with no Python object per value change and no character per net per
cycle. Each net's value and known rails are packed once, in name order, as
little-endian bytes, eight cycles to a byte. Every eighth cycle one strided
slice of each rail gathers the next byte of every net of a segment into an
int, one byte per net. A cycle's state then takes one shift and one AND per
rail against a constant with 0x01 in every byte: 0 for a known 0, 1 for a
known 1 and 2 for an unknown, whatever its value rail holds. XORing the
state with the cycle before and folding the two bits of each byte together
gives a keep mask, 0xFF for each net whose character changed and 0 for the
rest. The state plus the base, ANDed with the mask, is a nonzero symbol
(at most 3 * 84 + 1 + 2 = 255) for each changed net and NUL for the rest,
so one ``to_bytes`` and one NUL-deleting ``translate`` give the changed
nets' symbols. Small translates of that short string give each one's value
character and each prefix character; the last characters (``!`` to ``~``,
never NUL), selected by the same mask, are the one other full-width pass.
Strided slice assignments interleave these columns into a newline-filled
buffer. The working memory is the packed rails, two bits per net per
cycle, and O(nets) per cycle; ``dump_vcd`` writes each cycle as it is
built, and ``to_vcd`` joins the cycles a batch at a time, so its peak
follows the size of the text.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator, Union

from .protocol import ProtocolTrace

_ID_CHARS = [chr(c) for c in range(33, 127)]
_LAST = "".join(_ID_CHARS).encode()
# a segment's symbols, state + 3 * prefix + 1, must fit in a byte
_MAX_PREFIXES = 85
# to_vcd joins this many cycles' bytes at a time
_BATCH = 256


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


def _segment(lo: int, hi: int, heads: list[str]) -> tuple:
    """``(lo, hi, width, ones, bases, last, tables)`` for the nets from
    ``lo`` to ``hi``, whose codes run through the prefixes in ``heads``.

    ``heads`` holds, for each prefix in order, the prefix after each value
    character (``0``, ``1``, ``x``), so ``heads[s - 1]`` is the start of the
    line of symbol s. A net's base is 3 * its prefix's place + 1, so its
    state plus its base is a symbol from 1 to 255; ``tables[j]`` maps a
    symbol to the character at column j of its line.
    """
    count, step = hi - lo, len(_ID_CHARS)
    bases = b"".join([bytes([p + 1]) * step for p in range(0, len(heads), 3)])
    last = _LAST * (len(heads) // 3)
    tables = [
        bytes([0, *(ord(head[j]) for head in heads)]).ljust(256, b"\0")
        for j in range(len(heads[0]))
    ]
    return (
        lo, hi, len(heads[0]), int.from_bytes(b"\x01" * count, "big"),
        int.from_bytes(bases[:count], "big"), int.from_bytes(last[:count], "big"), tables,
    )


def _segments(codes: list[str]) -> list[tuple]:
    """The segments of ``codes``: a new one starts where the code length
    grows or after 85 prefixes."""
    # Each code length starts at a multiple of 94, so every run of 94
    # codes from the start shares one prefix, and its last characters
    # are ``!`` to ``~`` in order.
    segments: list[tuple] = []
    lo, heads = 0, []
    for i in range(0, len(codes), len(_ID_CHARS)):
        if heads and (len(codes[i]) != len(codes[lo]) or len(heads) == 3 * _MAX_PREFIXES):
            segments.append(_segment(lo, i, heads))
            lo, heads = i, []
        heads += [value + codes[i][:-1] for value in "01x"]
    if heads:
        segments.append(_segment(lo, len(codes), heads))
    return segments


def _chunks(trace: ProtocolTrace) -> Iterator[Union[str, bytearray]]:
    """The header as one str, then the body as bytes, a cycle at a time."""
    if not trace.cycles:
        raise ValueError("trace has no cycles to dump")
    nets = sorted(trace.nets)
    codes = _id_codes(len(nets))

    lines = [
        "$version scanforge $end",
        "$timescale 1ns $end",
        f"$scope module {trace.netlist_name} $end",
    ]
    lines += [f"$var wire 1 {code} {net} $end" for code, net in zip(codes, nets)]
    lines += ["$upscope $end", "$enddefinitions $end", ""]
    yield "\n".join(lines)

    segments = _segments(codes)

    # Byte j of net i's rail is rails[i * stride + j], so byte j of every
    # net of a segment, in name order, is
    # rails[lo * stride + j:hi * stride:stride]; its bit b is cycle 8j + b.
    stride = -(-trace.cycles // 8)
    index = trace.netlist.compiled.index
    ids = [index[net] for net in nets]
    value = b"".join([trace.value_lanes[i].to_bytes(stride, "little") for i in ids])
    known = b"".join([trace.known_lanes[i].to_bytes(stride, "little") for i in ids])
    held = [[0, 0, 0] for _ in segments]  # each segment's known 1s, unknowns, last state
    for t in range(trace.cycles):
        bit = t & 7
        if not bit:
            for (lo, hi, _, ones, _, _, _), h in zip(segments, held):
                cut = slice(lo * stride + (t >> 3), hi * stride, stride)
                k = int.from_bytes(known[cut], "big")
                h[0] = int.from_bytes(value[cut], "big") & k
                h[1] = k ^ ones * 255
        out = bytearray(b"#%d\n" % t if t else b"#0\n$dumpvars\n")
        for (lo, hi, width, ones, bases, last, tables), h in zip(segments, held):
            state = ((h[0] >> bit) & ones) | ((h[1] >> bit) & ones) << 1
            if t:
                diff = state ^ h[2]
                keep = ((diff | diff >> 1) & ones) * 255
            else:
                keep = ones * 255
            h[2] = state
            count = hi - lo
            symbols = ((state + bases) & keep).to_bytes(count, "big").translate(None, b"\0")
            size = width + 2  # a line: value, code, newline
            start = len(out)
            out += b"\n" * (len(symbols) * size)
            for j, table in enumerate(tables, start):
                out[j::size] = symbols.translate(table)
            out[start + width::size] = (last & keep).to_bytes(count, "big").translate(None, b"\0")
        if not t:
            out += b"$end\n"
        yield out


def to_vcd(trace: ProtocolTrace) -> str:
    chunks = _chunks(trace)
    parts = [next(chunks)]
    while batch := list(islice(chunks, _BATCH)):
        parts.append(b"".join(batch).decode("ascii"))
    return "".join(parts)


def dump_vcd(trace: ProtocolTrace, path: str) -> None:
    chunks = _chunks(trace)
    header = next(chunks)  # an empty trace raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(chunks)
