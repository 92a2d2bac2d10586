"""Waveform dump in VCD text form, one timestep per simulated cycle.

Output is deterministic: nets are sorted by name, identifier codes are
assigned in that order, and only value changes are emitted after the initial
dump, so identical traces produce byte-identical files.
"""

from __future__ import annotations

from itertools import compress

from .protocol import ProtocolTrace

_ID_CHARS = [chr(c) for c in range(33, 127)]


def _id_code(index: int) -> str:
    base = len(_ID_CHARS)
    out = _ID_CHARS[index % base]
    index //= base
    while index:
        index -= 1
        out = _ID_CHARS[index % base] + out
        index //= base
    return out


def to_vcd(trace: ProtocolTrace, module: str = "") -> str:
    if not trace.cycles:
        raise ValueError("trace has no cycles to dump")
    nets = sorted(trace.nets)
    codes = [_id_code(i) for i in range(len(nets))]

    lines = [
        "$version scanforge $end",
        "$timescale 1ns $end",
        f"$scope module {module or trace.netlist_name} $end",
    ]
    for net, code in zip(nets, codes):
        lines.append(f"$var wire 1 {code} {net} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # Net i's value in cycle t is columns[i * stride + t], so cycle t's
    # values in net order are columns[t::stride].
    stride = trace.cycles
    columns = trace.bit_columns(nets)
    data = columns.encode()
    lines.append("#0")
    lines.append("$dumpvars")
    lines.extend(map(str.__add__, columns[0::stride], codes))
    lines.append("$end")

    prev = int.from_bytes(data[0::stride], "big")
    for t in range(1, trace.cycles):
        now = int.from_bytes(data[t::stride], "big")
        changed = (now ^ prev).to_bytes(len(nets), "big")  # nonzero byte: new value
        prev = now
        lines.append(f"#{t}")
        lines.extend(map(str.__add__, compress(columns[t::stride], changed), compress(codes, changed)))
    return "\n".join(lines) + "\n"


def dump_vcd(trace: ProtocolTrace, path: str, module: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_vcd(trace, module))
