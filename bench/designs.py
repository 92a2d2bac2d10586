"""Deterministic synthetic designs and scan patterns for the benchmark.

The generator writes `.snl` text directly, without importing scanforge, so
the program under test only ever sees generated inputs. Every draw comes from
a `random.Random` seeded with a string that names the shape and the seed;
string seeds hash with SHA-512, so the text is byte-identical across runs,
processes and `PYTHONHASHSEED` values.

A design is a levelised combinational cloud between plain D flip-flops:

- level 0 gates read primary inputs and flip-flop outputs;
- every gate of level L > 0 takes its first input from level L-1, so the
  cloud is exactly `levels` gates deep, and its second input (if it has one)
  from any earlier net;
- every flip-flop's D input and every primary output is a last-level gate.

Scan insertion is left to the program (`insert_scan` / `scantool insert`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GATE_TYPES = ("INV", "BUF", "AND2", "OR2", "NAND2", "NOR2", "XOR2")
ONE_INPUT = ("INV", "BUF")

# insert_scan adds the SI and SE inputs and the SO output.
SCAN_PORTS = 3


@dataclass(frozen=True)
class Shape:
    """The stated size of one workload's design and pattern set."""

    name: str
    ffs: int
    gates: int
    inputs: int
    outputs: int
    levels: int
    variant: str  # scan flip-flop variant, as `scantool insert --variant` spells it
    vectors: int

    @property
    def nets(self) -> int:
        """Nets of the scan-inserted design."""
        return self.inputs + self.ffs + self.gates + SCAN_PORTS


def _rng(shape: Shape, seed: int, stream: str) -> random.Random:
    return random.Random(f"scanforge-bench:{shape.name}:{seed}:{stream}")


def _level_sizes(gates: int, levels: int) -> list[int]:
    base, extra = divmod(gates, levels)
    return [base + (1 if k < extra else 0) for k in range(levels)]


def design_text(shape: Shape, seed: int) -> str:
    """The unscanned `.snl` netlist of `shape` drawn with `seed`."""
    if shape.levels < 1 or shape.gates < shape.levels:
        raise ValueError(f"{shape.name}: need at least one gate per level")
    rng = _rng(shape, seed, "design")
    pis = [f"pi{k}" for k in range(shape.inputs)]
    qs = [f"q{k}" for k in range(shape.ffs)]
    pool = pis + qs
    prev = list(pool)
    gate_lines: list[str] = []
    for size in _level_sizes(shape.gates, shape.levels):
        level = []
        for _ in range(size):
            k = len(gate_lines)
            gtype = rng.choice(GATE_TYPES)
            ins = [rng.choice(prev)]
            if gtype not in ONE_INPUT:
                ins.append(rng.choice(pool))
            out = f"n{k}"
            gate_lines.append(f"gate g{k} {gtype} {out} {' '.join(ins)}")
            level.append(out)
        pool.extend(level)
        prev = level
    outputs = rng.sample(prev, min(shape.outputs, len(prev)))
    ff_lines = [f"dff f{k} {q} {rng.choice(prev)}" for k, q in enumerate(qs)]
    lines = [
        f"module {shape.name.replace('-', '_')}_s{seed}",
        "input " + " ".join(pis),
        "output " + " ".join(outputs),
        *gate_lines,
        *ff_lines,
        "endmodule",
    ]
    return "\n".join(lines) + "\n"


def vectors(shape: Shape, seed: int) -> list[str]:
    """`shape.vectors` random scan-in vectors, one bit per flip-flop."""
    rng = _rng(shape, seed, "patterns")
    return [
        "".join(rng.choice("01") for _ in range(shape.ffs))
        for _ in range(shape.vectors)
    ]


def pattern_text(vecs: list[str], expected: list[str] | None = None) -> str:
    """A `.pat` file; with `expected`, each line carries `-> <response>`."""
    if expected is None:
        return "".join(v + "\n" for v in vecs)
    return "".join(f"{v} -> {e}\n" for v, e in zip(vecs, expected, strict=True))
