"""The names scanforge's modules share: flip-flop variant, design stage,
operating mode and combinational gate type.

This module depends on ``enum`` alone, so a module that only names a variant
or a gate type does not load the characterization data in ``cells`` (which
re-exports these same objects).
"""

from __future__ import annotations

from enum import Enum


class FFVariant(str, Enum):
    MUX = "mux"
    GDI = "gdi"
    APPROX = "approx"

    def __str__(self) -> str:
        return self.value


class Stage(str, Enum):
    PRE_LAYOUT = "pre_layout"
    POST_LAYOUT = "post_layout"

    def __str__(self) -> str:
        return self.value


class Mode(str, Enum):
    FUNCTIONAL = "functional"
    TEST = "test"

    def __str__(self) -> str:
        return self.value


class GateType(str, Enum):
    INV = "INV"
    BUF = "BUF"
    NAND2 = "NAND2"
    NOR2 = "NOR2"
    AND2 = "AND2"
    OR2 = "OR2"
    XOR2 = "XOR2"

    def __str__(self) -> str:
        return self.value

    @property
    def num_inputs(self) -> int:
        return 1 if self in (GateType.INV, GateType.BUF) else 2
