"""The names scanforge's modules share: flip-flop variant, design stage,
operating mode and combinational gate type, plus ``FrozenRecord``, the base
of the two records that keep a compiled form (``Netlist`` and
``TransistorNetwork``).

This module depends on ``enum`` alone, so a module that only names a variant
or a gate type does not load the characterization data in ``cells`` (which
re-exports these same objects).
"""

from __future__ import annotations

from enum import Enum


class _Name(str, Enum):
    """An enum whose members print as their values."""

    def __str__(self) -> str:
        return self.value


class FFVariant(_Name):
    MUX = "mux"
    GDI = "gdi"
    APPROX = "approx"


class Stage(_Name):
    PRE_LAYOUT = "pre_layout"
    POST_LAYOUT = "post_layout"


class Mode(_Name):
    FUNCTIONAL = "functional"
    TEST = "test"


class GateType(_Name):
    INV = "INV"
    BUF = "BUF"
    NAND2 = "NAND2"
    NOR2 = "NOR2"
    AND2 = "AND2"
    OR2 = "OR2"
    XOR2 = "XOR2"

    @property
    def num_inputs(self) -> int:
        return 1 if self in (GateType.INV, GateType.BUF) else 2


class FrozenRecord:
    """Fields named in ``_fields``, set by ``__init__`` in that order and never again.

    Records are equal within one class only, hash by their fields and print
    as ``Name(field=value, ...)``. A subclass's ``cached_property`` lives in
    the instance ``__dict__``, beside the fields.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
