"""Three-valued (0/1/X) bits shared by the simulators.

A bit is ``0``, ``1`` or ``X`` (unknown). ``X`` is represented by ``None`` so
that ordinary ``==`` comparisons behave naturally and dictionaries of net
values stay cheap. Gates are evaluated by ``protocol.evaluate`` over two-rail
ints, with controlling-value semantics: an AND with one input at 0 is 0
regardless of the other input being X. ``check_bit`` is the one check of a
bit given as stimulus, for the cycle and switch-level simulators alike.
"""

from __future__ import annotations

from typing import Optional

Bit = Optional[int]

X: Bit = None


def is_known(b: Bit) -> bool:
    return b == 0 or b == 1


def bit_char(b: Bit) -> str:
    """Render a bit as '0', '1' or 'x' (VCD-style)."""
    return "x" if b is None else str(b)


def toggled(old: Bit, new: Bit) -> bool:
    """True for a real 0<->1 transition; X transitions do not count."""
    return is_known(old) and is_known(new) and old != new


_BITS: dict[object, Bit] = {0: 0, 1: 1, X: X}


def check_bit(bit: object, name: str, error: type[Exception]) -> Bit:
    """A stimulus value as a bit; anything but 0, 1 or X raises ``error``
    naming what it was given for."""
    try:
        return _BITS[bit]
    except (KeyError, TypeError):
        raise error(f"{name!r} given {bit!r}, not 0, 1 or X") from None
