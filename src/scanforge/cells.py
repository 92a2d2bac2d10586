"""Flip-flop and gate characterization data, and nothing else.

Holds per-variant scan flip-flop timing/power/area parameters for the two
design stages (schematic-level and layout-extracted), default combinational
gate delay/energy numbers, and the published comparison rows used by the
`compare` report. The enums that name variants, stages, modes and gate
types live in ``kinds``; the ones this module imports from there, and so
re-exports, are the same objects.

The flip-flop numbers are stored exactly as characterized. Some rows print a
propagation delay t_pd that differs from t_su + t_cq by more than rounding;
those rows are not repaired: every STA report shows both the printed figure
and the recomputed sum (`ModeTiming.t_pd_sum`), so a reader can decide which
to trust.

Libraries load from `.cellcfg` files (INI syntax, sections like
``[gate.NAND2]`` and ``[ff.APPROX.post_layout.functional]``); any key present
in the file overrides the builtin value. Every value, from a file or from
code, passes the range check of the record that holds it when the record
is built or copied (``_replace`` included), and NaN and infinities are out
of every range. A library reaches the rest of the package only as a
``CellLibrary`` argument, ``load_library(path)`` or ``CellLibrary.builtin()``;
nothing in the environment picks one.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .errors import InputFileError, ScanforgeError, read_text
from .kinds import FFVariant, GateType, Mode, Stage

F_REF_HZ = 1e9  # the frequency every avg_power_uw is characterized at


class CellConfigError(ScanforgeError):
    """Malformed or out-of-range data in a .cellcfg file."""

    code = "cells.config"


def _check(name: str, value: float, low: Optional[float] = None, strict: bool = False) -> None:
    """Raise unless value is finite and >= low (> low when strict)."""
    if math.isfinite(value) and (low is None or (value > low if strict else value >= low)):
        return
    bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
    raise CellConfigError(f"{name} must be a finite number{bound}, got {value}")


def _remake(cls: type, fields: Iterable[Any]) -> Any:
    """``_make`` of a checked record: through ``__new__``, so that ``_replace``
    checks the fields as construction does."""
    return cls(*fields)


class _ModeTimingFields(NamedTuple):
    t_su: float  # setup time, ns
    t_cq: float  # clock-to-Q delay, ns
    t_pd: float  # printed path delay, ns (nominally t_su + t_cq)
    avg_power_uw: float  # average power at F_REF_HZ, microwatts


class ModeTiming(_ModeTimingFields):
    """One characterized row: a (variant, stage, mode) operating point."""

    __slots__ = ()

    def __new__(cls, t_su: float, t_cq: float, t_pd: float, avg_power_uw: float) -> ModeTiming:
        _check("t_su", t_su, 0)
        _check("t_cq", t_cq, 0, strict=True)
        _check("t_pd", t_pd, 0)
        _check("avg_power_uw", avg_power_uw, 0, strict=True)
        _check("t_su + t_cq", t_su + t_cq)
        return super().__new__(cls, t_su, t_cq, t_pd, avg_power_uw)

    _make = classmethod(_remake)

    @property
    def t_pd_sum(self) -> float:
        """Path delay recomputed as t_su + t_cq."""
        return self.t_su + self.t_cq


class _FFVariantParamsFields(NamedTuple):
    variant: FFVariant
    stage: Stage
    functional: ModeTiming
    test: ModeTiming
    area: float  # transistor-count units


class FFVariantParams(_FFVariantParamsFields):
    __slots__ = ()

    def __new__(
        cls, variant: FFVariant, stage: Stage, functional: ModeTiming, test: ModeTiming,
        area: float,
    ) -> FFVariantParams:
        _check("area", area, 0, strict=True)
        return super().__new__(cls, variant, stage, functional, test, area)

    _make = classmethod(_remake)

    def mode(self, mode: Mode) -> ModeTiming:
        return self.functional if mode == Mode.FUNCTIONAL else self.test

    def energy_per_cycle_fj(self, mode: Mode) -> float:
        """Energy drawn by one FF in one clock cycle of the given mode.

        Average power is calibrated at F_REF_HZ, so energy/cycle = P / F_REF_HZ.
        With power in uW and F_REF_HZ in Hz the result is in fJ after the 1e9
        unit shuffle (1 uW / 1 GHz = 1 fJ).
        """
        return self.mode(mode).avg_power_uw * 1e9 / F_REF_HZ


class _GateParamsFields(NamedTuple):
    delay_ns: float
    energy_per_toggle_fj: float


class GateParams(_GateParamsFields):
    __slots__ = ()

    def __new__(cls, delay_ns: float, energy_per_toggle_fj: float) -> GateParams:
        _check("delay_ns", delay_ns, 0, strict=True)
        _check("energy_per_toggle_fj", energy_per_toggle_fj, 0)
        return super().__new__(cls, delay_ns, energy_per_toggle_fj)

    _make = classmethod(_remake)


# Characterized flip-flop rows, stored verbatim (known t_pd inconsistencies
# included, never repaired here): variant, stage, functional and test
# (t_su, t_cq, t_pd, avg_power_uw), area.
_BUILTIN_FFS: dict[tuple[FFVariant, Stage], FFVariantParams] = {
    (variant, stage): FFVariantParams(
        variant, stage, ModeTiming(*functional), ModeTiming(*test), area
    )
    for variant, stage, functional, test, area in (
        (FFVariant.MUX, Stage.PRE_LAYOUT, (0.058, 0.141, 0.19, 2.65), (0.06, 0.14, 0.2, 2.1), 16),
        (FFVariant.GDI, Stage.PRE_LAYOUT, (0.18, 0.14, 0.32, 0.56), (0.38, 0.13, 0.51, 0.57), 12),
        (FFVariant.APPROX, Stage.PRE_LAYOUT, (0.06, 0.14, 0.2, 0.41), (0.04, 0.14, 0.18, 0.44), 14),
        (FFVariant.MUX, Stage.POST_LAYOUT, (0.088, 0.283, 0.371, 3.62), (0.085, 0.05, 0.365, 3.81), 16),
        (FFVariant.GDI, Stage.POST_LAYOUT, (0.66, 0.284, 1.05, 1.06), (0.77, 0.282, 0.94, 1.37), 12),
        (FFVariant.APPROX, Stage.POST_LAYOUT, (0.055, 0.3, 0.35, 0.51), (0.04, 0.3, 0.34, 0.56), 14),
    )
}

# Synthetic combinational cell data (no published source; see default.cellcfg).
_BUILTIN_GATES: dict[GateType, GateParams] = {
    GateType.INV: GateParams(0.03, 0.3),
    GateType.BUF: GateParams(0.05, 0.4),
    GateType.NAND2: GateParams(0.05, 0.5),
    GateType.NOR2: GateParams(0.06, 0.55),
    GateType.AND2: GateParams(0.07, 0.6),
    GateType.OR2: GateParams(0.08, 0.65),
    GateType.XOR2: GateParams(0.09, 0.8),
}


class ComparisonRow(NamedTuple):
    """One row of the published design-comparison table."""

    label: str
    t_pd: float  # ns
    avg_power_uw: Optional[float]  # None where the source reports no figure
    area: float


_COMPARISON_ROWS: tuple[ComparisonRow, ...] = (
    ComparisonRow("mishra2010modified", 0.077, None, 26),
    ComparisonRow("kumar2009robust", 0.043, 8.98, 33),
    ComparisonRow("ahlawat2018high", 0.674, None, 38),
    ComparisonRow("mux", 0.36, 3.81, 16),
    ComparisonRow("gdi", 0.94, 1.37, 12),
    ComparisonRow("approx", 0.34, 0.56, 14),
)


def comparison_table() -> tuple[ComparisonRow, ...]:
    """The six published comparison rows (prior designs + the three variants)."""
    return _COMPARISON_ROWS


class CellLibrary(NamedTuple):
    """Immutable lookup table of FF params and gate params."""

    ffs: Mapping[tuple[FFVariant, Stage], FFVariantParams]
    gates: Mapping[GateType, GateParams]

    def ff(self, variant: FFVariant, stage: Stage) -> FFVariantParams:
        return self.ffs[(variant, stage)]

    def gate(self, gate_type: GateType) -> GateParams:
        return self.gates[gate_type]

    @staticmethod
    def builtin() -> "CellLibrary":
        """The built-in library: one object, built at import, with read-only tables."""
        return _BUILTIN


_BUILTIN = CellLibrary(
    ffs=MappingProxyType(_BUILTIN_FFS), gates=MappingProxyType(_BUILTIN_GATES)
)


_GATE_KEYS = ("delay_ns", "energy_per_toggle_fj")
_FF_KEYS = ("area",)
_MODE_KEYS = ("t_su", "t_cq", "t_pd", "avg_power_uw")


def _override(section: str, base: Any, values: Mapping[str, str], allowed: tuple[str, ...]) -> Any:
    """Apply one section's keys to its base object through the object's own checks."""
    changes = {}
    for key, raw in values.items():
        if key not in allowed:
            raise CellConfigError(
                f"[{section}] unknown key {key!r}; allowed keys: {', '.join(allowed)}"
            )
        try:
            changes[key] = float(raw)
        except ValueError:
            raise CellConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    try:
        return base._replace(**changes)
    except CellConfigError as exc:
        raise CellConfigError(f"[{section}] {exc}") from None


def load_library(path: str | Path) -> CellLibrary:
    """Load a .cellcfg file as overrides on top of the builtin library.

    Sections: ``[gate.<TYPE>]`` with keys delay_ns / energy_per_toggle_fj,
    ``[ff.<VARIANT>.<stage>]`` with key area (transistors), and
    ``[ff.<VARIANT>.<stage>.<mode>]`` with keys t_su / t_cq / t_pd /
    avg_power_uw (ns, ns, ns, uW). Unspecified keys keep their builtin
    values; keys in a ``[DEFAULT]`` section count as keys of every section.
    A key a section does not allow, a value that is not a number, and a
    value outside its field's range (NaN and infinities included) raise
    CellConfigError naming the section; a file that cannot be read or is
    not UTF-8 raises it naming the path.
    """
    import configparser

    # no interpolation: a '%' in a value reaches _override as written
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path), source=str(path))
    except InputFileError as exc:
        raise CellConfigError(f"cannot read cell config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CellConfigError(f"bad cell config {path}: {exc}") from exc

    ffs = dict(_BUILTIN_FFS)
    gates = dict(_BUILTIN_GATES)

    for section in parser.sections():
        parts = section.split(".")
        values = dict(parser.items(section))
        if parts[0] == "gate" and len(parts) == 2:
            try:
                gtype = GateType(parts[1].upper())
            except ValueError:
                raise CellConfigError(f"unknown gate type in [{section}]") from None
            gates[gtype] = _override(section, gates[gtype], values, _GATE_KEYS)
        elif parts[0] == "ff" and len(parts) in (3, 4):
            try:
                variant = FFVariant(parts[1].lower())
                stage = Stage(parts[2].lower())
            except ValueError:
                raise CellConfigError(
                    f"unknown variant or stage in [{section}]"
                ) from None
            params = ffs[(variant, stage)]
            if len(parts) == 3:
                params = _override(section, params, values, _FF_KEYS)
            else:
                try:
                    mode = Mode(parts[3].lower())
                except ValueError:
                    raise CellConfigError(f"unknown mode in [{section}]") from None
                row = _override(section, params.mode(mode), values, _MODE_KEYS)
                params = params._replace(**{mode.value: row})
            ffs[(variant, stage)] = params
        else:
            raise CellConfigError(f"unrecognized section [{section}]")

    return CellLibrary(ffs=MappingProxyType(ffs), gates=MappingProxyType(gates))

