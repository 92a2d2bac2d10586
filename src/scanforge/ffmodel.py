"""Cycle-accurate behavioral model of the D flip-flop and scan variants.

All flip-flops are negative-edge triggered master/slave devices: the master
latches the selected data on the rising clock edge, the slave copies the
master (updating Q) on the falling edge. Scan variants select between DI and
SI with SE. The approximate variant has no input multiplexer; in test mode
its double-width SI gate overpowers the DI driver, so SI wins and the event
is recorded in ``contention_count``.

State is immutable; ``ff_cycle`` returns a new state per clock cycle. The
simulators in ``protocol`` apply the same rules to whole two-rail lanes;
this module is their readable specification and the reference the
switch-level check compares against.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .kinds import FFVariant
from .logic import Bit, X, toggled


class FFState(NamedTuple):
    """Master/slave bits plus activity counters.

    ``variant`` None means a plain D flip-flop (no scan input). Counters only
    grow: internal_toggle_count counts 0<->1 changes of master or slave (X
    transitions are not toggles), contention_count counts test-mode cycles
    where the approximate FF's DI and SI fight.
    """

    variant: Optional[FFVariant] = None
    master: Bit = X
    slave: Bit = X
    contention_count: int = 0
    internal_toggle_count: int = 0

    @property
    def q(self) -> Bit:
        return self.slave


def ff_selected_input(
    variant: Optional[FFVariant], di: Bit, si: Bit, se: Bit
) -> Bit:
    """The data the master would latch: DI, SI, or X when SE is unknown.

    With SE unknown the result is still known when both candidates agree.
    """
    if variant is None:
        return di
    if se == 1:
        return si
    if se == 0:
        return di
    return di if di == si else X


def ff_cycle(state: FFState, di: Bit, si: Bit = X, se: Bit = X) -> FFState:
    """One full clock cycle: rising edge then falling edge.

    The master latches the selected input on the rising edge and the slave
    copies it on the falling edge. Only the rising edge samples the data
    pins, so sampling them once per cycle is exact for a cycle-based
    simulation.
    """
    selected = ff_selected_input(state.variant, di, si, se)
    contention = state.contention_count
    if (
        state.variant == FFVariant.APPROX
        and se == 1
        and di in (0, 1)
        and si in (0, 1)
        and di != si
    ):
        contention += 1
    toggles = (
        state.internal_toggle_count
        + toggled(state.master, selected)
        + toggled(state.slave, selected)
    )
    return state._replace(
        master=selected,
        slave=selected,
        contention_count=contention,
        internal_toggle_count=toggles,
    )
