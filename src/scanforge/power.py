"""Toggle-based dynamic power estimation from simulation traces.

Flip-flop internal energy is billed per cycle from the library's per-mode
average power, calibrated as energy per cycle at a 1 GHz reference (so an
avg_power_uw figure reads directly as fJ per cycle). Cycles with SE=1 bill
the test-mode rate; everything else, including the capture cycle, bills the
functional rate. Combinational energy charges each gate-driven net's toggle
count at that gate's per-toggle energy. Contention cycles in the approximate
flip-flop can carry an extra penalty energy, but the default penalty is zero
because no credible per-event figure exists to bake in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

from .cells import CellLibrary
from .errors import ScanforgeError
from .kinds import FFVariant, Mode, Stage

if TYPE_CHECKING:
    from .protocol import ProtocolTrace


class PowerModelError(ScanforgeError):
    code = "power.model"


class PowerReport(NamedTuple):
    netlist_name: str
    variant: FFVariant
    stage: Stage
    mode: Mode  # test when any cycle shifted, else functional
    cycles: int
    t_clk_ns: float
    ff_internal_energy_fj: float
    combinational_energy_fj: float
    contention_cycles: int
    per_ff_energy_fj: dict[str, float]

    @property
    def total_energy_fj(self) -> float:
        return self.ff_internal_energy_fj + self.combinational_energy_fj

    @property
    def total_avg_power_uw(self) -> float:
        # fJ per ns is exactly uW
        return self.total_energy_fj / (self.cycles * self.t_clk_ns)

    @property
    def ff_internal_avg_power_uw(self) -> float:
        return self.ff_internal_energy_fj / (self.cycles * self.t_clk_ns)


def estimate_power(
    trace: ProtocolTrace,
    variant: FFVariant,
    stage: Stage,
    t_clk_ns: float,
    library: Optional[CellLibrary] = None,
    contention_penalty_fj: float = 0.0,
) -> PowerReport:
    """Price one trace under one FF variant's calibration (builtin without ``library``)."""
    if not trace.cycles:
        raise PowerModelError("trace has no cycles")
    if not 0.0 < t_clk_ns < math.inf:
        raise PowerModelError(f"t_clk_ns must be positive and finite, got {t_clk_ns}")
    if not 0.0 <= contention_penalty_fj < math.inf:
        raise PowerModelError(
            f"contention penalty must be >= 0 and finite, got {contention_penalty_fj}"
        )
    lib = CellLibrary.builtin() if library is None else library
    params = lib.ff(variant, stage)
    e_test = params.energy_per_cycle_fj(Mode.TEST)
    e_func = params.energy_per_cycle_fj(Mode.FUNCTIONAL)

    shift_cycles = trace.se.count(1)
    other_cycles = trace.cycles - shift_cycles
    per_ff_base = shift_cycles * e_test + other_cycles * e_func

    # Added left to right, as the combinational energy is: sum() compensates
    # its float additions from Python 3.12 on, so its last bits would
    # differ between Python versions.
    per_ff: dict[str, float] = {}
    ff_energy = 0.0
    for fid in trace.ff_internal_toggles:
        energy = per_ff_base + contention_penalty_fj * trace.ff_contentions.get(fid, 0)
        per_ff[fid] = energy
        ff_energy += energy

    comb_energy = 0.0
    drivers = trace.net_drivers
    for net, toggles in trace.net_toggles.items():
        gtype = drivers.get(net)
        if gtype is not None:
            comb_energy += toggles * lib.gate(gtype).energy_per_toggle_fj

    return PowerReport(
        netlist_name=trace.netlist_name,
        variant=variant,
        stage=stage,
        mode=Mode.TEST if shift_cycles else Mode.FUNCTIONAL,
        cycles=trace.cycles,
        t_clk_ns=t_clk_ns,
        ff_internal_energy_fj=ff_energy,
        combinational_energy_fj=comb_energy,
        contention_cycles=trace.contention_cycles,
        per_ff_energy_fj=per_ff,
    )


def power_gain(reference_uw: float, candidate_uw: float) -> float:
    """Percent power saved by the candidate relative to the reference."""
    if reference_uw <= 0.0 or candidate_uw <= 0.0:
        raise PowerModelError("power figures must be positive")
    return 100.0 * (reference_uw - candidate_uw) / reference_uw


def weighted_transition_count(vector: str) -> int:
    """Shift-power proxy: adjacent transitions weighted by remaining distance.

    Each transition between bits i and i+1 of the inbound vector toggles
    L - i flip-flops on its way down a chain as long as the vector, so the
    count is sum over i of (L - i) * [bit_i != bit_i+1].
    """
    if any(c not in "01" for c in vector):
        raise PowerModelError("vector must be bits")
    length = len(vector)
    total = 0
    for i in range(1, length):
        if vector[i - 1] != vector[i]:
            total += length - i
    return total
