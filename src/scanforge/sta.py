"""Static timing analysis: longest combinational path and clock limits.

The clock-period model is t_clk_min = t_cq + t_comb + t_su with t_comb the
largest sum of gate delays over any register-to-register, input-to-register,
register-to-output, or input-to-output path. Scan shifting adds direct Q->SI
hops, so test mode admits zero-gate register-to-register paths.

The longest path is found in one walk over the gate program of
``Netlist.compiled``, the topological order and net ids the simulator also
uses, so repeated analyses of one netlist neither sort it nor key anything
by net name again.

Per-variant flip-flop path delay is tracked two ways: t_pd_ns is the library
row's published figure and t_pd_sum_ns is t_su + t_cq recomputed from the
stored fields. Cross-variant gains quote the published figure; both appear in
reports so a discrepancy between them is visible rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .cells import CellLibrary, FFVariant, GateType, Mode, Stage, resolve_library
from .errors import ScanforgeError
from .netlist import CompiledNetlist, Netlist, ScanFF


class TimingError(ScanforgeError):
    code = "sta.analysis"


@dataclass(frozen=True)
class TimingReport:
    netlist_name: str
    variant: FFVariant
    stage: Stage
    mode: Mode
    t_comb_ns: float
    t_su_ns: float
    t_cq_ns: float
    t_clk_min_ns: float
    f_max_hz: float
    t_pd_ns: float  # library row's published su+cq figure
    t_pd_sum_ns: float  # t_su_ns + t_cq_ns recomputed
    critical_path: tuple[str, ...]  # instance ids, launch/capture FFs included


def _longest_paths(
    cn: CompiledNetlist,
    mode: Mode,
    input_arrival_ns: float,
    output_required_ns: float,
    gate_delay: Mapping[GateType, float],
) -> tuple[float, tuple[str, ...]]:
    """Longest gate-delay sum over the four path classes, with its path.

    Ties go to the earliest candidate: a gate's first input, then the first
    endpoint in flop order (DI before SI), then outputs.
    """
    # by net id: best delay from any launch point (None: unreached), the
    # launching flop's id (None for an input), and (gate id, chosen input id)
    dist: list[Optional[float]] = [None] * len(cn.nets)
    origin: list[Optional[str]] = [None] * len(cn.nets)
    pred: list[Optional[tuple[str, int]]] = [None] * len(cn.nets)

    for i in cn.inputs.values():
        dist[i] = input_arrival_ns
    for q, fid in zip(cn.ff_q, cn.ff_ids):
        dist[q] = 0.0
        origin[q] = fid

    for g, (_, out, a, b) in zip(cn.gates, cn.program):
        best = dist[a]
        if dist[b] is not None and (best is None or dist[b] > best):
            best, a = dist[b], b
        if best is None:
            continue
        d = best + gate_delay[g.gtype]
        if dist[out] is None or d > dist[out]:
            dist[out] = d
            origin[out] = origin[a]
            pred[out] = (g.id, a)

    # endpoint candidates: (delay, net id, capturing instance id or None)
    ends: list[tuple[float, int, Optional[str]]] = []
    for fid, di, si in zip(cn.ff_ids, cn.ff_di, cn.ff_si):
        if dist[di] is not None:
            ends.append((dist[di], di, fid))
        if mode is Mode.TEST and si >= 0 and dist[si] is not None:
            ends.append((dist[si], si, fid))
    for i in cn.outputs:
        if dist[i] is not None:
            ends.append((dist[i] + output_required_ns, i, None))

    if not ends:
        return 0.0, ()

    t_comb, net, capture_id = max(ends, key=lambda e: e[0])
    path: list[str] = [] if capture_id is None else [capture_id]
    while pred[net] is not None:
        gid, net = pred[net]
        path.append(gid)
    if origin[net] is not None:
        path.append(origin[net])
    path.reverse()
    return t_comb, tuple(path)


def analyze_timing(
    n: Netlist,
    variant: FFVariant,
    stage: Stage,
    mode: Mode,
    library: Optional[CellLibrary] = None,
    input_arrival_ns: float = 0.0,
    output_required_ns: float = 0.0,
) -> TimingReport:
    """Longest-path analysis of one netlist under one FF variant and mode.

    All flip-flops are timed with the requested variant's parameters, which
    keeps cross-variant comparisons on the same netlist apples to apples.
    """
    lib = resolve_library(library)
    timing = lib.ff(variant, stage).mode(mode)
    gate_delay = {t: params.delay_ns for t, params in lib.gates.items()}

    t_comb, path = _longest_paths(
        n.compiled, mode, input_arrival_ns, output_required_ns, gate_delay
    )
    t_clk_min = timing.t_cq + t_comb + timing.t_su
    return TimingReport(
        netlist_name=n.name,
        variant=variant,
        stage=stage,
        mode=mode,
        t_comb_ns=t_comb,
        t_su_ns=timing.t_su,
        t_cq_ns=timing.t_cq,
        t_clk_min_ns=t_clk_min,
        f_max_hz=1e9 / t_clk_min,
        t_pd_ns=timing.t_pd,
        t_pd_sum_ns=timing.t_pd_sum,
        critical_path=path,
    )


def time_gain(reference: TimingReport, candidate: TimingReport) -> float:
    """Flip-flop delay advantage of candidate over reference, in ns.

    Positive means the candidate is faster. The netlist drops out: both
    reports share t_comb, so the difference is pure flip-flop path delay,
    quoted from the library rows' published figures.
    """
    if reference.mode is not candidate.mode or reference.stage is not candidate.stage:
        raise TimingError(
            "time gain requires reports for the same mode and stage, got "
            f"{reference.stage}/{reference.mode} vs {candidate.stage}/{candidate.mode}"
        )
    if reference.netlist_name != candidate.netlist_name:
        raise TimingError(
            "time gain requires reports for the same netlist, got "
            f"{reference.netlist_name!r} vs {candidate.netlist_name!r}"
        )
    return reference.t_pd_ns - candidate.t_pd_ns


def zero_cloud_netlist(variant: FFVariant = FFVariant.MUX) -> Netlist:
    """Two scan FFs wired Q to DI with no gates between: t_comb is zero."""
    return Netlist(
        name="zero_cloud",
        inputs=("SI", "SE"),
        outputs=("Q2",),
        instances=(
            ScanFF("f1", variant, "Q1", "Q2", "SI", "SE"),
            ScanFF("f2", variant, "Q2", "Q1", "Q1", "SE"),
        ),
    )

