"""Static timing analysis: longest combinational path and clock limits.

The clock-period model is t_clk_min = t_cq + t_comb + t_su with t_comb the
largest sum of gate delays over any register-to-register, input-to-register,
register-to-output, or input-to-output path. Scan shifting adds direct Q->SI
hops, so test mode admits zero-gate register-to-register paths.

The longest path is the classic single pass in topological order
(Hitchcock, DAC 1982) over the gate program of ``Netlist.compiled``, the
order and net ids the simulator also uses. The pass depends only on the
gate delays, not on the variant, stage or mode, so ``CompiledNetlist.walks``
keeps the latest one: every report asked of one netlist with one delay
table shares a single walk. Each call then only picks its mode's endpoints
(SI pins in test mode) and traces the path back. Primary inputs launch at
time 0, as flop Qs do, and outputs are required at time 0.

Per-variant flip-flop path delay is tracked two ways: t_pd_ns is the library
row's published figure and t_pd_sum_ns is t_su + t_cq recomputed from the
stored fields. Cross-variant gains quote the published figure; both appear in
reports so a discrepancy between them is visible rather than silent.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .cells import CellLibrary
from .errors import ScanforgeError
from .kinds import FFVariant, Mode, Stage
from .netlist import CompiledNetlist, Netlist, ScanFF


class TimingError(ScanforgeError):
    code = "sta.analysis"


class TimingReport(NamedTuple):
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


_UNREACHED = float("-inf")


def _walk(
    cn: CompiledNetlist, delays: Sequence[float]
) -> tuple[list[float], list[int], list[int]]:
    """Latest arrival at every net from any launch point, one pass in program order.

    ``delays`` holds each program step's gate delay. Returns, by net id, the
    arrival (-inf where no launch point reaches), the input net it came
    through and the program step that drives it (both -1 at a launch point).
    Ties go to a gate's first input.
    """
    dist = [_UNREACHED] * len(cn.nets)
    pred = [-1] * len(cn.nets)
    via = [-1] * len(cn.nets)
    for i in (*cn.inputs.values(), *cn.ff_q):
        dist[i] = 0.0
    for s, ((_, out, a, b), delay) in enumerate(zip(cn.program, delays)):
        best = dist[a]
        if dist[b] > best:
            best, a = dist[b], b
        d = best + delay
        # skips a gate nothing reaches (-inf + delay is -inf)
        if d > dist[out]:
            dist[out] = d
            pred[out] = a
            via[out] = s
    return dist, pred, via


def _critical_path(
    cn: CompiledNetlist,
    walk: tuple[list[float], list[int], list[int]],
    mode: Mode,
) -> tuple[float, tuple[str, ...]]:
    """Latest endpoint of the mode over a walk, with the path that reaches it.

    Endpoints are every flop's DI, its SI too in test mode, and the outputs.
    Ties go to the earliest: flops in order, DI before SI, then outputs.
    """
    dist, pred, via = walk
    t_comb, net, capture_id = _UNREACHED, -1, None
    test = mode is Mode.TEST
    for fid, di, si in zip(cn.ff_ids, cn.ff_di, cn.ff_si):
        if dist[di] > t_comb:
            t_comb, net, capture_id = dist[di], di, fid
        if test and si >= 0 and dist[si] > t_comb:
            t_comb, net, capture_id = dist[si], si, fid
    for i in cn.outputs:
        if dist[i] > t_comb:
            t_comb, net, capture_id = dist[i], i, None

    if net < 0:
        return 0.0, ()
    path: list[str] = [] if capture_id is None else [capture_id]
    while pred[net] >= 0:
        path.append(cn.gates[via[net]].id)
        net = pred[net]
    # the chain ends at a launch point: an input, or a flop's Q
    launch_id = dict(zip(cn.ff_q, cn.ff_ids)).get(net)
    if launch_id is not None:
        path.append(launch_id)
    path.reverse()
    return t_comb, tuple(path)


def analyze_timing(
    n: Netlist,
    variant: FFVariant,
    stage: Stage,
    mode: Mode,
    library: Optional[CellLibrary] = None,
) -> TimingReport:
    """Longest-path analysis of one netlist under one FF variant and mode.

    All flip-flops are timed with the requested variant's parameters, which
    keeps cross-variant comparisons on the same netlist apples to apples.
    Without ``library`` they are priced from ``CellLibrary.builtin()``.
    """
    lib = CellLibrary.builtin() if library is None else library
    timing = lib.ff(variant, stage).mode(mode)

    cn = n.compiled
    delay = {t: params.delay_ns for t, params in lib.gates.items()}
    # equal tables walk alike: every sum starts from a launch time of +0.0
    key = tuple(delay.items())
    walk = cn.walks.get(key)
    if walk is None:
        walk = _walk(cn, [delay[g.gtype] for g in cn.gates])
        cn.walks.clear()
        cn.walks[key] = walk
    t_comb, path = _critical_path(cn, walk, mode)
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


def zero_cloud_netlist() -> Netlist:
    """Two mux scan FFs wired Q to DI with no gates between: t_comb is zero."""
    return Netlist(
        name="zero_cloud",
        inputs=("SI", "SE"),
        outputs=("Q2",),
        instances=(
            ScanFF("f1", FFVariant.MUX, "Q1", "Q2", "SI", "SE"),
            ScanFF("f2", FFVariant.MUX, "Q2", "Q1", "Q1", "SE"),
        ),
    )

