"""Scan insertion: replace D flip-flops with scan flip-flops and stitch a chain.

The chain is a single shift path: the first flip-flop's SI pin connects to a
new SI input port, every later flip-flop's SI connects to the previous
flip-flop's Q, and a buffer exposes the last Q as a new SO output port. A new
SE input port drives every scan flip-flop's enable. Functional connectivity
(DI sources and Q fanout) is untouched, so with SE=0 the inserted netlist
behaves exactly like the original.

``verify_chain`` recovers the chain from any netlist containing scan
flip-flops, and round-trips the plan produced by ``insert_scan``.
"""

from __future__ import annotations

from typing import Container, NamedTuple

from .errors import ScanforgeError
from .kinds import FFVariant
from .netlist import (
    _IDENT_RE,
    CLK_NET,
    Dff,
    Gate,
    GateType,
    Instance,
    Netlist,
    ScanFF,
)


class ScanPlanError(ScanforgeError):
    """Plan and netlist disagree (coverage, duplicates, already-scanned input)."""

    code = "scan.plan"


class NameCollisionError(ScanforgeError):
    code = "scan.collision"


class BrokenChainError(ScanforgeError):
    code = "scan.broken_chain"


class MultipleChainsError(ScanforgeError):
    code = "scan.multiple_chains"


class MixedVariantError(ScanforgeError):
    code = "scan.mixed_variant"


class ScanChainPlan(NamedTuple):
    variant: FFVariant
    order: tuple[str, ...]  # flip-flop instance ids, SI side first
    chain_in: str = "SI"
    chain_out: str = "SO"
    enable: str = "SE"


def _fresh_name(wanted: str, taken: Container[str]) -> str:
    if wanted not in taken:
        return wanted
    k = 1
    while f"{wanted}_{k}" in taken:
        k += 1
    return f"{wanted}_{k}"


def default_plan(n: Netlist, variant: FFVariant) -> ScanChainPlan:
    """Declaration-order plan with port names bumped past any collisions."""
    nets = n.compiled.index
    return ScanChainPlan(
        variant=variant,
        order=tuple(f.id for f in n.flops),
        chain_in=_fresh_name("SI", nets),
        chain_out=_fresh_name("SO", nets),
        enable=_fresh_name("SE", nets),
    )


def insert_scan(n: Netlist, plan: ScanChainPlan) -> Netlist:
    """Convert every D flip-flop into a scan flip-flop stitched per the plan.

    The result is a plain ``Netlist``: its compiled form, and with it the
    full structural check, is built the first time a simulation, STA or
    power call reads it, as for any netlist built in code.
    """
    flops = n.flops
    if any(isinstance(f, ScanFF) for f in flops):
        raise ScanPlanError("netlist already contains scan flip-flops")
    dffs = {f.id: f for f in flops}
    if not dffs:
        raise ScanPlanError("netlist has no flip-flops to convert")
    if len(set(plan.order)) != len(plan.order):
        raise ScanPlanError("plan order repeats a flip-flop id")
    if set(plan.order) != set(dffs):
        raise ScanPlanError(
            "plan order does not cover exactly the netlist's flip-flops"
        )

    nets = n.compiled.index
    for name in (plan.chain_in, plan.chain_out, plan.enable):
        if not _IDENT_RE.match(name):
            raise ScanPlanError(f"chain port name {name!r} is not a netlist identifier")
        if name in nets:
            raise NameCollisionError(f"net name {name!r} already exists")
    if len({plan.chain_in, plan.chain_out, plan.enable, CLK_NET}) != 4:
        raise NameCollisionError("chain port names must be distinct and not CLK")

    si_of: dict[str, str] = {}
    prev = plan.chain_in
    for fid in plan.order:
        si_of[fid] = prev
        prev = dffs[fid].q
    last_q = prev

    instances: list[Instance] = []
    for inst in n.instances:
        if isinstance(inst, Dff):
            inst = ScanFF(inst.id, plan.variant, inst.q, inst.di, si_of[inst.id], plan.enable)
        instances.append(inst)
    ids = {i.id for i in instances}
    instances.append(Gate(_fresh_name("u_so", ids), GateType.BUF, plan.chain_out, (last_q,)))

    return Netlist(
        name=n.name,
        inputs=n.inputs + (plan.chain_in, plan.enable),
        outputs=n.outputs + (plan.chain_out,),
        instances=tuple(instances),
    )


def verify_chain(n: Netlist) -> ScanChainPlan:
    """Recover the unique SI -> SO shift path, or raise a chain error."""
    sffs = [f for f in n.flops if isinstance(f, ScanFF)]
    if not sffs:
        raise BrokenChainError("netlist contains no scan flip-flops")

    variants = {f.variant for f in sffs}
    if len(variants) != 1:
        raise MixedVariantError(
            "mixed scan flip-flop variants: " + ", ".join(sorted(v.value for v in variants))
        )
    variant = variants.pop()

    enables = {f.se for f in sffs}
    if len(enables) != 1:
        raise BrokenChainError("scan flip-flops use different enable nets")
    enable = enables.pop()
    if enable not in n.inputs:
        raise BrokenChainError(f"enable net {enable!r} is not a primary input")

    q_to_ff = {f.q: f for f in sffs}
    heads = [f for f in sffs if f.si not in q_to_ff]
    if len(heads) > 1:
        raise MultipleChainsError(
            "multiple chain heads: " + ", ".join(sorted(f.id for f in heads))
        )
    if not heads:
        raise BrokenChainError("no chain head (scan inputs form a cycle)")
    head = heads[0]
    if head.si not in n.inputs:
        raise BrokenChainError(
            f"chain input {head.si!r} (SI of {head.id!r}) is not a primary input"
        )

    si_to_ff: dict[str, ScanFF] = {}
    for f in sffs:
        if f.si in si_to_ff:
            raise MultipleChainsError(
                f"net {f.si!r} feeds SI of both {si_to_ff[f.si].id!r} and {f.id!r}"
            )
        si_to_ff[f.si] = f

    order = [head.id]
    cur = head
    while cur.q in si_to_ff:
        cur = si_to_ff[cur.q]
        order.append(cur.id)
    if len(order) != len(sffs):
        missing = sorted(set(f.id for f in sffs) - set(order))
        raise BrokenChainError(
            "chain does not reach flip-flops: " + ", ".join(missing)
        )

    candidates = []
    if cur.q in n.outputs:
        candidates.append(cur.q)
    tail = (cur.q,)
    for g in n.gates:
        if g.ins == tail and g.gtype == GateType.BUF and g.out in n.outputs:
            candidates.append(g.out)
    if not candidates:
        raise BrokenChainError(
            f"chain output (Q of {cur.id!r}) is not observable at a primary output"
        )
    # Latest-declared output wins so insert_scan's appended stitch round-trips
    # even when the last Q was already observable.
    pos = {net: i for i, net in enumerate(n.outputs)}
    chain_out = max(candidates, key=lambda net: pos[net])

    return ScanChainPlan(
        variant=variant,
        order=tuple(order),
        chain_in=head.si,
        chain_out=chain_out,
        enable=enable,
    )
