"""Out-of-program tracing: wrappers installed around scanforge's public names.

Every wrapper is installed where callers look the name up: a module-level
function is replaced in each loaded `scanforge.*` module that holds it (so
`scanforge.protocol.ff_step` and `scanforge.cli.run_scan_test` are both
caught), and a method or property is replaced on its class. A name that a
later refactor removes or stops calling is simply never counted, so it reads
as zero instead of failing the run.

Each call adds to per-name totals: calls, inclusive seconds, and the seconds
spent in wrapped calls nested directly below it, from which self time
follows. It also adds its seconds to its (caller, callee) edge. Calls of
names marked as spans are also kept as individual spans (id, name, start,
end, parent id); the per-net and per-flop names are far too frequent for
that and are only totalled.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One public name to wrap: `module.attr` or `module.Class.attr`."""

    name: str  # metric prefix, e.g. "protocol.cycle"
    module: str  # scanforge submodule that defines it
    attr: str  # "ff_step", or "CycleSim.cycle" for a method
    span: bool = True  # keep individual spans (False: totals only)
    count_only: bool = False  # a property read: count it, do not time it
    measure_len: bool = False  # add len(result) to "<name>.bytes"


# The layers of scanforge, by module, and the names timed in each.
TARGETS = (
    Target("netlist.parse_netlist", "netlist", "parse_netlist"),
    Target("netlist.comb_order", "netlist", "Netlist.comb_order"),
    Target("netlist.flops", "netlist", "Netlist.flops", count_only=True),
    Target("scan.insert_scan", "scan", "insert_scan"),
    Target("scan.verify_chain", "scan", "verify_chain"),
    Target("protocol.run_scan_test", "protocol", "run_scan_test"),
    Target("protocol.sim_functional", "protocol", "sim_functional"),
    Target("protocol.cycle", "protocol", "CycleSim.cycle"),
    Target("ffmodel.ff_step", "ffmodel", "ff_step", span=False),
    Target("logic.toggled", "logic", "toggled", span=False),
    Target("power.estimate_power", "power", "estimate_power"),
    Target("sta.analyze_timing", "sta", "analyze_timing"),
    Target("vcd.to_vcd", "vcd", "to_vcd", measure_len=True),
    Target("switchsim.settle", "switchsim", "settle"),
    Target("switchsim.step_phase", "switchsim", "SwitchFF.step_phase", span=False),
    Target("switchsim.run_cycles", "switchsim", "run_cycles"),
    Target("reports.format_report", "reports", "format_report", measure_len=True),
)

# Metric prefixes of the layers; "cli" holds the benchmark's own spans
# around `scanforge.cli.main` calls.
LAYERS = (
    "netlist", "scan", "protocol", "ffmodel", "logic", "power", "sta", "vcd",
    "switchsim", "reports", "cli",
)


class Tracer:
    """Collects totals and spans while installed; undoes every patch on exit."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}  # name -> [calls, incl_s, child_s]
        self.sizes: dict[str, int] = {}
        self.edges: dict[tuple[str, str], float] = {}  # (caller, callee) -> callee s
        self.spans: list[tuple[int, str, float, float, int]] = []
        # one frame per open call: [child_s, span id, name]; span 0 is the root
        self._stack: list[list[Any]] = [[0.0, 0, ""]]
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _total(self, name: str) -> list[float]:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name: str, fn: Callable, span: bool, measure_len: bool) -> Callable:
        total = self._total(name)
        stack = self._stack
        ids = self._ids
        sizes = self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if span else parent[1], name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(total, frame, parent, t0, t1, span)
            if measure_len:
                sizes[name] = sizes.get(name, 0) + len(result)
            return result

        return wrapper

    def _counted(self, name: str, fget: Callable) -> property:
        total = self._total(name)

        def counting(obj):
            total[0] += 1
            return fget(obj)

        return property(counting)

    def _close(self, total: list, frame: list, parent: list,
               t0: float, t1: float, span: bool) -> None:
        elapsed = t1 - t0
        total[0] += 1
        total[1] += elapsed
        total[2] += frame[0]
        parent[0] += elapsed
        edge = (parent[2], frame[2])
        self.edges[edge] = self.edges.get(edge, 0.0) + elapsed
        if span:
            self.spans.append((frame[1], frame[2], t0, t1, parent[1]))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around code of the benchmark itself, e.g. one CLI call."""
        total = self._total(name)
        parent = self._stack[-1]
        frame = [0.0, next(self._ids), name]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._close(total, frame, parent, t0, t1, True)

    # -- installation ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "scanforge" or name.startswith("scanforge."))
        ]
        for t in targets:
            self._total(t.name)
            home = sys.modules.get(f"scanforge.{t.module}")
            if home is None:
                continue
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:
                    continue
                if t.count_only:
                    self._set(owner, attr, self._counted(t.name, original.fget))
                else:
                    self._set(owner, attr, self._timed(t.name, original, t.span, t.measure_len))
                continue
            original = home.__dict__.get(attr)
            if original is None:
                continue
            wrapper = self._timed(t.name, original, t.span, t.measure_len)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        calls, incl, child = self.totals.get(name, (0, 0.0, 0.0))
        return incl - child

    def seconds_within(self, caller: str, callee: str) -> float:
        """Seconds of `callee` calls made directly from inside `caller`."""
        return self.edges.get((caller, callee), 0.0)

    def layer_self_seconds(self, layer: str) -> float:
        return sum(
            incl - child
            for name, (calls, incl, child) in self.totals.items()
            if name.split(".", 1)[0] == layer
        )
