"""The three benchmark workloads: their shapes, their work and their checks.

Each workload splits its layers apart: a layer does most of its work in one
workload and little in another, so an optimisation of that layer has a
workload that exercises it and one on which the prediction is no change.

- `shift-wide` (in process): `run_scan_test(pipelined=True)` on a wide,
  shallow `approx` design, then `estimate_power` for all three variants.
  Almost every cycle shifts, so the flip-flop update (`ff_step`), approx
  contention counting and per-net toggle accounting dominate. It has the
  longest trace per gate, and it is the run a shift-only (cycle-parallel)
  engine targets.
- `capture-deep` (in process): `run_scan_test(pipelined=False)` on a short
  `mux` chain feeding a deep cloud with one primary input held at X, then
  `analyze_timing` for every variant x stage x mode and `to_vcd`. The
  per-cycle combinational evaluation dominates and the flip-flop update is
  small; X propagation, X responses and X warnings are exercised, and STA
  and VCD get a 2.6k-net design.
- `cli-flow` (subprocesses): `scantool` commands on the mid-size `gdi`
  design, the interactive path: interpreter start-up, parsing in every
  process, report formatting, and the switch-level `settle` with its phase
  cache. `sim` and `power` run functional cycles (SE=0), which have no shift
  window, so a shift-only optimisation must show no change here.

Every operation's output is reduced to digests and compared with goldens
recorded from the program at the commit that added this benchmark (see
`record_goldens.py`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from designs import Shape, design_text, pattern_text, vectors

from scanforge import cli, netlist, power, protocol, scan, sta, vcd
from scanforge.cells import FFVariant, Mode, Stage
from scanforge.logic import X


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shift-wide",
            # 128 FFs, 144 gates in 2 levels, 283 nets; 3 vectors pipelined
            # = 515 cycles, all but the 3 capture cycles with SE=1. Small
            # enough that a pass takes well under a second, so a run holds
            # dozens of passes, each paired closely with the host-speed
            # calibration (`calibrate.py`); per cycle the work has the same
            # make-up as at 500 FFs.
            Shape("shift-wide", ffs=128, gates=144, inputs=8, outputs=8,
                  levels=2, variant="approx", vectors=3),
            "pipelined scan test of a wide shallow 128-FF approx design: almost"
            " every cycle shifts, so FF update, contention and toggle counting dominate",
        ),
        Workload(
            "capture-deep",
            # 48 FFs, 2,600 gates in 40 levels, 2,667 nets; 2 vectors
            # unpipelined = 194 cycles, about a second a pass; pi0 held at X.
            Shape("capture-deep", ffs=48, gates=2600, inputs=16, outputs=8,
                  levels=40, variant="mux", vectors=2),
            "48-FF mux chain into a 2,600-gate deep cloud with an X input:"
            " per-cycle comb eval, X propagation, STA and VCD dominate; FF update is small",
        ),
        Workload(
            "cli-flow",
            # The ROADMAP's mid-size design: 200 FFs, 512 gates in 8 levels,
            # 731 nets; 1 vector = 401 scan-test cycles.
            Shape("cli-flow", ffs=200, gates=512, inputs=16, outputs=8,
                  levels=8, variant="gdi", vectors=1),
            "scantool subprocesses on a 731-net gdi design: start-up, parsing,"
            " reports, functional (no-shift) sims and the switch-level checker with its cache",
        ),
    )
}

X_INPUT = "pi0"  # capture-deep's free primary input held at X
FUNCTIONAL_CYCLES = 100  # cli-flow `sim` and `power` (the `power` default)
BUNDLED_CELLS = ("mux_sff.tnl", "gdi_sff.tnl", "approx_sff.tnl")
COMMAND_TIMEOUT_S = 120.0


# -- digests ---------------------------------------------------------------


def digest(value: Any) -> str:
    """SHA-256 (first 16 hex digits) of bytes, or of canonical JSON."""
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def _nonzero(counts: dict[str, int]) -> dict[str, int]:
    # Zero entries carry no information; leaving them out keeps the digest
    # independent of whether a trace lists untouched nets.
    return {k: v for k, v in sorted(counts.items()) if v}


def trace_digests(trace, responses: list[str]) -> dict[str, str]:
    return {
        "responses": digest(responses),
        "cycles": digest(trace.cycles),
        "phase_counts": digest(dict(trace.phase_counts)),
        "net_toggles": digest(_nonzero(trace.net_toggles)),
        "internal_toggles": digest(_nonzero(trace.ff_internal_toggles)),
        "contentions": digest(_nonzero(trace.ff_contentions)),
        "warnings": digest(list(trace.warnings)),
    }


def power_digest(r) -> dict[str, str]:
    return {
        "report": digest(
            {
                "variant": r.variant.value, "stage": r.stage.value, "mode": r.mode.value,
                "cycles": r.cycles, "t_clk_ns": r.t_clk_ns,
                "ff_internal_fj": r.ff_internal_energy_fj,
                "comb_fj": r.combinational_energy_fj,
                "contention_cycles": r.contention_cycles,
                "per_ff_fj": r.per_ff_energy_fj,
            }
        )
    }


def timing_digest(r) -> dict[str, str]:
    return {
        "report": digest(
            {
                "variant": r.variant.value, "stage": r.stage.value, "mode": r.mode.value,
                "t_comb_ns": r.t_comb_ns, "t_su_ns": r.t_su_ns, "t_cq_ns": r.t_cq_ns,
                "t_clk_min_ns": r.t_clk_min_ns, "f_max_hz": r.f_max_hz,
                "t_pd_ns": r.t_pd_ns, "t_pd_sum_ns": r.t_pd_sum_ns,
                "critical_path": list(r.critical_path),
            }
        )
    }


# -- results of one iteration ----------------------------------------------


@dataclass
class Outcome:
    """What one pass of a workload did: its checks, timings and figures.

    The timed work fills `checks` with one callable per operation; each
    returns that operation's digests. They run in `finish`, after the clock
    has stopped, so checking costs no measured time. `op_s` holds each
    operation's own seconds, in the order the operations ran.
    """

    checks: dict[str, Callable[[], dict[str, str]]] = field(default_factory=dict)
    ops: dict[str, dict[str, str]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # op -> exception text
    wall_s: float = 0.0
    sim_cycles: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    op_s: dict[str, float] = field(default_factory=dict)  # operation -> seconds
    peak_child_rss_mb: float = 0.0
    host_s: float = 0.0  # calibration loop seconds around this pass (`calibrate.py`)

    @property
    def sim_s(self) -> float:
        return sum(s for op, s in self.op_s.items() if op in SIMULATING)

    def attempt(self, op: str, work: Callable[[], Callable[[], dict[str, str]]]) -> None:
        """Run and time one operation; an exception marks it failed."""
        t0 = perf_counter()
        try:
            self.checks[op] = work()
        except Exception as exc:
            self.errors[op] = f"{type(exc).__name__}: {exc}"
        self.op_s[op] = perf_counter() - t0

    def finish(self) -> "Outcome":
        for op, check in self.checks.items():
            try:
                self.ops[op] = check()
            except Exception as exc:
                self.errors[op] = f"{type(exc).__name__}: {exc}"
        self.checks = {}
        return self


def shift_share(phase_counts: dict[str, int]) -> float:
    """Share of cycles with SE=1: every scan-test phase but capture."""
    cycles = sum(phase_counts.values())
    return (cycles - phase_counts.get("capture", 0) - phase_counts.get("functional", 0)) / cycles


def trace_stats(trace, responses: list[str]) -> dict[str, Any]:
    return {
        "cycles": trace.cycles,
        "phase_counts": dict(sorted(trace.phase_counts.items())),
        "shift_cycle_share": shift_share(trace.phase_counts),
        "contention_cycles": trace.contention_cycles,
        "x_response_bits": sum(r.count("x") for r in responses),
        "net_toggles": trace.total_net_toggles,
        "warnings": len(trace.warnings),
    }


# -- in-process workloads --------------------------------------------------


@dataclass
class Prepared:
    design: str
    netlist: Any
    plan: Any
    patterns: Any


def prepare(shape: Shape, seed: int) -> Prepared:
    """Set-up: generate, parse, insert + verify the chain, parse patterns."""
    text = design_text(shape, seed)
    n = netlist.parse_netlist(text)
    scanned = scan.insert_scan(n, scan.default_plan(n, FFVariant(shape.variant)))
    plan = scan.verify_chain(scanned)
    patterns = netlist.parse_patterns(pattern_text(vectors(shape, seed)), len(plan.order))
    return Prepared(text, scanned, plan, patterns)


def design_digests(p: Prepared) -> dict[str, str]:
    return {
        "design_text": digest(p.design.encode()),
        "scanned_text": digest(netlist.serialize_netlist(p.netlist).encode()),
        "chain": digest(list(p.plan.order) + [p.plan.chain_in, p.plan.chain_out, p.plan.enable]),
    }


def _scan_test(out: Outcome, p: Prepared, pipelined: bool, pi_defaults=None) -> list:
    """run_scan_test as one operation; returns [(trace, responses)] or []."""
    result: list = []

    def work():
        trace, responses = protocol.run_scan_test(
            p.netlist, p.patterns, pipelined=pipelined, pi_defaults=pi_defaults, plan=p.plan
        )
        out.sim_cycles = trace.cycles
        result.append((trace, responses))
        return lambda: trace_digests(trace, responses)

    out.attempt("run_scan_test", work)
    return result


def run_shift_wide(p: Prepared) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    result = _scan_test(out, p, pipelined=True)
    reports = {}
    for trace, _ in result:
        for v in FFVariant:
            def work(v=v):
                reports[v] = r = power.estimate_power(trace, v, Stage.POST_LAYOUT, t_clk_ns=1.0)
                return lambda: power_digest(r)
            out.attempt(f"estimate_power.{v.value}", work)
    out.wall_s = perf_counter() - t0
    for trace, responses in result:
        out.stats = trace_stats(trace, responses)
        out.stats["energy_fj"] = {v.value: r.total_energy_fj for v, r in reports.items()}
    return out.finish()


def run_capture_deep(p: Prepared) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    result = _scan_test(out, p, pipelined=False, pi_defaults={X_INPUT: X})
    for v in FFVariant:
        for st in Stage:
            for m in Mode:
                def work(v=v, st=st, m=m):
                    r = sta.analyze_timing(p.netlist, v, st, m)
                    return lambda: timing_digest(r)
                out.attempt(f"analyze_timing.{v.value}.{st.value}.{m.value}", work)
    texts: list[str] = []
    for trace, _ in result:
        def work():
            texts.append(vcd.to_vcd(trace))
            return lambda: {"bytes": digest(texts[0].encode())}
        out.attempt("to_vcd", work)
    out.wall_s = perf_counter() - t0
    for trace, responses in result:
        out.stats = trace_stats(trace, responses)
        out.stats["vcd_bytes"] = len(texts[0]) if texts else 0
    return out.finish()


# -- cli-flow --------------------------------------------------------------


def cli_commands(shape: Shape, seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(label, argv, files whose bytes are checked) for one pass, in order."""
    common = ["--seed", str(seed)]
    cmds = [
        ("insert", ["insert", "design.snl", "--variant", shape.variant,
                    "--netlist-out", "scanned.snl", *common], ["scanned.snl"]),
        ("sta", ["sta", "scanned.snl", "--variant", shape.variant, "--mode", "test",
                 *common], []),
        ("compare", ["compare", "scanned.snl", *common], []),
        ("power", ["power", "scanned.snl", "--variant", shape.variant,
                   "--cycles", str(FUNCTIONAL_CYCLES), *common], []),
        ("sim", ["sim", "scanned.snl", "--cycles", str(FUNCTIONAL_CYCLES),
                 "--vcd", "waves.vcd", *common], ["waves.vcd"]),
        ("scan-test", ["scan-test", "scanned.snl", "patterns.pat", "--format", "csv",
                       *common], []),
    ]
    for cell in BUNDLED_CELLS:
        cmds.append((f"switchsim.{cell.split('_')[0]}",
                     ["switchsim", cell, "--check-behavioral", *common], []))
    return cmds


def write_cli_inputs(work: Path, shape: Shape, seed: int, expected: list[str]) -> None:
    (work / "design.snl").write_text(design_text(shape, seed), encoding="utf-8")
    (work / "patterns.pat").write_text(
        pattern_text(vectors(shape, seed), expected), encoding="utf-8"
    )


def _csv_rows(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines()[1:]:
        key, _, value = line.partition(",")
        rows[key] = value
    return rows


def _check_cli(out: Outcome, label: str, code: int, stdout: bytes, stderr: bytes,
               files: dict[str, bytes]) -> dict[str, str]:
    """Digests of one command's report and files; reads the figures it reports."""
    if code != 0:
        raise RuntimeError(f"exit {code}: {stderr.decode(errors='replace').strip()}")
    digests = {"stdout": digest(stdout)}
    for name, data in files.items():
        digests[name] = digest(data)
    text = stdout.decode()
    if label == "scan-test":
        rows = _csv_rows(text)
        if any(k.startswith("report.scan_test.mismatched_vectors.") for k in rows):
            raise RuntimeError("scan-test reports mismatched vectors")
        responses = [
            rows[f"report.scan_test.responses.{i}"]
            for i in range(int(rows["report.scan_test.num_vectors"]))
        ]
        phases = {k.rsplit(".", 1)[1]: int(v) for k, v in rows.items()
                  if k.startswith("report.scan_test.phase_counts.")}
        cycles = int(rows["report.scan_test.cycles"])
        out.sim_cycles += cycles
        out.stats["scan_test"] = {
            "cycles": cycles,
            "phase_counts": phases,
            "shift_cycle_share": shift_share(phases),
            "contention_cycles": int(rows["report.scan_test.contention_cycles"]),
            "x_response_bits": sum(r.count("x") for r in responses),
            "net_toggles": int(rows["report.scan_test.total_net_toggles"]),
        }
    elif label == "power":
        doc = json.loads(text)["report"]["power"]
        out.sim_cycles += doc["cycles"]
        out.stats["power"] = {"cycles": doc["cycles"], "energy_fj": doc["total_fj"],
                              "contention_cycles": doc["contention_cycles"]}
    elif label == "sim":
        doc = json.loads(text)["report"]["sim"]
        out.sim_cycles += doc["cycles"]
        out.stats["sim"] = {"cycles": doc["cycles"], "net_toggles": doc["total_net_toggles"]}
    elif label.startswith("switchsim."):
        doc = json.loads(text)["report"]["switchsim"]
        if doc["verdict"] != "equivalent":
            raise RuntimeError(f"switch-level check: {doc['verdict']}")
    return digests


# The operations that simulate cycles (in process, and the `scantool`
# commands); sim_cycles_per_s counts their cycles over their wall time.
SIMULATING = ("run_scan_test", "sim", "power", "scan-test")


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap proc; return its exit code and peak RSS in MB (killed on timeout)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# run_one(label, argv) -> (exit code, stdout, stderr, peak RSS in MB)
RunOne = Callable[[str, list[str]], tuple[int, bytes, bytes, float]]


def _cli_pass(shape: Shape, seed: int, work: Path, run_one: RunOne,
              calibrate: Callable[[], float] | None = None) -> Outcome:
    """One pass of the commands; with `calibrate`, `host_s` is the median of
    its times taken before each command (outside `wall_s`) and after the last."""
    out = Outcome()
    host: list[float] = []
    wall = 0.0
    for label, argv, files in cli_commands(shape, seed):
        if calibrate is not None:
            host.append(calibrate())
        t0 = perf_counter()
        code, stdout, stderr, rss = run_one(label, argv)
        out.op_s[label] = perf_counter() - t0
        wall += out.op_s[label]
        out.peak_child_rss_mb = max(out.peak_child_rss_mb, rss)
        data = {name: (work / name).read_bytes() for name in files if code == 0}
        out.checks[label] = (
            lambda label=label, code=code, stdout=stdout, stderr=stderr, data=data:
            _check_cli(out, label, code, stdout, stderr, data)
        )
    out.wall_s = wall
    if calibrate is not None:
        host.append(calibrate())
        out.host_s = statistics.median(host)
    return out.finish()


def run_cli_subprocess(work: Path, shape: Shape, seed: int, env: dict[str, str],
                       calibrate: Callable[[], float] | None = None) -> Outcome:
    """One pass of `scantool` commands, each in a fresh interpreter."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"

    def run_one(label: str, argv: list[str]):
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            proc = subprocess.Popen(
                [sys.executable, "-m", "scanforge", *argv],
                cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
            )
            code, rss = _wait(proc, COMMAND_TIMEOUT_S)
        return code, out_path.read_bytes(), err_path.read_bytes(), rss

    return _cli_pass(shape, seed, work, run_one, calibrate)


def run_cli_inprocess(
    work: Path, shape: Shape, seed: int,
    span: Callable[[str], Any] = lambda name: contextlib.nullcontext(),
) -> Outcome:
    """The same pass through `scanforge.cli.main(argv)` in this process."""

    def run_one(label: str, argv: list[str]):
        so, se = io.StringIO(), io.StringIO()
        with span(f"cli.{label.split('.')[0]}"):
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                code = cli.main(argv)
        return code, so.getvalue().encode(), se.getvalue().encode(), 0.0

    cwd = os.getcwd()
    os.chdir(work)
    try:
        return _cli_pass(shape, seed, work, run_one)
    finally:
        os.chdir(cwd)


def expected_responses(shape: Shape, seed: int) -> list[str]:
    """Responses of the cli-flow pattern set, computed through the library."""
    p = prepare(shape, seed)
    _, responses = protocol.run_scan_test(p.netlist, p.patterns, plan=p.plan)
    return responses


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- goldens ---------------------------------------------------------------

# `estimate_power` sums per-net energies in the order of a dict filled from a
# set of net names, so the last bits of its totals (and the bytes of the
# `power` report) depend on the string hash seed. Runs, goldens and every
# subprocess therefore use one fixed seed.
HASH_SEED = "0"


def pin_hash_seed(script: str, argv: list[str]) -> None:
    """Re-execute this interpreter with PYTHONHASHSEED pinned, if it is not."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, script, *argv], env)


GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Goldens exist for this many design instances per workload; a run's seed
# picks instance `seed % GOLDEN_BANK`, so every seed has recorded outputs.
GOLDEN_BANK = 32


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def mismatches(got: dict[str, dict[str, str]], errors: dict[str, str],
               want: dict[str, dict[str, str]]) -> tuple[int, list[str]]:
    """Compare one pass's digests with the goldens: (ops attempted, failures)."""
    failures = [f"{op}: {err}" for op, err in sorted(errors.items())]
    for op, digests in sorted(want.items()):
        if op in errors:
            continue
        if op not in got:
            failures.append(f"{op}: not run")
            continue
        bad = sorted(k for k in set(digests) | set(got[op]) if digests.get(k) != got[op].get(k))
        if bad:
            failures.append(f"{op}: differs from golden in {', '.join(bad)}")
    extra = sorted(set(got) - set(want))
    failures.extend(f"{op}: no golden" for op in extra)
    return len(want) + len(extra), failures
