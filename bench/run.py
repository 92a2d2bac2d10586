"""scanforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload shift-wide --seed 3 --seconds 38 --trace 0

Run from the root of a scanforge checkout; the program is imported from its
`src/` directory, so nothing is installed or built. One client drives the
program in a closed loop: the next operation starts when the previous one
ends. `--seconds` bounds the measured loop; a pass is never cut short, so a
run measures at least one pass.

`--trace 0` reports the end-to-end metrics, each a median over the run's
samples. Times are in reference seconds: the run is pinned to one core, and
every set-up probe and every pass (every command, in `cli-flow`) is paired
with the host-speed calibration loop timed right around it (see
`calibrate.py`), which takes out the host's swings in speed. The context
line holds the raw wall-clock samples too, with their quartiles.

`--trace 1` is a separate run: untraced passes for half the time, then
passes with wrappers around every public scanforge name (see `tracer.py`),
reporting the per-layer metrics and the tracing overhead; the spans and
totals are written to `.bench_out/trace-<workload>-seed<seed>.json`.

Every pass is checked against goldens; an operation that raises, exits
non-zero or differs from its golden is failed. The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds the
run context, every metric's median and quartiles, and the simulated
statistics. Those statistics come from an unvalidated model (not compared
with silicon) and must repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 11
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "netlist.parse_netlist.s": "s",
    "netlist.comb_order.calls": "count",
    "netlist.comb_order.s": "s",
    "netlist.flops.per_cycle": "count",
    "scan.insert_scan.s": "s",
    "scan.verify_chain.s": "s",
    "protocol.run_scan_test.s": "s",
    "protocol.sim_functional.s": "s",
    "protocol.cycle.calls": "count",
    "protocol.cycle.s": "s",
    "protocol.cycle.self_s": "s",
    "ffmodel.ff_step.calls": "count",
    "ffmodel.ff_step.s": "s",
    "ffmodel.ff_step.cycle_share": "ratio",
    "logic.toggled.calls": "count",
    "logic.toggled.s": "s",
    "power.estimate_power.s": "s",
    "sta.analyze_timing.calls": "count",
    "sta.analyze_timing.s": "s",
    "vcd.to_vcd.s": "s",
    "vcd.bytes": "bytes",
    "switchsim.settle.calls": "count",
    "switchsim.settle.s": "s",
    "switchsim.step_phase.calls": "count",
    "switchsim.cache_hit_ratio": "ratio",
    "switchsim.run_cycles.s": "s",
    "reports.format_report.s": "s",
    "reports.bytes": "bytes",
    "cli.import_s": "s",
    "cli.insert.s": "s",
    "cli.sim.s": "s",
    "cli.scan-test.s": "s",
    "cli.sta.s": "s",
    "cli.power.s": "s",
    "cli.switchsim.s": "s",
    "cli.compare.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def summary(values: list[float], unit: str) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values),
            "n": len(values), "unit": unit}


def run_context(workload: str, seed: int, instance: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        git_sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scanforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "instance": instance,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "clients": 1,
    }


class Run:
    """Samples, failures and figures gathered by one benchmark run."""

    def __init__(self, workload, seed: int, instance: int, golden: dict, env: dict) -> None:
        self.workload = workload
        self.seed = seed  # as given; names the trace file
        self.instance = instance  # what the inputs are generated from
        self.golden = golden
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.setup_pairs: list[tuple[float, float]] = []  # (probe s, calibration s)
        self.stats: dict = {}

    def score(self, ops: dict, errors: dict, want: dict, what: str) -> None:
        import workloads

        attempted, failures = workloads.mismatches(ops, errors, want)
        self.attempted += attempted
        self.failures.extend(f"{what}: {f}" for f in failures)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def probe(self, argv: list[str]) -> tuple[float, dict]:
        """Run a child interpreter; return its `ready` time since launch and output."""
        t0 = perf_counter()
        res = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                             stdin=subprocess.DEVNULL)
        if res.returncode != 0:
            raise RuntimeError(f"exit {res.returncode}: {res.stderr.strip()[-500:]}")
        doc = json.loads(res.stdout.splitlines()[-1])
        return doc["ready"] - t0, doc

    def measure_setup(self) -> None:
        before = calibrate.loop_seconds()
        for _ in range(SETUP_PROBES):
            try:
                elapsed, doc = self.probe([str(HERE / "probe.py"), self.workload.name,
                                           str(self.instance)])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                self.attempted += 1
                self.failures.append(f"setup probe: {exc}")
                continue
            after = calibrate.loop_seconds()
            self.setup_pairs.append((elapsed, (before + after) / 2))
            before = after
            self.add("setup_wall_s", elapsed)
            self.score({"setup": doc["design"]}, {}, {"setup": self.golden["design"]},
                       "setup probe")

    def measure_import(self) -> float:
        """Median seconds to import `scanforge.cli` in a fresh interpreter."""
        code = ("import json, time; t = time.perf_counter(); import scanforge.cli; "
                "now = time.perf_counter(); print(json.dumps({'ready': now, 'import_s': now - t}))")
        times = []
        for _ in range(IMPORT_PROBES):
            self.attempted += 1
            try:
                times.append(self.probe(["-c", code])[1]["import_s"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                self.failures.append(f"import probe: {exc}")
        return statistics.median(times) if times else 0.0


def timed_passes(seconds: float, one_pass, calibrated: bool = False) -> list:
    """Closed loop: passes back to back while another is likely to end near `seconds`.

    A pass is never cut short, so a run may end up to half a pass past `seconds`.
    With `calibrated`, the calibration loop runs between passes, and each
    outcome's `host_s` is the mean of the loop's times before and after it.
    """
    outcomes = []
    start = perf_counter()
    before = calibrate.loop_seconds() if calibrated else 0.0
    while True:
        gc.collect()
        outcome = one_pass()
        if calibrated:
            after = calibrate.loop_seconds()
            outcome.host_s = (before + after) / 2
            before = after
        outcomes.append(outcome)
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(outcomes) >= seconds:
            return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scanforge" / "__init__.py").is_file():
        return fail(f"no scanforge sources at {ROOT / 'src' / 'scanforge'}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import scanforge
    import workloads

    workloads.pin_hash_seed(__file__, sys.argv[1:] if argv is None else argv)
    # One core for this process and every child it starts, so that the
    # calibration loop and the timed work share that core's contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if Path(scanforge.__file__).resolve().parent != ROOT / "src" / "scanforge":
        return fail(f"imported scanforge from {scanforge.__file__}, not this checkout")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    try:
        goldens = json.loads(workloads.golden_path(workload.name).read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read goldens: {exc}")
    instance = args.seed % workloads.GOLDEN_BANK
    golden = goldens["instances"][str(instance)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    run = Run(workload, args.seed, instance, golden, env)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        if args.trace:
            metrics = traced_run(run, work, args.seconds)
        else:
            metrics = timed_run(run, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    for f in run.failures[:20]:
        print(f"bench: FAILED {f}", file=sys.stderr)
    context = run_context(workload.name, args.seed, instance)
    context.update({
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "shape": vars(workload.shape) | {"nets": workload.shape.nets},
        "why": workload.why,
        "samples": {k: summary(v, END_TO_END.get(k) or PER_LAYER.get(k, "s"))
                    for k, v in sorted(run.samples.items())},
        "error_rate": failed / max(run.attempted, 1),
        "simulated": run.stats,
        "simulated_note": "unvalidated against silicon; must repeat exactly per seed",
    })
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _value(metric: str, value: float, units: dict) -> dict:
    return {"value": value, "unit": units[metric]}


def in_process_pass(run: Run):
    import workloads

    fn = {"shift-wide": workloads.run_shift_wide,
          "capture-deep": workloads.run_capture_deep}[run.workload.name]
    prepared = workloads.prepare(run.workload.shape, run.instance)
    return lambda: fn(prepared)


def cli_pass(run: Run, work: Path, in_process: bool):
    import workloads

    shape = run.workload.shape
    workloads.write_cli_inputs(work, shape, run.instance, run.golden["responses"])
    if in_process:
        return lambda **kw: workloads.run_cli_inprocess(work, shape, run.instance, **kw)
    return lambda: workloads.run_cli_subprocess(work, shape, run.instance, run.env,
                                                calibrate.loop_seconds)


def record(run: Run, outcomes: list, what: str) -> None:
    for o in outcomes:
        run.score(o.ops, o.errors, run.golden["ops"], what)
    run.stats = outcomes[-1].stats


def timed_run(run: Run, work: Path, seconds: float) -> dict:
    import workloads

    run.measure_setup()
    cli = run.workload.name == "cli-flow"
    one_pass = cli_pass(run, work, in_process=False) if cli else in_process_pass(run)
    # cli-flow calibrates between its commands (`workloads._cli_pass`)
    outcomes = timed_passes(seconds, one_pass, calibrated=not cli)
    record(run, outcomes, "pass")
    for o in outcomes:
        run.add("pass_wall_s", o.wall_s)
        run.add("calibration_s", o.host_s)
        for op, elapsed in o.op_s.items():
            run.add(f"op.{op}.wall_s", elapsed)
    simulated = [o for o in outcomes if o.sim_s > 0 and o.sim_cycles > 0]
    peak = (max(o.peak_child_rss_mb for o in outcomes) if cli
            else workloads.peak_rss_self_mb())
    values = {
        "setup_s": (calibrate.reference_seconds(run.setup_pairs)
                    if run.setup_pairs else None),
        "wall_s": calibrate.reference_seconds([(o.wall_s, o.host_s) for o in outcomes]),
        # cycles over reference seconds, pass by pass
        "sim_cycles_per_s": (1.0 / calibrate.reference_seconds(
            [(o.sim_s / o.sim_cycles, o.host_s) for o in simulated]) if simulated else None),
        "peak_rss_mb": peak,
    }
    return {name: _value(name, v, END_TO_END) for name, v in values.items() if v is not None}


def traced_run(run: Run, work: Path, seconds: float) -> dict:
    cli = run.workload.name == "cli-flow"
    import_s = run.measure_import() if cli else 0.0
    if cli:
        one_pass = cli_pass(run, work, in_process=True)
    else:
        one_pass = in_process_pass(run)
    untraced = timed_passes(seconds / 2, one_pass)
    record(run, untraced, "untraced pass")

    tracer = Tracer()
    traced = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds / 2:
        gc.collect()
        with tracer.installed(), tracer.span("bench.pass"):
            if cli:
                traced.append(one_pass(span=tracer.span))
            else:
                traced.append(in_process_pass(run)())
    record(run, traced, "traced pass")

    for o in untraced:
        run.add("pass_wall_s", o.wall_s)
    for o in traced:
        run.add("traced_pass_wall_s", o.wall_s)
    passes = len(traced)
    metrics = layer_metrics(tracer, passes)
    metrics["cli.import_s"] = import_s
    # wall-clock medians, like every per-layer time
    metrics["trace.overhead_s"] = (statistics.median(run.samples["traced_pass_wall_s"])
                                   - statistics.median(run.samples["pass_wall_s"]))
    write_trace(run, tracer, passes)
    return {name: _value(name, metrics[name], PER_LAYER) for name in PER_LAYER}


def layer_metrics(t, passes: int) -> dict:
    def per_pass(v):
        v = v / passes
        return int(v) if float(v).is_integer() else v

    cycles = t.calls("protocol.cycle")
    step_calls = t.calls("switchsim.step_phase")
    cycle_s = t.seconds("protocol.cycle")
    m = {}
    for name in ("netlist.parse_netlist", "netlist.comb_order", "scan.insert_scan",
                 "scan.verify_chain", "protocol.run_scan_test", "protocol.sim_functional",
                 "protocol.cycle", "ffmodel.ff_step", "logic.toggled",
                 "power.estimate_power", "sta.analyze_timing", "vcd.to_vcd",
                 "switchsim.settle", "switchsim.run_cycles", "reports.format_report",
                 "cli.insert", "cli.sim", "cli.scan-test", "cli.sta", "cli.power",
                 "cli.switchsim", "cli.compare"):
        m[f"{name}.s"] = t.seconds(name) / passes
        m[f"{name}.calls"] = per_pass(t.calls(name))
    m["switchsim.step_phase.calls"] = per_pass(step_calls)
    m["netlist.flops.per_cycle"] = t.calls("netlist.flops") / cycles if cycles else 0.0
    m["protocol.cycle.self_s"] = t.self_seconds("protocol.cycle") / passes
    m["ffmodel.ff_step.cycle_share"] = (
        t.seconds_within("protocol.cycle", "ffmodel.ff_step") / cycle_s if cycle_s else 0.0
    )
    m["switchsim.cache_hit_ratio"] = (
        1.0 - t.calls("switchsim.settle") / step_calls if step_calls else 0.0
    )
    m["vcd.bytes"] = per_pass(t.sizes.get("vcd.to_vcd", 0))
    m["reports.bytes"] = per_pass(t.sizes.get("reports.format_report", 0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_seconds(layer) / passes
    return m


def write_trace(run: Run, tracer, passes: int) -> None:
    path = OUT_DIR / f"trace-{run.workload.name}-seed{run.seed}.json"
    doc = {
        "workload": run.workload.name,
        "passes": passes,
        "totals": {k: {"calls": int(c), "s": s, "self_s": s - child}
                   for k, (c, s, child) in sorted(tracer.totals.items())},
        "spans": [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                  for i, n, a, b, p in tracer.spans],
    }
    path.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
