"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line. Tolerances and
sample sizes are the contract, not suggestions: loosening them to make a
criterion pass would defeat the point of having it.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from scanforge.cells import CellLibrary, FFVariant, Mode, Stage
from scanforge.cli import main
from scanforge.ffmodel import FFState, ff_cycle
from scanforge.logic import X, bit_char
from scanforge.netlist import load_netlist, parse_netlist, parse_patterns
from scanforge.power import estimate_power
from scanforge.protocol import CycleSim, Phase, flush_chain, run_scan_test, sim_functional
from scanforge.scan import default_plan, insert_scan, verify_chain
from scanforge.sta import analyze_timing, zero_cloud_netlist
from scanforge.switchsim import bundled_network, run_cycles

from oracles import NaiveSim, random_netlist, weighted_transition_count

LIB = CellLibrary.builtin()


def report(criterion: int, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def shift_chain_text(n):
    lines = ["module chain", "input SI SE", "output SO"]
    for k in range(n):
        si = "SI" if k == 0 else f"Q{k - 1}"
        lines.append(f"scanff f{k} MUX Q{k} Q{k} {si} SE")
    lines.append(f"gate gso BUF SO Q{n - 1}")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def test_acceptance_1_gain_reproduction(tmp_path):
    out = tmp_path / "compare.json"
    t0 = time.perf_counter()
    code = main(["compare", "-o", str(out)])
    elapsed = time.perf_counter() - t0

    failures: list[str] = []
    if code != 0:
        failures.append(f"compare exited {code}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    rows = {(r["variant"], r["mode"]): r for r in doc["report"]["compare"]["rows"]}

    checks = [
        ("approx functional time gain", rows[("approx", "functional")]["time_gain_vs_mux_ns"], 0.02, 0.005),
        ("approx functional power gain", rows[("approx", "functional")]["power_gain_vs_mux_pct"], 85.9, 0.1),
        ("gdi functional time gain", rows[("gdi", "functional")]["time_gain_vs_mux_ns"], -0.68, 0.005),
        ("gdi functional power gain", rows[("gdi", "functional")]["power_gain_vs_mux_pct"], 70.7, 0.1),
        ("approx test time gain", rows[("approx", "test")]["time_gain_vs_mux_ns"], 0.025, 0.005),
        ("approx test power gain", rows[("approx", "test")]["power_gain_vs_mux_pct"], 85.3, 0.1),
        ("gdi test power gain", rows[("gdi", "test")]["power_gain_vs_mux_pct"], 64.0, 0.1),
    ]
    for label, got, want, tol in checks:
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got}, want {want} +/- {tol}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s is not < 1s")
    report(1, failures)


def test_acceptance_2_clock_period_formula():
    failures: list[str] = []
    n = zero_cloud_netlist()
    for variant, stage, mode in itertools.product(FFVariant, Stage, Mode):
        rep = analyze_timing(n, variant, stage, mode)
        combo = f"{variant.value}/{stage.value}/{mode.value}"
        if rep.t_clk_min_ns != rep.t_cq_ns + rep.t_comb_ns + rep.t_su_ns:
            failures.append(f"{combo}: t_clk_min is not the exact sum")
        want_f = 1e9 / rep.t_clk_min_ns
        if abs(rep.f_max_hz - want_f) > 1e-9 * want_f:
            failures.append(f"{combo}: f_max off by more than 1e-9 relative")
    report(2, failures)


def test_acceptance_3_protocol_cycle_counts(chain10_path):
    failures: list[str] = []
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n", 10))
    shifts_in = trace.phase_counts.get("shift_in", 0) + trace.phase_counts.get("launch", 0)
    if trace.cycles != 21:
        failures.append(f"one vector took {trace.cycles} cycles, want 21")
    if (shifts_in, trace.phase_counts.get("capture", 0), trace.phase_counts.get("shift_out", 0)) != (10, 1, 10):
        failures.append(f"phase split {trace.phase_counts} is not 10/1/10")

    rng = random.Random(1041)
    words = ["1010101010", "0" * 10, "1" * 10]
    words += ["".join(str(rng.randint(0, 1)) for _ in range(10)) for _ in range(50)]
    for word in words:
        got = flush_chain(n, word)
        if got != word:
            failures.append(f"flush({word}) returned {got}")
            break
    report(3, failures)


def test_acceptance_4_logic_oracle_equivalence():
    failures: list[str] = []
    rng = random.Random(77001)
    mismatches = 0
    for k in range(100):
        n = random_netlist(rng, max_gates=12, max_ffs=4, min_ffs=0, scan=(k % 3 == 0))
        sim = CycleSim(n)
        naive = NaiveSim(n)
        nets = [g.out for g in n.gates] + [f.q for f in n.flops] + list(n.outputs)
        wants = []
        for _ in range(100):
            pi = {
                name: (X if rng.random() < 0.1 else rng.randint(0, 1))
                for name in n.inputs
            }
            sim.cycle(pi, Phase.FUNCTIONAL)
            wants.append(naive.cycle(pi))
        trace = sim.finish()
        for net in nets:
            want = "".join(bit_char(values[net]) for values in wants)
            got = itertools.zip_longest(trace.bit_string(net), want)
            mismatches += sum(a != b for a, b in got)
    if mismatches:
        failures.append(f"{mismatches} net-value mismatches against the interpreter")
    report(4, failures)


def test_acceptance_5_switch_level_equivalence():
    failures: list[str] = []
    counts = {FFVariant.MUX: 16, FFVariant.GDI: 12, FFVariant.APPROX: 14}
    for variant, want_count in counts.items():
        net = bundled_network(variant)
        if len(net.transistors) != want_count:
            failures.append(
                f"{variant.value}: {len(net.transistors)} transistors, want {want_count}"
            )
        mismatches = 0
        checked = 0

        def run_one(stim):
            nonlocal mismatches, checked
            got = run_cycles(net, stim)
            state = FFState(variant=variant)
            for i, (di, si, se) in enumerate(stim):
                state = ff_cycle(state, di, si, se)
                if state.q is not X:
                    checked += 1
                    if got[i] != state.q:
                        mismatches += 1

        for stim in itertools.product(itertools.product((0, 1), repeat=3), repeat=4):
            run_one(stim)
        rng = random.Random(9_0000 + want_count)
        for _ in range(10_000):
            run_one([tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(8)])
        if mismatches:
            failures.append(f"{variant.value}: {mismatches}/{checked} Q mismatches")
    report(5, failures)


def test_acceptance_6_scan_insertion_safety():
    failures: list[str] = []
    rng = random.Random(3377)
    variants = list(FFVariant)
    total_mismatches = 0
    for k in range(100):
        n = random_netlist(rng, max_gates=12, max_ffs=4, min_ffs=1)
        plan = default_plan(n, variants[k % 3])
        s = insert_scan(n, plan)
        if verify_chain(s) != plan:
            failures.append(f"fixture {k}: verify_chain did not round-trip the plan")
            break
        sim_a = CycleSim(n)
        sim_b = CycleSim(s)
        quiet = {plan.chain_in: 0, plan.enable: 0}
        for _ in range(1000):
            pi = {name: rng.randint(0, 1) for name in n.inputs}
            sim_a.cycle(pi, Phase.FUNCTIONAL)
            sim_b.cycle({**pi, **quiet}, Phase.FUNCTIONAL)
        trace_a, trace_b = sim_a.finish(), sim_b.finish()
        for net in n.outputs:
            got = itertools.zip_longest(trace_a.bit_string(net), trace_b.bit_string(net))
            total_mismatches += sum(a != b for a, b in got)
    if total_mismatches:
        failures.append(f"{total_mismatches} output mismatches with SE held low")
    report(6, failures)


def test_acceptance_7_power_model_properties(chain10_path):
    failures: list[str] = []

    # (a) variant ordering on identical traces
    n10 = load_netlist(str(chain10_path))
    scan_trace, _ = run_scan_test(n10, parse_patterns("1010101010\n0011010110\n", 10))
    tff = parse_netlist(
        "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
    )
    func_trace = sim_functional(tff, [{"EN": 0}], cycles=64, init={"f1": 0})
    for trace in (scan_trace, func_trace):
        for stage in Stage:
            totals = {
                v: estimate_power(trace, v, stage, t_clk_ns=1.0).total_avg_power_uw
                for v in FFVariant
            }
            if not totals[FFVariant.APPROX] < totals[FFVariant.GDI] < totals[FFVariant.MUX]:
                failures.append(
                    f"ordering approx<gdi<mux violated at {stage.value}: {totals}"
                )

    # (b) test-mode FF-internal power above functional, every variant and stage
    for variant, stage in itertools.product(FFVariant, Stage):
        p = LIB.ff(variant, stage)
        test_rate = p.energy_per_cycle_fj(Mode.TEST)
        func_rate = p.energy_per_cycle_fj(Mode.FUNCTIONAL)
        if not test_rate > func_rate:
            failures.append(
                f"{variant.value}/{stage.value}: test rate {test_rate} fJ/cycle "
                f"is not above functional {func_rate} fJ/cycle"
            )

    # (c) weighted transition count vs simulated shift toggles, exhaustive
    for length in range(1, 7):
        chain = parse_netlist(shift_chain_text(length))
        for word in itertools.product("01", repeat=length):
            bits = "".join(word)
            sim = CycleSim(chain, init={f"f{k}": int(bits[0]) for k in range(length)})
            for ch in bits:
                sim.cycle({"SI": int(ch), "SE": 1}, Phase.SHIFT_IN)
            trace = sim.finish()
            toggles = sum(trace.net_toggles.get(f"Q{k}", 0) for k in range(length))
            if toggles != weighted_transition_count(bits):
                failures.append(f"WTC({bits}) != simulated toggles {toggles}")
    report(7, failures)
