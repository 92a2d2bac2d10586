"""scantool: command-line front end.

Subcommands: insert, sim, scan-test, sta, power, switchsim, compare. Every
run emits one report document (JSON by default, CSV/text projections via
--format) to stdout or -o. Domain errors exit 1 with a machine-readable JSON
object on stderr; usage errors exit 2. Reports are deterministic for fixed
inputs and --seed.

Each handler imports the modules it runs when it is called, so a process
that runs one subcommand loads only that subcommand's part of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .cells import FFVariant, Mode, Stage, resolve_library
from .errors import ScanforgeError
from .reports import FORMATS, envelope, format_report


class CommandError(ScanforgeError):
    code = "cli.command"


_VARIANTS = [v.value for v in FFVariant]
_STAGES = [s.value for s in Stage]
_MODES = [m.value for m in Mode]


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cells", metavar="PATH", help="cell config overriding builtins")
    sub.add_argument("--seed", type=int, default=42, help="seed for randomized stimulus")
    sub.add_argument("-o", "--output", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=FORMATS, default="json", help="report format")


def _emit(args: argparse.Namespace, doc: dict[str, Any]) -> None:
    text = format_report(doc, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_insert(args: argparse.Namespace) -> dict[str, Any]:
    from dataclasses import replace

    from .netlist import load_netlist, serialize_netlist
    from .scan import default_plan, insert_scan, verify_chain

    n = load_netlist(args.netlist)
    variant = FFVariant(args.variant)
    ports = {"chain_in": args.chain_in, "chain_out": args.chain_out, "enable": args.enable}
    plan = replace(
        default_plan(n, variant),
        **{name: net for name, net in ports.items() if net is not None},
    )
    inserted = insert_scan(n, plan)
    recovered = verify_chain(inserted)
    text = serialize_netlist(inserted)
    if args.netlist_out:
        Path(args.netlist_out).write_text(text, encoding="utf-8")
    return envelope(
        "insert",
        {
            "insert": {
                "netlist": n.name,
                "variant": variant.value,
                "chain_length": len(recovered.order),
                "order": list(recovered.order),
                "chain_in": recovered.chain_in,
                "chain_out": recovered.chain_out,
                "enable": recovered.enable,
                "netlist_out": args.netlist_out,
                "netlist_text": None if args.netlist_out else text,
            }
        },
        seed=args.seed,
    )


def cmd_sim(args: argparse.Namespace) -> dict[str, Any]:
    from .netlist import load_netlist
    from .protocol import sim_functional

    n = load_netlist(args.netlist)
    init = {f.id: 0 for f in n.flops} if args.init == "zero" else None
    stimulus = [{net: 0 for net in n.inputs}]
    trace = sim_functional(n, stimulus, cycles=args.cycles, init=init)
    if args.vcd:
        from .vcd import dump_vcd

        dump_vcd(trace, args.vcd)
    return envelope(
        "sim",
        {
            "sim": {
                "netlist": n.name,
                "cycles": trace.cycles,
                "total_net_toggles": trace.total_net_toggles,
                "outputs": {
                    net: trace.bit_string(net) for net in n.outputs
                },
                "warnings": list(trace.warnings),
            }
        },
        seed=args.seed,
    )


def cmd_scan_test(args: argparse.Namespace) -> dict[str, Any]:
    from .netlist import load_netlist, load_patterns
    from .protocol import cycle_budget, run_scan_test
    from .scan import verify_chain

    n = load_netlist(args.netlist)
    plan = verify_chain(n)
    patterns = load_patterns(args.patterns, len(plan.order))
    if args.variant and plan.variant is not FFVariant(args.variant):
        raise CommandError(
            f"chain uses the {plan.variant.value} flip-flop, not {args.variant}"
        )
    trace, responses = run_scan_test(n, patterns, pipelined=args.pipelined, plan=plan)
    if args.vcd:
        from .vcd import dump_vcd

        dump_vcd(trace, args.vcd)
    has_expected = any(e is not None for e in patterns.expected)
    mismatched = [
        i
        for i, (got, want) in enumerate(zip(responses, patterns.expected))
        if want is not None and got != want
    ]
    return envelope(
        "scan-test",
        {
            "scan_test": {
                "netlist": n.name,
                "variant": plan.variant.value,
                "chain_length": len(plan.order),
                "num_vectors": len(patterns.vectors),
                "pipelined": args.pipelined,
                "cycles": trace.cycles,
                "cycle_budget": cycle_budget(
                    len(plan.order), len(patterns.vectors), args.pipelined
                ),
                "phase_counts": dict(sorted(trace.phase_counts.items())),
                "responses": responses,
                "expected": list(patterns.expected) if has_expected else None,
                "mismatched_vectors": mismatched,
                "total_net_toggles": trace.total_net_toggles,
                "contention_cycles": trace.contention_cycles,
                "warnings": list(trace.warnings),
            }
        },
        seed=args.seed,
    )


def _timing_payload(report, gain_ns: float) -> dict[str, Any]:
    return {
        "netlist": report.netlist_name,
        "variant": report.variant.value,
        "stage": report.stage.value,
        "mode": report.mode.value,
        "t_comb_ns": report.t_comb_ns,
        "t_su_ns": report.t_su_ns,
        "t_cq_ns": report.t_cq_ns,
        "t_clk_min_ns": report.t_clk_min_ns,
        "f_max_hz": report.f_max_hz,
        "t_pd_ns": report.t_pd_ns,
        "t_pd_sum_ns": report.t_pd_sum_ns,
        "critical_path": list(report.critical_path),
        "gains_vs_mux": {"time_gain_ns": gain_ns},
    }


def cmd_sta(args: argparse.Namespace) -> dict[str, Any]:
    from .netlist import load_netlist
    from .sta import analyze_timing, time_gain

    n = load_netlist(args.netlist)
    lib = resolve_library(args.cells)
    variant = FFVariant(args.variant)
    stage = Stage(args.stage)
    mode = Mode(args.mode)
    report = analyze_timing(n, variant, stage, mode, lib)
    mux_report = analyze_timing(n, FFVariant.MUX, stage, mode, lib)
    return envelope(
        "sta",
        {"timing": _timing_payload(report, time_gain(mux_report, report))},
        seed=args.seed,
    )


def cmd_power(args: argparse.Namespace) -> dict[str, Any]:
    from .netlist import load_netlist, load_patterns
    from .power import estimate_power, power_gain
    from .protocol import run_scan_test, sim_functional
    from .scan import verify_chain

    n = load_netlist(args.netlist)
    lib = resolve_library(args.cells)
    variant = FFVariant(args.variant)
    stage = Stage(args.stage)
    if args.patterns:
        plan = verify_chain(n)
        patterns = load_patterns(args.patterns, len(plan.order))
        trace, _ = run_scan_test(n, patterns, plan=plan)
    else:
        init = {f.id: 0 for f in n.flops}
        trace = sim_functional(
            n, [{net: 0 for net in n.inputs}], cycles=args.cycles, init=init
        )
    report = estimate_power(
        trace,
        variant,
        stage,
        t_clk_ns=args.tclk,
        library=lib,
        contention_penalty_fj=args.contention_penalty_fj,
    )
    mux_report = estimate_power(trace, FFVariant.MUX, stage, t_clk_ns=args.tclk, library=lib)
    gain = power_gain(mux_report.total_avg_power_uw, report.total_avg_power_uw)
    return envelope(
        "power",
        {
            "power": {
                "netlist": report.netlist_name,
                "variant": report.variant.value,
                "stage": report.stage.value,
                "mode": report.mode.value,
                "cycles": report.cycles,
                "t_clk_ns": report.t_clk_ns,
                "ff_internal_fj": report.ff_internal_energy_fj,
                "comb_fj": report.combinational_energy_fj,
                "total_fj": report.total_energy_fj,
                "avg_power_uw": report.total_avg_power_uw,
                "ff_internal_avg_uw": report.ff_internal_avg_power_uw,
                "contention_cycles": report.contention_cycles,
                "gains_vs_mux_pct": gain,
            }
        },
        seed=args.seed,
    )


def cmd_switchsim(args: argparse.Namespace) -> dict[str, Any]:
    import random

    from .switchsim import BUNDLED, bundled_network, check_behavioral, load_network_file

    bundled = BUNDLED.get(Path(args.network).name)
    if bundled is not None and not Path(args.network).exists():
        net = bundled_network(bundled)
    else:
        net = load_network_file(args.network)
    variant = FFVariant(args.variant) if args.variant else bundled
    verdict, checked, mismatches = None, 0, 0
    if args.check_behavioral:
        if variant is None:
            raise CommandError(
                "cannot infer the flip-flop variant to check against; pass --variant"
            )
        rng = random.Random(args.seed)
        checked, mismatches = check_behavioral(net, variant, rng, args.vectors)
        verdict = "equivalent" if mismatches == 0 else "mismatch"
    return envelope(
        "switchsim",
        {
            "switchsim": {
                "network": Path(args.network).name,
                "transistors": len(net.transistors),
                "nodes": len(net.nodes),
                "inputs": list(net.inputs),
                "outputs": list(net.outputs),
                "check_behavioral": args.check_behavioral,
                "variant": variant.value if variant else None,
                "vectors_checked": checked,
                "mismatches": mismatches,
                "verdict": verdict,
            }
        },
        seed=args.seed,
    )


def cmd_compare(args: argparse.Namespace) -> dict[str, Any]:
    from .cells import comparison_table
    from .netlist import load_netlist
    from .power import power_gain
    from .sta import analyze_timing, time_gain, zero_cloud_netlist

    lib = resolve_library(args.cells)
    stage = Stage(args.stage)
    n = load_netlist(args.netlist) if args.netlist else zero_cloud_netlist()
    rows = []
    for mode in Mode:
        mux = analyze_timing(n, FFVariant.MUX, stage, mode, lib)
        mux_power = lib.ff(FFVariant.MUX, stage).mode(mode).avg_power_uw
        for variant in FFVariant:
            report = analyze_timing(n, variant, stage, mode, lib)
            params = lib.ff(variant, stage)
            avg_power = params.mode(mode).avg_power_uw
            rows.append(
                {
                    "variant": variant.value,
                    "mode": mode.value,
                    "t_su_ns": report.t_su_ns,
                    "t_cq_ns": report.t_cq_ns,
                    "t_pd_ns": report.t_pd_ns,
                    "avg_power_uw": avg_power,
                    "t_clk_min_ns": report.t_clk_min_ns,
                    "time_gain_vs_mux_ns": time_gain(mux, report),
                    "power_gain_vs_mux_pct": power_gain(mux_power, avg_power),
                    "area_transistors": int(params.area),
                }
            )
    literature = [
        {
            "design": row.label,
            "t_pd_ns": row.t_pd,
            "power_uw": row.avg_power_uw,
            "transistors": int(row.area),
        }
        for row in comparison_table()
    ]
    return envelope(
        "compare",
        {
            "compare": {
                "netlist": n.name if args.netlist else None,
                "stage": stage.value,
                "rows": rows,
                "literature": literature,
            }
        },
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scantool",
        description="Scan-chain insertion, test simulation, and timing/power reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", help="stitch flip-flops into a scan chain")
    p.add_argument("netlist")
    p.add_argument("--variant", choices=_VARIANTS, default="mux")
    p.add_argument("--chain-in", help="scan-in port name (default SI, bumped past collisions)")
    p.add_argument("--chain-out", help="scan-out port name (default SO, bumped past collisions)")
    p.add_argument("--enable", help="scan-enable port name (default SE, bumped past collisions)")
    p.add_argument("--netlist-out", metavar="PATH", help="write the inserted netlist here")
    _add_common(p)
    p.set_defaults(handler=cmd_insert)

    p = sub.add_parser("sim", help="functional simulation with held-0 inputs")
    p.add_argument("netlist")
    p.add_argument("--cycles", type=int, default=16)
    p.add_argument("--init", choices=("zero", "x"), default="zero", help="flip-flop power-up state")
    p.add_argument("--vcd", metavar="PATH", help="dump the waveform here")
    _add_common(p)
    p.set_defaults(handler=cmd_sim)

    p = sub.add_parser("scan-test", help="run the shift/capture test protocol")
    p.add_argument("netlist")
    p.add_argument("patterns")
    p.add_argument("--variant", choices=_VARIANTS, help="require this chain variant")
    p.add_argument("--pipelined", action="store_true", help="overlap unload with next load")
    p.add_argument("--vcd", metavar="PATH", help="dump the waveform here")
    _add_common(p)
    p.set_defaults(handler=cmd_scan_test)

    p = sub.add_parser("sta", help="longest-path timing analysis")
    p.add_argument("netlist")
    p.add_argument("--variant", choices=_VARIANTS, default="mux")
    p.add_argument("--stage", choices=_STAGES, default="post_layout")
    p.add_argument("--mode", choices=_MODES, default="functional")
    _add_common(p)
    p.set_defaults(handler=cmd_sta)

    p = sub.add_parser("power", help="toggle-based power estimate from a simulated trace")
    p.add_argument("netlist")
    p.add_argument("patterns", nargs="?", help="scan patterns; omitted runs functional cycles")
    p.add_argument("--variant", choices=_VARIANTS, default="mux")
    p.add_argument("--stage", choices=_STAGES, default="post_layout")
    p.add_argument("--tclk", type=float, default=1.0, help="clock period in ns")
    p.add_argument("--cycles", type=int, default=100, help="functional cycles when no patterns given")
    p.add_argument("--contention-penalty-fj", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(handler=cmd_power)

    p = sub.add_parser("switchsim", help="transistor-level flip-flop simulation")
    p.add_argument("network", help=".tnl file or bundled name (mux_sff.tnl, ...)")
    p.add_argument("--variant", choices=_VARIANTS, help="behavioral model to check against")
    p.add_argument("--check-behavioral", action="store_true")
    p.add_argument(
        "--vectors", type=_non_negative, default=256,
        help="random length-8 sequences to add to the 4,096 length-4 ones",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_switchsim)

    p = sub.add_parser("compare", help="cross-variant gain table")
    p.add_argument("netlist", nargs="?", help="defaults to the zero-cloud fixture")
    p.add_argument("--stage", choices=_STAGES, default="post_layout")
    _add_common(p)
    p.set_defaults(handler=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
        _emit(args, doc)
    except ScanforgeError as exc:
        sys.stderr.write(json.dumps({"error": exc.to_dict()}, sort_keys=True) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": {"code": "cli.io", "message": str(exc)}}, sort_keys=True
            )
            + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
