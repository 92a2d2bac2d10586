"""Compare the three scan flip-flop variants on timing, power, and area.

Walks the characterization tables for both design stages, runs static timing
on a pure flop-to-flop path so the cell numbers show through untouched, and
prints the gains each alternative variant buys (or costs) against the
16-transistor MUX baseline. Ends with the published reference designs.

Run with: python3 demos/compare_variants.py
"""

from __future__ import annotations

from scanforge.cells import CellLibrary, FFVariant, Mode, Stage, comparison_table
from scanforge.power import power_gain
from scanforge.sta import analyze_timing, time_gain, zero_cloud_netlist

lib = CellLibrary.builtin()
n = zero_cloud_netlist()

print("characterized scan flip-flop cells")
print("=" * 70)
for stage in Stage:
    print(f"\n{stage.value}:")
    header = f"{'variant':8} {'mode':11} {'t_su':>6} {'t_cq':>6} {'t_pd':>6} {'power_uw':>9} {'area':>5}"
    print(header)
    for variant in FFVariant:
        params = lib.ff(variant, stage)
        for mode in Mode:
            t = params.mode(mode)
            print(
                f"{variant.value:8} {mode.value:11} {t.t_su:6.3f} {t.t_cq:6.3f}"
                f" {t.t_pd:6.3f} {t.avg_power_uw:9.2f} {int(params.area):5d}"
            )

print()
print("gains against the MUX baseline (zero-cloud path, post-layout)")
print("=" * 70)
stage = Stage.POST_LAYOUT
for mode in Mode:
    mux = analyze_timing(n, FFVariant.MUX, stage, mode, lib)
    mux_power = lib.ff(FFVariant.MUX, stage).mode(mode).avg_power_uw
    print(f"\n{mode.value} mode (MUX: t_clk_min {mux.t_clk_min_ns:.3f} ns, {mux_power} uW)")
    for variant in (FFVariant.GDI, FFVariant.APPROX):
        rep = analyze_timing(n, variant, stage, mode, lib)
        p = lib.ff(variant, stage).mode(mode).avg_power_uw
        dt = time_gain(mux, rep)
        dp = power_gain(mux_power, p)
        verdict = "faster" if dt > 0 else "slower"
        print(
            f"  {variant.value:8} t_pd gain {dt:+.3f} ns ({verdict}),"
            f" power gain {dp:.1f}%, f_max {rep.f_max_hz / 1e9:.3f} GHz"
        )

# The trade-off in one sentence per variant: GDI is the smallest but pays a
# long propagation delay after layout parasitics; APPROX keeps almost the
# whole power win while staying slightly faster than the baseline.

print()
print("published designs, for scale")
print("=" * 70)
print(f"{'design':24} {'t_pd_ns':>8} {'power_uw':>9} {'area':>5}")
for row in comparison_table():
    power = f"{row.avg_power_uw:.2f}" if row.avg_power_uw is not None else "n/a"
    print(f"{row.label:24} {row.t_pd:8.3f} {power:>9} {int(row.area):5d}")
