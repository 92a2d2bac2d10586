"""Static timing analysis tests.

The longest-path engine is checked against a recursive brute-force
enumerator, and the flip-flop figures against the library tables. One walk
serves every report on a netlist with one delay table; the walk-count tests
hold that, and that a stored walk never answers for another table.
"""

from __future__ import annotations

import itertools
import random

import pytest

from scanforge import sta
from scanforge.cells import CellLibrary, FFVariant, GateParams, GateType, Mode, Stage
from scanforge.netlist import Netlist, parse_netlist
from scanforge.sta import (
    TimingError,
    analyze_timing,
    time_gain,
    zero_cloud_netlist,
)

from oracles import brute_force_longest, random_netlist

LIB = CellLibrary.builtin()


def path_delay_sum(n, path):
    """Sum of library gate delays along a critical path; flip-flops add 0."""
    delays = {g.id: LIB.gate(g.gtype).delay_ns for g in n.gates}
    return sum(delays.get(iid, 0.0) for iid in path)

THREE_NAND = """
module chain3
input SI SE
output SO
scanff f1 MUX Q1 Q1 SI SE
gate n1 NAND2 A Q1 Q1
gate n2 NAND2 B A A
gate n3 NAND2 C B B
scanff f2 MUX Q2 C Q1 SE
gate gso BUF SO Q2
endmodule
"""


def test_zero_cloud_worked_examples():
    n = zero_cloud_netlist()
    approx = analyze_timing(n, FFVariant.APPROX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert approx.t_comb_ns == 0.0
    assert approx.t_su_ns == 0.055
    assert approx.t_cq_ns == 0.3
    assert approx.t_clk_min_ns == pytest.approx(0.355, abs=1e-12)

    mux = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert mux.t_clk_min_ns == pytest.approx(0.371, abs=1e-12)
    assert time_gain(mux, approx) == pytest.approx(0.02, abs=0.005)


def test_zero_cloud_is_exact_for_every_combination():
    n = zero_cloud_netlist()
    for variant, stage, mode in itertools.product(FFVariant, Stage, Mode):
        t = LIB.ff(variant, stage).mode(mode)
        rep = analyze_timing(n, variant, stage, mode)
        assert rep.t_comb_ns == 0.0
        assert rep.t_clk_min_ns == t.t_cq + 0.0 + t.t_su
        assert rep.f_max_hz == pytest.approx(1e9 / rep.t_clk_min_ns, rel=1e-9)
        assert rep.t_pd_ns == t.t_pd
        assert rep.t_pd_sum_ns == t.t_pd_sum


def test_three_nand_chain_comb_delay():
    n = parse_netlist(THREE_NAND)
    rep = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert rep.t_comb_ns == pytest.approx(0.15, abs=1e-12)
    assert rep.critical_path == ("f1", "n1", "n2", "n3", "f2")
    assert path_delay_sum(n, rep.critical_path) == pytest.approx(
        rep.t_comb_ns, abs=1e-9
    )
    assert rep.t_clk_min_ns == pytest.approx(0.088 + 0.15 + 0.283, abs=1e-12)


def test_matches_brute_force_enumeration():
    rng = random.Random(1203)
    for k in range(60):
        scan = k % 2 == 0
        n = random_netlist(rng, max_gates=12, max_ffs=4, min_ffs=1, scan=scan)
        delays = {g.id: LIB.gate(g.gtype).delay_ns for g in n.gates}
        modes = (Mode.FUNCTIONAL, Mode.TEST) if scan else (Mode.FUNCTIONAL,)
        for mode in modes:
            rep = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, mode)
            want = brute_force_longest(n, delays, mode is Mode.TEST)
            assert rep.t_comb_ns == pytest.approx(want, abs=1e-12)
            assert path_delay_sum(n, rep.critical_path) == pytest.approx(
                rep.t_comb_ns, abs=1e-9
            )


def test_longer_chains_never_get_faster():
    last = -1.0
    for k in range(1, 7):
        gates = "\n".join(
            f"gate n{i} NAND2 C{i} {'Q1' if i == 1 else f'C{i - 1}'} "
            f"{'Q1' if i == 1 else f'C{i - 1}'}"
            for i in range(1, k + 1)
        )
        n = parse_netlist(
            "module grow\ninput SI SE\noutput Q2\n"
            "scanff f1 MUX Q1 Q1 SI SE\n"
            f"{gates}\n"
            f"scanff f2 MUX Q2 C{k} Q1 SE\n"
            "endmodule\n"
        )
        rep = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
        assert rep.t_comb_ns == pytest.approx(0.05 * k, abs=1e-12)
        assert rep.t_comb_ns > last
        last = rep.t_comb_ns


def test_variant_ordering_post_layout_functional():
    rng = random.Random(88)
    fixtures = [zero_cloud_netlist(), parse_netlist(THREE_NAND)]
    fixtures += [
        random_netlist(rng, max_gates=10, max_ffs=3, min_ffs=1, scan=True)
        for _ in range(5)
    ]
    for n in fixtures:
        reps = {
            v: analyze_timing(n, v, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
            for v in FFVariant
        }
        assert (
            reps[FFVariant.APPROX].t_clk_min_ns
            < reps[FFVariant.MUX].t_clk_min_ns
            < reps[FFVariant.GDI].t_clk_min_ns
        )


def test_published_gain_figures():
    n = zero_cloud_netlist()

    def gain(mode, variant):
        mux = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, mode)
        cand = analyze_timing(n, variant, Stage.POST_LAYOUT, mode)
        return time_gain(mux, cand)

    assert gain(Mode.FUNCTIONAL, FFVariant.APPROX) == pytest.approx(0.02, abs=0.005)
    assert gain(Mode.FUNCTIONAL, FFVariant.GDI) == pytest.approx(-0.68, abs=0.005)
    assert gain(Mode.TEST, FFVariant.APPROX) == pytest.approx(0.025, abs=0.005)
    assert gain(Mode.TEST, FFVariant.GDI) == pytest.approx(-0.575, abs=0.005)


def test_published_and_recomputed_delay_can_disagree():
    n = zero_cloud_netlist()
    rep = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.TEST)
    assert rep.t_pd_ns == 0.365
    assert rep.t_pd_sum_ns == pytest.approx(0.135, abs=1e-12)


def test_time_gain_rejects_mismatched_reports():
    n = zero_cloud_netlist()
    a = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    b = analyze_timing(n, FFVariant.GDI, Stage.POST_LAYOUT, Mode.TEST)
    with pytest.raises(TimingError):
        time_gain(a, b)
    c = analyze_timing(
        parse_netlist(THREE_NAND), FFVariant.GDI, Stage.POST_LAYOUT, Mode.FUNCTIONAL
    )
    with pytest.raises(TimingError):
        time_gain(a, c)


IO_NET = """
module io
input A SI SE
output Y SO
scanff f1 MUX Q1 A SI SE
gate g1 INV Y Q1
gate gso BUF SO Q1
endmodule
"""


def test_boundary_timing_knobs():
    # inputs launch at 0 like flop Qs, and outputs are required at 0
    n = parse_netlist(IO_NET)
    base = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert base.t_comb_ns == pytest.approx(0.05, abs=1e-12)  # Q1 -> BUF -> SO
    assert base.critical_path == ("f1", "gso")


def test_test_mode_times_the_scan_hop():
    n = parse_netlist(
        """
module sihop
input SI SE
output Q2
scanff f1 MUX Q1 Q2 SI SE
gate gi INV SIB Q1
scanff f2 MUX Q2 Q1 SIB SE
endmodule
"""
    )
    functional = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert functional.t_comb_ns == 0.0
    test = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.TEST)
    assert test.t_comb_ns == pytest.approx(0.03, abs=1e-12)
    assert test.critical_path == ("f1", "gi", "f2")


EQUAL_DELAYS = CellLibrary.builtin()._replace(gates={t: GateParams(0.1, 0.5) for t in GateType})


@pytest.fixture
def walks(monkeypatch):
    """Counts the longest-path walks, which still run."""
    calls = []
    real = sta._walk

    def counted(cn, *args):
        calls.append(cn)
        return real(cn, *args)

    monkeypatch.setattr(sta, "_walk", counted)
    return calls


def report_rows(n, lib=None):
    """Every variant x stage x mode report, t_comb exact."""
    rows = []
    for v, st, m in itertools.product(FFVariant, Stage, Mode):
        r = analyze_timing(n, v, st, m, lib)
        rows.append((r, r.t_comb_ns.hex()))
    return rows


def test_every_report_on_a_netlist_shares_one_walk(walks):
    n = parse_netlist(THREE_NAND)
    rows = report_rows(n)
    assert len(rows) == 12 and len(walks) == 1
    assert {r.mode for r, _ in rows} == set(Mode)
    assert len(n.compiled.walks) == 1


def test_another_delay_table_or_arrival_walks_again(walks):
    n = parse_netlist(THREE_NAND)
    builtin = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    assert builtin.t_comb_ns == pytest.approx(0.15, abs=1e-12)
    equal = analyze_timing(n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL, EQUAL_DELAYS)
    assert equal.t_comb_ns == pytest.approx(0.3, abs=1e-12)
    assert equal.critical_path == ("f1", "n1", "n2", "n3", "f2")
    assert len(walks) == 2
    assert len(n.compiled.walks) == 1
    assert analyze_timing(
        n, FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL
    ).critical_path == builtin.critical_path
    assert len(walks) == 3


def test_alternating_tables_and_arrivals_match_fresh_netlists(walks):
    rng = random.Random(77)
    settings = [None, EQUAL_DELAYS]
    for k in range(8):
        n = random_netlist(rng, max_gates=20, max_ffs=4, min_ffs=1, scan=k % 2 == 0)
        for _ in range(2):
            for lib in settings:
                got = report_rows(n, lib)
                assert got == report_rows(Netlist(n.name, n.inputs, n.outputs, n.instances), lib)
                assert len(n.compiled.walks) == 1
    # one walk per table change on the reused netlist, one per fresh copy
    assert len(walks) == 8 * 2 * len(settings) * 2
