"""Power estimation tests.

Energy billing is pinned with hand-expanded arithmetic on small traces, the
weighted transition count's closed formula (ACCEPTANCE's reference, kept in
the oracles) against a list-shift oracle and simulated chain toggles, and the
printed gain figures against the library.
"""

from __future__ import annotations

import random

import pytest

from scanforge.cells import (
    CellLibrary,
    FFVariant,
    Mode,
    Stage,
)
from scanforge.netlist import load_netlist, parse_netlist, parse_patterns
from scanforge.power import (
    PowerModelError,
    estimate_power,
    power_gain,
)
from scanforge.protocol import CycleSim, Phase, run_scan_test, sim_functional

from oracles import weighted_transition_count, wtc_by_list_shift

LIB = CellLibrary.builtin()
POST = Stage.POST_LAYOUT


def shift_chain_text(n):
    lines = ["module chain", "input SI SE", "output SO"]
    for k in range(n):
        si = "SI" if k == 0 else f"Q{k - 1}"
        lines.append(f"scanff f{k} MUX Q{k} Q{k} {si} SE")
    lines.append(f"gso BUF SO Q{n - 1}".join(["gate ", ""]))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def test_ten_ff_single_vector_billing(chain10_path):
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n", 10))
    assert trace.cycles == 21
    rep = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    # 20 shift cycles at the test rate, 1 capture cycle at the functional rate
    assert rep.ff_internal_energy_fj == pytest.approx(
        10 * (20 * 3.81 + 1 * 3.62), abs=1e-9
    )
    assert rep.mode is Mode.TEST
    assert rep.cycles == 21


@pytest.mark.parametrize("variant", list(FFVariant))
@pytest.mark.parametrize("stage", list(Stage))
def test_ff_energy_is_the_left_to_right_sum_on_every_python(chain10_path, variant, stage):
    # sum() adds floats with compensation from Python 3.12 on; mux pre-layout
    # on chain10 reads 893.0 there against 892.9999999999998 left to right
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n0110011001\n", 10))
    rep = estimate_power(trace, variant, stage, t_clk_ns=1.0)
    total = 0.0
    for energy in rep.per_ff_energy_fj.values():
        total += energy
    assert rep.ff_internal_energy_fj == total


def test_capture_cycle_bills_the_functional_rate():
    n = parse_netlist(shift_chain_text(1))
    trace, _ = run_scan_test(n, parse_patterns("1\n", 1))
    rep = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    # 1 launch shift + 1 capture + 1 shift-out
    assert rep.per_ff_energy_fj == {
        "f0": pytest.approx(2 * 3.81 + 1 * 3.62, abs=1e-12)
    }


def test_functional_run_with_se_high_bills_the_test_rate(chain10_path):
    # sim_functional records the chain's shared enable, so cycles that shift
    # are priced as shifts whichever simulator drove them.
    n = load_netlist(str(chain10_path))
    shifting = sim_functional(n, [{"A": 0, "SI": 1, "SE": 1}], cycles=20, init=None)
    assert shifting.se == [1] * 20
    rep = estimate_power(shifting, FFVariant.MUX, POST, t_clk_ns=1.0)
    assert rep.mode is Mode.TEST
    assert rep.ff_internal_energy_fj == pytest.approx(10 * 20 * 3.81, abs=1e-9)
    holding = sim_functional(n, [{"A": 0, "SI": 1, "SE": 0}], cycles=20, init=None)
    assert holding.se == [0] * 20
    assert estimate_power(holding, FFVariant.MUX, POST, t_clk_ns=1.0).mode is Mode.FUNCTIONAL


def test_cyclesim_records_se_only_for_one_shared_enable():
    # Two scan flops on different enables: no single SE to record.
    n = parse_netlist(
        "module two\ninput SI E1 E2\noutput Q1\n"
        "scanff f1 MUX Q1 Q1 SI E1\nscanff f2 MUX Q2 Q2 Q1 E2\nendmodule\n"
    )
    trace = sim_functional(n, [{"SI": 1, "E1": 1, "E2": 1}], cycles=3, init=None)
    assert trace.se == [None] * 3
    assert estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0).mode is Mode.FUNCTIONAL


def test_zero_toggle_trace_has_no_combinational_energy():
    n = parse_netlist(
        "module quiet\ninput A\noutput Q1\ngate g1 AND2 D1 A A\ndff f1 Q1 D1\nendmodule\n"
    )
    trace = sim_functional(n, [{"A": 0}], cycles=5, init={"f1": 0})
    rep = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    assert rep.combinational_energy_fj == 0.0
    assert rep.mode is Mode.FUNCTIONAL
    assert rep.ff_internal_energy_fj == pytest.approx(5 * 3.62, abs=1e-12)


def test_combinational_energy_prices_toggles_per_driving_gate():
    # A toggling flop drives one INV (0.3 fJ/toggle); D and Q both flip every
    # cycle after the first.
    n = parse_netlist(
        "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
    )
    trace = sim_functional(n, [{"EN": 0}], cycles=9, init={"f1": 0})
    assert trace.net_toggles["Q"] == 8
    assert trace.net_toggles["D"] == 8
    rep = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    # Q is flop-driven (free); D is the INV output
    assert rep.combinational_energy_fj == pytest.approx(8 * 0.3, abs=1e-12)


def test_total_average_power_identity(chain10_path):
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1111100000\n0101001101\n", 10))
    for t_clk in (0.5, 1.0, 2.5):
        rep = estimate_power(trace, FFVariant.GDI, POST, t_clk_ns=t_clk)
        want = rep.total_energy_fj / (rep.cycles * t_clk)
        assert rep.total_avg_power_uw == pytest.approx(want, rel=1e-12)
        assert rep.total_energy_fj == pytest.approx(
            rep.ff_internal_energy_fj + rep.combinational_energy_fj, rel=1e-12
        )
        assert rep.ff_internal_energy_fj == pytest.approx(
            sum(rep.per_ff_energy_fj.values()), rel=1e-12
        )


def test_shift_power_ratio_matches_the_tables():
    # Exact at the calibration level; near-exact on a real test trace, where
    # one capture cycle per vector bills the functional rate instead.
    rate = lambda v, m: LIB.ff(v, POST).energy_per_cycle_fj(m)
    assert rate(FFVariant.APPROX, Mode.TEST) / rate(FFVariant.MUX, Mode.TEST) == (
        pytest.approx(0.56 / 3.81, rel=1e-12)
    )

    n = parse_netlist(shift_chain_text(10))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n", 10))
    mux = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    approx = estimate_power(trace, FFVariant.APPROX, POST, t_clk_ns=1.0)
    ratio = approx.ff_internal_energy_fj / mux.ff_internal_energy_fj
    assert ratio == pytest.approx(0.56 / 3.81, rel=0.02)


def test_power_gain_examples():
    assert power_gain(3.62, 0.51) == pytest.approx(85.9, abs=0.1)
    assert power_gain(3.81, 1.37) == pytest.approx(64.0, abs=0.1)
    assert power_gain(7.5, 7.5) == 0.0
    with pytest.raises(PowerModelError):
        power_gain(0.0, 1.0)
    with pytest.raises(PowerModelError):
        power_gain(1.0, -2.0)


def test_all_four_printed_gains_from_the_library():
    def gain(mode, variant):
        mux = LIB.ff(FFVariant.MUX, POST).mode(mode).avg_power_uw
        cand = LIB.ff(variant, POST).mode(mode).avg_power_uw
        return power_gain(mux, cand)

    assert gain(Mode.FUNCTIONAL, FFVariant.GDI) == pytest.approx(70.7, abs=0.1)
    assert gain(Mode.FUNCTIONAL, FFVariant.APPROX) == pytest.approx(85.9, abs=0.1)
    assert gain(Mode.TEST, FFVariant.GDI) == pytest.approx(64.0, abs=0.1)
    assert gain(Mode.TEST, FFVariant.APPROX) == pytest.approx(85.3, abs=0.1)


def test_test_rate_exceeds_functional_rate_with_one_documented_exception():
    # The pre-layout MUX row prints a test power (2.1) below its functional
    # power (2.65); the library stores the tables verbatim, so billing follows
    # the printed figures rather than the expected ordering.
    for variant in FFVariant:
        for stage in Stage:
            p = LIB.ff(variant, stage)
            test_rate = p.energy_per_cycle_fj(Mode.TEST)
            func_rate = p.energy_per_cycle_fj(Mode.FUNCTIONAL)
            if variant is FFVariant.MUX and stage is Stage.PRE_LAYOUT:
                assert test_rate < func_rate
            else:
                assert test_rate > func_rate


def test_contention_penalty_is_opt_in():
    n = parse_netlist(
        """
module appx
input A SI SE
output SO
gate gz AND2 D0 A A
scanff f0 APPROX Q0 D0 SI SE
gate gso BUF SO Q0
endmodule
"""
    )
    trace, _ = run_scan_test(n, parse_patterns("1\n1\n", 1))
    assert trace.contention_cycles == 2
    base = estimate_power(trace, FFVariant.APPROX, POST, t_clk_ns=1.0)
    charged = estimate_power(
        trace, FFVariant.APPROX, POST, t_clk_ns=1.0, contention_penalty_fj=2.0
    )
    assert charged.contention_cycles == 2
    assert charged.ff_internal_energy_fj == pytest.approx(
        base.ff_internal_energy_fj + 2 * 2.0, abs=1e-12
    )


def test_scaling_divides_ff_energy_exactly(chain10_path):
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n", 10))
    def quarter(row):
        return row._replace(avg_power_uw=row.avg_power_uw / 4.0)

    scaled_lib = CellLibrary(
        ffs={
            key: params._replace(functional=quarter(params.functional), test=quarter(params.test))
            for key, params in LIB.ffs.items()
        },
        gates=LIB.gates,
    )
    base = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0)
    scaled = estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0, library=scaled_lib)
    assert scaled.ff_internal_energy_fj == pytest.approx(
        base.ff_internal_energy_fj / 4.0, rel=1e-12
    )
    assert scaled.combinational_energy_fj == base.combinational_energy_fj


def test_estimate_validation(chain10_path):
    n = load_netlist(str(chain10_path))
    trace, _ = run_scan_test(n, parse_patterns("1010101010\n", 10))
    from scanforge.netlist import Netlist
    from scanforge.protocol import CycleSim

    with pytest.raises(PowerModelError):
        empty = CycleSim(Netlist("empty", (), (), ())).finish()
        estimate_power(empty, FFVariant.MUX, POST, t_clk_ns=1.0)
    for t_clk_ns in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(PowerModelError):
            estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=t_clk_ns)
    for penalty in (-1.0, float("nan"), float("inf")):
        with pytest.raises(PowerModelError):
            estimate_power(trace, FFVariant.MUX, POST, t_clk_ns=1.0, contention_penalty_fj=penalty)


def test_wtc_closed_form_examples():
    assert weighted_transition_count("0000000000") == 0
    assert weighted_transition_count("10") == 1
    assert weighted_transition_count("1010101010") == 45
    assert weighted_transition_count("1111") == 0
    with pytest.raises(ValueError):
        weighted_transition_count("10z1")


def test_wtc_matches_the_list_shift_oracle():
    rng = random.Random(23)
    for _ in range(200):
        bits = "".join(str(rng.randint(0, 1)) for _ in range(rng.randint(1, 12)))
        assert weighted_transition_count(bits) == wtc_by_list_shift(bits)


def test_wtc_matches_simulated_chain_toggles():
    # Shift the vector into a chain pre-filled with its first bit and count
    # actual Q-net toggles; no weighting formula on this side of the check.
    rng = random.Random(71)
    for _ in range(25):
        length = rng.randint(2, 8)
        bits = "".join(str(rng.randint(0, 1)) for _ in range(length))
        n = parse_netlist(shift_chain_text(length))
        sim = CycleSim(n, init={f"f{k}": int(bits[0]) for k in range(length)})
        for ch in bits:
            sim.cycle({"SI": int(ch), "SE": 1}, Phase.SHIFT_IN)
        trace = sim.finish()
        toggles = sum(
            trace.net_toggles.get(f"Q{k}", 0) for k in range(length)
        )
        assert toggles == weighted_transition_count(bits)


def test_wtc_exhaustive_up_to_six_bits():
    import itertools

    for length in range(1, 7):
        for word in itertools.product("01", repeat=length):
            bits = "".join(word)
            assert weighted_transition_count(bits) == wtc_by_list_shift(bits)
