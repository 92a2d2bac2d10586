"""Byte and figure pins for two fixed traces.

The VCD digests and power figures were recorded from the per-cycle
simulator that the lane-based engine replaced; they hold the trace format
and the toggle accounting to exactly what that simulator produced.
Power totals sum per-net energies in toggle order over a set of net names,
so their last bits move with the string hash seed: they are compared with
a relative tolerance of 1e-12.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from scanforge.cells import FFVariant, Stage
from scanforge.netlist import load_netlist, load_patterns, parse_netlist
from scanforge.power import estimate_power
from scanforge.protocol import run_scan_test, sim_functional
from scanforge.vcd import to_vcd

TFF = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def traces():
    n = load_netlist(str(FIXTURES / "chain10.snl"))
    scan, responses = run_scan_test(n, load_patterns(str(FIXTURES / "chain10.pat"), 10))
    assert responses == ["1111111111", "1010101011", "0000000001", "0111111111"]
    func = sim_functional(parse_netlist(TFF), [{"EN": 0}], cycles=64, init={"f1": 0})
    return {"scan": scan, "func": func}


VCD_SHA256 = {
    "scan": "24c366be79861e690fd851c3f793246e2c2edda214f16fb689adcc5f93aced26",
    "func": "ac77f1be3153e8a9ccf817b163006c741545a445a0fe13d16ae78ae4bdc61c9e",
}

# (trace, variant, stage) -> (ff internal fJ, combinational fJ, average uW)
POWER = {
    ("scan", "mux", "pre_layout"): (1785.9999999999995, 72.2, 22.121428571428567),
    ("scan", "mux", "post_layout"): (3192.8000000000006, 72.2, 38.86904761904763),
    ("scan", "gdi", "pre_layout"): (478.39999999999986, 72.2, 6.554761904761904),
    ("scan", "gdi", "post_layout"): (1138.4, 72.2, 14.411904761904763),
    ("scan", "approx", "pre_layout"): (368.4000000000001, 72.2, 5.245238095238096),
    ("scan", "approx", "post_layout"): (468.4000000000001, 72.2, 6.435714285714288),
    ("func", "mux", "pre_layout"): (169.6, 18.9, 2.9453125),
    ("func", "mux", "post_layout"): (231.68, 18.9, 3.9153125),
    ("func", "gdi", "pre_layout"): (35.84, 18.9, 0.8553125),
    ("func", "gdi", "post_layout"): (67.84, 18.9, 1.3553125000000001),
    ("func", "approx", "pre_layout"): (26.24, 18.9, 0.7053125),
    ("func", "approx", "post_layout"): (32.64, 18.9, 0.8053125),
}


@pytest.mark.parametrize("name", sorted(VCD_SHA256))
def test_vcd_bytes_are_pinned(traces, name):
    text = to_vcd(traces[name])
    assert hashlib.sha256(text.encode()).hexdigest() == VCD_SHA256[name]


@pytest.mark.parametrize("key", sorted(POWER))
def test_power_figures_are_pinned(traces, key):
    name, variant, stage = key
    rep = estimate_power(traces[name], FFVariant(variant), Stage(stage), t_clk_ns=1.0)
    ff_fj, comb_fj, avg_uw = POWER[key]
    assert rep.ff_internal_energy_fj == pytest.approx(ff_fj, rel=1e-12)
    assert rep.combinational_energy_fj == pytest.approx(comb_fj, rel=1e-12)
    assert rep.total_avg_power_uw == pytest.approx(avg_uw, rel=1e-12)
    assert rep.contention_cycles == 0
