"""Byte and figure pins for fixed traces and for STA reports.

The VCD digests and power figures were recorded from the per-cycle
simulator that the lane-based engine replaced; they hold the trace format
and the toggle accounting to exactly what that simulator produced.
Power totals sum per-net energies in toggle order over a set of net names,
so their last bits move with the string hash seed: they are compared with
a relative tolerance of 1e-12.

The STA digests were recorded from the name-keyed longest-path walk that
the compiled one replaced. They cover every variant, stage and mode, zero
and nonzero input arrival / output required times, and random netlists
timed with one delay for every gate type, so equal arrivals are common and
the tie-breaking (first input of a gate, first endpoint) is pinned too.

The hand-driven ``CycleSim`` digests were recorded before functional runs
kept only their input and flip-flop rows. They cover partial input maps,
SE at 1 and X, X and mixed power-up state, and cycles added after a
``finish()``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from scanforge.cells import CellLibrary, FFVariant, GateParams, GateType, Mode, Stage
from scanforge.logic import X
from scanforge.netlist import ScanFF, load_netlist, load_patterns, parse_netlist
from scanforge.power import estimate_power
from scanforge.protocol import CycleSim, Phase, run_scan_test, sim_functional
from scanforge.sta import analyze_timing
from scanforge.vcd import to_vcd

from oracles import random_netlist

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


EQUAL_DELAYS = replace(
    CellLibrary.builtin(), gates={t: GateParams(0.05, 0.5) for t in GateType}
)
# random_netlist seeds with 13 or more gates; even seeds build a scan chain
STA_SEEDS = (1, 3, 6, 12, 14, 17)
# (input arrival, output required) in ns
STA_TIMES = {"zero": (0.0, 0.0), "late": (0.05, 0.1)}


def sta_design(name: str):
    """chain10 with the built-in library, or a seeded random netlist with
    equal gate delays."""
    if name == "chain10":
        return load_netlist(str(FIXTURES / "chain10.snl")), CellLibrary.builtin()
    seed = int(name.removeprefix("random"))
    n = random_netlist(
        random.Random(seed), max_gates=30, max_ffs=6, min_ffs=1, scan=seed % 2 == 0
    )
    return n, EQUAL_DELAYS


def sta_digest(name: str, times: str) -> str:
    """SHA-256 of t_comb_ns (exact, as hex) and critical_path of every
    variant x stage x mode report."""
    n, lib = sta_design(name)
    arrival, required = STA_TIMES[times]
    rows = []
    for v, st, m in itertools.product(FFVariant, Stage, Mode):
        r = analyze_timing(n, v, st, m, lib, arrival, required)
        rows.append([v.value, st.value, m.value, r.t_comb_ns.hex(), list(r.critical_path)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


STA_SHA256 = {
    ("chain10", "zero"): "5e49f89fcdd781d6089e4621a171cae139bcc74d3e3828b7a83b49681e246325",
    ("chain10", "late"): "30bdb263327894bb387205fb40c17847c88cecceed49b546ce78f34b9d56d140",
    ("random1", "zero"): "0637cc09336ac725ac88c66272b1455d2ac52a82c49ecc4f3f67a0fb415580ee",
    ("random1", "late"): "69a6f09d25ad5960bcb2a1d2870f0e93c92a1466bb2fa852f167d5585af041de",
    ("random3", "zero"): "cce8f1375d2aca5ffb00cd8716412b976f10ff8100a95413ad78bcaad654b359",
    ("random3", "late"): "bc0942e80b42f98cf91404d675a2607868062370bd0d4d86c079688a56495264",
    ("random6", "zero"): "fbc35c7f4a67c1716bf33a3aea228752dba9ebda86cfc951ba266282b39fc038",
    ("random6", "late"): "178b61cd885ac35ba13091aae1b5f49abab16f5b7f0a6ed21281138bbe755405",
    ("random12", "zero"): "cf8dde2cf2604c9be5b4e0430d95af50347a40f93f28d80c369d873929d7806e",
    ("random12", "late"): "30f2b41df3f7a177c7828b891e85b996adf45c33e0e71e031eb8499812a6252c",
    ("random14", "zero"): "6670d577ed74ab968b3bba4b47c8dd2c94a19c7f2521b2cf88bf4f034642e42c",
    ("random14", "late"): "5eb53cbbbc5d767acb41abf6eb6321d685bdb2bfd1d19e39b27621ba6bc8ea34",
    ("random17", "zero"): "4131e6845fb2509c94ffb9af8311af1a6abdbca0fe9e17c37be60c395c017eca",
    ("random17", "late"): "102e5348fe539d8cc65ee2f420cd4445261355f9cfe500b0fb9b4a73e177cf98",
}


@pytest.mark.parametrize("key", sorted(STA_SHA256), ids="-".join)
def test_sta_reports_are_pinned(key):
    assert sta_digest(*key) == STA_SHA256[key]


def test_sta_reports_do_not_depend_on_the_hash_seed():
    # Net ids follow a set's iteration order, which the string hash seed
    # changes; the reports must not.
    code = (
        "import json, sys; from test_trace_pins import STA_SHA256, sta_digest; "
        "print(json.dumps([sta_digest(*key) for key in sorted(STA_SHA256)]))"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == [STA_SHA256[key] for key in sorted(STA_SHA256)]


# -- hand-driven CycleSim runs ---------------------------------------------------

CHAIN10_FLOPS = [f"f{i}" for i in range(10)]


def _chain10(approx: bool = False):
    n = load_netlist(str(FIXTURES / "chain10.snl"))
    if not approx:
        return n
    instances = tuple(
        replace(i, variant=FFVariant.APPROX) if isinstance(i, ScanFF) else i
        for i in n.instances
    )
    return replace(n, instances=instances)


# SI is never given and stays X; an input left out of a map keeps the value
# it was last given.
PARTIAL_MAPS = [
    {"A": 1, "SE": 0}, {}, {"SE": 0}, {"A": 0}, {}, {"A": 1, "SE": 0}, {}, {"A": 0},
    {"A": 1}, {}, {}, {"A": 0}, {"A": X}, {}, {"A": 1}, {"SE": 1}, {"SE": 0}, {},
]


def _maps(ses, seed: int):
    rng = random.Random(seed)
    return [{"A": rng.randint(0, 1), "SI": rng.randint(0, 1), "SE": se} for se in ses]


# SE at 1 (shifting), X and 0, with SI and A changing underneath
SE_MIXED = [1] * 12 + [X] * 3 + [0] * 4 + [1] * 5 + [X, 0, X, 1, 1, 0]
# shift known bits over an unknown state, then run free
SE_LOAD = [1] * 7 + [0] * 9


# name -> (netlist, init, input maps before each finish())
CYCLESIM_RUNS = {
    "partial": (lambda: _chain10(), dict.fromkeys(CHAIN10_FLOPS, 0), [PARTIAL_MAPS]),
    "se_mux": (lambda: _chain10(), dict.fromkeys(CHAIN10_FLOPS, 0), [_maps(SE_MIXED, 2024)]),
    "se_approx": (
        lambda: _chain10(True), dict.fromkeys(CHAIN10_FLOPS, 1), [_maps(SE_MIXED, 2024)]
    ),
    "init_x": (lambda: _chain10(True), dict.fromkeys(CHAIN10_FLOPS, X), [_maps(SE_LOAD, 5)]),
    "init_mixed": (
        lambda: _chain10(),
        {"f0": 1, "f1": 0, "f2": X, "f3": 0, "f4": 1, "f5": 1, "f6": 0, "f8": X, "f9": 0},
        [_maps(SE_LOAD, 6)],
    ),
    "refinish": (lambda: parse_netlist(TFF), {"f1": 0}, [[{"EN": 0}] * 6, [{"EN": 1}] * 3]),
}


def cyclesim_digests(name: str, ordered: bool) -> list[str]:
    """SHA-256 per finish() of the run's VCD, net toggles, internal
    toggles, contentions, warnings and per-cycle SE.

    Net toggles keep their order when ``ordered``; ties in that order follow
    net ids, which move with the string hash seed, so unordered digests sort
    them.
    """
    make, init, rounds = CYCLESIM_RUNS[name]
    sim = CycleSim(make(), init=init)
    digests = []
    for maps in rounds:
        for pi in maps:
            sim.cycle(pi, Phase.FUNCTIONAL)
        trace = sim.finish()
        toggles = list(trace.net_toggles.items())
        body = {
            "vcd": hashlib.sha256(to_vcd(trace).encode()).hexdigest(),
            "net_toggles": toggles if ordered else sorted(toggles),
            "internal": list(trace.ff_internal_toggles.items()),
            "contentions": list(trace.ff_contentions.items()),
            "warnings": trace.warnings,
            "se": trace.se,
        }
        digests.append(hashlib.sha256(json.dumps(body).encode()).hexdigest())
    return digests


CYCLESIM_SHA256 = {
    "init_mixed": [
        "48dc926ecebc8df714e56b685fc90f451168bc7b2229c7377a4817858b197427",
    ],
    "init_x": [
        "7e842cc56485548251a7fc6433d712cc840ed191124a93b5fa486bf9ed3cd0c4",
    ],
    "partial": [
        "306e66bceae04a65d7fd8f4a6ebc4d5b150639e85f0b407022522c992ecb8b4f",
    ],
    "refinish": [
        "3e9348186a2bafafff138e0b60756decfd2a7feb00a45e8b3d6bab2e054c667e",
        "af3be6e21b8e26c81110802fb7992a03e817f05be4610961c0d8782786fedffd",
    ],
    "se_approx": [
        "80f2ca690c0345bb6fde60536e7842d6adcb1784942b1d0d084712ff3910c07d",
    ],
    "se_mux": [
        "ce38b4682132bb59e22d8f7fe6074b3f5821deb7c15b8cc394e205465c9729c5",
    ],
}

# the same digests with net toggles in trace order, under PYTHONHASHSEED=0
CYCLESIM_ORDERED_SHA256 = {
    "init_mixed": [
        "2919d45cd5403da463e0a326a30bd44caf2406d29e81ced26b13f0415f655b53",
    ],
    "init_x": [
        "2be362ea9b1b1c70ab69e47d4c651cf3350987d8e0841b53ba2d2cb48dcbdac1",
    ],
    "partial": [
        "42174788fd9d0749b6790e508b02797c6d3ef236e8e79f382aae047260e92cf0",
    ],
    "refinish": [
        "3e9348186a2bafafff138e0b60756decfd2a7feb00a45e8b3d6bab2e054c667e",
        "55e1c728dce99ec78143bb8105c55ceaa46d15e2a61bec4076cddc974d6c3d51",
    ],
    "se_approx": [
        "40912441edfc83e7ebf7f42d3888edbdd9311cb7c53bf00affe6e76fbe884b3b",
    ],
    "se_mux": [
        "fb5bfde601a776eb3cf17d3f2365d1c8b882ab534627e85cddfa5744b69f6054",
    ],
}


@pytest.mark.parametrize("name", sorted(CYCLESIM_RUNS))
def test_cyclesim_runs_are_pinned(name):
    assert cyclesim_digests(name, ordered=False) == CYCLESIM_SHA256[name]


def test_cyclesim_toggle_order_is_pinned():
    code = (
        "import json; from test_trace_pins import CYCLESIM_RUNS, cyclesim_digests; "
        "print(json.dumps({k: cyclesim_digests(k, True) for k in sorted(CYCLESIM_RUNS)}))"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == CYCLESIM_ORDERED_SHA256
