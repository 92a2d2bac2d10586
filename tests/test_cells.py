from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import pytest

from scanforge import cells
from scanforge.cells import (
    CellConfigError,
    CellLibrary,
    FFVariant,
    GateParams,
    GateType,
    Mode,
    ModeTiming,
    Stage,
    comparison_table,
    load_library,
)
from scanforge.cli import main
from scanforge.power import estimate_power

# published characterization rows: (t_su, t_cq, t_pd, avg_power_uw)
TABLE = {
    (FFVariant.MUX, Stage.PRE_LAYOUT, Mode.FUNCTIONAL): (0.058, 0.141, 0.19, 2.65),
    (FFVariant.MUX, Stage.PRE_LAYOUT, Mode.TEST): (0.06, 0.14, 0.2, 2.1),
    (FFVariant.GDI, Stage.PRE_LAYOUT, Mode.FUNCTIONAL): (0.18, 0.14, 0.32, 0.56),
    (FFVariant.GDI, Stage.PRE_LAYOUT, Mode.TEST): (0.38, 0.13, 0.51, 0.57),
    (FFVariant.APPROX, Stage.PRE_LAYOUT, Mode.FUNCTIONAL): (0.06, 0.14, 0.2, 0.41),
    (FFVariant.APPROX, Stage.PRE_LAYOUT, Mode.TEST): (0.04, 0.14, 0.18, 0.44),
    (FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL): (0.088, 0.283, 0.371, 3.62),
    (FFVariant.MUX, Stage.POST_LAYOUT, Mode.TEST): (0.085, 0.05, 0.365, 3.81),
    (FFVariant.GDI, Stage.POST_LAYOUT, Mode.FUNCTIONAL): (0.66, 0.284, 1.05, 1.06),
    (FFVariant.GDI, Stage.POST_LAYOUT, Mode.TEST): (0.77, 0.282, 0.94, 1.37),
    (FFVariant.APPROX, Stage.POST_LAYOUT, Mode.FUNCTIONAL): (0.055, 0.3, 0.35, 0.51),
    (FFVariant.APPROX, Stage.POST_LAYOUT, Mode.TEST): (0.04, 0.3, 0.34, 0.56),
}

BUILTIN = CellLibrary.builtin()

AREAS = {FFVariant.MUX: 16, FFVariant.GDI: 12, FFVariant.APPROX: 14}

# rows whose printed t_pd disagrees with t_su + t_cq by more than 0.005 ns
INCONSISTENT = {
    (FFVariant.MUX, Stage.PRE_LAYOUT, Mode.FUNCTIONAL),
    (FFVariant.MUX, Stage.POST_LAYOUT, Mode.TEST),
    (FFVariant.GDI, Stage.POST_LAYOUT, Mode.FUNCTIONAL),
    (FFVariant.GDI, Stage.POST_LAYOUT, Mode.TEST),
}


@pytest.mark.parametrize("key", sorted(TABLE, key=str))
def test_builtin_rows_match_published_tables(key):
    variant, stage, mode = key
    row = BUILTIN.ff(variant, stage).mode(mode)
    t_su, t_cq, t_pd, power = TABLE[key]
    assert row.t_su == t_su
    assert row.t_cq == t_cq
    assert row.t_pd == t_pd
    assert row.avg_power_uw == power


@pytest.mark.parametrize("variant", list(FFVariant))
@pytest.mark.parametrize("stage", list(Stage))
def test_builtin_areas(variant, stage):
    assert BUILTIN.ff(variant, stage).area == AREAS[variant]


@pytest.mark.parametrize("key", sorted(TABLE, key=str))
def test_consistency_flag(key):
    variant, stage, mode = key
    row = BUILTIN.ff(variant, stage).mode(mode)
    # stored verbatim: a printed t_pd off t_su + t_cq by more than rounding stays
    assert (abs(row.t_pd - row.t_pd_sum) > 0.005 + 1e-9) == (key in INCONSISTENT)
    assert row.t_pd_sum == pytest.approx(row.t_su + row.t_cq)


def test_energy_per_cycle_is_power_at_reference_frequency():
    # 1 uW average at 1 GHz is exactly 1 fJ per cycle
    params = BUILTIN.ff(FFVariant.MUX, Stage.POST_LAYOUT)
    assert params.energy_per_cycle_fj(Mode.TEST) == pytest.approx(3.81)
    assert params.energy_per_cycle_fj(Mode.FUNCTIONAL) == pytest.approx(3.62)


def test_mode_timing_validation():
    with pytest.raises(CellConfigError):
        ModeTiming(t_su=-0.1, t_cq=0.1, t_pd=0.0, avg_power_uw=1.0)
    with pytest.raises(CellConfigError):
        ModeTiming(t_su=0.1, t_cq=0.0, t_pd=0.1, avg_power_uw=1.0)
    with pytest.raises(CellConfigError):
        ModeTiming(t_su=0.1, t_cq=0.1, t_pd=0.2, avg_power_uw=0.0)
    with pytest.raises(CellConfigError, match="t_pd must be a finite number >= 0"):
        ModeTiming(t_su=0.1, t_cq=0.1, t_pd=-0.1, avg_power_uw=1.0)
    # a zero printed delay is in range, as a zero setup time is
    assert ModeTiming(t_su=0.0, t_cq=0.1, t_pd=0.0, avg_power_uw=1.0).t_pd == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_check_rejects_non_finite_values(value):
    row = BUILTIN.ff(FFVariant.MUX, Stage.POST_LAYOUT).test
    for key in ("t_su", "t_cq", "t_pd", "avg_power_uw"):
        with pytest.raises(CellConfigError, match=key):
            row._replace(**{key: value})
    with pytest.raises(CellConfigError, match="area"):
        BUILTIN.ff(FFVariant.MUX, Stage.POST_LAYOUT)._replace(area=value)
    with pytest.raises(CellConfigError, match="delay_ns"):
        GateParams(value, 0.5)
    with pytest.raises(CellConfigError, match="energy_per_toggle_fj"):
        GateParams(0.05, value)


@pytest.mark.parametrize("area", [0, -1])
def test_area_must_be_positive(area):
    with pytest.raises(CellConfigError, match="area"):
        BUILTIN.ff(FFVariant.GDI, Stage.PRE_LAYOUT)._replace(area=area)


def test_comparison_table_rows():
    rows = {r.label: (r.t_pd, r.avg_power_uw, r.area) for r in comparison_table()}
    assert rows["mishra2010modified"] == (0.077, None, 26)
    assert rows["kumar2009robust"] == (0.043, 8.98, 33)
    assert rows["ahlawat2018high"] == (0.674, None, 38)
    assert rows["mux"] == (0.36, 3.81, 16)
    assert rows["gdi"] == (0.94, 1.37, 12)
    assert rows["approx"] == (0.34, 0.56, 14)


def test_gate_params_present_for_all_types():
    lib = CellLibrary.builtin()
    for gtype in GateType:
        gp = lib.gate(gtype)
        assert gp.delay_ns > 0
        assert gp.energy_per_toggle_fj > 0


def test_the_builtin_library_is_one_read_only_object():
    lib = CellLibrary.builtin()
    assert lib is CellLibrary.builtin()
    with pytest.raises(TypeError):
        lib.gates[GateType.INV] = GateParams(0.99, 0.5)
    with pytest.raises(TypeError):
        lib.ffs[(FFVariant.MUX, Stage.POST_LAYOUT)] = lib.ff(FFVariant.APPROX, Stage.POST_LAYOUT)
    assert lib.gate(GateType.INV).delay_ns != 0.99


def test_load_library_overrides(tmp_path):
    cfg = tmp_path / "custom.cellcfg"
    cfg.write_text(
        "[gate.NAND2]\n"
        "delay_ns = 0.125\n"
        "\n"
        "[ff.approx.post_layout.test]\n"
        "t_su = 0.1\n"
        "t_cq = 0.2\n"
        "t_pd = 0.3\n"
        "avg_power_uw = 9.0\n"
        "\n"
        "[ff.approx.post_layout]\n"
        "area = 15\n"
    )
    lib = load_library(cfg)
    assert lib.gate(GateType.NAND2).delay_ns == 0.125
    # untouched gate keeps builtin value
    assert lib.gate(GateType.INV) == CellLibrary.builtin().gate(GateType.INV)
    row = lib.ff(FFVariant.APPROX, Stage.POST_LAYOUT).mode(Mode.TEST)
    assert (row.t_su, row.t_cq, row.t_pd, row.avg_power_uw) == (0.1, 0.2, 0.3, 9.0)
    assert lib.ff(FFVariant.APPROX, Stage.POST_LAYOUT).area == 15
    # other mode untouched
    func = lib.ff(FFVariant.APPROX, Stage.POST_LAYOUT).mode(Mode.FUNCTIONAL)
    assert func.t_su == 0.055


def test_load_library_rejects_unknown_sections(tmp_path):
    cfg = tmp_path / "bad.cellcfg"
    cfg.write_text("[gate.NAND9]\ndelay_ns = 1\n")
    with pytest.raises(CellConfigError):
        load_library(cfg)
    cfg.write_text("[ff.mux.mid_layout.test]\nt_su = 1\n")
    with pytest.raises(CellConfigError):
        load_library(cfg)
    cfg.write_text("[wire.M1]\ndelay_ns = 1\n")
    with pytest.raises(CellConfigError, match=r"^unrecognized section \[wire\.M1\]$"):
        load_library(cfg)


def test_load_library_returns_read_only_tables(tmp_path):
    cfg = tmp_path / "env.cellcfg"
    cfg.write_text("[gate.INV]\ndelay_ns = 0.99\n")
    lib = load_library(cfg)
    with pytest.raises(TypeError):
        lib.gates[GateType.INV] = GateParams(0.5, 0.5)
    with pytest.raises(TypeError):
        lib.ffs[(FFVariant.MUX, Stage.POST_LAYOUT)] = lib.ff(FFVariant.APPROX, Stage.POST_LAYOUT)
    assert lib.gate(GateType.INV).delay_ns == 0.99


def test_load_library_reads_a_file_rewritten_with_the_same_size_and_time(tmp_path):
    # no cache keyed on the file's stat: every load reads the text
    cfg = tmp_path / "custom.cellcfg"
    cfg.write_text("[gate.INV]\ndelay_ns = 0.11\n")
    assert load_library(cfg).gate(GateType.INV).delay_ns == 0.11
    stamp = cfg.stat()
    cfg.write_text("[gate.INV]\ndelay_ns = 0.12\n")
    os.utime(cfg, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (cfg.stat().st_size, cfg.stat().st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    assert load_library(cfg).gate(GateType.INV).delay_ns == 0.12


def test_reports_priced_from_default_cellcfg_match_the_builtin_library(chain10_path):
    from scanforge.netlist import load_netlist
    from scanforge.protocol import sim_functional
    from scanforge.sta import analyze_timing

    cfg = Path(cells.__file__).parent / "data" / "default.cellcfg"
    n = load_netlist(str(chain10_path))
    trace = sim_functional(n, [{net: 0 for net in n.inputs}], cycles=8, init=None)
    points = list(itertools.product(FFVariant, Stage, Mode))
    priced = list(itertools.product(FFVariant, Stage))
    timing = [repr(analyze_timing(n, *point)) for point in points]
    power = [repr(estimate_power(trace, v, s, 1.0)) for v, s in priced]
    lib = load_library(cfg)
    assert timing == [repr(analyze_timing(n, *point, lib)) for point in points]
    assert power == [repr(estimate_power(trace, v, s, 1.0, lib)) for v, s in priced]


def test_the_environment_does_not_pick_the_library(tmp_path, chain10_path, capsys, monkeypatch):
    from scanforge.netlist import load_netlist
    from scanforge.sta import analyze_timing

    cfg = tmp_path / "slow.cellcfg"
    cfg.write_text("[gate.NAND2]\ndelay_ns = 0.9\n", encoding="utf-8")
    n = load_netlist(str(chain10_path))
    point = (FFVariant.MUX, Stage.POST_LAYOUT, Mode.FUNCTIONAL)
    builtin = analyze_timing(n, *point, CellLibrary.builtin())
    assert analyze_timing(n, *point, load_library(cfg)).t_comb_ns > builtin.t_comb_ns
    assert main(["sta", str(chain10_path)]) == 0
    plain = capsys.readouterr().out
    # a library reaches a report only as an argument, never from the environment
    monkeypatch.setenv("SCANFORGE_CELLS", str(cfg))
    assert analyze_timing(n, *point) == builtin
    assert main(["sta", str(chain10_path)]) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["report"]["timing"]["t_comb_ns"] == builtin.t_comb_ns


def test_bundled_example_config_loads():
    from importlib import resources

    path = resources.files("scanforge") / "data" / "default.cellcfg"
    lib = load_library(str(path))
    assert lib.ff(FFVariant.MUX, Stage.POST_LAYOUT).mode(Mode.FUNCTIONAL).t_pd == 0.371


def _load(tmp_path, text):
    cfg = tmp_path / "case.cellcfg"
    cfg.write_text(text, encoding="utf-8")
    return load_library(cfg)


@pytest.mark.parametrize(
    "section, allowed",
    [
        ("gate.NAND2", "delay_ns, energy_per_toggle_fj"),
        ("ff.mux.post_layout", "area"),
        ("ff.mux.post_layout.test", "t_su, t_cq, t_pd, avg_power_uw"),
    ],
)
def test_an_unknown_key_names_the_section_and_the_allowed_keys(tmp_path, section, allowed):
    with pytest.raises(CellConfigError) as exc:
        _load(tmp_path, f"[{section}]\ndelay = 0.2\n")
    assert str(exc.value) == f"[{section}] unknown key 'delay'; allowed keys: {allowed}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize(
    "section, key",
    [("ff.approx.pre_layout", "area"), ("ff.approx.pre_layout.functional", "avg_power_uw")],
)
def test_out_of_range_file_values_name_the_section(tmp_path, section, key, value):
    with pytest.raises(CellConfigError, match=rf"^\[{section}\] {key} must be a finite number > 0"):
        _load(tmp_path, f"[{section}]\n{key} = {value}\n")


def test_default_section_keys_count_as_each_sections_own(tmp_path):
    lib = _load(
        tmp_path,
        "[DEFAULT]\nt_su = 0.25\n\n[ff.gdi.pre_layout.test]\n[ff.mux.post_layout.functional]\n",
    )
    assert lib.ff(FFVariant.GDI, Stage.PRE_LAYOUT).test.t_su == 0.25
    assert lib.ff(FFVariant.MUX, Stage.POST_LAYOUT).functional.t_su == 0.25
    # a section without the key in its allowed set rejects the default too
    with pytest.raises(CellConfigError, match=r"^\[gate.INV\] unknown key 't_su'"):
        _load(tmp_path, "[DEFAULT]\nt_su = 0.25\n\n[gate.INV]\n")


def test_finite_values_whose_path_delay_overflows_name_the_section(tmp_path, chain10_path, capsys):
    text = "[ff.mux.post_layout.functional]\nt_su = 1e308\nt_cq = 1e308\n"
    message = "[ff.mux.post_layout.functional] t_su + t_cq must be a finite number, got inf"
    with pytest.raises(CellConfigError) as exc:
        _load(tmp_path, text)
    assert str(exc.value) == message
    code = main(["sta", str(chain10_path), "--cells", str(tmp_path / "case.cellcfg")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err) == {"error": {"code": "cells.config", "message": message}}


def test_a_negative_path_delay_names_the_section(tmp_path, chain10_path, capsys):
    text = "[ff.approx.post_layout.functional]\nt_pd = -2\n"
    message = "[ff.approx.post_layout.functional] t_pd must be a finite number >= 0, got -2.0"
    with pytest.raises(CellConfigError) as exc:
        _load(tmp_path, text)
    assert str(exc.value) == message
    argv = ["sta", str(chain10_path), "--variant", "approx", "--cells", str(tmp_path / "case.cellcfg")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err) == {"error": {"code": "cells.config", "message": message}}
