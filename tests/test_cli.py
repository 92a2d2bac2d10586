"""Command-line interface tests.

Every subcommand is exercised in-process through main(); JSON outputs are
parsed strictly (no NaN or Infinity), validated against the bundled schemas
and checked for byte-level determinism.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

import scanforge
from scanforge.cli import main
from scanforge.netlist import parse_netlist

from test_reports import load_schema

TFF = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, failing on the NaN / Infinity tokens that JSON does not allow."""

    def reject(token):
        raise AssertionError(f"not valid JSON: {token}")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return strict_json(out)


def netlist_file(tmp_path, text, name="design.snl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def chain10(chain10_path):
    return str(chain10_path)


@pytest.fixture()
def chain10_patterns(chain10_patterns_path):
    return str(chain10_patterns_path)


def test_insert_reports_and_validates(capsys, tmp_path):
    src = netlist_file(tmp_path, TFF)
    doc = run_json(capsys, "insert", src, "--variant", "gdi")
    jsonschema.validate(doc, load_schema("insert"))
    rep = doc["report"]["insert"]
    assert rep["variant"] == "gdi"
    assert rep["chain_length"] == 1
    assert rep["order"] == ["f1"]
    assert rep["netlist_out"] is None
    inserted = parse_netlist(rep["netlist_text"])
    assert "SI" in inserted.inputs and "SO" in inserted.outputs


def test_insert_writes_netlist_file(capsys, tmp_path):
    src = netlist_file(tmp_path, TFF)
    out = tmp_path / "scan.snl"
    doc = run_json(capsys, "insert", src, "--netlist-out", str(out))
    rep = doc["report"]["insert"]
    assert rep["netlist_out"] == str(out)
    assert rep["netlist_text"] is None
    inserted = parse_netlist(out.read_text(encoding="utf-8"))
    assert inserted.name == "t"


def test_insert_bumps_port_names_past_collisions(capsys, tmp_path):
    # The design already uses SI, so the CLI picks SI_1 as the library does;
    # an explicit port name is used as given.
    text = "module t\ninput SI\noutput Q\ngate gx XOR2 D Q SI\ndff f1 Q D\nendmodule\n"
    src = netlist_file(tmp_path, text)
    rep = run_json(capsys, "insert", src)["report"]["insert"]
    assert (rep["chain_in"], rep["chain_out"], rep["enable"]) == ("SI_1", "SO", "SE")
    inserted = parse_netlist(rep["netlist_text"])
    assert inserted.inputs == ("SI", "SI_1", "SE")
    named = run_json(capsys, "insert", src, "--chain-in", "SCAN_IN")["report"]["insert"]
    assert named["chain_in"] == "SCAN_IN"
    code, _, err = run_cli(capsys, "insert", src, "--chain-in", "SI")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "scan.collision"


def test_sim_waveform(capsys, tmp_path):
    src = netlist_file(tmp_path, TFF)
    vcd = tmp_path / "wave.vcd"
    doc = run_json(capsys, "sim", src, "--cycles", "8", "--vcd", str(vcd))
    jsonschema.validate(doc, load_schema("sim"))
    rep = doc["report"]["sim"]
    assert rep["cycles"] == 8
    assert rep["outputs"]["Q"] == "10101010"
    assert vcd.read_text(encoding="utf-8").startswith("$version scanforge $end")


def test_sim_x_init(capsys, tmp_path):
    src = netlist_file(tmp_path, TFF)
    doc = run_json(capsys, "sim", src, "--cycles", "8", "--init", "x")
    assert doc["report"]["sim"]["outputs"]["Q"] == "xxxxxxxx"
    assert doc["report"]["sim"]["warnings"]


def test_scan_test_runs_the_fixture(capsys, chain10, chain10_patterns):
    doc = run_json(capsys, "scan-test", chain10, chain10_patterns)
    jsonschema.validate(doc, load_schema("scan-test"))
    rep = doc["report"]["scan_test"]
    assert rep["chain_length"] == 10
    assert rep["num_vectors"] == 4
    assert rep["cycles"] == rep["cycle_budget"] == 4 * 21
    assert rep["pipelined"] is False
    assert len(rep["responses"]) == 4
    assert all(len(r) == 10 for r in rep["responses"])


def test_scan_test_pipelined_budget(capsys, chain10, chain10_patterns):
    doc = run_json(capsys, "scan-test", chain10, chain10_patterns, "--pipelined")
    rep = doc["report"]["scan_test"]
    assert rep["cycles"] == rep["cycle_budget"] == 10 + 4 * 11
    base = run_json(capsys, "scan-test", chain10, chain10_patterns)
    assert rep["responses"] == base["report"]["scan_test"]["responses"]


def test_scan_test_expected_mismatches(capsys, tmp_path):
    src = netlist_file(
        tmp_path,
        """
module pair
input SI SE
output SO
scanff f1 MUX Q1 Q1 SI SE
scanff f2 MUX Q2 Q2 Q1 SE
gate gso BUF SO Q2
endmodule
""",
    )
    pats = tmp_path / "t.pat"
    pats.write_text("10 -> 10\n01 -> 11\n00\n", encoding="utf-8")
    doc = run_json(capsys, "scan-test", src, str(pats))
    jsonschema.validate(doc, load_schema("scan-test"))
    rep = doc["report"]["scan_test"]
    assert rep["responses"] == ["10", "01", "00"]
    assert rep["expected"] == ["10", "11", None]
    assert rep["mismatched_vectors"] == [1]


def test_scan_test_variant_guard(capsys, chain10, chain10_patterns):
    code, out, err = run_cli(
        capsys, "scan-test", chain10, chain10_patterns, "--variant", "gdi"
    )
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"]["code"] == "cli.command"
    assert "gdi" in payload["error"]["message"]


def test_sta_report(capsys, chain10):
    doc = run_json(capsys, "sta", chain10, "--variant", "approx", "--mode", "test")
    jsonschema.validate(doc, load_schema("sta"))
    rep = doc["report"]["timing"]
    assert rep["variant"] == "approx"
    assert rep["mode"] == "test"
    assert rep["t_clk_min_ns"] == pytest.approx(
        rep["t_cq_ns"] + rep["t_comb_ns"] + rep["t_su_ns"], rel=1e-12
    )
    assert rep["gains_vs_mux"]["time_gain_ns"] == pytest.approx(0.025, abs=0.005)


def approx_copy(tmp_path, chain10):
    """chain10 with every scan cell an APPROX cell."""
    text = Path(chain10).read_text(encoding="utf-8").replace(" MUX ", " APPROX ")
    return netlist_file(tmp_path, text, "chain10_approx.snl")


def test_power_from_patterns_and_from_functional(capsys, chain10, chain10_patterns, tmp_path):
    approx = approx_copy(tmp_path, chain10)
    doc = run_json(capsys, "power", approx, chain10_patterns, "--variant", "approx")
    jsonschema.validate(doc, load_schema("power"))
    rep = doc["report"]["power"]
    assert rep["mode"] == "test"
    assert rep["contention_cycles"] == 650
    # trace-level gain: shared combinational energy dilutes the FF-only figure
    mux = run_json(capsys, "power", chain10, chain10_patterns)["report"]["power"]
    assert mux["gains_vs_mux_pct"] == 0.0
    want = 100.0 * (mux["avg_power_uw"] - rep["avg_power_uw"]) / mux["avg_power_uw"]
    assert rep["gains_vs_mux_pct"] == pytest.approx(want, rel=1e-9)
    assert 60.0 < rep["gains_vs_mux_pct"] < 85.9

    src = netlist_file(tmp_path, TFF)
    doc = run_json(capsys, "power", src, "--cycles", "12")
    rep = doc["report"]["power"]
    assert rep["mode"] == "functional"
    assert rep["cycles"] == 12


def test_power_with_patterns_prices_the_chains_own_variant(
    capsys, chain10, chain10_patterns, tmp_path
):
    # contention comes from the chain's cells, so a different variant is refused
    code, out, err = run_cli(capsys, "power", chain10, chain10_patterns, "--variant", "approx")
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": {"code": "cli.command", "message": "chain uses the mux flip-flop, not approx"}
    }
    approx = approx_copy(tmp_path, chain10)
    rep = run_json(capsys, "power", approx, chain10_patterns)["report"]["power"]
    assert rep["variant"] == "approx" and rep["contention_cycles"] == 650
    # without patterns nothing is simulated as a chain, and mux stays the default
    rep = run_json(capsys, "power", approx, "--cycles", "4")["report"]["power"]
    assert rep["variant"] == "mux"


def test_switchsim_bundled_equivalence(capsys):
    doc = run_json(
        capsys, "switchsim", "approx_sff.tnl", "--check-behavioral", "--vectors", "16"
    )
    jsonschema.validate(doc, load_schema("switchsim"))
    rep = doc["report"]["switchsim"]
    assert rep["transistors"] == 14
    assert rep["variant"] == "approx"
    assert rep["check_behavioral"] is True
    assert rep["mismatches"] == 0
    assert rep["verdict"] == "equivalent"
    assert rep["vectors_checked"] > 0


def test_switchsim_infers_the_variant_only_from_bundled_names(capsys, tmp_path):
    mux_text = (Path(scanforge.__file__).parent / "data" / "mux_sff.tnl").read_text(
        encoding="utf-8"
    )
    path = tmp_path / "muxed_foo.tnl"
    path.write_text(mux_text, encoding="utf-8")
    code, _, err = run_cli(capsys, "switchsim", str(path), "--check-behavioral")
    assert code == 1
    assert "--variant" in json.loads(err)["error"]["message"]
    doc = run_json(
        capsys, "switchsim", str(path), "--check-behavioral", "--variant", "mux",
        "--vectors", "4",
    )
    assert doc["report"]["switchsim"]["verdict"] == "equivalent"


def test_switchsim_plain_stats(capsys):
    doc = run_json(capsys, "switchsim", "gdi_sff.tnl")
    rep = doc["report"]["switchsim"]
    assert rep["transistors"] == 12
    assert rep["verdict"] is None


def test_compare_reproduces_published_gains(capsys):
    doc = run_json(capsys, "compare")
    jsonschema.validate(doc, load_schema("compare"))
    rows = {
        (r["variant"], r["mode"]): r for r in doc["report"]["compare"]["rows"]
    }
    assert len(rows) == 6
    assert rows[("gdi", "functional")]["time_gain_vs_mux_ns"] == pytest.approx(-0.68, abs=0.005)
    assert rows[("gdi", "functional")]["power_gain_vs_mux_pct"] == pytest.approx(70.7, abs=0.1)
    assert rows[("approx", "functional")]["time_gain_vs_mux_ns"] == pytest.approx(0.02, abs=0.005)
    assert rows[("approx", "functional")]["power_gain_vs_mux_pct"] == pytest.approx(85.9, abs=0.1)
    assert rows[("approx", "test")]["time_gain_vs_mux_ns"] == pytest.approx(0.025, abs=0.005)
    assert rows[("approx", "test")]["power_gain_vs_mux_pct"] == pytest.approx(85.3, abs=0.1)
    assert rows[("gdi", "test")]["power_gain_vs_mux_pct"] == pytest.approx(64.0, abs=0.1)
    assert {r["area_transistors"] for r in doc["report"]["compare"]["rows"]} == {16, 12, 14}
    lit = {r["design"] for r in doc["report"]["compare"]["literature"]}
    assert len(lit) == 6


def test_outputs_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compare", "-o", str(a)]) == 0
    assert main(["compare", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_other_formats_render(capsys, chain10):
    code, out, _ = run_cli(capsys, "sta", chain10, "--format", "csv")
    assert code == 0 and out.startswith("key,value")
    code, out, _ = run_cli(capsys, "sta", chain10, "--format", "text")
    assert code == 0 and "report.timing.t_clk_min_ns" in out


def test_cells_override_changes_the_analysis(capsys, tmp_path, chain10):
    cfg = tmp_path / "slow.cellcfg"
    cfg.write_text("[gate.NAND2]\ndelay_ns = 0.5\n", encoding="utf-8")
    fast = run_json(capsys, "sta", chain10)
    slow = run_json(capsys, "sta", chain10, "--cells", str(cfg))
    assert (
        slow["report"]["timing"]["t_comb_ns"]
        > fast["report"]["timing"]["t_comb_ns"]
    )


def test_cells_env_var_is_honored(capsys, tmp_path, chain10, monkeypatch):
    cfg = tmp_path / "slow.cellcfg"
    cfg.write_text("[gate.NAND2]\ndelay_ns = 0.9\n", encoding="utf-8")
    monkeypatch.setenv("SCANFORGE_CELLS", str(cfg))
    doc = run_json(capsys, "sta", chain10)
    assert doc["report"]["timing"]["t_comb_ns"] >= 0.9


def test_tool_errors_exit_one_with_json(capsys, tmp_path, chain10):
    bad = tmp_path / "bad.pat"
    bad.write_text("101\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "scan-test", chain10, str(bad))
    assert code == 1 and not out
    payload = json.loads(err)
    assert set(payload["error"]) == {"code", "message"}
    assert payload["error"]["code"] == "patterns.width"


@pytest.mark.parametrize("value", ["%0.088", "%(t_cq)s", "0.1%"])
def test_percent_in_a_cells_value_is_a_config_error(capsys, tmp_path, value):
    # a '%' is not interpolation syntax in a .cellcfg: the value is read as
    # written and rejected as a number, never a configparser traceback
    cfg = tmp_path / "f.cellcfg"
    cfg.write_text(f"[ff.MUX.post_layout.functional]\nt_su = {value}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", "--cells", str(cfg))
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": {
            "code": "cells.config",
            "message": f"[ff.MUX.post_layout.functional] t_su: not a number: {value!r}",
        }
    }


BAD_INPUT_CASES = {
    "area nan": ("cells.config", ["compare"], "[ff.mux.post_layout]\narea = nan\n"),
    "t_su inf": ("cells.config", ["sta"], "[ff.MUX.post_layout.functional]\nt_su = inf\n"),
    "delay_ns nan": ("cells.config", ["sta"], "[gate.NAND2]\ndelay_ns = nan\n"),
    "misspelt key": ("cells.config", ["sta"], "[gate.NAND2]\ndelay = 0.2\n"),
    "tclk nan": ("power.model", ["power", "--tclk", "nan"], None),
    "penalty inf": ("power.model", ["power", "--contention-penalty-fj", "inf"], None),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_inputs_exit_one_in_every_format(capsys, tmp_path, chain10, case, fmt):
    code_name, argv, cellcfg = BAD_INPUT_CASES[case]
    argv = [argv[0]] + ([] if argv[0] == "compare" else [chain10]) + argv[1:]
    if cellcfg is not None:
        cfg = tmp_path / "bad.cellcfg"
        cfg.write_text(cellcfg, encoding="utf-8")
        argv += ["--cells", str(cfg)]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 1 and not out
    assert strict_json(err)["error"]["code"] == code_name


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_non_finite_report_value_is_named_by_its_key(capsys, chain10, fmt):
    # the energy over a 1e-320 ns clock overflows to inf, the gain to nan
    code, out, err = run_cli(capsys, "power", chain10, "--tclk", "1e-320", "--format", fmt)
    assert code == 1 and not out
    assert strict_json(err)["error"] == {
        "code": "reports.value",
        "message": "report.power.avg_power_uw: inf is not a finite number",
    }


def test_non_finite_transistor_widths_are_syntax_errors(capsys, tmp_path):
    # the bundled approximate cell with both SI pass devices at width nan
    text = (Path(scanforge.__file__).parent / "data" / "approx_sff.tnl").read_text()
    for dev in ("t n_si N SE SI DI", "t p_si P NSE SI DI"):
        assert f"{dev} 2\n" in text
        text = text.replace(f"{dev} 2\n", f"{dev} nan\n")
    cell = netlist_file(tmp_path, text, "approx_sff.tnl")
    code, out, err = run_cli(capsys, "switchsim", cell, "--check-behavioral", "--vectors", "0")
    assert code == 1 and not out
    assert strict_json(err)["error"]["code"] == "switchsim.syntax"


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "sta", "no_such_design.snl")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "cli.io"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sta"])  # missing netlist argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_seed_is_echoed(capsys):
    doc = run_json(capsys, "switchsim", "mux_sff.tnl", "--seed", "7")
    assert doc["seed"] == 7


def test_only_sta_power_and_compare_take_cells(capsys, tmp_path, chain10, chain10_patterns):
    missing = str(tmp_path / "no_such_file.cellcfg")
    for argv in (
        ["insert", netlist_file(tmp_path, TFF)],
        ["sim", chain10],
        ["scan-test", chain10, chain10_patterns],
        ["switchsim", "mux_sff.tnl"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cells", missing])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cells" in capsys.readouterr().err
    for argv in (["sta", chain10], ["power", chain10], ["compare"]):
        code, out, err = run_cli(capsys, *argv, "--cells", missing)
        assert code == 1 and not out
        assert strict_json(err)["error"]["code"] == "cells.config"
