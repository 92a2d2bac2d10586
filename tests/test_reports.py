"""Report formatting, schema loading, and VCD dumping tests."""

from __future__ import annotations

import csv
import io
import json

import pytest

import scanforge
from scanforge.netlist import parse_netlist
from scanforge.protocol import sim_functional
from scanforge.reports import (
    FORMATS,
    TOOL_NAME,
    ReportValueError,
    envelope,
    format_report,
    load_schema,
    to_csv,
    to_json,
    to_text,
)
from scanforge.vcd import dump_vcd, to_vcd

DOC = envelope(
    "sta",
    {
        "timing": {
            "t_comb_ns": 0.15,
            "critical_path": ["f1", "n1"],
            "gains_vs_mux": None,
            "pipelined": True,
        }
    },
    seed=42,
)


def test_envelope_shape():
    assert DOC["tool"] == TOOL_NAME == "scanforge"
    assert DOC["version"] == scanforge.__version__
    assert DOC["command"] == "sta"
    assert DOC["seed"] == 42
    assert envelope("sim", {})["seed"] is None


def test_json_is_sorted_and_stable():
    text = to_json(DOC)
    assert text.endswith("\n")
    assert json.loads(text) == DOC
    assert text == to_json(json.loads(text))
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_csv_is_a_flat_projection():
    rows = list(csv.reader(io.StringIO(to_csv(DOC))))
    assert rows[0] == ["key", "value"]
    table = dict(rows[1:])
    assert table["command"] == "sta"
    assert table["report.timing.t_comb_ns"] == "0.15"
    assert table["report.timing.critical_path.0"] == "f1"
    assert table["report.timing.critical_path.1"] == "n1"
    assert table["report.timing.gains_vs_mux"] == ""
    assert table["report.timing.pipelined"] == "true"
    assert table["seed"] == "42"


def test_text_aligns_the_same_rows():
    text = to_text(DOC)
    lines = text.splitlines()
    assert len(lines) == len(list(csv.reader(io.StringIO(to_csv(DOC))))) - 1
    assert any(line.startswith("report.timing.t_comb_ns") and line.endswith("0.15")
               for line in lines)


def test_format_report_dispatch():
    for fmt in FORMATS:
        assert format_report(DOC, fmt)
    with pytest.raises(ValueError):
        format_report(DOC, "yaml")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_non_finite_values_are_refused_in_every_format(fmt, value):
    doc = envelope("sta", {"timing": {"t_comb_ns": 0.15, "path": [1.0, value]}})
    with pytest.raises(ReportValueError, match=r"^report\.timing\.path\.1: "):
        format_report(doc, fmt)


@pytest.mark.parametrize(
    "command",
    ["insert", "sim", "scan-test", "sta", "power", "switchsim", "compare"],
)
def test_every_subcommand_ships_a_schema(command):
    schema = load_schema(command)
    assert schema["properties"]["command"]["const"] == command
    assert schema["properties"]["tool"]["const"] == "scanforge"
    assert "report" in schema["required"]


TFF = "module t\ninput EN\noutput Q\ngate gi INV D Q\ndff f1 Q D\nendmodule\n"


def _toggle_trace():
    return sim_functional(parse_netlist(TFF), [{"EN": 0}], cycles=4, init={"f1": 0})


def test_vcd_structure():
    text = to_vcd(_toggle_trace())
    lines = text.splitlines()
    assert "$timescale 1ns $end" in lines
    assert "$scope module t $end" in lines
    var_lines = [l for l in lines if l.startswith("$var wire 1 ")]
    assert len(var_lines) == 3  # D, EN, Q
    codes = [l.split()[3] for l in var_lines]
    assert len(set(codes)) == 3

    # initial dump carries every net; later steps only the changes
    at0 = lines[lines.index("#0") + 2 : lines.index("$end", lines.index("#0"))]
    assert len(at0) == 3
    at1 = lines[lines.index("#1") + 1 : lines.index("#2")]
    assert len(at1) == 2  # EN held constant, D and Q flipped


def test_vcd_marks_unknowns():
    trace = sim_functional(parse_netlist(TFF), [{"EN": 0}], cycles=2)
    text = to_vcd(trace)
    assert "x" in {line[0] for line in text.splitlines() if line and line[0] in "01x"}


def test_vcd_scope_override_and_file_dump(tmp_path):
    trace = _toggle_trace()
    assert "$scope module t $end" in to_vcd(trace)
    out = tmp_path / "wave.vcd"
    dump_vcd(trace, str(out))
    assert out.read_text(encoding="utf-8") == to_vcd(trace)


def test_vcd_rejects_empty_traces():
    from scanforge.protocol import ProtocolTrace

    with pytest.raises(ValueError):
        to_vcd(ProtocolTrace("empty"))
