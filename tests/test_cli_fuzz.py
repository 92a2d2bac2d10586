"""End-to-end mutation fuzz: every ``scantool`` subcommand on mutated input files.

The parser fuzz (``test_parser_fuzz.py``) stops at the four parsers. A file
that parses but is odd also flows through ``insert_scan``, ``run_scan_test``,
``analyze_timing``, ``estimate_power``, ``to_vcd`` and the switch-level
check. For each valid input file (the ``chain10`` netlist and patterns, an
unscanned netlist, the bundled transistor networks and cell config) one
file per example gets the parser fuzz's random edits, tokens swapped for
other tokens of the file, or both, and every subcommand that
reads that kind of file runs on it through ``cli.main``, the other inputs
left valid. Each call must exit 0, or exit 1 with exactly one JSON error
line on stderr: no traceback and no usage error. The example count is
bounded so the property takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.cli import main

from test_parser_fuzz import EDITS, PLAIN, mutate

FIXTURES = Path(__file__).parent / "fixtures"
DATA = resources.files("scanforge") / "data"

BASES = {
    "snl": [(FIXTURES / "chain10.snl").read_text(encoding="utf-8"), PLAIN],
    "pat": [(FIXTURES / "chain10.pat").read_text(encoding="utf-8")],
    "tnl": [(DATA / name).read_text(encoding="utf-8")
            for name in ("mux_sff.tnl", "gdi_sff.tnl", "approx_sff.tnl")],
    "cellcfg": [(DATA / "default.cellcfg").read_text(encoding="utf-8")],
}

# Per file kind, the commands that read it; {snl}, {pat}, {tnl} and
# {cellcfg} name the (possibly mutated) files, {vcd} a dump to write.
COMMANDS = {
    "snl": [
        ["insert", "{snl}", "--variant", "approx"],
        ["sim", "{snl}", "--cycles", "12", "--vcd", "{vcd}"],
        ["scan-test", "{snl}", "{pat}", "--pipelined", "--vcd", "{vcd}"],
        ["sta", "{snl}", "--mode", "test"],
        ["power", "{snl}", "--cycles", "12"],
        ["compare", "{snl}"],
    ],
    "pat": [
        ["scan-test", "{snl}", "{pat}"],
        ["power", "{snl}", "{pat}", "--variant", "mux"],
    ],
    "tnl": [
        ["switchsim", "{tnl}"],
        ["switchsim", "{tnl}", "--check-behavioral", "--variant", "approx", "--vectors", "2"],
    ],
    "cellcfg": [
        ["sta", "{snl}", "--cells", "{cellcfg}"],
        ["power", "{snl}", "{pat}", "--cells", "{cellcfg}"],
        ["compare", "{snl}", "--cells", "{cellcfg}"],
    ],
}


# Char-level edits mostly make a file its parser refuses; token swaps keep
# it well formed more often, so the odd but valid files reach the engines.
SWAPS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16)), max_size=4)


def swap_tokens(text: str, swaps) -> str:
    """Each (i, j) replaces the ith whitespace-separated token by the jth."""
    parts = re.split(r"(\s+)", text)
    tokens = range(0, len(parts), 2)
    for i, j in swaps:
        parts[tokens[i % len(tokens)]] = parts[tokens[j % len(tokens)]]
    return "".join(parts)


def run_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` on argv: its exit code and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("cli_fuzz")
    files = {kind: root / f"input.{kind}" for kind in BASES}
    files["vcd"] = root / "dump.vcd"
    return files


@pytest.mark.parametrize(
    ("kind", "base"), [(kind, base) for kind, texts in BASES.items() for base in range(len(texts))]
)
@settings(max_examples=40)
@given(edits=st.one_of(st.just([]), EDITS), swaps=SWAPS)
def test_every_subcommand_exits_0_or_1_with_one_json_error(workdir, kind, base, edits, swaps):
    for name, texts in BASES.items():
        workdir[name].write_text(texts[0], encoding="utf-8")
    # a mutation can make text that UTF-8 cannot hold (a lone surrogate)
    text = swap_tokens(mutate(BASES[kind][base], edits), swaps)
    workdir[kind].write_bytes(text.encode("utf-8", "surrogatepass"))
    paths = {name: str(path) for name, path in workdir.items()}
    for command in COMMANDS[kind]:
        argv = [arg.format(**paths) for arg in command]
        code, err = run_main(argv)
        assert code in (0, 1), (argv, code, err)
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1, (argv, err)
            error = json.loads(lines[0])["error"]
            assert error["code"] and error["message"], (argv, err)
