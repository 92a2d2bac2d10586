"""Mutation fuzz of the four file parsers: only a ``ScanforgeError`` may escape.

Each property starts from a valid file (the ``chain10`` fixtures, a bundled
transistor network, the bundled example cell config) and applies a few
random edits: characters or keywords inserted, spans deleted, lines
duplicated or swapped. Whatever the result, the parser either accepts it or
raises one of the toolkit's own errors, which the CLI turns into exit 1.

The differential property holds ``parse_netlist``'s one match per row to
the per-token checks that ``netlist._refuse`` runs: on every instance or
port row of a mutated file, a row the one match accepts is one the
per-token checks accept, built the same way, and a row it refuses is one
they raise on. It runs on the mutated netlists and on valid rows with each
token swapped for an identifier, a near miss, the clock or a type name.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanforge import netlist as netlist_module
from scanforge.cells import load_library
from scanforge.errors import ScanforgeError
from scanforge.kinds import FFVariant, GateType
from scanforge.netlist import (
    Dff,
    Gate,
    Netlist,
    NetlistSyntaxError,
    ScanFF,
    parse_netlist,
    parse_patterns,
)
from scanforge.switchsim import load_network

FIXTURES = Path(__file__).parent / "fixtures"
DATA = resources.files("scanforge") / "data"

# words that mean something to one of the formats, and odd values
_WORDS = [
    "module", "endmodule", "input", "output", "gate", "dff", "scanff", "INV", "NAND2",
    "XOR2", "MUX", "GDI", "APPROX", "CLK", "->", "node", "storage", "supply", "io",
    "in", "out", "t", "P", "N", "VDD", "GND", "Q", "[gate.INV]", "[ff.mux.post_layout]",
    "[ff.gdi.pre_layout.test]", "[DEFAULT]", "delay_ns", "t_su", "area", "=", ":", "%",
    "%%", "%(t_cq)s", "${x}", "nan", "inf", "-1", "0", "1e999", "0x10", "#", ";",
]
_CHARS = st.one_of(
    st.sampled_from(" \t\n\r\x0b\x0c\x85 　#%[]=:;.-01xX"),
    st.characters(exclude_categories=("Cs",)),
)
_EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.text(_CHARS, max_size=6)),
    st.tuples(st.just("word"), st.integers(0, 1 << 16), st.sampled_from(_WORDS)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 12)),
    st.tuples(st.just("dup_line"), st.integers(0, 1 << 16), st.just(None)),
    st.tuples(st.just("swap_lines"), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
)
EDITS = st.lists(_EDIT, min_size=1, max_size=5)

# a plain-flop design with every gate type, beside the scanned chain10
PLAIN = """module plain
input a b
output y q
gate g0 INV n0 a
gate g1 BUF n1 b
gate g2 AND2 n2 n0 q
gate g3 OR2 n3 n1 n2
gate g4 NAND2 n4 n3 a
gate g5 NOR2 n5 n4 b
gate g6 XOR2 y n5 q
dff f0 q n6
gate g7 INV n6 y
endmodule
"""


def mutate(text: str, edits) -> str:
    for kind, at, arg in edits:
        pos = at % (len(text) + 1)
        if kind == "insert":
            text = text[:pos] + arg + text[pos:]
        elif kind == "word":
            text = text[:pos] + f" {arg} " + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + arg:]
        else:
            lines = text.split("\n")
            i = at % len(lines)
            if kind == "dup_line":
                lines.insert(i, lines[i])
            else:
                j = arg % len(lines)
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def only_scanforge_errors(parse, text: str) -> None:
    try:
        parse(text)
    except ScanforgeError:
        pass


NETLISTS = st.sampled_from([(FIXTURES / "chain10.snl").read_text(encoding="utf-8"), PLAIN])


@given(NETLISTS, EDITS)
def test_parse_netlist_raises_only_scanforge_errors(seed, edits):
    only_scanforge_errors(parse_netlist, mutate(seed, edits))


@given(st.sampled_from([1, 10]), EDITS)
def test_parse_patterns_raises_only_scanforge_errors(chain_length, edits):
    text = mutate((FIXTURES / "chain10.pat").read_text(encoding="utf-8"), edits)
    only_scanforge_errors(lambda t: parse_patterns(t, chain_length), text)


@given(st.sampled_from(["mux_sff.tnl", "gdi_sff.tnl", "approx_sff.tnl"]), EDITS)
def test_load_network_raises_only_scanforge_errors(name, edits):
    text = mutate((DATA / name).read_text(encoding="utf-8"), edits)
    only_scanforge_errors(load_network, text)


@pytest.fixture(scope="module")
def cellcfg_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "f.cellcfg"


@given(edits=EDITS)
def test_load_library_raises_only_scanforge_errors(cellcfg_path, edits):
    text = mutate((DATA / "default.cellcfg").read_text(encoding="utf-8"), edits)
    cellcfg_path.write_text(text, encoding="utf-8")
    only_scanforge_errors(lambda _: load_library(cellcfg_path), text)


class _Unchecked(Netlist):
    """A parsed netlist left uncompiled, so that one row parses on its own."""

    compiled = None


def _per_token(row):
    """One instance or port row as the per-token checks take it: its
    instance, or (directive, nets); they raise on a row they refuse."""
    netlist_module._refuse(row, set())
    words = row[2]
    if words[0] in ("input", "output"):
        return words[0], tuple(words[1:])
    if words[0] == "gate":
        return Gate(words[1], GateType(words[2].upper()), words[3], tuple(words[4:]))
    if words[0] == "dff":
        return Dff(*words[1:])
    return ScanFF(words[1], FFVariant(words[2].lower()), *words[3:])


def _one_match(line: str):
    """One row as ``parse_netlist`` takes it: (its instance or (directive,
    nets), or the error it raised; whether it called the per-token checks)."""
    refuse = netlist_module._refuse
    refused = []

    def spy(row, output_decls):
        refused.append(row)
        return refuse(row, output_decls)

    with mock.patch.object(netlist_module, "Netlist", _Unchecked), mock.patch.object(
        netlist_module, "_refuse", spy
    ):
        try:
            n = parse_netlist(f"module m\n{line}\nendmodule\n")
        except NetlistSyntaxError as e:
            return e, bool(refused)
    if n.instances:
        return n.instances[0], bool(refused)
    return ("input", n.inputs) if n.inputs else ("output", n.outputs), bool(refused)


def agree_on_rows(text: str) -> None:
    for _, line, words in netlist_module._rows(text):
        if words[0] not in ROW_DIRECTIVES:
            continue
        got, refused = _one_match(line)
        try:
            want = _per_token((2, line, words))  # line 2 of the one-row file
        except NetlistSyntaxError as e:
            assert refused
            assert isinstance(got, NetlistSyntaxError) and str(got) == str(e)
        else:
            assert not refused
            assert got == want


ROW_DIRECTIVES = ("input", "output", "gate", "dff", "scanff")
# one valid row of each kind and arity
_BASE_ROWS = [
    "input a b", "output y", "gate g INV y a", "gate g NAND2 y a b", "dff f q d",
    "scanff f MUX q d si se",
]
# identifiers, near misses, the clock, and gate types and scan variants in odd cases
_SWAPS = [
    "n1", "q[3]", "x.y$", "_", "y", "CLK", "clk", "9b", "a-b", "é", "a\u200b", "->",
    "INV", "inv", "ınv", "Buf", "nand2", "XOR2", "AND", "MUX", "gdi", "Approx", "MUXY",
]


@given(NETLISTS, EDITS)
def test_one_match_per_row_agrees_with_the_per_token_checks(seed, edits):
    agree_on_rows(mutate(seed, edits))


def test_one_match_agrees_with_the_per_token_checks_on_every_swapped_token():
    # every token but the directive swapped for each of _SWAPS, and every
    # row with one token more and one fewer
    rows = []
    for base in _BASE_ROWS:
        words = base.split()
        rows += [base + " a", base + " y", " ".join(words[:-1])]
        for i in range(1, len(words)):
            rows += [" ".join([*words[:i], swap, *words[i + 1:]]) for swap in _SWAPS]
    agree_on_rows("\n".join(rows))
