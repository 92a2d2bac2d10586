"""Pins of every parser error: code, message and position, byte for byte.

Every ``NetlistSyntaxError`` raise site of ``parse_netlist`` is here, with
the whitespace kinds ``str.splitlines`` and ``str.split`` treat specially,
comments, CRLF, and tokens repeated on one line; then the structural errors
that compiling the parsed netlist (``Netlist.compiled``) raises, and every
``parse_patterns`` message. The
tokenizer property compares the parser's token positions with the regex
tokenizer kept in ``oracles``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanforge import netlist as netlist_module
from scanforge.errors import ScanforgeError, token_rows
from scanforge.netlist import NetlistSyntaxError, parse_netlist, parse_patterns
from oracles import regex_tokenize

SYNTAX_PINS = [
    ('',
     {'code': 'netlist.syntax', 'message': "line 1, column 1: empty file, expected 'module'"}, 1, 1),
    ('# only a comment\n   \n\t# another\n',
     {'code': 'netlist.syntax', 'message': "line 1, column 1: empty file, expected 'module'"}, 1, 1),
    ('modul m\n',
     {'code': 'netlist.syntax', 'message': "line 1, column 1: expected 'module', got 'modul'"}, 1, 1),
    ('module\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 1, column 1: 'module' expects 1 arguments, got 0"}, 1, 1),
    ('module a b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 1, column 1: 'module' expects 1 arguments, got 2"}, 1, 1),
    ('module 9m\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 1, column 8: bad module name '9m'"}, 1, 8),
    ('module CLK\nendmodule\n',
     {'code': 'netlist.syntax', 'message': 'line 1, column 8: CLK is the implicit clock and may not be named'}, 1, 8),
    ('module m\nendmodule extra\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 1: 'endmodule' expects 0 arguments, got 1"}, 2, 1),
    ('module m\nmodule n\nendmodule\n',
     {'code': 'netlist.syntax', 'message': 'line 2, column 1: nested module'}, 2, 1),
    ('module m\ninput\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 1: 'input' expects at least one net"}, 2, 1),
    ('module m\noutput # none\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 1: 'output' expects at least one net"}, 2, 1),
    ('module m\ninput a 9x\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 9: bad net name '9x'"}, 2, 9),
    ('module m\ninput a CLK\nendmodule\n',
     {'code': 'netlist.syntax', 'message': 'line 2, column 9: CLK is the implicit clock and may not be named'}, 2, 9),
    ('module m\ninput a\noutput y y\ngate g INV y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 10: net 'y' declared output twice"}, 3, 10),
    ('module m\ninput a\ngate g1 INV\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'gate' expects <id> <TYPE> <out> <in>..."}, 3, 1),
    ('module m\ninput a\ngate 1g INV y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 6: bad instance id '1g'"}, 3, 6),
    ('module m\ninput a\ngate g1 FROB y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 9: unknown gate type 'FROB'"}, 3, 9),
    ('module m\ninput a\ngate g1 INV y a a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'gate' expects 4 arguments, got 5"}, 3, 1),
    ('module m\ninput a\ngate g1 NAND2 y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'gate' expects 5 arguments, got 4"}, 3, 1),
    ('module m\ninput a\ngate g1 INV 9y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 13: bad net name '9y'"}, 3, 13),
    ('module m\ninput a\ngate g1 AND2 y a CLK\nendmodule\n',
     {'code': 'netlist.syntax', 'message': 'line 3, column 18: CLK is the implicit clock and may not be named'}, 3, 18),
    ('module m\ninput a\ndff f1 q\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'dff' expects 3 arguments, got 2"}, 3, 1),
    ('module m\ninput a\ndff 1f q a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 5: bad instance id '1f'"}, 3, 5),
    ('module m\ninput a\ndff f1 q- a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 8: bad net name 'q-'"}, 3, 8),
    ('module m\ninput a\ndff f1 q CLK\nendmodule\n',
     {'code': 'netlist.syntax', 'message': 'line 3, column 10: CLK is the implicit clock and may not be named'}, 3, 10),
    ('module m\ninput a\nscanff f1 MUX q a a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'scanff' expects 6 arguments, got 5"}, 3, 1),
    ('module m\ninput a\nscanff f-1 MUX q a a a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 8: bad instance id 'f-1'"}, 3, 8),
    ('module m\ninput a\nscanff f1 MUXY q a a a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 11: unknown scan flip-flop variant 'MUXY'"}, 3, 11),
    ('module m\ninput a\nscanff f1 gdi q a a 7\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 21: bad net name '7'"}, 3, 21),
    ('module m\ninput a\nlatch l1 q a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: unknown directive 'latch'"}, 3, 1),
    ('module m\ninput a\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 1: missing 'endmodule'"}, 2, 1),
    ('module m\n   input a\n# trailing comment\n\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 4: missing 'endmodule'"}, 2, 4),
    ('module m\nendmodule\nmodule n\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: text after 'endmodule'"}, 3, 1),
    ('module m\nendmodule\n  \tjunk\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 4: text after 'endmodule'"}, 3, 4),
    ('module m\n\tinput\ta\t9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 10: bad net name '9b'"}, 2, 10),
    ('module m\ninput a\x0b9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: unknown directive '9b'"}, 3, 1),
    ('module m\ninput a\x0c 9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 2: unknown directive '9b'"}, 3, 2),
    ('module m\ninput\u3000a\u30009b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 9: bad net name '9b'"}, 2, 9),
    ('module m\r\ninput 9b\r\nendmodule\r\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 7: bad net name '9b'"}, 2, 7),
    ('module m\rinput a 9b\rendmodule\r',
     {'code': 'netlist.syntax', 'message': "line 2, column 9: bad net name '9b'"}, 2, 9),
    ('module m\ninput a\xa09b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 9: bad net name '9b'"}, 2, 9),
    ('module m\ninput a\x1f9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 9: bad net name '9b'"}, 2, 9),
    ('module m\ninput a\u200b9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 7: bad net name 'a\\u200b9b'"}, 2, 7),
    ('# c1\n\n# c2\nmodule m # name\n# c3\ninput a 9b # bad\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 6, column 9: bad net name '9b'"}, 6, 9),
    ('module m\ninput é 9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 7: bad net name 'é'"}, 2, 7),
    ('module m\ninput a#9b\ngate\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 1: 'gate' expects <id> <TYPE> <out> <in>..."}, 3, 1),
    ('module m\ninput 9b a 9b\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 7: bad net name '9b'"}, 2, 7),
    ('module m\ninput x9 9\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 10: bad net name '9'"}, 2, 10),
    ('module m\ninput a\noutput y\ngate g y INV y a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 4, column 8: unknown gate type 'y'"}, 4, 8),
    ('module m\ninput a\noutput yy y y\ngate g1 INV y a\ngate g2 BUF yy a\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 13: net 'y' declared output twice"}, 3, 13),
    ('module m\ninput a\ndff q q q-\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 3, column 9: bad net name 'q-'"}, 3, 9),
    ('module m\ninput input 9input\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 13: bad net name '9input'"}, 2, 13),
    ('module gate\ngate gate gate gate gate\nendmodule\n',
     {'code': 'netlist.syntax', 'message': "line 2, column 11: unknown gate type 'gate'"}, 2, 11),
]


STRUCTURAL_PINS = [
    ('module m\ninput a\ngate g1 INV y a\ngate g2 BUF z a\nscanff s MUX z y y z\nendmodule\n',
     {'code': 'netlist.multiply_driven', 'message': "net 'z' has more than one driver (instance 's')"}),
    ('module m\ninput a\noutput y z\ngate g1 INV y a\ngate g1 BUF z a\nendmodule\n',
     {'code': 'netlist.duplicate_instance', 'message': "duplicate instance id 'g1'"}),
    ('module m\ninput a a\nendmodule\n',
     {'code': 'netlist.multiply_driven', 'message': "net 'a' declared input twice"}),
    ('module m\ninput a\noutput y\ngate g1 INV y a\ngate g2 BUF y a\nendmodule\n',
     {'code': 'netlist.multiply_driven', 'message': "net 'y' has more than one driver (instance 'g2')"}),
    ('module m\ninput a\ninput y\noutput y\ngate g1 INV y a\nendmodule\n',
     {'code': 'netlist.multiply_driven', 'message': "net 'y' has more than one driver (instance 'g1')"}),
    ('module m\noutput y\ngate g1 INV y a\nendmodule\n',
     {'code': 'netlist.undriven', 'message': "net 'a' read by instance 'g1' has no driver"}),
    ('module m\ninput a\noutput y\nendmodule\n',
     {'code': 'netlist.undriven', 'message': "output net 'y' has no driver"}),
    ('module m\ninput a\noutput y\ngate g1 NAND2 n1 a n2\ngate g2 NAND2 n2 a n1\ngate g3 BUF y n1\nendmodule\n',
     {'code': 'netlist.comb_cycle', 'message': 'combinational cycle through gates: g1, g2, g3'}),
    ('module m\ninput a\ngate g3 BUF y y\nendmodule\n',
     {'code': 'netlist.comb_cycle', 'message': 'combinational cycle through gates: g3'}),
]


PATTERN_PINS = [
    ('10 20\n', 3, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('101 => 110\n', 3, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('101 -> 110 -> 1\n', 3, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('1a1\n', 3, {'code': 'patterns.syntax', 'message': "line 1: illegal character in '1a1' (bits are 0/1)"}),
    ('101 -> 1x0\n', 3, {'code': 'patterns.syntax', 'message': "line 1: illegal character in '1x0' (bits are 0/1)"}),
    ('10\n', 3, {'code': 'patterns.width', 'message': "line 1: vector '10' has width 2, chain length is 3"}),
    ('101 -> 10\n', 3, {'code': 'patterns.width', 'message': "line 1: vector '10' has width 2, chain length is 3"}),
    ('# c\n\n101\n\t1011 # long\n', 3, {'code': 'patterns.width', 'message': "line 4: vector '1011' has width 4, chain length is 3"}),
    ('101\r\n1 0 1\r\n', 3, {'code': 'patterns.syntax', 'message': "line 2: expected '<bits>' or '<bits> -> <bits>'"}),
    ('101\x0b11\n', 3, {'code': 'patterns.width', 'message': "line 2: vector '11' has width 2, chain length is 3"}),
    ('1\u30001\n', 1, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('-> 101\n', 3, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('101 ->\n', 3, {'code': 'patterns.syntax', 'message': "line 1: expected '<bits>' or '<bits> -> <bits>'"}),
    ('１０１\n', 3, {'code': 'patterns.syntax', 'message': "line 1: illegal character in '１０１' (bits are 0/1)"}),
    ('101 -> ２\n', 3, {'code': 'patterns.syntax', 'message': "line 1: illegal character in '２' (bits are 0/1)"}),
]


@pytest.mark.parametrize("text,error,line,column", SYNTAX_PINS)
def test_netlist_syntax_error_pins(text, error, line, column):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(text)
    assert exc.value.to_dict() == error
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("text,error", STRUCTURAL_PINS)
def test_netlist_structural_error_pins(text, error):
    with pytest.raises(ScanforgeError) as exc:
        parse_netlist(text)
    assert exc.value.to_dict() == error


@pytest.mark.parametrize("text,chain_length,error", PATTERN_PINS)
def test_pattern_error_pins(text, chain_length, error):
    with pytest.raises(ScanforgeError) as exc:
        parse_patterns(text, chain_length)
    assert exc.value.to_dict() == error


# the characters str.splitlines and str.split give a meaning, '#', and
# ones that look like space but are not (NEL is a line break, ZWSP is not space)
_SPECIAL = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u200b\u3000\ufeff#"


@given(st.text(alphabet=st.one_of(st.sampled_from(_SPECIAL), st.sampled_from("ab9_"),
                                  st.characters()), max_size=60))
def test_tokenizer_matches_regex_oracle(text):
    got = [
        [(word, *netlist_module._at(row, i)) for i, word in enumerate(row[2])]
        for row in token_rows(text)
    ]
    assert got == regex_tokenize(text)
