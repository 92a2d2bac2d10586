from __future__ import annotations

import pytest

from scanforge.logic import X, bit_char, bit_from_char, is_known, toggled

from oracles import naive_gate

BITS = (0, 1, X)

# The library evaluates gates only over two-rail ints (checked against the
# oracle in test_scan_engine.py); the oracle's scalar gates are checked here.


def test_inv_buf():
    assert naive_gate("INV", (0,)) == 1
    assert naive_gate("INV", (1,)) == 0
    assert naive_gate("INV", (X,)) is X
    for b in BITS:
        assert naive_gate("BUF", (b,)) == b


@pytest.mark.parametrize("a", BITS)
@pytest.mark.parametrize("b", BITS)
def test_two_input_gates_match_truth_tables(a, b):
    def ref(fn, a, b):
        if a is None or b is None:
            # controlling value may still decide the output
            outs = {fn(x, y) for x in ([a] if a is not None else [0, 1])
                    for y in ([b] if b is not None else [0, 1])}
            return outs.pop() if len(outs) == 1 else None
        return fn(a, b)

    assert naive_gate("AND2", (a, b)) == ref(lambda x, y: x & y, a, b)
    assert naive_gate("OR2", (a, b)) == ref(lambda x, y: x | y, a, b)
    assert naive_gate("NAND2", (a, b)) == ref(lambda x, y: 1 - (x & y), a, b)
    assert naive_gate("NOR2", (a, b)) == ref(lambda x, y: 1 - (x | y), a, b)
    assert naive_gate("XOR2", (a, b)) == ref(lambda x, y: x ^ y, a, b)


def test_controlling_values_beat_x():
    assert naive_gate("AND2", (0, X)) == 0
    assert naive_gate("AND2", (X, 0)) == 0
    assert naive_gate("OR2", (1, X)) == 1
    assert naive_gate("NAND2", (0, X)) == 1
    assert naive_gate("NOR2", (1, X)) == 0
    assert naive_gate("XOR2", (0, X)) is X
    assert naive_gate("XOR2", (1, X)) is X


def test_is_known():
    assert is_known(0) and is_known(1)
    assert not is_known(X)


def test_bit_chars_round_trip():
    for b, c in ((0, "0"), (1, "1"), (X, "x")):
        assert bit_char(b) == c
        assert bit_from_char(c) == b
    assert bit_from_char("X") is X
    with pytest.raises(ValueError):
        bit_from_char("z")


def test_toggled_requires_two_known_values():
    assert toggled(0, 1)
    assert toggled(1, 0)
    assert not toggled(0, 0)
    assert not toggled(X, 1)
    assert not toggled(1, X)
    assert not toggled(X, X)
