"""Property tests of the two netlist round trips.

Designs are drawn through ``oracles.random_netlist`` from a Hypothesis
``Random``, so a failing design shrinks to a small one: plain or scanned,
with or without flip-flops. Text written by ``serialize_netlist`` parses
back to the same netlist, and a chain stitched by ``insert_scan`` is
recovered by ``verify_chain`` as the plan it was stitched from, for every
variant.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from scanforge.cells import FFVariant
from scanforge.netlist import parse_netlist, serialize_netlist
from scanforge.scan import default_plan, insert_scan, verify_chain

from oracles import random_netlist

RANDOMS = st.randoms(use_true_random=False)


@given(RANDOMS, st.booleans())
def test_serialized_text_parses_back_to_the_same_netlist(rng, scan):
    n = random_netlist(rng, max_gates=12, max_ffs=5, scan=scan)
    assert parse_netlist(serialize_netlist(n)) == n


@given(RANDOMS)
def test_verify_chain_recovers_the_inserted_plan(rng):
    n = random_netlist(rng, max_gates=12, max_ffs=5, min_ffs=1)
    for variant in FFVariant:
        plan = default_plan(n, variant)
        scanned = insert_scan(n, plan)
        assert verify_chain(scanned) == plan
        assert parse_netlist(serialize_netlist(scanned)) == scanned
