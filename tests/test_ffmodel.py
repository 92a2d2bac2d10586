"""Behavioral flip-flop tests.

The input mux is checked against the one-line oracle in oracles.py, then
the per-cycle master/slave update and its counters are exercised
exhaustively and with seeded random stimulus.
"""

from __future__ import annotations

import itertools
import random

import pytest

from scanforge.cells import FFVariant
from scanforge.ffmodel import FFState, ff_cycle, ff_selected_input
from scanforge.logic import X

from oracles import naive_ff_next

BITS = (0, 1, X)
SCAN_VARIANTS = (FFVariant.MUX, FFVariant.GDI, FFVariant.APPROX)
ALL_VARIANTS = (None,) + SCAN_VARIANTS


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_selected_input_matches_oracle(variant):
    kind = "dff" if variant is None else "scan"
    for di, si, se in itertools.product(BITS, repeat=3):
        want = naive_ff_next(kind, di, si, se)
        assert ff_selected_input(variant, di, si, se) == want


@pytest.mark.parametrize(
    "variant, di, si, se, want",
    [
        (FFVariant.GDI, 1, 0, 0, 1),
        (FFVariant.GDI, 1, 0, 1, 0),
        (FFVariant.APPROX, X, X, 0, X),
        (FFVariant.APPROX, X, X, 1, X),
        (FFVariant.APPROX, X, X, X, X),
    ],
)
def test_selected_input_pinned_cases(variant, di, si, se, want):
    assert ff_selected_input(variant, di, si, se) == want


def test_unknown_se_still_known_when_inputs_agree():
    for variant in SCAN_VARIANTS:
        for b in (0, 1):
            assert ff_selected_input(variant, b, b, X) == b
        assert ff_selected_input(variant, 0, 1, X) is X
        assert ff_selected_input(variant, 1, 0, X) is X


def test_variants_agree_exhaustively_on_short_stimuli():
    # Scan variants differ in delay and power only; Q logic is identical.
    for stim in itertools.product(itertools.product((0, 1), repeat=3), repeat=4):
        seqs = []
        for variant in SCAN_VARIANTS:
            state = FFState(variant=variant)
            qs = []
            for di, si, se in stim:
                state = ff_cycle(state, di, si, se)
                qs.append(state.q)
            seqs.append(qs)
        assert seqs[0] == seqs[1] == seqs[2]


def test_variants_agree_on_random_eight_cycle_stimuli():
    rng = random.Random(8)
    for _ in range(2000):
        stim = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(8)]
        seqs = []
        for variant in SCAN_VARIANTS:
            state = FFState(variant=variant)
            qs = []
            for di, si, se in stim:
                state = ff_cycle(state, di, si, se)
                qs.append(state.q)
            seqs.append(qs)
        assert seqs[0] == seqs[1] == seqs[2]


def test_contention_count_matches_counting_oracle():
    rng = random.Random(33)
    for _ in range(200):
        stim = [tuple(rng.choice(BITS) for _ in range(3)) for _ in range(32)]
        want = sum(
            1
            for di, si, se in stim
            if se == 1 and di in (0, 1) and si in (0, 1) and di != si
        )
        state = FFState(variant=FFVariant.APPROX)
        for di, si, se in stim:
            state = ff_cycle(state, di, si, se)
        assert state.contention_count == want
        for quiet in (None, FFVariant.MUX, FFVariant.GDI):
            other = FFState(variant=quiet)
            for di, si, se in stim:
                other = ff_cycle(other, di, si, se)
            assert other.contention_count == 0


def test_contention_si_wins_and_is_counted():
    state = FFState(variant=FFVariant.APPROX, master=0, slave=0)
    state = ff_cycle(state, 0, 1, 1)
    assert state.q == 1
    assert state.contention_count == 1


def test_mux_functional_zero():
    state = FFState(variant=FFVariant.MUX)
    state = ff_cycle(state, 0, 1, 0)
    assert state.q == 0


def test_shift_with_held_di_counts_contention_per_one_bit():
    # Test-mode shifting of 1010 with DI stuck at 0: Q tracks SI one falling
    # edge later and every si=1 cycle fights the DI driver.
    state = FFState(variant=FFVariant.APPROX, master=0, slave=0)
    qs = []
    for si in (1, 0, 1, 0):
        state = ff_cycle(state, 0, si, 1)
        qs.append(state.q)
    assert qs == [1, 0, 1, 0]
    assert state.contention_count == 2


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("bit", [0, 1])
def test_no_new_toggles_when_inputs_match_state(variant, bit):
    state = FFState(variant=variant, master=bit, slave=bit)
    state = ff_cycle(state, bit, bit, 0)
    state = ff_cycle(state, bit, bit, 1)
    assert state.internal_toggle_count == 0
    assert state.q == bit


def test_internal_toggles_count_known_changes_only():
    state = FFState(variant=FFVariant.MUX)
    state = ff_cycle(state, 0, 0, 0)
    # X -> 0 on master and slave is initialization, not switching activity.
    assert state.internal_toggle_count == 0
    state = ff_cycle(state, 1, 0, 0)
    # master 0->1 at the rising edge, slave 0->1 at the falling edge
    assert state.internal_toggle_count == 2
    state = ff_cycle(state, X, 0, 0)
    assert state.internal_toggle_count == 2
    assert state.q is X


def test_dff_ignores_scan_pins():
    state = FFState()
    state = ff_cycle(state, 1, 0, 1)
    assert state.q == 1
    assert state.contention_count == 0


def test_counters_are_monotonic():
    rng = random.Random(7)
    state = FFState(variant=FFVariant.APPROX)
    for _ in range(256):
        di, si, se = (rng.choice(BITS) for _ in range(3))
        nxt = ff_cycle(state, di, si, se)
        assert nxt.contention_count >= state.contention_count
        assert nxt.internal_toggle_count >= state.internal_toggle_count
        state = nxt
