"""Validate the transistor-level flip-flop encodings against the cycle model.

First a warm-up on a hand-written inverter to show how the solver reports
node strength, then a look inside the bundled scan flip-flop networks, a
phase-by-phase shift that makes the APPROX cell's input contention visible,
and finally a randomized cross-check of every variant against the behavioral
flip-flop model.

Run with: python3 demos/switch_level_validation.py
"""

from __future__ import annotations

import random

from scanforge.cells import FFVariant
from scanforge.ffmodel import FFState, ff_cycle
from scanforge.logic import X, bit_char
from scanforge.switchsim import SwitchFF, bundled_network, load_network, run_cycles, settle

# Warm-up: a CMOS inverter. Strength ranks tell driven values (above 2.0)
# apart from stored charge (1.0) and the rails (3.0).
INVERTER = """\
node A
node Y
supply VDD
supply GND
io in A
io out Y
t tp P A VDD Y 2.0
t tn N A Y GND 1.0
"""

inv = load_network(INVERTER)
for a in (0, 1, X):
    settled = settle(inv, {"A": a})
    y = settled["Y"]
    print(f"inverter A={bit_char(a)} -> Y={bit_char(y.logic)} (rank {y.rank})")
print()

# The bundled flip-flop encodings.
for variant in FFVariant:
    net = bundled_network(variant)
    storage = ", ".join(sorted(net.storage))
    print(
        f"{variant.value:6} cell: {len(net.transistors):2d} transistors,"
        f" {len(net.nodes)} nodes, storage on {storage}"
    )
print()

# Shift a 1 into the APPROX cell while DI pulls the other way. With SE high
# the scan path is drawn at twice the width, so SI wins the fight at the
# master's input instead of tristating the loser path.
net = bundled_network(FFVariant.APPROX)
ff = SwitchFF(net)
ff.step_phase({"CLK": 1, "DI": 0, "SI": 1, "SE": 1})
after_fall = ff.step_phase({"CLK": 0, "DI": 0, "SI": 1, "SE": 1})
print(f"approx cell, DI=0 against SI=1 with SE=1: Q={bit_char(after_fall['Q'].logic)}")
state = ff_cycle(FFState(variant=FFVariant.APPROX), 0, 1, 1)
print(
    f"behavioral model agrees (Q={bit_char(state.q)}) and billed"
    f" {state.contention_count} contention cycle"
)
print()

# Randomized cross-check: any stimulus, both levels, Q must agree whenever
# the behavioral model says Q is a known value.
rng = random.Random(2026)
for variant in FFVariant:
    net = bundled_network(variant)
    checked = 0
    mismatches = 0
    for _ in range(500):
        stim = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(8)]
        waveform = run_cycles(net, stim)
        state = FFState(variant=variant)
        for q_switch, (di, si, se) in zip(waveform, stim):
            state = ff_cycle(state, di, si, se)
            if state.q is not X:
                checked += 1
                if q_switch != state.q:
                    mismatches += 1
    print(
        f"{variant.value:6}: {checked} known-Q cycles over 500 random runs,"
        f" {mismatches} mismatches"
    )
    assert mismatches == 0
