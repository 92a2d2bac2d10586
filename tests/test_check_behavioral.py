"""The switch-level behavioural check against a per-sequence replay.

``switchsim.check_behavioral`` (``scantool switchsim --check-behavioral``)
walks the product machine of a network and the ``ffmodel`` cycle model
instead of replaying sequences. The oracle here is that replay, written out
in full: every sequence runs through ``run_cycles`` and an ``ff_cycle`` loop
from a fresh ``FFState``. A random sequence set of n vectors is a prefix of
the 256-vector set drawn from the same seed, so the oracle replays 256 per
seed and sums prefixes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

import scanforge
from scanforge.cli import main
from scanforge.ffmodel import FFState, ff_cycle
from scanforge.kinds import FFVariant
from scanforge.logic import X
from scanforge.switchsim import StimulusError, bundled_network, check_behavioral, run_cycles

from conftest import run_cli

MODELS = [FFVariant.MUX, FFVariant.GDI, FFVariant.APPROX, None]
SEEDS = [1, 42, 99]
VECTORS = [0, 1, 16, 256]

# A three-inverter ring A -> B -> Q -> A; CLK high loads DI into A, so the
# first low phase starts it from known charge and it never settles.
RING = """
node A storage
node B storage
node Q storage
node CLK
node DI
supply VDD
supply GND
io in CLK
io in DI
io out Q
t pa P A VDD B 1
t na N A B GND 1
t pb P B VDD Q 1
t nb N B Q GND 1
t pq P Q VDD A 1
t nq N Q A GND 1
t load N CLK DI A 4
"""


def replay_mismatches(net, model, seq) -> int:
    got = run_cycles(net, seq)
    state = FFState(variant=model)
    bad = 0
    for (di, si, se), q in zip(seq, got):
        state = ff_cycle(state, di, si, se)
        if state.q is not X and q != state.q:
            bad += 1
    return bad


@lru_cache(maxsize=None)
def replay_exhaustive(cell: FFVariant, model) -> int:
    net = bundled_network(cell)
    pins = list(itertools.product((0, 1), repeat=3))
    return sum(
        replay_mismatches(net, model, list(seq))
        for seq in itertools.product(pins, repeat=4)
    )


@lru_cache(maxsize=None)
def replay_random(cell: FFVariant, model, seed: int) -> tuple[int, ...]:
    """Mismatches of each of 256 random length-8 sequences, in draw order."""
    net = bundled_network(cell)
    rng = random.Random(seed)
    counts = []
    for _ in range(256):
        seq = [(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)) for _ in range(8)]
        counts.append(replay_mismatches(net, model, seq))
    return tuple(counts)


@pytest.mark.parametrize("cell", list(FFVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("model", MODELS, ids=lambda v: v.value if v else "dff")
@pytest.mark.parametrize("seed", SEEDS)
def test_walk_counts_what_the_replay_counts(cell, model, seed):
    net = bundled_network(cell)
    for vectors in VECTORS:
        want = (
            4096 + vectors,
            replay_exhaustive(cell, model) + sum(replay_random(cell, model, seed)[:vectors]),
        )
        assert check_behavioral(net, model, random.Random(seed), vectors) == want


def test_plain_dff_model_mismatches_the_scan_cells():
    # The plain D flip-flop ignores SE, so it disagrees with every scan cell.
    net = bundled_network(FFVariant.MUX)
    assert check_behavioral(net, None, random.Random(42), 256) == (4352, 4595)


@pytest.mark.parametrize("vectors", [-1, -5])
def test_negative_vector_count_raises_before_any_phase_settles(vectors):
    net = bundled_network(FFVariant.MUX)
    with pytest.raises(StimulusError, match=f"vectors must be >= 0, got {vectors}"):
        check_behavioral(net, FFVariant.MUX, random.Random(1), vectors)
    assert net.compiled.cycles == {}


def test_swapped_scan_pins_report_is_unchanged(capsys, tmp_path):
    # The mux cell with DI and SI exchanged on every transistor; the digest
    # is of the report the per-sequence replay produced.
    text = (Path(scanforge.__file__).parent / "data" / "mux_sff.tnl").read_text("utf-8")
    swap = {"DI": "SI", "SI": "DI"}
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "t":
            line = " ".join(swap.get(tok, tok) for tok in toks)
        lines.append(line)
    path = tmp_path / "swapped.tnl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "switchsim", str(path), "--check-behavioral", "--variant", "mux",
        "--seed", "5",
    )
    assert code == 0, err
    assert json.loads(out)["report"]["switchsim"]["mismatches"] == 9224
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d93bb59990af12180af40bce589d59ca0f40c82ac37a37151cb73d6535ce5d85"
    )


def test_oscillating_network_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "ring.tnl"
    path.write_text(RING, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "switchsim", str(path), "--check-behavioral", "--variant", "mux"
    )
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "switchsim.oscillation"


def test_network_without_q_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "inv.tnl"
    path.write_text(
        "node DI\nnode OUT\nsupply VDD\nsupply GND\nio in DI\nio out OUT\n"
        "t p P DI VDD OUT 1\nt n N DI OUT GND 1\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "switchsim", str(path), "--check-behavioral", "--variant", "mux"
    )
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "switchsim.stimulus"


@pytest.mark.parametrize("value", ["-3", "-1", "two"])
def test_bad_vector_count_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["switchsim", "mux_sff.tnl", "--check-behavioral", "--vectors", value])
    assert exc.value.code == 2
    assert "--vectors" in capsys.readouterr().err


# SHA-256 over the `scantool switchsim` reports of each bundled cell: with and
# without --check-behavioral, seeds {1, 42} x --vectors {0, 256}, each in
# json, csv and text, in that nesting order.
REPORT_PINS = {
    "mux_sff.tnl": (
        "56f46f4690508e7ad1d61313ae7af4c9dd38c46b7bb9a971d166f6f605d18243"
    ),
    "gdi_sff.tnl": (
        "d005838a45f6fe01434900f7496abeca6f1b07131042165dba418b78333ce607"
    ),
    "approx_sff.tnl": (
        "cbc3ce5f30b7b37093bd237cec4916bd15beaf4257d8de4041e005d2e61f62b8"
    ),
}


@pytest.mark.parametrize("cell", list(REPORT_PINS))
def test_switchsim_reports_are_pinned(capsys, cell):
    digest = hashlib.sha256()
    for check, seed, vectors, fmt in itertools.product(
        ([], ["--check-behavioral"]), (1, 42), (0, 256), ("json", "csv", "text")
    ):
        code, out, err = run_cli(
            capsys, "switchsim", cell, *check, "--seed", str(seed),
            "--vectors", str(vectors), "--format", fmt,
        )
        assert code == 0, err
        digest.update(out.encode())
    assert digest.hexdigest() == REPORT_PINS[cell]
