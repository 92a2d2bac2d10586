"""Tests of the benchmark itself (not of scanforge).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import designs  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from scanforge.cells import FFVariant  # noqa: E402
from scanforge.logic import X  # noqa: E402
from scanforge.netlist import Dff, Gate, parse_netlist  # noqa: E402
from scanforge.protocol import run_scan_test  # noqa: E402
from scanforge.scan import default_plan, insert_scan, verify_chain  # noqa: E402


def tiny(shape: designs.Shape) -> designs.Shape:
    """The same kind of design at a size a unit test can run."""
    return designs.Shape(shape.name, ffs=6, gates=30, inputs=4, outputs=2,
                         levels=min(shape.levels, 5), variant=shape.variant, vectors=2)


SHAPES = [w.shape for w in workloads.WORKLOADS.values()]


def test_same_seed_gives_byte_identical_design_text():
    shape = SHAPES[0]
    text = designs.design_text(shape, 7)
    assert designs.design_text(shape, 7) == text
    assert designs.design_text(shape, 8) != text
    assert designs.vectors(shape, 7) == designs.vectors(shape, 7)
    # Another interpreter with another string-hash seed draws the same text.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import designs, workloads; "
            "print(designs.design_text(workloads.WORKLOADS['shift-wide'].shape, 7), end='')")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == text


def _depth(n) -> int:
    level = {}
    for g in n.comb_order():
        level[g.out] = 1 + max((level.get(i, 0) for i in g.ins), default=0)
    return max(level.values())


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
def test_generated_shape_matches_its_spec(shape):
    n = parse_netlist(designs.design_text(shape, 3))
    assert sum(isinstance(i, Dff) for i in n.instances) == shape.ffs
    assert sum(isinstance(i, Gate) for i in n.instances) == shape.gates
    assert len(n.inputs) == shape.inputs and len(n.outputs) == shape.outputs
    assert _depth(n) == shape.levels
    scanned = insert_scan(n, default_plan(n, FFVariant(shape.variant)))
    plan = verify_chain(scanned)
    assert plan.variant is FFVariant(shape.variant) and len(plan.order) == shape.ffs
    # the scan-inserted design adds the SI, SE and SO nets
    assert len(scanned.nets()) == shape.nets
    assert all(len(v) == shape.ffs for v in designs.vectors(shape, 3))
    assert len(designs.vectors(shape, 3)) == shape.vectors


def test_goldens_cover_the_bank_for_every_workload():
    for name in workloads.WORKLOADS:
        doc = json.loads(workloads.golden_path(name).read_text())
        assert doc["bank"] == workloads.GOLDEN_BANK
        assert sorted(doc["instances"], key=int) == [str(i) for i in range(workloads.GOLDEN_BANK)]
        for entry in doc["instances"].values():
            assert entry["ops"] and entry["design"]


def test_golden_gate_catches_a_perturbed_response():
    shape = tiny(workloads.WORKLOADS["capture-deep"].shape)
    outcome = workloads.run_capture_deep(workloads.prepare(shape, 1))
    golden = outcome.ops
    assert workloads.mismatches(outcome.ops, outcome.errors, golden) == (len(golden), [])

    trace_ops = dict(golden)
    p = workloads.prepare(shape, 1)
    trace, responses = run_scan_test(p.netlist, p.patterns, pi_defaults={workloads.X_INPUT: X},
                                     plan=p.plan)
    flipped = list(responses)
    flipped[0] = ("1" if flipped[0][0] == "0" else "0") + flipped[0][1:]
    trace_ops["run_scan_test"] = workloads.trace_digests(trace, flipped)
    attempted, failures = workloads.mismatches(trace_ops, {}, golden)
    assert attempted == len(golden)
    assert failures == ["run_scan_test: differs from golden in responses"]


def test_cli_gate_fails_a_scan_test_with_mismatched_expected_responses(tmp_path):
    shape = tiny(workloads.WORKLOADS["cli-flow"].shape)
    expected = workloads.expected_responses(shape, 2)
    workloads.write_cli_inputs(tmp_path, shape, 2, expected)
    good = workloads.run_cli_inprocess(tmp_path, shape, 2)
    assert good.errors == {}

    wrong = [("1" if expected[0][0] == "0" else "0") + expected[0][1:], *expected[1:]]
    workloads.write_cli_inputs(tmp_path, shape, 2, wrong)
    bad = workloads.run_cli_inprocess(tmp_path, shape, 2)
    attempted, failures = workloads.mismatches(bad.ops, bad.errors, good.ops)
    assert failures == ["scan-test: RuntimeError: scan-test reports mismatched vectors"]


def _tiny_run(name: str) -> bench_run.Run:
    w = workloads.WORKLOADS[name]
    shape = tiny(w.shape)
    p = workloads.prepare(shape, 1)
    golden = {"design": workloads.design_digests(p)}
    if name == "cli-flow":
        golden["responses"] = workloads.expected_responses(shape, 1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return bench_run.Run(workloads.Workload(name, shape, w.why), 1, 1, golden, env)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "OUT_DIR", tmp_path)
    run = _tiny_run(name)
    # Goldens for the tiny design: one untraced pass of the same code.
    if name == "cli-flow":
        first = bench_run.cli_pass(run, tmp_path, in_process=True)()
    else:
        first = bench_run.in_process_pass(run)()
    assert first.errors == {}
    run.golden["ops"] = first.ops

    metrics = bench_run.traced_run(run, tmp_path, seconds=0.01)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert run.failures == []
    switch = metrics["switchsim.settle.calls"]["value"]
    assert (switch > 0) == (name == "cli-flow")
    assert metrics["protocol.cycle.calls"]["value"] > 0
    trace = json.loads((tmp_path / f"trace-{name}-seed1.json").read_text())
    assert any(s["name"] == "bench.pass" and s["parent"] == 0 for s in trace["spans"])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shift-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert res.returncode != 0
    assert res.stdout == ""
