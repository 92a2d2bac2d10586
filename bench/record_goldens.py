"""Record the golden digests that every benchmark run is checked against.

    python3 bench/record_goldens.py <workload> [<workload> ...]

Writes `bench/goldens/<workload>.json` with, for each of the
`GOLDEN_BANK` design instances: the digests of the generated and
scan-inserted design, the digests of every operation of one pass, and for
`cli-flow` the scan responses that its `.pat` file expects; the simulated
statistics of that pass are stored beside them for reference. The goldens
describe the program as it was when they were recorded; re-record only when
an output is meant to change, and say why.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402


def record(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    shape = workload.shape
    instances = {}
    for instance in range(workloads.GOLDEN_BANK):
        prepared = workloads.prepare(shape, instance)
        entry = {"design": workloads.design_digests(prepared)}
        if name == "cli-flow":
            responses = workloads.expected_responses(shape, instance)
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                work = Path(tmp)
                workloads.write_cli_inputs(work, shape, instance, responses)
                outcome = workloads.run_cli_inprocess(work, shape, instance)
            entry["responses"] = responses
        elif name == "shift-wide":
            outcome = workloads.run_shift_wide(prepared)
        else:
            outcome = workloads.run_capture_deep(prepared)
        if outcome.errors:
            raise SystemExit(f"{name} instance {instance}: {outcome.errors}")
        entry["ops"] = outcome.ops
        entry["stats"] = outcome.stats
        instances[str(instance)] = entry
        print(f"{name} {instance}: {len(outcome.ops)} ops", file=sys.stderr)
    return {
        "workload": name,
        "bank": workloads.GOLDEN_BANK,
        "python": platform.python_version(),
        "instances": instances,
    }


if __name__ == "__main__":
    workloads.pin_hash_seed(__file__, sys.argv[1:])
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:]:
        doc = record(name)
        workloads.golden_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
