"""Smoke test of the benchmark itself: each workload once, at a small size.

    python3 aadbench/smoke.py        (from the root of a checkout)

Checks that an untraced and a traced run of every workload exit 0 and pass
their output checks, that every metric BENCHMARK.json names is printed with
its unit and a direction, and that the traced runs record a span in every
layer the benchmark traces. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# Device mode needs its LAN hosts past their own init before the flood starts,
# so that workload keeps a quarter of its stream time.
SCALES = {"botnet-soak": 0.05, "features-fit": 0.05, "device-spray": 0.25}
LAYERS_BY_WORKLOAD = {
    "botnet-soak": {"traffic", "metrics", "aadrnn", "training", "detector", "evaluation", "cli"},
    "features-fit": {"traffic", "metrics", "aadrnn", "training", "detector", "evaluation", "cli"},
    "device-spray": {"traffic", "metrics", "aadrnn", "training", "detector", "devices", "cli"},
}


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", str(SCALES[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_result(result: dict, declared: list, where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, \
        f"{where}: metrics differ: {sorted(set(got) ^ {m['name'] for m in declared})}"
    for m in declared:
        assert m["better"] in ("higher", "lower"), f"{where}: {m['name']} has no direction"
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(got[m["name"]]["value"], float), f"{where}: {m['name']} value"


def main() -> int:
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(SCALES)
    covered = set()
    for workload in SCALES:
        _, result = run(workload, 0)
        check_result(result, bench["end_to_end"], f"{workload} untraced")
        for m in bench["end_to_end"]:
            if not m["name"].startswith("fpr"):  # a small sample may see no false alarm
                assert result["metrics"][m["name"]]["value"] > 0, f"{workload}: {m['name']} is 0"
        info, result = run(workload, 1)
        check_result(result, bench["per_layer"], f"{workload} traced")
        assert not info["missing_wrap_points"], f"{workload}: {info['missing_wrap_points']}"
        layers = {name.split(".")[0] for name, calls in info["spans"].items() if calls}
        missing = LAYERS_BY_WORKLOAD[workload] - layers
        assert not missing, f"{workload}: no span in layers {sorted(missing)}"
        covered |= layers
        print(f"ok  {workload}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics; spans in {sorted(layers)}")
    assert covered >= set(spans.LAYERS), f"layers never traced: {set(spans.LAYERS) - covered}"
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
