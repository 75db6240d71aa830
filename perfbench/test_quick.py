"""Smoke test of the benchmark: the quick mode passes every check.

Run from the repository root with ``python3 -m pytest perfbench/test_quick.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_quick_mode_runs_every_workload_with_all_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in WORKLOADS for t in (0, 1)
    )
    for r in runs:
        assert r["ok"] and r["correct"], r
        names = PER_LAYER if r["trace"] else END_TO_END
        assert set(r["metrics"]) == set(names)
        if r["workload"] == "cli":
            # The two ledger commands that fail on every run, per round.
            assert r["failed"] == 2
