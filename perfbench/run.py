"""Benchmark of tskpabe: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` every per-layer
metric.  ``--quick`` runs every workload at a small size, traced and not,
with all checks, and exits non-zero if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("season", "media", "roadside", "cli")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "p50_ms": "ms", "peak_rss_mb": "MB"}
# Fresh processes measuring set-up alone, besides the measured run's own.
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 150
QUICK_SCALE = {"season": 0.1, "media": 1 / 16, "roadside": 0.1, "cli": 1.0}
# Commands of one cli round that fail on every run because of program faults.
CLI_KNOWN_FAILURES = 2


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, trace, scale=1.0, setup_only=False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, scale=1.0, samples=SETUP_SAMPLES):
    """(printed result, full record) of one benchmark run."""
    setups = []
    if not trace:
        setups = [
            worker(workload, seed, seconds, 0, scale, setup_only=True)["setup_s"]
            for _ in range(samples)
        ]
    record = worker(workload, seed, seconds, trace, scale)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    if trace:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        record["setup_s"] = statistics.median(setups)
        metrics = {
            name: {"value": record[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def quick() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = measure(workload, 1, 0, trace, QUICK_SCALE[workload], 0)
            expected = CLI_KNOWN_FAILURES * record["rounds"] if workload == "cli" else 0
            good = result["correct"] and result["failed"] == expected
            ok &= good
            print(json.dumps({"workload": workload, "trace": trace, "ok": good,
                              "problems": record["problems"], **result}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "tskpabe" / "__init__.py").is_file():
        print(f"no tskpabe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required without --quick")
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
