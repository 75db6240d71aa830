"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py``, once per set-up sample with ``--setup-only`` and once
for the measured run.  Set-up time runs from just before the program's
package is imported to the first timed operation; the timed phase then
repeats whole rounds until ``--seconds`` of round time have passed, and
every round's outputs are checked after the round.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import cliday  # noqa: E402
import media  # noqa: E402
import roadside  # noqa: E402
import season  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

WORKLOADS = {
    "season": season.Season,
    "media": media.Media,
    "roadside": roadside.Roadside,
    "cli": cliday.CliDay,
}
MODULES = ("groups", "lsss", "timetree", "scheme", "envelope", "subscription", "ndnsim")


class Marker:
    """Operation id the tracer stamps on each span."""

    op = 0


def load_program(workload: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("tskpabe")
    names = MODULES + (("cli",) if workload == "cli" else ())
    return {name: importlib.import_module(f"tskpabe.{name}") for name in names}


def interpreter_ms() -> float:
    """Median wall time of a bare interpreter start, the floor under every
    ``cli`` command."""
    times = []
    for _ in range(5):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - t)
    return statistics.median(times) * 1e3


def cli_layers(workload, tracer_counts: dict) -> dict:
    """Merge the spans every traced ``cli`` child wrote."""
    merged: dict = {}
    imports = []
    counts = dict(tracer_counts)
    for rnd, path in workload.child_traces:
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        imports.append(data["import_s"])
        for name, (calls, seconds, nbytes) in data["self_times"].items():
            entry = merged.setdefault(name, [0, 0.0, 0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += nbytes
            if rnd == 0 and name == "lsss.reconstruct_coeffs":
                counts["lsss.reconstruct_calls"] = counts.get("lsss.reconstruct_calls", 0) + calls
    for kind, walls in workload.walls.items():
        counts[f"cli.{kind.replace('-', '_')}_ms"] = statistics.median(walls) * 1e3
    counts["cli.import_ms"] = statistics.median(imports) * 1e3
    counts["cli.interpreter_ms"] = interpreter_ms()
    return layer_metrics(merged, counts)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out = Path(args.out)
    workdir = out / f"work-{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    if cls is cliday.CliDay:
        wl = cls(args.seed, args.scale, workdir, trace=bool(args.trace))
    else:
        wl = cls(args.seed, args.scale, workdir)
    inp = wl.inputs(0)

    t0 = perf_counter()
    modules = load_program(args.workload)
    import_s = perf_counter() - t0
    tracer = None
    marker = Marker()
    if args.trace:
        tracer = Tracer()
        tracer.install()
        marker = tracer
    wl.setup(modules)
    prepared = wl.prepare(inp, 0)
    setup_s = perf_counter() - t0
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timed = 0.0
    attempted = failed = 0
    samples: list[float] = []
    problems: list[str] = []
    counts: dict = {}
    rnd = 0
    while True:
        t = perf_counter()
        rec = wl.run(prepared, marker)
        timed += perf_counter() - t
        attempted += rec["ops"]
        samples += rec["samples"]
        bad, found = wl.check(inp, rec)
        failed += bad
        problems += found
        if rnd == 0:
            counts = dict(rec.get("counts", {}))
            if tracer is not None:
                counts["lsss.reconstruct_calls"] = sum(
                    1 for s in tracer.spans if s and s[0] == "lsss.reconstruct_coeffs"
                )
        rnd += 1
        if timed >= args.seconds:
            break
        inp = wl.inputs(rnd)
        prepared = wl.prepare(inp, rnd)

    if args.workload == "cli":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rnd,
        "timed_s": timed,
        "setup_s": setup_s,
        "ops_per_s": attempted / timed,
        "p50_ms": statistics.median(samples) * 1e3,
        "peak_rss_mb": rss_kib / 1024,
        "problems": problems[:20],
    }
    if tracer is not None:
        counts["setup.import_ms"] = import_s * 1e3
        if args.workload == "cli":
            result["per_layer"] = cli_layers(wl, counts)
        else:
            result["per_layer"] = layer_metrics(tracer.self_times(), counts)
        tracer.write(out / f"trace-{args.workload}-{args.seed}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
