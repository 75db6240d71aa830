"""cli: a scripted day of ``tskpabe`` commands, each in a fresh interpreter.

Inputs per round: a subscription window, an attribute universe and a key
policy drawn from the seed; a small content file and a small simulator
scenario.  The day runs ``cover``, ``setup``, ``keygen``, an entitled and a
denied ``encrypt``/``decrypt`` pair, ``audit``, ``seal``/``open``,
``dir-build``/``dir-verify`` and ``sim run``, then a ledger script of
``revoke``, ``check`` and ``prune``.

The ledger script does not depend on the seed.  Two of its commands fail on
every run because of faults in the program, and are counted as failed:

* a same-day ``revoke`` after ``prune`` is stamped with a ``tx_timestamp``
  already in the ledger file, because loading the file recomputes the
  sequence counter from the surviving entries only;
* ``check`` on a ledger whose revoked pid was edited by hand reports
  ``status=active`` with exit 0, where a broken chain should fail with
  exit 3 or 4.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

import oracle

UNIVERSE = ("gold", "silver", "family", "kids", "sports", "movies", "hd", "news")
EPOCH = oracle.ordinal(2022, 1, 1)
SECRET = "5eed0f0ca7c0ffee"
HERE = Path(__file__).resolve().parent

# The seed-independent ledger script: (argv, expected exit code, note).
LEDGER_SCRIPT = (
    (["revoke", "--ledger", "ledger.jsonl", "--pid", "pid:a1",
      "--expiry", "2022-07-04", "--now", "2022-07-05"], 0, None),
    (["revoke", "--ledger", "ledger.jsonl", "--pid", "pid:b2",
      "--expiry", "2022-09-02", "--now", "2022-07-05"], 0, None),
    (["revoke", "--ledger", "ledger.jsonl", "--pid", "pid:c3",
      "--expiry", "2022-09-30", "--now", "2022-07-05"], 0, None),
    (["check", "--ledger", "ledger.jsonl", "--pid", "pid:b2", "--now", "2022-07-05"], 2,
     "status=revoked"),
    (["check", "--ledger", "ledger.jsonl", "--pid", "pid:d4", "--now", "2022-07-05"], 0,
     "status=active"),
    (["prune", "--ledger", "ledger.jsonl", "--now", "2022-07-05"], 0, "removed=1 remaining=2"),
    (["check", "--ledger", "ledger.jsonl", "--pid", "pid:a1", "--now", "2022-07-05"], 0,
     "status=active"),
    (["revoke", "--ledger", "ledger.jsonl", "--pid", "pid:e5",
      "--expiry", "2022-12-31", "--now", "2022-07-05"], 0, "unique-stamps"),
    (["check", "--ledger", "edited.jsonl", "--pid", "pid:c3", "--now", "2022-07-06"], (3, 4),
     "edited"),
)


def _labels(rng: Random, tree, want: bool):
    for _ in range(200):
        labels = rng.sample(UNIVERSE, rng.randint(1, len(UNIVERSE)))
        if oracle.satisfies(tree, labels) == want:
            return sorted(labels)
    return sorted(UNIVERSE) if want else None


def _scenario(rng: Random) -> tuple[str, int]:
    lines = [f"seed {rng.randrange(1000)}", "node origin kind=third-party-server capacity=0"]
    lines += [f"node rsu{i} kind=rsu capacity=40000" for i in range(4)]
    lines += ["node car0 kind=vehicle capacity=0", "node car1 kind=vehicle capacity=0"]
    lines += ["link origin rsu0 latency=20"]
    lines += [f"link rsu{i} rsu{i + 1} latency={rng.randint(2, 9)}" for i in range(3)]
    lines += ["link car0 rsu3 latency=2", "link car1 rsu1 latency=3"]
    names = [f"/day/item{k}" for k in range(6)]
    lines += [
        f"content {n} origin=origin size={rng.randint(2000, 12000)} category=public-infotainment"
        for n in names
    ]
    requests = 12
    for t in range(1, requests + 1):
        lines.append(f"request t={t} requester=car{t % 2} name={rng.choice(names)}")
    lines.append("relink t=6 a=car1 b=rsu2 latency=2")
    return "\n".join(lines) + "\n", requests


def inputs(seed: int, rnd: int) -> dict:
    rng = Random(f"cli/{seed}/{rnd}")
    start = EPOCH + rng.randrange(300)
    end = start + rng.randint(20, 200) - 1
    tree = oracle.random_policy(rng, rng.sample(UNIVERSE, rng.randint(2, 6)), 0.5)
    nodes = oracle.greedy_cover(start, end)
    granted = _labels(rng, tree, True)
    refused = _labels(rng, tree, False)
    if refused is None or rng.random() < 0.5:
        # Entitled labels, but a day node past the end of the key's window.
        refused, refused_node = granted, oracle.day_text(end + rng.randint(1, 30))
    else:
        refused_node = rng.choice(nodes)
    scenario, requests = _scenario(rng)
    return {
        "window": f"{oracle.day_text(start)}..{oracle.day_text(end)}",
        "start": start,
        "end": end,
        "tree": tree,
        "granted": granted,
        "granted_node": rng.choice(nodes),
        "refused": refused,
        "refused_node": refused_node,
        "content": rng.randbytes(rng.randint(48_000, 96_000)),
        "scenario": scenario,
        "requests": requests,
        "seeds": [rng.randrange(1 << 30) for _ in range(4)],
    }


def day_commands(inp: dict) -> list:
    """(kind, argv, expected exit, note) for every command of the day."""
    s = inp["seeds"]
    granted, refused = ",".join(inp["granted"]), ",".join(inp["refused"])
    return [
        ("cover", ["cover", inp["window"]], 0, "cover"),
        ("setup", ["setup", "--attrs", ",".join(UNIVERSE), "--seed", str(s[0]),
                   "--out-pk", "pk.bin", "--out-mk", "mk.bin"], 0, None),
        ("keygen", ["keygen", "--pk", "pk.bin", "--mk", "mk.bin",
                    "--policy", oracle.policy_text(inp["tree"]), "--window", inp["window"],
                    "--user", "commuter", "--seed", str(s[1]), "--out", "sk.bin"], 0, "keygen"),
        ("encrypt", ["encrypt", "--pk", "pk.bin", "--attrs", granted,
                     "--nodes", inp["granted_node"], "--seed", str(s[2]), "--out", "ct.bin"],
         0, "message"),
        ("decrypt", ["decrypt", "--pk", "pk.bin", "--sk", "sk.bin", "--ct", "ct.bin"], 0,
         "decrypt"),
        ("audit", ["audit", "--pk", "pk.bin", "--sk", "sk.bin", "--ct", "ct.bin", "--json"],
         0, "audit"),
        ("encrypt", ["encrypt", "--pk", "pk.bin", "--attrs", refused,
                     "--nodes", inp["refused_node"], "--seed", str(s[3]),
                     "--out", "ct-denied.bin"], 0, None),
        ("decrypt", ["decrypt", "--pk", "pk.bin", "--sk", "sk.bin", "--ct", "ct-denied.bin"],
         2, None),
        ("seal", ["seal", "--pk", "pk.bin", "--attrs", granted, "--nodes", inp["granted_node"],
                  "--in", "content.bin", "--out", "content.pkg", "--chunk-size", "16384",
                  "--seed", str(s[2])], 0, None),
        ("open", ["open", "--pk", "pk.bin", "--sk", "sk.bin", "--in", "content.pkg",
                  "--out", "opened.bin"], 0, "opened"),
        ("dir-build", ["dir-build", "--issuer", "rsu7", "--secret", SECRET, "--out", "dir.bin",
                       "content.bin", "scenario.cfg"], 0, None),
        ("dir-verify", ["dir-verify", "--dir", "dir.bin", "--trusted", f"rsu7={SECRET}",
                        "--lookup", "content.bin"], 0, "dir-verify"),
        ("sim-run", ["sim", "run", "scenario.cfg", "--json"], 0, "sim"),
    ] + [(argv[0], argv, code, note) for argv, code, note in LEDGER_SCRIPT]


def _read(path: Path) -> bytes:
    """A file a command should have written; empty if it did not."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _chain_verifies(text: str) -> bool:
    prev = ""
    for index, line in enumerate(text.splitlines()):
        block = json.loads(line)
        body = {k: block[k] for k in ("index", "kind", "prev", "payload")}
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if block["index"] != index or block["prev"] != prev or block["digest"] != digest:
            return False
        prev = block["digest"]
    return True


def _stamps(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        block = json.loads(line)
        if block["kind"] == "entries":
            out += [e["tx_timestamp"] for e in block["payload"]["entries"]]
    return out


class CliDay:
    name = "cli"

    def __init__(self, seed: int, scale: float, workdir: Path, trace: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.child_traces: list = []
        self.walls: dict = {}

    def inputs(self, rnd: int) -> dict:
        return inputs(self.seed, rnd)

    def setup(self, modules) -> None:
        self.m = modules

    def prepare(self, inp: dict, rnd: int) -> dict:
        path = self.workdir / f"cli-round-{rnd}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        (path / "content.bin").write_bytes(inp["content"])
        (path / "scenario.cfg").write_text(inp["scenario"])
        return {"inp": inp, "dir": path, "rnd": rnd}

    def _argv(self, args: list[str], rnd: int, n: int) -> list[str]:
        if not self.trace:
            return [sys.executable, "-m", "tskpabe.cli", *args]
        out = self.workdir / f"span-{rnd}-{n}.json"
        self.child_traces.append((rnd, out))
        return [sys.executable, str(HERE / "clitrace.py"), str(out), *args]

    def run(self, prepared: dict, marker) -> dict:
        path, rnd = prepared["dir"], prepared["rnd"]
        results, samples = [], []
        for n, (kind, args, _, note) in enumerate(day_commands(prepared["inp"])):
            marker.op = n
            if note == "edited":
                text = _read(path / "ledger.jsonl").decode()
                (path / "edited.jsonl").write_text(text.replace('"pid:c3"', '"pid:c4"'))
            t = perf_counter()
            proc = subprocess.run(
                self._argv(args, rnd, n), cwd=path, env=self.env,
                capture_output=True, text=True, timeout=60,
            )
            samples.append(perf_counter() - t)
            self.walls.setdefault(kind, []).append(samples[-1])
            results.append((kind, proc.returncode, proc.stdout, samples[-1]))
            if note == "unique-stamps":
                results[-1] += (_stamps(_read(path / "ledger.jsonl").decode()),)
            elif note == "edited":
                results[-1] += (_chain_verifies(_read(path / "edited.jsonl").decode()),)
            elif note == "opened":
                results[-1] += (_read(path / "opened.bin"),)
        return {"ops": len(results), "samples": samples, "results": results, "dir": path}

    def check(self, inp: dict, rec: dict) -> tuple[int, list[str]]:
        """Returns the number of failed commands and the problems found in
        the commands that did not fail."""
        failed, problems = 0, []
        message = None
        for (kind, args, code, note), result in zip(day_commands(inp), rec["results"]):
            got, out = result[1], result[2]
            fields = dict(p.split("=", 1) for p in out.split() if "=" in p)
            if note == "unique-stamps":
                stamps = result[4]
                if got != code or len(set(stamps)) != len(stamps):
                    failed += 1
                continue
            if note == "edited":
                if result[4]:
                    problems.append("hand edit left the ledger chain intact")
                if got not in code:
                    failed += 1
                continue
            if got != code:
                failed += 1
                problems.append(f"{' '.join(args)}: exit {got}, expected {code}")
                continue
            if note == "cover" and out.split() != oracle.greedy_cover(inp["start"], inp["end"]):
                problems.append(f"cover printed {out.split()}")
            elif note == "keygen":
                rows = len(oracle.leaves(inp["tree"]))
                size = oracle.min_cover_size(inp["start"], inp["end"])
                if fields.get("sk_source") != str(2 * rows + size + 1):
                    problems.append(f"keygen printed sk_source={fields.get('sk_source')}")
            elif note == "message":
                message = fields.get("message")
            elif note == "decrypt":
                used = sum(1 for a in oracle.leaves(inp["tree"]) if a in inp["granted"])
                if fields.get("message") != message or fields.get("pairings") != str(2 * used + 3):
                    problems.append(f"decrypt printed {out!r}")
            elif note == "audit" and not json.loads(out)["all_closed"]:
                problems.append("repaired-mode audit left a residual")
            elif note == "opened" and result[4] != inp["content"]:
                problems.append("opened file differs from its input")
            elif note == "dir-verify":
                digest = hashlib.sha256(inp["content"]).hexdigest()
                if fields.get("ok") != "1" or fields.get("hash") != digest:
                    problems.append(f"dir-verify printed {out!r}")
            elif note == "sim":
                m = json.loads(out)
                if (m["requests"], m["served"], m["not_found"]) != (inp["requests"],) * 2 + (0,):
                    problems.append(f"sim run printed {out!r}")
            elif note and note.startswith(("status=", "removed=")) and note not in out:
                problems.append(f"{' '.join(args)} printed {out!r}, expected {note}")
        shutil.rmtree(rec["dir"], ignore_errors=True)
        return failed, problems
