"""roadside: a generated city topology run through ``Simulation.run``.

Inputs: two origin servers and a few hundred roadside units on a ring with
cross links, as many vehicles, each hanging off one unit, and a catalogue of
small items across all six data categories (all fixed by the seed).  Each
round adds its own schedule: Zipf-skewed interests from the vehicles, a
handover (unlink, then relink to a nearby unit) every few interests of a
vehicle, and a few tampered cached copies, each requested again at once.
Unit caches hold only a handful of items, so they evict.
"""

import itertools
from random import Random
from time import perf_counter

import oracle

RSUS = 300
VEHICLES = 300
ITEMS = 400
INTERESTS = 1000
TAMPERS = 8
RSU_CAPACITY = 48_000
CATEGORIES = (
    ("public-traffic", 3),
    ("public-infotainment", 3),
    ("subscription-infotainment", 3),
    ("private-infotainment", 1),
    ("v2x-private", 1),
    ("traffic-control", 1),
)
PRIVATE = {"private-infotainment", "v2x-private", "traffic-control"}


def city(seed: int, scale: float) -> dict:
    """The part of the scenario the seed fixes for every round."""
    rng = Random(f"roadside-city/{seed}")
    n_rsu = max(6, int(RSUS * scale))
    n_veh = max(4, int(VEHICLES * scale))
    n_items = max(12, int(ITEMS * scale))
    rsus = [f"rsu{i}" for i in range(n_rsu)]
    links = {}
    for i in range(n_rsu):
        links[(rsus[i], rsus[(i + 1) % n_rsu])] = rng.randint(2, 9)
    for i in range(0, n_rsu, 3):
        j = rng.randrange(n_rsu)
        pair = (rsus[i], rsus[j])
        if i != j and pair not in links and pair[::-1] not in links:
            links[pair] = rng.randint(10, 40)
    origins = ["origin0", "origin1"]
    for origin in origins:
        for rsu in rng.sample(rsus, 4):
            links[(origin, rsu)] = rng.randint(15, 40)
    attach = {f"veh{k}": (rng.choice(rsus), rng.randint(1, 4)) for k in range(n_veh)}
    names, weights = zip(*CATEGORIES)
    items = {}
    for k in range(n_items):
        items[f"/city/item{k}"] = (
            rng.choice(origins), rng.randint(1000, 16000), rng.choices(names, weights)[0]
        )
    lines = ["seed %d" % seed]
    lines += [f"node {o} kind=third-party-server capacity=0" for o in origins]
    lines += [f"node {r} kind=rsu capacity={RSU_CAPACITY}" for r in rsus]
    lines += [f"node {v} kind=vehicle capacity=0" for v in attach]
    lines += [f"link {a} {b} latency={lat}" for (a, b), lat in links.items()]
    lines += [f"link {v} {r} latency={lat}" for v, (r, lat) in attach.items()]
    lines += [
        f"content {name} origin={o} size={size} category={cat}"
        for name, (o, size, cat) in items.items()
    ]
    core: dict = {n: {} for n in origins + rsus}
    for (a, b), lat in links.items():
        core[a][b] = lat
        core[b][a] = lat
    ranked = list(items)
    rng.shuffle(ranked)
    return {
        "text": "\n".join(lines) + "\n",
        "rsus": rsus,
        "attach": attach,
        "items": items,
        "core": core,
        "zipf": (ranked, list(itertools.accumulate(1 / r for r in range(1, len(ranked) + 1)))),
    }


def schedule(base: dict, seed: int, rnd: int, scale: float) -> str:
    rng = Random(f"roadside/{seed}/{rnd}")
    ranked, cum = base["zipf"]
    rsus = base["rsus"]
    where = dict(base["attach"])
    vehicles = list(where)
    due = {v: rng.randint(3, 5) for v in vehicles}
    n = max(40, int(INTERESTS * scale))
    tamper_at = set(rng.sample(range(n // 4, n), TAMPERS))
    lines = []
    t = 0
    for q in range(n):
        t += 1
        vehicle = rng.choice(vehicles)
        name = rng.choices(ranked, cum_weights=cum)[0]
        lines.append(f"request t={t} requester={vehicle} name={name}")
        if q in tamper_at and base["items"][name][2] not in PRIVATE:
            # The unit the vehicle hangs off keeps a copy of what it fetched;
            # the vehicle's next interest in it meets the tampered copy first.
            lines.append(f"tamper t={t} node={where[vehicle][0]} name={name}")
            lines.append(f"request t={t} requester={vehicle} name={name}")
        due[vehicle] -= 1
        if due[vehicle] == 0:
            due[vehicle] = rng.randint(3, 5)
            old = where[vehicle][0]
            new = rsus[(rsus.index(old) + rng.choice((-2, -1, 1, 2))) % len(rsus)]
            where[vehicle] = (new, rng.randint(1, 4))
            t += 1
            lines.append(f"unlink t={t} a={vehicle} b={old}")
            lines.append(f"relink t={t} a={vehicle} b={new} latency={where[vehicle][1]}")
    return "\n".join(lines) + "\n"


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


class Roadside:
    name = "roadside"

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.scale = scale
        self.base = city(seed, scale)
        self._dist: dict = {}

    def inputs(self, rnd: int) -> dict:
        return {"schedule": schedule(self.base, self.seed, rnd, self.scale)}

    def setup(self, modules) -> None:
        self.m = modules

    def prepare(self, inp: dict, rnd: int):
        ndnsim = self.m["ndnsim"]
        config = ndnsim.parse_scenario(self.base["text"] + inp["schedule"])
        return ndnsim.Simulation(config)

    def run(self, sim, marker) -> dict:
        samples = []
        submit = sim.submit_interest

        def timed_submit(*args, **kwargs):
            marker.op += 1
            t = perf_counter()
            metric = submit(*args, **kwargs)
            samples.append(perf_counter() - t)
            return metric

        sim.submit_interest = timed_submit
        errors = []
        try:
            result = sim.run()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            errors.append(f"run: {type(exc).__name__}: {exc}")
            result = None
        events = result.events if result else ()
        return {
            "ops": len(samples),
            "samples": samples,
            "errors": errors,
            "result": result,
            "counts": {
                "ndnsim.hit_ratio": result.metrics.hit_ratio if result else 0,
                "ndnsim.evictions": sum(1 for e in events if e.startswith("ev=evict ")),
                "ndnsim.integrity_retries": result.metrics.integrity_events if result else 0,
                "ndnsim.events": len(events),
            },
        }

    def _distances(self, source: str) -> dict:
        if source not in self._dist:
            self._dist[source] = oracle.dijkstra(self.base["core"], source)
        return self._dist[source]

    def check(self, inp: dict, rec: dict) -> tuple[int, list[str]]:
        problems = list(rec["errors"])
        result = rec["result"]
        if result is None:
            return len(problems), problems
        items = self.base["items"]
        requests = inp["schedule"].count("request ")
        if rec["ops"] != requests:
            problems.append(f"{rec['ops']} interests submitted for {requests} requests")
        where = dict(self.base["attach"])
        holders = {name: {origin} for name, (origin, _, _) in items.items()}
        tampered = set()
        pending, resolved = set(), set()
        # A delivery logs the copies it caches and evicts before its served
        # line; the holders it was routed among are the ones before them.
        deferred = []

        def apply(f):
            if f["ev"] in ("cache", "preload"):
                holders[f["name"]].add(f["node"])
            else:
                holders[f["name"]].discard(f["node"])
                tampered.discard((f["node"], f["name"]))

        for line in result.events:
            f = _fields(line)
            ev = f["ev"]
            if ev == "preload" or ev == "drop":
                apply(f)
            elif ev in ("cache", "evict"):
                deferred.append(f)
                if ev == "cache" and items[f["name"]][2] in PRIVATE:
                    problems.append(f"private item {f['name']} cached at {f['node']}")
            elif ev == "interest":
                if f["seq"] in pending or f["seq"] in resolved:
                    problems.append(f"interest {f['seq']} submitted twice")
                pending.add(f["seq"])
            elif ev == "tamper":
                tampered.add((f["node"], f["name"]))
            elif ev == "integrity":
                if (f["holder"], f["name"]) not in tampered:
                    problems.append(f"integrity retry on an intact copy: {line}")
            elif ev == "unlink":
                where.pop(f["a"], None)
            elif ev == "relink":
                where[f["a"]] = (f["b"], int(f["latency"]))
            elif ev == "dirverify" and f["ok"] != "1":
                problems.append(f"directory failed to verify: {line}")
            elif ev == "notfound":
                problems.append(f"interest {f['seq']} not served")
            elif ev == "served":
                seq = f["seq"]
                if seq not in pending:
                    problems.append(f"interest {seq} served without being pending")
                pending.discard(seq)
                resolved.add(seq)
                holder, latency = f["from"], int(f["latency"])
                if (holder, f["name"]) in tampered:
                    problems.append(f"tampered copy served: {line}")
                rsu, hop = where[f["requester"]]
                dist = self._distances(rsu)
                if hop + dist[holder] != latency:
                    problems.append(f"latency {latency} != distance {hop + dist[holder]}: {line}")
                best = min(hop + dist[h] for h in holders[f["name"]])
                if best < latency:
                    problems.append(f"a holder {best} ms away was passed over: {line}")
                for g in deferred:
                    apply(g)
                deferred.clear()
        if pending or len(resolved) != requests:
            problems.append(f"{len(pending)} interests unresolved")
        if self.m["ndnsim"].metrics_from_events(result.events) != result.metrics:
            problems.append("metrics recomputed from the event log differ")
        return len(rec["errors"]), problems

