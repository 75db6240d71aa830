"""season: one provider runs a subscription season in-process.

Inputs per round: a few hundred subscribers, each buying a window of one day
to over a year under an AND/OR policy of 2-32 leaves; a catalogue of small
items sealed under label sets with day or month covers; each subscriber's
sample of opens, mixing allowed, policy-denied and time-denied ones;
cancellations, agent checks and month-end prunes.  Every operation is one
public call, and the round replays them in calendar order.
"""

from random import Random
from time import perf_counter

import oracle

UNIVERSE = tuple(f"attr{i:02d}" for i in range(40))
SEASON_START = oracle.ordinal(2022, 1, 1)

SUBSCRIBERS = 240
ITEMS = 160
OPENS_PER_SUBSCRIBER = 6
EXTRA_CHECKS_PER_SUBSCRIBER = 10
CANCEL_SHARE = 0.5
AND_SHARE = 0.35

# Same-day order: purchases and releases first, then agent checks, opens,
# cancellations, checks after them, and the month-end prune last.  A check
# after a same-day cancellation still gets the day's cached verdict.
_ORDER = {
    "subscribe": 0, "seal": 1, "check": 2, "open": 3, "revoke": 4, "recheck": 5, "prune": 6,
}


def _item_cover(rng: Random, release: int) -> list[str]:
    if rng.random() < 0.3:
        return [oracle.day_text(release + k) for k in range(rng.randint(1, 5))]
    year, month, _ = oracle.day_tuple(release)
    out = []
    for _ in range(rng.randint(1, 2)):
        out.append(f"{year:04d}-{month:02d}")
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return out


def inputs(seed: int, rnd: int, scale: float) -> dict:
    rng = Random(f"season/{seed}/{rnd}")
    n_subs = max(4, int(SUBSCRIBERS * scale))
    n_items = max(6, int(ITEMS * scale))
    subs = []
    for i in range(n_subs):
        purchase = SEASON_START + rng.randrange(365)
        start = purchase + rng.randrange(8)
        if rng.random() < 0.25:
            length = rng.randint(1, 30)
        else:
            length = rng.randint(31, 450)
        tree = oracle.random_policy(rng, rng.sample(UNIVERSE, rng.randint(2, 32)), AND_SHARE)
        subs.append(
            {
                "user": f"user-{seed}-{rnd}-{i}",
                "purchase": purchase,
                "start": start,
                "end": start + length - 1,
                "tree": tree,
                "policy": oracle.policy_text(tree),
            }
        )
    items = []
    for j in range(n_items):
        release = SEASON_START + rng.randrange(425)
        items.append(
            {
                "name": f"item-{j}",
                "release": release,
                "labels": tuple(sorted(rng.sample(UNIVERSE, rng.randint(10, 34)))),
                "cover": _item_cover(rng, release),
                "content": rng.randbytes(rng.randint(256, 2048)),
            }
        )
    events = [(s["purchase"], "subscribe", i) for i, s in enumerate(subs)]
    events += [(it["release"], "seal", j) for j, it in enumerate(items)]
    for i, s in enumerate(subs):
        key_nodes = set(oracle.greedy_cover(s["start"], s["end"]))
        allowed, no_policy, no_time = [], [], []
        for j, it in enumerate(items):
            if not oracle.satisfies(s["tree"], it["labels"]):
                no_policy.append(j)
            elif key_nodes.isdisjoint(it["cover"]):
                no_time.append(j)
            else:
                allowed.append(j)
        denied = no_policy if rng.random() < 0.5 and no_policy else no_time or no_policy
        picks = rng.sample(allowed, min(OPENS_PER_SUBSCRIBER - 1, len(allowed)))
        picks += rng.sample(denied, 1)
        rest = [j for j in range(n_items) if j not in picks]
        picks += rng.sample(rest, OPENS_PER_SUBSCRIBER - len(picks))
        for j in picks:
            day = max(s["purchase"], items[j]["release"]) + rng.randrange(20)
            events.append((day, "check", i))
            events.append((day, "open", i, j))
        for _ in range(EXTRA_CHECKS_PER_SUBSCRIBER):
            events.append((rng.randint(s["purchase"], s["end"] + 30), "check", i))
        if rng.random() < CANCEL_SHARE:
            day = rng.randint(s["purchase"], s["end"])
            events += [(day, "check", i), (day, "revoke", i), (day, "recheck", i)]
    first, last = min(e[0] for e in events), max(e[0] for e in events)
    year, month, _ = oracle.day_tuple(first)
    while oracle.month_end(year, month) <= last:
        events.append((oracle.month_end(year, month), "prune"))
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    events.sort(key=lambda e: (e[0], _ORDER[e[1]], e[2:]))
    return {"subs": subs, "items": items, "events": events}


class Season:
    name = "season"

    def __init__(self, seed: int, scale: float, workdir):
        self.seed = seed
        self.scale = scale

    def inputs(self, rnd: int) -> dict:
        return inputs(self.seed, rnd, self.scale)

    def setup(self, modules) -> None:
        self.m = modules
        groups, scheme = modules["groups"], modules["scheme"]
        self.scheme = scheme.TimedKpAbe(groups.TransparentSuite(groups.DEFAULT_MODULUS))
        self.pk, self.mk = self.scheme.setup(
            UNIVERSE, rng=Random(f"season-provider/{self.seed}")
        )

    def prepare(self, inp: dict, rnd: int) -> dict:
        return {"inp": inp, "rnd": rnd}

    def run(self, prepared: dict, marker) -> dict:
        inp, rnd = prepared["inp"], prepared["rnd"]
        subscription, envelope, timetree = (
            self.m["subscription"], self.m["envelope"], self.m["timetree"],
        )
        scheme, pk = self.scheme, self.pk
        counters = pk.suite.counters
        denied_error = envelope.AccessDeniedError
        service = subscription.SubscriptionService(
            scheme, pk, self.mk, (2022, 1, 1), rng=Random(f"season-keys/{self.seed}/{rnd}")
        )
        ledger = subscription.RevocationLedger()
        agent = subscription.InfotainmentAgent(ledger)
        seal_rng = Random(f"season-seal/{self.seed}/{rnd}")
        subs, items = inp["subs"], inp["items"]
        records, packages = {}, {}
        outputs = []
        open_times = []
        errors = []
        counts_before = counters.snapshot()
        for n, event in enumerate(inp["events"]):
            marker.op = n
            day, kind = event[0], event[1]
            today = oracle.day_tuple(day)
            try:
                if kind == "open":
                    i, j = event[2], event[3]
                    before = counters.pairings
                    t = perf_counter()
                    try:
                        out = envelope.open_package(scheme, pk, packages[j], records[i].key)
                    except denied_error:
                        out = None
                    open_times.append(perf_counter() - t)
                    outputs.append((out, counters.pairings - before))
                elif kind == "check" or kind == "recheck":
                    pid = records[event[2]].pseudo_identity.display
                    outputs.append(agent.daily_check(pid, today))
                elif kind == "subscribe":
                    s = subs[event[2]]
                    service.clock = today
                    window = timetree.TimeWindow(
                        oracle.day_tuple(s["start"]), oracle.day_tuple(s["end"])
                    )
                    records[event[2]] = service.subscribe(s["user"], window, s["policy"])
                    outputs.append(None)
                elif kind == "seal":
                    it = items[event[2]]
                    cover = timetree.TimeCover.from_nodes(
                        [timetree.TimeNode.parse(t) for t in it["cover"]]
                    )
                    packages[event[2]] = envelope.seal(
                        scheme, pk, it["name"], it["content"], cover, it["labels"],
                        rng=seal_rng,
                    )
                    outputs.append(None)
                elif kind == "revoke":
                    s = subs[event[2]]
                    pid = records[event[2]].pseudo_identity.display
                    entry = ledger.revoke(pid, oracle.day_tuple(s["end"]), today)
                    outputs.append(entry.pid)
                else:
                    outputs.append(ledger.prune(today))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                errors.append(f"event {n} {kind}: {type(exc).__name__}: {exc}")
                outputs.append(exc)
        spent = counters.since(counts_before)
        return {
            "ops": len(inp["events"]),
            "samples": open_times,
            "errors": errors,
            "outputs": outputs,
            "records": records,
            "packages": packages,
            "ledger": ledger,
            "counts": {
                "groups.pairings": spent.pairings,
                "groups.exponentiations": spent.source_exponentiations
                + spent.target_exponentiations,
            },
        }

    def check(self, inp: dict, rec: dict) -> tuple[int, list[str]]:
        problems = list(rec["errors"])
        if problems:
            return len(problems), problems
        component_counts = self.m["scheme"].component_counts
        subs, items = inp["subs"], inp["items"]
        key_nodes = {}
        for i, s in enumerate(subs):
            key = rec["records"][i].key
            texts = key.cover.texts()
            size = oracle.min_cover_size(s["start"], s["end"])
            if not oracle.tiles(texts, s["start"], s["end"]) or len(texts) != size:
                problems.append(f"{s['user']}: cover {texts} is not a minimal tiling")
            rows = len(oracle.leaves(s["tree"]))
            if component_counts(key)[0] != 2 * rows + size + 1:
                problems.append(f"{s['user']}: key has {component_counts(key)[0]} components")
            key_nodes[i] = set(oracle.greedy_cover(s["start"], s["end"]))
        for j, it in enumerate(items):
            got = component_counts(rec["packages"][j].wrapped_key)[0]
            if got != 2 * len(it["cover"]) + 1:
                problems.append(f"{it['name']}: ciphertext has {got} components")
        revoked: dict[str, int] = {}
        peak = 0
        verdicts: dict[str, tuple] = {}
        for event, out in zip(inp["events"], rec["outputs"]):
            day, kind = event[0], event[1]
            if kind == "open":
                s, it = subs[event[2]], items[event[3]]
                opened, pairings = out
                allowed = oracle.satisfies(s["tree"], it["labels"]) and not key_nodes[
                    event[2]
                ].isdisjoint(it["cover"])
                used = sum(1 for a in oracle.leaves(s["tree"]) if a in it["labels"])
                if allowed and (opened != it["content"] or pairings != 2 * used + 3):
                    problems.append(
                        f"{s['user']} opening {it['name']}: wrong bytes or {pairings} pairings"
                    )
                if not allowed and (opened is not None or pairings != 0):
                    problems.append(f"{s['user']} opened {it['name']} without entitlement")
            elif kind == "check" or kind == "recheck":
                pid = rec["records"][event[2]].pseudo_identity.display
                cached = verdicts.get(pid)
                if cached is None or cached[0] != day:
                    cached = (day, "revoked" if pid in revoked else "active")
                    verdicts[pid] = cached
                if out != cached[1]:
                    problems.append(f"check of {pid} on day {day}: {out} != {cached[1]}")
            elif kind == "revoke":
                pid = rec["records"][event[2]].pseudo_identity.display
                revoked.setdefault(pid, subs[event[2]]["end"])
                peak = max(peak, len(revoked))
                if out != pid:
                    problems.append(f"revoke of {pid} returned {out}")
            elif kind == "prune":
                expired = [pid for pid, end in revoked.items() if end < day]
                for pid in expired:
                    del revoked[pid]
                if out != len(expired):
                    problems.append(f"prune on day {day}: {out} != {len(expired)}")
        rec["counts"]["subscription.ledger_entries"] = peak
        ledger = rec["ledger"]
        if not ledger.verify():
            problems.append("ledger chain does not verify at season end")
        if sorted(e.pid for e in ledger.entries()) != sorted(revoked):
            problems.append("ledger entries differ from the revoked, unpruned set")
        return len(rec["errors"]), problems
