import hashlib
import re
import tracemalloc
from random import Random

import pytest

from tskpabe.ndnsim import (
    FIVE_NODE_LINE,
    MAX_RUN_CHUNKS,
    CachedCopy,
    DataCategory,
    Level,
    Protection,
    QOSS_PROFILES,
    ScenarioError,
    Simulation,
    dispatch_protection,
    is_cacheable,
    metrics_from_events,
    parse_scenario,
    run_scenario,
)

CONTENT = "content /media/clip.bin origin=origin size=4000 category=subscription-infotainment\n"


def line5(extra: str) -> str:
    return FIVE_NODE_LINE + extra


def test_dispatch_table():
    assert dispatch_protection(DataCategory.PUBLIC_TRAFFIC) is Protection.DIRECTORY_HASH
    assert dispatch_protection(DataCategory.PUBLIC_INFOTAINMENT) is Protection.DIRECTORY_HASH
    assert dispatch_protection(DataCategory.SUBSCRIPTION_INFOTAINMENT) is Protection.ABE_ENVELOPE
    for private in (
        DataCategory.V2X_PRIVATE,
        DataCategory.TRAFFIC_CONTROL,
        DataCategory.PRIVATE_INFOTAINMENT,
    ):
        assert dispatch_protection(private) is Protection.AUTHENTICATED_CHANNEL
        assert not is_cacheable(private)


def test_qoss_profiles_reproduce_the_classification():
    p = QOSS_PROFILES
    assert p[DataCategory.V2X_PRIVATE] == type(p[DataCategory.V2X_PRIVATE])(
        Level.HIGHLY_CRITICAL, Level.HIGHLY_CRITICAL, Level.CRITICAL, Level.CRITICAL
    )
    tc = p[DataCategory.TRAFFIC_CONTROL]
    assert (tc.confidentiality, tc.integrity) == (Level.MODERATE, Level.HIGHLY_CRITICAL)
    assert (tc.long_term_availability, tc.short_term_availability) == (
        Level.HIGHLY_CRITICAL,
        Level.HIGHLY_CRITICAL,
    )
    pt = p[DataCategory.PUBLIC_TRAFFIC]
    assert (pt.confidentiality, pt.long_term_availability, pt.short_term_availability) == (
        Level.NOT_APPLICABLE,
        Level.CRITICAL,
        Level.MODERATE,
    )
    pi = p[DataCategory.PUBLIC_INFOTAINMENT]
    assert (pi.confidentiality, pi.short_term_availability) == (
        Level.NOT_APPLICABLE,
        Level.IMPORTANT,
    )
    si = p[DataCategory.SUBSCRIPTION_INFOTAINMENT]
    assert si.confidentiality is Level.CONDITIONAL
    pvt = p[DataCategory.PRIVATE_INFOTAINMENT]
    assert pvt.confidentiality is Level.HIGHLY_CRITICAL
    assert all(profile.integrity is Level.HIGHLY_CRITICAL for profile in p.values())
    assert len(p) == 6


def test_first_request_from_origin_then_cache():
    config = parse_scenario(
        line5(
            CONTENT
            + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
            + "request t=2 requester=vehicle1 name=/media/clip.bin\n"
        )
    )
    result = run_scenario(config)
    first, second = result.metrics.per_request
    assert first.outcome == "served"
    assert first.served_from == "origin"
    assert first.hops == 4
    assert not first.cache_hit
    assert second.hops == 1
    assert second.served_from == "rsu3"
    assert second.served_from_kind == "rsu"
    assert second.cache_hit
    assert result.metrics.hit_ratio == 0.5


def test_neighbor_vehicle_benefits_from_rsu_cache():
    # Line: origin - rsu1 - rsu2 - vehicle1 - vehicle2.  vehicle1 fetches
    # first; vehicle2's identical request is served by the roadside cache
    # instead of walking back to the origin.
    text = (
        "node origin kind=third-party-server capacity=0\n"
        "node rsu1 kind=rsu capacity=100000\n"
        "node rsu2 kind=rsu capacity=100000\n"
        "node vehicle1 kind=vehicle capacity=0\n"
        "node vehicle2 kind=vehicle capacity=0\n"
        "link origin rsu1 latency=10\n"
        "link rsu1 rsu2 latency=10\n"
        "link rsu2 vehicle1 latency=10\n"
        "link vehicle1 vehicle2 latency=10\n"
        + CONTENT
        + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
        + "request t=2 requester=vehicle2 name=/media/clip.bin\n"
    )
    result = run_scenario(parse_scenario(text))
    first, second = result.metrics.per_request
    assert first.served_from == "origin" and first.hops == 3
    assert second.served_from == "rsu2"
    assert second.served_from_kind == "rsu"
    assert second.hops == 2 < 4  # strictly closer than its path to the origin
    assert second.cache_hit


def test_zero_capacity_disables_caching():
    config_text = (
        FIVE_NODE_LINE.replace("capacity=1000000", "capacity=0")
        + CONTENT
        + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
        + "request t=2 requester=vehicle1 name=/media/clip.bin\n"
    )
    result = run_scenario(parse_scenario(config_text))
    first, second = result.metrics.per_request
    assert first.hops == second.hops == 4
    assert result.metrics.cache_hits == 0


def test_latency_sums_link_weights():
    config = parse_scenario(
        line5(CONTENT + "request t=1 requester=rsu3 name=/media/clip.bin\n")
    )
    result = run_scenario(config)
    (only,) = result.metrics.per_request
    assert only.hops == 3
    assert only.latency_ms == 30


@pytest.mark.parametrize("big", [2**31, 2**32 + 5, 2**62, 2**63, 2**64 + 7])
def test_latency_sums_past_32_and_64_bits(big):
    """Tree distances are stored in 64 bits, or as Python ints past that;
    each latency must still be the exact sum."""
    text = FIVE_NODE_LINE.replace("link rsu1 rsu2 latency=10", f"link rsu1 rsu2 latency={big}")
    text += "content /p origin=origin size=10 category=v2x-private\n"  # never cached
    text += "".join(
        f"request t={t} requester={node} name=/p\n"
        for t, node in enumerate(("vehicle1", "rsu2", "rsu1"), start=1)
    )
    rows = run_scenario(parse_scenario(text)).metrics.per_request
    assert [m.latency_ms for m in rows] == [big + 30, big + 10, 10]


def test_authenticated_channel_content_never_cached():
    config = parse_scenario(
        line5(
            "content /v2x/billing origin=origin size=100 category=v2x-private\n"
            + "request t=1 requester=vehicle1 name=/v2x/billing\n"
            + "request t=2 requester=vehicle1 name=/v2x/billing\n"
        )
    )
    result = run_scenario(config)
    first, second = result.metrics.per_request
    assert first.hops == second.hops == 4
    assert not any("ev=cache" in line for line in result.events)


def test_deterministic_event_logs():
    text = line5(
        CONTENT
        + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
        + "request t=2 requester=vehicle1 name=/media/clip.bin\n"
    )
    a = run_scenario(parse_scenario(text))
    b = run_scenario(parse_scenario(text))
    assert a.events == b.events
    assert a.metrics == b.metrics


def test_tampered_cache_rejected_and_refetched():
    config = parse_scenario(
        line5(
            CONTENT
            + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
            + "tamper t=2 node=rsu3 name=/media/clip.bin\n"
            + "request t=3 requester=vehicle1 name=/media/clip.bin\n"
        )
    )
    result = run_scenario(config)
    first, second = result.metrics.per_request
    assert second.outcome == "served"
    assert second.integrity_retries == 1
    assert second.served_from == "rsu2"  # next nearest clean copy
    assert result.metrics.integrity_events == 1
    assert any("ev=integrity" in line and "holder=rsu3" in line for line in result.events)
    assert any("ev=drop" in line and "node=rsu3" in line for line in result.events)


def test_unknown_name_not_found():
    config = parse_scenario(line5(CONTENT + "request t=1 requester=vehicle1 name=/nope\n"))
    result = run_scenario(config)
    (only,) = result.metrics.per_request
    assert only.outcome == "not-found"
    assert result.metrics.not_found == 1


def test_hop_budget_limits_reach():
    config = parse_scenario(
        "hop-budget 2\n"
        + line5(CONTENT + "request t=1 requester=vehicle1 name=/media/clip.bin\n")
    )
    result = run_scenario(config)
    (only,) = result.metrics.per_request
    assert only.outcome == "not-found"  # origin is 4 hops away, no caches yet


def test_cache_monotonic_hop_counts():
    requests = "".join(
        f"request t={t} requester=vehicle1 name=/media/clip.bin\n" for t in range(1, 8)
    )
    result = run_scenario(parse_scenario(line5(CONTENT + requests)))
    hops = [m.hops for m in result.metrics.per_request]
    assert all(a >= b for a, b in zip(hops, hops[1:]))


def test_conservation_every_interest_resolves():
    config = parse_scenario(
        line5(
            CONTENT
            + "content /maps/city origin=origin size=900 category=public-traffic\n"
            + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
            + "request t=2 requester=rsu1 name=/maps/city\n"
            + "request t=3 requester=vehicle1 name=/missing\n"
            + "request t=4 requester=vehicle1 name=/maps/city\n"
        )
    )
    result = run_scenario(config)
    interests = sum(1 for e in result.events if e.split()[0] == "ev=interest")
    served = sum(1 for e in result.events if e.split()[0] == "ev=served")
    not_found = sum(1 for e in result.events if e.split()[0] == "ev=notfound")
    assert interests == served + not_found == 4


def test_lru_eviction_under_pressure():
    text = (
        "node origin kind=third-party-server capacity=0\n"
        "node rsu1 kind=rsu capacity=1500\n"
        "node vehicle1 kind=vehicle capacity=0\n"
        "link origin rsu1 latency=10\n"
        "link rsu1 vehicle1 latency=10\n"
        "content /a origin=origin size=1000 category=public-infotainment\n"
        "content /b origin=origin size=1000 category=public-infotainment\n"
        "request t=1 requester=vehicle1 name=/a\n"
        "request t=2 requester=vehicle1 name=/b\n"
        "request t=3 requester=vehicle1 name=/a\n"
    )
    result = run_scenario(parse_scenario(text))
    rows = result.metrics.per_request
    assert rows[0].served_from == "origin"
    assert rows[1].served_from == "origin"
    assert rows[2].served_from == "origin"  # /a was evicted when /b arrived
    evicts = [e for e in result.events if e.startswith("ev=evict")]
    assert evicts and "name=/a" in evicts[0]


def test_default_content_preloaded_and_pinned():
    text = line5(
        "content /radio origin=origin size=500 category=public-infotainment default=1\n"
        + "request t=1 requester=vehicle1 name=/radio\n"
    )
    result = run_scenario(parse_scenario(text))
    (only,) = result.metrics.per_request
    assert only.served_from == "rsu3"
    assert only.hops == 1
    preloads = [e for e in result.events if e.startswith("ev=preload")]
    assert {f"node=rsu{i}" for i in (1, 2, 3)} <= {e.split()[2] for e in preloads}


def test_relink_changes_routing():
    text = line5(
        CONTENT
        + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
        + "relink t=2 a=vehicle1 b=origin latency=1\n"
        + "request t=3 requester=vehicle1 name=/media/clip.bin\n"
    )
    result = run_scenario(parse_scenario(text))
    first, second = result.metrics.per_request
    assert first.hops == 4
    assert second.hops == 1
    assert second.served_from == "origin"  # direct link now wins on latency


@pytest.mark.parametrize(("latency", "reason"), [("-20", ">= 0"), ("fast", "bad integer")])
def test_relink_latency_validated(latency, reason):
    text = line5(CONTENT + f"relink t=1 a=vehicle1 b=origin latency={latency}\n")
    with pytest.raises(ScenarioError, match=f"^relink t=1: .*{reason}"):
        run_scenario(parse_scenario(text))


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("content c origin=origin size=1 size=70000 category=public-traffic",
         "repeated key 'size'"),
        ("content c origin=origin size=1 category=public-traffic category=v2x-private",
         "repeated key 'category'"),
        ("request t=1 t=9 requester=vehicle1 name=clip", "repeated key 't'"),
        ("link origin vehicle1 latency=1 lattency=50", "unknown key 'lattency'"),
        ("node car kind=vehicle capacity=0 colour=red", "unknown key 'colour'"),
        ("request t=1 requester=vehicle1 name=clip prio=9", "unknown key 'prio'"),
        ("tamper t=1 node=rsu1 name=clip latency=3", "unknown key 'latency'"),
        ("unlink t=1 a=rsu1 b=rsu2 latency=3", "unknown key 'latency'"),
        ("relink t=1 a=rsu1 b=rsu2 latency=3 a=rsu3", "repeated key 'a'"),
    ],
)
def test_scenario_keys_are_declared_and_unique(line, message):
    text = line5(CONTENT) + line + "\n"
    number = text.count("\n")
    with pytest.raises(ScenarioError, match=f"^line {number}: {message}$"):
        parse_scenario(text)


@pytest.mark.parametrize("kind", ["unlink", "relink"])
@pytest.mark.parametrize(("a", "b"), [("ghost", "rsu1"), ("rsu1", "ghost")])
def test_edits_reject_unknown_nodes(kind, a, b):
    latency = " latency=5" if kind == "relink" else ""  # unlink takes no latency
    text = line5(CONTENT + f"{kind} t=1 a={a} b={b}{latency}\n")
    with pytest.raises(ScenarioError, match=f"^{kind} references unknown node 'ghost'$"):
        run_scenario(parse_scenario(text))


@pytest.mark.parametrize(
    ("line", "reason"),
    [("chunk-size 0", "chunk-size must be >= 1"), ("chunk-size -5", "chunk-size must be >= 1"),
     ("hop-budget -1", "hop-budget must be >= 0"),
     ("chunk-size x", "bad integer for chunk-size: 'x'"),
     ("hop-budget 1.5", "bad integer for hop-budget: '1.5'"),
     ("seed x", "bad integer for seed: 'x'"),
     ("hop-budget", "hop-budget takes exactly one integer"),
     ("seed 5 junk", "seed takes exactly one integer"),
     ("chunk-size 100 7", "chunk-size takes exactly one integer")],
)
def test_chunk_size_and_hop_budget_bounds(line, reason):
    with pytest.raises(ScenarioError, match=f"^line 3: {re.escape(reason)}$"):
        parse_scenario(f"seed 1\n\n{line}\n")
    config = parse_scenario("chunk-size 1\nhop-budget 0\n")
    assert (config.chunk_size, config.hop_budget) == (1, 0)


def test_build_memory_does_not_grow_with_content_size():
    """Contents carry no bytes: a 2**40-byte content builds in the memory of
    a 1 MB one."""
    peaks = []
    for size in (2**20, 2**40):
        config = parse_scenario(
            "chunk-size 1073741824\n"
            + line5(f"content /big origin=origin size={size} category=public-traffic\n")
        )
        tracemalloc.start()
        try:
            Simulation(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_scheduled_requests_are_bounded_in_chunks():
    """Requests for a 65,536-chunk content fill the run's chunk budget at
    16; a 17th is refused before anything runs.  A request for an unknown
    name logs no data and counts for nothing."""
    full = MAX_RUN_CHUNKS // 65536
    assert full == 16
    content = "chunk-size 1\n" + line5(
        "content /big origin=origin size=65536 category=public-traffic\n"
    )
    at_bound = content + "request t=1 requester=vehicle1 name=/big\n" * full
    Simulation(parse_scenario(at_bound + "request t=2 requester=vehicle1 name=/nothere\n"))
    over = at_bound + "request t=2 requester=vehicle1 name=/big\n"
    message = f"scheduled requests span {MAX_RUN_CHUNKS + 65536} chunks, more than {MAX_RUN_CHUNKS}"
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        Simulation(parse_scenario(over))


def test_replay_matches_run():
    text = line5(
        CONTENT
        + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
        + "tamper t=2 node=rsu3 name=/media/clip.bin\n"
        + "request t=3 requester=vehicle1 name=/media/clip.bin\n"
        + "request t=4 requester=vehicle1 name=/nothere\n"
    )
    result = run_scenario(parse_scenario(text))
    replayed = metrics_from_events(result.events)
    assert replayed == result.metrics
    assert replayed.summary_lines() == result.metrics.summary_lines()


def test_replay_names_the_malformed_line():
    served = (
        "ev=served t=1 seq=1 requester=v name=n hops=1 latency=5 from=o kind=rsu hit=0 retries=0"
    )
    assert metrics_from_events(["", served]).served == 1
    for bad, message in [
        (served.replace(" latency=5", ""), "event line 2: no field 'latency'"),
        (served.replace("hit=0", "hit=no"), "event line 2: invalid literal for int()"),
        ("ev=notfound seq=1 t=1 requester=v", "event line 2: no field 'name'"),
        ("ev=data t=1 stray", "event line 2: token 'stray' has no '='"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(message)):
            metrics_from_events([served, bad])


def test_disconnected_topology_rejected():
    text = (
        "node a kind=rsu capacity=0\n"
        "node b kind=rsu capacity=0\n"
        "node c kind=vehicle capacity=0\n"
        "link a b latency=1\n"
    )
    with pytest.raises(ScenarioError, match="connected"):
        Simulation(parse_scenario(text))


def test_config_errors():
    with pytest.raises(ScenarioError):
        parse_scenario("node x kind=blimp capacity=0\n")
    with pytest.raises(ScenarioError):
        parse_scenario("frobnicate now\n")
    with pytest.raises(ScenarioError):
        parse_scenario("content /a origin=o size=abc category=public-traffic\n")
    with pytest.raises(ScenarioError):
        Simulation(parse_scenario("link a b latency=1\n"))
    with pytest.raises(ScenarioError):
        Simulation(
            parse_scenario(
                "node v kind=vehicle capacity=0\n"
                "content /a origin=v size=10 category=public-traffic\n"
            )
        )


def test_tamper_requires_cached_copy():
    config = parse_scenario(line5(CONTENT + "tamper t=1 node=rsu1 name=/media/clip.bin\n"))
    sim = Simulation(config)
    with pytest.raises(ScenarioError, match="tamper"):
        sim.run()


def test_chunked_delivery_emits_per_chunk_packets():
    text = "chunk-size 1000\n" + line5(
        CONTENT + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
    )
    result = run_scenario(parse_scenario(text))
    data_events = [e for e in result.events if e.startswith("ev=data")]
    assert len(data_events) == 4  # 4000 bytes in 1000 byte chunks
    assert [f"chunk={i}" in e for i, e in enumerate(data_events)] == [True] * 4


def test_directory_verification_logged():
    result = run_scenario(parse_scenario(line5(CONTENT)))
    assert any(
        e.startswith("ev=dirverify") and "node=vehicle1" in e and "ok=1" in e
        for e in result.events
    )


KAT_CATEGORIES = (
    "subscription-infotainment",
    "public-traffic",
    "public-infotainment",
    "subscription-infotainment",
    "v2x-private",
    "traffic-control",
    "private-infotainment",
)


def kat_scenario(seed: int) -> str:
    """A 4x3 RSU grid with equal-latency links (so equal-cost ties), pinned
    default contents, tampered preloads, small caches, relink/unlink and
    every data category, plus a name nobody publishes."""
    rng = Random(seed)
    width, height = 4, 3
    grid = [[f"r{x}{y}" for x in range(width)] for y in range(height)]
    vehicles = [f"v{i}" for i in range(6)]
    lines = [
        "seed 7",
        "chunk-size 700",
        "hop-budget 6",
        "node origin kind=third-party-server capacity=0",
        "node auth kind=authority-server capacity=0",
    ]
    for row in grid:
        for rsu in row:
            lines.append(f"node {rsu} kind=rsu capacity={rng.choice((1200, 1500, 2500))}")
    for v in vehicles:
        lines.append(f"node {v} kind=vehicle capacity={rng.choice((0, 1200))}")
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                lines.append(f"link {grid[y][x]} {grid[y][x + 1]} latency=10")
            if y + 1 < height:
                lines.append(f"link {grid[y][x]} {grid[y + 1][x]} latency=10")
    lines += [
        f"link origin {grid[0][0]} latency=10",
        f"link auth {grid[-1][-1]} latency=10",
        f"link v0 {grid[1][1]} latency=1",
        f"link v1 {grid[2][2]} latency=1",
    ]
    for v in vehicles[2:]:
        lines.append(f"link {v} {rng.choice(rng.choice(grid))} latency={rng.choice((1, 2, 3))}")
    lines += [
        "content /radio origin=origin size=400 category=public-infotainment default=1",
        "content /news origin=auth size=300 category=public-traffic default=1",
    ]
    names = ["/radio", "/news", "/missing"]
    for i, category in enumerate(KAT_CATEGORIES):
        names.append(f"/c{i}")
        origin = rng.choice(("origin", "auth"))
        size = rng.randrange(500, 1500)
        lines.append(f"content /c{i} origin={origin} size={size} category={category}")
    # v0 and v1 hang off the tampered units, so their first requests meet
    # the corrupted preloads.
    lines += [
        f"tamper t=1 node={grid[1][1]} name=/radio",
        f"tamper t=2 node={grid[2][2]} name=/news",
        "request t=3 requester=v0 name=/radio",
        "request t=4 requester=v1 name=/news",
    ]
    requesters = vehicles + [grid[0][3], grid[2][0]]
    for t in range(5, 45):
        if t == 15:
            lines.append("relink t=15 a=v0 b=origin latency=5")
        elif t == 22:
            lines.append(f"relink t=22 a={grid[0][0]} b={grid[1][0]} latency=30")
        elif t == 30:
            lines.append(f"unlink t=30 a={grid[1][1]} b={grid[1][2]}")
        else:
            requester, name = rng.choice(requesters), rng.choice(names)
            lines.append(f"request t={t} requester={requester} name={name}")
    return "\n".join(lines) + "\n"


# SHA-256 of the newline-joined event log of kat_scenario(seed).
EVENT_LOG_SHA256 = {
    1: "fdd61f0d7bfbfedbf61e006f61d2086a3c95e5b8032f8d453e11cda55bfcfbed",
    2: "eae7b303088de837bcdbe4e055c08e3060f3f5549dd4b720feec1484377983a8",
    3: "936fb5359147c0561bfa5631a098ba3ae69e826a96d22605350bd2286ecb5934",
}


@pytest.mark.parametrize("seed", sorted(EVENT_LOG_SHA256))
def test_event_log_known_answer(seed):
    result = run_scenario(parse_scenario(kat_scenario(seed)))
    kinds = {line.split()[0] for line in result.events}
    for kind in ("preload", "evict", "integrity", "notfound", "relink", "unlink"):
        assert f"ev={kind}" in kinds
    digest = hashlib.sha256("\n".join(result.events).encode()).hexdigest()
    assert digest == EVENT_LOG_SHA256[seed]
    assert metrics_from_events(result.events) == result.metrics


def test_negative_content_size_rejected():
    text = line5("content /neg origin=origin size=-5 category=public-traffic\n")
    with pytest.raises(ScenarioError, match="^content '/neg' has negative size -5$"):
        Simulation(parse_scenario(text))


DOUBLE_TAMPER = line5(
    CONTENT
    + "content /radio origin=origin size=500 category=public-infotainment default=1\n"
    + "request t=1 requester=vehicle1 name=/media/clip.bin\n"
    # Two flips of byte 0 restore the copy: no integrity retry.
    + "tamper t=2 node=rsu3 name=/media/clip.bin\n"
    + "tamper t=3 node=rsu3 name=/media/clip.bin\n"
    + "request t=4 requester=vehicle1 name=/media/clip.bin\n"
    + "tamper t=5 node=rsu3 name=/media/clip.bin\n"
    + "tamper t=6 node=rsu2 name=/media/clip.bin\n"
    + "tamper t=7 node=rsu2 name=/media/clip.bin\n"
    + "request t=8 requester=vehicle1 name=/media/clip.bin\n"
    + "tamper t=9 node=rsu1 name=/media/clip.bin\n"
    + "tamper t=10 node=rsu1 name=/media/clip.bin\n"
    + "tamper t=11 node=rsu1 name=/media/clip.bin\n"
    + "request t=12 requester=rsu1 name=/media/clip.bin\n"
    # A pinned preload survives a double tamper too.
    + "tamper t=13 node=rsu3 name=/radio\n"
    + "tamper t=14 node=rsu3 name=/radio\n"
    + "request t=15 requester=vehicle1 name=/radio\n"
)

ZERO_SIZE_TAMPER = (
    "node origin kind=third-party-server capacity=0\n"
    "node rsu1 kind=rsu capacity=1000\n"
    "node rsu2 kind=rsu capacity=1000\n"
    "node vehicle1 kind=vehicle capacity=0\n"
    "link origin rsu1 latency=10\n"
    "link rsu1 rsu2 latency=10\n"
    "link rsu2 vehicle1 latency=10\n"
    "content /a origin=origin size=1000 category=public-infotainment\n"
    "content /y origin=origin size=0 category=public-traffic\n"
    "content /z origin=origin size=0 category=public-traffic\n"
    "request t=1 requester=vehicle1 name=/z\n"
    "request t=2 requester=vehicle1 name=/a\n"
    # An empty copy becomes one byte, so the store runs over capacity; a
    # second flip leaves it corrupted.
    "tamper t=3 node=rsu2 name=/z\n"
    "tamper t=4 node=rsu2 name=/z\n"
    "request t=5 requester=vehicle1 name=/z\n"
    "tamper t=6 node=rsu1 name=/z\n"
    "request t=7 requester=vehicle1 name=/y\n"
    "request t=8 requester=vehicle1 name=/z\n"
    "request t=9 requester=rsu1 name=/z\n"
)

# SHA-256 of the newline-joined event log, computed with the simulator that
# still hashed content bytes on every delivery.
TAMPER_LOG_SHA256 = {
    "double": "faf1c3fa6cd6877cac6843244fba8b38bd9b902df6c6743e474e9875e5e35d36",
    "zero-size": "dee45939db33a3e2fbb97f0bdf778767a56cda9aa97a4e6a0f8ad31aefb33c2b",
}


@pytest.mark.parametrize(
    ("case", "text", "served_from", "retries"),
    [
        ("double", DOUBLE_TAMPER, ["origin", "rsu3", "rsu2", "origin", "rsu3"], [0, 0, 1, 1, 0]),
        ("zero-size", ZERO_SIZE_TAMPER,
         ["origin", "origin", "rsu1", "origin", "rsu2", "origin"], [0, 0, 1, 0, 0, 1]),
    ],
)
def test_tamper_event_log_known_answer(case, text, served_from, retries):
    result = run_scenario(parse_scenario(text))
    rows = result.metrics.per_request
    assert [m.served_from for m in rows] == served_from
    assert [m.integrity_retries for m in rows] == retries
    digest = hashlib.sha256("\n".join(result.events).encode()).hexdigest()
    assert digest == TAMPER_LOG_SHA256[case]


def test_finished_simulation_hands_over_its_log():
    text = line5(CONTENT + "request t=1 requester=vehicle1 name=/media/clip.bin\n")
    sim = Simulation(parse_scenario(text))
    result = sim.run()
    assert result.metrics.requests == 1 and result.events
    assert sim.events == [] and sim._metrics_rows == []


def _random_topology(rng: Random) -> str:
    n = rng.randint(2, 12)
    ids = [f"n{i:02d}" for i in range(n)]
    rng.shuffle(ids)  # node order differs from id order
    kinds = ["third-party-server"] + ["rsu"] * (n - 1)
    lines = [f"node {i} kind={k} capacity=100000" for i, k in zip(ids, kinds)]
    links = [(ids[k], rng.choice(ids[:k])) for k in range(1, n)]
    links += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2 * n))]
    if rng.random() < 0.2:
        links.append((ids[0], ids[0]))
    lines += [f"link {a} {b} latency={rng.choice((0, 1, 1, 2, 2, 3))}" for a, b in links]
    lines.append(f"content /x origin={ids[0]} size=10 category=public-traffic")
    for t in range(1, rng.randint(1, 6)):
        a, b = rng.choice(links) if rng.random() < 0.5 else rng.sample(ids, 2)
        if rng.random() < 0.5:
            lines.append(f"unlink t={t} a={a} b={b}")
        else:
            lines.append(f"relink t={t} a={a} b={b} latency={rng.choice((0, 1, 2, 3))}")
    return "\n".join(lines) + "\n"


def _graph(nx, config):
    graph = nx.Graph()
    graph.add_nodes_from(n.node_id for n in config.nodes)
    for link in config.links:
        graph.add_edge(link.a, link.b, latency=link.latency_ms)
    return graph


def _apply_edit(sim, graph, op):
    """Apply a relink or unlink to the simulation, through its edit methods,
    and to the networkx graph."""
    a, b = op.params["a"], op.params["b"]
    if op.kind == "relink":
        sim._apply_relink(op)
        graph.add_edge(a, b, latency=int(op.params["latency"]))
    else:
        sim._apply_unlink(op)
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)


def _check_router(nx, sim, graph, names, rng) -> int:
    """Every node asks for each name with a random set of holders excluded;
    the router must give what a full networkx Dijkstra gives.  Returns the
    number of answers that found a holder."""
    found = 0
    ids = list(sim.nodes)
    for requester in ids:
        dist, paths = nx.single_source_dijkstra(graph, requester, weight="latency")
        for name in names:
            exclude = set(rng.sample(ids, rng.randint(0, len(ids) // 2)))
            origin = sim.contents[name].origin
            holders = [
                h for h in ids
                if h not in exclude and h in dist and (h == origin or name in sim.nodes[h].store)
            ]
            want = None
            if holders:
                holder = min(holders, key=lambda h: (dist[h], h))
                want = (holder, paths[holder], dist[holder])
            assert sim._nearest(requester, name, exclude) == want
            found += want is not None
    return found


def test_router_matches_networkx_dijkstra():
    """The router picks the holder, path and latency that a full networkx
    Dijkstra over the same edits picks: the nearest holder, ties to the
    smallest id, networkx's path among equal-cost ones."""
    nx = pytest.importorskip("networkx")
    rng = Random(8)
    checked = 0
    for _ in range(150):
        config = parse_scenario(_random_topology(rng))
        sim = Simulation(config)
        graph = _graph(nx, config)
        for op in config.schedule:
            _apply_edit(sim, graph, op)
        ids = [n.node_id for n in config.nodes]
        origin = config.contents[0].origin
        for node_id in rng.sample(ids, rng.randint(0, len(ids) - 1)):
            if node_id != origin:
                sim.nodes[node_id].store.put("/x", CachedCopy(10))
        checked += _check_router(nx, sim, graph, ["/x"], rng)
    assert checked > 500


def _vehicle_topology(rng: Random, chains: bool = False) -> str:
    """Roadside units and servers in a connected core, vehicles hanging off
    it (most with no store, some with two links or a link to another
    vehicle), sometimes empty default content that every unit and vehicle
    holds, then handovers and random edits.  With ``chains`` every edit is
    a handover: a vehicle drops all its links and relinks to a unit or to
    another vehicle, so chains of vehicles grow through edits that keep
    the cached trees."""
    rsus = [f"r{i}" for i in range(rng.randint(1, 6))]
    vehicles = [f"v{i}" for i in range(rng.randint(1, 6))]
    core = ["origin", "spare"] + rsus
    rng.shuffle(core)
    lines = [
        "node origin kind=third-party-server capacity=0",
        "node spare kind=authority-server capacity=0",  # no content: barren
    ]
    lines += [f"node {r} kind=rsu capacity={rng.choice((0, 100))}" for r in rsus]
    lines += [f"node {v} kind=vehicle capacity={rng.choice((0, 0, 0, 100))}" for v in vehicles]
    latency = (0, 1, 1, 2, 3, 2**64)
    links = [(core[k], rng.choice(core[:k])) for k in range(1, len(core))]
    links += [tuple(rng.sample(core, 2)) for _ in range(rng.randint(0, len(core)))]
    for v in vehicles:
        links.append((v, rng.choice(core + vehicles[:int(v[1:])])))
        if rng.random() < 0.3:
            links.append((v, rng.choice(core + vehicles)))
    lines += [f"link {a} {b} latency={rng.choice(latency)}" for a, b in links]
    lines.append("content /x origin=origin size=10 category=public-traffic")
    default = rng.choice((0, 1))
    lines.append(f"content /z origin=origin size=0 category=public-traffic default={default}")
    nodes = core + vehicles
    edges = {tuple(sorted(link)) for link in links}
    for t in range(1, rng.randint(2, 12)):
        v = rng.choice(vehicles)
        if chains:
            for edge in sorted(e for e in edges if v in e):
                lines.append(f"unlink t={t} a={edge[0]} b={edge[1]}")
                edges.discard(edge)
            w = rng.choice([n for n in nodes if n != v])
            lines.append(f"relink t={t} a={v} b={w} latency={rng.choice(latency)}")
            edges.add(tuple(sorted((v, w))))
            continue
        if rng.random() < 0.6:
            a, b = v, rng.choice(nodes)
        else:
            a, b = rng.choice(links) if rng.random() < 0.5 else rng.sample(nodes, 2)
        if rng.random() < 0.5:
            lines.append(f"unlink t={t} a={a} b={b}")
        else:
            lines.append(f"relink t={t} a={a} b={b} latency={rng.choice(latency)}")
    return "\n".join(lines) + "\n"


def test_router_matches_networkx_with_vehicles():
    """Barren nodes (no content's origin, no store, holding nothing) that
    hang off one link are left out of the cached shortest-path trees and
    route through their neighbour's tree.  After every edit the router
    must still answer as networkx does: for vehicle dead ends and their
    handovers, vehicles with two links, vehicles that hold empty default
    content, isolated vehicles and latencies past 64 bits."""
    nx = pytest.importorskip("networkx")
    rng = Random(15)
    checked = 0
    for _ in range(300):
        config = parse_scenario(_vehicle_topology(rng))
        sim = Simulation(config)
        for node_id, node in sim.nodes.items():
            if node.store.capacity > 0 and rng.random() < 0.4:
                node.store.put("/x", CachedCopy(10))
        graph = _graph(nx, config)
        checked += _check_router(nx, sim, graph, ["/x", "/z"], rng)
        for op in config.schedule:
            _apply_edit(sim, graph, op)
            checked += _check_router(nx, sim, graph, ["/x", "/z"], rng)
    assert checked > 5000


def test_router_matches_networkx_with_vehicle_chains():
    """Vehicles without a store hand over onto one another, so a dead end
    becomes a relay inside a chain through edits that keep the cached
    trees.  After every edit the per-node neighbour lists match ``adj`` and
    the router answers as networkx does."""
    nx = pytest.importorskip("networkx")
    rng = Random(16)
    checked = 0
    for _ in range(300):
        config = parse_scenario(_vehicle_topology(rng, chains=True))
        sim = Simulation(config)
        graph = _graph(nx, config)
        checked += _check_router(nx, sim, graph, ["/x", "/z"], rng)
        for op in config.schedule:
            _apply_edit(sim, graph, op)
            lists = sim._neighbours
            assert lists is None or lists == [sim._neighbours_of(v) for v in sim._ids]
            checked += _check_router(nx, sim, graph, ["/x", "/z"], rng)
    assert checked > 5000


def test_relay_chain_grown_by_handovers_routes_over_current_links():
    """Three vehicles without a store hand over until veh3 hangs off veh2,
    which hangs off veh1 on rsu1; every edit keeps the cached trees.  veh1
    left rsu2 at t=2, so veh3's route runs over rsu1, not the old link."""
    text = (
        "node origin kind=third-party-server capacity=0\n"
        "node rsu1 kind=rsu capacity=0\n"
        "node rsu2 kind=rsu capacity=0\n"
        "node veh1 kind=vehicle capacity=0\n"
        "node veh2 kind=vehicle capacity=0\n"
        "node veh3 kind=vehicle capacity=0\n"
        "link origin rsu1 latency=1\n"
        "link origin rsu2 latency=5\n"
        "link veh1 rsu2 latency=1\n"
        "link veh2 rsu1 latency=1\n"
        "link veh3 rsu1 latency=1\n"
        "content /c origin=origin size=10 category=v2x-private\n"
        "request t=1 requester=veh1 name=/c\n"
        "unlink t=2 a=veh1 b=rsu2\n"
        "relink t=3 a=veh1 b=rsu1 latency=1\n"
        "unlink t=4 a=veh2 b=rsu1\n"
        "relink t=5 a=veh2 b=veh1 latency=1\n"
        "unlink t=6 a=veh3 b=rsu1\n"
        "relink t=7 a=veh3 b=veh2 latency=1\n"
        "request t=8 requester=veh3 name=/c\n"
    )
    rows = run_scenario(parse_scenario(text)).metrics.per_request
    assert [(m.hops, m.latency_ms) for m in rows] == [(2, 6), (4, 4)]


def test_moving_transit_vehicle_routes_from_its_new_links():
    """A vehicle without a store that relays for another keeps no cached
    tree of its own: after it moves through edits that keep the cache, it
    routes from where it is now."""
    text = (
        "node origin kind=third-party-server capacity=0\n"
        "node r0 kind=rsu capacity=1000\n"
        "node r1 kind=rsu capacity=1000\n"
        "node v1 kind=vehicle capacity=0\n"
        "node v2 kind=vehicle capacity=0\n"
        "link origin r0 latency=1\n"
        "link r0 r1 latency=1\n"
        "link v2 r0 latency=1\n"
        "link v1 v2 latency=1\n"
        "content /c origin=origin size=10 category=v2x-private\n"
        "request t=1 requester=v2 name=/c\n"
        "unlink t=2 a=v1 b=v2\n"
        "unlink t=3 a=v2 b=r0\n"
        "relink t=4 a=v2 b=r1 latency=1\n"
        "relink t=5 a=v2 b=v1 latency=1\n"
        "request t=6 requester=v2 name=/c\n"
        "request t=7 requester=v1 name=/c\n"
    )
    rows = run_scenario(parse_scenario(text)).metrics.per_request
    assert [(m.hops, m.latency_ms) for m in rows] == [(2, 2), (3, 3), (4, 4)]


def city_scenario() -> str:
    """30 roadside units on a ring with cross links, two origins, 30 vehicles
    hanging off the units (24 with no store, one more linked to a second
    unit, one to another vehicle), small unit caches that evict, pinned
    default content, handovers, and tampered copies each requested again
    at once."""
    rng = Random(30)
    rsus = [f"rsu{i}" for i in range(30)]
    vehicles = [f"veh{i}" for i in range(30)]
    lines = [
        "seed 30",
        "chunk-size 1000",
        "node origin0 kind=third-party-server capacity=0",
        "node origin1 kind=authority-server capacity=0",
    ]
    lines += [f"node {r} kind=rsu capacity={rng.choice((3000, 4000, 6000))}" for r in rsus]
    lines += [
        f"node {v} kind=vehicle capacity={1500 if i < 6 else 0}" for i, v in enumerate(vehicles)
    ]
    for i, r in enumerate(rsus):
        lines.append(f"link {r} {rsus[(i + 1) % 30]} latency={rng.randint(1, 4)}")
        if i % 4 == 0:
            lines.append(f"link {r} {rsus[(i + 11) % 30]} latency={rng.randint(5, 12)}")
    lines += ["link origin0 rsu0 latency=9", "link origin0 rsu12 latency=7",
              "link origin1 rsu20 latency=8", "link origin1 rsu5 latency=10"]
    where = {}
    for v in vehicles:
        where[v] = rng.choice(rsus)
        lines.append(f"link {v} {where[v]} latency={rng.randint(1, 3)}")
    lines += ["link veh7 rsu3 latency=2", "link veh8 veh9 latency=1"]
    categories = ["public-traffic", "public-infotainment", "subscription-infotainment",
                  "v2x-private"]
    names = []
    for k in range(40):
        names.append(f"/item{k}")
        lines.append(
            f"content /item{k} origin=origin{k % 2} size={rng.randint(300, 1500)} "
            f"category={categories[k % 4] if k % 7 else 'traffic-control'}"
        )
    lines.append("content /radio origin=origin0 size=600 category=public-infotainment default=1")
    t = 0
    movers = vehicles[10:]  # veh7, veh8 and veh9 keep their links
    for q in range(400):
        t += 1
        v = rng.choice(vehicles)
        name = rng.choice(names[: rng.choice((5, 15, 40))])
        lines.append(f"request t={t} requester={v} name={name}")
        k = int(name[5:])
        if q % 20 == 10 and k % 4 != 3 and k % 7 and v in movers:
            lines.append(f"tamper t={t} node={where[v]} name={name}")
            lines.append(f"request t={t} requester={v} name={name}")
        if q % 3 == 0:
            m = rng.choice(movers)
            new = rsus[(rsus.index(where[m]) + rng.choice((-2, -1, 1, 2))) % 30]
            t += 1
            lines.append(f"unlink t={t} a={m} b={where[m]}")
            lines.append(f"relink t={t} a={m} b={new} latency={rng.randint(1, 3)}")
            where[m] = new
    lines.append(f"tamper t={t + 1} node=rsu4 name=/radio")
    lines.append(f"request t={t + 2} requester={rsus[4]} name=/radio")
    lines.append(f"relink t={t + 3} a=rsu1 b=rsu2 latency=20")
    lines += [f"request t={t + 4} requester={v} name=/item1" for v in vehicles[:10]]
    return "\n".join(lines) + "\n"


# SHA-256 of the newline-joined event log of city_scenario(), computed with
# the simulator that ran a fresh early-exit Dijkstra for every interest.
CITY_LOG_SHA256 = "0a1a5b4c3fd13b4c16b5634cb56f9ee42a6b1cef2469f7bf10c23a8920783d52"


def test_city_event_log_known_answer():
    result = run_scenario(parse_scenario(city_scenario()))
    kinds = {line.split()[0] for line in result.events}
    for kind in ("preload", "evict", "tamper", "integrity", "drop", "relink", "unlink"):
        assert f"ev={kind}" in kinds
    digest = hashlib.sha256("\n".join(result.events).encode()).hexdigest()
    assert digest == CITY_LOG_SHA256
    assert metrics_from_events(result.events) == result.metrics


def test_finished_simulation_holds_nothing():
    sim = Simulation(parse_scenario(city_scenario()))
    sim.submit_interest("veh12", "/item3")
    assert sim._trees and sim._neighbours and sim.nodes and sim.adj
    sim.run()
    assert sim.config is None and sim._neighbours is None
    assert not (sim.nodes or sim.adj or sim._trees or sim.contents or sim._holdings)


def test_second_run_fails_closed():
    request = "request t=1 requester=vehicle1 name=/media/clip.bin\n"
    sim = Simulation(parse_scenario(line5(CONTENT + request)))
    sim.run()
    with pytest.raises(ScenarioError, match="^simulation already ran$"):
        sim.run()
    # A run that stops at a bad op is finished too.
    sim = Simulation(parse_scenario(line5(CONTENT + "tamper t=1 node=rsu1 name=/media/clip.bin\n")))
    with pytest.raises(ScenarioError, match="tamper"):
        sim.run()
    with pytest.raises(ScenarioError, match="^simulation already ran$"):
        sim.run()
