"""Deterministic named-data content distribution simulator.

Four node kinds (management authority, third-party storage servers,
roadside units, vehicles) sit on a latency-weighted topology.  Requests
address content names, never hosts: an interest is answered by the nearest
node holding a copy, where nearest means smallest total link latency, and
every cache on the delivery path may keep the passing chunks subject to
its capacity and the content's protection category.

Six data categories carry their own protection profile.  Public data rides
on signed directories plus per-file hashes, subscription content adds the
attribute envelope on top, and private or control traffic is confined to
an authenticated channel and never cached.

Everything is driven by a scripted schedule (requests, cache tampering,
topology edits), so a run is a pure function of its config: identical
seeds produce byte-identical event logs, and the metrics can be recomputed
from the log alone.  A ``Simulation`` runs once: ``run()`` hands its event
log and metric rows to the result it returns and drops everything else
(topology, stores, contents, trees and neighbour lists), so a finished
Simulation holds nothing and a second ``run()`` raises ``ScenarioError``.

Only the standard library is used.  An interest is answered from the
requester's shortest-path tree: one full ``heapq`` Dijkstra per source,
cached until a topology edit could change it; equal-cost ties break as in
networkx's ``single_source_dijkstra`` (the test suite checks this against
networkx).  The Dijkstra runs on node indices, over one list of (neighbour
index, latency) pairs per node; the lists are derived from the adjacency
on the first tree, patched by an edit that keeps the trees and dropped
with them by any other edit.  A *barren* node (no content's origin,
capacity <= 0 and nothing preloaded) can never hold a copy.  One with at
most one link, such as a vehicle hanging off a roadside unit, is left out
of every tree and every neighbour list, asks through its neighbour's tree,
and may hand over (unlink, relink) without clearing the cache.  A content
carries no bytes: it is its ``ContentConfig``, its directory hash digests
the seed, origin, name and size, and a copy keeps only its size and
whether it still matches, so a delivery hashes nothing.  A content may span
at most ``MAX_CHUNKS`` chunks, which bounds the ``ev=data`` lines of one
delivery, and a run's scheduled requests at most ``MAX_RUN_CHUNKS`` chunks
in all, which bounds the ``ev=data`` lines (and so the memory) of a run.
"""

import hashlib
import re
from collections import OrderedDict
from enum import Enum
from heapq import heappop, heappush

from . import Record, _set
from .envelope import (
    DirectoryEntry,
    KeyedDigestSigner,
    build_directory,
    verify_directory,
)


class ScenarioError(ValueError):
    """Malformed scenario configuration."""


class DataCategory(str, Enum):
    V2X_PRIVATE = "v2x-private"
    TRAFFIC_CONTROL = "traffic-control"
    PUBLIC_TRAFFIC = "public-traffic"
    PUBLIC_INFOTAINMENT = "public-infotainment"
    SUBSCRIPTION_INFOTAINMENT = "subscription-infotainment"
    PRIVATE_INFOTAINMENT = "private-infotainment"


class Protection(str, Enum):
    DIRECTORY_HASH = "directory-hash"
    ABE_ENVELOPE = "abe-envelope"
    AUTHENTICATED_CHANNEL = "authenticated-channel"


class Level(str, Enum):
    NOT_APPLICABLE = "not-applicable"
    MODERATE = "moderate"
    IMPORTANT = "important"
    CRITICAL = "critical"
    HIGHLY_CRITICAL = "highly-critical"
    CONDITIONAL = "conditional"


class QoSSProfile(Record):
    confidentiality: Level
    integrity: Level
    long_term_availability: Level
    short_term_availability: Level


QOSS_PROFILES: dict[DataCategory, QoSSProfile] = {
    DataCategory.V2X_PRIVATE: QoSSProfile(
        Level.HIGHLY_CRITICAL, Level.HIGHLY_CRITICAL, Level.CRITICAL, Level.CRITICAL
    ),
    DataCategory.TRAFFIC_CONTROL: QoSSProfile(
        Level.MODERATE, Level.HIGHLY_CRITICAL, Level.HIGHLY_CRITICAL, Level.HIGHLY_CRITICAL
    ),
    DataCategory.PUBLIC_TRAFFIC: QoSSProfile(
        Level.NOT_APPLICABLE, Level.HIGHLY_CRITICAL, Level.CRITICAL, Level.MODERATE
    ),
    DataCategory.PUBLIC_INFOTAINMENT: QoSSProfile(
        Level.NOT_APPLICABLE, Level.HIGHLY_CRITICAL, Level.IMPORTANT, Level.IMPORTANT
    ),
    DataCategory.SUBSCRIPTION_INFOTAINMENT: QoSSProfile(
        Level.CONDITIONAL, Level.HIGHLY_CRITICAL, Level.IMPORTANT, Level.IMPORTANT
    ),
    DataCategory.PRIVATE_INFOTAINMENT: QoSSProfile(
        Level.HIGHLY_CRITICAL, Level.HIGHLY_CRITICAL, Level.IMPORTANT, Level.IMPORTANT
    ),
}


def dispatch_protection(category: DataCategory) -> Protection:
    """Protection mechanism per data category, read off the confidentiality
    column of its QoSS profile: none needed means a signed directory hash,
    conditional means the attribute envelope, anything else stays on an
    authenticated channel."""
    confidentiality = QOSS_PROFILES[category].confidentiality
    if confidentiality is Level.NOT_APPLICABLE:
        return Protection.DIRECTORY_HASH
    if confidentiality is Level.CONDITIONAL:
        return Protection.ABE_ENVELOPE
    return Protection.AUTHENTICATED_CHANNEL


def is_cacheable(category: DataCategory) -> bool:
    return dispatch_protection(category) is not Protection.AUTHENTICATED_CHANNEL


class NodeKind(str, Enum):
    AUTHORITY = "authority-server"
    THIRD_PARTY = "third-party-server"
    RSU = "rsu"
    VEHICLE = "vehicle"


SERVER_KINDS = (NodeKind.AUTHORITY, NodeKind.THIRD_PARTY)

DEFAULT_LATENCY_MS = 10
DEFAULT_CHUNK_SIZE = 65536
DEFAULT_HOP_BUDGET = 1_000_000
MAX_CHUNKS = 1 << 16  # per content, so one delivery logs at most this many ev=data
# Chunks summed over a run's scheduled requests, so a run logs at most this
# many ev=data lines (≈130 bytes each, held until run() returns).
MAX_RUN_CHUNKS = 1 << 20


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------


class NodeConfig(Record):
    node_id: str
    kind: NodeKind
    capacity: int


class LinkConfig(Record):
    a: str
    b: str
    latency_ms: int


class ContentConfig(Record):
    name: str
    origin: str
    size: int
    category: DataCategory
    default: bool = False


class ScheduledOp(Record):
    time: int
    seq: int
    kind: str  # request | tamper | relink | unlink
    params: dict


class ScenarioConfig(Record):
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    hop_budget: int = DEFAULT_HOP_BUDGET
    nodes: tuple[NodeConfig, ...] = ()
    links: tuple[LinkConfig, ...] = ()
    contents: tuple[ContentConfig, ...] = ()
    schedule: tuple[ScheduledOp, ...] = ()


_NAME_RE = re.compile(r"^[^\s=]+$")

# The keys each scenario directive takes.
_KEYS = {
    "node": ("kind", "capacity"),
    "link": ("latency",),
    "content": ("origin", "size", "category", "default"),
    "request": ("t", "requester", "name"),
    "tamper": ("t", "node", "name"),
    "relink": ("t", "a", "b", "latency"),
    "unlink": ("t", "a", "b"),
}


def _kv(tokens: list[str], line_no: int, keys=None, prefix: str = "line") -> dict[str, str]:
    """``key=value`` tokens as a dict; an error names ``prefix`` and line.
    A repeated key is an error, and so is one outside ``keys`` if given."""
    out = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ScenarioError(f"{prefix} {line_no}: token {token!r} has no '='")
        if not key:
            raise ScenarioError(f"{prefix} {line_no}: token {token!r} has no key")
        if key in out:
            raise ScenarioError(f"{prefix} {line_no}: repeated key {key!r}")
        if keys is not None and key not in keys:
            raise ScenarioError(f"{prefix} {line_no}: unknown key {key!r}")
        out[key] = value
    return out


def _int_field(kv: dict, key: str, line_no: int, default: int | None = None) -> int:
    if key not in kv:
        if default is None:
            raise ScenarioError(f"line {line_no}: missing {key}=")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ScenarioError(f"line {line_no}: bad integer for {key}: {kv[key]!r}") from None


def _scalar(directive: str, rest: list[str], line_no: int) -> int:
    """The one integer of a ``seed``, ``chunk-size`` or ``hop-budget`` line."""
    if len(rest) != 1:
        raise ScenarioError(f"line {line_no}: {directive} takes exactly one integer")
    try:
        return int(rest[0])
    except ValueError:
        raise ScenarioError(f"line {line_no}: bad integer for {directive}: {rest[0]!r}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the line-oriented scenario format.

    Directives: ``seed N``, ``chunk-size N``, ``hop-budget N``,
    ``node ID kind=K capacity=N``, ``link A B latency=N``,
    ``content NAME origin=ID size=N category=C [default=0|1]``,
    ``request t=N requester=ID name=NAME``,
    ``tamper t=N node=ID name=NAME``,
    ``relink t=N a=ID b=ID latency=N`` and ``unlink t=N a=ID b=ID``.
    ``#`` starts a comment.  ``seed``, ``chunk-size`` and ``hop-budget``
    take exactly one integer each: ``chunk-size`` at least 1,
    ``hop-budget`` at least 0, and ``seed`` from 0 to 2**64 - 1, since the
    directory secrets and hashes encode it in 8 bytes.  A ``key=value``
    directive takes only the keys listed, each at most once.
    """
    seed, chunk_size, hop_budget = 0, DEFAULT_CHUNK_SIZE, DEFAULT_HOP_BUDGET
    nodes, links, contents, schedule = [], [], [], []
    seq = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, rest = parts[0], parts[1:]
        if directive == "seed":
            seed = _scalar(directive, rest, line_no)
            if not 0 <= seed < 2**64:
                raise ScenarioError(f"line {line_no}: seed must be from 0 to 2**64 - 1")
        elif directive == "chunk-size":
            chunk_size = _scalar(directive, rest, line_no)
            if chunk_size < 1:
                raise ScenarioError(f"line {line_no}: chunk-size must be >= 1")
        elif directive == "hop-budget":
            hop_budget = _scalar(directive, rest, line_no)
            if hop_budget < 0:
                raise ScenarioError(f"line {line_no}: hop-budget must be >= 0")
        elif directive == "node":
            if not rest:
                raise ScenarioError(f"line {line_no}: node needs an id")
            node_id = rest[0]
            if not _NAME_RE.match(node_id):
                raise ScenarioError(f"line {line_no}: bad node id {node_id!r}")
            kv = _kv(rest[1:], line_no, _KEYS[directive])
            try:
                kind = NodeKind(kv.get("kind", ""))
            except ValueError:
                raise ScenarioError(
                    f"line {line_no}: bad node kind {kv.get('kind')!r}"
                ) from None
            nodes.append(NodeConfig(node_id, kind, _int_field(kv, "capacity", line_no, 0)))
        elif directive == "link":
            if len(rest) < 2:
                raise ScenarioError(f"line {line_no}: link needs two node ids")
            kv = _kv(rest[2:], line_no, _KEYS[directive])
            links.append(
                LinkConfig(rest[0], rest[1], _int_field(kv, "latency", line_no, DEFAULT_LATENCY_MS))
            )
        elif directive == "content":
            if not rest:
                raise ScenarioError(f"line {line_no}: content needs a name")
            name = rest[0]
            if not _NAME_RE.match(name):
                raise ScenarioError(f"line {line_no}: bad content name {name!r}")
            kv = _kv(rest[1:], line_no, _KEYS[directive])
            try:
                category = DataCategory(kv.get("category", ""))
            except ValueError:
                raise ScenarioError(
                    f"line {line_no}: bad category {kv.get('category')!r}"
                ) from None
            contents.append(
                ContentConfig(
                    name=name,
                    origin=kv.get("origin", ""),
                    size=_int_field(kv, "size", line_no),
                    category=category,
                    default=bool(_int_field(kv, "default", line_no, 0)),
                )
            )
        elif directive in ("request", "tamper", "relink", "unlink"):
            kv = _kv(rest, line_no, _KEYS[directive])
            t = _int_field(kv, "t", line_no)
            seq += 1
            schedule.append(ScheduledOp(t, seq, directive, kv))
        else:
            raise ScenarioError(f"line {line_no}: unknown directive {directive!r}")
    return ScenarioConfig(
        seed=seed,
        chunk_size=chunk_size,
        hop_budget=hop_budget,
        nodes=tuple(nodes),
        links=tuple(links),
        contents=tuple(contents),
        schedule=tuple(schedule),
    )


# Fixed reference topology: a five node line with one origin, three
# roadside caches and one vehicle.
FIVE_NODE_LINE = """
node origin kind=third-party-server capacity=0
node rsu1 kind=rsu capacity=1000000
node rsu2 kind=rsu capacity=1000000
node rsu3 kind=rsu capacity=1000000
node vehicle1 kind=vehicle capacity=0
link origin rsu1 latency=10
link rsu1 rsu2 latency=10
link rsu2 rsu3 latency=10
link rsu3 vehicle1 latency=10
"""


# ----------------------------------------------------------------------
# Runtime state.
# ----------------------------------------------------------------------


class CachedCopy(Record):
    """One cache's copy of a content.  ``intact``: unaltered, so it matches
    the content's directory hash; ``pinned``: never evicted."""

    __slots__ = ("size", "intact", "pinned")

    def __init__(self, size: int, intact: bool = True, pinned: bool = False):
        _set(self, "size", size)
        _set(self, "intact", intact)
        _set(self, "pinned", pinned)


class ContentStore:
    """Byte-capacity-bounded LRU store; pinned items are never evicted."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: "OrderedDict[str, CachedCopy]" = OrderedDict()
        self._used = 0  # bytes held, kept in step by put, drop and replace

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def get(self, name: str) -> CachedCopy | None:
        item = self._items.get(name)
        if item is not None:
            self._items.move_to_end(name)
        return item

    def put(self, name: str, copy: CachedCopy) -> list[str]:
        """Insert and return the names evicted to make room.  Items larger
        than the whole store are not cached."""
        if copy.size > self.capacity:
            return []
        self.drop(name)
        self._items[name] = copy
        self._used += copy.size
        evicted = []
        while self._used > self.capacity:
            victim = next(
                (n for n, item in self._items.items() if not item.pinned), None
            )
            if victim is None or victim == name:
                self.drop(name)
                return evicted
            self.drop(victim)
            evicted.append(victim)
        return evicted

    def drop(self, name: str) -> None:
        copy = self._items.pop(name, None)
        if copy is not None:
            self._used -= copy.size

    def replace(self, name: str, copy: CachedCopy) -> None:
        old = self._items.get(name)
        if old is not None:
            self._items[name] = copy
            self._used += copy.size - old.size


class SimNode(Record, frozen=False):
    node_id: str
    kind: NodeKind
    store: ContentStore


class RequestMetric(Record):
    """One interest's outcome; ``outcome`` is ``served`` or ``not-found``."""

    __slots__ = (
        "seq", "time", "requester", "name", "outcome", "hops", "latency_ms",
        "served_from", "served_from_kind", "cache_hit", "integrity_retries",
    )

    @classmethod
    def not_found(cls, seq: int, time: int, requester: str, name: str) -> "RequestMetric":
        return cls(seq, time, requester, name, "not-found", 0, 0, "-", "-", False, 0)


class Metrics(Record):
    requests: int
    served: int
    not_found: int
    cache_hits: int
    integrity_events: int
    per_request: tuple[RequestMetric, ...]

    @classmethod
    def from_rows(cls, rows, integrity_events: int) -> "Metrics":
        rows = tuple(rows)
        return cls(
            requests=len(rows),
            served=sum(1 for m in rows if m.outcome == "served"),
            not_found=sum(1 for m in rows if m.outcome == "not-found"),
            cache_hits=sum(1 for m in rows if m.cache_hit),
            integrity_events=integrity_events,
            per_request=rows,
        )

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    def summary_lines(self) -> list[str]:
        return [
            f"requests={self.requests} served={self.served} "
            f"not_found={self.not_found} cache_hits={self.cache_hits} "
            f"hit_ratio={self.hit_ratio:.4f} integrity_events={self.integrity_events}"
        ] + [
            f"req seq={m.seq} t={m.time} requester={m.requester} name={m.name} "
            f"outcome={m.outcome} hops={m.hops} latency={m.latency_ms} "
            f"from={m.served_from} kind={m.served_from_kind} hit={int(m.cache_hit)} "
            f"retries={m.integrity_retries}"
            for m in self.per_request
        ]


class SimulationResult(Record):
    metrics: Metrics
    events: tuple[str, ...]


class Simulation:
    """One scenario instance.  Build it, then call run() once.  Building
    checks the config, signs and verifies each origin's directory and
    preloads the default contents; it draws no content bytes, so its time
    and memory do not grow with the declared sizes."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.events: list[str] = []
        self._metrics_rows: list[RequestMetric] = []
        self._integrity_events = 0
        self._seq = 0

        self.nodes: dict[str, SimNode] = {}
        for nc in config.nodes:
            if nc.node_id in self.nodes:
                raise ScenarioError(f"duplicate node id {nc.node_id!r}")
            self.nodes[nc.node_id] = SimNode(nc.node_id, nc.kind, ContentStore(nc.capacity))

        # node -> {neighbour: latency}, filled in node order, then link
        # order; Dijkstra's equal-cost ties follow this order.
        self.adj: dict[str, dict[str, int]] = {node_id: {} for node_id in self.nodes}
        for link in config.links:
            for end in (link.a, link.b):
                if end not in self.nodes:
                    raise ScenarioError(f"link references unknown node {end!r}")
            if link.latency_ms < 0:
                raise ScenarioError("link latency must be >= 0")
            self._link(link.a, link.b, link.latency_ms)
        if self.nodes and not self._connected():
            raise ScenarioError("topology must be connected")

        self.contents: dict[str, ContentConfig] = {}
        spans: dict[str, int] = {}  # name -> chunks, as _deliver logs them
        for cc in config.contents:
            if cc.name in self.contents:
                raise ScenarioError(f"duplicate content name {cc.name!r}")
            origin = self.nodes.get(cc.origin)
            if origin is None:
                raise ScenarioError(f"content {cc.name!r} has unknown origin {cc.origin!r}")
            if origin.kind not in SERVER_KINDS:
                raise ScenarioError(f"content origin {cc.origin!r} must be a server")
            if cc.size < 0:
                raise ScenarioError(f"content {cc.name!r} has negative size {cc.size}")
            spans[cc.name] = max(1, -(-cc.size // config.chunk_size))
            if spans[cc.name] > MAX_CHUNKS:
                raise ScenarioError(
                    f"content {cc.name!r} spans more than {MAX_CHUNKS} chunks"
                )
            self.contents[cc.name] = cc
        # A request is delivered at most once, so this bounds the run's
        # ev=data lines whatever the topology does.
        scheduled = sum(
            spans.get(op.params.get("name"), 0) for op in config.schedule if op.kind == "request"
        )
        if scheduled > MAX_RUN_CHUNKS:
            raise ScenarioError(
                f"scheduled requests span {scheduled} chunks, more than {MAX_RUN_CHUNKS}"
            )

        self._build_directories()
        self._preload_defaults()

        # A barren node never holds a copy: no content starts there, and
        # past preload only _deliver caches, never at capacity <= 0.
        origins = {record.origin for record in self.contents.values()}
        self._barren = frozenset(
            node_id for node_id, node in self.nodes.items()
            if node_id not in origins and node.store.capacity <= 0 and not node.store._items
        )
        self._ids = tuple(self.nodes)
        self._index = {node_id: i for i, node_id in enumerate(self._ids)}
        self._holdings = [node.store._items for node in self.nodes.values()]
        self._trees: dict[str, tuple] = {}
        self._neighbours: list | None = None  # see _tree

    # ------------------------------------------------------------------

    def _log(self, line: str) -> None:
        self.events.append(line)

    def _link(self, a: str, b: str, latency: int) -> None:
        # An existing edge keeps its place in both adjacency dicts.
        self.adj[a][b] = latency
        self.adj[b][a] = latency

    def _connected(self) -> bool:
        start = next(iter(self.adj))
        seen = {start}
        frontier = [start]
        while frontier:
            for neighbour in self.adj[frontier.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.adj)

    def _build_directories(self) -> None:
        """Build, sign and verify each origin's directory of its cacheable
        contents, and log the verdict at every vehicle.  A file hash digests
        the seed and the repr of (origin, name, size), which is unambiguous;
        an origin's signing secret digests the seed and the origin."""
        seed = self.config.seed.to_bytes(8, "big")
        by_origin: dict[str, list[DirectoryEntry]] = {}
        for record in self.contents.values():
            if not is_cacheable(record.category):
                continue
            file_hash = hashlib.sha256(
                b"directory-file" + seed + repr((record.origin, record.name, record.size)).encode()
            ).digest()
            by_origin.setdefault(record.origin, []).append(
                DirectoryEntry(record.name, file_hash, 0, "", record.category.value)
            )
        vehicles = sorted(n for n, node in self.nodes.items() if node.kind is NodeKind.VEHICLE)
        for origin in sorted(by_origin):
            secret = hashlib.sha256(b"directory-secret" + seed + origin.encode()).digest()
            directory = build_directory(by_origin[origin], KeyedDigestSigner(origin, secret))
            ok = verify_directory(directory, {origin: secret})
            for vehicle in vehicles:
                self._log(f"ev=dirverify t=0 node={vehicle} issuer={origin} ok={int(ok)}")

    def _preload_defaults(self) -> None:
        """Default public infotainment is pushed out ahead of demand and
        pinned so it survives cache pressure."""
        for name in sorted(self.contents):
            record = self.contents[name]
            if not record.default or not is_cacheable(record.category):
                continue
            for node_id in sorted(self.nodes):
                node = self.nodes[node_id]
                if node.kind not in (NodeKind.RSU, NodeKind.VEHICLE):
                    continue
                if node_id == record.origin:
                    continue
                node.store.put(name, CachedCopy(record.size, pinned=True))
                if name in node.store:
                    self._log(f"ev=preload t=0 node={node_id} name={name}")

    # ------------------------------------------------------------------

    def _dead_end(self, node_id: str) -> bool:
        """A barren node with at most one link: no path passes through it."""
        return node_id in self._barren and len(self.adj[node_id]) <= 1

    def _neighbours_of(self, node_id: str) -> list[tuple[int, int]]:
        """The links of ``node_id`` as (neighbour index, latency) pairs in
        adjacency order, leaving out self-loops and barren dead ends: no
        shortest path passes through either."""
        index = self._index
        return [
            (index[u], cost) for u, cost in self.adj[node_id].items()
            if u != node_id and not self._dead_end(u)
        ]

    def _tree(self, source: str) -> tuple:
        """The shortest-path tree from ``source`` as (settle order, distance,
        parent position): node indices in the order a full Dijkstra settles
        them, and for each position the distance and the position of the
        parent (-1 at the source).  A node's parent changes only on a
        strictly shorter distance and the heap breaks ties by push order, as
        in networkx's ``single_source_dijkstra``.  Barren dead ends other
        than the source are never pushed: settling one relaxes nothing, and
        the push counter only orders pushes, so the rest of the tree is the
        same.

        The search runs on node indices.  ``_neighbours`` holds one
        ``_neighbours_of`` list per node; it is derived from ``adj`` on the
        first tree, patched by ``_edited`` when an edit keeps the trees,
        dropped with them otherwise and released by ``run()``, so it always
        matches ``adj``.  Trees of barren sources are not cached, since such
        a node's own links change in edits that keep the cache."""
        tree = self._trees.get(source)
        if tree is not None:
            return tree
        from array import array  # only routing needs it

        links = self._neighbours
        if links is None:
            links = self._neighbours = [self._neighbours_of(v) for v in self._ids]
        order, dists, parents = array("i"), [], array("i")
        # Heap entries carry the parent's position.  With latencies >= 0 a
        # settled node's best distance is at most any later one, so it is
        # never pushed again, and an entry off the heap is stale exactly when
        # a shorter one was pushed after it.
        best: list = [None] * len(links)
        s = self._index[source]
        best[s] = 0
        heap = [(0, 0, s, -1)]
        pushes, here = 1, -1
        while heap:
            d, _, v, up = heappop(heap)
            if d > best[v]:
                continue
            here += 1
            order.append(v)
            dists.append(d)
            parents.append(up)
            for u, cost in links[v]:
                du = d + cost
                b = best[u]
                if b is None or du < b:
                    best[u] = du
                    heappush(heap, (du, pushes, u, here))
                    pushes += 1
        try:
            dists = array("q", dists)
        except OverflowError:  # latencies past 64 bits stay Python ints
            pass
        tree = (order, dists, parents)
        if source not in self._barren:
            self._trees[source] = tree
        return tree

    def _nearest(self, requester: str, name: str, exclude: set[str]):
        """Nearest holder of ``name`` outside ``exclude`` as (holder, path,
        latency), or None if none is reachable.  Holders are the origin and
        every store with a copy.  Among holders at the same smallest latency
        the smallest node id wins, and the path is the one networkx's
        ``single_source_dijkstra`` gives.  The answer is read off the
        requester's cached shortest-path tree, which ``_tree`` builds on
        node indices over the per-node neighbour lists; a barren dead end
        with one neighbour reads its neighbour's tree, one link further."""
        links = self.adj[requester]
        source, hop = requester, 0
        if self._dead_end(requester) and requester not in links and links:
            ((source, hop),) = links.items()
        order, dists, parents = self._tree(source)
        origin = self._index[self.contents[name].origin]
        holdings, ids = self._holdings, self._ids
        found, bound = -1, None
        for p, i in enumerate(order):
            if bound is not None and dists[p] != bound:
                break
            if (i == origin or name in holdings[i]) and ids[i] not in exclude:
                if found < 0 or ids[i] < ids[order[found]]:
                    found = p
                bound = dists[p]
        if found < 0:
            return None
        path = []
        while found >= 0:
            path.append(ids[order[found]])
            found = parents[found]
        if source != requester:
            path.append(requester)
        path.reverse()
        return path[-1], path, hop + bound

    def _copy_intact(self, node_id: str, name: str) -> bool:
        """Whether the holder's copy matches the content's directory hash;
        reading a cached copy refreshes its recency."""
        if node_id == self.contents[name].origin:
            return True
        copy = self.nodes[node_id].store.get(name)
        assert copy is not None
        return copy.intact

    def submit_interest(self, requester: str, name: str, at_time: int = 0) -> RequestMetric:
        """Resolve one interest; returns the per-request metric row."""
        if requester not in self.nodes:
            raise ScenarioError(f"unknown requester {requester!r}")
        self._seq += 1
        seq = self._seq
        self._log(f"ev=interest t={at_time} seq={seq} requester={requester} name={name}")
        if name not in self.contents:
            return self._finish_not_found(seq, at_time, requester, name)
        record = self.contents[name]
        failed: set[str] = set()
        retries = 0
        while True:
            choice = self._nearest(requester, name, failed)
            if choice is None:
                return self._finish_not_found(seq, at_time, requester, name)
            holder, path, latency = choice
            hops = len(path) - 1
            if hops > self.config.hop_budget:
                return self._finish_not_found(seq, at_time, requester, name)
            if not self._copy_intact(holder, name):
                # A copy is checked against its origin's directory hash, which
                # lists every cacheable content, and only cacheable contents
                # are ever copied.  Corrupted copy: reject, drop it at the
                # holder, ask the next nearest one.
                self._integrity_events += 1
                retries += 1
                self._log(
                    f"ev=integrity t={at_time} seq={seq} requester={requester} "
                    f"holder={holder} name={name}"
                )
                self.nodes[holder].store.drop(name)
                self._log(f"ev=drop t={at_time} node={holder} name={name}")
                failed.add(holder)
                continue
            return self._deliver(
                seq, at_time, requester, record, holder, path, latency, retries
            )

    def _finish_not_found(self, seq: int, t: int, requester: str, name: str) -> RequestMetric:
        self._log(f"ev=notfound t={t} seq={seq} requester={requester} name={name}")
        metric = RequestMetric.not_found(seq, t, requester, name)
        self._metrics_rows.append(metric)
        return metric

    def _deliver(
        self,
        seq: int,
        t: int,
        requester: str,
        record: ContentConfig,
        holder: str,
        path: list[str],
        latency: int,
        retries: int,
    ) -> RequestMetric:
        for chunk in range(max(1, -(-record.size // self.config.chunk_size))):
            self._log(
                f"ev=data t={t} seq={seq} name={record.name} chunk={chunk} "
                f"from={holder} to={requester}"
            )
        if is_cacheable(record.category):
            # Every traversed node except the holder may keep a copy.
            for node_id in reversed(path[:-1]):
                node = self.nodes[node_id]
                if node_id == record.origin or node.store.capacity <= 0:
                    continue
                if record.name in node.store:
                    continue
                evicted = node.store.put(record.name, CachedCopy(record.size))
                if record.name in node.store:
                    self._log(f"ev=cache t={t} node={node_id} name={record.name}")
                for victim in evicted:
                    self._log(f"ev=evict t={t} node={node_id} name={victim}")
        hit = holder != record.origin
        kind = self.nodes[holder].kind.value
        self._log(
            f"ev=served t={t} seq={seq} requester={requester} "
            f"name={record.name} from={holder} kind={kind} hops={len(path) - 1} "
            f"latency={latency} hit={int(hit)} retries={retries}"
        )
        metric = RequestMetric(
            seq, t, requester, record.name, "served", len(path) - 1, latency,
            holder, kind, hit, retries,
        )
        self._metrics_rows.append(metric)
        return metric

    # ------------------------------------------------------------------

    def _apply_tamper(self, op: ScheduledOp) -> None:
        node_id = op.params.get("node", "")
        name = op.params.get("name", "")
        node = self.nodes.get(node_id)
        if node is None:
            raise ScenarioError(f"tamper on unknown node {node_id!r}")
        copy = node.store.get(name)
        if copy is None:
            raise ScenarioError(f"no cached copy of {name!r} at {node_id!r} to tamper")
        if copy.size:
            # Flip byte 0: a second flip restores a copy of the right size,
            # but the 1-byte stand-in for empty content never matches.
            intact = not copy.intact and copy.size == self.contents[name].size
            corrupted = CachedCopy(copy.size, intact, copy.pinned)
        else:
            corrupted = CachedCopy(1, False, copy.pinned)  # the byte 0xff
        node.store.replace(name, corrupted)
        self._log(f"ev=tamper t={op.time} node={node_id} name={name}")

    def _known_ends(self, op: ScheduledOp) -> tuple[str, str]:
        a, b = op.params.get("a", ""), op.params.get("b", "")
        for end in (a, b):
            if end not in self.nodes:
                raise ScenarioError(f"{op.kind} references unknown node {end!r}")
        return a, b

    def _apply_relink(self, op: ScheduledOp) -> None:
        raw = op.params.get("latency", str(DEFAULT_LATENCY_MS))
        try:
            latency = int(raw)
        except ValueError:
            raise ScenarioError(f"relink t={op.time}: bad integer for latency: {raw!r}") from None
        if latency < 0:
            raise ScenarioError(f"relink t={op.time}: latency must be >= 0")
        a, b = self._known_ends(op)
        dead_ends = self._dead_ends(a, b)
        self._link(a, b, latency)
        self._edited(a, b, dead_ends)
        self._log(f"ev=relink t={op.time} a={a} b={b} latency={latency}")

    def _apply_unlink(self, op: ScheduledOp) -> None:
        a, b = self._known_ends(op)
        dead_ends = self._dead_ends(a, b)
        if b in self.adj[a]:
            del self.adj[a][b]
            self.adj[b].pop(a, None)  # absent for a self-loop
        self._edited(a, b, dead_ends)
        self._log(f"ev=unlink t={op.time} a={a} b={b}")

    def _dead_ends(self, a: str, b: str) -> set[str]:
        return {end for end in (a, b) if self._dead_end(end)}

    def _edited(self, a: str, b: str, dead_ends: set[str]) -> None:
        """Keep the cached trees across an edit of the link a-b only when one
        end is a barren dead end both before and after it.  No tree holds
        that end.  The other end gains or loses only that neighbour; if it is
        barren it may join or leave trees, but as a leaf that holds nothing,
        and its own tree is never cached.

        The neighbour lists are kept exact: the edit changes the lists of
        both ends, and an end that starts or stops being a dead end changes
        the lists of its neighbours too."""
        if not dead_ends & self._dead_ends(a, b):
            self._trees.clear()
            self._neighbours = None
            return
        links = self._neighbours
        if links is None:
            return
        stale = {a, b}
        for end in (a, b):
            if (end in dead_ends) != self._dead_end(end):
                stale.update(self.adj[end])
        for node_id in stale:
            links[self._index[node_id]] = self._neighbours_of(node_id)

    def run(self) -> SimulationResult:
        if self.config is None:
            raise ScenarioError("simulation already ran")
        try:
            for op in sorted(self.config.schedule, key=lambda o: (o.time, o.seq)):
                if op.kind == "request":
                    self.submit_interest(
                        op.params.get("requester", ""), op.params.get("name", ""), op.time
                    )
                elif op.kind == "tamper":
                    self._apply_tamper(op)
                elif op.kind == "relink":
                    self._apply_relink(op)
                elif op.kind == "unlink":
                    self._apply_unlink(op)
                else:
                    raise ScenarioError(f"unknown scheduled op {op.kind!r}")
            metrics = Metrics.from_rows(self._metrics_rows, self._integrity_events)
            return SimulationResult(metrics, tuple(self.events))
        finally:
            self._release()

    def _release(self) -> None:
        """Drop the whole run state: a finished Simulation holds nothing."""
        self.config = None
        self.events, self._metrics_rows = [], []
        self.nodes, self.adj, self.contents, self._trees, self._index = {}, {}, {}, {}, {}
        self._barren, self._ids, self._holdings, self._neighbours = frozenset(), (), [], None


def run_scenario(config: ScenarioConfig) -> SimulationResult:
    return Simulation(config).run()


def metrics_from_events(events) -> Metrics:
    """Recompute the metrics from an event log alone; a malformed line
    raises ScenarioError naming it."""
    rows = []
    integrity = 0
    for number, line in enumerate(events, start=1):
        fields = _kv(line.split(), number, prefix="event line")
        try:
            ev = fields.get("ev")
            if ev == "integrity":
                integrity += 1
            elif ev == "served":
                rows.append(
                    RequestMetric(
                        seq=int(fields["seq"]),
                        time=int(fields["t"]),
                        requester=fields["requester"],
                        name=fields["name"],
                        outcome="served",
                        hops=int(fields["hops"]),
                        latency_ms=int(fields["latency"]),
                        served_from=fields["from"],
                        served_from_kind=fields["kind"],
                        cache_hit=bool(int(fields["hit"])),
                        integrity_retries=int(fields["retries"]),
                    )
                )
            elif ev == "notfound":
                rows.append(
                    RequestMetric.not_found(
                        int(fields["seq"]), int(fields["t"]), fields["requester"], fields["name"]
                    )
                )
        except KeyError as exc:
            raise ScenarioError(f"event line {number}: no field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ScenarioError(f"event line {number}: {exc}") from None
    return Metrics.from_rows(sorted(rows, key=lambda m: m.seq), integrity)
