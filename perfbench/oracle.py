"""Reference computations made apart from the program under test.

Everything here uses the standard library only: calendar arithmetic on
``datetime.date`` ordinals, a policy-tree evaluator over the benchmark's
own tree representation, and a ``heapq`` Dijkstra.  The workloads compare
the program's outputs against these.
"""

import datetime as dt
import heapq


# -- calendar ---------------------------------------------------------------


def day_tuple(ordinal: int) -> tuple[int, int, int]:
    d = dt.date.fromordinal(ordinal)
    return (d.year, d.month, d.day)


def day_text(ordinal: int) -> str:
    return dt.date.fromordinal(ordinal).isoformat()


def ordinal(year: int, month: int, day: int) -> int:
    return dt.date(year, month, day).toordinal()


def month_end(year: int, month: int) -> int:
    if month == 12:
        return ordinal(year + 1, 1, 1) - 1
    return ordinal(year, month + 1, 1) - 1


def node_span(text: str) -> tuple[int, int]:
    """Inclusive ordinal range of a ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` node."""
    parts = [int(p) for p in text.split("-")]
    if len(parts) == 1:
        return ordinal(parts[0], 1, 1), ordinal(parts[0], 12, 31)
    if len(parts) == 2:
        return ordinal(parts[0], parts[1], 1), month_end(parts[0], parts[1])
    day = ordinal(*parts)
    return day, day


def min_cover_size(start: int, end: int) -> int:
    """Fewest aligned year/month/day nodes tiling [start, end], by dynamic
    programming from the right end of the window."""
    best = {end + 1: 0}
    for o in range(end, start - 1, -1):
        d = dt.date.fromordinal(o)
        options = [best[o + 1]]
        if d.day == 1 and month_end(d.year, d.month) <= end:
            options.append(best[month_end(d.year, d.month) + 1])
        if d.month == 1 and d.day == 1 and ordinal(d.year, 12, 31) <= end:
            options.append(best[ordinal(d.year, 12, 31) + 1])
        best[o] = 1 + min(options)
    return best[start]


def tiles(texts, start: int, end: int) -> bool:
    """True iff the nodes cover [start, end] exactly, without gap or overlap."""
    spans = sorted(node_span(t) for t in texts)
    at = start
    for lo, hi in spans:
        if lo != at:
            return False
        at = hi + 1
    return at == end + 1


def greedy_cover(start: int, end: int) -> list[str]:
    """The canonical minimal cover: at each day take the largest aligned node
    that fits.  Its size equals ``min_cover_size``."""
    out = []
    o = start
    while o <= end:
        d = dt.date.fromordinal(o)
        if d.month == 1 and d.day == 1 and ordinal(d.year, 12, 31) <= end:
            out.append(f"{d.year:04d}")
            o = ordinal(d.year, 12, 31) + 1
        elif d.day == 1 and month_end(d.year, d.month) <= end:
            out.append(f"{d.year:04d}-{d.month:02d}")
            o = month_end(d.year, d.month) + 1
        else:
            out.append(d.isoformat())
            o += 1
    return out


# -- policies ---------------------------------------------------------------
# A tree is either an attribute name or a tuple (op, left, right).


def random_policy(rng, attrs, and_share: float):
    """A random binary AND/OR tree over ``attrs`` as its leaves, in order."""
    if len(attrs) == 1:
        return attrs[0]
    cut = rng.randint(1, len(attrs) - 1)
    op = "AND" if rng.random() < and_share else "OR"
    return (
        op,
        random_policy(rng, attrs[:cut], and_share),
        random_policy(rng, attrs[cut:], and_share),
    )


def policy_text(tree) -> str:
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    return f"({policy_text(left)} {op} {policy_text(right)})"


def satisfies(tree, labels) -> bool:
    if isinstance(tree, str):
        return tree in labels
    op, left, right = tree
    if op == "AND":
        return satisfies(left, labels) and satisfies(right, labels)
    return satisfies(left, labels) or satisfies(right, labels)


def leaves(tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    return leaves(tree[1]) + leaves(tree[2])


# -- shortest paths ---------------------------------------------------------


def dijkstra(adjacency: dict, source) -> dict:
    """Shortest total latency from ``source`` to every reachable node."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, weight in adjacency[node].items():
            nd = d + weight
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist
