"""Year/month/day time tree, canonical node encoding, and minimal window covers.

A time node is a path from the (implicit) root: ``(year,)`` spans a whole
year, ``(year, month)`` a month, ``(year, month, day)`` a single day.  A
cover is a set of nodes whose day ranges tile a calendar window exactly.
``set_cover`` returns the canonical minimal cover by always promoting to
the largest node that still fits inside the window.

Days are ``(year, month, day)`` tuples on the Gregorian calendar, years
1 to 9999; valid day tuples sort by date, so covers compare them directly.
"""

import re
from functools import cached_property, total_ordering

from . import Record, _set

Day = tuple[int, int, int]

_NODE_RE = re.compile(r"([0-9]{4})(?:-([0-9]{2}))?(?:-([0-9]{2}))?")

MONTHS_PER_YEAR = 12

_MDAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def days_in_month(year: int, month: int) -> int:
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _MDAYS[month]


def validate_day(day: Day) -> None:
    year, month, dom = day
    if year < 1:
        raise ValueError(f"year must be positive, got {year}")
    if not 1 <= month <= MONTHS_PER_YEAR:
        raise ValueError(f"month out of range: {month}")
    if not 1 <= dom <= days_in_month(year, month):
        raise ValueError(f"invalid day {year:04d}-{month:02d}-{dom:02d}")
    if year > 9999:  # node and day text carry four year digits
        raise ValueError(f"year {year} is out of range")


def next_day(day: Day) -> Day:
    year, month, dom = day
    if dom < days_in_month(year, month):
        return (year, month, dom + 1)
    if month < MONTHS_PER_YEAR:
        return (year, month + 1, 1)
    return (year + 1, 1, 1)


def parse_day(text: str) -> Day:
    m = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})", text)
    if not m:
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    day = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    validate_day(day)
    return day


def format_day(day: Day) -> str:
    return f"{day[0]:04d}-{day[1]:02d}-{day[2]:02d}"


@total_ordering
class TimeNode(Record):
    """A tree node identified by its label path, year downwards; nodes
    order by their paths."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[int, ...]):
        _set(self, "components", components)

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.components < other.components

    @property
    def depth(self) -> int:
        return len(self.components)

    def validate(self) -> None:
        if not 1 <= self.depth <= 3:
            raise ValueError(f"node depth must be 1..3, got {self.depth}")
        year = self.components[0]
        month = self.components[1] if self.depth >= 2 else 1
        dom = self.components[2] if self.depth >= 3 else 1
        validate_day((year, month, dom))

    def text(self) -> str:
        parts = [f"{self.components[0]:04d}"]
        parts += [f"{c:02d}" for c in self.components[1:]]
        return "-".join(parts)

    @classmethod
    def parse(cls, text: str) -> "TimeNode":
        m = _NODE_RE.fullmatch(text)
        if not m:
            raise ValueError(f"bad time node {text!r}")
        components = tuple(int(g) for g in m.groups() if g is not None)
        node = cls(components)
        node.validate()
        return node

    def __str__(self):
        return self.text()


class TimeWindow(Record):
    """Inclusive day range."""

    __slots__ = ("start", "end")

    def __init__(self, start: Day, end: Day):
        _set(self, "start", start)
        _set(self, "end", end)

    def validate(self) -> None:
        validate_day(self.start)
        validate_day(self.end)
        if self.start > self.end:
            raise ValueError(f"window start {self.start} after end {self.end}")

    def text(self) -> str:
        return f"{format_day(self.start)}..{format_day(self.end)}"

    @classmethod
    def parse(cls, text: str) -> "TimeWindow":
        start, sep, end = text.partition("..")
        if not sep:
            raise ValueError(f"expected start..end, got {text!r}")
        window = cls(parse_day(start), parse_day(end))
        window.validate()
        return window

    def __str__(self):
        return self.text()


def node_window(node: TimeNode) -> TimeWindow:
    """Inclusive day range spanned by the node's subtree."""
    node.validate()
    c = node.components
    if node.depth == 1:
        return TimeWindow((c[0], 1, 1), (c[0], MONTHS_PER_YEAR, 31))
    if node.depth == 2:
        year, month = c
        return TimeWindow((year, month, 1), (year, month, days_in_month(year, month)))
    return TimeWindow(c, c)


def is_prefix(a: TimeNode, b: TimeNode) -> bool:
    """True iff a's label path is an initial segment of b's."""
    return a.components == b.components[: len(a.components)]


def _full_sibling_families(nodes: tuple[TimeNode, ...]) -> list[TimeNode]:
    """Parents whose entire child family appears in ``nodes``."""
    by_parent: dict[tuple[int, ...], set[int]] = {}
    for node in nodes:
        if node.depth >= 2:
            by_parent.setdefault(node.components[:-1], set()).add(node.components[-1])
    collapsible = []
    for parent, labels in by_parent.items():
        if len(parent) == 1:
            family = MONTHS_PER_YEAR
        else:
            family = days_in_month(parent[0], parent[1])
        if labels == set(range(1, family + 1)):
            collapsible.append(TimeNode(parent))
    return collapsible


class TimeCover(Record):
    """Disjoint nodes whose windows tile one calendar window exactly."""

    nodes: tuple[TimeNode, ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __contains__(self, node: TimeNode) -> bool:
        return node in self.nodes

    @cached_property
    def positions(self) -> dict[tuple[int, ...], int]:
        """Each node's label path -> its position in the cover.  Built on
        first use; kept in the instance dict, outside the fields."""
        return {node.components: i for i, node in enumerate(self.nodes)}

    def window(self) -> TimeWindow:
        return TimeWindow(node_window(self.nodes[0]).start, node_window(self.nodes[-1]).end)

    @classmethod
    def from_nodes(cls, nodes) -> "TimeCover":
        nodes = sorted(set(nodes))
        if not nodes:
            raise ValueError("cover must contain at least one node")
        # node_window validates each node once, in path order, so an invalid
        # set names its first invalid path; then order by (start day, path).
        spans = sorted(
            (w.start, node.components, w.end, node)
            for node, w in zip(nodes, map(node_window, nodes))
        )
        prev_end = None
        for start, _, end, node in spans:
            if prev_end is not None:
                if start <= prev_end:
                    raise ValueError(f"overlapping cover nodes near {node}")
                if next_day(prev_end) != start:
                    raise ValueError(f"gap in cover before {node}")
            prev_end = end
        ordered = tuple(span[3] for span in spans)
        collapsible = _full_sibling_families(ordered)
        if collapsible:
            raise ValueError(
                f"cover is not minimal: {collapsible[0]} replaces a full sibling family"
            )
        return cls(ordered)

    def texts(self) -> list[str]:
        return [node.text() for node in self.nodes]


def set_cover(window: TimeWindow) -> TimeCover:
    """Canonical minimal cover of an inclusive day window.

    Walks left to right, at each position taking the deepest promotion that
    still fits: the whole year if the window allows it, else the whole
    month, else single days up to the end of the month or of the window.
    Valid day tuples compare chronologically, so the loop is pure tuple
    arithmetic.
    """
    window.validate()
    end = window.end
    nodes = []
    day = window.start
    while True:
        year, month, dom = day
        month_end = (year, month, days_in_month(year, month))
        if month == 1 and dom == 1 and (year, MONTHS_PER_YEAR, 31) <= end:
            node_end = (year, MONTHS_PER_YEAR, 31)
            nodes.append(TimeNode((year,)))
        elif dom == 1 and month_end <= end:
            node_end = month_end
            nodes.append(TimeNode((year, month)))
        else:
            node_end = month_end if month_end <= end else end
            nodes += [TimeNode((year, month, d)) for d in range(dom, node_end[2] + 1)]
        if node_end == end:
            break
        day = next_day(node_end)
    return TimeCover(tuple(nodes))

