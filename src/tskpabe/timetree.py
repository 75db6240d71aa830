"""Year/month/day time tree, canonical node encoding, and minimal window covers.

A time node is a path from the (implicit) root: ``(year,)`` spans a whole
year, ``(year, month)`` a month, ``(year, month, day)`` a single day.  A
cover is a set of nodes whose day ranges tile a calendar window exactly.
``set_cover`` returns the canonical minimal cover by always promoting to
the largest node that still fits inside the window.

Month lengths come from a pluggable calendar so tests can swap the real
Gregorian table for an idealized 12 x 31 one.
"""

import datetime as _dt
import re
from functools import total_ordering

from . import Record, _set

Day = tuple[int, int, int]

_NODE_RE = re.compile(r"^(\d{4})(?:-(\d{2}))?(?:-(\d{2}))?$")

MONTHS_PER_YEAR = 12


class CalendarSystem:
    """Month-length table plus day arithmetic."""

    name = "abstract"

    def days_in_month(self, year: int, month: int) -> int:
        raise NotImplementedError

    def validate_day(self, day: Day) -> None:
        year, month, dom = day
        if year < 1:
            raise ValueError(f"year must be positive, got {year}")
        if not 1 <= month <= MONTHS_PER_YEAR:
            raise ValueError(f"month out of range: {month}")
        if not 1 <= dom <= self.days_in_month(year, month):
            raise ValueError(f"invalid day {year:04d}-{month:02d}-{dom:02d}")

    def to_ordinal(self, day: Day) -> int:
        raise NotImplementedError

    def from_ordinal(self, ordinal: int) -> Day:
        raise NotImplementedError

    def add_days(self, day: Day, n: int) -> Day:
        return self.from_ordinal(self.to_ordinal(day) + n)

    def next_day(self, day: Day) -> Day:
        return self.add_days(day, 1)


_MDAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class GregorianCalendar(CalendarSystem):
    name = "gregorian"

    def days_in_month(self, year: int, month: int) -> int:
        if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
            return 29
        return _MDAYS[month]

    def to_ordinal(self, day: Day) -> int:
        return _dt.date(*day).toordinal()

    def from_ordinal(self, ordinal: int) -> Day:
        d = _dt.date.fromordinal(ordinal)
        return (d.year, d.month, d.day)


class FixedMonthCalendar(CalendarSystem):
    """Idealized calendar where every month has the same length."""

    def __init__(self, month_length: int = 31):
        self.month_length = month_length
        self.name = f"fixed{month_length}"

    def days_in_month(self, year: int, month: int) -> int:
        return self.month_length

    def to_ordinal(self, day: Day) -> int:
        year, month, dom = day
        return (year * MONTHS_PER_YEAR + (month - 1)) * self.month_length + (dom - 1)

    def from_ordinal(self, ordinal: int) -> Day:
        months, dom = divmod(ordinal, self.month_length)
        year, month = divmod(months, MONTHS_PER_YEAR)
        return (year, month + 1, dom + 1)


GREGORIAN = GregorianCalendar()
IDEALIZED_31 = FixedMonthCalendar(31)


def parse_day(text: str) -> Day:
    m = re.match(r"^(\d{4})-(\d{2})-(\d{2})$", text)
    if not m:
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return (int(m.group(1)), int(m.group(2)), int(m.group(3)))


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

    def validate(self, cal: CalendarSystem = GREGORIAN) -> None:
        if not 1 <= self.depth <= 3:
            raise ValueError(f"node depth must be 1..3, got {self.depth}")
        year = self.components[0]
        month = self.components[1] if self.depth >= 2 else 1
        dom = self.components[2] if self.depth >= 3 else 1
        cal.validate_day((year, month, dom))

    def text(self) -> str:
        parts = [f"{self.components[0]:04d}"]
        parts += [f"{c:02d}" for c in self.components[1:]]
        return "-".join(parts)

    @classmethod
    def parse(cls, text: str, cal: CalendarSystem = GREGORIAN) -> "TimeNode":
        m = _NODE_RE.match(text)
        if not m:
            raise ValueError(f"bad time node {text!r}")
        components = tuple(int(g) for g in m.groups() if g is not None)
        node = cls(components)
        node.validate(cal)
        return node

    def __str__(self):
        return self.text()


class TimeWindow(Record):
    """Inclusive day range."""

    __slots__ = ("start", "end")

    def __init__(self, start: Day, end: Day):
        _set(self, "start", start)
        _set(self, "end", end)

    def validate(self, cal: CalendarSystem = GREGORIAN) -> None:
        cal.validate_day(self.start)
        cal.validate_day(self.end)
        if cal.to_ordinal(self.start) > cal.to_ordinal(self.end):
            raise ValueError(f"window start {self.start} after end {self.end}")

    def text(self) -> str:
        return f"{format_day(self.start)}..{format_day(self.end)}"

    @classmethod
    def parse(cls, text: str, cal: CalendarSystem = GREGORIAN) -> "TimeWindow":
        start, sep, end = text.partition("..")
        if not sep:
            raise ValueError(f"expected start..end, got {text!r}")
        window = cls(parse_day(start), parse_day(end))
        window.validate(cal)
        return window

    def __str__(self):
        return self.text()


def node_window(node: TimeNode, cal: CalendarSystem = GREGORIAN) -> TimeWindow:
    """Inclusive day range spanned by the node's subtree."""
    node.validate(cal)
    c = node.components
    if node.depth == 1:
        year = c[0]
        return TimeWindow(
            (year, 1, 1), (year, MONTHS_PER_YEAR, cal.days_in_month(year, MONTHS_PER_YEAR))
        )
    if node.depth == 2:
        year, month = c
        return TimeWindow((year, month, 1), (year, month, cal.days_in_month(year, month)))
    return TimeWindow((c[0], c[1], c[2]), (c[0], c[1], c[2]))


def is_prefix(a: TimeNode, b: TimeNode) -> bool:
    """True iff a's label path is an initial segment of b's."""
    return a.components == b.components[: len(a.components)]


def _full_sibling_families(nodes: tuple[TimeNode, ...], cal: CalendarSystem) -> list[TimeNode]:
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
            family = cal.days_in_month(parent[0], parent[1])
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

    def window(self, cal: CalendarSystem = GREGORIAN) -> TimeWindow:
        return TimeWindow(
            node_window(self.nodes[0], cal).start, node_window(self.nodes[-1], cal).end
        )

    @classmethod
    def from_nodes(cls, nodes, cal: CalendarSystem = GREGORIAN) -> "TimeCover":
        nodes = tuple(sorted(set(nodes)))
        if not nodes:
            raise ValueError("cover must contain at least one node")
        for node in nodes:
            node.validate(cal)
        ordered = sorted(nodes, key=lambda n: cal.to_ordinal(node_window(n, cal).start))
        prev_end = None
        for node in ordered:
            w = node_window(node, cal)
            start_ord = cal.to_ordinal(w.start)
            if prev_end is not None:
                if start_ord <= prev_end:
                    raise ValueError(f"overlapping cover nodes near {node}")
                if start_ord != prev_end + 1:
                    raise ValueError(f"gap in cover before {node}")
            prev_end = cal.to_ordinal(w.end)
        collapsible = _full_sibling_families(tuple(ordered), cal)
        if collapsible:
            raise ValueError(
                f"cover is not minimal: {collapsible[0]} replaces a full sibling family"
            )
        return cls(tuple(ordered))

    def texts(self) -> list[str]:
        return [node.text() for node in self.nodes]


def set_cover(window: TimeWindow, cal: CalendarSystem = GREGORIAN) -> TimeCover:
    """Canonical minimal cover of an inclusive day window.

    Walks left to right, at each position taking the deepest promotion that
    still fits: the whole year if the window allows it, else the whole
    month, else the single day.  Valid day tuples compare chronologically,
    so the loop is pure tuple arithmetic.
    """
    window.validate(cal)
    end = window.end
    nodes = []
    year, month, dom = window.start
    while True:
        if (
            month == 1
            and dom == 1
            and (year, MONTHS_PER_YEAR, cal.days_in_month(year, MONTHS_PER_YEAR)) <= end
        ):
            node_end = (year, MONTHS_PER_YEAR, cal.days_in_month(year, MONTHS_PER_YEAR))
            nodes.append(TimeNode((year,)))
        elif dom == 1 and (year, month, cal.days_in_month(year, month)) <= end:
            node_end = (year, month, cal.days_in_month(year, month))
            nodes.append(TimeNode((year, month)))
        else:
            node_end = (year, month, dom)
            nodes.append(TimeNode(node_end))
        if node_end == end:
            break
        year, month, dom = node_end
        if dom < cal.days_in_month(year, month):
            dom += 1
        elif month < MONTHS_PER_YEAR:
            month, dom = month + 1, 1
        else:
            year, month, dom = year + 1, 1, 1
    return TimeCover(tuple(nodes))


def worst_case_cover_size(years: int) -> int:
    """Largest possible cover for a window touching the given number of years:
    60 day nodes, 22 month nodes, and one year node per fully enclosed year."""
    if years < 1:
        raise ValueError("years must be >= 1")
    return 60 + 22 + (years - 1)
