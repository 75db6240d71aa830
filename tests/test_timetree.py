import calendar
import datetime
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    from_ordinal,
    min_cover_size_dp,
    ordinal,
    random_window,
    worst_case_cover_size,
)
from tskpabe.timetree import (
    TimeCover,
    TimeNode,
    TimeWindow,
    days_in_month,
    is_prefix,
    next_day,
    node_window,
    parse_day,
    set_cover,
)


def n(text):
    return TimeNode.parse(text)


def test_subscription_window_yields_four_nodes():
    cover = set_cover(TimeWindow.parse("2022-07-01..2022-09-02"))
    assert cover.texts() == ["2022-07", "2022-08", "2022-09-01", "2022-09-02"]


def test_single_day_window():
    cover = set_cover(TimeWindow.parse("2022-08-05..2022-08-05"))
    assert cover.texts() == ["2022-08-05"]


def test_whole_year_promotes_to_year_node():
    cover = set_cover(TimeWindow.parse("2022-01-01..2022-12-31"))
    assert cover.texts() == ["2022"]


def test_node_window_spans():
    assert node_window(n("2022-07")) == TimeWindow((2022, 7, 1), (2022, 7, 31))
    assert node_window(n("2022")) == TimeWindow((2022, 1, 1), (2022, 12, 31))
    assert node_window(n("2022-09-02")) == TimeWindow((2022, 9, 2), (2022, 9, 2))
    assert node_window(n("2024-02")) == TimeWindow((2024, 2, 1), (2024, 2, 29))


def test_is_prefix():
    assert is_prefix(n("2022-07"), n("2022-07-15"))
    assert not is_prefix(n("2022-07-15"), n("2022-07"))
    assert is_prefix(n("2022"), n("2022"))
    assert not is_prefix(n("2022-07"), n("2022-08-15"))


def test_worst_case_cover_size():
    assert worst_case_cover_size(10) == 91
    assert worst_case_cover_size(1) == 82
    with pytest.raises(ValueError):
        worst_case_cover_size(0)


def test_sixty_day_twenty_two_month_shape():
    # Trimming one day off each end of a two year span forces 30 + 30 day
    # nodes and 11 + 11 month nodes, the worst shape per touched year pair.
    cover = set_cover(TimeWindow.parse("2022-01-02..2023-12-30"))
    day_nodes = sum(1 for node in cover if node.depth == 3)
    month_nodes = sum(1 for node in cover if node.depth == 2)
    assert (day_nodes, month_nodes, len(cover)) == (60, 22, 82)
    assert len(cover) <= worst_case_cover_size(2)


def test_empirical_cover_bound_three_year_span():
    rng = Random(20240601)
    worst = worst_case_cover_size(3)
    seen_max = 0
    for _ in range(100_000):
        window = random_window(rng, (2021, 1, 1), (2023, 12, 31))
        seen_max = max(seen_max, len(set_cover(window)))
    assert seen_max <= worst


def test_minimality_against_dp_leap_and_century_years():
    # 2024 is a leap year; 2100 is not, though divisible by four.
    rng = Random(99)
    for lo, hi in (((2023, 1, 1), (2025, 12, 31)), ((2099, 1, 1), (2101, 12, 31))):
        for _ in range(100):
            window = random_window(rng, lo, hi)
            assert len(set_cover(window)) == min_cover_size_dp(window)


@given(st.integers(0, 1095), st.integers(0, 1095))
def test_cover_tiles_window_exactly(a, b):
    base = ordinal((2021, 1, 1))
    lo, hi = min(a, b), max(a, b)
    window = TimeWindow(from_ordinal(base + lo), from_ordinal(base + hi))
    cover = set_cover(window)
    spans = sorted(
        (ordinal(w.start), ordinal(w.end)) for w in (node_window(node) for node in cover)
    )
    assert spans[0][0] == ordinal(window.start)
    assert spans[-1][1] == ordinal(window.end)
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert next_start == prev_end + 1  # disjoint and gap-free


_nodes = st.one_of(
    st.tuples(st.integers(2020, 2023)),
    st.tuples(st.integers(2020, 2023), st.integers(1, 12)),
    st.tuples(st.integers(2020, 2023), st.integers(1, 12), st.integers(1, 28)),
).map(TimeNode)


@given(_nodes, _nodes)
def test_prefix_matches_window_containment(a, b):
    wa, wb = node_window(a), node_window(b)
    contained = (
        ordinal(wa.start) <= ordinal(wb.start)
        and ordinal(wb.end) <= ordinal(wa.end)
        and a.depth <= b.depth
    )
    assert is_prefix(a, b) == contained


def test_cover_constructor_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        TimeCover.from_nodes([n("2022-07"), n("2022-07-15")])


def test_cover_constructor_rejects_gap():
    with pytest.raises(ValueError, match="gap"):
        TimeCover.from_nodes([n("2022-07-01"), n("2022-07-03")])


def test_cover_constructor_rejects_full_sibling_family():
    months = [TimeNode((2022, m)) for m in range(1, 13)]
    with pytest.raises(ValueError, match="not minimal"):
        TimeCover.from_nodes(months)
    february = [TimeNode((2023, 2, d)) for d in range(1, 29)]
    with pytest.raises(ValueError, match="not minimal"):
        TimeCover.from_nodes(february)


def test_invalid_dates_rejected():
    with pytest.raises(ValueError):
        TimeNode.parse("2022-02-30")
    with pytest.raises(ValueError):
        TimeNode.parse("2022-13")
    with pytest.raises(ValueError):
        TimeWindow.parse("2022-09-02..2022-07-01")
    with pytest.raises(ValueError):
        TimeWindow.parse("2022-07-01")
    # one canonical text per node and day: no trailing newline, ASCII digits only
    for text in ("2022-08\n", "２０２２-08", "2022\n"):
        with pytest.raises(ValueError, match="bad time node"):
            TimeNode.parse(text)
    for text in ("2022-07-01\n", "２０２２-07-01"):
        with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
            parse_day(text)
    with pytest.raises(ValueError, match="month out of range: 13"):
        parse_day("0001-13-99")
    with pytest.raises(ValueError, match="year must be positive"):
        parse_day("0000-01-01")
    with pytest.raises(ValueError, match="invalid day 2100-02-29"):
        parse_day("2100-02-29")
    assert parse_day("2000-02-29") == (2000, 2, 29)
    # node text carries four year digits, so no node lies past year 9999
    with pytest.raises(ValueError, match="year 10000 is out of range"):
        TimeCover.from_nodes([TimeNode((10000,))])
    with pytest.raises(ValueError, match="year 10000 is out of range"):
        set_cover(TimeWindow((9999, 12, 31), (10000, 1, 1)))


def test_node_text_roundtrip():
    for text in ("2022", "2022-07", "2022-07-05"):
        assert TimeNode.parse(text).text() == text
    assert str(n("2022-07")) == "2022-07"


def test_window_text_roundtrip():
    text = "2022-07-01..2022-09-02"
    assert TimeWindow.parse(text).text() == text


@given(st.integers(1, datetime.date.max.toordinal() - 1))
def test_next_day_matches_stdlib(o):
    d = datetime.date.fromordinal(o)
    assert next_day((d.year, d.month, d.day)) == from_ordinal(o + 1)


def test_gregorian_leap_years_match_stdlib():
    assert days_in_month(2022, 2) == 28
    assert days_in_month(2024, 2) == 29
    for year in range(1, 10_000):
        assert days_in_month(year, 2) == (29 if calendar.isleap(year) else 28), year


def test_cover_window_reports_full_span():
    cover = set_cover(TimeWindow.parse("2022-07-01..2022-09-02"))
    assert cover.window() == TimeWindow((2022, 7, 1), (2022, 9, 2))
