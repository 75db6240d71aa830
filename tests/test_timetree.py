import calendar
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import min_cover_size_dp, random_window
from tskpabe.timetree import (
    GREGORIAN,
    IDEALIZED_31,
    FixedMonthCalendar,
    TimeCover,
    TimeNode,
    TimeWindow,
    is_prefix,
    node_window,
    set_cover,
    worst_case_cover_size,
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


def test_minimality_against_dp_idealized_calendar():
    rng = Random(99)
    for _ in range(200):
        window = random_window(rng, (2021, 1, 1), (2022, 12, 31), IDEALIZED_31)
        cover = set_cover(window, IDEALIZED_31)
        assert len(cover) == min_cover_size_dp(window, IDEALIZED_31)


@given(st.integers(0, 1095), st.integers(0, 1095))
def test_cover_tiles_window_exactly(a, b):
    base = GREGORIAN.to_ordinal((2021, 1, 1))
    lo, hi = min(a, b), max(a, b)
    window = TimeWindow(GREGORIAN.from_ordinal(base + lo), GREGORIAN.from_ordinal(base + hi))
    cover = set_cover(window)
    spans = sorted(
        (GREGORIAN.to_ordinal(w.start), GREGORIAN.to_ordinal(w.end))
        for w in (node_window(node) for node in cover)
    )
    assert spans[0][0] == GREGORIAN.to_ordinal(window.start)
    assert spans[-1][1] == GREGORIAN.to_ordinal(window.end)
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
        GREGORIAN.to_ordinal(wa.start) <= GREGORIAN.to_ordinal(wb.start)
        and GREGORIAN.to_ordinal(wb.end) <= GREGORIAN.to_ordinal(wa.end)
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
    # valid only on the idealized calendar
    TimeNode.parse("2022-02-30", IDEALIZED_31)


def test_node_text_roundtrip():
    for text in ("2022", "2022-07", "2022-07-05"):
        assert TimeNode.parse(text).text() == text
    assert str(n("2022-07")) == "2022-07"


def test_window_text_roundtrip():
    text = "2022-07-01..2022-09-02"
    assert TimeWindow.parse(text).text() == text


@given(st.integers(700000, 760000))
def test_gregorian_ordinal_roundtrip(o):
    assert GREGORIAN.to_ordinal(GREGORIAN.from_ordinal(o)) == o


@given(st.integers(0, 10_000_00))
def test_idealized_ordinal_roundtrip(o):
    assert IDEALIZED_31.to_ordinal(IDEALIZED_31.from_ordinal(o)) == o


def test_fixed_month_calendar_lengths():
    cal = FixedMonthCalendar(30)
    assert cal.days_in_month(2022, 2) == 30
    assert GREGORIAN.days_in_month(2022, 2) == 28
    assert GREGORIAN.days_in_month(2024, 2) == 29


def test_gregorian_leap_years_match_stdlib():
    for year in range(1, 10_000):
        assert GREGORIAN.days_in_month(year, 2) == (29 if calendar.isleap(year) else 28), year


def test_cover_window_reports_full_span():
    cover = set_cover(TimeWindow.parse("2022-07-01..2022-09-02"))
    assert cover.window() == TimeWindow((2022, 7, 1), (2022, 9, 2))
