from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tskpabe.groups import (
    OpCounters,
    SuiteMismatchError,
    TransparentSuite,
    parse_suite,
)

P = 101
logs = st.integers(min_value=0, max_value=P - 1)


@pytest.fixture
def suite():
    return TransparentSuite(P)


def test_pair_multiplies_exponents(suite):
    g = suite.generator()
    assert suite.pair(g**2, g**3) == suite.target_from_log(6)


def test_pair_with_identity_is_identity(suite):
    assert suite.pair(suite.generator(), suite.source_from_log(0)).is_identity()


def test_pair_symmetry(suite):
    g = suite.generator()
    rng = Random(7)
    for _ in range(50):
        x = suite.random_scalar(rng)
        assert suite.pair(g**x, g) == suite.pair(g, g**x)


def test_non_degeneracy(suite):
    g = suite.generator()
    assert not suite.pair(g, g).is_identity()


def test_exponentiation_examples(suite):
    g = suite.generator()
    assert (g**3) ** 4 == suite.source_from_log(12)
    a = suite.source_from_log(57)
    assert (a**0).is_identity()
    assert a**1 == a


@given(x=logs, y=logs)
def test_bilinearity(x, y):
    suite = TransparentSuite(P)
    g = suite.generator()
    assert suite.pair(g**x, g**y) == suite.gt_generator() ** (x * y)


@given(x=logs, y=logs, z=logs)
def test_source_group_laws(x, y, z):
    suite = TransparentSuite(P)
    a, b, c = (suite.source_from_log(v) for v in (x, y, z))
    assert (a * b) * c == a * (b * c)
    assert a * suite.source_from_log(0) == a
    assert (a * a.inverse()).is_identity()


@given(x=logs, y=logs)
def test_target_group_laws(x, y):
    suite = TransparentSuite(P)
    a, b = suite.target_from_log(x), suite.target_from_log(y)
    assert a * b == b * a
    assert (b * b.inverse()).is_identity()
    assert a * suite.identity_target() == a


def test_hash_to_scalar_deterministic(suite):
    assert suite.hash_to_scalar(b"abc") == suite.hash_to_scalar(b"abc")
    assert suite.hash_to_scalar(b"abc") != suite.hash_to_scalar(b"abd")


def test_hash_to_scalar_empty_input_golden(suite):
    # Pinned once from the fixed sha256 counter contract.
    assert suite.hash_to_scalar(b"") == 92


def test_hash_to_scalar_never_zero(suite):
    rng = Random(3)
    for _ in range(10_000):
        data = rng.randbytes(8)
        assert suite.hash_to_scalar(data) != 0


def test_counters_track_operations(suite):
    g = suite.generator()
    suite.counters = OpCounters()
    _ = g * g
    _ = g**5
    _ = suite.pair(g, g)
    _ = suite.gt_generator() ** 2
    c = suite.counters
    assert (c.multiplications, c.source_exponentiations, c.pairings, c.target_exponentiations) == (
        1,
        1,
        1,
        1,
    )


def test_counters_snapshot_delta(suite):
    g = suite.generator()
    before = suite.counters.snapshot()
    for _ in range(3):
        suite.pair(g, g)
    delta = suite.counters.since(before)
    assert delta == OpCounters(pairings=3)


def test_element_encoding_roundtrip_and_golden(suite):
    assert suite.encode_element(suite.source_from_log(42)).hex() == "01010100012a"
    assert suite.encode_element(suite.target_from_log(7)).hex() == "010102000107"


def test_cross_suite_operations_rejected(suite):
    other = TransparentSuite(103)
    with pytest.raises(SuiteMismatchError):
        suite.generator() * other.generator()
    with pytest.raises(SuiteMismatchError):
        suite.pair(suite.generator(), other.generator())
    with pytest.raises(SuiteMismatchError):
        other.pair(suite.generator(), other.generator())


def test_source_target_cannot_mix(suite):
    with pytest.raises(SuiteMismatchError):
        suite.generator() * suite.gt_generator()


def test_equal_distinct_suites_interoperate(suite):
    twin = TransparentSuite(P)
    g, h = suite.generator() ** 3, twin.generator() ** 5
    assert g * h == suite.source_from_log(8)
    assert suite.pair(g, h) == twin.pair(h, g) == suite.target_from_log(15)
    assert suite.gt_generator() * twin.gt_generator() == twin.target_from_log(2)


def test_mixing_errors_name_the_mismatch(suite):
    other = TransparentSuite(103)
    g, gt = suite.generator(), suite.gt_generator()
    with pytest.raises(SuiteMismatchError, match="^cannot combine SourceElement with TargetElement$"):
        g * gt
    with pytest.raises(SuiteMismatchError, match="^cannot combine TargetElement with SourceElement$"):
        gt * g
    with pytest.raises(SuiteMismatchError, match="^cannot combine SourceElement with int$"):
        g * 3
    with pytest.raises(SuiteMismatchError, match="^elements from different suites$"):
        g * other.generator()
    with pytest.raises(SuiteMismatchError, match="^elements from different suites$"):
        gt * other.gt_generator()
    with pytest.raises(SuiteMismatchError, match="^pairing arguments must be source elements$"):
        suite.pair(g, gt)
    with pytest.raises(SuiteMismatchError, match="^pairing arguments from a different suite$"):
        suite.pair(g, other.generator())


def test_exponent_must_be_an_int(suite):
    g = suite.generator()
    with pytest.raises(TypeError):
        g**1.5
    with pytest.raises(TypeError):
        suite.gt_generator() ** 1.5
    before = suite.counters.snapshot()
    assert g**True == g
    assert suite.counters.since(before) == OpCounters(source_exponentiations=1)


@given(x=st.integers(-3 * P, 3 * P), y=st.integers(-3 * P, 3 * P))
def test_logs_stay_reduced(x, y):
    suite = TransparentSuite(P)
    a, b = suite.source_from_log(x), suite.source_from_log(y)
    s, t = suite.target_from_log(x), suite.target_from_log(y)
    results = (a, s, a * b, s * t, a**y, s**y, a.inverse(), s.inverse(), suite.pair(a, b))
    assert all(0 <= r.log < P for r in results)


def test_suite_equality_by_order():
    assert TransparentSuite(P) == TransparentSuite(P)
    assert TransparentSuite(P) != TransparentSuite(103)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        TransparentSuite(100)


def test_parse_suite():
    assert parse_suite("transparent:101").p == 101
    assert parse_suite("transparent").p == 2**31 - 1
    with pytest.raises(ValueError):
        parse_suite("curve:whatever")
    with pytest.raises(ValueError):
        parse_suite("transparent:notanumber")
