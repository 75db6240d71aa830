from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import random_formula, satisfying_set, violating_set
from tskpabe.lsss import (
    MAX_DEPTH,
    Gate,
    Leaf,
    PolicyError,
    compile_policy,
    evaluate,
    parse_policy,
    policy_text,
    reconstruct_coeffs,
    share,
)

P = 101


def test_parse_precedence_and_gates():
    node = parse_policy("a OR b AND c")
    assert node == Gate("OR", Leaf("a"), Gate("AND", Leaf("b"), Leaf("c")))
    node = parse_policy("(a OR b) AND c")
    assert node == Gate("AND", Gate("OR", Leaf("a"), Leaf("b")), Leaf("c"))
    assert parse_policy("gold and silver") == Gate("AND", Leaf("gold"), Leaf("silver"))


def test_parse_errors():
    for bad in ("", "AND", "a AND", "(a OR b", "a b", "a %% b", "(" * 1200 + "a" + ")" * 1200):
        with pytest.raises(PolicyError):
            parse_policy(bad)
    # Too deep or too many leaves to compile, and a tree with no canonical text.
    wide = " AND ".join(["(" + " OR ".join(["a"] * 16) + ")"] * 17)
    for bad in (" AND ".join(["a"] * 1200), wide, Gate("AND", Leaf("a b"), Leaf("c"))):
        with pytest.raises(PolicyError):
            compile_policy(bad, P)
    compile_policy("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, P)
    compile_policy(" AND ".join(["a"] * (MAX_DEPTH + 1)), P)


def test_compile_and_gate():
    access = compile_policy("A AND B", P)
    assert access.matrix == ((1, 1), (0, P - 1))
    assert access.row_attributes == ("A", "B")


def test_compile_or_gate():
    access = compile_policy("A OR B", P)
    assert access.matrix == ((1,), (1,))


def test_compile_single_leaf():
    access = compile_policy("A", P)
    assert access.matrix == ((1,),)
    assert access.row_attributes == ("A",)


def test_compile_deterministic():
    a = compile_policy("(a AND b) OR (c AND d)", P)
    b = compile_policy("(a AND b) OR (c AND d)", P)
    assert a == b


def test_share_hand_example():
    # vector (7, 3): shares are 7 + 3 = 10 and -3 mod 101 = 98.
    access = compile_policy("A AND B", P)
    shares = share(access, 7, tail=(3,))
    assert shares.vector == (7, 3)
    assert shares.shares == (10, 98)


def test_share_or_gate_copies_secret():
    access = compile_policy("A OR B", P)
    shares = share(access, 7, tail=())
    assert shares.shares == (7, 7)


def test_share_zero_tail_exposes_first_column():
    access = compile_policy("(a AND b) OR c", P)
    shares = share(access, 13, tail=(0,))
    assert shares.shares == tuple(13 * row[0] % P for row in access.matrix)


def test_reconstruct_and_gate():
    access = compile_policy("A AND B", P)
    assert reconstruct_coeffs(access, {"A", "B"}) == {0: 1, 1: 1}
    assert reconstruct_coeffs(access, {"A"}) is None
    assert reconstruct_coeffs(access, set()) is None


def test_reconstruct_or_gate():
    access = compile_policy("A OR B", P)
    coeffs = reconstruct_coeffs(access, {"B"})
    assert coeffs == {1: 1}


def test_reconstruct_covers_all_labeled_rows():
    access = compile_policy("A OR B", P)
    coeffs = reconstruct_coeffs(access, {"A", "B"})
    assert set(coeffs) == {0, 1}  # both rows present, zeros allowed
    shares = share(access, 55, rng=Random(1))
    assert sum(coeffs[i] * shares.shares[i] for i in coeffs) % P == 55


def test_duplicate_attribute_policy():
    access = compile_policy("A AND A", P)
    coeffs = reconstruct_coeffs(access, {"A"})
    assert coeffs is not None
    shares = share(access, 42, rng=Random(5))
    assert sum(coeffs[i] * shares.shares[i] for i in coeffs) % P == 42


_attrs = ("a", "b", "c", "d", "e", "f")


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_reconstruction_iff_boolean_satisfaction(formula_seed, set_seed):
    rng = Random(formula_seed)
    formula = random_formula(rng, _attrs)
    access = compile_policy(formula, P)
    set_rng = Random(set_seed)
    candidate = {a for a in _attrs if set_rng.random() < 0.5}
    assert parse_policy(policy_text(formula)) == formula
    coeffs = reconstruct_coeffs(access, candidate)
    assert (coeffs is not None) == evaluate(formula, candidate)
    if coeffs is not None:
        assert set(coeffs) == set(access.rows_for(candidate))
        assert set(coeffs.values()) <= {0, 1}
        combination = [
            sum(coeffs[i] * access.matrix[i][c] for i in coeffs) % P
            for c in range(access.columns)
        ]
        assert combination == [1] + [0] * (access.columns - 1)
        for trial in range(5):
            shares = share(access, set_rng.randrange(P), rng=set_rng)
            total = sum(coeffs[i] * shares.shares[i] for i in coeffs) % P
            assert total == shares.secret


@given(st.integers(0, 10_000))
def test_satisfying_and_violating_helpers_agree(seed):
    rng = Random(seed)
    formula = random_formula(rng, _attrs)
    assert evaluate(formula, satisfying_set(formula, rng))
    assert not evaluate(formula, violating_set(formula, _attrs, rng))


def test_share_requires_rng_or_tail():
    access = compile_policy("A AND B", P)
    with pytest.raises(ValueError):
        share(access, 7)
    with pytest.raises(ValueError):
        share(access, 7, tail=(1, 2))
