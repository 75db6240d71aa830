from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import ScriptedRng, random_formula, satisfying_set, share_matrix, violating_set
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
    assert access.row_attributes == ("A", "B") and access.rows == 2
    assert access.policy == Gate("AND", Leaf("A"), Leaf("B"))


def test_compile_or_gate():
    access = compile_policy("A OR B OR A", P)
    assert access.row_attributes == ("A", "B", "A")
    assert access.rows_for({"A"}) == [0, 2]


def test_compile_single_leaf():
    access = compile_policy("A", P)
    assert access.row_attributes == ("A",) and access.rows == 1


def test_compile_deterministic():
    a = compile_policy("(a AND b) OR (c AND d)", P)
    b = compile_policy("(a AND b) OR (c AND d)", P)
    assert a == b


def test_share_hand_example():
    # The AND gate draws y = 3: shares are 7 + 3 = 10 and -3 mod 101 = 98.
    access = compile_policy("A AND B", P)
    assert share(access, 7, ScriptedRng([3])) == (10, 98)


def test_share_or_gate_copies_secret():
    access = compile_policy("A OR B", P)
    assert share(access, 7, Random(1)) == (7, 7)


def test_share_zero_tail_exposes_first_column():
    access = compile_policy("(a AND b) OR c", P)
    shares = share(access, 13, ScriptedRng([0]))
    assert shares == (13, 0, 13)
    assert shares == tuple(13 * row[0] % P for row in share_matrix(access.policy, P))


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
    shares = share(access, 55, Random(1))
    assert sum(coeffs[i] * shares[i] for i in coeffs) % P == 55


def test_duplicate_attribute_policy():
    access = compile_policy("A AND A", P)
    coeffs = reconstruct_coeffs(access, {"A"})
    assert coeffs is not None
    shares = share(access, 42, Random(5))
    assert sum(coeffs[i] * shares[i] for i in coeffs) % P == 42


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
        for trial in range(5):
            secret = set_rng.randrange(P)
            shares = share(access, secret, set_rng)
            assert sum(coeffs[i] * shares[i] for i in coeffs) % P == secret


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, P - 1))
def test_tree_shares_equal_the_matrix_shares(formula_seed, share_seed, secret):
    """The tree walk gives M.v for the vector-labelling matrix M, with v the
    secret followed by the AND-gate draws of an identically seeded rng, and
    reconstruction's 0/1 coefficients sum M's rows to (1, 0, ..., 0)."""
    formula = random_formula(Random(formula_seed), _attrs, max_leaves=16)
    access = compile_policy(formula, P)
    matrix = share_matrix(access.policy, P)
    draws = Random(share_seed)
    v = [secret] + [draws.randrange(P) for _ in matrix[0][1:]]
    expected = tuple(sum(a * b for a, b in zip(v, row)) % P for row in matrix)
    assert share(access, secret, Random(share_seed)) == expected
    set_rng = Random(secret)
    candidate = satisfying_set(formula, set_rng) | {a for a in _attrs if set_rng.random() < 0.3}
    coeffs = reconstruct_coeffs(access, candidate)
    combination = [sum(coeffs[i] * matrix[i][c] for i in coeffs) % P for c in range(len(v))]
    assert combination == [1] + [0] * (len(v) - 1)


@given(st.integers(0, 10_000))
def test_satisfying_and_violating_helpers_agree(seed):
    rng = Random(seed)
    formula = random_formula(rng, _attrs)
    assert evaluate(formula, satisfying_set(formula, rng))
    assert not evaluate(formula, violating_set(formula, _attrs, rng))


def _balanced(leaves: int) -> str:
    """Canonical text of a balanced OR tree over ``leaves`` copies of x."""
    if leaves == 1:
        return "x"
    return f"({_balanced(leaves // 2)} OR {_balanced(leaves - leaves // 2)})"


# Policy text -> its canonical text, or the PolicyError message it raises.
# An error offset points at the start of the whitespace before a bad token.
_POLICY_KNOWN_ANSWERS = {
    "   a AND b": "(a AND b)",
    "\ta": "a",
    "a AND b  ": "error: bad character in policy at offset 7: '  '",
    "a AND b \t\n": "error: bad character in policy at offset 7: ' \\t\\n'",
    "a AND %b": "error: bad character in policy at offset 5: ' %b'",
    "a AND b$": "error: bad character in policy at offset 7: '$'",
    "9a": "error: bad character in policy at offset 0: '9a'",
    "-a": "error: bad character in policy at offset 0: '-a'",
    "é": "error: bad character in policy at offset 0: 'é'",
    "a and b": "(a AND b)",
    "a Or b": "(a OR b)",
    "a aNd b OR c": "((a AND b) OR c)",
    "a OR b AND c OR d": "((a OR (b AND c)) OR d)",
    "(a)AND(b)": "(a AND b)",
    "a-b AND _c9 OR Z": "((a-b AND _c9) OR Z)",
    "a-": "a-",
    "AND": "error: unexpected token 'AND'",
    "or": "error: unexpected token 'OR'",
    "And b": "error: unexpected token 'AND'",
    "(a OR b": "error: unbalanced parentheses",
    "((a)": "error: unbalanced parentheses",
    "(": "error: unexpected token None",
    "()": "error: unexpected token ')'",
    ")": "error: unexpected token ')'",
    "a OR b)": "error: trailing tokens: [')']",
    "(a))": "error: trailing tokens: [')']",
    "a AND (b OR c))": "error: trailing tokens: [')']",
    "a b": "error: trailing tokens: ['b']",
    "a\xa0b": "error: trailing tokens: ['b']",
    "(a) (b)": "error: trailing tokens: ['(', 'b', ')']",
    "a AND b c": "error: trailing tokens: ['c']",
    "a AND-b": "error: trailing tokens: ['AND-b']",
    "a ANDb": "error: trailing tokens: ['ANDb']",
    "": "error: empty policy",
    "   ": "error: bad character in policy at offset 0: '   '",
    "\n": "error: bad character in policy at offset 0: '\\n'",
    "(" * 64 + "a" + ")" * 64: "a",
    "(" * 65 + "a" + ")" * 65: "error: policy nests deeper than 64 levels",
    "(" * 65 + "a": "error: policy nests deeper than 64 levels",
    " AND ".join(["a"] * 65): "(" * 64 + "a" + " AND a)" * 64,
    " AND ".join(["a"] * 66): "error: policy nests deeper than 64 levels",
    _balanced(256): _balanced(256),
    _balanced(257): "error: policy has more than 256 leaves",
}


def test_policy_known_answers():
    """Canonical texts and error messages, pinned before the tokenizer and
    parser were rewritten."""
    for text, expected in _POLICY_KNOWN_ANSWERS.items():
        try:
            got = policy_text(compile_policy(text, P).policy)
        except PolicyError as exc:
            got = f"error: {exc}"
        assert got == expected, text
