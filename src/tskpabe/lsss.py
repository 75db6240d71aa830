"""Monotone AND/OR policies compiled to a linear secret-sharing structure.

The compiler uses the standard vector-labeling construction: the root
carries the label (1); an AND gate pads its label v to the current width
and hands (v, 1) to the left child and (0, ..., 0, -1) to the right child,
growing the width by one; an OR gate copies its label to both children.
Leaves become matrix rows in left-to-right order, so the matrix has one
row per leaf and one column per AND gate plus one.

Sharing a secret w draws a masking vector (w, y2, ..., yn) and gives row i
the share lambda_i = v . M_i.  To reconstruct, pick a satisfying subtree
(both children of an AND gate, one satisfied child of an OR gate).  Under
this labeling its rows sum to the root label (1, 0, ..., 0), as Lewko and
Waters observe ("Decentralizing Attribute-Based Encryption", Eurocrypt
2011, appendix G), so omega_i = 1 on those rows and 0 elsewhere gives
sum(omega_i * lambda_i) = w.  A set that fails the formula has no such
subtree, and no coefficients exist.

Key files carry policy text, so parsing and compiling refuse formulas
deeper than MAX_DEPTH or with more than MAX_LEAVES leaves, which keeps
every recursive walk well inside Python's recursion limit.
"""

import re
from random import Random

from . import Record, _set
from .groups import Scalar

_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|([A-Za-z_][A-Za-z0-9_\-]*))")

MAX_DEPTH = 64  # gates above any leaf, and parentheses open at once
MAX_LEAVES = 256


class PolicyError(ValueError):
    """Malformed policy text or structure."""


class Leaf(Record):
    __slots__ = ("attribute",)

    def __init__(self, attribute: str):
        _set(self, "attribute", attribute)


class Gate(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Leaf | Gate", right: "Leaf | Gate"):
        _set(self, "op", op)  # "AND" or "OR"
        _set(self, "left", left)
        _set(self, "right", right)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PolicyError(f"bad character in policy at offset {pos}: {text[pos:]!r}")
        if m.group(1):
            tokens.append("(")
        elif m.group(2):
            tokens.append(")")
        elif m.group(3):
            word = m.group(3)
            tokens.append(word.upper() if word.upper() in ("AND", "OR") else word)
        pos = m.end()
    return tokens


def parse_policy(text: str) -> "Leaf | Gate":
    """Parse ``ident``, ``AND``, ``OR`` and parentheses.  AND binds tighter."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolicyError("empty policy")
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        token = peek()
        pos += 1
        return token

    def parse_or():
        node = parse_and()
        while peek() == "OR":
            take()
            node = Gate("OR", node, parse_and())
        return node

    def parse_and():
        node = parse_atom()
        while peek() == "AND":
            take()
            node = Gate("AND", node, parse_atom())
        return node

    def parse_atom():
        nonlocal depth
        token = take()
        if token == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise PolicyError(f"policy nests deeper than {MAX_DEPTH} levels")
            node = parse_or()
            if take() != ")":
                raise PolicyError("unbalanced parentheses")
            depth -= 1
            return node
        if token in (None, ")", "AND", "OR"):
            raise PolicyError(f"unexpected token {token!r}")
        return Leaf(token)

    root = parse_or()
    if pos != len(tokens):
        raise PolicyError(f"trailing tokens: {tokens[pos:]}")
    return root


def evaluate(node: "Leaf | Gate", attributes) -> bool:
    """Boolean evaluation of a policy against an attribute set."""
    attributes = set(attributes)

    def walk(n):
        if isinstance(n, Leaf):
            return n.attribute in attributes
        if n.op == "AND":
            return walk(n.left) and walk(n.right)
        return walk(n.left) or walk(n.right)

    return walk(node)


def policy_text(node: "Leaf | Gate") -> str:
    """Canonical, fully parenthesised text that ``parse_policy`` reads back
    as the same tree."""
    if isinstance(node, Leaf):
        return node.attribute
    return f"({policy_text(node.left)} {node.op} {policy_text(node.right)})"


class AccessStructure(Record):
    """Share-generating matrix with its row-to-attribute map, entries mod p,
    and the formula it was compiled from (row i is its i-th leaf)."""

    matrix: tuple[tuple[int, ...], ...]
    row_attributes: tuple[str, ...]
    modulus: int
    policy: "Leaf | Gate"

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def columns(self) -> int:
        return len(self.matrix[0])

    def rows_for(self, attributes) -> list[int]:
        attributes = set(attributes)
        return [i for i, a in enumerate(self.row_attributes) if a in attributes]


class ShareSet(Record):
    """A masking vector and the per-row shares it induces."""

    vector: tuple[int, ...]
    shares: tuple[int, ...]

    @property
    def secret(self) -> int:
        return self.vector[0]


def compile_policy(policy: "str | Leaf | Gate", modulus: int) -> AccessStructure:
    """Compile a monotone formula into an access structure over Z_p.

    A tree goes through its canonical text, so every structure's formula
    is one that ``policy_text`` writes and ``parse_policy`` reads back.
    """
    node = parse_policy(policy if isinstance(policy, str) else policy_text(policy))
    rows: list[tuple[list[int], str]] = []
    width = 1

    def assign(n, label: list[int], depth: int):
        nonlocal width
        if depth > MAX_DEPTH:
            raise PolicyError(f"policy nests deeper than {MAX_DEPTH} levels")
        if isinstance(n, Leaf):
            if len(rows) == MAX_LEAVES:
                raise PolicyError(f"policy has more than {MAX_LEAVES} leaves")
            rows.append((label, n.attribute))
            return
        if n.op == "OR":
            assign(n.left, list(label), depth + 1)
            assign(n.right, list(label), depth + 1)
            return
        padded = label + [0] * (width - len(label))
        left_label = padded + [1]
        right_label = [0] * width + [-1]
        width += 1
        assign(n.left, left_label, depth + 1)
        assign(n.right, right_label, depth + 1)

    assign(node, [1], 0)
    matrix = tuple(
        tuple(v % modulus for v in label + [0] * (width - len(label)))
        for label, _ in rows
    )
    return AccessStructure(matrix, tuple(attr for _, attr in rows), modulus, node)


def share(
    structure: AccessStructure,
    secret: Scalar | int,
    rng: Random | None = None,
    tail: tuple[int, ...] | None = None,
) -> ShareSet:
    """Share a secret: vector (w, y2, ..., yn), share_i = vector . row_i.

    The tail (y2, ..., yn) is drawn from ``rng`` unless given explicitly.
    """
    p = structure.modulus
    w = int(secret) % p
    n = structure.columns
    if tail is None:
        if rng is None and n > 1:
            raise ValueError("need rng or an explicit tail")
        tail = tuple(rng.randrange(p) for _ in range(n - 1)) if n > 1 else ()
    if len(tail) != n - 1:
        raise ValueError(f"tail must have {n - 1} entries")
    vector = (w,) + tuple(t % p for t in tail)
    shares = tuple(
        sum(v * m for v, m in zip(vector, row)) % p for row in structure.matrix
    )
    return ShareSet(vector, shares)


def reconstruct_coeffs(
    structure: AccessStructure, attributes
) -> "dict[int, int] | None":
    """Coefficients over I = rows labeled by the attribute set.

    Returns {row_index: omega} covering every row of I (zeros included)
    with sum(omega_i * lambda_i) = w for every sharing, or None when the
    set does not satisfy the structure.  Omega is 1 on the leaves of one
    satisfying subtree and 0 elsewhere; an OR gate takes its left child
    when both are satisfied.
    """
    attributes = set(attributes)
    next_row = 0

    def pick(n) -> "list[int] | None":
        """Rows of a satisfying subtree of n, or None; numbers n's leaves."""
        nonlocal next_row
        if isinstance(n, Leaf):
            next_row += 1
            return [next_row - 1] if n.attribute in attributes else None
        left = pick(n.left)
        right = pick(n.right)
        if n.op == "OR":
            return right if left is None else left
        return None if left is None or right is None else left + right

    picked = pick(structure.policy)
    if picked is None:
        return None
    picked = set(picked)
    return {row: int(row in picked) for row in structure.rows_for(attributes)}
