"""Monotone AND/OR policies as linear secret-sharing schemes over Z_p.

Secrets, shares and reconstruction coefficients are plain ints mod p.

A policy has one row per leaf, left to right.  Sharing a secret w walks
the formula top-down: the root carries w, an OR gate hands its value to
both children, and the k-th AND gate in preorder draws y_k and hands
value + y_k to its left child and -y_k to its right.  Leaf i's value is
its share lambda_i = v . M_i, with v = (w, y_1, ..., y_n) and M the
standard vector-labelling matrix: the root's label is (1), an OR gate
copies its label to both children, and the k-th AND gate hands (label, 1
in column k) left and (-1 in column k) right.  The walk draws y_k when it
enters that gate, in preorder, so the draws come in column order and the
shares equal the matrix sharing's under the same rng; M is never built.

To reconstruct, pick a satisfying subtree (both children of an AND gate,
one satisfied child of an OR gate).  Under this labelling its rows sum to
the root label (1, 0, ..., 0), as Lewko and Waters observe
("Decentralizing Attribute-Based Encryption", Eurocrypt 2011, appendix
G), so omega_i = 1 on those rows and 0 elsewhere gives
sum(omega_i * lambda_i) = w.  A set that fails the formula has no such
subtree, and no coefficients exist.  ``compile_policy`` also records the
formula in postfix order, and reconstruction runs over that with one row
bitmask per subtree, so no decryption walks the tree.

Key files carry policy text, so parsing and compiling refuse formulas
deeper than MAX_DEPTH or with more than MAX_LEAVES leaves, which keeps
every recursive walk well inside Python's recursion limit.
"""

import re
from random import Random

from . import Record, _set

# A parenthesis, an identifier, or any other character, which is an error.
# Every position matches, so one finditer pass reads the text linearly.
_TOKEN_RE = re.compile(r"\s*(?:([()])|([A-Za-z_][A-Za-z0-9_\-]*)|([\s\S]))")

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
    """Tokens left to right, keywords upper-cased.  An error's offset is
    where the whitespace before the bad character starts."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        paren, word, bad = m.groups()
        if word is not None:
            upper = word.upper()
            tokens.append(upper if upper == "AND" or upper == "OR" else word)
        elif bad is None:
            tokens.append(paren)
        else:
            pos = m.start()
            raise PolicyError(f"bad character in policy at offset {pos}: {text[pos:]!r}")
    return tokens


def names_attribute(label: str) -> bool:
    """Whether a policy can name ``label``: it is one identifier token and
    not the keyword AND or OR, in any case."""
    m = _TOKEN_RE.fullmatch(label)
    return m is not None and m[2] == label and label.upper() not in ("AND", "OR")


def parse_policy(text: str) -> "Leaf | Gate":
    """Parse ``ident``, ``AND``, ``OR`` and parentheses.  AND binds tighter."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolicyError("empty policy")
    end = len(tokens)
    tokens.append(None)  # the end: every path that takes it raises
    pos = 0
    depth = 0

    def parse_or():
        nonlocal pos
        node = parse_and()
        while tokens[pos] == "OR":
            pos += 1
            node = Gate("OR", node, parse_and())
        return node

    def parse_and():
        nonlocal pos
        node = parse_atom()
        while tokens[pos] == "AND":
            pos += 1
            node = Gate("AND", node, parse_atom())
        return node

    def parse_atom():
        nonlocal pos, depth
        token = tokens[pos]
        pos += 1
        if token == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise PolicyError(f"policy nests deeper than {MAX_DEPTH} levels")
            node = parse_or()
            if tokens[pos] != ")":
                raise PolicyError("unbalanced parentheses")
            pos += 1
            depth -= 1
            return node
        if token in (None, ")", "AND", "OR"):
            raise PolicyError(f"unexpected token {token!r}")
        return Leaf(token)

    root = parse_or()
    if pos != end:
        raise PolicyError(f"trailing tokens: {tokens[pos:end]}")
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
    """A formula with its row-to-attribute map (row i is its i-th leaf),
    the modulus its shares live in, and the formula in postfix order:
    a leaf is its row index, an AND gate -1 and an OR gate -2."""

    row_attributes: tuple[str, ...]
    modulus: int
    policy: "Leaf | Gate"
    program: tuple[int, ...]

    @property
    def rows(self) -> int:
        return len(self.row_attributes)

    def rows_for(self, attributes) -> list[int]:
        attributes = set(attributes)
        return [i for i, a in enumerate(self.row_attributes) if a in attributes]


def compile_policy(policy: "str | Leaf | Gate", modulus: int) -> AccessStructure:
    """Compile a monotone formula into an access structure over Z_p.

    A tree goes through its canonical text, so every structure's formula
    is one that ``policy_text`` writes and ``parse_policy`` reads back.
    """
    node = parse_policy(policy if isinstance(policy, str) else policy_text(policy))
    leaves: list[str] = []
    program: list[int] = []

    def collect(n, depth: int):
        if depth > MAX_DEPTH:
            raise PolicyError(f"policy nests deeper than {MAX_DEPTH} levels")
        if isinstance(n, Leaf):
            if len(leaves) == MAX_LEAVES:
                raise PolicyError(f"policy has more than {MAX_LEAVES} leaves")
            program.append(len(leaves))
            leaves.append(n.attribute)
            return
        collect(n.left, depth + 1)
        collect(n.right, depth + 1)
        program.append(-1 if n.op == "AND" else -2)

    collect(node, 0)
    return AccessStructure(tuple(leaves), modulus, node, tuple(program))


def share(structure: AccessStructure, secret: int, rng: Random) -> tuple[int, ...]:
    """The shares lambda_i of a secret, one per row, by the tree walk of
    the module docstring."""
    p = structure.modulus
    shares: list[int] = []

    def walk(n, value: int):
        if isinstance(n, Leaf):
            shares.append(value % p)
        elif n.op == "OR":
            walk(n.left, value)
            walk(n.right, value)
        else:
            y = rng.randrange(p)
            walk(n.left, value + y)
            walk(n.right, -y)

    walk(structure.policy, secret % p)
    return tuple(shares)


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
    rows = structure.rows_for(attributes)
    have = 0
    for row in rows:
        have |= 1 << row
    # Each value is the row bitmask of a satisfying subtree, 0 for none.
    stack = []
    for op in structure.program:
        if op >= 0:
            stack.append(have & 1 << op)
            continue
        right = stack.pop()
        left = stack[-1]
        if op == -1:
            stack[-1] = left | right if left and right else 0
        elif not left:
            stack[-1] = right
    [picked] = stack
    if not picked:
        return None
    return {row: picked >> row & 1 for row in rows}
