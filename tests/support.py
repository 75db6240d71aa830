"""Shared test helpers: independent oracles and generators.

The oracles here deliberately avoid the production code paths they check:
the cover-size oracle is a dynamic program over day positions, the
worst-case cover size is a closed-form bound, the day arithmetic comes
from ``datetime`` and ``calendar``, the formula helpers work on the parsed
tree only, and the share matrix is the vector-labelling construction that
``lsss.share``'s tree walk stands in for.
"""

import datetime
from calendar import isleap, monthrange
from random import Random

from tskpabe.lsss import Gate, Leaf, evaluate
from tskpabe.timetree import TimeCover, TimeNode, TimeWindow


def ordinal(day) -> int:
    return datetime.date(*day).toordinal()


def from_ordinal(n: int):
    d = datetime.date.fromordinal(n)
    return (d.year, d.month, d.day)


def min_cover_size_dp(window: TimeWindow) -> int:
    """Minimum number of tree nodes tiling the window, by dynamic
    programming over day positions.  Every tiling is a left-to-right
    sequence of aligned year/month/day blocks, so dp[i] is the cheapest
    tiling of the suffix starting at day i."""
    start_ord = ordinal(window.start)
    n = ordinal(window.end) - start_ord + 1
    INF = n + 1
    dp = [INF] * (n + 1)
    dp[n] = 0
    for i in range(n - 1, -1, -1):
        year, month, dom = from_ordinal(start_ord + i)
        best = dp[i + 1] + 1  # single day block
        if dom == 1:
            month_len = monthrange(year, month)[1]
            if i + month_len <= n:
                best = min(best, dp[i + month_len] + 1)
            if month == 1:
                year_len = 366 if isleap(year) else 365
                if i + year_len <= n:
                    best = min(best, dp[i + year_len] + 1)
        dp[i] = best
    return dp[0]


def worst_case_cover_size(years: int) -> int:
    """Largest possible cover for a window touching the given number of years:
    60 day nodes, 22 month nodes, and one year node per fully enclosed year."""
    if years < 1:
        raise ValueError("years must be >= 1")
    return 60 + 22 + (years - 1)


def random_window(rng: Random, lo_day, hi_day) -> TimeWindow:
    lo, hi = ordinal(lo_day), ordinal(hi_day)
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    if a > b:
        a, b = b, a
    return TimeWindow(from_ordinal(a), from_ordinal(b))


def random_formula(rng: Random, attributes, max_leaves: int = 6):
    """Random AND/OR tree with between 1 and max_leaves leaves."""
    leaves = [Leaf(rng.choice(list(attributes))) for _ in range(rng.randint(1, max_leaves))]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i] = Gate(rng.choice(["AND", "OR"]), leaves[i], leaves.pop(i + 1))
    return leaves[0]


def share_matrix(node, modulus: int) -> list[list[int]]:
    """Vector-labelling share matrix of a formula, one row per leaf from
    left to right: the root carries (1), an OR gate copies its label to
    both children, and the k-th AND gate in preorder hands (label, 1 in
    column k) to its left child and (-1 in column k) to its right."""
    labels = []
    width = 1

    def assign(n, label):
        nonlocal width
        if isinstance(n, Leaf):
            labels.append(label)
        elif n.op == "OR":
            assign(n.left, label)
            assign(n.right, label)
        else:
            column = width
            width += 1
            assign(n.left, label + [0] * (column - len(label)) + [1])
            assign(n.right, [0] * column + [-1])

    assign(node, [1])
    return [[v % modulus for v in label + [0] * (width - len(label))] for label in labels]


def satisfying_set(node, rng: Random) -> set[str]:
    if isinstance(node, Leaf):
        return {node.attribute}
    if node.op == "AND":
        return satisfying_set(node.left, rng) | satisfying_set(node.right, rng)
    return satisfying_set(rng.choice([node.left, node.right]), rng)


def violating_set(node, attributes, rng: Random) -> set[str]:
    """An attribute set the formula evaluates to False on.  The empty set
    always works for a monotone formula, so this never fails."""
    for _ in range(20):
        candidate = {a for a in attributes if rng.random() < 0.4}
        if not evaluate(node, candidate):
            return candidate
    return set()


def contiguous_day_cover(start_day, size: int) -> TimeCover:
    """Cover made of consecutive single-day nodes."""
    start = ordinal(start_day)
    return TimeCover.from_nodes([TimeNode(from_ordinal(start + i)) for i in range(size)])


def recompute_steps_abc_logs(pk, ct, sk, node) -> dict[str, tuple[int, int]]:
    """Plain-integer recomputation of the first three audit steps."""
    p = pk.suite.p
    alpha = pk.g_alpha.log
    x = ct.c0_prime.log * pow(alpha * alpha % p, -1, p) % p
    w = sk.d0_prime.log * alpha % p
    idx = ct.cover.nodes.index(node)
    c0_tau, _ = ct.c_time[idx]
    v_tau = c0_tau.log
    d_time = sk.d_time[sk.cover.nodes.index(node)]
    base = pk.v[0].log
    for level, label in enumerate(node.components, start=1):
        base += pk.v[level].log * label
    base %= p
    return {
        "a": (ct.c0_prime.log * pk.g_inv_alpha.log % p, alpha * x % p),
        "b": (ct.c0_prime.log * sk.d0_prime.log % p, alpha * x * w % p),
        "c": (d_time.log * v_tau % p, base * v_tau * w % p),
    }


def recompute_step_d_logs(pk, ct, sk, node) -> tuple[int, int]:
    """Plain-integer recomputation of the attribute-product audit step,
    reading exponents straight off the transparent elements instead of
    going through the suite's group operations."""
    from tskpabe.lsss import reconstruct_coeffs
    from tskpabe.scheme import Mode

    p = pk.suite.p
    alpha = pk.g_alpha.log
    beta = pk.g_beta.log
    w = sk.d0_prime.log * alpha % p
    _, c1_tau = ct.c_time[ct.cover.nodes.index(node)]
    omegas = reconstruct_coeffs(sk.access, ct.attributes)
    inv_pid = pow(sk.pid, -1, p)
    lhs = 0
    for i in sorted(omegas):
        omega = omegas[i]
        d_i, d_i_prime = sk.rows[i]
        label = sk.access.row_attributes[i]
        lhs += c1_tau.log * (d_i_prime.log * omega * inv_pid)
        if sk.mode is Mode.PAPER:
            k_log = -(pk.g_beta.log + pk.h_beta_for(label).log)
        else:
            k_log = -pk.g_beta.log
        lhs += d_i.log * k_log * omega
    rhs = c1_tau.log * w + (beta * w) * (-beta)
    return lhs % p, rhs % p


class ScriptedRng(Random):
    """Random that first replays a fixed script of randrange results."""

    def __new__(cls, script, seed: int = 0):
        return super().__new__(cls, seed)

    def __init__(self, script, seed: int = 0):
        super().__init__(seed)
        self._script = list(script)

    def randrange(self, *args, **kwargs):
        if self._script:
            return self._script.pop(0)
        return super().randrange(*args, **kwargs)
