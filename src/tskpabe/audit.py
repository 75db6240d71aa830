"""Decryption-equation audit and the size/pairing bench of ``scheme``.

Only the ``audit`` and ``bench`` commands read this module, so the key
commands do not load it.
"""

from random import Random

from . import Record, lsss
from .groups import TargetElement
from .scheme import Ciphertext, Mode, PrivateKey, PublicParams, TimedKpAbe, component_counts
from .timetree import TimeCover, TimeNode, next_day


class AuditStep(Record):
    step: str
    name: str
    lhs: TargetElement
    rhs: TargetElement
    residual: TargetElement
    closed: bool


class AuditReport(Record):
    mode: Mode
    node: TimeNode
    steps: tuple[AuditStep, ...]
    # Whether the ciphertext binds its attribute labels.  In neither mode
    # does any ciphertext component depend on them, so it is always False.
    attributes_bound: bool

    @property
    def all_closed(self) -> bool:
        return all(step.closed for step in self.steps)

    def step(self, label: str) -> AuditStep:
        for s in self.steps:
            if s.step == label:
                return s
        raise KeyError(label)


def audit_decryption(
    scheme: TimedKpAbe, pk: PublicParams, ct: Ciphertext, sk: PrivateKey
) -> AuditReport:
    """Check the decryption equation's derivation step by step.

    Each step compares one side of a claimed identity against the other
    and reports the quotient as a target-group residual.  Relies on the
    suite being transparent: per-instance exponents are read off the
    public parameters, key and ciphertext to build the comparison values.
    """
    scheme._check_pk(pk)
    scheme._check_pair_compat(ct, sk)
    suite = scheme.suite
    common = scheme._common_node(ct, sk)
    omegas = lsss.reconstruct_coeffs(sk.access, ct.attributes) if common else None
    if omegas is None:
        raise ValueError("instance is not decryptable, nothing to audit")
    node, i_key, i_ct = common
    p = suite.p
    g = pk.g
    alpha = pk.g_alpha.log
    beta = pk.g_beta.log
    x = ct.c0_prime.log * pow(alpha * alpha % p, -1, p) % p
    w = sk.d0_prime.log * alpha % p
    d_time = sk.d_time[i_key]
    c0_tau, c1_tau = ct.c_time[i_ct]
    v_tau = c0_tau.log
    e_gg = suite.gt_generator()
    g_w = g**w
    inv_pid = pow(sk.pid, -1, p)

    steps = []

    def record(step, name, lhs, rhs):
        residual = lhs * rhs.inverse()
        steps.append(
            AuditStep(step, name, lhs, rhs, residual, residual.is_identity())
        )

    record(
        "a",
        "blinding-factor-recovery",
        suite.pair(ct.c0_prime, pk.g_inv_alpha),
        e_gg ** (alpha * x),
    )
    record(
        "b",
        "masked-secret-pairing",
        suite.pair(ct.c0_prime, sk.d0_prime),
        e_gg ** (alpha * x * w),
    )
    record(
        "c",
        "time-term-cancellation",
        suite.pair(d_time, c0_tau),
        suite.pair(scheme._time_base(pk, node) ** v_tau, g_w),
    )
    lhs_d = suite.identity_target()
    for i, omega in sorted(omegas.items()):
        d_i, d_i_prime = sk.rows[i]
        k_i = scheme._helper_k(pk, sk.access.row_attributes[i])
        lhs_d = lhs_d * (
            suite.pair(c1_tau, d_i_prime ** (omega * inv_pid))
            * suite.pair(d_i, k_i) ** omega
        )
    rhs_d = suite.pair(c1_tau, g_w) * suite.pair(g ** (beta * w), g ** (p - beta))
    record("d", "attribute-product-collapse", lhs_d, rhs_d)
    return AuditReport(scheme.mode, node, tuple(steps), attributes_bound=False)


def predicted_counts(kind: str, **params) -> tuple[int, int]:
    """Published size formulas: pk = U + T + 7, sk = 2l + |T| + 1,
    ct = 2|Tc| + 1 source elements, each plus one target element."""
    if kind == "pk":
        return (params["universe_size"] + params["depth"] + 7, 1)
    if kind == "sk":
        return (2 * params["rows"] + params["cover_size"] + 1, 1)
    if kind == "ct":
        return (2 * params["cover_size"] + 1, 1)
    raise ValueError(f"unknown kind {kind!r}")


def predicted_pairings(used_rows: int) -> int:
    return 2 * used_rows + 3


def _bench_cover(start_day, size) -> TimeCover:
    nodes = []
    day = start_day
    for _ in range(size):
        nodes.append(TimeNode(day))
        day = next_day(day)
    return TimeCover.from_nodes(nodes)


def bench_instance(suite, mode: Mode, U: int, depth: int, l: int, tk: int, tc: int, seed: int):
    """Build one instance for the size/pairing bench and measure it."""
    scheme = TimedKpAbe(suite, mode)
    rng = Random(seed)
    pk, mk = scheme.setup(U, depth=depth, rng=rng)
    policy = " AND ".join(pk.universe[i % U] for i in range(l))
    access = lsss.compile_policy(policy, suite.p)
    key_cover = _bench_cover((2022, 3, 10), tk)
    ct_cover = _bench_cover((2022, 3, 10), tc)
    pid = suite.hash_to_scalar(b"bench-pid")
    sk = scheme.keygen(pk, mk, pid, key_cover, access, rng=rng)
    message = suite.random_target(rng)
    ct = scheme.encrypt(pk, message, ct_cover, pk.universe, rng=rng)
    before = suite.counters.snapshot()
    recovered = scheme.decrypt(pk, ct, sk)
    pairings = suite.counters.since(before).pairings
    used_rows = len(sk.access.rows_for(ct.attributes))
    return {
        "pk": (component_counts(pk), predicted_counts("pk", universe_size=U, depth=depth)),
        "sk": (component_counts(sk), predicted_counts("sk", rows=l, cover_size=tk)),
        "ct": (component_counts(ct), predicted_counts("ct", cover_size=tc)),
        "pairings": (pairings, predicted_pairings(used_rows)),
        "used_rows": used_rows,
        "decrypted": recovered is not None,
    }
