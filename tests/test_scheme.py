import hashlib
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import (
    ScriptedRng,
    random_formula,
    random_window,
    recompute_step_d_logs,
    satisfying_set,
)
from tskpabe.audit import audit_decryption, predicted_counts, predicted_pairings
from tskpabe.groups import (
    OpCounters,
    SuiteMismatchError,
    TransparentSuite,
)
from tskpabe.lsss import compile_policy, evaluate, reconstruct_coeffs
from tskpabe.scheme import (
    Mode,
    ModeMismatchError,
    PrivateKey,
    TimedKpAbe,
    component_counts,
    ct_from_bytes,
    ct_to_bytes,
    mk_from_bytes,
    mk_to_bytes,
    pk_from_bytes,
    pk_to_bytes,
    sk_from_bytes,
    sk_to_bytes,
)
from tskpabe.timetree import TimeCover, TimeNode, TimeWindow, set_cover
from tskpabe.wire import WireError, pack_u8, pack_u16, pack_u32, pack_u64

P = 2**31 - 1

SUBSCRIPTION_WINDOW = TimeWindow.parse("2022-07-01..2022-09-02")


def make_scheme(mode=Mode.REPAIRED, p=P):
    return TimedKpAbe(TransparentSuite(p), mode)


def make_instance(scheme, policy="gold AND family", attrs=("gold", "family"), seed=1):
    rng = Random(seed)
    pk, mk = scheme.setup(["gold", "family", "platinum"], depth=4, rng=rng)
    access = compile_policy(policy, scheme.suite.p)
    cover = set_cover(SUBSCRIPTION_WINDOW)
    pid = scheme.suite.hash_to_scalar(b"alice")
    sk = scheme.keygen(pk, mk, pid, cover, access, rng=rng)
    message = scheme.suite.random_target(rng)
    ct_cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    ct = scheme.encrypt(pk, message, ct_cover, attrs, rng=rng)
    return pk, mk, sk, ct, message


# ----------------------------------------------------------------------
# Setup.
# ----------------------------------------------------------------------


def test_setup_component_counts():
    scheme = make_scheme()
    pk, _ = scheme.setup(3, depth=4, rng=Random(0))
    assert component_counts(pk) == (14, 1)
    pk, _ = scheme.setup(1, depth=2, rng=Random(0))
    assert component_counts(pk) == (10, 1)


def test_setup_scripted_alpha_exposes_powers():
    scheme = make_scheme(p=101)
    pk, mk = scheme.setup(2, depth=4, rng=ScriptedRng([5]))
    assert mk.alpha == 5
    assert pk.g_alpha.log == 5
    assert pk.g_alpha_sq.log == 25
    assert pk.g_inv_alpha.log == 81  # 5 * 81 = 405 = 4 * 101 + 1


def test_setup_resamples_zero_alpha():
    scheme = make_scheme(p=101)
    pk, mk = scheme.setup(1, depth=2, rng=ScriptedRng([0, 0, 7]))
    assert mk.alpha == 7


def test_setup_inverse_alpha_consistency():
    scheme = make_scheme()
    pk, _ = scheme.setup(2, depth=4, rng=Random(3))
    suite = scheme.suite
    assert suite.pair(pk.g_alpha, pk.g_inv_alpha) == suite.pair(pk.g, pk.g)


def test_setup_rejects_bad_parameters():
    scheme = make_scheme()
    with pytest.raises(ValueError):
        scheme.setup(0, rng=Random(0))
    with pytest.raises(ValueError):
        scheme.setup(3, depth=1, rng=Random(0))
    with pytest.raises(ValueError):
        scheme.setup(["a", "a"], rng=Random(0))
    for label in ("", "and", "(gold)", "gold silver", " gold"):
        with pytest.raises(ValueError, match="not an attribute a policy can name"):
            scheme.setup(["gold", label], rng=Random(0))


def test_setup_bounds_fail_before_any_draw():
    scheme = make_scheme()
    cases = [
        (70_000, 4, "universe size must be <= 65535, got 70000"),
        ([f"a{i}" for i in range(65_536)], 4, "universe size must be <= 65535, got 65536"),
        (3, 256, "tree depth must be <= 255, got 256"),
    ]
    for universe, depth, message in cases:
        rng = Random(0)
        with pytest.raises(ValueError, match=message):
            scheme.setup(universe, depth=depth, rng=rng)
        assert scheme.suite.counters == OpCounters()
        assert rng.getstate() == Random(0).getstate()
    pk, _ = scheme.setup(1, depth=255, rng=Random(0))
    assert pk_from_bytes(pk_to_bytes(pk)).depth == 255


# ----------------------------------------------------------------------
# KeyGen.
# ----------------------------------------------------------------------


def test_keygen_time_components_follow_cover():
    scheme = make_scheme()
    _, _, sk, _, _ = make_instance(scheme)
    assert len(sk.d_time) == 4  # the four node subscription cover
    assert component_counts(sk) == (2 * 2 + 4 + 1, 1)


def test_keygen_single_leaf_single_node_counts():
    scheme = make_scheme()
    rng = Random(2)
    pk, mk = scheme.setup(2, depth=4, rng=rng)
    access = compile_policy("attr1", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08-05")])
    sk = scheme.keygen(pk, mk, 9, cover, access, rng=rng)
    assert component_counts(sk) == (4, 1)


def test_keygen_d0_matches_transparent_oracle():
    scheme = make_scheme(p=101)
    rng = Random(4)
    pk, mk = scheme.setup(2, depth=4, rng=rng)
    access = compile_policy("attr1 AND attr2", 101)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08-05")])
    sk = scheme.keygen(pk, mk, 3, cover, access, rng=rng)
    alpha = mk.alpha
    w = sk.d0_prime.log * alpha % 101
    assert sk.d0.log == alpha * w % 101


def test_keygen_rejects_zero_identity():
    scheme = make_scheme()
    rng = Random(5)
    pk, mk = scheme.setup(2, depth=4, rng=rng)
    access = compile_policy("attr1", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08-05")])
    with pytest.raises(ValueError, match="nonzero"):
        scheme.keygen(pk, mk, 0, cover, access, rng=rng)


def test_keygen_rejects_unknown_attribute_and_deep_node():
    scheme = make_scheme()
    rng = Random(6)
    pk, mk = scheme.setup(["gold"], depth=2, rng=rng)
    cover = TimeCover.from_nodes([TimeNode.parse("2022")])
    with pytest.raises(KeyError):
        scheme.keygen(
            pk, mk, 1, cover, compile_policy("silver", scheme.suite.p), rng=rng
        )
    deep = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    with pytest.raises(ValueError, match="too deep"):
        scheme.keygen(
            pk, mk, 1, deep, compile_policy("gold", scheme.suite.p), rng=rng
        )


# ----------------------------------------------------------------------
# Encrypt.
# ----------------------------------------------------------------------


def test_encrypt_component_counts():
    scheme = make_scheme()
    rng = Random(7)
    pk, _ = scheme.setup(2, depth=4, rng=rng)
    message = scheme.suite.random_target(rng)
    one = scheme.encrypt(
        pk, message, TimeCover.from_nodes([TimeNode.parse("2022-08")]), ["attr1"], rng=rng
    )
    assert component_counts(one) == (3, 1)


def test_encrypt_worst_case_cover_counts():
    scheme = make_scheme()
    rng = Random(8)
    pk, _ = scheme.setup(2, depth=4, rng=rng)
    cover = set_cover(TimeWindow.parse("2022-01-02..2023-12-30"))
    assert len(cover) == 82
    message = scheme.suite.random_target(rng)
    ct = scheme.encrypt(pk, message, cover, ["attr1"], rng=rng)
    assert component_counts(ct) == (165, 1)


def test_encrypt_identity_message_exposes_blinding():
    scheme = make_scheme(p=101)
    rng = Random(9)
    pk, mk = scheme.setup(2, depth=4, rng=rng)
    ct = scheme.encrypt(
        pk,
        scheme.suite.identity_target(),
        TimeCover.from_nodes([TimeNode.parse("2022-08")]),
        ["attr1"],
        rng=rng,
    )
    alpha = mk.alpha
    x = ct.c0_prime.log * pow(alpha * alpha, -1, 101) % 101
    assert ct.c0.log == alpha * x % 101


def test_encrypt_rejects_empty_cover_and_unknown_attribute():
    scheme = make_scheme()
    rng = Random(10)
    pk, _ = scheme.setup(["gold"], depth=4, rng=rng)
    message = scheme.suite.random_target(rng)
    with pytest.raises(ValueError, match="empty"):
        scheme.encrypt(pk, message, TimeCover(()), ["gold"], rng=rng)
    with pytest.raises(KeyError):
        scheme.encrypt(
            pk, message, TimeCover.from_nodes([TimeNode.parse("2022-08")]), ["silver"], rng=rng
        )


# ----------------------------------------------------------------------
# Decrypt.
# ----------------------------------------------------------------------


def test_repaired_roundtrip_month_inside_subscription():
    scheme = make_scheme()
    pk, _, sk, ct, message = make_instance(scheme)
    assert scheme.decrypt(pk, ct, sk) == message


def test_decrypt_denies_day_outside_subscription():
    scheme = make_scheme()
    rng = Random(11)
    pk, mk = scheme.setup(["gold", "family"], depth=4, rng=rng)
    access = compile_policy("gold AND family", scheme.suite.p)
    sk = scheme.keygen(
        pk, mk, 5, set_cover(SUBSCRIPTION_WINDOW), access, rng=rng
    )
    message = scheme.suite.random_target(rng)
    ct = scheme.encrypt(
        pk,
        message,
        TimeCover.from_nodes([TimeNode.parse("2022-09-05")]),
        ["gold", "family"],
        rng=rng,
    )
    assert scheme.decrypt(pk, ct, sk) is None


def test_decrypt_denies_unsatisfied_policy():
    scheme = make_scheme()
    rng = Random(12)
    pk, mk = scheme.setup(["silver", "platinum"], depth=4, rng=rng)
    access = compile_policy("platinum", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    sk = scheme.keygen(pk, mk, 5, cover, access, rng=rng)
    message = scheme.suite.random_target(rng)
    ct = scheme.encrypt(pk, message, cover, ["silver"], rng=rng)
    assert scheme.decrypt(pk, ct, sk) is None


def test_decrypt_pairing_counts():
    scheme = make_scheme()
    pk, _, sk, ct, _ = make_instance(scheme)
    before = scheme.suite.counters.snapshot()
    assert scheme.decrypt(pk, ct, sk) is not None
    assert scheme.suite.counters.since(before).pairings == 7  # two rows used

    rng = Random(13)
    pk, mk = scheme.setup(["a", "b"], depth=4, rng=rng)
    access = compile_policy("a OR b", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    sk = scheme.keygen(pk, mk, 5, cover, access, rng=rng)
    ct = scheme.encrypt(pk, scheme.suite.random_target(rng), cover, ["a"], rng=rng)
    before = scheme.suite.counters.snapshot()
    assert scheme.decrypt(pk, ct, sk) is not None
    assert scheme.suite.counters.since(before).pairings == predicted_pairings(1) == 5


def test_pairing_counter_matches_instrumented_call_log():
    scheme = make_scheme()
    pk, _, sk, ct, _ = make_instance(scheme)
    calls = []
    original = scheme.suite.pair

    def logging_pair(a, b):
        calls.append((a.log, b.log))
        return original(a, b)

    scheme.suite.pair = logging_pair
    try:
        before = scheme.suite.counters.snapshot()
        assert scheme.decrypt(pk, ct, sk) is not None
        delta = scheme.suite.counters.since(before)
    finally:
        del scheme.suite.pair
    assert delta.pairings == len(calls) == 7


def test_denial_runs_no_group_operations():
    scheme = make_scheme()
    rng = Random(14)
    pk, mk = scheme.setup(["a", "b"], depth=4, rng=rng)
    access = compile_policy("a AND b", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    sk = scheme.keygen(pk, mk, 5, cover, access, rng=rng)
    ct_bad_attrs = scheme.encrypt(pk, scheme.suite.random_target(rng), cover, ["a"], rng=rng)
    ct_bad_time = scheme.encrypt(
        pk,
        scheme.suite.random_target(rng),
        TimeCover.from_nodes([TimeNode.parse("2022-09")]),
        ["a", "b"],
        rng=rng,
    )
    for ct in (ct_bad_attrs, ct_bad_time):
        before = scheme.suite.counters.snapshot()
        assert scheme.decrypt(pk, ct, sk) is None
        assert scheme.suite.counters.since(before) == OpCounters()


# The paper's cost model on one scripted instance: (pairings, source
# exponentiations, target exponentiations, multiplications) per algorithm.
# The key covers 2022-07, 2022-08, 2022-09-01 and 2022-09-02; the content
# covers 2022-08 and 2022-09-01, so two nodes match and one is used.
COST_MODEL = {
    Mode.PAPER: {
        "setup": (1, 8, 1, 0),
        "keygen": (0, 21, 1, 13),
        "encrypt": (0, 12, 1, 10),
        "decrypt": (7, 4, 3, 9),
        "denied-time": (0, 0, 0, 0),
        "denied-policy": (0, 0, 0, 0),
    },
    Mode.REPAIRED: {
        "setup": (1, 8, 1, 0),
        "keygen": (0, 21, 1, 10),
        "encrypt": (0, 12, 1, 10),
        "decrypt": (7, 4, 3, 7),
        "denied-time": (0, 0, 0, 0),
        "denied-policy": (0, 0, 0, 0),
    },
}


@pytest.mark.parametrize("mode", list(Mode))
def test_operation_counts_known_answer(mode):
    scheme = make_scheme(mode)
    suite = scheme.suite
    rng = Random(5)
    deltas = {}

    def counted(step, fn, *args, **kwargs):
        before = suite.counters.snapshot()
        result = fn(*args, **kwargs)
        deltas[step] = suite.counters.since(before)
        return result

    pk, mk = counted("setup", scheme.setup, ["gold", "family", "platinum"], depth=4, rng=rng)
    access = compile_policy("(gold OR platinum) AND family", P)
    sk = counted("keygen", scheme.keygen, pk, mk, 12345, set_cover(SUBSCRIPTION_WINDOW),
                 access, rng=rng)
    message = suite.random_target(rng)
    ct_cover = set_cover(TimeWindow.parse("2022-08-01..2022-09-01"))
    ct = counted("encrypt", scheme.encrypt, pk, message, ct_cover, ["gold", "family"], rng=rng)
    recovered = counted("decrypt", scheme.decrypt, pk, ct, sk)
    assert (recovered == message) is (mode is Mode.REPAIRED)
    late = scheme.encrypt(pk, message, set_cover(TimeWindow.parse("2022-10-01..2022-10-31")),
                          ["gold", "family"], rng=rng)
    assert counted("denied-time", scheme.decrypt, pk, late, sk) is None
    weak = scheme.encrypt(pk, message, ct_cover, ["gold", "platinum"], rng=rng)
    assert counted("denied-policy", scheme.decrypt, pk, weak, sk) is None
    assert deltas == {step: OpCounters(*counts) for step, counts in COST_MODEL[mode].items()}


_COST_LABELS = tuple(f"attr{i}" for i in range(1, 9))


@pytest.mark.parametrize("mode", list(Mode))
@given(st.integers(0, 2**32))
def test_operation_counts_follow_the_cost_model(mode, seed):
    """Each algorithm's OpCounters delta equals the closed-form cost model on
    random shapes.  l is the key's row count, T a cover, D the summed depth
    of its nodes and I the key rows the ciphertext's labels name; each
    tuple is (pairings, source exps, target exps, multiplications)."""
    scheme = make_scheme(mode)
    suite = scheme.suite
    paper = mode is Mode.PAPER
    rng = Random(seed)
    pk, mk = scheme.setup(_COST_LABELS, depth=4, rng=rng)
    formula = random_formula(rng, _COST_LABELS, max_leaves=8)
    access = compile_policy(formula, suite.p)
    cover = set_cover(random_window(rng, (2022, 1, 1), (2022, 12, 31)))
    if rng.random() < 0.5:
        ct_cover = TimeCover((rng.choice(cover.nodes),))
    else:
        ct_cover = set_cover(random_window(rng, (2022, 1, 1), (2022, 12, 31)))
    attrs = {a for a in _COST_LABELS if rng.random() < 0.3}
    if rng.random() < 0.5:
        attrs |= satisfying_set(formula, rng)

    def delta(fn, *args, **kwargs):
        before = suite.counters.snapshot()
        result = fn(*args, **kwargs)
        return result, suite.counters.since(before)

    rows = len(access.row_attributes)
    t_key, d_key = len(cover), sum(node.depth for node in cover)
    t_ct, d_ct = len(ct_cover), sum(node.depth for node in ct_cover)
    sk, keygen_ops = delta(scheme.keygen, pk, mk, rng.randrange(1, P), cover, access, rng=rng)
    assert keygen_ops == OpCounters(
        0, 2 * rows + t_key + d_key + 1, 1, d_key + (rows if paper else 0)
    )
    message = suite.random_target(rng)
    ct, encrypt_ops = delta(scheme.encrypt, pk, message, ct_cover, attrs, rng=rng)
    assert encrypt_ops == OpCounters(0, 3 * t_ct + d_ct + 1, 1, 2 * t_ct + d_ct + 1)
    recovered, decrypt_ops = delta(scheme.decrypt, pk, ct, sk)
    labeled = sum(1 for a in access.row_attributes if a in attrs)
    if evaluate(formula, attrs) and set(cover.nodes) & set(ct_cover.nodes):
        assert (recovered == message) is not paper and recovered is not None
        assert decrypt_ops == OpCounters(
            2 * labeled + 3, 2 * labeled, labeled + 1,
            2 * labeled + 3 + (labeled if paper else 0),
        )
    else:
        assert recovered is None and decrypt_ops == OpCounters()


def test_paper_mode_misses_by_the_audited_residual():
    scheme = make_scheme(Mode.PAPER)
    pk, _, sk, ct, message = make_instance(scheme)
    value = scheme.decrypt(pk, ct, sk)
    assert value is not None and value != message
    report = audit_decryption(scheme, pk, ct, sk)
    assert value * report.step("d").residual == message


def test_time_monotonicity_shrinking_cover_never_helps():
    scheme = make_scheme()
    rng = Random(15)
    universe = ["a", "b", "c", "d"]
    for trial in range(40):
        pk, mk = scheme.setup(universe, depth=4, rng=rng)
        formula = random_formula(rng, universe, max_leaves=4)
        access = compile_policy(formula, scheme.suite.p)
        cover = set_cover(random_window(rng, (2022, 1, 1), (2022, 12, 31)))
        sk = scheme.keygen(pk, mk, rng.randrange(1, P), cover, access, rng=rng)
        if trial % 2 == 0:
            ct_cover = TimeCover((rng.choice(cover.nodes),))
        else:
            ct_cover = set_cover(random_window(rng, (2023, 1, 1), (2023, 12, 31)))
        attrs = sorted(satisfying_set(formula, rng))
        ct = scheme.encrypt(pk, scheme.suite.random_target(rng), ct_cover, attrs, rng=rng)
        outcome = scheme.decrypt(pk, ct, sk)
        for drop in range(len(cover)):
            nodes = tuple(n for i, n in enumerate(cover.nodes) if i != drop)
            if not nodes:
                continue
            shrunk = PrivateKey(
                mode=sk.mode,
                pid=sk.pid,
                access=sk.access,
                cover=TimeCover(nodes),
                d0=sk.d0,
                d0_prime=sk.d0_prime,
                d_time=tuple(e for i, e in enumerate(sk.d_time) if i != drop),
                rows=sk.rows,
            )
            shrunk_outcome = scheme.decrypt(pk, ct, shrunk)
            if outcome is None:
                assert shrunk_outcome is None


def test_mode_mismatch_rejected():
    repaired = make_scheme(Mode.REPAIRED)
    paper = make_scheme(Mode.PAPER)
    pk_r, mk_r, sk_r, ct_r, _ = make_instance(repaired)
    pk_p, _, _, ct_p, _ = make_instance(paper)
    with pytest.raises(ModeMismatchError):
        repaired.decrypt(pk_r, ct_p, sk_r)
    with pytest.raises(ModeMismatchError):
        repaired.decrypt(pk_p, ct_r, sk_r)


def test_suite_mismatch_rejected():
    small = TimedKpAbe(TransparentSuite(101))
    big = make_scheme()
    pk_s, _, sk_s, ct_s, _ = make_instance(small)
    pk_b, _, sk_b, ct_b, _ = make_instance(big)
    with pytest.raises(SuiteMismatchError):
        big.decrypt(pk_s, ct_b, sk_b)
    with pytest.raises(SuiteMismatchError):
        big.decrypt(pk_b, ct_b, sk_s)


# ----------------------------------------------------------------------
# Audit.
# ----------------------------------------------------------------------


def test_audit_repaired_all_steps_close():
    scheme = make_scheme()
    pk, _, sk, ct, _ = make_instance(scheme)
    report = audit_decryption(scheme, pk, ct, sk)
    assert [s.step for s in report.steps] == ["a", "b", "c", "d"]
    assert report.all_closed
    for step in report.steps:
        assert step.residual.is_identity()


def test_audit_paper_isolates_attribute_product():
    scheme = make_scheme(Mode.PAPER)
    pk, _, sk, ct, _ = make_instance(scheme)
    report = audit_decryption(scheme, pk, ct, sk)
    assert report.step("a").closed
    assert report.step("b").closed
    assert report.step("c").closed
    step_d = report.step("d")
    assert not step_d.closed

    lhs_log, rhs_log = recompute_step_d_logs(pk, ct, sk, report.node)
    assert step_d.lhs.log == lhs_log
    assert step_d.rhs.log == rhs_log
    assert step_d.residual.log == (lhs_log - rhs_log) % scheme.suite.p


def test_audit_paper_residual_closed_form():
    # residual exponent = beta * (A - beta) * sum(eta_i lambda_i omega_i)
    # with A the exponent of c1_tau.
    scheme = make_scheme(Mode.PAPER)
    pk, _, sk, ct, _ = make_instance(scheme)
    report = audit_decryption(scheme, pk, ct, sk)
    p = scheme.suite.p
    beta = pk.g_beta.log
    assert beta != 0
    inv_beta = pow(beta, -1, p)
    omegas = reconstruct_coeffs(sk.access, ct.attributes)
    _, c1_tau = ct.c_time[ct.cover.nodes.index(report.node)]
    acc = 0
    for i in sorted(omegas):
        d_i, _ = sk.rows[i]
        lam = d_i.log * inv_beta % p
        eta = pk.h_beta_for(sk.access.row_attributes[i]).log * inv_beta % p
        acc += eta * lam * omegas[i]
    expected = beta * (c1_tau.log - beta) % p * acc % p
    assert report.step("d").residual.log == expected


def test_audit_requires_decryptable_instance():
    scheme = make_scheme()
    rng = Random(16)
    pk, mk = scheme.setup(["a", "b"], depth=4, rng=rng)
    access = compile_policy("a AND b", scheme.suite.p)
    cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    sk = scheme.keygen(pk, mk, 5, cover, access, rng=rng)
    ct = scheme.encrypt(pk, scheme.suite.random_target(rng), cover, ["a"], rng=rng)
    with pytest.raises(ValueError, match="not decryptable"):
        audit_decryption(scheme, pk, ct, sk)


# ----------------------------------------------------------------------
# Measurement and serialization.
# ----------------------------------------------------------------------


def test_predicted_count_formulas():
    assert predicted_counts("pk", universe_size=5, depth=4) == (16, 1)
    assert predicted_counts("sk", rows=3, cover_size=4) == (11, 1)
    assert predicted_counts("ct", cover_size=60 + 22) == (165, 1)
    assert predicted_pairings(2) == 7


def test_serialization_roundtrips():
    scheme = make_scheme()
    pk, mk, sk, ct, _ = make_instance(scheme)
    assert pk_from_bytes(pk_to_bytes(pk)) == pk
    assert sk_from_bytes(sk_to_bytes(sk)) == sk
    nested = make_instance(scheme, "(gold OR platinum) AND (family OR gold OR platinum)")[2]
    assert sk_from_bytes(sk_to_bytes(nested)) == nested
    assert ct_from_bytes(ct_to_bytes(ct)) == ct
    assert pk_to_bytes(pk_from_bytes(pk_to_bytes(pk))) == pk_to_bytes(pk)

    mk_bytes = mk_to_bytes(mk, scheme.suite, scheme.mode)
    loaded, mode, suite = mk_from_bytes(mk_bytes)
    assert loaded == mk and mode is scheme.mode and suite == scheme.suite


def test_deserialized_objects_interoperate():
    scheme = make_scheme()
    pk, _, sk, ct, message = make_instance(scheme)
    pk2 = pk_from_bytes(pk_to_bytes(pk))
    sk2 = sk_from_bytes(sk_to_bytes(sk))
    ct2 = ct_from_bytes(ct_to_bytes(ct))
    fresh = TimedKpAbe(pk2.suite, pk2.mode)
    assert fresh.decrypt(pk2, ct2, sk2) == message


def test_serialized_modes_stay_incompatible():
    repaired = make_scheme(Mode.REPAIRED)
    paper = make_scheme(Mode.PAPER)
    pk_r, _, sk_r, _, _ = make_instance(repaired)
    _, _, _, ct_p, _ = make_instance(paper)
    ct_loaded = ct_from_bytes(ct_to_bytes(ct_p))
    assert ct_loaded.mode is Mode.PAPER
    with pytest.raises(ModeMismatchError):
        repaired.decrypt(pk_r, ct_loaded, sk_r)


def test_truncated_serialization_rejected():
    scheme = make_scheme()
    pk, mk, sk, ct, _ = make_instance(scheme)
    cases = [
        (pk_from_bytes, pk_to_bytes(pk)),
        (mk_from_bytes, mk_to_bytes(mk, scheme.suite, scheme.mode)),
        (sk_from_bytes, sk_to_bytes(sk)),
        (ct_from_bytes, ct_to_bytes(ct)),
    ]
    for decode, data in cases:
        for end in range(len(data)):
            with pytest.raises(WireError):
                decode(data[:end])
        with pytest.raises(WireError, match="1 trailing bytes"):
            decode(data + b"\x00")


def test_largest_public_key_roundtrips():
    scheme = make_scheme()
    size, depth = 0xFFFF, 0xFF
    pk, _ = scheme.setup(size, depth=depth, rng=Random(3))
    data = pk_to_bytes(pk)
    loaded = pk_from_bytes(data)
    assert loaded == pk
    assert pk_to_bytes(loaded) == data
    width = scheme.suite.scalar_width
    header = 12 + width + 3  # magic .. modulus, then u16 universe size and u8 depth
    labels = sum(4 + len(label) for label in pk.universe)
    assert len(data) == header + labels + (size + depth + 8) * width
    assert loaded.h_beta_for(f"attr{size}") == loaded.h_beta[-1]


# SHA-256 of pk, mk, sk and ct bytes and of the decrypted message's
# encoding, for setup/keygen/encrypt seeded with Random(2022).
KNOWN_ANSWERS = {
    Mode.PAPER: (
        "03a0909ae8f26514eda442033cf196110679156ebae4acaeac6ed7f075995b4e",
        "3a53f9fd01cb2e8e1439aa3a5202ee8466901c48c0c5c8e1bd50ae1d43e6c591",
        "ab7b9b7b79255f4a605e60ca099216bdf2f2751266a33f9b8713f725f2334c5a",
        "5eaecdc690102484a5312bd7516dbfcd505074eba55c34df7188cec1ddd5a352",
        "9931986af48247781b1d50d9306a338bf621a89bd681200c68bade98d42597d9",
    ),
    Mode.REPAIRED: (
        "8e89dc9fbc83affaaac5254d5b44e0fd6919724be3b556447e644e4c11df8d7f",
        "11fe6b7cc8bb84eca2c01697e91cf6a70b96ce6d9fe4743c4bb2b1971f0f07e4",
        "c19212429e056da852c2093b0c402f56183c8bd53ade74e1d9b60a96d85884b2",
        "32af6038032515f39b4c474b9ed11eb6a29bbcfaa611e488d2dbb6b9322cfd08",
        "c9228da941db8d7c691cd9707b0888e5a678f8e938715878c06cdf086ec6452f",
    ),
}


@pytest.mark.parametrize("mode", list(Mode))
def test_key_and_ciphertext_known_answers(mode):
    scheme = make_scheme(mode)
    suite = scheme.suite
    rng = Random(2022)
    pk, mk = scheme.setup(["gold", "family", "platinum"], depth=4, rng=rng)
    access = compile_policy("(gold OR platinum) AND family", P)
    pid = suite.hash_to_scalar(b"alice")
    sk = scheme.keygen(pk, mk, pid, set_cover(SUBSCRIPTION_WINDOW), access, rng=rng)
    ct_cover = TimeCover.from_nodes([TimeNode.parse("2022-08")])
    ct = scheme.encrypt(pk, suite.random_target(rng), ct_cover, ["gold", "family"], rng=rng)
    blobs = (
        pk_to_bytes(pk),
        mk_to_bytes(mk, suite, mode),
        sk_to_bytes(sk),
        ct_to_bytes(ct),
        suite.encode_element(scheme.decrypt(pk, ct, sk)),
    )
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == KNOWN_ANSWERS[mode]


def _raised_by_p(data: bytes, offset: int, suite, expected: int) -> bytes:
    """Add p to the fixed-width field at offset, which must hold expected."""
    width = suite.scalar_width
    value = int.from_bytes(data[offset : offset + width], "big")
    assert value == expected
    return data[:offset] + (value + suite.p).to_bytes(width, "big") + data[offset + width :]


def test_out_of_range_fields_rejected():
    scheme = make_scheme()
    suite = scheme.suite
    pk, mk, sk, ct, _ = make_instance(scheme)
    width = suite.scalar_width
    header = 12 + width  # magic, version, kind, mode, suite id, u32 length, modulus
    pk_bytes, ct_bytes = pk_to_bytes(pk), ct_to_bytes(ct)
    sk_bytes = sk_to_bytes(sk)
    cases = [
        (pk_from_bytes, pk_bytes, len(pk_bytes) - width, pk.e_gg_alpha.log),
        (ct_from_bytes, ct_bytes, len(ct_bytes) - width, ct.c_time[-1][1].log),
        (sk_from_bytes, sk_bytes, header + 1, sk.pid),
        (mk_from_bytes, mk_to_bytes(mk, suite, scheme.mode), header + 1, mk.alpha),
    ]
    for decode, data, offset, expected in cases:
        with pytest.raises(WireError, match="out of range"):
            decode(_raised_by_p(data, offset, suite, expected))


def test_zero_pid_key_rejected():
    scheme = make_scheme()
    _, _, sk, _, _ = make_instance(scheme)
    width = scheme.suite.scalar_width
    offset = 12 + width + 1  # header, then the private-key marker
    data = sk_to_bytes(sk)
    zeroed = data[:offset] + bytes(width) + data[offset + width :]
    with pytest.raises(WireError, match="zero pseudo-identity"):
        sk_from_bytes(zeroed)
    # Marker 1 is the retired private-key format, which carried a matrix.
    retired = data[: offset - 1] + b"\x01" + data[offset:]
    with pytest.raises(WireError, match="retired matrix format"):
        sk_from_bytes(retired)


def test_zero_alpha_master_key_rejected():
    scheme = make_scheme()
    _, mk, _, _, _ = make_instance(scheme)
    width = scheme.suite.scalar_width
    offset = 12 + width + 1  # header, then the master-key marker
    data = mk_to_bytes(mk, scheme.suite, scheme.mode)
    zeroed = data[:offset] + bytes(width) + data[offset + width :]
    with pytest.raises(WireError, match="zero alpha"):
        mk_from_bytes(zeroed)


def test_wire_fields_reject_values_too_wide():
    for pack, bits in ((pack_u8, 8), (pack_u16, 16), (pack_u32, 32), (pack_u64, 64)):
        assert pack(2**bits - 1) == b"\xff" * (bits // 8)
        for value in (2**bits, -1):
            with pytest.raises(WireError, match=f"value {value} does not fit an unsigned {bits}"):
                pack(value)
