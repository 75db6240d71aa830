import hashlib
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import from_ordinal, ordinal
from tskpabe.groups import TransparentSuite
from tskpabe.scheme import Mode, TimedKpAbe, component_counts
from tskpabe.subscription import (
    Block,
    InfotainmentAgent,
    LedgerEntry,
    RevocationLedger,
    SubscriptionService,
    derive_pseudo_id,
)
from tskpabe.timetree import TimeCover, TimeNode, TimeWindow, parse_day

P = 2**31 - 1


@pytest.fixture
def provider():
    scheme = TimedKpAbe(TransparentSuite(P), Mode.REPAIRED)
    rng = Random(77)
    pk, mk = scheme.setup(["gold", "family", "platinum"], depth=4, rng=rng)
    return SubscriptionService(scheme, pk, mk, clock=(2022, 6, 1), rng=rng)


def test_pseudo_id_deterministic_and_nonzero():
    suite = TransparentSuite(P)
    a = derive_pseudo_id(suite, "alice", (2022, 7, 1), b"n1")
    b = derive_pseudo_id(suite, "alice", (2022, 7, 1), b"n1")
    assert a == b
    assert a.scalar != 0
    assert a.display.startswith("pid:")


def test_pseudo_id_varies_with_start_and_nonce():
    # A large modulus keeps accidental collisions out of a 10k sample.
    suite = TransparentSuite(2**61 - 1)
    base = ordinal((2000, 1, 1))
    pids = {
        derive_pseudo_id(suite, "alice", from_ordinal(base + i)).scalar
        for i in range(10_000)
    }
    assert len(pids) == 10_000
    assert derive_pseudo_id(suite, "alice", (2022, 7, 1), b"a") != derive_pseudo_id(
        suite, "alice", (2022, 7, 1), b"b"
    )


def test_subscribe_issues_key_over_window_cover(provider):
    record = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold AND family"
    )
    assert record.key.cover.texts() == ["2022-07", "2022-08", "2022-09-01", "2022-09-02"]
    assert len(record.key.d_time) == 4
    assert record.key.pid == record.pseudo_identity.scalar
    assert record.attributes == ("family", "gold")


def test_subscribe_one_day_window(provider):
    record = provider.subscribe("bob", TimeWindow.parse("2022-08-05..2022-08-05"), "gold")
    assert len(record.key.d_time) == 1
    assert component_counts(record.key) == (2 * 1 + 1 + 1, 1)


def test_subscribed_key_decrypts_matching_month(provider):
    record = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold AND family"
    )
    scheme, pk = provider.scheme, provider.pk
    message = scheme.suite.random_target(provider.rng)
    ct = scheme.encrypt(
        pk,
        message,
        TimeCover.from_nodes([TimeNode.parse("2022-08")]),
        ["gold", "family"],
        rng=provider.rng,
    )
    assert scheme.decrypt(pk, ct, record.key) == message


def test_subscribe_rejects_past_window(provider):
    with pytest.raises(ValueError, match="before the provider clock"):
        provider.subscribe("alice", TimeWindow.parse("2022-01-01..2022-02-01"), "gold")
    provider.clock = (2022, 2, 30)
    with pytest.raises(ValueError, match="invalid day 2022-02-30"):
        provider.subscribe("alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold")


def test_revoke_then_daily_check_denies(provider):
    record = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold AND family"
    )
    ledger = RevocationLedger()
    agent = InfotainmentAgent(ledger)
    pid = record.pseudo_identity.display
    assert agent.daily_check(pid, (2022, 7, 9)) == InfotainmentAgent.ACTIVE
    ledger.revoke(pid, (2022, 9, 2), now=(2022, 7, 10))
    assert agent.daily_check(pid, (2022, 7, 10)) == InfotainmentAgent.REVOKED


def test_agent_caches_verdict_within_a_day():
    ledger = RevocationLedger()
    agent = InfotainmentAgent(ledger)
    assert agent.daily_check("pid:1", (2022, 7, 10)) == InfotainmentAgent.ACTIVE
    ledger.revoke("pid:1", (2022, 9, 2), now=(2022, 7, 10))
    # Same day: cached verdict survives the mid-day revocation.
    assert agent.daily_check("pid:1", (2022, 7, 10)) == InfotainmentAgent.ACTIVE
    assert agent.daily_check("pid:1", (2022, 7, 11)) == InfotainmentAgent.REVOKED


def test_reissue_restores_service(provider):
    ledger = RevocationLedger()
    agent = InfotainmentAgent(ledger)
    first = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold", nonce=b"1"
    )
    ledger.revoke(first.pseudo_identity.display, (2022, 9, 2), now=(2022, 7, 10))
    assert (
        agent.daily_check(first.pseudo_identity.display, (2022, 7, 11))
        == InfotainmentAgent.REVOKED
    )
    second = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-15..2022-10-15"), "gold", nonce=b"2"
    )
    assert second.pseudo_identity != first.pseudo_identity
    assert (
        agent.daily_check(second.pseudo_identity.display, (2022, 7, 16))
        == InfotainmentAgent.ACTIVE
    )


def test_revoke_idempotent():
    ledger = RevocationLedger()
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 10))
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 12))
    assert len(ledger.entries()) == 1
    assert any("duplicate" in w for w in ledger.warnings)


def test_prune_strictly_after_expiry():
    ledger = RevocationLedger()
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 10))
    assert ledger.prune((2022, 9, 2)) == 0  # expiry day itself is retained
    assert ledger.lookup("pid:7") is not None
    assert ledger.prune((2022, 9, 3)) == 1
    assert ledger.lookup("pid:7") is None
    assert ledger.verify()
    assert ledger.blocks[0].kind == "prune"
    assert ledger.blocks[0].payload["removed"] == 1


def test_prune_empty_ledger():
    ledger = RevocationLedger()
    assert ledger.prune((2022, 9, 3)) == 0
    assert ledger.verify()


def test_prune_keeps_unexpired_entries():
    ledger = RevocationLedger()
    ledger.revoke("pid:1", (2022, 9, 2), now=(2022, 7, 10))
    ledger.revoke("pid:2", (2022, 12, 31), now=(2022, 7, 11))
    prior_head = ledger.blocks[-1].digest
    assert ledger.prune((2022, 10, 1)) == 1
    assert ledger.lookup("pid:2") is not None
    assert ledger.verify()
    assert ledger.blocks[0].payload["prior_head"] == prior_head


def test_mutating_an_entry_breaks_verification():
    ledger = RevocationLedger()
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 10))
    ledger.revoke("pid:8", (2022, 9, 9), now=(2022, 7, 11))
    assert ledger.verify()
    ledger.blocks[0].payload["entries"][0]["pid"] = "pid:9"
    assert not ledger.verify()


def test_ledger_text_roundtrip(tmp_path):
    ledger = RevocationLedger()
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 10))
    ledger.prune((2022, 10, 1))
    ledger.revoke("pid:8", (2022, 11, 2), now=(2022, 10, 2))
    path = tmp_path / "ledger.jsonl"
    ledger.save(path)
    loaded = RevocationLedger.load(path)
    assert loaded.verify()
    assert [b.digest for b in loaded.blocks] == [b.digest for b in ledger.blocks]
    assert loaded.lookup("pid:8") is not None


@pytest.mark.parametrize(
    "bad",
    [
        "{}",
        "[1,2]",
        "not json",
        '{"index":1,"kind":"entries","prev":"","payload":{},"digest":""}',
        '{"index":1,"kind":"entries","prev":"","payload":{"entries":"x"},"digest":""}',
        '{"index":1,"kind":"entries","prev":"","payload":{"entries":[{"pid":"p"}]},"digest":""}',
        # a pid already listed, a stamp without a sequence number, an invalid day
        '{"index":1,"kind":"entries","prev":"","payload":{"entries":[{"pid":"pid:7",'
        '"expected_expiry":"2022-09-03","tx_timestamp":"2022-07-11/2"}]},"digest":""}',
        '{"index":1,"kind":"entries","prev":"","payload":{"entries":[{"pid":"pid:8",'
        '"expected_expiry":"2022-09-03","tx_timestamp":"2022-07-11"}]},"digest":""}',
        '{"index":1,"kind":"entries","prev":"","payload":{"entries":[{"pid":"pid:8",'
        '"expected_expiry":"2022-02-30","tx_timestamp":"2022-07-11/2"}]},"digest":""}',
        # a prune block whose stamp counter is not an integer
        '{"index":1,"kind":"prune","prev":"","payload":{"tx_seq":"3"},"digest":""}',
        '{"index":1,"kind":"prune","prev":"","payload":{"tx_seq":1e999},"digest":""}',
    ],
)
def test_malformed_ledger_line_names_its_number(bad):
    ledger = RevocationLedger()
    ledger.revoke("pid:7", (2022, 9, 2), now=(2022, 7, 10))
    with pytest.raises(ValueError, match="^ledger line 3: "):
        RevocationLedger.from_text(ledger.to_text() + "\n" + bad + "\n")


def test_ledger_bytes_match_known_answer():
    """The block bytes of a fixed revoke/prune sequence, pinned by a SHA-256.
    Entry blocks are unchanged since the first release; the hash was
    re-pinned when prune blocks began to record the stamp counter."""
    ledger = RevocationLedger()
    for k in range(40):
        day = (2022, 1 + k % 12, 1 + k % 28)
        ledger.revoke(f"pid:{k:x}", (2022 + k % 3, 1 + (7 * k) % 12, 1 + (5 * k) % 28), day)
        if k % 9 == 8:
            ledger.prune((2022, 1 + k % 12, 15))
    ledger.revoke("pid:3", (2030, 1, 1), (2024, 6, 1))
    ledger.prune((2023, 6, 1))
    ledger.revoke("pid:ff", (2025, 1, 1), (2023, 6, 1))
    assert (len(ledger.blocks), len(ledger.entries())) == (3, 22)
    assert (
        hashlib.sha256(ledger.to_text().encode()).hexdigest()
        == "e38ac80e6a0ba61115da872bc8bf63c8e73995180416c6a70ba37ed457c11744"
    )


def test_pruned_stamp_is_not_reissued_after_reload():
    ledger = RevocationLedger()
    first = ledger.revoke("pid:a", (2022, 12, 31), now=(2022, 7, 5))
    second = ledger.revoke("pid:b", (2022, 7, 1), now=(2022, 7, 5))  # already expired
    assert ledger.prune((2022, 7, 5)) == 1
    ledger = RevocationLedger.from_text(ledger.to_text())
    third = ledger.revoke("pid:c", (2022, 12, 31), now=(2022, 7, 5))
    stamps = [first.tx_timestamp, second.tx_timestamp, third.tx_timestamp]
    assert stamps == ["2022-07-05/1", "2022-07-05/2", "2022-07-05/3"]


def test_prune_block_without_counter_still_loads():
    """Prune blocks written before the counter was kept load as before:
    stamps continue after the largest surviving entry."""
    ledger = RevocationLedger()
    ledger.revoke("pid:a", (2022, 7, 1), now=(2022, 7, 5))
    ledger.revoke("pid:b", (2022, 12, 31), now=(2022, 7, 5))
    ledger.prune((2022, 7, 5))
    prune = ledger.blocks[0]
    payload = {k: v for k, v in prune.payload.items() if k != "tx_seq"}
    ledger.blocks[0] = Block.make(0, "prune", "", payload)
    ledger.blocks[1] = Block.make(1, "entries", ledger.blocks[0].digest, ledger.blocks[1].payload)
    legacy = RevocationLedger.from_text(ledger.to_text())
    assert legacy.verify()
    assert legacy.revoke("pid:c", (2022, 12, 31), (2022, 7, 6)).tx_timestamp == "2022-07-06/3"


def _day(offset: int):
    return from_ordinal(ordinal((2022, 7, 1)) + offset)


_ledger_steps = st.lists(
    st.one_of(
        st.tuples(st.just("revoke"), st.integers(0, 9), st.integers(0, 90), st.integers(0, 90)),
        st.tuples(st.just("prune"), st.integers(0, 90)),
        st.just(("reload",)),
    ),
    max_size=25,
)


@given(_ledger_steps)
def test_ledger_table_matches_its_blocks(steps):
    ledger = RevocationLedger()
    issued = set()  # every sequence number a revoke handed out
    for step in steps:
        if step[0] == "revoke":
            pid = f"pid:{step[1]}"
            is_new = ledger.lookup(pid) is None
            entry = ledger.revoke(pid, _day(step[2]), _day(step[3]))
            if is_new:
                seq = int(entry.tx_timestamp.rpartition("/")[2])
                assert seq not in issued
                issued.add(seq)
        elif step[0] == "prune":
            ledger.prune(_day(step[1]))
        else:
            ledger = RevocationLedger.from_text(ledger.to_text())
        parsed = [
            LedgerEntry(p["pid"], parse_day(p["expected_expiry"]), p["tx_timestamp"])
            for b in ledger.blocks
            if b.kind == "entries"
            for p in b.payload["entries"]
        ]
        assert ledger.entries() == parsed
        assert all(ledger.lookup(e.pid) == e for e in parsed)
        # Sequence numbers never repeat, so neither do "day/seq" stamps.
        seqs = [int(e.tx_timestamp.rpartition("/")[2]) for e in parsed]
        assert len(set(seqs)) == len(seqs)
        assert ledger.verify()


def test_revocation_is_ledger_layer_not_algebraic(provider):
    """A revoked but unexpired key still satisfies the scheme's algebra;
    denial of service comes from the agent, not the decryption equation."""
    record = provider.subscribe(
        "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold AND family"
    )
    ledger = RevocationLedger()
    ledger.revoke(record.pseudo_identity.display, (2022, 9, 2), now=(2022, 7, 10))
    agent = InfotainmentAgent(ledger)
    assert (
        agent.daily_check(record.pseudo_identity.display, (2022, 7, 11))
        == InfotainmentAgent.REVOKED
    )
    scheme, pk = provider.scheme, provider.pk
    message = scheme.suite.random_target(provider.rng)
    ct = scheme.encrypt(
        pk,
        message,
        TimeCover.from_nodes([TimeNode.parse("2022-08")]),
        ["gold", "family"],
        rng=provider.rng,
    )
    assert scheme.decrypt(pk, ct, record.key) == message
