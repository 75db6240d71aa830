"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the printed summaries).  Every check is
exact; each criterion also enforces its runtime budget.
"""

import time
from random import Random

import pytest

from support import (
    contiguous_day_cover,
    min_cover_size_dp,
    random_formula,
    random_window,
    recompute_step_d_logs,
    recompute_steps_abc_logs,
    satisfying_set,
    violating_set,
)
from tskpabe.audit import audit_decryption, predicted_counts, predicted_pairings
from tskpabe.cli import main
from tskpabe.envelope import (
    ContentPackage,
    DirectoryEntry,
    IntegrityError,
    KeyedDigestSigner,
    build_directory,
    open_package,
    seal,
    verify_directory,
)
from tskpabe.groups import TransparentSuite
from tskpabe.lsss import compile_policy, evaluate, reconstruct_coeffs, share
from tskpabe.ndnsim import FIVE_NODE_LINE, parse_scenario, run_scenario
from tskpabe.scheme import Mode, TimedKpAbe, component_counts
from tskpabe.subscription import InfotainmentAgent, RevocationLedger, SubscriptionService
from tskpabe.timetree import TimeCover, TimeWindow, set_cover

P = 2**31 - 1


class Budget:
    def __init__(self, number: int, name: str, seconds: float):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self._start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
            print(f"ACCEPTANCE {self.number} {self.name}: PASS ({elapsed:.2f}s < {self.seconds:g}s)")
        else:
            print(f"ACCEPTANCE {self.number} {self.name}: FAIL")
        return False


def test_criterion_1_component_count_reproduction():
    with Budget(1, "published-size-and-pairing-formulas", 10):
        suite = TransparentSuite(P)
        scheme = TimedKpAbe(suite, Mode.REPAIRED)
        depth = 4
        start = (2022, 3, 10)
        for U in range(1, 9):
            rng = Random(1000 + U)
            pk, mk = scheme.setup(U, depth=depth, rng=rng)
            assert component_counts(pk) == predicted_counts(
                "pk", universe_size=U, depth=depth
            ) == (U + depth + 7, 1)
            message = suite.random_target(rng)
            for tc in range(1, 9):
                ct = scheme.encrypt(
                    pk, message, contiguous_day_cover(start, tc), pk.universe, rng=rng
                )
                assert component_counts(ct) == predicted_counts(
                    "ct", cover_size=tc
                ) == (2 * tc + 1, 1)
            for l in range(1, 7):
                policy = " AND ".join(pk.universe[i % U] for i in range(l))
                access = compile_policy(policy, suite.p)
                for tk in range(1, 9):
                    sk = scheme.keygen(
                        pk,
                        mk,
                        17,
                        contiguous_day_cover(start, tk),
                        access,
                        rng=rng,
                    )
                    assert component_counts(sk) == predicted_counts(
                        "sk", rows=l, cover_size=tk
                    ) == (2 * l + tk + 1, 1)
                # Decryption pairings: all l rows participate.
                ct = scheme.encrypt(
                    pk, message, contiguous_day_cover(start, 2), pk.universe, rng=rng
                )
                before = suite.counters.snapshot()
                assert scheme.decrypt(pk, ct, sk) == message
                assert suite.counters.since(before).pairings == predicted_pairings(l)
        # |I| < l spot check: OR policy satisfied by one attribute.
        rng = Random(2000)
        pk, mk = scheme.setup(["a", "b"], depth=depth, rng=rng)
        access = compile_policy("a OR b", suite.p)
        sk = scheme.keygen(pk, mk, 17, contiguous_day_cover(start, 1), access, rng=rng)
        ct = scheme.encrypt(
            pk, suite.random_target(rng), contiguous_day_cover(start, 1), ["a"], rng=rng
        )
        before = suite.counters.snapshot()
        assert scheme.decrypt(pk, ct, sk) is not None
        assert suite.counters.since(before).pairings == predicted_pairings(1) == 5


def test_criterion_2_subscription_cover_example(capsys):
    with Budget(2, "subscription-window-cover-example", 1):
        assert main(["cover", "2022-07-01..2022-09-02"]) == 0
        out = capsys.readouterr().out
        assert out == "2022-07\n2022-08\n2022-09-01\n2022-09-02\n"


def test_criterion_3_cover_minimality_against_dp():
    with Budget(3, "cover-minimality-vs-dp-oracle", 30):
        rng = Random(30_003)
        for _ in range(200):
            window = random_window(rng, (2021, 1, 1), (2023, 12, 31))
            assert len(set_cover(window)) == min_cover_size_dp(window)


def _random_instance(scheme, rng, universe):
    formula = random_formula(rng, universe, max_leaves=6)
    access = compile_policy(formula, scheme.suite.p)
    window = random_window(rng, (2022, 1, 1), (2022, 12, 31))
    cover = set_cover(window)
    pid = rng.randrange(1, scheme.suite.p)
    return formula, access, cover, pid


def test_criterion_4_repaired_roundtrip_and_denial():
    with Budget(4, "repaired-roundtrip-and-denials", 60):
        suite = TransparentSuite(P)
        scheme = TimedKpAbe(suite, Mode.REPAIRED)
        rng = Random(44_044)
        pk = mk = None
        for i in range(500):
            if i % 50 == 0:
                universe = [f"attr{k}" for k in range(1, 3 + (i // 50))]
                pk, mk = scheme.setup(universe, depth=4, rng=rng)
            formula, access, cover, pid = _random_instance(scheme, rng, pk.universe)
            sk = scheme.keygen(pk, mk, pid, cover, access, rng=rng)
            lo = rng.randrange(len(cover))
            hi = rng.randrange(lo, len(cover)) + 1
            ct_cover = TimeCover(cover.nodes[lo:hi])
            attrs = sorted(satisfying_set(formula, rng))
            message = suite.random_target(rng)
            ct = scheme.encrypt(pk, message, ct_cover, attrs, rng=rng)
            assert scheme.decrypt(pk, ct, sk) == message

        denied = 0
        for i in range(500):
            if i % 50 == 0:
                universe = [f"attr{k}" for k in range(1, 3 + (i // 50))]
                pk, mk = scheme.setup(universe, depth=4, rng=rng)
            formula, access, cover, pid = _random_instance(scheme, rng, pk.universe)
            sk = scheme.keygen(pk, mk, pid, cover, access, rng=rng)
            message = suite.random_target(rng)
            if i % 2 == 0:
                # Condition 1: the attribute set fails the key policy.
                attrs = sorted(violating_set(formula, pk.universe, rng))
                ct_cover = TimeCover((rng.choice(cover.nodes),))
            else:
                # Condition 2: no verbatim time node match.
                attrs = sorted(satisfying_set(formula, rng))
                ct_cover = set_cover(random_window(rng, (2023, 1, 1), (2023, 12, 31)))
            ct = scheme.encrypt(pk, message, ct_cover, attrs, rng=rng)
            assert scheme.decrypt(pk, ct, sk) is None
            denied += 1
        assert denied == 500


def test_criterion_5_algebra_audit():
    with Budget(5, "algebra-audit-residuals", 30):
        suite = TransparentSuite(P)
        for mode in (Mode.PAPER, Mode.REPAIRED):
            scheme = TimedKpAbe(suite, mode)
            rng = Random(55_000 if mode is Mode.PAPER else 55_001)
            pk = mk = None
            for i in range(120):
                if i % 40 == 0:
                    pk, mk = scheme.setup([f"a{k}" for k in range(1, 7)], depth=4, rng=rng)
                formula, access, cover, pid = _random_instance(scheme, rng, pk.universe)
                sk = scheme.keygen(pk, mk, pid, cover, access, rng=rng)
                attrs = sorted(satisfying_set(formula, rng))
                ct_cover = TimeCover((rng.choice(cover.nodes),))
                ct = scheme.encrypt(pk, suite.random_target(rng), ct_cover, attrs, rng=rng)
                report = audit_decryption(scheme, pk, ct, sk)
                abc = recompute_steps_abc_logs(pk, ct, sk, report.node)
                for label in ("a", "b", "c"):
                    step = report.step(label)
                    assert step.closed
                    assert (step.lhs.log, step.rhs.log) == abc[label]
                lhs_log, rhs_log = recompute_step_d_logs(pk, ct, sk, report.node)
                step_d = report.step("d")
                assert step_d.lhs.log == lhs_log
                assert step_d.rhs.log == rhs_log
                assert step_d.residual.log == (lhs_log - rhs_log) % suite.p
                if mode is Mode.REPAIRED:
                    assert report.all_closed
                else:
                    assert not step_d.closed  # at least one attribute row always


def test_criterion_6_lsss_soundness():
    with Budget(6, "lsss-soundness-and-reconstruction", 30):
        rng = Random(66_066)
        universe = ("a", "b", "c", "d", "e", "f")
        satisfied = 0
        for _ in range(500):
            formula = random_formula(rng, universe, max_leaves=6)
            access = compile_policy(formula, P)
            candidate = {a for a in universe if rng.random() < 0.5}
            coeffs = reconstruct_coeffs(access, candidate)
            assert (coeffs is not None) == evaluate(formula, candidate)
            if coeffs is not None:
                satisfied += 1
                for _ in range(10):
                    secret = rng.randrange(P)
                    shares = share(access, secret, rng=rng)
                    assert sum(coeffs[i] * shares[i] for i in coeffs) % P == secret
        assert satisfied > 0


def test_criterion_7_envelope_integrity():
    with Budget(7, "envelope-and-directory-integrity", 30):
        suite = TransparentSuite(P)
        scheme = TimedKpAbe(suite, Mode.REPAIRED)
        rng = Random(77_077)
        pk, mk = scheme.setup(["gold", "family"], depth=4, rng=rng)
        access = compile_policy("gold AND family", suite.p)
        cover = set_cover(TimeWindow.parse("2022-07-01..2022-09-02"))
        sk = scheme.keygen(pk, mk, 5, cover, access, rng=rng)
        ct_cover = TimeCover((cover.nodes[1],))

        for i in range(100):
            content = rng.randbytes(rng.randrange(0, 3000))
            package = seal(
                scheme, pk, f"content-{i}", content, ct_cover, ["gold", "family"],
                rng=rng, chunk_size=256,
            )
            assert open_package(scheme, pk, package, sk) == content

        # Systematic single-bit corruption across every chunk.
        content = rng.randbytes(1000)
        package = seal(
            scheme, pk, "target", content, ct_cover, ["gold", "family"],
            rng=rng, chunk_size=256,
        )
        assert len(package.chunks) == 4
        for index, chunk in enumerate(package.chunks):
            for position in (0, len(chunk) // 2, len(chunk) - 1):
                for bit in (0x01, 0x80):
                    corrupted = bytearray(chunk)
                    corrupted[position] ^= bit
                    chunks = list(package.chunks)
                    chunks[index] = bytes(corrupted)
                    broken = ContentPackage(
                        name=package.name,
                        content_size=package.content_size,
                        chunk_size=package.chunk_size,
                        nonce=package.nonce,
                        plaintext_digest=package.plaintext_digest,
                        chunk_digests=package.chunk_digests,
                        wrapped_key=package.wrapped_key,
                        chunks=tuple(chunks),
                    )
                    with pytest.raises(IntegrityError) as excinfo:
                        open_package(scheme, pk, broken, sk)
                    assert excinfo.value.part == f"chunk {index}"

        # Any single entry mutation must break directory verification.
        secret = b"issuer-secret"
        entries = [
            DirectoryEntry(f"file{i}.bin", bytes([i]) * 32, 1700000000 + i, f"d{i}", "public-traffic")
            for i in range(4)
        ]
        directory = build_directory(entries, KeyedDigestSigner("rsu1", secret))
        assert verify_directory(directory, {"rsu1": secret})
        for i, entry in enumerate(directory.entries):
            mutations = [
                DirectoryEntry(entry.name + "x", entry.file_hash, entry.updated_at, entry.description, entry.category),
                DirectoryEntry(entry.name, bytes([entry.file_hash[0] ^ 1]) + entry.file_hash[1:], entry.updated_at, entry.description, entry.category),
                DirectoryEntry(entry.name, entry.file_hash, entry.updated_at + 1, entry.description, entry.category),
                DirectoryEntry(entry.name, entry.file_hash, entry.updated_at, entry.description + "x", entry.category),
                DirectoryEntry(entry.name, entry.file_hash, entry.updated_at, entry.description, "v2x-private"),
            ]
            for mutated in mutations:
                tampered_entries = list(directory.entries)
                tampered_entries[i] = mutated
                tampered = type(directory)(
                    issuer=directory.issuer,
                    entries=tuple(tampered_entries),
                    signature=directory.signature,
                )
                assert not verify_directory(tampered, {"rsu1": secret})


def test_criterion_8_cache_hop_reduction():
    with Budget(8, "cache-hop-reduction-on-line-topology", 10):
        requests = (
            "content /media/clip.bin origin=origin size=4000 category=subscription-infotainment\n"
            "request t=1 requester=vehicle1 name=/media/clip.bin\n"
            "request t=2 requester=vehicle1 name=/media/clip.bin\n"
        )
        cached = run_scenario(parse_scenario(FIVE_NODE_LINE + requests))
        first, second = cached.metrics.per_request
        assert second.hops < first.hops
        assert second.served_from_kind == "rsu"
        assert second.cache_hit

        uncached_text = FIVE_NODE_LINE.replace("capacity=1000000", "capacity=0") + requests
        uncached = run_scenario(parse_scenario(uncached_text))
        first_u, second_u = uncached.metrics.per_request
        assert first_u.hops == second_u.hops

        again = run_scenario(parse_scenario(FIVE_NODE_LINE + requests))
        assert "\n".join(again.events) == "\n".join(cached.events)


def test_criterion_9_revocation_lifecycle():
    with Budget(9, "revocation-lifecycle", 10):
        suite = TransparentSuite(P)
        scheme = TimedKpAbe(suite, Mode.REPAIRED)
        rng = Random(99_099)
        pk, mk = scheme.setup(["gold"], depth=4, rng=rng)
        provider = SubscriptionService(scheme, pk, mk, clock=(2022, 6, 1), rng=rng)
        ledger = RevocationLedger()
        agent = InfotainmentAgent(ledger)

        first = provider.subscribe(
            "alice", TimeWindow.parse("2022-07-01..2022-09-02"), "gold", nonce=b"1"
        )
        pid = first.pseudo_identity.display
        assert agent.daily_check(pid, (2022, 7, 9)) == InfotainmentAgent.ACTIVE
        ledger.revoke(pid, (2022, 9, 2), now=(2022, 7, 10))
        assert agent.daily_check(pid, (2022, 7, 10)) == InfotainmentAgent.REVOKED

        second = provider.subscribe(
            "alice", TimeWindow.parse("2022-07-15..2022-10-15"), "gold", nonce=b"2"
        )
        new_pid = second.pseudo_identity.display
        assert new_pid != pid
        assert agent.daily_check(new_pid, (2022, 7, 16)) == InfotainmentAgent.ACTIVE

        assert ledger.prune((2022, 9, 2)) == 0
        assert ledger.lookup(pid) is not None
        assert ledger.prune((2022, 9, 3)) == 1
        assert ledger.lookup(pid) is None
        assert ledger.verify()
