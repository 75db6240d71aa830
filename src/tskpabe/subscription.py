"""Subscription lifecycle: pseudo-identities, key issuance, revocation.

Each purchase derives a fresh nonzero pseudo-identity from the user id,
the start day and a nonce, then issues a private key whose time cover is
the minimal cover of the purchased window.  Early cancellation puts the
pseudo-identity on a digest-chained ledger; an on-board agent queries the
ledger once per simulated day and caches the verdict until the next day.

Cryptographic expiry comes from the key's time cover; the ledger only
handles cancellation before expiry.  Expired entries are pruned: the chain
is compacted and re-linked behind a pruning record that retains the prior
head digest, so full-chain verification keeps passing.
"""

from __future__ import annotations

import hashlib
import json

from . import Record
from .timetree import Day, TimeWindow, format_day, parse_day, set_cover, validate_day
from .wire import pack_bytes, pack_str

# Annotations stay unevaluated, so the scheme types they name (PrivateKey,
# TimedKpAbe, ...) are not imported: the ledger commands load neither the
# scheme nor its groups.


class PseudoIdentity(Record):
    scalar: int  # nonzero, mod p
    display: str


def derive_pseudo_id(
    suite: TransparentSuite, user: str, start: Day, nonce: bytes = b""
) -> PseudoIdentity:
    """Nonzero scalar from the canonical (user, start day, nonce) encoding."""
    material = pack_str(user) + pack_str(format_day(start)) + pack_bytes(nonce)
    scalar = suite.hash_to_scalar(material)
    return PseudoIdentity(scalar, f"pid:{scalar:x}")


class SubscriptionRecord(Record):
    user: str
    window: TimeWindow
    policy: str
    attributes: tuple[str, ...]
    pseudo_identity: PseudoIdentity
    key: PrivateKey


class SubscriptionService:
    """Provider-side state: scheme handles and a clock."""

    def __init__(
        self,
        scheme: TimedKpAbe,
        pk: PublicParams,
        mk: MasterKey,
        clock: Day,
        *,
        rng: Random,
    ):
        self.scheme = scheme
        self.pk = pk
        self.mk = mk
        self.clock = clock
        self.rng = rng

    def subscribe(
        self, user: str, window: TimeWindow, policy: str, nonce: bytes = b""
    ) -> SubscriptionRecord:
        window.validate()
        validate_day(self.clock)
        if window.end < self.clock:
            raise ValueError(
                f"window {window} lies entirely before the provider clock "
                f"{format_day(self.clock)}"
            )
        from . import lsss

        pid = derive_pseudo_id(self.scheme.suite, user, window.start, nonce)
        access = lsss.compile_policy(policy, self.scheme.suite.p)
        cover = set_cover(window)
        key = self.scheme.keygen(
            self.pk, self.mk, pid.scalar, cover, access, rng=self.rng
        )
        return SubscriptionRecord(
            user=user,
            window=window,
            policy=policy,
            attributes=tuple(sorted(set(access.row_attributes))),
            pseudo_identity=pid,
            key=key,
        )


# ----------------------------------------------------------------------
# Revocation ledger: single-writer, digest-chained, verifiable pruning.
# ----------------------------------------------------------------------


class LedgerEntry(Record):
    pid: str  # pseudo-identity display form
    expected_expiry: Day
    tx_timestamp: str  # "day/seq" of the recording transaction


class Block(Record):
    index: int
    kind: str  # "entries" | "prune"
    prev: str  # hex digest of the previous block, "" for the head
    payload: dict
    digest: str

    @staticmethod
    def compute_digest(index: int, kind: str, prev: str, payload: dict) -> str:
        body = json.dumps(
            {"index": index, "kind": kind, "prev": prev, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return hashlib.sha256(body).hexdigest()

    @classmethod
    def make(cls, index: int, kind: str, prev: str, payload: dict) -> "Block":
        return cls(index, kind, prev, payload, cls.compute_digest(index, kind, prev, payload))


def _entry_payload(entry: LedgerEntry) -> dict:
    return {
        "pid": entry.pid,
        "expected_expiry": format_day(entry.expected_expiry),
        "tx_timestamp": entry.tx_timestamp,
    }


def _entry_from_payload(payload: dict) -> LedgerEntry:
    return LedgerEntry(
        pid=payload["pid"],
        expected_expiry=parse_day(payload["expected_expiry"]),
        tx_timestamp=payload["tx_timestamp"],
    )


class RevocationLedger(Record, frozen=False):
    """Append-only block log with digest chaining and compacting prune."""

    blocks: list[Block]
    warnings: list[str]
    _tx_seq: int
    # pid -> entry of the "entries" blocks, kept in step wherever blocks change
    _entries: dict[str, LedgerEntry]

    def __init__(self):
        super().__init__([], [], 0, {})

    def _append(self, kind: str, payload: dict) -> Block:
        prev = self.blocks[-1].digest if self.blocks else ""
        block = Block.make(len(self.blocks), kind, prev, payload)
        self.blocks.append(block)
        return block

    def entries(self) -> list[LedgerEntry]:
        return list(self._entries.values())

    def lookup(self, pid: str) -> LedgerEntry | None:
        return self._entries.get(pid)

    def revoke(self, pid: str, expected_expiry: Day, now: Day) -> LedgerEntry:
        """Record a cancellation.  Re-revoking an already listed identity
        is a no-op and only emits a warning."""
        validate_day(expected_expiry)
        validate_day(now)
        existing = self.lookup(pid)
        if existing is not None:
            self.warnings.append(f"duplicate revocation ignored for {pid}")
            return existing
        self._tx_seq += 1
        entry = LedgerEntry(pid, expected_expiry, f"{format_day(now)}/{self._tx_seq}")
        self._append("entries", {"entries": [_entry_payload(entry)]})
        self._entries[pid] = entry
        return entry

    def prune(self, clock: Day) -> int:
        """Drop entries whose expiry lies strictly before the clock.

        The surviving entries are re-blocked behind a pruning record that
        carries the prior head digest, keeping the chain verifiable while
        the expired records physically disappear.  The record also keeps
        the stamp counter, so a pruned entry's stamp is never issued again.
        """
        validate_day(clock)
        survivors = [e for e in self._entries.values() if e.expected_expiry >= clock]
        removed = len(self._entries) - len(survivors)
        if removed == 0:
            return 0
        self._entries = {e.pid: e for e in survivors}
        prior_head = self.blocks[-1].digest if self.blocks else ""
        self.blocks = []
        self._append(
            "prune",
            {
                "pruned_at": format_day(clock),
                "removed": removed,
                "prior_head": prior_head,
                "tx_seq": self._tx_seq,
            },
        )
        if survivors:
            self._append(
                "entries", {"entries": [_entry_payload(e) for e in survivors]}
            )
        return removed

    def verify(self) -> bool:
        """Recompute every digest and check the chain links end-to-end."""
        prev = ""
        for index, block in enumerate(self.blocks):
            if block.index != index or block.prev != prev:
                return False
            if Block.compute_digest(block.index, block.kind, block.prev, block.payload) != block.digest:
                return False
            prev = block.digest
        return True

    # -- persistence: one canonical JSON block per line -----------------

    def to_text(self) -> str:
        lines = [
            json.dumps(
                {
                    "index": b.index,
                    "kind": b.kind,
                    "prev": b.prev,
                    "payload": b.payload,
                    "digest": b.digest,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for b in self.blocks
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "RevocationLedger":
        """Parse the blocks and index their entries by pid, in block order.
        A line that is not a block, lacks a field, or holds an invalid day,
        a stamp without an integer ``/seq`` suffix or a repeated pid raises
        ValueError naming it.  New stamps continue after the largest loaded
        one and the counter a prune block kept.  The chain is not verified
        here."""
        ledger = cls()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                block = Block(raw["index"], raw["kind"], raw["prev"], raw["payload"], raw["digest"])
                if block.kind == "prune":
                    # Prune blocks written before the counter was kept lack it.
                    seq = block.payload.get("tx_seq", 0)
                    if type(seq) is not int:
                        raise ValueError(f"prune counter {seq!r} is not an integer")
                    ledger._tx_seq = max(ledger._tx_seq, seq)
                for payload in block.payload["entries"] if block.kind == "entries" else ():
                    entry = _entry_from_payload(payload)
                    seq = int(entry.tx_timestamp.rpartition("/")[2])
                    if entry.pid in ledger._entries:
                        raise ValueError(f"pid {entry.pid} listed twice")
                    ledger._entries[entry.pid] = entry
                    ledger._tx_seq = max(ledger._tx_seq, seq)
            except KeyError as exc:
                raise ValueError(f"ledger line {line_no}: missing field {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"ledger line {line_no}: malformed block ({exc})") from None
            ledger.blocks.append(block)
        return ledger

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "RevocationLedger":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())


class InfotainmentAgent:
    """On-board revocation checker.  One ledger query per simulated day;
    the verdict is cached until the day changes."""

    ACTIVE = "active"
    REVOKED = "revoked"

    def __init__(self, ledger: RevocationLedger):
        self.ledger = ledger
        self._cache: dict[str, tuple[Day, str]] = {}

    def daily_check(self, pid: str, clock: Day) -> str:
        cached = self._cache.get(pid)
        if cached is not None and cached[0] == clock:
            return cached[1]
        status = self.REVOKED if self.ledger.lookup(pid) is not None else self.ACTIVE
        self._cache[pid] = (clock, status)
        return status
