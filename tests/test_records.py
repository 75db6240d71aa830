"""Value semantics of every program record: immutability, equality and
hashing by type and fields, field-named repr, defaults, node ordering."""

from random import Random

import pytest

from tskpabe import Record, audit, envelope, groups, lsss, ndnsim, scheme, subscription, timetree

P = 2**31 - 1
# Records holding a dict or list: equal by fields, but unhashable.
UNHASHABLE = {"ScheduledOp", "ScenarioConfig", "Block"}
MUTABLE = {"OpCounters", "SimNode", "RevocationLedger"}

SCENARIO = ndnsim.FIVE_NODE_LINE + (
    "content clip origin=origin size=4000 category=public-infotainment\n"
    "request t=1 requester=vehicle1 name=clip\n"
    "request t=2 requester=vehicle1 name=clip\n"
)


@pytest.fixture(scope="module")
def samples() -> list:
    """One instance of every record type, built through the program."""
    kp = scheme.TimedKpAbe(groups.TransparentSuite(P), scheme.Mode.REPAIRED)
    rng = Random(3)
    pk, mk = kp.setup(["gold", "family"], depth=4, rng=rng)
    window = timetree.TimeWindow((2022, 7, 1), (2022, 9, 2))
    service = subscription.SubscriptionService(kp, pk, mk, (2022, 7, 1), rng=rng)
    sub = service.subscribe("alice", window, "gold AND family")
    cover = timetree.set_cover(window)
    access = lsss.compile_policy("gold AND (family OR gold)", P)
    package = envelope.seal(kp, pk, "clip", b"clip", cover, ["gold", "family"], rng=rng)
    signer = envelope.KeyedDigestSigner("rsu1", b"k" * 16)
    directory = envelope.build_directory(
        [envelope.DirectoryEntry("clip", b"h" * 32, 7)], signer
    )
    ledger = subscription.RevocationLedger()
    ledger.revoke(sub.pseudo_identity.display, (2022, 9, 2), (2022, 7, 5))
    config = ndnsim.parse_scenario(SCENARIO)
    sim = ndnsim.Simulation(config)
    node = sim.nodes["rsu1"]  # run() drops the node table
    result = sim.run()
    return [
        pk.suite.counters.snapshot(),
        access.policy.left,
        access.policy,
        access,
        cover.nodes[0],
        window,
        cover,
        pk,
        mk,
        sub.key,
        package.wrapped_key,
        audit.audit_decryption(kp, pk, package.wrapped_key, sub.key).steps[0],
        audit.audit_decryption(kp, pk, package.wrapped_key, sub.key),
        package,
        directory.entries[0],
        directory,
        sub.pseudo_identity,
        sub,
        ledger.entries()[0],
        ledger.blocks[0],
        ledger,
        ndnsim.QOSS_PROFILES[ndnsim.DataCategory.PUBLIC_TRAFFIC],
        config.nodes[0],
        config.links[0],
        config.contents[0],
        config.schedule[0],
        config,
        ndnsim.CachedCopy(4000, pinned=True),
        node,
        result.metrics.per_request[0],
        result.metrics,
        result,
    ]


def _record_types(cls=Record) -> set:
    out = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("tskpabe."):
            out |= {sub} | _record_types(sub)
    return out


def _copy(record):
    """An independently built record with the same field values."""
    if isinstance(record, subscription.RevocationLedger):
        twin = subscription.RevocationLedger()
        for entry in record.entries():
            twin.revoke(entry.pid, entry.expected_expiry, (2022, 7, 5))
        return twin
    return type(record)(*(getattr(record, name) for name in record._fields))


def test_every_record_type_is_sampled(samples):
    assert audit.AuditReport in _record_types()
    assert {type(r) for r in samples} == _record_types()
    assert len(_record_types()) == 32


@pytest.mark.parametrize("index", range(32))
def test_record_value_semantics(samples, index):
    record = samples[index]
    name = type(record).__name__
    twin = _copy(record)
    values = tuple(getattr(record, field) for field in record._fields)
    assert twin is not record and twin == record and not twin != record
    if name in MUTABLE or name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # Never equal to a bare tuple, nor to another record type with the
    # same field names and values.
    other = type(name, (Record,), {"__annotations__": dict.fromkeys(record._fields)})
    assert record != values and values != record
    if len(values) == 1:
        assert record != values[0]
    assert record != other(*values) and other(*values) != record
    assert repr(record).startswith(f"{name}({record._fields[0]}=")
    field = record._fields[-1]
    if name in MUTABLE:
        setattr(twin, field, getattr(record, field))
    else:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is values[-1]


def test_record_defaults_and_repr():
    entry = envelope.DirectoryEntry("clip", b"\x01", 7)
    assert (entry.description, entry.category) == ("", "")
    assert repr(entry) == (
        "DirectoryEntry(name='clip', file_hash=b'\\x01', updated_at=7, description='', category='')"
    )
    assert envelope.DirectoryEntry("clip", b"\x01", 7, category="") == entry
    assert ndnsim.CachedCopy(5) == ndnsim.CachedCopy(5, True, False)
    assert repr(ndnsim.CachedCopy(5)) == "CachedCopy(size=5, intact=True, pinned=False)"
    assert ndnsim.ScenarioConfig() == ndnsim.ScenarioConfig(0, ndnsim.DEFAULT_CHUNK_SIZE)
    assert groups.OpCounters(pairings=3) == groups.OpCounters(3, 0, 0, 0)
    assert repr(timetree.TimeNode((2022, 8))) == "TimeNode(components=(2022, 8))"
    with pytest.raises(TypeError, match="missing field 'updated_at'"):
        envelope.DirectoryEntry("clip", b"\x01")
    with pytest.raises(TypeError, match="unexpected fields"):
        envelope.DirectoryEntry("clip", b"\x01", 7, colour="red")
    with pytest.raises(TypeError, match="takes 5 fields"):
        envelope.DirectoryEntry("clip", b"\x01", 7, "", "", "extra")
    with pytest.raises(TypeError, match="missing field 'integrity_retries'"):
        ndnsim.RequestMetric(*range(10))


def test_time_nodes_sort_by_path():
    texts = ["2023", "2022-08-31", "2022-08", "2022", "2022-09-01", "2022-12"]
    nodes = [timetree.TimeNode.parse(t) for t in texts]
    assert sorted(nodes) == sorted(nodes, key=lambda n: n.components)
    assert [n.text() for n in sorted(nodes)] == [
        "2022", "2022-08", "2022-08-31", "2022-09-01", "2022-12", "2023",
    ]
    year, month = timetree.TimeNode((2022,)), timetree.TimeNode((2022, 1))
    assert year < month and year <= month and month > year and month >= year
    assert not year < year and year <= year
    with pytest.raises(TypeError):
        year < (2022, 1)
