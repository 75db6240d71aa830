import hashlib
import hmac
from random import Random

import pytest

from tskpabe.envelope import (
    AccessDeniedError,
    ContentPackage,
    DirectoryEntry,
    IntegrityError,
    KeyedDigestSigner,
    StreamDem,
    UnknownIssuerError,
    build_directory,
    derive_content_key,
    directory_from_bytes,
    directory_to_bytes,
    open_package,
    package_from_bytes,
    package_to_bytes,
    seal,
    verify_directory,
)
from tskpabe.groups import TransparentSuite
from tskpabe.lsss import compile_policy
from tskpabe.scheme import Ciphertext, Mode, TimedKpAbe
from tskpabe.timetree import TimeCover, TimeNode, TimeWindow, set_cover
from tskpabe.wire import WireError

P = 2**31 - 1


@pytest.fixture(scope="module")
def world():
    scheme = TimedKpAbe(TransparentSuite(P), Mode.REPAIRED)
    rng = Random(2024)
    pk, mk = scheme.setup(["gold", "family"], depth=4, rng=rng)
    cover = set_cover(TimeWindow.parse("2022-07-01..2022-09-02"))
    entitled = scheme.keygen(
        pk,
        mk,
        scheme.suite.hash_to_scalar(b"alice"),
        cover,
        compile_policy("gold AND family", P),
        rng=rng,
    )
    expired = scheme.keygen(
        pk,
        mk,
        scheme.suite.hash_to_scalar(b"bob"),
        set_cover(TimeWindow.parse("2021-01-01..2021-12-31")),
        compile_policy("gold AND family", P),
        rng=rng,
    )
    return scheme, pk, entitled, expired


def content_cover():
    return TimeCover.from_nodes([TimeNode.parse("2022-08")])


def test_seal_chunk_arithmetic(world):
    scheme, pk, *_ = world
    content = bytes(10 * (1 << 20))  # 10 MiB of zeros
    package = seal(
        scheme, pk, "big.bin", content, content_cover(), ["gold", "family"], rng=Random(1)
    )
    assert len(package.chunks) == 10
    assert package.content_size == len(content)


@pytest.mark.parametrize(
    "size,chunk_size,expected",
    [(0, 16, 1), (1, 16, 1), (16, 16, 1), (17, 16, 2), (160, 16, 10), (161, 16, 11)],
)
def test_chunk_counts(world, size, chunk_size, expected):
    scheme, pk, *_ = world
    package = seal(
        scheme,
        pk,
        "x",
        bytes(size),
        content_cover(),
        ["gold"],
        rng=Random(2),
        chunk_size=chunk_size,
    )
    assert len(package.chunks) == expected


def test_roundtrip_with_entitled_key(world):
    scheme, pk, entitled, _ = world
    content = Random(3).randbytes(5000)
    package = seal(
        scheme, pk, "movie", content, content_cover(), ["gold", "family"], rng=Random(4),
        chunk_size=512,
    )
    assert open_package(scheme, pk, package, entitled) == content


def test_open_denied_for_expired_window(world):
    scheme, pk, entitled, expired = world
    package = seal(
        scheme, pk, "movie", b"payload", content_cover(), ["gold", "family"], rng=Random(5)
    )
    with pytest.raises(AccessDeniedError):
        open_package(scheme, pk, package, expired)


def test_open_denied_for_missing_attributes(world):
    scheme, pk, entitled, _ = world
    package = seal(scheme, pk, "movie", b"payload", content_cover(), ["gold"], rng=Random(6))
    with pytest.raises(AccessDeniedError):
        open_package(scheme, pk, package, entitled)  # policy needs family too


def test_tampered_chunk_is_named(world):
    scheme, pk, entitled, _ = world
    content = Random(7).randbytes(4096)
    package = seal(
        scheme, pk, "movie", content, content_cover(), ["gold", "family"], rng=Random(8),
        chunk_size=700,
    )
    target = 3
    corrupted = bytearray(package.chunks[target])
    corrupted[5] ^= 0x01
    chunks = list(package.chunks)
    chunks[target] = bytes(corrupted)
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
    with pytest.raises(IntegrityError, match="chunk 3") as excinfo:
        open_package(scheme, pk, broken, entitled)
    assert excinfo.value.part == "chunk 3"


def test_dem_tag_failure_is_integrity_error(world):
    scheme, pk, entitled, _ = world
    content = b"0123456789" * 10
    package = seal(
        scheme, pk, "movie", content, content_cover(), ["gold", "family"], rng=Random(9),
        chunk_size=32,
    )
    # Re-pin the digest so only the authenticator trips.
    from tskpabe.envelope import sha256

    corrupted = bytearray(package.chunks[1])
    corrupted[-1] ^= 0x80  # inside the tag
    chunks = list(package.chunks)
    chunks[1] = bytes(corrupted)
    digests = list(package.chunk_digests)
    digests[1] = sha256(bytes(corrupted))
    broken = ContentPackage(
        name=package.name,
        content_size=package.content_size,
        chunk_size=package.chunk_size,
        nonce=package.nonce,
        plaintext_digest=package.plaintext_digest,
        chunk_digests=tuple(digests),
        wrapped_key=package.wrapped_key,
        chunks=tuple(chunks),
    )
    with pytest.raises(IntegrityError, match="chunk 1"):
        open_package(scheme, pk, broken, entitled)


def test_empty_content_single_empty_chunk(world):
    scheme, pk, entitled, _ = world
    package = seal(scheme, pk, "empty", b"", content_cover(), ["gold", "family"], rng=Random(10))
    assert len(package.chunks) == 1
    assert open_package(scheme, pk, package, entitled) == b""


def test_content_key_derivation_deterministic():
    suite = TransparentSuite(P)
    m = suite.target_from_log(12345)
    assert derive_content_key(m) == derive_content_key(suite.target_from_log(12345))
    assert derive_content_key(m) != derive_content_key(suite.target_from_log(54321))
    assert len(derive_content_key(m)) == 32


def test_stream_dem_roundtrip_and_auth():
    dem = StreamDem()
    key, nonce = bytes(32), b"nonce"
    sealed = dem.seal(key, nonce, b"hello world")
    assert dem.open(key, nonce, sealed) == b"hello world"
    with pytest.raises(IntegrityError):
        dem.open(key, b"other", sealed)
    with pytest.raises(IntegrityError):
        dem.open(key, nonce, sealed[:-1] + bytes([sealed[-1] ^ 1]))


def test_package_serialization_roundtrip(world):
    scheme, pk, entitled, _ = world
    content = Random(11).randbytes(1000)
    package = seal(
        scheme, pk, "movie", content, content_cover(), ["gold", "family"], rng=Random(12),
        chunk_size=128,
    )
    data = package_to_bytes(package)
    loaded = package_from_bytes(data)
    assert loaded == package
    assert open_package(scheme, pk, loaded, entitled) == content


@pytest.mark.parametrize("mode", [Mode.REPAIRED, Mode.PAPER])
def test_relabelled_attributes(mode):
    """No digest covers the package's attribute labels.  In repaired mode
    nothing in the ciphertext depends on them either, so rewriting the labels
    of a platinum package to the key's gold and family opens it.  In paper
    mode the decryption helper depends on the label, so the unwrapped key is
    wrong and the chunks fail to authenticate."""
    scheme = TimedKpAbe(TransparentSuite(P), mode)
    rng = Random(31)
    pk, mk = scheme.setup(["gold", "family", "platinum"], depth=4, rng=rng)
    sk = scheme.keygen(
        pk,
        mk,
        scheme.suite.hash_to_scalar(b"carol"),
        content_cover(),
        compile_policy("gold AND family", P),
        rng=rng,
    )
    content = b"platinum only"
    package = seal(scheme, pk, "movie", content, content_cover(), ["platinum"], rng=rng)
    with pytest.raises(AccessDeniedError):
        open_package(scheme, pk, package, sk)
    key = package.wrapped_key
    wrapped = Ciphertext(key.mode, ("family", "gold"), key.cover, key.c0, key.c0_prime, key.c_time)
    forged = package_from_bytes(
        package_to_bytes(
            ContentPackage(
                package.name, package.content_size, package.chunk_size, package.nonce,
                package.plaintext_digest, package.chunk_digests, wrapped, package.chunks,
            )
        )
    )
    assert forged.attributes == ("family", "gold")
    if mode is Mode.REPAIRED:
        assert open_package(scheme, pk, forged, sk) == content
    else:
        with pytest.raises(IntegrityError):
            open_package(scheme, pk, forged, sk)


# Known answers: sealed chunks and encoded packages are a wire format, so
# any speed-up of the DEM or the codec must reproduce these bytes exactly.
KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(100, 120))


def kat_plaintext(length):
    return bytes((i * 131 + 7) % 256 for i in range(length))


SEALED_SHA256 = {
    0: "09b80a102ba0c9e0348e001b670cc030c239399627a4276fed3f0249689b842d",
    1: "dacd0ae273192e88fcd21824fd6c9509341d14e2441b2ee32e332fabd0bfbf14",
    63: "27d2940f26f3341e2673e6839d5791ffe5c9e87440370eaa06794e0a534c96b7",
    64: "1a931cf3a6cf5be223c3d4b4901d79cd1bad825b8db5ad5dcd3c29bbc2ee2e27",
    65: "dc653aa818856d61bb6fef02eb51900af1de58f8045bf2b1dc89657fdb68334f",
    4096: "c3152eaba74b344b449f60b190a785f6374ea229b28b35e625e5b3f2d073a42b",
    70000: "77ba6cf69aebdad13dd7c1859197c8accd38f2f3798ad3549d4e4b520237bbde",
}


@pytest.mark.parametrize("length", [0, 1, 64, 4096])
def test_stream_dem_matches_spec(length):
    """A sealed chunk rebuilt from FIPS 202 SHAKE128 and RFC 2104 HMAC alone:
    body = plaintext XOR SHAKE128("dem-stream.v1" || key || nonce), then
    tag = HMAC-SHA256(key, "dem-tag.v1" || nonce || body)."""
    plaintext = kat_plaintext(length)
    stream = hashlib.shake_128(b"dem-stream.v1" + KAT_KEY + KAT_NONCE).digest(length)
    body = bytes(p ^ k for p, k in zip(plaintext, stream))
    tag = hmac.new(KAT_KEY, b"dem-tag.v1" + KAT_NONCE + body, "sha256").digest()
    assert StreamDem().seal(KAT_KEY, KAT_NONCE, plaintext) == body + tag


@pytest.mark.parametrize("length", sorted(SEALED_SHA256))
def test_stream_dem_known_answers(length):
    dem = StreamDem()
    plaintext = kat_plaintext(length)
    sealed = dem.seal(KAT_KEY, KAT_NONCE, plaintext)
    assert len(sealed) == length + StreamDem.TAG_BYTES
    assert hashlib.sha256(sealed).hexdigest() == SEALED_SHA256[length]
    assert dem.open(KAT_KEY, KAT_NONCE, sealed) == plaintext


def test_package_encoding_known_answer(world):
    scheme, pk, entitled, _ = world
    content = kat_plaintext((1 << 20) + 4321)
    package = seal(
        scheme, pk, "kat.bin", content, content_cover(), ["gold", "family"], rng=Random(99),
        chunk_size=4096,
    )
    data = package_to_bytes(package)
    assert len(data) == 1071630
    assert (
        hashlib.sha256(data).hexdigest()
        == "e0465fffcd7739b2ace8bf52ffa6ffdf70adf33877753ceec328e67c27836a01"
    )
    loaded = package_from_bytes(data)
    assert loaded == package
    assert open_package(scheme, pk, loaded, entitled) == content


def test_package_version_byte(world):
    scheme, pk, _, _ = world
    package = seal(scheme, pk, "movie", b"clip", content_cover(), ["gold"], rng=Random(13))
    data = package_to_bytes(package)
    assert data[:5] == b"TKPK\x01"
    for version in (0, 2, 255):
        with pytest.raises(WireError, match=f"unsupported package version {version}"):
            package_from_bytes(data[:4] + bytes([version]) + data[5:])
    # A package from before the version byte: its name's length prefix
    # begins with a zero byte where the version now sits.
    with pytest.raises(WireError, match="unsupported package version 0"):
        package_from_bytes(data[:4] + data[5:])
    with pytest.raises(WireError, match="truncated"):
        package_from_bytes(b"TKPK")


def test_package_nonce_length_is_checked(world):
    """Chunk nonces have one length, so no nonce/body split of a tagged
    chunk can be replayed under a longer or shorter package nonce."""
    scheme, pk, _, _ = world
    package = seal(scheme, pk, "movie", b"clip", content_cover(), ["gold"], rng=Random(14))
    for nonce in (package.nonce[:-1], package.nonce + b"\x00"):
        data = package_to_bytes(
            ContentPackage(
                package.name, package.content_size, package.chunk_size, nonce,
                package.plaintext_digest, package.chunk_digests, package.wrapped_key,
                package.chunks,
            )
        )
        with pytest.raises(WireError, match="package nonce must be 16 bytes"):
            package_from_bytes(data)


# ----------------------------------------------------------------------
# Signed directory.
# ----------------------------------------------------------------------


def entries():
    return [
        DirectoryEntry("monster2.mp4", bytes.fromhex("aa" * 32), 1700000000, "popular", "public-infotainment"),
        DirectoryEntry("badguy.mp4", bytes.fromhex("bb" * 32), 1700000500, "", "subscription-infotainment"),
    ]


def test_directory_build_verify_lookup():
    signer = KeyedDigestSigner("rsu1", b"secret-key")
    directory = build_directory(entries(), signer)
    assert [e.name for e in directory.entries] == ["badguy.mp4", "monster2.mp4"]
    assert verify_directory(directory, {"rsu1": b"secret-key"})
    entry = directory.find("badguy.mp4")
    assert entry is not None and entry.file_hash == bytes.fromhex("bb" * 32)
    assert directory.find("nothere.mp4") is None


def test_directory_entry_order_is_canonical():
    signer = KeyedDigestSigner("rsu1", b"secret-key")
    a = build_directory(entries(), signer)
    b = build_directory(list(reversed(entries())), signer)
    assert a == b
    assert directory_to_bytes(a) == directory_to_bytes(b)


def test_directory_rejects_any_mutation():
    signer = KeyedDigestSigner("rsu1", b"secret-key")
    directory = build_directory(entries(), signer)
    flipped = bytearray(directory.entries[0].file_hash)
    flipped[0] ^= 1
    mutated = build_directory(
        [
            DirectoryEntry(
                directory.entries[0].name,
                bytes(flipped),
                directory.entries[0].updated_at,
                directory.entries[0].description,
                directory.entries[0].category,
            ),
            directory.entries[1],
        ],
        KeyedDigestSigner("rsu1", b"wrong"),
    )
    tampered = type(directory)(
        issuer=directory.issuer, entries=mutated.entries, signature=directory.signature
    )
    assert not verify_directory(tampered, {"rsu1": b"secret-key"})


def test_directory_unknown_issuer_distinct():
    signer = KeyedDigestSigner("rsu9", b"secret-key")
    directory = build_directory(entries(), signer)
    with pytest.raises(UnknownIssuerError):
        verify_directory(directory, {"rsu1": b"secret-key"})


def test_directory_serialization_roundtrip():
    signer = KeyedDigestSigner("rsu1", b"secret-key")
    directory = build_directory(entries(), signer)
    loaded = directory_from_bytes(directory_to_bytes(directory))
    assert loaded == directory
    assert verify_directory(loaded, {"rsu1": b"secret-key"})


def test_directory_encoding_known_answer():
    directory = build_directory(entries(), KeyedDigestSigner("rsu1", b"secret-key"))
    data = directory_to_bytes(directory)
    assert len(data) == 237
    assert (
        hashlib.sha256(data).hexdigest()
        == "f000d95329008cb4f543f6b6c5ee852ee2dfc2e5d3a2c6a2e14adb91102d7a77"
    )


def test_directory_rejects_duplicate_names():
    signer = KeyedDigestSigner("rsu1", b"s")
    dup = entries() + [entries()[0]]
    with pytest.raises(ValueError, match="duplicate"):
        build_directory(dup, signer)
