"""Time-sensitive key-policy ABE: setup, key issue, encrypt, decrypt.

Keys carry a monotone policy formula (compiled to an LSSS) plus a
set-cover of the holder's entitled days; ciphertexts carry attribute labels
plus a set-cover of the content's decryptable days.  Decryption needs the
attribute set to satisfy the key policy and at least one time node present
verbatim on both sides; when several match, it uses the ciphertext's
first in cover order.  A cover holds disjoint nodes in path order, so that
is the least node the two covers share.  Every exponent (alpha, beta, the
shares, the pseudo-identity) is a plain int mod p; inverses are
``pow(x, -1, p)``.

Two construction variants are supported and recorded inside every key and
ciphertext:

* ``paper``: row keys keep an attribute-dependent factor,
  d_i' = (g * h^beta)^(lambda_i * id), and the decryption helper is
  k_y = (g^beta * h_y^beta)^(-1).  The attribute product in the decryption
  equation then does not cancel, so decrypt returns the message multiplied
  by a nonzero residual.  ``audit.audit_decryption`` isolates and reports
  that residual.
* ``repaired``: the minimal change that closes the equation,
  d_i' = g^(lambda_i * id) and k = g^(-beta).  Decrypt returns the message
  exactly.

Caveat, true in both modes: the ciphertext has no component that depends
on the attribute set, so attribute enforcement is a procedural check, not
a cryptographic one.  Time enforcement and the message blinding are the
algebraic parts.

The decryption conditions are checked before any pairing is evaluated, and
a successful decryption performs exactly 2*|I| + 3 pairings, where I is
the set of key rows labeled by ciphertext attributes.
"""

from enum import Enum
from functools import cached_property
from itertools import chain
from random import Random

from . import Record, lsss
from .groups import SourceElement, SuiteMismatchError, TargetElement, TransparentSuite
from .lsss import AccessStructure
from .timetree import TimeCover, TimeNode
from .wire import Reader, WireError, pack_bytes, pack_str, pack_u8, pack_u16

_MAGIC = b"TSKA"
_FORMAT_VERSION = 1
_KIND_PK, _KIND_SK, _KIND_CT = 1, 2, 3
_MARKER_MK, _MARKER_SK_MATRIX, _MARKER_SK = 0, 1, 2
# A public key stores its universe size in a u16 and its tree depth in a u8.
_MAX_UNIVERSE, _MAX_DEPTH = 0xFFFF, 0xFF

DEFAULT_DEPTH = 4


class Mode(str, Enum):
    PAPER = "paper"
    REPAIRED = "repaired"


class ModeMismatchError(ValueError):
    """Keys and ciphertexts from different modes are incompatible."""


class UnknownAttributeError(KeyError):
    """An attribute label outside the public parameters' universe."""


class PublicParams(Record):
    suite: TransparentSuite
    mode: Mode
    universe: tuple[str, ...]
    depth: int
    g: SourceElement
    g_alpha: SourceElement
    g_alpha_sq: SourceElement
    g_inv_alpha: SourceElement
    g_beta: SourceElement
    g_beta_sq: SourceElement
    e_gg_alpha: TargetElement
    h_beta: tuple[SourceElement, ...]
    v: tuple[SourceElement, ...]

    @cached_property
    def _label_index(self) -> dict[str, int]:
        """Built on first use; kept in the instance dict, outside the fields."""
        return {label: i for i, label in enumerate(self.universe)}

    def h_beta_for(self, attribute: str) -> SourceElement:
        try:
            return self.h_beta[self._label_index[attribute]]
        except KeyError:
            raise UnknownAttributeError(f"attribute {attribute!r} not in the universe") from None

    def source_elements(self) -> list[SourceElement]:
        return [
            self.g,
            self.g_alpha,
            self.g_alpha_sq,
            self.g_inv_alpha,
            self.g_beta,
            self.g_beta_sq,
            *self.h_beta,
            *self.v,
        ]


class MasterKey(Record):
    alpha: int
    beta: int


class PrivateKey(Record):
    mode: Mode
    pid: int
    access: AccessStructure
    cover: TimeCover
    d0: TargetElement
    d0_prime: SourceElement
    d_time: tuple[SourceElement, ...]  # aligned with cover.nodes
    rows: tuple[tuple[SourceElement, SourceElement], ...]  # (d_i, d_i')

    def source_elements(self) -> list[SourceElement]:
        return [self.d0_prime, *self.d_time, *chain.from_iterable(self.rows)]


class Ciphertext(Record):
    mode: Mode
    attributes: tuple[str, ...]
    cover: TimeCover
    c0: TargetElement
    c0_prime: SourceElement
    c_time: tuple[tuple[SourceElement, SourceElement], ...]  # (c0_tau, c1_tau)

    def source_elements(self) -> list[SourceElement]:
        return [self.c0_prime, *chain.from_iterable(self.c_time)]


def component_counts(obj) -> tuple[int, int]:
    """(source, target) component counts, taken from the actual value."""
    if isinstance(obj, (PublicParams, PrivateKey, Ciphertext)):
        return (len(obj.source_elements()), 1)
    raise TypeError(f"cannot count components of {type(obj).__name__}")


def _normalize_universe(universe) -> tuple[str, ...]:
    size = universe if isinstance(universe, int) else len(universe)
    if size > _MAX_UNIVERSE:
        raise ValueError(f"universe size must be <= {_MAX_UNIVERSE}, got {size}")
    if isinstance(universe, int):
        if universe < 1:
            raise ValueError("universe size must be >= 1")
        return tuple(f"attr{i}" for i in range(1, universe + 1))
    labels = tuple(universe)
    if not labels:
        raise ValueError("universe must not be empty")
    if len(set(labels)) != len(labels):
        raise ValueError("universe labels must be distinct")
    for label in labels:
        if not lsss.names_attribute(label):
            raise ValueError(f"universe label {label!r} is not an attribute a policy can name")
    return labels


class TimedKpAbe:
    """The four algorithms over an injected suite and mode."""

    def __init__(self, suite: TransparentSuite, mode: Mode = Mode.REPAIRED):
        self.suite = suite
        self.mode = Mode(mode)

    # ------------------------------------------------------------------

    def setup(
        self, universe, depth: int = DEFAULT_DEPTH, *, rng: Random
    ) -> tuple[PublicParams, MasterKey]:
        """Draw order: alpha (resampled while zero), beta, the per-attribute
        h elements, then the per-level v elements."""
        labels = _normalize_universe(universe)
        if depth < 2:
            raise ValueError("tree depth must be >= 2")
        if depth > _MAX_DEPTH:
            raise ValueError(f"tree depth must be <= {_MAX_DEPTH}, got {depth}")
        suite = self.suite
        g = suite.generator()
        alpha = suite.random_nonzero_scalar(rng)
        beta = suite.random_scalar(rng)
        h = [suite.random_source(rng) for _ in labels]
        v = [suite.random_source(rng) for _ in range(depth + 1)]
        pk = PublicParams(
            suite=suite,
            mode=self.mode,
            universe=labels,
            depth=depth,
            g=g,
            g_alpha=g**alpha,
            g_alpha_sq=g ** (alpha * alpha),
            g_inv_alpha=g ** pow(alpha, -1, suite.p),
            g_beta=g**beta,
            g_beta_sq=g ** (beta * beta),
            e_gg_alpha=suite.pair(g, g) ** alpha,
            h_beta=tuple(h_i**beta for h_i in h),
            v=tuple(v),
        )
        return pk, MasterKey(alpha, beta)

    # ------------------------------------------------------------------

    def _time_base(self, pk: PublicParams, node: TimeNode) -> SourceElement:
        """v_0 * prod_j v_j^(label_j) over the node's label path."""
        acc = pk.v[0]
        for level, label in enumerate(node.components, start=1):
            acc = acc * pk.v[level] ** label
        return acc

    def _check_cover_depth(self, pk: PublicParams, cover: TimeCover) -> None:
        for node in cover:
            if node.depth >= pk.depth:
                raise ValueError(
                    f"time node {node} too deep for tree depth {pk.depth}"
                )

    def keygen(
        self,
        pk: PublicParams,
        mk: MasterKey,
        pid: int,
        cover: TimeCover,
        access: AccessStructure,
        *,
        rng: Random,
    ) -> PrivateKey:
        suite = self.suite
        pid %= suite.p
        if pid == 0:
            raise ValueError("pseudo-identity must be nonzero")
        self._check_pk(pk)
        self._check_cover_depth(pk, cover)
        for attribute in access.row_attributes:
            pk.h_beta_for(attribute)  # unknown labels fail here
        g = pk.g
        # w is the shared exponent, split into one share per policy row.
        w = suite.random_scalar(rng)
        lam = lsss.share(access, w, rng=rng)
        rows = []
        for i, attribute in enumerate(access.row_attributes):
            d_i = g ** (mk.beta * lam[i])
            if self.mode is Mode.PAPER:
                d_i_prime = (g * pk.h_beta_for(attribute)) ** (lam[i] * pid)
            else:
                d_i_prime = g ** (lam[i] * pid)
            rows.append((d_i, d_i_prime))
        return PrivateKey(
            mode=self.mode,
            pid=pid,
            access=access,
            cover=cover,
            d0=pk.e_gg_alpha**w,
            d0_prime=g ** (w * pow(mk.alpha, -1, suite.p)),
            d_time=tuple(self._time_base(pk, node) ** w for node in cover),
            rows=tuple(rows),
        )

    # ------------------------------------------------------------------

    def encrypt(
        self,
        pk: PublicParams,
        message: TargetElement,
        cover: TimeCover,
        attributes,
        *,
        rng: Random,
    ) -> Ciphertext:
        self._check_pk(pk)
        attrs = tuple(sorted(set(attributes)))
        for attribute in attrs:
            pk.h_beta_for(attribute)
        if len(cover) == 0:
            raise ValueError("ciphertext cover must not be empty")
        self._check_cover_depth(pk, cover)
        suite = self.suite
        g = pk.g
        x = suite.random_scalar(rng)
        c_time = []
        for node in cover:
            v_tau = suite.random_scalar(rng)
            c0_tau = g**v_tau
            c1_tau = pk.g_alpha**x * pk.g_beta_sq * self._time_base(pk, node) ** v_tau
            c_time.append((c0_tau, c1_tau))
        return Ciphertext(
            mode=self.mode,
            attributes=attrs,
            cover=cover,
            c0=message * pk.e_gg_alpha**x,
            c0_prime=pk.g_alpha_sq**x,
            c_time=tuple(c_time),
        )

    # ------------------------------------------------------------------

    def _check_pk(self, pk: PublicParams) -> None:
        if pk.suite != self.suite:
            raise SuiteMismatchError("public parameters from a different suite")
        if pk.mode is not self.mode:
            raise ModeMismatchError(
                f"public parameters are {pk.mode.value}, scheme is {self.mode.value}"
            )

    def _check_pair_compat(self, ct: Ciphertext, sk: PrivateKey) -> None:
        if ct.c0_prime.suite != sk.d0_prime.suite:
            raise SuiteMismatchError("key and ciphertext from different suites")
        if ct.mode is not sk.mode:
            raise ModeMismatchError(
                f"ciphertext is {ct.mode.value}, key is {sk.mode.value}"
            )
        if sk.mode is not self.mode:
            raise ModeMismatchError(
                f"key is {sk.mode.value}, scheme is {self.mode.value}"
            )

    @staticmethod
    def _common_node(ct: Ciphertext, sk: PrivateKey) -> tuple[TimeNode, int, int] | None:
        """The ciphertext's first time node that the key's cover also holds,
        with its position in the key's cover and in the ciphertext's.  The
        key cover's position map is built once per cover."""
        key_positions = sk.cover.positions
        for j, node in enumerate(ct.cover.nodes):
            i = key_positions.get(node.components)
            if i is not None:
                return node, i, j
        return None

    def _helper_k(self, pk: PublicParams, attribute: str) -> SourceElement:
        """Decryption helper, recomputed from public parameters."""
        if self.mode is Mode.PAPER:
            return (pk.g_beta * pk.h_beta_for(attribute)).inverse()
        return pk.g_beta.inverse()

    def decrypt(
        self, pk: PublicParams, ct: Ciphertext, sk: PrivateKey
    ) -> TargetElement | None:
        """Returns the recovered target element, or None when the attribute
        set fails the key policy or no time node matches verbatim."""
        self._check_pk(pk)
        self._check_pair_compat(ct, sk)
        common = self._common_node(ct, sk)
        if common is None:
            return None
        omegas = lsss.reconstruct_coeffs(sk.access, ct.attributes)
        if omegas is None:
            return None
        _, i_key, i_ct = common
        suite = self.suite
        d_time = sk.d_time[i_key]
        c0_tau, c1_tau = ct.c_time[i_ct]
        num = ct.c0 * suite.pair(d_time, c0_tau) * suite.pair(ct.c0_prime, sk.d0_prime)
        den = suite.pair(ct.c0_prime, pk.g_inv_alpha)
        inv_pid = pow(sk.pid, -1, suite.p)
        for i, omega in sorted(omegas.items()):
            d_i, d_i_prime = sk.rows[i]
            k_i = self._helper_k(pk, sk.access.row_attributes[i])
            den = den * (
                suite.pair(c1_tau, d_i_prime ** (omega * inv_pid))
                * suite.pair(d_i, k_i) ** omega
            )
        return num * den.inverse()


# ----------------------------------------------------------------------
# Canonical serialization.  Every object is a header, fixed fields, then an
# element block.  Header: magic, version, object kind, mode byte (an index
# into _MODES), suite id, modulus.  Fixed fields:
#   pk  u16 universe size, u8 depth, the labels
#   mk  marker 0, alpha, beta (a master key has no element block)
#   sk  marker 2, pid, the policy formula as canonical text, the cover
#   ct  u16 attribute count, the labels, the cover
# A cover is a u16 node count and the node texts; marker 1 was the retired
# private-key format, which held a matrix.  The element block holds one
# fixed-width discrete log per element: a pk's source_elements() then
# e_gg_alpha; an sk's d0 then source_elements(); a ct's c0 then
# source_elements().
# ----------------------------------------------------------------------

_MODES = (Mode.PAPER, Mode.REPAIRED)


def _header(kind: int, mode: Mode, suite: TransparentSuite) -> list[bytes]:
    modulus = suite.p.to_bytes(suite.scalar_width, "big")
    fixed = bytes((_FORMAT_VERSION, kind, _MODES.index(mode), suite.suite_id))
    return [_MAGIC, fixed, pack_bytes(modulus)]


def _read_header(reader: Reader, expected_kind: int) -> tuple[Mode, TransparentSuite]:
    reader.expect(_MAGIC)
    version = reader.u8()
    if version != _FORMAT_VERSION:
        raise WireError(f"unsupported format version {version}")
    kind = reader.u8()
    if kind != expected_kind:
        raise WireError(f"expected object kind {expected_kind}, got {kind}")
    mode_byte = reader.u8()
    if mode_byte >= len(_MODES):
        raise WireError(f"unknown mode byte {mode_byte}")
    suite_id = reader.u8()
    if suite_id != TransparentSuite.suite_id:
        raise WireError(f"unknown suite id {suite_id}")
    p = int.from_bytes(reader.bytes_(), "big")
    return _MODES[mode_byte], TransparentSuite(p)


def _pack_fields(values, suite: TransparentSuite) -> bytes:
    """Fixed-width fields: exponents, or elements' discrete logs."""
    width = suite.scalar_width
    return b"".join([value.to_bytes(width, "big") for value in values])


def _read_fields(reader: Reader, suite: TransparentSuite, count: int) -> list[int]:
    """count fixed-width fields; values >= p are rejected, never reduced."""
    width, p = suite.scalar_width, suite.p
    values = []
    for _ in range(count):
        value = int.from_bytes(reader.raw(width), "big")
        if value >= p:
            raise WireError(f"field value {value} out of range for modulus {p}")
        values.append(value)
    return values


def _read_cover(reader: Reader) -> TimeCover:
    count = reader.u16()
    nodes = [TimeNode.parse(reader.str_()) for _ in range(count)]
    return TimeCover.from_nodes(nodes)


def pk_to_bytes(pk: PublicParams) -> bytes:
    return b"".join([
        *_header(_KIND_PK, pk.mode, pk.suite),
        pack_u16(len(pk.universe)),
        pack_u8(pk.depth),
        *map(pack_str, pk.universe),
        _pack_fields([el.log for el in (*pk.source_elements(), pk.e_gg_alpha)], pk.suite),
    ])


def pk_from_bytes(data: bytes) -> PublicParams:
    reader = Reader(data)
    mode, suite = _read_header(reader, _KIND_PK)
    size = reader.u16()
    depth = reader.u8()
    labels = [reader.str_() for _ in range(size)]
    try:
        universe = _normalize_universe(labels)
    except ValueError as exc:
        raise WireError(f"public key universe: {exc}") from None
    *logs, e_gg_alpha = _read_fields(reader, suite, 6 + size + depth + 2)
    reader.require_exhausted()
    sources = [suite.source_from_log(log) for log in logs]
    return PublicParams(
        suite, mode, universe, depth, *sources[:6],
        e_gg_alpha=suite.target_from_log(e_gg_alpha),
        h_beta=tuple(sources[6 : 6 + size]),
        v=tuple(sources[6 + size :]),
    )


def mk_to_bytes(mk: MasterKey, suite: TransparentSuite, mode: Mode) -> bytes:
    return b"".join([
        *_header(_KIND_SK, mode, suite),
        pack_u8(_MARKER_MK),
        _pack_fields((mk.alpha, mk.beta), suite),
    ])


def mk_from_bytes(data: bytes) -> tuple[MasterKey, Mode, TransparentSuite]:
    reader = Reader(data)
    mode, suite = _read_header(reader, _KIND_SK)
    if reader.u8() != _MARKER_MK:
        raise WireError("not a master key")
    [alpha] = _read_fields(reader, suite, 1)
    if not alpha:
        raise WireError("master key has a zero alpha")
    [beta] = _read_fields(reader, suite, 1)
    reader.require_exhausted()
    return MasterKey(alpha, beta), mode, suite


def sk_to_bytes(sk: PrivateKey) -> bytes:
    suite = sk.d0_prime.suite
    return b"".join([
        *_header(_KIND_SK, sk.mode, suite),
        pack_u8(_MARKER_SK),
        _pack_fields((sk.pid,), suite),
        pack_str(lsss.policy_text(sk.access.policy)),
        pack_u16(len(sk.cover)),
        *map(pack_str, sk.cover.texts()),
        _pack_fields([el.log for el in (sk.d0, *sk.source_elements())], suite),
    ])


def sk_from_bytes(data: bytes) -> PrivateKey:
    reader = Reader(data)
    mode, suite = _read_header(reader, _KIND_SK)
    marker = reader.u8()
    if marker == _MARKER_SK_MATRIX:
        raise WireError("private key in the retired matrix format, reissue it")
    if marker != _MARKER_SK:
        raise WireError("not a private key")
    [pid] = _read_fields(reader, suite, 1)
    if not pid:
        raise WireError("private key has a zero pseudo-identity")
    try:
        access = lsss.compile_policy(reader.str_(), suite.p)
    except lsss.PolicyError as exc:
        raise WireError(f"private key policy: {exc}") from None
    cover = _read_cover(reader)
    n = len(cover)
    d0, *logs = _read_fields(reader, suite, 2 + n + 2 * access.rows)
    reader.require_exhausted()
    sources = [suite.source_from_log(log) for log in logs]
    return PrivateKey(
        mode, pid, access, cover, suite.target_from_log(d0), sources[0],
        d_time=tuple(sources[1 : 1 + n]),
        rows=tuple(zip(sources[1 + n :: 2], sources[2 + n :: 2])),
    )


def ct_to_bytes(ct: Ciphertext) -> bytes:
    suite = ct.c0_prime.suite
    return b"".join([
        *_header(_KIND_CT, ct.mode, suite),
        pack_u16(len(ct.attributes)),
        *map(pack_str, ct.attributes),
        pack_u16(len(ct.cover)),
        *map(pack_str, ct.cover.texts()),
        _pack_fields([el.log for el in (ct.c0, *ct.source_elements())], suite),
    ])


def ct_from_bytes(data: bytes) -> Ciphertext:
    reader = Reader(data)
    mode, suite = _read_header(reader, _KIND_CT)
    n_attrs = reader.u16()
    attributes = tuple(reader.str_() for _ in range(n_attrs))
    cover = _read_cover(reader)
    c0, *logs = _read_fields(reader, suite, 2 + 2 * len(cover))
    reader.require_exhausted()
    sources = [suite.source_from_log(log) for log in logs]
    return Ciphertext(
        mode, attributes, cover, suite.target_from_log(c0), sources[0],
        c_time=tuple(zip(sources[1::2], sources[2::2])),
    )
