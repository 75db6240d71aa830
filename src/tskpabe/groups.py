"""Symmetric bilinear-group algebra over a transparent test instantiation.

The scheme needs a Type-1 pairing: one source group of prime order p with
generator g, a target group, and a symmetric bilinear map
pair(g^x, g^y) = e(g, g)^(x*y).

The one suite here is *transparent*: every element literally stores its
discrete log (to base g in the source group, to base e(g, g) in the target
group), so pairings, exponentiations and products reduce to exact
arithmetic mod p.  This makes group equations checkable as integer
identities, which is what the algebra auditor and the test suite rely on.
It is deliberately non-hiding and provides no security at all.

Exponents are plain ints: raising an element to any int reduces it mod p,
and the random and hashed draws return residues in [0, p).

The suite carries operation counters so callers can account for the exact
number of pairings and exponentiations a computation performed: each
pairing, exponentiation and product bumps its counter once, and no element
or intermediate result is cached, so the counts are the paper's cost model.

The four operators on the hot path (``SourceElement.__pow__``,
``TargetElement.__pow__``, ``_Element.__mul__`` and ``TransparentSuite.pair``)
build their result with ``object.__new__`` and the two slot stores, reducing
the log mod p as ``__init__`` does, which skips one Python frame per result.
Each still computes its own result and bumps its counter once, so the
counts do not change; every other constructor goes through ``__init__``.
"""

from random import Random

from . import Record

_HASH_LABEL = b"hash-to-scalar.v1"

_new = object.__new__

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SuiteMismatchError(ValueError):
    """Elements from different suites were mixed."""


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OpCounters(Record, frozen=False):
    """Monotone operation tallies for one measurement scope."""

    pairings: int = 0
    source_exponentiations: int = 0
    target_exponentiations: int = 0
    multiplications: int = 0

    def snapshot(self) -> "OpCounters":
        return OpCounters(
            self.pairings,
            self.source_exponentiations,
            self.target_exponentiations,
            self.multiplications,
        )

    def since(self, earlier: "OpCounters") -> "OpCounters":
        return OpCounters(
            self.pairings - earlier.pairings,
            self.source_exponentiations - earlier.source_exponentiations,
            self.target_exponentiations - earlier.target_exponentiations,
            self.multiplications - earlier.multiplications,
        )


class _Element:
    """Group element of the transparent suite: a bare discrete log."""

    __slots__ = ("suite", "log")

    def __init__(self, suite: "TransparentSuite", log: int):
        self.suite = suite
        self.log = log % suite.p

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise SuiteMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.suite != self.suite:
            raise SuiteMismatchError("elements from different suites")

    def __mul__(self, other):
        suite = self.suite
        # Equal but distinct suites, and anything else, take the full check.
        if type(other) is not type(self) or other.suite is not suite:
            self._check(other)
        suite.counters.multiplications += 1
        result = _new(type(self))
        result.suite = suite
        result.log = (self.log + other.log) % suite.p
        return result

    def inverse(self):
        return self ** (self.suite.p - 1)

    def is_identity(self) -> bool:
        return self.log == 0

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.suite == self.suite
            and other.log == self.log
        )

    def __hash__(self):
        return hash((type(self).__name__, self.suite.p, self.log))

    def __repr__(self):
        return f"{type(self).__name__}(log={self.log}, p={self.suite.p})"


class SourceElement(_Element):
    __slots__ = ()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        suite = self.suite
        suite.counters.source_exponentiations += 1
        result = _new(SourceElement)
        result.suite = suite
        result.log = self.log * exponent % suite.p
        return result


class TargetElement(_Element):
    __slots__ = ()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        suite = self.suite
        suite.counters.target_exponentiations += 1
        result = _new(TargetElement)
        result.suite = suite
        result.log = self.log * exponent % suite.p
        return result


class TransparentSuite:
    """Exponent-tracking oracle suite over a prime-order group.  Insecure by
    design."""

    suite_id = 1

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"group order must be prime, got {p}")
        self.p = p
        self.counters = OpCounters()

    # Suites compare by order so independently deserialized objects
    # interoperate.
    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((type(self).__name__, self.p))

    def random_scalar(self, rng: Random) -> int:
        return rng.randrange(self.p)

    def random_nonzero_scalar(self, rng: Random) -> int:
        while True:
            s = rng.randrange(self.p)
            if s:
                return s

    def hash_to_scalar(self, data: bytes) -> int:
        """Deterministic hash into [1, p).  Zero is resampled away because
        derived identities end up as exponent divisors."""
        import hashlib

        counter = 0
        while True:
            digest = hashlib.sha256(
                _HASH_LABEL + counter.to_bytes(4, "big") + data
            ).digest()
            value = int.from_bytes(digest, "big") % self.p
            if value:
                return value
            counter += 1

    # ------------------------------------------------------------------
    # Canonical element encoding: version byte, suite id, kind byte,
    # u16 width, then the big-endian fixed-width payload.  The content-key
    # KDF hashes it, so these bytes are part of every sealed package.
    # ------------------------------------------------------------------

    _ENCODING_VERSION = 1
    _KIND_SOURCE = 1
    _KIND_TARGET = 2

    @property
    def scalar_width(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, element: _Element) -> bytes:
        if element.suite != self:
            raise SuiteMismatchError("element belongs to a different suite")
        kind = (
            self._KIND_SOURCE
            if isinstance(element, SourceElement)
            else self._KIND_TARGET
        )
        width = self.scalar_width
        return bytes(
            [self._ENCODING_VERSION, self.suite_id, kind]
        ) + width.to_bytes(2, "big") + element.log.to_bytes(width, "big")

    def generator(self) -> SourceElement:
        return SourceElement(self, 1)

    def identity_target(self) -> TargetElement:
        return TargetElement(self, 0)

    def gt_generator(self) -> TargetElement:
        """e(g, g), the target-group base the transparent logs refer to."""
        return TargetElement(self, 1)

    def source_from_log(self, log: int) -> SourceElement:
        return SourceElement(self, log)

    def target_from_log(self, log: int) -> TargetElement:
        return TargetElement(self, log)

    def random_source(self, rng: Random) -> SourceElement:
        return SourceElement(self, rng.randrange(self.p))

    def random_target(self, rng: Random) -> TargetElement:
        return TargetElement(self, rng.randrange(self.p))

    def pair(self, a: SourceElement, b: SourceElement) -> TargetElement:
        if not (type(a) is type(b) is SourceElement and a.suite is self and b.suite is self):
            if not isinstance(a, SourceElement) or not isinstance(b, SourceElement):
                raise SuiteMismatchError("pairing arguments must be source elements")
            if a.suite != self or b.suite != self:
                raise SuiteMismatchError("pairing arguments from a different suite")
        self.counters.pairings += 1
        result = _new(TargetElement)
        result.suite = self
        result.log = a.log * b.log % self.p
        return result

    def __repr__(self):
        return f"TransparentSuite(p={self.p})"


# Smallest Mersenne prime that comfortably defeats accidental collisions
# in randomized tests while keeping brute-force oracles instant.
DEFAULT_MODULUS = 2**31 - 1


def parse_suite(spec: str) -> TransparentSuite:
    """Parse a suite descriptor such as ``transparent:101``."""
    kind, _, rest = spec.partition(":")
    if kind != "transparent":
        raise ValueError(f"unknown suite kind {kind!r}")
    if not rest:
        return TransparentSuite(DEFAULT_MODULUS)
    try:
        p = int(rest)
    except ValueError as exc:
        raise ValueError(f"bad suite modulus {rest!r}") from exc
    return TransparentSuite(p)
