"""Small binary codec helpers shared by the serializers.

All multi-byte integers are big-endian.  Variable-length fields are
length-prefixed with a u32.
"""

import struct


class WireError(ValueError):
    """Malformed or truncated binary input, or, when writing, a value that
    does not fit its fixed-width field."""


def _packer(fmt: str, bits: int):
    pack = struct.Struct(fmt).pack

    def packer(value: int) -> bytes:
        try:
            return pack(value)
        except struct.error:
            raise WireError(f"value {value!r} does not fit an unsigned {bits}-bit field") from None

    return packer


pack_u8 = _packer(">B", 8)
pack_u16 = _packer(">H", 16)
pack_u32 = _packer(">I", 32)
pack_u64 = _packer(">Q", 64)


def pack_bytes(data: bytes) -> bytes:
    return pack_u32(len(data)) + data


def pack_str(text: str) -> bytes:
    return pack_bytes(text.encode("utf-8"))


class Reader:
    """Cursor over an immutable byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise WireError("truncated input")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes_(self) -> bytes:
        return self._take(self.u32())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid utf-8 field") from exc

    def expect(self, magic: bytes) -> None:
        got = self._take(len(magic))
        if got != magic:
            raise WireError(f"bad magic: expected {magic!r}, got {got!r}")

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def require_exhausted(self) -> None:
        if not self.exhausted:
            raise WireError(f"{len(self._data) - self._pos} trailing bytes")
