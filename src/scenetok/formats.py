"""Binary tensor containers.

Every file starts with the magic "MOST", a 4-byte kind tag, and a u16
little-endian format version.  A blob file holds one unnamed array; a
tensor file holds a count followed by named arrays.  All scalars and
payloads are little-endian with explicit dtypes, so files round-trip
byte-identically across machines.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct

import numpy as np

from .errors import BadMagic, ShapeHeaderMismatch, StorageError, VersionUnsupported

MAGIC = b"MOST"
VERSION = 1

KIND_BLOB = b"BLOB"
KIND_TOKENS = b"TOKN"
KIND_PARAMS = b"PARM"

_DTYPE_CODES = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<i4"),
    3: np.dtype("<i8"),
    4: np.dtype("u1"),
    5: np.dtype("?"),
}
_CODE_OF_KIND = {"f4": 0, "f8": 1, "i4": 2, "i8": 3, "u1": 4, "b1": 5}


def _dtype_code(dtype: np.dtype) -> int:
    key = dtype.str.lstrip("<>|=")
    if key not in _CODE_OF_KIND:
        raise ValueError(f"unsupported dtype {dtype}")
    return _CODE_OF_KIND[key]


def _pack_array(array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    code = _dtype_code(array.dtype)
    le = array.astype(_DTYPE_CODES[code], copy=False)
    head = struct.pack("<BB", code, le.ndim)
    head += struct.pack(f"<{le.ndim}Q", *le.shape)
    return head + le.tobytes()


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ShapeHeaderMismatch(
                f"{self.path}: truncated, needed {n} bytes at offset "
                f"{self.pos}, file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self) -> np.ndarray:
        code, ndim = self.unpack("<BB")
        if code not in _DTYPE_CODES:
            raise ShapeHeaderMismatch(f"{self.path}: unknown dtype code {code}")
        shape = self.unpack(f"<{ndim}Q")
        dtype = _DTYPE_CODES[code]
        nbytes = math.prod(shape) * dtype.itemsize  # Python ints: no wrap
        payload = self.take(nbytes)
        try:  # a zero dimension lets the others be any u64
            return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise ShapeHeaderMismatch(
                f"{self.path}: shape {shape} is too large ({exc})") from exc


def _check_header(reader: _Reader, kind: bytes):
    magic = reader.take(4)
    if magic != MAGIC:
        raise BadMagic(f"{reader.path}: bad magic {magic!r}, expected {MAGIC!r}")
    got_kind = reader.take(4)
    if got_kind != kind:
        raise BadMagic(
            f"{reader.path}: file kind {got_kind!r}, expected {kind!r}")
    (version,) = reader.unpack("<H")
    if version != VERSION:
        raise VersionUnsupported(
            f"{reader.path}: format version {version}, supported: {VERSION}")


def _header(kind: bytes) -> bytes:
    return MAGIC + kind + struct.pack("<H", VERSION)


@contextlib.contextmanager
def _replace_on_success(path):
    """Binary handle on a temp file that replaces ``path`` once closed.

    The temp file sits in the target's directory, so ``os.replace`` is an
    atomic rename: readers see the old file or the new one, never a partial
    write.  On any error the temp file is removed and ``path`` is untouched.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_blob(path, array: np.ndarray) -> None:
    with _replace_on_success(path) as fh:
        fh.write(_header(KIND_BLOB))
        fh.write(_pack_array(array))


def read_blob(path) -> np.ndarray:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    _check_header(reader, KIND_BLOB)
    array = reader.array()
    if reader.pos != len(reader.data):
        raise ShapeHeaderMismatch(
            f"{path}: {len(reader.data) - reader.pos} trailing bytes after payload")
    return array


def write_tensor_file(path, tensors: dict[str, np.ndarray],
                      kind: bytes = KIND_TOKENS) -> None:
    with _replace_on_success(path) as fh:
        fh.write(_header(kind))
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(_pack_array(array))


def read_tensor_file(path, kind: bytes = KIND_TOKENS) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    _check_header(reader, kind)
    (count,) = reader.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(
                f"{path}: tensor name is not valid UTF-8 ({exc})") from exc
        tensors[name] = reader.array()
    if reader.pos != len(reader.data):
        raise ShapeHeaderMismatch(
            f"{path}: {len(reader.data) - reader.pos} trailing bytes after payload")
    return tensors
