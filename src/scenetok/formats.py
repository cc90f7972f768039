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

from .errors import (BadMagic, ShapeHeaderMismatch, StorageError,
                     UnsupportedDtype, VersionUnsupported)

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
        raise UnsupportedDtype(f"unsupported dtype {dtype}")
    return _CODE_OF_KIND[key]


def _pack_array(array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    code = _dtype_code(array.dtype)
    le = array.astype(_DTYPE_CODES[code], copy=False)
    head = struct.pack("<BB", code, le.ndim)
    head += struct.pack(f"<{le.ndim}Q", *le.shape)
    return head + le.tobytes()


class _Reader:
    """Reads a container file front to back.

    Every step is checked against the file's size, taken once from
    ``fstat``, before anything is read or allocated for it, and each array
    payload is read straight into its final array.
    """

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.pos = 0
        self.size = os.fstat(fh.fileno()).st_size

    def _step(self, n: int) -> None:
        if self.pos + n > self.size:
            raise ShapeHeaderMismatch(
                f"{self.path}: truncated, needed {n} bytes at offset "
                f"{self.pos}, file has {self.size}")
        self.pos += n

    def _check_read(self, got: int, n: int) -> None:
        if got != n:
            raise ShapeHeaderMismatch(f"{self.path}: changed while being read")

    def take(self, n: int) -> bytes:
        self._step(n)
        out = self.fh.read(n)
        self._check_read(len(out), n)
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array_header(self) -> tuple[tuple[int, ...], np.dtype]:
        code, ndim = self.unpack("<BB")
        if code not in _DTYPE_CODES:
            raise ShapeHeaderMismatch(f"{self.path}: unknown dtype code {code}")
        return self.unpack(f"<{ndim}Q"), _DTYPE_CODES[code]

    def array(self, out: np.ndarray | None = None) -> np.ndarray:
        """The next array, read into ``out`` when one is given.

        ``out`` must be C-contiguous with the array's shape; a payload of
        another dtype is read whole, then cast into it.
        """
        shape, dtype = self.array_header()
        nbytes = math.prod(shape) * dtype.itemsize  # Python ints: no wrap
        self._step(nbytes)
        if out is not None and out.shape != shape:
            raise ShapeHeaderMismatch(
                f"{self.path}: holds shape {shape}, expected {out.shape}")
        if out is not None and out.dtype == dtype:
            array = out
        else:
            try:  # a zero dimension lets the others be any u64
                array = np.empty(shape, dtype=dtype)
            except ValueError as exc:
                raise ShapeHeaderMismatch(
                    f"{self.path}: shape {shape} is too large ({exc})") from exc
        self._check_read(self.fh.readinto(array), nbytes)
        if out is not None and array is not out:
            out[...] = array
            array = out
        return array

    def finish(self) -> None:
        if self.pos != self.size:
            raise ShapeHeaderMismatch(f"{self.path}: {self.size - self.pos} "
                                      "trailing bytes after payload")


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


def _temp_path(path) -> str:
    """A fresh hidden name beside ``path``, for a file renamed onto it."""
    head, tail = os.path.split(os.fspath(path))
    return os.path.join(head, f".{tail}.{os.getpid()}.{secrets.token_hex(4)}.tmp")


@contextlib.contextmanager
def _replace_on_success(path):
    """Binary handle on a temp file that replaces ``path`` once closed.

    The temp file sits in the target's directory, so ``os.replace`` is an
    atomic rename: readers see the old file or the new one, never a partial
    write.  On any error the temp file is removed and ``path`` is untouched.
    """
    tmp = _temp_path(path)
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


def read_blob(path, out: np.ndarray | None = None) -> np.ndarray:
    """A blob's array, read into ``out`` when one is given (see
    ``_Reader.array``).  Magic, kind and version are checked before the
    payload is read."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        _check_header(reader, KIND_BLOB)
        array = reader.array(out)
        reader.finish()
    return array


def read_blob_header(path) -> tuple[tuple[int, ...], np.dtype]:
    """A blob's shape and dtype, read from its header alone.

    Raises as ``read_blob`` does for a bad header, and ShapeHeaderMismatch
    unless the file's size is the header plus the payload it declares.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        _check_header(reader, KIND_BLOB)
        shape, dtype = reader.array_header()
    payload = math.prod(shape) * dtype.itemsize
    if reader.pos + payload != reader.size:
        raise ShapeHeaderMismatch(f"{path}: header declares {payload} payload "
                                  f"bytes, file has {reader.size - reader.pos}")
    return shape, dtype


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
        reader = _Reader(fh, path)
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
        reader.finish()
    return tensors
