"""Binary artifact formats, atomic file writes, and the UTF-8 reader for
text inputs.

Two container formats, both with bit-exact round-trips:

* Array file ("KIGN"): magic, format version (u32), rank (u32), shape
  (u32 per axis), then the payload as little-endian float64, row-major.
* Checkpoint ("KICP"): magic, format version (u32), a JSON metadata block,
  a shape table of named arrays, then the concatenated float64 payloads.

All integers are little-endian unsigned 32-bit. Writes go through a
temp-file-then-rename so readers never observe a partial file. Readers
check every length against the file's size, so a truncated or padded
file raises StorageError.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import StorageError, ValidationError

ARRAY_MAGIC = b"KIGN"
CHECKPOINT_MAGIC = b"KICP"
FORMAT_VERSION = 1


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write payload to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path) -> str:
    """A UTF-8 text file's contents, with newlines as open() reads them.

    Bytes that are not UTF-8 raise ValidationError naming path:line.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{line}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _pack_u32(*values: int) -> bytes:
    return struct.pack("<%dI" % len(values), *values)


def _array_bytes(arr: np.ndarray) -> bytes:
    data = np.asarray(arr, dtype=np.float64)
    header = ARRAY_MAGIC + _pack_u32(FORMAT_VERSION, data.ndim, *data.shape)
    return header + data.astype("<f8").tobytes()


def save_array(path, arr: np.ndarray) -> None:
    """Persist a float64 array in the KIGN format."""
    atomic_write_bytes(path, _array_bytes(arr))


def _take(path, blob: bytes, offset: int, length: int):
    """blob[offset:offset + length] and the offset after it; raises when
    the file ends before that."""
    end = offset + length
    if end > len(blob):
        raise StorageError(f"{path}: truncated at byte {len(blob)}, expected {end} or more")
    return blob[offset:end], end


def _u32s(path, blob: bytes, offset: int, count: int):
    raw, end = _take(path, blob, offset, 4 * count)
    return struct.unpack("<%dI" % count, raw), end


def _payload(path, blob: bytes, offset: int, shape):
    raw, end = _take(path, blob, offset, 8 * math.prod(shape))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64), end


def _header(path, blob: bytes, magic: bytes, kind: str):
    """Checks magic and version; returns the u32 after the version and
    the offset after it."""
    if blob[:4] != magic:
        raise StorageError(f"{path}: not a {kind}")
    (version, value), offset = _u32s(path, blob, 4, 2)
    if version != FORMAT_VERSION:
        raise StorageError(f"{path}: unsupported format version {version}")
    return value, offset


def _check_end(path, blob: bytes, offset: int) -> None:
    if offset != len(blob):
        raise StorageError(f"{path}: {len(blob) - offset} bytes past the end of the payload")


def load_array(path) -> np.ndarray:
    """Read a KIGN array file back, bit-exactly."""
    with open(path, "rb") as handle:
        blob = handle.read()
    rank, offset = _header(path, blob, ARRAY_MAGIC, "KIGN array file")
    shape, offset = _u32s(path, blob, offset, rank)
    array, offset = _payload(path, blob, offset, shape)
    _check_end(path, blob, offset)
    return array


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Persist named arrays plus a JSON metadata block.

    Array order is sorted by name and the JSON is canonicalized, so the
    file bytes are a pure function of the contents.
    """
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, _pack_u32(FORMAT_VERSION, len(meta_blob)), meta_blob]
    names = sorted(arrays)
    parts.append(_pack_u32(len(names)))
    payloads = []
    for name in names:
        data = np.asarray(arrays[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(_pack_u32(len(encoded)))
        parts.append(encoded)
        parts.append(_pack_u32(data.ndim, *data.shape))
        payloads.append(data.astype("<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts + payloads))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a KICP checkpoint back as (meta, arrays)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    meta_len, offset = _header(path, blob, CHECKPOINT_MAGIC, "KICP checkpoint")
    raw, offset = _take(path, blob, offset, meta_len)
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise StorageError(f"{path}: unreadable metadata block ({exc})") from exc
    if not isinstance(meta, dict):
        raise StorageError(f"{path}: metadata block is not a JSON object")
    (count,), offset = _u32s(path, blob, offset, 1)
    entries = []
    for _ in range(count):
        (name_len,), offset = _u32s(path, blob, offset, 1)
        raw, offset = _take(path, blob, offset, name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(f"{path}: unreadable array name ({exc})") from exc
        (rank,), offset = _u32s(path, blob, offset, 1)
        shape, offset = _u32s(path, blob, offset, rank)
        entries.append((name, shape))
    arrays = {}
    for name, shape in entries:
        arrays[name], offset = _payload(path, blob, offset, shape)
    _check_end(path, blob, offset)
    return meta, arrays


def sha256_file(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
