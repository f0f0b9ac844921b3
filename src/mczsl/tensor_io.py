"""Binary tensor files ("MSDT") and the run directories built from them.

Layout: bytes 0-3 magic b"MSDT"; byte 4 format version (1); byte 5 rank
(1 to 3); then rank unsigned 32-bit little-endian dims, none zero and at most
2**31 values in all; then the row-major payload as IEEE-754 little-endian
32-bit floats, every one finite. Files must be exactly header + payload long;
anything else is a FormatError carrying the byte offset where parsing failed.
A write refuses the shapes and the values that a read refuses.
`read_tensor` checks the header against the file size before it allocates,
and returns float32, as stored.

A run directory (a dataset or a checkpoint) is `<name>.msdt` files under one
JSON index. `write_directory` checks every tensor before it touches the
directory and removes the old index before the first file, so a failed save
never leaves the earlier index over a mix of files; `read_index` refuses
anything but a JSON object with a FormatError naming the file.
"""
from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"MSDT"
VERSION = 1
MAX_RANK = 3
# refuse absurd dim products before allocating
_MAX_ELEMENTS = 1 << 31
# values per pass of the finite check: its mask is 64 KiB, whatever the payload
_CHECK_BLOCK = 1 << 16


def write_atomic(path: str | Path, *chunks: bytes | memoryview | str) -> None:
    """Write the chunks (bytes-like; str as UTF-8) to a temporary file next to
    `path`, then rename it into place: a write that fails leaves the earlier
    file intact and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_finite(path: Path | str, payload: np.ndarray, offset: int) -> None:
    """Refuse the first non-finite value of the float32 `payload`, which starts
    at byte `offset` of the file, one block of values at a time."""
    flat = payload.reshape(-1)
    for start in range(0, flat.size, _CHECK_BLOCK):
        finite = np.isfinite(flat[start:start + _CHECK_BLOCK])
        if not finite.all():
            at = offset + 4 * (start + int(np.argmin(finite)))
            raise FormatError(f"{path}: non-finite payload value at offset {at}")


def _element_count(path: Path | str, dims: tuple[int, ...]) -> int:
    """The value count of shape `dims`; a zero dimension or a count over the cap
    is refused at offset 6, where the dims start, on write and on read alike."""
    if 0 in dims:
        raise FormatError(f"{path}: zero dimension in shape {dims} at offset 6")
    if (n := math.prod(dims)) > _MAX_ELEMENTS:
        raise FormatError(f"{path}: element count {n} exceeds the 2**31-element cap at offset 6")
    return n


def _encoded(path: str | Path, array: np.ndarray) -> tuple[bytes, memoryview]:
    """The MSDT header and a byte view (not a copy) of `array` cast to float32. A
    shape the reader refuses is refused before the cast (no copy), a non-finite value after."""
    if not 1 <= len(shape := np.shape(array)) <= MAX_RANK:
        raise FormatError(f"{path}: tensor rank {len(shape)} outside supported range 1..{MAX_RANK}")
    _element_count(path, shape)
    with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
        a = np.ascontiguousarray(array, dtype="<f4")
    header = MAGIC + struct.pack("<BB", VERSION, a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    _check_finite(path, a, len(header))
    return header, memoryview(a.reshape(-1)).cast("B")


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write an array as an MSDT file (values cast to float32; finite ones only)."""
    write_atomic(path, *_encoded(path, array))


def write_json(path: str | Path, obj) -> None:
    """Write `obj` in the one JSON form: sorted keys, indented, final newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_directory(directory: str | Path, tensors: dict[str, np.ndarray],
                    index_name: str, index: dict) -> None:
    """Save each tensors[name] as `<name>.msdt` and `index` as `index_name`: every
    tensor is checked first, the old index goes before any file, the new one last."""
    directory = Path(directory)
    encoded = {name: _encoded(directory / f"{name}.msdt", a) for name, a in tensors.items()}
    directory.mkdir(parents=True, exist_ok=True)
    (directory / index_name).unlink(missing_ok=True)
    for name, chunks in encoded.items():
        write_atomic(directory / f"{name}.msdt", *chunks)
    write_json(directory / index_name, index)


def read_index(path: Path) -> dict:
    """The JSON object in the index file `path`; a missing file raises the OS
    error, anything else (deep nesting and long integers too) a FormatError."""
    try:
        index = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path}: not a JSON document ({e})") from e
    if not isinstance(index, dict):
        raise FormatError(f"{path}: not a JSON object")
    return index


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an MSDT file into a float32 array, the dtype the file stores.

    The header is checked against the file size before the payload is
    allocated; the payload is then read straight into the returned array."""
    path = Path(path)
    size = path.stat().st_size  # a missing file raises FileNotFoundError naming it
    with path.open("rb") as f:
        head = f.read(6 + 4 * MAX_RANK)
    if size < 6:
        raise FormatError(f"{path}: truncated header at offset {size} (need 6 bytes)")
    if head[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r} at offset 0")
    version, rank = head[4], head[5]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"{path}: rank {rank} outside 1..{MAX_RANK} at offset 5")
    dims_end = 6 + 4 * rank
    if size < dims_end:
        raise FormatError(f"{path}: truncated dims at offset {size} (need {dims_end} bytes)")
    dims = struct.unpack(f"<{rank}I", head[6:dims_end])
    n = _element_count(path, dims)
    expected = dims_end + 4 * n
    if size != expected:
        raise FormatError(
            f"{path}: payload length mismatch at offset {dims_end}: "
            f"file has {size} bytes, shape {dims} needs {expected}"
        )
    data = np.fromfile(path, dtype="<f4", count=n, offset=dims_end)
    if data.size != n:  # the file shrank after the size check
        raise FormatError(f"{path}: payload length mismatch at offset {dims_end}: "
                          f"read {data.size} of {n} values")
    _check_finite(path, data, dims_end)
    return data.reshape(dims)
