"""Raw binary tensor files (magic "BWAT").

Layout, all little-endian:
    magic   4 bytes  b"BWAT"
    version u32      1
    rank    u32
    dims    u64[rank]
    dtype   u8       0 = float32, 1 = float64
    payload row-major element data, and nothing after it
"""

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"BWAT"
VERSION = 1

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def write_tensor(path, array) -> None:
    array = np.ascontiguousarray(array)
    if array.dtype not in _DTYPE_CODES:
        array = array.astype(np.float64)
    code = _DTYPE_CODES[array.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        fh.write(struct.pack("<B", code))
        fh.write(array.astype(_DTYPES[code]).tobytes())


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: unexpected end of file at byte {len(data)}")
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version, rank = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = 12
    if len(data) < off + 8 * rank + 1:
        raise FormatError(f"{path}: unexpected end of file at byte {len(data)}")
    dims = struct.unpack_from(f"<{rank}Q", data, off)
    off += 8 * rank
    (code,) = struct.unpack_from("<B", data, off)
    off += 1
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPES[code]
    # Python ints: a numpy product of u64 dims can wrap around
    count = math.prod(dims)
    need = off + count * dtype.itemsize
    if len(data) < need:
        raise FormatError(f"{path}: unexpected end of file at byte {len(data)}")
    if len(data) > need:
        raise FormatError(f"{path}: {len(data) - need} trailing bytes after the payload")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=off)
    return arr.reshape(dims).copy()
