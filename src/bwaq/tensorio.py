"""Raw binary tensor files (magic "BWAT").

Layout, all little-endian:
    magic   4 bytes  b"BWAT"
    version u32      1
    rank    u32
    dims    u64[rank]
    dtype   u8       0 = float32, 1 = float64
    payload row-major element data, and nothing after it

read_tensor checks the header against the file's size before it allocates,
then reads the payload straight into the array it returns, so a tensor costs
its own size in memory and no more.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .modelio import atomic_output

MAGIC = b"BWAT"
VERSION = 1

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def write_tensor(path, array) -> None:
    """Write array to path atomically: on any error path keeps its old
    content and no temporary file is left behind."""
    array = np.ascontiguousarray(array)
    if array.dtype not in _DTYPE_CODES:
        array = array.astype(np.float64)
    code = _DTYPE_CODES[array.dtype]
    with atomic_output(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, array.ndim))
        fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        fh.write(struct.pack("<B", code))
        fh.write(array.astype(_DTYPES[code]).tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a BWAT file into a new, writeable array.

    The path must name a regular file: its size comes from fstat.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 12:
            raise FormatError(f"{path}: unexpected end of file at byte {size}")
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        version, rank = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        off = 12 + 8 * rank + 1
        if size < off:
            raise FormatError(f"{path}: unexpected end of file at byte {size}")
        rest = fh.read(off - 12)
        dims = struct.unpack_from(f"<{rank}Q", rest)
        (code,) = struct.unpack_from("<B", rest, 8 * rank)
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        dtype = _DTYPES[code]
        # Python ints: a numpy product of u64 dims can wrap around
        count = math.prod(dims)
        need = off + count * dtype.itemsize
        if size < need:
            raise FormatError(f"{path}: unexpected end of file at byte {size}")
        if size > need:
            raise FormatError(f"{path}: {size - need} trailing bytes after the payload")
        try:
            arr = np.empty(dims, dtype=dtype)
        except ValueError:  # a zero dim lets the others exceed numpy's limits
            raise FormatError(f"{path}: dims {dims} exceed numpy's limits") from None
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
        # the file shrank between fstat and the read
        if got != arr.nbytes:
            raise FormatError(f"{path}: unexpected end of file at byte {off + got}")
    return arr
