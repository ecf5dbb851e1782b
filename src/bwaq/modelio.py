"""Bit-exact serialization of quantized layers (magic "BWAQ").

Layout, all little-endian, no padding between fields beyond the 64-bit
word alignment inside each packed bitplane:

    magic        4 bytes  b"BWAQ"
    version      u32      1
    layer_count  u32
    per layer:
        rows, cols, group_size, outlier_count   u32 x 4
        perm         u32[cols]
        signs        u64[rows][n_groups][words_per_group]
        mask         u64[rows][n_groups][words_per_group]
        affine       f32[rows][n_groups][2 subgroups][alpha, beta]
        outlier      u8[rows][outlier_count]          (8-bit codes)
        out_scale    f32[rows]
        out_zero     f32[rows]
        plane_corr   f32[n_groups][4]

Serialization is canonical: semantically equal layers produce identical
bytes, and read(write(x)) round-trips byte-for-byte.

Closed-form layer size in bytes (ng = (cols-K)/B, wpg = ceil(B/64)):
    16 + 4*cols + 2*8*rows*ng*wpg + 16*rows*ng + rows*K + 8*rows + 16*ng
A model file is 12 bytes of header plus the sum of its layer sizes.
"""

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .bits import words_for
from .errors import FormatError
from .weightquant import QuantizedLinear

MAGIC = b"BWAQ"
VERSION = 1
HEADER_BYTES = 12


def layer_nbytes(rows: int, cols: int, group_size: int, outliers: int) -> int:
    n_groups = (cols - outliers) // group_size
    wpg = words_for(group_size)
    return (
        16
        + 4 * cols
        + 2 * 8 * rows * n_groups * wpg
        + 16 * rows * n_groups
        + rows * outliers
        + 8 * rows
        + 16 * n_groups
    )


def model_nbytes(layers) -> int:
    return HEADER_BYTES + sum(
        layer_nbytes(l.rows, l.cols, l.group_size, l.outliers) for l in layers
    )


@contextlib.contextmanager
def atomic_output(path, mode: str = "wb"):
    """Open a new temporary file beside path for writing; when the block
    completes, rename it over path. On any error the temporary file is
    removed and path is left as it was. The rename is atomic on POSIX, so
    a reader sees the old file or the new one, never a partial one; no
    fsync is made, so this does not make the file durable across a crash
    of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_model(layers, path) -> None:
    """Write layers to path atomically; every layer is validated first, so
    an invalid layer leaves an existing file untouched."""
    for layer in layers:
        layer.validate()
    try:
        with atomic_output(path) as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(layers)))
            for layer in layers:
                fh.write(
                    struct.pack(
                        "<IIII", layer.rows, layer.cols, layer.group_size, layer.outliers
                    )
                )
                fh.write(np.ascontiguousarray(layer.perm, dtype="<u4").tobytes())
                fh.write(np.ascontiguousarray(layer.signs, dtype="<u8").tobytes())
                fh.write(np.ascontiguousarray(layer.mask, dtype="<u8").tobytes())
                fh.write(np.ascontiguousarray(layer.affine, dtype="<f4").tobytes())
                fh.write(np.ascontiguousarray(layer.out_codes, dtype=np.uint8).tobytes())
                fh.write(np.ascontiguousarray(layer.out_scale, dtype="<f4").tobytes())
                fh.write(np.ascontiguousarray(layer.out_zero, dtype="<f4").tobytes())
                fh.write(np.ascontiguousarray(layer.plane_corr, dtype="<f4").tobytes())
    except OSError as exc:
        raise FormatError(f"failed to write model to {path}: {exc}") from exc


class _Cursor:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, nbytes: int) -> memoryview:
        if self.off + nbytes > len(self.data):
            raise FormatError(f"{self.path}: unexpected end of file at byte {self.off}")
        view = memoryview(self.data)[self.off : self.off + nbytes]
        self.off += nbytes
        return view

    def u32(self, count: int = 1):
        vals = struct.unpack(f"<{count}I", self.take(4 * count))
        return vals[0] if count == 1 else vals

    def array(self, dtype, shape) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = self.take(count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def read_model(path):
    path = Path(path)
    data = path.read_bytes()
    cur = _Cursor(data, path)
    if bytes(cur.take(4)) != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version = cur.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    layer_count = cur.u32()
    layers = []
    for li in range(layer_count):
        rows, cols, group_size, outliers = cur.u32(4)
        if outliers > cols:
            raise FormatError(
                f"{path}: layer {li}: {outliers} outlier columns exceed its {cols} columns"
            )
        if group_size < 1 or (cols - outliers) % group_size != 0:
            raise FormatError(
                f"{path}: layer {li}: binarized width {cols - outliers} is not a "
                f"multiple of group size {group_size}"
            )
        n_groups = (cols - outliers) // group_size
        wpg = words_for(group_size)
        perm = cur.array("<u4", (cols,)).astype(np.int64)
        signs = cur.array("<u8", (rows, n_groups, wpg))
        mask = cur.array("<u8", (rows, n_groups, wpg))
        affine = cur.array("<f4", (rows, n_groups, 2, 2))
        out_codes = cur.array(np.uint8, (rows, outliers))
        out_scale = cur.array("<f4", (rows,))
        out_zero = cur.array("<f4", (rows,))
        plane_corr = cur.array("<f4", (n_groups, 4))
        layer = QuantizedLinear(
            rows=rows,
            cols=cols,
            group_size=group_size,
            outliers=outliers,
            signs=signs,
            mask=mask,
            affine=affine,
            perm=perm,
            out_codes=out_codes,
            out_scale=out_scale,
            out_zero=out_zero,
            plane_corr=plane_corr,
        )
        try:
            layer.validate()
        except Exception as exc:
            raise FormatError(f"{path}: layer {li}: {exc}") from exc
        layers.append(layer)
    if cur.off != len(data):
        raise FormatError(f"{path}: {len(data) - cur.off} trailing bytes after layer data")
    return layers


def inspect_model(path) -> dict:
    layers = read_model(path)
    info = {"path": str(path), "version": VERSION, "layer_count": len(layers), "layers": []}
    total_bytes = HEADER_BYTES
    total_weights = 0
    for layer in layers:
        nbytes = layer_nbytes(layer.rows, layer.cols, layer.group_size, layer.outliers)
        total_bytes += nbytes
        total_weights += layer.rows * layer.cols
        info["layers"].append(
            {
                "rows": layer.rows,
                "cols": layer.cols,
                "group_size": layer.group_size,
                "outliers": layer.outliers,
                "bytes": nbytes,
                "bits_per_weight": nbytes * 8.0 / (layer.rows * layer.cols),
            }
        )
    info["total_bytes"] = total_bytes
    info["bits_per_weight"] = (
        total_bytes * 8.0 / total_weights if total_weights else float("nan")
    )
    return info
