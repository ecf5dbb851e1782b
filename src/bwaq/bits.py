"""Packed bit vectors on 64-bit words, LSB-first channel order.

Bit i of a block corresponds to channel (B*l + i); within a word the least
significant bit is the lowest channel index. Padding bits beyond valid_bits
are always zero so popcounts never see them. This layout is normative for
the serialized formats.
"""

import sys

import numpy as np

if sys.byteorder != "little":
    raise ImportError("packed bit layout requires a little-endian platform")

WORD_BITS = 64


def words_for(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits) -> np.ndarray:
    """Pack a {0,1} array into uint64 words along the last axis."""
    bits = np.asarray(bits, dtype=np.uint8)
    nbits = bits.shape[-1]
    nwords = words_for(nbits)
    nbytes = nwords * 8
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] < nbytes:
        pad = np.zeros(packed.shape[:-1] + (nbytes - packed.shape[-1],), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=-1)
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words, nbits: int) -> np.ndarray:
    """Inverse of pack_bits; returns a {0,1} uint8 array of width nbits."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :nbits]


def popcount(words, out=None) -> np.ndarray:
    return np.bitwise_count(np.asarray(words, dtype=np.uint64), out=out)

