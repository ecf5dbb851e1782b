import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwaq import DataError
from bwaq.bits import pack_bits, popcount, unpack_bits, words_for

from oracles import BitBlock


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_pack_unpack_round_trip(bits):
    arr = np.array(bits, dtype=np.uint8)
    packed = pack_bits(arr)
    assert packed.shape[-1] == words_for(arr.size)
    assert np.array_equal(unpack_bits(packed, arr.size), arr)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_padding_bits_are_zero(bits):
    arr = np.array(bits, dtype=np.uint8)
    packed = pack_bits(arr)
    total_set = int(popcount(packed).sum())
    assert total_set == int(arr.sum())


def test_pack_is_lsb_first():
    # element 0 must land in bit 0 of word 0
    packed = pack_bits(np.array([1] + [0] * 63, dtype=np.uint8))
    assert packed[0] == 1
    packed = pack_bits(np.array([0] * 63 + [1], dtype=np.uint8))
    assert packed[0] == np.uint64(1) << np.uint64(63)
    packed = pack_bits(np.array([0] * 64 + [1], dtype=np.uint8))
    assert packed[0] == 0 and packed[1] == 1


def test_pack_batched_layout(rng):
    bits = rng.integers(0, 2, size=(5, 3, 70), dtype=np.uint8)
    packed = pack_bits(bits)
    assert packed.shape == (5, 3, 2)
    assert np.array_equal(unpack_bits(packed, 70), bits)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=130),
    st.integers(0, 2**31),
)
def test_block_ops_match_python_ints(bits, seed):
    rng = np.random.default_rng(seed)
    a = np.array(bits, dtype=np.uint8)
    b = rng.integers(0, 2, size=a.size, dtype=np.uint8)
    x, y = BitBlock.from_bits(a), BitBlock.from_bits(b)
    ia = int("".join(map(str, a[::-1])), 2) if a.size else 0
    ib = int("".join(map(str, b[::-1])), 2) if b.size else 0
    assert (x & y).popcount() == bin(ia & ib).count("1")
    assert (x ^ y).popcount() == bin(ia ^ ib).count("1")
    # complement stays inside valid_bits
    assert (~x).popcount() == a.size - int(a.sum())


def test_block_length_mismatch():
    with pytest.raises(DataError):
        BitBlock.from_bits([1, 0]) & BitBlock.from_bits([1, 0, 1])
