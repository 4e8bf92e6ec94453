"""AES block cipher tests: FIPS-197 vectors, structure, and properties."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES, INV_SBOX, SBOX, gf_mul
from repro.crypto.errors import KeyFormatError

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CASES = [
    # (key hex, expected ciphertext hex) — FIPS-197 Appendix C.
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


@pytest.mark.parametrize("key_hex,expected", FIPS_CASES)
def test_fips197_appendix_c_encrypt(key_hex, expected):
    aes = AES(bytes.fromhex(key_hex))
    assert aes.encrypt_block(FIPS_PLAINTEXT).hex() == expected


@pytest.mark.parametrize("key_hex,expected", FIPS_CASES)
def test_fips197_appendix_c_decrypt(key_hex, expected):
    aes = AES(bytes.fromhex(key_hex))
    assert aes.decrypt_block(bytes.fromhex(expected)) == FIPS_PLAINTEXT


def test_aes128_appendix_b_vector():
    # FIPS-197 Appendix B worked example.
    aes = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    ct = aes.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
    assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"


def test_round_counts():
    assert AES(bytes(16)).rounds == 10
    assert AES(bytes(24)).rounds == 12
    assert AES(bytes(32)).rounds == 14


def test_sbox_is_a_permutation_with_correct_landmarks():
    assert sorted(SBOX) == list(range(256))
    assert SBOX[0x00] == 0x63
    assert SBOX[0x53] == 0xED
    assert all(INV_SBOX[SBOX[i]] == i for i in range(256))


def test_sbox_has_no_fixed_points():
    assert all(SBOX[i] != i for i in range(256))
    assert all(SBOX[i] != (i ^ 0xFF) for i in range(256))


def test_gf_mul_known_values():
    # Classic textbook example: 0x57 * 0x83 = 0xc1 in GF(2^8).
    assert gf_mul(0x57, 0x83) == 0xC1
    assert gf_mul(0x57, 0x13) == 0xFE
    assert gf_mul(0, 0xFF) == 0
    assert gf_mul(1, 0xAB) == 0xAB


@given(st.integers(1, 255), st.integers(1, 255), st.integers(1, 255))
def test_gf_mul_is_associative_and_commutative(a, b, c):
    assert gf_mul(a, b) == gf_mul(b, a)
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@pytest.mark.parametrize("bad_len", [0, 1, 15, 17, 31, 33])
def test_invalid_key_lengths_rejected(bad_len):
    with pytest.raises(KeyFormatError):
        AES(bytes(bad_len))


def test_non_bytes_key_rejected():
    with pytest.raises(KeyFormatError):
        AES("0123456789abcdef")  # type: ignore[arg-type]


@pytest.mark.parametrize("bad_len", [0, 15, 17])
def test_invalid_block_lengths_rejected(bad_len):
    aes = AES(bytes(16))
    with pytest.raises(ValueError):
        aes.encrypt_block(bytes(bad_len))
    with pytest.raises(ValueError):
        aes.decrypt_block(bytes(bad_len))


@given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
def test_decrypt_inverts_encrypt(block, key_len):
    aes = AES(bytes(range(key_len)))
    assert aes.decrypt_block(aes.encrypt_block(block)) == block


@given(st.binary(min_size=16, max_size=16))
def test_encryption_is_not_identity(block):
    aes = AES(bytes(32))
    assert aes.encrypt_block(block) != block or block == aes.encrypt_block(block)
    # The real property: two distinct blocks never map to one ciphertext.
    other = bytes([block[0] ^ 1]) + block[1:]
    assert aes.encrypt_block(block) != aes.encrypt_block(other)


def test_cross_check_against_openssl_ecb_single_block():
    cryptography = pytest.importorskip("cryptography")  # noqa: F841
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    import os

    for key_len in (16, 24, 32):
        key = os.urandom(key_len)
        block = os.urandom(16)
        ours = AES(key).encrypt_block(block)
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        theirs = enc.update(block) + enc.finalize()
        assert ours == theirs


@pytest.mark.parametrize("key_len", [16, 24, 32])
@pytest.mark.parametrize("blocks", [*range(1, 10), 63, 64, 65, 1025])
def test_encrypt_blocks_equals_the_encrypt_block_loop(key_len, blocks):
    """The byte-sliced batch kernel is the single-block primitive applied
    to every block, at block counts around each slicing boundary."""
    aes = AES(bytes(range(key_len)))
    data = random.Random(blocks).randbytes(16 * blocks)
    expected = b"".join(
        aes.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
    )
    assert aes.encrypt_blocks(data) == expected


def test_encrypt_blocks_rejects_a_partial_block():
    with pytest.raises(ValueError):
        AES(bytes(16)).encrypt_blocks(bytes(17))
