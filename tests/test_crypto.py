import dataclasses
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from mixnn import crypto
from mixnn.crypto import (Address, DecryptionError, KeyRecord, gen_keypair,
                          open_sealed, seal)


class TestKeyGen:
    def test_unseeded_pairs_are_distinct(self, keypair, keypair2):
        assert keypair.pk != keypair2.pk
        assert keypair.sk != keypair2.sk

    def test_seeded_is_deterministic(self):
        a = gen_keypair(b"same-seed")
        b = gen_keypair(b"same-seed")
        assert a.pk == b.pk and a.sk == b.sk

    def test_different_seeds_differ(self):
        assert gen_keypair(b"seed-a").pk != gen_keypair(b"seed-b").pk

    def test_roundtrip_on_1mib(self, keypair):
        msg = os.urandom(1 << 20)
        assert open_sealed(keypair.sk, seal(keypair.pk, msg)) == msg

    def test_seeded_key_works_for_sealing(self):
        kp = gen_keypair(b"functional")
        assert open_sealed(kp.sk, seal(kp.pk, b"hello")) == b"hello"


class TestSealOpen:
    def test_empty_roundtrip(self, keypair):
        assert open_sealed(keypair.sk, seal(keypair.pk, b"")) == b""

    def test_randomized_encryption(self, keypair):
        assert seal(keypair.pk, b"same") != seal(keypair.pk, b"same")

    def test_overhead_constant(self, keypair):
        overheads = {
            len(seal(keypair.pk, b"\x00" * n)) - n for n in (0, 1, 1_000_000)
        }
        assert overheads == {crypto.seal_overhead()}

    def test_ciphertext_layout(self, keypair):
        # [ephemeral X25519 public key 32][body][tag 16]
        ct = seal(keypair.pk, b"abc")
        assert len(ct) == 32 + 3 + 16
        assert seal(keypair.pk, b"abc")[:32] != ct[:32]  # fresh ephemeral key

    def test_wrong_key_fails(self, keypair, keypair2):
        ct = seal(keypair.pk, b"secret")
        with pytest.raises(DecryptionError):
            open_sealed(keypair2.sk, ct)

    def test_every_bit_flip_detected(self, keypair):
        ct = bytearray(seal(keypair.pk, b"x"))
        for byte_idx in range(len(ct)):
            for bit in range(8):
                ct[byte_idx] ^= 1 << bit
                with pytest.raises(DecryptionError):
                    open_sealed(keypair.sk, bytes(ct))
                ct[byte_idx] ^= 1 << bit

    def test_truncation_fails(self, keypair):
        ct = seal(keypair.pk, b"hello world")
        for cut in (0, 1, 2, len(ct) // 2, len(ct) - 1):
            with pytest.raises(DecryptionError):
                open_sealed(keypair.sk, ct[:cut])

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_opens_any_buffer_type(self, keypair, kind):
        # packets are bytearrays and parse_packet hands out memoryview slices
        ct = seal(keypair.pk, b"buffer types")
        assert open_sealed(keypair.sk, kind(ct)) == b"buffer types"

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=4096))
    def test_roundtrip_property(self, message):
        kp = _property_keypair()
        assert open_sealed(kp.sk, seal(kp.pk, message)) == message

    # made once by seal(gen_keypair(b"golden").pk, GOLDEN_PLAINTEXT); pins the
    # key derivation from the seed, the HKDF input, the nonce and the layout
    GOLDEN_PK = "f4c82e239e98d8a912e84fbfa49447e55d42a3440ecb152311811fc68a9c9f0e"
    GOLDEN_PLAINTEXT = b"mixnn golden plaintext"
    GOLDEN_CT = ("d271d48440806fc1edd78a6c21d4cbef85422c0a1734cca80b271211be0b5c05"
                 "bac3157f02b648035e22a3b2bf4ba40091a21077459f231a443716d274b031"
                 "80eb8182906e60")

    def test_golden_ciphertext(self):
        kp = gen_keypair(b"golden")
        assert kp.pk.hex() == self.GOLDEN_PK
        assert open_sealed(kp.sk, bytes.fromhex(self.GOLDEN_CT)) == self.GOLDEN_PLAINTEXT

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    @example(bytes(32) + bytes(20))  # all-zero point: the exchange raises
    @example(b"\x01" + bytes(31) + bytes(20))  # low-order point
    def test_hostile_input_raises_only_decryption_error(self, ciphertext):
        kp = gen_keypair(b"hostile")
        with pytest.raises(DecryptionError):
            open_sealed(kp.sk, ciphertext)


_PROPERTY_KP = None


def _property_keypair():
    global _PROPERTY_KP
    if _PROPERTY_KP is None:
        _PROPERTY_KP = gen_keypair()
    return _PROPERTY_KP


class TestAddress:
    def test_roundtrip(self):
        a = Address("example.host", 8080)
        assert Address.parse(str(a)) == a

    def test_bad_port(self):
        with pytest.raises(ValueError):
            Address("h", 0)
        with pytest.raises(ValueError):
            Address("h", 70000)

    def test_parse_requires_port(self):
        with pytest.raises(ValueError):
            Address.parse("nohost")


class TestKeyRecord:
    def test_line_roundtrip(self, keypair):
        rec = KeyRecord("node-1", Address("10.0.0.1", 9000), keypair.pk)
        back = KeyRecord.from_line(rec.to_line())
        assert back.node_id == rec.node_id
        assert back.address == rec.address
        assert back.pk == rec.pk

    def test_record_never_holds_sk(self, keypair):
        rec = KeyRecord("node-1", Address("10.0.0.1", 9000), keypair.pk)
        assert keypair.sk not in rec.to_line().encode()


class TestParsedKey:
    def test_parsed_key_opens_like_raw_bytes(self, keypair):
        ct = seal(keypair.pk, b"payload")
        assert open_sealed(keypair.private, ct) == open_sealed(keypair.sk, ct) == b"payload"

    def test_wrong_parsed_key_fails(self, keypair, keypair2):
        with pytest.raises(DecryptionError):
            open_sealed(keypair2.private, seal(keypair.pk, b"secret"))

    def test_pair_from_bytes_parses_its_secret(self, keypair):
        kp = crypto.KeyPair(pk=keypair.pk, sk=keypair.sk)
        assert kp == keypair
        assert kp.private.public_key().public_bytes_raw() == keypair.pk

    def test_parsed_key_always_follows_sk(self, keypair, keypair2):
        with pytest.raises(TypeError):
            crypto.KeyPair(pk=keypair.pk, sk=keypair.sk, private=keypair2.private)
        swapped = dataclasses.replace(keypair, pk=keypair2.pk, sk=keypair2.sk)
        ct = seal(keypair2.pk, b"payload")
        assert open_sealed(swapped.private, ct) == b"payload"
