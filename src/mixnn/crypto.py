"""Key pairs and public-key sealing of arbitrary-length byte strings.

Sealing runs X25519 (RFC 7748) between a fresh ephemeral key and the
recipient's public key, derives an AES-256 key and a GCM nonce from the
shared secret with HKDF-SHA256 (RFC 5869), and encrypts the body with
AES-GCM, so tampering anywhere in a ciphertext is detected when opening.
The ephemeral public key, as sent, is part of the HKDF input: X25519 ignores
the top bit of a public key, so without it a flipped bit 0x80 in byte 31
would still open.

Ciphertext layout: [ephemeral X25519 public key 32][body][GCM tag 16].
The overhead over the plaintext length is a constant 48 bytes.

open_sealed takes the recipient's private key either raw (32 bytes) or
parsed (X25519PrivateKey). Parsing derives the public key, which costs about
as much as the rest of an open, so a long-lived holder passes
KeyPair.private, parsed once when the pair is made.
"""

import base64
import hashlib
import os
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (X25519PrivateKey,
                                                              X25519PublicKey)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

KEY_LEN = 32  # X25519 public and private keys
AES_KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
_HKDF_INFO = b"mixnn seal v2"


class DecryptionError(Exception):
    """Wrong key, tampered ciphertext, or malformed sealed data."""


@dataclass(frozen=True)
class Address:
    host: str
    port: int

    def __post_init__(self):
        if not (1 <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self):
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address must be host:port, got {text!r}")
        return cls(host, int(port))


@dataclass
class KeyPair:
    pk: bytes  # raw X25519 public key, 32 bytes
    sk: bytes = field(repr=False)  # raw X25519 private key, 32 bytes
    # sk parsed, always from sk, so the two cannot disagree
    private: X25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.private = X25519PrivateKey.from_private_bytes(self.sk)


@dataclass
class KeyRecord:
    node_id: str
    address: Address
    pk: bytes
    metadata: dict = field(default_factory=dict)

    def to_line(self) -> str:
        meta = ";".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return f"{self.node_id} {self.address} {base64.b64encode(self.pk).decode()} {meta}"

    @classmethod
    def from_line(cls, line: str) -> "KeyRecord":
        parts = line.split(" ", 3)
        if len(parts) < 3:
            raise ValueError(f"malformed key record: {line!r}")
        node_id, addr, pk_b64 = parts[0], parts[1], parts[2]
        meta = {}
        if len(parts) == 4 and parts[3]:
            for item in parts[3].split(";"):
                k, _, v = item.partition("=")
                meta[k] = v
        pk = base64.b64decode(pk_b64)
        if len(pk) != KEY_LEN:
            raise ValueError(f"public key must be {KEY_LEN} bytes, got {len(pk)}")
        return cls(node_id, Address.parse(addr), pk, meta)


def gen_keypair(seed: bytes | None = None) -> KeyPair:
    """Generate an X25519 key pair. With a seed the private key is
    SHA-256(seed), so generation is deterministic (intended for tests)."""
    sk = hashlib.sha256(seed).digest() if seed is not None else os.urandom(KEY_LEN)
    pk = X25519PrivateKey.from_private_bytes(sk).public_key().public_bytes_raw()
    return KeyPair(pk=pk, sk=sk)


def seal_overhead() -> int:
    return KEY_LEN + TAG_LEN


def _aead(shared: bytes, epk: bytes):
    """The AES-GCM cipher and nonce of one seal, bound to epk as sent."""
    okm = HKDF(algorithm=hashes.SHA256(), length=AES_KEY_LEN + NONCE_LEN,
               salt=None, info=_HKDF_INFO + epk).derive(shared)
    return AESGCM(okm[:AES_KEY_LEN]), okm[AES_KEY_LEN:]


def seal(pk: bytes, plaintext: bytes) -> bytes:
    """Encrypt plaintext of any length to the holder of pk's secret key."""
    eph = X25519PrivateKey.generate()
    epk = eph.public_key().public_bytes_raw()
    aead, nonce = _aead(eph.exchange(X25519PublicKey.from_public_bytes(pk)), epk)
    return epk + aead.encrypt(nonce, plaintext, None)  # body || 16-byte tag


def open_sealed(sk: "bytes | X25519PrivateKey", ciphertext: bytes) -> bytes:
    """Open a sealed ciphertext with a raw or parsed private key. Raises
    DecryptionError on any corruption, truncation, or key mismatch; never
    returns partial plaintext."""
    try:
        if len(ciphertext) < seal_overhead():
            raise ValueError("truncated")
        if not isinstance(sk, X25519PrivateKey):
            sk = X25519PrivateKey.from_private_bytes(sk)
        epk = bytes(ciphertext[:KEY_LEN])  # from_public_bytes takes bytes only
        shared = sk.exchange(X25519PublicKey.from_public_bytes(epk))
        aead, nonce = _aead(shared, epk)
        return aead.decrypt(nonce, memoryview(ciphertext)[KEY_LEN:], None)
    except Exception as exc:
        raise DecryptionError("authenticated decryption failed") from exc
