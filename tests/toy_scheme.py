"""A seeded signature scheme for reproducible ledger tests.

It implements `auditgame.ledger.SignatureScheme`, so a test can run the
ledger on it where the same keys and signatures must come back on every
run.  Its MAC is keyed off the public key: anyone who holds a public key
can forge under it.  The package ships only `Ed25519Scheme`.
"""

import hashlib
import hmac
import random

from auditgame.ledger import SignatureScheme


class DeterministicScheme(SignatureScheme):
    """Seeded test double: MAC-style signatures keyed off the public key.

    Reproducible given the seed and self-contained across processes, so
    tampered messages and mismatched keys are rejected honestly.  Anyone
    who knows the construction can forge, so it carries no real security.
    Distinct parties should use distinct seeds, otherwise they share a key
    sequence.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    @staticmethod
    def _pk_for(sk: bytes) -> bytes:
        return b"td:" + hashlib.sha256(b"pk" + sk).digest()[:16]

    @staticmethod
    def _mac_key(pk: bytes) -> bytes:
        return hashlib.sha256(b"mac" + pk).digest()

    def gen(self) -> tuple:
        sk = self._rng.getrandbits(256).to_bytes(32, "big")
        return sk, self._pk_for(sk)

    def sign(self, sk: bytes, message: bytes) -> bytes:
        return hmac.new(self._mac_key(self._pk_for(sk)), message, hashlib.sha256).digest()

    def verify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        expected = hmac.new(self._mac_key(pk), message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)
