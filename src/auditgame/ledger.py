"""Signature-backed program credits: coins, spend receipts, and an
append-only approved-receipt store.

A coin binds an owner's public key and metadata under the administrator's
signature, so counterfeits fail verification.  Spending is two-phase: the
ledger issues a random challenge for a raw receipt, the owner signs the
(receipt, challenge) pair, and approval requires the owner match, fresh
coins, and a valid signature.  Approved receipts are persisted one record
per line and replayed on load.  A state mints no (recipient, coin id) it
has minted or knows spent, from the log or from a spend it approved.

Replay parses and re-verifies each record, except inside a prefix that
the administrator has already verified and signed together with the coins
it spends.  That checkpoint is a JSON file next to the log
(`log.jsonl.checkpoint`): `{"bytes": N, "sha256": H, "spent": M, "sig": S}`,
where M maps each owner's public key (hex) to the ascending ids of that
owner's coins spent by the records inside the first N bytes, and S is the
administrator's signature on `CHECKPOINT_TAG` followed by the canonical
JSON of N, H and M.  The tag keeps checkpoint and coin signatures apart:
neither can pass as the other.  `load` honours a checkpoint only when
0 < N <= the log's length, the SHA-256 of the log's first N bytes is H and
S verifies under the administrator's public key; otherwise it verifies
every record.  A record counts as inside the prefix only when its line,
newline included, is.  With a checkpoint, the spent set starts as M and
only the records after the prefix are parsed, verified and checked for
double-spends against it.  `load` reads the log once, line by line, each
line feeding the running SHA-256, so it holds one line and the reader's
buffer at a time, never the whole file: the prefix is hashed and its lines
counted, not kept, and `approved` parses it on its first read, without
signature checks, from a fresh read whose SHA-256 must still be H.  A
listing load (`ledger audit-log`) turns each prefix record into its
`audit_line` straight from its JSON in that same pass.  The file is only a
cache: deleting it costs one full verification.

Two writers sign checkpoints.  After a load in which every record passed,
`load` signs one for the newline-terminated part of the log, if that part
grew.  A state that approves spends keeps a running SHA-256 over the log
bytes it has itself read (and checked, or honoured under a checkpoint) or
appended, and after an approval it signs those bytes and its spent set
once the bytes appended since the last checkpoint it signed or honoured
are at least as many as that checkpoint covers.  That doubling schedule
re-signs the spent set at amortised O(1) cost per record.  The digest is
of the bytes this state knows, never a re-read of the file: if any other
writer touched the log in between, the file's prefix no longer hashes to
H, and the next load verifies every record.  A checkpoint can cost a cache
miss, never a skipped record.

Trust: anyone without the administrator's secret key can neither make
`load` skip a record, nor change the spent set it starts from, nor make it
accept a log that it would refuse without a checkpoint: editing a byte of
the prefix changes H, and editing N, H or M voids S.  Records and spent
coins inside a checkpoint are trusted on the administrator's signature,
not re-checked against the users' keys or against each other; the holder
of that key can already mint any coin.

Session caches: a state does each signature operation once.  `Ed25519Scheme`
keeps the private and public keys it has loaded, a raw receipt encodes its
canonical JSON once, and a state remembers the payload and signature of
each coin its `mint` signed.  Such a coin verifies exactly when the state's
secret key matches `admin_pk`: a signature made with the matching key
always verifies, and one made with another key verifies only if it is a
forgery.  So once
one of them has verified, `verify_coin` passes a coin whose payload and
signature are byte-for-byte those of a coin the state minted without asking
the scheme again, and skips no check: any other coin, including an edited
copy of a minted one, and every coin of a state whose secret key does not
match `admin_pk`, is verified in full.  `load` mints nothing, so replay
verifies every record it reads.

Every SHA-256 the ledger takes (H) comes from `cryptography`, whose
Ed25519 code links its own OpenSSL; `hashlib` would load the system's
`libcrypto` a second time.  Only the toy scheme imports `hashlib`.

Secret keys never pass through ledger operations; signing happens on the
owner's side via `sign_receipt`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from abc import ABC, abstractmethod
from typing import Optional

from .errors import InputError
from .record import Record


class SignatureScheme(ABC):
    """Abstract signature primitive: key generation, signing, verification.

    Contract: verification accepts exactly the signatures produced with
    the matching secret key (up to the scheme's security level), and
    `verify` is deterministic on identical inputs.
    """

    @abstractmethod
    def gen(self) -> tuple:
        """Return a fresh (secret_key, public_key) pair of byte strings."""

    @abstractmethod
    def sign(self, sk: bytes, message: bytes) -> bytes:
        ...

    @abstractmethod
    def verify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        ...


class Ed25519Scheme(SignatureScheme):
    """Production scheme backed by Ed25519 (128-bit security level).

    Loading a key costs about as much as a signature, so each instance
    keeps the private keys it has loaded, by their secret bytes, and the
    public keys, by their public bytes; each map forgets all its keys once
    it holds `KEY_CACHE` of them.  A key that fails to load is not kept.
    """

    KEY_CACHE = 64

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric import ed25519
        self._ed25519 = ed25519
        self._keys: dict = {}
        self._public: dict = {}

    def gen(self) -> tuple:
        private = self._ed25519.Ed25519PrivateKey.generate()
        return private.private_bytes_raw(), private.public_key().public_bytes_raw()

    def _key(self, cache: dict, raw: bytes, load):
        """`load(raw)`, kept in `cache`; a key it cannot load raises ValueError."""
        key = cache.get(raw)
        if key is None:
            key = load(raw)
            if len(cache) >= self.KEY_CACHE:
                cache.clear()
            cache[raw] = key
        return key

    def sign(self, sk: bytes, message: bytes) -> bytes:
        return self._key(self._keys, sk,
                         self._ed25519.Ed25519PrivateKey.from_private_bytes).sign(message)

    def verify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        try:
            self._key(self._public, pk,
                      self._ed25519.Ed25519PublicKey.from_public_bytes).verify(signature, message)
            return True
        except Exception:
            return False


class DeterministicScheme(SignatureScheme):
    """Seeded test double: MAC-style signatures keyed off the public key.

    Reproducible given the seed and self-contained across processes, so
    tampered messages and mismatched keys are rejected honestly.  Anyone
    who knows the construction can forge, so it carries no real security;
    it exists for reproducible unit tests only.  Distinct parties should
    use distinct seeds, otherwise they share a key sequence.
    """

    def __init__(self, seed: int = 0):
        import hashlib
        import hmac
        import random
        self._sha256 = hashlib.sha256
        self._hmac = hmac
        self._rng = random.Random(seed)

    def _pk_for(self, sk: bytes) -> bytes:
        return b"td:" + self._sha256(b"pk" + sk).digest()[:16]

    def _mac_key(self, pk: bytes) -> bytes:
        return self._sha256(b"mac" + pk).digest()

    def gen(self) -> tuple:
        sk = self._rng.getrandbits(256).to_bytes(32, "big")
        return sk, self._pk_for(sk)

    def sign(self, sk: bytes, message: bytes) -> bytes:
        return self._hmac.new(self._mac_key(self._pk_for(sk)), message, self._sha256).digest()

    def verify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        expected = self._hmac.new(self._mac_key(pk), message, self._sha256).digest()
        return self._hmac.compare_digest(expected, signature)


def keygen(scheme: SignatureScheme) -> tuple:
    """Fresh (secret_key, public_key) pair from the scheme."""
    sk, pk = scheme.gen()
    if not sk or not pk:
        raise RuntimeError("signature scheme produced an empty key")
    return sk, pk


# -- value objects -------------------------------------------------------


class CoinMetadata(Record):
    _fields = ("coin_id", "valid_from", "valid_to", "issuer_note")

    def __init__(self, coin_id: int, valid_from: str = "", valid_to: str = "",
                 issuer_note: str = ""):
        self._set(coin_id, valid_from, valid_to, issuer_note)

    def to_dict(self) -> dict:
        return {
            "coin_id": self.coin_id,
            "valid_from": self.valid_from,
            "valid_to": self.valid_to,
            "issuer_note": self.issuer_note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoinMetadata":
        return cls(coin_id=int(d["coin_id"]), valid_from=d.get("valid_from", ""),
                   valid_to=d.get("valid_to", ""), issuer_note=d.get("issuer_note", ""))


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sha256():
    """A fresh SHA-256 hash object from `cryptography` (see the module
    docstring)."""
    from cryptography.hazmat.primitives import hashes
    return hashes.Hash(hashes.SHA256())


# Prefixes every signed checkpoint message.  Coin payloads are canonical
# JSON objects and start with "{", so no message is signed as both.  A v1
# checkpoint, which signed no spent coins, fails to verify under it.
CHECKPOINT_TAG = b"auditgame log checkpoint v2\n"


def _checkpoint_message(n_bytes: int, sha256: str, spent: dict) -> bytes:
    return CHECKPOINT_TAG + _canonical({"bytes": n_bytes, "sha256": sha256, "spent": spent})


def _spent_map(keys) -> dict:
    """Coin keys (owner hex, coin id) as {owner hex: [ascending coin ids]}."""
    by_owner: dict = {}
    for owner, coin_id in keys:
        by_owner.setdefault(owner, []).append(coin_id)
    return {owner: sorted(ids) for owner, ids in by_owner.items()}


class Coin(Record):
    _fields = ("owner_pk", "metadata", "issuer_sig")

    def __init__(self, owner_pk: bytes, metadata: CoinMetadata, issuer_sig: bytes):
        self._set(owner_pk, metadata, issuer_sig)

    @staticmethod
    def signed_payload(owner_pk: bytes, metadata: CoinMetadata) -> bytes:
        return _canonical({"owner_pk": owner_pk.hex(), "metadata": metadata.to_dict()})

    @property
    def key(self) -> tuple:
        """Ledger identity of the coin: unique per (owner, coin_id)."""
        return (self.owner_pk.hex(), self.metadata.coin_id)

    def to_dict(self) -> dict:
        return {
            "owner_pk": self.owner_pk.hex(),
            "metadata": self.metadata.to_dict(),
            "issuer_sig": self.issuer_sig.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Coin":
        return cls(
            owner_pk=bytes.fromhex(d["owner_pk"]),
            metadata=CoinMetadata.from_dict(d["metadata"]),
            issuer_sig=bytes.fromhex(d["issuer_sig"]),
        )


class RawReceipt(Record):
    """Pre-challenge purchase description: goods, price, and the coins offered."""

    _fields = ("goods", "price", "coins")

    def __init__(self, goods: str, price: int, coins: tuple):
        coins = tuple(coins)
        if not coins:
            raise InputError("a receipt must list at least one coin")
        owners = {c.owner_pk for c in coins}
        if len(owners) != 1:
            raise InputError("all coins in one receipt must share a single owner key")
        if len({c.key for c in coins}) != len(coins):
            raise InputError("a receipt lists each coin at most once")
        if price < 0:
            raise InputError("price cannot be negative")
        self._set(goods, price, coins)

    @property
    def owner_pk(self) -> bytes:
        return self.coins[0].owner_pk

    def to_dict(self) -> dict:
        return {
            "goods": self.goods,
            "price": self.price,
            "coins": [c.to_dict() for c in self.coins],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RawReceipt":
        return cls(goods=d["goods"], price=int(d["price"]),
                   coins=tuple(Coin.from_dict(c) for c in d["coins"]))

    def canonical_bytes(self) -> bytes:
        """The canonical JSON of `to_dict()`, encoded once per receipt and
        kept outside `_fields`, so equality, hashing and `replace` ignore it."""
        data = self.__dict__.get("_canonical_bytes")
        if data is None:
            data = self.__dict__["_canonical_bytes"] = _canonical(self.to_dict())
        return data


class Receipt(Record):
    """`challenge` is the 128-bit value the ledger issued."""

    _fields = ("raw", "challenge", "user_sig")

    def __init__(self, raw: RawReceipt, challenge: bytes, user_sig: bytes):
        self._set(raw, challenge, user_sig)

    @staticmethod
    def signed_payload(raw: RawReceipt, challenge: bytes) -> bytes:
        """`_canonical({"challenge": challenge.hex(), "receipt": raw.to_dict()})`,
        built around the raw receipt's own canonical bytes."""
        return (b'{"challenge":"' + challenge.hex().encode("ascii") + b'","receipt":'
                + raw.canonical_bytes() + b"}")

    def to_dict(self) -> dict:
        return {**self.raw.to_dict(), "challenge": self.challenge.hex(),
                "user_sig": self.user_sig.hex()}

    @classmethod
    def from_dict(cls, d: dict) -> "Receipt":
        return cls(raw=RawReceipt.from_dict(d), challenge=bytes.fromhex(d["challenge"]),
                   user_sig=bytes.fromhex(d["user_sig"]))


def sign_receipt(scheme: SignatureScheme, sk: bytes, raw: RawReceipt,
                 challenge: bytes) -> Receipt:
    """Owner-side helper: sign (raw receipt, challenge) with one's own key."""
    sig = scheme.sign(sk, Receipt.signed_payload(raw, challenge))
    return Receipt(raw=raw, challenge=challenge, user_sig=sig)


def audit_line(index: int, goods, price: int, coin_ids: list) -> str:
    """The `ledger audit-log` line of the approved record at `index`."""
    return f"{index}: goods={goods!r} price={price} coins={coin_ids} verified=true\n"


def _parse_record(line: bytes, lineno: int):
    """The receipt on one log line, or None for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        return Receipt.from_dict(json.loads(line))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"log line {lineno} is not a receipt record: {exc!r}") from None


class SpendOutcome(Record):
    """`reason` is None on approval, else one of double-spend, bad-signature,
    invalid-coin, owner-mismatch, unknown-challenge and expired-challenge."""

    _fields = ("approved", "reason")

    def __init__(self, approved: bool, reason: Optional[str] = None):
        self._set(approved, reason)

    def __bool__(self):
        return self.approved


# -- the ledger ----------------------------------------------------------


class LedgerState:
    """Administrator-side state: keys, approved receipts, spent coins,
    pending challenges.

    `finalize_spend` serializes its spent-set check, log append, spend
    marking and any checkpoint it signs through one lock; signature checks
    run outside it on immutable data.
    """

    CHALLENGE_BYTES = 16

    def __init__(self, scheme: SignatureScheme, admin_sk: bytes, admin_pk: bytes,
                 log_path=None, challenge_ttl: float = 600.0, rng=None, clock=None):
        self.scheme = scheme
        self._admin_sk = admin_sk
        self.admin_pk = admin_pk
        self.log_path = log_path
        self.challenge_ttl = challenge_ttl
        self._rng = rng
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._approved: list = []
        # (N, H) of the loaded checkpoint whose records `approved` has yet
        # to parse, or None.
        self._prefix = None
        self._spent: set = set()
        # Coin key -> (signed payload, signature) of each coin `mint` signed
        # (None while it signs), and the (scheme, admin_pk) under which one
        # of them has verified.
        self._minted: dict = {}
        self._minted_verified_under = None
        self._pending: dict = {}   # r0 canonical bytes -> {challenge bytes: deadline}
        # True when the loaded log's last line has no newline; the next
        # append writes one first, so that its record gets a line of its own.
        self._unterminated = False
        # The running SHA-256 of the log bytes this state has read or
        # appended, their count, and the count that the last checkpoint it
        # signed or honoured covers (see the module docstring).
        self._log_sha = _sha256()
        self._log_bytes = 0
        self._checkpointed = 0

    @classmethod
    def create(cls, scheme: SignatureScheme, log_path=None, **kwargs) -> "LedgerState":
        sk, pk = keygen(scheme)
        return cls(scheme, sk, pk, log_path=log_path, **kwargs)

    @classmethod
    def load(cls, scheme: SignatureScheme, admin_sk: bytes, admin_pk: bytes,
             log_path, listing: Optional[list] = None, **kwargs) -> "LedgerState":
        """Rebuild from the approved-receipt log, read once, line by line.

        With a valid checkpoint the spent set starts as the one it signs, and
        only the records after its prefix are parsed, re-verified and checked
        for double-spends; without one, every record is (see the module
        docstring).  Messages name the same line numbers either way.

        `listing`, a list, receives the `audit_line` of every approved
        record in log order, the prefix's included; it is complete once
        `load` returns.
        """
        state = cls(scheme, admin_sk, admin_pk, log_path=log_path, **kwargs)
        if not (log_path and os.path.exists(log_path)):
            return state
        # Bytes, so that json.loads decodes each line and a line that is not
        # UTF-8 is reported like any other malformed record.
        try:
            with open(log_path, "rb") as fh:
                if not state._replay(fh, state._read_checkpoint(), listing):
                    # The administrator did not vouch for this prefix: verify
                    # every record, reading the log again from its first byte.
                    state = cls(scheme, admin_sk, admin_pk, log_path=log_path, **kwargs)
                    if listing is not None:
                        listing.clear()
                    fh.seek(0)
                    state._replay(fh, None, listing)
        except OSError as exc:
            raise InputError(f"cannot read ledger log {log_path!r}: "
                             f"{exc.strerror or exc}") from None
        return state

    def _replay(self, fh, checkpoint, listing) -> bool:
        """Read the log `fh` into this new state; see `load`.

        With `checkpoint`, (N, H, M, S) from `_read_checkpoint`, the lines
        that end within the first N bytes are only hashed and counted, or
        listed, and the checkpoint is checked before any later line is
        parsed.  False, with this state half-read, when it does not hold."""
        n_bytes = checkpoint[0] if checkpoint else 0
        honoured = checkpoint is None
        # The SHA-256 of the first N bytes, and the length and SHA-256 of
        # the newline-terminated part of the log, once an unterminated last
        # line shows that it is not the whole log.
        n_digest, ends, ends_digest = None, None, None
        torn, grown = set(), False   # torn: the coins of an unterminated last line
        for lineno, line in enumerate(fh, start=1):
            start = self._log_bytes
            end = self._log_bytes = start + len(line)
            complete = line.endswith(b"\n")
            if not complete:   # only the last line can lack its newline
                ends, ends_digest = start, self._log_sha.copy().finalize().hex()
            if start < n_bytes <= end:   # the one line that holds byte N
                self._log_sha.update(line[:n_bytes - start])
                n_digest = self._log_sha.copy().finalize().hex()
                self._log_sha.update(line[n_bytes - start:])
            else:
                self._log_sha.update(line)
            if complete and end <= n_bytes:
                if listing is None:
                    continue
                # A listed prefix record.  A checkpoint vouches only for
                # receipt records, so one that is not voids it.
                text = line.strip()
                if text:
                    try:
                        record = json.loads(text)
                        listing.append(audit_line(
                            len(listing), record["goods"], int(record["price"]),
                            [int(coin["metadata"]["coin_id"]) for coin in record["coins"]]))
                    except (ValueError, KeyError, TypeError):
                        return False
                continue
            if not honoured:
                if not self._honour(checkpoint, n_digest):
                    return False
                honoured, checkpoint = True, None   # M lives on only as the spent set
            grown = grown or complete
            receipt = _parse_record(line, lineno)
            if receipt is None:
                continue
            problem = self._receipt_integrity_problem(receipt)
            if problem:
                raise InputError(f"log line {lineno} fails re-verification: {problem}")
            for coin in receipt.raw.coins:
                if coin.key in self._spent:
                    raise InputError(f"log line {lineno} double-spends coin {coin.key}")
                self._spent.add(coin.key)
            self._approved.append(receipt)
            if listing is not None:
                listing.append(audit_line(len(listing), receipt.raw.goods, receipt.raw.price,
                                          [coin.metadata.coin_id for coin in receipt.raw.coins]))
            if not complete:
                torn = {coin.key for coin in receipt.raw.coins}
        if not honoured and not self._honour(checkpoint, n_digest):
            return False
        if ends is None:
            ends, ends_digest = self._log_bytes, self._log_sha.copy().finalize().hex()
        if grown:
            self._save_checkpoint(ends, ends_digest, self._spent - torn if torn else self._spent)
        self._checkpointed = ends
        self._unterminated = self._log_bytes > ends
        return True

    @property
    def approved(self) -> list:
        """Every approved receipt, in log order.  The first read parses the
        records inside a loaded checkpoint, without signature checks, from a
        new read of the log's first N bytes; if they no longer hash to H,
        it raises `InputError` and returns nothing."""
        with self._lock:
            if self._prefix:
                n_bytes, digest = self._prefix
                sha, receipts, read = _sha256(), [], 0
                try:
                    with open(self.log_path, "rb") as fh:
                        for lineno, line in enumerate(fh, start=1):
                            line = line[:n_bytes - read]   # a line cut at N has no newline
                            read += len(line)
                            sha.update(line)
                            if line.endswith(b"\n"):
                                receipt = _parse_record(line, lineno)
                                if receipt is not None:
                                    receipts.append(receipt)
                            if read == n_bytes:
                                break
                except OSError as exc:
                    raise InputError(f"cannot read ledger log {self.log_path!r}: "
                                     f"{exc.strerror or exc}") from None
                if read != n_bytes or sha.finalize().hex() != digest:
                    raise InputError(f"ledger log {self.log_path!r} changed since it was loaded")
                self._approved[:0] = receipts
                self._prefix = None
            return self._approved

    def _checkpoint_path(self) -> str:
        return os.fspath(self.log_path) + ".checkpoint"

    def _read_checkpoint(self):
        """(N, H, M, S) of the checkpoint next to the log, S as bytes; None
        when there is none, it does not parse or N is not a positive
        integer."""
        try:
            with open(self._checkpoint_path(), "rb") as fh:
                checkpoint = json.loads(fh.read())
            claim = (checkpoint["bytes"], checkpoint["sha256"], checkpoint["spent"],
                     bytes.fromhex(checkpoint["sig"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return claim if type(claim[0]) is int and claim[0] > 0 else None

    def _honour(self, checkpoint, digest) -> bool:
        """Whether the checkpoint (N, H, M, S) holds, given `digest`, the hex
        SHA-256 of the log's first N bytes (None for a log shorter than N);
        if it does, the spent set starts as M."""
        n_bytes, sha256, spent, sig = checkpoint
        if (digest is None or digest != sha256
                or not self.scheme.verify(self.admin_pk,
                                          _checkpoint_message(n_bytes, sha256, spent), sig)):
            return False
        # Only the administrator signs M, and always as {owner hex: [coin ids]}.
        self._spent = {(owner, coin_id) for owner, ids in spent.items() for coin_id in ids}
        self._prefix = (n_bytes, sha256)
        return True

    def _save_checkpoint(self, n_bytes: int, digest: str, spent: set) -> None:
        """Sign the first `n_bytes` of the log, whose SHA-256 is `digest`,
        and `spent`, the coins their records spend.

        The file is replaced atomically.  It is only a cache, so a failed
        write is ignored, as is a secret key the scheme cannot sign with
        (reading the log needs only the public key).
        """
        spent = _spent_map(spent)
        try:
            sig = self.scheme.sign(self._admin_sk, _checkpoint_message(n_bytes, digest, spent))
        except ValueError:
            return
        path = self._checkpoint_path()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"bytes": n_bytes, "sha256": digest, "sig": sig.hex(),
                                     "spent": spent}, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

    # -- coins ---------------------------------------------------------

    def mint(self, recipient_pk: bytes, metadata: CoinMetadata) -> Coin:
        """Sign a new coin, unless this state minted it or knows it spent;
        an id that fails to sign stays free to mint."""
        key = (recipient_pk.hex(), metadata.coin_id)
        with self._lock:
            if key in self._spent or key in self._minted:
                raise InputError(
                    f"coin id {metadata.coin_id} was already issued to this recipient"
                )
            self._minted[key] = None
        payload = Coin.signed_payload(recipient_pk, metadata)
        try:
            sig = self.scheme.sign(self._admin_sk, payload)
        except BaseException:
            with self._lock:
                del self._minted[key]
            raise
        self._minted[key] = (payload, sig)
        return Coin(owner_pk=recipient_pk, metadata=metadata, issuer_sig=sig)

    def verify_coin(self, coin: Coin) -> bool:
        """True exactly when the administrator's signature on the coin
        verifies.  A coin whose signed payload and signature are those of a
        coin this state minted passes unchecked once one such coin has
        verified under the same scheme and `admin_pk` (see the module
        docstring)."""
        payload = Coin.signed_payload(coin.owner_pk, coin.metadata)
        own = self._minted.get(coin.key) == (payload, coin.issuer_sig)
        under = (self.scheme, self.admin_pk)
        if own and self._minted_verified_under == under:
            return True
        valid = self.scheme.verify(self.admin_pk, payload, coin.issuer_sig)
        if own and valid:
            self._minted_verified_under = under
        return valid

    # -- two-phase spending ---------------------------------------------

    def begin_spend(self, raw: RawReceipt) -> bytes:
        """Issue a fresh 128-bit challenge for the raw receipt."""
        if not isinstance(raw, RawReceipt):
            raise InputError("begin_spend expects a RawReceipt")
        if self._rng is not None:
            challenge = self._rng.getrandbits(8 * self.CHALLENGE_BYTES).to_bytes(
                self.CHALLENGE_BYTES, "big")
        else:
            challenge = os.urandom(self.CHALLENGE_BYTES)
        deadline = self._clock() + self.challenge_ttl
        with self._lock:
            self._pending.setdefault(raw.canonical_bytes(), {})[challenge] = deadline
        return challenge

    def pending_challenges(self, raw: RawReceipt) -> tuple:
        """Challenges still usable for this raw receipt (expired ones drop out)."""
        now, key = self._clock(), raw.canonical_bytes()
        with self._lock:
            challenges = self._pending.get(key, {})
            live = {z: d for z, d in challenges.items() if d >= now}
            if len(live) != len(challenges):
                if live:
                    self._pending[key] = live
                else:
                    self._pending.pop(key, None)
            return tuple(live)

    def _receipt_integrity_problem(self, receipt: Receipt) -> Optional[str]:
        """Signature and ownership checks; no spent-set or challenge state."""
        signer_pk = receipt.raw.owner_pk
        for coin in receipt.raw.coins:
            if coin.owner_pk != signer_pk:
                return "owner-mismatch"
            if not self.verify_coin(coin):
                return "invalid-coin"
        payload = Receipt.signed_payload(receipt.raw, receipt.challenge)
        if not self.scheme.verify(signer_pk, payload, receipt.user_sig):
            return "bad-signature"
        return None

    def finalize_spend(self, receipt: Receipt) -> SpendOutcome:
        """Approve or reject; on approval the receipt is appended to the log
        and then its coins are marked spent, under one lock.

        A log that cannot be appended to raises `InputError` and commits
        nothing: the coins stay unspent and the challenge stays pending.
        """
        if not isinstance(receipt, Receipt):
            raise InputError("finalize_spend expects a Receipt")
        problem = self._receipt_integrity_problem(receipt)
        if problem:
            return SpendOutcome(False, problem)

        key = receipt.raw.canonical_bytes()
        now = self._clock()
        with self._lock:
            challenges = self._pending.get(key, {})
            deadline = challenges.get(receipt.challenge)
            if deadline is None:
                return SpendOutcome(False, "unknown-challenge")
            if now > deadline:
                del challenges[receipt.challenge]
                return SpendOutcome(False, "expired-challenge")
            for coin in receipt.raw.coins:
                if coin.key in self._spent:
                    return SpendOutcome(False, "double-spend")
            # All checks passed: append, then commit in memory.
            if self.log_path:
                line = ((b"\n" if self._unterminated else b"")
                        + json.dumps(receipt.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
                try:
                    with open(self.log_path, "ab") as fh:
                        fh.write(line)
                except OSError as exc:
                    raise InputError(f"cannot append to ledger log {self.log_path!r}: "
                                     f"{exc.strerror or exc}") from None
                self._unterminated = False
                self._log_sha.update(line)
                self._log_bytes += len(line)
            for coin in receipt.raw.coins:
                self._spent.add(coin.key)
            del challenges[receipt.challenge]
            if not challenges:
                self._pending.pop(key, None)
            self._approved.append(receipt)
            # The doubling schedule; a checkpoint that could not be signed
            # or written resets it too, so a failing disk costs no more.
            if self.log_path and self._log_bytes - self._checkpointed >= self._checkpointed:
                self._checkpointed = self._log_bytes
                self._save_checkpoint(self._log_bytes, self._log_sha.copy().finalize().hex(),
                                      self._spent)
        return SpendOutcome(True)

    def is_spent(self, coin: Coin) -> bool:
        with self._lock:
            return coin.key in self._spent


def verify_coin(scheme: SignatureScheme, admin_pk: bytes, coin: Coin) -> bool:
    """True exactly when the administrator's signature on the coin verifies."""
    payload = Coin.signed_payload(coin.owner_pk, coin.metadata)
    return scheme.verify(admin_pk, payload, coin.issuer_sig)
