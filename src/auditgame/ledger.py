"""Signature-backed program credits: coins, spend receipts, and an
append-only log of approved spends.

A coin binds an owner's public key and metadata under the administrator's
signature, so counterfeits fail verification.  Spending is two-phase: the
ledger issues a random challenge for a raw receipt, the owner signs the
(receipt, challenge) pair, and approval requires the owner match, fresh
coins, a valid signature and a challenge issued no more than
`LedgerState.CHALLENGE_TTL` (ten minutes) before.  `begin_spend` is the one
place that drops expired challenges: an expired one is refused as
`expired-challenge`, or as `unknown-challenge` once a later `begin_spend`
has dropped it.  Each approved receipt is appended to the log as one
record per line, and the log is replayed on load.  A line is the receipt's
canonical JSON, `_canonical(receipt.to_dict())`: sorted keys, no spaces,
ASCII only.  An append opens the log by path with `O_APPEND`, writes the
whole record to its end with `os.write` (again for whatever a short write
left), and closes it: no buffered file object, and no fsync.  A last
line without its newline that is no receipt record is refused with a
message that says the line has no newline, which is what an append cut
short leaves.  `load` parses each line with `json.loads`, so lines written
in the older spaced form (`json.dumps(record, sort_keys=True)`) load as
before, and a log may mix the two.  The log is the only
copy of the receipts: a state keeps the coins they spend, never the
receipts themselves.  A state mints no (recipient, coin id) it has minted
or knows spent, from the log or from a spend it approved.

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
double-spends against it.  `load` reads the log line by line, each line
feeding the running SHA-256, so it holds one line and the reader's buffer
at a time, never the whole file: the prefix is hashed and its lines
counted, not kept or parsed.  It reads the log once when there is no
checkpoint or the checkpoint holds; when it does not hold, `load` reads the
log a second time from its first byte and verifies every record.  A
listing load (`ledger audit-log`) turns each record, inside the prefix or
after it, into its `audit_line` from the one JSON parse of its line in the
pass that keeps it.  The file is only a cache: deleting it costs one full
verification.

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

Session caches: `Ed25519Scheme` keeps the private keys it has loaded,
and answers `verify` for the last message each key signed through it,
with that signature, without asking OpenSSL: Ed25519 signing is
deterministic and a signature verifies under the public key of the private
key that made it (RFC 8032), and that public key is derived from the
secret key, never taken from a caller, so a state whose `admin_pk` does not
match its secret key still gets OpenSSL's False.  A coin that `mint` signs
just before the spend that checks it, and a receipt that a user signs
through the state's scheme just before `finalize_spend`, are thus verified
from memory.  Only each key's last signature through the same scheme
object can be: a coin minted before the administrator's key signed again
(a later coin or a checkpoint), every record that a `load` on a new scheme
object reads, as in every CLI call, and every signature made by another
scheme object or process go to OpenSSL, as does every call whose arguments
are not all `bytes`.

A session also encodes each coin and receipt once.  A coin keeps its
signed payload: the bytes `mint` signed, or one encoding of a coin read
from a file or a log; and its `key`, (owner hex, coin id).  Every byte
string that is signed or logged is joined from its parts' canonical
bytes: a coin's payload from its metadata's fields and owner, its
canonical JSON from its payload, a raw receipt's from its coins', its
goods and its price, and the receipt payload and the log line from the
raw receipt's.  Each is byte-for-byte the canonical JSON of what it
encodes, so coins, receipts and checkpoints signed before still verify.

Every SHA-256 the ledger takes (H) comes from `cryptography`, whose
Ed25519 code links its own OpenSSL; `hashlib` would load the system's
`libcrypto` a second time.

Secret keys never pass through ledger operations; signing happens on the
owner's side via `sign_receipt`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
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

    Loading a private key costs about as much as a signature, so each
    instance keeps the private keys it has loaded, by their secret bytes,
    each with its public bytes, derived once by `cryptography`.  A key that
    fails to load is not kept.  A public key is loaded afresh for each
    OpenSSL verify, at about 1 % of the verify's cost.

    Each instance also remembers, under each signing key's public bytes,
    the last `bytes` message that key signed here and its signature, and
    `verify` answers True for exactly that (public key, message, signature)
    triple, all three `bytes`, without asking OpenSSL.  That skips no
    check: Ed25519 signing is deterministic, and a signature verifies under
    the public key of the private key that made it (RFC 8032, 5.1.6-5.1.7),
    so OpenSSL would answer True too; and the public key is the one derived
    from the secret key, never one a caller supplied.  Every other call
    goes to OpenSSL: an earlier signature of a key that has signed again,
    a signature made by another scheme object or process (every record a
    new scheme object reads from a log), and arguments that are not
    `bytes`.  A `sign` that raises records nothing.

    Each of the two maps forgets all its entries once it holds
    `KEY_CACHE` keys; a race between threads can only lose a pair, which
    then costs one OpenSSL call.
    """

    KEY_CACHE = 64

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric import ed25519
        self._ed25519 = ed25519
        self._keys: dict = {}     # secret bytes -> (private key, public bytes)
        self._signed: dict = {}   # public bytes -> (last message, its signature)

    def gen(self) -> tuple:
        private = self._ed25519.Ed25519PrivateKey.generate()
        return private.private_bytes_raw(), private.public_key().public_bytes_raw()

    def _keep(self, cache: dict, raw: bytes, value) -> None:
        if len(cache) >= self.KEY_CACHE and raw not in cache:
            cache.clear()
        cache[raw] = value

    def sign(self, sk: bytes, message: bytes) -> bytes:
        kept = self._keys.get(sk)
        if kept is None:   # a key that cannot load raises ValueError and is not kept
            private = self._ed25519.Ed25519PrivateKey.from_private_bytes(sk)
            kept = private, private.public_key().public_bytes_raw()
            self._keep(self._keys, sk, kept)
        private, pk = kept
        signature = private.sign(message)
        if type(message) is bytes:
            self._keep(self._signed, pk, (message, signature))
        return signature

    def verify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        if (type(pk) is bytes and type(message) is bytes and type(signature) is bytes
                and self._signed.get(pk) == (message, signature)):
            return True
        try:
            self._ed25519.Ed25519PublicKey.from_public_bytes(pk).verify(signature, message)
            return True
        except Exception:
            return False


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
        if type(coin_id) is not int:
            raise InputError("a coin id must be an integer")
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


# One encoder for every call: `json.dumps` with arguments builds a new one
# each time, and `encode` keeps no state between calls.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical(obj) -> bytes:
    """Compact JSON with sorted keys, ASCII only: the bytes that are signed
    and logged."""
    return _encode(obj).encode("utf-8")


def _sha256():
    """A fresh SHA-256 hash object from `cryptography` (see the module
    docstring)."""
    from cryptography.hazmat.primitives import hashes
    return hashes.Hash(hashes.SHA256())


# Prefixes every signed checkpoint message.  Coin payloads are canonical
# JSON objects and start with "{", so no message is signed as both.  A v1
# checkpoint, which signed no spent coins, fails to verify under it.
CHECKPOINT_TAG = b"auditgame log checkpoint v2\n"

# Ends the message for a last line that has no newline and is no receipt
# record: what an append cut short leaves.
TORN_LINE = "; the line has no newline, as an append cut short leaves it"


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
        # The ledger identity of the coin, unique per (owner, coin_id), kept
        # outside `_fields` like the payload: a spend reads it three times.
        self.__dict__["key"] = (owner_pk.hex(), metadata.coin_id)

    @staticmethod
    def signed_payload(owner_pk: bytes, metadata: CoinMetadata) -> bytes:
        """`_canonical({"owner_pk": owner_pk.hex(), "metadata": metadata.to_dict()})`,
        joined from its parts: the keys sort as metadata < owner_pk and
        coin_id < issuer_note < valid_from < valid_to, and a coin id is an
        `int`."""
        return (b'{"metadata":{"coin_id":%d,"issuer_note":%b,"valid_from":%b,"valid_to":%b},'
                b'"owner_pk":"%b"}' % (metadata.coin_id, _canonical(metadata.issuer_note),
                                       _canonical(metadata.valid_from),
                                       _canonical(metadata.valid_to),
                                       owner_pk.hex().encode("ascii")))

    def payload(self) -> bytes:
        """`signed_payload` of this coin, encoded once per coin (or handed
        over by `mint`, which signed it) and kept outside `_fields`, so
        equality, hashing and `replace` ignore it."""
        data = self.__dict__.get("_payload")
        if data is None:
            data = self.__dict__["_payload"] = Coin.signed_payload(self.owner_pk, self.metadata)
        return data

    def canonical_bytes(self) -> bytes:
        """`_canonical(self.to_dict())`, built around the payload: the key
        "issuer_sig" sorts before both of the payload's keys."""
        return (b'{"issuer_sig":"' + self.issuer_sig.hex().encode("ascii") + b'",'
                + self.payload()[1:])

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
        if type(price) is not int:
            raise InputError("a price must be an integer")
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
        """`_canonical(self.to_dict())`, joined from its coins' canonical
        bytes (the keys sort as coins < goods < price, and a price is an
        `int`), built once per receipt and kept outside `_fields`, so
        equality, hashing and `replace` ignore it."""
        data = self.__dict__.get("_canonical_bytes")
        if data is None:
            data = self.__dict__["_canonical_bytes"] = (
                b'{"coins":[' + b",".join(c.canonical_bytes() for c in self.coins)
                + b'],"goods":' + _canonical(self.goods)
                + b',"price":%d}' % self.price)
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

    def canonical_bytes(self) -> bytes:
        """`_canonical(self.to_dict())`, the receipt's log line without its
        newline, built around the raw receipt's canonical bytes: the keys
        sort as challenge < coins < goods < price < user_sig."""
        return (b'{"challenge":"' + self.challenge.hex().encode("ascii") + b'",'
                + self.raw.canonical_bytes()[1:-1]
                + b',"user_sig":"' + self.user_sig.hex().encode("ascii") + b'"}')

    @classmethod
    def from_dict(cls, d: dict) -> "Receipt":
        return cls(raw=RawReceipt.from_dict(d), challenge=bytes.fromhex(d["challenge"]),
                   user_sig=bytes.fromhex(d["user_sig"]))


def sign_receipt(scheme: SignatureScheme, sk: bytes, raw: RawReceipt,
                 challenge: bytes) -> Receipt:
    """Owner-side helper: sign (raw receipt, challenge) with one's own key."""
    sig = scheme.sign(sk, Receipt.signed_payload(raw, challenge))
    return Receipt(raw=raw, challenge=challenge, user_sig=sig)


def audit_line(index: int, record) -> str:
    """The `ledger audit-log` line of the record at `index`, from the parsed
    JSON of its log line; raises ValueError, KeyError or TypeError when that
    lacks a field it lists."""
    coin_ids = [int(coin["metadata"]["coin_id"]) for coin in record["coins"]]
    return (f"{index}: goods={record['goods']!r} price={int(record['price'])} "
            f"coins={coin_ids} verified=true\n")


class SpendOutcome(Record):
    """`reason` is None on approval, else one of double-spend, bad-signature,
    invalid-coin, unknown-challenge and expired-challenge."""

    _fields = ("approved", "reason")

    def __init__(self, approved: bool, reason: Optional[str] = None):
        self._set(approved, reason)

    def __bool__(self):
        return self.approved


# Every approval returns this one outcome; a record cannot be assigned to.
_APPROVED = SpendOutcome(True)


# -- the ledger ----------------------------------------------------------


class LedgerState:
    """Administrator-side state: keys, spent coins, pending challenges.
    The receipts that spent the coins live only in the log.

    `finalize_spend` serializes its spent-set check, log append, spend
    marking and any checkpoint it signs through one lock; signature checks
    run outside it on immutable data.
    """

    CHALLENGE_BYTES = 16
    CHALLENGE_TTL = 600.0   # seconds a challenge stays usable

    def __init__(self, scheme: SignatureScheme, admin_sk: bytes, admin_pk: bytes,
                 log_path=None, rng=None, clock=None):
        self.scheme = scheme
        self._admin_sk = admin_sk
        self.admin_pk = admin_pk
        self.log_path = log_path
        self._rng = rng
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._spent: set = set()
        # The key of each coin `mint` signed or is signing.
        self._minted: set = set()
        # (raw receipt's canonical bytes, challenge) -> deadline, in issue
        # order.  An OrderedDict drops its oldest entry in O(1); a dict's
        # first entry is found past every hole that deletions left.
        self._pending = OrderedDict()
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
        """Rebuild the spent set from the log, read line by line: once, or
        twice when its checkpoint does not hold.

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
            inside = complete and end <= n_bytes   # a line the checkpoint vouches for
            if not inside:
                if not honoured:
                    if not self._honour(checkpoint, n_digest):
                        return False
                    honoured, checkpoint = True, None   # M lives on only as the spent set
                grown = grown or complete
            elif listing is None:
                continue
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                receipt = None if inside else Receipt.from_dict(record)
                if listing is not None:
                    listing.append(audit_line(len(listing), record))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                if inside:   # it vouches only for receipt records, so one that is not voids it
                    return False
                raise InputError(f"log line {lineno} is not a receipt record: {exc!r}"
                                 + ("" if complete else TORN_LINE)) from None
            if receipt is None:
                continue
            problem = self._receipt_integrity_problem(receipt)
            if problem:
                raise InputError(f"log line {lineno} fails re-verification: {problem}")
            for coin in receipt.raw.coins:
                if coin.key in self._spent:
                    raise InputError(f"log line {lineno} double-spends coin {coin.key}")
                self._spent.add(coin.key)
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
            self._minted.add(key)
        payload = Coin.signed_payload(recipient_pk, metadata)
        try:
            sig = self.scheme.sign(self._admin_sk, payload)
        except BaseException:
            with self._lock:
                self._minted.discard(key)
            raise
        coin = Coin(owner_pk=recipient_pk, metadata=metadata, issuer_sig=sig)
        coin.__dict__["_payload"] = payload   # the bytes just signed, see `Coin.payload`
        return coin

    def verify_coin(self, coin: Coin) -> bool:
        """True exactly when the administrator's signature on the coin
        verifies."""
        return self.scheme.verify(self.admin_pk, coin.payload(), coin.issuer_sig)

    # -- two-phase spending ---------------------------------------------

    def begin_spend(self, raw: RawReceipt) -> bytes:
        """Issue a fresh 128-bit challenge for the raw receipt, usable for
        `CHALLENGE_TTL` seconds.  Pending challenges that expired before now
        are dropped first, from the oldest on, up to the first live one."""
        if not isinstance(raw, RawReceipt):
            raise InputError("begin_spend expects a RawReceipt")
        if self._rng is not None:
            challenge = self._rng.getrandbits(8 * self.CHALLENGE_BYTES).to_bytes(
                self.CHALLENGE_BYTES, "big")
        else:
            challenge = os.urandom(self.CHALLENGE_BYTES)
        now = self._clock()
        with self._lock:
            while self._pending and next(iter(self._pending.values())) < now:
                self._pending.popitem(last=False)
            self._pending[raw.canonical_bytes(), challenge] = now + self.CHALLENGE_TTL
        return challenge

    def _receipt_integrity_problem(self, receipt: Receipt) -> Optional[str]:
        """Signature checks; no spent-set or challenge state.  One owner
        holds every coin, as `RawReceipt` requires, and signs the receipt."""
        signer_pk = receipt.raw.owner_pk
        for coin in receipt.raw.coins:
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

        key = (receipt.raw.canonical_bytes(), receipt.challenge)
        now = self._clock()
        with self._lock:
            deadline = self._pending.get(key)
            if deadline is None:
                return SpendOutcome(False, "unknown-challenge")
            if deadline < now:
                del self._pending[key]
                return SpendOutcome(False, "expired-challenge")
            for coin in receipt.raw.coins:
                if coin.key in self._spent:
                    return SpendOutcome(False, "double-spend")
            # All checks passed: append, then commit in memory.
            if self.log_path:
                line = ((b"\n" if self._unterminated else b"")
                        + receipt.canonical_bytes() + b"\n")
                try:
                    _append(self.log_path, line)
                except OSError as exc:
                    raise InputError(f"cannot append to ledger log {self.log_path!r}: "
                                     f"{exc.strerror or exc}") from None
                self._unterminated = False
                self._log_sha.update(line)
                self._log_bytes += len(line)
            for coin in receipt.raw.coins:
                self._spent.add(coin.key)
            del self._pending[key]
            # The doubling schedule; a checkpoint that could not be signed
            # or written resets it too, so a failing disk costs no more.
            if self.log_path and self._log_bytes - self._checkpointed >= self._checkpointed:
                self._checkpointed = self._log_bytes
                self._save_checkpoint(self._log_bytes, self._log_sha.copy().finalize().hex(),
                                      self._spent)
        return _APPROVED


def _append(path, data: bytes) -> None:
    """Write all of `data` at the end of the file at `path`, created if
    missing: opened by path for this one record, with no buffered file
    object, and closed again."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
