"""Currency ledger: minting, two-phase spending, persistence, concurrency."""

import hashlib
import inspect
import io
import json
import os
import sys
import threading
import tracemalloc

import pytest

from auditgame import InputError
from auditgame import ledger as lg


@pytest.fixture(params=["toy", "ed25519"])
def scheme(request):
    if request.param == "toy":
        return lg.DeterministicScheme(seed=99)
    return lg.Ed25519Scheme()


@pytest.fixture
def state(scheme, tmp_path):
    return lg.LedgerState.create(scheme, log_path=str(tmp_path / "log.jsonl"))


@pytest.fixture
def user(scheme):
    return lg.keygen(scheme)


def test_keygen_distinct_and_correct(scheme):
    sk1, pk1 = lg.keygen(scheme)
    sk2, pk2 = lg.keygen(scheme)
    assert pk1 != pk2
    msg = b"arbitrary message"
    assert scheme.verify(pk1, msg, scheme.sign(sk1, msg))
    assert not scheme.verify(pk2, msg, scheme.sign(sk1, msg))
    assert not scheme.verify(pk1, msg + b"!", scheme.sign(sk1, msg))


def test_toy_scheme_is_deterministic():
    a = lg.DeterministicScheme(seed=4)
    b = lg.DeterministicScheme(seed=4)
    assert a.gen() == b.gen()
    assert lg.DeterministicScheme(seed=5).gen() != lg.DeterministicScheme(seed=4).gen()


def test_mint_and_verify(state, user):
    _, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1, issuer_note="groceries"))
    assert lg.verify_coin(state.scheme, state.admin_pk, coin)
    assert state.verify_coin(coin)


def test_mint_rejects_duplicate_id(state, user):
    _, pk = user
    state.mint(pk, lg.CoinMetadata(coin_id=7))
    with pytest.raises(InputError):
        state.mint(pk, lg.CoinMetadata(coin_id=7))
    # a different recipient may reuse the number
    _, pk2 = lg.keygen(state.scheme)
    state.mint(pk2, lg.CoinMetadata(coin_id=7))


def test_a_session_mints_no_coin_whose_spend_it_approved(scheme, tmp_path, user):
    # another session minted coin 7 and this one approved its spend: minting
    # coin 7 again is a reissue, in this session as after a fresh load
    sk, pk = user
    log = str(tmp_path / "log.jsonl")
    issuer = lg.LedgerState.create(scheme, log_path=log)
    coin = issuer.mint(pk, lg.CoinMetadata(coin_id=7))
    session = lg.LedgerState.load(scheme, issuer._admin_sk, issuer.admin_pk, log)
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    assert session.finalize_spend(lg.sign_receipt(scheme, sk, raw, session.begin_spend(raw)))
    for state in (session, lg.LedgerState.load(scheme, issuer._admin_sk, issuer.admin_pk, log)):
        with pytest.raises(InputError, match="coin id 7 was already issued"):
            state.mint(pk, lg.CoinMetadata(coin_id=7))


def test_a_failed_mint_leaves_its_id_free(state, user, monkeypatch):
    _, pk = user
    sign = state.scheme.sign

    def failing(sk, message):
        raise ValueError("signing failed")

    monkeypatch.setattr(state.scheme, "sign", failing)
    for _ in range(2):   # the retry fails as the first did, not as a reissue
        with pytest.raises(ValueError, match="signing failed"):
            state.mint(pk, lg.CoinMetadata(coin_id=5))
    monkeypatch.setattr(state.scheme, "sign", sign)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=5))
    assert state.verify_coin(coin)
    with pytest.raises(InputError, match="coin id 5 was already issued"):
        state.mint(pk, lg.CoinMetadata(coin_id=5))


def test_a_secret_key_that_cannot_sign_mints_nothing():
    scheme = lg.Ed25519Scheme()
    _, admin_pk = lg.keygen(scheme)
    state = lg.LedgerState(scheme, b"\x00\x01", admin_pk)
    _, pk = lg.keygen(scheme)
    for _ in range(2):   # never "already issued": no coin was
        with pytest.raises(ValueError) as info:
            state.mint(pk, lg.CoinMetadata(coin_id=5))
        assert not isinstance(info.value, InputError)


def test_tampered_coin_fails(state, user):
    _, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1, issuer_note="a"))
    forged_meta = lg.CoinMetadata(coin_id=1, issuer_note="b")
    assert not state.verify_coin(lg.Coin(coin.owner_pk, forged_meta, coin.issuer_sig))
    flipped = bytes([coin.issuer_sig[0] ^ 1]) + coin.issuer_sig[1:]
    assert not state.verify_coin(lg.Coin(coin.owner_pk, coin.metadata, flipped))


def test_counterfeit_coin_fails(state):
    sk, pk = lg.keygen(state.scheme)
    meta = lg.CoinMetadata(coin_id=1)
    fake = lg.Coin(pk, meta, state.scheme.sign(sk, lg.Coin.signed_payload(pk, meta)))
    assert not state.verify_coin(fake)


def test_begin_spend_fresh_challenges(state, user):
    _, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    z1 = state.begin_spend(raw)
    z2 = state.begin_spend(raw)
    assert z1 != z2
    assert len(z1) == 16
    assert set(state.pending_challenges(raw)) == {z1, z2}


def test_raw_receipt_validation(state, user):
    _, pk = user
    _, pk2 = lg.keygen(state.scheme)
    c1 = state.mint(pk, lg.CoinMetadata(coin_id=1))
    c2 = state.mint(pk2, lg.CoinMetadata(coin_id=2))
    with pytest.raises(InputError):
        lg.RawReceipt(goods="x", price=1, coins=(c1, c2))   # two owners
    with pytest.raises(InputError):
        lg.RawReceipt(goods="x", price=1, coins=())
    with pytest.raises(InputError):
        lg.RawReceipt(goods="x", price=1, coins=(c1, c1))   # duplicate coin


def test_spend_happy_path_and_double_spend(state, user):
    sk, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    z = state.begin_spend(raw)
    receipt = lg.sign_receipt(state.scheme, sk, raw, z)
    assert state.finalize_spend(receipt).approved
    assert state.is_spent(coin)

    raw2 = lg.RawReceipt(goods="again", price=1, coins=(coin,))
    z2 = state.begin_spend(raw2)
    second = lg.sign_receipt(state.scheme, sk, raw2, z2)
    out = state.finalize_spend(second)
    assert not out.approved and out.reason == "double-spend"


def test_wrong_key_receipt_rejected(state, user):
    _, pk = user
    intruder_sk, _ = lg.keygen(state.scheme)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    z = state.begin_spend(raw)
    stolen = lg.sign_receipt(state.scheme, intruder_sk, raw, z)
    out = state.finalize_spend(stolen)
    assert not out.approved and out.reason == "bad-signature"


def test_unknown_and_expired_challenges(scheme, tmp_path):
    now = [0.0]
    state = lg.LedgerState.create(scheme, log_path=str(tmp_path / "log.jsonl"),
                                  challenge_ttl=10.0, clock=lambda: now[0])
    sk, pk = lg.keygen(scheme)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    bogus = lg.sign_receipt(scheme, sk, raw, b"\x00" * 16)
    assert state.finalize_spend(bogus).reason == "unknown-challenge"
    z = state.begin_spend(raw)
    now[0] = 11.0
    stale = lg.sign_receipt(scheme, sk, raw, z)
    assert state.finalize_spend(stale).reason == "expired-challenge"
    # fresh challenge still works afterwards, and expired ones are gone
    z2 = state.begin_spend(raw)
    assert state.pending_challenges(raw) == (z2,)
    assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z2)).approved


def test_multi_coin_receipt(state, user):
    sk, pk = user
    coins = tuple(state.mint(pk, lg.CoinMetadata(coin_id=i)) for i in range(3))
    raw = lg.RawReceipt(goods="bundle", price=3, coins=coins)
    z = state.begin_spend(raw)
    assert state.finalize_spend(lg.sign_receipt(state.scheme, sk, raw, z)).approved
    # any one of them is now locked
    raw2 = lg.RawReceipt(goods="retry", price=1, coins=(coins[1],))
    z2 = state.begin_spend(raw2)
    assert state.finalize_spend(lg.sign_receipt(state.scheme, sk, raw2, z2)).reason == "double-spend"


def test_log_replay_reverifies(scheme, tmp_path, user):
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    sk, pk = user
    for i in range(5):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods=f"g{i}", price=1, coins=(coin,))
        z = state.begin_spend(raw)
        assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z)).approved

    reloaded = lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log)
    assert len(reloaded.approved) == 5
    for i in range(5):
        assert (pk.hex(), i) in reloaded._spent
    # spent coins stay spent across the reload
    coin0 = state.approved[0].raw.coins[0]
    raw = lg.RawReceipt(goods="replayed", price=1, coins=(coin0,))
    z = reloaded.begin_spend(raw)
    assert reloaded.finalize_spend(lg.sign_receipt(scheme, sk, raw, z)).reason == "double-spend"


def test_log_replay_rejects_corruption(scheme, tmp_path, user):
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    sk, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="g", price=1, coins=(coin,))
    z = state.begin_spend(raw)
    assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z)).approved
    text = open(log).read().replace('"goods": "g"', '"goods": "forged"')
    open(log, "w").write(text)
    with pytest.raises(InputError, match="re-verification"):
        lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log)


@pytest.mark.parametrize("damage, detail", [
    (lambda line: line[:len(line) // 2], "JSONDecodeError"),
    (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "price"}),
     "KeyError('price')"),
    (lambda line: line.replace('"challenge": "', '"challenge": "zz'), "ValueError"),
    (lambda line: "[1, 2]", "TypeError"),
    (lambda line: line[:20] + "\udcff" + line[21:], "UnicodeDecodeError"),
], ids=["torn-line", "no-price", "bad-hex", "not-an-object", "not-utf8"])
def test_log_replay_rejects_malformed_records(scheme, tmp_path, user, damage, detail):
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    sk, pk = user
    for i in range(2):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods="g", price=1, coins=(coin,))
        z = state.begin_spend(raw)
        assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z)).approved
    lines = open(log).read().splitlines()
    with open(log, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(lines[0] + "\n" + damage(lines[1]))
    with pytest.raises(InputError, match="log line 2 is not a receipt record: ") as info:
        lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log)
    assert detail in str(info.value)


def test_concurrent_spends_single_approval(state, user):
    sk, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    receipts = []
    for i in range(100):
        raw = lg.RawReceipt(goods=f"race{i}", price=1, coins=(coin,))
        z = state.begin_spend(raw)
        receipts.append(lg.sign_receipt(state.scheme, sk, raw, z))
    results = [None] * 100
    barrier = threading.Barrier(100)

    def attempt(i):
        barrier.wait()
        results[i] = state.finalize_spend(receipts[i])

    threads = [threading.Thread(target=attempt, args=(i,)) for i in range(100)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    approvals = [r for r in results if r.approved]
    rejections = [r for r in results if not r.approved]
    assert len(approvals) == 1
    assert all(r.reason == "double-spend" for r in rejections)
    assert len(state.approved) == 1


def test_ledger_api_never_accepts_foreign_secret_keys():
    """Ledger operations take no secret-key parameters at all; signing is
    strictly owner-side."""
    params = inspect.signature(lg.verify_coin).parameters
    assert not any("sk" in name or "secret" in name for name in params)
    for name, method in inspect.getmembers(lg.LedgerState, inspect.isfunction):
        if name.startswith("_") or name in ("create", "load"):
            continue
        params = inspect.signature(method).parameters
        assert not any("sk" in p or "secret" in p for p in params), name


# -- the admin-signed checkpoint -------------------------------------------


def _spend_new_coins(state, user, coin_ids):
    sk, pk = user
    for i in coin_ids:
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods=f"g{i}", price=1, coins=(coin,))
        receipt = lg.sign_receipt(state.scheme, sk, raw, state.begin_spend(raw))
        assert state.finalize_spend(receipt).approved


@pytest.fixture
def ledger(scheme, tmp_path, user):
    """A ledger of three approved receipts and the path of its log, with no
    checkpoint: the one the approving session signed is deleted."""
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(3))
    os.remove(log + ".checkpoint")
    return state, log


@pytest.fixture
def verified(scheme, monkeypatch):
    """Every message `scheme.verify` is asked about, in order."""
    messages = []
    verify = scheme.verify

    def counting(pk, message, signature):
        messages.append(message)
        return verify(pk, message, signature)

    monkeypatch.setattr(scheme, "verify", counting)
    return messages


def _load(state, log):
    return lg.LedgerState.load(state.scheme, state._admin_sk, state.admin_pk, log)


def _load_error(state, log):
    with pytest.raises(InputError) as info:
        _load(state, log)
    return str(info.value)


def _checkpoint(log):
    with open(log + ".checkpoint") as fh:
        return json.load(fh)


def _write_checkpoint(log, checkpoint):
    with open(log + ".checkpoint", "w") as fh:
        json.dump(checkpoint, fh)


def _record_checks(messages):
    return [m for m in messages if not m.startswith(lg.CHECKPOINT_TAG)]


def test_checkpoint_limits_reverification_to_appended_records(ledger, user, verified):
    state, log = ledger
    first = _load(state, log)   # no checkpoint yet: every record is verified
    assert len(verified) == 2 * 3
    size = len(open(log, "rb").read())
    assert _checkpoint(log)["bytes"] == size
    inode = os.stat(log + ".checkpoint").st_ino
    verified.clear()
    again = _load(state, log)
    assert verified == [lg._checkpoint_message(size, _checkpoint(log)["sha256"],
                                               _checkpoint(log)["spent"])]
    assert os.stat(log + ".checkpoint").st_ino == inode   # nothing new to sign
    assert again.approved == first.approved and again._spent == first._spent

    for k in (1, 4):
        signed_by_load = _checkpoint(log)
        _spend_new_coins(again, user, range(10 * k, 10 * k + k))
        _write_checkpoint(log, signed_by_load)   # not the session's own, if it signed one
        verified.clear()
        again = _load(state, log)
        assert len(verified) == 1 + 2 * k
        assert verified[0].startswith(lg.CHECKPOINT_TAG)
    os.remove(log + ".checkpoint")
    full = _load(state, log)
    assert len(full.approved) == 3 + 1 + 4
    assert full.approved == again.approved and full._spent == again._spent


def _flip_hex(text):
    return ("1" if text[0] != "1" else "2") + text[1:]


@pytest.mark.parametrize("field, reason", [
    ("goods", "bad-signature"), ("user_sig", "bad-signature"), ("issuer_sig", "invalid-coin"),
])
def test_a_tampered_checkpointed_record_fails_as_without_a_checkpoint(ledger, field, reason):
    state, log = ledger
    _load(state, log)
    lines = open(log).read().splitlines()
    record = json.loads(lines[1])
    if field == "goods":
        record["goods"] = "G1"   # same length, so the record stays inside the prefix
    elif field == "user_sig":
        record["user_sig"] = _flip_hex(record["user_sig"])
    else:
        record["coins"][0]["issuer_sig"] = _flip_hex(record["coins"][0]["issuer_sig"])
    lines[1] = json.dumps(record, sort_keys=True)
    with open(log, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _checkpoint(log)["bytes"] == len(open(log, "rb").read())
    with_checkpoint = _load_error(state, log)
    os.remove(log + ".checkpoint")
    assert with_checkpoint == _load_error(state, log)
    assert with_checkpoint == f"log line 2 fails re-verification: {reason}"


def test_every_changed_byte_of_the_prefix_loads_as_without_a_checkpoint(tmp_path):
    scheme = lg.DeterministicScheme(seed=7)
    user = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(2))
    _load(state, log)
    original, checkpoint = open(log, "rb").read(), _checkpoint(log)

    def outcome():
        try:
            return len(_load(state, log).approved)
        except InputError as exc:
            return str(exc)

    for i in range(len(original)):
        damaged = original[:i] + (b"1" if original[i:i + 1] == b"0" else b"0") + original[i + 1:]
        with open(log, "wb") as fh:
            fh.write(damaged)
        _write_checkpoint(log, checkpoint)
        with_checkpoint = outcome()
        os.remove(log + ".checkpoint")
        assert with_checkpoint == outcome(), i


def _foreign_admin_sig(state, log, checkpoint):
    sk, _ = lg.keygen(state.scheme)
    message = lg._checkpoint_message(checkpoint["bytes"], checkpoint["sha256"],
                                     checkpoint["spent"])
    return dict(checkpoint, sig=state.scheme.sign(sk, message).hex())


def _shorter_prefix(state, log, checkpoint):
    # a genuine digest of a shorter prefix under the old signature
    first = open(log, "rb").read().split(b"\n")[0] + b"\n"
    return dict(checkpoint, bytes=len(first), sha256=hashlib.sha256(first).hexdigest())


def _coin_sig(state, log, checkpoint):
    return dict(checkpoint, sig=state.approved[0].raw.coins[0].issuer_sig.hex())


def _v1_sig(state, log, checkpoint):
    # what the administrator signed before checkpoints carried the spent coins
    message = b"auditgame log checkpoint v1\n" + lg._canonical(
        {"bytes": checkpoint["bytes"], "sha256": checkpoint["sha256"]})
    return dict(checkpoint, sig=state.scheme.sign(state._admin_sk, message).hex())


def _edit_spent(edit):
    return lambda state, log, cp: dict(cp, spent={o: edit(ids) for o, ids in cp["spent"].items()})


@pytest.mark.parametrize("edit", [
    _foreign_admin_sig,
    _shorter_prefix,
    lambda state, log, cp: dict(cp, bytes=cp["bytes"] - 1),
    lambda state, log, cp: dict(cp, bytes=cp["bytes"] + 1),
    lambda state, log, cp: dict(cp, bytes=0, sha256=hashlib.sha256(b"").hexdigest()),
    lambda state, log, cp: dict(cp, bytes=str(cp["bytes"])),
    lambda state, log, cp: dict(cp, bytes=True),
    lambda state, log, cp: dict(cp, sha256=_flip_hex(cp["sha256"])),
    lambda state, log, cp: dict(cp, sha256=None),
    lambda state, log, cp: dict(cp, sig="zz"),
    lambda state, log, cp: {k: v for k, v in cp.items() if k != "sig"},
    lambda state, log, cp: [cp],
    lambda state, log, cp: "not a checkpoint",
    _coin_sig,
    lambda state, log, cp: {k: v for k, v in _v1_sig(state, log, cp).items() if k != "spent"},
    _v1_sig,
    _edit_spent(lambda ids: ids[:-1]),
    _edit_spent(lambda ids: ids[:-1] + [ids[-1] + 1]),
], ids=["another-admin-key", "edited-bytes-and-sha256", "bytes-minus-1", "bytes-beyond-log",
        "bytes-0", "bytes-string", "bytes-bool", "edited-sha256", "sha256-null", "sig-not-hex",
        "no-sig", "a-list", "a-string", "coin-signature-as-sig", "v1", "v1-sig-with-spent",
        "spent-id-dropped", "spent-id-changed"])
def test_an_invalid_checkpoint_falls_back_to_a_full_verify(ledger, verified, edit):
    state, log = ledger
    _load(state, log)
    valid = _checkpoint(log)
    _write_checkpoint(log, edit(state, log, valid))
    verified.clear()
    assert len(_load(state, log).approved) == 3
    assert len(_record_checks(verified)) == 2 * 3
    assert _checkpoint(log) == valid   # the load signed a valid checkpoint again
    verified.clear()
    _load(state, log)
    assert _record_checks(verified) == []


@pytest.mark.parametrize("damage", ["malformed-json", "truncated-log", "missing"])
def test_a_damaged_checkpoint_or_log_falls_back_to_a_full_verify(ledger, verified, damage):
    state, log = ledger
    _load(state, log)
    records = 3
    if damage == "malformed-json":
        with open(log + ".checkpoint", "w") as fh:
            fh.write('{"bytes": 12, "sha256"')
    elif damage == "truncated-log":
        lines = open(log, "rb").read().splitlines(keepends=True)
        with open(log, "wb") as fh:
            fh.write(b"".join(lines[:2]))
        records = 2
    else:
        os.remove(log + ".checkpoint")
    verified.clear()
    assert len(_load(state, log).approved) == records
    assert len(_record_checks(verified)) == 2 * records


def test_a_double_spend_after_the_checkpoint_is_refused(ledger, user, verified):
    state, log = ledger
    _load(state, log)
    sk, _ = user
    coin = state.approved[0].raw.coins[0]
    raw = lg.RawReceipt(goods="again", price=1, coins=(coin,))
    with open(log, "a") as fh:
        fh.write(json.dumps(lg.sign_receipt(state.scheme, sk, raw, b"\x01" * 16).to_dict(),
                            sort_keys=True) + "\n")
    verified.clear()
    with_checkpoint = _load_error(state, log)
    assert len(verified) == 1 + 2   # the checkpoint, then the appended record
    os.remove(log + ".checkpoint")
    assert with_checkpoint == _load_error(state, log)
    assert with_checkpoint == f"log line 4 double-spends coin {coin.key}"


def test_a_torn_last_line_is_never_covered(ledger, user, verified):
    state, log = ledger
    data = open(log, "rb").read()
    with open(log, "wb") as fh:
        fh.write(data[:-1])   # the last record loses its newline
    assert len(_load(state, log).approved) == 3
    assert _checkpoint(log)["bytes"] == data.rfind(b"\n", 0, -1) + 1
    assert _checkpoint(log)["spent"] == {user[1].hex(): [0, 1]}   # not coin 2
    verified.clear()
    _load(state, log)
    assert len(_record_checks(verified)) == 2
    # even a checkpoint the administrator signed over the torn line skips it
    digest, spent = hashlib.sha256(data[:-1]).hexdigest(), _checkpoint(log)["spent"]
    sig = state.scheme.sign(state._admin_sk,
                            lg._checkpoint_message(len(data) - 1, digest, spent))
    _write_checkpoint(log, {"bytes": len(data) - 1, "sha256": digest, "sig": sig.hex(),
                            "spent": spent})
    verified.clear()
    _load(state, log)
    assert len(_record_checks(verified)) == 2


@pytest.fixture
def parsed(monkeypatch):
    """Every record dict `Receipt.from_dict` is given, in order."""
    records = []
    from_dict = lg.Receipt.from_dict

    def counting(cls, d):
        records.append(d)
        return from_dict(d)

    monkeypatch.setattr(lg.Receipt, "from_dict", classmethod(counting))
    return records


@pytest.mark.parametrize("covered", [3, 300])
def test_a_checkpointed_ledger_parses_only_the_records_after_it(covered, tmp_path, parsed):
    scheme = lg.DeterministicScheme(seed=5)
    sk, pk = user = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(covered))
    _load(state, log)                            # signs a checkpoint over them
    signed_by_load = _checkpoint(log)
    _spend_new_coins(state, user, [covered])     # one record after the checkpoint
    _write_checkpoint(log, signed_by_load)       # not the session's own, if it signed one
    parsed.clear()
    again = _load(state, log)
    _spend_new_coins(again, user, [covered + 1])   # a mint and a spend
    coin = state.approved[0].raw.coins[0]          # inside the checkpoint
    with pytest.raises(InputError, match="already issued"):
        again.mint(pk, coin.metadata)
    raw = lg.RawReceipt(goods="again", price=1, coins=(coin,))
    receipt = lg.sign_receipt(scheme, sk, raw, again.begin_spend(raw))
    assert again.finalize_spend(receipt).reason == "double-spend"
    assert len(parsed) == 1
    # the first read of `approved` parses the prefix, in log order
    os.remove(log + ".checkpoint")
    full = _load(state, log)
    assert len(full.approved) == covered + 2
    assert again.approved == full.approved and again._spent == full._spent


def test_a_failing_load_writes_no_checkpoint(ledger):
    state, log = ledger
    text = open(log).read()
    with open(log, "w") as fh:
        fh.write(text.replace('"goods": "g2"', '"goods": "forged"'))
    _load_error(state, log)
    assert not os.path.exists(log + ".checkpoint")
    with open(log, "w") as fh:
        fh.write(text)
    _load(state, log)
    checkpoint = open(log + ".checkpoint", "rb").read()
    with open(log, "a") as fh:
        fh.write(text.splitlines()[0] + "\n")   # a double-spend after the checkpoint
    _load_error(state, log)
    assert open(log + ".checkpoint", "rb").read() == checkpoint


def test_a_failed_checkpoint_write_leaves_load_working(ledger, tmp_path, monkeypatch):
    state, log = ledger

    def failing(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(lg.os, "replace", failing)
    assert len(_load(state, log).approved) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_a_secret_key_that_cannot_sign_leaves_load_working(tmp_path):
    # reading the log needs only the public key, so a damaged secret half of
    # the administrator's key file still lets `ledger audit-log` run
    scheme = lg.Ed25519Scheme()
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, lg.keygen(scheme), range(2))
    os.remove(log + ".checkpoint")   # the approving session signed one
    assert len(lg.LedgerState.load(scheme, b"short", state.admin_pk, log).approved) == 2
    assert not os.path.exists(log + ".checkpoint")


# -- the streamed read ---------------------------------------------------------


def _whole_log(state, log):
    """A reference load: read the whole log, then parse and verify every
    record.  Its receipts and spent coins, or its error message."""
    with open(log, "rb") as fh:
        lines = fh.read().split(b"\n")
    receipts, spent = [], set()
    try:
        for lineno, line in enumerate(lines, start=1):
            receipt = lg._parse_record(line, lineno)
            if receipt is None:
                continue
            problem = state._receipt_integrity_problem(receipt)
            if problem:
                raise InputError(f"log line {lineno} fails re-verification: {problem}")
            for coin in receipt.raw.coins:
                if coin.key in spent:
                    raise InputError(f"log line {lineno} double-spends coin {coin.key}")
                spent.add(coin.key)
            receipts.append(receipt)
    except InputError as exc:
        return str(exc)
    return receipts, spent


def _listing(receipts):
    """`ledger audit-log`'s lines for `receipts`, as the CLI printed them
    from receipt objects."""
    return [f"{i}: goods={r.raw.goods!r} price={r.raw.price} "
            f"coins={[c.metadata.coin_id for c in r.raw.coins]} verified=true\n"
            for i, r in enumerate(receipts)]


def _checkpoint_over(state, data, n_bytes):
    """The checkpoint over the first `n_bytes` of the log `data` and the
    coins of the records that end within them, signed by the administrator
    whatever those lines are."""
    spent = set()
    for line in data[:data.rfind(b"\n", 0, n_bytes) + 1].split(b"\n"):
        try:
            spent.update(coin.key for coin in lg.Receipt.from_dict(json.loads(line)).raw.coins)
        except (ValueError, KeyError, TypeError):
            pass   # a blank line, or one that is not a record
    spent, digest = lg._spent_map(spent), hashlib.sha256(data[:n_bytes]).hexdigest()
    sig = state.scheme.sign(state._admin_sk, lg._checkpoint_message(n_bytes, digest, spent))
    return {"bytes": n_bytes, "sha256": digest, "sig": sig.hex(), "spent": spent}


def _sign_checkpoint(state, log, n_bytes):
    _write_checkpoint(log, _checkpoint_over(state, open(log, "rb").read(), n_bytes))


@pytest.fixture
def varied(scheme, tmp_path, user):
    """A ledger of five receipts, one of two coins, with non-ASCII and
    quoted goods, and the bytes of its log; no checkpoint.  The goods of
    record 3 make its line longer than the reader's buffer, so that line is
    split across reads."""
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    sk, pk = user
    for i, goods in enumerate(["g0", "café ☕ 日本", "x" * 40, 'say "hi"\\' * 2000, "g4"]):
        coins = tuple(state.mint(pk, lg.CoinMetadata(coin_id=10 * i + j)) for j in range(1 + i % 2))
        raw = lg.RawReceipt(goods=goods, price=i, coins=coins)
        assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw)))
    os.remove(log + ".checkpoint")
    data = open(log, "rb").read()
    assert _ends(data)[3] - _ends(data)[2] > io.DEFAULT_BUFFER_SIZE
    return state, log, data


def _ends(data):
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


def _float_prices(data):
    # record 2 lies inside N, record 5 after it
    data = data.replace(b'"price": 1,', b'"price": 1.0,').replace(b'"price": 4,', b'"price": 4.0,')
    return data, _ends(data)[2]


def _flip_user_sig(data, index):
    lines = data.split(b"\n")
    record = json.loads(lines[index])
    record["user_sig"] = _flip_hex(record["user_sig"])
    lines[index] = json.dumps(record, sort_keys=True).encode()
    return b"\n".join(lines)


# Each edit maps the log's bytes to (new bytes, N of the checkpoint to sign
# over them, or None for none, or "stale" to keep one signed over the old).
_EDITS = {
    "checkpointed": lambda data: (data, len(data)),
    "no-checkpoint": lambda data: (data, None),
    "n-before-a-newline": lambda data: (data, _ends(data)[1] - 1),
    "n-at-a-newline": lambda data: (data, _ends(data)[1]),
    "n-after-a-newline": lambda data: (data, _ends(data)[1] + 1),
    "n-mid-line": lambda data: (data, (_ends(data)[2] + _ends(data)[3]) // 2),
    "tampered-prefix": lambda data: (_flip_user_sig(data, 1), "stale"),
    "blank-lines": lambda data: (data[:_ends(data)[0]] + b"\n \t\n" + data[_ends(data)[0]:] + b"\n",
                                 _ends(data)[2] + 4),
    "unterminated": lambda data: (data[:-1], _ends(data)[2]),
    "unterminated-under-n": lambda data: (data[:-1], len(data) - 1),
    "price-float": _float_prices,
    "double-spend-after-n": lambda data: (data + data[:_ends(data)[0]], len(data)),
    "n-beyond-the-log": lambda data: (data[:_ends(data)[3]], "stale"),
    # a checkpoint only the administrator could sign over a line that is not
    # a record: a full verify, or `approved`, reports it
    "not-a-record-under-n": lambda data: (data[:_ends(data)[0]] + b"[1, 2]\n"
                                          + data[_ends(data)[0]:], len(data) + 7),
}


def _whole_log_state(state, data, checkpoint):
    """The log state a load of `data` leaves, from the whole file: the
    (N, H) it honours, whether its last line is unterminated, the length of
    its newline-terminated part, its length and SHA-256, and the checkpoint
    file.  A checkpoint is honoured when its prefix hashes to H, and stays
    as written when it also covers that part; otherwise the load signs one
    over that part."""
    ends, honoured = data.rfind(b"\n") + 1, None
    if checkpoint:
        claim = json.loads(checkpoint)
        if (claim["bytes"] <= len(data)
                and hashlib.sha256(data[:claim["bytes"]]).hexdigest() == claim["sha256"]):
            honoured = claim["bytes"], claim["sha256"]
    if not (honoured and honoured[0] >= ends):
        checkpoint = (json.dumps(_checkpoint_over(state, data, ends), sort_keys=True)
                      + "\n").encode()
    return (honoured, len(data) > ends, ends, len(data), hashlib.sha256(data).digest(),
            checkpoint)


@pytest.mark.parametrize("block", ["7", "first-line"])
@pytest.mark.parametrize("edit", list(_EDITS))
def test_a_load_read_in_blocks_is_a_whole_log_load(varied, edit, block, monkeypatch):
    # The line reader's buffer holds `block` bytes: 7-byte buffers split
    # every line; buffers one first line long end that line on a buffer
    # boundary and split the others.  "n-mid-line" puts N inside the line
    # longer than the default buffer.
    state, log, data = varied
    data, n_bytes = _EDITS[edit](data)
    size = 7 if block == "7" else _ends(data)[0]

    def buffered_open(path, mode="r", **kwargs):
        if mode == "rb":
            kwargs["buffering"] = size
        return open(path, mode, **kwargs)

    monkeypatch.setattr(lg, "open", buffered_open, raising=False)
    if n_bytes == "stale":
        _sign_checkpoint(state, log, len(open(log, "rb").read()))
    with open(log, "wb") as fh:
        fh.write(data)
    if n_bytes not in (None, "stale"):
        _sign_checkpoint(state, log, n_bytes)
    checkpoint = open(log + ".checkpoint", "rb").read() if n_bytes else None
    expected = _whole_log(state, log)

    def outcome(listing=None):
        if checkpoint:
            with open(log + ".checkpoint", "wb") as fh:
                fh.write(checkpoint)
        try:
            loaded = lg.LedgerState.load(state.scheme, state._admin_sk, state.admin_pk, log,
                                         listing=listing)
            if listing is not None:
                return listing   # what `ledger audit-log` prints, without `approved`
            honoured = loaded._prefix
            approved = loaded.approved   # parses the prefix from a new read, if any
        except InputError as exc:
            return str(exc), None
        return ((approved, loaded._spent),
                (honoured, loaded._unterminated, loaded._checkpointed, loaded._log_bytes,
                 loaded._log_sha.copy().finalize(), open(log + ".checkpoint", "rb").read()))

    if isinstance(expected, tuple):
        assert outcome() == (expected, _whole_log_state(state, data, checkpoint))
        assert outcome([]) == _listing(expected[0])
    else:
        assert outcome() == outcome([]) == (expected, None)
    errors = {"tampered-prefix": "log line 2 fails re-verification: bad-signature",
              "double-spend-after-n": "log line 6 double-spends coin "
                                      f"{state.approved[0].raw.coins[0].key}",
              "not-a-record-under-n": "log line 2 is not a receipt record: "
                                      "TypeError('list indices must be integers or slices, not str')"}
    assert expected == errors.get(edit, expected)


@pytest.mark.parametrize("change", ["same-length-edit", "truncated", "removed"])
def test_approved_refuses_a_prefix_that_changed_after_the_load(ledger, change):
    state, log = ledger
    _load(state, log)   # signs a checkpoint over the three records
    loaded = _load(state, log)
    text = open(log).read()
    if change == "same-length-edit":
        with open(log, "w") as fh:
            fh.write(text.replace('"goods": "g1"', '"goods": "G1"'))
    elif change == "truncated":
        with open(log, "w") as fh:
            fh.write(text[:len(text) // 2])
    else:
        os.remove(log)
    for _ in range(2):   # and it returns no receipts on a later read either
        with pytest.raises(InputError, match="changed since it was loaded|cannot read"):
            loaded.approved


def test_approved_reads_the_prefix_after_records_were_appended(ledger, user):
    state, log = ledger
    _load(state, log)
    loaded = _load(state, log)
    _spend_new_coins(loaded, user, [10, 11])
    with open(log, "a") as fh:
        fh.write("\n")   # another writer's bytes after the prefix
    assert [r.raw.goods for r in loaded.approved] == ["g0", "g1", "g2", "g10", "g11"]


def _toy_ledger(tmp_path, records):
    """A toy-scheme ledger of `records` receipts under a checkpoint over all."""
    scheme = lg.DeterministicScheme(seed=3)
    log = str(tmp_path / f"log{records}.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, lg.keygen(scheme), range(records))
    _load(state, log)
    return state, log


def _load_peak(state, log, listing=None):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lg.LedgerState.load(state.scheme, state._admin_sk, state.admin_pk, log, listing=listing)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_load_holds_no_more_of_a_longer_prefix_than_its_spent_coins(tmp_path):
    # A record adds about 390 bytes to the toy log, and its coin about 130
    # to the spent set; a load that held the log, or the
    # records in it, would grow by more than half the log's growth.
    (small, small_log), (large, large_log) = _toy_ledger(tmp_path, 200), _toy_ledger(tmp_path, 2000)
    grown = os.path.getsize(large_log) - os.path.getsize(small_log)
    _load(small, small_log)   # imports and first-call allocations
    assert _load_peak(large, large_log) - _load_peak(small, small_log) < grown / 2
    # a listing load grows by its own lines on top of that
    listings = [], []
    peaks = [_load_peak(small, small_log, listings[0]), _load_peak(large, large_log, listings[1])]
    lines = [sum(sys.getsizeof(line) + 8 for line in listing) for listing in listings]
    assert len(listings[1]) == 2000
    assert peaks[1] - peaks[0] < grown / 2 + lines[1] - lines[0]


# -- checkpoints an approving session signs ---------------------------------


def _records_after_checkpoint(log):
    return open(log, "rb").read()[_checkpoint(log)["bytes"]:].count(b"\n")


def test_an_approving_session_signs_on_a_doubling_schedule(scheme, tmp_path, user, verified):
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    signed, covered = [], 0
    for i in range(40):
        _spend_new_coins(state, user, [i])
        size = os.path.getsize(log)
        if size - covered >= covered:   # as many new bytes as the checkpoint covers
            covered = size
            signed.append(i)
        assert _checkpoint(log)["bytes"] == covered and 2 * covered > size, i
    assert signed == [0, 1, 3, 7, 15, 31]   # records differ in length by a byte or two
    # a fresh load trusts the session's checkpoint and verifies the rest
    after = _records_after_checkpoint(log)
    verified.clear()
    loaded = _load(state, log)
    assert verified[0].startswith(lg.CHECKPOINT_TAG)
    assert len(_record_checks(verified)) == 2 * after == 2 * 8
    assert loaded.approved == state.approved and loaded._spent == state._spent


def test_concurrent_approvals_sign_checkpoints_a_load_honours(state, user, verified):
    sk, pk = user
    receipts = []
    for i in range(48):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods=f"g{i}", price=1, coins=(coin,))
        receipts.append(lg.sign_receipt(state.scheme, sk, raw, state.begin_spend(raw)))
    barrier, outcomes = threading.Barrier(8), []

    def approve(chunk):
        barrier.wait()
        outcomes.extend(state.finalize_spend(receipt).approved for receipt in chunk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=approve, args=(receipts[k::8],)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outcomes == [True] * 48
    log = state.log_path
    assert 2 * _checkpoint(log)["bytes"] > os.path.getsize(log)
    after = _records_after_checkpoint(log)
    verified.clear()
    loaded = _load(state, log)
    # the running hash lost no append: the session's checkpoint is honoured
    assert verified[0].startswith(lg.CHECKPOINT_TAG)
    assert len(_record_checks(verified)) == 2 * after
    assert len(loaded.approved) == 48 and loaded._spent == state._spent


def test_a_session_checkpoint_is_what_a_load_would_sign(ledger, user):
    state, log = ledger
    session = _load(state, log)   # signs over the three records
    _spend_new_coins(session, user, range(3, 6))   # three more: signs over all six
    by_session = open(log + ".checkpoint", "rb").read()
    assert json.loads(by_session)["bytes"] == os.path.getsize(log)
    os.remove(log + ".checkpoint")
    _load(state, log)
    assert open(log + ".checkpoint", "rb").read() == by_session


def test_a_foreign_append_voids_the_session_checkpoint(scheme, tmp_path, user, verified):
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, [0])
    first = open(log, "rb").read()
    foreign = _load(state, log)   # another writer of the same log
    _spend_new_coins(foreign, user, [100])
    _spend_new_coins(state, user, [1])   # as many bytes as its checkpoint covers
    data = open(log, "rb").read()
    own = data[len(first):].split(b"\n", 1)[1]   # the session's second record
    assert _checkpoint(log)["bytes"] == len(first) + len(own)
    assert _checkpoint(log)["sha256"] == hashlib.sha256(first + own).hexdigest()
    verified.clear()
    loaded = _load(state, log)
    assert len(_record_checks(verified)) == 2 * 3   # every record
    assert len(loaded.approved) == 3
    assert _checkpoint(log)["bytes"] == len(data)   # the load signed the whole log


def test_a_session_on_an_unterminated_last_line(ledger, user, verified):
    state, log = ledger
    data = open(log, "rb").read()
    with open(log, "wb") as fh:
        fh.write(data[:-1])   # the last record loses its newline
    session = _load(state, log)
    assert _checkpoint(log)["bytes"] == data.rfind(b"\n", 0, -1) + 1
    _spend_new_coins(session, user, [3])
    # the append ended the torn line, and the session signed the whole log
    assert open(log, "rb").read().count(b"\n") == 4
    assert _checkpoint(log)["bytes"] == os.path.getsize(log)
    assert _checkpoint(log)["spent"] == {user[1].hex(): [0, 1, 2, 3]}
    verified.clear()
    loaded = _load(state, log)
    assert len(verified) == 1 and verified[0].startswith(lg.CHECKPOINT_TAG)
    assert loaded.approved == session.approved and loaded._spent == session._spent


def test_a_checkpoint_hashed_with_hashlib_is_honoured(ledger, verified):
    state, log = ledger
    data = open(log, "rb").read()
    digest = hashlib.sha256(data).hexdigest()
    spent = _load(state, log)._spent
    spent_map = lg._spent_map(spent)
    sig = state.scheme.sign(state._admin_sk, lg._checkpoint_message(len(data), digest, spent_map))
    _write_checkpoint(log, {"bytes": len(data), "sha256": digest, "sig": sig.hex(),
                            "spent": spent_map})
    verified.clear()
    loaded = _load(state, log)
    assert verified == [lg._checkpoint_message(len(data), digest, spent_map)]
    assert loaded._spent == spent and len(loaded.approved) == 3


def test_a_failed_append_commits_nothing(scheme, tmp_path, user):
    sk, pk = user
    state = lg.LedgerState.create(scheme, log_path=str(tmp_path / "missing" / "log.jsonl"))
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    challenge = state.begin_spend(raw)
    receipt = lg.sign_receipt(scheme, sk, raw, challenge)
    with pytest.raises(InputError, match="^cannot append to ledger log .*missing.*: "
                                         "No such file or directory$"):
        state.finalize_spend(receipt)
    assert not state.is_spent(coin)
    assert state.approved == []
    assert state.pending_challenges(raw) == (challenge,)
    # once the log can be written, the same receipt is approved
    state.log_path = str(tmp_path / "log.jsonl")
    assert state.finalize_spend(receipt).approved
    assert state.is_spent(coin)
    assert len(_load(state, state.log_path).approved) == 1


# -- session caches -----------------------------------------------------------


def test_a_cached_key_signs_as_a_freshly_loaded_one():
    from cryptography.hazmat.primitives.asymmetric import ed25519
    scheme = lg.Ed25519Scheme()
    sk, pk = lg.keygen(scheme)
    for message in (b"", b"one", b"two" * 100):
        expected = ed25519.Ed25519PrivateKey.from_private_bytes(sk).sign(message)
        assert scheme.sign(sk, message) == expected
        assert scheme.sign(sk, message) == expected   # from the cache
    # a key that cannot sign raises every time and is never kept
    for _ in range(2):
        with pytest.raises(ValueError):
            scheme.sign(b"short", b"m")
    assert list(scheme._keys) == [sk]
    # the cache is bounded: it starts again once it holds KEY_CACHE keys
    others = [lg.keygen(scheme)[0] for _ in range(scheme.KEY_CACHE)]
    for other in others:
        scheme.sign(other, b"m")
    assert len(scheme._keys) <= scheme.KEY_CACHE
    assert scheme.verify(pk, b"m", scheme.sign(sk, b"m"))


def test_a_cached_public_key_verifies_as_a_freshly_loaded_one():
    from cryptography.hazmat.primitives.asymmetric import ed25519

    def fresh(pk, message, signature):
        try:
            ed25519.Ed25519PublicKey.from_public_bytes(pk).verify(signature, message)
            return True
        except Exception:
            return False

    def loads(pk):
        try:
            ed25519.Ed25519PublicKey.from_public_bytes(pk)
            return True
        except Exception:
            return False

    scheme = lg.Ed25519Scheme()
    sk, pk = lg.keygen(scheme)
    sig = scheme.sign(sk, b"m")
    cases = [(pk, b"m", sig), (pk, b"m!", sig), (pk, b"m", bytes.fromhex(_flip_hex(sig.hex()))),
             (pk, b"m", sig[:-1]), (pk, b"m", b""), (b"", b"m", sig), (b"short", b"m", sig),
             (pk + b"\0", b"m", sig), (b"\xff" * 32, b"m", sig), (pk.hex(), b"m", sig),
             (bytearray(pk), b"m", sig), (None, b"m", sig)]
    for _ in range(2):   # loaded, then from the cache
        assert [scheme.verify(*case) for case in cases] == [fresh(*case) for case in cases]
    # a key that fails to load is never kept
    assert all(loads(key) for key in scheme._public) and pk in scheme._public
    # the cache is bounded: it starts again once it holds KEY_CACHE keys
    for _ in range(scheme.KEY_CACHE + 1):
        other_sk, other_pk = lg.keygen(scheme)
        assert scheme.verify(other_pk, b"m", scheme.sign(other_sk, b"m"))
        assert len(scheme._public) <= scheme.KEY_CACHE
    assert scheme.verify(pk, b"m", sig) and not scheme.verify(pk, b"m!", sig)


@pytest.mark.parametrize("goods, coins", [("bundle", 3), ("café \"\\\n\x01 ☃", 1)],
                         ids=["multi-coin", "non-ascii"])
def test_a_receipt_payload_is_the_canonical_json_of_its_parts(state, user, goods, coins):
    _, pk = user
    minted = tuple(state.mint(pk, lg.CoinMetadata(coin_id=i, issuer_note=goods))
                   for i in range(coins))
    raw = lg.RawReceipt(goods=goods, price=7, coins=minted)
    challenge = bytes(range(16))
    expected = lg._canonical({"challenge": challenge.hex(), "receipt": raw.to_dict()})
    assert lg.Receipt.signed_payload(raw, challenge) == expected
    assert raw.canonical_bytes() == lg._canonical(raw.to_dict())
    # the kept encoding is no field: equality, hashing and replace ignore it
    fresh = lg.RawReceipt(goods=goods, price=7, coins=minted)
    assert fresh == raw and hash(fresh) == hash(raw)
    cheaper = raw.replace(price=6)
    assert cheaper.canonical_bytes() == lg._canonical(cheaper.to_dict())


def _spend(state, signer_sk, coin):
    raw = lg.RawReceipt(goods="g", price=1, coins=(coin,))
    receipt = lg.sign_receipt(state.scheme, signer_sk, raw, state.begin_spend(raw))
    return state.finalize_spend(receipt)


def test_a_session_verifies_one_coin_it_minted(state, user, verified):
    _spend_new_coins(state, user, range(8))
    coin_checks = [m for m in verified if m.startswith(b'{"metadata"')]
    receipt_checks = [m for m in verified if m.startswith(b'{"challenge"')]
    assert len(coin_checks) == 1 and len(receipt_checks) == 8
    assert len(verified) == 8 + 1


def test_a_session_whose_secret_key_does_not_match_rejects_its_coins(scheme, tmp_path, user):
    sk, pk = user
    admin_sk, _ = lg.keygen(scheme)
    _, other_pk = lg.keygen(scheme)
    state = lg.LedgerState(scheme, admin_sk, other_pk, log_path=str(tmp_path / "log.jsonl"))
    for i in range(3):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        assert not state.verify_coin(coin)
        assert _spend(state, sk, coin).reason == "invalid-coin"
    assert state.approved == []


@pytest.mark.parametrize("edit", ["metadata", "signature", "owner"])
def test_an_edited_minted_coin_is_refused(state, user, edit):
    sk, pk = user
    other_sk, other_pk = lg.keygen(state.scheme)
    assert _spend(state, sk, state.mint(pk, lg.CoinMetadata(coin_id=0))).approved
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1, issuer_note="a"))
    state.mint(other_pk, lg.CoinMetadata(coin_id=1, issuer_note="a"))   # same key when swapped
    signer_sk = sk
    if edit == "metadata":
        coin = coin.replace(metadata=coin.metadata.replace(issuer_note="b"))
    elif edit == "signature":
        coin = coin.replace(issuer_sig=bytes([coin.issuer_sig[0] ^ 1]) + coin.issuer_sig[1:])
    else:
        coin, signer_sk = coin.replace(owner_pk=other_pk), other_sk
    assert _spend(state, signer_sk, coin).reason == "invalid-coin"
