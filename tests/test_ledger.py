"""Currency ledger: minting, two-phase spending, persistence, concurrency."""

import errno
import hashlib
import inspect
import io
import json
import os
import random
import sys
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditgame import InputError
from auditgame import ledger as lg

from toy_scheme import DeterministicScheme


@pytest.fixture(params=["toy", "ed25519"])
def scheme(request):
    if request.param == "toy":
        return DeterministicScheme(seed=99)
    return lg.Ed25519Scheme()


@pytest.fixture
def state(scheme, tmp_path):
    return lg.LedgerState.create(scheme, log_path=str(tmp_path / "log.jsonl"))


@pytest.fixture
def user(scheme):
    return lg.keygen(scheme)


def _receipts(log):
    """The receipts in the log file, parsed here, not by the ledger's reader."""
    with open(log, "rb") as fh:
        return [lg.Receipt.from_dict(json.loads(line)) for line in fh if line.strip()]


def _encoded(record) -> str:
    """The parsed log record `record` encoded as the ledger writes a log
    line, without its newline."""
    return lg._canonical(record).decode("ascii")


def test_keygen_distinct_and_correct(scheme):
    sk1, pk1 = lg.keygen(scheme)
    sk2, pk2 = lg.keygen(scheme)
    assert pk1 != pk2
    msg = b"arbitrary message"
    assert scheme.verify(pk1, msg, scheme.sign(sk1, msg))
    assert not scheme.verify(pk2, msg, scheme.sign(sk1, msg))
    assert not scheme.verify(pk1, msg + b"!", scheme.sign(sk1, msg))


def test_toy_scheme_is_deterministic():
    a = DeterministicScheme(seed=4)
    b = DeterministicScheme(seed=4)
    assert a.gen() == b.gen()
    assert DeterministicScheme(seed=5).gen() != DeterministicScheme(seed=4).gen()


def test_mint_and_verify(state, user, tmp_path):
    _, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1, issuer_note="groceries"))
    assert state.verify_coin(coin)
    # a state that minted nothing checks the administrator's signature in full
    other = str(tmp_path / "other.jsonl")
    assert lg.LedgerState(state.scheme, b"", state.admin_pk, other).verify_coin(coin)


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


def test_a_secret_key_that_cannot_sign_mints_nothing(tmp_path):
    scheme = lg.Ed25519Scheme()
    _, admin_pk = lg.keygen(scheme)
    state = lg.LedgerState(scheme, b"\x00\x01", admin_pk, str(tmp_path / "log.jsonl"))
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
    r0 = raw.canonical_bytes()
    assert list(state._pending) == [(r0, z1), (r0, z2)]


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
    with pytest.raises(InputError, match="^price cannot be negative$"):
        lg.RawReceipt(goods="x", price=-1, coins=(c1,))


@pytest.mark.parametrize("value", [1.5, 1.0, True])
def test_a_coin_id_or_price_that_is_no_int_is_refused(value):
    # the log reads both back through int(), so a session that signed 1.5
    # would fail its own next load
    with pytest.raises(InputError, match="^a coin id must be an integer$"):
        lg.CoinMetadata(coin_id=value)
    coin = lg.Coin(owner_pk=b"pk", metadata=lg.CoinMetadata(coin_id=1), issuer_sig=b"sig")
    with pytest.raises(InputError, match="^a price must be an integer$"):
        lg.RawReceipt(goods="x", price=value, coins=(coin,))


def test_spend_calls_refuse_the_wrong_type(state, user):
    _, pk = user
    raw = lg.RawReceipt(goods="x", price=1, coins=(state.mint(pk, lg.CoinMetadata(coin_id=1)),))
    with pytest.raises(InputError, match="^begin_spend expects a RawReceipt$"):
        state.begin_spend(raw.to_dict())
    with pytest.raises(InputError, match="^finalize_spend expects a Receipt$"):
        state.finalize_spend(raw)


def test_spend_happy_path_and_double_spend(state, user):
    sk, pk = user
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    z = state.begin_spend(raw)
    receipt = lg.sign_receipt(state.scheme, sk, raw, z)
    assert state.finalize_spend(receipt).approved
    assert coin.key in state._spent

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
                                  clock=lambda: now[0])
    ttl = state.CHALLENGE_TTL
    sk, pk = lg.keygen(scheme)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    bogus = lg.sign_receipt(scheme, sk, raw, b"\x00" * 16)
    assert state.finalize_spend(bogus).reason == "unknown-challenge"
    z = state.begin_spend(raw)
    now[0] = ttl + 1
    stale = lg.sign_receipt(scheme, sk, raw, z)
    assert state.finalize_spend(stale).reason == "expired-challenge"
    # fresh challenge still works afterwards, and expired ones are gone
    z2 = state.begin_spend(raw)
    assert list(state._pending) == [(raw.canonical_bytes(), z2)]
    assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z2)).approved
    assert not state._pending


def test_pending_challenges_drop_the_expired_ones(scheme, tmp_path):
    # begin_spend drops the challenges whose deadline is below now, as
    # finalize_spend refuses them: one dropped is unknown from then on, and
    # one exactly at its deadline stays, and is approved
    now = [0.0]
    state = lg.LedgerState.create(scheme, log_path=str(tmp_path / "log.jsonl"),
                                  clock=lambda: now[0])
    ttl = state.CHALLENGE_TTL
    sk, pk = lg.keygen(scheme)
    raw = lg.RawReceipt(goods="meal", price=1, coins=(state.mint(pk, lg.CoinMetadata(coin_id=1)),))
    r0 = raw.canonical_bytes()
    z1 = state.begin_spend(raw)
    now[0] = ttl / 2
    z2 = state.begin_spend(raw)
    now[0] = ttl + 1     # z1 expired at ttl, z2 expires at 3 ttl / 2
    z3 = state.begin_spend(raw)
    assert list(state._pending) == [(r0, z2), (r0, z3)]
    stale = lg.sign_receipt(scheme, sk, raw, z1)
    assert state.finalize_spend(stale).reason == "unknown-challenge"
    now[0] = 3 * ttl / 2     # z2's deadline: still live
    z4 = state.begin_spend(raw)
    assert list(state._pending) == [(r0, z2), (r0, z3), (r0, z4)]
    assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, z2)).approved
    assert list(state._pending) == [(r0, z3), (r0, z4)]


def test_abandoned_challenges_are_dropped(scheme, tmp_path):
    # 1,000 spends begun and never finalized, one every ttl / 100 seconds:
    # only the challenges of the last ttl seconds stay pending
    now = [0.0]
    state = lg.LedgerState.create(scheme, log_path=str(tmp_path / "log.jsonl"),
                                  clock=lambda: now[0])
    ttl = state.CHALLENGE_TTL
    _, pk = lg.keygen(scheme)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    for i in range(1000):
        now[0] = i * ttl / 100
        state.begin_spend(lg.RawReceipt(goods=f"g{i}", price=1, coins=(coin,)))
    assert len(state._pending) == 101
    assert all(deadline >= now[0] for deadline in state._pending.values())


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
    assert reloaded._spent == {(pk.hex(), i) for i in range(5)}
    # spent coins stay spent across the reload
    coin0 = _receipts(log)[0].raw.coins[0]
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
    text = _encoded(dict(json.loads(open(log).read()), goods="forged")) + "\n"
    open(log, "w").write(text)
    with pytest.raises(InputError, match="re-verification"):
        lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log)


def _with_a_second_owner(line):
    """The record of `line` with one more coin, held by another owner."""
    record = json.loads(line)
    record["coins"].append(dict(record["coins"][0], owner_pk="00" * 32))
    return json.dumps(record, sort_keys=True)


def _bad_hex(line):
    record = json.loads(line)
    return _encoded(dict(record, challenge="zz" + record["challenge"]))


@pytest.mark.parametrize("damage, detail", [
    (lambda line: line[:len(line) // 2], "JSONDecodeError"),
    (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "price"}),
     "KeyError('price')"),
    (_bad_hex, "ValueError"),
    (lambda line: "[1, 2]", "TypeError"),
    (lambda line: line[:20] + "\udcff" + line[21:], "UnicodeDecodeError"),
    (_with_a_second_owner, "InputError('all coins in one receipt must share a single owner key')"),
], ids=["torn-line", "no-price", "bad-hex", "not-an-object", "not-utf8", "two-owners"])
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


@pytest.mark.parametrize("damage", [lambda line: line[:len(line) // 2],
                                    lambda line: json.dumps({k: v for k, v in
                                                             json.loads(line).items()
                                                             if k != "price"})],
                         ids=["cut", "no-price"])
def test_only_an_unterminated_last_line_is_called_torn(scheme, tmp_path, user, damage):
    # the same bad line, with and without its newline: only the one without
    # says so, after the message a complete line gets
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(2))
    os.remove(log + ".checkpoint")
    lines = open(log).read().splitlines()
    messages = []
    for end in ("\n", ""):
        open(log, "w").write(lines[0] + "\n" + damage(lines[1]) + end)
        messages.append(_load_error(state, log))
    complete, torn = messages
    assert complete.startswith("log line 2 is not a receipt record: ")
    assert torn == complete + lg.TORN_LINE
    assert "has no newline" in lg.TORN_LINE


NESTED = b"[" * 100_000   # nested deeper than any JSON parse can go


@pytest.mark.parametrize("where", ["after-checkpoint", "inside-checkpoint"])
def test_a_nested_line_is_no_receipt_record(ledger, where):
    # reported like any other line that is not a record; a checkpoint over
    # it holds for a plain load, which parses nothing inside it, and a
    # listing load voids it and reports the line as a full verify does
    state, log = ledger
    data = open(log, "rb").read()
    first = data.index(b"\n") + 1
    data = data[:first] + NESTED + b"\n" + data[first:]
    with open(log, "wb") as fh:
        fh.write(data)
    message = "log line 2 is not a receipt record: RecursionError("
    assert _load_error(state, log).startswith(message)
    if where == "inside-checkpoint":
        _sign_checkpoint(state, log, len(data))
        assert len(_load(state, log)._spent) == 3
    else:
        _sign_checkpoint(state, log, first)
        assert _load_error(state, log).startswith(message)
    with pytest.raises(InputError) as info:
        lg.LedgerState.load(state.scheme, state._admin_sk, state.admin_pk, log, listing=[])
    assert str(info.value).startswith(message)


def test_create_reads_the_log_it_is_given(scheme, tmp_path, user):
    log = str(tmp_path / "log.jsonl")
    with open(log, "wb") as fh:
        fh.write(b"\n")   # a blank line: a log that holds no record
    state = lg.LedgerState.create(scheme, log_path=log)
    assert state._log_bytes == 1
    _spend_new_coins(state, user, range(2))
    os.remove(log + ".checkpoint")
    assert _load(state, log)._spent == state._spent   # signs a checkpoint
    # no coin of a log that holds a record verifies under fresh keys: the
    # state is refused, and the log and its checkpoint stay as they were
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(InputError, match="^log line 2 fails re-verification: invalid-coin$"):
        lg.LedgerState.create(scheme, log_path=log)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


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
    assert len(_receipts(state.log_path)) == 1


def test_ledger_api_never_accepts_foreign_secret_keys():
    """Ledger operations take no secret-key parameters at all; signing is
    strictly owner-side."""
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
    assert again._spent == first._spent

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
    assert len(full._spent) == 3 + 1 + 4
    assert full._spent == again._spent


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
    lines[1] = _encoded(record)
    with open(log, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _checkpoint(log)["bytes"] == len(open(log, "rb").read())
    with_checkpoint = _load_error(state, log)
    os.remove(log + ".checkpoint")
    assert with_checkpoint == _load_error(state, log)
    assert with_checkpoint == f"log line 2 fails re-verification: {reason}"


def test_every_changed_byte_of_the_prefix_loads_as_without_a_checkpoint(tmp_path):
    scheme = DeterministicScheme(seed=7)
    user = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(2))
    _load(state, log)
    original, checkpoint = open(log, "rb").read(), _checkpoint(log)

    def outcome():
        try:
            return sorted(_load(state, log)._spent)
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
    return dict(checkpoint, sig=_receipts(log)[0].raw.coins[0].issuer_sig.hex())


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
    assert len(_load(state, log)._spent) == 3
    assert len(_record_checks(verified)) == 2 * 3
    assert _checkpoint(log) == valid   # the load signed a valid checkpoint again
    verified.clear()
    _load(state, log)
    assert _record_checks(verified) == []


@pytest.mark.parametrize("damage", ["malformed-json", "nested-json", "truncated-log", "missing"])
def test_a_damaged_checkpoint_or_log_falls_back_to_a_full_verify(ledger, verified, damage):
    state, log = ledger
    _load(state, log)
    records = 3
    if damage == "malformed-json":
        with open(log + ".checkpoint", "w") as fh:
            fh.write('{"bytes": 12, "sha256"')
    elif damage == "nested-json":
        with open(log + ".checkpoint", "wb") as fh:
            fh.write(NESTED)
    elif damage == "truncated-log":
        lines = open(log, "rb").read().splitlines(keepends=True)
        with open(log, "wb") as fh:
            fh.write(b"".join(lines[:2]))
        records = 2
    else:
        os.remove(log + ".checkpoint")
    verified.clear()
    assert len(_load(state, log)._spent) == records
    assert len(_record_checks(verified)) == 2 * records


def test_a_double_spend_after_the_checkpoint_is_refused(ledger, user, verified):
    state, log = ledger
    _load(state, log)
    sk, _ = user
    coin = _receipts(log)[0].raw.coins[0]
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
    assert len(_load(state, log)._spent) == 3
    assert not os.path.exists(log + ".checkpoint")   # none until a newline ends the log
    # a checkpoint over the newline-terminated part holds, and the torn record is verified
    _sign_checkpoint(state, log, data.rfind(b"\n", 0, -1) + 1)
    signed = _checkpoint(log)
    assert signed["spent"] == {user[1].hex(): [0, 1]}   # not coin 2
    verified.clear()
    assert len(_load(state, log)._spent) == 3
    assert len(_record_checks(verified)) == 2
    assert _checkpoint(log) == signed
    # a checkpoint the administrator signed over the torn line does not hold
    _sign_checkpoint(state, log, len(data) - 1)
    verified.clear()
    assert len(_load(state, log)._spent) == 3
    assert len(_record_checks(verified)) == 2 * 3


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
    scheme = DeterministicScheme(seed=5)
    sk, pk = user = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, range(covered))
    _load(state, log)                            # signs a checkpoint over them
    signed_by_load = _checkpoint(log)
    _spend_new_coins(state, user, [covered])     # one record after the checkpoint
    _write_checkpoint(log, signed_by_load)       # not the session's own, if it signed one
    coin = _receipts(log)[0].raw.coins[0]        # inside the checkpoint
    parsed.clear()
    again = _load(state, log)
    _spend_new_coins(again, user, [covered + 1])   # a mint and a spend
    with pytest.raises(InputError, match="already issued"):
        again.mint(pk, coin.metadata)
    raw = lg.RawReceipt(goods="again", price=1, coins=(coin,))
    receipt = lg.sign_receipt(scheme, sk, raw, again.begin_spend(raw))
    assert again.finalize_spend(receipt).reason == "double-spend"
    assert len(parsed) == 1
    os.remove(log + ".checkpoint")
    full = _load(state, log)
    assert len(full._spent) == covered + 2
    assert again._spent == full._spent


def test_a_failing_load_writes_no_checkpoint(ledger):
    state, log = ledger
    text = open(log).read()
    lines = text.splitlines()
    with open(log, "w") as fh:
        fh.write("\n".join(lines[:2] + [_encoded(dict(json.loads(lines[2]), goods="forged"))])
                 + "\n")
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
    assert len(_load(state, log)._spent) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_a_secret_key_that_cannot_sign_leaves_load_working(tmp_path):
    # reading the log needs only the public key, so a damaged secret half of
    # the administrator's key file still lets `ledger audit-log` run
    scheme = lg.Ed25519Scheme()
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, lg.keygen(scheme), range(2))
    os.remove(log + ".checkpoint")   # the approving session signed one
    assert len(lg.LedgerState.load(scheme, b"short", state.admin_pk, log)._spent) == 2
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
            line = line.strip()
            if not line:
                continue
            try:
                receipt = lg.Receipt.from_dict(json.loads(line))
            except lg.MALFORMED as exc:
                raise InputError(f"log line {lineno} is not a receipt record: {exc!r}") from None
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


def _payloads_after(data, n_bytes):
    """The signed payloads of the receipts in the log `data` whose lines,
    newline included, do not end within its first `n_bytes`, in log order:
    those a load that honours a checkpoint over `n_bytes` verifies."""
    payloads, end = [], 0
    for line in data.split(b"\n"):
        end += len(line) + 1
        if line.strip() and end > n_bytes:
            receipt = lg.Receipt.from_dict(json.loads(line))
            payloads.append(lg.Receipt.signed_payload(receipt.raw, receipt.challenge))
    return payloads


def _receipt_checks(messages):
    return [m for m in messages if m.startswith(b'{"challenge"')]


def _checkpoint_over(state, data, n_bytes):
    """The checkpoint over the first `n_bytes` of the log `data` and the
    coins of the records that end within them, signed by the administrator
    whatever those lines are."""
    spent = set()
    for line in data[:data.rfind(b"\n", 0, n_bytes) + 1].split(b"\n"):
        try:
            spent.update(coin.key for coin in lg.Receipt.from_dict(json.loads(line)).raw.coins)
        except lg.MALFORMED:
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
    lines = data.split(b"\n")
    for i in (1, 4):
        lines[i] = _encoded(dict(json.loads(lines[i]), price=float(i))).encode()
    data = b"\n".join(lines)
    return data, _ends(data)[2]


def _price_beyond_floats(data):
    # record 5, after N, holds a price that JSON reads as inf
    lines = data.split(b"\n")
    assert lines[4].count(b'"price":4,') == 1
    lines[4] = lines[4].replace(b'"price":4,', b'"price":1e400,')
    data = b"\n".join(lines)
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
    "price-beyond-floats": _price_beyond_floats,
    "double-spend-after-n": lambda data: (data + data[:_ends(data)[0]], len(data)),
    "n-beyond-the-log": lambda data: (data[:_ends(data)[3]], "stale"),
    # a checkpoint only the administrator could sign over a line that is not
    # a record: a full verify, or a listing, reports it
    "not-a-record-under-n": lambda data: (data[:_ends(data)[0]] + b"[1, 2]\n"
                                          + data[_ends(data)[0]:], len(data) + 7),
}


def _whole_log_state(state, data, checkpoint):
    """The log state a load of `data` leaves, from the whole file: the
    (N, H) it honours, whether its last line is unterminated, the length
    checkpointed, its length and SHA-256, and the checkpoint file.  A
    checkpoint is honoured when N is the end of a complete line and the
    prefix hashes to H.  A load of a log that ends in a newline and is
    longer than the N it honoured, or than 0, signs one over the whole log;
    otherwise the file stays as written."""
    honoured, checkpointed = None, 0
    if checkpoint:
        claim = json.loads(checkpoint)
        if (claim["bytes"] in _ends(data)
                and hashlib.sha256(data[:claim["bytes"]]).hexdigest() == claim["sha256"]):
            honoured, checkpointed = (claim["bytes"], claim["sha256"]), claim["bytes"]
    unterminated = len(data) > data.rfind(b"\n") + 1
    if not unterminated and len(data) > checkpointed:
        checkpointed = len(data)
        checkpoint = (json.dumps(_checkpoint_over(state, data, len(data)), sort_keys=True)
                      + "\n").encode()
    return (honoured, unterminated, checkpointed, len(data), hashlib.sha256(data).digest(),
            checkpoint)


@pytest.mark.parametrize("block", ["7", "first-line"])
@pytest.mark.parametrize("edit", list(_EDITS))
def test_a_load_read_in_blocks_is_a_whole_log_load(varied, user, verified, edit, block,
                                                   monkeypatch):
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
    honoured, *log_state = _whole_log_state(state, data, checkpoint)

    def outcome(listing=None):
        if checkpoint:
            with open(log + ".checkpoint", "wb") as fh:
                fh.write(checkpoint)
        verified.clear()
        try:
            loaded = lg.LedgerState.load(state.scheme, state._admin_sk, state.admin_pk, log,
                                         listing=listing)
        except InputError as exc:
            return str(exc), None
        if listing is not None:
            return listing   # what `ledger audit-log` prints
        return ((loaded._spent, _receipt_checks(verified)),
                (loaded._unterminated, loaded._checkpointed, loaded._log_bytes,
                 loaded._log_sha.copy().finalize(), open(log + ".checkpoint", "rb").read()))

    if isinstance(expected, tuple):
        receipts, spent = expected
        checked = _payloads_after(data, honoured[0] if honoured else 0)
        assert outcome() == ((spent, checked), tuple(log_state))
        assert outcome([]) == _listing(receipts)
    elif edit == "not-a-record-under-n":
        # the administrator signed the prefix and its coins, so a plain load
        # reads none of its records; a listing load parses them and fails
        signed = json.loads(checkpoint)["spent"]
        spent = {(owner, coin_id) for owner, ids in signed.items() for coin_id in ids}
        assert outcome() == ((spent, []), tuple(log_state))
        assert outcome([]) == (expected, None)
    else:
        assert outcome() == outcome([]) == (expected, None)
    errors = {"tampered-prefix": "log line 2 fails re-verification: bad-signature",
              "double-spend-after-n": f"log line 6 double-spends coin {(user[1].hex(), 0)}",
              "price-beyond-floats": "log line 5 is not a receipt record: "
                                     "OverflowError('cannot convert float infinity to integer')",
              "not-a-record-under-n": "log line 2 is not a receipt record: "
                                      "TypeError('list indices must be integers or slices, not str')"}
    assert expected == errors.get(edit, expected)


def _toy_ledger(tmp_path, records):
    """A toy-scheme ledger of `records` receipts under a checkpoint over all."""
    scheme = DeterministicScheme(seed=3)
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
    # without a checkpoint every record is parsed and verified, one line at a
    # time; a load that kept its receipts, about 1.25 KiB each, would grow
    # by more than twice the log's growth
    def peak_without_checkpoint(state, log):
        os.remove(log + ".checkpoint")   # the load signs a new one
        return _load_peak(state, log)

    peak_without_checkpoint(small, small_log)   # first-call allocations of a full verify
    assert (peak_without_checkpoint(large, large_log)
            - peak_without_checkpoint(small, small_log)) < 2 * grown


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
    assert loaded._spent == state._spent


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
    assert len(loaded._spent) == 48 and loaded._spent == state._spent


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
    assert len(loaded._spent) == 3
    assert _checkpoint(log)["bytes"] == len(data)   # the load signed the whole log


def test_a_session_on_an_unterminated_last_line(ledger, user, verified):
    state, log = ledger
    data = open(log, "rb").read()
    with open(log, "wb") as fh:
        fh.write(data[:-1])   # the last record loses its newline
    session = _load(state, log)
    assert not os.path.exists(log + ".checkpoint")
    _spend_new_coins(session, user, [3])
    # the append ended the torn line, and the session signed the whole log
    assert open(log, "rb").read().count(b"\n") == 4
    assert _checkpoint(log)["bytes"] == os.path.getsize(log)
    assert _checkpoint(log)["spent"] == {user[1].hex(): [0, 1, 2, 3]}
    verified.clear()
    loaded = _load(state, log)
    assert len(verified) == 1 and verified[0].startswith(lg.CHECKPOINT_TAG)
    assert loaded._spent == session._spent


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(steps=st.lists(st.sampled_from(["mint", "spend", "spend-two", "double-spend", "reload"]),
                      max_size=12))
def test_library_traffic_is_checkpointed_where_a_reload_honours_it(steps):
    # with no writer but the library, every checkpoint ends at a line end,
    # so honouring N only there costs no reload a record check
    scheme, verified = DeterministicScheme(seed=11), []
    verify = scheme.verify

    def recording(pk, message, signature):
        verified.append(message)
        return verify(pk, message, signature)

    scheme.verify = recording
    sk, pk = lg.keygen(scheme)
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "log.jsonl")
        state = lg.LedgerState.create(scheme, log_path=log, rng=rng)
        fresh, spent = [], []   # coins minted and not spent, and spent ones

        def mint():
            fresh.append(state.mint(pk, lg.CoinMetadata(coin_id=len(fresh) + len(spent))))

        def spend(coins):
            raw = lg.RawReceipt(goods="g", price=len(coins), coins=tuple(coins))
            return state.finalize_spend(lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw)))

        for step in steps:
            if step == "reload":
                n_bytes = _checkpoint(log)["bytes"] if os.path.exists(log) else None
                verified.clear()
                state = lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log, rng=rng)
                if n_bytes is not None:
                    data = open(log, "rb").read()
                    assert verified[0].startswith(lg.CHECKPOINT_TAG)
                    assert _receipt_checks(verified) == _payloads_after(data, n_bytes)
                    assert _checkpoint(log)["bytes"] == len(data)
            elif step == "mint":
                mint()
            elif step == "double-spend":
                if spent:
                    assert spend(spent[:1]).reason == "double-spend"
            else:
                wanted = 2 if step == "spend-two" else 1
                while len(fresh) < wanted:
                    mint()
                coins, fresh[:] = fresh[:wanted], fresh[wanted:]
                assert spend(coins).approved
                spent.extend(coins)
            if os.path.exists(log + ".checkpoint"):
                data, checkpoint = open(log, "rb").read(), _checkpoint(log)
                assert data[checkpoint["bytes"] - 1:checkpoint["bytes"]] == b"\n"
                assert checkpoint == _checkpoint_over(state, data, checkpoint["bytes"])


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
    assert loaded._spent == spent and len(spent) == 3


def test_a_failed_append_commits_nothing(scheme, tmp_path, user, monkeypatch):
    sk, pk = user
    state = lg.LedgerState.create(scheme, log_path=str(tmp_path / "missing" / "log.jsonl"))
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    challenge = state.begin_spend(raw)
    receipt = lg.sign_receipt(scheme, sk, raw, challenge)
    with pytest.raises(InputError, match="^cannot append to ledger log .*missing.*: "
                                         "No such file or directory$"):
        state.finalize_spend(receipt)
    assert not state._spent
    assert list(state._pending) == [(raw.canonical_bytes(), challenge)]
    # a full disk: the log opens, but no byte can be written
    state.log_path = str(tmp_path / "log.jsonl")
    write = lg.os.write

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(lg.os, "write", full)
    with pytest.raises(InputError, match="^cannot append to ledger log .*log.jsonl.*: "
                                         "No space left on device$"):
        state.finalize_spend(receipt)
    assert not state._spent
    assert list(state._pending) == [(raw.canonical_bytes(), challenge)]
    # once the log can be written, the same receipt is approved
    monkeypatch.setattr(lg.os, "write", write)
    assert state.finalize_spend(receipt).approved
    assert state._spent == {coin.key}
    assert len(_load(state, state.log_path)._spent) == 1
    assert _receipts(state.log_path) == [receipt]
    # a disk that fills after 7 bytes of the record: the log is cut back to
    # what it was, so the retry's record gets a line of its own
    before = open(state.log_path, "rb").read()
    coin = state.mint(pk, lg.CoinMetadata(coin_id=2))
    raw = lg.RawReceipt(goods="meal", price=1, coins=(coin,))
    receipt = lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw))
    sizes = []

    def filling(fd, data):
        if sizes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(lg.os, "write", filling)
    with pytest.raises(InputError, match="No space left on device$"):
        state.finalize_spend(receipt)
    assert sizes == [7] and open(state.log_path, "rb").read() == before
    monkeypatch.setattr(lg.os, "write", write)
    assert state.finalize_spend(receipt).approved
    os.remove(state.log_path + ".checkpoint")
    assert _load(state, state.log_path)._spent == state._spent and len(state._spent) == 2


def test_an_append_of_short_writes_is_one_whole_line(scheme, tmp_path, user, monkeypatch):
    # a write that takes at most 7 bytes at a time still appends the whole record
    sk, pk = user
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    _spend_new_coins(state, user, [0])
    before = open(log, "rb").read()
    write, sizes = lg.os.write, []

    def short(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(lg.os, "write", short)
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    raw = lg.RawReceipt(goods="a longer line than seven bytes", price=3, coins=(coin,))
    receipt = lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw))
    assert state.finalize_spend(receipt).approved
    monkeypatch.setattr(lg.os, "write", write)
    line = lg._canonical(receipt.to_dict()) + b"\n"
    assert open(log, "rb").read() == before + line
    assert len(sizes) == -(-len(line) // 7) and sum(sizes) == len(line)
    os.remove(log + ".checkpoint")
    assert _load(state, log)._spent == state._spent and len(state._spent) == 2


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
    assert scheme._signed == {pk: (b"two" * 100, expected)}   # a failed sign records nothing
    # the cache is bounded: it starts again once it holds KEY_CACHE keys
    others = [lg.keygen(scheme)[0] for _ in range(scheme.KEY_CACHE)]
    for other in others:
        scheme.sign(other, b"m")
    assert len(scheme._keys) <= scheme.KEY_CACHE
    # a second scheme remembers nothing, so OpenSSL checks the reloaded key's signature
    assert lg.Ed25519Scheme().verify(pk, b"m", scheme.sign(sk, b"m"))


def test_verify_gives_openssls_answer_and_stores_nothing():
    from cryptography.hazmat.primitives.asymmetric import ed25519

    def fresh(pk, message, signature):
        try:
            ed25519.Ed25519PublicKey.from_public_bytes(pk).verify(signature, message)
            return True
        except Exception:
            return False

    class Equal(bytes):   # bytes that claim to equal anything
        __hash__ = bytes.__hash__

        def __eq__(self, other):
            return True

    scheme = lg.Ed25519Scheme()
    sk, pk = lg.keygen(scheme)
    _, other_pk = lg.keygen(scheme)
    earlier = scheme.sign(sk, b"m0")
    sig = scheme.sign(sk, b"m")   # the pair the scheme remembers for pk
    cases = [(pk, b"m", sig), (pk, b"m!", sig), (pk, b"m", bytes.fromhex(_flip_hex(sig.hex()))),
             (pk, b"m", sig[:-1]), (pk, b"m", b""), (b"", b"m", sig), (b"short", b"m", sig),
             (pk + b"\0", b"m", sig), (b"\xff" * 32, b"m", sig), (pk.hex(), b"m", sig),
             (bytearray(pk), b"m", sig), (None, b"m", sig),
             # the remembered pair under another key, an earlier signature of
             # pk, and the remembered pair with an argument that is not bytes
             (other_pk, b"m", sig), (pk, b"m0", earlier), (pk, b"m", earlier),
             (pk, bytearray(b"m"), sig), (pk, memoryview(b"m"), sig),
             (pk, b"m", bytearray(sig)), (pk, b"m", memoryview(sig)),
             (pk, Equal(b"m!"), sig), (pk, b"m", Equal(earlier))]
    for _ in range(2):   # with the pair remembered, and again after those calls
        assert [scheme.verify(*case) for case in cases] == [fresh(*case) for case in cases]
    # verify stores nothing: more than KEY_CACHE signatures made by a second
    # scheme leave both maps as they were, and the scheme holds no other map
    keys, signed = dict(scheme._keys), dict(scheme._signed)
    signer = lg.Ed25519Scheme()
    for _ in range(scheme.KEY_CACHE + 1):
        other_sk, other_pk = lg.keygen(scheme)
        assert scheme.verify(other_pk, b"m", signer.sign(other_sk, b"m"))
    assert scheme._keys == keys and scheme._signed == signed
    assert [name for name, value in vars(scheme).items()
            if isinstance(value, dict)] == ["_keys", "_signed"]
    # the maps are bounded: each starts again once it holds KEY_CACHE keys
    for _ in range(scheme.KEY_CACHE + 1):
        other_sk, other_pk = lg.keygen(scheme)
        assert scheme.verify(other_pk, b"m", scheme.sign(other_sk, b"m"))
        assert len(scheme._signed) <= scheme.KEY_CACHE and len(scheme._keys) <= scheme.KEY_CACHE
    assert pk not in scheme._signed   # forgotten with the others
    assert [scheme.verify(*case) for case in cases] == [fresh(*case) for case in cases]
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


def _holds_surrogate_pair(text):
    return isinstance(text, str) and any(
        "\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff" for a, b in zip(text, text[1:]))


# Characters that JSON escapes, that `ensure_ascii` writes as \u escapes
# (surrogate pairs above the BMP, lone surrogates), or that pass unchanged.
# Text holding a high surrogate directly followed by a low one is refused.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x01\x1f\x7f é☃\U0001f600\ud800\udfff'),
                          st.characters()), max_size=12)


@settings(derandomize=True, database=None, deadline=None)
@given(coins=st.lists(st.tuples(st.integers(-2**70, 2**70), _TEXT, _TEXT), min_size=1,
                      max_size=3, unique_by=lambda coin: coin[0]),
       goods=st.one_of(_TEXT, st.integers(-2**70, 2**70), st.none()),
       price=st.integers(0, 2**70))
def test_every_signed_or_logged_encoding_is_the_canonical_json_of_its_dict(coins, goods, price):
    # a coin, a raw receipt and a log line are each built from their parts'
    # canonical bytes; each must be what encoding the whole `to_dict` gives
    scheme = DeterministicScheme(seed=5)
    sk, pk = lg.keygen(scheme)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "log.jsonl")
        state = lg.LedgerState.create(scheme, log_path=log, rng=random.Random(0))
        texts = [goods] + [text for _, valid_to, note in coins for text in (valid_to, note)]
        try:
            minted = tuple(state.mint(pk, lg.CoinMetadata(coin_id=coin_id, valid_to=valid_to,
                                                          issuer_note=note))
                           for coin_id, valid_to, note in coins)
            raw = lg.RawReceipt(goods=goods, price=price, coins=minted)
        except InputError as exc:
            assert "surrogate pair" in str(exc) and any(map(_holds_surrogate_pair, texts))
            return
        assert not any(map(_holds_surrogate_pair, texts))
        receipt = lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw))
        assert state.finalize_spend(receipt).approved
        with open(log, "rb") as fh:
            line = fh.read()
    for coin in minted:
        assert coin.canonical_bytes() == lg._canonical(coin.to_dict())
        assert lg.Coin.from_dict(coin.to_dict()).canonical_bytes() == coin.canonical_bytes()
    assert raw.canonical_bytes() == lg._canonical(raw.to_dict())
    assert line == lg._canonical(receipt.to_dict()) + b"\n"
    assert lg.Receipt.from_dict(json.loads(line)) == receipt


def test_text_holding_a_surrogate_pair_is_refused(tmp_path):
    # canonical JSON writes a high surrogate and the low one after it as two
    # escapes that `json.loads` reads back as the one character they encode:
    # a receipt with such goods, once logged, would read back as another one
    pair = "\ud800\udfff"
    assert json.loads(lg._canonical(pair)) == "\U000103ff" != pair
    scheme = DeterministicScheme(seed=5)
    sk, pk = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log, rng=random.Random(0))
    coin = state.mint(pk, lg.CoinMetadata(coin_id=1))
    with pytest.raises(InputError, match="^a surrogate pair in a receipt's goods,"):
        lg.RawReceipt(goods=pair, price=1, coins=(coin,))
    for field in ("valid_from", "valid_to", "issuer_note"):
        with pytest.raises(InputError, match="^a surrogate pair in a coin's metadata,"):
            lg.CoinMetadata(coin_id=2, **{field: "x" + pair + "y"})
    # lone surrogates, a low one before a high one, and the character the
    # pair encodes all read back as themselves, and stay accepted
    goods = "\ud800 \udfff\ud800 \U000103ff"
    raw = lg.RawReceipt(goods=goods, price=1, coins=(coin,))
    receipt = lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw))
    assert state.finalize_spend(receipt).approved
    with open(log, "rb") as fh:
        assert lg.Receipt.from_dict(json.loads(fh.read())) == receipt


def _seeded_session(log):
    """A library session run as the benchmark's ledger set-up runs one: keys
    from a seeded generator, seeded challenges and one Ed25519 scheme
    object.  It mints 44 coins, with metadata and goods that JSON escapes,
    and spends 42 of them in 41 receipts; returns their outcomes."""
    from cryptography.hazmat.primitives.asymmetric import ed25519

    def public(sk):
        return ed25519.Ed25519PrivateKey.from_private_bytes(sk).public_key().public_bytes_raw()

    rng = random.Random("ledger bytes")
    admin_sk = rng.randbytes(32)
    user_sks = [rng.randbytes(32) for _ in range(4)]
    scheme = lg.Ed25519Scheme()
    state = lg.LedgerState.load(scheme, admin_sk, public(admin_sk), log,
                                rng=random.Random("ledger bytes: challenges"))
    coins, outcomes = [], []
    for j in range(44):
        owner = (j // 2) % 4
        note = ("", "caf\u00e9 \"\\\n\x01 \u2603", "\U0001f600 \ud800")[j % 3]
        coins.append(state.mint(public(user_sks[owner]),
                                lg.CoinMetadata(coin_id=j, valid_from=f"2024-{j % 12 + 1:02d}-01",
                                                valid_to="2025-01-01" if j % 2 else "",
                                                issuer_note=note)))
        if j < 40 or j == 41:
            raw = lg.RawReceipt(goods=f"item-{j} {note}", price=rng.randint(0, 2**j),
                                coins=tuple(coins[40:]) if j == 41 else (coins[j],))
            receipt = lg.sign_receipt(scheme, user_sks[owner], raw, state.begin_spend(raw))
            outcomes.append(state.finalize_spend(receipt))
    return outcomes


# The SHA-256 of the log (24,035 bytes) and of the checkpoint (603 bytes)
# that `_seeded_session` leaves.
LOG_SHA256 = "82a6c1192f3b33569b45e5e21ca7547be8085fa787f1e94bfb830d0fa18f6828"
CHECKPOINT_SHA256 = "c779b62ed198f46078c84f85970f8393ca95a44541c7ff4948b84c55be8f1aab"


def test_a_seeded_session_writes_the_pinned_bytes(tmp_path):
    # the bytes that a seeded session logs and checkpoints, pinned from the
    # code that encoded every coin and receipt with `_canonical` and
    # appended through a buffered file object
    log = str(tmp_path / "log.jsonl")
    outcomes = _seeded_session(log)
    digests = [hashlib.sha256(open(path, "rb").read()).hexdigest()
               for path in (log, log + ".checkpoint")]
    assert digests == [LOG_SHA256, CHECKPOINT_SHA256]
    # every approval is one shared outcome, which cannot be changed
    assert len(outcomes) == 41 and all(o is outcomes[0] for o in outcomes)
    assert outcomes[0].approved and outcomes[0].reason is None
    with pytest.raises(AttributeError):
        outcomes[0].approved = False


_VALUE = st.one_of(_TEXT, st.integers(-2**70, 2**70), st.floats(allow_nan=False),
                   st.booleans(), st.none(), st.lists(_TEXT, max_size=2))


@settings(derandomize=True, database=None, deadline=None)
@given(coin_id=st.integers(-2**70, 2**70), valid_from=_VALUE, valid_to=_VALUE, note=_VALUE)
def test_a_coin_payload_is_the_canonical_json_of_its_dict(coin_id, valid_from, valid_to, note):
    # the payload is joined from the metadata's fields, whatever their type
    pk = bytes(range(32))
    try:
        metadata = lg.CoinMetadata(coin_id=coin_id, valid_from=valid_from, valid_to=valid_to,
                                   issuer_note=note)
    except InputError as exc:
        assert "surrogate pair" in str(exc)
        assert any(map(_holds_surrogate_pair, (valid_from, valid_to, note)))
        return
    assert not any(map(_holds_surrogate_pair, (valid_from, valid_to, note)))
    assert lg.Coin.signed_payload(pk, metadata) == lg._canonical(
        {"owner_pk": pk.hex(), "metadata": metadata.to_dict()})


def _spend(state, signer_sk, coin):
    raw = lg.RawReceipt(goods="g", price=1, coins=(coin,))
    receipt = lg.sign_receipt(state.scheme, signer_sk, raw, state.begin_spend(raw))
    return state.finalize_spend(receipt)


@pytest.fixture
def openssl_verified(monkeypatch):
    """Every message that OpenSSL verifies for any `Ed25519Scheme`, in order,
    through a shim on the `cryptography` module that the scheme calls."""
    from cryptography.hazmat.primitives.asymmetric import ed25519
    messages = []
    load = ed25519.Ed25519PublicKey.from_public_bytes

    class Counted:
        def __init__(self, key):
            self._key = key

        def verify(self, signature, message):
            messages.append(message)
            return self._key.verify(signature, message)

    class PublicKey:
        @staticmethod
        def from_public_bytes(data):
            return Counted(load(data))

    monkeypatch.setattr(ed25519, "Ed25519PublicKey", PublicKey)
    return messages


@pytest.mark.parametrize("own_scheme", [False, True], ids=["ledger-scheme", "own-scheme"])
def test_openssl_verifies_only_what_another_scheme_object_signed(tmp_path, openssl_verified,
                                                                 own_scheme):
    # the first coin's check and each receipt's are answered from memory when
    # the ledger's scheme made the signature; a user with a scheme object of
    # their own costs one OpenSSL call per receipt
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(lg.Ed25519Scheme(), log_path=log)
    sk, pk = lg.keygen(state.scheme)
    signer = lg.Ed25519Scheme() if own_scheme else state.scheme
    for i in range(8):
        raw = lg.RawReceipt(goods=f"g{i}", price=1,
                            coins=(state.mint(pk, lg.CoinMetadata(coin_id=i)),))
        assert state.finalize_spend(lg.sign_receipt(signer, sk, raw, state.begin_spend(raw)))
    assert len(openssl_verified) == (8 if own_scheme else 0)
    # a fresh scheme replays the log without its checkpoint: every coin and
    # every receipt goes to OpenSSL
    os.remove(log + ".checkpoint")
    del openssl_verified[:]
    loaded = lg.LedgerState.load(lg.Ed25519Scheme(), state._admin_sk, state.admin_pk, log)
    assert len(loaded._spent) == 8 and len(openssl_verified) == 16


def test_a_session_that_mints_coins_before_spending_them(tmp_path, openssl_verified):
    # the scheme remembers only the administrator's last signature: of three
    # coins minted before their spends, OpenSSL checks each but the last minted
    log = str(tmp_path / "log.jsonl")
    state = lg.LedgerState.create(lg.Ed25519Scheme(), log_path=log)
    sk, pk = lg.keygen(state.scheme)
    coins = [state.mint(pk, lg.CoinMetadata(coin_id=i)) for i in range(3)]
    edited = coins[2].replace(metadata=coins[2].metadata.replace(issuer_note="forged"))
    assert _spend(state, sk, edited).reason == "invalid-coin"
    assert openssl_verified == [edited.payload()]
    del openssl_verified[:]
    # the receipt holding the last minted coin goes first: the checkpoint its
    # approval signs is the administrator's last signature after it
    for spent in (coins[1:], coins[:1]):
        raw = lg.RawReceipt(goods="g", price=1, coins=tuple(spent))
        assert state.finalize_spend(lg.sign_receipt(state.scheme, sk, raw,
                                                    state.begin_spend(raw))).approved
    assert openssl_verified == [coins[1].payload(), coins[0].payload()]
    os.remove(log + ".checkpoint")
    loaded = lg.LedgerState.load(lg.Ed25519Scheme(), state._admin_sk, state.admin_pk, log)
    assert loaded._spent == {coin.key for coin in coins}
    assert [receipt.raw.coins for receipt in _receipts(log)] == [tuple(coins[1:]), (coins[0],)]


def test_a_cli_spend_verifies_its_own_receipt_from_memory(tmp_path, openssl_verified, capsys):
    from auditgame.cli import main
    led, alice = str(tmp_path / "led"), str(tmp_path / "alice.key")
    assert main(["ledger", "keygen", "--out", alice]) == 0
    for i in (1, 2):
        assert main(["ledger", "mint", "--dir", led, "--recipient-key", alice,
                     "--coin-id", str(i), "--out", str(tmp_path / f"c{i}.json")]) == 0
    assert main(["ledger", "spend", "--dir", led, "--coin", str(tmp_path / "c1.json"),
                 "--signer-key", alice]) == 0
    del openssl_verified[:]
    assert main(["ledger", "spend", "--dir", led, "--coin", str(tmp_path / "c2.json"),
                 "--signer-key", alice]) == 0
    # the checkpoint over the first record and the coin read from its file;
    # the receipt, signed through the call's own scheme, is answered from memory
    assert [m.startswith(lg.CHECKPOINT_TAG) for m in openssl_verified] == [True, False]
    assert capsys.readouterr().out.endswith("approved\n")


def test_a_log_in_the_old_spaced_form_still_loads(tmp_path, capsys):
    # logs written before the records were compact have a space after each
    # ":" and ","; every ledger call still reads them, and appends compact lines
    from auditgame.cli import main
    led, alice = str(tmp_path / "led"), str(tmp_path / "alice.key")
    log = os.path.join(led, "log.jsonl")

    def spend(i):
        assert main(["ledger", "spend", "--dir", led, "--coin", str(tmp_path / f"c{i}.json"),
                     "--signer-key", alice, "--goods", f"g{i}"]) == 0
        assert capsys.readouterr() == ("approved\n", "")

    def audit_log():
        code = main(["ledger", "audit-log", "--dir", led])
        return (code,) + capsys.readouterr()

    def rewrite(lines):
        with open(log, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    assert main(["ledger", "keygen", "--out", alice]) == 0
    for i in range(1, 5):
        assert main(["ledger", "mint", "--dir", led, "--recipient-key", alice,
                     "--coin-id", str(i), "--out", str(tmp_path / f"c{i}.json")]) == 0
    capsys.readouterr()
    for i in range(1, 4):
        spend(i)
    compact = open(log).read().splitlines()
    assert all(line == _encoded(json.loads(line)) for line in compact)
    listing = audit_log()
    assert listing[0] == 0 and listing[1].endswith("total: 3\n")
    spaced = [json.dumps(json.loads(line), sort_keys=True) for line in compact]
    assert all(len(old) > len(new) for old, new in zip(spaced, compact))
    rewrite(spaced)
    os.remove(log + ".checkpoint")
    assert audit_log() == listing   # every record verified, then a checkpoint signed
    assert audit_log() == listing   # from that checkpoint over the spaced lines
    spend(4)
    lines = open(log).read().splitlines()
    assert lines[:3] == spaced and lines[3] == _encoded(json.loads(lines[3]))
    listing = audit_log()
    assert listing[0] == 0 and listing[1].endswith("total: 4\n")
    os.remove(log + ".checkpoint")
    assert audit_log() == listing
    # a tampered spaced line is refused, inside the checkpoint and without it
    assert os.path.exists(log + ".checkpoint")
    lines[1] = lines[1].replace('"goods": "g2"', '"goods": "G2"')   # same length
    rewrite(lines)
    refused = audit_log()
    assert refused == (1, "", "input error: log line 2 fails re-verification: bad-signature\n")
    os.remove(log + ".checkpoint")
    assert audit_log() == refused


def test_a_session_whose_secret_key_does_not_match_rejects_its_coins(scheme, tmp_path, user):
    sk, pk = user
    admin_sk, _ = lg.keygen(scheme)
    _, other_pk = lg.keygen(scheme)
    state = lg.LedgerState(scheme, admin_sk, other_pk, log_path=str(tmp_path / "log.jsonl"))
    for i in range(3):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        assert not state.verify_coin(coin)
        assert _spend(state, sk, coin).reason == "invalid-coin"
    assert not os.path.exists(state.log_path)   # nothing was appended


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
