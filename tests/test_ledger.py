"""Currency ledger: minting, two-phase spending, persistence, concurrency."""

import inspect
import json
import threading

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
