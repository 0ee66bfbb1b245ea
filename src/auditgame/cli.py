"""Command-line front end.

Subcommands: solve, bounds, cost, sweep, surface, verify, probe, ledger.
Exit status 0 on success, 2 when the budget regime rules the request out
(equilibrium non-existence), 1 on input errors.  Outputs are deterministic
given the config, numeric mode, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import bounds as bounds_mod
from . import casestudy, cost as cost_mod, equilibrium, ledger as ledger_mod, oracle
from .core import GameConfig
from .errors import InputError, RegimeError
from .numeric import MODES, RATIONAL, as_fraction, sig15


def _load_config(path) -> GameConfig:
    if not os.path.exists(path):
        raise InputError(f"config file {path!r} does not exist")
    try:
        return GameConfig.from_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("config file", path, exc) from None


def _read_text(path, what) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(what, path, exc) from None


def _unreadable(what, path, exc) -> InputError:
    reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
    return InputError(f"cannot read {what} {path!r}: {reason}")


def _write_out(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(arg):
    return tuple(as_fraction(v) for v in arg.split(","))


def _add_common(p, config_required=True):
    p.add_argument("--config", required=config_required, help="game config file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--mode", choices=MODES, default=RATIONAL)
    p.add_argument("--seed", type=int, default=0)


def _add_grid_overrides(p):
    p.add_argument("--qmin-grid", type=_grid, default=None)
    p.add_argument("--c-grid", type=_grid, default=None)
    p.add_argument("--k-grid", type=_grid, default=None)
    p.add_argument("--coalition", type=lambda s: tuple(int(v) for v in s.split(",")),
                   default=None)
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditgame",
        description="Audit-game equilibria, bounds, cost comparisons, and the currency ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium for a config")
    _add_common(p)

    p = sub.add_parser("bounds", help="misreporting caps as CSV")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("cost", help="audit vs no-audit total cost")
    _add_common(p)

    p = sub.add_parser("sweep", help="case-study cost sweep CSV")
    _add_common(p, config_required=False)
    _add_grid_overrides(p)

    p = sub.add_parser("surface", help="misreporting-probability surface CSV")
    _add_common(p, config_required=False)
    _add_grid_overrides(p)

    p = sub.add_parser("verify", help="verify a config's equilibrium: the audit best response "
                                      "and each type's best deviation on the grid")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=200)

    p = sub.add_parser("probe", help="non-existence probe for two users under a small budget")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=100)

    p = sub.add_parser("ledger", help="currency ledger operations")
    lsub = p.add_subparsers(dest="ledger_command", required=True)

    lp_ = lsub.add_parser("keygen", help="generate a key pair")
    lp_.add_argument("--out", required=True, help="key file to write (hex, mode 600)")
    lp_.add_argument("--scheme", choices=("ed25519", "toy"), default="ed25519")
    lp_.add_argument("--seed", type=int, default=0)

    lp_ = lsub.add_parser("mint", help="mint a coin for a recipient")
    _ledger_dir_args(lp_)
    lp_.add_argument("--recipient-key", required=True, help="recipient key file (uses its public half)")
    lp_.add_argument("--coin-id", type=int, required=True)
    lp_.add_argument("--note", default="")
    lp_.add_argument("--out", required=True, help="coin file to write")

    lp_ = lsub.add_parser("spend", help="two-phase spend")
    _ledger_dir_args(lp_)
    lp_.add_argument("--coin", action="append", required=True, help="coin file (repeatable)")
    lp_.add_argument("--goods", default="goods")
    lp_.add_argument("--price", type=int, default=1)
    lp_.add_argument("--signer-key", required=True, help="owner key file used to sign the receipt")

    lp_ = lsub.add_parser("audit-log", help="print the approved-receipt log with verification status")
    _ledger_dir_args(lp_)

    return parser


def _ledger_dir_args(p):
    p.add_argument("--dir", required=True, help="ledger directory (admin keys and log)")
    p.add_argument("--scheme", choices=("ed25519", "toy"), default="ed25519")
    p.add_argument("--seed", type=int, default=0)


def _scheme_for(args):
    if args.scheme == "toy":
        return ledger_mod.DeterministicScheme(seed=args.seed)
    return ledger_mod.Ed25519Scheme()


def _write_key_file(path, sk: bytes, pk: bytes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{sk.hex()}\n{pk.hex()}\n")
    os.chmod(path, stat.S_IRUSR | stat.S_IWUSR)


def _read_key_file(path):
    lines = _read_text(path, "key file").splitlines()
    if len(lines) < 2:
        raise InputError(f"key file {path!r} must hold secret and public hex lines")
    try:
        return bytes.fromhex(lines[0]), bytes.fromhex(lines[1])
    except ValueError:
        raise InputError(f"key file {path!r} holds a line that is not hex") from None


def _read_coin_file(path) -> ledger_mod.Coin:
    text = _read_text(path, "coin file")
    try:
        return ledger_mod.Coin.from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"coin file {path!r} does not hold a coin: {exc!r}") from None


def _open_ledger(args) -> ledger_mod.LedgerState:
    scheme = _scheme_for(args)
    admin_path = os.path.join(args.dir, "admin.key")
    log_path = os.path.join(args.dir, "log.jsonl")
    # Challenges come from the seeded generator under the test double so
    # that runs are reproducible; the production scheme uses OS entropy.
    rng = None
    if args.scheme == "toy":
        import random
        rng = random.Random(args.seed + 1)
    if not os.path.exists(admin_path):
        os.makedirs(args.dir, exist_ok=True)
        state = ledger_mod.LedgerState.create(scheme, log_path=log_path, rng=rng)
        _write_key_file(admin_path, state._admin_sk, state.admin_pk)
        return state
    sk, pk = _read_key_file(admin_path)
    return ledger_mod.LedgerState.load(scheme, sk, pk, log_path, rng=rng)


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    result = equilibrium.signaling_equilibrium(cfg)
    _write_out(result.to_text(cfg), args.out)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    if args.format == "csv":
        report = bounds_mod.bound_report(cfg)
        lines = ["signal,truth,cap"]
        for s, m, cap in report.rows():
            lines.append(f"{s},{m},{sig15(cap)}")
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        # Mark which caps the equilibrium attains, when one exists.
        strategy = None
        try:
            strategy = equilibrium.signaling_equilibrium(cfg).strategy()
        except RegimeError:
            pass
        report = bounds_mod.bound_report(cfg, strategy=strategy)
        lines = [f"excess_cap: {sig15(report.excess_cap)}"]
        for s, m, cap in report.rows():
            lines.append(f"cap[{s}|{m}]: {sig15(cap)}")
        if report.binding_pairs:
            lines.append("binding: " + ";".join(f"{s}|{m}" for s, m in report.binding_pairs))
        if report.vacuous_pairs:
            lines.append("vacuous: " + ";".join(f"{s}|{m}" for s, m in report.vacuous_pairs))
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cost(args) -> int:
    cfg = _load_config(args.config)
    report = cost_mod.compare(cfg)
    lines = [
        f"cost_no_audit: {sig15(report.cost_no_audit)}",
        f"cost_audit: {sig15(report.cost_audit)}",
        f"budget_component: {sig15(report.budget_component)}",
        f"excess_component: {sig15(report.excess_component)}",
        f"dominates: {'not-guaranteed' if report.dominates is None else str(report.dominates).lower()}",
    ]
    if report.fine_threshold is not None:
        lines.append(f"fine_threshold: {sig15(report.fine_threshold)}")
    if report.regime_note:
        lines.append(f"note: {report.regime_note}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _spec_with_overrides(args, preset) -> casestudy.SweepSpec:
    spec = preset
    updates = {}
    if args.qmin_grid:
        updates["q_min_grid"] = args.qmin_grid
    if args.c_grid:
        updates["c_grid"] = args.c_grid
    if args.k_grid:
        updates["k_grid"] = args.k_grid
    if args.coalition:
        updates["coalition_grid"] = args.coalition
    if args.config:
        updates["base"] = _load_config(args.config)
    if updates:
        import dataclasses
        spec = dataclasses.replace(spec, **updates)
    return spec


def _cmd_sweep(args) -> int:
    spec = _spec_with_overrides(args, casestudy.ftbp_preset())
    rows = casestudy.sweep_costs(spec, mode=args.mode, workers=args.workers)
    _write_out(casestudy.costs_csv(rows), args.out)
    return 0


def _cmd_surface(args) -> int:
    spec = _spec_with_overrides(args, casestudy.surface_preset())
    rows = casestudy.sweep_misreport_surface(spec, mode=args.mode)
    _write_out(casestudy.surface_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    result = equilibrium.signaling_equilibrium(cfg)
    report = equilibrium.verify_equilibrium(result, cfg, resolution=args.resolution)
    _write_out(report.to_text(), args.out)
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    report = oracle.nonexistence_probe(cfg, oracle.GridSpec(resolution=args.resolution))
    _write_out(report.to_text(), args.out)
    return 0


def _cmd_ledger(args) -> int:
    if args.ledger_command == "keygen":
        scheme = _scheme_for(args)
        sk, pk = ledger_mod.keygen(scheme)
        _write_key_file(args.out, sk, pk)
        sys.stdout.write(f"public_key: {pk.hex()}\n")
        return 0
    # Each branch reads its input files before the ledger is opened, because
    # opening creates the ledger on first use and a bad input must leave none.
    if args.ledger_command == "mint":
        _, recipient_pk = _read_key_file(args.recipient_key)
        state = _open_ledger(args)
        coin = state.mint(recipient_pk,
                          ledger_mod.CoinMetadata(coin_id=args.coin_id, issuer_note=args.note))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(coin.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        sys.stdout.write(f"minted coin {coin.metadata.coin_id} for {recipient_pk.hex()[:16]}...\n")
        return 0
    if args.ledger_command == "spend":
        coins = [_read_coin_file(path) for path in args.coin]
        sk, _ = _read_key_file(args.signer_key)
        state = _open_ledger(args)
        raw = ledger_mod.RawReceipt(goods=args.goods, price=args.price, coins=tuple(coins))
        challenge = state.begin_spend(raw)
        receipt = ledger_mod.sign_receipt(state.scheme, sk, raw, challenge)
        outcome = state.finalize_spend(receipt)
        if outcome.approved:
            sys.stdout.write("approved\n")
            return 0
        sys.stdout.write(f"rejected: {outcome.reason}\n")
        return 1
    if args.ledger_command == "audit-log":
        state = _open_ledger(args)
        for i, receipt in enumerate(state.approved):
            ok = state._receipt_integrity_problem(receipt) is None
            sys.stdout.write(
                f"{i}: goods={receipt.raw.goods!r} price={receipt.raw.price} "
                f"coins={[c.metadata.coin_id for c in receipt.raw.coins]} "
                f"verified={str(ok).lower()}\n"
            )
        sys.stdout.write(f"total: {len(state.approved)}\n")
        return 0
    raise InputError(f"unknown ledger command {args.ledger_command!r}")


_HANDLERS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
    "surface": _cmd_surface,
    "verify": _cmd_verify,
    "probe": _cmd_probe,
    "ledger": _cmd_ledger,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except RegimeError as exc:
        sys.stderr.write(f"regime error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
