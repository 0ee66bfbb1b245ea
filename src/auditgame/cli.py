"""Command-line front end.

Subcommands: solve, bounds, cost, sweep, surface, verify, probe, ledger;
`_COMMANDS` lists each with its flags, and `--help` prints them.  A flag
takes `--flag value` or `--flag=value` under its exact name (no
abbreviations), and its value may start with `-`.  Exit status 0 on
success, 2 when the budget regime rules the request out (equilibrium
non-existence), 1 on input errors, usage errors among them; each error
prints one line on stderr.  Game outputs are deterministic given the
config (sweep and surface print the same bytes in either numeric mode);
the toy ledger scheme is deterministic given its seed.  A standard
output that is closed or cannot be written (a full disk, a closed pipe)
is an input error.

`run` is the process entry point, for `python -m auditgame.cli` and the
`auditgame` console script.  After `main` returns it runs the atexit
hooks, flushes standard output and standard error, and ends the process
with `os._exit`, skipping the interpreter's teardown of every loaded
module; every file a call writes is closed before `main` returns.  A run
under a tracer or profiler (`coverage run`, `python -m cProfile`) flushes
the same way and then exits through `sys.exit`, so the tool, whose own
atexit hook may save its data, sees a normal exit.  An exception that
escapes `main` takes the normal path too.
"""

from __future__ import annotations

import errno
import os
import sys

from .errors import InputError, RegimeError

# Each handler imports the modules it runs, so that a call loads only those:
# a ledger call loads neither `numeric` nor the `fractions` it imports.


def _load_config(path):
    from .core import GameConfig
    if not os.path.exists(path):
        raise InputError(f"config file {path!r} does not exist")
    return GameConfig.from_text(_read_text(path, "config file"))


def _read_text(path, what) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _io_error("read", what, path, exc) from None


def _write_text(path, text, what, more=()) -> None:
    """Write `text` and then each text of `more` to the file `path`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.writelines(more)
    except OSError as exc:
        raise _io_error("write", what, path, exc) from None


def _io_error(verb, what, path, exc) -> InputError:
    reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
    return InputError(f"cannot {verb} {what} {path!r}: {reason}")


def _write_out(chunks, out_path=None) -> None:
    """Write `chunks`, a text or an iterable of texts, to the file
    `out_path`, or to standard output.

    The first chunk is taken before the file is opened or anything is
    written, so an error raised with it leaves no output: a sweep raises
    every input error there.  An interruption after that (Ctrl-C, a kill)
    leaves the chunks written so far.
    """
    more = iter((chunks,) if isinstance(chunks, str) else chunks)
    text = next(more, "")
    if out_path:
        _write_text(out_path, text, "output file", more)
        return
    if sys.stdout is None:
        raise _stdout_error(None)
    try:
        sys.stdout.write(text)
        sys.stdout.writelines(more)
    except OSError as exc:
        raise _stdout_error(exc) from None


def _stdout_error(exc) -> InputError:
    """The input error for a standard output that is closed (`exc` is None)
    or whose write or flush raised `exc`.  The process's own standard
    output then points at the null device, so that the bytes left in its
    buffer are dropped and no later flush fails again."""
    if exc is None:
        return InputError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
    if sys.stdout is sys.__stdout__:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return InputError(f"cannot write standard output: {exc.strerror or exc}")


def _grid(arg):
    from .numeric import as_fraction
    return tuple(as_fraction(v) for v in arg.split(","))


def _coalition_grid(arg):
    try:
        return tuple(int(v) for v in arg.split(","))
    except ValueError:
        raise InputError(f"cannot parse coalition sizes {arg!r}") from None


def _flag(metavar, default=None, kind=str, required=False, choices=None):
    """One flag: its kind (`str`, `int`, or `list` for a repeatable string),
    default, whether it is required, its choices, and the placeholder that
    `--help` shows for its value."""
    return kind, default, required, choices, metavar


_GAME = {"--config": _flag("FILE", required=True), "--out": _flag("FILE")}
# Grid values are parsed in `_spec_with_overrides` and checked by the
# library, and the mode by `_check_mode`, so a bad value is an input error.
_GRIDS = {"--config": _flag("FILE"), "--out": _flag("FILE"), "--mode": _flag("rational|float"),
          "--qmin-grid": _flag("LIST"), "--c-grid": _flag("LIST"), "--k-grid": _flag("LIST"),
          "--coalition": _flag("LIST")}
_SCHEME = {"--scheme": _flag("ed25519|toy", "ed25519", choices=("ed25519", "toy")),
           "--seed": _flag("N", 0, int)}
_LEDGER = {"--dir": _flag("DIR", required=True), **_SCHEME}

# Each subcommand, and each ledger subcommand, with its flags in the order
# that `--help` lists them.
_COMMANDS = {
    "solve": _GAME,
    "bounds": {**_GAME, "--format": _flag("csv|text", "csv", choices=("csv", "text"))},
    "cost": _GAME,
    "sweep": _GRIDS,
    "surface": _GRIDS,
    "verify": {**_GAME, "--resolution": _flag("N", 200, int)},
    "probe": {**_GAME, "--resolution": _flag("N", 100, int)},
    "ledger": {
        "keygen": {"--out": _flag("FILE", required=True), **_SCHEME},
        "mint": {**_LEDGER, "--recipient-key": _flag("FILE", required=True),
                 "--coin-id": _flag("N", kind=int, required=True), "--note": _flag("TEXT", ""),
                 "--out": _flag("FILE", required=True)},
        "spend": {**_LEDGER, "--coin": _flag("FILE", kind=list, required=True),
                  "--goods": _flag("TEXT", "goods"), "--price": _flag("N", 1, int),
                  "--signer-key": _flag("FILE", required=True)},
        "audit-log": _LEDGER,
    },
}
_HELP = ("-h", "--help")


def _is_group(table) -> bool:
    return isinstance(next(iter(table.values())), dict)


class _Args:
    def __init__(self, values):
        self.__dict__.update(values)


def parse_args(argv):
    """The subcommands and flag values of `argv` as attributes (`command`,
    `ledger_command`, and each flag with its dashes as underscores), or
    None when it asks for help.  A usage error raises `InputError`."""
    words, table, i = [], _COMMANDS, 0
    while _is_group(table):
        token = argv[i] if i < len(argv) else None
        if token in _HELP:
            return None
        if token not in table:
            got = "none given" if token is None else f"got {token!r}"
            what = " ".join(words + ["command"])
            raise InputError(f"expected a {what}, one of {', '.join(table)}; {got}")
        words.append(token)
        table, i = table[token], i + 1
    where = " ".join(words)
    values = {name: spec[1] for name, spec in table.items()}
    given = set()
    while i < len(argv):
        token, i = argv[i], i + 1
        if token in _HELP:
            return None
        name, eq, value = token.partition("=")
        if name not in table:
            raise InputError(f"{where}: unknown flag {name!r}")
        kind, _, _, choices, _ = table[name]
        if not eq:
            if i == len(argv):
                raise InputError(f"{where}: {name} needs a value")
            value, i = argv[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{where}: {name} needs an integer, not {value!r}") from None
        if choices and value not in choices:
            raise InputError(f"{where}: {name} must be one of {', '.join(choices)}, not {value!r}")
        if kind is list:
            value = values[name] + [value] if name in given else [value]
        values[name] = value
        given.add(name)
    for name, (_, _, required, _, _) in table.items():
        if required and name not in given:
            raise InputError(f"{where}: {name} is required")
    attributes = dict(zip(("command", "ledger_command"), words))
    attributes.update((name[2:].replace("-", "_"), value) for name, value in values.items())
    return _Args(attributes)


def _usage(head="auditgame", table=_COMMANDS) -> str:
    """The `--help` text: one usage line per subcommand, rendered from
    `_COMMANDS` and wrapped at 79 columns."""
    if _is_group(table):
        width = max(map(len, table))
        return "".join(_usage(f"{head} {word:{width}}", sub) for word, sub in table.items())
    lines = [head]
    for name, (kind, _, required, _, metavar) in table.items():
        part = f"{name} {metavar}" + (" ..." if kind is list else "")
        part = part if required else f"[{part}]"
        if len(lines[-1]) + 1 + len(part) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _scheme_for(args):
    from . import ledger as ledger_mod
    if args.scheme == "toy":
        return ledger_mod.DeterministicScheme(seed=args.seed)
    return ledger_mod.Ed25519Scheme()


def _write_key_file(path, sk: bytes, pk: bytes) -> None:
    """Write the key file `path`, mode 0600 before its first byte (an
    existing file included)."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o600)
            fh.write(f"{sk.hex()}\n{pk.hex()}\n")
    except OSError as exc:
        raise _io_error("write", "key file", path, exc) from None


def _read_key_file(path):
    lines = _read_text(path, "key file").splitlines()
    if len(lines) < 2:
        raise InputError(f"key file {path!r} must hold secret and public hex lines")
    try:
        return bytes.fromhex(lines[0]), bytes.fromhex(lines[1])
    except ValueError:
        raise InputError(f"key file {path!r} holds a line that is not hex") from None


def _signing(key_path, sign, *args):
    """`sign(*args)`, which signs with the secret key of the key file
    `key_path`; a key the scheme cannot sign with is an input error."""
    try:
        return sign(*args)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"key file {key_path!r} holds a secret key that cannot sign: "
                         f"{exc}") from None


def _read_coin_file(path):
    import json
    from . import ledger as ledger_mod
    text = _read_text(path, "coin file")
    try:
        return ledger_mod.Coin.from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"coin file {path!r} does not hold a coin: {exc!r}") from None


def _open_ledger(args, create=False, listing=None):
    """Load the ledger in `args.dir`; with `create`, make one if there is none.
    `listing` is passed on to `LedgerState.load`.

    A new ledger's admin key is left for the caller to write.
    """
    from . import ledger as ledger_mod
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
        if not create:
            raise InputError(f"no ledger in {args.dir!r}")
        try:
            os.makedirs(args.dir, exist_ok=True)
        except OSError as exc:
            raise _io_error("create", "ledger directory", args.dir, exc) from None
        return ledger_mod.LedgerState.create(scheme, log_path=log_path, rng=rng)
    sk, pk = _read_key_file(admin_path)
    return ledger_mod.LedgerState.load(scheme, sk, pk, log_path, listing=listing, rng=rng)


def _cmd_solve(args) -> int:
    from . import equilibrium
    cfg = _load_config(args.config)
    result = equilibrium.signaling_equilibrium(cfg)
    _write_out(result.to_text(cfg), args.out)
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
    from .numeric import sig15
    cfg = _load_config(args.config)
    strategy = None
    if args.format == "text":
        # Mark which caps the equilibrium attains, when one exists.
        from . import equilibrium
        try:
            strategy = equilibrium.signaling_equilibrium(cfg).strategy()
        except RegimeError:
            pass
    report = bounds_mod.bound_report(cfg, strategy=strategy)
    if report.budget_binds:
        lines = ["caps: do not apply at this budget, which holds audits back"]
    elif args.format == "csv":
        lines = ["signal,truth,cap"] + [f"{s},{m},{sig15(cap)}" for s, m, cap in report.rows()]
    else:
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
    from . import cost as cost_mod
    from .numeric import sig15
    cfg = _load_config(args.config)
    report = cost_mod.compare(cfg)
    lines = [
        f"cost_no_audit: {sig15(report.cost_no_audit)}",
        f"cost_audit: {sig15(report.cost_audit)}",
        f"budget_component: {sig15(report.budget_component)}",
        f"excess_component: {sig15(report.excess_component)}",
        f"dominates: {str(report.dominates).lower()}",
    ]
    if report.fine_threshold is not None:
        lines.append(f"fine_threshold: {sig15(report.fine_threshold)}")
    if report.regime_note:
        lines.append(f"note: {report.regime_note}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _spec_with_overrides(args, preset):
    spec = preset
    updates = {}
    for name, text, parse in (("q_min_grid", args.qmin_grid, _grid),
                              ("c_grid", args.c_grid, _grid),
                              ("k_grid", args.k_grid, _grid),
                              ("coalition_grid", args.coalition, _coalition_grid)):
        if text is not None:
            updates[name] = parse(text)
    if args.config:
        updates["base"] = _load_config(args.config)
    if updates:
        spec = spec.replace(**updates)
    return spec


def _check_mode(args) -> None:
    """Refuse an unknown `--mode`; the CSV text is the same in every mode."""
    from .numeric import check_mode
    if args.mode is not None:
        check_mode(args.mode)


def _cmd_sweep(args) -> int:
    from . import casestudy
    spec = _spec_with_overrides(args, casestudy.ftbp_preset())
    _check_mode(args)
    _write_out(casestudy.costs_csv_chunks(spec), args.out)
    return 0


def _cmd_surface(args) -> int:
    from . import casestudy
    spec = _spec_with_overrides(args, casestudy.surface_preset())
    _check_mode(args)
    _write_out(casestudy.surface_csv_chunks(spec), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import equilibrium
    cfg = _load_config(args.config)
    result = equilibrium.signaling_equilibrium(cfg)
    report = equilibrium.verify_equilibrium(result, cfg, resolution=args.resolution)
    _write_out(report.to_text(), args.out)
    return 0


def _cmd_probe(args) -> int:
    from . import oracle
    cfg = _load_config(args.config)
    report = oracle.nonexistence_probe(cfg, args.resolution)
    _write_out(report.to_text(), args.out)
    return 0


def _cmd_ledger(args) -> int:
    import json
    from . import ledger as ledger_mod
    if args.ledger_command == "keygen":
        scheme = _scheme_for(args)
        sk, pk = ledger_mod.keygen(scheme)
        _write_key_file(args.out, sk, pk)
        _write_out(f"public_key: {pk.hex()}\n")
        return 0
    # Only mint creates a ledger, and it reads its input files first, so a bad
    # input leaves none.
    if args.ledger_command == "mint":
        _, recipient_pk = _read_key_file(args.recipient_key)
        # A new ledger's admin key is written only after the coin file, and
        # a directory made for it goes again if that write fails.
        new_dir = not os.path.exists(args.dir)
        state = _open_ledger(args, create=True)
        admin_path = os.path.join(args.dir, "admin.key")
        coin = _signing(admin_path, state.mint, recipient_pk,
                        ledger_mod.CoinMetadata(coin_id=args.coin_id, issuer_note=args.note))
        try:
            _write_text(args.out, json.dumps(coin.to_dict(), sort_keys=True) + "\n", "coin file")
        except InputError:
            if new_dir:
                os.rmdir(args.dir)
            raise
        if not os.path.exists(admin_path):
            _write_key_file(admin_path, state._admin_sk, state.admin_pk)
        _write_out(f"minted coin {coin.metadata.coin_id} for {recipient_pk.hex()[:16]}...\n")
        return 0
    if args.ledger_command == "spend":
        coins = [_read_coin_file(path) for path in args.coin]
        sk, _ = _read_key_file(args.signer_key)
        state = _open_ledger(args)
        raw = ledger_mod.RawReceipt(goods=args.goods, price=args.price, coins=tuple(coins))
        challenge = state.begin_spend(raw)
        receipt = _signing(args.signer_key, ledger_mod.sign_receipt, state.scheme, sk, raw,
                           challenge)
        outcome = state.finalize_spend(receipt)
        if outcome.approved:
            _write_out("approved\n")
            return 0
        _write_out(f"rejected: {outcome.reason}\n")
        return 1
    if args.ledger_command == "audit-log":
        # Loading re-verifies every record after the administrator's signed
        # checkpoint and raises on the first that fails; the records inside
        # it passed when it was signed, and are listed from their JSON in the
        # same read of the log.  So each record listed here has passed, and
        # nothing is written unless the whole log has.
        listing = []
        _open_ledger(args, listing=listing)
        listing.append(f"total: {len(listing)}\n")
        _write_out(listing)
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            _write_out(_usage())
            return 0
        return _HANDLERS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except RegimeError as exc:
        sys.stderr.write(f"regime error: {exc}\n")
        return 2


def run(argv=None):
    """Run `main` as the whole process and end it with `main`'s status.

    The atexit hooks run first, then standard output and standard error
    are flushed, and `os._exit` ends the process without the interpreter's
    teardown.  A flush of standard output that fails prints one input
    error line and makes the status 1.  Under a tracer or profiler the
    hooks are left to the interpreter and the call ends in `sys.exit`."""
    status = main(argv)
    traced = sys.gettrace() is not None or sys.getprofile() is not None
    if not traced:
        import atexit
        atexit._run_exitfuncs()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            sys.stderr.write(f"input error: {_stdout_error(exc)}\n")
            status = 1
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    if traced:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
