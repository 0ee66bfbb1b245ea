"""Each CLI call imports only the modules its subcommand runs.

No call imports `dataclasses` or `inspect`: together they cost more
start-up time than a small game call spends computing.  No call imports
`argparse`: the CLI parses its arguments from its own flag table.  No
ledger call imports `auditgame.numeric` or the `fractions` and `decimal`
it loads, and no call imports `secrets`, `hmac` or `hashlib`.
The game modules import one way, `core → bounds → lp → equilibrium →
cost`, with `oracle` on `bounds` and `casestudy` on `core`, and each
module's top-level imports are its whole dependency list: no module but
`cli` imports a package module inside a function, and none imports
another's underscore name.
Every check runs in a fresh interpreter, since the test process has
already imported the whole package.
"""

import ast
import glob
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import auditgame

PACKAGE = os.path.dirname(os.path.abspath(auditgame.__file__))
SRC = os.path.dirname(PACKAGE)

BASE = {"auditgame", "auditgame.cli", "auditgame.errors"}
VALUES = BASE | {"auditgame.record"}
GAME = VALUES | {"auditgame.numeric", "auditgame.core"}
SOLVE = GAME | {"auditgame.lp", "auditgame.bounds", "auditgame.equilibrium"}
SWEEP = GAME | {"auditgame.casestudy"}
LEDGER = VALUES | {"auditgame.ledger"}

# Standard-library modules that no CLI call may load.
SLOW = ("dataclasses", "inspect", "argparse")
# Standard-library modules that only the game calls need.
EXACT = ("fractions", "decimal")
# Standard-library modules that no call loads: `hashlib`, which `hmac` and
# `secrets` import, loads the system's OpenSSL through `_hashlib`, next to
# the one `cryptography` links.
HASHLIB = ("secrets", "hmac", "hashlib", "_hashlib")

# Runs `cli.main` on its arguments, then prints the exit status and the
# loaded modules of this package, of `cryptography`, of SLOW, of EXACT and
# of HASHLIB as the last line.
CALL = f"""
import json, sys
from auditgame import cli
code = cli.main(sys.argv[1:])
names = sorted(m for m in sys.modules
               if m.split(".")[0] in ("auditgame", "cryptography") + {SLOW + EXACT + HASHLIB!r})
print(json.dumps([code, names]))
"""

CFG = """\
types = low, high
prior = 1/2, 1/2
alloc = low: 50, high: 105
audit_cost = 25
fine = 100
"""


def _python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _call(args, cwd):
    """(exit status, auditgame modules, cryptography modules, EXACT modules,
    HASHLIB modules) of one CLI call, after checking that it loaded none of
    SLOW."""
    proc = _python(CALL, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    code, names = json.loads(proc.stdout.splitlines()[-1])
    assert not set(SLOW) & set(names), args
    ours = {n for n in names if n.split(".")[0] == "auditgame"}
    exact = set(EXACT) & set(names)
    hashing = set(HASHLIB) & set(names)
    return code, ours, set(names) - ours - exact - hashing, exact, hashing


def test_importing_the_cli_loads_no_game_or_ledger_module():
    proc = _python("import sys, auditgame.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'auditgame'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(sorted(BASE)) + "\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "two.cfg").write_text(CFG)
    (tmp_path / "probe.cfg").write_text(CFG + "budget = 3\nnum_users = 2\n")
    return tmp_path


@pytest.mark.parametrize("args, expected", [
    (["solve", "--config", "two.cfg"], SOLVE),
    (["verify", "--config", "two.cfg"], SOLVE),
    (["cost", "--config", "two.cfg"], SOLVE | {"auditgame.cost"}),
    (["probe", "--config", "probe.cfg"], GAME | {"auditgame.bounds", "auditgame.oracle"}),
    (["sweep", "--qmin-grid", "1/4,1/2"], SWEEP),
    (["surface", "--mode", "float"], SWEEP),
    (["bounds", "--config", "two.cfg"], GAME | {"auditgame.bounds"}),
    # the budget rule lives in `bounds`: no solver decides where it binds
    (["bounds", "--config", "probe.cfg"], GAME | {"auditgame.bounds"}),
    (["bounds", "--config", "two.cfg", "--format", "text"], SOLVE),
], ids=["solve", "verify", "cost", "probe", "sweep", "surface", "bounds-csv",
        "bounds-csv-budget", "bounds-text"])
def test_a_game_subcommand_loads_only_its_modules(args, expected, workdir):
    code, ours, crypto, _, hashing = _call(args, workdir)
    assert code == 0
    assert ours == expected
    assert crypto == set() and hashing == set()


def test_ledger_subcommands_load_no_game_module(workdir):
    """Each call of a ledger session succeeds on Ed25519 and loads no game
    module, none of EXACT and none of HASHLIB."""
    session = [
        ["keygen", "--out", "alice.key"],
        ["mint", "--dir", "led", "--recipient-key", "alice.key", "--coin-id", "1",
         "--out", "coin.json"],
        ["spend", "--dir", "led", "--coin", "coin.json", "--signer-key", "alice.key"],
        # the spend signed a checkpoint, so this listing checks its digest
        ["audit-log", "--dir", "led"],
    ]
    for args in session:
        code, ours, crypto, exact, hashing = _call(["ledger", *args], workdir)
        assert code == 0, args
        assert ours == LEDGER, args
        assert crypto, args
        assert exact == set() and hashing == set(), args
    assert (workdir / "led" / "log.jsonl.checkpoint").exists()


def test_package_names_resolve_on_first_access():
    code = """
import importlib, pkgutil, sys
import auditgame
assert [m for m in sys.modules if m.startswith("auditgame.")] == [], sorted(sys.modules)
for name in auditgame.__all__:
    obj = getattr(auditgame, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
submodules = [m.name for m in pkgutil.iter_modules(auditgame.__path__)]
assert len(submodules) >= 11, submodules
for name in submodules:
    assert getattr(auditgame, name) is importlib.import_module("auditgame." + name), name
assert set(auditgame.__all__) | set(submodules) <= set(dir(auditgame))
namespace = {}
exec("from auditgame import *", namespace)
assert set(namespace) - {"__builtins__"} == set(auditgame.__all__)
# signaling_equilibrium is the one dispatcher; the second one is gone
for name in ("no_such_name", "budgeted_two_type_equilibrium"):
    assert name not in auditgame.__all__ and name not in dir(auditgame), name
    try:
        getattr(auditgame, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"auditgame.{name} resolved")
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(auditgame.__path__)))
def test_each_submodule_resolves_as_a_package_attribute(name):
    # alone in a fresh interpreter, where no other import has set the attribute
    code = ("import sys, auditgame\n"
            "assert getattr(auditgame, sys.argv[1]) is sys.modules['auditgame.' + sys.argv[1]]\n")
    proc = _python(code, name)
    assert proc.returncode == 0, proc.stderr


# Each module's package imports (`cli` and the package aside), leaving out
# those that another one listed already loads.
IMPORTS = {
    "errors": (), "record": (), "numeric": ("errors",), "ledger": ("errors", "record"),
    "core": ("errors", "numeric", "record"), "casestudy": ("core",), "bounds": ("core",),
    "lp": ("core",), "equilibrium": ("bounds", "lp"), "cost": ("equilibrium",),
    "oracle": ("bounds",),
}


def _chain(name):
    """`name` and every module it imports, directly or not."""
    found = {name}
    for dep in IMPORTS[name]:
        found |= _chain(dep)
    return found


# Imports one module alone, then calls each of its public functions on a
# two-user two-type game whose budget binds and on a three-type game without
# a budget, whatever the call raises, and prints this package's modules
# loaded after the import and after the calls.
ALONE = """
import importlib, inspect, json, sys
from fractions import Fraction
def ours():
    return sorted(m[len("auditgame."):] for m in sys.modules if m.startswith("auditgame."))
module = importlib.import_module("auditgame." + sys.argv[1])
imported = ours()
from auditgame.core import GameConfig
games = (GameConfig(("low", "high"), (Fraction(1, 2), Fraction(1, 2)), (50, 105), 25, 100,
                    budget=3, num_users=2),
         GameConfig(("a", "b", "c"), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
                    (3, 2, 2), 3, 3))
for name, fn in vars(module).items():
    if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
        for game in games:
            try:
                fn(game)
            except Exception:
                pass
print(json.dumps([imported, ours()]))
"""


@pytest.mark.parametrize("name", sorted(IMPORTS))
def test_a_module_imported_alone_loads_exactly_its_chain(name):
    proc = _python(ALONE, name)
    assert proc.returncode == 0, proc.stderr
    imported, called = json.loads(proc.stdout.splitlines()[-1])
    assert imported == sorted(_chain(name))
    # the calls load nothing beyond the import and the `core` that builds the games
    assert called == sorted(_chain(name) | _chain("core"))


def _package_imports(tree):
    """(node, imported names) of each import of this package in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "auditgame"
                                                 or node.module.startswith("auditgame.")):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "auditgame"]
            if names:
                yield node, names


def test_package_imports_sit_at_module_level_and_name_no_private_names():
    """`cli` loads each handler's modules on demand and the package's
    `__getattr__` loads each submodule on first access; every other module
    imports the package at its top, and only public names."""
    problems = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)
        if module in ("cli.py", "__init__.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, names in _package_imports(tree):
            if node not in tree.body:
                problems.append(f"{module}:{node.lineno} imports inside a function")
            problems += [f"{module}:{node.lineno} imports {name}" for name in names
                         if name.startswith("_")]
    assert problems == []


# The library's homes of the payoff rules, which the grid oracle must not
# use: it checks them.
PAYOFF_HOMES = {"signal_payoff", "audit_margin", "audit_margins", "audit_margin_coef",
                "user_utility_type", "best_response", "integer_game"}


def test_the_grid_oracle_names_none_of_the_library_payoff_homes():
    """`tests/reference_oracle.py` recomputes every payoff itself, so that
    it stays an independent check of the library's."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_oracle.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name.split(".")[-1], node.asname}
    assert names & PAYOFF_HOMES == set()
