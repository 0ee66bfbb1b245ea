"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import json
import os
import random
import shutil
import sys
import tracemalloc
from fractions import Fraction

import pytest

from auditgame import casestudy, equilibrium
from auditgame.cli import _grid, _spec_with_overrides, main, parse_args

CFG_A = """\
types = low, high
prior = 1/2, 1/2
alloc = low: 50, high: 105
audit_cost = 25
fine = 100
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "game.cfg"
    path.write_text(CFG_A)
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve(cfg_file, capsys):
    for config in (["--config", cfg_file], ["--config=" + cfg_file]):
        code, out, _ = run(["solve"] + config, capsys)
        assert code == 0
        assert "strategy_exact[low]: 21/26,5/26" in out
        assert "audit: 0,0" in out


@pytest.mark.parametrize("args", [
    [],
    ["frobnicate"],
    ["ledger"],
    ["solve", "--config", "x", "--bogus", "1"],
    ["solve", "--config"],
    ["solve"],
    ["verify", "--config", "x", "--resolution", "abc"],
    ["ledger", "keygen", "--out", "k", "--scheme", "rsa"],
    ["bounds", "--config", "x", "--format", "xml"],
])
def test_usage_errors_are_input_errors(args, capsys):
    # exit 2 would say that the budget regime rules the request out
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["ledger", "spend", "--help"]])
def test_help_prints_the_readme_cli_block(args, capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    readme = open(path, encoding="utf-8").read()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```\n", 1)[0]
    assert run(args, capsys) == (0, block, "")


def test_solve_nonexistence_exit_2(tmp_path, capsys):
    path = tmp_path / "broke.cfg"
    path.write_text(CFG_A + "budget = 3\nnum_users = 2\n")
    code, _, err = run(["solve", "--config", str(path)], capsys)
    assert code == 2
    assert "5775/806" in err          # names the two-type threshold


def test_solve_and_verify_zero_budget_two_users(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(CFG_A + "budget = 0\nnum_users = 2\n")
    code, out, err = run(["solve", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "audit: 0,0" in lines and "strategy_exact[low]: 0,1" in lines
    code, out, err = run(["verify", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "passed: true" in lines and "max_gain[low]: 0" in lines


@pytest.mark.filterwarnings("error")
def test_a_zero_prior_type_is_solved_quietly_and_printed_as_its_best_reply(tmp_path, capsys):
    path = tmp_path / "zero-prior.cfg"
    path.write_text("types = a, b, c\nprior = 0, 1/2, 1/2\nalloc = a: 5, b: 10, c: 20\n"
                    "audit_cost = 5\nfine = 30\n")
    for command in ("solve", "verify", "cost"):
        code, out, err = run([command, "--config", str(path)], capsys)
        assert (code, err) == (0, ""), command
        if command == "solve":   # a claims the top credit, c's
            assert "strategy_exact[a]: 0,0,1" in out.splitlines()
        if command == "verify":
            assert "passed: true" in out.splitlines()


def test_solve_n_type_nonexistence_names_only_the_coalition_threshold(tmp_path, capsys):
    path = tmp_path / "three.cfg"
    path.write_text("types = a, b, c\nprior = 1/3, 1/3, 1/3\nalloc = a: 10, b: 20, c: 40\n"
                    "audit_cost = 5\nfine = 30\nbudget = 1\n")
    code, out, err = run(["solve", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("regime error: no signaling equilibrium: budget 1 lies below the "
                   "coalition-scaled existence threshold 5/2\n")


def test_input_error_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "none.cfg")
    code, _, err = run(["solve", "--config", missing], capsys)
    assert (code, err) == (1, f"input error: config file {missing!r} does not exist\n")
    code, _, err = run(["solve", "--config", str(tmp_path)], capsys)   # a directory
    assert (code, err) == (1, f"input error: cannot read config file {str(tmp_path)!r}: "
                              "Is a directory\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG_A.replace("fine = 100", "fine = 10"))
    code, _, err = run(["solve", "--config", str(bad)], capsys)
    assert code == 1 and "audit cost" in err


def test_bounds_csv(cfg_file, capsys):
    code, out, _ = run(["bounds", "--config", cfg_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "signal,truth,cap"
    assert "high,low,0.192307692307692" in lines


def test_bounds_text_marks_binding_pairs(cfg_file, capsys):
    code, out, _ = run(["bounds", "--config", cfg_file, "--format", "text"], capsys)
    assert code == 0
    assert "excess_cap: 8.87096774193548" in out
    assert "binding: high|low" in out


def test_bounds_prints_no_caps_where_the_budget_binds(tmp_path, capsys, monkeypatch):
    # no caps apply, so no equilibrium is solved for to mark them
    def solve(cfg):
        raise AssertionError("bounds solved a game whose budget binds")
    monkeypatch.setattr(equilibrium, "signaling_equilibrium", solve)
    path = tmp_path / "tight.cfg"
    # one user and budget 1, below the two-type threshold 5775/806; and
    # budget 1, below the three-type coalition threshold 5/2
    for game in (CFG_A + "budget = 1\n",
                 "types = a, b, c\nprior = 1/3, 1/3, 1/3\nalloc = a: 10, b: 20, c: 40\n"
                 "audit_cost = 5\nfine = 30\nbudget = 1\n"):
        path.write_text(game)
        for fmt in ("csv", "text"):
            assert run(["bounds", "--config", str(path), "--format", fmt], capsys) == (
                0, "caps: do not apply at this budget, which holds audits back\n", ""), game


def test_a_game_with_one_type_of_positive_probability_is_solved_and_bounded(tmp_path, capsys):
    # a stays truthful and b and z claim the top credit; both formats give
    # the same caps, and the solve verifies
    path = tmp_path / "one.cfg"
    path.write_text("types = a, b, z\nprior = 1, 0, 0\nalloc = a: 50, b: 105, z: 3\n"
                    "audit_cost = 25\nfine = 100\n")
    code, out, err = run(["solve", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    for row in ("strategy_exact[a]: 1,0,0", "strategy_exact[b]: 0,1,0",
                "strategy_exact[z]: 0,1,0", "excess_exact: 0"):
        assert row in out.splitlines()
    code, out, err = run(["verify", "--config", str(path)], capsys)
    assert (code, err) == (0, "") and "passed: true" in out.splitlines()
    caps = {}
    for fmt in ("csv", "text"):
        code, out, err = run(["bounds", "--config", str(path), "--format", fmt], capsys)
        assert (code, err) == (0, ""), fmt
        caps[fmt] = out.splitlines()
    assert [f"cap[{s}|{m}]: {cap}" for s, m, cap in (row.split(",") for row in caps["csv"][1:])] \
        == [line for line in caps["text"] if line.startswith("cap[")]


def test_cost_output(cfg_file, capsys):
    code, out, _ = run(["cost", "--config", cfg_file], capsys)
    assert code == 0
    assert "dominates: true" in out


def test_three_type_cost_ignores_the_configured_budget(tmp_path, capsys):
    # budgets 0 and 1 lie below the general existence threshold 5/2
    game = ("types = a, b, c\nprior = 1/3, 1/3, 1/3\nalloc = a: 10, b: 20, c: 40\n"
            "audit_cost = 5\nfine = 30\n")
    outputs = []
    for budget in ("", "budget = 0\n", "budget = 1\n"):
        path = tmp_path / "three.cfg"
        path.write_text(game + budget)
        code, out, err = run(["cost", "--config", str(path)], capsys)
        assert code == 0 and err == ""
        outputs.append(out)
    assert "cost_audit: 3.88528138528139\n" in outputs[0]
    assert outputs[1] == outputs[2] == outputs[0]


def test_cost_on_a_prior_summing_to_one_within_tolerance(tmp_path, capsys):
    path = tmp_path / "tolerance.cfg"
    path.write_text(CFG_A.replace("prior = 1/2, 1/2", "prior = 0.25, 0.7500000000001"))
    code, out, err = run(["cost", "--config", str(path)], capsys)
    assert code == 0 and err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "cost_no_audit", "cost_audit", "budget_component", "excess_component", "dominates"]
    assert "dominates: true" in out


def test_sweep_and_surface_files(tmp_path, capsys):
    out_csv = str(tmp_path / "costs.csv")
    code, _, _ = run(["sweep", "--out", out_csv, "--qmin-grid", "0.25,0.5",
                      "--c-grid", "25", "--k-grid", "100", "--coalition", "1"], capsys)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("q_min,c,k,l,cost_no_audit")
    assert len(lines) == 3

    surf_csv = str(tmp_path / "surface.csv")
    code, _, _ = run(["surface", "--out", surf_csv], capsys)
    assert code == 0
    lines = open(surf_csv).read().splitlines()
    assert len(lines) == 181
    assert "0.25,25,100,0.576923076923077" in lines


def _random_grid_args(rng):
    """A seeded random two-type game and sweep flags, some of whose grids
    span several batches of rows."""
    def values(count, draw):
        return ",".join(str(draw()) for _ in range(count))
    low = rng.randint(0, 120)
    game = CFG_A.replace("low: 50, high: 105", f"low: {low}, high: {low + rng.randint(0, 80)}")
    game += f"num_users = {rng.choice((1, 3, 4000))}\n"
    prior = lambda: Fraction(rng.randint(1, 999), 1000)
    amount = lambda: Fraction(rng.randint(0, 600), rng.choice((1, 3)))
    return game, [
        "--qmin-grid", values(rng.choice((1, 5, 60, 400)), prior),
        "--c-grid", values(rng.randint(1, 3), amount),
        "--k-grid", values(rng.randint(1, 3), amount),
        "--coalition", values(rng.randint(1, 2), lambda: rng.randint(1, 9)),
    ]


def _stream_cases():
    fine = ",".join(f"{i}/1000" for i in range(1, 1000))
    percent = ",".join(f"{i}/100" for i in range(1, 100))
    yield "sweep", None, []
    yield "surface", None, []
    yield "sweep", None, ["--qmin-grid", fine]
    yield "surface", None, ["--qmin-grid", percent]
    rng = random.Random(24)
    for i in range(50):
        yield ("sweep", "surface")[i % 2], *_random_grid_args(rng)


def test_streamed_output_and_out_file_are_the_library_csv(tmp_path, capsys):
    # the CLI writes a table batch by batch; stdout and --out hold what
    # `costs_csv` and `surface_csv` return, in both modes
    tables = {"sweep": (casestudy.ftbp_preset, casestudy.costs_csv),
              "surface": (casestudy.surface_preset, casestudy.surface_csv)}
    config = tmp_path / "game.cfg"
    target = tmp_path / "table.csv"
    for command, game, args in _stream_cases():
        if game is not None:
            config.write_text(game)
            args = args + ["--config", str(config)]
        preset, text = tables[command]
        spec = _spec_with_overrides(parse_args([command] + args), preset())
        expected = text(spec)
        for mode in ("rational", "float"):
            code, out, err = run([command, "--mode", mode] + args, capsys)
            assert (code, err) == (0, "") and out == expected
            code, out, err = run([command, "--mode", mode, "--out", str(target)] + args, capsys)
            assert (code, out, err) == (0, "", "")
            assert target.read_text(encoding="utf-8") == expected
            target.unlink()


def test_a_sweep_that_overflows_late_prints_nothing(tmp_path, capsys):
    # 2*n*df reaches the float range, so the whole table is computed before
    # any of it is written; the no-audit cost n*q*df overflows only from
    # q_min = 1/2 on, after 49 q_min values and 882 rows
    path = tmp_path / "many.cfg"
    path.write_text(CFG_A + f"num_users = {66 * 10**305}\n")
    below = ",".join(f"{i}/100" for i in range(1, 50))
    code, out, _ = run(["sweep", "--config", str(path), "--qmin-grid", below], capsys)
    assert code == 0 and out.count("\n") == 1 + 49 * 18
    target = tmp_path / "costs.csv"
    for mode in ("rational", "float"):
        for out_flag in ([], ["--out", str(target)]):
            code, out, err = run(["sweep", "--config", str(path), "--mode", mode] + out_flag,
                                 capsys)
            assert code == 1 and out == ""
            assert err == ("input error: a number of magnitude 1.8e308 or more is beyond the"
                           " float range\n")
            assert not target.exists()
    code, out, err = run(["sweep", "--c-grid", "1e400", "--out", str(target)], capsys)
    assert code == 1 and out == "" and err.startswith("input error: ")
    assert not target.exists()


class _Discard:
    def write(self, text):
        return len(text)

    def writelines(self, texts):
        for _ in texts:
            pass


def test_a_long_sweep_writes_in_memory_that_does_not_grow_with_the_q_min_grid(monkeypatch):
    # 9,999 q_min values and 19,998 rows, about 1.4 MB of text: the call's
    # traced peak stays within 1 MB of what the spec alone takes
    grid = ",".join(f"{i}/10000" for i in range(1, 10000))
    args = ["sweep", "--qmin-grid", grid, "--c-grid", "25", "--k-grid", "100"]
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        spec = casestudy.ftbp_preset().replace(q_min_grid=_grid(grid))
        spec_bytes = tracemalloc.get_traced_memory()[0]
        del spec
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < spec_bytes + 2**20


def test_outputs_are_byte_identical(cfg_file, tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    run(["solve", "--config", cfg_file, "--out", a], capsys)
    run(["solve", "--config", cfg_file, "--out", b], capsys)
    assert open(a, "rb").read() == open(b, "rb").read()
    sa, sb = str(tmp_path / "sa.csv"), str(tmp_path / "sb.csv")
    run(["surface", "--out", sa], capsys)
    run(["surface", "--out", sb], capsys)
    assert open(sa, "rb").read() == open(sb, "rb").read()


def test_verify_command(cfg_file, capsys):
    code, out, _ = run(["verify", "--config", cfg_file, "--resolution", "100"], capsys)
    assert code == 0
    assert "passed: true" in out


def test_verify_huge_resolution_is_immediate(cfg_file, capsys):
    """The best grid deviation is found without walking the grid, so a
    resolution of 10^12 answers as fast as the default."""
    code, out, _ = run(["verify", "--config", cfg_file, "--resolution", str(10**12)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "passed: true" in lines
    assert "grid_slack: 1.55e-10" in lines  # (df_max + k) / res = 155 / 10^12


def test_probe_command(tmp_path, capsys):
    path = tmp_path / "probe.cfg"
    path.write_text(CFG_A + "budget = 3\nnum_users = 2\n")
    code, out, _ = run(["probe", "--config", str(path), "--resolution", "40"], capsys)
    assert code == 0
    assert "fraction_certified: 1" in out


def test_probe_huge_resolution_is_immediate(tmp_path, capsys):
    """The probe certifies whole regions of profiles, so it never walks the
    10^24 profiles of a resolution of 10^12."""
    path = tmp_path / "probe.cfg"
    path.write_text(CFG_A + "budget = 3\nnum_users = 2\n")
    code, out, _ = run(["probe", "--config", str(path), "--resolution", str(10**12)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "profiles: 1000000000002000000000001" in lines
    assert "fraction_certified: 1" in lines


def test_probe_outside_region_is_input_error(tmp_path, capsys):
    path = tmp_path / "probe.cfg"
    path.write_text(CFG_A + "budget = 8\nnum_users = 2\n")
    code, _, err = run(["probe", "--config", str(path), "--resolution", "40"], capsys)
    assert code == 1 and "threshold" in err


def test_ledger_cli_roundtrip(tmp_path, capsys):
    led = str(tmp_path / "led")
    alice = str(tmp_path / "alice.key")
    coin = str(tmp_path / "coin.json")
    code, out, _ = run(["ledger", "keygen", "--out", alice], capsys)
    assert code == 0 and "public_key:" in out
    assert (os.stat(alice).st_mode & 0o777) == 0o600

    code, _, _ = run(["ledger", "mint", "--dir", led, "--recipient-key", alice, "--coin-id", "1",
                      "--out", coin], capsys)
    assert code == 0
    assert json.load(open(coin))["metadata"]["coin_id"] == 1

    code, out, _ = run(["ledger", "spend", "--dir", led, "--coin", coin, "--signer-key", alice],
                       capsys)
    assert code == 0 and "approved" in out

    code, out, _ = run(["ledger", "spend", "--dir", led, "--coin", coin, "--signer-key", alice],
                       capsys)
    assert code == 1 and "double-spend" in out

    code, out, _ = run(["ledger", "audit-log", "--dir", led], capsys)
    assert code == 0
    assert "verified=true" in out and "total: 1" in out


@pytest.mark.parametrize("existing", [False, True])
def test_key_files_are_private_from_their_first_byte(tmp_path, capsys, monkeypatch, existing):
    """Under umask 022 a key file is mode 0600 when the first byte of its
    secret is written: from `keygen --out`, over an existing 0644 file
    too, and a new ledger's admin.key from `mint`."""
    from auditgame import cli
    real_open = open
    first_write = {}   # inode -> its mode when the first byte was written

    class Recording:
        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

        def write(self, text):
            if text:
                st = os.fstat(self._fh.fileno())
                first_write.setdefault(st.st_ino, st.st_mode & 0o777)
            return self._fh.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    alice, led = tmp_path / "alice.key", tmp_path / "led"
    if existing:
        alice.write_text("old\n")
        alice.chmod(0o644)
    monkeypatch.setattr(cli, "open", lambda *a, **kw: Recording(real_open(*a, **kw)),
                        raising=False)
    old_umask = os.umask(0o022)
    try:
        assert run(["ledger", "keygen", "--out", str(alice)], capsys)[0] == 0
        assert run(["ledger", "mint", "--dir", str(led), "--recipient-key", str(alice),
                    "--coin-id", "1", "--out", str(tmp_path / "coin.json")], capsys)[0] == 0
    finally:
        os.umask(old_umask)
    for path in (alice, led / "admin.key"):
        st = os.stat(path)
        assert first_write[st.st_ino] == st.st_mode & 0o777 == 0o600, path
        assert len(path.read_text().splitlines()) == 2


def test_unreadable_inputs_are_input_errors(tmp_path, capsys):
    def assert_input_error(args):
        code, _, err = run(args, capsys)
        assert code == 1
        assert err.startswith("input error: ") and err.count("\n") == 1

    assert_input_error(["solve", "--config", str(tmp_path)])   # a directory

    led = str(tmp_path / "led")
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    assert_input_error(["ledger", "spend", "--dir", led, "--coin", str(tmp_path / "missing.json"),
                        "--signer-key", alice])
    assert not (tmp_path / "led").exists()   # a rejected input creates no ledger
    not_a_coin = tmp_path / "coin.json"
    not_a_coin.write_text('{"owner_pk": "zz"}\n')
    assert_input_error(["ledger", "spend", "--dir", led, "--coin", str(not_a_coin),
                        "--signer-key", alice])

    bad_hex = tmp_path / "bad.key"
    bad_hex.write_text("not hex\nalso not hex\n")
    assert_input_error(["ledger", "mint", "--dir", led, "--recipient-key", str(bad_hex),
                        "--coin-id", "1", "--out", str(tmp_path / "c.json")])


def test_a_secret_key_that_cannot_sign_is_an_input_error(tmp_path, capsys):
    alice, led, coin = (str(tmp_path / name) for name in ("alice.key", "led", "c1.json"))
    run(["ledger", "keygen", "--out", alice], capsys)
    mint = ["ledger", "mint", "--dir", led, "--recipient-key", alice, "--coin-id"]
    assert run(mint + ["1", "--out", coin], capsys)[0] == 0

    def assert_key_error(args, key):
        code, out, err = run(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"input error: key file {key!r} holds a secret key that "
                              "cannot sign: ") and err.count("\n") == 1

    short = str(tmp_path / "short.key")
    with open(short, "w") as fh:
        fh.write("00\n00\n")
    spend = ["ledger", "spend", "--dir", led, "--coin", coin, "--signer-key"]
    assert_key_error(spend + [short], short)
    assert not os.path.exists(os.path.join(led, "log.jsonl"))   # nothing was approved
    # an administrator key whose secret line is short cannot mint ...
    admin = os.path.join(led, "admin.key")
    public = open(admin).read().splitlines()[1]
    with open(admin, "w") as fh:
        fh.write(f"00\n{public}\n")
    assert_key_error(mint + ["2", "--out", str(tmp_path / "c2.json")], admin)
    assert not (tmp_path / "c2.json").exists()
    # ... but a spend and a listing need only its public key, and sign no checkpoint
    assert run(spend + [alice], capsys)[:2] == (0, "approved\n")
    code, out, err = run(["ledger", "audit-log", "--dir", led], capsys)
    assert code == 0 and err == "" and out.endswith("total: 1\n")
    assert not os.path.exists(os.path.join(led, "log.jsonl.checkpoint"))


@pytest.mark.parametrize("args", [
    ["sweep", "--qmin-grid", "1/2", "--c-grid", "-5", "--k-grid", "-55"],
    ["sweep", "--coalition", "-3"],
    ["sweep", "--coalition", "0"],
    ["surface", "--c-grid", "-5", "--k-grid", "-55"],
    ["surface", "--c-grid", "-5"],
    ["sweep", "--qmin-grid", "abc"],
    ["sweep", "--coalition", "x"],
    ["sweep", "--k-grid", "1/0"],
    ["sweep", "--k-grid", "-5"],
    ["surface", "--k-grid", "-5"],
])
def test_invalid_sweep_grids_are_input_errors(args, capsys):
    for mode in ("rational", "float"):
        code, out, err = run(args + ["--mode", mode], capsys)
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert ("audit cost must be non-negative" in err) == ("--c-grid" in args)
        assert ("fine must be non-negative" in err) == (args[-2:] == ["--k-grid", "-5"])


@pytest.mark.parametrize("command", ["sweep", "surface"])
def test_an_unknown_mode_is_an_input_error(command, tmp_path, capsys):
    # exit 2 would say that the budget regime rules the request out
    target = tmp_path / "out.csv"
    code, out, err = run([command, "--mode", "bogus", "--out", str(target)], capsys)
    assert code == 1 and out == ""
    assert err == ("input error: unknown numeric mode 'bogus'; "
                   "expected one of ('rational', 'float')\n")
    assert not target.exists()


def test_audit_log_rejects_a_tampered_record(tmp_path, capsys):
    led = str(tmp_path / "led")
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    for coin_id in (1, 2):
        coin = str(tmp_path / f"coin{coin_id}.json")
        code, _, _ = run(["ledger", "mint", "--dir", led, "--recipient-key", alice,
                          "--coin-id", str(coin_id), "--out", coin], capsys)
        assert code == 0
        code, out, _ = run(["ledger", "spend", "--dir", led, "--coin", coin,
                            "--signer-key", alice], capsys)
        assert code == 0 and out == "approved\n"
    code, out, _ = run(["ledger", "audit-log", "--dir", led], capsys)
    assert code == 0 and out.count("verified=true") == 2 and out.endswith("total: 2\n")

    log = tmp_path / "led" / "log.jsonl"
    lines = log.read_text().splitlines()
    log.write_text(lines[0] + "\n" + lines[1][:len(lines[1]) // 2])   # a torn last line
    code, out, err = run(["ledger", "audit-log", "--dir", led], capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: log line 2 is not a receipt record: JSONDecodeError")
    assert err.count("\n") == 1

    record = json.loads(lines[1])
    record["price"] += 1
    lines[1] = json.dumps(record)
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run(["ledger", "audit-log", "--dir", led], capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: log line 2 fails re-verification")
    assert err.count("\n") == 1


def test_a_coin_id_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    # JSON reads 1e400 as inf, which no int holds
    alice = _small_ledger(tmp_path, capsys, coins=2)
    coin = tmp_path / "inf.json"
    text = (tmp_path / "coin2.json").read_text()
    assert '"coin_id": 2,' in text
    coin.write_text(text.replace('"coin_id": 2,', '"coin_id": 1e400,'))
    code, out, err = run(["ledger", "spend", "--dir", str(tmp_path / "led"), "--coin", str(coin),
                          "--signer-key", alice], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"input error: coin file {str(coin)!r} does not hold a coin: "
                          "OverflowError")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["audit-log", "spend"])
def test_a_logged_price_beyond_the_float_range_is_an_input_error(command, tmp_path, capsys):
    alice = _small_ledger(tmp_path, capsys, coins=2)
    led = tmp_path / "led"
    assert (led / "log.jsonl.checkpoint").exists()
    log = led / "log.jsonl"
    line = log.read_text().splitlines()[0]
    assert '"price":1,' in line
    with open(log, "a") as fh:   # a line after the checkpoint's prefix
        fh.write(line.replace('"price":1,', '"price":1e400,') + "\n")
    args = {"audit-log": [],
            "spend": ["--coin", str(tmp_path / "coin2.json"), "--signer-key", alice]}[command]
    code, out, err = run(["ledger", command, "--dir", str(led)] + args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: log line 2 is not a receipt record: OverflowError")
    assert err.count("\n") == 1 and "Traceback" not in err


NESTED = "[" * 100_000   # nested deeper than any JSON parse can go


def test_a_nested_coin_file_is_an_input_error(tmp_path, capsys):
    alice = _small_ledger(tmp_path, capsys, coins=1)
    coin = tmp_path / "nested.json"
    coin.write_text(NESTED)
    code, out, err = run(["ledger", "spend", "--dir", str(tmp_path / "led"), "--coin", str(coin),
                          "--signer-key", alice], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"input error: coin file {str(coin)!r} does not hold a coin: "
                          "RecursionError(")
    assert err.count("\n") == 1


def _sign_whole_log(led):
    """Sign a checkpoint over the whole log of `led` with its admin key,
    keeping the spent map of the one there."""
    import hashlib
    from auditgame import ledger as lg
    sk = bytes.fromhex((led / "admin.key").read_text().split()[0])
    data = (led / "log.jsonl").read_bytes()
    spent = json.loads((led / "log.jsonl.checkpoint").read_text())["spent"]
    digest = hashlib.sha256(data).hexdigest()
    sig = lg.Ed25519Scheme().sign(sk, lg._checkpoint_message(len(data), digest, spent))
    (led / "log.jsonl.checkpoint").write_text(json.dumps(
        {"bytes": len(data), "sha256": digest, "sig": sig.hex(), "spent": spent}))


@pytest.mark.parametrize("command, where", [
    ("audit-log", "after-checkpoint"), ("spend", "after-checkpoint"),
    ("audit-log", "inside-checkpoint"), ("spend", "inside-checkpoint"),
])
def test_a_nested_log_line_is_an_input_error(command, where, tmp_path, capsys):
    # inside a checkpoint only a listing parses it: `spend` honours the
    # checkpoint, `audit-log` voids it and reports the line as after one
    alice = _small_ledger(tmp_path, capsys, coins=2)
    led = tmp_path / "led"
    assert (led / "log.jsonl.checkpoint").exists()
    with open(led / "log.jsonl", "a") as fh:
        fh.write(NESTED + "\n")
    if where == "inside-checkpoint":
        _sign_whole_log(led)
    args = {"audit-log": [],
            "spend": ["--coin", str(tmp_path / "coin2.json"), "--signer-key", alice]}[command]
    code, out, err = run(["ledger", command, "--dir", str(led)] + args, capsys)
    if (command, where) == ("spend", "inside-checkpoint"):
        assert (code, out, err) == (0, "approved\n", "")
        return
    assert code == 1 and out == ""
    assert err.startswith("input error: log line 2 is not a receipt record: RecursionError(")
    assert err.count("\n") == 1


def test_a_nested_checkpoint_is_ignored(tmp_path, capsys):
    _small_ledger(tmp_path, capsys, coins=1)
    led = tmp_path / "led"
    (led / "log.jsonl.checkpoint").write_text(NESTED)
    code, out, err = run(["ledger", "audit-log", "--dir", str(led)], capsys)
    assert (code, err) == (0, "") and out.endswith("\ntotal: 1\n")


def test_mint_refuses_a_log_without_its_admin_key(tmp_path, capsys):
    # a new admin key would verify no coin of the log, and every later call
    # would fail: the mint is refused and writes nothing
    alice = _small_ledger(tmp_path, capsys, coins=1)
    led = tmp_path / "led"
    (led / "admin.key").unlink()
    files = {path.name: path.read_bytes() for path in led.iterdir()}
    coin = tmp_path / "new.json"
    code, out, err = run(["ledger", "mint", "--dir", str(led), "--recipient-key", alice,
                          "--coin-id", "9", "--out", str(coin)], capsys)
    assert (code, out) == (1, "")
    assert err == "input error: log line 1 fails re-verification: invalid-coin\n"
    assert not coin.exists()
    assert {path.name: path.read_bytes() for path in led.iterdir()} == files


def test_audit_log_lists_a_checkpointed_prefix_as_a_full_verify_does(tmp_path, capsys):
    from auditgame import ledger as lg
    scheme = lg.Ed25519Scheme()
    led = tmp_path / "led"
    led.mkdir()
    log = str(led / "log.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    (led / "admin.key").write_text(f"{state._admin_sk.hex()}\n{state.admin_pk.hex()}\n")
    sk, pk = lg.keygen(scheme)
    for i, goods in enumerate(["g0", "café ☕", 'say "hi"'] * 4):
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods=goods, price=i, coins=(coin,))
        assert state.finalize_spend(lg.sign_receipt(scheme, sk, raw, state.begin_spend(raw)))
    expected = "".join(f"{i}: goods={goods!r} price={i} coins=[{i}] verified=true\n"
                       for i, goods in enumerate(["g0", "café ☕", 'say "hi"'] * 4)) + "total: 12\n"
    audit = ["ledger", "audit-log", "--dir", str(led)]
    # under the session's checkpoint, under the one the first call signs
    # over the whole log, and under none
    outputs = [run(audit, capsys), run(audit, capsys)]
    os.remove(log + ".checkpoint")
    outputs.append(run(audit, capsys))
    assert outputs == [(0, expected, "")] * 3


def test_unwritable_outputs_are_input_errors(cfg_file, tmp_path, capsys):
    missing_dir = tmp_path / "missing"
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    for what, args in (
        ("output file", ["solve", "--config", cfg_file]),
        ("key file", ["ledger", "keygen"]),
        ("coin file", ["ledger", "mint", "--dir", str(tmp_path / "led"), "--recipient-key",
                       alice, "--coin-id", "1"]),
    ):
        target = str(missing_dir / "x.txt")
        code, out, err = run(args + ["--out", target], capsys)
        assert code == 1
        assert err == f"input error: cannot write {what} {target!r}: No such file or directory\n"
        assert "public_key" not in out and "minted" not in out
    assert not missing_dir.exists()
    led = str(tmp_path / "alice.key" / "led")   # under a regular file
    code, _, err = run(["ledger", "mint", "--dir", led, "--recipient-key",
                        alice, "--coin-id", "1", "--out", str(tmp_path / "c.json")], capsys)
    assert code == 1
    assert err == f"input error: cannot create ledger directory {led!r}: Not a directory\n"


def test_failed_mint_leaves_no_ledger(tmp_path, capsys):
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    led = tmp_path / "led"
    mint = ["ledger", "mint", "--dir", str(led), "--recipient-key", alice, "--coin-id", "1",
            "--out"]
    code, out, err = run(mint + [str(tmp_path / "missing" / "c.json")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: cannot write coin file ")
    assert not led.exists()
    # a coin file inside the new ledger directory still works
    code, out, _ = run(mint + [str(led / "c.json")], capsys)
    assert code == 0 and out.startswith("minted coin 1 for ")
    assert sorted(p.name for p in led.iterdir()) == ["admin.key", "c.json"]
    # a ledger directory that cannot be made takes no coin file with it
    bad_dir = ["--dir", str(tmp_path / "alice.key" / "led")]
    code, _, err = run(mint[:2] + bad_dir + mint[4:] + [str(tmp_path / "d.json")], capsys)
    assert code == 1 and "cannot create ledger directory" in err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("existing", [[], ["new"]], ids=["none", "empty-parent"])
def test_a_failed_mint_removes_exactly_the_directories_it_made(existing, tmp_path, capsys):
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    for name in existing:
        (tmp_path / name).mkdir()
    code, out, err = run(["ledger", "mint", "--dir", str(tmp_path / "new" / "x" / "y"),
                          "--recipient-key", alice, "--coin-id", "1",
                          "--out", str(tmp_path / "missing" / "c.json")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: cannot write coin file ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["alice.key"] + existing)
    for name in existing:
        assert list((tmp_path / name).iterdir()) == []


@pytest.mark.parametrize("args, flag, made", [
    (["keygen", "--out", "k.key", "--scheme", "toy"], "--scheme", "k.key"),
    (["audit-log", "--dir", "d", "--seed", "1"], "--seed", "d"),
], ids=["keygen-scheme", "audit-log-seed"])
def test_the_scheme_and_seed_flags_are_usage_errors(args, flag, made, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["ledger"] + args, capsys)
    assert (code, out) == (1, "")
    assert err == f"input error: ledger {args[0]}: unknown flag {flag!r}\n"
    assert not (tmp_path / made).exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--c-grid", "1e400", "--mode", "rational"],
    ["sweep", "--c-grid", "1e400", "--mode", "float"],
    ["surface", "--k-grid", "1e400", "--mode", "rational"],
    ["surface", "--k-grid", "1e400", "--mode", "float"],
    ["solve"],
    ["cost"],
    ["verify"],
])
def test_values_beyond_the_float_range_are_input_errors(args, tmp_path, capsys):
    if len(args) == 1:
        path = tmp_path / "huge.cfg"
        path.write_text(CFG_A.replace("low: 50, high: 105", "low: 49, high: 1e400"))
        args = args + ["--config", str(path)]
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert err == "input error: a number of magnitude 1.8e308 or more is beyond the float range\n"


@pytest.mark.parametrize("command", ["audit-log", "spend"])
def test_read_only_ledger_commands_create_no_ledger(command, tmp_path, capsys):
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    args = ["ledger", command]
    if command == "spend":
        coin = str(tmp_path / "coin.json")
        code, _, _ = run(["ledger", "mint", "--dir", str(tmp_path / "elsewhere"),
                          "--recipient-key", alice, "--coin-id", "1", "--out", coin], capsys)
        assert code == 0
        args += ["--coin", coin, "--signer-key", alice]
    fresh = tmp_path / "fresh"
    code, out, err = run(args + ["--dir", str(fresh)], capsys)
    assert code == 1 and out == ""
    assert err == f"input error: no ledger in {str(fresh)!r}\n"
    assert not fresh.exists()


def test_sweep_at_a_misreport_probability_of_one_has_a_zero_budget(capsys):
    # c * df overflows a float here; the budget is 0 since 1 - p is
    args = ["sweep", "--qmin-grid", "1/2", "--c-grid", "1e307", "--k-grid", "1e307",
            "--coalition", "150"]
    for mode in ("rational", "float"):
        code, out, err = run(args + ["--mode", mode], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "0.5,1e+307,1e+307,150,110000,110000,0,110000,true,83333"


def test_a_sweep_row_that_overflows_in_floats_prints_its_exact_costs_in_both_modes(capsys):
    # l * c overflows a float while 1 - p > 0, so a budget evaluated in
    # floats is inf; every exact cost is within the float range
    args = ["sweep", "--qmin-grid", "1/2", "--c-grid", "1e307", "--k-grid", "1e308",
            "--coalition", "150"]
    for mode in ("rational", "float"):
        code, out, err = run(args + ["--mode", mode], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == ("0.5,1e+307,1e+308,150,110000,12955.5555555556,"
                                       "733.333333333333,12222.2222222222,true,83333")


def test_float_sweep_user_count_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    # and in rational mode too: the no-audit cost is beyond the float range
    path = tmp_path / "many.cfg"
    path.write_text(CFG_A + f"num_users = {10**400}\n")
    for mode in ("float", "rational"):
        code, out, err = run(["sweep", "--mode", mode, "--config", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == ("input error: a number of magnitude 1.8e308 or more is beyond the"
                       " float range\n")


def test_surface_prints_a_value_below_the_float_range_exactly(capsys):
    args = ["surface", "--qmin-grid", "1/2", "--c-grid", "1e-320", "--k-grid", "1e307"]
    code, out, err = run(args, capsys)
    assert code == 0 and err == ""
    q_min, c, k, cap = out.splitlines()[1].split(",")
    assert (q_min, c, k) == ("0.5", "1e-320", "1e+307")


def test_sweep_prints_costs_below_the_float_range_exactly_in_both_modes(capsys):
    # the float of each cost but no_audit is subnormal and keeps fewer digits
    args = ["sweep", "--qmin-grid", "1/2", "--c-grid", "1e-320", "--k-grid", "100",
            "--coalition", "1"]
    for mode in ("rational", "float"):
        code, out, err = run(args + ["--mode", mode], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == ("0.5,1e-320,100,1,110000,7.10032258064516e-318,"
                                       "3.54838709677419e-321,7.09677419354839e-318,true,83333")


def _small_ledger(tmp_path, capsys, coins):
    """A ledger in tmp_path/led, with `coins` minted to alice and the first
    one spent; returns the key file."""
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice], capsys)
    for coin_id in range(1, coins + 1):
        code, _, _ = run(["ledger", "mint", "--dir", str(tmp_path / "led"), "--recipient-key",
                          alice, "--coin-id", str(coin_id),
                          "--out", str(tmp_path / f"coin{coin_id}.json")], capsys)
        assert code == 0
    code, out, _ = run(["ledger", "spend", "--dir", str(tmp_path / "led"),
                        "--coin", str(tmp_path / "coin1.json"), "--signer-key", alice], capsys)
    assert out == "approved\n"
    return alice


def test_a_spend_after_an_unterminated_last_record_keeps_the_log_readable(tmp_path, capsys):
    alice = _small_ledger(tmp_path, capsys, coins=2)
    log = tmp_path / "led" / "log.jsonl"
    log.write_bytes(log.read_bytes().rstrip(b"\n"))
    code, out, _ = run(["ledger", "spend", "--dir", str(tmp_path / "led"),
                        "--coin", str(tmp_path / "coin2.json"), "--signer-key", alice], capsys)
    assert code == 0 and out == "approved\n"
    assert log.read_bytes().count(b"\n") == 2 and log.read_bytes().endswith(b"\n")
    code, out, err = run(["ledger", "audit-log", "--dir", str(tmp_path / "led")], capsys)
    assert code == 0 and err == ""
    assert out.count("verified=true") == 2 and out.endswith("total: 2\n")


def test_an_unreadable_log_is_an_input_error(tmp_path, capsys):
    _small_ledger(tmp_path, capsys, coins=1)
    log = tmp_path / "led" / "log.jsonl"
    log.unlink()
    log.mkdir()
    for args in (["audit-log"], ["spend", "--coin", str(tmp_path / "coin1.json"),
                                 "--signer-key", str(tmp_path / "alice.key")]):
        code, out, err = run(["ledger", args[0], "--dir", str(tmp_path / "led")] + args[1:],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"input error: cannot read ledger log {str(log)!r}: ")
        assert err.count("\n") == 1


def _flip_user_sig(line):
    record = json.loads(line)
    record["user_sig"] = ("1" if record["user_sig"][0] != "1" else "2") + record["user_sig"][1:]
    return json.dumps(record, sort_keys=True)


def _bump_price(line):
    record = json.loads(line)
    record["price"] += 1
    return json.dumps(record, sort_keys=True)


LOG_DAMAGE = {
    "intact": lambda lines: "\n".join(lines) + "\n",
    "tampered-prefix": lambda lines: "\n".join([_flip_user_sig(lines[0])] + lines[1:]) + "\n",
    "tampered-tail": lambda lines: "\n".join(lines + [_bump_price(lines[1])]) + "\n",
    "torn-tail": lambda lines: "\n".join(lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]),
    "truncated": lambda lines: lines[0] + "\n",
}


@pytest.mark.parametrize("damage", sorted(LOG_DAMAGE))
def test_ledger_calls_print_the_same_with_or_without_a_checkpoint(damage, tmp_path, capsys,
                                                                  monkeypatch):
    alice = str(tmp_path / "alice.key")
    led = tmp_path / "led"
    run(["ledger", "keygen", "--out", alice], capsys)
    for coin_id in (1, 2, 3):
        coin = str(tmp_path / f"{coin_id}.json")
        code, _, _ = run(["ledger", "mint", "--dir", str(led), "--recipient-key", alice,
                          "--coin-id", str(coin_id), "--out", coin], capsys)
        assert code == 0
    for coin_id in (1, 2):
        code, out, _ = run(["ledger", "spend", "--dir", str(led), "--coin",
                            str(tmp_path / f"{coin_id}.json"), "--signer-key", alice], capsys)
        assert out == "approved\n"
    assert run(["ledger", "audit-log", "--dir", str(led)], capsys)[0] == 0
    assert (led / "log.jsonl.checkpoint").exists()
    log = led / "log.jsonl"
    log.write_text(LOG_DAMAGE[damage](log.read_text().splitlines()))

    calls = [
        ["audit-log"],
        ["spend", "--coin", str(tmp_path / "3.json"), "--signer-key", alice],
        ["spend", "--coin", str(tmp_path / "1.json"), "--signer-key", alice],
        ["mint", "--recipient-key", alice, "--coin-id", "4", "--out", "coin.json"],
    ]
    failure = {
        "tampered-prefix": "input error: log line 1 fails re-verification: bad-signature\n",
        "tampered-tail": "input error: log line 3 fails re-verification: bad-signature\n",
        "torn-tail": "input error: log line 2 is not a receipt record: JSONDecodeError(",
    }.get(damage)
    # only the torn tail's message says that its line has no newline
    torn = "; the line has no newline, as an append cut short leaves it\n"
    for call, status in zip(calls, (1, 1, 1, 1) if failure else (0, 0, 1, 0)):
        results = []
        for name, keep in (("with", True), ("without", False)):
            copy = tmp_path / name
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(led, copy)
            if not keep:
                (copy / "log.jsonl.checkpoint").unlink()
            args = [str(copy / a) if a == "coin.json" else a for a in call]
            # Ed25519 signs deterministically, so the same challenges make
            # the same log bytes
            monkeypatch.setattr(os, "urandom", random.Random(0).randbytes)
            coin = copy / "coin.json"
            results.append((run(["ledger", args[0], "--dir", str(copy)] + args[1:], capsys),
                            (copy / "log.jsonl").read_bytes(),
                            coin.read_bytes() if coin.exists() else None))
        assert results[0] == results[1], call
        code, out, err = results[0][0]
        assert code == status, call
        if failure:
            assert out == "" and err.startswith(failure) and err.count("\n") == 1
            assert err.endswith(torn) == (damage == "torn-tail")
