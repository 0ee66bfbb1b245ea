"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import json

import pytest

from auditgame.cli import main

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
    code, out, _ = run(["solve", "--config", cfg_file], capsys)
    assert code == 0
    assert "strategy_exact[low]: 21/26,5/26" in out
    assert "audit: 0,0" in out


def test_solve_nonexistence_exit_2(tmp_path, capsys):
    path = tmp_path / "broke.cfg"
    path.write_text(CFG_A + "budget = 3\nnum_users = 2\n")
    code, _, err = run(["solve", "--config", str(path)], capsys)
    assert code == 2
    assert "5775/806" in err          # names the two-type threshold


def test_input_error_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "none.cfg")
    code, _, err = run(["solve", "--config", missing], capsys)
    assert code == 1 and "does not exist" in err
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


def test_cost_output(cfg_file, capsys):
    code, out, _ = run(["cost", "--config", cfg_file], capsys)
    assert code == 0
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


def test_probe_outside_region_is_input_error(tmp_path, capsys):
    path = tmp_path / "probe.cfg"
    path.write_text(CFG_A + "budget = 8\nnum_users = 2\n")
    code, _, err = run(["probe", "--config", str(path), "--resolution", "40"], capsys)
    assert code == 1 and "threshold" in err


def test_ledger_cli_roundtrip(tmp_path, capsys):
    led = str(tmp_path / "led")
    alice = str(tmp_path / "alice.key")
    coin = str(tmp_path / "coin.json")
    code, out, _ = run(["ledger", "keygen", "--out", alice, "--scheme", "toy",
                        "--seed", "42"], capsys)
    assert code == 0 and "public_key:" in out
    import os
    assert (os.stat(alice).st_mode & 0o777) == 0o600

    code, _, _ = run(["ledger", "mint", "--dir", led, "--scheme", "toy", "--seed", "1",
                      "--recipient-key", alice, "--coin-id", "1", "--out", coin], capsys)
    assert code == 0
    assert json.load(open(coin))["metadata"]["coin_id"] == 1

    code, out, _ = run(["ledger", "spend", "--dir", led, "--scheme", "toy", "--seed", "1",
                        "--coin", coin, "--signer-key", alice], capsys)
    assert code == 0 and "approved" in out

    code, out, _ = run(["ledger", "spend", "--dir", led, "--scheme", "toy", "--seed", "2",
                        "--coin", coin, "--signer-key", alice], capsys)
    assert code == 1 and "double-spend" in out

    code, out, _ = run(["ledger", "audit-log", "--dir", led, "--scheme", "toy",
                        "--seed", "1"], capsys)
    assert code == 0
    assert "verified=true" in out and "total: 1" in out


def test_unreadable_inputs_are_input_errors(tmp_path, capsys):
    def assert_input_error(args):
        code, _, err = run(args, capsys)
        assert code == 1
        assert err.startswith("input error: ") and err.count("\n") == 1

    assert_input_error(["solve", "--config", str(tmp_path)])   # a directory

    led = str(tmp_path / "led")
    alice = str(tmp_path / "alice.key")
    run(["ledger", "keygen", "--out", alice, "--scheme", "toy", "--seed", "42"], capsys)
    assert_input_error(["ledger", "spend", "--dir", led, "--scheme", "toy",
                        "--coin", str(tmp_path / "missing.json"), "--signer-key", alice])
    assert not (tmp_path / "led").exists()   # a rejected input creates no ledger
    not_a_coin = tmp_path / "coin.json"
    not_a_coin.write_text('{"owner_pk": "zz"}\n')
    assert_input_error(["ledger", "spend", "--dir", led, "--scheme", "toy",
                        "--coin", str(not_a_coin), "--signer-key", alice])

    bad_hex = tmp_path / "bad.key"
    bad_hex.write_text("not hex\nalso not hex\n")
    assert_input_error(["ledger", "mint", "--dir", led, "--scheme", "toy",
                        "--recipient-key", str(bad_hex), "--coin-id", "1",
                        "--out", str(tmp_path / "c.json")])
