"""A CLI call as a whole process: `python -m auditgame.cli` ends through
`cli.run`, which runs the atexit hooks, flushes and calls `os._exit`.

Each call here runs in a fresh interpreter and is compared with `cli.main`
run in this process on the same inputs.
"""

import os
import subprocess
import sys

import pytest

import auditgame
from auditgame.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(auditgame.__file__)))

CFG = """\
types = low, high
prior = 1/2, 1/2
alloc = low: 50, high: 105
audit_cost = 25
fine = 100
"""

FINE = ",".join(f"{i}/1000" for i in range(1, 1000))

# Runs `cli.run` on its arguments after the set-up in the first argument;
# a `SystemExit` that reaches this code is reported on stderr.
RUN = """
import sys
exec(sys.argv[1])
from auditgame.cli import run
try:
    run(sys.argv[2:])
except SystemExit as exc:
    sys.stderr.write(f"SystemExit({exc.code})\\n")
    raise
"""


def _spawn(argv, cwd, stdout=subprocess.PIPE):
    """(exit status, stdout, stderr) of the process `argv`.  It runs without
    the caller's `PYTHON*` settings, so that its standard output is block
    buffered, as a user's is, even where `PYTHONUNBUFFERED` is set."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    proc = subprocess.run(argv, cwd=cwd, env=dict(env, PYTHONPATH=SRC), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _cli(args, cwd, stdout=subprocess.PIPE):
    """(exit status, stdout, stderr) of `python -m auditgame.cli args`."""
    return _spawn([sys.executable, "-m", "auditgame.cli", *args], cwd, stdout)


def _in_process(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "two.cfg").write_text(CFG)
    (tmp_path / "probe.cfg").write_text(CFG + "budget = 3\nnum_users = 2\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("args, status", [
    (["--help"], 0),
    (["solve", "--config", "two.cfg"], 0),
    (["verify", "--config", "two.cfg"], 0),
    (["sweep", "--qmin-grid", "1/4,1/2", "--mode", "float"], 0),
    (["solve"], 1),
    (["solve", "--config", "probe.cfg"], 2),
], ids=["help", "solve", "verify", "sweep", "usage-error", "regime-error"])
def test_a_process_prints_what_main_prints(args, status, workdir, capsys):
    expected = _in_process(args, capsys)
    assert expected[0] == status
    assert _cli(args, workdir) == expected


def test_a_ledger_session_of_processes_matches_main(workdir, capsys):
    """Ed25519 keys are random, so one `alice.key` serves both sessions:
    each step prints the same and exits the same as a process and in
    `main`."""
    (workdir / "proc").mkdir()
    (workdir / "main").mkdir()
    code, out, err = _cli(["ledger", "keygen", "--out", "alice.key"], workdir / "proc")
    key = (workdir / "proc" / "alice.key").read_text()
    assert (code, out, err) == (0, f"public_key: {key.splitlines()[1]}\n", "")
    (workdir / "main" / "alice.key").write_text(key)
    session = [
        ["mint", "--dir", "led", "--recipient-key", "alice.key", "--coin-id", "1",
         "--out", "coin.json"],
        ["spend", "--dir", "led", "--coin", "coin.json", "--signer-key", "alice.key"],
        ["spend", "--dir", "led", "--coin", "coin.json", "--signer-key", "alice.key"],
        ["audit-log", "--dir", "led"],
    ]
    os.chdir(workdir / "main")
    statuses = []
    for step in session:
        args = ["ledger", *step]
        got = _cli(args, workdir / "proc")
        assert got == _in_process(args, capsys)
        statuses.append(got[0])
    assert statuses == [0, 0, 1, 0]


def test_the_fine_sweep_through_a_pipe_is_complete(workdir, capsys):
    args = ["sweep", "--qmin-grid", FINE]
    expected = _in_process(args, capsys)
    assert expected[1].count("\n") == 1 + 999 * 18
    assert _cli(args, workdir) == expected


@pytest.mark.parametrize("setup", ["sys.settrace(lambda *a: None)",
                                   "sys.setprofile(lambda *a: None)"])
def test_a_traced_or_profiled_call_exits_through_sys_exit(setup, workdir, capsys):
    got = _spawn([sys.executable, "-c", RUN, setup, "solve", "--config", "two.cfg"], workdir)
    code, out, _ = _in_process(["solve", "--config", "two.cfg"], capsys)
    assert got == (code, out, "SystemExit(0)\n")


def test_atexit_hooks_run_before_the_final_flush(workdir, capsys):
    setup = "import atexit; atexit.register(sys.stdout.write, 'hook ran\\n')"
    got = _spawn([sys.executable, "-c", RUN, setup, "solve", "--config", "two.cfg"], workdir)
    code, out, _ = _in_process(["solve", "--config", "two.cfg"], capsys)
    # no SystemExit: the untraced call ended in os._exit
    assert got == (code, out + "hook ran\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux /dev/full")
@pytest.mark.parametrize("args", [["solve", "--config", "two.cfg"],
                                  ["sweep", "--qmin-grid", FINE]], ids=["final-flush", "write"])
def test_a_full_standard_output_is_one_input_error(args, workdir):
    with open("/dev/full", "w") as full:
        code, _, err = _cli(args, workdir, stdout=full)
    assert (code, err) == (1, "input error: cannot write standard output: "
                              "No space left on device\n")


@pytest.mark.parametrize("setup", ["", "sys.settrace(lambda *a: None)"],
                         ids=["untraced", "traced"])
def test_a_broken_pipe_is_one_input_error(setup, workdir):
    # The output waits in the buffer until the final flush, which fails; a
    # traced call must not fail again when the interpreter flushes at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = _spawn([sys.executable, "-c", RUN, setup, "solve", "--config", "two.cfg"],
                     workdir, stdout=write_end)
    finally:
        os.close(write_end)
    message = "input error: cannot write standard output: Broken pipe\n"
    assert got == (1, None, message + ("SystemExit(1)\n" if setup else ""))


def test_a_closed_standard_output_is_one_input_error(workdir):
    code, _, err = _spawn(["sh", "-c", 'exec "$0" -m auditgame.cli "$@" >&-', sys.executable,
                           "solve", "--config", "two.cfg"], workdir)
    assert (code, err) == (1, "input error: cannot write standard output: Bad file descriptor\n")
