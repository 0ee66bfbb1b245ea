"""auditgame benchmark: drive the `auditgame` CLI one call at a time.

    python3 perfbench/run.py --workload solve-lp --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Each call is a fresh interpreter running
`python -m auditgame.cli` against the checkout's `src/`, in a closed loop
with one client.  One untimed import of the CLI and one untimed yardstick
first warm the bytecode cache.  Set-up generates the workload's seeded
inputs, writes them and copies them to a work directory; it runs at least
SETUP_REPEATS times (more when it is quick) and `setup_s` is the median.
The timed phase runs a fixed number of whole cycles of
the workload's calls: the number that takes about `--seconds` at the
workload's reference cycle time, so every version of the code runs the
same calls.  Every call's output is checked; check time is excluded from
the timed phase.

The host's speed drifts, so a fixed yardstick (`yardstick.py`) is spawned
before the first and after every set-up and timed call, and each set-up or
call time is scaled by the yardstick's reference time over the mean of the
two yardsticks around it.  The unscaled times are in the details line.

With `--trace 1` the same inputs run again in passes of one cycle each:
the cycle untraced, then (after restoring the inputs) traced through
`tracer.py`.  A traced run makes half as many passes as an untraced run
has cycles.  The per-layer metrics are per cycle, averaged over passes.

The last stdout line is the result JSON; the line before it records the
environment, input sizes and the sample counts behind each metric.
"""

from __future__ import annotations

import argparse
import array
import filecmp
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
TRACER = os.path.join(HERE, "tracer.py")
SPAWNER = os.path.join(HERE, "spawner.py")
YARDSTICK = os.path.join(HERE, "yardstick.py")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

from workloads import WORKLOADS  # noqa: E402
from yardstick import REFERENCE_S  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7     # set-ups per run at least; more, up to SETUP_MAX,
SETUP_MIN_S = 2.0     # until set-ups and their yardsticks take this long
SETUP_MAX = 31
TIME_CAP = 4      # a timed phase stops after this many times --seconds
IMPORT_SAMPLES = 5
TAIL_SAMPLES_ABOVE = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

# Traced functions reported as `.calls` and `.self_s`, then those reported
# as `.self_s` only; the names are the spans `tracer.py` records.
_TIMED = [
    "core.GameConfig.from_file", "core.StrategyProfile.replicated", "core.best_response",
    "core.user_utility_type", "lp.bp_equilibrium", "lp.solve_lp",
    "equilibrium.signaling_equilibrium", "equilibrium.budget_thresholds",
    "equilibrium.verify_equilibrium", "bounds.misreport_cap", "bounds.excess_payments_bound",
    "cost.compare", "cost.two_type_cost_components", "numeric.sig15",
    "oracle.deviation_search", "oracle.nonexistence_probe", "ledger.LedgerState.load",
    "ledger.LedgerState.finalize_spend", "ledger.LedgerState.mint",
    "ledger.Ed25519Scheme.verify", "ledger.Ed25519Scheme.sign",
]
_SELF_ONLY = [
    "lp.build_bp_lp", "casestudy.sweep_costs", "casestudy.sweep_misreport_surface",
    "casestudy.costs_csv", "casestudy.surface_csv", "ledger.LedgerState.begin_spend",
]
PER_LAYER = {
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    **{f"{n}.{m}": u for n in _TIMED for m, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in _SELF_ONLY},
    "lp.columns": "count",
    "casestudy.rows": "count",
    "casestudy.degenerate_rows": "count",
    "casestudy.rows_per_s": "1/s",
    "casestudy.csv_bytes": "B",
    "oracle.candidates": "count",
    "oracle.candidates_per_s": "1/s",
    "oracle.probe_profiles": "count",
    "oracle.probe_certified_ratio": "ratio",
    "ledger.replay_records": "count",
    "ledger.replay_ms_per_record": "ms",
    "ledger.spend_approved": "count",
    "ledger.spend_rejected.double-spend": "count",
    "ledger.approval_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Runner:
    """Spawns CLI calls in a work directory, checks and records each one."""

    def __init__(self, workload, tmp, pinned, spawner):
        self.workload = workload
        self.spawner = spawner
        self.tmp = tmp
        self.snap = os.path.join(tmp, "snapshot")
        self.work = os.path.join(tmp, "work")
        # Children see the caller's environment minus interpreter settings
        # (such as PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED) that would
        # change what is measured, and keep their bytecode cache in BUILD.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") or k == "PYTHONHOME"}
        self.env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(BUILD, "pycache"))
        self.pinned = pinned
        self.first = {}          # op key -> digest of the first passing output
        self.digests = {}        # pinned op key -> digest, reported at the default seed
        self.walls = []
        self.yardsticks = []     # wall seconds of each yardstick in the run
        self.scales = []         # per timed call: reference over host time
        self.walls_by_kind = {}
        self.rss_kb = []
        self.attempted = 0
        self.failures = []
        self.check_s = 0.0
        # Trace aggregates: span name -> [calls, total seconds, self seconds].
        self.layers = {}
        self.counters = {}
        self.absent = set()
        self.observer_failures = set()
        self.startup = []
        self.wall_by_mode = {False: 0.0, True: 0.0}

    # -- inputs ----------------------------------------------------------

    def set_up(self):
        """Generate and write the inputs, then restore the work directory."""
        t0 = time.perf_counter()
        self.workload.setup(self.snap)
        self.restore()
        return time.perf_counter() - t0

    def set_ups(self):
        """Set up between yardsticks, SETUP_REPEATS times or more; returns
        the unscaled and the scaled times."""
        times, scaled, before = [], [], self.yardstick()
        start = time.perf_counter()
        while len(times) < SETUP_REPEATS or (
                time.perf_counter() - start < SETUP_MIN_S and len(times) < SETUP_MAX):
            times.append(self.set_up())
            after = self.yardstick()
            scaled.append(times[-1] * _scale(before, after))
            before = after
        return times, scaled

    def warm_up(self):
        """Import the CLI and run the yardstick once each, untimed: this
        checks that the CLI loads from SRC and fills the bytecode cache
        before the first measured child."""
        rc, _, _, out = self.spawn([sys.executable, "-c",
                                    "import auditgame.cli as c; print(c.__file__)"],
                                   cwd=self.tmp)
        if rc != 0 or not out.decode().strip().startswith(SRC):
            raise SystemExit(f"benchmark: the CLI did not load from {SRC}")
        self.spawn([sys.executable, YARDSTICK], cwd=self.tmp)

    def restore(self):
        """Make the work directory equal to the snapshot: delete what the
        snapshot lacks and copy each snapshot file whose work copy differs.

        Like the workloads' set-up, this writes only files that change: on
        the reference VM the cost of writing a few hundred small files
        swings several-fold from minute to minute, and `setup_s` would time
        that swing instead of the set-up's own work."""
        for dirpath, _, filenames in os.walk(self.work, topdown=False):
            rel = os.path.relpath(dirpath, self.work)
            for name in filenames:
                if not os.path.isfile(os.path.join(self.snap, rel, name)):
                    os.remove(os.path.join(dirpath, name))
            if not os.path.isdir(os.path.join(self.snap, rel)):
                os.rmdir(dirpath)
        for dirpath, _, filenames in os.walk(self.snap):
            target = os.path.join(self.work, os.path.relpath(dirpath, self.snap))
            os.makedirs(target, exist_ok=True)
            for name in filenames:
                source, copy = os.path.join(dirpath, name), os.path.join(target, name)
                if not (os.path.isfile(copy) and filecmp.cmp(source, copy, shallow=False)):
                    shutil.copy2(source, copy)
        self.workload.reset(self.work)

    # -- calls -----------------------------------------------------------

    def spawn(self, cmd, env=None, spawn_env=None, cwd=None):
        """Run one child to completion; returns (status, wall s, max RSS KB, stdout)."""
        out_path = os.path.join(self.tmp, "stdout")
        request = {"cmd": cmd, "cwd": cwd or self.work, "env": env or self.env, "out": out_path,
                   "err": os.path.join(self.tmp, "stderr"), "spawn_env": spawn_env}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(reply)
        with open(out_path, "rb") as fh:
            return reply["rc"], reply["wall_s"], reply["maxrss_kb"], fh.read()

    def run(self, op, traced=False):
        argv = op.argv
        if traced:
            trace_file = os.path.join(self.tmp, "trace")
            env = dict(self.env, AUDITGAME_TRACE_FILE=trace_file,
                       AUDITGAME_TRACE_OP=str(self.attempted))
            rc, wall, rss, out = self.spawn([sys.executable, TRACER] + argv, env,
                                            spawn_env="AUDITGAME_TRACE_SPAWN")
        else:
            rc, wall, rss, out = self.spawn([sys.executable, "-m", "auditgame.cli"] + argv)
        self.attempted += 1
        self.walls.append(wall)
        self.walls_by_kind.setdefault(op.kind, []).append(wall)
        self.rss_kb.append(rss)
        self.wall_by_mode[traced] += wall
        t0 = time.perf_counter()
        problem = self.check(op, rc, out)
        if problem is not None:
            with open(os.path.join(self.tmp, "stderr"), "rb") as fh:
                stderr = fh.read().decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{op.kind} {' '.join(argv)[:120]}: {problem} {stderr}")
        if traced:
            self.absorb(trace_file)
        self.check_s += time.perf_counter() - t0

    def check(self, op, rc, out):
        digest = hashlib.sha256(out).hexdigest()
        if op.key in self.first:
            same = digest == self.first[op.key] and rc == op.status
            return None if same else "output differs from an earlier call on the same input"
        if rc != op.status:
            return f"exit status {rc}, expected {op.status}"
        try:
            problem = op.check(out)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            problem = f"unreadable output ({exc})"
        if problem is None and op.pin and self.pinned is not None:
            self.digests[op.key] = digest
            want = self.pinned.get(op.key)
            if want is not None and want != digest:
                problem = f"output {op.key} has digest {digest}, digests.json has {want}"
        if problem is None and op.key is not None:
            self.first[op.key] = digest
        return problem

    def yardstick(self):
        """Spawn the yardstick once; returns its wall seconds."""
        rc, wall, _, _ = self.spawn([sys.executable, YARDSTICK], cwd=self.tmp)
        if rc != 0:
            raise RuntimeError("the yardstick failed")
        self.yardsticks.append(wall)
        return wall

    def timed_phase(self, cycles, seconds):
        """Run `cycles` whole cycles of calls, each between two yardsticks
        (check and yardstick time excluded).

        The count does not depend on the program's speed, so every run
        measures the same calls.  A run stops early, after a whole cycle,
        only once it has taken TIME_CAP times `seconds`.
        """
        start, cycle, excluded, elapsed = time.perf_counter(), 0, 0.0, 0.0
        before = self.yardstick()
        while cycle < cycles and elapsed < TIME_CAP * seconds:
            for op in self.workload.ops(cycle):
                checked = self.check_s
                self.run(op)
                t0 = time.perf_counter()
                after = self.yardstick()
                excluded += time.perf_counter() - t0 + self.check_s - checked
                self.scales.append(_scale(before, after))
                before = after
            cycle += 1
            elapsed = time.perf_counter() - start - excluded
        return elapsed, cycle

    # -- tracing ---------------------------------------------------------

    def absorb(self, path):
        """Fold one traced call's spans into per-name calls, total and self time."""
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                trace = json.load(fh)
            columns = [array.array(code) for code in "iidd"]
            with open(path + ".bin", "rb") as fh:
                for column in columns:
                    column.fromfile(fh, trace["spans"])
        except (OSError, ValueError, EOFError):
            self.failures.append("traced call wrote no readable trace")
            return
        finally:
            for suffix in (".json", ".bin"):
                if os.path.exists(path + suffix):
                    os.remove(path + suffix)
        names, parents, starts, ends = columns
        covered = [0.0] * len(names)
        for parent, start, end in zip(parents, starts, ends):
            if parent >= 0:
                covered[parent] += end - start
        for name_id, start, end, child in zip(names, starts, ends, covered):
            agg = self.layers.setdefault(trace["names"][name_id], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        for key, value in trace["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.absent.update(trace["absent"])
        self.observer_failures.update(trace["observer_failures"])
        self.startup.append(trace["startup_s"])

    def import_cost(self):
        """Fresh `import auditgame.cli` minus a bare interpreter, median of pairs."""
        diffs = []
        for _ in range(IMPORT_SAMPLES):
            bare = self.spawn([sys.executable, "-c", "pass"])[1]
            full = self.spawn([sys.executable, "-c", "import auditgame.cli"])[1]
            diffs.append(full - bare)
        return statistics.median(diffs)

    def traced_passes(self, passes):
        import_s = self.import_cost()
        for cycle in range(passes):
            for traced in (False, True):
                self.restore()
                for op in self.workload.ops(cycle):
                    self.run(op, traced)
        return import_s

    def layer_metrics(self, import_s, passes):
        def calls(name):
            return self.layers.get(name, (0, 0.0, 0.0))[0] / passes

        def total(name):
            return self.layers.get(name, (0, 0.0, 0.0))[1] / passes

        def self_s(name):
            return self.layers.get(name, (0, 0.0, 0.0))[2] / passes

        def count(name):
            return self.counters.get(name, 0) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "cli.import_s": import_s,
            "cli.startup_s": statistics.median(self.startup) if self.startup else 0.0,
            "cli.main.self_s": self_s("cli.main"),
        }
        for name in _TIMED:
            values[f"{name}.calls"] = calls(name)
            values[f"{name}.self_s"] = self_s(name)
        for name in _SELF_ONLY:
            values[f"{name}.self_s"] = self_s(name)
        sweep_s = total("casestudy.sweep_costs") + total("casestudy.sweep_misreport_surface")
        approved = count("ledger.spend_approved")
        rejected = sum(v for k, v in self.counters.items()
                       if k.startswith("ledger.spend_rejected.")) / passes
        values.update({
            "lp.columns": count("lp.columns"),
            "casestudy.rows": count("casestudy.rows"),
            "casestudy.degenerate_rows": count("casestudy.degenerate_rows"),
            "casestudy.rows_per_s": ratio(count("casestudy.rows"), sweep_s),
            "casestudy.csv_bytes": count("casestudy.csv_bytes"),
            "oracle.candidates": count("oracle.candidates"),
            "oracle.candidates_per_s": ratio(count("oracle.candidates"),
                                             total("oracle.deviation_search")),
            "oracle.probe_profiles": count("oracle.probe_profiles"),
            "oracle.probe_certified_ratio": ratio(count("oracle.probe_certified"),
                                                  count("oracle.probe_profiles")),
            "ledger.replay_records": count("ledger.replay_records"),
            "ledger.replay_ms_per_record": 1000 * ratio(total("ledger.LedgerState.load"),
                                                        count("ledger.replay_records")),
            "ledger.spend_approved": approved,
            "ledger.spend_rejected.double-spend": count("ledger.spend_rejected.double-spend"),
            "ledger.approval_ratio": ratio(approved, approved + rejected),
            "trace.overhead_ratio": ratio(self.wall_by_mode[True], self.wall_by_mode[False]),
        })
        return values


def _scale(before, after):
    """Reference over host time from the yardsticks around a measurement:
    multiplying by it gives the time at the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def _tail(walls):
    """Highest order statistic with TAIL_SAMPLES_ABOVE samples above it."""
    ordered = sorted(walls)
    index = max(0, len(ordered) - TAIL_SAMPLES_ABOVE - 1)
    return ordered[index], 100.0 * index / len(ordered), len(ordered) - 1 - index


def _cycles(workload, seconds):
    """Cycles per run: about `seconds` at the reference speed, at least the
    workload's `min_cycles`, and enough calls for the tail statistic.  The
    same for every version of the code."""
    need = -(-(2 * TAIL_SAMPLES_ABOVE + 1) // len(workload.ops(0)))
    need = max(need, workload.min_cycles)
    return min(workload.max_cycles, max(need, round(seconds / workload.cycle_s)))


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(seed):
    src_hash = hashlib.sha256()
    package = os.path.join(SRC, "auditgame")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cryptography": importlib.metadata.version("cryptography"),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _load_pinned(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "auditgame", "cli.py")):
        sys.stderr.write(f"benchmark: no auditgame sources under {SRC}\n")
        return 2

    os.makedirs(BUILD, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD)
    spawner = subprocess.Popen([sys.executable, SPAWNER], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        runner = Runner(workload, tmp, _load_pinned(args.workload, args.seed), spawner)
        runner.warm_up()
        setups, scaled_setups = runner.set_ups()
        cycles = _cycles(workload, args.seconds)
        details = {"workload": args.workload, "environment": _environment(args.seed),
                   "inputs": workload.sizes(), "setup_runs_s": setups}
        if args.trace:
            passes = max(1, cycles // 2)
            import_s = runner.traced_passes(passes)
            values = runner.layer_metrics(import_s, passes)
            units = PER_LAYER
            details.update(passes=passes, absent=sorted(runner.absent),
                           observer_failures=sorted(runner.observer_failures),
                           computed=["oracle.candidates"])
        else:
            phase_s, cycles = runner.timed_phase(cycles, args.seconds)
            passed = runner.attempted - len(runner.failures)
            walls = [w * s for w, s in zip(runner.walls, runner.scales)]
            tail, percentile, above = _tail(walls)
            values = {
                "ops_per_s": passed / sum(walls),
                "call_p50_ms": 1000 * statistics.median(walls),
                "call_tail_ms": 1000 * tail,
                "peak_rss_mb": max(runner.rss_kb) / 1024,
                "ok_ratio": passed / runner.attempted,
                "setup_s": statistics.median(scaled_setups),
            }
            units = END_TO_END
            unscaled = {"ops_per_s": passed / phase_s,
                        "call_p50_ms": 1000 * statistics.median(runner.walls),
                        "call_tail_ms": 1000 * _tail(runner.walls)[0],
                        "setup_s": statistics.median(setups)}
            details.update(phase_s=phase_s, cycles=cycles, call_samples=len(walls),
                           call_tail_percentile=percentile, call_tail_samples_above=above,
                           failed_ratio=len(runner.failures) / runner.attempted,
                           host_scale=statistics.median(runner.scales), unscaled=unscaled,
                           call_walls_s=runner.walls, yardstick_walls_s=runner.yardsticks)
        details["call_ms_by_kind"] = {
            kind: {"calls": len(w), "median": 1000 * statistics.median(w), "max": 1000 * max(w)}
            for kind, w in sorted(runner.walls_by_kind.items())}
        float_stats = getattr(workload, "mode_stats", None)
        if float_stats:
            details["float_vs_rational"] = float_stats
        if runner.pinned is not None:
            details["digests"] = runner.digests
        details["failures"] = runner.failures[:5]
        for name in units:
            sys.stderr.write(f"{name:40s} {values[name]:>16.6g} {units[name]}\n")
        print(json.dumps({"details": details}, sort_keys=True))
        print(json.dumps({
            "correct": not runner.failures and runner.attempted > 0,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
        }))
        return 0
    finally:
        spawner.stdin.close()
        spawner.wait(timeout=60)
        spawner.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
