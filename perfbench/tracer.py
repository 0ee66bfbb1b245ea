"""Traced launcher: run one `auditgame` CLI call with spans around the public
functions of each module.

Usage (from the benchmark only):

    AUDITGAME_TRACE_FILE=trace AUDITGAME_TRACE_OP=7 \
    AUDITGAME_TRACE_SPAWN=<time.monotonic() at spawn> \
    python tracer.py <cli arguments...>

The launcher imports `auditgame.cli`, replaces each function in `TARGETS`
under every name a caller looks it up by (module globals such as
`casestudy.sig15`, class attributes such as `LedgerState.load`), then calls
`auditgame.cli.main(argv)` and exits with its status.  Spans (name, parent,
start, end, op id) stay in memory and are written when the call ends:
`<trace>.json` holds the op id, span names, counters and startup time, and
`<trace>.bin` the spans as four native arrays of equal length (name id
int32, parent index int32, start float64, end float64; parent -1 for a
root).  A target that no longer exists is listed as absent; an
observer that cannot read a result is listed as failed.  Neither stops the
call.
"""

import os
import sys
import time

_T0 = time.monotonic()

import array  # noqa: E402
import collections  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_columns(counters, args, kwargs, result):
    counters["lp.columns"] += len(result.objective)


def _count_cost_rows(counters, args, kwargs, result):
    counters["casestudy.rows"] += len(result)
    counters["casestudy.degenerate_rows"] += sum(
        1 for row in result if str(row.get("dominates", "")).startswith("error"))


def _count_surface_rows(counters, args, kwargs, result):
    counters["casestudy.rows"] += len(result)


def _count_csv_bytes(counters, args, kwargs, result):
    counters["casestudy.csv_bytes"] += len(result.encode("utf-8"))


def _count_candidates(counters, args, kwargs, result):
    # Computed from the arguments, not counted by the program: each type's
    # scan visits every composition of `res` steps into n signals.
    n = _arg(args, kwargs, 1, "cfg").n_types
    res = _arg(args, kwargs, 2, "grid").resolution
    counters["oracle.candidates"] += n * math.comb(res + n - 1, n - 1)


def _count_probe(counters, args, kwargs, result):
    counters["oracle.probe_profiles"] += result.total_profiles
    counters["oracle.probe_certified"] += result.certified


def _count_replay(counters, args, kwargs, result):
    counters["ledger.replay_records"] += len(result.approved)


def _count_outcome(counters, args, kwargs, result):
    if result.approved:
        counters["ledger.spend_approved"] += 1
    else:
        counters[f"ledger.spend_rejected.{result.reason}"] += 1


# (module, qualified name, observer).  Span names are "<module>.<qualname>".
TARGETS = (
    ("core", "GameConfig.from_file", None),
    ("core", "StrategyProfile.replicated", None),
    ("core", "best_response", None),
    ("core", "user_utility_type", None),
    ("lp", "bp_equilibrium", None),
    ("lp", "build_bp_lp", _count_columns),
    ("lp", "solve_lp", None),
    ("equilibrium", "signaling_equilibrium", None),
    ("equilibrium", "budget_thresholds", None),
    ("equilibrium", "verify_equilibrium", None),
    ("bounds", "misreport_cap", None),
    ("bounds", "excess_payments_bound", None),
    ("cost", "compare", None),
    ("cost", "two_type_cost_components", None),
    ("casestudy", "sweep_costs", _count_cost_rows),
    ("casestudy", "sweep_misreport_surface", _count_surface_rows),
    ("casestudy", "costs_csv", _count_csv_bytes),
    ("casestudy", "surface_csv", _count_csv_bytes),
    ("numeric", "sig15", None),
    ("oracle", "deviation_search", _count_candidates),
    ("oracle", "nonexistence_probe", _count_probe),
    ("ledger", "LedgerState.load", _count_replay),
    ("ledger", "LedgerState.begin_spend", None),
    ("ledger", "LedgerState.finalize_spend", _count_outcome),
    ("ledger", "LedgerState.mint", None),
    ("ledger", "Ed25519Scheme.verify", None),
    ("ledger", "Ed25519Scheme.sign", None),
)

# Exceptions an observer may meet when a refactor changes a result's shape.
_OBSERVER_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


class Tracer:
    """Span recorder for one process: a flat span list plus a parent stack."""

    def __init__(self, op: int):
        self.op = op
        self.names = []
        self.name_ids = {}
        # One entry per span, in call order.
        self.span_names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = []
        self.counters = collections.defaultdict(int)
        self.absent = []
        self.observer_failures = set()

    def wrap(self, name, fn, observe=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        span_names, parents, starts, ends = self.span_names, self.parents, self.starts, self.ends
        stack, clock, counters = self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(counters, args, kwargs, result)
                except _OBSERVER_ERRORS:
                    self.observer_failures.add(name)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "auditgame" or n.startswith("auditgame."))]
        for module_name, qualname, observe in TARGETS:
            name = f"{module_name}.{qualname}"
            module = sys.modules.get(f"auditgame.{module_name}")
            if "." in qualname:
                installed = self._install_method(module, qualname, name, observe)
            else:
                installed = self._install_function(modules, module, qualname, name, observe)
            if not installed:
                self.absent.append(name)

    def _install_function(self, modules, module, attr, name, observe):
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        traced = self.wrap(name, fn, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
        return True

    def _install_method(self, module, qualname, name, observe):
        class_name, attr = qualname.split(".", 1)
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type):
            return False
        raw = next((k.__dict__[attr] for k in cls.__mro__ if attr in k.__dict__), None)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__, observe)))
        elif callable(raw):
            setattr(cls, attr, self.wrap(name, raw, observe))
        else:
            return False
        return True

    def dump(self, path, main_entry, spawn):
        with open(path + ".bin", "wb") as fh:
            for column in (self.span_names, self.parents, self.starts, self.ends):
                column.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "op": self.op,
                "names": self.names,
                "spans": len(self.span_names),
                "counters": self.counters,
                "absent": self.absent,
                "observer_failures": sorted(self.observer_failures),
                "startup_s": main_entry - spawn,
                "launcher_start_s": _T0 - spawn,
            }, fh)


def main(argv):
    trace_file = os.environ["AUDITGAME_TRACE_FILE"]
    spawn = float(os.environ["AUDITGAME_TRACE_SPAWN"])
    tracer = Tracer(int(os.environ.get("AUDITGAME_TRACE_OP", "0")))
    import auditgame.cli

    tracer.install()
    cli_main = tracer.wrap("cli.main", auditgame.cli.main)
    main_entry = time.monotonic()
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_file, main_entry, spawn)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
