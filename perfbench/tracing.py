"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces public functions of the persuade modules, every
name under which another persuade module imported them (``cli.solve``,
``oracle.make_split_signal``, ...), and the lookup methods of the policy,
payoff and value classes with wrappers that record a span: its name, start,
end, the span it was called from, the exception it raised if any, and an
amount of work read off the call.  Spans stay in memory until the run writes
them out.  A span's self time is its duration minus what its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time

now = time.perf_counter

MODULES = ("persuade", "persuade.model", "persuade.dynamics", "persuade.solver",
           "persuade.oracle", "persuade.sim", "persuade.cli")


def _iterations(args, kwargs, result):
    return result.iterations


def _path_steps(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    return config.n_paths * config.horizon


# (module, function, span name, work read off the call)
FUNCTIONS = (
    ("persuade.model", "parse_problem", "model.parse_problem", None),
    ("persuade.solver", "solve", "solver.solve", None),
    ("persuade.solver", "verify_solution", "solver.verify_solution", None),
    ("persuade.dynamics", "make_split_signal", "dynamics.make_split_signal", None),
    ("persuade.oracle", "make_grid", "oracle.make_grid", None),
    ("persuade.oracle", "value_iteration", "oracle.value_iteration", _iterations),
    ("persuade.oracle", "evaluate_policy_discrete", "oracle.evaluate_policy_discrete", None),
    ("persuade.sim", "simulate", "sim.simulate", _path_steps),
    ("persuade.cli", "main", "cli.main", None),
    ("persuade.cli", "cmd_validate", "cli.validate", None),
    ("persuade.cli", "cmd_solve", "cli.solve", None),
    ("persuade.cli", "cmd_simulate", "cli.simulate", None),
    ("persuade.cli", "cmd_oracle", "cli.oracle", None),
    ("persuade.cli", "cmd_sweep", "cli.sweep", None),
)

# (module, class, method, span name)
METHODS = (
    ("persuade.model", "StepPayoff", "value", "model.payoff_value"),
    ("persuade.solver", "MarkovPolicy", "region_index", "solver.region_index"),
    ("persuade.solver", "PiecewiseValue", "value", "solver.value"),
    ("persuade.solver", "PiecewiseValue", "derivative", "solver.value"),
)

NAME, START, END, PARENT, ERROR, WORK = range(6)


class Tracer:
    """Spans of the wrapped calls.  Every wrapped function is called from the
    run's main thread (the simulator's worker threads call none of them), so
    one stack of open spans gives each span its parent."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, error, work]
        self.last = {}       # span name -> (args, kwargs, result) of its latest call
        self._open = []
        self._saved = []

    def _wrap(self, name, fn, work):
        spans, last, stack = self.spans, self.last, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, now(), 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = now()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            last[name] = (args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [sys.modules[m] for m in MODULES]
        for module, attr, name, work in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_totals(spans):
    """Per span name: calls, total and self seconds, work, failed calls."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals = {}
    for i, span in enumerate(spans):
        entry = totals.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                               "work": 0, "failed": 0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child[i]
        entry["work"] += span[WORK]
        entry["failed"] += span[ERROR] is not None
    return totals


def layer_metrics(spans, rounds):
    """The span-derived per-layer metrics, per traced round."""
    totals = span_totals(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0) / rounds

    def ratio(name, scale):
        entry = totals.get(name)
        return entry["total_s"] / entry["work"] * scale if entry and entry["work"] else 0.0

    return {
        "oracle.vi_iterations": get("oracle.value_iteration", "work"),
        "oracle.vi_us_per_iter": ratio("oracle.value_iteration", 1e6),
        "oracle.value_iteration.self_s": get("oracle.value_iteration", "self_s"),
        "oracle.evaluate_policy_discrete.self_s": get("oracle.evaluate_policy_discrete", "self_s"),
        "solver.region_index.calls": get("solver.region_index", "calls"),
        "solver.region_index.self_s": get("solver.region_index", "self_s"),
        "dynamics.make_split_signal.calls": get("dynamics.make_split_signal", "calls"),
        "dynamics.make_split_signal.self_s": get("dynamics.make_split_signal", "self_s"),
        "model.payoff_value.calls": get("model.payoff_value", "calls"),
        "model.payoff_value.self_s": get("model.payoff_value", "self_s"),
        "sim.ns_per_path_step": ratio("sim.simulate", 1e9),
        "model.parse_problem.self_s": get("model.parse_problem", "self_s"),
        "solver.solve.self_s": get("solver.solve", "self_s"),
        "solver.solve.failed": get("solver.solve", "failed"),
        "solver.verify_solution.self_s": get("solver.verify_solution", "self_s"),
        "solver.value.calls": get("solver.value", "calls"),
        "solver.value.self_s": get("solver.value", "self_s"),
        "cli.validate.s": get("cli.validate", "total_s"),
        "cli.solve.s": get("cli.solve", "total_s"),
        "cli.simulate.s": get("cli.simulate", "total_s"),
        "cli.oracle.s": get("cli.oracle", "total_s"),
        "cli.sweep.s": get("cli.sweep", "total_s"),
    }
