"""Benchmark of the persuade package: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src and
writes only under perfbench/out.  A run times the workload's set-up, runs
whole rounds of the workload for about --seconds seconds (see run_rounds),
times the set-up again in fresh interpreters, checks the program's outputs,
and prints as its last line one JSON object with the keys "correct",
"attempted", "failed" and "metrics".

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, timed
with tracing off: set-up, round time and peak memory, each measured on the
workload's own operations.  With --trace 1 the rounds alternate untraced and
traced, the traced ones record spans around the program's public functions
(see tracing.py), and the metrics are the per-layer ones; the spans are
written to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("oracle_canon", "simulate_canon", "solve_batch", "cli_session")
SETUP_SAMPLES = 5          # this process plus four fresh ones
IMPORT_SAMPLES = 3
CONTACT_GAP_REPEATS = 20
CALL_OVERHEAD_REPEATS = 30

now = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up once in this process and print the seconds")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_in_fresh_process(args):
    """Set-up time of one fresh interpreter: import, inputs, canon solve, grid."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, env=child_env(), cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_times():
    """Cumulative import seconds of persuade and of scipy, from -X importtime.

    scipy is the sum over the outermost scipy entries (scipy, scipy.sparse,
    ...) that are not nested inside another scipy entry.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import persuade"],
                          capture_output=True, text=True, timeout=120, env=child_env(),
                          cwd=ROOT, check=True)
    persuade_us, scipy_us, scipy_depth = 0, 0, None
    # Children are printed before their parent, so walk the lines backwards.
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if name == "persuade":
            persuade_us = cumulative
        if scipy_depth is None and name.split(".")[0] == "scipy":
            scipy_us += cumulative
            scipy_depth = depth
    return persuade_us / 1e6, scipy_us / 1e6


def run_rounds(bench, seconds, tracer):
    """Whole rounds for about `seconds`.

    Another round starts while at least half of a typical round (the median
    so far) still fits, so the rounds end within half a round of `seconds`
    whatever their length.  A traced run alternates untraced and traced
    rounds and needs one of each to measure the tracing overhead.  Returns
    the rounds and which of them were traced.
    """
    rounds, traced, spans = [], [], []
    least = max(bench.min_rounds, 2 if tracer is not None else 1)
    start = now()
    while len(rounds) < least or now() - start + statistics.median(spans) / 2 < seconds:
        on = tracer is not None and len(rounds) % 2 == 1
        if on:
            tracer.install()
        t0 = now()
        try:
            rounds.append(bench.run_round())
        finally:
            if on:
                tracer.uninstall()
        spans.append(now() - t0)
        traced.append(on)
    return rounds, traced


def measure_end_to_end(bench, args, setup_s):
    """The end-to-end metrics, from the workload's own rounds and set-ups."""
    rounds, _ = run_rounds(bench, args.seconds, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [setup_s] + [setup_in_fresh_process(args)
                                 for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.wall for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    return rounds, metrics


def thread_count():
    raw = os.environ.get("PERSUADE_THREADS")
    return max(1, int(raw)) if raw else len(os.sched_getaffinity(0))


def timed_simulate(sim, problem, policy, config, threads=None):
    """One simulate call, optionally with PERSUADE_THREADS set for its duration."""
    saved = os.environ.get("PERSUADE_THREADS")
    if threads is not None:
        os.environ["PERSUADE_THREADS"] = str(threads)
    try:
        t0 = now()
        sim.simulate(problem, policy, config)
        return now() - t0
    finally:
        if saved is None:
            os.environ.pop("PERSUADE_THREADS", None)
        else:
            os.environ["PERSUADE_THREADS"] = saved


def per_layer(workloads, bench, tracer, rounds, traced, args):
    """Every per-layer metric: span totals plus measurements made beside them."""
    import tracing
    from persuade import oracle, sim

    n_traced = sum(traced)
    metrics = tracing.layer_metrics(tracer.spans, n_traced)
    # Timed parts of the untraced rounds: tracing slows the per-node policy
    # loop far more than value iteration, so their split is read untraced.
    plain_rounds = [r for r, on in zip(rounds, traced) if not on]
    for key in ("oracle.vi_s", "oracle.policy_eval_s"):
        metrics[key] = statistics.median(r.parts.get(key, 0.0) for r in plain_rounds)
    imports = [import_times() for _ in range(IMPORT_SAMPLES)]
    metrics["import.persuade_s"] = statistics.median(t[0] for t in imports)
    metrics["import.scipy_s"] = statistics.median(t[1] for t in imports)

    metrics["oracle.grid_points"] = 0
    metrics["oracle.contact_gap_us"] = 0.0
    if "oracle.value_iteration" in tracer.last:
        (problem, _, grid, *_), _, result = tracer.last["oracle.value_iteration"]
        metrics["oracle.grid_points"] = len(grid)
        samples = []
        for _ in range(CONTACT_GAP_REPEATS):
            t0 = now()
            oracle.contact_gap(problem, result)
            samples.append(now() - t0)
        metrics["oracle.contact_gap_us"] = statistics.median(samples) * 1e6

    metrics["sim.ns_per_path_step_1t"] = 0.0
    metrics["sim.parallel_efficiency"] = 0.0
    if "sim.simulate" in tracer.last:
        # The workload's last simulate call again, at the default thread
        # count and on one thread.
        (problem, policy, config, *_), _, _ = tracer.last["sim.simulate"]
        t_default = timed_simulate(sim, problem, policy, config)
        t_one = timed_simulate(sim, problem, policy, config, threads=1)
        metrics["sim.ns_per_path_step_1t"] = t_one / (config.n_paths * config.horizon) * 1e9
        metrics["sim.parallel_efficiency"] = t_one / (thread_count() * t_default)

    problem, solution = workloads.canon()
    config = sim.SimConfig(delta=0.01, horizon=1, n_paths=1, seed=args.seed, initial_belief=0.5)
    samples = []
    for _ in range(CALL_OVERHEAD_REPEATS):
        t0 = now()
        sim.simulate(problem, solution.policy, config, max_tail=math.inf)
        samples.append(now() - t0)
    metrics["sim.call_overhead_ms"] = statistics.median(samples) * 1e3

    metrics["cli.bytes_written"] = statistics.median(getattr(bench, "bytes_written", [0]))
    plain = [r.wall for r in plain_rounds]
    spanned = [r.wall for r, on in zip(rounds, traced) if on]
    metrics["trace.wall_s"] = statistics.median(spanned)
    metrics["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "error", "work"],
                   "spans": tracer.spans}, handle)
    return metrics


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "persuade", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/persuade; run from the root "
              f"of a persuade checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    t0 = now()
    import workloads
    bench = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_s = now() - t0
    if args.setup_only:
        bench.close()
        print(repr(setup_s))
        return 0

    try:
        spec = load_spec()
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            rounds, traced = run_rounds(bench, args.seconds, tracer)
            errors = bench.check()
            metrics = per_layer(workloads, bench, tracer, rounds, traced, args)
            wanted = spec["per_layer"]
        else:
            rounds, metrics = measure_end_to_end(bench, args, setup_s)
            errors = bench.check()
            wanted = spec["end_to_end"]
    finally:
        bench.close()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
