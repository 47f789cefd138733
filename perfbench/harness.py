"""Timed, traced and profiled passes over one workload, and the result.

run.py puts src/ on the path before importing this module.
"""

import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from rightq import rewrite

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "rightq"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

PER_LAYER = {
    "macmahon.series_s": "s",
    "expressions.product_s": "s",
    "expressions.product_terms": "count",
    "expressions.split_s": "s",
    "rewrite.reduce_s": "s",
    "rewrite.reduce_top_degree_s": "s",
    "rewrite.steps": "count",
    "rewrite.steps_per_s": "1/s",
    "rewrite.peak_terms": "count",
    "rewrite.measure_checks": "count",
    "basis_oracle.matrix_s": "s",
    "basis_oracle.priority_s": "s",
    "basis_oracle.rank_s": "s",
    "basis_oracle.count_s": "s",
    "basis_oracle.rows": "count",
    "basis_oracle.nnz": "count",
    "basis_oracle.rank": "count",
    "rewrite.confluence_s": "s",
    "weight.phi_s": "s",
    "rewrite.in_ideal_s": "s",
    "basis_oracle.spanning_rank_s": "s",
    "rewrite.memo_entries": "count",
    "check_p50_ms": "ms",
    "check_p99_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "profile.laurent_share": "share",
    "profile.words_share": "share",
    "profile.rewrite_share": "share",
    "profile.expressions_share": "share",
    "profile.basis_oracle_share": "share",
}

PROFILED_MODULES = ("laurent", "words", "rewrite", "expressions", "basis_oracle")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import rightq and build the inputs."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def fresh_memo(gates) -> None:
    rewrite.clear_caches()
    gates.expect("hygiene.memo_before_pass", workloads.memo_entries(), 0)


def timed_pass(workload, inputs, want, gates) -> dict:
    fresh_memo(gates)
    checks_before = rewrite.measure_check_count()
    start = perf_counter()
    outcome = workload.run(inputs)
    outcome["measure_checks"] = rewrite.measure_check_count() - checks_before
    workload.check(inputs, outcome, want, gates)
    outcome["wall"] = perf_counter() - start
    return outcome


def traced_pass(workload, inputs, outcome, want, gates) -> dict:
    fresh_memo(gates)
    spans = workloads.Spans()
    start = perf_counter()
    counts = workload.traced(inputs, outcome, want, spans, gates)
    wall = perf_counter() - start
    layers = dict(spans.seconds)
    layers.update(counts)
    layers["trace.wall_s"] = wall
    layers["trace.unaccounted_s"] = wall - sum(spans.seconds.values())
    return layers


def profile_shares(workload, inputs, gates) -> dict:
    """Self time per rightq module over all profiled self time.

    cProfile charges a cost to every Python call, so these shares lean
    towards modules that make many small calls.  They are never gates.
    """
    fresh_memo(gates)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(inputs)
    profiler.disable()
    total = 0.0
    per_module = dict.fromkeys(PROFILED_MODULES, 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        self_time = row[2]
        total += self_time
        path = Path(filename)
        if path.parent == PACKAGE and path.stem in per_module:
            per_module[path.stem] += self_time
    return {f"profile.{name}_share": t / total for name, t in per_module.items()}


def latency_ms(outcomes) -> dict:
    """Median over passes of the per-pass p50 and p99 check latency."""
    p50, p99 = [], []
    for outcome in outcomes:
        cuts = statistics.quantiles(outcome["latencies"], n=100)
        p50.append(cuts[49] * 1e3)
        p99.append(cuts[98] * 1e3)
    return {
        "check_p50_ms": statistics.median(p50),
        "check_p99_ms": statistics.median(p99),
    }


def another_fits(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more pass of the median length ends within the run."""
    return perf_counter() - start + statistics.median(walls) <= seconds


def run_untraced(args, workload, inputs, want, gates, details) -> dict:
    setup = measure_setup(args)
    start = perf_counter()
    # A checked warm-up pass, left out of the times: only it pays for
    # first-touch page faults.  Its peak is what one call of the program
    # sees; later passes add allocator fragmentation that grows with
    # their number.
    warmup = timed_pass(workload, inputs, want, gates)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [timed_pass(workload, inputs, want, gates)]
    while another_fits(start, args.seconds, [o["wall"] for o in outcomes]):
        outcomes.append(timed_pass(workload, inputs, want, gates))
    workload.reference_check(inputs, [warmup] + outcomes, gates)
    walls = [o["wall"] for o in outcomes]
    details["passes"] = len(outcomes)
    details["warmup_wall_s"] = f"{warmup['wall']:.4f}"
    details["pass_walls_s"] = " ".join(f"{w:.4f}" for w in walls)
    details["setup_probes_s"] = " ".join(f"{t:.4f}" for t in setup)
    details["work_unit"] = workload.unit
    if "latencies" in outcomes[0]:
        details.update(latency_ms(outcomes))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": statistics.median(workload.work(o) / o["wall"] for o in outcomes),
    }


def run_traced(args, workload, inputs, want, gates, details) -> dict:
    outcomes, traces, pairs = [], [], []
    start = perf_counter()
    # The profiled pass goes first, inside --seconds, and warms up the
    # passes after it.  Two pairs at least, so that span times are not
    # a single sample.
    shares = profile_shares(workload, inputs, gates)
    while len(pairs) < 2 or another_fits(start, args.seconds, pairs):
        began = perf_counter()
        outcome = timed_pass(workload, inputs, want, gates)
        outcomes.append(outcome)
        traces.append(traced_pass(workload, inputs, outcome, want, gates))
        pairs.append(perf_counter() - began)
    workload.reference_check(inputs, outcomes, gates)
    layers = {name: statistics.median(t[name] for t in traces) for name in traces[0]}
    untraced_wall = statistics.median(o["wall"] for o in outcomes)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
    if "latencies" in outcomes[0]:
        layers.update(latency_ms(outcomes))
    layers.update(shares)
    details["passes"] = len(traces)
    details["untraced_wall_s"] = untraced_wall
    in_spans = layers["trace.wall_s"] - layers["trace.unaccounted_s"]
    details["layers_cover_wall"] = in_spans / untraced_wall
    for name in sorted(set(layers) - set(PER_LAYER)):
        details[f"layer.{name}"] = layers[name]
    # A layer this workload does not call reads 0.
    return {name: layers.get(name, 0) for name in PER_LAYER}


def main(args) -> int:
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(workloads.WORKLOADS)
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {known}",
            file=sys.stderr,
        )
        return 2
    gates = workloads.Gates()
    # A fresh process: nothing may be counted or memoized before the first pass.
    gates.expect("hygiene.measure_checks_at_start", rewrite.measure_check_count(), 0)
    gates.expect("hygiene.memo_at_start", workloads.memo_entries(), 0)
    inputs = workload.build(args.seed)
    if args.setup_probe:
        return 0

    load_before = os.getloadavg()
    cores = len(os.sched_getaffinity(0))
    want = json.loads((HERE / "gates.json").read_text())[args.workload]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": cores,
        "load_before": " ".join(f"{x:.2f}" for x in load_before),
    }
    if load_before[0] > cores:
        details["load_flag"] = "load above core count at start"
    if args.trace:
        measure, units = run_traced, PER_LAYER
    else:
        measure, units = run_untraced, END_TO_END
    metrics = measure(args, workload, inputs, want, gates, details)
    details["load_after"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
    details["error_rate"] = len(gates.failures) / gates.attempted

    for key, value in details.items():
        print(f"{key}\t{value}")
    for name, value in metrics.items():
        print(f"{name}\t{value}\t{units[name]}")
    for failure in gates.failures[:20]:
        print(f"gate_failure\t{failure}")
    correct = not gates.failures
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1
