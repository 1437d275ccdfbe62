"""Seeded benchmark of the three user-facing jobs: `check`, `compress`, `sat`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload check --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics: set-up time, then whole passes
over the seeded instance list until `--seconds` have elapsed, every time
scaled to a reference machine speed (see "Machine speed").  `--trace 1`
runs one untraced and one traced pass over the same list and reports the
per-layer metrics of the traced pass and the tracing overhead.  Either way
the first pass's answers go through the exact oracles in `oracle.py`, and
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

The library is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits with code 2 before measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
SETUP_PROBES = 3
MIN_PASSES = 2
SPEED_PROBE_TERMS = 120
REFERENCE_PROBE_S = 0.0006
HASH_SEED = "0"
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Read from tracing.Tracer.metrics(), except `progress.recursion_nodes` and
# the last six, which come from the traced pass's own outputs.  Every count and call count repeats exactly for a
# given seed.
PER_LAYER = (
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.solve.unknowns", "count"),
    ("linalg.solve.rhs_columns", "count"),
    ("linalg.solve.max_den_bits", "bits"),
    ("linalg.solve.trivial_share", "ratio"),
    ("linalg.null_vector.calls", "count"),
    ("linalg.null_vector.self_s", "s"),
    ("markov.from_json.self_s", "s"),
    ("markov.scc_decompose.calls", "count"),
    ("markov.scc_decompose.self_s", "s"),
    ("markov.states_with_path_to.self_s", "s"),
    ("markov.first_passage.calls", "count"),
    ("markov.first_passage.self_s", "s"),
    ("formula.parse_formula.self_s", "s"),
    ("formula.fragment_classify.self_s", "s"),
    ("modelcheck.checkers", "count"),
    ("modelcheck.reach_probabilities.calls", "count"),
    ("modelcheck.reach_probabilities.self_s", "s"),
    ("modelcheck.sat_set.self_s", "s"),
    ("closure.closure_update.self_s", "s"),
    ("closure.achieved_bounds.self_s", "s"),
    ("measure.progress_measure.self_s", "s"),
    ("progress.compress_model.self_s", "s"),
    ("progress.search_loop_l2.self_s", "s"),
    ("progress.search_loop_generic.self_s", "s"),
    ("progress.verify_loop.calls", "count"),
    ("progress.verify_loop.self_s", "s"),
    ("progress.successor_selection.self_s", "s"),
    ("progress.caratheodory_reduce.self_s", "s"),
    ("progress.bscc_reduce.self_s", "s"),
    ("progress.build_loop_model.self_s", "s"),
    ("progress.recursion_nodes", "count"),
    ("etr.f_normal_form.self_s", "s"),
    ("etr.solve_bounded_sat.self_s", "s"),
    ("etr.encode.calls", "count"),
    ("etr.encode.self_s", "s"),
    ("etr.interval_refuted.self_s", "s"),
    ("etr.candidates", "count"),
    ("etr.refuted", "count"),
    ("etr.survivor_share", "ratio"),
    ("etr.solver_calls", "count"),
    ("linalg.self_share", "ratio"),
    ("markov.self_share", "ratio"),
    ("formula.self_share", "ratio"),
    ("modelcheck.self_share", "ratio"),
    ("closure.self_share", "ratio"),
    ("measure.self_share", "ratio"),
    ("progress.self_share", "ratio"),
    ("etr.self_share", "ratio"),
    ("trace.other_self_share", "ratio"),
    ("model_states_mean", "states"),
    ("failed_share", "ratio"),
    ("trace.instances", "count"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_share", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_library():
    if not (SRC_DIR / "pctlfg" / "__init__.py").is_file():
        raise BenchError(f"no library sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import pctlfg
    if Path(pctlfg.__file__).resolve().parent != SRC_DIR / "pctlfg":
        raise BenchError(f"imported pctlfg from {pctlfg.__file__}, not {SRC_DIR}")
    return pctlfg


def inputs_digest(instances) -> str:
    text = json.dumps(instances, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Machine speed
#
# The shared 2-core machine this was tuned on changes speed by up to 1.9
# times within seconds, and its slowest level drifts by 15% over minutes.
# So every time is scaled to a reference speed: a speed probe, a fixed bit of
# Fraction arithmetic that does not touch the library, is timed next to each
# measurement, and the measured time is multiplied by REFERENCE_PROBE_S over
# the probe's time.  REFERENCE_PROBE_S is what the probe took on that
# machine at its slowest level, so times read as they would there.

def speed_probe() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, SPEED_PROBE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def probe_times(count: int) -> list[float]:
    return [speed_probe() for _ in range(count)]


def scaled(seconds: float, around) -> float:
    """`seconds` at the reference speed, given the probe times around it."""
    return seconds * REFERENCE_PROBE_S / statistics.median(around)


def scaled_each(times, around) -> list[float]:
    """Each of `times` scaled by the three probes before and the three after
    it; `around[i]` was taken just before `times[i]`, and one more probe
    after the last."""
    return [scaled(t, around[max(0, i - 2):i + 4]) for i, t in enumerate(times)]


# ---------------------------------------------------------------------------
# Set-up

def generate_timed(workload: str, seed: int):
    """The inputs, the wall time of generating them with speed probes in
    between, and that generation time scaled instance by instance, as the
    timed run scales its instances."""
    import workloads
    instances, times, around = [], [], [speed_probe()]
    t_all = time.perf_counter()
    for_each = iter(workloads.GENERATORS[workload](seed))
    while True:
        t0 = time.perf_counter()
        inst = next(for_each, None)
        if inst is None:
            break
        times.append(time.perf_counter() - t0)
        instances.append(inst)
        around.append(speed_probe())
    wall = time.perf_counter() - t_all
    return instances, wall, sum(scaled_each(times, around))


def measure_setup(workload: str, seed: int, digest: str) -> list[float]:
    """Set-up times of fresh interpreters that import the library and
    generate the inputs; each must produce the same inputs as this process.
    The generation is scaled instance by instance inside the interpreter;
    the rest of its life (start, import, exit) by speed probes just before
    and after it."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        before = probe_times(SETUP_PROBES)
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=REPO_ROOT)
        wall = time.perf_counter() - t0
        after = probe_times(SETUP_PROBES)
        try:
            seen, generation_wall, generation_s = json.loads(done.stdout)
        except ValueError:
            seen = None
        if done.returncode != 0 or seen != digest:
            raise BenchError("set-up probe disagrees with this process: "
                             + (done.stderr.strip() or done.stdout.strip()))
        samples.append(scaled(wall - generation_wall, before + after)
                       + generation_s)
    return samples


# ---------------------------------------------------------------------------
# One pass over the instances

def attempt(run, inst, progress):
    """("ok", output), ("undecided", message) or ("failed", message)."""
    try:
        return "ok", run(inst)
    except progress.SearchSpaceExceeded as exc:
        return "undecided", f"SearchSpaceExceeded: {exc}"
    except progress.ProgressLoopError as exc:
        if str(exc).startswith("no progress loop found"):
            return "undecided", f"ProgressLoopError: {exc}"
        return "failed", f"ProgressLoopError: {exc}"
    except Exception as exc:  # every other exception is a failure, by message
        return "failed", f"{type(exc).__name__}: {exc}"


def decided(workload: str, output) -> bool:
    """Whether a returned answer is a definite verdict."""
    return workload != "sat" or output[0].status in ("sat", "unsat-up-to-n")


def signature(workload: str, kind: str, output):
    """A cheap summary of an outcome, compared across passes."""
    if kind != "ok":
        return kind, output
    if workload == "check":
        return kind, output[0]
    if workload == "compress":
        model, entry, _ = output[0]
        return kind, entry, model.to_json(indent=None)
    result = output[0]
    return kind, result.status, result.candidates, result.refuted


def run_pass(workload, instances, tracer=None, probes=None):
    """Runs every instance once; returns (wall seconds, latencies, outcomes).
    With a `probes` list, appends a speed probe time before every instance
    and one after the last."""
    import workloads
    from pctlfg import progress
    run = workloads.RUNNERS[workload]
    latencies = []
    outcomes = []
    t_pass = time.perf_counter()
    for i, inst in enumerate(instances):
        if probes is not None:
            probes.append(speed_probe())
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            outcome = attempt(run, inst, progress)
        finally:
            if tracer is not None:
                tracer.finish()
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    if probes is not None:
        probes.append(speed_probe())
    return time.perf_counter() - t_pass, latencies, outcomes


def judge(workload, instances, outcomes):
    """Oracle verdicts and outcome counts of one pass."""
    import oracle
    check = oracle.PROBLEMS[workload]
    summary = {"decided": 0, "undecided": 0, "failed": 0, "wrong": 0,
               "failures": Counter(), "wrong_examples": [],
               "bad": set(), "model_states": []}
    for i, (inst, (kind, output)) in enumerate(zip(instances, outcomes)):
        if kind != "ok":
            summary[kind] += 1
            if kind == "failed":
                summary["failures"][output[:200]] += 1
                summary["bad"].add(i)
            continue
        problems = check(inst, *output)
        if problems:
            summary["wrong"] += 1
            summary["bad"].add(i)
            summary["wrong_examples"].append(
                f"{inst['formula']}: {problems[0]}"[:300])
        if decided(workload, output):
            summary["decided"] += 1
        else:
            summary["undecided"] += 1
        if workload == "compress":
            summary["model_states"].append(len(output[0][0].states))
    return summary


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(child) for child in node.children)


# ---------------------------------------------------------------------------
# Runs

def percentile_ms(latencies, q: int) -> float:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def untraced_run(workload, instances, seconds):
    """Whole passes until `seconds` of pass time, at least MIN_PASSES; the
    end-to-end metrics.  An instance's time is the median over the passes
    of its scaled timings."""
    n = len(instances)
    if n < 100:
        raise BenchError(f"only {n} instances; p90 needs 100")
    first = reference = None
    per_pass = []
    unstable = set()
    wall = 0.0
    while wall < seconds or len(per_pass) < MIN_PASSES:
        around = []
        pass_s, lat, outcomes = run_pass(workload, instances, probes=around)
        wall += pass_s
        per_pass.append(scaled_each(lat, around))
        if first is None:
            first = outcomes
            reference = [signature(workload, *o) for o in outcomes]
        else:
            unstable.update(i for i, (o, ref) in enumerate(zip(outcomes, reference))
                            if signature(workload, *o) != ref)
        # so that peak memory does not grow with the number of passes
        outcomes = None
    mismatches = len(unstable)
    summary = judge(workload, instances, first)
    latencies = [statistics.median(times) for times in zip(*per_pass)]
    passes = len(per_pass)
    metrics = {
        "instances_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile_ms(latencies, 90),
        "decided_share": summary["decided"] / n,
    }
    # Counted per instance, not per pass, so that `attempted` and `failed`
    # are fixed by the seed and do not follow how many passes fit the time.
    failed = len(summary["bad"] | unstable)
    info = {"passes": passes, "pass_time_s": wall,
            "speed_vs_reference": passes * sum(latencies) / wall,
            "mismatches": mismatches}
    return metrics, summary, n, failed, info


def traced_run(workload, seed, instances):
    """A warm-up pass, an untraced pass and a traced pass; the per-layer
    metrics of the traced pass and its overhead over the untraced one."""
    from tracing import Tracer
    _, _, first = run_pass(workload, instances)
    untraced_s, _, _ = run_pass(workload, instances)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _, outcomes = run_pass(workload, instances, tracer)
    finally:
        tracer.uninstall()
    unstable = {i for i, (a, b) in enumerate(zip(first, outcomes))
                if signature(workload, *a) != signature(workload, *b)}
    mismatches = len(unstable)
    summary = judge(workload, instances, first)
    n = len(instances)
    sizes = summary["model_states"]
    values = tracer.metrics()
    values.update({
        "progress.recursion_nodes": sum(
            _count_nodes(output[0][2]) for kind, output in outcomes
            if workload == "compress" and kind == "ok"),
        "model_states_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "failed_share": (summary["failed"] + summary["wrong"]) / n,
        "trace.instances": n,
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_share": traced_s / untraced_s - 1,
    })
    metrics = {name: values[name] for name, _ in PER_LAYER}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.json")
    failed = len(summary["bad"] | unstable)
    info = {"mismatches": mismatches, "spans": len(tracer.start),
            "absent": [name for name in metrics if tracer.is_absent(name)]}
    return metrics, summary, n, failed, info


# ---------------------------------------------------------------------------

def report_lines(workload, seed, summary, info, metrics, units):
    lines = [f"workload {workload}, seed {seed}: "
             + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                         for k, v in info.items() if k != "absent")]
    lines.append(
        f"oracle: {summary['wrong']} wrong of "
        f"{summary['decided'] + summary['undecided']} answers; "
        f"{summary['decided']} decided, {summary['undecided']} undecided, "
        f"{summary['failed']} failed")
    for example in summary["wrong_examples"][:5]:
        lines.append(f"  wrong: {example}")
    for message, count in summary["failures"].most_common():
        lines.append(f"  failed x{count}: {message}")
    for name in info.get("absent", ()):
        lines.append(f"absent: {name} (its function is gone from the library)")
    for name, value in metrics.items():
        lines.append(f"{name:40s} {value:>14.6g} {units[name]}")
    return lines


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order inside the library follows the string hash
        # seed, and with it some of the work done; fix it so that runs of
        # one seed repeat the same work.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        import_library()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if args.setup_probe:
            instances, wall, generation_s = generate_timed(args.workload,
                                                           args.seed)
            print(json.dumps([inputs_digest(instances), wall, generation_s]))
            return 0
        instances = workloads.generate(args.workload, args.seed)
        digest = inputs_digest(instances)
        if args.trace:
            metrics, summary, attempted, failed, info = traced_run(
                args.workload, args.seed, instances)
            units = dict(PER_LAYER)
        else:
            metrics, summary, attempted, failed, info = untraced_run(
                args.workload, instances, args.seconds)
            setup = measure_setup(args.workload, args.seed, digest)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = dict(END_TO_END)
            metrics = {name: metrics[name] for name, _ in END_TO_END}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    info = {"inputs": digest[:12], **info}
    for line in report_lines(args.workload, args.seed, summary, info,
                             metrics, units):
        print(line)
    correct = summary["wrong"] == 0 and info["mismatches"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
