"""Tests of the benchmark itself: seeded inputs, exact counts, hooks, oracles.

    python3 bench/test_bench.py

Uses a short prefix of each workload's instances so that it runs in well
under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library()

import oracle  # noqa: E402
import pctlfg  # noqa: E402
import workloads  # noqa: E402

PREFIX = 12

# Counts that must repeat exactly for a seed, whatever the hash seed.
EXACT = ("linalg.solve.unknowns", "markov.scc_decompose.calls",
         "etr.candidates", "etr.refuted", "progress.recursion_nodes",
         "model_states_mean", "failed_share")

_COUNTS_SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
run.import_library()
import workloads
out = {{}}
for w in workloads.WORKLOADS:
    instances = workloads.generate(w, {seed})[:{prefix}]
    metrics, summary, *_ = run.traced_run(w, "test", instances)
    out[w] = {{k: metrics[k] for k in {exact!r}}}
    out[w]["decided"] = summary["decided"]
print(json.dumps(out))
"""


def exact_counts(seed: int, hash_seed: str) -> dict:
    script = _COUNTS_SCRIPT.format(bench=str(BENCH_DIR), seed=seed,
                                   prefix=PREFIX, exact=EXACT)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    return json.loads(done.stdout)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            first = workloads.generate(w, 7)
            self.assertEqual(first, workloads.generate(w, 7), w)
            self.assertNotEqual(first, workloads.generate(w, 8), w)

    def test_exact_counts_repeat_across_processes(self):
        a = exact_counts(5, "1")
        b = exact_counts(5, "2")
        self.assertEqual(a, b)
        self.assertGreater(a["check"]["linalg.solve.unknowns"], 0)
        self.assertGreater(a["compress"]["progress.recursion_nodes"], 0)
        self.assertGreater(a["sat"]["etr.candidates"], 0)


class Hooks(unittest.TestCase):
    def test_removed_function_reads_absent(self):
        original = pctlfg.linalg.null_vector
        del pctlfg.linalg.null_vector
        try:
            instances = workloads.generate("check", 3)[:PREFIX]
            metrics, summary, _, failed, info = run.traced_run(
                "check", "test", instances)
        finally:
            pctlfg.linalg.null_vector = original
        self.assertEqual(info["absent"], ["linalg.null_vector.calls",
                                          "linalg.null_vector.self_s"])
        self.assertEqual(metrics["linalg.null_vector.calls"], 0)
        self.assertEqual(failed, 0)
        self.assertGreater(metrics["linalg.solve.calls"], 0)

    def test_wrappers_are_removed_after_the_traced_pass(self):
        before = pctlfg.progress.scc_decompose
        run.traced_run("check", "test", workloads.generate("check", 3)[:2])
        self.assertIs(pctlfg.progress.scc_decompose, before)
        self.assertIs(pctlfg.markov.scc_decompose, before)


class Accounting(unittest.TestCase):
    def test_failures_count_once_per_instance_whatever_the_passes(self):
        answer = pctlfg.SatSearchResult(status="unsat-up-to-n")

        def stub(inst):
            if inst["i"] % 50 == 0:
                raise ValueError("stub failure")
            return answer, None

        instances = [{"i": i, "formula": ""} for i in range(100)]
        passes = set()
        with mock.patch.dict(workloads.RUNNERS, {"sat": stub}), \
                mock.patch.dict(oracle.PROBLEMS, {"sat": lambda *_: []}):
            for seconds in (0, 0.5):
                _, summary, attempted, failed, info = run.untraced_run(
                    "sat", instances, seconds)
                self.assertEqual((attempted, failed), (100, 2))
                self.assertEqual(summary["failures"],
                                 {"ValueError: stub failure": 2})
                passes.add(info["passes"])
        self.assertEqual(len(passes), 2)

    def test_scaling_follows_the_speed_probe(self):
        probe = run.REFERENCE_PROBE_S
        self.assertEqual(run.scaled(1.0, [probe / 2] * 3), 2.0)
        self.assertEqual(run.scaled(1.0, [probe, 9.0, probe]), 1.0)


class Oracles(unittest.TestCase):
    def test_check_oracle_rejects_a_wrong_verdict_and_vector(self):
        inst = workloads.generate("check", 3)[1]
        verdict, artifacts = workloads.run_check(inst)
        self.assertEqual(oracle.check_problems(inst, verdict, artifacts), [])
        self.assertNotEqual(oracle.check_problems(inst, not verdict, artifacts), [])
        chain, f, mc = artifacts

        def skewed(path):
            vector = dict(mc.path_probabilities(path))
            vector[chain.states[0]] += 1
            return vector

        self.assertNotEqual(oracle.evaluate(chain, f, skewed)[1], [])

    def test_sat_oracle_rejects_verdicts_against_the_known_answer(self):
        planted = pctlfg.SatSearchResult(status="unsat-up-to-n")
        job = {"expect": "sat", "bound": 2}
        self.assertNotEqual(oracle.sat_problems(job, planted, None), [])
        job = {"expect": "unsat", "bound": 2}
        found = pctlfg.SatSearchResult(status="sat")
        self.assertNotEqual(oracle.sat_problems(job, found, None), [])


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
