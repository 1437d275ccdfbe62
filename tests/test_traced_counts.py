"""Exact traced counts at seed 11.

The traced pass at seed 11 of each benchmark workload makes exactly the
calls and solves pinned in `golden/traced_seed11.json`, on every Python and
under any hash seed: a count that moves means some fact is derived once more
or once less than before.  A change that moves a count on purpose updates
its pin in that file, which the CI step of the same name also reads, and
gives the old and new values in CHANGES.md.  `model_states_mean` is pinned
as 1788 states over the 520 `compress` instances.

Besides the pins, each workload keeps one structural check:

- `check`: prob0/prob1 run on `markov.states_with_path_to`, the one backward
  search, so its self time must read above 0; 0 means the search moved out
  of it.
- `compress`: `compress_model` reads its input chain's SCCs from the checker
  (`mc.sccs`), which calls the traced `markov.scc_decompose` once, so the
  pass makes exactly one call per instance: 0 means the decomposition left
  the traced function, more means some chain is decomposed twice.
- `sat`: without a solver, bounded sat builds each candidate with one
  `encode` call and tries its uniform assignment on one `ModelChecker`, so
  candidates, encode calls and checkers are equal and above 0.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PINS = json.loads((ROOT / "tests" / "golden" / "traced_seed11.json").read_text())


def _traced_pass(workload: str) -> dict:
    """The result line of `bench/run.py --trace 1` at seed 11."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])


def test_every_workload_is_pinned():
    assert sorted(PINS) == ["check", "compress", "sat"]


@pytest.mark.parametrize("workload", sorted(PINS))
def test_traced_counts_at_seed_11(workload):
    result = _traced_pass(workload)
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    pinned = PINS[workload]
    assert {key: metrics[key] for key in pinned} == pinned
    if workload == "check":
        assert metrics["markov.states_with_path_to.self_s"] > 0
    elif workload == "compress":
        assert metrics["markov.scc_decompose.calls"] == result["attempted"]
    else:
        counts = {metrics[key] for key in ("etr.candidates", "etr.encode.calls",
                                           "modelcheck.checkers")}
        assert len(counts) == 1 and counts.pop() > 0
