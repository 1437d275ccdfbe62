"""Exact traced counts at seed 11.

The traced pass at seed 11 of each benchmark workload makes exactly the
calls and solves pinned in `golden/traced_seed11.json`, on every Python and
under any hash seed: a count that moves means some fact is derived once more
or once less than before.  A change that moves a count on purpose updates
its pin in that file and gives the old and new values in CHANGES.md
(ROADMAP items 1, 2 and 8).  `model_states_mean` is pinned as 1788 states
over the 520 `compress` instances.

A successor selection with no path formula to cover reads its one successor
off the graph, with no first-passage solve and no Caratheodory step; first
passage solves only the columns of the targets the source can enter first;
and a bound of 0 or 1 is decided from the prob0/prob1 masks with no reach
solve.  So `compress` makes 502 solves, 309 null vectors and 254 first
passages.

Besides the pins, each workload keeps one structural check:

- `check`: prob0/prob1 run on `markov.states_with_path_to`, the one backward
  search, so its self time must read above 0; 0 means the search moved out
  of it.
- `compress`: `compress_model` reads its input chain's SCCs from the checker
  (`mc.sccs`), which calls the traced `markov.scc_decompose` once; every
  other SCC question reads that decomposition's masks.  So the pass makes
  exactly one call per instance: 0 means the decomposition left the traced
  function, more means some chain is decomposed twice.
- `sat`: without a solver, bounded sat builds each candidate with one
  `encode` call as it is emitted and tries its uniform assignment on one
  `ModelChecker`, which also re-verifies a model it confirms.  So
  candidates, encode calls and checkers are equal and above 0: more encode
  calls or checkers than candidates means some candidate is encoded or
  checked twice.

The benchmark runs on a copy of `bench/` and `src/`, so the span files a
traced run writes go to that copy's `bench/out/`, not the checkout's.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PINS = json.loads((ROOT / "tests" / "golden" / "traced_seed11.json").read_text())


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> pathlib.Path:
    """A copy of `bench/` and `src/`.  Not symlinks: the benchmark checks
    that it imports the library from the resolved `src/` beside it."""
    root = tmp_path_factory.mktemp("checkout")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root


def _traced_pass(root: pathlib.Path, workload: str) -> dict:
    """The result line of `bench/run.py --trace 1` at seed 11."""
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=root).stdout
    return json.loads(out.splitlines()[-1])


def test_every_workload_is_pinned():
    assert sorted(PINS) == ["check", "compress", "sat"]


@pytest.mark.parametrize("workload", sorted(PINS))
def test_traced_counts_at_seed_11(checkout, workload):
    result = _traced_pass(checkout, workload)
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
