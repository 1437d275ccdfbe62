"""Bounded sat and compression, two independent routes to a model, checked
against each other (`helpers.sat_compress_disagreements`)."""

from fractions import Fraction

import pytest

from helpers import sat_compress_disagreements, sat_compress_instances

import pctlfg.etr as etr
import pctlfg.progress as progress
from pctlfg.formula import parse_formula
from pctlfg.markov import MarkovChain


# The compression failures each seed is known to raise, pinned line for line.
# Seed 3 raises ROADMAP item 1's open step C: the `cross3` input of
# `test_progress.py::test_compress_discharged_f_regressions`.
KNOWN_FAILURES = {
    3: ["!a & F=1[a] & G>0[F>=1/4[G=1[a]]] at 's1' of "
        '{"states": [{"id": "s0", "ap": ["b"]}, {"id": "s1", "ap": ["b"]}, '
        '{"id": "s2", "ap": ["a"]}, {"id": "s3", "ap": ["a"]}, '
        '{"id": "s4", "ap": ["a", "b"]}], '
        '"edges": [{"from": "s0", "to": "s4", "p": "1/2"}, '
        '{"from": "s0", "to": "s0", "p": "1/6"}, '
        '{"from": "s0", "to": "s1", "p": "1/3"}, '
        '{"from": "s1", "to": "s3", "p": "1/4"}, '
        '{"from": "s1", "to": "s4", "p": "1/2"}, '
        '{"from": "s1", "to": "s2", "p": "1/4"}, '
        '{"from": "s2", "to": "s2", "p": "1"}, '
        '{"from": "s3", "to": "s3", "p": "1/5"}, '
        '{"from": "s3", "to": "s4", "p": "2/5"}, '
        '{"from": "s3", "to": "s1", "p": "2/5"}, '
        '{"from": "s4", "to": "s0", "p": "1/3"}, '
        '{"from": "s4", "to": "s3", "p": "1/3"}, '
        '{"from": "s4", "to": "s1", "p": "1/3"}]}'
        ": CompressionError: progress measure did not decrease at 's3': 7 >= 7"],
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 58])
def test_sat_and_compress_agree(seed):
    """No instance of the seed disagrees, and a compressed model that does
    not satisfy its formula is a disagreement.  A compression that fails on
    its input is no disagreement but a compression defect: each seed raises
    exactly its `KNOWN_FAILURES`, and any other kind, or one more, is new.
    Seed 58 holds an L2 input whose first loop fails condition (5) and a
    later witness serves (ROADMAP item 1 step D)."""
    disagreements, failures, counts = sat_compress_disagreements(
        sat_compress_instances(seed, 300))
    assert disagreements == []
    # both directions ran, and a third of each through a progress loop
    assert counts["forward"] >= 250 and counts["reverse"] >= 250
    assert counts["forward loops"] >= 100 and counts["reverse loops"] >= 100
    assert failures == KNOWN_FAILURES.get(seed, [])


def test_an_unsound_screen_fails_the_cross_examination(monkeypatch):
    # a screen that refutes every candidate the checker would confirm makes
    # bounded sat answer unsat-up-to-n below the size of a compressed model
    original = etr.enumerate_candidates

    def unsound(f, bound, _result=None):
        for candidate in original(f, bound, _result):
            if etr.check_assignment(candidate,
                                    etr.uniform_assignment(candidate)) is None:
                yield candidate

    chain = MarkovChain(["s", "t"], {("s", "t"): Fraction(1),
                                     ("t", "t"): Fraction(1)}, {"t": ["a"]})
    instances = [(chain, "s", parse_formula("!a & F>0[a]"))]
    assert sat_compress_disagreements(instances)[0] == []
    monkeypatch.setattr(etr, "enumerate_candidates", unsound)
    disagreements, _, _ = sat_compress_disagreements(instances)
    assert [d.split(":")[0] for d in disagreements] == ["forward"]


def test_an_unsound_compression_is_a_disagreement(monkeypatch):
    # a compressed model that does not satisfy its formula is a disagreement
    # in both directions, not a compression failure
    chain = MarkovChain(["s", "t"], {("s", "t"): Fraction(1),
                                     ("t", "t"): Fraction(1)}, {"t": ["a"]})
    original = progress.compress_model

    def unsound(chain, state, f, **options):
        model, entry, trace = original(chain, state, f, **options)
        return model, next(s for s in model.states if s != entry), trace

    monkeypatch.setattr(progress, "compress_model", unsound)
    disagreements, failures, _ = sat_compress_disagreements(
        [(chain, "s", parse_formula("!a & F>0[a]"))])
    assert failures == []
    assert [d.split(":")[0] for d in disagreements] == ["forward", "reverse"]
