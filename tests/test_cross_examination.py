"""Bounded sat and compression, two independent routes to a model, checked
against each other (`helpers.sat_compress_disagreements`)."""

from fractions import Fraction

from helpers import sat_compress_disagreements, sat_compress_instances

import pctlfg.etr as etr
import pctlfg.progress as progress
from pctlfg.formula import parse_formula
from pctlfg.markov import MarkovChain


def test_sat_and_compress_agree():
    disagreements, failures, counts = sat_compress_disagreements(
        sat_compress_instances(1, 300))
    assert disagreements == []
    # both directions ran, and a third of each through a progress loop
    assert counts["forward"] >= 250 and counts["reverse"] >= 250
    assert counts["forward loops"] >= 100 and counts["reverse loops"] >= 100
    assert failures == []


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
