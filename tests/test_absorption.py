"""The exact absorption kernel, checked directly and through its two
callers: model checking reach vectors (which are also the ETR block
values) and first-passage distributions.  The equations are checked by
code written here, not by the kernel, and the values are compared with the
Fraction reference solvers of `helpers`, which build I - P in Fractions
and pin only the states with no path to the targets."""

import random
from fractions import Fraction

import pytest

from helpers import (
    random_chain, reach_by_name, reference_absorption, reference_reach,
    reference_reachable,
)

from pctlfg.linalg import null_vector
from pctlfg.markov import (
    FirstPassageError, absorption, first_passage, indices, scc_decompose,
)
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import caratheodory_reduce


def has_path(chain, source, targets) -> bool:
    seen, frontier = {source}, [source]
    while frontier:
        s = frontier.pop()
        if s in targets:
            return True
        for t in chain.successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return False


def one_step(chain, s, value) -> Fraction:
    return sum((p * value(t) for t, p in chain.successors(s).items()), Fraction(0))


def test_reach_vectors_satisfy_their_equations():
    rng = random.Random(41)
    for _ in range(80):
        chain = random_chain(rng, max_states=7)
        targets = frozenset(s for s in chain.states if rng.random() < 0.3)
        mc = ModelChecker(chain)
        x = reach_by_name(mc, targets)
        for s in chain.states:
            if s in targets:
                assert x[s] == 1
            elif not has_path(chain, s, targets):
                assert x[s] == 0
            else:
                assert x[s] == one_step(chain, s, x.__getitem__)


def test_first_passage_satisfies_its_equations():
    rng = random.Random(43)
    for _ in range(60):
        chain = random_chain(rng, max_states=7)
        mc = ModelChecker(chain)
        targets = set(scc_decompose(chain).bottom_states())
        targets |= {s for s in chain.states if rng.random() < 0.2}
        hit = {s: first_passage(mc, s, targets) for s in chain.states}
        for s in chain.states:
            assert sum(hit[s].values()) == 1
            for t in targets:
                if s in targets:
                    assert hit[s][t] == (1 if s == t else 0)
                    continue

                def value(u):
                    return (1 if u == t else 0) if u in targets else hit[u][t]

                assert hit[s][t] == one_step(chain, s, value)


def _chain_with_escape(rng):
    """A random chain and a target set that misses some bottom SCC, so that
    prob0, prob1 and the states between them all occur."""
    while True:
        chain = random_chain(rng, max_states=9)
        sccs = scc_decompose(chain)
        targets = frozenset(s for s in chain.states if rng.random() < 0.25)
        target_mask = chain.mask(targets)
        if targets and any(comp & sccs.bottom and not comp & target_mask
                           for comp in sccs.components):
            return chain, targets


def test_reach_probabilities_equal_prob0_reference():
    rng = random.Random(71)
    strictly_between = 0
    for _ in range(150):
        chain, targets = _chain_with_escape(rng)
        mc = ModelChecker(chain)
        reach = reach_by_name(mc, targets)
        assert reach == reference_reach(chain.states, chain.successors, targets)
        strictly_between += sum(0 < v < 1 for v in reach.values())
    assert strictly_between > 100


def test_first_passage_rows_equal_reference():
    # the reference solves a column for every target; the library only for
    # the targets the source can enter first (the successors of the region
    # it reaches without entering a target), and the others read exactly 0
    rng = random.Random(73)
    raised = compared = unentered = 0
    for _ in range(100):
        chain, targets = _chain_with_escape(rng)
        mc = ModelChecker(chain)
        tlist = sorted(targets)
        one_hot = {t: [int(t == u) for u in tlist] for t in tlist}
        reach = reference_reach(chain.states, chain.successors, targets)
        unknown = [s for s in chain.states if s not in targets and reach[s] != 0]
        rows = reference_absorption(unknown, chain.successors, one_hot)
        for s in chain.states:
            if reach[s] != 1:
                with pytest.raises(FirstPassageError):
                    first_passage(mc, s, targets)
                raised += 1
            elif s not in targets:
                hit = first_passage(mc, s, targets)
                assert hit == dict(zip(tlist, rows[s]))
                region = reference_reachable(chain, s, blocked=targets)
                entered = {t for u in region for t in chain.successors(u)
                           if t in targets}
                assert all(hit[t] > 0 for t in entered)
                assert all(hit[t] == 0 for t in targets - entered)
                unentered += len(targets - entered)
                compared += 1
    assert raised > 100 and compared > 50 and unentered > 20


def test_elimination_golden():
    # pins the kernel vector and the reduction the compression relies on
    F = Fraction
    rows = [[F(1, 3), F(2), F(-1, 2), F(5, 7), F(0)],
            [F(1), F(1, 4), F(3), F(0), F(2, 3)],
            [F(1)] * 5]
    assert null_vector(rows, 5) == [F(-699, 455), F(12, 455), F(232, 455), F(1), F(0)]
    points = [(F(1, 2), F(1, 3)), (F(1), F(0)), (F(0), F(1)),
              (F(1, 4), F(3, 4)), (F(2, 3), F(2, 3)), (F(1, 5), F(1, 5))]
    assert caratheodory_reduce(points, [F(1, 6)] * 6) == [
        F(0), F(89, 216), F(101, 216), F(0), F(0), F(13, 108)]


def test_integer_absorption_equals_fraction_reference():
    # the kernel's integer rows against the Fraction-built reference, for a
    # single reach column and for one-hot columns, with some solvable
    # states left out of the unknowns (pinned to 0 on every column)
    rng = random.Random(79)
    widths = set()
    for _ in range(150):
        chain = random_chain(rng, max_states=9)
        targets = sorted(s for s in chain.states if rng.random() < 0.3)
        if not targets:
            continue
        reach = reference_reach(chain.states, chain.successors, targets)
        unknown = [s for s in chain.states
                   if s not in targets and reach[s] and rng.random() < 0.8]
        if rng.random() < 0.5:
            columns = [chain.mask(targets)]
            boundary = dict.fromkeys(targets, (1,))
        else:
            columns = [chain.mask((t,)) for t in targets]
            boundary = {t: [int(t == u) for u in targets] for t in targets}
        widths.add(len(columns))
        solved = absorption(chain, indices(chain.mask(unknown)), columns)
        expected = reference_absorption(unknown, chain.successors, boundary)
        assert {chain.states[i]: x for i, x in solved.items()} == expected
    assert {1, 2, 3} <= widths
