import random
from fractions import Fraction

import pytest

from helpers import (
    PHI_OR_TEXT, collect_loops, random_core_formula, reference_reachable,
    satisfied_instance,
)

from pctlfg.closure import achieved_bounds, closure_update, update
from pctlfg.formula import (
    Atom, NegAtom, PathFormula, PathOp, Prob, parse_formula, sorted_formulas,
    subformulas, subformulas_of,
)
from pctlfg.markov import MarkovChain
from pctlfg.measure import (
    bound_base, member_paths, model_size_bound, path_norm, path_subformulas,
    pending_globals, progress_measure, reachable_eventualities,
)
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import exit_obligations


def test_path_norms_running_example():
    assert path_norm(PathFormula(PathOp.G, parse_formula(PHI_OR_TEXT))) == 3
    assert path_norm(PathFormula(PathOp.F, parse_formula("G=1[a]"))) == 2
    assert path_norm(PathFormula(PathOp.F, Atom("a"))) == 1


def test_measure_parts_running_example(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    assert pending_globals(fig1_checker, "s", X) == frozenset(
        {PathFormula(PathOp.G, Atom("a"))})
    assert reachable_eventualities(
        fig1_checker, "s", X, pending_globals(fig1_checker, "s", X)) == frozenset()
    assert bound_base(X) == 21


def test_path_sets_running_example(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    # the members' path formulas are the two obligations of X itself
    phi_or = parse_formula(PHI_OR_TEXT)
    assert frozenset(member_paths(X)) == frozenset({
        PathFormula(PathOp.G, phi_or),
        PathFormula(PathOp.F, parse_formula("G=1[a]")),
    })
    # psub(X) holds all five path formulas of sub(X), the nested ones too
    psub = path_subformulas(X)
    assert len(psub) == 5 and frozenset(member_paths(X)) < psub
    assert PathFormula(PathOp.G, Atom("a")) in psub
    assert PathFormula(PathOp.F, NegAtom("a")) in psub
    assert path_subformulas({Atom("a")}) == frozenset()
    assert member_paths({Atom("a")}) == ()


def test_member_paths_of_sorted_set_put_f_paths_first():
    # in `sorted_formulas` order the members' distinct path formulas come F
    # paths first, then G paths, each in member order: the order successor
    # selection builds its probability vectors in
    rng = random.Random(47)
    for _ in range(300):
        universe = sorted_formulas(subformulas(random_core_formula(rng, 4)))
        X = sorted_formulas(rng.sample(universe, rng.randint(1, len(universe))))
        f_paths, g_paths = [], []
        for f in X:
            if isinstance(f, Prob):
                paths = f_paths if f.op is PathOp.F else g_paths
                if f.path_formula not in paths:
                    paths.append(f.path_formula)
        assert member_paths(X) == tuple(f_paths + g_paths)


def test_measure_parts_empty():
    mc = ModelChecker(MarkovChain(["s"], {("s", "s"): Fraction(1)}, {}))
    assert pending_globals(mc, "s", frozenset()) == frozenset()
    assert reachable_eventualities(mc, "s", frozenset(), frozenset()) == frozenset()
    assert bound_base(frozenset()) == 2


def test_measure_running_example(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    assert progress_measure(fig1_checker, "s", X) == 7


def test_measure_empty_set(fig1_checker):
    assert progress_measure(fig1_checker, "s", frozenset()) == 1


def test_measure_satisfied_eventuality(fig1_checker):
    # at an a-state, no pending G and the F body already holds
    X = frozenset({parse_formula("F>=1/2[a]")})
    assert progress_measure(fig1_checker, "t", X) == 1


def _closed_instances(seed, count, max_states=6, depth=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chain, state, f, mc = satisfied_instance(rng, max_states, depth)
        X = closure_update(mc, state, {f})
        out.append((chain, state, X, mc))
    return out


def test_subformula_count_below_bound_base():
    # |sub(X)| + 1 <= b(X) whenever X is update-closed
    checked = 0
    for chain, state, X, mc in _closed_instances(67, 120):
        assert update(mc, state, X) == X
        assert len(subformulas_of(X)) + 1 <= bound_base(X)
        checked += 1
    assert checked >= 100


def test_exit_obligations_never_increase_measure():
    # || exit obligations ||_s <= || X ||_s for every verified loop
    loops = collect_loops(71, 100)
    for chain, state, X, loop, mc in loops:
        residue = exit_obligations(loop)
        assert progress_measure(mc, state, residue) <= progress_measure(mc, state, X)
    assert len(loops) >= 100


def test_exit_obligations_measure_on_golden_loop(fig1_checker, psi):
    from helpers import PSI_TEXT
    from pctlfg.progress import verify_loop

    X = closure_update(fig1_checker, "s", {psi})
    phi_or = parse_formula(PHI_OR_TEXT)
    loop = (
        frozenset({psi, parse_formula(f"G=1[{PHI_OR_TEXT}]"), phi_or,
                   parse_formula("F>=0.5[a & F>=0.2[!a]]"),
                   parse_formula("F=1[G=1[a]]"), parse_formula("!a")}),
        frozenset({phi_or, Atom("a")}),
        frozenset({phi_or, parse_formula("F>=0.5[a & F>=0.2[!a]]"),
                   parse_formula("a & F>=0.2[!a]"), Atom("a"),
                   parse_formula("F>=0.2[!a]")}),
    )
    assert verify_loop(fig1_checker, "s", X, loop) == []
    residue = exit_obligations(loop)
    # the golden loop's obligations carry the same measure as X itself
    assert progress_measure(fig1_checker, "s", residue) == 7
    assert progress_measure(fig1_checker, "s", X) == 7


def test_measure_strictly_decreases_at_witnesses():
    # the three hypotheses: every F member's body fails at s, some F member's
    # body holds at a state t reachable from s
    qualifying = 0
    outer = 0
    while qualifying < 100 and outer < 40:
        outer += 1
        loops = collect_loops(1000 + outer, 40)
        for chain, state, X, loop, mc in loops:
            residue = exit_obligations(loop)
            f_bodies = [g.body for g in residue
                        if isinstance(g, Prob) and g.op is PathOp.F]
            if not f_bodies:
                continue
            assert all(not mc.holds(state, b) for b in f_bodies)
            before = progress_measure(mc, state, residue)
            for t in sorted(reference_reachable(chain, state)):
                if not any(mc.holds(t, b) for b in f_bodies):
                    continue
                X_t = closure_update(mc, t, achieved_bounds(mc, t, residue))
                after = progress_measure(mc, t, X_t)
                assert after < before, (
                    f"measure did not decrease: {after} >= {before}")
                qualifying += 1
    assert qualifying >= 100


def test_size_bound_monotonicity():
    rng = random.Random(73)
    for _ in range(120):
        b1 = rng.randint(2, 30)
        b2 = rng.randint(b1, 32)
        n1 = rng.randint(1, 8)
        n2 = rng.randint(n1, 9)
        low = model_size_bound(b1, n1)
        high = model_size_bound(b2, n2)
        assert 2 ** b1 <= low <= high


def test_size_bound_rejects_a_small_base_or_height():
    with pytest.raises(ValueError, match="base must be at least 2"):
        model_size_bound(1, 1)
    with pytest.raises(ValueError, match="height must be at least 1"):
        model_size_bound(2, 0)


def test_pending_globals_uses_nested_subformulas(fig1_checker, psi):
    # G a is nested under F=1 and still counts as pending at s
    X = closure_update(fig1_checker, "s", {psi})
    pending = pending_globals(fig1_checker, "s", X)
    assert PathFormula(PathOp.G, Atom("a")) in pending


def test_eventualities_respect_pending_filter(fig1_checker, psi):
    # F G=1[a] is not a reachable eventuality at s: the only G=1[a] witness
    # is u, which satisfies G=1[a] itself (the pending formula)
    X = closure_update(fig1_checker, "s", {psi})
    assert reachable_eventualities(
        fig1_checker, "s", X, pending_globals(fig1_checker, "s", X)) == frozenset()
