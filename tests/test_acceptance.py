"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Criterion 11 needs an external real-arithmetic solver
and is skipped when none is configured (PCTLFG_SOLVER or z3 on PATH).
"""

import os
import random
import shutil
import time
from fractions import Fraction

import pytest

from helpers import (
    PHI_OR_TEXT, PSI_TEXT, bottom_state_instance, candidate_from_chain,
    collect_loops, fig1_chain, psi_formula, random_chain, random_core_formula,
    reference_reachable, satisfied_instance,
)

from pctlfg.closure import achieved_bounds, closure, closure_update, update
from pctlfg.etr import (
    SolverBackend, check_assignment, encode, f_normal_form, solve_bounded_sat,
)
from pctlfg.formula import (
    Atom, PathFormula, PathOp, Prob, iter_subformulas, parse_formula,
    subformulas, subformulas_of,
)
from pctlfg.markov import MarkovChain, validate
from pctlfg.measure import (
    bound_base, model_size_bound, path_norm, pending_globals, progress_measure,
    reachable_eventualities,
)
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import (
    build_loop_model, bscc_reduce, compress_model, exit_obligations,
    simple_loop_components, verify_loop,
)

pf = parse_formula


def _report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def fig1():
    return fig1_chain()


@pytest.fixture(scope="module")
def psi():
    return psi_formula()


def test_criterion_01_running_example_model_check(fig1, psi):
    start = time.perf_counter()
    assert ModelChecker(fig1).sat_set(psi) == frozenset({"s"})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"sat set of the running formula is exactly {{s}} "
               f"({elapsed * 1000:.1f} ms)")


def golden_closure(psi):
    return frozenset({
        psi,
        pf(f"G=1[{PHI_OR_TEXT}]"),
        pf("F=1[G=1[a]]"),
        pf("!a"),
    })


def test_criterion_02_closure_golden(fig1_checker, psi):
    expected = golden_closure(psi)
    assert closure(fig1_checker, "s", {psi}) == expected
    assert closure_update(fig1_checker, "s", {psi}) == expected
    _report(2, "closure and closed-update match the four-formula golden set")


def golden_loop(psi):
    l0 = frozenset({psi, pf(f"G=1[{PHI_OR_TEXT}]"), pf(PHI_OR_TEXT),
                    pf("F>=0.5[a & F>=0.2[!a]]"), pf("F=1[G=1[a]]"), pf("!a")})
    l1 = frozenset({pf(PHI_OR_TEXT), pf("a")})
    l2 = frozenset({pf(PHI_OR_TEXT), pf("F>=0.5[a & F>=0.2[!a]]"),
                    pf("a & F>=0.2[!a]"), pf("a"), pf("F>=0.2[!a]")})
    return (l0, l1, l2)


def test_criterion_03_progress_loop_golden(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    loop = golden_loop(psi)
    assert verify_loop(fig1_checker, "s", X, loop) == []
    assert exit_obligations(loop) == frozenset({
        pf(f"G=1[{PHI_OR_TEXT}]"), pf("F=1[G=1[a]]")})
    _report(3, "the three-set golden loop verifies and its exit obligations "
               "match exactly")


def _count_prob_nodes(path: PathFormula) -> int:
    # independent norm oracle: count probabilistic operator nodes
    return 1 + sum(1 for g in iter_subformulas(path.body)
                   if isinstance(g, Prob))


def test_criterion_04_measure_golden(fig1, psi):
    mc = ModelChecker(fig1)
    X = closure_update(mc, "s", {psi})
    assert pending_globals(mc, "s", X) == frozenset(
        {PathFormula(PathOp.G, Atom("a"))})
    assert reachable_eventualities(mc, "s", X,
                                   pending_globals(mc, "s", X)) == frozenset()
    g_path = PathFormula(PathOp.G, pf(PHI_OR_TEXT))
    f_path = PathFormula(PathOp.F, pf("G=1[a]"))
    assert path_norm(g_path) == _count_prob_nodes(g_path) == 3
    assert path_norm(f_path) == _count_prob_nodes(f_path) == 2
    # measure assembled from the independently derived pieces
    assert progress_measure(mc, "s", X) == 1 + 1 * (1 + 3 + 2) + 0 == 7
    _report(4, "measure 7 with pending {G a}, no eventualities, norms 3 and 2")


def test_criterion_05_idempotence_suite():
    rng = random.Random(202)
    instances = 0
    while instances < 110:
        chain, state, f, mc = satisfied_instance(rng, max_states=6, depth=3)
        X = closure_update(mc, state, {f})
        assert closure_update(mc, state, X) == X
        once = update(mc, state, X)
        assert update(mc, state, once) == once
        instances += 1
    _report(5, f"closed-update and update idempotent on {instances} "
               "randomized instances")


def test_criterion_06_measure_property_suite():
    # (a) |sub(X)| + 1 <= b(X) for update-closed X
    rng = random.Random(203)
    count_sub = 0
    while count_sub < 110:
        chain, state, f, mc = satisfied_instance(rng)
        X = closure_update(mc, state, {f})
        assert update(mc, state, X) == X
        assert len(subformulas_of(X)) + 1 <= bound_base(X)
        count_sub += 1

    # (b) exit-obligation measure never exceeds the set's measure
    loops = collect_loops(204, 110)
    for chain, state, X, loop, mc in loops:
        residue = exit_obligations(loop)
        assert progress_measure(mc, state, residue) <= progress_measure(mc, state, X)

    # (c) strict decrease whenever the three hypotheses hold
    count_strict = 0
    outer = 0
    while count_strict < 100 and outer < 40:
        outer += 1
        for chain, state, X, loop, mc in collect_loops(3000 + outer, 40):
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
                assert progress_measure(mc, t, X_t) < before
                count_strict += 1
    assert count_strict >= 100

    # (d) the geometric bound inequality chain on randomized pairs
    rng = random.Random(205)
    for _ in range(110):
        b1 = rng.randint(2, 30)
        b2 = rng.randint(b1, 32)
        n1 = rng.randint(1, 8)
        n2 = rng.randint(n1, 9)
        assert 2 ** b1 <= model_size_bound(b1, n1) <= model_size_bound(b2, n2)

    _report(6, f"measure properties: {count_sub} base-bound, {len(loops)} loop-measure, "
               f"{count_strict} strict-decrease, 110 bound-chain instances")


def test_criterion_07_construction_check(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    u_chain = MarkovChain(["u"], {("u", "u"): Fraction(1)}, {"u": ["a"]})
    model, entry = build_loop_model(golden_loop(psi),
                                    [(u_chain, "u", Fraction(1))], entry_for=X)
    assert validate(model) == []
    assert model.probability("L2", "L0") == Fraction(3, 4)
    assert ModelChecker(model).check(entry, X)
    assert simple_loop_components(model) == []
    _report(7, "assembled loop model satisfies the closed set at its entry "
               "and every non-bottom SCC is a simple loop with one exit")


def test_criterion_08_compression_end_to_end(fig1, fig1_checker, psi):
    start = time.perf_counter()
    model, entry, trace = compress_model(fig1, "s", psi, fragment="l2")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert ModelChecker(model).holds(entry, psi)
    assert len(model.states) <= 10

    # independent derivation of the root parameters: enumerate the ten
    # subformulas by hand and recompute the bound base from the counts
    X = closure_update(fig1_checker, "s", {psi})
    hand_sub = {
        pf(t) for t in (
            PSI_TEXT, f"G=1[{PHI_OR_TEXT}]", PHI_OR_TEXT,
            "F>=0.5[a & F>=0.2[!a]]", "a & F>=0.2[!a]", "a", "F>=0.2[!a]",
            "!a", "F=1[G=1[a]]", "G=1[a]",
        )
    }
    assert subformulas_of(X) == hand_sub and len(hand_sub) == 10
    hand_nsub = {g for g in hand_sub if not isinstance(g, Prob)}
    hand_psub = {g.path_formula for g in hand_sub if isinstance(g, Prob)}
    hand_proper = set()
    for g in X:
        hand_proper |= subformulas(g) - {g}
    hand_b = 2 + len(hand_nsub) + len(hand_psub) + len(hand_proper)
    assert hand_b == 21 == trace.base
    assert trace.measure == 7

    def walk(node):
        assert node.size <= node.bound
        assert node.bound == model_size_bound(node.base, node.measure + 1)
        for child in node.children:
            walk(child)

    walk(trace)
    _report(8, f"compression gives {len(model.states)} states in "
               f"{elapsed * 1000:.0f} ms, inside the bound at every level "
               f"(root base 21, measure 7)")


def test_criterion_09_bscc_reduction():
    rng = random.Random(209)
    done = 0
    while done < 55:
        chain, state, f, mc = bottom_state_instance(rng)
        X = closure_update(mc, state, {f})
        model, entry = bscc_reduce(mc, state, X)
        assert len(model.states) <= 2 ** len(subformulas_of(X))
        assert ModelChecker(model).check(entry, X)
        done += 1
    _report(9, f"signature-cycle reduction correct on {done} randomized "
               "bottom-SCC instances")


def test_criterion_10_encoding_faithfulness():
    rng = random.Random(210)
    agreeing = disagreeing = 0
    while agreeing < 60 or disagreeing < 60:
        chain = random_chain(rng, max_states=4)
        f = f_normal_form(random_core_formula(rng, depth=3))
        f_nodes = [g for g in set(iter_subformulas(f)) if isinstance(g, Prob)]
        if not f_nodes:
            continue
        mc = ModelChecker(chain)
        candidate = candidate_from_chain(chain, f)
        pos = {s: i for i, s in enumerate(chain.states)}
        truth = {(pos[a], pos[b]): p for a, b, p in chain.edges()}
        if rng.random() < 0.5:
            labeling = dict(candidate.labeling)
            victim = f_nodes[rng.randrange(len(f_nodes))]
            labeling[victim] ^= 1 << rng.randrange(len(chain.states))
            candidate = encode(candidate.succ, labeling)
        labels_agree = all(candidate.labeling[g] == mc.sat_mask(g)
                           for g in f_nodes)
        confirmed = check_assignment(candidate, truth) is not None
        assert confirmed == labels_agree
        if labels_agree:
            agreeing += 1
        else:
            disagreeing += 1

    # the first contradiction clashes at vertex 0; the second clashes
    # nowhere there and is refuted by the block screen on every graph
    for text in ("F=1[a] & G=1[!a]", "G=1[a] & G=1[F>0[!a]]"):
        for n in (1, 2, 3):
            result = solve_bounded_sat(pf(text), n)
            assert result.status == "unsat-up-to-n"
            assert result.solver_calls == 0
    _report(10, f"induced-candidate oracle exact on {agreeing + disagreeing} "
                "instances; F=1[a] & G=1[!a] is refuted at vertex 0 and "
                "G=1[a] & G=1[F>0[!a]] by the block screen up to n=3")


def _find_solver():
    command = os.environ.get("PCTLFG_SOLVER")
    if command:
        return command
    if shutil.which("z3"):
        return "z3 {file}"
    return None


@pytest.mark.skipif(_find_solver() is None,
                    reason="no external real-arithmetic solver configured "
                           "(set PCTLFG_SOLVER or put z3 on PATH)")
def test_criterion_11_bounded_sat_with_solver(psi):
    backend = SolverBackend(_find_solver(), timeout=30.0)
    start = time.perf_counter()
    result = solve_bounded_sat(psi, 3, backend=backend)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert result.status == "sat"
    assert ModelChecker(result.model).holds(result.entry, psi)
    assert len(result.model.states) <= 3
    _report(11, f"bounded satisfiability found a verified "
                f"{len(result.model.states)}-state model in {elapsed:.1f} s")
