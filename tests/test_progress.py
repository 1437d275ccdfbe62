import gc
import hashlib
import json
import random
from fractions import Fraction

import pytest

from helpers import (
    PHI_OR_TEXT, bench_workloads, bottom_state_instance, fig1_chain, random_chain,
    random_core_formula, reference_caratheodory_reduce,
    reference_exit_obligations, reference_locally_consistent_sets,
    reference_search_loop_generic, reference_successor_selection,
    satisfied_instance,
)

from pctlfg import linalg

from pctlfg.closure import UnsatisfiedSetError, closure_update
from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, Or, PathFormula, PathOp, Prob, conj, disj,
    fragment_classify, parse_formula, sorted_formulas, subformulas,
    subformulas_of,
)
from pctlfg.markov import MarkovChain, first_passage, indices, validate
from pctlfg.measure import model_size_bound, pending_globals
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import (
    CompressionError, FragmentError, ProgressLoopError, SearchSpaceExceeded,
    _g_bodies, _locally_consistent_sets, bscc_reduce,
    build_loop_model, caratheodory_reduce, compress_model, exit_obligations,
    loop_return_probability, loop_violations, search_loop_generic, search_loop_l2,
    simple_loop_components, successor_selection, verify_loop,
    verify_selection,
)

pf = parse_formula


def example_loop(psi):
    l0 = frozenset({
        psi,
        pf(f"G=1[{PHI_OR_TEXT}]"),
        pf(PHI_OR_TEXT),
        pf("F>=0.5[a & F>=0.2[!a]]"),
        pf("F=1[G=1[a]]"),
        pf("!a"),
    })
    l1 = frozenset({pf(PHI_OR_TEXT), pf("a")})
    l2 = frozenset({
        pf(PHI_OR_TEXT),
        pf("F>=0.5[a & F>=0.2[!a]]"),
        pf("a & F>=0.2[!a]"),
        pf("a"),
        pf("F>=0.2[!a]"),
    })
    return (l0, l1, l2)


def expected_obligations():
    return frozenset({pf(f"G=1[{PHI_OR_TEXT}]"), pf("F=1[G=1[a]]")})


@pytest.fixture
def running(fig1, fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    return fig1, fig1_checker, psi, X


# -- exit obligations --------------------------------------------------------

def test_exit_obligations_example_loop(running, psi):
    assert exit_obligations(example_loop(psi)) == expected_obligations()


def test_exit_obligations_no_prob_members():
    loop = (frozenset({Atom("a")}),)
    assert exit_obligations(loop) == frozenset()


def test_exit_obligations_served_suffix():
    loop = (frozenset({pf("F=1[a]"), Atom("a")}),)
    assert exit_obligations(loop) == frozenset()


def test_exit_obligations_eventuality_after_the_fact():
    # body only occurs before the F=1 member's set: still an obligation
    loop = (frozenset({Atom("a")}), frozenset({pf("F=1[a]"), Atom("b")}))
    assert exit_obligations(loop) == frozenset({pf("F=1[a]")})


def test_exit_obligations_body_between_two_homes():
    # F=1[a] in L0 and L2, its body only in L1: L0's occurrence is served
    # by L1, L2's is not, so the formula is an obligation
    f = pf("F=1[a]")
    loop = (frozenset({f}), frozenset({Atom("a")}), frozenset({f, Atom("b")}))
    assert exit_obligations(loop) == reference_exit_obligations(loop) == {f}
    served = (frozenset({f}), frozenset({f}), frozenset({Atom("a")}))
    assert exit_obligations(served) == reference_exit_obligations(served) == set()


def test_exit_obligations_equal_suffix_scan():
    # the last-level rule agrees with the suffix scan on seeded sequences of
    # subsets of a random formula's subformulas; some F=1 member with its
    # body in the loop is an obligation, and some is served
    rng = random.Random(31)
    fired = served = 0
    for _ in range(600):
        universe = sorted_formulas(subformulas(random_core_formula(rng, 4)))
        loop = tuple(frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                     for _ in range(rng.randint(1, 4)))
        residue = exit_obligations(loop)
        assert residue == reference_exit_obligations(loop)
        union = frozenset().union(*loop)
        for f in union:
            if (isinstance(f, Prob) and f.op is PathOp.F and f.bound == 1
                    and f.body in union):
                fired += f in residue
                served += f not in residue
    assert fired and served


# -- verify_loop -------------------------------------------------------------

def test_verify_example_loop(running, psi):
    fig1, mc, _, X = running
    assert verify_loop(mc, "s", X, example_loop(psi)) == []


def test_verify_detects_missing_g_body(running, psi):
    fig1, mc, _, X = running
    loop = example_loop(psi)
    broken = (loop[0], loop[1] - {pf(PHI_OR_TEXT)}, loop[2])
    problems = verify_loop(mc, "s", X, broken)
    assert any("condition (3)" in p for p in problems)


def test_condition_6_reads_x_pending_set():
    # X = {G>=1/2[!b]} has the pending set {G !b} at s0, which bars s1 (where
    # G=1[!b] holds) as a witness but not s2.  The exit obligations add
    # F>0[b], whose body holds at s2: an eventuality reachable under X's own
    # pending set that X does not have, so condition (6) fails
    chain = MarkovChain(["s0", "s1", "s2"],
                        {("s0", "s1"): Fraction(1, 2), ("s0", "s2"): Fraction(1, 2),
                         ("s1", "s1"): Fraction(1), ("s2", "s2"): Fraction(1)},
                        {"s1": ["a"], "s2": ["b"]})
    mc = ModelChecker(chain)
    X = frozenset({pf("G>=1/2[!b]")})
    loop = (X | {pf("!b"), pf("F>0[b]")},)
    assert exit_obligations(loop) == X | {pf("F>0[b]")}
    assert pending_globals(mc, "s0", X) == {PathFormula(PathOp.G, pf("!b"))}
    assert ("condition (6): F b is a reachable eventuality of the exit "
            "obligations but not of X") in loop_violations(mc, "s0", X, loop)


def test_verify_detects_duplicates(running, psi):
    fig1, mc, _, X = running
    loop = example_loop(psi)
    doubled = (loop[0], loop[1], loop[1])
    problems = verify_loop(mc, "s", X, doubled)
    assert any("condition (2)" in p for p in problems)


def test_verify_detects_missing_anchor(running, psi):
    fig1, mc, _, X = running
    loop = example_loop(psi)
    no_anchor = loop[1:]
    problems = verify_loop(mc, "s", X, no_anchor)
    assert any("condition (1)" in p for p in problems)


def test_verify_reports_all_violations(running, psi):
    fig1, mc, _, X = running
    loop = example_loop(psi)
    broken = (loop[1], loop[1])
    problems = verify_loop(mc, "s", X, broken)
    assert len(problems) >= 2


def test_verify_reports_an_unsatisfied_member(running, psi):
    fig1, mc, _, X = running
    problems = verify_loop(mc, "u", X, example_loop(psi))
    assert "hypothesis: state 'u' does not satisfy !a" in problems
    # the closure question is not asked of an unsatisfied X
    assert "hypothesis: X is not closed and updated" not in problems


def test_verify_reports_a_set_not_closed_and_updated(running, psi):
    fig1, mc, _, X = running
    problems = verify_loop(mc, "s", {psi}, example_loop(psi))
    assert problems[0] == "hypothesis: X is not closed and updated"
    assert not any(p.startswith("hypothesis: state") for p in problems)


def test_verify_reports_a_formula_outside_sub_x(running, psi):
    # an atom that occurs nowhere in X breaks only the sub(X) rule
    fig1, mc, _, X = running
    loop = example_loop(psi)
    widened = (loop[0], loop[1] | {Atom("b")}, loop[2])
    assert verify_loop(mc, "s", X, widened) == [
        "L1 contains b, which is not a subformula of X"]


@pytest.mark.parametrize("case", ["unsatisfied", "not closed"])
@pytest.mark.parametrize("search", ["l2", "generic"])
def test_searches_reject_a_failed_hypothesis(running, psi, search, case):
    # an unsatisfied X fails the one satisfaction guard, a set that is not
    # closed and updated fails the loop hypothesis
    fig1, mc, _, X = running
    state, X = ("u", X) if case == "unsatisfied" else ("s", {psi})
    expected = UnsatisfiedSetError if case == "unsatisfied" else ProgressLoopError
    with pytest.raises(expected) as err:
        if search == "l2":
            search_loop_l2(mc, state, X)
        else:
            search_loop_generic(mc, state, X, 3)
    if case == "unsatisfied":
        assert (err.value.state, err.value.formula) == ("u", pf("!a"))
    else:
        assert str(err.value) == "X is not closed and updated"


def test_l2_search_leaves_an_f_without_a_witness_to_the_exit():
    # from s, the only c-state is u, where b (the body of the G member) fails,
    # so the L2 search finds no state to serve F>0[c] in the loop: it stays
    # an exit obligation, and the one-level loop is valid
    chain = MarkovChain(
        ["s", "t", "u"],
        {("s", "t"): Fraction(1, 2), ("s", "u"): Fraction(1, 2),
         ("t", "t"): Fraction(1), ("u", "u"): Fraction(1)},
        {"s": ["a", "b"], "t": ["b"], "u": ["c"]},
    )
    mc = ModelChecker(chain)
    X = closure_update(mc, "s", {pf("G>=1/2[b]"), pf("a & F>0[c]")})
    assert all(fragment_classify(f).in_l2 for f in X)
    loop = search_loop_l2(mc, "s", X)
    assert loop == search_loop_generic(mc, "s", X, 3) == (frozenset(map(pf, [
        "a", "b", "a & F>0[c]", "F>=1/2[c]", "F>0[c]", "G>=1/2[b]"])),)
    assert pf("F>0[c]") in exit_obligations(loop)
    assert verify_loop(mc, "s", X, loop) == []


@pytest.mark.parametrize("step", [
    "successor selection", "bscc reduce", "compress l2", "compress generic"])
def test_every_guard_raises_the_one_unsatisfied_error(fig1, fig1_checker, psi,
                                                      step):
    # the searches are covered above; u satisfies a, so !a is the first
    # falsified formula of each set, and compress_model names its formula
    with pytest.raises(UnsatisfiedSetError) as err:
        if step == "successor selection":
            successor_selection(fig1_checker, "u", {pf("!a"), pf("F>0[a]")})
        elif step == "bscc reduce":
            bscc_reduce(fig1_checker, "u", {pf("!a"), pf("G=1[a]")})
        else:
            compress_model(fig1, "u", psi, fragment=step.split()[1])
    named = psi if step.startswith("compress") else pf("!a")
    assert (err.value.state, err.value.formula) == ("u", named)


def test_unknown_fragment_is_rejected(fig1):
    with pytest.raises(ValueError, match="unknown fragment 'x'"):
        compress_model(fig1, "s", pf("a"), fragment="x")


def test_unsatisfied_formula_outside_l2_is_reported_unsatisfied(fig1):
    # the root guard runs before the fragment check
    outside = pf("!a & G>1/2[a]")
    assert not fragment_classify(outside).in_l2
    with pytest.raises(FragmentError):
        compress_model(fig1, "u", pf("G>1/2[a]"))
    with pytest.raises(UnsatisfiedSetError) as err:
        compress_model(fig1, "u", outside)
    assert (err.value.state, err.value.formula) == ("u", outside)


class _RootChecked(Exception):
    pass


def test_compress_asks_the_root_question_once(monkeypatch):
    import importlib

    import pctlfg.progress

    # the package exports the `closure` function under the module's name
    closure_module = importlib.import_module("pctlfg.closure")

    # stop at the first recursion node, after the root guards
    def stop(*args):
        raise _RootChecked

    calls = []
    original = closure_module.require_satisfied

    def counting(mc, state, formulas):
        calls.append(frozenset(formulas))
        return original(mc, state, formulas)

    monkeypatch.setattr(pctlfg.progress, "progress_measure", stop)
    for module in (closure_module, pctlfg.progress):
        monkeypatch.setattr(module, "require_satisfied", counting)
    rng = random.Random(89)
    for _ in range(30):
        chain, state, f, mc = satisfied_instance(rng)
        fragment = "l2" if fragment_classify(f).in_l2 else "generic"
        calls.clear()
        with pytest.raises(_RootChecked):
            compress_model(chain, state, f, fragment=fragment)
        # one check, of the closure that `update` tightens
        assert len(calls) == 1 and f in calls[0]


def test_generic_search_checks_the_hypothesis_once(monkeypatch, running):
    import pctlfg.progress

    fig1, mc, _, X = running
    # every candidate's loop conditions ask for its exit obligations once
    calls = {"closure_update": 0, "exit_obligations": 0}
    for name in calls:
        original = getattr(pctlfg.progress, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pctlfg.progress, name, counting)
    loop = search_loop_generic(mc, "s", X, 3)
    # many candidates, one closure_update: the hypothesis was checked once
    assert calls["exit_obligations"] > 1
    assert calls["closure_update"] == 1
    assert verify_loop(mc, "s", X, loop) == []


# -- the loop family ---------------------------------------------------------

def _as_sets(universe, family):
    """The mask family as (set, G bodies) pairs of frozensets."""
    def members(mask):
        return frozenset(universe[k] for k in indices(mask))
    return [(members(level), members(bodies)) for level, bodies in family]


def _reference_family(universe):
    return [(level, _g_bodies(level))
            for level in reference_locally_consistent_sets(universe)]


def _shared_g_body(universe):
    """Whether two G formulas of the universe have one body."""
    bodies = [f.body for f in universe if isinstance(f, Prob) and f.op is PathOp.G]
    return len(bodies) > len(set(bodies))


def _nested_g(universe):
    """Whether some G formula of the universe lies inside a path body."""
    return any(g is not f and isinstance(g, Prob) and g.op is PathOp.G
               for f in universe if isinstance(f, Prob)
               for g in subformulas(f.body))


def test_consistent_sets_match_the_reference():
    # the mask family is the reference's family, set for set, G bodies for
    # G bodies and in order, over the sub(X) universes of random formula
    # sets; every other X holds G>0[b] and F>0[G=1[b]], two G formulas on
    # one body b
    rng = random.Random(211)
    seen = {"clash": 0, "and": 0, "or": 0, "nested G": 0, "shared G body": 0}
    checked = 0
    while checked < 240:
        X = [random_core_formula(rng, 3) for _ in range(rng.randint(1, 3))]
        if checked % 2:
            body = random_core_formula(rng, 1)
            X += [Prob(PathOp.G, Cmp.GT, Fraction(0), body),
                  Prob(PathOp.F, Cmp.GT, Fraction(0),
                       Prob(PathOp.G, Cmp.GE, Fraction(1), body))]
        universe = sorted_formulas(subformulas_of(X))
        if len(universe) > 12:
            continue
        assert (_as_sets(universe, _locally_consistent_sets(universe))
                == _reference_family(universe))
        seen["clash"] += any(isinstance(f, Atom) and NegAtom(f.name) in universe
                             for f in universe)
        seen["and"] += any(isinstance(f, And) for f in universe)
        seen["or"] += any(isinstance(f, Or) for f in universe)
        seen["nested G"] += _nested_g(universe)
        seen["shared G body"] += _shared_g_body(universe)
        checked += 1
    assert min(seen.values()) >= 20, seen


def test_consistent_sets_near_the_cap():
    # the largest universes the reference still builds in about a second
    rng = random.Random(223)
    wanted = [16, 17]
    while wanted:
        X = [random_core_formula(rng, 4, aps=("a", "b", "c"))
             for _ in range(rng.randint(1, 3))]
        universe = sorted_formulas(subformulas_of(X))
        if len(universe) != wanted[0]:
            continue
        assert (_as_sets(universe, _locally_consistent_sets(universe))
                == _reference_family(universe))
        wanted.pop(0)


def test_generic_search_guard_above_the_cap(monkeypatch):
    import pctlfg.progress

    def never(universe):
        raise AssertionError("enumerated beyond the cap")

    names = [f"x{i}" for i in range(20)]
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {"s": names})
    X = frozenset({conj([Atom(n) for n in names]), *map(Atom, names)})
    assert len(subformulas_of(X)) == 21
    monkeypatch.setattr(pctlfg.progress, "_locally_consistent_sets", never)
    with pytest.raises(SearchSpaceExceeded):
        search_loop_generic(ModelChecker(chain), "s", X, 3)


# -- searches ----------------------------------------------------------------

def test_generic_search_running_example(running):
    fig1, mc, _, X = running
    loop = search_loop_generic(mc, "s", X, 3)
    assert loop is not None
    assert verify_loop(mc, "s", X, loop) == []


def test_generic_search_atom():
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {"s": ["a"]})
    X = frozenset({Atom("a")})
    loop = search_loop_generic(ModelChecker(chain), "s", X, 2)
    assert loop is not None and X <= loop[0]


def test_generic_search_bound_exhausted(running):
    fig1, mc, _, X = running
    # the running example needs at least two distinct sets
    assert search_loop_generic(mc, "s", X, 0) is None


def test_generic_search_budget_signal(running):
    fig1, mc, _, X = running
    with pytest.raises(SearchSpaceExceeded):
        search_loop_generic(mc, "s", X, 3, node_budget=3)


@pytest.mark.parametrize("text", [
    "G>0[F>0[a & F>0[!a]] | a] & F>0[G=1[F>0[a & F>0[!a]] | a]] & !a",
    "G>0[F>0[a & F>0[!a]]] & F>0[G=1[F>0[a & F>0[!a]]]] & !a",
    "G>0[F>0[a] | b] & F>=1/4[G=1[F>0[a] | b]] & !a",
])
def test_generic_search_with_a_shared_g_body(text):
    # at s, G holds its body with probability 1/2 (s reaches the sink d
    # or the a-cycle through w, and t returns to s), so X holds G>0 and
    # G>=1/2 on one body, and sub(X) G=1 on it too: the mask search
    # carries one body bit for them and finds the reference's loop
    third = Fraction(1, 3)
    chain = MarkovChain(["s", "t", "d", "w", "x"], {
        ("s", "t"): third, ("s", "d"): third, ("s", "w"): third,
        ("t", "s"): Fraction(1), ("d", "d"): Fraction(1),
        ("w", "x"): Fraction(1), ("x", "w"): Fraction(1),
    }, {"t": ["a"], "x": ["a"]})
    mc = ModelChecker(chain)
    X = closure_update(mc, "s", {pf(text)})
    assert _shared_g_body(sorted_formulas(subformulas_of(X)))
    loop = search_loop_generic(mc, "s", X, 3, node_budget=20_000)
    assert loop == reference_search_loop_generic(mc, "s", X, 3, 20_000)
    assert loop is not None
    assert any(_shared_g_body(level) for level in loop)


def test_l2_search_running_example(running):
    fig1, mc, _, X = running
    loop = search_loop_l2(mc, "s", X)
    assert verify_loop(mc, "s", X, loop) == []
    # constructed obligations stay inside X
    assert exit_obligations(loop) <= X
    # some set serves the outer eventuality, some set holds its body
    outer = pf("F>=0.5[a & F>=0.2[!a]]")
    assert any(outer in level for level in loop)
    assert any(pf("a & F>=0.2[!a]") in level for level in loop)


def test_l2_search_atom(fig1_checker):
    X = frozenset({Atom("a")})
    loop = search_loop_l2(fig1_checker, "t", X)
    assert len(loop) == 1


def test_l2_search_fragment_violation(fig1, fig1_checker):
    outside = pf("G>=0.5[F>=0.5[G>=0.5[a]]]")  # quantitative G around F around G
    assert not fragment_classify(outside).in_l2
    sat = ModelChecker(fig1).sat_set(outside)
    if sat:
        state = sorted(sat)[0]
        X = closure_update(fig1_checker, state, {outside})
        with pytest.raises(FragmentError):
            search_loop_l2(fig1_checker, state, X)


def test_searches_agree_on_random_l2_instances():
    from pctlfg.measure import progress_measure

    rng = random.Random(79)
    found = 0
    while found < 30:
        chain, state, f, mc = satisfied_instance(rng, max_states=5, depth=3)
        if not fragment_classify(f).in_l2:
            continue
        X = closure_update(mc, state, {f})
        loop = search_loop_l2(mc, state, X)
        assert verify_loop(mc, state, X, loop) == []
        residue = exit_obligations(loop)
        assert progress_measure(mc, state, residue) <= progress_measure(mc, state, X)
        found += 1


def test_exit_obligations_inside_sub_x():
    from helpers import collect_loops

    for chain, state, X, loop, mc in collect_loops(127, 40):
        assert exit_obligations(loop) <= subformulas_of(X)


# -- successor selection -----------------------------------------------------

def test_caratheodory_1d_example():
    points = [(Fraction(1, 5),), (Fraction(4, 5),), (Fraction(1, 2),)]
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    target = sum((w * p[0] for w, p in zip(weights, points)), Fraction(0))
    reduced = caratheodory_reduce(points, weights)
    assert sum(1 for w in reduced if w > 0) <= 2
    assert sum(reduced, Fraction(0)) == 1
    assert sum((w * p[0] for w, p in zip(reduced, points)), Fraction(0)) == target


def test_caratheodory_rejects_lengths_that_differ():
    with pytest.raises(ValueError, match="points and weights differ in length"):
        caratheodory_reduce([(Fraction(1),)], [Fraction(1, 2), Fraction(1, 2)])


def test_caratheodory_preserves_combination_randomized():
    rng = random.Random(83)
    for _ in range(60):
        dim = rng.randint(1, 3)
        count = rng.randint(dim + 2, dim + 5)
        points = [tuple(Fraction(rng.randint(0, 4), 4) for _ in range(dim))
                  for _ in range(count)]
        raw = [rng.randint(1, 5) for _ in range(count)]
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        target = [sum((w * p[d] for w, p in zip(weights, points)), Fraction(0))
                  for d in range(dim)]
        reduced = caratheodory_reduce(points, weights)
        assert sum(1 for w in reduced if w > 0) <= dim + 1
        assert sum(reduced, Fraction(0)) == 1
        assert all(w >= 0 for w in reduced)
        for d in range(dim):
            assert sum((w * p[d] for w, p in zip(reduced, points)),
                       Fraction(0)) == target[d]


def test_caratheodory_equals_the_full_matrix_reduction():
    # each step's matrix holds only the first dim+2 active points; the
    # reference builds it from every active point.  Points repeat, lie on
    # one line, or are all equal, and the weights must agree exactly.
    rng = random.Random(97)
    shapes = ("random", "repeated", "collinear", "duplicate")
    for k in range(240):
        shape = shapes[k % 4]
        dim = rng.randint(1, 4)
        count = rng.randint(dim + 2, dim + 8)
        if shape == "collinear":
            base = [Fraction(rng.randint(0, 4), 4) for _ in range(dim)]
            direction = [Fraction(rng.randint(-2, 2), 8) for _ in range(dim)]
            points = [tuple(b + rng.randint(0, 4) * d
                            for b, d in zip(base, direction))
                      for _ in range(count)]
        elif shape == "duplicate":
            points = [tuple(Fraction(rng.randint(0, 4), 4)
                            for _ in range(dim))] * count
        else:
            pool = [tuple(Fraction(rng.randint(0, 4), 4) for _ in range(dim))
                    for _ in range(count if shape == "random" else 3)]
            points = [rng.choice(pool) for _ in range(count)]
        raw = [rng.randint(0 if k % 3 else 1, 5) for _ in range(count)]
        raw[0] += 1
        total = sum(raw)
        weights = [Fraction(w, total) for w in raw]
        assert caratheodory_reduce(points, weights) == \
            reference_caratheodory_reduce(points, weights), (shape, points, weights)


def test_selection_running_example(running):
    fig1, mc, _, X = running
    residue = expected_obligations()
    sel = successor_selection(mc, "s", residue)
    assert sel == {"u": Fraction(1)}
    f_path = PathFormula(PathOp.F, pf("G=1[a]"))
    g_path = PathFormula(PathOp.G, pf(PHI_OR_TEXT))
    assert mc.probability("u", f_path) == mc.probability("u", g_path) == 1
    assert verify_selection(mc, "s", residue, sel) == []


def test_selection_no_eventualities(fig1_checker):
    # G-only obligations: the vectors are constant, so one point remains
    residue = frozenset({pf(f"G=1[{PHI_OR_TEXT}]")})
    sel = successor_selection(fig1_checker, "s", residue)
    assert len(sel) == 1
    assert verify_selection(fig1_checker, "s", residue, sel) == []


# s leaves for t, x and w alike, and t returns to s; x and w are bottom
# states, y is a bottom state that s never reaches, and a holds at x alone
_SELECTION_CHAIN = MarkovChain(
    ["s", "t", "x", "w", "y"],
    {("s", "t"): Fraction(1, 3), ("s", "x"): Fraction(1, 3),
     ("s", "w"): Fraction(1, 3), ("t", "s"): Fraction(1),
     ("x", "x"): Fraction(1), ("w", "w"): Fraction(1), ("y", "y"): Fraction(1)},
    {"x": ["a"]})


@pytest.mark.parametrize("obligations, selection, problem", [
    ((), {"x": Fraction(1, 2)}, "weights do not sum to 1"),
    ((), {"x": Fraction(1, 2), "w": Fraction(1, 2)},
     "support size 2 outside (0, 1]"),
    ((), {"y": Fraction(1)}, "successor 'y' unreachable from 's'"),
    (("F>0[a]",), {"t": Fraction(1)},
     "successor 't' neither in a bottom SCC nor satisfying an F-obligation body"),
], ids=["sum", "support", "unreachable", "neither"])
def test_verify_selection_reports_each_problem(obligations, selection, problem):
    # each selection breaks exactly one of the selection conditions
    mc = ModelChecker(_SELECTION_CHAIN)
    residue = frozenset(map(pf, obligations))
    assert verify_selection(mc, "s", residue, selection) == [problem]


def test_verify_selection_reports_paths_in_canonical_order():
    # the uncovered path formulas are named in the `sorted_formulas` order of
    # the obligations carrying them, not in the set's iteration order
    chain = MarkovChain(["s", "x", "y"],
                        {("s", "x"): Fraction(1, 2), ("s", "y"): Fraction(1, 2),
                         ("x", "x"): Fraction(1), ("y", "y"): Fraction(1)},
                        {"x": ["a", "b", "c", "d"]})
    mc = ModelChecker(chain)
    residue = frozenset(pf(f"F>=1/2[{name}]") for name in "dbca")
    assert verify_selection(mc, "s", residue, {"y": Fraction(1)}) == [
        f"probability of F {name} at 's' not covered" for name in "abcd"]
    assert verify_selection(mc, "s", residue,
                            successor_selection(mc, "s", residue)) == []


def test_selection_conditions_randomized():
    rng = random.Random(89)
    checked = 0
    while checked < 60:
        chain, state, f, mc = satisfied_instance(rng, max_states=5, depth=3)
        X = closure_update(mc, state, {f})
        try:
            loop = search_loop_generic(mc, state, X, 2, node_budget=30_000)
        except SearchSpaceExceeded:
            continue
        if loop is None:
            continue
        residue = exit_obligations(loop)
        sel = successor_selection(mc, state, residue)
        assert verify_selection(mc, state, residue, sel) == []
        checked += 1


def _held_obligations(rng, mc, state, kind):
    """An obligation set holding at `state`: empty, literals and their
    boolean combinations only, or 1-3 F/G members whose bound is the
    path's probability there or a fraction of it."""
    if kind == "empty":
        return frozenset()
    labels = mc.chain.atoms(state)
    literals = [Atom(a) if a in labels else NegAtom(a) for a in ("a", "b")]
    if kind == "boolean":
        return frozenset({literals[0], disj([literals[1], Atom("c")]),
                          conj(literals)})
    count, members = rng.randint(1, 3), set()
    while len(members) < count:
        path = PathFormula(rng.choice((PathOp.F, PathOp.G)),
                           random_core_formula(rng, 1))
        p = mc.probability(state, path)
        if p > 0:
            bound = p * rng.choice((1, 1, Fraction(1, 2)))
            members.add(Prob(path.op, Cmp.GE, bound, path.body))
    return frozenset(members)


def test_selection_equals_the_reference_randomized():
    # every state, bottom-SCC states included, under obligation sets with
    # no path formula (empty or boolean) and with 1-3 F/G members; the
    # library reads the support off the graph where the reference solves
    rng = random.Random(97)
    seen = {"empty": 0, "boolean": 0, "paths": 0, "bottom": 0, "split": 0}
    for _ in range(150):
        chain = random_chain(rng, max_states=7)
        mc = ModelChecker(chain)
        bottom = mc.chain.names(mc.sccs.bottom)
        for state in chain.states:
            # states that enter two or more bottom states first, where the
            # name order picks among them
            passage = first_passage(chain, state, bottom)
            seen["split"] += sum(y > 0 for y in passage.values()) > 1
            seen["bottom"] += state in bottom
            for kind in ("empty", "boolean", "paths"):
                residue = _held_obligations(rng, mc, state, kind)
                sel = successor_selection(mc, state, residue)
                assert sel == reference_successor_selection(mc, state, residue), \
                    (chain.to_dict(), state, sorted(map(str, residue)))
                assert verify_selection(mc, state, residue, sel) == []
                seen[kind] += 1
                if state in bottom:
                    assert sel == {state: Fraction(1)}
    assert min(seen.values()) > 30, seen


def test_selection_without_paths_solves_nothing(monkeypatch):
    # with no path formula to cover, the support is a graph fact: neither
    # a first-passage solve nor a Caratheodory step runs
    def refuse(*args):
        raise AssertionError("arithmetic on an obligation-free selection")

    mc = ModelChecker(_SELECTION_CHAIN)
    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "null_vector", refuse)
    assert successor_selection(mc, "s", frozenset()) == {"w": Fraction(1)}


def test_first_passage_solves_entered_targets_only(monkeypatch):
    # y is a target that s never enters: it reads 0 without a column
    widths = []
    solve = linalg.solve

    def counting_solve(a, rhs):
        widths.append(len(rhs[0]))
        return solve(a, rhs)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    assert first_passage(_SELECTION_CHAIN, "s", {"x", "w", "y"}) == {
        "w": Fraction(1, 2), "x": Fraction(1, 2), "y": Fraction(0)}
    assert widths == [2]


# -- model construction ------------------------------------------------------

def u_submodel():
    return MarkovChain(["u"], {("u", "u"): Fraction(1)}, {"u": ["a"]})


def test_build_loop_model_running_example(running, psi):
    fig1, mc, _, X = running
    loop = example_loop(psi)
    assert loop_return_probability(loop) == Fraction(3, 4)
    model, entry = build_loop_model(loop, [(u_submodel(), "u", Fraction(1))],
                                    entry_for=X)
    assert validate(model) == []
    assert len(model.states) == 4
    assert entry == "L0"
    assert model.probability("L2", "L0") == Fraction(3, 4)
    assert model.probability("L2", "u") == Fraction(1, 4)
    built_mc = ModelChecker(model)
    assert built_mc.check(entry, X)
    assert simple_loop_components(model) == []


def test_build_loop_model_in_loop_eventualities_beat_return_mass(running, psi):
    # every F formula the loop discharges itself is satisfied from every
    # loop state with probability at least the loop-return probability
    fig1, mc, _, X = running
    loop = example_loop(psi)
    model, _ = build_loop_model(loop, [(u_submodel(), "u", Fraction(1))],
                                entry_for=X)
    built_mc = ModelChecker(model)
    stay = loop_return_probability(loop)
    residue = exit_obligations(loop)
    union = frozenset().union(*loop)
    in_loop_fs = [g for g in union
                  if isinstance(g, Prob) and g.op is PathOp.F
                  and g not in residue]
    assert in_loop_fs
    for g in in_loop_fs:
        for i in range(len(loop)):
            path = g.path_formula
            assert built_mc.probability(f"L{i}", path) >= stay


def test_build_loop_model_single_set():
    loop = (frozenset({Atom("a")}),)
    model, entry = build_loop_model(loop, [(u_submodel(), "u", Fraction(1))],
                                    loop[0])
    assert validate(model) == []
    assert loop_return_probability(loop) == Fraction(1, 2)
    assert model.probability("L0", "L0") == Fraction(1, 2)
    assert ModelChecker(model).holds(entry, Atom("a"))


def test_build_loop_model_weight_validation(psi):
    loop = example_loop(psi)
    with pytest.raises(ValueError):
        build_loop_model(loop, [(u_submodel(), "u", Fraction(1, 2))], loop[0])


def test_build_loop_model_errors(psi):
    loop = (frozenset({Atom("a")}),)
    u = u_submodel()
    with pytest.raises(ValueError, match="submodel weights must be positive"):
        build_loop_model(loop, [(u, "u", Fraction(2)), (u, "u", Fraction(-1))],
                         loop[0])
    with pytest.raises(ValueError, match="entry state 'x' not in submodel 0"):
        build_loop_model(loop, [(u, "x", Fraction(1))], loop[0])
    with pytest.raises(ValueError, match="no loop set contains the requested"):
        build_loop_model(loop, [(u, "u", Fraction(1))], {NegAtom("a")})


def test_build_loop_model_same_submodel_twice():
    # one chain passed twice: the second copy is renamed, and each entry
    # gets its own exit edge carrying exactly its share of the exit mass
    loop = (frozenset({Atom("a")}),)
    u = u_submodel()
    model, _ = build_loop_model(loop, [(u, "u", Fraction(1, 3)),
                                       (u, "u", Fraction(2, 3))], loop[0])
    stay = loop_return_probability(loop)
    assert model.probability("L0", "L0") == stay
    assert model.probability("L0", "u") == (1 - stay) / 3
    assert model.probability("L0", "m1_u") == 2 * (1 - stay) / 3
    assert validate(model) == []


def test_build_loop_model_renames_collisions(psi):
    sub = MarkovChain(["L0"], {("L0", "L0"): Fraction(1)}, {"L0": ["a"]})
    loop = (frozenset({Atom("a")}),)
    model, _ = build_loop_model(loop, [(sub, "L0", Fraction(1))], loop[0])
    assert "m0_L0" in model.states


def test_build_loop_model_renamed_state_avoids_later_names():
    # the rename of the first submodel's L0 must not take the name the
    # second submodel keeps
    first = MarkovChain(["L0"], {("L0", "L0"): Fraction(1)}, {"L0": ["a"]})
    second = MarkovChain(["m0_L0"], {("m0_L0", "m0_L0"): Fraction(1)},
                         {"m0_L0": ["b"]})
    loop = (frozenset({Atom("a")}),)
    model, _ = build_loop_model(loop, [(first, "L0", Fraction(1, 2)),
                                       (second, "m0_L0", Fraction(1, 2))],
                                loop[0])
    assert len(model.states) == 3
    assert model.atoms("m0_L0") == frozenset({"b"})
    assert validate(model) == []


def test_compress_generic_nested_renames():
    # the renamed names of two recursion levels used to collide ('m1_s3')
    chain = MarkovChain.from_dict({
        "states": [{"id": "s0", "ap": ["a"]}, {"id": "s1", "ap": ["b"]},
                   {"id": "s2", "ap": ["a"]}, {"id": "s3", "ap": ["a"]},
                   {"id": "s4", "ap": ["a", "b"]}],
        "edges": [{"from": "s0", "to": "s4", "p": "2/3"},
                  {"from": "s0", "to": "s2", "p": "1/3"},
                  {"from": "s1", "to": "s0", "p": "1"},
                  {"from": "s2", "to": "s2", "p": "1/7"},
                  {"from": "s2", "to": "s0", "p": "3/7"},
                  {"from": "s2", "to": "s1", "p": "3/7"},
                  {"from": "s3", "to": "s4", "p": "1"},
                  {"from": "s4", "to": "s3", "p": "1"}]})
    f = pf("F>0[F>=1/4[!a]]")
    model, entry, _ = compress_model(chain, "s0", f, fragment="generic", max_n=2)
    assert validate(model) == []
    assert simple_loop_components(model) == []
    assert ModelChecker(model).holds(entry, f)


def test_bscc_reduce_singleton(fig1_checker):
    model, entry = bscc_reduce(fig1_checker, "u", {pf("G=1[a]")})
    assert model.states == ("u",)
    assert model.probability("u", "u") == 1
    assert entry == "u"


def test_bscc_reduce_uniform_cycle():
    chain = MarkovChain(
        ["a0", "a1", "a2"],
        {("a0", "a1"): Fraction(1), ("a1", "a2"): Fraction(1),
         ("a2", "a0"): Fraction(1)},
        {"a0": ["a"], "a1": ["a"], "a2": ["a"]},
    )
    model, entry = bscc_reduce(ModelChecker(chain), "a0", {pf("G=1[a]")})
    assert len(model.states) == 1
    assert ModelChecker(model).holds(entry, pf("G=1[a]"))


def test_bscc_reduce_two_classes():
    chain = MarkovChain(
        ["x", "y", "z"],
        {("x", "y"): Fraction(1), ("y", "z"): Fraction(1),
         ("z", "x"): Fraction(1)},
        {"x": ["a"], "y": ["a"], "z": ["b"]},
    )
    X = {pf("F=1[a]"), pf("F=1[b]")}
    model, entry = bscc_reduce(ModelChecker(chain), "x", X)
    assert len(model.states) == 2
    assert ModelChecker(model).check(entry, X)


def test_bscc_reduce_rejects_non_bottom(fig1_checker):
    with pytest.raises(ValueError):
        bscc_reduce(fig1_checker, "s", {pf("!a")})


def test_bscc_reduce_randomized():
    rng = random.Random(97)
    for _ in range(60):
        chain, state, f, mc = bottom_state_instance(rng)
        X = closure_update(mc, state, {f})
        model, entry = bscc_reduce(mc, state, X)
        assert validate(model) == []
        assert len(model.states) <= 2 ** len(subformulas_of(X))
        assert ModelChecker(model).check(entry, X)


def test_compress_running_example(running, psi):
    fig1, mc, _, X = running
    model, entry, trace = compress_model(fig1, "s", psi, fragment="l2")
    assert validate(model) == []
    assert len(model.states) <= 10
    assert ModelChecker(model).holds(entry, psi)
    assert simple_loop_components(model) == []
    assert trace.measure == 7
    assert trace.base == 21
    assert trace.mode == "loop"
    assert trace.children and trace.children[0].mode == "bscc"
    # strict decrease into the recursion
    assert trace.children[0].measure < trace.measure
    # the documented bound holds at every level
    def walk(node):
        assert node.size <= node.bound
        assert node.bound == model_size_bound(node.base, node.measure + 1)
        for child in node.children:
            walk(child)
    walk(trace)


def _unlabelled(edges):
    """The chain of `edges`, {(src, dst): probability}, states in order of
    first mention and no atoms."""
    states = list(dict.fromkeys(s for edge in edges for s in edge))
    return MarkovChain(states, {e: Fraction(p) for e, p in edges.items()}, {})


def test_simple_loop_components_two_successors_inside():
    # a -> b -> a and a -> c -> a, with the one exit c -> x
    chain = _unlabelled({("a", "b"): "1/2", ("a", "c"): "1/2", ("b", "a"): 1,
                         ("c", "a"): "1/2", ("c", "x"): "1/2", ("x", "x"): 1})
    assert simple_loop_components(chain) == [
        "non-bottom SCC state 'a' has 2 successors inside its component "
        "(simple loop needs exactly 1)"]


def test_simple_loop_components_two_exit_states():
    chain = _unlabelled({("a", "b"): "1/2", ("a", "x"): "1/2", ("b", "a"): "1/2",
                         ("b", "x"): "1/2", ("x", "x"): 1})
    assert simple_loop_components(chain) == [
        "non-bottom SCC {a, b} has 2 exit states"]


def test_simple_loop_components_ignore_bottom_shape():
    # the bottom SCC {a, b, c} branches at a; the simple loop at s exits once
    chain = _unlabelled({("s", "s"): "1/2", ("s", "a"): "1/2", ("a", "b"): "1/2",
                         ("a", "c"): "1/2", ("b", "a"): 1, ("c", "a"): 1})
    assert simple_loop_components(chain) == []


def test_compress_generic_mode(running, psi):
    fig1, mc, _, X = running
    model, entry, _ = compress_model(fig1, "s", psi, fragment="generic", max_n=3)
    assert ModelChecker(model).holds(entry, psi)


def test_compress_bscc_base_case():
    chain = MarkovChain(
        ["x", "y"],
        {("x", "y"): Fraction(1), ("y", "x"): Fraction(1)},
        {"x": ["a"], "y": ["a"]},
    )
    model, entry, trace = compress_model(chain, "x", pf("G=1[a]"))
    assert trace.mode == "bscc"
    assert len(model.states) == 1
    assert ModelChecker(model).holds(entry, pf("G=1[a]"))


def test_compress_computes_the_input_sccs_once(monkeypatch, psi):
    import pctlfg.markov
    import pctlfg.modelcheck
    import pctlfg.progress

    fig1 = fig1_chain()  # a chain no checker has asked yet
    original = pctlfg.markov.scc_decompose
    original_pred = pctlfg.markov.predecessor_masks
    seen = []
    mask_builds = []

    def counting(chain):
        seen.append(chain)
        return original(chain)

    def counting_pred(succ):
        mask_builds.append(succ)
        return original_pred(succ)

    for module in (pctlfg.markov, pctlfg.modelcheck, pctlfg.progress):
        monkeypatch.setattr(module, "scc_decompose", counting, raising=False)
    for module in (pctlfg.markov, pctlfg.modelcheck):
        monkeypatch.setattr(module, "predecessor_masks", counting_pred,
                            raising=False)
    compress_model(fig1, "s", psi, fragment="l2")
    assert sum(chain is fig1 for chain in seen) == 1
    # every chain, the input, the bottom-SCC cycle and the output model,
    # holds its masks from construction, so no mask is rebuilt on the way
    assert mask_builds == []


def _output_digest(h, entry, model, trace):
    """Feeds one compression's entry, model JSON and trace JSON to `h`."""
    h.update(repr((entry, model.to_json(indent=None),
                   json.dumps(trace.to_dict(), sort_keys=True))).encode())


@pytest.mark.parametrize("fragment", ["l2", "generic"])
def test_compress_randomized_l2(fragment):
    # L2 instances, compressed by the constructive and the exhaustive search;
    # the two agree here, and the digest pins their output
    rng = random.Random(101)
    h = hashlib.sha256()
    done = 0
    while done < 25:
        chain, state, f, mc = satisfied_instance(rng, max_states=5, depth=3)
        if not fragment_classify(f).in_l2:
            continue
        model, entry, trace = compress_model(chain, state, f,
                                             fragment=fragment, max_n=3)
        assert validate(model) == []
        assert ModelChecker(model).holds(entry, f)
        assert simple_loop_components(model) == []
        def walk(node):
            assert node.size <= node.bound
            for child in node.children:
                if child.mode == "loop":
                    assert child.measure < node.measure
                walk(child)
        walk(trace)
        _output_digest(h, entry, model, trace)
        done += 1
    assert h.hexdigest()[:16] == "9da1e6937c083dc8"


def test_jobs_leave_no_reference_cycles():
    # a finished job leaves nothing to the cyclic collector: its checker,
    # chains, memo tables and formula nodes are freed by reference counting
    # alone, as no recursive helper refers to itself through a closure cell.
    # Each `compress` fragment and `sat` is run over the benchmark's seed-1
    # jobs with the collector off, then collected
    workloads = bench_workloads()
    compress = list(workloads.generate("compress", 1))
    jobs = {fragment: (workloads.run_compress,
                       [inst for inst in compress if inst["fragment"] == fragment])
            for fragment in ("l2", "generic")}
    jobs["sat"] = (workloads.run_sat, list(workloads.generate("sat", 1)))
    left = {}
    gc.collect()
    gc.disable()
    try:
        for kind, (run, instances) in jobs.items():
            for inst in instances:
                run(inst)
            left[kind] = gc.collect()
    finally:
        gc.enable()
    assert left == {"l2": 0, "generic": 0, "sat": 0}


def test_compress_two_level_recursion():
    # the exit successor t is not in a bottom SCC, so the pipeline must
    # recurse through a second loop before reaching the absorbing state
    chain = MarkovChain(
        ["s", "t", "u"],
        {("s", "t"): Fraction(1), ("t", "s"): Fraction(1, 2),
         ("t", "u"): Fraction(1, 2), ("u", "u"): Fraction(1)},
        {"s": [], "t": ["b"], "u": ["a"]},
    )
    nested = pf("F=1[b & F=1[G=1[a]]] & !b")
    assert fragment_classify(nested).in_l2
    model, entry, trace = compress_model(chain, "s", nested, fragment="l2")
    assert validate(model) == []
    assert ModelChecker(model).holds(entry, nested)
    assert simple_loop_components(model) == []
    assert trace.mode == "loop"
    assert len(trace.children) == 1
    middle = trace.children[0]
    assert middle.mode == "loop"
    assert middle.measure < trace.measure
    assert len(middle.children) == 1
    assert middle.children[0].mode == "bscc"
    # the generic search handles the same instance
    model2, entry2, _ = compress_model(chain, "s", nested, fragment="generic",
                                       max_n=3)
    assert ModelChecker(model2).holds(entry2, nested)


@pytest.mark.parametrize("formula, model", [
    # X's pending set holds the G of a dead disjunct, which bars every
    # b-state (!c-state) as a witness, so X has no reachable eventuality;
    # read under their own, empty pending set, the exit obligations had
    # F b (F !c), and condition (6) rejected the loop
    ("(F=1[b] | G=1[b])",
     '{"states":[{"id":"s0","ap":["a","c"]},{"id":"s1","ap":["b"]},'
     '{"id":"s2","ap":["b","c"]},{"id":"s3","ap":["c"]}],'
     '"edges":[{"from":"s0","to":"s2","p":"1/7"},{"from":"s0","to":"s0","p":"3/7"},'
     '{"from":"s0","to":"s1","p":"3/7"},{"from":"s1","to":"s2","p":"1"},'
     '{"from":"s2","to":"s1","p":"1"},{"from":"s3","to":"s3","p":"1"}]}'),
    ("F>=1/2[(G=1[(!a & !a)] | F=1[!c])]",
     '{"states":[{"id":"s0","ap":["a","c"]},{"id":"s1","ap":["b","c"]},'
     '{"id":"s2","ap":["b"]},{"id":"s3","ap":["b"]}],'
     '"edges":[{"from":"s0","to":"s3","p":"1/8"},{"from":"s0","to":"s1","p":"9/16"},'
     '{"from":"s0","to":"s0","p":"5/16"},{"from":"s1","to":"s2","p":"1"},'
     '{"from":"s2","to":"s1","p":"1"},{"from":"s3","to":"s3","p":"1"}]}'),
], ids=["seed0", "seed24"])
def test_compress_l2_condition_6_regressions(formula, model):
    # the `compress` bench instances that condition (6) used to reject when
    # it read the exit obligations under their own pending set
    chain = MarkovChain.from_json(model)
    f = pf(formula)
    built, entry, _ = compress_model(chain, "s0", f, fragment="l2")
    assert simple_loop_components(built) == []
    assert ModelChecker(built).holds(entry, f)


@pytest.mark.parametrize("formula, state, model", [
    # the `compress` bench instance of seed 23 (#302): the root's F=1
    # obligation on G>0[G>=1/4[!a]] goes to s0 and s5, where its body holds,
    # and their closure added a G bound that raised m from 12 to 13
    ("F>=2/3[F<1[F>3/4[a]]]", "s1",
     '{"states":[{"id":"s0","ap":[]},{"id":"s1","ap":[]},{"id":"s2","ap":["b"]},'
     '{"id":"s3","ap":["b"]},{"id":"s4","ap":["a"]},{"id":"s5","ap":["b"]},'
     '{"id":"s6","ap":[]},{"id":"s7","ap":[]}],'
     '"edges":[{"from":"s0","to":"s0","p":"9/11"},{"from":"s0","to":"s3","p":"1/11"},'
     '{"from":"s0","to":"s5","p":"1/11"},{"from":"s1","to":"s1","p":"2/5"},'
     '{"from":"s1","to":"s0","p":"1/4"},{"from":"s1","to":"s4","p":"7/20"},'
     '{"from":"s2","to":"s5","p":"7/19"},{"from":"s2","to":"s6","p":"3/19"},'
     '{"from":"s2","to":"s2","p":"9/19"},{"from":"s3","to":"s6","p":"2/7"},'
     '{"from":"s3","to":"s4","p":"3/7"},{"from":"s3","to":"s1","p":"2/7"},'
     '{"from":"s4","to":"s1","p":"5/11"},{"from":"s4","to":"s0","p":"1/11"},'
     '{"from":"s4","to":"s5","p":"5/11"},{"from":"s5","to":"s0","p":"1/6"},'
     '{"from":"s5","to":"s5","p":"1/3"},{"from":"s5","to":"s3","p":"1/2"},'
     '{"from":"s6","to":"s6","p":"1"},{"from":"s7","to":"s7","p":"1"}]}'),
    # the repro that bench/README.md gives for the defect
    ("F>3/4[G>=3/4[G>=1/2[!b]]]", "s1",
     '{"states":[{"id":"s0","ap":["a"]},{"id":"s1","ap":[]},{"id":"s2","ap":["b"]},'
     '{"id":"s3","ap":["a"]},{"id":"s4","ap":["a"]}],'
     '"edges":[{"from":"s0","to":"s0","p":"1"},{"from":"s1","to":"s3","p":"3/7"},'
     '{"from":"s1","to":"s1","p":"3/7"},{"from":"s1","to":"s0","p":"1/7"},'
     '{"from":"s2","to":"s0","p":"1/3"},{"from":"s2","to":"s2","p":"1/3"},'
     '{"from":"s2","to":"s4","p":"1/3"},{"from":"s3","to":"s0","p":"2/5"},'
     '{"from":"s3","to":"s2","p":"2/5"},{"from":"s3","to":"s1","p":"1/5"},'
     '{"from":"s4","to":"s4","p":"1/3"},{"from":"s4","to":"s1","p":"2/9"},'
     '{"from":"s4","to":"s0","p":"4/9"}]}'),
    # an L1-only instance: the child s0 gets F=1 of the root's body, which
    # holds at s0, and the closure of that F added G>=4/7[b] and G>=4/7[!a]
    ("F>=1/3[G>=1/4[!a] & G>=1/4[b] & b]", "s1",
     '{"states":[{"id":"s0","ap":["b"]},{"id":"s1","ap":["a"]},{"id":"s2","ap":["b"]},'
     '{"id":"s3","ap":["b"]},{"id":"s4","ap":["a"]},{"id":"s5","ap":[]},'
     '{"id":"s6","ap":["a"]}],'
     '"edges":[{"from":"s0","to":"s0","p":"1/8"},{"from":"s0","to":"s3","p":"1/2"},'
     '{"from":"s0","to":"s6","p":"3/8"},{"from":"s1","to":"s2","p":"5/14"},'
     '{"from":"s1","to":"s3","p":"5/14"},{"from":"s1","to":"s6","p":"2/7"},'
     '{"from":"s2","to":"s0","p":"2/7"},{"from":"s2","to":"s6","p":"4/7"},'
     '{"from":"s2","to":"s4","p":"1/7"},{"from":"s3","to":"s3","p":"1"},'
     '{"from":"s4","to":"s4","p":"1"},{"from":"s5","to":"s6","p":"1"},'
     '{"from":"s6","to":"s5","p":"1"}]}'),
    # the cross-examination input of seed 1 ("at 's0': 17 >= 16")
    ("!b & F>1/4[G=1[b]] & F>=3/4[G>1/2[a] & F=1[a]]", "s2",
     '{"states":[{"id":"s0","ap":["a","b"]},{"id":"s1","ap":["a","b"]},'
     '{"id":"s2","ap":["a"]},{"id":"s3","ap":[]}],'
     '"edges":[{"from":"s0","to":"s2","p":"1/2"},{"from":"s0","to":"s1","p":"1/6"},'
     '{"from":"s0","to":"s0","p":"1/3"},{"from":"s1","to":"s1","p":"1"},'
     '{"from":"s2","to":"s3","p":"3/5"},{"from":"s2","to":"s1","p":"2/5"},'
     '{"from":"s3","to":"s1","p":"1/4"},{"from":"s3","to":"s0","p":"3/4"}]}'),
    # the cross-examination input of seed 3: the root has m = 7, pending
    # {G a} and RE {F a}, and the child s3 keeps its measure at 7, a
    # mechanism the discharged-F rule does not reach (ROADMAP item 1)
    pytest.param(
        "!a & F=1[a] & G>0[F>=1/4[G=1[a]]]", "s1",
        '{"states":[{"id":"s0","ap":["b"]},{"id":"s1","ap":["b"]},'
        '{"id":"s2","ap":["a"]},{"id":"s3","ap":["a"]},{"id":"s4","ap":["a","b"]}],'
        '"edges":[{"from":"s0","to":"s4","p":"1/2"},{"from":"s0","to":"s0","p":"1/6"},'
        '{"from":"s0","to":"s1","p":"1/3"},{"from":"s1","to":"s3","p":"1/4"},'
        '{"from":"s1","to":"s4","p":"1/2"},{"from":"s1","to":"s2","p":"1/4"},'
        '{"from":"s2","to":"s2","p":"1"},{"from":"s3","to":"s3","p":"1/5"},'
        '{"from":"s3","to":"s4","p":"2/5"},{"from":"s3","to":"s1","p":"2/5"},'
        '{"from":"s4","to":"s0","p":"1/3"},{"from":"s4","to":"s3","p":"1/3"},'
        '{"from":"s4","to":"s1","p":"1/3"}]}',
        marks=pytest.mark.xfail(strict=True, raises=CompressionError,
                                reason="progress measure did not decrease "
                                       "at 's3': 7 >= 7")),
    # the seed-20 cross-examination input, shrunk to 3 states: a second
    # case of the same open step (ROADMAP item 1, step C)
    pytest.param(
        "F>=1/2[b] & G>=1/5[F>1/5[G>1/2[!b]]]", "s1",
        '{"states":[{"id":"s1","ap":[]},{"id":"s2","ap":[]},{"id":"s3","ap":["b"]}],'
        '"edges":[{"from":"s1","to":"s3","p":"1"},{"from":"s2","to":"s2","p":"1"},'
        '{"from":"s3","to":"s2","p":"1"}]}',
        marks=pytest.mark.xfail(strict=True, raises=CompressionError,
                                reason="progress measure did not decrease "
                                       "at 's3': 7 >= 7")),
], ids=["seed23", "readme", "l1", "cross1", "cross3", "seed20"])
def test_compress_discharged_f_regressions(formula, state, model):
    # a child where an achieved F obligation's body holds owes that body,
    # not the F: with the F, its closure could raise the child's progress
    # measure above its parent's
    chain = MarkovChain.from_json(model)
    f = pf(formula)
    built, entry, _ = compress_model(chain, state, f, fragment="generic",
                                     max_n=3)
    assert simple_loop_components(built) == []
    assert ModelChecker(built).holds(entry, f)


_LATER_WITNESS = (
    '{"states":[{"id":"s2","ap":["a","b"]},{"id":"s3","ap":[]},'
    '{"id":"s4","ap":["a"]}],'
    '"edges":[{"from":"s2","to":"s3","p":"1"},{"from":"s3","to":"s2","p":"1/2"},'
    '{"from":"s3","to":"s4","p":"1/2"},{"from":"s4","to":"s4","p":"1"}]}')


def test_l2_search_backtracks_to_a_later_witness():
    # the first breadth-first witness of F>3/4[a & F=1[!b]] from s3 is s2,
    # where !b fails: the level closed there holds F=1[!b] without its
    # body, so the loop owes it, and condition (5) rejects that since !b
    # holds at s3.  The next witness, s4, closes a level that holds !b
    chain = MarkovChain.from_json(_LATER_WITNESS)
    f = pf("!b & F>3/4[a & F=1[!b]]")
    built, entry, trace = compress_model(chain, "s3", f, fragment="l2")
    assert ModelChecker(built).holds(entry, f)
    assert simple_loop_components(built) == []
    assert any(pf("!b") in level and pf("a") in level for level in trace.loop)


def test_l2_backtracking_is_bounded_by_the_node_budget():
    # the first sequence tries one witness and fails; the budget of one
    # witness stops the search before the second
    chain = MarkovChain.from_json(_LATER_WITNESS)
    mc = ModelChecker(chain)
    X = closure_update(mc, "s3", {pf("!b & F>3/4[a & F=1[!b]]")})
    with pytest.raises(SearchSpaceExceeded):
        search_loop_l2(mc, "s3", X, node_budget=1)
    loop = search_loop_l2(mc, "s3", X, node_budget=2)
    assert verify_loop(mc, "s3", X, loop) == []


def test_compress_randomized_other_fragments():
    # formulas outside L2 (or in any family) go through the generic search
    rng = random.Random(131)
    h = hashlib.sha256()
    done = 0
    attempts = 0
    while done < 20 and attempts < 2000:
        attempts += 1
        chain, state, f, mc = satisfied_instance(rng, max_states=5, depth=3)
        flags = fragment_classify(f)
        if flags.in_l2 or not (flags.in_l1 or flags.in_l3 or flags.in_l4):
            continue
        if len(subformulas_of(closure_update(mc, state, {f}))) > 9:
            continue
        try:
            model, entry, trace = compress_model(chain, state, f,
                                                 fragment="generic", max_n=3)
        except SearchSpaceExceeded:
            continue
        assert validate(model) == []
        assert ModelChecker(model).holds(entry, f)
        _output_digest(h, entry, model, trace)
        done += 1
    assert done >= 20
    assert h.hexdigest()[:16] == "4b4056abeb69df16"


def test_compress_trace_serializable(running, psi):
    fig1, mc, _, X = running
    _, _, trace = compress_model(fig1, "s", psi, fragment="l2")
    text = json.dumps(trace.to_dict())
    data = json.loads(text)
    assert data["measure"] == 7
    assert data["mode"] == "loop"
    assert data["successors"] == [{"state": "u", "weight": "1"}]
