import hashlib
import json
import random
from fractions import Fraction

import pytest

from helpers import (
    PHI_OR_TEXT, bottom_state_instance, fig1_chain, random_core_formula,
    reference_locally_consistent_sets, reference_search_loop_generic,
    satisfied_instance,
)

from pctlfg.closure import UnsatisfiedSetError, closure_update
from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, Or, PathFormula, PathOp, Prob, conj, formula_sets,
    fragment_classify, parse_formula, sorted_formulas, subformulas,
)
from pctlfg.markov import MarkovChain, indices, validate
from pctlfg.measure import model_size_bound
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import (
    FragmentError, ProgressLoopError, SearchSpaceExceeded,
    _g_bodies, _locally_consistent_sets, bscc_reduce,
    build_loop_model, caratheodory_reduce, compress_model, exit_obligations,
    loop_return_probability, search_loop_generic, search_loop_l2,
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
        universe = sorted_formulas(formula_sets(X).sub)
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
        universe = sorted_formulas(formula_sets(X).sub)
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
    assert len(formula_sets(X).sub) == 21
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
    assert _shared_g_body(sorted_formulas(formula_sets(X).sub))
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
        assert exit_obligations(loop) <= formula_sets(X).sub


# -- successor selection -----------------------------------------------------

def test_caratheodory_1d_example():
    points = [(Fraction(1, 5),), (Fraction(4, 5),), (Fraction(1, 2),)]
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    target = sum((w * p[0] for w, p in zip(weights, points)), Fraction(0))
    reduced = caratheodory_reduce(points, weights)
    assert sum(1 for w in reduced if w > 0) <= 2
    assert sum(reduced, Fraction(0)) == 1
    assert sum((w * p[0] for w, p in zip(reduced, points)), Fraction(0)) == target


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
    model, entry = build_loop_model(loop, [(u_submodel(), "u", Fraction(1))])
    assert validate(model) == []
    assert loop_return_probability(loop) == Fraction(1, 2)
    assert model.probability("L0", "L0") == Fraction(1, 2)
    assert ModelChecker(model).holds(entry, Atom("a"))


def test_build_loop_model_weight_validation(psi):
    loop = example_loop(psi)
    with pytest.raises(ValueError):
        build_loop_model(loop, [(u_submodel(), "u", Fraction(1, 2))])


def test_build_loop_model_renames_collisions(psi):
    sub = MarkovChain(["L0"], {("L0", "L0"): Fraction(1)}, {"L0": ["a"]})
    loop = (frozenset({Atom("a")}),)
    model, _ = build_loop_model(loop, [(sub, "L0", Fraction(1))])
    assert "m0_L0" in model.states


def test_build_loop_model_renamed_state_avoids_later_names():
    # the rename of the first submodel's L0 must not take the name the
    # second submodel keeps
    first = MarkovChain(["L0"], {("L0", "L0"): Fraction(1)}, {"L0": ["a"]})
    second = MarkovChain(["m0_L0"], {("m0_L0", "m0_L0"): Fraction(1)},
                         {"m0_L0": ["b"]})
    loop = (frozenset({Atom("a")}),)
    model, _ = build_loop_model(loop, [(first, "L0", Fraction(1, 2)),
                                       (second, "m0_L0", Fraction(1, 2))])
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
        assert len(model.states) <= 2 ** len(formula_sets(X).sub)
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
    # one mask build per checked chain: the input chain, the bottom-SCC
    # cycle and the output model; the SCCs reuse the input chain's masks
    assert len(mask_builds) == 3


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
    assert h.hexdigest()[:16] == "c13ede9482f97729"


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
        if len(formula_sets(closure_update(mc, state, {f})).sub) > 9:
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
    assert h.hexdigest()[:16] == "ec621681ff88b7a5"


def test_compress_trace_serializable(running, psi):
    fig1, mc, _, X = running
    _, _, trace = compress_model(fig1, "s", psi, fragment="l2")
    text = json.dumps(trace.to_dict())
    data = json.loads(text)
    assert data["measure"] == 7
    assert data["mode"] == "loop"
    assert data["successors"] == [{"state": "u", "weight": "1"}]
