import importlib
import random
from fractions import Fraction

import pytest

from helpers import PHI_OR_TEXT, satisfied_instance

from pctlfg.closure import (
    UnsatisfiedSetError, achieved_bounds, closure, closure_update, update,
)
from pctlfg.formula import Atom, Prob, parse_formula
from pctlfg.markov import MarkovChain
from pctlfg.modelcheck import ModelChecker


def expected_closure(psi):
    return frozenset({
        psi,
        parse_formula(f"G=1[{PHI_OR_TEXT}]"),
        parse_formula("F=1[G=1[a]]"),
        parse_formula("!a"),
    })


def test_closure_running_example(fig1_checker, psi):
    assert closure(fig1_checker, "s", {psi}) == expected_closure(psi)


def test_closure_excludes_unsatisfied_g_body(fig1_checker, psi):
    assert parse_formula("G=1[a]") not in closure(fig1_checker, "s", {psi})


def test_closure_atom(fig1_checker):
    assert closure(fig1_checker, "t", {Atom("a")}) == frozenset({Atom("a")})


def test_closure_precondition(fig1_checker, psi):
    with pytest.raises(UnsatisfiedSetError) as err:
        closure(fig1_checker, "t", {psi})
    assert err.value.formula == psi


def test_precondition_names_the_first_falsified_formula_in_canonical_order(
        fig1_checker):
    # formulas hash by identity, so a set iterates in allocation order; the
    # named formula is the least falsified one by `sort_key` whatever order
    # the members come in
    falsified = [parse_formula(text) for text in
                 ("G>=1/2[b]", "F>0[b] & c", "c | d", "!a", "d", "b")]
    for rotation in range(len(falsified)):
        X = [Atom("a")] + falsified[rotation:] + falsified[:rotation]
        for operator in (closure, update):
            with pytest.raises(UnsatisfiedSetError) as err:
                operator(fig1_checker, "t", X)
            assert err.value.formula == Atom("b")
            assert str(err.value) == "state 't' does not satisfy b"


def test_closure_update_names_the_first_falsified_member_of_the_closure(
        fig1_checker, psi):
    # the one check runs on the closure, which holds psi's conjunct !a
    with pytest.raises(UnsatisfiedSetError) as err:
        closure_update(fig1_checker, "u", {psi})
    assert (err.value.state, err.value.formula) == ("u", parse_formula("!a"))


def test_closure_update_checks_satisfaction_once(monkeypatch):
    # the package exports the `closure` function under the module's name
    module = importlib.import_module("pctlfg.closure")
    calls = []
    original = module.require_satisfied

    def counting(mc, state, formulas):
        calls.append(frozenset(formulas))
        return original(mc, state, formulas)

    monkeypatch.setattr(module, "require_satisfied", counting)
    rng = random.Random(67)
    for _ in range(40):
        chain, state, f, mc = satisfied_instance(rng)
        closed = closure(mc, state, {f})
        calls.clear()
        closure_update(mc, state, {f})
        # one check, of the closure that `update` tightens
        assert calls == [closed]


def test_update_running_example(fig1_checker, psi):
    c = closure(fig1_checker, "s", {psi})
    assert update(fig1_checker, "s", c) == c  # both bounds already 1


def test_update_atom(fig1_checker):
    assert update(fig1_checker, "t", {Atom("a")}) == frozenset({Atom("a")})


def test_update_tightens_bound():
    chain = MarkovChain(
        ["s", "t", "d"],
        {("s", "t"): Fraction(3, 4), ("s", "d"): Fraction(1, 4),
         ("t", "t"): Fraction(1), ("d", "d"): Fraction(1)},
        {"t": ["a"]},
    )
    before = parse_formula("F>=1/2[a]")
    after = update(ModelChecker(chain), "s", {before})
    assert after == frozenset({parse_formula("F>=3/4[a]")})


def test_closure_update_running_example(fig1_checker, psi):
    assert closure_update(fig1_checker, "s", {psi}) == expected_closure(psi)


def test_closure_update_idempotent_on_example(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    assert closure_update(fig1_checker, "s", X) == X


def test_achieved_bounds_running_example(fig1_checker, psi):
    X = closure_update(fig1_checker, "s", {psi})
    assert achieved_bounds(fig1_checker, "s", X) == frozenset({
        parse_formula(f"G=1[{PHI_OR_TEXT}]"),
        parse_formula("F=1[G=1[a]]"),
    })


def test_achieved_bounds_drops_zero(fig1_checker):
    # u never reaches a !a state
    assert achieved_bounds(fig1_checker, "u",
                           {parse_formula("F>=1/5[!a]")}) == frozenset()


def test_achieved_bounds_at_bottom_state(fig1_checker):
    assert achieved_bounds(fig1_checker, "u", {parse_formula("F=1[a]")}) == \
        frozenset({parse_formula("F=1[a]")})


def test_achieved_bounds_always_satisfied():
    rng = random.Random(53)
    for _ in range(100):
        chain, state, f, mc = satisfied_instance(rng)
        X = closure_update(mc, state, {f})
        for t in chain.states:
            bounds = achieved_bounds(mc, t, X)
            assert mc.check(t, bounds)


def test_idempotence_properties():
    rng = random.Random(59)
    for _ in range(120):
        chain, state, f, mc = satisfied_instance(rng)
        X = closure_update(mc, state, {f})
        assert closure_update(mc, state, X) == X
        u1 = update(mc, state, X)
        assert update(mc, state, u1) == u1


def test_bounds_only_grow():
    rng = random.Random(61)
    for _ in range(120):
        chain, state, f, mc = satisfied_instance(rng)
        X = closure(mc, state, {f})
        updated = update(mc, state, X)
        by_path = {}
        for g in updated:
            if isinstance(g, Prob):
                by_path[g.path_formula] = g.bound
        for g in X:
            if isinstance(g, Prob):
                assert by_path[g.path_formula] >= g.bound
