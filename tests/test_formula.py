import copy
import gc
import hashlib
import itertools
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest

from helpers import (
    PSI_TEXT, REFERENCE_GLOBALLY, REFERENCE_NEGATED, bench_workloads,
    random_chain, random_core_formula, reference_fragment_classify,
    reference_is_core, reference_is_probability, reference_is_trivial_bound,
    reference_norm, reference_parse, reference_sat_set,
)

from pctlfg import formula
from pctlfg.formula import (
    _CMPS, _PATH_OPS, And, Atom, Cmp, NegAtom, Or, PathFormula, PathOp,
    PctlSyntaxError, Prob, NormalizationError, StateFormula, _is_probability,
    conj, disj, f_normal_form,
    fragment_classify, is_core, is_trivial_bound, normalize, parse_formula,
    sort_key, sorted_formulas, subformulas, subformulas_of,
)
from pctlfg.modelcheck import ModelChecker


def test_parse_running_example():
    f = parse_formula("F>=0.5[a & F>=0.2[!a]]")
    assert f == Prob(PathOp.F, Cmp.GE, Fraction(1, 2),
                     And((Atom("a"),
                          Prob(PathOp.F, Cmp.GE, Fraction(1, 5), NegAtom("a")))))


def test_malformed_nodes_are_rejected():
    with pytest.raises(ValueError, match="empty connective"):
        conj([])
    with pytest.raises(TypeError):
        Atom("a", "b")
    with pytest.raises(TypeError):
        normalize("x")


def test_parse_atom():
    assert parse_formula("a") == Atom("a")


def test_parse_bound_out_of_range():
    with pytest.raises(PctlSyntaxError):
        parse_formula("F>=1.5[a]")


def test_parse_fraction_literals():
    assert parse_formula("F>=1/4[a]").bound == Fraction(1, 4)
    assert parse_formula("F>=0.25[a]").bound == Fraction(1, 4)


@pytest.mark.parametrize("text", ["F>=1/\u00b2[a]", "F>=\u0663/\u0664[a]",
                                  "F>=1.[a]", "F>=1/[a]", "F>=1/0[a]"])
def test_bounds_are_model_numerals(text):
    # one numeral grammar for models and formulas: ASCII digits only, and a
    # failure is a syntax error at the numeral
    with pytest.raises(PctlSyntaxError, match="malformed rational") as err:
        parse_formula(text)
    assert (err.value.line, err.value.column) == (1, 4)


def test_parse_eq_only_one():
    assert parse_formula("F=1[a]") == Prob(PathOp.F, Cmp.GE, Fraction(1), Atom("a"))
    with pytest.raises(PctlSyntaxError):
        parse_formula("F=0.5[a]")


def test_parse_errors_carry_position():
    with pytest.raises(PctlSyntaxError) as err:
        parse_formula("a &\n& b")
    assert err.value.line == 2


def test_atom_named_like_operator():
    assert parse_formula("F & a") == And((Atom("F"), Atom("a")))


def test_demorgan():
    assert parse_formula("!(a | b)") == And((NegAtom("a"), NegAtom("b")))
    assert parse_formula("!!a") == Atom("a")


def test_conjunction_flattens():
    f = parse_formula("a & b & !c")
    assert isinstance(f, And) and len(f.args) == 3
    assert parse_formula("(a & b) & !c") == f
    # duplicates keep their first position, nested conjunctions included
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse_formula("b & a & (b | c) & a & (c & b)").args == \
        (b, a, parse_formula("b | c"), c)


def test_many_conjuncts_parse_in_linear_time():
    # dropping duplicate conjuncts stays linear; a quadratic dedupe takes
    # about 25 s on 50,000
    text = " & ".join(f"a{i}" for i in range(50_000))
    start = time.perf_counter()
    f = parse_formula(text)
    assert time.perf_counter() - start < 10
    assert len(f.args) == 50_000


# 0, 1, their neighbours, a bound equal to 1 written as 2/2, and 4,000-digit
# integers on either side of 1
_RULE_BOUNDS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 2),
                Fraction(-1, 3), Fraction(4, 3),
                Fraction(10 ** 3999 + 1, 10 ** 3999 + 3),
                Fraction(10 ** 3999 + 3, 10 ** 3999 + 1))


def test_integer_bound_rules_match_the_fraction_rules():
    for bound in _RULE_BOUNDS:
        assert _is_probability(bound) == reference_is_probability(bound), bound
        for cmp in Cmp:
            assert is_trivial_bound(cmp, bound) == \
                reference_is_trivial_bound(cmp, bound), (cmp, bound)
            if bound < 0:
                continue  # the numeral grammar has no sign
            text = f"F{cmp}{bound.numerator}/{bound.denominator}[a]"
            if not reference_is_probability(bound):
                with pytest.raises(PctlSyntaxError, match=r"outside \[0,1\]"):
                    parse_formula(text)
            elif reference_is_trivial_bound(cmp, bound):
                with pytest.raises(NormalizationError):
                    parse_formula(text)
            else:
                parse_formula(text)


def test_negation_and_parser_tables_match_the_enum_mappings():
    for cmp in Cmp:
        assert cmp.negated() is REFERENCE_NEGATED[cmp]
    assert _PATH_OPS == {text: PathOp(text) for text in ("F", "G")}
    assert _CMPS == {text: Cmp(text) for text in (">=", ">", "<=", "<")}


def test_holds_matches_the_literal_comparisons():
    # every pair of the grid, equal values written apart (1/2 and 2/4)
    # included, against the comparison operators written out
    grid = _RULE_BOUNDS + (Fraction(2, 4), Fraction(1, 3))
    for value in grid:
        for bound in grid:
            assert [Cmp.GE.holds(value, bound), Cmp.GT.holds(value, bound),
                    Cmp.LE.holds(value, bound), Cmp.LT.holds(value, bound)] == \
                [value >= bound, value > bound, value <= bound, value < bound]


def test_le_lt_dualities():
    # P(F b) <= r  iff  P(G !b) >= 1-r;  P(G b) < r  iff  P(F !b) > 1-r
    assert parse_formula("F<=0.3[a]") == Prob(PathOp.G, Cmp.GE, Fraction(7, 10),
                                              NegAtom("a"))
    assert parse_formula("G<0.4[a]") == Prob(PathOp.F, Cmp.GT, Fraction(3, 5),
                                             NegAtom("a"))
    assert parse_formula("!F>=0.5[a]") == Prob(PathOp.G, Cmp.GT, Fraction(1, 2),
                                               NegAtom("a"))


@pytest.mark.parametrize("text", ["F>=0[a]", "G>1[a]", "F<=1[a]", "G<0[a]"])
def test_trivial_bounds_rejected(text):
    with pytest.raises(NormalizationError):
        parse_formula(text)


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        f = random_core_formula(rng)
        assert normalize(f) == f


SURFACE_CASES = [
    "F<=0.3[a]", "G<0.4[a]", "!(a | F>=0.5[b])", "F<1/3[a & b]",
    "G<=0.6[a | !b]", "!G>0.2[!a]", "!(F<=0.5[a] & b)", "G>=1[a] | F<0.9[b]",
]


def _assert_negation_complements(text, rng, chains):
    """`!(text)` holds exactly on the states where `text` fails."""
    f, negated = parse_formula(text), parse_formula(f"!({text})")
    for _ in range(chains):
        chain = random_chain(rng, max_states=5)
        mc = ModelChecker(chain)
        assert mc.sat_set(negated) == frozenset(chain.states) - mc.sat_set(f)


@pytest.mark.parametrize("text", SURFACE_CASES)
def test_normalize_preserves_semantics(text):
    _assert_negation_complements(text, random.Random(text), chains=25)


def test_negation_complements_random_surface_texts():
    rng = random.Random(53)
    checked = 0
    for _ in range(200):
        text = _surface_text(rng, 3)
        try:
            parse_formula(text)
        except NormalizationError:
            # a trivial bound stays trivial under negation
            with pytest.raises(NormalizationError):
                parse_formula(f"!({text})")
            continue
        _assert_negation_complements(text, rng, chains=2)
        checked += 1
    assert checked > 100


_ANY_BOUNDS = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4),
               Fraction(1))


def _random_tree(rng: random.Random, depth: int):
    """A random tree of the core node classes with every comparison and
    every bound, trivial ones included: what `normalize` rewrites."""
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice("ab")
        return Atom(name) if rng.random() < 0.6 else NegAtom(name)
    kind = rng.choice(("and", "or", "prob", "prob"))
    if kind != "prob":
        args = (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
        return And(args) if kind == "and" else Or(args)
    return Prob(rng.choice(list(PathOp)), rng.choice(list(Cmp)),
                rng.choice(_ANY_BOUNDS), _random_tree(rng, depth - 1))


def test_normalize_matches_direct_semantics():
    # `reference_sat_set` reads all four comparisons directly, with no
    # normalization; the printed tree parses to the same core node
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        tree = _random_tree(rng, 3)
        try:
            core = normalize(tree)
        except NormalizationError:
            with pytest.raises(NormalizationError):
                parse_formula(str(tree))
            continue
        assert is_core(core) and parse_formula(str(tree)) is core
        chain = random_chain(rng, max_states=5)
        assert ModelChecker(chain).sat_set(core) == reference_sat_set(chain, tree)
        checked += 1
    assert checked > 80


# mostly non-trivial bounds, so that most trees normalize
_TREE_BOUNDS = _ANY_BOUNDS + (Fraction(1, 3), Fraction(2, 3), Fraction(1, 4))


def _reshaped_tree(rng: random.Random, depth: int):
    """A random tree built through the constructors, with what `_norm`
    reshapes: one-argument, repeated-argument and nested same-kind
    connectives, every comparison and both path operators, trivial bounds
    included."""
    if depth <= 0 or rng.random() < 0.25:
        name = rng.choice("ab")
        return Atom(name) if rng.random() < 0.6 else NegAtom(name)
    kind = rng.choice(("and", "or", "prob", "prob"))
    if kind != "prob":
        args = [_reshaped_tree(rng, depth - 1)
                for _ in range(rng.choice((1, 2, 2, 3)))]
        if rng.random() < 0.2:
            args.append(rng.choice(args))
        return (And if kind == "and" else Or)(tuple(args))
    return Prob(rng.choice(list(PathOp)), rng.choice(list(Cmp)),
                rng.choice(_TREE_BOUNDS), _reshaped_tree(rng, depth - 1))


def _outcome(function, arg):
    """The node `function(arg)` returns, or the type and message of the
    exception it raises."""
    try:
        return function(arg)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _reference_f_normal_form(f):
    if not reference_is_core(f):
        raise ValueError("f_normal_form expects a core formula")
    return reference_norm(f, True, REFERENCE_GLOBALLY)


def _assert_same_outcome(got, want, tree):
    if isinstance(want, tuple):
        assert got == want, tree
    else:
        assert got is want, tree


def test_normal_forms_match_the_reference_pass():
    # both normal forms and the parser against the pass without operator
    # masks, on trees with everything the masks must notice.  The parser
    # rejects the first trivial bound it reads, as written, where the pass
    # rejects the first one it produces, so only the error types compare.
    rng = random.Random(59)
    nodes = raised = kept = 0
    for _ in range(1000):
        tree = _reshaped_tree(rng, rng.choice((2, 3, 4)))
        want = _outcome(reference_norm, tree)
        _assert_same_outcome(_outcome(normalize, tree), want, tree)
        parsed = _outcome(parse_formula, str(tree))
        if isinstance(want, tuple):
            assert isinstance(parsed, tuple) and parsed[0] is want[0], tree
        else:
            assert parsed is want, tree
        f_want = _outcome(_reference_f_normal_form, tree)
        _assert_same_outcome(_outcome(f_normal_form, tree), f_want, tree)
        nodes += not isinstance(want, tuple)
        raised += isinstance(want, tuple)
        kept += want is tree
    assert nodes > 300 and raised > 100 and kept > 50


def test_unchanged_formulas_are_kept_without_building_a_node(monkeypatch):
    # a flat core formula is its own core form, and a G-free one its own
    # F-normal form too: both are returned from the operator mask, with no
    # node built or looked up
    calls = []
    intern = formula._intern

    def counting(*args):
        calls.append(args[0])
        return intern(*args)

    rng = random.Random(61)
    kept = 0
    for _ in range(300):
        f = random_core_formula(rng, depth=4)
        g_free = all(not isinstance(g, Prob) or g.op is PathOp.F
                     for g in subformulas(f))
        monkeypatch.setattr(formula, "_intern", counting)
        assert normalize(f) is f and calls == [], f
        if g_free:
            assert f_normal_form(f) is f and calls == [], f
            kept += 1
        else:
            assert f_normal_form(f) is not f and calls, f
        monkeypatch.setattr(formula, "_intern", intern)
        calls.clear()
    assert kept > 50


def test_normalization_error_shows_the_subformula_as_written():
    with pytest.raises(NormalizationError, match=re.escape("in F>=0[b];")):
        parse_formula("a & !F>=0[b]")
    with pytest.raises(NormalizationError, match=re.escape("in F<=1[a & !b];")):
        parse_formula("G>1/2[F<=1[a & !b]]")
    # the parser names the first trivial bound it reads, as written, in its
    # body read positively; `normalize` names the first one it produces.
    # Here the inner G>=0 is read under a dualized F<=0, so the pass
    # produces it as F>1.
    text = "F<=0[G>=0[b & !b & !a]]"
    with pytest.raises(NormalizationError) as parsed:
        parse_formula(text)
    assert str(parsed.value) == (
        "normalizing produced the trivial constraint 'G>=0' in "
        "G>=0[b & !b & !a]; such bounds are forbidden")
    inner = Prob(PathOp.G, Cmp.GE, Fraction(0), parse_formula("b & !b & !a"))
    with pytest.raises(NormalizationError) as normalized:
        normalize(Prob(PathOp.F, Cmp.LE, Fraction(0), inner))
    assert str(normalized.value) == (
        "normalizing produced the trivial constraint 'F>1' in "
        "G>=0[b & !b & !a]; such bounds are forbidden")


def test_subformula_closure():
    rng = random.Random(3)
    for _ in range(100):
        f = random_core_formula(rng)
        sub = subformulas(f)
        again = frozenset().union(*(subformulas(g) for g in sub))
        assert again == sub


def test_formula_sets_on_running_example(fig1_checker, psi):
    # on the running example's closed and updated set, sub(X) holds X and
    # 10 formulas in all, 5 of them not probabilistic; psub(X) has the 5 path
    # formulas of the other 5, and the members' own are two of them
    from pctlfg.closure import closure_update
    from pctlfg.measure import member_paths, path_subformulas

    X = closure_update(fig1_checker, "s", {psi})
    sub = subformulas_of(X)
    assert X <= sub and len(sub) == 10
    assert sum(not isinstance(g, Prob) for g in sub) == 5
    psub = path_subformulas(X)
    assert len(psub) == 5
    phi_or = parse_formula("F>=0.5[a & F>=0.2[!a]] | a")
    assert frozenset(member_paths(X)) == frozenset({
        PathFormula(PathOp.G, phi_or),
        PathFormula(PathOp.F, parse_formula("G=1[a]")),
    })
    assert PathFormula(PathOp.G, Atom("a")) in psub
    assert PathFormula(PathOp.F, NegAtom("a")) in psub


def test_formula_sets_trivial():
    # sub({a}) is {a}, with no path formulas; sub of the empty set is empty
    from pctlfg.measure import member_paths, path_subformulas

    assert subformulas_of({Atom("a")}) == frozenset({Atom("a")})
    assert path_subformulas({Atom("a")}) == frozenset()
    assert member_paths({Atom("a")}) == ()
    assert subformulas_of(frozenset()) == frozenset()


def test_fragment_running_example(psi):
    flags = fragment_classify(psi)
    assert flags.in_l2 and flags.in_l3
    assert not flags.in_l1


def test_fragment_l1_example():
    assert fragment_classify(parse_formula("F>=0.5[G>=0.5[a]]")).in_l1


@pytest.mark.parametrize("text, families", [
    ("F>=1/2[G>=1/2[a]]", {"l1"}),
    ("G=1[G=1[a]]", {"l1", "l3", "l4"}),
    # rho3: the inner G=1 has a psi3 body
    ("G=1[G=1[F>=1/2[a]]]", {"l3"}),
    # psi4: F>0 is the only F a psi4 body may take
    ("G=1[F>0[G=1[a]]]", {"l4"}),
    # the '>= r' variant of G=1[F>=1/2[a]], in L2 and L3
    ("G>=1/2[F>=1/2[a]]", {"l2", "l3"}),
    # '>' is not a '>= r' variant
    ("G>1/2[F>=1/2[a]]", set()),
])
def test_fragment_grammar_examples(text, families):
    flags = fragment_classify(parse_formula(text))
    assert {name for name in ("l1", "l2", "l3", "l4")
            if getattr(flags, "in_" + name)} == families


# sha256 prefix of (formula, L1-L4 flags) over every subformula of a seeded
# sample, pinned while the grammars were still an if-chain over kinds
def test_fragment_classification_pinned():
    rng = random.Random(59)
    h = hashlib.sha256()
    for depth in (1, 2, 3, 4):
        for _ in range(500):
            f = random_core_formula(rng, depth, ("a", "b", "c"))
            for g in sorted_formulas(subformulas(f)):
                m = fragment_classify(g)
                flags = "".join("1" if x else "0"
                                for x in (m.in_l1, m.in_l2, m.in_l3, m.in_l4))
                h.update(f"{g}\t{flags}\n".encode())
    assert h.hexdigest()[:16] == "768d8c9c675844ba"


def test_fragment_classify_is_cached_and_rejects_non_core_every_time(psi):
    assert fragment_classify(psi) is fragment_classify(psi)
    non_core = Prob(PathOp.F, Cmp.LT, Fraction(1, 2), Atom("a"))
    for _ in range(2):
        with pytest.raises(ValueError, match="expects a core formula"):
            fragment_classify(non_core)


def _classification_sample(rng, aps):
    """Seeded formulas, each with its subformulas, then the '>= r' and
    achieved-bound variants of its probabilistic subformulas and G>=r over
    each subformula: variants are new nodes over bodies already seen."""
    for _ in range(150):
        f = random_core_formula(rng, rng.choice((2, 3, 4)), aps)
        # children before parents
        subs = sorted(subformulas(f), key=lambda g: len(subformulas(g)))
        variants = []
        for g in subs:
            bound = Fraction(rng.randint(1, 6), 7)
            variants.append(Prob(PathOp.G, Cmp.GE, bound, g))
            if isinstance(g, Prob):
                variants += [Prob(g.op, Cmp.GE, bound, g.body),
                             Prob(g.op, Cmp.GE, Fraction(1), g.body),
                             Prob(g.op, Cmp.GT, Fraction(0), g.body)]
        yield f, subs, variants


@pytest.mark.parametrize("order", ["root first", "subformulas first"])
def test_cached_kinds_match_the_per_call_classifier(order):
    # atoms no other test uses, so every node is classified here first
    aps = ("k", "m", "n") if order == "root first" else ("p", "q", "r")
    rng = random.Random(71)
    compared = 0
    for f, subs, variants in _classification_sample(rng, aps):
        formulas = ([f] + subs if order == "root first" else subs) + variants
        for g in formulas:
            assert fragment_classify(g) == reference_fragment_classify(g), g
            compared += 1
    assert compared > 1000
    # a Prob node's kinds come from one table keyed by its operator, its
    # bound's class ('=1', '>0' or neither) and its body's kinds
    assert len(formula._PROB_KINDS) <= 2 * 3 * len(formula._KIND_SETS)


def test_nodes_with_equal_kinds_share_one_kind_set():
    # the kinds are cached on every classified node, so equal answers are
    # one object, not one frozenset per node
    rng = random.Random(73)
    by_value = {}
    for f, subs, variants in _classification_sample(rng, ("a", "b")):
        for g in subs + variants:
            fragment_classify(g)
            assert by_value.setdefault(g._kinds, g._kinds) is g._kinds
    assert 1 < len(by_value) <= 2 ** 9


def test_non_core_nodes_raise_after_their_core_parts_are_classified():
    body = parse_formula("F>=1/2[a] & G=1[b]")
    assert fragment_classify(body).in_l2
    for non_core in (Prob(PathOp.F, Cmp.LT, Fraction(1, 2), body),
                     Prob(PathOp.G, Cmp.LE, Fraction(1, 2), body),
                     And((body, Prob(PathOp.F, Cmp.LE, Fraction(1, 3), body)))):
        for _ in range(2):
            with pytest.raises(ValueError, match="expects a core formula"):
                fragment_classify(non_core)


def test_cached_core_flag_matches_the_recursive_check():
    # the sample's core nodes, plus '<'/'<=' nodes over them and core
    # operators over those
    rng = random.Random(83)
    compared = non_core = 0
    for f, subs, variants in _classification_sample(rng, ("s", "t")):
        upper = []
        for g in subs:
            below = Prob(rng.choice((PathOp.F, PathOp.G)),
                         rng.choice((Cmp.LE, Cmp.LT)),
                         Fraction(rng.randint(1, 6), 7), g)
            upper += [below, Prob(PathOp.F, Cmp.GE, Fraction(1, 2), below),
                      And((g, below)), Or((below, g))]
        for g in [f] + subs + variants + upper:
            assert is_core(g) == reference_is_core(g), g
            compared += 1
            non_core += not reference_is_core(g)
    assert non_core > 1000 and compared - non_core > 1000


def test_fragment_bound_variants_stay_inside():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        f = random_core_formula(rng, depth=3)
        flags = fragment_classify(f)
        for g in subformulas(f):
            sub_flags = fragment_classify(g)
            for name in ("l1", "l2", "l3", "l4"):
                if getattr(flags, "in_" + name):
                    assert getattr(sub_flags, "in_" + name)
            if isinstance(g, Prob):
                for bound in (Fraction(1, 3), Fraction(1)):
                    variant = Prob(g.op, Cmp.GE, bound, g.body)
                    variant_flags = fragment_classify(variant)
                    for name in ("l1", "l2", "l3", "l4"):
                        if getattr(sub_flags, "in_" + name):
                            assert getattr(variant_flags, "in_" + name)
                            checked += 1
    assert checked > 50


def test_round_trip_printing():
    rng = random.Random(23)
    for _ in range(300):
        f = random_core_formula(rng, depth=4)
        assert parse_formula(str(f)) == f


def _surface_text(rng: random.Random, depth: int) -> str:
    """A random surface formula: negation on any subformula, every
    comparison, bounds 0 and 1 included."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice("ab")
    kind = rng.choice(("not", "and", "or", "prob", "prob"))
    if kind == "not":
        return f"!({_surface_text(rng, depth - 1)})"
    if kind in ("and", "or"):
        sym = "&" if kind == "and" else "|"
        return (f"({_surface_text(rng, depth - 1)} {sym} "
                f"{_surface_text(rng, depth - 1)})")
    cmp = rng.choice((">=", ">", "<=", "<", "="))
    bound = "1" if cmp == "=" else rng.choice(("0", "1/5", "1/4", "0.5", "3/4", "1"))
    return f"{rng.choice('FG')}{cmp}{bound}[{_surface_text(rng, depth - 1)}]"


# sha256 prefixes of the outputs of `normalize`, `f_normal_form` and
# `parse_formula`, pinned while the F-normal form still had its own pass
def test_normal_forms_of_core_formulas_pinned():
    rng = random.Random(41)
    h = hashlib.sha256()
    for _ in range(2000):
        f = random_core_formula(rng, depth=4)
        h.update(f"{f}\t{normalize(f)}\t{f_normal_form(f)}\n".encode())
    assert h.hexdigest()[:16] == "1e7aa7a7be17ee78"


def test_parsed_surface_formulas_pinned():
    rng = random.Random(43)
    h = hashlib.sha256()
    rejected = 0
    for _ in range(2000):
        text = _surface_text(rng, 4)
        try:
            out = str(parse_formula(text))
        except NormalizationError:
            out = "trivial bound"
            rejected += 1
        h.update(f"{text}\t{out}\n".encode())
    assert (rejected, h.hexdigest()[:16]) == (305, "51ce549f9caa942e")


def _mutations(rng: random.Random, text: str, count: int):
    """`count` one-character edits of `text`: a deletion, an insertion or a
    replacement, with characters of the surface syntax and a few others."""
    alphabet = "ab_!&|()[]FG<>=01/.9 \n?"
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert" or i == len(text):
            yield text[:i] + rng.choice(alphabet) + text[i:]
        elif edit == "delete":
            yield text[:i] + text[i + 1:]
        else:
            yield text[:i] + rng.choice(alphabet) + text[i + 1:]


def _parse_outcome(parse, text):
    """The node `parse(text)` returns, or the type, message and position of
    the error it raises."""
    try:
        return parse(text)
    except PctlSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column
    except ValueError as exc:
        return type(exc), str(exc)


def test_parser_matches_the_two_stage_reference():
    # each unit read at its polarity gives the node that reading it
    # positively and rewriting it gives, and every error is the same
    rng = random.Random(47)
    outcomes = {}
    for k in range(2000):
        text = _surface_text(rng, 1 + k % 4)
        for t in [text, *_mutations(rng, text, 2)]:
            want = _parse_outcome(reference_parse, t)
            got = _parse_outcome(parse_formula, t)
            if isinstance(want, tuple):
                assert got == want, t
            else:
                assert got is want, t
            kind = want[0] if isinstance(want, tuple) else StateFormula
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes[StateFormula] > 2000 and outcomes[PctlSyntaxError] > 2000
    assert outcomes[NormalizationError] > 300


def _built_while_parsing(monkeypatch, text):
    """The result of `parse_formula(text)` and every node `_intern`
    returned meanwhile."""
    built = []
    intern = formula._intern

    def recording(*args):
        node = intern(*args)
        built.append(node)
        return node

    monkeypatch.setattr(formula, "_intern", recording)
    f = parse_formula(text)
    monkeypatch.setattr(formula, "_intern", intern)
    return f, built


def test_parsing_builds_only_nodes_of_the_result(monkeypatch):
    # '!', '<=' and '<' are read at their polarity, and an operand of the
    # same connective is spliced into its argument list, so no node is
    # built and then rewritten or flattened away
    for text, want in (("!(a & F<=1/2[b])", "!a | F>1/2[b]"),
                       ("G=1[!((a & !b))]", "G=1[!a | b]"),
                       ("((a & !(b | c)) & (d | !(e & a)))",
                        "a & !b & !c & (d | !e | !a)"),
                       ("!(G<1/4[!(a | b)] | !(c & F>=1/2[a]))",
                        "G>=1/4[!a & !b] & c & F>=1/2[a]")):
        f, built = _built_while_parsing(monkeypatch, text)
        assert str(f) == want
        assert set(built) <= subformulas(f), text
    rng = random.Random(53)
    checked = 0
    for _ in range(500):
        text = _surface_text(rng, 4)
        try:
            f, built = _built_while_parsing(monkeypatch, text)
        except NormalizationError:
            continue
        assert set(built) <= subformulas(f), text
        checked += 1
    assert checked > 300


def test_sorted_formulas_deterministic():
    fs = [parse_formula(t) for t in ("b", "a", "!a", "a & b", "F>=1/2[a]")]
    assert [str(f) for f in sorted_formulas(fs)] == \
        ["a", "b", "!a", "a & b", "F>=1/2[a]"]


# -- interning ---------------------------------------------------------------

def test_equal_text_parses_to_one_node():
    first = parse_formula(PSI_TEXT)
    assert parse_formula(PSI_TEXT) is first
    assert parse_formula(str(first)) is first


def test_bound_is_interned_as_fraction():
    node = Prob(PathOp.F, Cmp.GE, 1, Atom("a"))
    assert node is Prob(PathOp.F, Cmp.GE, Fraction(1), Atom("a"))
    assert type(node.bound) is Fraction
    assert Prob(PathOp.G, Cmp.GT, Fraction(1, 2), Atom("a")).path_formula \
        is PathFormula(PathOp.G, Atom("a"))


def test_equal_bounds_in_any_form_are_one_node():
    # the intern key holds the bound's lowest-terms integer pair
    node = Prob(PathOp.F, Cmp.GE, 1, Atom("a"))
    assert Prob(PathOp.F, Cmp.GE, Fraction(2, 2), Atom("a")) is node
    assert parse_formula("F>=1/1[a]") is node


def test_operators_hash_by_identity():
    assert PathOp.__hash__ is object.__hash__
    assert Cmp.__hash__ is object.__hash__


def test_nodes_differing_in_one_field_are_distinct():
    base = Prob(PathOp.F, Cmp.GE, Fraction(1, 2), Atom("a"))
    variants = [
        Prob(PathOp.G, Cmp.GE, Fraction(1, 2), Atom("a")),
        Prob(PathOp.F, Cmp.GT, Fraction(1, 2), Atom("a")),
        Prob(PathOp.F, Cmp.GE, Fraction(1, 3), Atom("a")),
        Prob(PathOp.F, Cmp.GE, Fraction(1, 2), NegAtom("a")),
    ]
    for other in variants:
        assert other is not base and other != base
    assert len({base, *variants}) == 5
    assert And((Atom("a"), Atom("b"))) is not Or((Atom("a"), Atom("b")))
    assert Atom("a") is not NegAtom("a")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_are_the_interned_node(clone):
    for g in subformulas(parse_formula(PSI_TEXT)):
        assert clone(g) is g
        if isinstance(g, Prob):
            assert clone(g.path_formula) is g.path_formula


def test_threads_building_one_formula_get_one_node():
    # every round builds a formula no one holds yet, from all threads at
    # once; a lost race in the intern table would leave two live nodes
    threads, rounds = 8, 100
    barrier = threading.Barrier(threads, timeout=30)
    built = [[] for _ in range(threads)]

    def work(k):
        for r in range(rounds):
            barrier.wait()
            built[k].append(Prob(PathOp.F, Cmp.GE, Fraction(1, r + 2),
                                 Atom(f"x{r}")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(len(nodes) == rounds for nodes in built)
    for r in range(rounds):
        assert len({id(nodes[r]) for nodes in built}) == 1, r


def test_a_formula_nobody_holds_leaves_the_table():
    # a seed-1 `sat` pass and a `compress` prefix, as the benchmark runs
    # them; once their results are dropped, their nodes die and each death
    # removes its own table entry
    workloads = bench_workloads()
    results = [workloads.run_sat(inst) for inst in workloads.generate("sat", 1)]
    results += [workloads.run_compress(inst) for inst in
                itertools.islice(workloads.generate_compress(1), 20)]
    dropped = weakref.ref(results[0][1])
    del results
    gc.collect()
    assert dropped() is None
    assert [key for key, ref in list(formula._NODES.items())
            if ref() is None] == []


def test_a_dropped_formula_is_freed_without_a_collection():
    # no cache on a node holds the node itself, so reference counting frees
    # a formula whose derived data was read as soon as its last reference
    # goes, with the cyclic collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = parse_formula("F>=1/3[unheld_a & G>0[unheld_b | !unheld_c]]")
        assert f in subformulas(f) and f in subformulas_of({f})
        sort_key(f), is_core(f), fragment_classify(f), f.path_formula
        refs = [weakref.ref(g) for g in subformulas(f)]
        assert len(refs) == 7
        del f
        assert [ref() for ref in refs] == [None] * 7
    finally:
        if enabled:
            gc.enable()


def _build_amid_collections(threads: int, rounds: int = 150) -> list[list]:
    """Each of `threads` threads builds, per round, formulas it drops and one
    it keeps, each build leaving a garbage cycle that holds the node, so
    only a collection frees a dropped one.  With
    `gc.set_threshold(1)` collections run inside construction, and as the
    dropped structure is the same in every thread, its nodes die while
    other threads build it again.  Returns each thread's kept nodes, or
    fails when a thread does not finish in time."""
    barrier = threading.Barrier(threads, timeout=30)
    kept = [[] for _ in range(threads)]

    def build(name, r):
        node = Prob(PathOp.F, Cmp.GE, Fraction(1, r + 2),
                    disj([Atom(name), NegAtom("b")]))
        cycle = [node]
        cycle.append(cycle)
        return node

    def work(k):
        for r in range(rounds):
            barrier.wait()
            for _ in range(3):
                dropped = build(f"d{r}", r)
                assert build(f"d{r}", r) is dropped
                del dropped
            node = build(f"k{r}", r)
            assert build(f"k{r}", r) is node
            kept[k].append(node)

    threshold = gc.get_threshold()
    interval = sys.getswitchinterval()
    gc.set_threshold(1)
    sys.setswitchinterval(1e-6)
    try:
        # daemon threads, so a deadlocked one fails the test and not the run
        workers = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(threads)]
        for w in workers:
            w.start()
        deadline = time.monotonic() + 60
        for w in workers:
            w.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*threshold)
    assert not any(w.is_alive() for w in workers)
    assert all(len(nodes) == rounds for nodes in kept)
    return kept


def _intern_key(node: Prob) -> tuple:
    return (Prob, node.op, node.cmp, node.bound.as_integer_ratio(), node.body)


def test_removal_runs_inside_an_insert():
    # a collection inside an insert runs death callbacks in the middle of
    # it; they must neither hang nor leave a dead key behind, and a node
    # built again keeps its entry.  Each new node's mask is computed inside
    # its insert, so collecting there puts every collection inside one.  In
    # its own interpreter, so that a hang fails this test alone.
    code = """if True:
        import gc
        from fractions import Fraction
        from pctlfg import formula
        from pctlfg.formula import Atom, Cmp, PathOp, Prob
        forget, mask = formula._forget, formula._operator_mask
        inserting, inside = [], []

        def watched(ref):
            inside.append(bool(inserting))
            forget(ref)

        def collecting(cls, values):
            inserting.append(cls)
            gc.collect()
            inserting.pop()
            return mask(cls, values)

        def build(name):
            node = Prob(PathOp.G, Cmp.GT, Fraction(1, 7), Atom(name))
            cycle = [node]  # a garbage cycle, so only a collection frees it
            cycle.append(cycle)
            return node

        def key(node):
            return (Prob, node.op, node.cmp, node.bound.as_integer_ratio(),
                    node.body)

        formula._forget, formula._operator_mask = watched, collecting
        dropped = [key(build(f"d{r}")) for r in range(100)]
        node = build("d0")
        gc.collect()
        print(len(inside) >= 99 and all(inside),
              [k for k, ref in list(formula._NODES.items()) if ref() is None],
              sum(k in formula._NODES for k in dropped),
              formula._NODES[key(node)]() is node)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "True [] 1 True\n", "")


def test_removal_keeps_a_node_built_again():
    # a node built under a dead node's key before that node's callback runs
    # (here by a weak-reference callback that runs first) keeps its entry
    rebuilt = []

    def build():
        return Prob(PathOp.F, Cmp.GT, Fraction(1, 7), Atom("again"))

    node = build()
    first = weakref.ref(node, lambda _: rebuilt.append(build()))
    del node
    assert first() is None and len(rebuilt) == 1
    assert formula._NODES[_intern_key(rebuilt[0])]() is rebuilt[0]
    assert build() is rebuilt[0]


def _one_node_per_structure(threads: int, rounds: int = 150) -> int:
    """Runs `_build_amid_collections` and checks that every structure is
    one live node with its own table entry; returns the rounds checked."""
    kept = _build_amid_collections(threads, rounds)
    for r, nodes in enumerate(zip(*kept)):
        assert len({id(node) for node in nodes}) == 1, r
    gc.collect()
    for nodes in kept:
        for node in nodes:
            assert formula._NODES[_intern_key(node)]() is node
    return len(kept[0])


@pytest.mark.parametrize("threads", [1, 8])
def test_construction_amid_collections_gives_one_node(threads):
    assert _one_node_per_structure(threads) == 150


@pytest.mark.parametrize("hash_seed", ["0", "1", "7"])
def test_construction_amid_collections_under_hash_seeds(hash_seed):
    """The intern table's insert takes no lock (one `setdefault`, atomic
    because the key hashes and compares in C), and collections run death
    callbacks inside inserts.  Eight threads build the same formulas for
    600 rounds amid collections, in a fresh interpreter under each of three
    hash seeds: every structure must stay one live node with its own table
    entry."""
    code = ("from test_formula import _one_node_per_structure\n"
            "print(_one_node_per_structure(8, 600))")
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": path,
                          "PYTHONHASHSEED": hash_seed})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "600\n", "")
