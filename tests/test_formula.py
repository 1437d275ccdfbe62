import copy
import hashlib
import pickle
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest

from helpers import (
    PSI_TEXT, random_chain, random_core_formula, reference_fragment_classify,
    reference_sat_set,
)

from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, Or, PathFormula, PathOp, PctlSyntaxError, Prob,
    NormalizationError, f_normal_form, formula_sets, fragment_classify,
    is_core, normalize, parse_formula, sorted_formulas, subformulas,
)
from pctlfg.modelcheck import ModelChecker


def test_parse_running_example():
    f = parse_formula("F>=0.5[a & F>=0.2[!a]]")
    assert f == Prob(PathOp.F, Cmp.GE, Fraction(1, 2),
                     And((Atom("a"),
                          Prob(PathOp.F, Cmp.GE, Fraction(1, 5), NegAtom("a")))))


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


def test_normalization_error_shows_the_subformula_as_written():
    with pytest.raises(NormalizationError, match=re.escape("in F>=0[b];")):
        parse_formula("a & !F>=0[b]")
    with pytest.raises(NormalizationError, match=re.escape("in F<=1[a & !b];")):
        parse_formula("G>1/2[F<=1[a & !b]]")


def test_subformula_closure():
    rng = random.Random(3)
    for _ in range(100):
        f = random_core_formula(rng)
        sub = subformulas(f)
        again = frozenset().union(*(subformulas(g) for g in sub))
        assert again == sub


def test_formula_sets_on_running_example(fig1_checker, psi):
    from pctlfg.closure import closure_update

    X = closure_update(fig1_checker, "s", {psi})
    sets = formula_sets(X)
    assert len(sets.sub) == 10
    assert len(sets.nsub) == 5
    assert len(sets.psub) == 5
    # the member-level path formulas are the two obligations of X itself
    phi_or = parse_formula("F>=0.5[a & F>=0.2[!a]] | a")
    assert sets.p == frozenset({
        PathFormula(PathOp.G, phi_or),
        PathFormula(PathOp.F, parse_formula("G=1[a]")),
    })
    # all five sub-level path formulas, including the nested ones
    assert PathFormula(PathOp.G, Atom("a")) in sets.psub
    assert PathFormula(PathOp.F, NegAtom("a")) in sets.psub


def test_formula_sets_trivial():
    sets = formula_sets({Atom("a")})
    assert sets.sub == frozenset({Atom("a")})
    assert sets.psub == frozenset()
    assert sets.nsub == frozenset({Atom("a")})
    assert sets.p == frozenset()


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
