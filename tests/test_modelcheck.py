import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    PSI_TEXT, fig1_chain, random_chain, random_core_formula, reach_by_name,
    reference_reach, reference_sat_set, simulate_eventually,
)

from pctlfg import linalg
from pctlfg.etr import f_normal_form
from pctlfg.formula import (
    Atom, Cmp, NegAtom, PathFormula, PathOp, Prob, conj, disj,
    iter_subformulas, parse_formula,
)
from pctlfg.markov import MarkovChain, indices, scc_decompose
from pctlfg.modelcheck import ModelChecker


def test_prob_f_not_a(fig1_checker):
    path = PathFormula(PathOp.F, NegAtom("a"))
    assert fig1_checker.probability("t", path) == Fraction(3, 5)
    # the reachability of the body's satisfaction set gives the same value
    mc = fig1_checker
    assert reach_by_name(mc, {"s"})["t"] == Fraction(3, 5)


def test_prob_reach_globally_a(fig1, fig1_checker):
    g1a = parse_formula("G=1[a]")
    assert fig1_checker.sat_set(g1a) == frozenset({"u"})
    path = PathFormula(PathOp.F, g1a)
    assert fig1_checker.probability("s", path) == 1


def test_prob_g_everything(fig1_checker):
    path = PathFormula(PathOp.G, parse_formula("a | !a"))
    assert fig1_checker.probability("s", path) == 1


def test_sat_set_atoms(fig1_checker):
    assert fig1_checker.sat_set(Atom("a")) == frozenset({"t", "u"})


def test_sat_set_psi(fig1_checker, psi):
    assert fig1_checker.sat_set(psi) == frozenset({"s"})


def test_check(fig1_checker, psi):
    from pctlfg.closure import closure_update

    X = closure_update(fig1_checker, "s", {psi})
    assert fig1_checker.check("s", X)
    assert fig1_checker.check("s", set())
    assert not fig1_checker.check("u", {NegAtom("a")})


def test_g_is_complement_of_reaching_complement():
    rng = random.Random(41)
    for _ in range(60):
        chain = random_chain(rng, max_states=5)
        mc = ModelChecker(chain)
        body = random_core_formula(rng, depth=2)
        g_vec = mc.path_probabilities(PathFormula(PathOp.G, body))
        outside = frozenset(chain.states) - mc.sat_set(body)
        reach = reach_by_name(mc, outside)
        for s in chain.states:
            assert g_vec[s] == 1 - reach[s]


def test_reach_between_the_masks_equals_the_reference():
    # one solve between a 0 mask and a 1 mask: between prob01 of the body
    # set and between an F formula's `path_masks` it is the reach of the
    # body set, between a G formula's exactly 1 - the reach of the body's
    # complement
    rng = random.Random(151)
    between = 0
    for _ in range(500):
        chain = random_chain(rng, max_states=10)
        mc = ModelChecker(chain)
        body = random_core_formula(rng, depth=1)
        inside = mc.sat_set(body)
        reach = reference_reach(chain.states, chain.successors, inside)
        escape = reference_reach(chain.states, chain.successors,
                                 frozenset(chain.states) - inside)
        for masks, want in (
                (mc.prob01(chain.mask(inside)), reach),
                (mc.path_masks(PathFormula(PathOp.F, body)), reach),
                (mc.path_masks(PathFormula(PathOp.G, body)),
                 {s: 1 - p for s, p in escape.items()})):
            zero, one, maybe = mc.reach_probabilities(*masks)
            assert (zero, one) == masks
            assert set(maybe) == set(indices(mc.full & ~(zero | one)))
            got = {s: maybe[i] if i in maybe else Fraction(one >> i & 1)
                   for i, s in enumerate(chain.states)}
            assert got == want, (chain.to_json(), body)
            between += len(maybe)
    assert between > 100


def test_bscc_states_agree_and_are_zero_one():
    rng = random.Random(43)
    for _ in range(60):
        chain = random_chain(rng, max_states=6)
        mc = ModelChecker(chain)
        decomposition = scc_decompose(chain)
        body = random_core_formula(rng, depth=2)
        for op in (PathOp.F, PathOp.G):
            vec = mc.path_probabilities(PathFormula(op, body))
            for comp in decomposition.components:
                if not comp & decomposition.bottom:
                    continue
                values = {vec[chain.states[i]] for i in indices(comp)}
                assert len(values) == 1
                assert values <= {Fraction(0), Fraction(1)}


def test_monte_carlo_cross_check():
    rng = random.Random(47)
    runs = 4000
    for _ in range(8):
        chain = random_chain(rng, max_states=5)
        mc = ModelChecker(chain)
        body = random_core_formula(rng, depth=2)
        targets = mc.sat_set(body)
        exact = mc.path_probabilities(PathFormula(PathOp.F, body))
        start = chain.states[rng.randrange(len(chain.states))]
        estimate = simulate_eventually(chain, start, targets, rng, runs)
        p = float(exact[start])
        sigma = (p * (1 - p) / runs) ** 0.5
        assert abs(estimate - p) <= max(3 * sigma, 1e-9)


def test_memoization_is_per_checker(fig1):
    mc = ModelChecker(fig1)
    f = parse_formula(PSI_TEXT)
    first = mc.sat_set(f)
    assert mc._sat[f] == fig1.mask(first)  # memoized as a mask
    other = ModelChecker(fig1)
    assert f not in other._sat
    assert other.sat_set(f) == first


def test_extended_comparisons():
    chain = fig1_chain()
    mc = ModelChecker(chain)
    le_half = Prob(PathOp.F, Cmp.LE, Fraction(3, 5), NegAtom("a"))
    assert mc.sat_set(le_half) == frozenset({"t", "u"})
    lt_half = Prob(PathOp.F, Cmp.LT, Fraction(3, 5), NegAtom("a"))
    assert mc.sat_set(lt_half) == frozenset({"u"})


def test_sat_set_equals_reference():
    # the mask recursion against name sets and reference_reach; the F-normal
    # forms bring in the <= and < comparisons
    rng = random.Random(59)
    upper = strict = 0
    for _ in range(150):
        chain = random_chain(rng, max_states=6)
        mc = ModelChecker(chain)
        f = random_core_formula(rng, depth=3)
        for g in (f, f_normal_form(f)):
            assert mc.sat_set(g) == reference_sat_set(chain, g), (chain.to_dict(), g)
            cmps = [h.cmp for h in iter_subformulas(g) if isinstance(h, Prob)]
            upper += cmps.count(Cmp.LE)
            strict += cmps.count(Cmp.LT)
    assert upper > 20 and strict > 20


def _strongly_connected_chain(rng, n):
    """A random chain whose states form one cycle plus random extra edges,
    so that every reach and path probability on it is 0 or 1."""
    states = [f"s{i}" for i in range(n)]
    edges = {}
    for i, s in enumerate(states):
        extra = rng.sample(states, rng.randint(0, min(2, n)))
        succ = {states[(i + 1) % n], *extra}
        weights = {t: rng.randint(1, 3) for t in sorted(succ)}
        total = sum(weights.values())
        edges.update(((s, t), Fraction(w, total)) for t, w in weights.items())
    valuation = {s: ["a"] for s in states if rng.random() < 0.5}
    return MarkovChain(states, edges, valuation)


def test_prob_sat_mask_equals_per_state_comparison():
    # the Prob branch reads the prob0 and prob1 masks whole, decides the
    # states in between alike at a bound of 0 or 1, and compares their
    # values only at a bound strictly between; the reference compares every
    # state's value, at bounds 0 and 1, at 1/2 and at a value that occurs
    rng = random.Random(61)
    qualitative = quantitative = 0
    for k in range(120):
        if k % 4:
            chain = random_chain(rng, max_states=9)
        else:
            chain = _strongly_connected_chain(rng, rng.randint(1, 6))
        mc = ModelChecker(chain)
        for body, op in itertools.product((Atom("a"), NegAtom("a"), Atom("b")),
                                          (PathOp.F, PathOp.G)):
            _, _, maybe = mc.path_values(PathFormula(op, body))
            if k % 4 == 0:
                assert not maybe
            qualitative += not maybe
            quantitative += bool(maybe)
            bounds = [Fraction(0), Fraction(1), Fraction(1, 2), *maybe.values()]
            for bound in bounds[:4]:
                for cmp in Cmp:
                    f = Prob(op, cmp, bound, body)
                    assert mc.sat_set(f) == reference_sat_set(chain, f), (
                        chain.to_dict(), f)
    assert qualitative > 400 and quantitative > 20


def _state_queries(rng, chain):
    """Nested core formulas and their F-normal forms, and one operator at
    bounds 0, 1, 1/2 and the values that occur, alone and under `&`/`|`."""
    f = random_core_formula(rng, depth=3)
    yield f
    yield f_normal_form(f)
    op = rng.choice((PathOp.F, PathOp.G))
    body = random_core_formula(rng, depth=2)
    values = ModelChecker(chain).path_probabilities(PathFormula(op, body))
    bounds = {Fraction(0), Fraction(1), Fraction(1, 2), *values.values()}
    for bound in sorted(bounds):
        g = Prob(op, rng.choice(list(Cmp)), bound, body)
        yield g
        yield disj([g, f])
        yield conj([f, g])


def test_holds_at_a_state_equals_reference():
    # `holds` decides at the queried state (short-circuited connectives,
    # prob0/prob1 read before any solve); whatever it skips, its answer is
    # the reference's, on a fresh checker, after `sat_set`, and before it
    rng = random.Random(67)
    queries = 0
    for _ in range(80):
        chain = random_chain(rng, max_states=6)
        for g in _state_queries(rng, chain):
            queries += 1
            expected = reference_sat_set(chain, g)
            for s in chain.states:
                assert ModelChecker(chain).holds(s, g) == (s in expected), (
                    chain.to_dict(), g, s)
            after = ModelChecker(chain)
            assert after.sat_set(g) == expected
            assert all(after.holds(s, g) == (s in expected) for s in chain.states)
            before = ModelChecker(chain)
            answers = {s for s in chain.states if before.holds(s, g)}
            assert answers == expected and before.sat_set(g) == expected
            paths = {h.path_formula for h in iter_subformulas(g)
                     if isinstance(h, Prob)}
            for path in paths:
                values = ModelChecker(chain).path_probabilities(path)
                for s in chain.states:
                    assert ModelChecker(chain).probability(s, path) == values[s]
    assert queries > 600


def _two_sinks():
    """s0 moves to the a-sink s1 or the b-sink s2 with 1/2 each, and s3
    moves to s0: reaching a has probability 0 at s2, 1 at s1 and 1/2 at
    s0 and s3, and likewise for b."""
    return MarkovChain(
        ["s0", "s1", "s2", "s3"],
        {("s0", "s1"): Fraction(1, 2), ("s0", "s2"): Fraction(1, 2),
         ("s1", "s1"): Fraction(1), ("s2", "s2"): Fraction(1),
         ("s3", "s0"): Fraction(1)},
        {"s1": ["a"], "s2": ["b"]},
    )


@pytest.fixture
def solves(monkeypatch):
    """The number of exact solves made so far, in a one-element list."""
    count = [0]
    solve = linalg.solve

    def counting(a, rhs):
        count[0] += 1
        return solve(a, rhs)

    monkeypatch.setattr(linalg, "solve", counting)
    return count


def test_holds_solves_only_at_a_maybe_state(solves):
    f_a = parse_formula("F>=1/2[a]")
    g_not_b = parse_formula("G>1/2[!b]")
    mc = ModelChecker(_two_sinks())
    assert mc.holds("s1", f_a) and not mc.holds("s2", f_a)
    assert mc.holds("s1", g_not_b) and not mc.holds("s2", g_not_b)
    assert mc.probability("s2", f_a.path_formula) == 0
    assert solves == [0]
    assert mc.holds("s0", f_a)
    assert solves == [1]
    assert mc.holds("s3", f_a)
    assert mc.probability("s3", f_a.path_formula) == Fraction(1, 2)
    assert solves == [1]


def test_bounds_of_zero_and_one_make_no_solve(solves):
    # s0 is a maybe state of F a and G !a (both 1/2 there); against a bound
    # of 0 or 1 every maybe value compares as 1/2 does, so neither `holds`
    # nor `sat_set` solves, and a bound strictly in between still does
    qualitative = {
        parse_formula("F>0[a]"): True, parse_formula("F=1[a]"): False,
        parse_formula("G>0[!a]"): True, parse_formula("G=1[!a]"): False,
        Prob(PathOp.F, Cmp.LE, Fraction(0), Atom("a")): False,
        Prob(PathOp.F, Cmp.LT, Fraction(1), Atom("a")): True,
    }
    for f, expected in qualitative.items():
        assert ModelChecker(_two_sinks()).holds("s0", f) is expected, f
        assert ("s0" in ModelChecker(_two_sinks()).sat_set(f)) is expected, f
    assert solves == [0]
    half = parse_formula("F>=1/2[a]")
    assert ModelChecker(_two_sinks()).holds("s0", half)
    assert solves == [1]
    assert "s0" in ModelChecker(_two_sinks()).sat_set(half)
    assert solves == [2]


def _chain_with_sinks(rng, n):
    """A random chain of n + 2 states whose last two are absorbing, so that
    many states reach a target with a probability strictly in between."""
    states = [f"s{i}" for i in range(n + 2)]
    edges = {(s, s): Fraction(1) for s in states[n:]}
    for s in states[:n]:
        succ = rng.sample(states, rng.randint(1, 3))
        weights = [rng.randint(1, 3) for _ in succ]
        edges.update(((s, t), Fraction(w, sum(weights)))
                     for t, w in zip(succ, weights))
    valuation = {s: [a for a in ("a", "b") if rng.random() < 0.5]
                 for s in states}
    return MarkovChain(states, edges, valuation)


def test_bounds_of_zero_and_one_equal_reference_on_fresh_checkers():
    # every comparison at bounds 0 and 1, on checkers that have solved
    # nothing before: the maybe states are decided from the prob0/prob1
    # masks alone, and must agree with the reference at every state
    rng = random.Random(71)
    maybe_states = 0
    for _ in range(60):
        chain = _chain_with_sinks(rng, rng.randint(1, 5))
        for body, op in itertools.product((Atom("a"), NegAtom("b")),
                                          (PathOp.F, PathOp.G)):
            zero, one = ModelChecker(chain).path_masks(PathFormula(op, body))
            full = (1 << len(chain.states)) - 1
            maybe_states += (full & ~(zero | one)).bit_count()
            for bound, cmp in itertools.product((Fraction(0), Fraction(1)), Cmp):
                f = Prob(op, cmp, bound, body)
                expected = reference_sat_set(chain, f)
                assert ModelChecker(chain).sat_set(f) == expected, (
                    chain.to_dict(), f)
                mc = ModelChecker(chain)
                assert {s for s in chain.states if mc.holds(s, f)} == expected, (
                    chain.to_dict(), f)
    assert maybe_states > 60


def test_holds_short_circuits_connectives(solves):
    # at s0 both operators need a solve; the first argument that decides
    # is the last one evaluated
    f_a, f_b = parse_formula("F>=1/2[a]"), parse_formula("F>=1/2[b]")
    assert ModelChecker(_two_sinks()).holds("s0", disj([f_a, f_b]))
    assert solves == [1]
    assert not ModelChecker(_two_sinks()).holds(
        "s0", conj([parse_formula("F>1/2[a]"), f_b]))
    assert solves == [2]
    assert ModelChecker(_two_sinks()).holds("s0", disj([NegAtom("a"), f_b]))
    assert solves == [2]


def test_holds_unknown_state_raises():
    mc = ModelChecker(_two_sinks())
    f = parse_formula("F>=1/2[a] | b")
    with pytest.raises(KeyError):
        mc.holds("nowhere", f)
    with pytest.raises(KeyError):
        mc.probability("nowhere", f.args[0].path_formula)
