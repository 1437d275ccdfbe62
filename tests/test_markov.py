import random
from fractions import Fraction

import pytest

from helpers import all_graphs, random_chain, reference_reach

from pctlfg.markov import (
    FirstPassageError, InvalidChainError, MarkovChain, first_passage,
    parse_probability, predecessor_masks, prob01, reachable_from,
    scc_decompose, states_with_path_to, validate,
)
from pctlfg.modelcheck import ModelChecker


def test_validate_fig1(fig1):
    assert validate(fig1) == []


def test_validate_bad_row_sum():
    chain = MarkovChain(["s"], {("s", "s"): Fraction(9, 10)}, {"s": []})
    problems = validate(chain)
    assert len(problems) == 1 and "'s'" in problems[0] and "9/10" in problems[0]


def test_validate_zero_edge():
    chain = MarkovChain(
        ["s", "t"],
        {("s", "t"): Fraction(1), ("s", "s"): Fraction(0), ("t", "t"): Fraction(1)},
        {},
    )
    assert any("zero" in p for p in validate(chain))


def test_duplicate_edge_rejected():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_dict({
            "states": [{"id": "s", "ap": []}],
            "edges": [{"from": "s", "to": "s", "p": "1/2"},
                      {"from": "s", "to": "s", "p": "1/2"}],
        })


def test_json_round_trip(fig1):
    again = MarkovChain.from_json(fig1.to_json())
    assert again.states == fig1.states
    assert set(again.edges()) == set(fig1.edges())
    assert again.valuation == fig1.valuation


def test_malformed_probability():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_dict({
            "states": [{"id": "s", "ap": []}],
            "edges": [{"from": "s", "to": "s", "p": "three fifths"}],
        })


def _random_numeral(rng) -> str:
    def digits(low):
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(low, 40)))

    sign = rng.choice(("", "-"))
    form = rng.randrange(3)
    if form == 0:
        return sign + digits(1)
    if form == 1:
        return f"{sign}{digits(1)}.{digits(1)}"
    denominator = digits(1)
    if not denominator.strip("0"):
        denominator += "7"
    return f"{sign}{digits(1)}/{denominator}"


def test_parse_probability_equals_fraction_of_text():
    rng = random.Random(83)
    for _ in range(2000):
        text = _random_numeral(rng)
        value = parse_probability(text)
        assert type(value) is Fraction and value == Fraction(text), text
    for text in ("0", "-0", "007", "-0.50", "003/006", "1" * 40 + "/" + "3" * 40):
        assert parse_probability(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1/0", "-3/00", "1e5", "+1", "1.", ".5", "1/-2",
                                  " 1", "1_0", "", "0x1", "1/2/3", "1.5/2"])
def test_parse_probability_rejects(text):
    with pytest.raises(InvalidChainError, match="malformed rational"):
        parse_probability(text)


def test_dot_export(fig1):
    dot = fig1.to_dot()
    assert '"t" -> "s" [label="3/5"];' in dot
    assert dot.startswith("digraph")


def test_scc_fig1(fig1):
    decomposition = scc_decompose(fig1)
    comps = {comp: bottom for comp, bottom
             in zip(decomposition.components, decomposition.is_bottom)}
    assert comps[frozenset({"s", "t"})] is False
    assert comps[frozenset({"u"})] is True
    # reverse topological: {u} must come before {s,t}
    assert decomposition.components.index(frozenset({"u"})) < \
        decomposition.components.index(frozenset({"s", "t"}))


def test_scc_self_loop():
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {})
    decomposition = scc_decompose(chain)
    assert decomposition.components == (frozenset({"s"}),)
    assert decomposition.is_bottom == (True,)


def test_scc_three_cycle():
    chain = MarkovChain(
        ["a", "b", "c"],
        {("a", "b"): Fraction(1), ("b", "c"): Fraction(1), ("c", "a"): Fraction(1)},
        {},
    )
    decomposition = scc_decompose(chain)
    assert decomposition.components == (frozenset({"a", "b", "c"}),)
    assert decomposition.is_bottom == (True,)


def _scc_oracle(chain):
    # transitive-closure oracle: states are equivalent iff they reach each other
    mc = ModelChecker(chain)
    reach = {s: reachable_from(mc, s) for s in chain.states}
    comps = set()
    for s in chain.states:
        comps.add(frozenset(t for t in chain.states
                            if t in reach[s] and s in reach[t]))
    return comps


def test_scc_against_reachability_oracle():
    rng = random.Random(17)
    for _ in range(80):
        chain = random_chain(rng)
        decomposition = scc_decompose(chain)
        assert set(decomposition.components) == _scc_oracle(chain)
        for comp, bottom in zip(decomposition.components, decomposition.is_bottom):
            leaves = any(dst not in comp
                         for s in comp for dst in chain.successors(s))
            assert bottom == (not leaves)


def test_first_passage_fig1(fig1_checker):
    assert first_passage(fig1_checker, "s", {"u"}) == {"u": Fraction(1)}


def test_first_passage_source_in_targets(fig1_checker):
    result = first_passage(fig1_checker, "t", {"t", "u"})
    assert result == {"t": Fraction(1), "u": Fraction(0)}


def test_first_passage_coin():
    chain = MarkovChain(
        ["s", "b1", "b2"],
        {("s", "b1"): Fraction(1, 2), ("s", "b2"): Fraction(1, 2),
         ("b1", "b1"): Fraction(1), ("b2", "b2"): Fraction(1)},
        {},
    )
    assert first_passage(ModelChecker(chain), "s", {"b1", "b2"}) == \
        {"b1": Fraction(1, 2), "b2": Fraction(1, 2)}


def test_first_passage_certificate(fig1_checker):
    # from t the run escapes to u with probability 2/5, never reaching s
    with pytest.raises(FirstPassageError) as err:
        first_passage(fig1_checker, "t", {"s"})
    assert err.value.certificate == frozenset({"u"})


def test_first_passage_sums_to_one():
    rng = random.Random(29)
    for _ in range(60):
        chain = random_chain(rng)
        mc = ModelChecker(chain)
        bottoms = mc.sccs.bottom_states()
        source = chain.states[rng.randrange(len(chain.states))]
        result = first_passage(mc, source, bottoms)
        assert sum(result.values()) == 1


def test_runs_enter_bottom_sccs():
    # from any state, the bottom SCCs are hit with probability exactly one
    rng = random.Random(31)
    for _ in range(40):
        mc = ModelChecker(random_chain(rng))
        bottoms = mc.sccs.bottom_states()
        for s in mc.chain.states:
            assert sum(first_passage(mc, s, bottoms).values()) == 1


def test_first_passage_unknown_target(fig1_checker):
    for targets in ({"t", "ghost"}, {"ghost"}):
        with pytest.raises(KeyError):
            first_passage(fig1_checker, "s", targets)
    with pytest.raises(KeyError):
        first_passage(fig1_checker, "t", {"t", "ghost"})


def test_reach_probabilities_unknown_target(fig1_checker):
    for targets in ({"u", "ghost"}, {"ghost"}):
        with pytest.raises(KeyError):
            fig1_checker.mask(targets)


def test_states_with_path_to(fig1_checker):
    mc = fig1_checker

    def path_to(targets, blocked=()):
        return mc.names(states_with_path_to(mc.pred, mc.mask(targets),
                                            mc.mask(blocked)))

    assert path_to({"u"}) == frozenset({"s", "t", "u"})
    assert path_to({"s"}) == frozenset({"s", "t"})
    assert path_to({"u"}, blocked={"t"}) == frozenset({"u"})


def test_reachable_from(fig1_checker):
    assert reachable_from(fig1_checker, "s") == frozenset({"s", "t", "u"})
    assert reachable_from(fig1_checker, "u") == frozenset({"u"})
    with pytest.raises(KeyError):
        reachable_from(fig1_checker, "ghost")


def _prob01(chain, targets):
    mc = ModelChecker(chain)
    prob0, prob1 = prob01(mc.pred, mc.mask(targets))
    return mc.names(prob0), mc.names(prob1)


def test_prob01_fig1(fig1):
    assert _prob01(fig1, {"u"}) == (frozenset(), frozenset({"s", "t", "u"}))
    # from t the run escapes to u with probability 2/5
    assert _prob01(fig1, {"s"}) == (frozenset({"u"}), frozenset({"s"}))


def test_prob01_target_inside_bottom_scc():
    chain = MarkovChain(
        ["x", "y", "z"],
        {("x", "y"): Fraction(1), ("y", "z"): Fraction(1), ("z", "y"): Fraction(1)},
        {},
    )
    assert _prob01(chain, {"z"}) == (frozenset(), frozenset({"x", "y", "z"}))
    assert _prob01(chain, {"x"}) == (frozenset({"y", "z"}), frozenset({"x"}))


def test_prob01_maybe_state():
    chain = MarkovChain(
        ["s", "goal", "dead"],
        {("s", "goal"): Fraction(1, 2), ("s", "dead"): Fraction(1, 2),
         ("goal", "goal"): Fraction(1), ("dead", "dead"): Fraction(1)},
        {},
    )
    assert _prob01(chain, {"goal"}) == (frozenset({"dead"}), frozenset({"goal"}))


def test_prob01_empty_and_full_targets(fig1):
    everything = frozenset(fig1.states)
    assert _prob01(fig1, set()) == (everything, frozenset())
    assert _prob01(fig1, everything) == (frozenset(), everything)


def test_prob01_are_the_zero_and_one_reach_values():
    rng = random.Random(89)
    for _ in range(120):
        chain = random_chain(rng, max_states=8)
        targets = frozenset(s for s in chain.states if rng.random() < 0.25)
        reach = reference_reach(chain.states, chain.successors, targets)
        assert _prob01(chain, targets) == (
            frozenset(s for s, v in reach.items() if v == 0),
            frozenset(s for s, v in reach.items() if v == 1))
    # every digraph of bounded sat's domain (at most 3 vertices, each with
    # a successor) under the uniform assignment, and every target mask
    for size in (1, 2, 3):
        vertices = range(size)
        for succ in all_graphs(size):
            pred = predecessor_masks(succ)
            out = [[w for w in vertices if m >> w & 1] for m in succ]
            rows = [{w: Fraction(1, len(ws)) for w in ws} for ws in out]
            for targets in range(1 << size):
                reach = reference_reach(
                    vertices, rows.__getitem__,
                    [v for v in vertices if targets >> v & 1])
                assert prob01(pred, targets) == (
                    sum(1 << v for v in vertices if reach[v] == 0),
                    sum(1 << v for v in vertices if reach[v] == 1)), \
                    (succ, targets)
