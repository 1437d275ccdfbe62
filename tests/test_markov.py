import random
from fractions import Fraction

import pytest

from helpers import random_chain

from pctlfg.markov import (
    FirstPassageError, InvalidChainError, MarkovChain, first_passage,
    reachable_from, scc_decompose, states_with_path_to, validate,
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
    reach = {s: reachable_from(chain, s) for s in chain.states}
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


def test_states_with_path_to(fig1):
    edges = [(src, dst) for src, dst, _ in fig1.edges()]
    assert states_with_path_to(edges, {"u"}) == frozenset({"s", "t", "u"})
    assert states_with_path_to(edges, {"s"}) == frozenset({"s", "t"})
