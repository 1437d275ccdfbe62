import gc
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from helpers import (
    ReferenceChain, all_graphs, bench_workloads, random_chain, reference_reach,
    reference_reachable, reference_validate,
)

from pctlfg import markov
from pctlfg.markov import (
    FirstPassageError, InvalidChainError, MarkovChain, first_passage, indices,
    parse_probability, predecessor_masks, prob01, scc_decompose,
    states_reachable_from, states_with_path_to, validate,
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


def test_validate_equals_fraction_reference():
    # seeded chains with zero, negative and above-1 entries, dropped edges
    # and rows that no longer sum to 1: the integer rows give the Fraction
    # reference's diagnostics word for word and in the same order
    rng = random.Random(211)
    seen = set()
    for _ in range(400):
        chain = random_chain(rng, max_states=5)
        edges = {(src, dst): p for src, dst, p in chain.edges()}
        for _ in range(rng.randint(0, 3)):
            key = rng.choice(sorted(edges))
            damage = rng.choice(("zero", "negative", "above 1", "halved", "drop"))
            if damage == "drop":
                del edges[key]
                if not edges:
                    break
            else:
                edges[key] = {"zero": Fraction(0), "negative": Fraction(-1, 3),
                              "above 1": Fraction(4, 3),
                              "halved": edges[key] / 2}[damage]
        damaged = MarkovChain(chain.states, edges, {})
        want = reference_validate(damaged)
        assert validate(damaged) == want
        seen.update(kind for kind in ("zero-probability", "probability -",
                                      "outside (0,1]", "sum to 0,", "sum to")
                    if any(kind in problem for problem in want))
    assert seen == {"zero-probability", "probability -", "outside (0,1]",
                    "sum to 0,", "sum to"}


def test_constructor_rejects_duplicate_states():
    with pytest.raises(InvalidChainError, match="^duplicate state ids$"):
        MarkovChain(["s", "s"], {}, {})


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


def test_from_dict_matches_constructor():
    rng = random.Random(89)
    for _ in range(100):
        chain = random_chain(rng, max_states=8)
        again = MarkovChain.from_dict(chain.to_dict())
        assert again.states == chain.states
        assert again.valuation == chain.valuation
        for s in chain.states:
            assert list(again.successors(s).items()) == list(chain.successors(s).items())


# -- the index form against the name-keyed reference loader ------------------

_UNKNOWN = "no such state"


def _views(chain, all_pairs=True):
    """Every answer a chain gives about itself.  Probabilities are read for
    every ordered pair, or else for each state's successors and two fixed
    states, and always for a name that is no state."""
    states = chain.states
    pairs = []
    for s in states:
        targets = list(states) if all_pairs else (
            list(chain.successors(s)) + [states[0], states[len(states) // 2]])
        pairs += [(s, t, chain.probability(s, t)) for t in targets + [_UNKNOWN]]
    return {
        "states": states,
        "successors": [list(chain.successors(s).items()) for s in states],
        "probability": pairs,
        "edges": list(chain.edges()),
        "valuation": chain.valuation,
        "atoms": [chain.atoms(s) for s in states],
        "to_dict": chain.to_dict(),
        "row": [chain.row(i) for i in range(len(states))],
        "succ": list(chain.succ),
        "pred": list(chain.pred),
        "index": list(chain.index.items()),
        "atom_masks": sorted(chain.atom_masks.items()),
        "contains": [s in chain for s in states] + [_UNKNOWN in chain],
    }


def test_chain_matches_the_reference_loader():
    # seeded random chains through both constructors and the loader, and
    # the benchmark's `check` and `compress` models of seeds 1-3 through the
    # loader, against the name-keyed chain; `to_dict` loads back to the same
    # chain
    rng = random.Random(97)
    for k in range(200):
        chain = random_chain(rng, max_states=2 + k % 9, aps=("a", "b", "c"))
        states = list(chain.states)
        edges = {(src, dst): p for src, dst, p in chain.edges()}
        valuation = {s: sorted(chain.atoms(s)) for s in states}
        want = _views(ReferenceChain(states, edges, valuation))
        assert _views(MarkovChain(states, edges, valuation)) == want
        data = chain.to_dict()
        assert _views(ReferenceChain.from_dict(data)) == want
        loaded = MarkovChain.from_dict(data)
        assert _views(loaded) == want
        assert _views(MarkovChain.from_dict(loaded.to_dict())) == want
        assert loaded.to_dot() == chain.to_dot()
    workloads = bench_workloads()
    for seed in (1, 2, 3):
        for workload in ("check", "compress"):
            for inst in workloads.generate(workload, seed):
                data = json.loads(inst["model"])
                chain = MarkovChain.from_json(inst["model"])
                assert _views(chain, all_pairs=False) == \
                    _views(ReferenceChain.from_dict(data), all_pairs=False), \
                    (workload, seed, inst["state"])
                assert chain.to_dict() == data


def test_loaded_chains_keep_one_container_per_state():
    """A chain is held in index form only: per state, its successor row (a
    dict keyed by successor index) is the one object the cyclic collector
    tracks; the masks, the index and the atom masks are one object each per
    chain.  Loading the 400 `check` models of bench seed 1 adds at most 1.25
    tracked objects per state (about 1.09 now); a name-keyed copy of the
    rows and one valuation set per state, as chains held before, gave 2.07
    (2.09 on Python 3.10)."""
    models = [inst["model"] for inst in bench_workloads().generate("check", 1)]
    states = sum(len(json.loads(model)["states"]) for model in models)
    gc.collect()
    before = len(gc.get_objects())
    chains = [MarkovChain.from_json(model) for model in models]
    gc.collect()
    per_state = (len(gc.get_objects()) - before) / states
    assert len(chains) == 400 and per_state <= 1.25, per_state


def _corrupt(rng, data) -> str:
    """Applies one seeded defect to the JSON model `data` in place; returns
    its kind."""
    states, edges = data["states"], data["edges"]
    kind = rng.choice(("non-dict record", "missing key", "non-list ap",
                       "non-str atom", "duplicate id", "unknown endpoint",
                       "duplicate edge", "malformed numeral"))
    records = edges if edges and rng.random() < 0.6 else states
    k = rng.randrange(len(records))
    if kind == "non-dict record":
        records[k] = rng.choice((["s0", "s0", "1"], "s0->s0", None, 7))
    elif kind == "missing key" and isinstance(records[k], dict):
        keys = ("id",) if records is states else ("from", "to", "p")
        records[k].pop(rng.choice(keys), None)
    elif kind == "non-list ap" and isinstance(states[k % len(states)], dict):
        states[k % len(states)]["ap"] = rng.choice(("a", None, {"a": 1}, ("a",)))
    elif kind == "non-str atom" and isinstance(states[k % len(states)], dict):
        states[k % len(states)]["ap"] = ["a", rng.choice((1, None, ["b"]))]
    elif kind == "duplicate id" and len(states) > 1:
        i, j = rng.sample(range(len(states)), 2)
        if isinstance(states[i], dict) and isinstance(states[j], dict):
            states[i]["id"] = states[j].get("id")
    elif kind == "unknown endpoint" and edges and isinstance(edges[k % len(edges)], dict):
        for key in rng.choice((("from",), ("to",), ("from", "to"))):
            edges[k % len(edges)][key] = rng.choice(("nowhere", 3, None, ""))
    elif kind == "duplicate edge" and edges:
        copy = edges[k % len(edges)]
        if isinstance(copy, dict):
            copy = dict(copy, p=rng.choice((copy.get("p"), "1/2", "0")))
        edges.insert(rng.randrange(len(edges) + 1), copy)
    elif kind == "malformed numeral" and edges and isinstance(edges[k % len(edges)], dict):
        edges[k % len(edges)]["p"] = rng.choice(
            ("1/0", "x", None, True, [1], "1e5", " 1", "1/-2", 1.5, 2))
    return kind


def _load(loader, data):
    """The loaded chain's answers, or the text of the InvalidChainError."""
    try:
        return _views(loader(data))
    except InvalidChainError as exc:
        return str(exc)


def test_corrupted_records_raise_the_reference_error():
    # one to three seeded defects per model, so several defects meet in
    # one model: the first in record order is reported, in the reference's
    # words, and a model that stays valid loads as the reference does.  Two
    # seeded runs: 600 models of up to 5 states, and 5,000 of up to 6 states
    # over three atoms
    for seed, models, options in ((101, 600, {"max_states": 5}),
                                  (307, 5000, {"max_states": 6,
                                               "aps": ("a", "b", "c")})):
        rng = random.Random(seed)
        raised = []
        for _ in range(models):
            data = random_chain(rng, **options).to_dict()
            kinds = [_corrupt(rng, data) for _ in range(rng.randint(1, 3))]
            want = _load(ReferenceChain.from_dict, data)
            assert _load(MarkovChain.from_dict, data) == want, (seed, kinds, data)
            if isinstance(want, str):
                raised.append(want)
        for family in ("must be an object", "has no", "'ap' must be a list",
                       "duplicate state ids", "edge from unknown state",
                       "edge to unknown state", "duplicate edge",
                       "malformed rational"):
            assert any(family in message for message in raised), (seed, family)


def test_valid_models_load_without_the_record_walk(monkeypatch):
    # the column passes read every valid model, so the walk that names a
    # defect never runs on one: a model without "ap", one with integer ids
    # and probabilities, and seeded models each loaded on an empty numeral
    # table; a defective model does enter the walk
    def walk(states, edges):
        raise AssertionError("the record walk ran")

    monkeypatch.setattr(markov, "_first_defect", walk)
    no_ap = {"states": [{"id": "s"}, {"id": "t", "ap": ["a"]}],
             "edges": [{"from": "s", "to": "t", "p": "1"},
                       {"from": "t", "to": "t", "p": "1"}]}
    integers = {"states": [{"id": 0, "ap": []}, {"id": 1}],
                "edges": [{"from": 0, "to": 1, "p": 1},
                          {"from": 1, "to": 0, "p": 1}]}
    models = [no_ap, integers]
    rng = random.Random(227)
    models += [random_chain(rng, aps=("a", "b", "c")).to_dict() for _ in range(40)]
    for data in models:
        markov._NUMERALS.clear()
        loaded = _views(MarkovChain.from_dict(data))
        assert loaded == _views(ReferenceChain.from_dict(data))
    with pytest.raises(AssertionError, match="the record walk ran"):
        MarkovChain.from_dict(dict(no_ap, states=[{"id": "s"}, {"id": "s"}]))


def test_first_defect_in_record_order_is_reported():
    # a duplicate state id, then an edge record without 'p'
    with pytest.raises(InvalidChainError, match="^duplicate state ids$"):
        MarkovChain.from_dict({
            "states": [{"id": "s", "ap": []}, {"id": "s", "ap": ["a"]}],
            "edges": [{"from": "s", "to": "s"}],
        })
    # within an edge record: its probability before its endpoints
    with pytest.raises(InvalidChainError, match="malformed rational"):
        MarkovChain.from_dict({"states": [{"id": "s"}],
                               "edges": [{"from": "t", "to": "s", "p": "x"}]})
    with pytest.raises(InvalidChainError, match="edge from unknown state 't'"):
        MarkovChain.from_dict({"states": [{"id": "s"}],
                               "edges": [{"from": "t", "to": "s", "p": "1"}]})


def test_both_constructors_name_the_same_first_edge_defect():
    # the second edge repeats the first once its source is read as text;
    # the third has an unknown source, and comes later
    half = Fraction(1, 2)
    edges = {(1, "a"): half, ("1", "a"): half, ("x", "a"): Fraction(1)}
    with pytest.raises(InvalidChainError) as built:
        MarkovChain(["1", "a"], edges, {})
    with pytest.raises(InvalidChainError) as loaded:
        MarkovChain.from_dict({
            "states": [{"id": "1"}, {"id": "a"}],
            "edges": [{"from": src, "to": dst, "p": str(p)}
                      for (src, dst), p in edges.items()]})
    assert str(built.value) == str(loaded.value) == "duplicate edge '1' -> 'a'"


@pytest.mark.parametrize("edge, message", [
    (["s", "s", "1"], "edge record 1 must be an object"),
    ("s->s", "edge record 1 must be an object"),
    (None, "edge record 1 must be an object"),
    ({"p": "1"}, "edge record 1 has no 'from'"),
    ({"from": "s", "p": "1"}, "edge record 1 has no 'to'"),
    ({"from": "s", "to": "t", "p": None}, "malformed rational None"),
    ({"from": "s", "to": "t", "p": True}, "malformed rational True"),
    ({"from": "x", "to": "t", "p": "1"}, "edge from unknown state 'x'"),
    ({"from": 0, "to": "t", "p": "1"}, "edge from unknown state '0'"),
    ({"from": "s", "to": "x", "p": "1"}, "edge to unknown state 'x'"),
    ({"from": "s", "to": "s", "p": "1/2"}, "duplicate edge 's' -> 's'"),
])
def test_edge_record_defects(edge, message):
    data = {"states": [{"id": "s"}, {"id": "t"}],
            "edges": [{"from": "s", "to": "s", "p": "1/2"}, edge]}
    with pytest.raises(InvalidChainError) as err:
        MarkovChain.from_dict(data)
    assert str(err.value) == message


def test_edge_record_values_are_read_as_text():
    # ids and probabilities that are not strings are read through `str`
    chain = MarkovChain.from_dict({
        "states": [{"id": 0}, {"id": "1"}],
        "edges": [{"from": 0, "to": 1, "p": 1}, {"from": "1", "to": "0", "p": "1"}]})
    assert chain.states == ("0", "1")
    assert chain.successors("0") == {"1": Fraction(1)}
    assert chain.successors("1") == {"0": Fraction(1)}


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


# -- the numeral table -------------------------------------------------------

@pytest.fixture
def fresh_table(monkeypatch):
    """An empty process-wide numeral table for the test, and the texts the
    reader behind it reads, one entry per read."""
    monkeypatch.setattr(markov, "_NUMERALS", {})
    reads = []
    read = markov._read_numeral

    def counting(key, text):
        reads.append(key)
        return read(key, text)

    monkeypatch.setattr(markov, "_read_numeral", counting)
    return reads


def test_table_keeps_true_apart_from_one(fresh_table):
    assert parse_probability(1) == 1
    with pytest.raises(InvalidChainError) as err:
        parse_probability(True)
    assert str(err.value) == "malformed rational True"


def test_table_reads_int_text_and_float_alike(fresh_table):
    values = [parse_probability(v) for v in (1, "1", 1.0)]
    assert values == [Fraction(1)] * 3
    assert all(type(v) is Fraction for v in values)
    assert fresh_table == ["1", "1.0"]  # 1 and "1" share their text's entry


def test_table_errors_name_the_value_read(fresh_table):
    # the text "None" and the value None fail alike but are named apart
    for value, message in (("None", "malformed rational 'None'"),
                           (None, "malformed rational None"),
                           ("None", "malformed rational 'None'")):
        with pytest.raises(InvalidChainError) as err:
            parse_probability(value)
        assert str(err.value) == message


def test_table_never_stores_a_failure(fresh_table):
    for _ in range(2):
        with pytest.raises(InvalidChainError, match="malformed rational"):
            parse_probability("1/0")
    assert fresh_table == ["1/0", "1/0"]
    assert markov._NUMERALS == {}


def test_one_numeral_read_per_distinct_text(fresh_table):
    """The process-wide numeral table makes loading the 400 `check` models
    of bench seed 1 in one process read each distinct edge text once (102
    texts over 56,056 edges).  The reads past the table are counted by
    wrapping the reader behind it, `markov._read_numeral`; more reads than
    distinct texts means some text is read once per chain again."""
    models = [inst["model"] for inst in bench_workloads().generate("check", 1)]
    texts = [edge["p"] for model in models for edge in json.loads(model)["edges"]]
    for model in models:
        MarkovChain.from_json(model)
    assert (len(fresh_table), len(set(texts)), len(texts)) == (102, 102, 56_056)
    assert set(fresh_table) == set(texts)


def test_table_stays_bounded(fresh_table):
    for k in range(10_000):
        assert parse_probability(f"{k}/7") == Fraction(k, 7)
        assert len(markov._NUMERALS) <= markov._NUMERALS_MAX
    assert len(fresh_table) == 10_000
    long = "1/" + "3" * markov._NUMERALS_KEY_MAX
    assert parse_probability(long) == parse_probability(long) == Fraction(long)
    assert long not in markov._NUMERALS
    assert fresh_table[-2:] == [long, long]


def test_table_reads_each_text_once_across_chains(fresh_table):
    def model(p, q):
        return {"states": [{"id": "s"}, {"id": "t"}],
                "edges": [{"from": "s", "to": "t", "p": p},
                          {"from": "s", "to": "s", "p": q},
                          {"from": "t", "to": "t", "p": "1"}]}

    first = MarkovChain.from_dict(model("1/3", "2/3"))
    second = MarkovChain.from_dict(model("2/3", "1/3"))
    assert sorted(fresh_table) == ["1", "1/3", "2/3"]
    assert second.successors("s")["t"] is first.successors("s")["s"]


def test_threads_reading_one_table_get_equal_values(fresh_table):
    threads, rounds = 4, 200
    texts = [f"{k}/{k + 1}" for k in range(rounds)]
    barrier = threading.Barrier(threads, timeout=30)
    read = [[] for _ in range(threads)]

    def work(k):
        for text in texts:
            barrier.wait()
            read[k].append(parse_probability(text))

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
    expected = [Fraction(k, k + 1) for k in range(rounds)]
    assert all(values == expected for values in read)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int digit limit on this Python")
def test_long_numerals_meet_the_digit_limit_of_each_read():
    # a 5,001-digit denominator passes the default 4,300-digit limit, which
    # `cli.main` lifts while it runs; the text is too long for the table,
    # and a failed read is not stored, so each read sees the limit in force
    text = "1/" + "1" + "0" * 4999 + "1"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(InvalidChainError, match="malformed rational"):
            parse_probability(text)
        sys.set_int_max_str_digits(0)
        assert parse_probability(text) == Fraction(1, 10 ** 5000 + 1)
        sys.set_int_max_str_digits(4300)
        with pytest.raises(InvalidChainError, match="malformed rational"):
            parse_probability(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_dot_export(fig1):
    dot = fig1.to_dot()
    assert '"t" -> "s" [label="3/5"];' in dot
    assert dot.startswith("digraph")


def test_dot_export_escapes_quotes_and_backslashes():
    # ids and atom names may hold `"` and `\`; each quoted DOT string
    # escapes both, so it ends at its own closing quote
    chain = MarkovChain(['a"b', "c\\"], {('a"b', "c\\"): Fraction(1),
                                         ("c\\", "c\\"): Fraction(1)},
                        {'a"b': ['x"y', "q\\"]})
    assert chain.to_dot().splitlines() == [
        "digraph chain {",
        r'  "a\"b" [label="a\"b\n{q\\,x\"y}"];',
        r'  "c\\" [label="c\\"];',
        r'  "a\"b" -> "c\\" [label="1"];',
        r'  "c\\" -> "c\\" [label="1"];',
        "}",
    ]


def test_scc_fig1(fig1):
    # bits 0, 1, 2 are s, t, u; reverse topological: {u} before {s,t}
    decomposition = scc_decompose(fig1)
    assert decomposition.components == (0b100, 0b011)
    assert decomposition.bottom == 0b100
    assert decomposition.bottom_states() == frozenset({"u"})


def test_scc_self_loop():
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {})
    decomposition = scc_decompose(chain)
    assert decomposition.components == (0b1,)
    assert decomposition.bottom == 0b1


def test_scc_three_cycle():
    chain = MarkovChain(
        ["a", "b", "c"],
        {("a", "b"): Fraction(1), ("b", "c"): Fraction(1), ("c", "a"): Fraction(1)},
        {},
    )
    decomposition = scc_decompose(chain)
    assert decomposition.components == (0b111,)
    assert decomposition.bottom == 0b111


def _scc_oracle(chain):
    """The SCCs by name and the bottom ones, from a reachability fixpoint
    over `chain.successors`: states are equivalent iff they reach each
    other, and an SCC is bottom iff no successor leaves it."""
    reach = {s: reference_reachable(chain, s) for s in chain.states}
    comps = {frozenset(t for t in reach[s] if s in reach[t]) for s in chain.states}
    bottoms = {comp for comp in comps
               if all(reach[s] <= comp for s in comp)}
    return comps, bottoms


def _names(chain, mask):
    return frozenset(chain.states[i] for i in indices(mask))


def test_scc_against_reachability_oracle():
    rng = random.Random(17)
    for _ in range(80):
        chain = random_chain(rng)
        decomposition = scc_decompose(chain)
        comps, bottoms = _scc_oracle(chain)
        named = [_names(chain, comp) for comp in decomposition.components]
        assert len(named) == len(comps) and set(named) == comps
        assert _names(chain, decomposition.bottom) == frozenset().union(*bottoms)
        # reverse topological: an edge never leads to a later component
        position = {s: k for k, comp in enumerate(named) for s in comp}
        for src, dst, _ in chain.edges():
            assert position[dst] <= position[src]


def test_first_passage_fig1(fig1):
    assert first_passage(fig1, "s", {"u"}) == {"u": Fraction(1)}


def test_first_passage_source_in_targets(fig1):
    result = first_passage(fig1, "t", {"t", "u"})
    assert result == {"t": Fraction(1), "u": Fraction(0)}


def test_first_passage_from_a_target_lists_targets_in_name_order():
    # a source among the targets reads its answer off the target set; the
    # keys still come in name order, whatever the set's hash order
    code = """if True:
        from pctlfg.markov import MarkovChain, first_passage
        names = ["s", "t", "u", "v", "w"]
        chain = MarkovChain(names, {(n, n): 1 for n in names}, {})
        print(list(first_passage(chain, "s", names)))
    """
    for hash_seed in ("0", "1", "7"):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "['s', 't', 'u', 'v', 'w']\n"


def test_first_passage_coin():
    chain = MarkovChain(
        ["s", "b1", "b2"],
        {("s", "b1"): Fraction(1, 2), ("s", "b2"): Fraction(1, 2),
         ("b1", "b1"): Fraction(1), ("b2", "b2"): Fraction(1)},
        {},
    )
    assert first_passage(chain, "s", {"b1", "b2"}) == \
        {"b1": Fraction(1, 2), "b2": Fraction(1, 2)}


def test_first_passage_certificate(fig1):
    # from t the run escapes to u with probability 2/5, never reaching s
    with pytest.raises(FirstPassageError) as err:
        first_passage(fig1, "t", {"s"})
    assert err.value.certificate == frozenset({"u"})
    # u is absorbing: no target can be entered first, so the solve over the
    # region {u} has no right-hand column
    with pytest.raises(FirstPassageError) as err:
        first_passage(fig1, "u", {"s"})
    assert err.value.certificate == frozenset({"u"})
    assert str(err.value) == (
        "targets not reached almost surely from 'u': bottom SCC {u} is "
        "reachable and disjoint from the targets")


def test_first_passage_certificate_against_oracle():
    rng = random.Random(37)
    checked = 0
    while checked < 60:
        chain = random_chain(rng, max_states=8)
        _, bottoms = _scc_oracle(chain)
        targets = frozenset(s for s in chain.states if rng.random() < 0.3)
        if not targets or all(comp & targets for comp in bottoms):
            continue
        source = rng.choice(chain.states)
        region = reference_reachable(chain, source, blocked=targets)
        if source in targets or not any(comp <= region for comp in bottoms):
            continue  # the targets are reached almost surely
        with pytest.raises(FirstPassageError) as err:
            first_passage(chain, source, targets)
        certificate = err.value.certificate
        assert certificate in bottoms
        assert certificate <= region and not certificate & targets
        checked += 1


def test_first_passage_sums_to_one():
    rng = random.Random(29)
    for _ in range(60):
        chain = random_chain(rng)
        mc = ModelChecker(chain)
        bottoms = mc.sccs.bottom_states()
        source = chain.states[rng.randrange(len(chain.states))]
        result = first_passage(chain, source, bottoms)
        assert sum(result.values()) == 1


def test_runs_enter_bottom_sccs():
    # from any state, the bottom SCCs are hit with probability exactly one
    rng = random.Random(31)
    for _ in range(40):
        mc = ModelChecker(random_chain(rng))
        bottoms = mc.sccs.bottom_states()
        for s in mc.chain.states:
            assert sum(first_passage(mc.chain, s, bottoms).values()) == 1


def test_first_passage_empty_target(fig1):
    with pytest.raises(ValueError, match="empty target set"):
        first_passage(fig1, "s", set())


def test_first_passage_unknown_target(fig1):
    for targets in ({"t", "ghost"}, {"ghost"}):
        with pytest.raises(KeyError):
            first_passage(fig1, "s", targets)
    with pytest.raises(KeyError):
        first_passage(fig1, "t", {"t", "ghost"})


def test_reach_probabilities_unknown_target(fig1):
    for targets in ({"u", "ghost"}, {"ghost"}):
        with pytest.raises(KeyError):
            fig1.mask(targets)


def test_index_form(fig1):
    # fig1: s -> t, t -> s or u, u -> u
    assert fig1.index == {"s": 0, "t": 1, "u": 2}
    assert fig1.succ == [0b010, 0b101, 0b100]
    assert fig1.pred == [0b010, 0b001, 0b110]
    assert fig1.mask({"s", "u"}) == 0b101
    assert fig1.names(0b101) == frozenset({"s", "u"})
    assert fig1.names(0) == frozenset()
    assert fig1.row(1) == (5, [(0, 3), (2, 2)])  # t -> s 3/5, t -> u 2/5


def test_states_with_path_to(fig1):
    def path_to(targets, blocked=()):
        return fig1.names(states_with_path_to(fig1.pred, fig1.mask(targets),
                                              fig1.mask(blocked)))

    assert path_to({"u"}) == frozenset({"s", "t", "u"})
    assert path_to({"s"}) == frozenset({"s", "t"})
    assert path_to({"u"}, blocked={"t"}) == frozenset({"u"})


def _prob01(chain, targets):
    prob0, prob1 = prob01(chain.pred, chain.mask(targets))
    return chain.names(prob0), chain.names(prob1)


def test_states_reachable_from_equals_reference():
    # seeded graphs, seeds of one to three states and blocked sets, over
    # the successor masks and, as the backward search, the predecessor
    # masks: the level-by-level search reaches what the name-keyed
    # worklist reaches from each seed, unioned over the seeds
    rng = random.Random(229)
    for _ in range(300):
        chain = random_chain(rng, max_states=9)
        states = list(chain.states)
        reverse = MarkovChain(states, {(dst, src): p for src, dst, p in chain.edges()}, {})
        assert reverse.succ == chain.pred
        for _ in range(3):
            seeds = rng.sample(states, rng.randint(1, min(3, len(states))))
            blocked = frozenset(rng.sample(states, rng.randint(0, len(states) // 2)))
            for graph, masks in ((chain, chain.succ), (reverse, chain.pred)):
                want = frozenset().union(
                    *(reference_reachable(graph, s, blocked) for s in seeds))
                got = states_reachable_from(masks, chain.mask(seeds),
                                            blocked=chain.mask(blocked))
                assert chain.names(got) == want


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
