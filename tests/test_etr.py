import hashlib
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from helpers import (
    PSI_TEXT, all_graphs, block_interval_contradiction, fig1_chain,
    random_chain, random_core_formula,
    reference_block_refuted, reference_candidates, reference_search,
    satisfied_instance, sure_vertices,
)

import pctlfg.etr
from pctlfg.etr import (
    BackendError, CorrectnessBlock, ETRCandidate, SatSearchResult,
    SolverBackend, _block, _graphs, candidate_from_chain, check_assignment,
    encode, enumerate_candidates, f_normal_form, interval_refuted, smt_text,
    solve_bounded_sat, uniform_assignment,
)
from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, PathOp, Prob, conj, disj, fragment_classify,
    iter_subformulas, parse_formula,
)
from pctlfg.markov import (
    MarkovChain, predecessor_masks, states_reachable_from, validate,
)
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import compress_model

pf = parse_formula


# -- F-normal form -----------------------------------------------------------

def test_fnf_globally_one():
    assert f_normal_form(pf("G=1[a]")) == \
        Prob(PathOp.F, Cmp.LE, Fraction(0), NegAtom("a"))


def test_fnf_strict():
    assert f_normal_form(pf("G>0.3[a]")) == \
        Prob(PathOp.F, Cmp.LT, Fraction(7, 10), NegAtom("a"))


def test_fnf_keeps_f():
    f = pf("F>=1/2[a]")
    assert f_normal_form(f) == f


def test_fnf_no_g_left():
    rng = random.Random(103)
    for _ in range(200):
        f = random_core_formula(rng, depth=3)
        normal = f_normal_form(f)
        for g in iter_subformulas(normal):
            assert not (isinstance(g, Prob) and g.op is PathOp.G)


def test_fnf_preserves_sat_sets():
    rng = random.Random(107)
    for _ in range(120):
        chain = random_chain(rng, max_states=4)
        f = random_core_formula(rng, depth=3)
        mc = ModelChecker(chain)
        assert mc.sat_set(f) == mc.sat_set(f_normal_form(f))


# -- candidate enumeration ---------------------------------------------------

def test_enumerate_atom_single_vertex():
    cands = list(enumerate_candidates(Atom("a"), 1))
    assert len(cands) == 1
    c = cands[0]
    assert c.edges == ((0, 0),)
    assert c.labeling[Atom("a")] == frozenset({0})
    assert c.consistent() == []


def test_enumerate_simple_eventuality():
    f = pf("F>=1/2[a]")
    cands = list(enumerate_candidates(f, 1))
    # V(F>=1/2 a) must be {v1}; V(a) = {} is screened out, since no vertex
    # reaches a and the reach value 0 is below 1/2
    assert len(cands) == 1
    assert cands[0].labeling[Atom("a")] == frozenset({0})
    assert cands[0].labeling[f] == frozenset({0})


def test_enumerate_sizes():
    sizes = {c.size for c in enumerate_candidates(Atom("a"), 2)}
    assert sizes == {1, 2}


def test_enumerate_boolean_propagation():
    f = pf("a & !b")
    for c in enumerate_candidates(f, 2):
        assert c.consistent() == []
        want = c.labeling[Atom("a")] & (frozenset(range(c.size))
                                        - c.labeling[Atom("b")])
        assert c.labeling[f] == want
        assert c.labeling[f]


def _edges(succ):
    return tuple((i, j) for i in range(len(succ)) for j in range(len(succ))
                 if succ[i] >> j & 1)


def _labeled_keys(f):
    keys = set(iter_subformulas(f))
    return keys | {Atom(g.name) for g in keys if isinstance(g, NegAtom)}


def _relabelings(size):
    # every permutation of the vertices that fixes vertex 0
    return [(0, *rest) for rest in itertools.permutations(range(1, size))]


def _relabel(succ, p):
    # the graph with vertex v renamed p[v]
    moved = [0] * len(succ)
    for v, mask in enumerate(succ):
        moved[p[v]] = sum(1 << p[w] for w in range(len(succ)) if mask >> w & 1)
    return tuple(moved)


def test_graph_counts_pinned():
    # rooted digraphs with out-degree >= 1 up to relabelings fixing the root
    # (the full products have 1, 9, 343 and 50,625)
    assert [len(list(_graphs(n))) for n in (1, 2, 3, 4)] == [1, 6, 112, 5856]


def test_graphs_are_one_rooted_canonical_graph_per_class():
    # reference: the least relabeling of every digraph whose vertex 0
    # reaches every vertex, in lexicographic order
    for size in (1, 2, 3):
        full = (1 << size) - 1
        perms = _relabelings(size)
        want = sorted({min(_relabel(succ, p) for p in perms)
                       for succ in all_graphs(size)
                       if states_reachable_from(succ, 1) == full})
        assert list(_graphs(size)) == want, size
    # at size 4, the orbits under the six relabelings are disjoint and
    # cover every rooted digraph
    perms = _relabelings(4)
    covered = set()
    for succ in _graphs(4):
        orbit = {_relabel(succ, p) for p in perms}
        assert min(orbit) == succ and not orbit & covered
        covered |= orbit
    assert covered == {succ for succ in all_graphs(4)
                       if states_reachable_from(succ, 1) == 15}


def test_enumeration_is_every_consistent_unrefuted_candidate():
    # reference: every labeling of every key on every graph, kept when the
    # Boolean rules hold and the interval screen does not refute it; that is
    # the full enumeration, and the library's stream is the part of it on
    # the rooted canonical graphs whose vertex 0 carries the formula
    rng = random.Random(127)
    formulas = []
    while len(formulas) < 12:
        f = f_normal_form(random_core_formula(rng, depth=3))
        if 3 <= len(_labeled_keys(f)) <= 6 and f not in formulas:
            formulas.append(f)
    rooted = {_edges(succ) for size in (1, 2) for succ in _graphs(size)}
    kept = 0
    for f in formulas:
        keys = sorted(_labeled_keys(f), key=str)
        want = set()
        for size in (1, 2):
            subsets = [frozenset(v for v in range(size) if mask >> v & 1)
                       for mask in range(1 << size)]
            for sets in itertools.product(subsets, repeat=len(keys)):
                labeling = dict(zip(keys, sets))
                # the Boolean rules do not depend on the edges
                if ETRCandidate(size, (), labeling, f).consistent():
                    continue
                for succ in all_graphs(size):
                    c = ETRCandidate(size, _edges(succ), labeling, f)
                    if not interval_refuted(encode(c)):
                        want.add((size, c.edges, frozenset(labeling.items())))
        full = [(c.size, c.edges, frozenset(c.labeling.items()))
                for c in reference_candidates(f, 2)]
        assert len(full) == len(set(full)), f
        assert set(full) == want, f
        got = [(c.size, c.edges, frozenset(c.labeling.items()))
               for c in enumerate_candidates(f, 2)]
        assert len(got) == len(set(got)), f
        assert set(got) == {(size, edges, labeling)
                            for size, edges, labeling in want
                            if edges in rooted and 0 in dict(labeling)[f]}, f
        kept += len(got)
    assert kept > 0


def _stream_figures(candidates, result):
    h = hashlib.sha256()
    emitted = 0
    for c in candidates:
        emitted += 1
        h.update(repr((c.size, c.edges, sorted(
            (str(k), sorted(v)) for k, v in c.labeling.items()))).encode())
    return emitted, result.refuted, h.hexdigest()[:16]


# the rooted stream at bound 3: emitted, refuted, digest
ROOTED_STREAM = {
    "b & F>=1/2[G>=3/4[b]]": (159, 12828, "002a07a052d00f42"),
    "F>=1/4[F>=3/4[F>=3/4[a]]]": (859, 19470, "d7a4cbd628e893b5"),
    "G>=1/5[F=1[b] | b]": (721, 12688, "8713b8d96a3f559e"),
    "F>=3/4[b] & F>1/2[F>0[b]]": (811, 19350, "92c50bbcf42dd39c"),
    "F>=1/4[F>0[G=1[!a]]]": (205, 19038, "fc45f3471781cc4b"),
}


@pytest.mark.parametrize("text, count, refuted, digest", [
    # the full enumeration over every digraph, as measured with the
    # formula-keyed enumeration it replaced
    ("b & F>=1/2[G>=3/4[b]]", 971, 39116, "1aa3f2c573dbc9a1"),
    ("F>=1/4[F>=3/4[F>=3/4[a]]]", 2681, 59466, "65aa5999d7c25b7c"),
    ("G>=1/5[F=1[b] | b]", 2059, 38624, "de850b9371f48696"),
    ("F>=3/4[b] & F>1/2[F>0[b]]", 2513, 59046, "0150669e3eb4b26c"),
    ("F>=1/4[F>0[G=1[!a]]]", 863, 57954, "cb4cee25ae239e7e"),
])
def test_stream_pinned_at_bound_three(text, count, refuted, digest):
    # the first seeded core formulas (Random(151), depth 3) with at least
    # two F-subformulas and at most five labeled keys after normalization;
    # the parameters pin the reference stream, ROOTED_STREAM the library's
    f = f_normal_form(pf(text))
    result = SatSearchResult("unknown")
    assert _stream_figures(reference_candidates(f, 3, result), result) == \
        (count, refuted, digest)
    result = SatSearchResult("unknown")
    assert _stream_figures(enumerate_candidates(f, 3, _result=result),
                           result) == ROOTED_STREAM[text]


def test_enumeration_deterministic():
    f = f_normal_form(pf("F>=1/2[a] | !b"))

    def snapshot():
        return [
            (c.size, c.edges,
             tuple(sorted((str(k), tuple(sorted(v)))
                          for k, v in c.labeling.items())))
            for c in enumerate_candidates(f, 2)
        ]

    assert snapshot() == snapshot()


# -- encoding and the exact assignment oracle --------------------------------

def fig1_candidate_and_truth(formula):
    chain = fig1_chain()
    normal = f_normal_form(formula)
    candidate = candidate_from_chain(chain, normal)
    pos = {s: i for i, s in enumerate(chain.states)}
    truth = {(pos[a], pos[b]): p for a, b, p in chain.edges()}
    return chain, candidate, truth


def test_encode_shape_running_example(psi):
    _, candidate, _ = fig1_candidate_and_truth(psi)
    system = encode(candidate)
    assert len(system.edges) == 4
    assert len(system.blocks) == 5
    assert system.constraint_count() >= 4 + 3 + 5 * 3


def test_check_assignment_running_example(psi):
    _, candidate, truth = fig1_candidate_and_truth(psi)
    assert check_assignment(encode(candidate), truth)


def test_check_assignment_rejects_perturbed(psi):
    chain, candidate, truth = fig1_candidate_and_truth(psi)
    pos = {s: i for i, s in enumerate(chain.states)}
    bad = dict(truth)
    bad[(pos["t"], pos["s"])] = Fraction(1, 100)
    bad[(pos["t"], pos["u"])] = Fraction(99, 100)
    assert not check_assignment(encode(candidate), bad)


def test_check_assignment_validates_input(psi):
    _, candidate, truth = fig1_candidate_and_truth(psi)
    system = encode(candidate)
    bad = dict(truth)
    bad[next(iter(bad))] = Fraction(2)
    with pytest.raises(ValueError):
        check_assignment(system, bad)


def test_degenerate_block_everything_labeled():
    # V(body) = V collapses the block to constant reach value 1
    f = pf("F=1[a]")
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {"s": ["a"]})
    candidate = candidate_from_chain(chain, f)
    system = encode(candidate)
    block = system.blocks[0]
    assert block.out_set == frozenset() and block.other == ()
    assert check_assignment(system, {(0, 0): Fraction(1)})


def test_contradictory_block_interval_refuted():
    f = f_normal_form(pf("F=1[a] & G=1[!a]"))
    chain = MarkovChain(
        ["s", "t"],
        {("s", "t"): Fraction(1), ("t", "t"): Fraction(1)},
        {"t": ["a"]},
    )
    candidate = candidate_from_chain(chain, f)
    # force the contradictory labeling: both conjuncts at vertex 0
    labeling = dict(candidate.labeling)
    for g in list(labeling):
        if isinstance(g, Prob) or isinstance(g, And):
            labeling[g] = frozenset({0})
    forced = type(candidate)(candidate.size, candidate.edges, labeling, f)
    assert interval_refuted(encode(forced))


def test_encoding_faithfulness_randomized():
    # the induced candidate with the true probabilities passes the oracle
    # exactly when every F-subformula label matches the true satisfaction set
    rng = random.Random(109)
    agreeing = disagreeing = 0
    while agreeing < 100 or disagreeing < 100:
        chain = random_chain(rng, max_states=4)
        f = f_normal_form(random_core_formula(rng, depth=3))
        f_nodes = [g for g in set(iter_subformulas(f)) if isinstance(g, Prob)]
        if not f_nodes:
            continue
        mc = ModelChecker(chain)
        candidate = candidate_from_chain(chain, f)
        pos = {s: i for i, s in enumerate(chain.states)}
        truth = {(pos[a], pos[b]): p for a, b, p in chain.edges()}
        mutate = rng.random() < 0.5
        if mutate:
            labeling = dict(candidate.labeling)
            victim = f_nodes[rng.randrange(len(f_nodes))]
            flip = rng.randrange(len(chain.states))
            labeling[victim] = labeling[victim] ^ {flip}
            candidate = type(candidate)(candidate.size, candidate.edges,
                                        labeling, f)
        labels_agree = all(
            candidate.labeling[g] == frozenset(pos[s] for s in mc.sat_set(g))
            for g in f_nodes)
        confirmed = check_assignment(encode(candidate), truth) is not None
        assert confirmed == labels_agree
        if labels_agree:
            agreeing += 1
        else:
            disagreeing += 1


def test_unique_block_solution_matches_model_checker():
    rng = random.Random(113)
    for _ in range(60):
        chain = random_chain(rng, max_states=4)
        f = f_normal_form(random_core_formula(rng, depth=2))
        if not any(isinstance(g, Prob) for g in iter_subformulas(f)):
            continue
        candidate = candidate_from_chain(chain, f)
        pos = {s: i for i, s in enumerate(chain.states)}
        truth = {(pos[a], pos[b]): p for a, b, p in chain.edges()}
        system = encode(candidate)
        assert check_assignment(system, truth)


# -- bounded satisfiability --------------------------------------------------

def test_contradiction_refuted_by_intervals():
    contra = pf("F=1[a] & G=1[!a]")
    for n in (1, 2, 3):
        result = solve_bounded_sat(contra, n)
        assert result.status == "unsat-up-to-n"
        assert result.solver_calls == 0


def test_psi_unsat_at_two(psi):
    result = solve_bounded_sat(psi, 2)
    assert result.status == "unsat-up-to-n"
    assert result.solver_calls == 0


# the rooted search: candidates, refuted
ROOTED_SEARCH = {
    "F=1[a] & G=1[!a]": (0, 12692),
    PSI_TEXT: (0, 370),
    "F>1/2[a] & !a": (1, 11),
    "F>=0.5[a & F>=0.2[!a]] & !a & b": (1, 68),
}


@pytest.mark.parametrize("text, bound, status, candidates, refuted", [
    # the full enumeration's search (reference_search)
    ("F=1[a] & G=1[!a]", 3, "unsat-up-to-n", 0, 38636),
    (PSI_TEXT, 2, "unsat-up-to-n", 0, 550),
    ("F>1/2[a] & !a", 2, "sat", 1, 8),
    ("F>=0.5[a & F>=0.2[!a]] & !a & b", 2, "sat", 1, 338),
])
def test_search_counts_pinned(text, bound, status, candidates, refuted):
    # the parameters pin the reference search, ROOTED_SEARCH the library's,
    # which reaches the same verdict
    reference = reference_search(pf(text), bound)
    assert (reference.status, reference.candidates, reference.refuted) == \
        (status, candidates, refuted)
    result = solve_bounded_sat(pf(text), bound)
    assert (result.status, result.candidates, result.refuted) == \
        (status, *ROOTED_SEARCH[text])


def test_verdicts_match_the_full_enumeration():
    # rooting the graphs at the formula's state and trying one graph per
    # isomorphism class changes no verdict: seeded formulas at every bound
    # up to 3, against the search over every digraph; conjunctions of two
    # random formulas give all three verdicts
    rng = random.Random(157)
    seen = set()
    verdicts = {"sat": 0, "unsat-up-to-n": 0, "unknown": 0}
    while len(seen) < 60:
        f = conj([random_core_formula(rng, depth=2) for _ in range(2)])
        if f in seen or len(_labeled_keys(f_normal_form(f))) > 6:
            continue
        seen.add(f)
        for n in (1, 2, 3):
            want = reference_search(f, n).status
            assert solve_bounded_sat(f, n).status == want, (str(f), n)
            verdicts[want] += 1
    assert all(verdicts.values()), verdicts


def test_one_checker_per_tried_assignment(monkeypatch):
    # the checker that confirms an assignment also re-verifies its chain
    built = []
    real = pctlfg.etr.ModelChecker

    def counting(chain):
        built.append(chain)
        return real(chain)

    monkeypatch.setattr(pctlfg.etr, "ModelChecker", counting)
    for text, bound in (("F>1/2[a] & !a", 2), ("!a & F>1/3[a] & G>1/2[!a]", 3),
                        ("F>=0.5[a & F>=0.2[!a]] & !a & b", 2)):
        built.clear()
        result = solve_bounded_sat(pf(text), bound)
        assert len(built) == result.candidates > 0, text
        if result.status == "sat":
            assert result.model is built[-1]


def test_unknown_without_backend():
    # the reach value of a from v1 must lie in (1/3, 1/2), which no
    # surviving candidate's uniform assignment gives
    result = solve_bounded_sat(pf("!a & F>1/3[a] & G>1/2[!a]"), 3)
    assert result.status == "unknown"
    assert result.candidates > 0
    assert result.solver_calls == 0


def test_uniform_witness_without_backend():
    f = pf("F>1/2[a] & !a")
    result = solve_bounded_sat(f, 2)
    assert result.status == "sat"
    assert result.solver_calls == 0
    assert validate(result.model) == []
    assert ModelChecker(result.model).holds(result.entry, f)


def test_mask_screen_matches_vertex_reference():
    # every graph with at most 3 vertices, every body set, every label set
    # and every comparison against 0, 1/3, 1/2 and 1; the screen reads a
    # graph only through its block's body, cut-off and sure sets, so each
    # distinct triple is compared once
    nodes = [Prob(PathOp.F, cmp, r, Atom("a")) for cmp in Cmp
             for r in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))]
    seen = set()
    refuted = kept = 0
    for size in (1, 2, 3):
        subsets = [frozenset(v for v in range(size) if m >> v & 1)
                   for m in range(1 << size)]
        for succ in all_graphs(size):
            pred = predecessor_masks(succ)
            for body in subsets:
                b = _block(pred, nodes[0], body, frozenset())
                sure = sure_vertices(pred, body)
                if (size, body, b.out_set, sure) in seen:
                    continue
                seen.add((size, body, b.out_set, sure))
                for node, in_set in itertools.product(nodes, subsets):
                    block = CorrectnessBlock(node, body, b.out_set, b.other,
                                             in_set)
                    want = reference_block_refuted(size, block, sure)
                    assert block_interval_contradiction(size, block, sure) \
                        == want, (size, succ, block)
                    refuted += want
                    kept += not want
    assert refuted > 0 and kept > 0


def test_screen_never_refutes_a_real_model():
    # a chain's own labeling meets every block's prob0/prob1 pattern
    rng = random.Random(131)
    blocks = 0
    for _ in range(400):
        chain = random_chain(rng, max_states=3)
        f = f_normal_form(random_core_formula(rng, depth=3))
        system = encode(candidate_from_chain(chain, f))
        blocks += len(system.blocks)
        assert not interval_refuted(system), (chain.to_json(), f)
    assert blocks > 400


def _qualitative_formula(rng, depth):
    # core formulas whose F-normal bounds are all 0 or 1
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice("ab")
        return Atom(name) if rng.random() < 0.6 else NegAtom(name)
    kind = rng.choice(("and", "or", "prob", "prob"))
    if kind != "prob":
        args = [_qualitative_formula(rng, depth - 1) for _ in range(2)]
        return conj(args) if kind == "and" else disj(args)
    cmp, bound = rng.choice(((Cmp.GE, Fraction(1)), (Cmp.GT, Fraction(0))))
    return Prob(rng.choice((PathOp.F, PathOp.G)), cmp, bound,
                _qualitative_formula(rng, depth - 1))


def test_qualitative_survivors_hold_uniformly():
    # with bounds 0 and 1 the screen is exact: every survivor is a model
    # under the uniform assignment, so the search is never unknown
    rng = random.Random(137)
    survivors = 0
    for _ in range(40):
        f = _qualitative_formula(rng, depth=3)
        for candidate in enumerate_candidates(f_normal_form(f), 2):
            system = encode(candidate)
            assert check_assignment(system, uniform_assignment(system)), f
            survivors += 1
        for n in (1, 2):
            assert solve_bounded_sat(f, n).status != "unknown", (f, n)
    assert survivors > 0


def test_planted_formulas_not_refuted():
    # a formula holding in a chain of at most 2 states has a model within
    # the bound, so the search may not answer unsat-up-to-n
    rng = random.Random(139)
    found = 0
    for _ in range(40):
        while True:
            chain = random_chain(rng, max_states=2)
            f = random_core_formula(rng, depth=2)
            if ModelChecker(chain).sat_set(f):
                break
        result = solve_bounded_sat(f, 2)
        assert result.status != "unsat-up-to-n", (chain.to_json(), f)
        if result.status == "sat":
            found += 1
            assert validate(result.model) == []
            assert len(result.model.states) <= 2
            assert ModelChecker(result.model).holds(result.entry, f)
    assert found > 0


def test_reconstruction_round_trip(psi):
    # the confirming checker's chain is fig1 renamed v1..v3, atoms included
    chain, candidate, truth = fig1_candidate_and_truth(psi)
    mc = check_assignment(encode(candidate), truth)
    rebuilt = mc.chain
    assert validate(rebuilt) == []
    assert rebuilt.states == ("v1", "v2", "v3")
    assert [rebuilt.atoms(s) for s in rebuilt.states] == \
        [chain.atoms(s) for s in chain.states]
    assert mc.holds("v1", psi)  # s is the only vertex labeled with psi


def test_dump_smt(tmp_path):
    result = solve_bounded_sat(pf("F>1/2[a] & !a"), 2,
                               dump_dir=str(tmp_path), emit_only=True)
    files = sorted(tmp_path.glob("*.smt2"))
    assert len(files) == result.candidates > 0
    text = files[0].read_text()
    assert text.startswith("(set-logic QF_NRA)")
    assert "(check-sat)" in text and "(get-value" in text


def test_smt_text_structure(psi):
    _, candidate, _ = fig1_candidate_and_truth(psi)
    text = smt_text(encode(candidate))
    assert text.count("declare-const x") == 4
    assert text.count("declare-const y") == 5 * 3
    assert "(assert (= (+ x2 x3) 1))" in text


# -- the backend bridge ------------------------------------------------------

MOCK_BACKEND = """
import sys

mode = sys.argv[1]
path = sys.argv[2]
if mode == "sat":
    print("sat")
    print("((x1 1) (x2 (/ 3 5)) (x3 (/ 2 5)) (x4 1.0))")
elif mode == "unsat":
    print("unsat")
elif mode == "unknown":
    print("unknown")
elif mode == "hang":
    import time
    time.sleep(60)
else:
    print("garbled nonsense")
"""


@pytest.fixture
def mock_backend(tmp_path):
    script = tmp_path / "mock_solver.py"
    script.write_text(MOCK_BACKEND)

    def make(mode, timeout=10.0):
        return SolverBackend(
            f"{sys.executable} {script} {mode} {{file}}", timeout=timeout)

    return make


def test_backend_parses_sat_values(mock_backend):
    verdict, values = mock_backend("sat").solve("(check-sat)\n")
    assert verdict == "sat"
    assert values["x2"] == Fraction(3, 5)
    assert values["x4"] == 1


def test_backend_unsat_and_unknown(mock_backend):
    assert mock_backend("unsat").solve("x")[0] == "unsat"
    assert mock_backend("unknown").solve("x")[0] == "unknown"


def test_backend_timeout(mock_backend):
    verdict, _ = mock_backend("hang", timeout=0.5).solve("x")
    assert verdict == "timeout"


def test_backend_protocol_error(mock_backend):
    with pytest.raises(BackendError):
        mock_backend("garbage").solve("x")


def test_backend_launch_error():
    backend = SolverBackend("definitely-not-a-real-solver {file}")
    with pytest.raises(BackendError):
        backend.solve("x")


CANNED_BACKEND = r"""
import re
import sys

values = []
for row in re.findall(r"\(assert \(= \(\+ ([x\d ]+)\) 1\)\)", open(sys.argv[1]).read()):
    first, *rest = row.split()
    values.append(f"({first} (/ 2 3))" if rest else f"({first} 1)")
    values += [f"({x} (/ 1 {3 * len(rest)}))" for x in rest]
print("sat")
print(f"({' '.join(values)})")
"""


# the reach value of a from vertex 0 must lie in (0, 1/2); on 3 vertices
# that takes an a-vertex and a cut-off vertex next to vertex 0, where the
# uniform assignment gives exactly 1/2, and the first candidate the
# backends answer gives 2/3 to the a-vertex
SOLVER_PATH_FORMULA = "!a & F>0[a] & G>1/2[!a]"


def test_solver_path_end_to_end(tmp_path):
    # a canned subprocess backend that gives each vertex's first edge 2/3
    # and splits the rest equally, read from the row-sum assertions; the
    # uniform assignment misses this formula at bound 3 (see
    # test_solver_path_after_uniform_miss), so the backend decides it, and
    # the driver must reject non-confirming answers until one verifies
    f = pf(SOLVER_PATH_FORMULA)
    script = tmp_path / "canned.py"
    script.write_text(CANNED_BACKEND)
    backend = SolverBackend(f"{sys.executable} {script} {{file}}")
    result = solve_bounded_sat(f, 3, backend=backend)
    assert result.status == "sat"
    assert result.solver_calls > 1
    assert validate(result.model) == []
    assert ModelChecker(result.model).holds(result.entry, f)
    assert len(result.model.states) <= 3


class _SkewedBackend:
    """In-process stand-in for a solver: answers every system with the
    assignment that gives each vertex's first edge 2/3 and splits the rest
    equally, read from the row-sum assertions."""

    def __init__(self):
        self.calls = 0

    def solve(self, text):
        self.calls += 1
        values = {}
        for row in re.findall(r"\(assert \(= \(\+ ([x\d ]+)\) 1\)\)", text):
            first, *rest = row.split()
            values[first] = Fraction(2, 3) if rest else Fraction(1)
            for name in rest:
                values[name] = Fraction(1, 3 * len(rest))
        return "sat", values


def test_solver_path_after_uniform_miss():
    # no uniform assignment on 3 vertices gives a reach value in (0, 1/2)
    # (see SOLVER_PATH_FORMULA); the backend's answers are confirmed
    # exactly and the non-confirming ones rejected until one verifies
    f = pf(SOLVER_PATH_FORMULA)
    assert solve_bounded_sat(f, 3).status == "unknown"
    backend = _SkewedBackend()
    result = solve_bounded_sat(f, 3, backend=backend)
    assert result.status == "sat"
    assert result.solver_calls == backend.calls > 1
    assert validate(result.model) == []
    assert ModelChecker(result.model).holds(result.entry, f)


def test_small_compressed_models_are_found_by_bounded_sat():
    # the small-model side meets the bounded search: a compressed model with
    # k <= 3 states is a model of size k, so the search up to k must not
    # refute every candidate
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        chain, state, f, _ = satisfied_instance(rng, max_states=5, depth=3)
        fragment = "l2" if fragment_classify(f).in_l2 else "generic"
        model, _, _ = compress_model(chain, state, f, fragment=fragment, max_n=2)
        k = len(model.states)
        if k <= 3:
            assert solve_bounded_sat(f, k).status != "unsat-up-to-n", (str(f), k)
            checked += 1
    assert checked > 250
