import errno
import hashlib
import itertools
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

import pytest

from helpers import (
    PSI_TEXT, all_graphs, block_interval_contradiction, candidate_from_chain,
    constraint_count, fig1_chain, labeling_violations, random_chain,
    random_core_formula, reference_block_refuted, reference_candidates,
    reference_check_assignment, reference_search, satisfied_instance,
    sure_vertices,
)

import pctlfg.etr
from pctlfg.cli import main
from pctlfg.etr import (
    BackendError, ETRCandidate, SatSearchResult,
    SolverBackend, _choice_order, _graphs, _implies, _parse_sexprs,
    _rationalize, _required, _root_clash, check_assignment, encode,
    enumerate_candidates,
    f_normal_form, interval_refuted, read_solver_output, smt_text,
    solve_bounded_sat, uniform_assignment,
)
from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, PathFormula, PathOp, Prob, conj, disj,
    fragment_classify, is_trivial_bound, iter_subformulas, normalize,
    parse_formula,
)
from pctlfg.markov import (
    MarkovChain, indices, predecessor_masks, prob01, states_reachable_from,
    validate,
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
    assert c.succ == (1,)
    assert c.labeling[Atom("a")] == 1
    assert labeling_violations(c, Atom("a")) == []


def test_enumerate_simple_eventuality():
    f = pf("F>=1/2[a]")
    cands = list(enumerate_candidates(f, 1))
    # V(F>=1/2 a) must be {v1}; V(a) = {} is screened out, since no vertex
    # reaches a and the reach value 0 is below 1/2
    assert len(cands) == 1
    assert cands[0].labeling[Atom("a")] == 1
    assert cands[0].labeling[f] == 1


def test_enumerate_sizes():
    sizes = {c.size for c in enumerate_candidates(Atom("a"), 2)}
    assert sizes == {1, 2}


def test_enumerate_boolean_propagation():
    f = pf("a & !b")
    for c in enumerate_candidates(f, 2):
        assert labeling_violations(c, f) == []
        want = c.labeling[Atom("a")] & ~c.labeling[Atom("b")]
        assert c.labeling[f] == want
        assert c.labeling[f]


def test_consistent_names_each_violated_rule():
    f = pf("(a | !b) & c")
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    union = disj([a, NegAtom("b")])
    good = {a: 0b01, b: 0b01, NegAtom("b"): 0b10, union: 0b11, c: 0b01, f: 0b01}
    succ = (0b11, 0b10)
    assert labeling_violations(encode(succ, good), f) == []
    for changed, problem in [
        ({NegAtom("b"): 0b11}, "labeling of !b is not the complement"),
        ({f: 0b11}, f"labeling of {f} is not the intersection"),
        ({union: 0b01}, f"labeling of {union} is not the union"),
        ({c: 0, f: 0}, "whole-formula label set is empty"),
    ]:
        candidate = encode(succ, {**good, **changed})
        assert labeling_violations(candidate, f) == [problem], changed


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
    rooted = {succ for size in (1, 2) for succ in _graphs(size)}
    kept = 0
    for f in formulas:
        keys = sorted(_labeled_keys(f), key=str)
        want = set()
        for size in (1, 2):
            for sets in itertools.product(range(1 << size), repeat=len(keys)):
                labeling = dict(zip(keys, sets))
                # the Boolean rules read the graph's size, not its edges
                if labeling_violations(encode((0,) * size, labeling), f):
                    continue
                for succ in all_graphs(size):
                    if not interval_refuted(encode(succ, labeling)):
                        want.add((succ, frozenset(labeling.items())))
        full = [(c.succ, frozenset(c.labeling.items()))
                for c in reference_candidates(f, 2)]
        assert len(full) == len(set(full)), f
        assert set(full) == want, f
        got = [(c.succ, frozenset(c.labeling.items()))
               for c in enumerate_candidates(f, 2)]
        assert len(got) == len(set(got)), f
        assert set(got) == {(succ, labeling) for succ, labeling in want
                            if succ in rooted and dict(labeling)[f] & 1}, f
        kept += len(got)
    assert kept > 0


def _stream_figures(candidates, result):
    h = hashlib.sha256()
    emitted = 0
    for c in candidates:
        emitted += 1
        # edge lists and vertex lists: the text the pinned digests were taken on
        h.update(repr((c.size, _edges(c.succ), sorted(
            (str(k), indices(v)) for k, v in c.labeling.items()))).encode())
    return emitted, result.refuted, h.hexdigest()[:16]


# the rooted stream at bound 3: emitted, refuted, digest
ROOTED_STREAM = {
    "b & F>=1/2[G>=3/4[b]]": (159, 7221, "002a07a052d00f42"),
    "F>=1/4[F>=3/4[F>=3/4[a]]]": (859, 19605, "d7a4cbd628e893b5"),
    "G>=1/5[F=1[b] | b]": (721, 12893, "8713b8d96a3f559e"),
    "F>=3/4[b] & F>1/2[F>0[b]]": (811, 17655, "92c50bbcf42dd39c"),
    "F>=1/4[F>0[G=1[!a]]]": (205, 19755, "fc45f3471781cc4b"),
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
            (c.succ, tuple(sorted((str(k), v) for k, v in c.labeling.items())))
            for c in enumerate_candidates(f, 2)
        ]

    assert snapshot() == snapshot()


def test_blocks_follow_the_step_order():
    # every emitted candidate's labeling lists its F-subformulas, the
    # blocks, bottom-up, as the step order does
    f = f_normal_form(pf("F>1/2[F>0[a] & b] & G>0[!b | a]"))
    want = [node for node, _ in _choice_order(f) if isinstance(node, Prob)]
    assert len(want) == 3
    candidates = list(enumerate_candidates(f, 2))
    assert candidates
    for c in candidates:
        assert [g for g in c.labeling if isinstance(g, Prob)] == want


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
    assert len(candidate.edges) == 4
    assert sum(isinstance(g, Prob) for g in candidate.labeling) == 5
    assert constraint_count(candidate) >= 4 + 3 + 5 * 3


def test_check_assignment_running_example(psi):
    _, candidate, truth = fig1_candidate_and_truth(psi)
    assert check_assignment(candidate, truth)


def test_check_assignment_rejects_perturbed(psi):
    chain, candidate, truth = fig1_candidate_and_truth(psi)
    pos = {s: i for i, s in enumerate(chain.states)}
    bad = dict(truth)
    bad[(pos["t"], pos["s"])] = Fraction(1, 100)
    bad[(pos["t"], pos["u"])] = Fraction(99, 100)
    assert not check_assignment(candidate, bad)


def test_check_assignment_validates_input(psi):
    _, candidate, truth = fig1_candidate_and_truth(psi)
    bad = dict(truth)
    bad[next(iter(bad))] = Fraction(2)
    with pytest.raises(ValueError):
        check_assignment(candidate, bad)


# vertex 0 has edges to 0 and 1, vertex 1 a self-loop
@pytest.mark.parametrize("assignment", [
    {(0, 0): Fraction(1, 2), (1, 1): Fraction(1)},  # an edge is missing
    {(0, 0): Fraction(1), (0, 1): Fraction(0), (1, 1): Fraction(1)},
    {(0, 0): Fraction(-1), (0, 1): Fraction(2), (1, 1): Fraction(1)},
    {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1)},
], ids=["missing edge", "zero edge", "edge above one", "row sum"])
def test_check_assignment_rejects_a_non_chain(assignment):
    candidate = ETRCandidate((0b11, 0b10), {})
    assert candidate.edges == ((0, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        check_assignment(candidate, assignment)


def test_degenerate_block_everything_labeled():
    # V(body) = V collapses the block to constant reach value 1
    f = pf("F=1[a]")
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {"s": ["a"]})
    candidate = candidate_from_chain(chain, f)
    (g,) = [g for g in candidate.labeling if isinstance(g, Prob)]
    assert (candidate.labeling[g.body], candidate.labeling[g]) == (1, 1)
    # the cut-off set is empty: no reach variable is pinned to 0
    text = smt_text(candidate)
    assert "(assert (= y1_1 1))" in text
    assert not re.search(r"\(assert \(= y\d+_\d+ 0\)\)", text)
    assert check_assignment(candidate, {(0, 0): Fraction(1)})


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
            labeling[g] = 1
    assert interval_refuted(encode(candidate.succ, labeling))


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
            labeling[victim] ^= 1 << flip
            candidate = encode(candidate.succ, labeling)
        labels_agree = all(candidate.labeling[g] == mc.sat_mask(g)
                           for g in f_nodes)
        confirmed = check_assignment(candidate, truth) is not None
        assert confirmed == labels_agree
        if labels_agree:
            agreeing += 1
        else:
            disagreeing += 1


def test_unique_block_solution_matches_model_checker():
    # a chain's own labeling is confirmed, as the per-block rule confirms it
    rng = random.Random(113)
    for _ in range(60):
        chain = random_chain(rng, max_states=4)
        f = f_normal_form(random_core_formula(rng, depth=2))
        if not any(isinstance(g, Prob) for g in iter_subformulas(f)):
            continue
        candidate = candidate_from_chain(chain, f)
        pos = {s: i for i, s in enumerate(chain.states)}
        truth = {(pos[a], pos[b]): p for a, b, p in chain.edges()}
        assert check_assignment(candidate, truth)
        assert reference_check_assignment(candidate, truth)


_A, _B = Atom("a"), Atom("b")
_REACH_A = Prob(PathOp.F, Cmp.GT, Fraction(0), _A)


@pytest.mark.parametrize("succ, labeling, wrong", [
    # one self-looping vertex labeled a: !a is false there
    ((0b1,), {_A: 0b1, NegAtom("a"): 0b1}, {NegAtom("a"): 0b0}),
    # v1 -> v2, v2 loops; b holds at v1 and a at v2, so F>0[a] holds at
    # both and b & F>0[a] at v1 alone; the F-subformula's own set is right
    ((0b10, 0b10), {_A: 0b10, _B: 0b01, _REACH_A: 0b11,
                    conj([_B, _REACH_A]): 0b11},
     {conj([_B, _REACH_A]): 0b01}),
], ids=["negated atom", "conjunction"])
def test_confirming_means_the_labeling_is_the_chains_truth(
        succ, labeling, wrong):
    # a wrong Boolean label set is not confirmed, though every F-subformula
    # block passes; with the set corrected the same chain confirms
    candidate = encode(succ, labeling)
    assignment = uniform_assignment(candidate)
    assert check_assignment(candidate, assignment) is None
    assert reference_check_assignment(candidate, assignment) is not None
    fixed = encode(succ, {**labeling, **wrong})
    assert check_assignment(fixed, assignment) is not None


def _perturbed_assignment(rng, candidate):
    # positive weights 1..4 on each vertex's edges, normalized per vertex
    weights = {e: rng.randint(1, 4) for e in candidate.edges}
    totals = [0] * candidate.size
    for (i, _), w in weights.items():
        totals[i] += w
    return {(i, j): Fraction(w, totals[i]) for (i, j), w in weights.items()}


def _equivalence_streams():
    # the ROOTED_STREAM formulas' streams at bound 3 and those of 100
    # seeded core formulas with an F-subformula and some candidate at
    # bound 2, which keeps the test to a few seconds
    for text in ROOTED_STREAM:
        f = f_normal_form(pf(text))
        yield f, enumerate_candidates(f, 3)
    rng = random.Random(157)
    seen = set()
    taken = 0
    while taken < 100:
        f = f_normal_form(random_core_formula(rng, depth=3))
        if f in seen or not any(isinstance(g, Prob)
                                for g in iter_subformulas(f)):
            continue
        seen.add(f)
        stream = list(enumerate_candidates(f, 2))
        if stream:
            taken += 1
            yield f, stream


def test_check_assignment_agrees_with_the_per_block_rule():
    # on enumerated candidates every Boolean set is derived from the atom
    # and F-subformula sets, so asking the checker for every label set
    # confirms exactly what comparing each F block's reach values did
    rng = random.Random(163)
    candidates = confirmed = 0
    for f, stream in _equivalence_streams():
        for candidate in stream:
            candidates += 1
            for assignment in (uniform_assignment(candidate),
                               _perturbed_assignment(rng, candidate)):
                verdict = check_assignment(candidate, assignment) is not None
                assert verdict == (reference_check_assignment(
                    candidate, assignment) is not None), (f, candidate)
                confirmed += verdict
    assert 0 < confirmed < 2 * candidates


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


@pytest.mark.parametrize("text", [
    # contradictions that no block's screen sees alone: each bounds the
    # reach value of one body at vertex 0 from below and of the same body,
    # or of one it implies, from above (F<=1/4[a] & G<1/4[!a] is
    # F<=1/4[a] & F>3/4[a] in F-normal form)
    "G<3/5[a] & G>=3/5[a]",
    "F<=1/4[a] & G<1/4[!a]",
    "F>1/2[a] & F<1/2[a]",
    "G<1/4[!b] & G>=1/2[!b]",
    "F>1/4[a & b] & F<1/4[b]",
])
def test_clashing_bounds_refute_the_search(capsys, monkeypatch, text):
    # refuted before any graph: no candidate, no solver call
    result = solve_bounded_sat(pf(text), 3)
    assert (result.status, result.candidates, result.solver_calls,
            result.refuted) == ("unsat-up-to-n", 0, 0, 1)
    monkeypatch.delenv("PCTLFG_SOLVER", raising=False)
    assert main(["sat", "--formula", text, "--bound", "3"]) == 1
    assert capsys.readouterr().out.strip() == "unsat-up-to-n"


def test_a_root_clash_compiles_no_step_table(monkeypatch):
    def unreachable(f):
        raise AssertionError("a root clash needs no step table")

    monkeypatch.setattr(pctlfg.etr, "_choice_order", unreachable)
    result = solve_bounded_sat(pf("F=1[a] & G=1[!a]"), 5)
    assert (result.status, result.candidates, result.refuted) == (
        "unsat-up-to-n", 0, 1)


def test_the_step_order_is_built_once_per_search(monkeypatch):
    # the candidates' blocks are read off their labelings, so a search that
    # emits 16 candidates builds the step order once, to compile the steps
    calls = []
    order = pctlfg.etr._choice_order

    def counting(f):
        calls.append(f)
        return order(f)

    monkeypatch.setattr(pctlfg.etr, "_choice_order", counting)
    result = solve_bounded_sat(pf(SOLVER_PATH_FORMULA), 3)
    assert (result.status, result.candidates) == ("unknown", 16)
    assert len(calls) == 1


def test_bound_below_one_is_rejected():
    for search in (solve_bounded_sat,
                   lambda f, bound: list(enumerate_candidates(f, bound))):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            search(pf("a"), 0)


def test_f_normal_form_rejects_a_non_core_formula():
    with pytest.raises(ValueError, match="expects a core formula"):
        f_normal_form(Prob(PathOp.F, Cmp.LE, Fraction(1, 2), Atom("a")))


@pytest.mark.parametrize("text", [
    # equal closed bounds on one body: reach(a) = 1/2 at vertex 0
    "F>=1/2[a] & F<=1/2[a]",
    # a & b implies b, not the other way round
    "F>1/4[b] & F<1/4[a & b]",
    # an Or's arguments are not required at vertex 0
    "F>=1/2[a] & (F<1/2[a] | b)",
])
def test_bounds_at_the_clash_boundary_are_satisfiable(text):
    result = solve_bounded_sat(pf(text), 3)
    assert result.status == "sat", text
    assert ModelChecker(result.model).holds(result.entry, pf(text))


def _bound_that_holds(rng, mc, state, body):
    # F or G over `body` with the exact probability at `state` or 1/7 off
    # it as its bound, compared so that it holds there; None when that
    # bound leaves [0, 1] or is trivial
    op = rng.choice((PathOp.F, PathOp.G))
    p = mc.probability(state, PathFormula(op, body))
    r = p + rng.choice((-1, 0, 1)) * Fraction(1, 7)
    cmps = [cmp for cmp in Cmp
            if cmp.holds(p, r) and not is_trivial_bound(cmp, r)]
    if not 0 <= r <= 1 or not cmps:
        return None
    return Prob(op, rng.choice(cmps), r, body)


def _chain_with_traps(rng):
    # one to three transient states, s0 first, each moving to two or three
    # random states, then two or three absorbing ones; atoms are rarer on
    # the transient states, so that reach values strictly inside (0, 1)
    # are common at s0
    transient = rng.randint(1, 3)
    states = [f"s{i}" for i in range(transient + rng.randint(2, 3))]
    edges, valuation = {}, {}
    for i, s in enumerate(states):
        succ = rng.sample(states, rng.randint(2, 3)) if i < transient else [s]
        weights = [rng.randint(1, 3) for _ in succ]
        for t, w in zip(succ, weights):
            edges[(s, t)] = Fraction(w, sum(weights))
        share = 0.25 if i < transient else 0.5
        valuation[s] = [a for a in "ab" if rng.random() < share]
    return MarkovChain(states, edges, valuation)


def test_root_clash_never_refutes_bounds_that_hold():
    # conjunctions of 2-6 bounds that all hold at one state of a random
    # chain, over three shared bodies drawn from two literals, their And
    # and Or, and the negations of these four, so that bodies imply one
    # another also after G is dualized to F
    rng = random.Random(163)
    implying = 0
    for _ in range(2000):
        chain = _chain_with_traps(rng)
        mc = ModelChecker(chain)
        state = "s0"
        x, y = (rng.choice((Atom, NegAtom))(name) for name in "ab")
        pool = [x, y, conj([x, y]), disj([x, y])]
        pool += [pf(f"!({g})") for g in pool]
        bodies = rng.sample(pool, 3)
        size = rng.randint(2, 6)
        bounds = []
        while len(bounds) < size:
            bound = _bound_that_holds(rng, mc, state, rng.choice(bodies))
            if bound is not None:
                bounds.append(bound)
        f = conj(bounds)
        assert mc.holds(state, f)
        required = _required(f_normal_form(normalize(f)))
        assert not _root_clash(required), (chain.to_json(), state, str(f))
        # conjunctions where the clash rule reads a pair of bounds
        implying += any(
            lo.cmp in (Cmp.GE, Cmp.GT) and hi.cmp in (Cmp.LE, Cmp.LT)
            and _implies(lo.body, hi.body)
            for lo in required if isinstance(lo, Prob)
            for hi in required if isinstance(hi, Prob))
    assert implying > 200


# the rooted search: candidates, refuted
ROOTED_SEARCH = {
    "F=1[a] & G=1[!a]": (0, 1),
    PSI_TEXT: (0, 161),
    "F>1/2[a] & !a": (1, 12),
    "F>=0.5[a & F>=0.2[!a]] & !a & b": (1, 31),
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
        masks = range(1 << size)
        for succ in all_graphs(size):
            pred = predecessor_masks(succ)
            for body in masks:
                out = prob01(pred, body)[0]
                sure = sure_vertices(pred, body)
                if (size, body, out, sure) in seen:
                    continue
                seen.add((size, body, out, sure))
                for node, inside in itertools.product(nodes, masks):
                    block = (size, node, body, inside, out, sure)
                    want = reference_block_refuted(*block)
                    assert block_interval_contradiction(*block) == want, \
                        (succ, block)
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
        candidate = candidate_from_chain(chain, f)
        blocks += sum(isinstance(g, Prob) for g in candidate.labeling)
        assert not interval_refuted(candidate), (chain.to_json(), f)
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
            assert check_assignment(candidate,
                                    uniform_assignment(candidate)), f
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


def test_a_confirmed_chain_carries_the_atom_sets():
    # each state of a confirmed chain carries exactly the atoms whose label
    # sets contain its vertex, also an atom that occurs only negated
    f = f_normal_form(pf("!b & F>0[a & !c] & G>1/2[a | b]"))
    confirmed = 0
    for c in enumerate_candidates(f, 2):
        mc = check_assignment(c, uniform_assignment(c))
        if mc is None:
            continue
        confirmed += 1
        want = [{g.name for g, mask in c.labeling.items()
                 if isinstance(g, Atom) and mask >> v & 1}
                for v in range(c.size)]
        assert [mc.chain.atoms(s) for s in mc.chain.states] == want
    assert confirmed > 0


def test_reconstruction_round_trip(psi):
    # the confirming checker's chain is fig1 renamed v1..v3, atoms included
    chain, candidate, truth = fig1_candidate_and_truth(psi)
    mc = check_assignment(candidate, truth)
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
    text = smt_text(candidate)
    assert text.count("declare-const x") == 4
    assert text.count("declare-const y") == 5 * 3
    assert "(assert (= (+ x2 x3) 1))" in text


def test_smt_text_pinned_at_bound_two():
    # sha256 prefix of the systems of every bound-2 candidate of seeded
    # formulas, pinned while `smt_text` wrote its own comparison tables
    rng = random.Random(59)
    h = hashlib.sha256()
    count = 0
    for _ in range(40):
        f = f_normal_form(random_core_formula(rng, depth=2))
        for candidate in enumerate_candidates(f, 2):
            h.update(smt_text(candidate).encode())
            count += 1
    assert (count, h.hexdigest()[:16]) == (972, "c994b95a2fe9b102")


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
elif mode == "deep":
    print("sat")
    print("(" * 5000 + ")" * 5000)
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


def test_backend_rejects_deeply_nested_output(mock_backend):
    with pytest.raises(BackendError, match="nested deeper than 100 levels"):
        mock_backend("deep").solve("x")


def test_solver_output_nesting_is_capped():
    nested = "x"
    for _ in range(100):
        nested = [nested]
    assert _parse_sexprs("(" * 100 + "x" + ")" * 100) == [nested]
    with pytest.raises(BackendError, match="nested deeper than 100 levels"):
        _parse_sexprs("(" * 101 + ")" * 101)
    with pytest.raises(BackendError, match="unbalanced"):
        _parse_sexprs("((x 1)")


@pytest.mark.parametrize("expr", [
    ["/", "1", "0"],  # zero denominator
    ["/", "1", ["-", "0"]],
    "1/0",
    "1e-10000000",  # exponents are not numerals; Fraction(str) would stall
    "1e5",
    ["+", "1", "2"],  # no other operator is read
])
def test_rationalize_rejects(expr):
    with pytest.raises(BackendError):
        _rationalize(expr)


def test_rationalize_reads_numerals():
    assert _rationalize(["-", ["/", "3", "5"]]) == Fraction(-3, 5)
    assert _rationalize("0.25") == Fraction(1, 4)
    assert _rationalize("7/2") == Fraction(7, 2)


def test_backend_launch_error():
    backend = SolverBackend("definitely-not-a-real-solver {file}")
    with pytest.raises(BackendError):
        backend.solve("x")


def test_silent_solver_is_a_backend_error():
    backend = SolverBackend(f"{sys.executable} -c pass {{file}}")
    with pytest.raises(BackendError,
                       match=re.escape("solver produced no output (stderr: '')")):
        backend.solve("x")


@pytest.mark.parametrize("output", ["", "  \n\t "], ids=["empty", "whitespace"])
def test_empty_solver_output_is_a_backend_error(output):
    with pytest.raises(BackendError, match="unexpected solver verdict ''"):
        read_solver_output(output)


@pytest.mark.parametrize("command, reason", [
    ("z3 '{file}", "No closing quotation"),
    ("   ", "the solver command is empty"),
    ("", "the solver command is empty"),
], ids=["unbalanced quote", "blank", "empty"])
def test_malformed_solver_command_is_rejected_on_construction(command, reason):
    with pytest.raises(ValueError, match=reason):
        SolverBackend(command)


def test_backend_splits_its_command_once():
    backend = SolverBackend("z3 -smt2 '{file}' -T:5")
    assert backend.argv == ["z3", "-smt2", "{file}", "-T:5"]


def test_backend_removes_its_file_when_the_write_fails(monkeypatch, tmp_path):
    # a full disk fails the write of the system: a backend error, and the
    # file is still removed
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, mode):
            self.handle = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "fdopen", FullDisk)
    with pytest.raises(BackendError, match="cannot write the SMT file"):
        SolverBackend("definitely-not-a-real-solver {file}").solve("x")
    assert list(tmp_path.iterdir()) == []


def test_backend_error_when_the_file_cannot_be_created(monkeypatch, tmp_path):
    missing = tmp_path / "missing"
    monkeypatch.setattr(tempfile, "tempdir", str(missing))
    with pytest.raises(BackendError, match="cannot write the SMT file"):
        SolverBackend("definitely-not-a-real-solver {file}").solve("x")
    assert list(tmp_path.iterdir()) == []


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


class _CannedOutputBackend:
    """In-process stand-in for a solver that prints `output`, read as
    `SolverBackend` reads a subprocess's output."""

    def __init__(self, output):
        self.output = output

    def solve(self, text):
        return read_solver_output(self.output)


@pytest.mark.parametrize("answer, reason", [
    ("((x1 (/ 1 0)))", "cannot read the solver's value of 'x1': zero denominator"),
    ("((x1 1e-10000000))", "cannot read the solver's value of 'x1': "
                           "cannot rationalize solver value '1e-10000000'"),
    ("((x1 (/ 1 0)) (x1 1))", "solver model is missing 'x2'"),
    ("((y1_1 1))", "solver model is missing 'x1'"),
], ids=["zero denominator", "exponent", "read elsewhere", "absent"])
def test_unreadable_solver_value_is_reported(answer, reason):
    # the uniform assignment misses the formula, so the backend is asked;
    # an edge variable whose value cannot be read is reported with that
    # read error, and only a variable the answer never gives is "missing"
    backend = _CannedOutputBackend(f"sat\n{answer}")
    with pytest.raises(BackendError, match=re.escape(reason)):
        solve_bounded_sat(pf(SOLVER_PATH_FORMULA), 3, backend=backend)


class _VerdictBackend:
    """In-process stand-in for a solver that gives every system the same
    verdict; a `sat` answer sets every edge variable to 1."""

    def __init__(self, verdict):
        self.verdict = verdict
        self.calls = 0

    def solve(self, text):
        self.calls += 1
        if self.verdict != "sat":
            return self.verdict, {}
        edges = re.findall(r"\(declare-const (x\d+) Real\)", text)
        return "sat", dict.fromkeys(edges, Fraction(1))


@pytest.mark.parametrize("verdict, status", [
    ("unsat", "unsat-up-to-n"),
    ("unknown", "unknown"),
    ("timeout", "unknown"),
    ("sat", "unknown"),
])
def test_backend_verdicts_on_survivors(verdict, status, monkeypatch):
    # the 16 survivors of SOLVER_PATH_FORMULA at bound 3 all miss the
    # uniform assignment, so each goes to the backend: only unsat answers
    # everywhere refute the search, a timeout is counted, and a sat answer
    # whose rows sum past 1 is "not even a chain", rejected and not raised
    not_chains = []
    check = pctlfg.etr.check_assignment

    def recording_check(candidate, assignment):
        try:
            return check(candidate, assignment)
        except ValueError as exc:
            not_chains.append(str(exc))
            raise

    monkeypatch.setattr(pctlfg.etr, "check_assignment", recording_check)
    backend = _VerdictBackend(verdict)
    result = solve_bounded_sat(pf(SOLVER_PATH_FORMULA), 3, backend=backend)
    assert result.status == status
    assert result.candidates == result.solver_calls == backend.calls == 16
    assert result.timeouts == (16 if verdict == "timeout" else 0)
    assert result.model is None
    if verdict == "sat":
        assert not_chains and all("sum" in text for text in not_chains)
    else:
        assert not_chains == []


def test_one_smt_text_per_candidate(tmp_path, monkeypatch):
    # each of the 16 survivors is dumped and, after its uniform miss, shipped
    # to the backend as one text, built once
    built = []
    shipped = []
    text_of = pctlfg.etr.smt_text

    def counting(candidate):
        built.append(candidate)
        return text_of(candidate)

    class Undecided:
        def solve(self, text):
            shipped.append(text)
            return "unknown", {}

    monkeypatch.setattr(pctlfg.etr, "smt_text", counting)
    result = solve_bounded_sat(pf(SOLVER_PATH_FORMULA), 3, backend=Undecided(),
                               dump_dir=str(tmp_path))
    assert result.status == "unknown"
    assert len(built) == result.candidates == result.solver_calls == 16
    assert shipped == [path.read_text()
                       for path in sorted(tmp_path.glob("*.smt2"))]


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
