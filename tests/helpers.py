"""Shared fixtures-in-code: the running example and seeded random generators.

Random chains use small integer weight ratios so every probability is an
exact small fraction; random formulas draw bounds from a fixed palette and
only produce non-trivial core constraints.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pctlfg.formula import (
    Atom, Cmp, NegAtom, PathOp, Prob, StateFormula, conj, disj, parse_formula,
)
from pctlfg.markov import MarkovChain, scc_decompose
from pctlfg.modelcheck import ModelChecker

PSI_TEXT = "G=1[F>=0.5[a & F>=0.2[!a]] | a] & F=1[G=1[a]] & !a"
PHI_OR_TEXT = "F>=0.5[a & F>=0.2[!a]] | a"


def fig1_chain() -> MarkovChain:
    return MarkovChain(
        ["s", "t", "u"],
        {
            ("s", "t"): Fraction(1),
            ("t", "s"): Fraction(3, 5),
            ("t", "u"): Fraction(2, 5),
            ("u", "u"): Fraction(1),
        },
        {"s": [], "t": ["a"], "u": ["a"]},
    )


def psi_formula() -> StateFormula:
    return parse_formula(PSI_TEXT)


def random_chain(rng: random.Random, max_states: int = 6,
                 aps=("a", "b")) -> MarkovChain:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    edges = {}
    for s in states:
        count = rng.randint(1, min(3, n))
        succ = rng.sample(states, count)
        weights = [rng.randint(1, 3) for _ in succ]
        total = sum(weights)
        for t, w in zip(succ, weights):
            edges[(s, t)] = Fraction(w, total)
    valuation = {s: [a for a in aps if rng.random() < 0.5] for s in states}
    return MarkovChain(states, edges, valuation)


_GE_BOUNDS = (Fraction(1, 5), Fraction(1, 4), Fraction(1, 2),
              Fraction(3, 4), Fraction(1))
_GT_BOUNDS = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4))


def random_core_formula(rng: random.Random, depth: int = 3,
                        aps=("a", "b")) -> StateFormula:
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice(aps)
        return Atom(name) if rng.random() < 0.6 else NegAtom(name)
    kind = rng.choice(("and", "or", "prob", "prob"))
    if kind in ("and", "or"):
        left = random_core_formula(rng, depth - 1, aps)
        right = random_core_formula(rng, depth - 1, aps)
        return conj([left, right]) if kind == "and" else disj([left, right])
    op = rng.choice((PathOp.F, PathOp.F, PathOp.G))
    if rng.random() < 0.7:
        cmp, bound = Cmp.GE, rng.choice(_GE_BOUNDS)
    else:
        cmp, bound = Cmp.GT, rng.choice(_GT_BOUNDS)
    return Prob(op, cmp, bound, random_core_formula(rng, depth - 1, aps))


def satisfied_instance(rng: random.Random, max_states: int = 6, depth: int = 3,
                       aps=("a", "b")):
    """A chain, a state, and a formula holding there."""
    while True:
        chain = random_chain(rng, max_states, aps)
        mc = ModelChecker(chain)
        for _ in range(12):
            f = random_core_formula(rng, depth, aps)
            sat = mc.sat_set(f)
            if sat:
                state = sorted(sat)[rng.randrange(len(sat))]
                return chain, state, f, mc


def bottom_state_instance(rng: random.Random, max_states: int = 6):
    """A chain, a state inside a bottom SCC, and a formula holding there."""
    while True:
        chain = random_chain(rng, max_states)
        bottoms = sorted(scc_decompose(chain).bottom_states())
        mc = ModelChecker(chain)
        state = bottoms[rng.randrange(len(bottoms))]
        for _ in range(12):
            f = random_core_formula(rng, 2)
            if mc.holds(state, f):
                return chain, state, f, mc


def collect_loops(seed, count, max_states=5, depth=3, max_n=2):
    """Verified progress loops from the generic search over random closed
    satisfied instances: (chain, state, X, loop, checker) tuples."""
    from pctlfg.closure import closure_update
    from pctlfg.formula import formula_sets
    from pctlfg.progress import SearchSpaceExceeded, search_loop_generic

    rng = random.Random(seed)
    loops = []
    while len(loops) < count:
        chain, state, f, mc = satisfied_instance(rng, max_states, depth)
        X = closure_update(mc, state, {f})
        if len(formula_sets(X).sub) > 9:
            continue
        try:
            loop = search_loop_generic(mc, state, X, max_n, node_budget=30_000)
        except SearchSpaceExceeded:
            continue
        if loop is not None:
            loops.append((chain, state, X, loop, mc))
    return loops


def simulate_eventually(chain: MarkovChain, start: str, targets,
                        rng: random.Random, runs: int) -> float:
    """Monte-Carlo estimate of the probability of reaching `targets`.  Each
    run walks until it hits the targets or enters a bottom SCC that is
    disjoint from them (after which the answer cannot change)."""
    targets = frozenset(targets)
    decomposition = scc_decompose(chain)
    bottom_of = {}
    for comp, bottom in zip(decomposition.components, decomposition.is_bottom):
        for s in comp:
            bottom_of[s] = bottom and not (comp & targets)
    hits = 0
    for _ in range(runs):
        current = start
        while True:
            if current in targets:
                hits += 1
                break
            if bottom_of[current]:
                break
            succ = chain.successors(current)
            roll = rng.random()
            acc = 0.0
            for nxt, p in succ.items():
                acc += float(p)
                if roll < acc:
                    current = nxt
                    break
            else:
                current = list(succ)[-1]
    return hits / runs
