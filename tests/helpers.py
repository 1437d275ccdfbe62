"""Shared fixtures-in-code: the running example, seeded random generators
and the reference solvers the fast paths are compared against.

Random chains use small integer weight ratios so every probability is an
exact small fraction; random formulas draw bounds from a fixed palette and
only produce non-trivial core constraints.  The reference solvers are plain
Gauss-Jordan elimination on Fractions and reach probabilities that pin only
the states with no path to the targets; the reference satisfaction sets
are built on them by recursion over name sets; the reference block screen
compares each vertex's reach value against the bound one `Fraction` at a
time, next to the block form of the enumeration's mask screen.  The
reference bounded search enumerates every digraph and emits every nonempty
whole-formula label set; the library's search is rooted at vertex 0 and
tries one graph per isomorphism class.  `labeling_violations` and
`constraint_count` are oracles on a candidate's labeling and on its
constraints.  The reference constraint rules (trivial bounds, the parser's
[0, 1] range, `!` on a comparison, core form) are the `Fraction` and
recursive forms.  The reference loop family builds every subset of a
universe as a frozenset and sorts them, and the reference loop search walks
that family with the G bodies as a set; the library's enumerates and walks
masks in order.  The reference exit obligations scan a growing suffix of
the loop per F=1 member; the library's compare last levels.  The reference
successor selection always solves the first-passage distribution over
every candidate and reduces it; the library's reads the first-entry
support off the graph when no path formula needs covering.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import and_, or_

from pctlfg.closure import require_satisfied
from pctlfg.formula import (
    And, Atom, Cmp, NegAtom, Or, PathOp, Prob, StateFormula, conj, disj,
    iter_subformulas, parse_formula, sorted_formulas,
)
from pctlfg.etr import (
    ETRCandidate, SatSearchResult, _choice_order, _screen, _verdicts,
    check_assignment, encode, f_normal_form, uniform_assignment,
)
from pctlfg.linalg import SingularMatrixError
from pctlfg.markov import (
    MarkovChain, first_passage, indices, predecessor_masks, prob01,
    scc_decompose,
)
from pctlfg.measure import member_paths
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
    from pctlfg.formula import subformulas_of
    from pctlfg.progress import SearchSpaceExceeded, search_loop_generic

    rng = random.Random(seed)
    loops = []
    while len(loops) < count:
        chain, state, f, mc = satisfied_instance(rng, max_states, depth)
        X = closure_update(mc, state, {f})
        if len(subformulas_of(X)) > 9:
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
    for comp in decomposition.components:
        names = {chain.states[i] for i in indices(comp)}
        for s in names:
            bottom_of[s] = bool(comp & decomposition.bottom) and not names & targets
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


# ---------------------------------------------------------------------------
# Reference solvers

def _reference_eliminate(rows, ncols):
    """Gauss-Jordan on Fractions in column order; the pivot of a column is
    the entry of largest |numerator * denominator|.  Returns the pivots as
    (row, column) pairs."""
    n = len(rows)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = max(
            (r for r in range(rank, n) if rows[r][col] != 0),
            key=lambda r: abs(rows[r][col].numerator * rows[r][col].denominator),
            default=None,
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pivot = prow[col]
        for r in range(n):
            row = rows[r]
            if r == rank or row[col] == 0:
                continue
            factor = row[col] / pivot
            for c in range(col, len(row)):
                row[c] -= factor * prow[c]
        pivots.append((rank, col))
    return pivots


def reference_solve(a, rhs):
    """`linalg.solve` on Fractions, with the same SingularMatrixError."""
    n = len(a)
    if n == 0:
        return []
    m = len(rhs[0]) if rhs else 0
    aug = [[Fraction(x) for x in a[i]] + [Fraction(x) for x in rhs[i]]
           for i in range(n)]
    pivots = _reference_eliminate(aug, n)
    if len(pivots) < n:
        col = min(set(range(n)) - {c for _, c in pivots})
        raise SingularMatrixError(f"singular at column {col}")
    return [[aug[i][n + j] / aug[i][i] for j in range(m)] for i in range(n)]


def reference_null_vector(a, width):
    """`linalg.null_vector` on Fractions."""
    rows = [[Fraction(x) for x in r] for r in a]
    pivots = _reference_eliminate(rows, width)
    pivot_cols = {col for _, col in pivots}
    free = next((c for c in range(width) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    for row, col in pivots:
        x[col] = -rows[row][free] / rows[row][col]
    return x


def reference_caratheodory_reduce(points, weights):
    """`progress.caratheodory_reduce` with each step's null vector taken by
    `reference_null_vector` over the matrix of every active point."""
    weights = list(weights)
    dim = len(points[0]) if points else 0
    while True:
        active = [i for i, w in enumerate(weights) if w > 0]
        if len(active) <= dim + 1:
            return weights
        rows = [[points[i][d] for i in active] for d in range(dim)]
        rows.append([Fraction(1)] * len(active))
        dependency = reference_null_vector(rows, len(active))
        if not any(lam > 0 for lam in dependency):
            dependency = [-lam for lam in dependency]
        step = min(weights[i] / lam
                   for i, lam in zip(active, dependency) if lam > 0)
        for i, lam in zip(active, dependency):
            weights[i] -= step * lam


def reference_successor_selection(mc: ModelChecker, state: str, obligations):
    """`progress.successor_selection` with the first-passage distribution
    solved over every candidate, path formulas or not, and reduced by
    `reference_caratheodory_reduce`."""
    delta = frozenset(obligations)
    require_satisfied(mc, state, delta)
    paths = member_paths(sorted_formulas(delta))
    candidates = mc.sccs.bottom
    for path in paths:
        if path.op is PathOp.F:
            candidates |= mc.sat_mask(path.body)
    passage = first_passage(mc, state, mc.chain.names(candidates))
    support = sorted(t for t, y in passage.items() if y > 0)
    vectors = [tuple(mc.probability(t, path) for path in paths) for t in support]
    weights = reference_caratheodory_reduce(vectors, [passage[t] for t in support])
    return {t: w for t, w in zip(support, weights) if w > 0}


def reference_absorption(unknown, successors, boundary):
    """`markov.absorption` built on `reference_solve`."""
    unknown = list(unknown)
    if not unknown:
        return {}
    pos = {s: i for i, s in enumerate(unknown)}
    n = len(unknown)
    width = len(next(iter(boundary.values()), ()))
    a = [[Fraction(0)] * n for _ in range(n)]
    rhs = [[Fraction(0)] * width for _ in range(n)]
    for i, s in enumerate(unknown):
        a[i][i] = Fraction(1)
        for dst, p in successors(s).items():
            if dst in pos:
                a[i][pos[dst]] -= p
            elif dst in boundary:
                for j, value in enumerate(boundary[dst]):
                    rhs[i][j] += p * value
    return dict(zip(unknown, reference_solve(a, rhs)))


def reach_by_name(mc: ModelChecker, targets) -> dict[str, Fraction]:
    """`mc.reach_probabilities` between the prob0 and prob1 masks of the
    named targets as {state: value}, after checking that the two masks and
    the solved states partition the chain."""
    zero, one, maybe = mc.reach_probabilities(*mc.prob01(mc.chain.mask(targets)))
    assert not zero & one
    assert set(maybe) == {i for i in range(len(mc.chain.states))
                          if not (zero | one) >> i & 1}
    return {s: maybe[i] if i in maybe else Fraction(one >> i & 1)
            for i, s in enumerate(mc.chain.states)}


def reference_reachable(chain: MarkovChain, start: str,
                        blocked=frozenset()) -> frozenset[str]:
    """The states reachable from `start` (itself included) without entering
    a `blocked` state, by a worklist over `chain.successors` alone; no
    bitmasks."""
    reached, frontier = {start}, [start]
    while frontier:
        for t in chain.successors(frontier.pop()):
            if t not in reached and t not in blocked:
                reached.add(t)
                frontier.append(t)
    return frozenset(reached)


def reference_reach(states, successors, targets):
    """P(eventually enter `targets`) with only the states that have no path
    to the targets pinned (to 0); every other non-target state is solved.
    The states with a path come from a fixpoint over `successors` alone."""
    targets = frozenset(targets)
    can_reach = set(targets)
    grown = True
    while grown:
        grown = False
        for s in states:
            if s not in can_reach and any(t in can_reach for t in successors(s)):
                can_reach.add(s)
                grown = True
    unknown = [s for s in states if s in can_reach and s not in targets]
    probs = {s: Fraction(int(s in targets)) for s in states}
    solved = reference_absorption(unknown, successors, dict.fromkeys(targets, (1,)))
    for s, (value,) in solved.items():
        probs[s] = value
    return probs


def reference_sat_set(chain: MarkovChain, f: StateFormula) -> frozenset[str]:
    """The names of the states satisfying `f`, by recursion over name sets
    with `reference_reach` for each probabilistic operator (a G bound is
    read off the escape into the body's complement); no `ModelChecker`."""
    states = frozenset(chain.states)
    if isinstance(f, Atom):
        return frozenset(s for s in states if f.name in chain.atoms(s))
    if isinstance(f, NegAtom):
        return states - reference_sat_set(chain, Atom(f.name))
    if isinstance(f, And):
        return states.intersection(*(reference_sat_set(chain, a) for a in f.args))
    if isinstance(f, Or):
        return frozenset().union(*(reference_sat_set(chain, a) for a in f.args))
    body = reference_sat_set(chain, f.body)
    if f.op is PathOp.F:
        vec = reference_reach(chain.states, chain.successors, body)
    else:
        escape = reference_reach(chain.states, chain.successors, states - body)
        vec = {s: 1 - p for s, p in escape.items()}
    return frozenset(s for s in states if f.cmp.holds(vec[s], f.bound))


def labeling_violations(candidate: ETRCandidate,
                        f: StateFormula) -> list[str]:
    """The Boolean labeling rules a candidate for `f` breaks: a negated
    atom's set is the complement, a conjunction's the intersection and a
    disjunction's the union of its parts' sets, and the whole-formula set
    is nonempty."""
    problems = []
    full = (1 << candidate.size) - 1
    labeling = candidate.labeling
    for g in set(iter_subformulas(f)):
        have = labeling[g]
        if isinstance(g, NegAtom):
            if have != full & ~labeling.get(Atom(g.name), 0):
                problems.append(f"labeling of !{g.name} is not the complement")
        elif isinstance(g, And):
            if have != reduce(and_, (labeling[a] for a in g.args), full):
                problems.append(f"labeling of {g} is not the intersection")
        elif isinstance(g, Or):
            if have != reduce(or_, (labeling[a] for a in g.args), 0):
                problems.append(f"labeling of {g} is not the union")
    if not labeling[f]:
        problems.append("whole-formula label set is empty")
    return problems


def constraint_count(candidate: ETRCandidate) -> int:
    """Row sums, plus an equation and a comparison per block and vertex."""
    return (len(candidate.edges)
            + candidate.size * (1 + 2 * len(candidate.blocks)))


def all_graphs(size: int):
    """Every digraph on `size` vertices with out-degree >= 1 everywhere, as
    tuples of successor bitmasks, last vertex fastest."""
    return itertools.product(range(1, 1 << size), repeat=size)


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def sure_vertices(pred, body: int) -> int:
    """The mask of the vertices outside the body mask that reach it with
    probability 1 under every positive assignment of the graph with
    predecessor masks `pred`: prob1 minus the body set."""
    return prob01(pred, body)[1] & ~body


def block_interval_contradiction(size, block, out: int, sure: int) -> bool:
    """The enumeration's mask screen (`etr._screen`) on one block: prob1 is
    the body set plus `sure`, prob0 the cut-off set `out`."""
    care, want = _screen(_verdicts(block.formula), out,
                         block.body | sure, (1 << size) - 1)
    return block.inside & care != want


def reference_block_refuted(size, block, out: int, sure: int):
    """`block_interval_contradiction` vertex by vertex on Fractions: a
    reach value is exactly 1 on the body set and `sure`, exactly 0 on the
    cut-off set `out` and strictly inside (0, 1) elsewhere."""
    cmp, r = block.formula.cmp, block.formula.bound
    for v in range(size):
        inside = bool(block.inside >> v & 1)
        if (block.body | sure) >> v & 1:
            value = Fraction(1)
        elif out >> v & 1:
            value = Fraction(0)
        elif 0 < r < 1:
            continue  # a value in (0, 1) can lie on either side of r
        else:
            value = Fraction(1, 2)  # all of (0, 1) compares alike with 0 or 1
        if cmp.holds(value, r) != inside:
            return True
    return False


def reference_candidates(f: StateFormula, bound: int,
                         result: SatSearchResult | None = None):
    """The enumeration before its graphs were rooted: every digraph of
    `all_graphs`, every labeling the block screen lets through (refuted
    label sets counted in `result.refuted`) and every nonempty
    whole-formula set, in the order of `etr.enumerate_candidates`.  Each
    labeling is rebuilt as frozensets at every step and turned into vertex
    masks only for an emitted candidate."""
    steps = _choice_order(f)
    for size in range(1, bound + 1):
        full = (1 << size) - 1
        subsets = [frozenset(v for v in range(size) if m >> v & 1)
                   for m in range(full + 1)]
        for succ in all_graphs(size):
            pred = predecessor_masks(succ)

            def assign(index, labeling):
                if index == len(steps):
                    if labeling[f]:
                        yield encode(succ, {
                            g: _mask(s) for g, s in labeling.items()})
                    return
                node, completed = steps[index]
                choices = subsets
                if isinstance(node, Prob):
                    body = _mask(labeling[node.body])
                    care, want = _screen(_verdicts(node), *prob01(pred, body),
                                         full)
                    choices = [m for m in subsets if _mask(m) & care == want]
                    if result is not None:
                        result.refuted += len(subsets) - len(choices)
                for chosen in choices:
                    labeling[node] = chosen
                    for g in completed:
                        if isinstance(g, NegAtom):
                            labeling[g] = subsets[full] - labeling[Atom(g.name)]
                        elif isinstance(g, And):
                            labeling[g] = subsets[full].intersection(
                                *(labeling[a] for a in g.args))
                        else:
                            labeling[g] = frozenset().union(
                                *(labeling[a] for a in g.args))
                    yield from assign(index + 1, labeling)

            yield from assign(0, {})


def reference_search(f: StateFormula, bound: int) -> SatSearchResult:
    """`etr.solve_bounded_sat` without a backend over `reference_candidates`:
    sat at the first candidate the uniform assignment confirms, else
    unknown when some candidate was tried and unsat-up-to-n otherwise."""
    result = SatSearchResult("unsat-up-to-n")
    for candidate in reference_candidates(f_normal_form(f), bound, result):
        result.candidates += 1
        if check_assignment(candidate,
                            uniform_assignment(candidate)) is not None:
            result.status = "sat"
            return result
        result.status = "unknown"
    return result


def candidate_from_chain(chain: MarkovChain, f: StateFormula) -> ETRCandidate:
    """The candidate a concrete chain induces for an F-normal formula: its
    graph plus the true satisfaction sets as labeling, built in step order
    (`etr._choice_order`) so that its blocks are bottom-up."""
    mc = ModelChecker(chain)
    return encode(tuple(chain.succ), {
        g: mc.sat_mask(g)
        for node, completed in _choice_order(f) for g in (node, *completed)})


# The formula layer's constraint rules as the `Fraction` comparisons and
# enum mappings they were first written as; the library reads the bound's
# integers and module tables.

REFERENCE_NEGATED = {Cmp.GE: Cmp.LT, Cmp.GT: Cmp.LE, Cmp.LE: Cmp.GT,
                     Cmp.LT: Cmp.GE}


def reference_is_trivial_bound(cmp: Cmp, bound: Fraction) -> bool:
    return (cmp, bound) in ((Cmp.GE, 0), (Cmp.GT, 1), (Cmp.LE, 1), (Cmp.LT, 0))


def reference_is_probability(bound: Fraction) -> bool:
    return 0 <= bound <= 1


def reference_is_core(f: StateFormula) -> bool:
    """Core form by recursion over the whole formula: negation on atoms only
    and comparisons from {>=, >}."""
    if isinstance(f, (Atom, NegAtom)):
        return True
    if isinstance(f, (And, Or)):
        return all(reference_is_core(a) for a in f.args)
    return f.cmp in (Cmp.GE, Cmp.GT) and reference_is_core(f.body)


def reference_fragment_classify(f: StateFormula):
    """The per-call form of `formula.fragment_classify`: each call matches
    the kinds of `_GRAMMARS` top-down with a fresh memo, reading nothing
    cached on the nodes."""
    from pctlfg.formula import _GRAMMARS, FragmentMembership

    if not reference_is_core(f):
        raise ValueError("fragment classification expects a core formula")
    memo: dict = {}

    def match(kind: str, g: StateFormula) -> bool:
        key = (kind, g)
        if key not in memo:
            literal, rules = _GRAMMARS[kind]
            if isinstance(g, Prob):
                rule = rules.get(g.op)
                memo[key] = (rule is not None and rule[0](g)
                             and any(match(k, g.body) for k in rule[1]))
            elif isinstance(g, (And, Or)):
                memo[key] = all(match(kind, a) for a in g.args)
            else:
                memo[key] = literal
        return memo[key]

    def member(kind: str) -> bool:
        if match(kind, f):
            return True
        # closure under '>= r' bound variants of a top-level G
        if isinstance(f, Prob) and f.op is PathOp.G and f.cmp is Cmp.GE:
            return any(match(k, f.body) for k in _GRAMMARS[kind][1][PathOp.G][1])
        return False

    return FragmentMembership(*map(member, ("phi1", "phi2", "phi3", "phi4")))


def reference_locally_consistent_sets(universe) -> list[frozenset]:
    """The frozenset form of `progress._locally_consistent_sets`: every
    nonempty subset of the universe that `_local_rule_violations` accepts as
    a one-set loop, sorted by (size, sorted sort keys)."""
    from pctlfg.formula import sort_key
    from pctlfg.progress import _local_rule_violations

    out = []
    n = len(universe)
    for mask in range(1, 1 << n):
        members = [universe[k] for k in range(n) if mask >> k & 1]
        level = frozenset(members)
        if next(_local_rule_violations(0, members, (level,)), None) is None:
            out.append(level)
    out.sort(key=lambda s: (len(s), tuple(sorted(sort_key(f) for f in s))))
    return out


def reference_search_loop_generic(mc: ModelChecker, state: str, X, max_n: int,
                                  node_budget: int = 200_000):
    """The frozenset form of `progress.search_loop_generic`: the same
    iterative deepening over `reference_locally_consistent_sets`, with the
    G bodies carried as a set and every complete candidate checked by
    `verify_loop`.  Returns the same loop, None, or SearchSpaceExceeded
    after the same number of extensions."""
    from pctlfg.formula import sorted_formulas, subformulas_of
    from pctlfg.progress import SearchSpaceExceeded, _g_bodies, verify_loop

    X = frozenset(X)
    universe = sorted_formulas(subformulas_of(X))
    family = reference_locally_consistent_sets(universe)
    budget = node_budget

    def extend(chosen, length, required, has_anchor):
        nonlocal budget
        if len(chosen) == length:
            if has_anchor and not verify_loop(mc, state, X, tuple(chosen)):
                return tuple(chosen)
            return None
        for level in family:
            if level in chosen or not required <= level:
                continue
            new_bodies = _g_bodies(level) - required
            if new_bodies and any(not new_bodies <= prev for prev in chosen):
                continue
            if budget <= 0:
                raise SearchSpaceExceeded("node budget")
            budget -= 1
            found = extend(chosen + [level], length, required | new_bodies,
                           has_anchor or X <= level)
            if found is not None:
                return found
        return None

    for length in range(1, min(max_n, (1 << len(universe)) - 1) + 2):
        found = extend([], length, frozenset(), False)
        if found is not None:
            return found
    return None


def reference_exit_obligations(loop) -> frozenset[StateFormula]:
    """The suffix form of `progress.exit_obligations`: every G member;
    every F member whose body appears nowhere in the loop; every F=1
    member of some L_i whose body is absent from L_i..Ln, found by
    growing the suffix from Ln back."""
    union = frozenset().union(*loop)
    out = set()
    for f in union:
        if not isinstance(f, Prob):
            continue
        if f.op is PathOp.G or f.body not in union:
            out.add(f)
            continue
        if f.cmp is Cmp.GE and f.bound == 1:
            suffix = set()
            for level in reversed(loop):
                suffix |= level
                if f in level and f.body not in suffix:
                    out.add(f)
                    break
    return frozenset(out)


# ---------------------------------------------------------------------------
# Bounded sat and compression, checked against each other

def sat_compress_instances(seed: int, count: int):
    """`count` seeded (chain, state, formula) triples, the formula holding
    at the state.  In turn: a random core formula; `!x & F~r[x] & g`; and
    `!x & F~r[G=1[x]] & g`, with g a random core formula.  The last two
    need models of at least two states, and the last keeps a model's entry
    out of every bottom SCC, so that compressing it builds a progress loop."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chain = random_chain(rng, 5)
        mc = ModelChecker(chain)
        kind = len(out) % 3
        for _ in range(12):
            f = random_core_formula(rng, 3)
            if kind:
                name = rng.choice(("a", "b"))
                target = Atom(name) if kind == 1 else Prob(
                    PathOp.G, Cmp.GE, Fraction(1), Atom(name))
                cmp, bound = rng.choice(((Cmp.GT, Fraction(0)),
                                         (Cmp.GT, Fraction(1, 4)),
                                         (Cmp.GE, Fraction(1, 2)),
                                         (Cmp.GE, Fraction(1))))
                f = conj([NegAtom(name), Prob(PathOp.F, cmp, bound, target), f])
            sat = sorted(mc.sat_set(f))
            if sat:
                out.append((chain, rng.choice(sat), f))
                break
    return out


def sat_compress_disagreements(instances):
    """Bounded sat and compression cross-examined on (chain, state,
    formula) triples, such as `sat_compress_instances` makes.

    Forward: if compression returns a model of k <= 4 states, `sat` at
    bound k must not answer unsat-up-to-n, since bounded sat is complete up
    to its bound.  Reverse: every model `sat` finds at bound 3 must compress
    from its entry.  Compression uses the L2 search for an L2 formula and
    the generic one (max_n=3) otherwise.  A compressed model that does not
    satisfy the formula at its entry is a disagreement in either direction.
    A forward compression that runs out of search space decides nothing and
    is skipped; a reverse one is a disagreement.  A forward compression
    that raises otherwise is no disagreement, since sat is not asked, but a
    compression defect on a satisfied instance (ROADMAP item 1).  Returns
    the disagreements and those failures, one line each, and a `Counter`
    of the checks made and of the compressions that built a progress loop
    at their root, per direction."""
    from collections import Counter

    from pctlfg.etr import solve_bounded_sat
    from pctlfg.formula import fragment_classify
    from pctlfg.progress import SearchSpaceExceeded, compress_model

    def compress(chain, state, f):
        fragment = "l2" if fragment_classify(f).in_l2 else "generic"
        model, entry, trace = compress_model(chain, state, f,
                                             fragment=fragment, max_n=3)
        return model, ModelChecker(model).holds(entry, f), trace

    disagreements: list[str] = []
    failures: list[str] = []
    counts: Counter = Counter()
    for chain, state, f in instances:
        model = None
        try:
            model, holds, trace = compress(chain, state, f)
        except SearchSpaceExceeded:
            pass
        except Exception as exc:
            if not str(exc).startswith("no progress loop found"):
                failures.append(f"{f} at {state!r} of {chain.to_json(indent=None)}: "
                                f"{type(exc).__name__}: {exc}")
        if model is not None and not holds:
            disagreements.append(f"forward: the compressed model of {f} at "
                                 f"{state!r} does not satisfy it")
        elif model is not None and len(model.states) <= 4:
            counts["forward"] += 1
            counts["forward loops"] += trace.mode == "loop"
            k = len(model.states)
            if solve_bounded_sat(f, k).status == "unsat-up-to-n":
                disagreements.append(
                    f"forward: {f} compresses to {k} states at {state!r}, "
                    f"but sat answers unsat-up-to-n at bound {k}")

        found = solve_bounded_sat(f, 3)
        if found.status != "sat":
            continue
        counts["reverse"] += 1
        try:
            _, holds, trace = compress(found.model, found.entry, f)
        except Exception as exc:  # any failure is a disagreement
            disagreements.append(
                f"reverse: the {len(found.model.states)}-state sat model of "
                f"{f} does not compress: {type(exc).__name__}: {exc}")
            continue
        if not holds:
            disagreements.append(
                f"reverse: the compressed {len(found.model.states)}-state sat "
                f"model of {f} does not satisfy it")
        counts["reverse loops"] += trace.mode == "loop"
    return disagreements, failures, counts
