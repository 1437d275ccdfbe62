"""Progress loops, successor selection, and bounded model construction.

A progress loop for a closed-and-updated satisfied set X is a sequence of
formula sets, a plain tuple of frozensets, that a simple cycle of fresh
states can realize, leaving a residue of obligations (`exit_obligations`)
for the cycle's exit successors.  `compress_model` turns that idea into a
recursive construction: find a loop, split the exit mass over a small
support of successor states (exact Caratheodory reduction; the selection is
a dict from each kept successor to its weight), recurse on strictly simpler
formula sets, and stop at bottom SCCs, which collapse to
satisfaction-signature cycles.  The successors a run can enter first are a
graph fact (`markov.first_entries`); weights are solved only when the exit
obligations hold a path formula to cover.  Diagnostics that name formulas
of a set list them in `sorted_formulas` order.  Every function that asks
about a model takes its `ModelChecker`; the chain is `mc.chain` and its
SCC decomposition is `mc.sccs`, computed once per chain.

`verify_loop` checks a loop in two parts: the hypothesis (every member of X
holds at the state, and X is closed and updated there) and the loop
conditions (1)-(6), `loop_violations`.  Both searches check the hypothesis
once, before they search, and each candidate against the loop conditions
alone.  `loop_violations(mc, state, X, loop)` derives the facts about X it
reads, sub(X) and X's pending set, itself, so `verify_loop` and both
searches call it with the same four arguments; condition (6) reads the
reachable eventualities of X and of the exit obligations alike under X's
pending set.  Every s |= X guard is `closure.require_satisfied`, and L2
reads cached grammar kinds.  The generic search walks masks over its
universe, the subformulas of X in `sort_key` order (bit k is the k-th); it
enumerates the candidate sets in (size, index tuple) order, which is their
(size, sorted sort keys) order, and builds frozensets only for a complete
candidate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from . import linalg
from .closure import (UnsatisfiedSetError, achieved_bounds, closure_update,
                      least_closed_set, require_satisfied)
from .formula import (
    And, Atom, Cmp, NegAtom, Or, PathOp, Prob, StateFormula,
    fragment_classify, sort_key, sorted_formulas, subformulas, subformulas_of,
)
from .markov import (
    MarkovChain, first_entries, first_passage, indices, scc_decompose,
    states_reachable_from,
)
from .measure import (
    bound_base, member_paths, model_size_bound, pending_globals,
    progress_measure, reachable_eventualities,
)
from .modelcheck import ModelChecker


class ProgressLoopError(ValueError):
    """A loop hypothesis or construction step failed."""


class FragmentError(ValueError):
    """The formula set is outside the requested fragment."""


class SearchSpaceExceeded(RuntimeError):
    """The bounded loop search ran out of budget before exhausting the
    candidate space; distinct from 'no loop exists up to max_n'."""


class CompressionError(RuntimeError):
    """The model compression pipeline hit an internal inconsistency."""


# A sequence L0..Ln of formula sets.  Validity (pairwise distinct sets,
# local closure rules, the semantic side conditions) is established by
# `verify_loop`, not by construction.
ProgressLoop = tuple[frozenset[StateFormula], ...]


def exit_obligations(loop: ProgressLoop) -> frozenset[StateFormula]:
    """Formulas the loop itself cannot discharge: every G formula; every
    F formula whose body appears nowhere in the loop; every F=1 formula
    occurring in some L_i whose body is absent from L_i..Ln, that is, whose
    body's last level comes before its own."""
    last = {f: i for i, level in enumerate(loop) for f in level}
    return frozenset(
        f for f in last
        if isinstance(f, Prob)
        and (f.op is PathOp.G or f.body not in last
             or (f.cmp is Cmp.GE and f.bound == 1 and last[f.body] < last[f])))


def _local_rule_violations(i: int, members, loop: ProgressLoop) -> Iterator[str]:
    """Yields the condition (3) violations of L_i, lazily, in the order of
    `members`, the formulas of L_i."""
    level = loop[i]
    for f in members:
        if isinstance(f, Atom) and NegAtom(f.name) in level:
            yield f"condition (3): L{i} contains both {f.name} and !{f.name}"
        elif isinstance(f, And):
            for a in f.args:
                if a not in level:
                    yield f"condition (3): conjunct {a} of {f} missing from L{i}"
        elif isinstance(f, Or):
            if not any(a in level for a in f.args):
                yield f"condition (3): no disjunct of {f} present in L{i}"
        elif isinstance(f, Prob) and f.op is PathOp.G:
            for j, other in enumerate(loop):
                if f.body not in other:
                    yield f"condition (3): body of {f} (in L{i}) missing from L{j}"


def verify_loop(mc: ModelChecker, state: str, formulas,
                loop: ProgressLoop) -> list[str]:
    """Checks the loop hypothesis and all six conditions independently and
    returns every violation (empty list means the loop is valid)."""
    X = frozenset(formulas)
    problems: list[str] = []
    unsatisfied = [f for f in X if not mc.holds(state, f)]
    for f in sorted_formulas(unsatisfied):
        problems.append(f"hypothesis: state {state!r} does not satisfy {f}")
    if not unsatisfied and closure_update(mc, state, X) != X:
        problems.append("hypothesis: X is not closed and updated")
    return problems + loop_violations(mc, state, X, loop)


def loop_violations(mc: ModelChecker, state: str, X: frozenset[StateFormula],
                    loop: ProgressLoop) -> list[str]:
    """The loop conditions (1)-(6) of `verify_loop`, without the hypothesis,
    for a caller that has already checked it: every violation, in the
    order `verify_loop` reports them."""
    problems: list[str] = []
    sub = subformulas_of(X)
    for i, level in enumerate(loop):
        extra = level - sub
        for f in sorted_formulas(extra):
            problems.append(f"L{i} contains {f}, which is not a subformula of X")

    if not any(X <= level for level in loop):
        problems.append("condition (1): no L_i contains X")
    for i in range(len(loop)):
        for j in range(i + 1, len(loop)):
            if loop[i] == loop[j]:
                problems.append(f"condition (2): L{i} and L{j} are equal")
    for i, level in enumerate(loop):
        problems.extend(_local_rule_violations(i, sorted_formulas(level), loop))

    residue = exit_obligations(loop)
    ordered = sorted_formulas(residue)
    for f in ordered:
        if not mc.holds(state, f):
            problems.append(f"condition (4): state {state!r} does not satisfy {f}")
    for f in ordered:
        if isinstance(f, Prob) and f.op is PathOp.F and mc.holds(state, f.body):
            problems.append(
                f"condition (5): state {state!r} satisfies the body of {f}")
    # both sides under X's pending set: a G in a dead part of the residue's
    # subformulas must not bar witnesses that X's own eventualities may use
    pending = pending_globals(mc, state, X)
    spilled = (reachable_eventualities(mc, state, residue, pending)
               - reachable_eventualities(mc, state, X, pending))
    for path in sorted(spilled, key=lambda p: sort_key(p.body)):
        problems.append(
            f"condition (6): {path} is a reachable eventuality of the exit "
            "obligations but not of X")
    return problems


# ---------------------------------------------------------------------------
# Loop search

def _locally_consistent_sets(universe: list[StateFormula]) -> list[tuple[int, int]]:
    """All nonempty subsets of the universe satisfying the per-set rules of
    condition (3), as masks over it: bit k is `universe[k]`.  Each member
    has a need mask (the conjuncts of an `And`, the body of a G formula),
    an any-of mask (the disjuncts of an `Or`) and a clash mask (an atom's
    negation).  The G rule applies to the set itself here (a G member's
    body must be present in every set, including its own); the cross-set
    part is enforced during the sequence walk, so each set comes paired
    with the mask of its G members' bodies.  Masks are built with `|`:
    two members may share a body or a conjunct.

    The sets come size by size, each size in `itertools.combinations`
    order of the member indices.  The universe is in `sort_key` order, so
    that is the (size, sorted sort keys) order of the sets themselves."""
    bit = {f: 1 << k for k, f in enumerate(universe)}

    def mask(formulas) -> int:
        out = 0
        for f in formulas:
            out |= bit[f]
        return out

    need = []
    clash = []
    g_body = []
    any_of = []  # (member bit, disjunct bits) per Or member
    for f in universe:
        needed = clashing = body = 0
        if isinstance(f, Atom):
            clashing = bit.get(NegAtom(f.name), 0)
        elif isinstance(f, And):
            needed = mask(f.args)
        elif isinstance(f, Or):
            any_of.append((bit[f], mask(f.args)))
        elif isinstance(f, Prob) and f.op is PathOp.G:
            needed = body = bit[f.body]
        need.append(needed)
        clash.append(clashing)
        g_body.append(body)

    out = []
    n = len(universe)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            level = needed = clashing = bodies = 0
            for k in combo:
                level |= 1 << k
                needed |= need[k]
                clashing |= clash[k]
                bodies |= g_body[k]
            if needed & ~level or clashing & level:
                continue
            if any(level & b and not level & args for b, args in any_of):
                continue
            out.append((level, bodies))
    return out


def _g_bodies(formulas) -> frozenset[StateFormula]:
    """The bodies of the G members of `formulas`."""
    return frozenset(f.body for f in formulas
                     if isinstance(f, Prob) and f.op is PathOp.G)


def _require_loop_start(mc: ModelChecker, state: str, X: frozenset) -> None:
    """The loop hypothesis, checked once per search: UnsatisfiedSetError
    unless `state` satisfies X, ProgressLoopError unless X is closed and updated."""
    if closure_update(mc, state, X) != X:
        raise ProgressLoopError("X is not closed and updated")


def search_loop_generic(mc: ModelChecker, state: str, formulas, max_n: int, *,
                        node_budget: int = 200_000) -> ProgressLoop | None:
    """Exhaustive bounded search for a progress loop: iterative deepening
    over sequences of distinct locally-consistent subsets of sub(X), with
    the cross-set G-body constraint propagated during the walk.  Returns
    the first loop (in canonical order) that satisfies the loop conditions,
    or None when the space up to max_n is exhausted.  Raises
    SearchSpaceExceeded when `node_budget` extensions were tried first.

    The hypothesis is checked once, before the search; each candidate is
    checked by `loop_violations`.  The walk runs on masks over the universe
    `sorted_formulas(sub(X))` (see `_locally_consistent_sets`): distinctness,
    the carried G bodies, the cross-set rule and the anchor X <= L_i are
    integer tests, and frozensets are built only for a complete candidate.
    """
    X = frozenset(formulas)
    _require_loop_start(mc, state, X)

    universe = sorted_formulas(subformulas_of(X))
    if len(universe) > 20:
        raise SearchSpaceExceeded(f"{len(universe)} subformulas is beyond the "
                                  "exhaustive search range")
    anchor = sum(1 << k for k, f in enumerate(universe) if f in X)
    family = _locally_consistent_sets(universe)
    cap = min(max_n, (1 << len(universe)) - 1)
    budget = node_budget

    for length in range(1, cap + 2):
        chosen: list[int] = []
        for complete in _level_sequences(family, length, anchor, chosen):
            if budget <= 0:
                raise SearchSpaceExceeded(
                    f"loop search exceeded the node budget ({node_budget})")
            budget -= 1
            if complete:
                candidate = tuple(frozenset(universe[k] for k in indices(level))
                                  for level in chosen)
                if not loop_violations(mc, state, X, candidate):
                    return candidate
    return None


def _level_sequences(family, length: int, anchor: int, chosen: list[int],
                     required: int = 0, has_anchor: bool = False):
    """The walk of `search_loop_generic`: extends `chosen`, in place and in
    canonical order, by distinct levels of `family` that hold the G bodies
    `required` so far and carry their own new bodies into no earlier
    level, up to `length` levels.  Yields once per level appended, True
    when `chosen` is then a whole sequence and some level (or `has_anchor`)
    holds the `anchor` mask, and False otherwise."""
    for level, bodies in family:
        if level in chosen:
            continue
        if required & ~level:
            continue
        new_bodies = bodies & ~required
        if new_bodies and any(new_bodies & ~prev for prev in chosen):
            continue
        chosen.append(level)
        anchored = has_anchor or not anchor & ~level
        if len(chosen) == length:
            yield anchored
        else:
            yield False
            yield from _level_sequences(family, length, anchor, chosen,
                                        required | new_bodies, anchored)
        chosen.pop()


def search_loop_l2(mc: ModelChecker, state: str, formulas, *,
                   node_budget: int = 10_000) -> ProgressLoop:
    """Constructive loop search for the L2 fragment.

    Builds L0 as the closure of X at `state` with G-bodies unfolded, then
    repeatedly serves an F obligation that entered through the loop (not
    through X) and whose body appears nowhere yet: a reachable witness
    satisfying the body and all G-bodies is located breadth-first (smallest
    state id first) and a new set is closed at that witness.  An F with no
    such witness is left to the exit obligations.  The hypothesis is checked
    once, before the search; the built sequence is checked with
    `loop_violations`, and only when it fails does the search backtrack,
    depth first, over each served F's later witnesses in the same
    breadth-first order (`_l2_sequences`), so the sequence of the first
    witnesses is always tried first.  Raises ProgressLoopError with the
    first sequence's violations when no sequence is a loop, and
    SearchSpaceExceeded when it would try more than `node_budget`
    witnesses: the backtracking is exponential at worst in the number of
    served F's.
    """
    X = frozenset(formulas)
    outside = [f for f in sorted_formulas(X) if not fragment_classify(f).in_l2]
    if outside:
        raise FragmentError(f"not in fragment L2: {outside[0]}")
    _require_loop_start(mc, state, X)

    level0 = least_closed_set(mc, state, X, unfold_g=True)
    # bodies of every G member of L0 must appear in every later set
    invariant = _g_bodies(level0)
    first_problems = None
    budget = node_budget
    for loop in _l2_sequences(mc, X, invariant, [level0], level0, [state],
                              frozenset()):
        if loop is None:
            if budget <= 0:
                raise SearchSpaceExceeded(
                    f"loop search exceeded the node budget ({node_budget})")
            budget -= 1
            continue
        problems = loop_violations(mc, state, X, loop)
        if not problems:
            return loop
        if first_problems is None:
            first_problems = problems
    raise ProgressLoopError("constructed sequence is not a progress loop: "
                            + "; ".join(first_problems))


def _l2_sequences(mc: ModelChecker, X: frozenset[StateFormula],
                  invariant: frozenset[StateFormula],
                  sets: list[frozenset[StateFormula]],
                  union: frozenset[StateFormula], witnesses: list[str],
                  unservable: frozenset[StateFormula]):
    """The walk of `search_loop_l2` below the partial sequence `sets`, whose
    levels hold the formulas `union` and were closed at `witnesses`: yields
    None before each served F's witness is tried, and a whole sequence at
    each leaf, depth first, witnesses in breadth-first order."""
    while True:
        unserved = next((
            f for f in sorted_formulas(union)
            if isinstance(f, Prob) and f.op is PathOp.F
            and f not in X and f not in unservable
            and f.body not in union
            # F obligations with a G inside must not be served in-loop:
            # closing their body in a later set would introduce a G whose
            # body cannot retroactively join every earlier set.  They fall
            # through to the exit obligations instead.
            and not _g_bodies(subformulas(f.body))), None)
        if unserved is None:
            yield tuple(sets)
            return
        home = next(i for i, level in enumerate(sets) if unserved in level)
        served = False
        body = unserved.body
        for witness in _witnesses(mc, witnesses[home], body, invariant):
            served = True
            yield None
            new_level = least_closed_set(mc, witness, {body} | invariant,
                                         unfold_g=False)
            yield from _l2_sequences(mc, X, invariant, sets + [new_level],
                                     union | new_level, witnesses + [witness],
                                     unservable)
        if served:
            return
        unservable = unservable | {unserved}


def _witnesses(mc: ModelChecker, start: str, body: StateFormula,
               invariant: frozenset[StateFormula]) -> Iterator[str]:
    """The states reachable from `start` that satisfy `body` and every
    formula of `invariant`, breadth-first, successors visited in state-id
    order: deterministic."""
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if mc.holds(current, body) and mc.check(current, invariant):
            yield current
        for nxt in sorted(mc.chain.successors(current)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


# ---------------------------------------------------------------------------
# Successor selection (exit distribution of the loop)

def caratheodory_reduce(points: list[tuple[Fraction, ...]],
                        weights: list[Fraction]) -> list[Fraction]:
    """Shrinks a convex combination to at most dim+1 support points while
    preserving the combination value exactly.  Returns the new weights
    (zeros mark eliminated points).  Deterministic: the affine dependency
    comes from a fixed-order elimination and the first free column.  The
    dim+1 rows have a free column among the first dim+2 active points, and
    the solution is 0 on every column after it, so each step builds its
    matrix from those points alone."""
    if len(points) != len(weights):
        raise ValueError("points and weights differ in length")
    weights = list(weights)
    dim = len(points[0]) if points else 0
    while True:
        active = [i for i, w in enumerate(weights) if w > 0]
        if len(active) <= dim + 1:
            return weights
        active = active[:dim + 2]
        rows = [[points[i][d] for i in active] for d in range(dim)]
        rows.append([Fraction(1)] * len(active))
        dependency = linalg.null_vector(rows, len(active))
        # len(active) > dim+1 guarantees one, and some entry is positive:
        # its first free entry is 1 (and the all-ones row makes the entries
        # sum to 0)
        assert dependency is not None
        step = min(weights[i] / lam
                   for i, lam in zip(active, dependency) if lam > 0)
        for i, lam in zip(active, dependency):
            weights[i] -= step * lam
            if weights[i] < 0:  # exact arithmetic: can only be roundoff-free 0
                raise AssertionError("negative weight in reduction")


def successor_selection(mc: ModelChecker, state: str,
                        obligations) -> dict[str, Fraction]:
    """Chooses exit successors for the obligations that a loop at `state`
    pushes outward, as a dict from each kept successor to its positive
    weight, in state-name order; the weights sum to one.

    The candidate states are those inside bottom SCCs plus those satisfying
    some F-obligation body.  Which of them a run from `state` enters first
    with positive probability is a graph fact (`first_entries`).  With no
    path formula to cover, the first of those in name order takes weight
    1, which is where the reduction below ends in dimension 0.  Otherwise
    the first-passage distribution over the candidates is reduced by exact
    Caratheodory steps on the achieved-probability vectors (all
    obligations, F and G alike, F paths first), so the support size is at
    most |path formulas| + 1 and every obligation's probability at `state`
    is covered by the weighted successors.
    """
    delta = frozenset(obligations)
    require_satisfied(mc, state, delta)

    # `sort_key` ranks every F member before every G member
    paths = member_paths(sorted_formulas(delta))

    candidates = mc.sccs.bottom
    if not paths:
        entered = first_entries(mc.chain.succ, mc.chain.mask((state,)), candidates)
        return {min(mc.chain.names(entered)): Fraction(1)}
    for path in paths:
        if path.op is PathOp.F:
            candidates |= mc.sat_mask(path.body)
    passage = first_passage(mc.chain, state, mc.chain.names(candidates))

    support = sorted(t for t, y in passage.items() if y > 0)
    vectors = [tuple(mc.probability(t, path) for path in paths) for t in support]
    weights = caratheodory_reduce(vectors, [passage[t] for t in support])
    return {t: w for t, w in zip(support, weights) if w > 0}


def verify_selection(mc: ModelChecker, state: str, obligations,
                     selection: dict[str, Fraction]) -> list[str]:
    """Independently checks the five selection conditions on a successor
    -> weight dict; returns all violations, path formulas in the
    `sorted_formulas` order of the obligations that carry them."""
    problems = []
    if sum(selection.values(), Fraction(0)) != 1:
        problems.append("weights do not sum to 1")
    paths = member_paths(sorted_formulas(obligations))
    if not 0 < len(selection) <= len(paths) + 1:
        problems.append(
            f"support size {len(selection)} outside (0, {len(paths) + 1}]")
    for path in paths:
        covered = sum((w * mc.probability(t, path) for t, w in selection.items()),
                      Fraction(0))
        if mc.probability(state, path) > covered:
            problems.append(f"probability of {path} at {state!r} not covered")
    region = states_reachable_from(mc.chain.succ, mc.chain.mask((state,)))
    f_bodies = [p.body for p in paths if p.op is PathOp.F]
    for t in selection:
        bit = mc.chain.mask((t,))
        if not bit & region:
            problems.append(f"successor {t!r} unreachable from {state!r}")
        if not bit & mc.sccs.bottom and not any(mc.holds(t, b) for b in f_bodies):
            problems.append(
                f"successor {t!r} neither in a bottom SCC nor satisfying an "
                "F-obligation body")
    return problems


# ---------------------------------------------------------------------------
# Model construction

def loop_return_probability(loop: ProgressLoop) -> Fraction:
    """The probability of staying in the loop at its exit state: midpoint
    between 1 and the largest sub-1 bound of the loop's F formulas (1/2 when
    there is none)."""
    bounds = [f.bound for f in frozenset().union(*loop)
              if isinstance(f, Prob) and f.op is PathOp.F and f.bound < 1]
    if not bounds:
        return Fraction(1, 2)
    return (max(bounds) + 1) / 2


def build_loop_model(loop: ProgressLoop, submodels, entry_for,
                     ) -> tuple[MarkovChain, str]:
    """Assembles the cycle for a progress loop with the given exit
    submodels: a list of (chain, entry state, weight) triples whose weights
    are positive and sum to one.

    Loop states are named L0..Ln and valued with the atoms of their formula
    set; each steps to the next with probability 1; the last returns to L0
    with the loop-return probability and otherwise enters a submodel entry.
    Submodel states are renamed only on collision, to a name no other state
    of the assembled model holds.  The returned entry state is the first
    L_i containing the formula set `entry_for`.
    """
    total = sum((Fraction(w) for _, _, w in submodels), Fraction(0))
    if total != 1:
        raise ValueError(f"submodel weights sum to {total}, not 1")
    if any(Fraction(w) <= 0 for _, _, w in submodels):
        raise ValueError("submodel weights must be positive")

    n = len(loop)
    loop_ids = [f"L{i}" for i in range(n)]
    used = set(loop_ids)
    # every name the assembled model may hold, so a renamed state never
    # takes a name that a later submodel keeps
    taken = used.union(*(sub.states for sub, _, _ in submodels))
    states: list[str] = list(loop_ids)
    valuation: dict[str, list[str]] = {
        lid: sorted(f.name for f in level if isinstance(f, Atom))
        for lid, level in zip(loop_ids, loop)
    }
    edges: dict[tuple[str, str], Fraction] = {}

    renamed_entries: list[str] = []
    for k, (sub, entry, _) in enumerate(submodels):
        if entry not in sub:
            raise ValueError(f"entry state {entry!r} not in submodel {k}")
        mapping = {}
        for s in sub.states:
            name = s
            if name in used:
                name, count = f"m{k}_{s}", 1
                while name in taken:
                    name, count = f"m{k}_{s}_{count}", count + 1
                taken.add(name)
            mapping[s] = name
            used.add(name)
        states.extend(mapping[s] for s in sub.states)
        for s in sub.states:
            valuation[mapping[s]] = sorted(sub.atoms(s))
        for src, dst, p in sub.edges():
            edges[(mapping[src], mapping[dst])] = p
        renamed_entries.append(mapping[entry])

    for i in range(n - 1):
        edges[(loop_ids[i], loop_ids[i + 1])] = Fraction(1)
    stay = loop_return_probability(loop)
    # no submodel state keeps a loop id and no two submodels share an
    # entry, so each exit edge is set once
    edges[(loop_ids[-1], loop_ids[0])] = stay
    for (_, _, w), new_entry in zip(submodels, renamed_entries):
        edges[(loop_ids[-1], new_entry)] = (1 - stay) * Fraction(w)

    chain = MarkovChain(states, edges, valuation)
    wanted = frozenset(entry_for)
    for lid, level in zip(loop_ids, loop):
        if wanted <= level:
            return chain, lid
    raise ValueError("no loop set contains the requested entry formulas")


def bscc_reduce(mc: ModelChecker, state: str,
                formulas) -> tuple[MarkovChain, str]:
    """Collapses the bottom SCC containing `state` to a deterministic cycle
    with one representative per satisfaction signature over sub(X).  The
    representative of a class is its smallest state id; the cycle visits
    representatives in id order.  The entry is the representative of
    `state`'s class and is re-checked to satisfy the formulas.
    """
    X = frozenset(formulas)
    bit = mc.chain.mask((state,))
    if not bit & mc.sccs.bottom:
        raise ValueError(f"state {state!r} is not in a bottom SCC")
    component = next(comp for comp in mc.sccs.components if comp & bit)
    require_satisfied(mc, state, X)

    sub = sorted_formulas(subformulas_of(X))
    classes: dict[tuple[bool, ...], str] = {}
    for s in sorted(mc.chain.names(component)):
        signature = tuple(mc.holds(s, f) for f in sub)
        classes.setdefault(signature, s)
    reps = sorted(classes.values())
    assert len(reps) <= 2 ** len(sub)

    edges = {}
    for i, rep in enumerate(reps):
        edges[(rep, reps[(i + 1) % len(reps)])] = Fraction(1)
    reduced = MarkovChain(reps, edges, {r: mc.chain.atoms(r) for r in reps})

    entry_signature = tuple(mc.holds(state, f) for f in sub)
    entry = classes[entry_signature]
    if not ModelChecker(reduced).check(entry, X):
        raise CompressionError("signature cycle lost a formula of X")
    return reduced, entry


@dataclass
class CompressionNode:
    """One recursion node of the compression pipeline, for trace reports."""

    state: str
    formulas: frozenset[StateFormula]
    measure: int
    base: int
    bound: int
    mode: str
    size: int = 0
    loop: ProgressLoop | None = None
    obligations: frozenset[StateFormula] = frozenset()
    selection: dict[str, Fraction] | None = None
    children: list["CompressionNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        data = {
            "state": self.state,
            "formulas": [str(f) for f in sorted_formulas(self.formulas)],
            "measure": self.measure,
            "base": self.base,
            "size_bound": self.bound,
            "size": self.size,
            "mode": self.mode,
        }
        if self.loop is not None:
            data["loop"] = [[str(f) for f in sorted_formulas(level)]
                            for level in self.loop]
            data["exit_obligations"] = [
                str(f) for f in sorted_formulas(self.obligations)]
        if self.selection is not None:
            data["successors"] = [
                {"state": t, "weight": str(w)} for t, w in self.selection.items()]
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data


def compress_model(chain: MarkovChain, state: str, formula: StateFormula, *,
                   fragment: str = "l2", max_n: int = 3,
                   ) -> tuple[MarkovChain, str, CompressionNode]:
    """Builds a small model of `formula` from a satisfying state of `chain`.

    fragment: "l2" uses the constructive loop search (the formula and every
    derived set must classify into L2); "generic" uses the exhaustive search
    bounded by `max_n`.  Returns the model, its entry state, and the
    recursion trace.  The entry is re-verified against `formula` and the
    geometric size bound is enforced at every recursion level.
    """
    if fragment not in ("l2", "generic"):
        raise ValueError(f"unknown fragment {fragment!r}")
    mc = ModelChecker(chain)
    # the root guard: `closure_update` checks the closure once, and the
    # closure holds exactly when the formula does; the error names the
    # formula, and comes before the fragment check
    try:
        root_set = closure_update(mc, state, frozenset({formula}))
    except UnsatisfiedSetError:
        raise UnsatisfiedSetError(state, formula) from None
    if fragment == "l2" and not fragment_classify(formula).in_l2:
        raise FragmentError(f"not in fragment L2: {formula}")

    model, entry, trace = _compress(mc, state, root_set, None, fragment, max_n)
    if not ModelChecker(model).holds(entry, formula):
        raise CompressionError("compressed model fails to satisfy the formula")
    return model, entry, trace


def _compress(mc: ModelChecker, at: str, X: frozenset[StateFormula],
              parent_measure: int | None, fragment: str,
              max_n: int) -> tuple[MarkovChain, str, CompressionNode]:
    """The model, entry and trace `compress_model` builds for the set `X`
    at state `at`, recursing into each selected successor."""
    m = progress_measure(mc, at, X)
    base = bound_base(X)
    node = CompressionNode(state=at, formulas=X, measure=m, base=base,
                           bound=model_size_bound(base, m + 1), mode="")

    if mc.chain.mask((at,)) & mc.sccs.bottom:
        node.mode = "bscc"
        model, entry = bscc_reduce(mc, at, X)
    else:
        # only recursive children must make progress; bottom-SCC children
        # are collapsed directly and need no induction
        if parent_measure is not None and m >= parent_measure:
            raise CompressionError(
                f"progress measure did not decrease at {at!r}: "
                f"{m} >= {parent_measure}")
        node.mode = "loop"
        if fragment == "l2":
            loop = search_loop_l2(mc, at, X)
        else:
            loop = search_loop_generic(mc, at, X, max_n)
            if loop is None:
                raise ProgressLoopError(
                    f"no progress loop found for {at!r} within max_n={max_n}")
        node.loop = loop
        node.obligations = exit_obligations(loop)
        node.selection = successor_selection(mc, at, node.obligations)
        submodels = []
        for t, w in node.selection.items():
            # an F whose body holds at t is discharged at t: t owes the body
            owed = frozenset(
                g.body if g.op is PathOp.F and mc.holds(t, g.body) else g
                for g in achieved_bounds(mc, t, node.obligations))
            X_t = closure_update(mc, t, owed)
            child_model, child_entry, child_node = _compress(
                mc, t, X_t, m, fragment, max_n)
            node.children.append(child_node)
            submodels.append((child_model, child_entry, w))
        model, entry = build_loop_model(loop, submodels, entry_for=X)

    node.size = len(model.states)
    if node.size > node.bound:
        raise CompressionError(
            f"constructed model exceeds the size bound at {at!r}: "
            f"{node.size} > {node.bound}")
    return model, entry, node


def simple_loop_components(chain: MarkovChain) -> list[str]:
    """Diagnostics for the output shape claim: every non-bottom SCC must be
    a simple cycle with exactly one exit state.  Returns violations."""
    problems = []
    decomposition = scc_decompose(chain)
    succ = chain.succ
    for comp in decomposition.components:
        if comp & decomposition.bottom:
            continue
        exits = 0
        for i in indices(comp):
            inside = (succ[i] & comp).bit_count()
            if inside != 1:
                problems.append(
                    f"non-bottom SCC state {chain.states[i]!r} has {inside} "
                    "successors inside its component (simple loop needs exactly 1)")
            if succ[i] & ~comp:
                exits += 1
        if exits > 1:
            names = sorted(chain.states[i] for i in indices(comp))
            problems.append(
                f"non-bottom SCC {{{', '.join(names)}}} has {exits} exit states")
        # the single intra-component successor of each state makes the
        # component one cycle exactly when it is strongly connected, which
        # scc_decompose already established
    return problems
