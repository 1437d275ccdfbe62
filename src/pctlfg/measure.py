"""The progress measure and its auxiliary quantities.

`path_norm` weighs a path formula by its distinct probabilistic operators,
counted level by level: 1 for the formula itself plus the norms of the
maximal path formulas inside its body.  `pending_globals` collects the G
path formulas of a set that the state does not yet satisfy almost surely;
`reachable_eventualities` the F obligations that are unsatisfied locally but
witnessed by a reachable state that spoils none of the G formulas of a
pending set, which its caller names.  The measure combines the first three
and strictly decreases along the model compression recursion, which is
what bounds its depth; `bound_base` is the base of the model-size bound.
Each is its own function, called directly by whoever needs it, and each
derives the sets it reads from the formula set itself, apart from that
pending set: sub(X) is `formula.subformulas_of`, psub(X) is
`path_subformulas`, and the members' path formulas are `member_paths`,
the one list of them.  Every function that asks about a model takes its
`ModelChecker`; the chain is `mc.chain`.
"""

from __future__ import annotations

from .formula import (
    PathFormula, PathOp, Prob, immediate_path_subformulas, subformulas_of,
)
from .markov import states_reachable_from
from .modelcheck import ModelChecker


def path_norm(path: PathFormula) -> int:
    """1 + the norms of the maximal path formulas of the body."""
    return 1 + sum(path_norm(q) for q in immediate_path_subformulas(path.body))


def path_subformulas(formulas) -> frozenset[PathFormula]:
    """psub(X): the path formulas of the probabilistic formulas in sub(X)."""
    return frozenset(g.path_formula for g in subformulas_of(formulas)
                     if isinstance(g, Prob))


def member_paths(formulas) -> tuple[PathFormula, ...]:
    """The distinct path formulas of the set's own probabilistic members,
    in the order the members come."""
    return tuple(dict.fromkeys(f.path_formula for f in formulas
                               if isinstance(f, Prob)))


def pending_globals(mc: ModelChecker, state: str, formulas) -> frozenset[PathFormula]:
    """G path formulas occurring anywhere in the set's subformulas whose
    almost-sure version fails at `state`."""
    here = mc.chain.mask((state,))
    return frozenset(path for path in path_subformulas(formulas)
                     if path.op is PathOp.G and not mc.path_masks(path)[1] & here)


def reachable_eventualities(mc: ModelChecker, state: str, formulas,
                            pending: frozenset[PathFormula],
                            ) -> frozenset[PathFormula]:
    """F path formulas of the set's own F-members whose body fails at
    `state` but holds at some reachable witness that additionally fails
    G=1 for every G formula of `pending`.  The caller names the pending set
    the eventualities are read under; for the measure it is the set's own
    `pending_globals` at `state`."""
    candidates = [f for f in formulas
                  if isinstance(f, Prob) and f.op is PathOp.F
                  and not mc.holds(state, f.body)]
    if not candidates:
        return frozenset()
    witnesses = states_reachable_from(mc.chain.succ, mc.chain.mask((state,)))
    for g in pending:
        witnesses &= ~mc.path_masks(g)[1]
    return frozenset(f.path_formula for f in candidates
                     if witnesses & mc.sat_mask(f.body))


def bound_base(formulas) -> int:
    """The base of the geometric model-size bound:
    2 + |nsub| + |psub| + |union of proper subformulas of the members|,
    where nsub is the non-probabilistic part of sub(X)."""
    nsub = sum(not isinstance(g, Prob) for g in subformulas_of(formulas))
    proper = frozenset().union(*(f._proper for f in formulas))
    return 2 + nsub + len(path_subformulas(formulas)) + len(proper)


def progress_measure(mc: ModelChecker, state: str, formulas) -> int:
    """1 + |pending| * (1 + sum of norms of the members' path formulas)
    + sum of norms of the reachable eventualities."""
    pending = pending_globals(mc, state, formulas)
    total = 1
    if pending:
        total += len(pending) * (1 + sum(path_norm(q)
                                         for q in member_paths(formulas)))
    total += sum(path_norm(q) for q in
                 reachable_eventualities(mc, state, formulas, pending))
    return total


def model_size_bound(base: int, height: int) -> int:
    """2^base * (base^height - 1) / (base - 1), exactly; `height` is the
    measure plus one in the compression pipeline."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if height < 1:
        raise ValueError("height must be at least 1")
    geometric = sum(base ** k for k in range(height))
    return (2 ** base) * geometric
