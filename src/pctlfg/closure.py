"""Closure and bound-tightening operators on sets of satisfied formulas.

Every operator takes the `ModelChecker` of the model it asks about; the
chain is `mc.chain`.  `closure` propagates a satisfied formula set through
conjunctions, satisfied disjuncts, and satisfied F-bodies.  G-bodies are
never unfolded here; `least_closed_set`, the one engine behind these rules,
unfolds them only when the loop search asks for it.  `update` replaces
every probability bound with the exact probability at the state, which can
only raise bounds.  `achieved_bounds` records the exact probabilities of a
set's path formulas at an arbitrary state (no satisfaction precondition).
"""

from __future__ import annotations

from .formula import And, Cmp, Or, PathOp, Prob, StateFormula, sorted_formulas
from .modelcheck import ModelChecker


class UnsatisfiedSetError(ValueError):
    """A closure/update precondition s |= X failed; names the first
    falsified formula in `sorted_formulas` order."""

    def __init__(self, state: str, formula: StateFormula):
        super().__init__(f"state {state!r} does not satisfy {formula}")
        self.state = state
        self.formula = formula


def _require_satisfied(mc: ModelChecker, state: str, formulas) -> None:
    if not mc.check(state, formulas):
        raise UnsatisfiedSetError(state, next(
            f for f in sorted_formulas(formulas) if not mc.holds(state, f)))


def least_closed_set(mc: ModelChecker, state: str, formulas, *,
                     unfold_g: bool) -> frozenset[StateFormula]:
    """Least superset of `formulas` closed under: all conjuncts; disjuncts
    satisfied at `state`; bodies of F-formulas satisfied at `state`; and,
    with `unfold_g`, the bodies of all G-formulas.  No precondition."""
    result: set[StateFormula] = set()
    work = list(formulas)
    while work:
        f = work.pop()
        if f in result:
            continue
        result.add(f)
        if isinstance(f, And):
            work.extend(f.args)
        elif isinstance(f, Or):
            work.extend(a for a in f.args if mc.holds(state, a))
        elif isinstance(f, Prob):
            if f.op is PathOp.G and unfold_g:
                work.append(f.body)
            elif f.op is PathOp.F and mc.holds(state, f.body):
                work.append(f.body)
    return frozenset(result)


def closure(mc: ModelChecker, state: str, formulas) -> frozenset[StateFormula]:
    """Least superset of `formulas` closed under: all conjuncts; disjuncts
    satisfied at `state`; bodies of F-formulas satisfied at `state`.
    Requires state |= formulas."""
    _require_satisfied(mc, state, formulas)
    return least_closed_set(mc, state, formulas, unfold_g=False)


def update(mc: ModelChecker, state: str, formulas) -> frozenset[StateFormula]:
    """Replaces every probabilistic member P(Phi) |> r with P(Phi) >= r'
    where r' is the exact probability at `state`; other members are kept.
    Requires state |= formulas, so r' >= r always holds, and r' > 0 for a
    core member, so `achieved_bounds` drops none."""
    _require_satisfied(mc, state, formulas)
    kept = frozenset(f for f in formulas if not isinstance(f, Prob))
    return kept | achieved_bounds(mc, state, formulas)


def closure_update(mc: ModelChecker, state: str, formulas) -> frozenset[StateFormula]:
    """update after closure; idempotent."""
    return update(mc, state, closure(mc, state, formulas))


def achieved_bounds(mc: ModelChecker, state: str, formulas) -> frozenset[StateFormula]:
    """For every probabilistic member with positive probability at `state`,
    the formula P(Phi) >= P(state |= Phi).  Zero-probability path formulas
    and non-probabilistic members are dropped.  Every returned formula holds
    at `state` by construction."""
    out: set[StateFormula] = set()
    for f in formulas:
        if not isinstance(f, Prob):
            continue
        achieved = mc.probability(state, f.path_formula)
        if achieved > 0:
            out.add(Prob(f.op, Cmp.GE, achieved, f.body))
    return frozenset(out)
