"""Exact quantitative model checking for F/G formulas on finite chains.

Probabilities are computed by exact rational linear solves, never by value
iteration.  For reachability, the graph kernel `markov.prob01` first pins
the states with no path to the target to 0 and the states that reach it
almost surely to 1; only the "maybe" states in between go to the exact
absorption kernel `markov.absorption`.  G-probabilities are the complement
of reaching the body's complement.  A `ModelChecker` is the per-chain
context of the package: besides the memo tables it holds, each built on
first use, the chain's SCC decomposition (`sccs`) and its graph as
successor and predecessor bitmasks (`succ`, `pred`; bit i is
`chain.states[i]`); `mask` and `names` convert between names and masks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import or_

from .formula import And, Atom, NegAtom, Or, PathFormula, PathOp, StateFormula
from .markov import (
    MarkovChain, SccDecomposition, absorption, predecessor_masks, prob01,
    scc_decompose,
)

_ZERO, _ONE = Fraction(0), Fraction(1)


class ModelChecker:
    """Per-chain checker with memoized satisfaction sets, probability
    vectors, SCC decomposition and graph bitmasks.  The memo tables are
    private to the instance; the chain is treated as immutable."""

    def __init__(self, chain: MarkovChain):
        self.chain = chain
        self._sat: dict[StateFormula, frozenset[str]] = {}
        self._pvec: dict[PathFormula, dict[str, Fraction]] = {}
        self._bit = {s: 1 << i for i, s in enumerate(chain.states)}

    @cached_property
    def sccs(self) -> SccDecomposition:
        """The chain's SCC decomposition, computed once on first use."""
        return scc_decompose(self.chain)

    # -- the graph as bitmasks, and reachability ----------------------------

    @cached_property
    def succ(self) -> list[int]:
        """Per-state successor bitmasks: bit i is the state chain.states[i]."""
        return [self.mask(self.chain.successors(s)) for s in self.chain.states]

    @cached_property
    def pred(self) -> list[int]:
        """Per-state predecessor bitmasks, the transpose of `succ`."""
        return predecessor_masks(self.succ)

    def mask(self, states) -> int:
        """The bitmask of the named states; KeyError on an unknown name."""
        return reduce(or_, map(self._bit.__getitem__, states), 0)

    def names(self, mask: int) -> frozenset[str]:
        """The names of the states in a bitmask."""
        return frozenset(s for i, s in enumerate(self.chain.states) if mask >> i & 1)

    def reach_probabilities(self, targets) -> dict[str, Fraction]:
        """P(eventually enter `targets`) for every state, exactly; KeyError
        on a target that is not a state of the chain."""
        prob0, prob1 = prob01(self.pred, self.mask(targets))
        boundary = dict.fromkeys(self.names(prob1), (1,))
        probs = {s: _ONE if s in boundary else _ZERO for s in self.chain.states}
        maybe = [s for i, s in enumerate(self.chain.states)
                 if not (prob0 | prob1) >> i & 1]
        for s, (value,) in absorption(maybe, self.chain.successors, boundary).items():
            probs[s] = value
        return probs

    # -- path formulas ------------------------------------------------------

    def path_probabilities(self, path: PathFormula) -> dict[str, Fraction]:
        if path not in self._pvec:
            body_sat = self.sat_set(path.body)
            if path.op is PathOp.F:
                vec = self.reach_probabilities(body_sat)
            else:
                escape = self.reach_probabilities(set(self.chain.states) - body_sat)
                vec = {s: 1 - escape[s] for s in self.chain.states}
            self._pvec[path] = vec
        return self._pvec[path]

    def probability(self, state: str, path: PathFormula) -> Fraction:
        if state not in self.chain:
            raise KeyError(state)
        return self.path_probabilities(path)[state]

    # -- state formulas -----------------------------------------------------

    def sat_set(self, f: StateFormula) -> frozenset[str]:
        if f in self._sat:
            return self._sat[f]
        chain = self.chain
        if isinstance(f, Atom):
            result = frozenset(s for s in chain.states if f.name in chain.atoms(s))
        elif isinstance(f, NegAtom):
            result = frozenset(s for s in chain.states if f.name not in chain.atoms(s))
        elif isinstance(f, And):
            result = frozenset(chain.states)
            for arg in f.args:
                result &= self.sat_set(arg)
        elif isinstance(f, Or):
            result = frozenset()
            for arg in f.args:
                result |= self.sat_set(arg)
        else:
            vec = self.path_probabilities(f.path_formula)
            result = frozenset(s for s in chain.states if f.cmp.holds(vec[s], f.bound))
        self._sat[f] = result
        return result

    def holds(self, state: str, f: StateFormula) -> bool:
        if state not in self.chain:
            raise KeyError(state)
        return state in self.sat_set(f)

    def check(self, state: str, formulas) -> bool:
        """s |= X: membership in the intersection of the satisfaction sets."""
        return all(self.holds(state, f) for f in formulas)
