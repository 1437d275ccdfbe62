"""Exact quantitative model checking for F/G formulas on finite chains.

Probabilities are computed by exact rational linear solves, never by value
iteration.  For reachability, the graph kernel `markov.prob01` first pins
the states with no path to the target to 0 and the states that reach it
almost surely to 1; only the "maybe" states in between go to the exact
absorption kernel `markov.absorption`.  G-probabilities are the complement
of reaching the body's complement.  A `ModelChecker` is the per-chain
context of the package.  State sets are bitmasks (bit i is
`chain.states[i]`): the graph as successor and predecessor masks (`succ`,
`pred`), the reach targets, and the satisfaction sets, which one recursion,
`sat_mask`, memoizes per subformula.  Names appear only at the edge:
`mask` and `names` convert, `sat_set` is `names(sat_mask(f))`, and reach
and path probabilities are keyed by state name.  The checker also holds
the chain's SCC decomposition (`sccs`); masks, decomposition and memo
entries are built on first use.  It is the one exact evaluator of a fixed
chain: bounded sat confirms an edge assignment by the reach probabilities
of the chain it defines (`etr.check_assignment`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_

from .formula import And, Atom, NegAtom, Or, PathFormula, PathOp, StateFormula
from .markov import (
    MarkovChain, SccDecomposition, absorption, predecessor_masks, prob01,
    scc_decompose,
)

_ZERO, _ONE = Fraction(0), Fraction(1)


class ModelChecker:
    """Per-chain checker with memoized satisfaction masks, probability
    vectors, SCC decomposition and graph bitmasks.  The memo tables are
    private to the instance; the chain is treated as immutable."""

    def __init__(self, chain: MarkovChain):
        self.chain = chain
        self.full = (1 << len(chain.states)) - 1
        self._sat: dict[StateFormula, int] = {}
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

    def reach_probabilities(self, targets: int) -> dict[str, Fraction]:
        """P(eventually enter the `targets` mask) for every state, exactly."""
        prob0, prob1 = prob01(self.pred, targets)
        probs = {s: _ONE if prob1 >> i & 1 else _ZERO
                 for i, s in enumerate(self.chain.states)}
        boundary = {s: (1,) for s, p in probs.items() if p}
        maybe = [s for i, s in enumerate(self.chain.states)
                 if not (prob0 | prob1) >> i & 1]
        for s, (value,) in absorption(maybe, self.chain.successors, boundary).items():
            probs[s] = value
        return probs

    # -- path formulas ------------------------------------------------------

    def path_probabilities(self, path: PathFormula) -> dict[str, Fraction]:
        if path not in self._pvec:
            body = self.sat_mask(path.body)
            if path.op is PathOp.F:
                vec = self.reach_probabilities(body)
            else:
                escape = self.reach_probabilities(self.full & ~body)
                vec = {s: 1 - p for s, p in escape.items()}
            self._pvec[path] = vec
        return self._pvec[path]

    def probability(self, state: str, path: PathFormula) -> Fraction:
        return self.path_probabilities(path)[state]

    # -- state formulas -----------------------------------------------------

    def sat_mask(self, f: StateFormula) -> int:
        """The mask of the states satisfying `f`, memoized per subformula."""
        if f in self._sat:
            return self._sat[f]
        if isinstance(f, Atom):
            result = self.mask(s for s in self.chain.states
                               if f.name in self.chain.atoms(s))
        elif isinstance(f, NegAtom):
            result = self.full & ~self.sat_mask(Atom(f.name))
        elif isinstance(f, And):
            result = reduce(and_, map(self.sat_mask, f.args), self.full)
        elif isinstance(f, Or):
            result = reduce(or_, map(self.sat_mask, f.args), 0)
        else:
            vec = self.path_probabilities(f.path_formula)
            result = self.mask(s for s, p in vec.items() if f.cmp.holds(p, f.bound))
        self._sat[f] = result
        return result

    def sat_set(self, f: StateFormula) -> frozenset[str]:
        """The names of the states satisfying `f`."""
        return self.names(self.sat_mask(f))

    def holds(self, state: str, f: StateFormula) -> bool:
        """s |= f; KeyError on a state that is not in the chain."""
        return bool(self.sat_mask(f) & self._bit[state])

    def check(self, state: str, formulas) -> bool:
        """s |= X: membership in the intersection of the satisfaction sets."""
        return all(self.holds(state, f) for f in formulas)
