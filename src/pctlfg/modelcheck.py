"""Exact quantitative model checking for F/G formulas on finite chains.

Probabilities are computed by exact rational linear solves, never by value
iteration.  For reachability, the graph kernel `markov.prob01` first pins
the states with no path to the target to 0 and the states that reach it
almost surely to 1; the remaining "maybe" states satisfy a nonsingular
linear system, solved by `markov.absorption`, the exact absorption kernel
that first passage and the ETR oracle share.  G-probabilities are the
complement of reaching the body's complement.  A `ModelChecker` is the
per-chain context of the package: besides the memoized satisfaction sets
and probability vectors it holds the chain's SCC decomposition (`sccs`),
computed on first use, which first passage, successor selection and
compression read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .formula import (
    And, Atom, NegAtom, Or, PathFormula, PathOp, StateFormula,
)
from .markov import (
    MarkovChain, SccDecomposition, absorption, prob01, scc_decompose,
)

_ZERO, _ONE = Fraction(0), Fraction(1)


class ModelChecker:
    """Per-chain checker with memoized satisfaction sets, probability
    vectors and SCC decomposition.  The memo tables are private to the
    instance; the chain is treated as immutable."""

    def __init__(self, chain: MarkovChain):
        self.chain = chain
        self._sat: dict[StateFormula, frozenset[str]] = {}
        self._pvec: dict[PathFormula, dict[str, Fraction]] = {}

    @cached_property
    def sccs(self) -> SccDecomposition:
        """The chain's SCC decomposition, computed once on first use."""
        return scc_decompose(self.chain)

    # -- reachability -------------------------------------------------------

    def reach_probabilities(self, targets) -> dict[str, Fraction]:
        """P(eventually enter `targets`) for every state, exactly."""
        chain = self.chain
        prob0, prob1 = prob01(
            chain.states, ((src, dst) for src, dst, _ in chain.edges()), targets)
        probs = {s: _ONE if s in prob1 else _ZERO for s in chain.states}
        maybe = [s for s in chain.states if s not in prob0 and s not in prob1]
        boundary = dict.fromkeys(prob1, (1,))
        for s, (value,) in absorption(maybe, chain.successors, boundary).items():
            probs[s] = value
        return probs

    # -- path formulas ------------------------------------------------------

    def path_probabilities(self, path: PathFormula) -> dict[str, Fraction]:
        if path not in self._pvec:
            body_sat = self.sat_set(path.body)
            if path.op is PathOp.F:
                vec = self.reach_probabilities(body_sat)
            else:
                outside = frozenset(self.chain.states) - body_sat
                escape = self.reach_probabilities(outside)
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
