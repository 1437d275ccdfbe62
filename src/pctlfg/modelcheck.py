"""Exact quantitative model checking for F/G formulas on finite chains.

Probabilities are computed by exact rational linear solves, never by value
iteration.  For reachability, the graph kernel `markov.prob01` first pins
the states with no path to the target to 0 and the states that reach it
almost surely to 1 (the checker memoizes the two masks per target mask);
only the "maybe" states in between go to the exact absorption kernel
`markov.absorption`, which reads each state's row in integers from the
chain's `row(i)`, derived on each call.  `reach_probabilities` takes a
0 mask and a 1 mask and returns the triple (0 mask, 1 mask, {index:
value} for the maybe states).  `path_masks` gives a path formula's two
masks alone, without a solve (a G formula's are those of reaching the
body's complement, swapped), and `path_values` solves between them, for
F and G alike.  A `Prob` node's satisfaction mask takes the 1 and 0
masks whole when the bound admits 1 and 0 (`_passing`).  Every maybe
value lies strictly between 0 and 1, so against a bound of 0 or 1 the
maybe states pass whole or not at all too (`verdicts`), and a qualitative
operator needs no solve; only a bound strictly between 0 and 1 solves and
compares the maybe values.

A question about one state costs only what that state needs: `holds`
stops a conjunction or disjunction at the first argument that decides,
and answers a `Prob` at a state in its path formula's 0 or 1 mask by
comparing that value with the bound; only at a maybe state does it build
the operator's mask, and with it, for a bound strictly between 0 and 1,
the one solve for all its maybe states.
`probability` likewise reads 0 and 1 off the masks.  The answers equal
those of the full masks, since a maybe value lies strictly between 0 and 1.

A `ModelChecker` is the per-chain context of the package; it evaluates
formulas, and its chain is held in index form, built at construction
(`chain.index`, the masks `chain.succ` and `chain.pred`, one mask per atom
in `chain.atom_masks`, `chain.row`, `chain.mask` and `chain.names`); the
chain's names are views.  An atom's satisfaction mask is the chain's atom
mask.  State sets are bitmasks (bit i is `chain.states[i]`):
the reach targets and the satisfaction sets, which one recursion,
`sat_mask`, memoizes per subformula, as `path_values` memoizes the triple
per path formula.  Names appear only at the edge: `sat_set` is
`chain.names(sat_mask(f))`, and `path_probabilities` and `probability`
give probabilities by state name.  The checker also holds the chain's SCC
decomposition (`sccs`: one mask per component and the bottom mask, found
by Kosaraju-Sharir, a depth-first pass over successor masks and then
`markov.states_with_path_to` over predecessor masks); decomposition and
memo entries are built on first use.  It is the one exact evaluator of a
fixed chain: bounded sat confirms an edge assignment by the satisfaction
masks of the chain it defines, which must equal the candidate's label
sets (`etr.check_assignment`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_

from .formula import (
    And, Atom, Cmp, NegAtom, Or, PathFormula, PathOp, Prob, StateFormula,
)
from .markov import (
    MarkovChain, SccDecomposition, absorption, indices, prob01, scc_decompose,
)

_ZERO, _ONE = Fraction(0), Fraction(1)

# Probabilities in index form: the mask of the states with value 0, the
# mask of those with value 1, and {index: value} for the states in neither.
Values = tuple[int, int, dict[int, Fraction]]


def verdicts(cmp: Cmp, bound: Fraction) -> tuple[bool, bool, bool | None]:
    """Whether a value of 1, of 0 and of anything strictly between 0 and 1
    satisfies `cmp bound`.  The last is None for a bound strictly between 0
    and 1, since such a value can lie on either side of it; otherwise all
    of (0, 1) compares alike with the bound, so 1/2 stands for it.  Read on
    the bound's integers n/d, d > 0: a value v compares with n/d as v*d
    compares with n."""
    n, d = bound.as_integer_ratio()
    inside = None if 0 < n < d else cmp.holds(d, 2 * n)
    return cmp.holds(d, n), cmp.holds(0, n), inside


def _value(values: Values, i: int) -> Fraction:
    zero, one, maybe = values
    return maybe.get(i, _ONE if one >> i & 1 else _ZERO)


class ModelChecker:
    """Per-chain checker with memoized satisfaction masks, path
    probabilities and SCC decomposition.  The memo tables are private to
    the instance; the chain is treated as immutable."""

    def __init__(self, chain: MarkovChain):
        self.chain = chain
        self.full = (1 << len(chain.states)) - 1
        self._sat: dict[StateFormula, int] = {}
        self._path: dict[PathFormula, Values] = {}
        self._prob01: dict[int, tuple[int, int]] = {}

    @cached_property
    def sccs(self) -> SccDecomposition:
        """The chain's SCC decomposition, computed once on first use."""
        return scc_decompose(self.chain)

    def prob01(self, targets: int) -> tuple[int, int]:
        """The (prob0, prob1) masks of reaching the `targets` mask,
        memoized per target mask."""
        known = self._prob01.get(targets)
        if known is None:
            known = self._prob01[targets] = prob01(self.chain.pred, targets)
        return known

    def reach_probabilities(self, zero: int, one: int) -> Values:
        """P(enter the `one` mask before the `zero` mask), exactly, in index
        form: `(zero, one, {i: value})` with the values of the states in
        neither mask from one integer-row absorption solve.  Every state in
        neither mask must have a path into `zero | one`, as the masks of
        `prob01` and `path_masks` do."""
        maybe = indices(self.full & ~(zero | one))
        solved = absorption(self.chain, maybe, [one])
        return zero, one, {i: x for i, (x,) in solved.items()}

    # -- path formulas ------------------------------------------------------

    def path_values(self, path: PathFormula) -> Values:
        """The path formula's probabilities in index form, memoized: the
        reach solve between its `path_masks`."""
        if path not in self._path:
            self._path[path] = self.reach_probabilities(*self.path_masks(path))
        return self._path[path]

    def path_masks(self, path: PathFormula) -> tuple[int, int]:
        """The masks of the states where the path formula has probability
        0 and 1, from the memoized prob0/prob1 of its reach target alone; no
        exact solve.  A G formula's are those of reaching the body's
        complement, swapped."""
        body = self.sat_mask(path.body)
        if path.op is PathOp.F:
            return self.prob01(body)
        prob0, prob1 = self.prob01(self.full & ~body)
        return prob1, prob0

    def path_probabilities(self, path: PathFormula) -> dict[str, Fraction]:
        """The path formula's probability at every state, keyed by name."""
        values = self.path_values(path)
        return {s: _value(values, i) for i, s in enumerate(self.chain.states)}

    def probability(self, state: str, path: PathFormula) -> Fraction:
        """The path formula's probability at `state`: exactly 0 or 1 from
        `path_masks` where those decide, else from the memoized exact
        values of `path_values`; KeyError on a state not in the chain."""
        i = self.chain.index[state]
        zero, one = self.path_masks(path)
        if zero >> i & 1:
            return _ZERO
        if one >> i & 1:
            return _ONE
        return self.path_values(path)[2][i]

    # -- state formulas -----------------------------------------------------

    def sat_mask(self, f: StateFormula) -> int:
        """The mask of the states satisfying `f`, memoized per subformula.
        A `Prob` node's mask (`_passing`) solves its path formula's maybe
        values only for a bound strictly between 0 and 1."""
        if f in self._sat:
            return self._sat[f]
        if isinstance(f, Atom):
            result = self.chain.atom_masks.get(f.name, 0)
        elif isinstance(f, NegAtom):
            result = self.full & ~self.sat_mask(Atom(f.name))
        elif isinstance(f, And):
            result = reduce(and_, map(self.sat_mask, f.args), self.full)
        elif isinstance(f, Or):
            result = reduce(or_, map(self.sat_mask, f.args), 0)
        else:
            result = self._passing(f)
        self._sat[f] = result
        return result

    def _passing(self, f: Prob) -> int:
        """A `Prob` node's satisfaction mask: its path formula's 0 and 1
        masks pass whole or not at all, and so do the maybe states in
        between unless the bound lies strictly between 0 and 1 (`verdicts`);
        only then are their exact values solved and compared state by
        state."""
        at1, at0, inside = verdicts(f.cmp, f.bound)
        if inside is None:
            zero, one, maybe = self.path_values(f.path_formula)
            between = 0
            for i, p in maybe.items():
                if f.cmp.holds(p, f.bound):
                    between |= 1 << i
        else:
            zero, one = self.path_masks(f.path_formula)
            between = self.full & ~(zero | one) if inside else 0
        return (one if at1 else 0) | (zero if at0 else 0) | between

    def sat_set(self, f: StateFormula) -> frozenset[str]:
        """The names of the states satisfying `f`."""
        return self.chain.names(self.sat_mask(f))

    def holds(self, state: str, f: StateFormula) -> bool:
        """s |= f, deciding only what `state` needs: a memoized mask is
        read as it is, `And`/`Or` stop at the first argument that decides,
        and a `Prob` at a state in its path formula's 0 or 1 mask compares
        that value with the bound; only a maybe state builds the operator's
        mask (`sat_mask`).  KeyError on a state that is not in the chain."""
        return self._holds(self.chain.index[state], f)

    def _holds(self, i: int, f: StateFormula) -> bool:
        known = self._sat.get(f)
        if known is not None:
            return bool(known >> i & 1)
        kind = type(f)
        if kind is And:
            for g in f.args:
                if not self._holds(i, g):
                    return False
            return True
        if kind is Or:
            for g in f.args:
                if self._holds(i, g):
                    return True
            return False
        if kind is Prob:
            zero, one = self.path_masks(f.path_formula)
            if zero >> i & 1:
                return f.cmp.holds(_ZERO, f.bound)
            if one >> i & 1:
                return f.cmp.holds(_ONE, f.bound)
        return bool(self.sat_mask(f) >> i & 1)

    def check(self, state: str, formulas) -> bool:
        """s |= X: membership in the intersection of the satisfaction sets."""
        return all(self.holds(state, f) for f in formulas)
