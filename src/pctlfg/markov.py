"""Finite Markov chains with exact rational transitions.

State ids are strings.  Transition probabilities are Fractions; a missing
edge means probability zero, and an explicit zero edge is a representation
error (reported by `validate`).  This keeps graph reachability identical to
positive-probability reachability, which downstream modules rely on.

JSON model format (rationals are strings, bit-exact):

    {"states": [{"id": "s", "ap": []}, {"id": "t", "ap": ["a"]}],
     "edges":  [{"from": "s", "to": "t", "p": "1"},
                {"from": "t", "to": "s", "p": "3/5"}]}

Graph questions are answered on one format, per-vertex successor and
predecessor bitmasks (bit i is vertex i, a vertex set is one int), by one
search, `states_reachable_from`.  Over successor masks it gives the
measure's witness region and first passage's region; over predecessor
masks it is `states_with_path_to`, which `prob01`, the one qualitative
kernel, calls twice to find the states that reach a target mask with
probability 0 and with probability 1, and which `scc_decompose`
(Kosaraju-Sharir) runs once per component, skipping the states already
placed.  A chain owns its index form, state i being `states[i]`: `index`
maps a name to its position, `succ` and `pred` are the masks, `row(i)`
gives state i's transitions in integers, and `mask` and `names` convert
between name sets and masks.  The index and the masks are built on first
use, once per chain; bounded sat builds its masks once per enumerated
graph.  `absorption` is the one exact linear solve: the checker's reach
probabilities (and with them the ETR oracle's block values) and the
first-passage distribution go through it.  It works on the chain's state
indices: the unknown states, the rows `chain.row(i) -> (d, [(j, n), ...])`
with P(i,j) = n/d, and one boundary mask per right-hand column (prob1 for
reach; for first passage, one column per target that the source can enter
first).  Which targets those are is a graph fact, `first_entries`, the
targets among the successors of the region the source reaches without
entering a target; the others read 0 without a column, and
`progress.successor_selection` reads the same mask when it has no
weights to solve.  The kernel hands `linalg.solve` integer rows, each
equation of (I - P) x = b multiplied by its row's d, so no Fraction
arithmetic builds the system.  Loading a chain checks and
converts each state and edge record in one pass, straight into the
successor rows, and reads each distinct numeral text once per process.
`first_passage` reads the checker's SCC decomposition only to name the
certificate of a failed precondition.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING

from . import linalg

if TYPE_CHECKING:  # modelcheck imports this module
    from .modelcheck import ModelChecker


class InvalidChainError(ValueError):
    pass


class FirstPassageError(ValueError):
    """Reach-with-probability-one precondition failed; carries a certificate:
    a bottom SCC, disjoint from the target set, reachable from the source."""

    def __init__(self, message: str, certificate: frozenset[str]):
        super().__init__(message)
        self.certificate = certificate


# The numerals `to_dict` writes and the formula grammar reads: a sign, the
# digits, and then a decimal part or a denominator.  `Fraction(str)` alone
# also takes exponents, in time growing faster than the exponent, so a
# 12-byte field such as "1e-999999999" would stall the reader; matching
# here and building the value from the groups also parses each numeral once.
_NUMERAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


# Numeral text -> its value, shared by every reader in the process: chains
# draw their probabilities from few distinct texts, so each is read once.
# Fractions are immutable, so one object may sit in any number of chains.
# A failed read is never stored, and a text longer than `_NUMERALS_KEY_MAX`
# is read afresh every time, so memory stays bounded and every long numeral
# meets the int digit limit in force at its read.  The table is emptied when
# it holds `_NUMERALS_MAX` texts.
_NUMERALS: dict[str, Fraction] = {}
_NUMERALS_KEY_MAX = 32
_NUMERALS_MAX = 4096


def parse_probability(text) -> Fraction:
    """An integer, a decimal or `integer/integer`, exactly."""
    key = str(text)
    value = _NUMERALS.get(key)
    if value is None:
        value = _read_numeral(key, text)
        if len(key) <= _NUMERALS_KEY_MAX:
            if len(_NUMERALS) >= _NUMERALS_MAX:
                _NUMERALS.clear()
            _NUMERALS[key] = value
    return value


def _read_numeral(key: str, text) -> Fraction:
    """`parse_probability` without the table: reads `key`, the text of
    `text`, and names `text` in the error."""
    match = _NUMERAL.fullmatch(key)
    if match is None:
        raise InvalidChainError(f"malformed rational {text!r}")
    whole, decimals, denominator = match.groups()  # one of the last two at most
    try:
        if denominator is not None:
            return Fraction(int(whole), int(denominator))
        if decimals is not None:
            return Fraction(int(whole + decimals), 10 ** len(decimals))
        return Fraction(int(whole))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidChainError(f"malformed rational {text!r}") from exc


def _check_record(rec, kind: str, i: int, keys) -> None:
    if not isinstance(rec, dict):
        raise InvalidChainError(f"{kind} record {i} must be an object")
    for key in keys:
        if key not in rec:
            raise InvalidChainError(f"{kind} record {i} has no {key!r}")


def _add_edge(succ: dict[str, dict[str, Fraction]], src: str, dst: str,
              p: Fraction) -> None:
    row = succ.get(src)
    if row is None:
        raise InvalidChainError(f"edge from unknown state {src!r}")
    if dst not in succ:
        raise InvalidChainError(f"edge to unknown state {dst!r}")
    if dst in row:
        raise InvalidChainError(f"duplicate edge {src!r} -> {dst!r}")
    row[dst] = p


def _dot_string(text: str) -> str:
    """`text` as a double-quoted DOT string, line breaks written `\\n`."""
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


class MarkovChain:
    """Immutable-by-convention finite Markov chain."""

    def __init__(self, states, edges, valuation):
        """states: iterable of ids (order preserved);
        edges: {(src, dst): Fraction};
        valuation: {state: iterable of atomic propositions}."""
        states = tuple(states)
        succ: dict[str, dict[str, Fraction]] = {s: {} for s in states}
        if len(succ) != len(states):
            raise InvalidChainError("duplicate state ids")
        for (src, dst), p in edges.items():
            _add_edge(succ, src, dst, p)
        self._fill(states, {s: frozenset(valuation.get(s, ())) for s in states}, succ)

    def _fill(self, states: tuple[str, ...], valuation: dict[str, frozenset[str]],
              succ: dict[str, dict[str, Fraction]]) -> None:
        """The fields, from checked parts: `valuation` and `succ` are keyed
        by exactly `states`, in its order."""
        self.states = states
        self.valuation = valuation
        self._succ = succ

    def successors(self, s: str) -> dict[str, Fraction]:
        return self._succ[s]

    def probability(self, src: str, dst: str) -> Fraction:
        return self._succ[src].get(dst, Fraction(0))

    def edges(self):
        for src in self.states:
            for dst, p in self._succ[src].items():
                yield src, dst, p

    def atoms(self, s: str) -> frozenset[str]:
        return self.valuation[s]

    def __contains__(self, s: str) -> bool:
        return s in self._succ

    def __repr__(self) -> str:
        return f"MarkovChain({len(self.states)} states)"

    # -- the index form: state i is states[i], a state set is a bitmask ------

    @cached_property
    def index(self) -> dict[str, int]:
        """Each state's position in `states`."""
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def succ(self) -> list[int]:
        """Per-state successor bitmasks: bit i is the state states[i]."""
        return [self.mask(self._succ[s]) for s in self.states]

    @cached_property
    def pred(self) -> list[int]:
        """Per-state predecessor bitmasks, the transpose of `succ`."""
        return predecessor_masks(self.succ)

    def row(self, i: int) -> tuple[int, list[tuple[int, int]]]:
        """State i's transitions as (d, [(j, n), ...]) with P(i,j) = n/d,
        d the LCM of the row's denominators; derived on each call."""
        succ = self._succ[self.states[i]]
        d = lcm(*(p.denominator for p in succ.values()))
        index = self.index
        return d, [(index[t], p.numerator * (d // p.denominator))
                   for t, p in succ.items()]

    def mask(self, states) -> int:
        """The bitmask of the named states; KeyError on an unknown name."""
        index = self.index
        mask = 0
        for s in states:
            mask |= 1 << index[s]
        return mask

    def names(self, mask: int) -> frozenset[str]:
        """The names of the states in a bitmask."""
        return frozenset(s for i, s in enumerate(self.states) if mask >> i & 1)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "MarkovChain":
        """The chain of a JSON model (see the module docstring), checked and
        converted record by record in one pass.  Of several defects the
        first in record order is reported: every state record comes before
        every edge record, and an edge record's keys are checked before its
        probability, that before its endpoints, and those before its
        duplication."""
        if not (isinstance(data, dict) and isinstance(data.get("states"), list)
                and isinstance(data.get("edges"), list)):
            raise InvalidChainError("model must have 'states' and 'edges' lists")
        succ: dict[str, dict[str, Fraction]] = {}
        valuation = {}
        for i, rec in enumerate(data["states"]):
            _check_record(rec, "state", i, ("id",))
            ap = rec.get("ap", [])
            if not (isinstance(ap, list) and all(isinstance(a, str) for a in ap)):
                raise InvalidChainError(
                    f"state record {i}: 'ap' must be a list of atom names")
            s = str(rec["id"])
            if s in succ:
                raise InvalidChainError("duplicate state ids")
            succ[s] = {}
            valuation[s] = frozenset(ap)
        for i, rec in enumerate(data["edges"]):
            try:
                src, dst, value = rec["from"], rec["to"], rec["p"]
            except (KeyError, TypeError):
                _check_record(rec, "edge", i, ("from", "to", "p"))
                raise
            p = parse_probability(value)
            src = src if type(src) is str else str(src)
            dst = dst if type(dst) is str else str(dst)
            row = succ.get(src)
            if row is not None and dst in succ and dst not in row:
                row[dst] = p
            else:
                _add_edge(succ, src, dst, p)  # raises, naming the defect
        chain = cls.__new__(cls)
        chain._fill(tuple(succ), valuation, succ)
        return chain

    @classmethod
    def from_json(cls, text: str) -> "MarkovChain":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidChainError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "states": [
                {"id": s, "ap": sorted(self.valuation[s])} for s in self.states
            ],
            "edges": [
                {"from": src, "to": dst, "p": str(p)} for src, dst, p in self.edges()
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_dot(self) -> str:
        lines = ["digraph chain {"]
        for s in self.states:
            label = s
            if self.valuation[s]:
                label += "\n{" + ",".join(sorted(self.valuation[s])) + "}"
            lines.append(f"  {_dot_string(s)} [label={_dot_string(label)}];")
        for src, dst, p in self.edges():
            lines.append(f'  {_dot_string(src)} -> {_dot_string(dst)} [label="{p}"];')
        lines.append("}")
        return "\n".join(lines)


def validate(chain: MarkovChain) -> list[str]:
    """Checks the chain invariants; returns diagnostics (empty means ok)."""
    problems = []
    for s in chain.states:
        succ = chain.successors(s)
        for dst, p in succ.items():
            if p == 0:
                problems.append(
                    f"state {s!r}: zero-probability edge to {dst!r} "
                    "(zero edges must be absent, not explicit)")
            elif not 0 < p <= 1:
                problems.append(f"state {s!r}: probability {p} to {dst!r} outside (0,1]")
        total = sum(succ.values(), Fraction(0))
        if total != 1:
            problems.append(f"state {s!r}: outgoing probabilities sum to {total}, not 1")
    return problems


# ---------------------------------------------------------------------------
# Graph structure

def predecessor_masks(succ) -> list[int]:
    """The per-vertex predecessor bitmasks of per-vertex successor bitmasks."""
    pred = [0] * len(succ)
    for v, mask in enumerate(succ):
        while mask:
            low = mask & -mask
            pred[low.bit_length() - 1] |= 1 << v
            mask ^= low
    return pred


@dataclass(frozen=True)
class SccDecomposition:
    """SCCs as state masks (bit i is `states[i]`) in reverse topological
    order (successors before predecessors), and the mask of the states in
    bottom SCCs."""

    states: tuple[str, ...]
    components: tuple[int, ...]
    bottom: int

    def bottom_states(self) -> frozenset[str]:
        return frozenset(self.states[i] for i in indices(self.bottom))


def scc_decompose(chain: MarkovChain) -> SccDecomposition:
    """Kosaraju-Sharir over successor masks.  An iterative depth-first pass
    records the states in finishing order; then, in reverse finishing
    order, each state not yet placed takes as its component the states
    with a path to it that avoids the placed ones (`states_with_path_to`).
    That meets the components in topological order, so the list is
    reversed.  A component is bottom iff no member has a successor outside
    it."""
    succ = chain.succ
    finished = []
    seen = 0
    for root in range(len(succ)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]  # a state finishes once all its successors are seen
        while stack:
            todo = succ[stack[-1]] & ~seen
            if todo:
                low = todo & -todo
                seen |= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())

    pred = chain.pred
    components = []
    placed = bottom = 0
    for v in reversed(finished):
        if placed >> v & 1:
            continue
        comp = states_with_path_to(pred, 1 << v, blocked=placed)
        placed |= comp
        components.append(comp)
        if not any(succ[i] & ~comp for i in indices(comp)):
            bottom |= comp
    components.reverse()
    return SccDecomposition(chain.states, tuple(components), bottom)


def states_reachable_from(succ, seeds: int, blocked: int = 0) -> int:
    """The mask of the states reachable from the `seeds` mask (seeds
    included) without entering a `blocked` state, over successor masks.
    Over predecessor masks it is the backward search: the states with a
    path into the seeds."""
    seen = frontier = seeds
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = succ[low.bit_length() - 1] & ~(seen | blocked)
        seen |= new
        frontier |= new
    return seen


def states_with_path_to(pred, targets: int, blocked: int = 0) -> int:
    """The mask of the states with a path into the `targets` mask (targets
    included) that enters no `blocked` state, over predecessor masks."""
    return states_reachable_from(pred, targets, blocked)


def prob01(pred, targets: int) -> tuple[int, int]:
    """The masks of the states that reach the `targets` mask with
    probability 0 and with probability 1, from the predecessor masks alone
    (Baier & Katoen, Principles of Model Checking, Alg. 45/46).  prob0 holds
    the states with no path into the targets; prob1 is the complement of
    the states that can reach prob0 without passing a target, which holds
    when every state's outgoing probabilities sum to one."""
    full = (1 << len(pred)) - 1
    prob0 = full & ~states_with_path_to(pred, targets)
    prob1 = full & ~states_with_path_to(pred, prob0, blocked=targets)
    return prob0, prob1


# ---------------------------------------------------------------------------
# The absorption kernel

def indices(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def absorption(chain: MarkovChain, unknown, columns) -> dict[int, list[Fraction]]:
    """Solves x(i) = sum_j P(i,j) x(j) for every state index i in `unknown`,
    with x fixed on the other states of the chain: in column c, to 1 on the
    states of the mask `columns[c]` and to 0 on the rest.  Returns {i: x(i)}
    for the unknown states, each x(i) a list of Fractions, one per column.
    The system (I - P) x = b goes to `linalg.solve` as integer rows, each
    equation `chain.row(i)` multiplied by its d.  Every unknown state must
    have a path leaving `unknown`, which makes I - P nonsingular."""
    unknown = list(unknown)
    if not unknown:
        return {}
    pos = {i: k for k, i in enumerate(unknown)}
    n = len(unknown)
    a, rhs = [], []
    for k, i in enumerate(unknown):
        d, entries = chain.row(i)
        coefficients = [0] * n
        coefficients[k] = d
        values = [0] * len(columns)
        for j, numerator in entries:
            if j in pos:
                coefficients[pos[j]] -= numerator
            else:
                for c, mask in enumerate(columns):
                    if mask >> j & 1:
                        values[c] += numerator
        a.append(coefficients)
        rhs.append(values)
    return dict(zip(unknown, linalg.solve(a, rhs)))


# ---------------------------------------------------------------------------
# First-passage distribution

def first_entries(succ, origin: int, targets: int) -> int:
    """The mask of the `targets` states that a run from the `origin` state
    enters first with positive probability, over successor masks: the
    origin alone if it is a target, else the targets among the successors
    of the region it reaches without entering a target.  A graph fact, as
    every edge has positive probability."""
    if origin & targets:
        return origin
    entered = 0
    for i in indices(states_reachable_from(succ, origin, blocked=targets)):
        entered |= succ[i]
    return entered & targets


def first_passage(mc: ModelChecker, source: str, targets) -> dict[str, Fraction]:
    """Distribution of the first visited target state, over runs from
    `source` in the checker's chain that reach `targets` before visiting
    any other target.

    Requires that `targets` is hit with probability one from `source`;
    otherwise raises FirstPassageError carrying a reachable bottom SCC
    disjoint from the targets as a certificate.  The returned values sum
    to exactly 1 (all targets appear, in name order).  Which targets get a
    positive value is a graph fact, `first_entries`; only their columns
    are solved, and every other target reads 0.  A source or target that
    is not a state of the chain raises KeyError.
    """
    chain = mc.chain
    targets = frozenset(targets)
    origin = chain.mask((source,))
    if not targets:
        raise ValueError("empty target set")
    target_mask = chain.mask(targets)
    if source in targets:
        return {t: Fraction(int(t == source)) for t in targets}

    # Region explorable from the source without crossing a target.
    region = states_reachable_from(chain.succ, origin, blocked=target_mask)
    _, prob1 = mc.prob01(target_mask)
    if not prob1 & origin:
        # Then some bottom SCC lies inside the region: it can never reach
        # the targets, and it is the certificate.
        sccs = mc.sccs
        comp = chain.names(next(comp for comp in sccs.components
                                if comp & sccs.bottom and not comp & ~region))
        raise FirstPassageError(
            f"targets not reached almost surely from {source!r}: "
            f"bottom SCC {{{', '.join(sorted(comp))}}} is reachable and "
            "disjoint from the targets",
            certificate=comp,
        )

    entered = sorted(chain.names(first_entries(chain.succ, origin, target_mask)))
    columns = [chain.mask((t,)) for t in entered]
    hit = absorption(chain, indices(region), columns)[origin.bit_length() - 1]
    result = dict.fromkeys(sorted(targets), Fraction(0))
    result.update(zip(entered, hit))
    assert sum(result.values()) == 1
    return result
