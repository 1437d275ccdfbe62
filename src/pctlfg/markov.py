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
search, `states_reachable_from`, which expands a whole level per step.
Over successor masks it gives the
measure's witness region and first passage's region; over predecessor
masks it is `states_with_path_to`, which `prob01`, the one qualitative
kernel, calls twice to find the states that reach a target mask with
probability 0 and with probability 1, and which `scc_decompose`
(Kosaraju-Sharir) runs once per component, skipping the states already
placed.  A chain is held in index form only, state i being `states[i]`:
`index` maps a name to its position, `succ` and `pred` are the masks,
`atom_masks` gives each atom's mask, each state's transitions are one row
keyed by successor index, `row(i)` gives them in integers, and `mask` and
`names` convert between name sets and masks.  All of it is built at
construction, from columns, by the one builder behind both constructors:
a loop over the edges sets the masks and rows, one over the states the
atom masks; names are views (`successors`, `probability`,
`edges`, `atoms` and `valuation` are derived from the rows and the atom
masks on each call).  Bounded sat builds its masks once per enumerated
graph.  `absorption` is the one exact linear solve: the checker's reach
probabilities (and with them the masks that confirm bounded sat's
candidates) and the first-passage distribution go through it.  It works
on the chain's state indices: the unknown states, the rows
`chain.row(i) -> (d, [(j, n), ...])` with P(i,j) = n/d, and one boundary
mask per right-hand column (prob1 for reach; for first passage, one
column per target that the source can enter first).  Which targets those
are is a graph fact, `first_entries`, the targets among the successors of
the region the source reaches without entering a target; the others read
0 without a column, and `progress.successor_selection` reads the same
mask when it has no weights to solve.  The kernel hands `linalg.solve`
integer rows, each equation of (I - P) x = b multiplied by its row's d,
so no Fraction arithmetic builds the system.  Loading a JSON model reads
its records a field at a time, in column passes that run in C, and reads
each distinct numeral text once per process; only a model with a defect
is walked record by record, to name its first defect.
`first_passage` takes the chain alone: its one solve is singular exactly
when a bottom SCC lies in its region, and only then is the chain
decomposed, to name that SCC as the certificate.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import itemgetter

from . import linalg


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


def _first_defect(states, edges) -> None:
    """Raises the InvalidChainError of the first defect of a JSON model's
    records, checked one at a time in record order: every state record
    before every edge record, and within an edge record its keys, then its
    probability, then its endpoints, then its duplication.  Builds nothing,
    and returns when no record has a defect."""
    names = set()
    for i, rec in enumerate(states):
        _check_record(rec, "state", i, ("id",))
        ap = rec.get("ap", [])
        if not (isinstance(ap, list) and all(isinstance(a, str) for a in ap)):
            raise InvalidChainError(
                f"state record {i}: 'ap' must be a list of atom names")
        s = str(rec["id"])
        if s in names:
            raise InvalidChainError("duplicate state ids")
        names.add(s)

    def ends():
        for i, rec in enumerate(edges):
            _check_record(rec, "edge", i, ("from", "to", "p"))
            parse_probability(rec["p"])
            yield str(rec["from"]), str(rec["to"])

    _first_edge_defect(names, ends())


def _first_edge_defect(names, ends) -> None:
    """Raises the InvalidChainError of the first defective edge of `ends`,
    (source, target) name pairs in edge order, each checked as it comes:
    its source, then its target, against `names`, then whether an earlier
    edge has its pair.  Returns when no edge has a defect."""
    pairs = set()
    for src, dst in ends:
        if src not in names:
            raise InvalidChainError(f"edge from unknown state {src!r}")
        if dst not in names:
            raise InvalidChainError(f"edge to unknown state {dst!r}")
        if (src, dst) in pairs:
            raise InvalidChainError(f"duplicate edge {src!r} -> {dst!r}")
        pairs.add((src, dst))


# The fields of the JSON records, read a column at a time in C: KeyError or
# TypeError on a record that is no object or lacks the field.
_ID = itemgetter("id")
_FROM = itemgetter("from")
_TO = itemgetter("to")
_P = itemgetter("p")

# the atom list of a state record without "ap"; shared, and never mutated
_NO_ATOMS: list = []


def _dot_string(text: str) -> str:
    """`text` as a double-quoted DOT string, line breaks written `\\n`."""
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


_ZERO = Fraction(0)


class MarkovChain:
    """Immutable-by-convention finite Markov chain, held in index form only:
    state i is `states[i]`, `index` maps a name to its position, `succ` and
    `pred` are the per-state successor and predecessor bitmasks, and
    `atom_masks` maps each atom to the mask of the states it labels.  Each
    state's transitions are kept once, keyed by successor index; every
    name-keyed answer (`successors`, `probability`, `edges`, `atoms`,
    `valuation`) is a view derived from them on each call."""

    __slots__ = ("states", "index", "succ", "pred", "atom_masks", "_rows")

    def __init__(self, states, edges, valuation):
        """states: iterable of ids (order preserved);
        edges: {(src, dst): Fraction};
        valuation: {state: iterable of atomic propositions}."""
        states = list(states)
        self._build(states, [valuation.get(s, ()) for s in states],
                    [src for src, _ in edges], [dst for _, dst in edges],
                    [p if type(p) is Fraction else parse_probability(p)
                     for p in edges.values()])

    def _build(self, ids, atoms, sources, targets, values) -> None:
        """The one builder behind both constructors.  It fills every field
        from columns: the state ids in order and each state's atom names,
        and edge by edge the source id, the target id and the Fraction.
        Ids are read through `str`.  Endpoints become indices by the
        index's lookup, run in C, and are read through `str` first only
        when some endpoint is no id text.  Then one loop over the states
        sets the atom masks, and one over the edges sets `succ`, `pred` and
        the rows.  Raises InvalidChainError on a duplicate id, and else on
        the first defective edge in edge order, as the loader names it
        (`_first_edge_defect`): an unknown endpoint or a duplicate edge."""
        states = tuple(map(str, ids))
        n = len(states)
        index = dict(zip(states, range(n)))
        if len(index) != n:
            raise InvalidChainError("duplicate state ids")
        lookup = index.__getitem__
        try:
            rows_of = list(map(lookup, sources))
            cols_of = list(map(lookup, targets))
        except (KeyError, TypeError):
            sources, targets = list(map(str, sources)), list(map(str, targets))
            _first_edge_defect(index, zip(sources, targets))
            rows_of = list(map(lookup, sources))
            cols_of = list(map(lookup, targets))
        bits = list(map((1).__lshift__, range(n)))
        atom_masks: dict[str, int] = {}
        for bit, names in zip(bits, atoms):
            for a in names:
                atom_masks[a] = atom_masks.get(a, 0) | bit
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        succ = [0] * n
        pred = [0] * n
        for i, j, p in zip(rows_of, cols_of, values):
            succ[i] |= bits[j]
            pred[j] |= bits[i]
            rows[i][j] = p
        if sum(map(len, rows)) != len(rows_of):  # a row key set twice
            _first_edge_defect(index, zip(map(states.__getitem__, rows_of),
                                          map(states.__getitem__, cols_of)))
        self.states = states
        self.index = index
        self.succ = succ
        self.pred = pred
        self.atom_masks = atom_masks
        self._rows = rows

    def successors(self, s: str) -> dict[str, Fraction]:
        states = self.states
        return {states[j]: p for j, p in self._rows[self.index[s]].items()}

    def probability(self, src: str, dst: str) -> Fraction:
        return self._rows[self.index[src]].get(self.index.get(dst), _ZERO)

    def edges(self):
        states = self.states
        for src, row in zip(states, self._rows):
            for j, p in row.items():
                yield src, states[j], p

    def atoms(self, s: str) -> frozenset[str]:
        i = self.index[s]
        return frozenset(a for a, mask in self.atom_masks.items() if mask >> i & 1)

    @property
    def valuation(self) -> dict[str, frozenset[str]]:
        """Each state's atoms, by name."""
        return {s: self.atoms(s) for s in self.states}

    def __contains__(self, s: str) -> bool:
        return s in self.index

    def __repr__(self) -> str:
        return f"MarkovChain({len(self.states)} states)"

    # -- the index form: state i is states[i], a state set is a bitmask ------

    def row(self, i: int) -> tuple[int, list[tuple[int, int]]]:
        """State i's transitions as (d, [(j, n), ...]) with P(i,j) = n/d,
        d the LCM of the row's denominators; derived on each call."""
        row = self._rows[i]
        d = lcm(*(p.denominator for p in row.values()))
        return d, [(j, p.numerator * (d // p.denominator)) for j, p in row.items()]

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
        """The chain of a JSON model (see the module docstring).  The
        records are read in column passes that run in C: each field through
        an `itemgetter`, the optional "ap" through `dict.get`, the atom
        names' types through `isinstance`, and the probabilities through
        the numeral table, every text through `parse_probability` when the
        table misses one.  The columns go to the one builder.  When a pass
        or the builder fails, `_first_defect` walks the records and raises
        the first defect in record order: every state record comes before
        every edge record, and an edge record's keys are checked before its
        probability, that before its endpoints, and those before its
        duplication."""
        if not (isinstance(data, dict) and isinstance(data.get("states"), list)
                and isinstance(data.get("edges"), list)):
            raise InvalidChainError("model must have 'states' and 'edges' lists")
        states, edges = data["states"], data["edges"]
        chain = cls.__new__(cls)
        try:
            atoms = list(map(dict.get, states, repeat("ap"), repeat(_NO_ATOMS)))
            if not (all(map(isinstance, atoms, repeat(list)))
                    and all(map(isinstance, itertools.chain.from_iterable(atoms),
                                repeat(str)))):
                raise TypeError("'ap' must be a list of atom names")
            texts = list(map(_P, edges))
            try:
                values = list(map(_NUMERALS.__getitem__, texts))
            except KeyError:  # a text the table does not hold
                values = list(map(parse_probability, texts))
            chain._build(map(_ID, states), atoms, list(map(_FROM, edges)),
                         list(map(_TO, edges)), values)
        except (KeyError, TypeError, InvalidChainError):
            _first_defect(states, edges)
            raise
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
                {"id": s, "ap": sorted(self.atoms(s))} for s in self.states
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
            atoms = self.atoms(s)
            if atoms:
                label += "\n{" + ",".join(sorted(atoms)) + "}"
            lines.append(f"  {_dot_string(s)} [label={_dot_string(label)}];")
        for src, dst, p in self.edges():
            lines.append(f'  {_dot_string(src)} -> {_dot_string(dst)} [label="{p}"];')
        lines.append("}")
        return "\n".join(lines)


def validate(chain: MarkovChain) -> list[str]:
    """Checks the chain invariants; returns diagnostics (empty means ok).
    Reads each state's integer row, `chain.row(i)`: P(i,j) = n/d lies in
    (0,1] iff 0 < n <= d, and the row sums to 1 iff its numerators sum to
    d.  A Fraction is built only for a diagnostic."""
    problems = []
    states = chain.states
    for i, s in enumerate(states):
        d, entries = chain.row(i)
        total = 0
        for j, n in entries:
            if n == 0:
                problems.append(
                    f"state {s!r}: zero-probability edge to {states[j]!r} "
                    "(zero edges must be absent, not explicit)")
            elif not 0 < n <= d:
                problems.append(f"state {s!r}: probability {Fraction(n, d)} "
                                f"to {states[j]!r} outside (0,1]")
            total += n
        if total != d:
            problems.append(f"state {s!r}: outgoing probabilities sum to "
                            f"{Fraction(total, d)}, not 1")
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


class SccDecomposition(namedtuple("SccDecomposition",
                                  "states components bottom")):
    """SCCs as state masks (bit i is `states[i]`) in reverse topological
    order (successors before predecessors), and the mask of the states in
    bottom SCCs: a named tuple of the state names (`states`, a tuple), the
    component masks (`components`, a tuple) and the `bottom` mask."""

    __slots__ = ()

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
    path into the seeds.  Breadth-first, a level at a time: the successor
    masks of a level's states are ORed together, highest state first, and
    the states seen or blocked are removed once per level."""
    seen = frontier = seeds
    while frontier:
        reached = 0
        while frontier:
            i = frontier.bit_length() - 1
            reached |= succ[i]
            frontier ^= 1 << i
        frontier = reached & ~(seen | blocked)
        seen |= frontier
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


def first_passage(chain: MarkovChain, source: str, targets) -> dict[str, Fraction]:
    """Distribution of the first visited target state, over runs from
    `source` in `chain` that reach `targets` before visiting any other
    target.

    Requires that `targets` is hit with probability one from `source`;
    otherwise raises FirstPassageError carrying a reachable bottom SCC
    disjoint from the targets as a certificate.  The returned values sum
    to exactly 1 (all targets appear, in name order).  Which targets get a
    positive value is a graph fact, `first_entries`; only their columns
    are solved, and every other target reads 0.  A source or target that
    is not a state of the chain raises KeyError.
    """
    targets = frozenset(targets)
    origin = chain.mask((source,))
    if not targets:
        raise ValueError("empty target set")
    target_mask = chain.mask(targets)
    if source in targets:
        return {t: Fraction(int(t == source)) for t in sorted(targets)}

    # Region explorable from the source without crossing a target.
    region = states_reachable_from(chain.succ, origin, blocked=target_mask)
    entered = sorted(chain.names(first_entries(chain.succ, origin, target_mask)))
    columns = [chain.mask((t,)) for t in entered]
    try:
        hit = absorption(chain, indices(region), columns)[origin.bit_length() - 1]
    except linalg.SingularMatrixError:
        # I - P over the region is singular exactly when some bottom SCC
        # lies inside it: that SCC never reaches the targets, and it is the
        # certificate.
        sccs = scc_decompose(chain)
        comp = chain.names(next(comp for comp in sccs.components
                                if comp & sccs.bottom and not comp & ~region))
        raise FirstPassageError(
            f"targets not reached almost surely from {source!r}: "
            f"bottom SCC {{{', '.join(sorted(comp))}}} is reachable and "
            "disjoint from the targets",
            certificate=comp,
        ) from None
    result = dict.fromkeys(sorted(targets), Fraction(0))
    result.update(zip(entered, hit))
    assert sum(result.values()) == 1
    return result
