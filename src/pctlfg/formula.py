"""Formula nodes, concrete syntax, normalization, and fragment grammars.

The toolkit works with a probabilistic branching-time logic whose only path
operators are F ("eventually") and G ("always").  Core formulas keep negation
on atoms, carry exact rational probability bounds, and use n-ary
conjunction/disjunction so that `x & y & z` is one node with three children.

Core nodes (`Atom`, `NegAtom`, `And`, `Or`, `Prob`) and `PathFormula` are
interned (hash-consed): there is one live node per structure, however it was
built, parsed, copied or unpickled.  So `==` is `is` and a node hashes by
identity, which makes the formula-keyed sets and memos of the closure,
measure and progress code cheap.  The intern key is the node's class and
fields: an atom's name, the child nodes, the `PathOp` and `Cmp`, and a
`Prob` bound as its (numerator, denominator) pair.  The bound itself is
always stored as a `Fraction`.  `PathOp` and `Cmp` members hash by identity
too, so building a node hashes nothing in Python.

The intern table `_NODES` is a plain dict from key to a weak reference to
the node, so a lookup runs no Python frame and a formula no caller holds
leaves the table.  It takes no lock.  A new node is inserted with one
`setdefault`, which is atomic because every part of the key hashes and
compares in C: of several threads building one structure, the first to
insert wins and the others return its node.  A node's death callback
removes its key's entry only while that entry is a dead reference, in one
atomic dict operation, so a node built anew under the key in the meantime
stays; a collection may run the callback inside an insert.

Every state node carries an operator mask, `_ops`, set when it is built
from its children's: the (op, cmp) pairs of its subtree and one bit for
anything the normalization pass would reshape.  `is_core` and
`has_globally` read it, and the pass returns a node that needs no rewrite
as it is, so both normal forms keep unchanged subtrees without building or
looking up a node.
Other derived data the hot paths ask for (`Prob.path_formula`,
`sort_key`, the proper subformulas behind `subformulas`, and the grammar
kinds behind `fragment_classify`) is cached on the node and computed once
per structure.  A `Prob` node's kinds come from one bounded table keyed by
what the grammar guards read (the operator, whether the bound is '=1' or
'>0') and the body's kinds, so each entry is matched against the grammars
once per process.  No cache holds the node itself, so a formula no caller
holds is freed by reference counting alone.  A formula set's subformulas,
sub(X), are `subformulas_of(X)`, the members and the union of their
cached proper subformulas, and its path subformulas, psub(X), are
`path_subformulas(X)`; every other fact about a set is derived by the
function that reads it.

There is one tree: the parser reads each subformula at the polarity it
sits under and builds its core node directly, so every node it builds is a
node of the core formula `parse_formula` returns.  Both normal forms come
from one pass, `_norm`, which pushes negation to atoms and applies the F/G
duality P(G b) ~ r iff P(F !b) ~' 1-r: the core form (`normalize`, no <=
or <), which the parser builds and model checking and the fragment
grammars read, and the F-normal form (`f_normal_form`, no G), which
bounded satisfiability in `etr` reads.
"""

from __future__ import annotations

import operator
import weakref
from _weakref import _remove_dead_weakref
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product

from .markov import InvalidChainError, parse_probability


class PctlSyntaxError(ValueError):
    """Raised on malformed formula text, with 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NormalizationError(ValueError):
    """Raised when normalization would produce a trivial probability bound."""


class PathOp(Enum):
    F = "F"
    G = "G"

    # members are singletons compared by identity, so they hash by identity
    # too: the C slot, not `Enum.__hash__`, which hashes the name in Python
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class Cmp(Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    def holds(self, value: Fraction, bound: Fraction) -> bool:
        return _HOLDS[self](value, bound)

    def negated(self) -> "Cmp":
        return _NEGATED[self]


_NEGATED = {Cmp.GE: Cmp.LT, Cmp.GT: Cmp.LE, Cmp.LE: Cmp.GT, Cmp.LT: Cmp.GE}
_HOLDS = {Cmp.GE: operator.ge, Cmp.GT: operator.gt,
          Cmp.LE: operator.le, Cmp.LT: operator.lt}


# One live node per structure: its `_intern` key -> a `_NodeRef` to the node,
# so a formula no caller holds any more leaves the table.  Insertion is one
# `setdefault`, atomic because every part of the key hashes and compares in
# C, so two threads building the same formula get one node.  `_forget` runs
# when a node dies and deletes the key's entry only if it is still a dead
# reference (`_remove_dead_weakref`, the atomic C helper
# `WeakValueDictionary` uses), so it never drops the live node built again
# under the same key.
_NODES: dict[tuple, weakref.ref] = {}


class _NodeRef(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _forget(ref: _NodeRef) -> None:
    _remove_dead_weakref(_NODES, ref.key)


class _Node:
    """Base of the hash-consed node types.

    Construction returns the live node with the same class and fields when
    there is one (`_intern`), so `==` and `hash` can be the identity ones
    inherited from `object`.  Only construction hashes fields, to look the
    node up; a set or memo keyed by nodes never looks inside them.  A node
    type's fields, `_fields`, are its annotated names, in order; a node is
    immutable: assigning or deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __new__(cls, *values):
        return _intern(cls, (cls, *values), values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through __new__, so they
        # return the live node
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _intern(cls, key: tuple, values: tuple) -> _Node:
    """The live node of `cls` stored under `key`, built from the field
    `values` when there is none.  The key is the class and the fields, with
    a `Prob` bound as its integer pair; every part hashes in C."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    if len(values) != len(cls._fields):
        raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
    node = object.__new__(cls)
    attrs = node.__dict__
    attrs.update(zip(cls._fields, values))
    if cls is not PathFormula:
        attrs["_ops"] = _operator_mask(cls, values)
    fresh = _NodeRef(node, _forget)
    fresh.key = key
    while True:
        ref = _NODES.setdefault(key, fresh)
        if ref is fresh:
            return node
        live = ref()
        if live is not None:
            # another thread inserted the node first
            return live
        # a dead node whose callback has not run yet
        _remove_dead_weakref(_NODES, key)


class _StateNode(_Node):
    """A state formula node.  Its operator mask `_ops` is set when it is
    built (`_operator_mask`); the other derived data the hot paths ask for
    is cached on the node: computed on first use, once per structure."""

    @cached_property
    def _proper(self) -> frozenset[StateFormula]:
        # the proper subformulas, from the children's: without the node
        # itself, so the cache makes no reference cycle and a dropped
        # formula is freed at once
        if isinstance(self, (And, Or)):
            children = self.args
        elif isinstance(self, Prob):
            children = (self.body,)
        else:
            return frozenset()
        return frozenset(children).union(*(c._proper for c in children))

    @cached_property
    def _sort_key(self) -> tuple:
        rank = _TAG_RANK[type(self)]
        if isinstance(self, (Atom, NegAtom)):
            return (rank, self.name)
        if isinstance(self, (And, Or)):
            return (rank, len(self.args)) + tuple(a._sort_key for a in self.args)
        return (rank, _OP_RANK[self.op], _CMP_RANK[self.cmp], self.bound,
                self.body._sort_key)

    @cached_property
    def _kinds(self) -> frozenset[str]:
        # the `_GRAMMARS` kinds the node matches, from its children's kinds;
        # nodes with equal kinds share one frozenset
        if isinstance(self, (And, Or)):
            kinds = frozenset.intersection(*(a._kinds for a in self.args))
        elif isinstance(self, Prob):
            # what the guards read of the node, and the body's kinds
            n, d = self.bound.as_integer_ratio()
            key = (self.op, self.cmp is Cmp.GE and n == d,
                   self.cmp is Cmp.GT and n == 0, self.body._kinds)
            kinds = _PROB_KINDS.get(key)
            if kinds is None:
                kinds = _PROB_KINDS[key] = frozenset(
                    kind for kind, (_, rules) in _GRAMMARS.items()
                    if self.op in rules and rules[self.op][0](self)
                    and not self.body._kinds.isdisjoint(rules[self.op][1]))
        else:
            kinds = frozenset(kind for kind, (literal, _) in _GRAMMARS.items()
                              if literal)
        return _KIND_SETS.setdefault(kinds, kinds)

    @cached_property
    def _fragments(self) -> FragmentMembership:
        # not cached when it raises, so non-core input raises every time
        return _classify(self)


class Atom(_StateNode):
    name: str

    def __str__(self) -> str:
        return self.name


class NegAtom(_StateNode):
    name: str

    def __str__(self) -> str:
        return "!" + self.name


class And(_StateNode):
    args: tuple["StateFormula", ...]

    def __str__(self) -> str:
        return " & ".join(_wrap(a) for a in self.args)


class Or(_StateNode):
    args: tuple["StateFormula", ...]

    def __str__(self) -> str:
        return " | ".join(str(a) for a in self.args)


class Prob(_StateNode):
    op: PathOp
    cmp: Cmp
    bound: Fraction
    body: "StateFormula"

    def __new__(cls, op, cmp, bound, body):
        # the bound is stored as a Fraction, so `1` and `Fraction(1)` give
        # one node.  The key holds its (numerator, denominator) pair: a
        # Fraction is in lowest terms, so equal pairs are equal bounds, and
        # a pair of ints hashes without `Fraction.__hash__`.
        if type(bound) is not Fraction:
            bound = Fraction(bound)
        return _intern(cls, (cls, op, cmp, bound.as_integer_ratio(), body),
                       (op, cmp, bound, body))

    def __str__(self) -> str:
        if self.cmp is Cmp.GE and self.bound == 1:
            constraint = "=1"
        else:
            constraint = f"{self.cmp}{self.bound}"
        return f"{self.op}{constraint}[{self.body}]"

    @cached_property
    def path_formula(self) -> "PathFormula":
        return PathFormula(self.op, self.body)


StateFormula = Atom | NegAtom | And | Or | Prob


class PathFormula(_Node):
    """A bare F/G path formula, i.e. a probabilistic operator with the bound
    stripped.  Two Prob nodes that differ only in their constraint share one
    PathFormula."""

    op: PathOp
    body: StateFormula

    def __str__(self) -> str:
        return f"{self.op} {self.body}"


def _wrap(f: StateFormula) -> str:
    # '&' binds tighter than '|', so a disjunction inside a conjunction
    # needs parentheses; everything else prints bare.
    return f"({f})" if isinstance(f, Or) else str(f)


# ---------------------------------------------------------------------------
# Construction helpers

def conj(args) -> StateFormula:
    """N-ary conjunction: flattens nested conjunctions, drops duplicates."""
    return _merge(And, args)


def disj(args) -> StateFormula:
    """N-ary disjunction: flattens nested disjunctions, drops duplicates."""
    return _merge(Or, args)


def _merge(node_type, args) -> StateFormula:
    # nodes are interned, so a dict keeps the first occurrence of each
    flat = {}
    for a in args:
        if type(a) is node_type:
            for p in a.args:
                flat[p] = None
        else:
            flat[a] = None
    if not flat:
        raise ValueError("empty connective")
    if len(flat) == 1:
        return next(iter(flat))
    return node_type(tuple(flat))


# the comparisons trivial at bound 0; the other two are trivial at bound 1
_TRIVIAL_AT_0 = frozenset((Cmp.GE, Cmp.LT))


def is_trivial_bound(cmp: Cmp, bound: Fraction) -> bool:
    """Whether the constraint holds for every probability or for none:
    '>=0', '<=1', '>1' and '<0'.  Read on the bound's integers n/d, d > 0:
    the bound is 0 iff n == 0 and 1 iff n == d."""
    n, d = bound.as_integer_ratio()
    return n == 0 if cmp in _TRIVIAL_AT_0 else n == d


def is_core(f: StateFormula) -> bool:
    """Core form: negation on atoms only and comparisons from {>=, >}.
    Read on the node's operator mask: no '<=' or '<' anywhere below."""
    return not f._ops & _UPPER_BOUNDS


def has_globally(f: StateFormula) -> bool:
    """Whether a G operator occurs in f, f itself included.  Read on the
    node's operator mask."""
    return bool(f._ops & _GLOBALLY)


# ---------------------------------------------------------------------------
# Operator masks
#
# Every state node carries `_ops`, set when it is built from its children's
# masks: one bit per (op, cmp) pair that occurs in its subtree, and the
# `_RESHAPE` bit when `_norm` would rebuild some node of the subtree even
# at positive polarity, with no pair to dualize: a connective with fewer
# than two, repeated, or same-kind arguments (which `conj`/`disj` flatten),
# or a trivial bound (which `_norm` rejects).

_PAIR_BITS = {pair: 1 << i for i, pair in enumerate(product(PathOp, Cmp))}
_RESHAPE = 1 << len(_PAIR_BITS)
# the (op, cmp) pairs each normal form rewrites through the duality
_UPPER_BOUNDS = sum(_PAIR_BITS[pair] for pair in product(PathOp, (Cmp.LE, Cmp.LT)))
_GLOBALLY = sum(_PAIR_BITS[pair] for pair in product((PathOp.G,), Cmp))


def _operator_mask(cls, values: tuple) -> int:
    """The `_ops` of a `cls` node with the field `values`."""
    if cls is Prob:
        op, cmp, bound, body = values
        ops = body._ops | _PAIR_BITS[op, cmp]
        return ops | _RESHAPE if is_trivial_bound(cmp, bound) else ops
    if cls is And or cls is Or:
        (args,) = values
        ops = 0 if 1 < len(args) == len(set(args)) else _RESHAPE
        for a in args:
            ops |= a._ops
            if type(a) is cls:
                ops |= _RESHAPE
        return ops
    return 0


# ---------------------------------------------------------------------------
# Subformula machinery

def iter_subformulas(f: StateFormula) -> Iterator[StateFormula]:
    """Yields every state subformula of f, including f itself (with repeats)."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, Prob):
            stack.append(g.body)


def subformulas(f: StateFormula) -> frozenset[StateFormula]:
    """Every state subformula of f, including f: its cached proper
    subformulas and f."""
    return f._proper | {f}


def subformulas_of(X) -> frozenset[StateFormula]:
    """sub(X): every state subformula of every member of the set X."""
    X = frozenset(X)
    return X.union(*(f._proper for f in X))


def path_subformulas(formulas) -> frozenset[PathFormula]:
    """psub(X): the path formulas of the probabilistic formulas in sub(X)."""
    return frozenset(g.path_formula for g in subformulas_of(formulas)
                     if isinstance(g, Prob))


def immediate_path_subformulas(f: StateFormula) -> frozenset[PathFormula]:
    """Path formulas of the maximal probabilistic nodes of f: descent stops at
    the first Prob node on every branch."""
    found: set[PathFormula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Prob):
            found.add(g.path_formula)
        elif isinstance(g, (And, Or)):
            stack.extend(g.args)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Canonical ordering (deterministic set printing and tie-breaking)

_TAG_RANK = {Atom: 0, NegAtom: 1, And: 2, Or: 3, Prob: 4}
_OP_RANK = {PathOp.F: 0, PathOp.G: 1}
_CMP_RANK = {Cmp.GE: 0, Cmp.GT: 1, Cmp.LE: 2, Cmp.LT: 3}


def sort_key(f: StateFormula):
    """A total order on state formulas by structure; cached on the node."""
    return f._sort_key


def sorted_formulas(X) -> list[StateFormula]:
    return sorted(X, key=sort_key)


# ---------------------------------------------------------------------------
# Surface syntax
#
#   phi  := disj
#   disj := conj { "|" conj }
#   conj := unit { "&" unit }
#   unit := ident | "!" unit | "(" phi ")"
#         | ("F"|"G") cmp num "[" phi "]"
#   cmp  := ">=" | ">" | "<=" | "<" | "="
#   num  := the model numeral grammar of `markov.parse_probability`, ASCII
#           digits only:
#           integer | integer "." digits | integer "/" integer
#
# "=" is allowed only as "=1".  Whitespace is insignificant.  The
# tokenizer dispatches on each token's first character, with the character
# classes of `str.isspace`, `isdigit`, `isalpha` and `isalnum`, and yields
# plain (kind, text, offset) tuples that the parser reads by index.  A
# token keeps only its character offset; an error turns it into a 1-based
# line and column, where only "\n" starts a line and every other character
# is one column.  The parser builds core nodes as it goes, reading each
# unit at its polarity: "!" flips it, "&" and "|" swap under negative
# polarity, and a bound is negated there.  A bound that is then "<=" or "<"
# is dualized before its body is read: the other operator, the mirrored
# comparison, bound 1-r, and the body read at negative polarity.  A trivial
# bound is reported as soon as its "]" is read, named as written.  Nesting
# of "!", "(" and "F/G...[" together is capped at MAX_NESTING levels, so
# that the recursive passes over a parsed formula stay inside Python's
# recursion limit.

MAX_NESTING = 100

# the operator and comparison of each token text, read without
# `EnumType.__call__`
_PATH_OPS = {op.value: op for op in PathOp}
_CMPS = {cmp.value: cmp for cmp in Cmp}

# the first characters of the symbol tokens; "<" and ">" also start "<="
# and ">="
_SYMBOLS = frozenset("<>=!&|()[]/")


# A token is a (kind, text, offset) tuple, read by index: kind is "sym",
# "num", "name" or "eof", and offset the position of its first character.
_KIND, _TEXT, _OFFSET = 0, 1, 2


def _syntax_error(message: str, text: str, offset: int) -> PctlSyntaxError:
    """The error at character `offset` of `text`, placed as above."""
    return PctlSyntaxError(message, text.count("\n", 0, offset) + 1,
                           offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    end = len(text)
    i = 0
    while i < end:
        ch = text[i]
        if ch in _SYMBOLS:
            # the only two-character symbols are >= and <=
            sym = ch + "=" if ch in "<>" and text.startswith("=", i + 1) else ch
            tokens.append(("sym", sym, i))
            i += len(sym)
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < end and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < end and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise _syntax_error(f"unexpected character {ch!r}", text, i)
    tokens.append(("eof", "", end))
    return tokens


class _Parser:
    """Reads each unit at the polarity it sits under: `positive`, or
    negated by an odd number of enclosing "!".  `disj`, `conj` and `unit`
    return a core node, or a connective not built yet as its class and its
    argument list, so that an operand of the same connective is spliced
    into its enclosing argument list rather than built and flattened."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: tuple[str, str, int] | None = None):
        tok = tok or self.peek()
        raise _syntax_error(message, self.text, tok[_OFFSET])

    def expect(self, text: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[_TEXT] != text:
            self.error(f"expected {text!r}, found {tok[_TEXT]!r}", tok)
        return tok

    def parse(self) -> StateFormula:
        f = self.formula(True)
        kind, text, _ = self.peek()
        if kind != "eof":
            self.error(f"unexpected trailing input {text!r}")
        return f

    def formula(self, positive: bool) -> StateFormula:
        f = self.disj(positive)
        return _merge(*f) if type(f) is tuple else f

    def disj(self, positive: bool):
        first = self.conj(positive)
        if self.tokens[self.i][_TEXT] != "|":
            return first
        cls = Or if positive else And
        args = []
        _gather(args, first, cls)
        while self.tokens[self.i][_TEXT] == "|":
            self.i += 1
            _gather(args, self.conj(positive), cls)
        return cls, args

    def conj(self, positive: bool):
        first = self.unit(positive)
        if self.tokens[self.i][_TEXT] != "&":
            return first
        cls = And if positive else Or
        args = []
        _gather(args, first, cls)
        while self.tokens[self.i][_TEXT] == "&":
            self.i += 1
            _gather(args, self.unit(positive), cls)
        return cls, args

    def unit(self, positive: bool):
        kind, text, _ = self.tokens[self.i]
        is_prob = (text in ("F", "G")
                   and self.tokens[self.i + 1][_TEXT] in (">=", ">", "<=", "<", "="))
        if kind == "name" and not is_prob:
            self.i += 1
            return Atom(text) if positive else NegAtom(text)
        if text not in ("!", "(") and not is_prob:
            self.error(f"expected a formula, found {text!r}")
        if self.depth == MAX_NESTING:
            self.error(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if text == "!":
            self.i += 1
            f = self.unit(not positive)
        elif text == "(":
            self.i += 1
            f = self.disj(positive)
            self.expect(")")
        else:
            f = self.prob_unit(positive)
        self.depth -= 1
        return f

    def prob_unit(self, positive: bool) -> Prob:
        op = _PATH_OPS[self.next()[_TEXT]]
        cmp_tok = self.next()
        bound = self.number()
        if cmp_tok[_TEXT] == "=":
            if bound != 1:
                self.error("'=' is allowed only as '=1'", cmp_tok)
            written = Cmp.GE
        else:
            written = _CMPS[cmp_tok[_TEXT]]
        if not _is_probability(bound):
            self.error(f"probability bound {bound} outside [0,1]", cmp_tok)
        self.expect("[")
        cmp = written if positive else _NEGATED[written]
        # a '<=' or '<' is dualized, so its body is read negated
        dualize = cmp is Cmp.LE or cmp is Cmp.LT
        body = self.formula(not dualize)
        self.expect("]")
        if is_trivial_bound(written, bound):
            # the error names the node as written, its body read positively
            if dualize:
                body = _norm(body, False, _UPPER_BOUNDS)
            return _norm(Prob(op, written, bound, body), True, _UPPER_BOUNDS)
        if dualize:
            return Prob(_DUAL_OP[op], _MIRROR[cmp], _complement(bound), body)
        return Prob(op, cmp, bound, body)

    def number(self) -> Fraction:
        tok = self.next()
        if tok[_KIND] != "num":
            self.error(f"expected a number, found {tok[_TEXT]!r}", tok)
        text = tok[_TEXT]
        if self.peek()[_TEXT] == "/":
            self.i += 1
            text += "/"
            if self.peek()[_KIND] == "num":
                text += self.next()[_TEXT]
        try:
            return parse_probability(text)
        except InvalidChainError:
            self.error(f"malformed rational {text!r}", tok)


def _gather(args: list, operand, cls) -> None:
    """Appends a parsed operand to the argument list of a `cls` connective:
    the arguments of a `cls` operand not built yet, else the operand, built
    if it is not yet."""
    if type(operand) is tuple:
        if operand[0] is cls:
            args += operand[1]
            return
        operand = _merge(*operand)
    args.append(operand)


def _is_probability(bound: Fraction) -> bool:
    """0 <= bound <= 1, read on the bound's integers n/d, d > 0: 0 <= n <= d."""
    n, d = bound.as_integer_ratio()
    return 0 <= n <= d


def parse_formula(text: str) -> StateFormula:
    """Parses surface syntax into a core formula.

    The surface language permits negation on arbitrary subformulas and all
    four comparisons on F/G; the parser reads each subformula at the
    polarity it sits under and builds its core form directly, the node
    `normalize` would return.  Raises `PctlSyntaxError` on malformed text
    and `NormalizationError` on a trivial bound: the first one read, named
    as written, so `F<=0[G>=0[b & !a]]` names 'G>=0' in G>=0[b & !a].
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Normalization into core form

def normalize(f: StateFormula) -> StateFormula:
    """Pushes negations to atoms and eliminates <=, < via the F/G dualities.

    P(F b) <= r  iff  P(G !b) >= 1-r        P(G b) <= r  iff  P(F !b) >= 1-r
    P(F b) <  r  iff  P(G !b) >  1-r        P(G b) <  r  iff  P(F !b) >  1-r

    Rejects results that would carry a trivial bound ('>=0' or '>1'),
    naming the first one the pass produces: for F<=0[G>=0[b & !a]] it names
    'F>1', the G>=0 node under the dualized F.
    """
    return _norm(f, True, _UPPER_BOUNDS)


def f_normal_form(f: StateFormula) -> StateFormula:
    """The same pass as `normalize`, dualizing G instead of <=, <: P(G b)
    >= r becomes P(F !b) <= 1-r and P(G b) > r becomes P(F !b) < 1-r, with
    the negation pushed to atoms.  Core inputs never produce trivial
    constraints (the core form already excludes the bounds that would)."""
    if not is_core(f):
        raise ValueError("f_normal_form expects a core formula")
    return _norm(f, True, _GLOBALLY)


_DUAL_OP = {PathOp.F: PathOp.G, PathOp.G: PathOp.F}
_MIRROR = {Cmp.GE: Cmp.LE, Cmp.GT: Cmp.LT, Cmp.LE: Cmp.GE, Cmp.LT: Cmp.GT}


def _norm(f: StateFormula, positive: bool, dual: int) -> StateFormula:
    """Pushes negation to atoms and rewrites every P(op b) cmp r whose
    (op, cmp) is in the mask `dual` as P(op' !b) cmp' 1-r, op' the other
    path operator and cmp' the mirrored comparison.  A node at positive
    polarity whose operator mask meets neither `dual` nor `_RESHAPE` is
    returned as it is: nothing below it would change."""
    cls = type(f)
    if cls not in _TAG_RANK:  # the five state node types
        raise TypeError(f"not a formula: {f!r}")
    if positive and not f._ops & (dual | _RESHAPE):
        return f
    if cls is Prob:
        op, cmp, bound = f.op, f.cmp if positive else _NEGATED[f.cmp], f.bound
        dualize = _PAIR_BITS[op, cmp] & dual
        if dualize:
            op, cmp, bound = _DUAL_OP[op], _MIRROR[cmp], _complement(bound)
        body = _norm(f.body, not dualize, dual)
        if is_trivial_bound(cmp, bound):
            raise NormalizationError(
                f"normalizing produced the trivial constraint "
                f"'{op}{cmp}{bound}' in {f}; such bounds are forbidden")
        return Prob(op, cmp, bound, body)
    if cls is Atom:
        # a positive literal was returned above
        return NegAtom(f.name)
    if cls is NegAtom:
        return Atom(f.name)
    make = cls if positive else Or if cls is And else And
    return _merge(make, [_norm(a, positive, dual) for a in f.args])


def _complement(bound: Fraction) -> Fraction:
    """1 - bound, from the bound's integers n/d: (d - n)/d."""
    n, d = bound.as_integer_ratio()
    return Fraction(d - n, d)


# ---------------------------------------------------------------------------
# Fragment grammars
#
# Four syntactic families L1-L4, stated by the one table `_GRAMMARS`.  A
# kind allows literals or not, '&' and '|' of formulas of its own kind, and,
# for each path operator it lists, op~r[body] with the constraint passing
# the operator's guard and the body matching one of the listed kinds.  Lk is
# the kind phik closed under state subformulas and under replacing a
# constraint with '>= r' for any non-trivial r: a top-level G>=r is in Lk
# when its body matches a kind of phik's G entry.  (Relaxing F bounds never
# enlarges the languages: every phik allows any constraint on F.)

FragmentMembership = namedtuple("FragmentMembership", "in_l1 in_l2 in_l3 in_l4")


def _is_any(f: Prob) -> bool:
    return True


def _is_eq1(f: Prob) -> bool:
    return f.cmp is Cmp.GE and f.bound == 1


def _is_w(f: Prob) -> bool:
    # "an arbitrary constraint except for '=1'"
    return not _is_eq1(f)


def _is_positive(f: Prob) -> bool:
    return f.cmp is Cmp.GT and f.bound == 0


_F, _G = PathOp.F, PathOp.G
# kind -> (literal allowed, {op: (guard, body kinds)}); an operator missing
# from a kind's dict is not allowed in it
_GRAMMARS = {
    "phi1": (True, {_F: (_is_any, ("phi1",)), _G: (_is_any, ("psi1",))}),
    "psi1": (True, {_G: (_is_any, ("psi1",))}),
    "phi2": (True, {_F: (_is_any, ("phi2",)), _G: (_is_eq1, ("psi2",))}),
    "psi2": (True, {_F: (_is_w, ("psi2",))}),
    "phi3": (True, {_F: (_is_any, ("phi3",)), _G: (_is_eq1, ("psi3", "rho3"))}),
    "psi3": (True, {_F: (_is_w, ("psi3",))}),
    "rho3": (False, {_F: (_is_w, ("psi3",)), _G: (_is_eq1, ("psi3", "rho3"))}),
    "phi4": (True, {_F: (_is_any, ("phi4",)), _G: (_is_eq1, ("psi4",))}),
    "psi4": (True, {_F: (_is_positive, ("psi4",)), _G: (_is_eq1, ("psi4",))}),
}
_KIND_SETS: dict[frozenset[str], frozenset[str]] = {}  # at most 2**9 of them
# The kinds of a Prob node from what the guards read of it: (op, whether the
# bound is '=1', whether it is '>0', the body's kinds).  The bound classes
# exclude each other, so it holds at most 2 * 3 * len(_KIND_SETS) entries.
_PROB_KINDS: dict[tuple, frozenset[str]] = {}


def fragment_classify(f: StateFormula) -> FragmentMembership:
    """The fragments a core formula belongs to, classified once per node;
    ValueError on a formula that is not core."""
    return f._fragments


def _classify(f: StateFormula) -> FragmentMembership:
    if not is_core(f):
        raise ValueError("fragment classification expects a core formula")
    # closure under '>= r' bound variants: a G node whose body fits one of
    # the family's G-body kinds is in the fragment for any bound
    relaxed = isinstance(f, Prob) and f.op is PathOp.G and f.cmp is Cmp.GE
    return FragmentMembership(*(
        kind in f._kinds or relaxed
        and not f.body._kinds.isdisjoint(_GRAMMARS[kind][1][PathOp.G][1])
        for kind in ("phi1", "phi2", "phi3", "phi4")))
