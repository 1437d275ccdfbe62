"""Formula nodes, concrete syntax, normalization, and fragment grammars.

The toolkit works with a probabilistic branching-time logic whose only path
operators are F ("eventually") and G ("always").  Core formulas keep negation
on atoms, carry exact rational probability bounds, and use n-ary
conjunction/disjunction so that `x & y & z` is one node with three children.

Core nodes (`Atom`, `NegAtom`, `And`, `Or`, `Prob`) and `PathFormula` are
interned (hash-consed): there is one live node per structure, however it was
built, parsed, copied or unpickled.  So `==` is `is` and a node hashes by
identity, which makes the formula-keyed sets and memos of the closure,
measure and progress code cheap.  Derived data the hot paths ask for
(`Prob.path_formula`, `sort_key`, `subformulas`, and the grammar kinds
behind `fragment_classify`) is cached on the node and computed once per
structure.  A `Prob` bound is always stored as a `Fraction`.

There is one tree: the parser builds core nodes directly, so
`parse_formula` returns a core formula.  Both normal forms come from one
pass, `_norm`, which pushes negation to atoms and applies the F/G duality
P(G b) ~ r iff P(F !b) ~' 1-r: the core form (`normalize`, no <= or <),
which the parser, model checking and the fragment grammars read, and the
F-normal form (`f_normal_form`, no G), which bounded satisfiability in
`etr` reads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Union

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

    def __str__(self) -> str:
        return self.value


class Cmp(Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    def __str__(self) -> str:
        return self.value

    def holds(self, value: Fraction, bound: Fraction) -> bool:
        if self is Cmp.GE:
            return value >= bound
        if self is Cmp.GT:
            return value > bound
        if self is Cmp.LE:
            return value <= bound
        return value < bound

    def negated(self) -> "Cmp":
        return {Cmp.GE: Cmp.LT, Cmp.GT: Cmp.LE, Cmp.LE: Cmp.GT, Cmp.LT: Cmp.GE}[self]


CORE_CMPS = (Cmp.GE, Cmp.GT)


# One live node per structure: (class, *fields) -> the node.  Weak values, so
# a formula no caller holds any more leaves the table.  The lock makes
# insertion atomic, so two threads building the same formula get one node.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _Node:
    """Base of the hash-consed node types.

    Construction returns the live node with the same class and fields when
    there is one, so `==` and `hash` can be the identity ones inherited from
    `object`.  Only construction hashes fields, to look the node up; a set
    or memo keyed by nodes never looks inside them.
    """

    def __new__(cls, *values):
        key = (cls, *values)
        node = _NODES.get(key)
        if node is None:
            if len(values) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            with _NODES_LOCK:
                node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through __new__, so they
        # return the live node
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _node(cls):
    """Makes `cls` a frozen dataclass with identity equality whose
    construction goes through `_Node.__new__`."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    return cls


class _StateNode(_Node):
    """A state formula node, with the derived data the hot paths ask for
    cached on the node: computed on first use, once per structure."""

    @cached_property
    def _subformulas(self) -> frozenset[StateFormula]:
        return frozenset(iter_subformulas(self))

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
            kinds = frozenset(
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


@_node
class Atom(_StateNode):
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class NegAtom(_StateNode):
    name: str

    def __str__(self) -> str:
        return "!" + self.name


@_node
class And(_StateNode):
    args: tuple["StateFormula", ...]

    def __str__(self) -> str:
        return " & ".join(_wrap(a, in_and=True) for a in self.args)


@_node
class Or(_StateNode):
    args: tuple["StateFormula", ...]

    def __str__(self) -> str:
        return " | ".join(str(a) for a in self.args)


@_node
class Prob(_StateNode):
    op: PathOp
    cmp: Cmp
    bound: Fraction
    body: "StateFormula"

    def __new__(cls, op, cmp, bound, body):
        # the bound is stored as a Fraction, so `1` and `Fraction(1)` give
        # one node
        if type(bound) is not Fraction:
            bound = Fraction(bound)
        return super().__new__(cls, op, cmp, bound, body)

    def __str__(self) -> str:
        if self.cmp is Cmp.GE and self.bound == 1:
            constraint = "=1"
        else:
            constraint = f"{self.cmp}{self.bound}"
        return f"{self.op}{constraint}[{self.body}]"

    @cached_property
    def path_formula(self) -> "PathFormula":
        return PathFormula(self.op, self.body)


StateFormula = Union[Atom, NegAtom, And, Or, Prob]


@_node
class PathFormula(_Node):
    """A bare F/G path formula, i.e. a probabilistic operator with the bound
    stripped.  Two Prob nodes that differ only in their constraint share one
    PathFormula."""

    op: PathOp
    body: StateFormula

    def __str__(self) -> str:
        return f"{self.op} {self.body}"


def _wrap(f: StateFormula, in_and: bool = False) -> str:
    # '&' binds tighter than '|', so a disjunction inside a conjunction
    # needs parentheses; everything else prints bare.
    if in_and and isinstance(f, Or):
        return f"({f})"
    return str(f)


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
    flat = list(dict.fromkeys(
        p for a in args for p in (a.args if isinstance(a, node_type) else (a,))))
    if not flat:
        raise ValueError("empty connective")
    if len(flat) == 1:
        return flat[0]
    return node_type(tuple(flat))


def is_trivial_bound(cmp: Cmp, bound: Fraction) -> bool:
    """Whether the constraint holds for every probability or for none:
    '>=0', '<=1', '>1' and '<0'."""
    return (cmp, bound) in ((Cmp.GE, 0), (Cmp.GT, 1), (Cmp.LE, 1), (Cmp.LT, 0))


def is_core(f: StateFormula) -> bool:
    """Core form: negation on atoms only and comparisons from {>=, >}."""
    if isinstance(f, (Atom, NegAtom)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_core(a) for a in f.args)
    return f.cmp in CORE_CMPS and is_core(f.body)


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
    """Every state subformula of f, including f; cached on the node."""
    return f._subformulas


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


@dataclass(frozen=True)
class FormulaSets:
    """The four derived sets of a formula set X.

    sub:  all state subformulas of all members.
    psub: path formulas P with some P-constrained formula in sub.
    nsub: members of sub that are not probabilistic operators.
    p:    path formulas of the probabilistic members of X itself.
    """

    sub: frozenset[StateFormula]
    psub: frozenset[PathFormula]
    nsub: frozenset[StateFormula]
    p: frozenset[PathFormula]


def formula_sets(X) -> FormulaSets:
    sub: set[StateFormula] = set()
    for f in X:
        sub |= subformulas(f)
    psub = frozenset(g.path_formula for g in sub if isinstance(g, Prob))
    nsub = frozenset(g for g in sub if not isinstance(g, Prob))
    p = frozenset(f.path_formula for f in X if isinstance(f, Prob))
    return FormulaSets(frozenset(sub), psub, nsub, p)


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
# "=" is allowed only as "=1".  Whitespace is insignificant.  The parser
# builds core nodes as it goes: a unit is core when it is returned, so "!"
# and a "<=", "<" or trivial bound hand their already core operand to the
# normalization pass below, and a trivial bound is reported as soon as its
# "]" is read.  Nesting of "!", "(" and "F/G...[" together is capped at
# MAX_NESTING levels, so that the recursive passes over a parsed formula,
# normalization inside the parser among them, stay inside Python's
# recursion limit.

MAX_NESTING = 100

# the first characters of the symbol tokens; "<" and ">" also start "<="
# and ">="
_SYMBOLS = frozenset("<>=!&|()[]/")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            # the only two-character symbols are >= and <=
            sym = ch + "=" if ch in "<>" and text.startswith("=", i + 1) else ch
            tokens.append(_Token("sym", sym, line, col))
            i += len(sym)
            col += len(sym)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise PctlSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise PctlSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def parse(self) -> StateFormula:
        f = self.disj()
        if self.peek().kind != "eof":
            self.error(f"unexpected trailing input {self.peek().text!r}")
        return f

    def disj(self) -> StateFormula:
        first = self.conj()
        args = [first]
        while self.peek().text == "|":
            self.next()
            args.append(self.conj())
        if len(args) == 1:
            return first
        return disj(args)

    def conj(self) -> StateFormula:
        first = self.unit()
        args = [first]
        while self.peek().text == "&":
            self.next()
            args.append(self.unit())
        if len(args) == 1:
            return first
        return conj(args)

    def unit(self) -> StateFormula:
        tok = self.peek()
        is_prob = (tok.text in ("F", "G")
                   and self.tokens[self.i + 1].text in (">=", ">", "<=", "<", "="))
        if tok.kind == "name" and not is_prob:
            self.next()
            return Atom(tok.text)
        if tok.text not in ("!", "(") and not is_prob:
            self.error(f"expected a formula, found {tok.text!r}")
        if self.depth == MAX_NESTING:
            self.error(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if tok.text == "!":
            self.next()
            f = _norm(self.unit(), False, _UPPER_BOUNDS)
        elif tok.text == "(":
            self.next()
            f = self.disj()
            self.expect(")")
        else:
            f = self.prob_unit()
        self.depth -= 1
        return f

    def prob_unit(self) -> StateFormula:
        op = PathOp(self.next().text)
        cmp_tok = self.next()
        bound = self.number()
        if cmp_tok.text == "=":
            if bound != 1:
                self.error("'=' is allowed only as '=1'", cmp_tok)
            cmp = Cmp.GE
        else:
            cmp = Cmp(cmp_tok.text)
        if not 0 <= bound <= 1:
            self.error(f"probability bound {bound} outside [0,1]", cmp_tok)
        self.expect("[")
        body = self.disj()
        self.expect("]")
        if cmp in CORE_CMPS and not is_trivial_bound(cmp, bound):
            return Prob(op, cmp, bound, body)
        return _norm_prob(op, cmp, bound, body, True, _UPPER_BOUNDS)

    def number(self) -> Fraction:
        tok = self.next()
        if tok.kind != "num":
            self.error(f"expected a number, found {tok.text!r}", tok)
        text = tok.text
        if self.peek().text == "/":
            self.next()
            text += "/"
            if self.peek().kind == "num":
                text += self.next().text
        try:
            return parse_probability(text)
        except InvalidChainError:
            self.error(f"malformed rational {text!r}", tok)


def parse_formula(text: str) -> StateFormula:
    """Parses surface syntax into a core formula.

    The surface language permits negation on arbitrary subformulas and all
    four comparisons on F/G; the parser brings each into core form as it
    reads it, as `normalize` would.  Raises `PctlSyntaxError` on malformed
    text and `NormalizationError` on a trivial bound.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Normalization into core form

def normalize(f: StateFormula) -> StateFormula:
    """Pushes negations to atoms and eliminates <=, < via the F/G dualities.

    P(F b) <= r  iff  P(G !b) >= 1-r        P(G b) <= r  iff  P(F !b) >= 1-r
    P(F b) <  r  iff  P(G !b) >  1-r        P(G b) <  r  iff  P(F !b) >  1-r

    Rejects results that would carry a trivial bound ('>=0' or '>1').
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
# the (op, cmp) pairs each normal form rewrites through the duality
_UPPER_BOUNDS = frozenset((op, cmp) for op in PathOp for cmp in (Cmp.LE, Cmp.LT))
_GLOBALLY = frozenset((PathOp.G, cmp) for cmp in Cmp)


def _norm(f: StateFormula, positive: bool, dual: frozenset) -> StateFormula:
    """Pushes negation to atoms and rewrites every P(op b) cmp r whose
    (op, cmp) is in `dual` as P(op' !b) cmp' 1-r, op' the other path
    operator and cmp' the mirrored comparison."""
    if isinstance(f, Atom):
        return f if positive else NegAtom(f.name)
    if isinstance(f, NegAtom):
        return f if positive else Atom(f.name)
    if isinstance(f, And):
        make = conj if positive else disj
        return make(_norm(a, positive, dual) for a in f.args)
    if isinstance(f, Or):
        make = disj if positive else conj
        return make(_norm(a, positive, dual) for a in f.args)
    if isinstance(f, Prob):
        return _norm_prob(f.op, f.cmp, f.bound, f.body, positive, dual)
    raise TypeError(f"not a formula: {f!r}")


def _norm_prob(op, cmp, bound, body, positive, dual) -> Prob:
    """`_norm` of Prob(op, cmp, bound, body), taking the fields, so that the
    parser need not build a node it rewrites at once."""
    written = (op, cmp, bound, body)
    if not positive:
        cmp = cmp.negated()
    dualize = (op, cmp) in dual
    if dualize:
        op, cmp, bound = _DUAL_OP[op], _MIRROR[cmp], 1 - bound
    body = _norm(body, not dualize, dual)
    if is_trivial_bound(cmp, bound):
        raise NormalizationError(
            f"normalizing produced the trivial constraint "
            f"'{op}{cmp}{bound}' in {Prob(*written)}; such bounds are forbidden")
    return Prob(op, cmp, bound, body)


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

@dataclass(frozen=True)
class FragmentMembership:
    in_l1: bool
    in_l2: bool
    in_l3: bool
    in_l4: bool


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
