"""Bounded satisfiability through existential real-arithmetic encodings.

Formulas are first rewritten into F-normal form (G eliminated through the
complement duality, all four comparisons allowed on F).  For every model
size up to the bound, candidate digraphs and subformula labelings are
enumerated; a candidate fixes the topology, so correctness of each labeled
F-subformula becomes a polynomial system over the positive edge variables.
The enumeration builds one labeling, a vertex bitmask per subformula slot,
as it chooses the label sets and screens each F-subformula's block from the
graph alone, skipping the whole subtree of labelings on a contradiction:
with prob0/prob1 of the body's set, a reach value is exactly 0 or 1 there
and strictly inside (0, 1) elsewhere.  A graph is its tuple of successor
masks, the format of `markov`'s graph layer; each graph builds its
predecessor masks once and calls `markov.prob01` on them once per step and
body mask, turning the answer into a (care, want) mask pair: a label set m
passes iff m & care == want.  Each surviving candidate is first tried with
the uniform assignment; only a miss is shipped to a pluggable SMT backend.
An assignment fixes the chain, so it is confirmed by that chain's
`ModelChecker`, the package's one exact evaluator: each block's reach values
are its `reach_probabilities` of the body mask.  A confirmed assignment is
rebuilt into a Markov chain that is re-verified against the original
formula.
"""

from __future__ import annotations

import itertools
import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from operator import and_, or_, xor

from .formula import (
    And, Atom, Cmp, NegAtom, Or, PathOp, Prob, StateFormula, conj, disj,
    is_core, is_trivial_bound, iter_subformulas,
)
from .markov import MarkovChain, predecessor_masks, prob01
from .modelcheck import ModelChecker


class BackendError(RuntimeError):
    """The external solver failed to launch or violated the protocol."""


# ---------------------------------------------------------------------------
# F-normal form

def f_normal_form(f: StateFormula) -> StateFormula:
    """Eliminates G: P(G b) >= r becomes P(F !b) <= 1-r and P(G b) > r
    becomes P(F !b) < 1-r, with the negation pushed to atoms.  Core inputs
    never produce trivial constraints (the core form already excludes the
    bounds that would)."""
    if not is_core(f):
        raise ValueError("f_normal_form expects a core formula")
    return _fnf(f, positive=True)


def _fnf(f: StateFormula, positive: bool) -> StateFormula:
    if isinstance(f, Atom):
        return f if positive else NegAtom(f.name)
    if isinstance(f, NegAtom):
        return f if positive else Atom(f.name)
    if isinstance(f, And):
        make = conj if positive else disj
        return make(_fnf(a, positive) for a in f.args)
    if isinstance(f, Or):
        make = disj if positive else conj
        return make(_fnf(a, positive) for a in f.args)
    assert isinstance(f, Prob)
    cmp = f.cmp if positive else f.cmp.negated()
    if f.op is PathOp.F:
        body = _fnf(f.body, True)
    else:
        # complement duality turns a G bound into the mirrored F bound
        cmp = {Cmp.GE: Cmp.LE, Cmp.GT: Cmp.LT, Cmp.LE: Cmp.GE, Cmp.LT: Cmp.GT}[cmp]
        body = _fnf(f.body, False)
    bound = f.bound if f.op is PathOp.F else 1 - f.bound
    if is_trivial_bound(cmp, bound):
        raise ValueError(f"trivial constraint produced from {f}")
    return Prob(PathOp.F, cmp, bound, body)


def _choice_order(f: StateFormula,
                  ) -> list[tuple[StateFormula, tuple[StateFormula, ...]]]:
    """The distinct subformulas of `f` in the order the enumeration labels
    them, as (choice, completed) steps.  The choices are the atoms in sorted
    order (also those that occur only negated, whose sets reconstruction
    reads back), then the F-subformulas bottom-up, a node's body before it.  The NegAtom/And/Or nodes a choice
    completes follow it, children before parents."""
    nodes: dict[StateFormula, None] = {}

    def walk(g: StateFormula):
        if g in nodes:
            return
        if isinstance(g, (And, Or)):
            for a in g.args:
                walk(a)
        elif isinstance(g, Prob):
            walk(g.body)
        nodes[g] = None

    walk(f)
    names = sorted({g.name for g in nodes if isinstance(g, (Atom, NegAtom))})
    choices = [Atom(name) for name in names]
    choices += [g for g in nodes if isinstance(g, Prob)]
    step = {g: i for i, g in enumerate(choices)}
    completed: list[list[StateFormula]] = [[] for _ in choices]
    for g in nodes:
        if isinstance(g, NegAtom):
            step[g] = step[Atom(g.name)]
        elif isinstance(g, (And, Or)):
            step[g] = max(step[a] for a in g.args)
        else:
            continue
        completed[step[g]].append(g)
    return [(g, tuple(done)) for g, done in zip(choices, completed)]


# ---------------------------------------------------------------------------
# Candidates

@dataclass(frozen=True)
class ETRCandidate:
    """A guessed digraph with per-subformula vertex labelings.

    Vertices are 0..size-1 (rendered as v1..v{size}); every vertex has
    out-degree at least one.  Boolean labelings are forced from the free
    atom and F-subformula sets; the whole-formula label set is nonempty.
    """

    size: int
    edges: tuple[tuple[int, int], ...]
    labeling: dict[StateFormula, frozenset[int]]
    formula: StateFormula

    def consistent(self) -> list[str]:
        """Boolean labeling rules; returns violations."""
        problems = []
        every = frozenset(range(self.size))
        for g in set(iter_subformulas(self.formula)):
            have = self.labeling[g]
            if isinstance(g, NegAtom):
                if have != every - self.labeling.get(Atom(g.name), frozenset()):
                    problems.append(f"labeling of !{g.name} is not the complement")
            elif isinstance(g, And):
                want = every
                for a in g.args:
                    want &= self.labeling[a]
                if have != want:
                    problems.append(f"labeling of {g} is not the intersection")
            elif isinstance(g, Or):
                want = frozenset()
                for a in g.args:
                    want |= self.labeling[a]
                if have != want:
                    problems.append(f"labeling of {g} is not the union")
        if not self.labeling[self.formula]:
            problems.append("whole-formula label set is empty")
        return problems


def _graphs(size: int):
    """All digraphs on `size` vertices with out-degree >= 1 everywhere, as
    tuples of successor bitmasks in canonical order (last vertex fastest)."""
    return itertools.product(range(1, 1 << size), repeat=size)


def enumerate_candidates(f: StateFormula, bound: int,
                         _result: SatSearchResult | None = None):
    """Streams every candidate for models of up to `bound` states that the
    interval screen does not refute, in deterministic order: size
    ascending, then graphs canonically, then labelings lexicographically
    (atom sets before F-subformula sets, each a subset bitmask counting
    up).  One labeling is built as the sets are chosen, as a list of vertex
    bitmasks indexed by the integer slot of each subformula; the formula
    dict is only built for an emitted candidate.  An F-subformula's set is
    only chosen among those its block screen lets through, and each set it
    refutes skips a whole subtree of labelings (counted in
    `_result.refuted`).  The screen depends only on the graph, the step and
    the body's set, so each graph builds its predecessor masks once, calls
    `prob01` once per (step, body set) and keeps the sets m with
    m & care == want (see `_screen`).  Only candidates whose whole-formula
    label set is nonempty are emitted."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    steps = _choice_order(f)
    nodes = [g for node, completed in steps for g in (node, *completed)]
    slot = {g: i for i, g in enumerate(nodes)}
    # per step: the chosen slot, (body slot, verdicts) for an F-subformula,
    # and the completion rules (slot, operator, argument slots), each folded
    # from the full mask (from 0 for Or)
    ops = {NegAtom: xor, And: and_, Or: or_}
    compiled = [
        (slot[node],
         (slot[node.body], _verdicts(node)) if isinstance(node, Prob) else None,
         [(slot[g], ops[type(g)],
           (slot[Atom(g.name)],) if isinstance(g, NegAtom)
           else [slot[a] for a in g.args]) for g in completed])
        for node, completed in steps]
    root = slot[f]

    for size in range(1, bound + 1):
        full = (1 << size) - 1
        masks = range(1 << size)
        subsets = [frozenset(k for k in range(size) if mask >> k & 1)
                   for mask in masks]
        for succ in _graphs(size):
            pred = predecessor_masks(succ)
            labels = [0] * len(nodes)
            # (step index, body mask) -> the label masks the screen lets through
            passed: dict[tuple[int, int], list[int]] = {}

            def assign(index: int):
                if index == len(compiled):
                    if labels[root]:
                        edges = tuple((i, j) for i in range(size)
                                      for j in range(size) if succ[i] >> j & 1)
                        yield ETRCandidate(size, edges, {
                            g: subsets[m] for g, m in zip(nodes, labels)}, f)
                    return
                target, screen, rules = compiled[index]
                choices = masks
                if screen is not None:
                    body, verdicts = screen
                    key = (index, labels[body])
                    choices = passed.get(key)
                    if choices is None:
                        care, want = _screen(verdicts, *prob01(pred, key[1]), full)
                        choices = passed[key] = [
                            m for m in masks if m & care == want]
                    if _result is not None:
                        _result.refuted += len(masks) - len(choices)
                for m in choices:
                    labels[target] = m
                    for g, op, args in rules:
                        value = 0 if op is or_ else full
                        for a in args:
                            value = op(value, labels[a])
                        labels[g] = value
                    yield from assign(index + 1)

            yield from assign(0)


# ---------------------------------------------------------------------------
# Constraint systems

@dataclass(frozen=True)
class CorrectnessBlock:
    """The correctness constraints of one labeled F-subformula: given the
    body's label set, the reach variables are 1 on it, 0 on the vertices
    with no path to it, linear combinations elsewhere, and compared against
    the bound inside/outside the formula's label set.  `sure` holds the
    vertices outside the body set that reach it with probability 1 under
    every positive assignment (prob1 of the graph)."""

    formula: Prob
    body_set: frozenset[int]
    out_set: frozenset[int]
    other: tuple[int, ...]
    in_set: frozenset[int]
    sure: frozenset[int]


@dataclass(frozen=True)
class ETRSystem:
    """Existential constraints for one candidate: positive edge variables x
    that row-stochastically sum per vertex, plus one reach-variable block per
    F-subformula.  Constraint count is linear in |edges| + size * blocks."""

    size: int
    edges: tuple[tuple[int, int], ...]
    blocks: tuple[CorrectnessBlock, ...]

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def constraint_count(self) -> int:
        return len(self.edges) + self.size + sum(
            len(b.body_set) + len(b.out_set) + len(b.other) + self.size
            for b in self.blocks)


def _block(pred, node: Prob, body_set: frozenset[int],
           in_set: frozenset[int]) -> CorrectnessBlock:
    """The block of `node` for the given body set in the graph with
    predecessor masks `pred`: the cut-off set is prob0, the vertices with
    no path into it, and `sure` is prob1 minus the body set."""
    body = _mask(body_set)
    prob0, prob1 = prob01(pred, body)
    vertices = range(len(pred))
    return CorrectnessBlock(
        formula=node,
        body_set=body_set,
        out_set=frozenset(v for v in vertices if prob0 >> v & 1),
        other=tuple(v for v in vertices if not (prob0 | body) >> v & 1),
        in_set=in_set,
        sure=frozenset(v for v in vertices if (prob1 & ~body) >> v & 1),
    )


def encode(candidate: ETRCandidate) -> ETRSystem:
    """Builds the constraint system of a candidate: one block per
    F-subformula, bottom-up."""
    pred = [0] * candidate.size
    for i, j in candidate.edges:
        pred[j] |= 1 << i
    blocks = [_block(pred, node, candidate.labeling[node.body],
                     candidate.labeling[node])
              for node, _ in _choice_order(candidate.formula)
              if isinstance(node, Prob)]
    return ETRSystem(candidate.size, candidate.edges, tuple(blocks))


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _verdicts(node: Prob) -> tuple[bool, bool, bool | None]:
    """Whether a reach value of 1, of 0 and of anything strictly inside
    (0, 1) satisfies `node`'s comparison.  The last is None when 0 < r < 1,
    since such a value can lie on either side of the bound r; otherwise all
    of (0, 1) compares alike with r, so 1/2 stands for it."""
    cmp, r = node.cmp, node.bound
    inside = None if 0 < r < 1 else cmp.holds(Fraction(1, 2), r)
    return cmp.holds(Fraction(1), r), cmp.holds(Fraction(0), r), inside


def _screen(verdicts, prob0: int, prob1: int, full: int) -> tuple[int, int]:
    """The block screen as a (care, want) pair of vertex masks: a label set
    m is consistent with the graph iff m & care == want.  A reach value is
    exactly 1 on prob1, exactly 0 on prob0 and strictly inside (0, 1) on
    the other vertices, and each vertex's label must match its verdict."""
    at1, at0, inside = verdicts
    maybe = full & ~(prob0 | prob1)
    care = prob0 | prob1 | (0 if inside is None else maybe)
    want = (prob1 if at1 else 0) | (prob0 if at0 else 0) | (maybe if inside else 0)
    return care, want


def _block_interval_contradiction(size: int, block: CorrectnessBlock) -> bool:
    """Sound refutation from the graph alone, by the enumeration's mask
    rule (`_screen`): prob1 is the body set plus `sure`, prob0 the cut-off
    set."""
    care, want = _screen(_verdicts(block.formula), _mask(block.out_set),
                         _mask(block.body_set | block.sure), (1 << size) - 1)
    return _mask(block.in_set) & care != want


def interval_refuted(system: ETRSystem) -> bool:
    return any(_block_interval_contradiction(system.size, block)
               for block in system.blocks)


def uniform_assignment(system: ETRSystem) -> dict[tuple[int, int], Fraction]:
    """Every vertex's outgoing edges share its probability mass equally."""
    out_degree = [0] * system.size
    for i, _ in system.edges:
        out_degree[i] += 1
    return {(i, j): Fraction(1, out_degree[i]) for i, j in system.edges}


def check_assignment(system: ETRSystem, assignment: dict[tuple[int, int], Fraction],
                     ) -> bool:
    """Exact substitution oracle: builds the chain the edge probabilities
    define, takes each block's reach values from its `ModelChecker` and
    evaluates every comparison.  Raises on assignments violating the range
    or row-sum constraints."""
    for edge in system.edges:
        if edge not in assignment:
            raise ValueError(f"no probability for edge {edge}")
        p = Fraction(assignment[edge])
        if not 0 < p <= 1:
            raise ValueError(f"edge probability {p} outside (0,1]")
    for v in range(system.size):
        total = sum((Fraction(assignment[e]) for e in system.edges if e[0] == v),
                    Fraction(0))
        if total != 1:
            raise ValueError(f"outgoing probabilities of v{v + 1} sum to {total}")

    vertices = [str(v) for v in range(system.size)]
    mc = ModelChecker(MarkovChain(vertices, {
        (vertices[i], vertices[j]): Fraction(assignment[(i, j)])
        for i, j in system.edges}, {}))
    for block in system.blocks:
        values = mc.reach_probabilities(_mask(block.body_set)).values()
        cmp, r = block.formula.cmp, block.formula.bound
        for v, value in enumerate(values):
            if cmp.holds(value, r) != (v in block.in_set):
                return False
    return True


# ---------------------------------------------------------------------------
# SMT-LIB emission and the backend bridge

def _smt_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"(- {-q.numerator})"
    text = f"(/ {abs(q.numerator)} {q.denominator})"
    return text if q >= 0 else f"(- {text})"


def _edge_var(index: int) -> str:
    return f"x{index + 1}"


def smt_text(system: ETRSystem) -> str:
    """The candidate's constraints in SMT-LIB 2 text, logic QF_NRA, with a
    model request for the edge variables."""
    idx = system.edge_index()
    lines = ["(set-logic QF_NRA)"]
    for i in range(len(system.edges)):
        lines.append(f"(declare-const {_edge_var(i)} Real)")
    y_names: list[list[str]] = []
    for b, block in enumerate(system.blocks):
        names = [f"y{b + 1}_{v + 1}" for v in range(system.size)]
        y_names.append(names)
        for name in names:
            lines.append(f"(declare-const {name} Real)")
    for i in range(len(system.edges)):
        lines.append(f"(assert (and (> {_edge_var(i)} 0) (<= {_edge_var(i)} 1)))")
    for v in range(system.size):
        outgoing = [_edge_var(idx[e]) for e in system.edges if e[0] == v]
        lines.append(f"(assert (= (+ {' '.join(outgoing)}) 1))")
    cmp_text = {Cmp.GE: ">=", Cmp.GT: ">", Cmp.LE: "<=", Cmp.LT: "<"}
    neg_text = {Cmp.GE: "<", Cmp.GT: "<=", Cmp.LE: ">", Cmp.LT: ">="}
    for b, block in enumerate(system.blocks):
        names = y_names[b]
        for v in block.body_set:
            lines.append(f"(assert (= {names[v]} 1))")
        for v in block.out_set:
            lines.append(f"(assert (= {names[v]} 0))")
        for v in block.other:
            terms = [f"(* {_edge_var(idx[(i, j)])} {names[j]})"
                     for (i, j) in system.edges if i == v]
            summed = terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"
            lines.append(f"(assert (= {names[v]} {summed}))")
        r = _smt_rational(block.formula.bound)
        for v in range(system.size):
            op = cmp_text[block.formula.cmp] if v in block.in_set \
                else neg_text[block.formula.cmp]
            lines.append(f"(assert ({op} {names[v]} {r}))")
    lines.append("(check-sat)")
    if system.edges:
        lines.append(f"(get-value ({' '.join(_edge_var(i) for i in range(len(system.edges)))}))")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse_sexprs(text: str):
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise BackendError("unexpected end of solver output")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(parse())
            if pos >= len(tokens):
                raise BackendError("unbalanced parenthesis in solver output")
            pos += 1
            return items
        return tok

    out = []
    while pos < len(tokens):
        out.append(parse())
    return out


def _rationalize(expr) -> Fraction:
    """Turns a solver value term into an exact rational.  Decimal literals
    go through continued-fraction rationalization with a tight cap; the
    caller must confirm the result exactly before trusting it."""
    if isinstance(expr, str):
        try:
            return Fraction(expr)
        except ValueError:
            pass
        try:
            return Fraction(str(float(expr))).limit_denominator(10 ** 12)
        except (ValueError, OverflowError) as exc:
            raise BackendError(f"cannot rationalize solver value {expr!r}") from exc
    if isinstance(expr, list) and expr:
        if expr[0] == "-" and len(expr) == 2:
            return -_rationalize(expr[1])
        if expr[0] == "/" and len(expr) == 3:
            return _rationalize(expr[1]) / _rationalize(expr[2])
    raise BackendError(f"cannot rationalize solver value {expr!r}")


@dataclass
class SolverBackend:
    """External decision procedure invoked as a subprocess.

    `command` is a template whose `{file}` placeholder receives the SMT file
    path.  The first output token must be sat/unsat/unknown; model values
    are read from the standard get-value response."""

    command: str
    timeout: float = 10.0

    def solve(self, text: str) -> tuple[str, dict[str, Fraction]]:
        fd, path = tempfile.mkstemp(suffix=".smt2")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        try:
            argv = [part.replace("{file}", path)
                    for part in shlex.split(self.command)]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.timeout)
            except OSError as exc:
                raise BackendError(f"cannot launch solver: {exc}") from exc
            except subprocess.TimeoutExpired:
                return "timeout", {}
            output = proc.stdout.strip()
            if not output:
                raise BackendError(
                    f"solver produced no output (stderr: {proc.stderr.strip()!r})")
            first = output.split(None, 1)[0].strip()
            if first not in ("sat", "unsat", "unknown"):
                raise BackendError(f"unexpected solver verdict {first!r}")
            if first != "sat":
                return first, {}
            rest = output[len(first):]
            values: dict[str, Fraction] = {}

            def collect(node):
                if not isinstance(node, list):
                    return
                if (len(node) == 2 and isinstance(node[0], str)
                        and _NAME_RE.fullmatch(node[0])):
                    try:
                        values[node[0]] = _rationalize(node[1])
                        return
                    except BackendError:
                        pass
                for item in node:
                    collect(item)

            for group in _parse_sexprs(rest):
                collect(group)
            return "sat", values
        finally:
            os.unlink(path)


# ---------------------------------------------------------------------------
# The bounded satisfiability procedure

@dataclass
class SatSearchResult:
    status: str  # "sat" | "unsat-up-to-n" | "unknown"
    model: MarkovChain | None = None
    entry: str | None = None
    candidates: int = 0
    refuted: int = 0
    solver_calls: int = 0
    timeouts: int = 0


def candidate_from_chain(chain: MarkovChain, f: StateFormula) -> ETRCandidate:
    """The candidate a concrete chain induces for an F-normal formula: its
    graph plus the true satisfaction sets as labeling."""
    mc = ModelChecker(chain)
    pos = {s: i for i, s in enumerate(chain.states)}
    edges = tuple(sorted((pos[src], pos[dst]) for src, dst, _ in chain.edges()))
    vertices = range(len(chain.states))
    labeling = {g: frozenset(v for v in vertices if mc.sat_mask(g) >> v & 1)
                for g in set(iter_subformulas(f))}
    return ETRCandidate(len(chain.states), edges, labeling, f)


def chain_from_candidate(candidate: ETRCandidate,
                         assignment: dict[tuple[int, int], Fraction],
                         ) -> tuple[MarkovChain, str]:
    """Rebuilds a Markov chain from a candidate and its edge probabilities;
    the entry is the smallest vertex labeled with the whole formula."""
    names = [f"v{i + 1}" for i in range(candidate.size)]
    valuation = {name: set() for name in names}
    for g, vertices in candidate.labeling.items():
        if isinstance(g, Atom):
            for v in vertices:
                valuation[names[v]].add(g.name)
    edges = {(names[i], names[j]): Fraction(p)
             for (i, j), p in assignment.items()}
    chain = MarkovChain(names, edges, valuation)
    entry = names[min(candidate.labeling[candidate.formula])]
    return chain, entry


def solve_bounded_sat(f: StateFormula, bound: int, *,
                      backend: SolverBackend | None = None,
                      dump_dir: str | None = None,
                      emit_only: bool = False) -> SatSearchResult:
    """Searches for a model of the core formula `f` with at most `bound`
    states.

    The candidates come from `enumerate_candidates`, already screened with
    prob0/prob1 of each block's graph, so `refuted` counts the labeling
    subtrees the screen skipped.  Each survivor is first tried with the
    uniform assignment (one `check_assignment` call); a miss goes to the
    backend, if any, whose answer is confirmed by `check_assignment` too.
    A confirmed assignment is rebuilt into a chain and re-verified against
    the original formula before being returned.  With `emit_only` the
    systems are only written, nothing is decided.  The result is
    unsat-up-to-n only when every candidate was refuted; unknown when no
    survivor's uniform assignment is a model and some survivor was left
    undecided by the backend, or there is none.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    normal = f_normal_form(f)
    result = SatSearchResult(status="unsat-up-to-n")
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)

    undecided = False
    for candidate in enumerate_candidates(normal, bound, _result=result):
        result.candidates += 1
        system = encode(candidate)
        if dump_dir is not None:
            path = os.path.join(dump_dir, f"candidate-{result.candidates:06d}.smt2")
            with open(path, "w") as handle:
                handle.write(smt_text(system))
        if emit_only:
            undecided = True
            continue
        assignment = uniform_assignment(system)
        if not check_assignment(system, assignment):
            if backend is None:
                undecided = True
                continue
            result.solver_calls += 1
            verdict, values = backend.solve(smt_text(system))
            if verdict == "timeout":
                result.timeouts += 1
                undecided = True
                continue
            if verdict == "unknown":
                undecided = True
                continue
            if verdict == "unsat":
                continue
            index = system.edge_index()
            try:
                assignment = {e: values[_edge_var(i)] for e, i in index.items()}
            except KeyError as exc:
                raise BackendError(f"solver model is missing {exc}") from exc
            try:
                confirmed = check_assignment(system, assignment)
            except ValueError:
                confirmed = False  # the rationalized values are not even a chain
            if not confirmed:
                undecided = True  # exact confirmation failed
                continue
        chain, entry = chain_from_candidate(candidate, assignment)
        if not ModelChecker(chain).holds(entry, f):
            raise RuntimeError(
                "internal error: reconstructed model fails re-verification")
        result.status = "sat"
        result.model = chain
        result.entry = entry
        return result
    if undecided:
        result.status = "unknown"
    return result
