"""Bounded satisfiability through existential real-arithmetic encodings.

Formulas are first rewritten into F-normal form (G eliminated through the
complement duality, all four comparisons allowed on F) by
`formula.f_normal_form`, the pass that also gives `normalize` its core
form.  For every model size up to the bound, candidate digraphs and
subformula labelings are enumerated; a candidate fixes the topology, so
correctness of each labeled F-subformula becomes a polynomial system over
the positive edge variables.
Satisfaction at a state depends only on the states it reaches, so a model
is looked for at vertex 0 of a rooted graph: vertex 0 reaches every
vertex, only one graph per isomorphism class under relabelings that fix
vertex 0 is tried (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998), and a labeling is emitted only when vertex 0 carries
the whole formula.  Vertex sets have one format from enumeration to
confirmation, `markov`'s: a graph is its tuple of successor masks, and
every label set and block set is a vertex bitmask; the edge list exists
only as the order of the SMT edge variables, derived from the successor
masks.  The enumeration builds one labeling, a vertex bitmask per
subformula slot, as it chooses the label sets and screens each
F-subformula's block from the graph alone, skipping the whole subtree of
labelings on a contradiction: with prob0/prob1 of the body's set, a reach
value is exactly 0 or 1 there and strictly inside (0, 1) elsewhere.  Each
graph builds its predecessor masks once and calls `markov.prob01` on them
once per step and body mask, turning the answer into a (care, want) mask
pair: a label set m passes iff m & care == want.
Each surviving candidate is first tried with the uniform assignment; only a
miss is shipped to a pluggable SMT backend.  An assignment fixes the chain,
so it is confirmed by that chain's `ModelChecker`, the package's one exact
evaluator: each block's reach values are its `reach_probabilities` of the
body mask, held against the bound by `modelcheck.passing`.  The chain is
built with the candidate's valuation, so a confirmed assignment is a
model, which the same checker re-verifies against the original formula at
vertex 0.
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
from functools import cached_property
from operator import and_, or_, xor

from .formula import And, Atom, NegAtom, Or, Prob, StateFormula, f_normal_form
from .markov import (
    InvalidChainError, MarkovChain, indices, parse_probability,
    predecessor_masks, prob01, states_reachable_from, validate,
)
from .modelcheck import ModelChecker, passing


class BackendError(RuntimeError):
    """The external solver failed to launch or violated the protocol."""


def _choice_order(f: StateFormula,
                  ) -> list[tuple[StateFormula, tuple[StateFormula, ...]]]:
    """The distinct subformulas of `f` in the order the enumeration labels
    them, as (choice, completed) steps.  The choices are the atoms in sorted
    order (also those that occur only negated, whose sets the valuation of
    a confirmed chain reads back), then the F-subformulas bottom-up, a
    node's body before it.  The NegAtom/And/Or nodes a choice completes
    follow it, children before parents."""
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

    The graph is its tuple of successor masks over vertices 0..size-1
    (rendered as v1..v{size}), each of out-degree at least one; each label
    set is a vertex mask, the Boolean ones forced from the atom and
    F-subformula sets; the enumeration emits only candidates whose
    whole-formula set contains vertex 0.
    """

    succ: tuple[int, ...]
    labeling: dict[StateFormula, int]
    formula: StateFormula

    @property
    def size(self) -> int:
        return len(self.succ)


def _graphs(size: int):
    """The rooted digraphs on `size` vertices, one per isomorphism class
    under the relabelings that fix vertex 0, as tuples of successor
    bitmasks in lexicographic order.  Every vertex has out-degree >= 1,
    vertex 0 reaches every vertex, and each tuple is the least of its
    relabelings.  Orderly generation (Read 1978): the rows are chosen one
    vertex at a time, counting up, and a prefix is only extended while no
    relabeling is already smaller on the rows that both fix.  Streamed: 1,
    6, 112 and 5856 graphs for sizes 1 to 4."""
    full = (1 << size) - 1
    # per relabeling p other than the identity: the image of every vertex
    # mask, and the vertex p sends to each position (relabeled row k is the
    # image of row inverse[k])
    relabelings = []
    for rest in itertools.permutations(range(1, size)):
        p = (0, *rest)
        if p != tuple(range(size)):
            image = [sum(1 << p[v] for v in range(size) if m >> v & 1)
                     for m in range(full + 1)]
            relabelings.append((image, [p.index(k) for k in range(size)]))
    rows: list[int] = []

    def beaten() -> bool:
        fixed = len(rows)
        for image, inverse in relabelings:
            for k in range(fixed):
                if inverse[k] >= fixed:
                    break
                row = image[rows[inverse[k]]]
                if row != rows[k]:
                    if row < rows[k]:
                        return True
                    break
        return False

    def extend():
        if len(rows) == size:
            if states_reachable_from(rows, 1) == full:
                yield tuple(rows)
            return
        for row in range(1, full + 1):
            rows.append(row)
            if not beaten():
                yield from extend()
            rows.pop()

    yield from extend()


def enumerate_candidates(f: StateFormula, bound: int,
                         _result: SatSearchResult | None = None):
    """Streams every candidate for models of up to `bound` states that the
    block screen does not refute and whose vertex 0 carries the whole
    formula, in deterministic order: size ascending, then the rooted
    canonical graphs of `_graphs` lexicographically, then labelings
    lexicographically (atom sets before F-subformula sets, each a subset
    bitmask counting up).  One labeling is built as the sets are chosen, as
    a list of vertex bitmasks indexed by the integer slot of each
    subformula; the formula dict is only built for an emitted candidate.
    An F-subformula's set is only chosen among those its block screen lets
    through, and each set it refutes skips a whole subtree of labelings
    (counted in `_result.refuted`).  The screen depends only on the graph,
    the step and the body's set, so each graph builds its predecessor masks
    once, calls `prob01` once per (step, body set) and keeps the sets m
    with m & care == want (see `_screen`).  A model of at most `bound`
    states, cut down to the states its entry reaches and relabeled with the
    entry as vertex 0, is a candidate of the stream, so every verdict is
    the one of the enumeration over all digraphs that emits every nonempty
    whole-formula set."""
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
        for succ in _graphs(size):
            pred = predecessor_masks(succ)
            labels = [0] * len(nodes)
            # (step index, body mask) -> the label masks the screen lets through
            passed: dict[tuple[int, int], list[int]] = {}

            def assign(index: int):
                if index == len(compiled):
                    if labels[root] & 1:
                        yield ETRCandidate(succ, dict(zip(nodes, labels)), f)
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
    """The correctness constraints of one labeled F-subformula, as vertex
    masks: the reach variables are 1 on the body's label set `body`, 0 on
    `out`, the vertices with no path into it, and linear combinations on
    the other vertices, and compared against the bound inside/outside the
    formula's label set `inside`."""

    formula: Prob
    body: int
    out: int
    inside: int


@dataclass(frozen=True)
class ETRSystem:
    """Existential constraints for one candidate graph, given as its
    successor masks: positive edge variables x that row-stochastically sum
    per vertex, plus one reach-variable block per F-subformula.
    `valuation` holds each vertex's atoms, read off the candidate's atom
    sets: no constraint mentions them, but the chain an assignment defines
    carries them, so a confirmed assignment is a model."""

    succ: tuple[int, ...]
    blocks: tuple[CorrectnessBlock, ...]
    valuation: tuple[frozenset[str], ...]

    @property
    def size(self) -> int:
        return len(self.succ)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (i, j) ascending; edge k is the variable x{k+1}."""
        return tuple((i, j) for i, mask in enumerate(self.succ)
                     for j in indices(mask))


def _block(pred, node: Prob, body: int, inside: int) -> CorrectnessBlock:
    """The block of `node` for the body mask `body` in the graph with
    predecessor masks `pred`: the cut-off set is prob0, the vertices with
    no path into the body set."""
    return CorrectnessBlock(node, body, prob01(pred, body)[0], inside)


def encode(candidate: ETRCandidate) -> ETRSystem:
    """Builds the constraint system of a candidate: one block per
    F-subformula, bottom-up."""
    pred = predecessor_masks(candidate.succ)
    labeling = candidate.labeling
    blocks = [_block(pred, node, labeling[node.body], labeling[node])
              for node, _ in _choice_order(candidate.formula)
              if isinstance(node, Prob)]
    valuation = [set() for _ in range(candidate.size)]
    for g, mask in labeling.items():
        if isinstance(g, Atom):
            for v in indices(mask):
                valuation[v].add(g.name)
    return ETRSystem(candidate.succ, tuple(blocks),
                     tuple(map(frozenset, valuation)))


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


def interval_refuted(system: ETRSystem) -> bool:
    """Whether the block screen (`_screen`) refutes some block of `system`
    from its graph alone.  The enumeration only emits candidates the screen
    lets through, so the search never calls this; it is the screen on an
    encoded system, which the tests check for soundness and the benchmark
    traces."""
    pred = predecessor_masks(system.succ)
    full = (1 << system.size) - 1
    for block in system.blocks:
        care, want = _screen(_verdicts(block.formula),
                             *prob01(pred, block.body), full)
        if block.inside & care != want:
            return True
    return False


def uniform_assignment(system: ETRSystem) -> dict[tuple[int, int], Fraction]:
    """Every vertex's outgoing edges share its probability mass equally."""
    succ = system.succ
    return {(i, j): Fraction(1, succ[i].bit_count()) for i, j in system.edges}


def check_assignment(system: ETRSystem, assignment: dict[tuple[int, int], Fraction],
                     ) -> ModelChecker | None:
    """Exact substitution oracle: builds the chain the edge probabilities
    define, with states v1..v{size} carrying the system's valuation, takes
    each block's reach values from its `ModelChecker` and evaluates every
    comparison.  Returns that checker, whose `chain` is then a model of the
    labeling, when every comparison holds and None otherwise.  Raises
    ValueError on the problems `markov.validate` finds in that chain; a
    missing edge has probability 0."""
    names = [f"v{v + 1}" for v in range(system.size)]
    chain = MarkovChain(names, {
        (names[i], names[j]): Fraction(assignment.get((i, j), 0))
        for i, j in system.edges}, dict(zip(names, system.valuation)))
    problems = validate(chain)
    if problems:
        raise ValueError("; ".join(problems))
    mc = ModelChecker(chain)
    for block in system.blocks:
        values = mc.reach_probabilities(block.body)
        cmp, r = block.formula.cmp, block.formula.bound
        if passing(values, cmp, r) != block.inside:
            return None
    return mc


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
    size, edges = system.size, system.edges
    lines = ["(set-logic QF_NRA)"]
    for i in range(len(edges)):
        lines.append(f"(declare-const {_edge_var(i)} Real)")
    y_names: list[list[str]] = []
    for b, block in enumerate(system.blocks):
        names = [f"y{b + 1}_{v + 1}" for v in range(size)]
        y_names.append(names)
        for name in names:
            lines.append(f"(declare-const {name} Real)")
    for i in range(len(edges)):
        lines.append(f"(assert (and (> {_edge_var(i)} 0) (<= {_edge_var(i)} 1)))")
    for v in range(size):
        outgoing = [_edge_var(k) for k, e in enumerate(edges) if e[0] == v]
        lines.append(f"(assert (= (+ {' '.join(outgoing)}) 1))")
    for b, block in enumerate(system.blocks):
        names = y_names[b]
        for v in indices(block.body):
            lines.append(f"(assert (= {names[v]} 1))")
        for v in indices(block.out):
            lines.append(f"(assert (= {names[v]} 0))")
        for v in indices((1 << size) - 1 & ~(block.body | block.out)):
            terms = [f"(* {_edge_var(k)} {names[j]})"
                     for k, (i, j) in enumerate(edges) if i == v]
            summed = terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"
            lines.append(f"(assert (= {names[v]} {summed}))")
        cmp, r = block.formula.cmp, _smt_rational(block.formula.bound)
        for v in range(size):
            op = cmp if block.inside >> v & 1 else cmp.negated()
            lines.append(f"(assert ({op} {names[v]} {r}))")
    lines.append("(check-sat)")
    if edges:
        lines.append(f"(get-value ({' '.join(_edge_var(i) for i in range(len(edges)))}))")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


_MAX_NESTING = 100


def _parse_sexprs(text: str) -> list:
    """The s-expressions of solver output as nested lists of tokens, read
    with an explicit stack; nesting past `_MAX_NESTING`, which also bounds
    `_rationalize`'s recursion, is a protocol error."""
    stack: list[list] = [[]]
    for tok in _TOKEN_RE.findall(text):
        if tok == "(":
            if len(stack) > _MAX_NESTING:
                raise BackendError(
                    f"solver output nested deeper than {_MAX_NESTING} levels")
            stack.append([])
        elif tok == ")" and len(stack) > 1:
            items = stack.pop()
            stack[-1].append(items)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise BackendError("unbalanced parenthesis in solver output")
    return stack[0]


def _rationalize(expr) -> Fraction:
    """Turns a solver value term into an exact rational: numerals as
    `markov.parse_probability` reads them (no exponents), negations and
    quotients.  The caller must confirm the result exactly before trusting
    it."""
    if isinstance(expr, str):
        try:
            return parse_probability(expr)
        except InvalidChainError as exc:
            raise BackendError(f"cannot rationalize solver value {expr!r}") from exc
    if isinstance(expr, list) and expr:
        if expr[0] == "-" and len(expr) == 2:
            return -_rationalize(expr[1])
        if expr[0] == "/" and len(expr) == 3:
            denominator = _rationalize(expr[2])
            if denominator == 0:
                raise BackendError(f"zero denominator in solver value {expr!r}")
            return _rationalize(expr[1]) / denominator
    raise BackendError(f"cannot rationalize solver value {expr!r}")


class SolverModel(dict):
    """A solver's model values by name.  Looking up a name the solver gave
    a value for that could not be read raises that read error, not
    KeyError."""

    def __init__(self):
        super().__init__()
        self.unreadable: dict[str, BackendError] = {}

    def __missing__(self, name):
        if name in self.unreadable:
            raise self.unreadable[name]
        raise KeyError(name)


def read_solver_output(output: str) -> tuple[str, SolverModel]:
    """The verdict and, after sat, the (name value) pairs of solver output,
    read depth first and left to right; a pair whose value cannot be read
    is searched further and its error kept for the name."""
    first = (output.split(None, 1) or [""])[0]
    if first not in ("sat", "unsat", "unknown"):
        raise BackendError(f"unexpected solver verdict {first!r}")
    values = SolverModel()
    if first != "sat":
        return first, values
    work = _parse_sexprs(output[len(first):])[::-1]
    while work:
        node = work.pop()
        if not isinstance(node, list):
            continue
        if (len(node) == 2 and isinstance(node[0], str)
                and _NAME_RE.fullmatch(node[0])):
            try:
                values[node[0]] = _rationalize(node[1])
                continue
            except BackendError as exc:
                values.unreadable[node[0]] = BackendError(
                    f"cannot read the solver's value of {node[0]!r}: {exc}")
        work.extend(reversed(node))
    return "sat", values


@dataclass
class SolverBackend:
    """External decision procedure invoked as a subprocess.

    `command` is a template whose `{file}` placeholder receives the SMT file
    path, split shell-style once, on construction: ValueError on unbalanced
    quoting or an empty command.  `read_solver_output` reads the output."""

    command: str
    timeout: float = 10.0

    def __post_init__(self):
        self.argv = shlex.split(self.command)
        if not self.argv:
            raise ValueError("the solver command is empty")

    def solve(self, text: str) -> tuple[str, dict[str, Fraction]]:
        path = None
        try:
            fd, path = tempfile.mkstemp(suffix=".smt2")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            argv = [part.replace("{file}", path) for part in self.argv]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.timeout)
            except OSError as exc:
                raise BackendError(f"cannot launch solver: {exc}") from exc
            except subprocess.TimeoutExpired:
                return "timeout", {}
        except OSError as exc:  # creating or writing the file
            raise BackendError(f"cannot write the SMT file: {exc}") from exc
        finally:
            if path is not None:
                os.unlink(path)
        output = proc.stdout.strip()
        if not output:
            raise BackendError(
                f"solver produced no output (stderr: {proc.stderr.strip()!r})")
        return read_solver_output(output)


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
    The checker that confirms an assignment holds its chain, which is
    re-verified against the original formula at its entry, vertex 0,
    before being returned.  With `emit_only` the systems are only written,
    nothing is decided.  The result is unsat-up-to-n only when every
    candidate was refuted; unknown when no survivor's uniform assignment is
    a model and some survivor was left undecided by the backend, or there
    is none.
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
        mc = check_assignment(system, uniform_assignment(system))
        if mc is None:
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
            try:
                assignment = {e: values[_edge_var(i)]
                              for i, e in enumerate(system.edges)}
            except KeyError as exc:
                raise BackendError(f"solver model is missing {exc}") from exc
            try:
                mc = check_assignment(system, assignment)
            except ValueError:
                mc = None  # the rationalized values are not even a chain
            if mc is None:
                undecided = True  # exact confirmation failed
                continue
        entry = mc.chain.states[0]
        if not mc.holds(entry, f):
            raise RuntimeError(
                "internal error: reconstructed model fails re-verification")
        result.status = "sat"
        result.model = mc.chain
        result.entry = entry
        return result
    if undecided:
        result.status = "unknown"
    return result
