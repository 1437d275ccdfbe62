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
the whole formula.  What vertex 0 must carry is settled first, once per
formula: the formula and, through `And`, its conjuncts are required
there, so each step chooses only among the sets whose bit 0 agrees (set
for a required atom or F-subformula, clear for an atom whose negation is
required), and a required `Or` is tested once completed.  Two required
bounds that clash, F>=r or F>r on a body implying the body of F<=s or
F<s with r > s (or r = s and one bound open), or a required atom with its
negation, refute the whole search before anything is compiled.  Vertex
sets have one format from enumeration to confirmation, `markov`'s: a
graph is its tuple of successor masks, and every label set is a vertex
bitmask; the edge list exists only as the order of the SMT edge
variables, derived from the successor masks.  The enumeration
builds one labeling, a vertex bitmask per subformula slot, as it chooses
the label sets and screens each F-subformula's block from the graph
alone, skipping the whole subtree of labelings on a contradiction: with
prob0/prob1 of the body's set, a reach value is exactly 0 or 1 there and
strictly inside (0, 1) elsewhere.  Each graph builds its predecessor
masks once and calls `markov.prob01` on them once per step and body
mask, turning the answer into a (care, want) mask pair: a label set m
passes iff m & care == want.
A candidate is its graph and its labeling, from emission to confirmation,
made by `encode`.  Its constraint system is read off the labeling, one
block per F-subformula g, in the labeling's own (bottom-up) order: the
body set `labeling[g.body]` and the own set `labeling[g]`; the cut-off
set, where the block's reach variables are 0, is derived by `smt_text`,
its one reader.  Each candidate is decided on one path: it is tried with
the uniform assignment, and only a miss is shipped to a pluggable SMT
backend, whose answer is confirmed; its SMT text is built at most once,
for the dump and the backend alike.  An assignment fixes the chain, so
it is confirmed by that chain's `ModelChecker`, the package's one exact
evaluator: the labeling must be the chain's truth, every label set the
satisfaction mask (`sat_mask`) of its subformula.  The chain carries the
atoms of the candidate's atom sets, so a confirmed assignment is a model,
which the same checker re-verifies against the original formula at
vertex 0.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import and_, or_, xor

from .formula import (
    And, Atom, Cmp, NegAtom, Or, Prob, StateFormula, f_normal_form,
)
from .markov import (
    InvalidChainError, MarkovChain, indices, parse_probability,
    predecessor_masks, prob01, states_reachable_from, validate,
)
from .modelcheck import ModelChecker, verdicts


class BackendError(RuntimeError):
    """The external solver failed to launch or violated the protocol."""


def _postorder(g: StateFormula, nodes: dict[StateFormula, None]) -> None:
    """Adds the distinct subformulas of `g` that `nodes` lacks to its keys,
    children before parents, in argument order."""
    if g in nodes:
        return
    if isinstance(g, (And, Or)):
        for a in g.args:
            _postorder(a, nodes)
    elif isinstance(g, Prob):
        _postorder(g.body, nodes)
    nodes[g] = None


def _choice_order(f: StateFormula,
                  ) -> list[tuple[StateFormula, tuple[StateFormula, ...]]]:
    """The distinct subformulas of `f` in the order the enumeration labels
    them, as (choice, completed) steps.  The choices are the atoms in sorted
    order (also those that occur only negated, whose sets the valuation of
    a confirmed chain reads back), then the F-subformulas bottom-up, a
    node's body before it.  The NegAtom/And/Or nodes a choice completes
    follow it, children before parents."""
    nodes: dict[StateFormula, None] = {}
    _postorder(f, nodes)
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


def _required(f: StateFormula) -> set[StateFormula]:
    """The subformulas vertex 0 must carry when it carries `f`: `f` itself
    and, through `And`, its conjuncts.  An `Or`'s arguments are not
    required."""
    required = {f}
    if isinstance(f, And):
        for a in f.args:
            required |= _required(a)
    return required


def _implies(b1: StateFormula, b2: StateFormula) -> bool:
    """Whether `b1` implies `b2` syntactically: `b1` is `b2`, or one
    conjunct of `b1` implies `b2`, or `b1` implies one disjunct of `b2`."""
    return (b1 is b2
            or isinstance(b1, And) and any(_implies(a, b2) for a in b1.args)
            or isinstance(b2, Or) and any(_implies(b1, a) for a in b2.args))


def _root_clash(required: set[StateFormula]) -> bool:
    """Whether no state carries all of `required`, F-normal subformulas,
    for a reason read off the formulas alone: an atom and its negation, or
    a lower bound F>=r/F>r on a body B1 and an upper bound F<=s/F<s on a
    body B2 with B1 implying B2.  Then reach(B1) <= reach(B2) in every
    chain, so r > s clashes, and r = s does too unless both bounds are
    closed."""
    lower = [g for g in required
             if isinstance(g, Prob) and g.cmp in (Cmp.GE, Cmp.GT)]
    upper = [g for g in required
             if isinstance(g, Prob) and g.cmp in (Cmp.LE, Cmp.LT)]
    for lo in lower:
        for hi in upper:
            if _implies(lo.body, hi.body) and (
                    lo.bound > hi.bound or lo.bound == hi.bound
                    and (lo.cmp is Cmp.GT or hi.cmp is Cmp.LT)):
                return True
    return any(NegAtom(g.name) in required
               for g in required if isinstance(g, Atom))


# ---------------------------------------------------------------------------
# Candidates

@dataclass(frozen=True)
class ETRCandidate:
    """A guessed digraph with per-subformula vertex labelings; built by
    `encode`.

    The graph is its tuple of successor masks over vertices 0..size-1
    (rendered as v1..v{size}), each of out-degree at least one; each label
    set is a vertex mask, the Boolean ones forced from the atom and
    F-subformula sets; the enumeration emits only candidates whose
    whole-formula set contains vertex 0.  The labeling, bottom-up, is the
    constraint system too: positive edge variables x that row-stochastically
    sum per vertex, plus one reach-variable block per F-subformula g, with
    reach value 1 on its body set `labeling[g.body]` and compared against
    the bound inside and outside its own set `labeling[g]`.
    """

    succ: tuple[int, ...]
    labeling: dict[StateFormula, int]

    @property
    def size(self) -> int:
        return len(self.succ)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (i, j) ascending; edge k is the variable x{k+1}."""
        return tuple((i, j) for i, mask in enumerate(self.succ)
                     for j in indices(mask))


def encode(succ: tuple[int, ...], labeling: dict[StateFormula, int],
           ) -> ETRCandidate:
    """The candidate of a graph and labeling, the one construction point.
    Its blocks follow the labeling's order: bottom-up when the labeling is
    built in step order (`_choice_order`), as the enumeration builds it."""
    return ETRCandidate(succ, labeling)


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
    yield from _orderly(size, relabelings, [])


def _orderly(size: int, relabelings, rows: list[int]):
    """The graphs of `_graphs` whose first rows are `rows`: each row is
    chosen counting up, and a prefix is extended only while `_beaten`
    finds no relabeling smaller on it."""
    full = (1 << size) - 1
    if len(rows) == size:
        if states_reachable_from(rows, 1) == full:
            yield tuple(rows)
        return
    for row in range(1, full + 1):
        rows.append(row)
        if not _beaten(relabelings, rows):
            yield from _orderly(size, relabelings, rows)
        rows.pop()


def _beaten(relabelings, rows: list[int]) -> bool:
    """Whether some relabeling of `_graphs` makes the prefix `rows`
    smaller, compared on the rows that both fix."""
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


def enumerate_candidates(f: StateFormula, bound: int,
                         _result: SatSearchResult | None = None):
    """Streams every candidate for models of up to `bound` states that the
    block screen does not refute and whose vertex 0 carries the whole
    formula, in deterministic order: size ascending, then the rooted
    canonical graphs of `_graphs` lexicographically, then labelings
    lexicographically (atom sets before F-subformula sets, each a subset
    bitmask counting up).  One labeling is built as the sets are chosen, as
    a list of vertex bitmasks indexed by the integer slot of each
    subformula; the formula dict, in step order, is only built for an
    emitted candidate, which `encode` makes once.
    Vertex 0 is settled first, once per formula: when `_root_clash` finds
    the required subformulas (`_required`) contradictory, nothing is
    compiled or emitted.  Otherwise the compile step builds the step
    table, each step's choice list holds only the sets whose bit 0
    agrees with vertex 0's obligation, and a required `Or` is tested as it
    is completed, so every complete labeling puts the formula at vertex 0.
    An F-subformula's set is further only chosen among those its block
    screen lets through.  Every set a screen skips skips a whole subtree of
    labelings and counts 1 in `_result.refuted` (a private result when
    none is given), as does a clash.  The block screen depends only on the
    graph, the step and the body's set, so each graph builds its
    predecessor masks once, calls `prob01` once per (step, body set) and
    caches the sets m with bit 0 as required and m & care == want (see
    `_screen`).  A model of at most `bound`
    states, cut down to the states its entry reaches and relabeled with the
    entry as vertex 0, is a candidate of the stream, so every verdict is
    the one of the enumeration over all digraphs that emits every nonempty
    whole-formula set."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if _result is None:
        _result = SatSearchResult("unknown")
    required = _required(f)
    if _root_clash(required):
        _result.refuted += 1
        return
    steps = _choice_order(f)
    nodes = [g for node, completed in steps for g in (node, *completed)]
    slot = {g: i for i, g in enumerate(nodes)}
    # per step: vertex 0's bit in the chosen set (1 set, 0 clear, None free)
    root_bits = [
        1 if node in required
        else 0 if isinstance(node, Atom) and NegAtom(node.name) in required
        else None
        for node, _ in steps]
    # per step: the chosen slot, (body slot, verdicts) for an F-subformula,
    # and the completion rules (slot, operator, argument slots, whether it
    # is a required Or), each folded from the full mask (from 0 for Or);
    # only a required Or is tested, since the bits of the other required
    # completions follow from the chosen sets
    ops = {NegAtom: xor, And: and_, Or: or_}
    compiled = [
        (slot[node],
         (slot[node.body], verdicts(node.cmp, node.bound))
         if isinstance(node, Prob) else None,
         [(slot[g], ops[type(g)],
           (slot[Atom(g.name)],) if isinstance(g, NegAtom)
           else [slot[a] for a in g.args],
           isinstance(g, Or) and g in required) for g in completed])
        for node, completed in steps]

    for size in range(1, bound + 1):
        full = (1 << size) - 1
        masks = range(1 << size)
        # per step: the label masks whose bit 0 agrees with vertex 0's
        by_bit = {None: masks, 1: masks[1::2], 0: masks[::2]}
        rooted = [by_bit[bit] for bit in root_bits]
        for succ in _graphs(size):
            pred = predecessor_masks(succ)
            labels = [0] * len(nodes)
            # (step index, body mask) -> the label masks vertex 0 and the
            # block screen let through
            passed: dict[tuple[int, int], list[int]] = {}

            def allowed(index: int) -> list[int]:
                """The label masks step `index` may take: vertex 0's, and
                for an F-subformula those its block screen lets through."""
                choices = rooted[index]
                screen = compiled[index][1]
                if screen is not None:
                    body, verdicts = screen
                    key = (index, labels[body])
                    choices = passed.get(key)
                    if choices is None:
                        care, want = _screen(verdicts, *prob01(pred, key[1]), full)
                        choices = passed[key] = [
                            m for m in rooted[index] if m & care == want]
                _result.refuted += len(masks) - len(choices)
                return choices

            for _ in _labelings(compiled, 0, labels, allowed, full, _result):
                yield encode(succ, dict(zip(nodes, labels)))


def _labelings(compiled, index: int, labels: list[int], allowed, full: int,
               result: SatSearchResult):
    """The labeling search of `enumerate_candidates` from step `index` on:
    fills `labels` in place and yields each time it is complete.  The
    step's chosen slot takes each mask of `allowed(index)` in turn, and
    its completion rules fill their slots; a tested (required) Or that
    misses vertex 0 counts 1 in `result.refuted` and skips the mask."""
    if index == len(compiled):
        yield
        return
    target, _, rules = compiled[index]
    for m in allowed(index):
        labels[target] = m
        for g, op, args, tested in rules:
            value = 0 if op is or_ else full
            for a in args:
                value = op(value, labels[a])
            labels[g] = value
            if tested and not value & 1:
                result.refuted += 1
                break
        else:
            yield from _labelings(compiled, index + 1, labels, allowed, full,
                                  result)


# ---------------------------------------------------------------------------
# Screening and confirming a candidate

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


def interval_refuted(candidate: ETRCandidate) -> bool:
    """Whether the block screen (`_screen`) refutes some block of
    `candidate` from its graph alone.  The enumeration only emits
    candidates the screen lets through, so the search never calls this; it
    is the screen on a whole candidate, which the tests check for soundness
    and the benchmark traces."""
    pred = predecessor_masks(candidate.succ)
    full = (1 << candidate.size) - 1
    labeling = candidate.labeling
    for g, inside in labeling.items():
        if isinstance(g, Prob):
            care, want = _screen(verdicts(g.cmp, g.bound),
                                 *prob01(pred, labeling[g.body]), full)
            if inside & care != want:
                return True
    return False


def uniform_assignment(candidate: ETRCandidate,
                       ) -> dict[tuple[int, int], Fraction]:
    """Every vertex's outgoing edges share its probability mass equally."""
    succ = candidate.succ
    return {(i, j): Fraction(1, succ[i].bit_count())
            for i, j in candidate.edges}


def check_assignment(candidate: ETRCandidate,
                     assignment: dict[tuple[int, int], Fraction],
                     ) -> ModelChecker | None:
    """Exact substitution oracle: builds the chain the edge probabilities
    define, with states v1..v{size} carrying the atoms whose label sets
    contain them, and asks its `ModelChecker` for the satisfaction mask of
    every labeled subformula, bottom-up, stopping at the first that differs
    from its label set.  Returns that checker, whose `chain` is then a
    model of the labeling, when the labeling is the chain's truth and None
    otherwise.  Raises ValueError on the problems `markov.validate` finds
    in that chain; a missing edge has probability 0."""
    names = [f"v{v + 1}" for v in range(candidate.size)]
    atoms: dict[str, list[str]] = {name: [] for name in names}
    for g, mask in candidate.labeling.items():
        if isinstance(g, Atom):
            for v in indices(mask):
                atoms[names[v]].append(g.name)
    chain = MarkovChain(names, {
        (names[i], names[j]): Fraction(assignment.get((i, j), 0))
        for i, j in candidate.edges}, atoms)
    problems = validate(chain)
    if problems:
        raise ValueError("; ".join(problems))
    mc = ModelChecker(chain)
    if all(mc.sat_mask(g) == mask for g, mask in candidate.labeling.items()):
        return mc
    return None


# ---------------------------------------------------------------------------
# SMT-LIB emission and the backend bridge

def _smt_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"(- {-q.numerator})"
    text = f"(/ {abs(q.numerator)} {q.denominator})"
    return text if q >= 0 else f"(- {text})"


def _edge_var(index: int) -> str:
    return f"x{index + 1}"


def smt_text(candidate: ETRCandidate) -> str:
    """The candidate's constraints in SMT-LIB 2 text, logic QF_NRA, with a
    model request for the edge variables: one block of reach variables
    y{b}_{v} per F-subformula, in the labeling's order.  A block's cut-off
    set, where its reach variables are 0, is prob0 of its body set in the
    graph."""
    size, edges, labeling = candidate.size, candidate.edges, candidate.labeling
    pred = predecessor_masks(candidate.succ)
    blocks = [g for g in labeling if isinstance(g, Prob)]
    lines = ["(set-logic QF_NRA)"]
    for i in range(len(edges)):
        lines.append(f"(declare-const {_edge_var(i)} Real)")
    for b in range(len(blocks)):
        for v in range(size):
            lines.append(f"(declare-const y{b + 1}_{v + 1} Real)")
    for i in range(len(edges)):
        lines.append(f"(assert (and (> {_edge_var(i)} 0) (<= {_edge_var(i)} 1)))")
    for v in range(size):
        outgoing = [_edge_var(k) for k, e in enumerate(edges) if e[0] == v]
        lines.append(f"(assert (= (+ {' '.join(outgoing)}) 1))")
    for b, g in enumerate(blocks):
        names = [f"y{b + 1}_{v + 1}" for v in range(size)]
        body, inside = labeling[g.body], labeling[g]
        out = prob01(pred, body)[0]
        for v in indices(body):
            lines.append(f"(assert (= {names[v]} 1))")
        for v in indices(out):
            lines.append(f"(assert (= {names[v]} 0))")
        for v in indices((1 << size) - 1 & ~(body | out)):
            terms = [f"(* {_edge_var(k)} {names[j]})"
                     for k, (i, j) in enumerate(edges) if i == v]
            summed = terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"
            lines.append(f"(assert (= {names[v]} {summed}))")
        cmp, r = g.cmp, _smt_rational(g.bound)
        for v in range(size):
            op = cmp if inside >> v & 1 else cmp.negated()
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
    quoting or an empty command.  `read_solver_output` reads the output.
    Its methods import `shlex`, `subprocess` and `tempfile`, so a search
    without a solver loads none of them."""

    command: str
    timeout: float = 10.0

    def __post_init__(self):
        import shlex
        self.argv = shlex.split(self.command)
        if not self.argv:
            raise ValueError("the solver command is empty")

    def solve(self, text: str) -> tuple[str, dict[str, Fraction]]:
        import subprocess
        import tempfile
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
    # label sets a screen skipped, each with its subtree of labelings:
    # vertex 0's bit, a required Or, the block screen; 1 for a root clash
    refuted: int = 0
    solver_calls: int = 0
    timeouts: int = 0


def solve_bounded_sat(f: StateFormula, bound: int, *,
                      backend: SolverBackend | None = None,
                      dump_dir: str | None = None,
                      emit_only: bool = False) -> SatSearchResult:
    """Searches for a model of the core formula `f` with at most `bound`
    states.

    The candidates come from `enumerate_candidates`, already screened at
    vertex 0 (a root clash refutes the search before any graph, counting
    1) and with prob0/prob1 of each block's graph, so `refuted` counts the
    labeling subtrees the screens skipped.  Each survivor takes one path:
    its SMT text is written to `dump_dir`, if given; with `emit_only`
    nothing is decided; otherwise it is tried with the uniform assignment,
    and a miss goes to the backend, if any, with the same text.  An unsat
    answer moves on, a timeout is counted, and a sat answer is confirmed
    by `check_assignment` too.  A survivor left without a confirming
    checker makes the result unknown unless a later one is a model, whose
    chain is re-verified against the original formula at its entry,
    vertex 0, before being returned.  The result is unsat-up-to-n only
    when every candidate was refuted.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    normal = f_normal_form(f)
    result = SatSearchResult(status="unsat-up-to-n")
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)

    for candidate in enumerate_candidates(normal, bound, _result=result):
        result.candidates += 1
        text = None
        if dump_dir is not None:
            text = smt_text(candidate)
            path = os.path.join(dump_dir, f"candidate-{result.candidates:06d}.smt2")
            with open(path, "w") as handle:
                handle.write(text)
        mc = None
        if not emit_only:
            mc = check_assignment(candidate, uniform_assignment(candidate))
        if mc is None and not emit_only and backend is not None:
            result.solver_calls += 1
            verdict, values = backend.solve(text or smt_text(candidate))
            if verdict == "unsat":
                continue
            if verdict == "timeout":
                result.timeouts += 1
            elif verdict == "sat":
                try:
                    assignment = {e: values[_edge_var(i)]
                                  for i, e in enumerate(candidate.edges)}
                except KeyError as exc:
                    raise BackendError(f"solver model is missing {exc}") from exc
                try:
                    mc = check_assignment(candidate, assignment)
                except ValueError:
                    pass  # the rationalized values are not even a chain
        if mc is None:
            result.status = "unknown"
            continue
        entry = mc.chain.states[0]
        if not mc.holds(entry, f):
            raise RuntimeError(
                "internal error: reconstructed model fails re-verification")
        result.status = "sat"
        result.model = mc.chain
        result.entry = entry
        return result
    return result
