"""Seeded instance generators and the timed operations of the three workloads.

An instance is a dict of plain text (model JSON, formula string, state id)
plus the knobs of its operation; the program under test sees only that text.
Generation draws from `random.Random(f"{workload}:{seed}")`, which does not
depend on the interpreter's hash seed, so a seed names the same inputs in
every process.  Planting formulas and choosing satisfying states use the
library's `ModelChecker`; that cost belongs to set-up, not to the timed run.
The generators yield one instance at a time, so that set-up can be timed
instance by instance.

Each `run_<workload>` takes one instance from text to verdict through the
public API, calling every library function through its module attribute at
call time so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from fractions import Fraction

import pctlfg

WORKLOADS = ("check", "compress", "sat")

ATOMS = ("a", "b", "c")

# Comparison/bound pairs that never normalize to a trivial constraint
# ('>=0', '>1', '<=1', '<0' are rejected by the parser's normalization).
_SURFACE_CONSTRAINTS = (
    (">=", ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4")),
    (">", ("0", "1/5", "1/2", "3/4")),
    ("<=", ("0", "1/4", "1/2", "3/4")),
    ("<", ("1/4", "1/2", "3/4", "1")),
    ("=", ("1",)),
)
# Core-form constraints only ('>=', '>'), so that the L2 grammar is decided
# by the text as written.  '=1' is listed separately because L2 forbids it
# under an almost-sure G.
_CORE_BELOW_ONE = ((">=", ("1/5", "1/4", "1/2", "3/4")), (">", ("0", "1/5", "1/2")))


def _weights(rng: random.Random, count: int) -> list[str]:
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return [str(Fraction(w, total)) for w in raw]


def _model_text(states: list[str], succ: dict[str, list[str]],
                rng: random.Random, atoms=ATOMS, atom_rate: float = 0.4,
                labels: dict[str, list[str]] | None = None) -> str:
    """JSON model text; every state gets integer-ratio weights on its
    successors, so all transition probabilities are small exact fractions.
    Without `labels`, each atom holds on each state with `atom_rate`."""
    if labels is None:
        labels = {s: [a for a in atoms if rng.random() < atom_rate]
                  for s in states}
    records = [{"id": s, "ap": labels[s]} for s in states]
    edges = []
    for s in states:
        if len(succ[s]) == 1:
            probabilities = ["1"]
        else:
            probabilities = _weights(rng, len(succ[s]))
        edges.extend({"from": s, "to": t, "p": p}
                     for t, p in zip(succ[s], probabilities))
    return json.dumps({"states": records, "edges": edges})


def _random_chain(rng: random.Random, n: int, max_degree: int = 3,
                  atoms=ATOMS) -> str:
    states = [f"s{i}" for i in range(n)]
    succ = {s: rng.sample(states, rng.randint(1, min(max_degree, n)))
            for s in states}
    return _model_text(states, succ, rng, atoms)


def _spread(k: int, count: int, lo: int, hi: int) -> int:
    """The k-th of `count` sizes spread evenly over lo..hi.  Every seed gets
    the same size mix, so seeds differ in structure, not in total work."""
    return lo + k * (hi - lo + 1) // count


def _shuffled(rng: random.Random, items) -> list:
    """`items` in a seeded random order.  Costly and cheap instances then
    alternate through a pass, so a slow spell of the machine does not fall
    on one class of them alone."""
    out = list(items)
    rng.shuffle(out)
    return out


def _prob_count(text: str) -> int:
    # atoms are lower-case, so upper-case F/G only ever name path operators
    return text.count("F") + text.count("G")


# ---------------------------------------------------------------------------
# Formula text

def _literal(rng: random.Random, atoms) -> str:
    name = rng.choice(atoms)
    return name if rng.random() < 0.6 else "!" + name


def surface_formula(rng: random.Random, depth: int, atoms=ATOMS) -> str:
    """Random formula in the full surface syntax: negation anywhere and all
    comparisons on F and G."""
    if depth <= 0 or rng.random() < 0.2:
        return _literal(rng, atoms)
    kind = rng.choice(("and", "or", "not", "prob", "prob", "prob"))
    if kind in ("and", "or"):
        sep = " & " if kind == "and" else " | "
        return ("(" + surface_formula(rng, depth - 1, atoms) + sep
                + surface_formula(rng, depth - 1, atoms) + ")")
    if kind == "not":
        return "!(" + surface_formula(rng, depth - 1, atoms) + ")"
    cmp, bounds = rng.choice(_SURFACE_CONSTRAINTS)
    return (rng.choice("FG") + cmp + rng.choice(bounds)
            + "[" + surface_formula(rng, depth - 1, atoms) + "]")


def flat_formula(rng: random.Random, operators: int, atoms=ATOMS) -> str:
    """A boolean combination of `operators` F/G operators, each over a
    literal of its own atom, some negated.  Every operator's body is a
    literal and no two share a target set, so each one costs one solve over
    about half of the states, which keeps the work of a seed close to that
    of any other seed."""
    parts = []
    for atom in rng.sample(atoms, operators):
        cmp, bounds = rng.choice(_SURFACE_CONSTRAINTS)
        literal = atom if rng.random() < 0.6 else "!" + atom
        part = f"{rng.choice('FG')}{cmp}{rng.choice(bounds)}[{literal}]"
        parts.append(f"!({part})" if rng.random() < 0.2 else part)
    text = parts[0]
    for part in parts[1:]:
        text = f"({text} {rng.choice('&|')} {part})"
    return text


def _boolean(rng: random.Random, atoms) -> str:
    if rng.random() < 0.6:
        return _literal(rng, atoms)
    sep = rng.choice((" & ", " | "))
    return "(" + _literal(rng, atoms) + sep + _literal(rng, atoms) + ")"


def _l2_inner(rng: random.Random, depth: int, atoms) -> str:
    """psi2 of the L2 grammar: F with a constraint other than '=1'."""
    if depth <= 0 or rng.random() < 0.3:
        return _boolean(rng, atoms)
    cmp, bounds = rng.choice(_CORE_BELOW_ONE)
    body = _l2_inner(rng, depth - 1, atoms)
    if rng.random() < 0.3:
        body = "(" + _literal(rng, atoms) + " & " + body + ")"
    return f"F{cmp}{rng.choice(bounds)}[{body}]"


def l2_formula(rng: random.Random, depth: int, atoms=ATOMS) -> str:
    """phi2 of the L2 grammar in core form: F with any constraint over phi2,
    G=1 over psi2, and conjunctions/disjunctions of those."""
    if depth <= 0 or rng.random() < 0.15:
        return _boolean(rng, atoms)
    kind = rng.choice(("F", "F", "G", "and", "or"))
    if kind in ("and", "or"):
        sep = " & " if kind == "and" else " | "
        return ("(" + l2_formula(rng, depth - 1, atoms) + sep
                + l2_formula(rng, depth - 1, atoms) + ")")
    if kind == "G":
        return "G=1[" + _l2_inner(rng, depth - 1, atoms) + "]"
    if rng.random() < 0.25:
        constraint = "=1"
    else:
        cmp, bounds = rng.choice(_CORE_BELOW_ONE)
        constraint = cmp + rng.choice(bounds)
    return f"F{constraint}[{l2_formula(rng, depth - 1, atoms)}]"


def _with_operators(rng: random.Random, operators: int, atoms) -> str:
    """A depth-2 surface formula with exactly `operators` path operators
    that mentions every atom, so that its cost class is fixed by the text."""
    while True:
        formula = surface_formula(rng, 2, atoms)
        if (_prob_count(formula) == operators
                and all(a in formula for a in atoms)):
            return formula


def _satisfying_state(rng: random.Random, model: str, formula: str) -> str | None:
    chain = pctlfg.MarkovChain.from_json(model)
    sat = sorted(pctlfg.ModelChecker(chain).sat_set(pctlfg.parse_formula(formula)))
    return rng.choice(sat) if sat else None


# ---------------------------------------------------------------------------
# check: one `holds` query per instance

CHECK_INSTANCES = 400


def _check_chain(rng: random.Random, n: int, ergodic: bool) -> str:
    """Out-degree-3 chain.  Ergodic: every state lies on one random
    Hamiltonian cycle, so the chain is irreducible and every reach answer is
    0 or 1.  Absorbing: a tenth of the states (at least two) only loop on
    themselves, so reach answers are rationals with large denominators.
    Each atom holds on exactly half of the states, so a literal and its
    negation leave solves of the same size, whatever the seed."""
    states = [f"s{i}" for i in range(n)]
    if ergodic:
        order = states[:]
        rng.shuffle(order)
        nxt = {order[i]: order[(i + 1) % n] for i in range(n)}
        succ = {s: [nxt[s]] + rng.sample([t for t in states if t != nxt[s]], 2)
                for s in states}
    else:
        absorbing = set(rng.sample(states, max(2, n // 10)))
        succ = {s: [s] if s in absorbing else rng.sample(states, 3)
                for s in states}
    halves = {a: set(rng.sample(states, n // 2)) for a in ATOMS}
    labels = {s: [a for a in ATOMS if s in halves[a]] for s in states}
    return _model_text(states, succ, rng, labels=labels)


def generate_check(seed: int) -> Iterator[dict]:
    rng = random.Random(f"check:{seed}")
    for k in _shuffled(rng, range(CHECK_INSTANCES)):
        ergodic = k % 2 == 0
        n = _spread(k // 2, CHECK_INSTANCES // 2, 16, 100 if ergodic else 60)
        formula = flat_formula(rng, 2 + k // 2 % 2)
        yield {
            "family": "ergodic" if ergodic else "absorbing",
            "model": _check_chain(rng, n, ergodic),
            "state": f"s{rng.randrange(n)}",
            "formula": formula,
        }


def run_check(inst: dict):
    chain = pctlfg.MarkovChain.from_json(inst["model"])
    f = pctlfg.parse_formula(inst["formula"])
    mc = pctlfg.ModelChecker(chain)
    return mc.holds(inst["state"], f), (chain, f, mc)


# ---------------------------------------------------------------------------
# compress: compress_model on satisfied instances

COMPRESS_L2_INSTANCES = 440
COMPRESS_GENERIC_INSTANCES = 80


def _planted(rng: random.Random, make_model, make_formula) -> tuple[str, str, str]:
    while True:
        model = make_model()
        formula = make_formula()
        state = _satisfying_state(rng, model, formula)
        if state is not None:
            return model, formula, state


def _layered_chain(rng: random.Random, n: int, atoms=ATOMS) -> str:
    """Chain with two or three bottom cycles of one to three states and
    transient states of out-degree up to 3 over all states."""
    states = [f"s{i}" for i in range(n)]
    succ = {}
    rest = states[:]
    for _ in range(rng.randint(2, 3)):
        size = min(rng.randint(1, 3), len(rest) - 1)
        if size < 1:
            break
        cycle, rest = rest[-size:], rest[:-size]
        for i, s in enumerate(cycle):
            succ[s] = [cycle[(i + 1) % size]]
    for s in rest:
        succ[s] = rng.sample(states, min(3, n))
    return _model_text(states, succ, rng, atoms)


def _compress_instance(rng: random.Random, fragment: str, make_model,
                       make_formula, operators: int) -> dict:
    """A formula with exactly `operators` path operators and a satisfying
    state outside every bottom SCC, so that compression builds a progress
    loop rather than only collapsing a bottom component.  Fixing the
    operator count keeps the work of a seed close to that of any other."""
    while True:
        formula = make_formula()
        if _prob_count(formula) != operators:
            continue
        model = make_model()
        chain = pctlfg.MarkovChain.from_json(model)
        bottoms = pctlfg.scc_decompose(chain).bottom_states()
        sat = pctlfg.ModelChecker(chain).sat_set(pctlfg.parse_formula(formula))
        transient = sorted(sat - bottoms)
        if transient:
            return {"fragment": fragment, "max_n": 3, "model": model,
                    "state": rng.choice(transient), "formula": formula}


def generate_compress(seed: int) -> Iterator[dict]:
    rng = random.Random(f"compress:{seed}")
    jobs = ([("l2", k) for k in range(COMPRESS_L2_INSTANCES)]
            + [("generic", k) for k in range(COMPRESS_GENERIC_INSTANCES)])
    for fragment, k in _shuffled(rng, jobs):
        if fragment == "l2":
            yield _compress_instance(
                rng, "l2",
                lambda: _layered_chain(rng, _spread(k, COMPRESS_L2_INSTANCES, 4, 24)),
                lambda: l2_formula(rng, 3), 2 + k % 2)
            continue
        # depth 3, not 4: depth-4 formulas drew a 21 s outlier
        yield _compress_instance(
            rng, "generic",
            lambda: _layered_chain(rng, _spread(k, COMPRESS_GENERIC_INSTANCES, 3, 8),
                                   ATOMS[:2]),
            lambda: surface_formula(rng, 3, ATOMS[:2]), 2 + k % 2)


def run_compress(inst: dict):
    chain = pctlfg.MarkovChain.from_json(inst["model"])
    f = pctlfg.parse_formula(inst["formula"])
    model, entry, trace = pctlfg.compress_model(
        chain, inst["state"], f, fragment=inst["fragment"], max_n=inst["max_n"])
    return (model, entry, trace), f


# ---------------------------------------------------------------------------
# sat: bounded satisfiability without a solver, on jobs with known answers

SAT_PLANTED_INSTANCES = 24
SAT_UNSAT_INSTANCES = 76
SAT_BOUND = 2
README_UNSAT = "F=1[a] & G=1[!a]"
README_BOUND = 3


def generate_sat(seed: int) -> Iterator[dict]:
    rng = random.Random(f"sat:{seed}")
    atoms = ATOMS[:2]
    expect = ["sat"] * SAT_PLANTED_INSTANCES + ["unsat"] * SAT_UNSAT_INSTANCES
    for answer in _shuffled(rng, expect):
        if answer == "sat":
            # all with two path operators: they are the costliest jobs and
            # more than a tenth of them, so the p90 lies inside one cost class
            _, formula, _ = _planted(
                rng, lambda: _random_chain(rng, rng.randint(1, SAT_BOUND), atoms=atoms),
                lambda: _with_operators(rng, 2, atoms))
            yield {"formula": formula, "bound": SAT_BOUND, "expect": "sat"}
            continue
        # F>0[psi] needs a reachable psi-state; G=1[!psi] forbids every one
        psi = f"({_literal(rng, atoms[:1])} {rng.choice('&|')} {_literal(rng, atoms[1:])})"
        yield {"formula": f"F>0[{psi}] & G=1[!({psi})]",
               "bound": SAT_BOUND, "expect": "unsat"}
    yield {"formula": README_UNSAT, "bound": README_BOUND, "expect": "unsat"}


def run_sat(inst: dict):
    f = pctlfg.parse_formula(inst["formula"])
    return pctlfg.solve_bounded_sat(f, inst["bound"]), f


GENERATORS = {"check": generate_check, "compress": generate_compress,
              "sat": generate_sat}


def generate(workload: str, seed: int) -> list[dict]:
    """Every instance of a workload for a seed."""
    return list(GENERATORS[workload](seed))
RUNNERS = {"check": run_check, "compress": run_compress, "sat": run_sat}
