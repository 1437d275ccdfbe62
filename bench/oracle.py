"""Exact answer checks that do not come from the functions being timed.

A reach-probability vector is the unique solution of its defining
equations: 1 on the targets, 0 on the states with no path to a target, and
x = P x on the rest.  `evaluate` reads each vector the library computed,
verifies it against those equations with this file's own graph search and
exact `Fraction` arithmetic, and derives every satisfaction set by boolean
evaluation on the verified vectors.  A G vector is checked as 1 minus the
reach vector of the body's complement.

Every check returns a list of problems; an empty list means the answer is
right.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pctlfg
from pctlfg.formula import And, Atom, NegAtom, Or, PathOp, Prob
from pctlfg.markov import validate
from pctlfg.progress import simple_loop_components

_COMPARE = {">=": operator.ge, ">": operator.gt,
            "<=": operator.le, "<": operator.lt}


def _with_path_to(chain, targets) -> set:
    """States with a path into `targets`, by backward search over edges."""
    preds = {s: [] for s in chain.states}
    for s in chain.states:
        for t in chain.successors(s):
            preds[t].append(s)
    seen = set(targets)
    stack = list(targets)
    while stack:
        for p in preds[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def reach_problems(chain, targets, x) -> list[str]:
    """Checks that `x` solves the reach equations for `targets` exactly."""
    problems = []
    connected = _with_path_to(chain, targets)
    for s in chain.states:
        if s in targets:
            want = Fraction(1)
        elif s not in connected:
            want = Fraction(0)
        else:
            want = sum((p * x[t] for t, p in chain.successors(s).items()),
                       Fraction(0))
        if x[s] != want:
            problems.append(f"reach value at {s!r} is {x[s]}, equations give {want}")
    return problems


def evaluate(chain, f, vector_of) -> tuple[frozenset, list[str]]:
    """The satisfaction set of `f`, derived from the library's path vectors
    (`vector_of(path)`) after each vector passed its equations."""
    states = frozenset(chain.states)
    memo = {}
    problems: list[str] = []

    def ev(g) -> frozenset:
        if g in memo:
            return memo[g]
        if isinstance(g, Atom):
            out = frozenset(s for s in states if g.name in chain.atoms(s))
        elif isinstance(g, NegAtom):
            out = frozenset(s for s in states if g.name not in chain.atoms(s))
        elif isinstance(g, And):
            out = states
            for a in g.args:
                out &= ev(a)
        elif isinstance(g, Or):
            out = frozenset()
            for a in g.args:
                out |= ev(a)
        elif isinstance(g, Prob):
            body = ev(g.body)
            vec = vector_of(g.path_formula)
            if g.op is PathOp.F:
                problems.extend(reach_problems(chain, body, vec))
            else:
                escape = {s: 1 - vec[s] for s in states}
                problems.extend(reach_problems(chain, states - body, escape))
            holds = _COMPARE[str(g.cmp)]
            out = frozenset(s for s in states if holds(vec[s], g.bound))
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = out
        return out

    return ev(f), problems


def check_problems(inst: dict, verdict: bool, artifacts) -> list[str]:
    chain, f, mc = artifacts
    sat, problems = evaluate(chain, f, mc.path_probabilities)
    if mc.sat_set(f) != sat:
        problems.append("satisfaction set differs from boolean re-evaluation")
    if verdict != (inst["state"] in sat):
        problems.append(f"verdict {verdict} at {inst['state']!r} is wrong")
    return problems


def model_problems(model, entry, f, bound: int) -> list[str]:
    """A returned model is a valid chain within `bound` states whose entry
    satisfies `f`."""
    problems = list(validate(model))
    if len(model.states) > bound:
        problems.append(f"{len(model.states)} states exceed the bound {bound}")
    sat, more = evaluate(model, f, pctlfg.ModelChecker(model).path_probabilities)
    problems.extend(more)
    if entry not in sat:
        problems.append(f"formula fails at the entry {entry!r}")
    return problems


def compress_problems(inst: dict, output, f) -> list[str]:
    model, entry, trace = output
    problems = model_problems(model, entry, f, trace.bound)
    problems.extend(simple_loop_components(model))
    if trace.size != len(model.states):
        problems.append(f"trace size {trace.size} != {len(model.states)} states")
    return problems


def sat_problems(inst: dict, result, f) -> list[str]:
    if inst["expect"] == "sat" and result.status == "unsat-up-to-n":
        return ["unsat-up-to-n on a planted satisfiable job"]
    if inst["expect"] == "unsat" and result.status == "sat":
        return ["sat on an unsatisfiable-by-construction job"]
    if result.status == "sat":
        return model_problems(result.model, result.entry, f, inst["bound"])
    return []


PROBLEMS = {"check": check_problems, "compress": compress_problems,
            "sat": sat_problems}
