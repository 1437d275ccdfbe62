"""Command-line front end.

Exit codes: 0 success (or sat / property holds), 1 property fails or
unsat-up-to-n, 2 usage or input error (an unwritable output path too),
3 backend failure or unknown.
Rationals are read and printed exactly, as p/q, however many digits they
have; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .closure import achieved_bounds, closure, closure_update, UnsatisfiedSetError
from .etr import BackendError, SolverBackend, solve_bounded_sat
from .formula import (
    NormalizationError, PctlSyntaxError, StateFormula, formula_sets,
    fragment_classify, parse_formula, sorted_formulas,
)
from .markov import InvalidChainError, MarkovChain, validate
from .measure import (
    bound_base, path_norm, pending_globals, progress_measure,
    reachable_eventualities,
)
from .modelcheck import ModelChecker
from .progress import (
    CompressionError, FragmentError, ProgressLoop, ProgressLoopError,
    SearchSpaceExceeded, compress_model, exit_obligations, search_loop_generic,
    search_loop_l2, verify_loop,
)

SOLVER_ENV = "PCTLFG_SOLVER"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BACKEND = 3


class UsageError(Exception):
    pass


def _load_model(path: str) -> MarkovChain:
    try:
        with open(path) as handle:
            chain = MarkovChain.from_json(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read model {path!r}: {exc}") from exc
    except InvalidChainError as exc:
        raise UsageError(f"invalid model {path!r}: {exc}") from exc
    problems = validate(chain)
    if problems:
        raise UsageError(f"invalid model {path!r}: " + "; ".join(problems))
    return chain


def _parse_formula_arg(text: str) -> StateFormula:
    try:
        return parse_formula(text)
    except (PctlSyntaxError, NormalizationError, ValueError) as exc:
        raise UsageError(f"bad formula: {exc}") from exc


def _require_state(chain: MarkovChain, state: str) -> str:
    if state not in chain:
        raise UsageError(f"state {state!r} not in the model")
    return state


def _formula_list(formulas) -> list[str]:
    return [str(f) for f in sorted_formulas(formulas)]


def _load_loop(path: str) -> ProgressLoop:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read loop {path!r}: {exc}") from exc
    sets = data.get("sets") if isinstance(data, dict) else data
    if not (isinstance(sets, list) and all(
            isinstance(level, list) and all(isinstance(text, str) for text in level)
            for level in sets)):
        raise UsageError(f"loop {path!r} must hold a list of formula lists")
    return tuple(frozenset(_parse_formula_arg(text) for text in level)
                 for level in sets)


def _emit(args, human: str, data: dict) -> None:
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(human)


# -- subcommands -------------------------------------------------------------

def _cmd_check(args) -> int:
    chain = _load_model(args.model)
    f = _parse_formula_arg(args.formula)
    mc = ModelChecker(chain)
    states = sorted(mc.sat_set(f))
    data = {"formula": str(f), "sat_set": states}
    if args.state is not None:
        state = _require_state(chain, args.state)
        holds = mc.holds(state, f)
        data["state"] = state
        data["satisfied"] = holds
        data["probabilities"] = {
            str(p): str(mc.probability(state, p))
            for p in sorted(formula_sets({f}).psub, key=str)}
        _emit(args, ("true" if holds else "false"), data)
        return EXIT_OK if holds else EXIT_FAIL
    _emit(args, "sat set: {" + ", ".join(states) + "}", data)
    return EXIT_OK


def _cmd_closure(args) -> int:
    chain = _load_model(args.model)
    f = _parse_formula_arg(args.formula)
    state = _require_state(chain, args.state)
    mc = ModelChecker(chain)
    c = closure(mc, state, {f})
    uc = closure_update(mc, state, {f})
    ab = achieved_bounds(mc, state, uc)
    data = {
        "closure": _formula_list(c),
        "closed_update": _formula_list(uc),
        "achieved_bounds": _formula_list(ab),
    }
    human = "\n".join(
        ["closure:"] + ["  " + t for t in data["closure"]]
        + ["closed and updated:"] + ["  " + t for t in data["closed_update"]]
        + ["achieved bounds:"] + ["  " + t for t in data["achieved_bounds"]])
    _emit(args, human, data)
    return EXIT_OK


def _build_set(args, mc: ModelChecker, state: str):
    f = _parse_formula_arg(args.formula)
    if args.set == "uc":
        return closure_update(mc, state, {f})
    if args.set == "closure":
        return closure(mc, state, {f})
    return frozenset({f})


def _cmd_measure(args) -> int:
    chain = _load_model(args.model)
    state = _require_state(chain, args.state)
    mc = ModelChecker(chain)
    X = _build_set(args, mc, state)
    value = progress_measure(mc, state, X)
    norms = {str(p): path_norm(p) for p in sorted(formula_sets(X).p, key=str)}
    data = {
        "set": _formula_list(X),
        "pending_globals": sorted(str(p) for p in pending_globals(mc, state, X)),
        "reachable_eventualities": sorted(
            str(p) for p in reachable_eventualities(mc, state, X)),
        "bound_base": bound_base(X),
        "path_norms": norms,
        "measure": value,
    }
    human = "\n".join([
        "set: {" + ", ".join(data["set"]) + "}",
        "pending G obligations: {" + ", ".join(data["pending_globals"]) + "}",
        "reachable eventualities: {" + ", ".join(data["reachable_eventualities"]) + "}",
        "bound base: " + str(data["bound_base"]),
        "path norms: " + ", ".join(f"{k} -> {v}" for k, v in norms.items()),
        "measure: " + str(value),
    ])
    _emit(args, human, data)
    return EXIT_OK


def _cmd_loop(args) -> int:
    chain = _load_model(args.model)
    state = _require_state(chain, args.state)
    mc = ModelChecker(chain)
    f = _parse_formula_arg(args.formula)
    X = closure_update(mc, state, {f})
    if args.action == "verify":
        if not args.loop:
            raise UsageError("loop verify requires --loop")
        loop = _load_loop(args.loop)
        problems = verify_loop(mc, state, X, loop)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return EXIT_FAIL
        _emit(args, "ok", {"ok": True})
        return EXIT_OK
    if args.method == "l2":
        loop = search_loop_l2(mc, state, X)
    else:
        loop = search_loop_generic(mc, state, X, args.max_n)
    if loop is None:
        print(f"no progress loop up to max_n={args.max_n}", file=sys.stderr)
        return EXIT_FAIL
    data = {
        "sets": [[str(g) for g in sorted_formulas(level)] for level in loop],
        "exit_obligations": _formula_list(exit_obligations(loop)),
    }
    human = "\n".join(
        [f"L{i} = {{{', '.join(level)}}}" for i, level in enumerate(data["sets"])]
        + ["exit obligations: {" + ", ".join(data["exit_obligations"]) + "}"])
    _emit(args, human, data)
    return EXIT_OK


def _cmd_compress(args) -> int:
    chain = _load_model(args.model)
    state = _require_state(chain, args.state)
    f = _parse_formula_arg(args.formula)
    model, entry, trace = compress_model(chain, state, f,
                                         fragment=args.fragment, max_n=args.max_n)
    text = model.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.trace:
        with open(args.trace, "w") as handle:
            json.dump(trace.to_dict(), handle, indent=2)
            handle.write("\n")
    data = {"entry": entry, "states": len(model.states), "model": model.to_dict()}
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(f"entry: {entry}")
        print(f"states: {len(model.states)}")
        if not args.out:
            print(text)
    return EXIT_OK


def _cmd_sat(args) -> int:
    f = _parse_formula_arg(args.formula)
    backend = None
    command = args.solver_cmd or os.environ.get(SOLVER_ENV)
    if command and not args.emit_only:
        try:
            backend = SolverBackend(command, timeout=args.solver_timeout)
        except ValueError as exc:
            raise UsageError(f"bad solver command: {exc}") from exc
    if args.emit_only and not args.dump_smt:
        raise UsageError("--emit-only requires --dump-smt")
    result = solve_bounded_sat(f, args.bound, backend=backend,
                               dump_dir=args.dump_smt, emit_only=args.emit_only)
    stats = {
        "status": result.status,
        "candidates": result.candidates,
        "refuted": result.refuted,
        "solver_calls": result.solver_calls,
        "timeouts": result.timeouts,
    }
    if args.emit_only:
        _emit(args, f"emitted {result.candidates} candidate systems to {args.dump_smt}",
              stats)
        return EXIT_OK
    if result.status == "sat":
        data = dict(stats)
        data["entry"] = result.entry
        data["model"] = result.model.to_dict()
        if args.json:
            print(json.dumps(data, indent=2))
        else:
            print("sat")
            print(f"entry: {result.entry}")
            print(result.model.to_json())
        return EXIT_OK
    _emit(args, result.status, stats)
    return EXIT_FAIL if result.status == "unsat-up-to-n" else EXIT_BACKEND


def _cmd_fragment(args) -> int:
    f = _parse_formula_arg(args.formula)
    flags = fragment_classify(f)
    data = {"formula": str(f), "L1": flags.in_l1, "L2": flags.in_l2,
            "L3": flags.in_l3, "L4": flags.in_l4}
    human = "\n".join(f"{name}: {str(data[name]).lower()}"
                      for name in ("L1", "L2", "L3", "L4"))
    _emit(args, human, data)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    chain = _load_model(args.model)
    text = chain.to_dot()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pctlfg",
        description="Exact model checking, progress-loop compression, and "
                    "bounded satisfiability for quantitative F/G formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, state=False, formula=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        if state:
            p.add_argument("--state", required=True, help="state id")
        if formula:
            p.add_argument("--formula", required=True, help="formula text")
        p.add_argument("--json", action="store_true", help="machine output")

    p = sub.add_parser("check", help="satisfaction sets and exact probabilities")
    common(p)
    p.add_argument("--state", help="also decide satisfaction at this state")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", help="closure / closed-update / achieved bounds")
    common(p, state=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("measure", help="progress measure and its parts")
    common(p, state=True)
    p.add_argument("--set", choices=("uc", "closure", "single"), default="uc",
                   help="how to derive the formula set (default: uc)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("loop", help="progress loop workflows")
    p.add_argument("action", choices=("verify", "search"))
    common(p, state=True)
    p.add_argument("--loop", help="loop JSON file (for verify)")
    p.add_argument("--method", choices=("l2", "generic"), default="l2")
    p.add_argument("--max-n", type=_int_at_least(0), default=3)
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("compress", help="bounded model construction")
    common(p, state=True)
    p.add_argument("--fragment", choices=("l2", "generic"), default="l2")
    p.add_argument("--max-n", type=_int_at_least(0), default=3)
    p.add_argument("--out", help="write the model JSON here")
    p.add_argument("--trace", help="write the recursion trace JSON here")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("sat", help="bounded satisfiability")
    common(p, model=False)
    p.add_argument("--bound", type=_int_at_least(1), required=True,
                   help="maximum model size")
    p.add_argument("--solver-cmd",
                   help="backend command template with a {file} placeholder "
                        f"(default: ${SOLVER_ENV})")
    p.add_argument("--solver-timeout", type=_positive_seconds, default=10.0,
                   help="per-candidate wall clock budget in seconds")
    p.add_argument("--dump-smt", help="directory for emitted constraint files")
    p.add_argument("--emit-only", action="store_true",
                   help="only dump the constraint files, do not solve")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("fragment", help="grammar family classification")
    common(p, model=False)
    p.set_defaults(func=_cmd_fragment)

    p = sub.add_parser("export-dot", help="DOT rendering of a model")
    common(p, formula=False)
    p.add_argument("--out", help="write the DOT text here")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    # Python 3.11+ (and 3.10.7+) cap int <-> str conversions at 4300 digits
    # by default, which exact rationals pass; lift the cap for this call.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: an output path is unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsatisfiedSetError, ProgressLoopError, FragmentError,
            CompressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except SearchSpaceExceeded as exc:
        print(f"search space exceeded: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
