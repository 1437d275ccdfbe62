"""Exact toolkit for quantitative F/G probabilistic branching-time logic:
model checking, closure/update operators, progress-loop machinery, bounded
model compression, and bounded satisfiability via real-arithmetic encoding.

Importing the package loads the core: `formula`, `markov`, `linalg`,
`modelcheck` and `closure`.  The other layers, `measure`, `progress` and
`etr`, load on first use: the module `__getattr__` imports a layer on the
first access to one of its names (`pctlfg.compress_model`, say) or to the
layer itself (`pctlfg.etr`), and returns the layer's own object.
`pctlfg.closure` is the closure operator, the function `closure.closure`.
`from pctlfg import *` loads every layer.
"""

import importlib

from .closure import (
    UnsatisfiedSetError, achieved_bounds, closure, closure_update, update,
)
from .formula import (
    And, Atom, Cmp, FragmentMembership, NegAtom, Or, PathFormula, PathOp, Prob,
    StateFormula, conj, disj, fragment_classify, normalize, parse_formula,
    sorted_formulas, subformulas_of,
)
from .markov import (
    FirstPassageError, InvalidChainError, MarkovChain, SccDecomposition,
    first_passage, scc_decompose, validate,
)
from .modelcheck import ModelChecker

__version__ = "0.1.0"

# the names of each lazily loaded layer, whose own name is its module
_LAYERS = {
    "measure": (
        "bound_base", "model_size_bound", "path_norm", "pending_globals",
        "progress_measure", "reachable_eventualities",
    ),
    "progress": (
        "CompressionError", "FragmentError", "ProgressLoop", "ProgressLoopError",
        "SearchSpaceExceeded", "bscc_reduce", "build_loop_model",
        "caratheodory_reduce", "compress_model", "exit_obligations",
        "search_loop_generic", "search_loop_l2", "successor_selection",
        "verify_loop", "verify_selection",
    ),
    "etr": (
        "BackendError", "ETRCandidate", "SatSearchResult", "SolverBackend",
        "check_assignment", "encode", "enumerate_candidates", "f_normal_form",
        "smt_text", "solve_bounded_sat",
    ),
}
# name -> the layer that defines it
_LAYER_OF = {name: layer for layer, names in _LAYERS.items()
             for name in (layer, *names)}

__all__ = [
    "And", "Atom", "Cmp", "FragmentMembership", "NegAtom", "Or", "PathFormula",
    "PathOp", "Prob", "StateFormula", "conj", "disj", "fragment_classify",
    "normalize", "parse_formula", "sorted_formulas", "subformulas_of",
    "FirstPassageError", "InvalidChainError", "MarkovChain", "SccDecomposition",
    "first_passage", "scc_decompose", "validate",
    "ModelChecker",
    "UnsatisfiedSetError", "achieved_bounds", "closure", "closure_update",
    "update",
    "formula", "linalg", "markov", "modelcheck",
    *_LAYER_OF,
]


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
