"""Exact toolkit for quantitative F/G probabilistic branching-time logic:
model checking, closure/update operators, progress-loop machinery, bounded
model compression, and bounded satisfiability via real-arithmetic encoding.

Importing the package loads the checker core only: `formula`, `markov`,
`linalg` and `modelcheck`.  The other layers, `closure`, `measure`,
`progress` and `etr`, load on first use: the first access to one of their
names (`pctlfg.compress_model`, say, or `pctlfg.etr`) imports the layer.
However a layer is loaded, by that access or by an import of the layer
itself, its names are bound in the package as it loads, so each is the
layer's own object.  `from pctlfg import *` loads every layer.
"""

import importlib
import sys

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

# the names of each lazily loaded layer; the layer's own name is its module,
# except `closure`, which is the function `closure.closure`, as it always was
_LAYERS = {
    "closure": (
        "UnsatisfiedSetError", "achieved_bounds", "closure", "closure_update",
        "update",
    ),
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
    "formula", "linalg", "markov", "modelcheck",
    *_LAYER_OF,
]


def _bind(layer: str, module) -> None:
    """Binds a loaded layer's module and its names in this package."""
    names = globals()
    names[layer] = module
    names.update((name, getattr(module, name)) for name in _LAYERS[layer])


class _Package(type(sys)):
    """This package's module type.  The import system binds a submodule on
    its package, under its own name, once the submodule has run; for a
    layer, its names are bound with it, so `pctlfg.closure` stays the
    function however the layer was loaded."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _LAYERS and value is sys.modules.get(f"{__name__}.{name}"):
            _bind(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(layer, importlib.import_module(f"{__name__}.{layer}"))
    return globals()[name]


def __dir__():
    return sorted(set(globals()).union(__all__))
