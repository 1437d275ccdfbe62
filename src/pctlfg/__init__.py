"""Exact toolkit for quantitative F/G probabilistic branching-time logic:
model checking, closure/update operators, progress-loop machinery, bounded
model compression, and bounded satisfiability via real-arithmetic encoding.
"""

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
from .closure import (
    UnsatisfiedSetError, achieved_bounds, closure, closure_update, update,
)
from .measure import (
    bound_base, model_size_bound, path_norm, pending_globals, progress_measure,
    reachable_eventualities,
)
from .progress import (
    CompressionError, FragmentError, ProgressLoop, ProgressLoopError,
    SearchSpaceExceeded, bscc_reduce, build_loop_model, caratheodory_reduce,
    compress_model, exit_obligations, search_loop_generic, search_loop_l2,
    successor_selection, verify_loop, verify_selection,
)
from .etr import (
    BackendError, ETRCandidate, SatSearchResult, SolverBackend,
    check_assignment, encode, enumerate_candidates, f_normal_form, smt_text,
    solve_bounded_sat,
)

__version__ = "0.1.0"
