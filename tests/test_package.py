"""The package's cold start and public surface.  `import pctlfg` loads the
core only (`formula`, `markov`, `linalg`, `modelcheck` and `closure`), and
each CLI subcommand only the layers it uses, each seen in a fresh
interpreter; the package is a plain module, and every public name resolves
to its layer's own object, however the layer was loaded; and the node and
record types keep their reprs, equality and immutability."""

import importlib
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import PSI_TEXT, fig1_chain

import pctlfg
from pctlfg.formula import (
    And, Atom, Cmp, FragmentMembership, NegAtom, PathFormula, PathOp, Prob,
    parse_formula,
)
from pctlfg.markov import MarkovChain, SccDecomposition, scc_decompose

SRC = str(Path(pctlfg.__file__).resolve().parent.parent)

CORE = ["pctlfg", "pctlfg.closure", "pctlfg.formula", "pctlfg.linalg",
        "pctlfg.markov", "pctlfg.modelcheck"]

# what `from pctlfg import *` bound before the layers loaded lazily: the
# public names and the seven submodules (`closure` is the function)
EXPORTED = [
    "And", "Atom", "BackendError", "Cmp", "CompressionError", "ETRCandidate",
    "FirstPassageError", "FragmentError", "FragmentMembership",
    "InvalidChainError", "MarkovChain", "ModelChecker", "NegAtom", "Or",
    "PathFormula", "PathOp", "Prob", "ProgressLoop", "ProgressLoopError",
    "SatSearchResult", "SccDecomposition", "SearchSpaceExceeded",
    "SolverBackend", "StateFormula", "UnsatisfiedSetError", "achieved_bounds",
    "bound_base", "bscc_reduce", "build_loop_model", "caratheodory_reduce",
    "check_assignment", "closure", "closure_update", "compress_model", "conj",
    "disj", "encode", "enumerate_candidates", "etr", "exit_obligations",
    "f_normal_form", "first_passage", "formula", "fragment_classify", "linalg",
    "markov", "measure", "model_size_bound", "modelcheck", "normalize",
    "parse_formula", "path_norm", "pending_globals", "progress",
    "progress_measure", "reachable_eventualities", "scc_decompose",
    "search_loop_generic", "search_loop_l2", "smt_text", "solve_bounded_sat",
    "sorted_formulas", "subformulas_of", "successor_selection", "update",
    "validate", "verify_loop", "verify_selection",
]

# the public names of the layers outside the checker: `closure` loads with
# the package, and its own name there is the function `closure.closure`;
# the others load on first use
LAYERS = {
    "closure": ["UnsatisfiedSetError", "achieved_bounds", "closure",
                "closure_update", "update"],
    "measure": ["bound_base", "model_size_bound", "path_norm",
                "pending_globals", "progress_measure",
                "reachable_eventualities"],
    "progress": ["CompressionError", "FragmentError", "ProgressLoop",
                 "ProgressLoopError", "SearchSpaceExceeded", "bscc_reduce",
                 "build_loop_model", "caratheodory_reduce", "compress_model",
                 "exit_obligations", "search_loop_generic", "search_loop_l2",
                 "successor_selection", "verify_loop", "verify_selection"],
    "etr": ["BackendError", "ETRCandidate", "SatSearchResult", "SolverBackend",
            "check_assignment", "encode", "enumerate_candidates",
            "f_normal_form", "smt_text", "solve_bounded_sat"],
}


def _fresh(code: str, *argv: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this
    package's sources."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- cold start --------------------------------------------------------------

def test_import_loads_only_the_checker_core():
    added = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pctlfg\n"
        "print(*sorted(set(sys.modules) - before))\n").split()
    assert [name for name in added if name.startswith("pctlfg")] == CORE
    assert not {"dataclasses", "inspect", "subprocess", "tempfile",
                "shlex"} & set(added)


_CLI_RUN = """
import sys
from pctlfg.cli import main
code = main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("pctlfg.")))
"""


@pytest.mark.parametrize("argv, code, loaded, absent", [
    (["check", "--model", "{model}", "--state", "s", "--formula", PSI_TEXT],
     0, {"modelcheck"}, {"etr", "progress", "measure"}),
    (["sat", "--formula", "F=1[a] & G=1[!a]", "--bound", "2"],
     1, {"etr"}, {"progress", "measure"}),
    (["compress", "--model", "{model}", "--state", "s", "--formula", PSI_TEXT],
     0, {"progress", "closure", "measure"}, {"etr"}),
], ids=["check", "sat", "compress"])
def test_a_subcommand_loads_only_its_layers(tmp_path, argv, code, loaded,
                                            absent):
    model = tmp_path / "fig1.json"
    model.write_text(fig1_chain().to_json())
    last = _fresh(_CLI_RUN, *(a.format(model=model) for a in argv))
    exit_code, *modules = last.splitlines()[-1].split()
    assert int(exit_code) == code
    layers = {name.removeprefix("pctlfg.") for name in modules}
    assert loaded <= layers
    assert not absent & layers


# -- public surface ----------------------------------------------------------

def test_exported_names_are_pinned():
    assert sorted(pctlfg.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(pctlfg))
    namespace = {}
    exec("from pctlfg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED


def test_each_lazy_name_is_its_layers_object():
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"pctlfg.{layer}")
        for name in names:
            assert getattr(pctlfg, name) is getattr(module, name), name
        if layer != "closure":
            assert getattr(pctlfg, layer) is module
    assert pctlfg.compress_model is pctlfg.progress.compress_model
    with pytest.raises(AttributeError):
        pctlfg.no_such_name


def test_the_package_is_a_plain_module():
    # no custom module type: the lazy layers resolve through the module
    # `__getattr__` alone, before and after every layer has loaded
    out = _fresh(
        "import sys, types\n"
        "import pctlfg\n"
        "plain = type(sys.modules['pctlfg']) is types.ModuleType\n"
        "from pctlfg import *\n"
        "print(plain, type(sys.modules['pctlfg']) is types.ModuleType)\n")
    assert out == "True True\n"
    assert type(pctlfg) is types.ModuleType


@pytest.mark.parametrize("first", [
    "pctlfg.closure",
    "pctlfg.compress_model",
    "__import__('pctlfg.progress')",
    "__import__('pctlfg.closure')",
    "exec('from pctlfg.closure import closure_update')",
])
def test_names_resolve_however_a_layer_loads_first(first):
    # the import system binds a submodule on its package once it has run,
    # under its own name; `closure` has run with the package, so
    # `pctlfg.closure` stays the function
    out = _fresh(
        "import sys\n"
        "import pctlfg\n"
        f"{first}\n"
        "closure = sys.modules['pctlfg.closure']\n"
        "print(pctlfg.closure is closure.closure,\n"
        "      pctlfg.closure_update is closure.closure_update,\n"
        "      pctlfg.compress_model is pctlfg.progress.compress_model,\n"
        "      pctlfg.measure is sys.modules['pctlfg.measure'])\n")
    assert out == "True True True True\n"


def test_node_and_record_reprs_are_unchanged():
    body = Atom("a")
    assert repr(body) == "Atom(name='a')"
    assert repr(Prob(PathOp.F, Cmp.GE, 1, body)) == (
        "Prob(op=<PathOp.F: 'F'>, cmp=<Cmp.GE: '>='>, bound=Fraction(1, 1), "
        "body=Atom(name='a'))")
    assert repr(PathFormula(PathOp.G, NegAtom("b"))) == \
        "PathFormula(op=<PathOp.G: 'G'>, body=NegAtom(name='b'))"
    assert repr(And((body, Atom("b")))) == \
        "And(args=(Atom(name='a'), Atom(name='b')))"
    assert repr(pctlfg.fragment_classify(body)) == (
        "FragmentMembership(in_l1=True, in_l2=True, in_l3=True, in_l4=True)")
    chain = MarkovChain(["s"], {("s", "s"): Fraction(1)}, {"s": ["a"]})
    assert repr(scc_decompose(chain)) == \
        "SccDecomposition(states=('s',), components=(1,), bottom=1)"


def test_node_and_record_equality_is_unchanged():
    assert Atom("a") == Atom("a") and Atom("a") is Atom("a")
    assert Atom("a") != NegAtom("a")
    assert parse_formula("F>=1/2[a]") == Prob(PathOp.F, Cmp.GE,
                                              Fraction(1, 2), Atom("a"))
    flags = FragmentMembership(True, False, True, False)
    assert flags == FragmentMembership(True, False, True, False)
    assert flags != FragmentMembership(True, True, True, False)
    assert hash(flags) == hash(FragmentMembership(True, False, True, False))
    assert flags.in_l3 and not flags.in_l2
    sccs = SccDecomposition(("s", "t"), (1, 2), 2)
    assert sccs == SccDecomposition(states=("s", "t"), components=(1, 2),
                                    bottom=2)
    assert sccs != SccDecomposition(("s", "t"), (2, 1), 2)
    assert sccs.bottom_states() == frozenset({"t"})


def test_assigning_a_node_field_raises():
    node = Prob(PathOp.F, Cmp.GT, Fraction(1, 3), Atom("a"))
    for name in ("bound", "body", "fresh"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(node, name, Fraction(1, 2))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node.bound == Fraction(1, 3) and node.body is Atom("a")
    assert Prob._fields == ("op", "cmp", "bound", "body")
    with pytest.raises(AttributeError):
        FragmentMembership(True, True, True, True).in_l1 = False
