import errno
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

from helpers import PSI_TEXT, fig1_chain, satisfied_instance

from pctlfg.cli import main
from pctlfg.formula import MAX_NESTING, fragment_classify
from pctlfg.markov import MarkovChain, validate


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(fig1_chain().to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_true(capsys, model_path):
    code, out, _ = run(capsys, "check", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT)
    assert code == 0
    assert out.strip() == "true"


def test_check_false_exit_one(capsys, model_path):
    code, out, _ = run(capsys, "check", "--model", model_path,
                       "--state", "u", "--formula", PSI_TEXT)
    assert code == 1
    assert out.strip() == "false"


def test_check_sat_set(capsys, model_path):
    code, out, _ = run(capsys, "check", "--model", model_path,
                       "--formula", "a", "--json")
    assert code == 0
    assert json.loads(out)["sat_set"] == ["t", "u"]


def test_check_probabilities_json(capsys, model_path):
    code, out, _ = run(capsys, "check", "--model", model_path,
                       "--state", "s", "--formula", "F>=1/2[a]", "--json")
    data = json.loads(out)
    assert data["satisfied"] is True
    assert data["probabilities"] == {"F a": "1"}


def test_closure_output(capsys, model_path):
    code, out, _ = run(capsys, "closure", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT, "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["closure"]) == 4
    assert data["closure"] == data["closed_update"]
    assert len(data["achieved_bounds"]) == 2


def test_measure_reports_seven(capsys, model_path):
    code, out, _ = run(capsys, "measure", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT, "--set", "uc")
    assert code == 0
    assert "measure: 7" in out
    assert "bound base: 21" in out


def test_fragment(capsys):
    code, out, _ = run(capsys, "fragment", "--formula", PSI_TEXT)
    assert code == 0
    assert "L2: true" in out and "L1: false" in out


def test_loop_search_and_verify(capsys, tmp_path, model_path):
    code, out, _ = run(capsys, "loop", "search", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT,
                       "--method", "l2", "--json")
    assert code == 0
    loop_path = tmp_path / "loop.json"
    loop_path.write_text(out)
    code, out, _ = run(capsys, "loop", "verify", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT,
                       "--loop", str(loop_path))
    assert code == 0
    assert out.strip() == "ok"


def test_loop_verify_rejects_broken(capsys, tmp_path, model_path):
    loop_path = tmp_path / "loop.json"
    loop_path.write_text(json.dumps({"sets": [["a"]]}))
    code, _, err = run(capsys, "loop", "verify", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT,
                       "--loop", str(loop_path))
    assert code == 1
    assert "condition (1)" in err


def test_compress_round_trip(capsys, tmp_path, model_path):
    out_path = tmp_path / "small.json"
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "compress", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT,
                       "--out", str(out_path), "--trace", str(trace_path))
    assert code == 0
    rebuilt = MarkovChain.from_json(out_path.read_text())
    assert validate(rebuilt) == []
    trace = json.loads(trace_path.read_text())
    assert trace["measure"] == 7
    # the emitted model re-checks against the formula through the CLI
    code, out, _ = run(capsys, "check", "--model", str(out_path),
                       "--state", "L0", "--formula", PSI_TEXT)
    assert code == 0


def test_compress_prints_the_model_without_out(capsys, tmp_path, model_path):
    # without --out the model JSON follows the entry and size lines on
    # stdout, as --out would write it
    out_path = tmp_path / "small.json"
    argv = ("compress", "--model", model_path, "--state", "s",
            "--formula", PSI_TEXT)
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    head = out.splitlines()
    assert [line.split(":")[0] for line in head] == ["entry", "states"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "\n".join(head) + "\n" + out_path.read_text()


@pytest.mark.parametrize("argv, message", [
    (("loop", "search", "--method", "generic"),
     "no progress loop up to max_n=0"),
    (("compress", "--fragment", "generic"),
     "error: no progress loop found for 's' within max_n=0"),
], ids=["loop-search", "compress"])
def test_no_progress_loop_exits_one(capsys, model_path, argv, message):
    # a loop of one set has max_n 0; the running example needs three sets
    code, out, err = run(capsys, *argv, "--model", model_path, "--state", "s",
                         "--formula", PSI_TEXT, "--max-n", "0")
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_sat_contradiction(capsys):
    code, out, _ = run(capsys, "sat", "--formula", "F=1[a] & G=1[!a]",
                       "--bound", "2")
    assert code == 1
    assert out.strip() == "unsat-up-to-n"


@pytest.mark.parametrize("formula", ["F=1[a] & G=1[!a]", "G=1[a] & G=1[F>0[!a]]"],
                         ids=["root-clash", "every-graph"])
def test_sat_at_bound_four_is_refuted_in_time(formula):
    """Both unsat formulas exit 1 (unsat-up-to-n) at bound 4 within 120 s
    each, in a real process.  The README's example F=1[a] & G=1[!a]
    clashes at vertex 0 and is refuted before any graph.  G=1[a] &
    G=1[F>0[!a]] clashes nowhere at vertex 0, so the enumeration walks the
    5,856 rooted canonical graphs on 4 vertices and the block screen
    refutes every labeling (about half a second).  This gates the verdicts
    and a blow-up past the timeout; the graph counts themselves are pinned
    by `test_etr.py::test_graph_counts_pinned`."""
    proc = subprocess.run(
        [sys.executable, "-m", "pctlfg", "sat", "--formula", formula,
         "--bound", "4"], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "unsat-up-to-n\n", "")


def test_sat_contradiction_at_bound_one_with_a_solver_timeout(capsys):
    code, out, _ = run(capsys, "sat", "--formula", "F=1[a] & G=1[!a]",
                       "--bound", "1", "--solver-timeout", "2.5")
    assert code == 1
    assert out.strip() == "unsat-up-to-n"


def test_sat_without_path_operator_is_decided(capsys, monkeypatch):
    # no block to solve: the uniform assignment is confirmed exactly
    monkeypatch.delenv("PCTLFG_SOLVER", raising=False)
    code, out, _ = run(capsys, "sat", "--formula", "a", "--bound", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["status"], data["solver_calls"]) == ("sat", 0)
    model = MarkovChain.from_dict(data["model"])
    assert model.states == (data["entry"],)
    assert model.atoms(data["entry"]) == {"a"}
    code, out, _ = run(capsys, "sat", "--formula", "a & !a", "--bound", "2")
    assert code == 1
    assert out.strip() == "unsat-up-to-n"


def test_sat_unknown_without_solver(capsys, monkeypatch):
    monkeypatch.delenv("PCTLFG_SOLVER", raising=False)
    code, out, _ = run(capsys, "sat", "--formula", "!a & F>1/3[a] & G>1/2[!a]",
                       "--bound", "3")
    assert code == 3
    assert out.strip() == "unknown"


@pytest.mark.parametrize("answer, reason", [
    ("(" * 5000 + ")" * 5000, "nested deeper than 100 levels"),
    ("((x1 (/ 1 0)) (x2 (/ 1 0)) (x3 (/ 1 0)))", "value of 'x1': zero denominator"),
    ("((x1 1e-10000000))",
     "value of 'x1': cannot rationalize solver value '1e-10000000'"),
], ids=["nested 5000 deep", "zero denominator", "exponent"])
def test_sat_malformed_solver_answer_is_backend_error(capsys, tmp_path, answer,
                                                      reason):
    # the uniform assignment misses this formula at bound 3, so the canned
    # solver is asked, and its answer is a protocol error
    script = tmp_path / "canned.py"
    script.write_text(f"print('sat')\nprint({answer!r})\n")
    code, _, err = run(capsys, "sat", "--formula", "!a & F>1/3[a] & G>1/2[!a]",
                       "--bound", "3", "--solver-cmd",
                       f"{sys.executable} {script} {{file}}")
    assert code == 3
    assert err.startswith("backend error: ") and err.count("\n") == 1
    assert reason in err


def test_sat_emit_only(capsys, tmp_path):
    dump = tmp_path / "systems"
    code, out, _ = run(capsys, "sat", "--formula", "F>1/2[a] & !a",
                       "--bound", "2", "--emit-only", "--dump-smt", str(dump))
    assert code == 0
    assert list(dump.glob("*.smt2"))


def test_sat_emit_only_needs_dir(capsys):
    code, _, err = run(capsys, "sat", "--formula", "a", "--bound", "1",
                       "--emit-only")
    assert code == 2


def test_loop_verify_requires_loop_file(capsys, model_path):
    code, _, err = run(capsys, "loop", "verify", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT)
    assert code == 2
    assert "--loop" in err


def test_check_unsatisfied_precondition_exit(capsys, model_path):
    # closure precondition failure is a property failure, not a usage error
    code, _, err = run(capsys, "closure", "--model", model_path,
                       "--state", "u", "--formula", PSI_TEXT)
    assert code == 1
    assert "does not satisfy" in err


@pytest.mark.parametrize("argv", [
    ("measure", "--set", "uc"),
    ("measure", "--set", "closure"),
    ("loop", "search", "--method", "l2"),
    ("loop", "search", "--method", "generic"),
    ("loop", "verify", "--loop", "{loop}"),
    ("compress", "--fragment", "l2"),
    ("compress", "--fragment", "generic"),
], ids=lambda argv: " ".join(a for a in argv if a != "{loop}"))
def test_unsatisfied_state_is_one_error_line_with_exit_one(capsys, tmp_path,
                                                           model_path, argv):
    # u satisfies a, so the running example fails there: every closure, loop
    # and compression command reports it as a property failure
    loop_path = tmp_path / "loop.json"
    loop_path.write_text(json.dumps([["a"]]))
    code, _, err = run(capsys, *(a.format(loop=loop_path) for a in argv),
                       "--model", model_path, "--state", "u",
                       "--formula", PSI_TEXT)
    assert code == 1
    assert err.startswith("error: state 'u' does not satisfy ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_measure_of_the_single_formula_needs_no_satisfaction(capsys, model_path):
    code, out, _ = run(capsys, "measure", "--set", "single", "--model",
                       model_path, "--state", "u", "--formula", PSI_TEXT)
    assert code == 0
    assert "measure: " in out


def test_export_dot(capsys, model_path):
    code, out, _ = run(capsys, "export-dot", "--model", model_path)
    assert code == 0
    assert out.startswith("digraph")


def test_export_dot_out_writes_the_file(capsys, tmp_path, model_path):
    # --out writes the text that stdout shows without it
    dot_path = tmp_path / "fig1.dot"
    code, out, _ = run(capsys, "export-dot", "--model", model_path,
                       "--out", str(dot_path))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "export-dot", "--model", model_path)
    assert code == 0
    assert dot_path.read_text() == out


def test_export_dot_takes_no_json_flag(capsys, model_path):
    # DOT is its only output, so a --json flag would be ignored
    code, out, err = run(capsys, "export-dot", "--model", model_path, "--json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


def test_bad_model_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [{"id": "s", "ap": []}], '
                    '"edges": [{"from": "s", "to": "s", "p": "1/2"}]}')
    code, _, err = run(capsys, "check", "--model", str(path), "--formula", "a")
    assert code == 2
    assert "sum" in err


def _write_input(path, content):
    """Writes raw bytes, text as it is, or anything else as JSON."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))


@pytest.mark.parametrize("model, message", [
    ({"states": [{"ap": []}], "edges": []}, "has no 'id'"),
    ({"states": [{"id": "s"}], "edges": [{"from": "s", "to": "s"}]}, "has no 'p'"),
    ({"states": "x", "edges": []}, "'states' and 'edges' lists"),
    ({"states": [{"id": "s", "ap": "abc"}],
      "edges": [{"from": "s", "to": "s", "p": "1"}]}, "'ap' must be a list"),
    ({"states": [{"id": "s", "ap": [["a"]]}],
      "edges": [{"from": "s", "to": "s", "p": "1"}]}, "'ap' must be a list"),
    ({"states": ["s"], "edges": []}, "must be an object"),
    ("[" * 100000, "invalid JSON"),
    ({"states": [{"id": "s"}, {"id": "t"}],
      "edges": [{"from": "s", "to": "s", "p": "5e-1"},
                {"from": "s", "to": "t", "p": "1/2"},
                {"from": "t", "to": "t", "p": "1"}]}, "malformed rational"),
    # two defects: the first in record order is reported
    ({"states": [{"id": "s", "ap": []}, {"id": "s", "ap": ["a"]}],
      "edges": [{"from": "s", "to": "s"}]}, "duplicate state ids"),
    (b"\xff\xfe", "is not UTF-8 text"),
])
def test_malformed_model_is_usage_error(capsys, tmp_path, model, message):
    path = tmp_path / "bad.json"
    _write_input(path, model)
    code, _, err = run(capsys, "check", "--model", str(path), "--formula", "a")
    assert code == 2
    assert message in err


@pytest.mark.parametrize("loop, message", [
    ({}, "list of formula lists"),
    ({"sets": 3}, "list of formula lists"),
    ({"sets": ["a"]}, "list of formula lists"),
    ({"sets": [[1]]}, "list of formula lists"),
    ("[" * 100000, "cannot read loop"),
    (b"\xff\xfe", "is not UTF-8 text"),
])
def test_malformed_loop_file_is_usage_error(capsys, tmp_path, model_path, loop,
                                            message):
    loop_path = tmp_path / "loop.json"
    _write_input(loop_path, loop)
    code, _, err = run(capsys, "loop", "verify", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT,
                       "--loop", str(loop_path))
    assert code == 2
    assert message in err


def test_unreadable_input_files_exit_two_in_a_real_process(tmp_path):
    """A model or loop file the loaders cannot read is a usage error: the
    real process exits 2 with one `error: ...` line, and no exception
    escapes as a traceback."""
    model = tmp_path / "model.json"
    _write_input(model, {"states": [{"id": "s", "ap": ["a"]}],
                         "edges": [{"from": "s", "to": "s", "p": "1"}]})
    not_utf8 = tmp_path / "not_utf8.json"
    _write_input(not_utf8, b"\xff\xfe")
    truncated = tmp_path / "truncated.json"
    _write_input(truncated, b'{"states": [{"id": "s"')
    loop = ["loop", "verify", "--model", str(model), "--state", "s",
            "--formula", "a", "--loop"]
    cases = {
        "non-UTF-8 model": ["check", "--model", str(not_utf8), "--formula", "a"],
        "non-UTF-8 loop file": loop + [str(not_utf8)],
        "truncated JSON model": ["check", "--model", str(truncated),
                                 "--formula", "a"],
        "truncated JSON loop file": loop + [str(truncated)],
        "directory as the model": ["check", "--model", str(tmp_path),
                                   "--formula", "a"],
    }
    for case, argv in cases.items():
        proc = subprocess.run([sys.executable, "-m", "pctlfg", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (case, proc.stderr)
        assert "Traceback" not in proc.stderr, (case, proc.stderr)
        assert proc.stderr.startswith("error: ") and \
            proc.stderr.count("\n") == 1, (case, proc.stderr)
        assert proc.stdout == "", case


NESTINGS = {
    "negations": lambda n: "!" * n + "a",
    "parentheses": lambda n: "(" * n + "a" + ")" * n,
    "path operators": lambda n: "F>0[" * n + "a" + "]" * n,
    # the parser normalizes each negated upper bound while its own frames
    # are still on the stack
    "negated upper bounds": lambda n: ("!F<=1/2[" * (n // 2) + "!" * (n % 2) + "a"
                                       + "]" * (n // 2)),
}


@pytest.mark.parametrize("nest", NESTINGS.values(), ids=NESTINGS.keys())
def test_nesting_at_the_cap_is_checked(capsys, model_path, nest):
    text = nest(MAX_NESTING)
    code, out, _ = run(capsys, "check", "--model", model_path,
                       "--state", "t", "--formula", text)
    assert (code, out.strip()) == (0, "true")
    code, _, _ = run(capsys, "fragment", "--formula", text)
    assert code == 0


@pytest.mark.parametrize("nest", NESTINGS.values(), ids=NESTINGS.keys())
def test_nesting_past_the_cap_is_usage_error(capsys, model_path, nest):
    text = nest(MAX_NESTING + 1)
    for argv in (("check", "--model", model_path, "--formula", text),
                 ("fragment", "--formula", text),
                 ("sat", "--formula", text, "--bound", "1")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"nested deeper than {MAX_NESTING} levels" in err


@pytest.mark.parametrize("argv, message", [
    (("sat", "--formula", "a", "--bound", "0"), "--bound: must be at least 1"),
    (("sat", "--formula", "a", "--bound", "-3"), "--bound: must be at least 1"),
    (("sat", "--formula", "a", "--bound", "1", "--solver-timeout", "-1"),
     "--solver-timeout: must be a positive number"),
    (("sat", "--formula", "a", "--bound", "1", "--solver-timeout", "0"),
     "--solver-timeout: must be a positive number"),
    (("sat", "--formula", "a", "--bound", "1", "--solver-timeout", "nan"),
     "--solver-timeout: must be a positive number"),
    (("loop", "search", "--state", "s", "--formula", "a", "--max-n", "-2"),
     "--max-n: must be at least 0"),
    (("compress", "--state", "s", "--formula", "a", "--max-n", "-1"),
     "--max-n: must be at least 0"),
])
def test_out_of_range_option_is_usage_error(capsys, model_path, argv, message):
    if argv[0] != "sat":
        argv += ("--model", model_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err


def test_missing_model_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--model", str(tmp_path / "none.json"),
                       "--state", "s", "--formula", "a")
    assert code == 2
    assert "cannot read model" in err


def test_bad_formula_is_usage_error(capsys, model_path):
    code, _, err = run(capsys, "check", "--model", model_path,
                       "--formula", "F>=2[a]")
    assert code == 2


def test_unknown_state_is_usage_error(capsys, model_path):
    code, _, err = run(capsys, "check", "--model", model_path,
                       "--state", "zz", "--formula", "a")
    assert code == 2


def test_module_entry_point(model_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pctlfg", "check", "--model", model_path,
         "--state", "s", "--formula", "!a"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


# an ASCII-only stdout, and an ASCII locale without UTF-8 mode or locale
# coercion, under which the default file encoding is ASCII too
ASCII_STREAM = {"PYTHONIOENCODING": "ascii"}
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
_ENCODING_VARS = ("PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE",
                  "LC_ALL", "LC_CTYPE", "LANG")


def _run_under(env: dict, *argv) -> subprocess.CompletedProcess:
    base = {k: v for k, v in os.environ.items() if k not in _ENCODING_VARS}
    return subprocess.run([sys.executable, "-m", "pctlfg", *argv],
                          capture_output=True, env={**base, **env})


@pytest.mark.parametrize("env", [ASCII_STREAM, ASCII_LOCALE],
                         ids=["ascii-stream", "ascii-locale"])
def test_names_the_output_cannot_encode_print_escaped(tmp_path, env):
    # stdout escapes what it cannot encode, so every exit code is the
    # answer's, and a written DOT file is UTF-8, as the loaders read.  The
    # locale decodes the name's UTF-8 bytes in argv as surrogates; the state
    # is found by its bytes decoded as UTF-8, as the model file is read.
    model = tmp_path / "m.json"
    model.write_text(json.dumps(
        {"states": [{"id": "\u2200s", "ap": ["a"]}],
         "edges": [{"from": "\u2200s", "to": "\u2200s", "p": "1"}]}))
    dot = tmp_path / "x.dot"
    check = _run_under(env, "check", "--model", str(model), "--formula", "a")
    held = _run_under(env, "check", "--model", str(model), "--formula", "!a",
                      "--state", "\u2200s")
    compress = _run_under(env, "compress", "--model", str(model),
                          "--state", "\u2200s", "--formula", "a")
    export = _run_under(env, "export-dot", "--model", str(model),
                        "--out", str(dot))
    for proc in (check, held, compress, export):
        assert b"Traceback" not in proc.stderr, proc.stderr
    assert (check.returncode, check.stdout) == (0, b"sat set: {\\u2200s}\n")
    assert export.returncode == 0
    assert dot.read_text(encoding="utf-8") == \
        MarkovChain.from_json(model.read_text()).to_dot() + "\n"
    assert (held.returncode, held.stdout) == (1, b"false\n")
    assert compress.returncode == 0
    assert compress.stdout.startswith(b"entry: \\u2200s\nstates: 1\n")


def test_main_restores_the_stdout_error_handler(capsys, model_path):
    errors = sys.stdout.errors
    assert run(capsys, "check", "--model", model_path, "--formula", "a")[0] == 0
    assert sys.stdout.errors == errors


def _outputs_under_hash_seeds(argv, *written) -> set:
    """The distinct (exit code, stdout, stderr, *contents of `written`) of
    `python -m pctlfg *argv` under PYTHONHASHSEED 0, 1 and 7; the exit code
    must be 0 or 1 (success or a failed property).  A written directory's
    contents are its (name, text) pairs, and its files are removed after
    each run."""
    outputs = set()
    for hash_seed in ("0", "1", "7"):
        proc = subprocess.run(
            [sys.executable, "-m", "pctlfg", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode in (0, 1), proc.stderr
        outputs.add((proc.returncode, proc.stdout, proc.stderr,
                     *map(_written_contents, written)))
    return outputs


def _written_contents(path):
    if not path.is_dir():
        return path.read_text()
    files = sorted(path.iterdir())
    contents = tuple((file.name, file.read_text()) for file in files)
    for file in files:
        file.unlink()
    return contents


def test_compress_output_does_not_depend_on_the_hash_seed(tmp_path, model_path):
    # formulas hash by identity, so formula sets iterate in allocation order
    # and strings in hash-seed order: neither may reach the output.  The
    # running example, then an L2 and a generic instance whose compression
    # builds a progress loop.
    jobs = [(model_path, "s", PSI_TEXT, "l2")]
    for seed in (17, 103):
        chain, state, f, _ = satisfied_instance(random.Random(seed),
                                                max_states=8, depth=4)
        path = tmp_path / f"seed{seed}.json"
        path.write_text(chain.to_json())
        fragment = "l2" if fragment_classify(f).in_l2 else "generic"
        jobs.append((str(path), state, str(f), fragment))
    assert [job[3] for job in jobs] == ["l2", "l2", "generic"]
    trace_path = tmp_path / "trace.json"
    for model, state, text, fragment in jobs:
        # the trace lists formula sets, so it shows a set printed in
        # iteration order
        assert len(_outputs_under_hash_seeds(
            ["compress", "--model", model, "--state", state, "--formula", text,
             "--fragment", fragment, "--json", "--trace", str(trace_path)],
            trace_path)) == 1, (model, text)


def test_sat_output_does_not_depend_on_the_process(tmp_path):
    # formula nodes and the PathOp/Cmp members hash by address, which can
    # differ between interpreters under one hash seed: neither the emitted
    # systems nor a found model may show it
    dump = tmp_path / "systems"
    outputs = _outputs_under_hash_seeds(
        ["sat", "--formula", "!a & F>=2/3[a] & G>0[!a]", "--bound", "3",
         "--emit-only", "--dump-smt", str(dump)], dump)
    assert len(outputs) == 1
    (code, stdout, _, files), = outputs
    assert code == 0 and stdout.startswith("emitted 16 candidate systems")
    assert len(files) == 16
    # planted on the path v1 -> v2 (a) -> v3 (b, absorbing)
    outputs = _outputs_under_hash_seeds(
        ["sat", "--formula", "!a & F>=1/2[a] & F>0[b & G=1[!a]]",
         "--bound", "3", "--json"])
    assert len(outputs) == 1
    (code, stdout, _), = outputs
    assert code == 0
    assert json.loads(stdout)["status"] == "sat"


def test_loop_verify_diagnostics_do_not_depend_on_the_hash_seed(tmp_path):
    # condition (3) names formulas of a loop set: each set's violations come
    # out in canonical formula order, not in the set's iteration order
    model = tmp_path / "one.json"
    model.write_text(MarkovChain(["s"], {("s", "s"): Fraction(1)},
                                 {"s": ["a", "b", "c", "d"]}).to_json())
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps([["a & b & c & d", "a | b", "c | d",
                                 "F>0[a] & F>0[b] & F>0[c]"]]))
    outputs = _outputs_under_hash_seeds(
        ["loop", "verify", "--model", str(model), "--state", "s",
         "--formula", "a & b & c & d", "--loop", str(loop)])
    assert len(outputs) == 1
    (code, _, stderr), = outputs
    assert code == 1
    assert stderr.splitlines() == [
        "L0 contains F>0[a] & F>0[b] & F>0[c], which is not a subformula of X",
        "L0 contains a | b, which is not a subformula of X",
        "L0 contains c | d, which is not a subformula of X",
        "condition (1): no L_i contains X",
        "condition (3): conjunct F>0[a] of F>0[a] & F>0[b] & F>0[c] "
        "missing from L0",
        "condition (3): conjunct F>0[b] of F>0[a] & F>0[b] & F>0[c] "
        "missing from L0",
        "condition (3): conjunct F>0[c] of F>0[a] & F>0[b] & F>0[c] "
        "missing from L0",
        "condition (3): conjunct a of a & b & c & d missing from L0",
        "condition (3): conjunct b of a & b & c & d missing from L0",
        "condition (3): conjunct c of a & b & c & d missing from L0",
        "condition (3): conjunct d of a & b & c & d missing from L0",
        "condition (3): no disjunct of a | b present in L0",
        "condition (3): no disjunct of c | d present in L0",
    ]


@pytest.mark.parametrize("command, field", [
    ("check", "probabilities"), ("measure", "path_norms")])
def test_json_keys_do_not_depend_on_the_hash_seed(model_path, command, field):
    # `check --state` keys its path probabilities, and `measure` its path
    # norms, by formula text: the keys come out sorted, not in the
    # allocation order a formula set iterates in (three path formulas, so
    # an unsorted order rarely comes out sorted three times)
    outputs = _outputs_under_hash_seeds(
        [command, "--model", model_path, "--state", "s", "--formula",
         "F>0[a] & G>=0.2[!a | a] & F>=0.5[a] & G>0[F>0[a]]", "--json"])
    assert len(outputs) == 1
    (code, stdout, _), = outputs
    assert code == 0
    keys = list(json.loads(stdout)[field])
    assert len(keys) > 1 and keys == sorted(keys)


def test_emitted_model_json_revalidates(capsys, model_path):
    code, out, _ = run(capsys, "compress", "--model", model_path,
                       "--state", "s", "--formula", PSI_TEXT, "--json")
    assert code == 0
    data = json.loads(out)
    rebuilt = MarkovChain.from_dict(data["model"])
    assert validate(rebuilt) == []
    assert data["entry"] in rebuilt.states


@pytest.mark.parametrize("argv", [
    ("export-dot", "--model", "{model}", "--out", "{out}"),
    ("compress", "--model", "{model}", "--state", "s", "--formula", PSI_TEXT,
     "--out", "{out}"),
    ("compress", "--model", "{model}", "--state", "s", "--formula", PSI_TEXT,
     "--trace", "{out}"),
    ("sat", "--formula", "a", "--bound", "1", "--dump-smt", "{out}"),
    ("sat", "--formula", "a", "--bound", "1", "--dump-smt", "{out}",
     "--emit-only"),
], ids=["export-dot-out", "compress-out", "compress-trace", "sat-dump-smt",
        "sat-dump-smt-emit-only"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, model_path, argv):
    # the output's parent directory is a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out")
    code, _, err = run(capsys, *(a.format(model=model_path, out=out) for a in argv))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, reason", [
    ("z3 '{file}", "No closing quotation"),
    ("   ", "the solver command is empty"),
], ids=["unbalanced quote", "blank"])
@pytest.mark.parametrize("via", ["flag", "environment"])
def test_malformed_solver_command_is_usage_error(capsys, monkeypatch, command,
                                                 reason, via):
    # reported before the search starts, so no candidate reaches a solver
    monkeypatch.delenv("PCTLFG_SOLVER", raising=False)
    argv = ["sat", "--formula", "!a & F>1/3[a] & G>1/2[!a]", "--bound", "3"]
    if via == "flag":
        argv += ["--solver-cmd", command]
    else:
        monkeypatch.setenv("PCTLFG_SOLVER", command)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: bad solver command: {reason}\n"


def test_non_executable_solver_is_backend_error(capsys, tmp_path):
    solver = tmp_path / "solver"
    solver.write_text("")
    solver.chmod(0o644)
    code, _, err = run(capsys, "sat", "--formula", "!a & F>1/3[a] & G>1/2[!a]",
                       "--bound", "3", "--solver-cmd", f"{solver} {{file}}")
    assert code == 3
    assert err.startswith("backend error: cannot launch solver")


def test_unwritable_solver_file_is_backend_error(capsys, monkeypatch, tmp_path):
    # a full disk fails the SMT file the solver would read: the backend's
    # environment failed (exit 3), not the user's input (exit 2)
    def full_disk(fd, mode):
        os.close(fd)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "fdopen", full_disk)
    code, _, err = run(capsys, "sat", "--formula", "!a & F>1/3[a] & G>1/2[!a]",
                       "--bound", "3", "--solver-cmd",
                       "definitely-not-a-real-solver {file}")
    assert code == 3
    assert err.startswith("backend error: cannot write the SMT file")
    assert list(tmp_path.iterdir()) == []


def test_solver_that_removes_its_input_file(capsys, monkeypatch, tmp_path):
    # the SMT file is gone when the search cleans up: that is no error
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    solver = "import os, sys; os.unlink(sys.argv[1]); print('unsat')"
    code, out, err = run(capsys, "sat", "--formula",
                         "!a & F>1/3[a] & G>1/2[!a]", "--bound", "3",
                         "--solver-cmd", f'{sys.executable} -c "{solver}" {{file}}')
    assert (code, out, err) == (1, "unsat-up-to-n\n", "")
    assert list(tmp_path.iterdir()) == []


def test_loop_search_beyond_generic_range(capsys, model_path):
    formula = " | ".join(["a"] + [f"x{i}" for i in range(1, 21)])
    code, _, err = run(capsys, "loop", "search", "--method", "generic",
                       "--model", model_path, "--state", "t", "--formula", formula)
    assert code == 3
    assert err.startswith("search space exceeded")


def test_compress_outside_l2_exits_one(capsys, model_path):
    # F>0[G>0[a]] holds at s but is not in L2 (a G inside takes only =1)
    code, out, err = run(capsys, "compress", "--fragment", "l2", "--model",
                         model_path, "--state", "s", "--formula", "F>0[G>0[a]]")
    assert code == 1
    assert out == ""
    assert err == "error: not in fragment L2: F>0[G>0[a]]\n"


def test_layer_errors_map_to_exit_codes_once_raised(capsys, monkeypatch,
                                                   model_path):
    # `compress` imports `compress_model` when it runs, and the CLI imports
    # the layers' error classes only once one is raised: a compression
    # error exits 1, and an exception no layer defines propagates
    from pctlfg import progress

    def failing(error):
        def compress_model(*args, **kwargs):
            raise error
        return compress_model

    argv = ("compress", "--model", model_path, "--state", "s",
            "--formula", PSI_TEXT)
    monkeypatch.setattr(progress, "compress_model",
                        failing(progress.CompressionError("inconsistent")))
    assert run(capsys, *argv) == (1, "", "error: inconsistent\n")
    monkeypatch.setattr(progress, "compress_model",
                        failing(LookupError("unmapped")))
    with pytest.raises(LookupError, match="unmapped"):
        main(list(argv))
