"""Seeded fuzzing of the command line: mutated formula texts and mutated
model records never raise out of `cli.main`, every exit code is one of the
documented four, and every input the library's own reader rejects exits
exactly 2.  Seeded satisfied instances go through `compress`, and every
model it prints is re-read and checked."""

import json
import random

import pytest

from helpers import fig1_chain, random_core_formula, satisfied_instance

from pctlfg.cli import main
from pctlfg.formula import PctlSyntaxError, _Token, _tokenize, parse_formula
from pctlfg.markov import MarkovChain, validate
from pctlfg.modelcheck import ModelChecker
from pctlfg.progress import simple_loop_components

EXIT_CODES = (0, 1, 2, 3)

# nesting far past the parser's cap, of each kind it counts
DEEP_FORMULAS = ("(" * 400 + "a" + ")" * 400,
                 "F>0[" * 300 + "a" + "]" * 300,
                 "!" * 2000 + "a")

FORMULA_CHARS = "abFG!&|()[]<>=/.019 _"
JSON_CHARS = '{}[]":,0123456789abp-./e '
JUNK_VALUES = ("", "5e-1", "1e-99999", "1/0", "-1/2", "0", "3/2", "x", 3, 0.5,
               None, True, [], {}, ["a", 1], [["a"]])

# Numerals far past the interpreter's default 4300-digit int <-> str limit,
# written without converting an int: 10^k + c is "1", k - len(c) zeros, c.
def _power_plus(k: int, c: str) -> str:
    return "1" + "0" * (k - len(c)) + c


# Two outgoing edges of s, 1/(10^3999+1) and 1/(10^3998+3), which do not sum
# to 1; the diagnostic prints a sum with an 8000-digit denominator.
BIG_INVALID = {
    "states": [{"id": "s", "ap": []}, {"id": "t", "ap": []}],
    "edges": [{"from": "s", "to": "t", "p": "1/" + _power_plus(3999, "1")},
              {"from": "s", "to": "s", "p": "1/" + _power_plus(3998, "3")},
              {"from": "t", "to": "t", "p": "1"}]}

# s -> t with 1/D1 and t -> g{a} with 1/D2, the rest to an absorbing z, so
# F a holds at s with probability 1/(D1 D2) = 1/(10^4400 + 16 10^2200 + 63).
D1, D2 = _power_plus(2200, "7"), _power_plus(2200, "9")
BIG_VALID = {
    "states": [{"id": "s", "ap": []}, {"id": "t", "ap": []},
               {"id": "g", "ap": ["a"]}, {"id": "z", "ap": []}],
    "edges": [{"from": "s", "to": "t", "p": "1/" + D1},
              {"from": "s", "to": "z", "p": _power_plus(2200, "6") + "/" + D1},
              {"from": "t", "to": "g", "p": "1/" + D2},
              {"from": "t", "to": "z", "p": _power_plus(2200, "8") + "/" + D2},
              {"from": "g", "to": "g", "p": "1"},
              {"from": "z", "to": "z", "p": "1"}]}
BIG_VALID_F_A = "1/1" + "0" * 2198 + "16" + "0" * 2198 + "63"


def _mutate(rng: random.Random, text: str, alphabet: str) -> str:
    """One insertion, deletion or truncation at a random position."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + rng.choice(alphabet) + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1:]
    return text[:i]


def _formula_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = list(DEEP_FORMULAS)
    for _ in range(count):
        text = str(random_core_formula(rng, depth=3))
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text, FORMULA_CHARS)
        texts.append(text)
    return texts


def _model_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        data = fig1_chain().to_dict()
        records = data[rng.choice(("states", "edges"))]
        record = rng.choice(records)
        kind = rng.randrange(4)
        if kind == 0:
            record[rng.choice(sorted(record))] = rng.choice(JUNK_VALUES)
        elif kind == 1:
            del record[rng.choice(sorted(record))]
        elif kind == 2:
            records.append(dict(record))
        text = json.dumps(data)
        if kind == 3:
            text = _mutate(rng, text, JSON_CHARS)
        texts.append(text)
    return texts


def _formula_is_malformed(text: str) -> bool:
    try:
        parse_formula(text)
    except Exception:
        return True
    return False


def _model_is_malformed(text: str) -> bool:
    try:
        chain = MarkovChain.from_json(text)
    except Exception:
        return True
    return bool(validate(chain))


def _run(capsys, argv) -> tuple[int, str]:
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"{argv!r} raised {exc!r}")
    return code, capsys.readouterr().out


def _exit_code(capsys, argv) -> int:
    return _run(capsys, argv)[0]


def test_mutated_formulas_keep_the_exit_contract(capsys, tmp_path):
    model = tmp_path / "fig1.json"
    model.write_text(fig1_chain().to_json())
    for text in _formula_texts(seed=5, count=150):
        wanted = (2,) if _formula_is_malformed(text) else EXIT_CODES
        for argv in (["check", "--model", str(model), "--state", "s",
                      "--formula", text],
                     ["fragment", "--formula", text],
                     ["sat", "--formula", text, "--bound", "1"]):
            assert _exit_code(capsys, argv) in wanted, argv


_SCANNED_SYMBOLS = (">=", "<=", ">", "<", "=", "!", "&", "|", "(", ")", "[",
                    "]", "/")


def _scanning_tokenize(text: str) -> list[_Token]:
    """The tokenizer before it dispatched on the first character: every
    symbol is tried with `startswith` at every position, longest first."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        matched = False
        for sym in _SCANNED_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise PctlSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _token_stream(tokenize, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except PctlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


# symbol prefixes and their neighbours, positions after newlines and tabs,
# and characters the tokenizer rejects or reads through str.isdigit/isalpha
MALFORMED_FORMULAS = ("", "<", ">", "=", "<=", ">=", "=<", "=>", "==", "<==",
                      ">>=", "F==1[a]", "F<>1[a]", "<\n=", "F>\n=1[a]",
                      "a\n\n  &\tb", "F >= 1/2 [ a ]", "F>=1/2[a]>", "a & #",
                      "a$b", "F>=0.5.5[a]", "x\u00b2", "\u00e9t\u00e9 | b",
                      "F>=\u0661[a]", "a\r\nb", "\x00", "!!!a", "(((", "a]b[",
                      "1/", "/1", "G=1[a", "a\u2264b")


def test_tokenizer_matches_the_symbol_scan():
    # the first-character dispatch yields the same kinds, texts and
    # positions as trying every symbol, and fails at the same position
    texts = (_formula_texts(seed=5, count=150) + _formula_texts(seed=17, count=300)
             + list(MALFORMED_FORMULAS))
    errors = 0
    for text in texts:
        want = _token_stream(_scanning_tokenize, text)
        assert _token_stream(_tokenize, text) == want, text
        errors += want[0] == "error"
    assert errors > 5


def test_mutated_models_keep_the_exit_contract(capsys, tmp_path):
    model = tmp_path / "model.json"
    for text in _model_texts(seed=9, count=200):
        model.write_text(text)
        argv = ["check", "--model", str(model), "--state", "s",
                "--formula", "F>=1/2[a]"]
        wanted = (2,) if _model_is_malformed(text) else EXIT_CODES
        assert _exit_code(capsys, argv) in wanted, text


def test_rationals_past_the_digit_limit(capsys, tmp_path):
    model = tmp_path / "model.json"
    argv = ["check", "--model", str(model), "--state", "s",
            "--formula", "F>0[a]", "--json"]
    model.write_text(json.dumps(BIG_INVALID))
    assert _exit_code(capsys, argv) == 2
    model.write_text(json.dumps(BIG_VALID))
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["probabilities"] == {"F a": BIG_VALID_F_A}


def test_compress_output_is_a_verified_model(capsys, tmp_path):
    # seeded satisfied instances through both searches: every answer keeps
    # the exit contract, and every model it prints holds at its entry
    rng = random.Random(13)
    model = tmp_path / "model.json"
    verified = 0
    for i in range(300):
        chain, state, f, _ = satisfied_instance(rng, max_states=5, depth=3)
        model.write_text(chain.to_json())
        argv = ["compress", "--model", str(model), "--state", state,
                "--formula", str(f), "--fragment", ("l2", "generic")[i % 2],
                "--max-n", "2", "--json"]
        code, out = _run(capsys, argv)
        assert code in EXIT_CODES, argv
        if code != 0:
            continue
        data = json.loads(out)
        small = MarkovChain.from_dict(data["model"])
        assert validate(small) == [], argv
        assert simple_loop_components(small) == [], argv
        assert ModelChecker(small).holds(data["entry"], f), argv
        verified += 1
    assert verified >= 250
