"""Seeded fuzzing of the command line: mutated formula texts and mutated
model records never raise out of `cli.main`, and every exit code is one of
the documented four."""

import json
import random

import pytest

from helpers import fig1_chain, random_core_formula

from pctlfg.cli import main

EXIT_CODES = (0, 1, 2, 3)

# nesting far past the parser's cap, of each kind it counts
DEEP_FORMULAS = ("(" * 400 + "a" + ")" * 400,
                 "F>0[" * 300 + "a" + "]" * 300,
                 "!" * 2000 + "a")

FORMULA_CHARS = "abFG!&|()[]<>=/.019 _"
JSON_CHARS = '{}[]":,0123456789abp-./e '
JUNK_VALUES = ("", "5e-1", "1e-99999", "1/0", "-1/2", "0", "3/2", "x", 3, 0.5,
               None, True, [], {}, ["a", 1], [["a"]])


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


def _exit_code(capsys, argv) -> int:
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"{argv!r} raised {exc!r}")
    capsys.readouterr()
    return code


def test_mutated_formulas_keep_the_exit_contract(capsys, tmp_path):
    model = tmp_path / "fig1.json"
    model.write_text(fig1_chain().to_json())
    for text in _formula_texts(seed=5, count=150):
        for argv in (["check", "--model", str(model), "--state", "s",
                      "--formula", text],
                     ["fragment", "--formula", text],
                     ["sat", "--formula", text, "--bound", "1"]):
            assert _exit_code(capsys, argv) in EXIT_CODES, argv


def test_mutated_models_keep_the_exit_contract(capsys, tmp_path):
    model = tmp_path / "model.json"
    for text in _model_texts(seed=9, count=200):
        model.write_text(text)
        argv = ["check", "--model", str(model), "--state", "s",
                "--formula", "F>=1/2[a]"]
        assert _exit_code(capsys, argv) in EXIT_CODES, text
