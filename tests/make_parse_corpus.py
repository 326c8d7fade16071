"""Write tests/data/parse_corpus.json: the parser's outcome on about 2000
seeded mutations of the builtin models, LITERAL_FORMS_SOURCE and
perfbench/sep6.uq.

An edit inserts, deletes or replaces one character, drops one token,
swaps two adjacent ones, or puts in place of a token another of its
sort: a name, reserved word or number of the text or of WORDS, or a
punctuation character.  A mutation is
one edit, or for one in four a second edit of the first one's result, so
that a name or value error often meets a syntax error.  Each is stored as
its edits, (start, end, replacement) in turn, with the outcome of parsing
the edited text:
the sha256 of repr(graph) + repr(graph.plan), or the exception's type,
message, line and column.  tests/test_dsl.py replays the corpus, so any
change to what the front end makes or reports of these texts shows there.

Run it from the repository root against the parser whose behaviour is to
be frozen:

    PYTHONPATH=src python tests/make_parse_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from uqc import BUILTIN_SOURCES, parse_model

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "parse_corpus.json"
MUTATIONS_PER_TEXT = 400
SEED = 20261021

# Characters a mutation inserts or puts in place of another: the language's
# own, a few it refuses, and a non-ASCII letter.
ALPHABET = "xyzab_AZ019.eE+-*/^()=,~# \t\n$@;é"
# Words a name or number is replaced with, besides the text's own.
WORDS = ("pi", "sin", "input", "param", "output", "Uniform", "Normal", "zz",
         "1e999", "0", "2.5e-3", ".5", "7.")
PUNCTUATION = "-+*/^()=,~"
# A token for dropping, swapping and replacing: a name, a number, a comment, or any
# other single character but a blank.
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9.]+(?:[eE][+-]?[0-9]+)?|#[^\n]*|[^ \t]")


def base_texts() -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    from test_dsl import LITERAL_FORMS_SOURCE, SEP6

    return {**BUILTIN_SOURCES, "literal-forms": LITERAL_FORMS_SOURCE,
            "sep6": SEP6.read_text(encoding="utf-8")}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(text: str) -> dict:
    """What parsing `text` gives: its graph and plan, digested, or its error."""
    try:
        graph = parse_model(text)
        return {"sha256": digest(repr(graph) + repr(graph.plan))}
    except Exception as exc:  # every error is part of the observable behaviour
        return {"type": type(exc).__name__, "message": str(exc),
                "line": getattr(exc, "line", None), "column": getattr(exc, "column", None)}


def apply(text: str, edits: list[list]) -> str:
    for start, end, replacement in edits:
        text = text[:start] + replacement + text[end:]
    return text


def edit(text: str, rng: random.Random) -> list:
    """One random edit of a text that holds at least two tokens."""
    tokens = [(m.start(), m.end()) for m in _WORD.finditer(text)]
    kind = rng.randrange(6)
    if kind == 0:    # insert a character
        at = rng.randrange(len(text) + 1)
        return [at, at, rng.choice(ALPHABET)]
    if kind == 1:    # delete a character
        at = rng.randrange(len(text))
        return [at, at + 1, ""]
    if kind == 2:    # replace a character
        at = rng.randrange(len(text))
        return [at, at + 1, rng.choice(ALPHABET)]
    if kind == 3:    # drop a token
        start, end = rng.choice(tokens)
        return [start, end, ""]
    if kind == 4:    # swap a token with the next one
        index = rng.randrange(len(tokens) - 1)
        (s1, e1), (s2, e2) = tokens[index], tokens[index + 1]
        return [s1, e2, text[s2:e2] + text[e1:s2] + text[s1:e1]]
    start, end = rng.choice(tokens)  # replace a token with another of its sort
    if text[start] in PUNCTUATION:
        return [start, end, rng.choice(PUNCTUATION)]
    words = [word for word in (*WORDS, *(text[s:e] for s, e in tokens))
             if word[0].isalpha() == text[start].isalpha()]
    return [start, end, rng.choice(words)]


def mutations(text: str, rng: random.Random, count: int) -> list[list[list]]:
    """`count` distinct mutations of `text`, each changing it."""
    cases: list[list[list]] = []
    seen = {text}
    while len(cases) < count:
        edits = [edit(text, rng)]
        once = apply(text, edits)
        if rng.random() < 0.25 and len(_WORD.findall(once)) > 1:
            edits.append(edit(once, rng))
        mutated = apply(text, edits)
        if mutated not in seen:
            seen.add(mutated)
            cases.append(edits)
    return cases


def build() -> dict:
    rng = random.Random(SEED)
    corpus = {}
    for name, text in base_texts().items():
        corpus[name] = {"sha256": digest(text), "cases": [
            {"edits": edits, "outcome": outcome(apply(text, edits))}
            for edits in mutations(text, rng, MUTATIONS_PER_TEXT)]}
    return corpus


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(build(), indent=0, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {CORPUS}")
