"""The element reader and the comma split against their reference versions
in support, on seeded texts that mix valid tokens with mutated ones, and
the letter budget, which counts letters before free reduction."""

import random
from collections import Counter

import pytest

from stallings_fta.abelian import AbelianSpec
from stallings_fta.enriched import Ambient
from stallings_fta.syntax import (
    MAX_WORD_LETTERS,
    ProblemParseError,
    _parse_element,
    _split_outside_parens,
    parse_element,
    parse_problem,
)
from support import (
    LONG_LITERAL,
    cancelling_tokens,
    element_tokens,
    joined,
    letter_tokens,
    mutated_token,
    reference_parse_element,
    reference_split_outside_parens,
    tail_token,
)

AMBIENTS = (
    Ambient(2, AbelianSpec(1)),
    Ambient(3, AbelianSpec(2)),
    Ambient(2, AbelianSpec(1, (6,))),
    Ambient(2, AbelianSpec(0, (2, 4))),
    Ambient(2, AbelianSpec(0)),
)
TEXTS = 3000
F2Z = AMBIENTS[0]


def _outcome(parse, *args):
    """(element, letters read), or the error's message, line and column."""
    try:
        return parse(*args)
    except ProblemParseError as err:
        return str(err), err.line, err.col


def _mixed_text(rng, ambient):
    """Valid tokens with mutated ones among them, sometimes a token after
    the tail, sometimes glued to their neighbours; half the time a run of
    one-letter tokens that the next token cancels in part (its kind is
    returned with the text), sometimes an out-of-range generator with a
    power past the interpreter's digit limit."""
    tokens = element_tokens(rng, ambient, max_groups=8)
    kind = None
    if rng.random() < 0.5:
        run, kind = cancelling_tokens(rng, ambient)
        tail = bool(tokens) and tokens[-1].startswith("t^")
        at = rng.randint(0, len(tokens) - tail)  # before the tail
        tokens[at:at] = run
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        tokens.insert(rng.randint(0, len(tokens)), mutated_token(rng, ambient))
    if rng.random() < 0.02:
        overlong = f"x{ambient.n + rng.randint(1, 3)}^{rng.choice(('', '-'))}{LONG_LITERAL}"
        tokens.insert(rng.randint(0, len(tokens)), overlong)
    if rng.random() < 0.1:
        tokens += [tail_token(rng, ambient)] + letter_tokens(rng, ambient)
    return joined(rng, tokens, glue=0.05), kind


def test_reader_matches_the_reference():
    """Every outcome, errors with their line and column included, matches
    the reference.  The counts make sure that each error branch and both
    reduction branches (one letter, a longer power) are compared, the
    reductions at nonzero column offsets."""
    rng = random.Random("syntax:differential")
    kinds, reductions = Counter(), Counter()
    overlong_out_of_range = 0
    for i in range(TEXTS):
        ambient = AMBIENTS[i % len(AMBIENTS)]
        text, kind = _mixed_text(rng, ambient)
        budget = MAX_WORD_LETTERS if rng.random() < 0.7 else rng.randint(0, 20)
        col_base = rng.randint(0, 12)
        args = (text, ambient, rng.randint(0, 3), col_base, budget)
        got = _outcome(_parse_element, *args)
        assert got == _outcome(reference_parse_element, *args), text
        if isinstance(got[0], str):
            message, _, col = got
            kinds[message.split(": ", 1)[-1][:16]] += 1
            token = text[col - col_base - 1:].split(maxsplit=1)[0]
            if "out of range" in message and LONG_LITERAL in token:
                overlong_out_of_range += 1
        else:
            kinds["ok"] += 1
            reductions[kind if col_base else None] += 1
    assert kinds["ok"] >= 600
    for kind in ("cannot read toke", "generator x0 out", "abelian tail mus",
                 "integer literal ", "more than 100000"):
        assert kinds[kind] >= 20, kinds
    assert overlong_out_of_range >= 5
    assert reductions["one"] >= 100 and reductions["power"] >= 100, reductions


def test_letter_budget_counts_cancelled_letters():
    half = MAX_WORD_LETTERS // 2 + 1
    text = f"x1^{half} x1^-{half}"
    with pytest.raises(ProblemParseError, match="letters before free reduction") as info:
        parse_element(text, F2Z)
    assert info.value.col == text.index(" x1") + 2


def test_cancelled_letters_fill_the_budget_exactly():
    k = MAX_WORD_LETTERS // 2
    g, letters = _parse_element(f"x1^{k} x1^-{k}", F2Z, 0, 0, MAX_WORD_LETTERS)
    assert (g, letters) == (F2Z.identity(), 2 * k)
    assert parse_element(f"x2^-{k} x2^{k} t^3", F2Z) == F2Z.element((), (3,))


def test_split_matches_the_reference():
    """Unbalanced parentheses included: a ')' at depth 0 takes the depth
    below 0, and commas split only back at depth 0."""
    rng = random.Random("syntax:split")
    unbalanced = 0
    for _ in range(2000):
        text = "".join(rng.choice("(),,x1 t^") for _ in range(rng.randint(0, 24)))
        assert list(_split_outside_parens(text)) == list(reference_split_outside_parens(text))
        unbalanced += text.count("(") != text.count(")")
    assert unbalanced >= 1000


@pytest.mark.parametrize("text, message, line", [
    ("group F2 x Z/2Z x Z\n", "free factors must precede torsion", 1),
    ("# no group\nH: x1\n", "expected a 'group ...' line first", 2),
    ("group F2\nH x1\n", "expected 'NAME: element, element, ...'", 2),
    ("group F2\n1H: x1\n", "bad subgroup name '1H'", 2),
    ("group F2\n : x1\n", "bad subgroup name ''", 2),
    ("group F2\nH: x1\n\nH: x2\n", "duplicate subgroup name 'H'", 4),
    ("# only a comment\n\n", "empty problem: no 'group' line found", 0),
], ids=["torsion-first", "no-group-line", "no-colon", "bad-name", "empty-name", "duplicate-name",
        "empty-problem"])
def test_line_errors(text, message, line):
    with pytest.raises(ProblemParseError) as info:
        parse_problem(text)
    col = 1 if line else 0
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == (f"line {line}, col {col}: {message}" if line else message)
