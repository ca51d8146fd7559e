"""Text syntax for group elements and problem files.

Element grammar: word tokens `x3`, `x3^-1`, `x1^4` separated by any Unicode
whitespace, followed by an optional abelian tail `t^(a1,...,am)` (or `t^k`
when the abelian part has a single coordinate); `1` denotes the identity.
Digits are ASCII only.  One scan reads the tokens and freely reduces the
word as it goes; the letter budget counts letters before that reduction.
A token's column, and the error of a literal past the interpreter's digit
limit, are worked out only when the token fails.

Problem files declare the ambient group and named subgroups:

    # free rank, then free-abelian rank and torsion orders
    group F2 x Z^2 x Z/6Z
    H1: x1^3 t^(1,0,2), x2 x1, t^(0,6,0)
    H2: x1^2, x2 x1 x2^-1

Parsing is strict and reports the line and column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abelian import AbelianSpec
from .enriched import Ambient, GroupElement


class ProblemParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


@dataclass(frozen=True)
class ProblemFile:
    ambient: Ambient
    subgroups: tuple[tuple[str, tuple[GroupElement, ...]], ...]

    def subgroup(self, name: str) -> tuple[GroupElement, ...]:
        for key, gens in self.subgroups:
            if key == name:
                return gens
        known = ", ".join(key for key, _ in self.subgroups) or "none"
        raise KeyError(f"no subgroup named {name!r} (defined: {known})")


MAX_WORD_LETTERS = 10**6  # per element and per problem file, before free reduction
MAX_RANK = 10**4  # free rank n and abelian rank m; work such as letter orders grows with them

# One match per token: a letter, a tail, or any other run of non-whitespace.
# Tokens end at Unicode whitespace, but digits are 0-9 only.
_TOKEN_RE = re.compile(
    r"x([0-9]+)(?:\^(-?[0-9]+))?(?!\S)"
    r"|t\^(?:\(((?:-?[0-9]+(?:,-?[0-9]+)*)?)\)|(-?[0-9]+))(?!\S)"
    r"|\S+"
)
# re.ASCII: \d is 0-9 only, so a digit of another script is a bad token
_GROUP_RE = re.compile(r"F(\d+)$", re.ASCII)
_FREE_PART_RE = re.compile(r"Z(?:\^(\d+))?$", re.ASCII)
_TORSION_RE = re.compile(r"Z/(\d+)Z?$", re.ASCII)


def _literal(digits: str, line: int, col: int) -> int:
    """int(digits), or a ProblemParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ProblemParseError(
            f"integer literal of {len(digits)} digits is too long", line, col
        ) from None


def parse_element(text: str, ambient: Ambient) -> GroupElement:
    """One element in the text syntax, canonicalized."""
    return _parse_element(text, ambient, 0, 0, MAX_WORD_LETTERS)[0]


def _parse_element(text: str, ambient: Ambient, line: int, col_base: int, budget: int):
    """(element, letters read before free reduction), reading at most budget
    letters and freely reducing the word as it is read.  A token's column,
    and _literal's error, are worked out only in the branches that raise."""
    n = ambient.n
    word = [0]  # a sentinel under the word: no letter cancels it
    read = 0
    vec = None
    matches = _TOKEN_RE.finditer(text)
    for match in matches:
        digits, power, coords, scalar = match.groups()
        if digits is not None:
            try:
                idx = int(digits)
            except ValueError:  # past the interpreter's digit limit
                idx = _literal(digits, line, col_base + match.start() + 1)
            if not 0 < idx <= n:
                raise ProblemParseError(f"generator x{idx} out of range (free rank {n})",
                                        line, col_base + match.start() + 1)
            try:
                exp = 1 if power is None else int(power)
            except ValueError:
                exp = _literal(power, line, col_base + match.start() + 1)
            if exp > 0:
                letter, count = idx, exp
            else:
                letter, count = -idx, -exp
            read += count
            if read > budget:
                raise ProblemParseError(
                    f"more than {MAX_WORD_LETTERS} letters before free reduction",
                    line, col_base + match.start() + 1)
            if count == 1:
                if word[-1] == -letter:
                    word.pop()
                else:
                    word.append(letter)
            else:
                while count and word[-1] == -letter:
                    word.pop()
                    count -= 1
                word += [letter] * count
        elif coords is not None or scalar is not None:
            col = col_base + match.start() + 1
            # t^() splits to one empty part and has no coordinates
            vec = tuple(_literal(p, line, col) for p in (scalar or coords).split(",") if p)
            if len(vec) != ambient.m:
                raise ProblemParseError(
                    f"abelian vector has {len(vec)} coordinates, expected {ambient.m}", line, col
                )
            after = next(matches, None)  # so the tail branch runs once at most
            if after is not None:
                raise ProblemParseError(
                    "abelian tail must come last", line, col_base + after.start() + 1
                )
            vec = ambient.abelian.canonicalize(vec)
        elif match.group() != "1":
            raise ProblemParseError(
                f"cannot read token {match.group()!r}", line, col_base + match.start() + 1
            )
    return GroupElement(tuple(word[1:]), ambient.zero() if vec is None else vec), read


def format_element(g: GroupElement) -> str:
    """The element as the problem syntax writes it, e.g. "x1^2 x2^-1 t^(1,0)"."""
    return str(g)


def parse_group(text: str, line: int = 0) -> Ambient:
    parts = [p.strip() for p in text.split("x")]
    if not parts or not _GROUP_RE.match(parts[0]):
        raise ProblemParseError(
            "group must start with the free part, e.g. 'F2'", line, 1
        )
    n = _literal(_GROUP_RE.match(parts[0]).group(1), line, 1)
    if n > MAX_RANK:
        raise ProblemParseError(f"free rank {n} is above {MAX_RANK}", line, 1)
    m_free = 0
    torsion: list[int] = []
    for part in parts[1:]:
        m = _FREE_PART_RE.match(part)
        if m:
            if torsion:
                raise ProblemParseError("free factors must precede torsion", line, 1)
            m_free += _literal(m.group(1), line, 1) if m.group(1) is not None else 1
            continue
        m = _TORSION_RE.match(part)
        if m:
            torsion.append(_literal(m.group(1), line, 1))
            continue
        raise ProblemParseError(f"cannot read group factor {part!r}", line, 1)
    if m_free + len(torsion) > MAX_RANK:
        raise ProblemParseError(
            f"abelian rank {m_free + len(torsion)} is above {MAX_RANK}", line, 1
        )
    try:
        spec = AbelianSpec(m_free, tuple(torsion))
    except ValueError as exc:
        raise ProblemParseError(str(exc), line, 1) from None
    return Ambient(n, spec)


def format_group(ambient: Ambient) -> str:
    parts = [f"F{ambient.n}"]
    if ambient.abelian.m_free == 1:
        parts.append("Z")
    elif ambient.abelian.m_free > 1:
        parts.append(f"Z^{ambient.abelian.m_free}")
    parts.extend(f"Z/{d}Z" for d in ambient.abelian.torsion)
    return " x ".join(parts)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file: a group line, then 'NAME: elem, elem, ...' lines.
    All its elements together spell at most MAX_WORD_LETTERS letters."""
    ambient = None
    budget = MAX_WORD_LETTERS
    subgroups: list[tuple[str, tuple[GroupElement, ...]]] = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ambient is None:
            if not stripped.startswith("group"):
                raise ProblemParseError("expected a 'group ...' line first", lineno, 1)
            ambient = parse_group(stripped[len("group"):].strip(), lineno)
            continue
        if ":" not in stripped:
            raise ProblemParseError("expected 'NAME: element, element, ...'", lineno, 1)
        name, _, rest = stripped.partition(":")
        name = name.strip()
        if not name or not name.isidentifier():
            raise ProblemParseError(f"bad subgroup name {name!r}", lineno, 1)
        if name in names:
            raise ProblemParseError(f"duplicate subgroup name {name!r}", lineno, 1)
        names.add(name)
        gens = []
        offset = raw.index(":") + 1  # rest starts just after the colon
        for chunk, start in _split_outside_parens(rest):
            if chunk.strip():
                g, letters = _parse_element(chunk, ambient, lineno, offset + start, budget)
                budget -= letters
                gens.append(g)
        subgroups.append((name, tuple(gens)))
    if ambient is None:
        raise ProblemParseError("empty problem: no 'group' line found")
    return ProblemFile(ambient, tuple(subgroups))


def _split_outside_parens(text: str):
    """Split on commas at parenthesis depth 0; yields (chunk, start offset)."""
    depth = 0
    start = 0
    for match in re.finditer(r"[(),]", text):
        if match.group() == "(":
            depth += 1
        elif match.group() == ")":
            depth -= 1
        elif depth == 0:
            yield text[start:match.start()], start
            start = match.end()
    yield text[start:], start
