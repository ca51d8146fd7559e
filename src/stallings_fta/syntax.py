"""Text syntax for group elements and problem files.

Element grammar: whitespace-separated word tokens `x3`, `x3^-1`, `x1^4`,
followed by an optional abelian tail `t^(a1,...,am)` (or `t^k` when the
abelian part has a single coordinate); `1` denotes the identity.

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

# re.ASCII: \d is 0-9 only, so a digit of another script is a bad token
_LETTER_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$", re.ASCII)
_VECTOR_RE = re.compile(r"t\^(?:\((-?\d+(?:,-?\d+)*)?\)|(-?\d+))$", re.ASCII)
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


def parse_element(text: str, ambient: Ambient, line: int = 0, col_base: int = 0) -> GroupElement:
    """One element in the text syntax, canonicalized."""
    return _parse_element(text, ambient, line, col_base, MAX_WORD_LETTERS)[0]


def _parse_element(text: str, ambient: Ambient, line: int, col_base: int, budget: int):
    """(element, letters read before free reduction), reading at most budget letters."""
    word: list[int] = []
    vec = None
    for match in re.finditer(r"\S+", text):
        token = match.group()
        col = col_base + match.start() + 1
        if vec is not None:
            raise ProblemParseError("abelian tail must come last", line, col)
        if token == "1":
            continue
        m = _LETTER_RE.match(token)
        if m:
            idx = _literal(m.group(1), line, col)
            if not (1 <= idx <= ambient.n):
                raise ProblemParseError(
                    f"generator x{idx} out of range (free rank {ambient.n})", line, col
                )
            exp = _literal(m.group(2), line, col) if m.group(2) is not None else 1
            if len(word) + abs(exp) > budget:
                raise ProblemParseError(
                    f"more than {MAX_WORD_LETTERS} letters before free reduction", line, col
                )
            word.extend([idx if exp > 0 else -idx] * abs(exp))
            continue
        m = _VECTOR_RE.match(token)
        if m:
            if m.group(2) is not None:
                coords = (_literal(m.group(2), line, col),)
            elif m.group(1):
                coords = tuple(_literal(p, line, col) for p in m.group(1).split(","))
            else:
                coords = ()
            if len(coords) != ambient.m:
                raise ProblemParseError(
                    f"abelian vector has {len(coords)} coordinates, expected {ambient.m}",
                    line,
                    col,
                )
            vec = coords
            continue
        raise ProblemParseError(f"cannot read token {token!r}", line, col)
    return ambient.element(word, vec if vec is not None else ambient.zero()), len(word)


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
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            yield text[start:i], start
            start = i + 1
    yield text[start:], start
