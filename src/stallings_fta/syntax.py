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
from .words import word_str


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


MAX_WORD_LETTERS = 10**6  # before free reduction; bounds what parsing allocates

_LETTER_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$")
_VECTOR_RE = re.compile(r"t\^(?:\((-?\d+(?:,-?\d+)*)?\)|(-?\d+))$")
_GROUP_RE = re.compile(r"F(\d+)$")
_FREE_PART_RE = re.compile(r"Z(?:\^(\d+))?$")
_TORSION_RE = re.compile(r"Z/(\d+)Z?$")


def parse_element(text: str, ambient: Ambient, line: int = 0, col_base: int = 0) -> GroupElement:
    """One element in the text syntax, canonicalized."""
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
            idx = int(m.group(1))
            if not (1 <= idx <= ambient.n):
                raise ProblemParseError(
                    f"generator x{idx} out of range (free rank {ambient.n})", line, col
                )
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if len(word) + abs(exp) > MAX_WORD_LETTERS:
                raise ProblemParseError(
                    f"word longer than {MAX_WORD_LETTERS} letters", line, col
                )
            word.extend([idx if exp > 0 else -idx] * abs(exp))
            continue
        m = _VECTOR_RE.match(token)
        if m:
            if m.group(2) is not None:
                coords = (int(m.group(2)),)
            elif m.group(1):
                coords = tuple(int(p) for p in m.group(1).split(","))
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
    return ambient.element(word, vec if vec is not None else ambient.zero())


def format_vector(vec) -> str:
    return "t^(" + ",".join(str(a) for a in vec) + ")"


def format_element(g: GroupElement) -> str:
    parts = []
    if g.word:
        parts.append(word_str(g.word))
    if any(g.vec):
        parts.append(format_vector(g.vec))
    return " ".join(parts) if parts else "1"


def parse_group(text: str, line: int = 0) -> Ambient:
    parts = [p.strip() for p in text.split("x")]
    if not parts or not _GROUP_RE.match(parts[0]):
        raise ProblemParseError(
            "group must start with the free part, e.g. 'F2'", line, 1
        )
    n = int(_GROUP_RE.match(parts[0]).group(1))
    m_free = 0
    torsion: list[int] = []
    for part in parts[1:]:
        m = _FREE_PART_RE.match(part)
        if m:
            if torsion:
                raise ProblemParseError("free factors must precede torsion", line, 1)
            m_free += int(m.group(1)) if m.group(1) is not None else 1
            continue
        m = _TORSION_RE.match(part)
        if m:
            torsion.append(int(m.group(1)))
            continue
        raise ProblemParseError(f"cannot read group factor {part!r}", line, 1)
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
    """Parse a problem file: a group line, then 'NAME: elem, elem, ...' lines."""
    ambient = None
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
        offset = len(raw) - len(raw.lstrip()) + len(name) + 1
        for chunk, start in _split_outside_parens(rest):
            if chunk.strip():
                gens.append(parse_element(chunk, ambient, lineno, offset + start))
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


def format_problem(problem: ProblemFile) -> str:
    lines = [f"group {format_group(problem.ambient)}"]
    for name, gens in problem.subgroups:
        lines.append(f"{name}: " + ", ".join(format_element(g) for g in gens))
    return "\n".join(lines) + "\n"
