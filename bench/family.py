"""Seeded inputs for the benchmark and their by-construction answers.

Every subgroup comes from one family in F_n x Z^m.  The letters act on
{0..N-1}: x1 as the N-cycle i -> i+1 and every other letter as a seeded
permutation.  S = Stab(0) is the finite-index free part; its Schreier basis
(transversal x1^i) is x1^N plus x1^i x_k x1^-sigma_k(i) for k >= 2.  Each
generator w gets the tail t^phi(w) for a seeded homomorphism phi: F_n -> Z^m,
and with m = 1 the abelian generator t^K may be added, so that

    H = {w t^a : w in S, a = phi(w) mod K}.

Membership, indices and intersection ranks then follow from the permutation
tables and integer arithmetic alone.  Nothing here imports the library: the
expected answers never come from the code being measured.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

Word = tuple[int, ...]
Vector = tuple[int, ...]


@dataclass(frozen=True)
class Family:
    """One member of the family: actions of the letters and the map phi."""

    n: int
    actions: tuple[tuple[int, ...], ...]  # actions[k-1][i] = i . x_k
    phi: tuple[Vector, ...]  # phi[k-1] = phi(x_k) in Z^m
    K: Optional[int] = None  # abelian generator t^K (m = 1 only)

    @property
    def N(self) -> int:
        return len(self.actions[0])

    @property
    def m(self) -> int:
        return len(self.phi[0])

    def act(self, i: int, word: Sequence[int]) -> int:
        """The coset i . word under the right action of the letters."""
        for letter in word:
            i = self.actions[letter - 1][i] if letter > 0 else self.inverses[-letter - 1][i]
        return i

    @cached_property
    def inverses(self) -> tuple[tuple[int, ...], ...]:
        inv = []
        for perm in self.actions:
            out = [0] * len(perm)
            for i, j in enumerate(perm):
                out[j] = i
            inv.append(tuple(out))
        return tuple(inv)

    def phi_of(self, word: Sequence[int]) -> Vector:
        out = [0] * self.m
        for letter in word:
            sign = 1 if letter > 0 else -1
            for j, a in enumerate(self.phi[abs(letter) - 1]):
                out[j] += sign * a
        return tuple(out)

    def in_free_part(self, word: Sequence[int]) -> bool:
        """w in S, i.e. w fixes the coset 0."""
        return self.act(0, word) == 0

    def contains(self, word: Sequence[int], vec: Sequence[int]) -> bool:
        """w t^vec in H."""
        if not self.in_free_part(word):
            return False
        diff = [a - b for a, b in zip(vec, self.phi_of(word))]
        if self.K is None:
            return not any(diff)
        return diff[0] % self.K == 0

    def schreier_basis(self) -> list[Word]:
        """Free basis of S from the transversal x1^i; rank N(n-1) + 1."""
        N = self.N
        out = [(1,) * N]
        for k in range(2, self.n + 1):
            perm = self.actions[k - 1]
            out.extend(reduce_word((1,) * i + (k,) + (-1,) * perm[i]) for i in range(N))
        return out

    def generators(self) -> list[tuple[Word, Vector]]:
        """Schreier basis with phi tails, then t^K when K is set."""
        gens = [(w, self.phi_of(w)) for w in self.schreier_basis()]
        if self.K is not None:
            gens.append(((), (self.K,)))
        return gens


def inverse(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def reduce_word(word: Sequence[int]) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def finite_index(rng: random.Random, n: int, N: int, phi: Sequence[Vector],
                 K: Optional[int] = None) -> Family:
    """x1 is the N-cycle; x2..xn get seeded permutations of {0..N-1}."""
    actions = [tuple((i + 1) % N for i in range(N))]
    for _ in range(n - 1):
        perm = list(range(N))
        rng.shuffle(perm)
        actions.append(tuple(perm))
    return Family(n, tuple(actions), tuple(tuple(v) for v in phi), K)


def redundant_presentation(rng: random.Random, fam: Family, extra_letters: int) -> list[tuple[Word, Vector]]:
    """The generators, shuffled, plus products, inverses and t^K-shifted copies.

    Every added element lies in H by construction; the products close
    cycles in the flower, so folding has to perform closed folds.  Products
    are added until they hold `extra_letters` letters, so the flower size
    barely depends on the seed.
    """
    gens = fam.generators()
    free = [g for g in gens if g[0]]
    out = list(gens)
    added = 0
    while added < extra_letters:
        (u, a), (v, b) = rng.choice(free), rng.choice(free)
        if rng.random() < 0.5:
            v, b = inverse(v), tuple(-x for x in b)
        shift = fam.K * rng.randint(-2, 2) if fam.K else 0
        vec = tuple(x + y for x, y in zip(a, b))
        word = reduce_word(u + v)
        out.append((word, (vec[0] + shift,) + vec[1:]))
        added += len(word)
    rng.shuffle(out)
    return out


def random_word(rng: random.Random, n: int, length: int) -> Word:
    """A reduced word of the given length over x1..xn."""
    letters = [k for k in range(-n, n + 1) if k]
    out = [rng.choice(letters)]
    while len(out) < length:
        # 2n - 1 choices: every letter but the inverse of the last one
        letter = letters[rng.randrange(2 * n - 1)]
        out.append(letter if letter != -out[-1] else letters[-1])
    return tuple(out[:length])


def member_query(rng: random.Random, fam: Family, kind: int, length: int) -> tuple[Word, Vector, bool]:
    """(word, vector, expected answer) of one of three kinds.

    kind 0: a member; kind 1: the same kind of word with a vector off
    phi(w) + KZ; kind 2: a word outside S.
    """
    u = random_word(rng, fam.n, length)
    if kind == 2:
        if fam.in_free_part(u):
            u = reduce_word(u + (1,))
        vec = (rng.randint(-50, 50),)
        return u, vec, False
    w = reduce_word(u + (-1,) * fam.act(0, u))
    vec = fam.phi_of(w)[0] + fam.K * rng.randint(-5, 5)
    if kind == 1:
        vec += rng.randint(1, fam.K - 1)
    return w, (vec,), kind == 0


def format_query(word: Sequence[int], vec: Sequence[int]) -> str:
    """The text syntax: runs of one letter become powers, then t^(...)."""
    tokens = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        exp = (j - i) * (1 if word[i] > 0 else -1)
        tokens.append(f"x{abs(word[i])}" + ("" if exp == 1 else f"^{exp}"))
        i = j
    tokens.append("t^(" + ",".join(str(a) for a in vec) + ")")
    return " ".join(tokens)


def fg_pair(rng: random.Random, n1: int, n2: int, K: int) -> tuple[Family, Family]:
    """Two family members with independent permutations, sharing L = <K>.

    With gcd(n1, n2) = 1, phi1(x1) = phi2(x1) mod K and phi2(x2) - phi1(x2) a
    unit mod K, the diagonal orbit of (0, 0, 0) is all of [n1] x [n2] x Z/K,
    so the intersection rank is the same for every seed.
    """
    if math.gcd(n1, n2) != 1:
        raise ValueError("orders must be coprime")
    a, b = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
    unit = rng.choice([u for u in range(1, K) if math.gcd(u, K) == 1])
    f1 = finite_index(rng, 2, n1, [(a,), (b,)], K)
    f2 = finite_index(
        rng, 2, n2, [(a + K * rng.randint(-1, 1),), (b + unit + K * rng.randint(-1, 1),)], K
    )
    return f1, f2


def intersection_free_rank(f1: Family, f2: Family) -> int:
    """1 + the orbit of (0, 0, 0) under the diagonal action on [N1] x [N2] x Z/K.

    The orbit indexes the free projection of H1 & H2 in F2, whose rank is
    index + 1 (Schreier).
    """
    K = f1.K
    start = (0, 0, 0)
    seen = {start}
    queue = deque([start])
    inv1, inv2 = f1.inverses, f2.inverses
    while queue:
        i, j, c = queue.popleft()
        for k in range(f1.n):
            d = f1.phi[k][0] - f2.phi[k][0]
            for nxt in (
                (f1.actions[k][i], f2.actions[k][j], (c + d) % K),
                (inv1[k][i], inv2[k][j], (c - d) % K),
            ):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen) + 1


@dataclass(frozen=True)
class StreamShape:
    """A non-finitely-generated pair, up to the seeded signs and letter order.

    coords[i] is the coordinate of Z^m that the i-th seeded letter maps to
    (with a seeded sign); the remaining letters map to 0.  With index > 1,
    S has that index and phi(x1) = 0, so the Schreier generators read only
    +-1 and every seed grows the same Cayley ball.
    """

    name: str
    n: int
    m: int
    coords: tuple[int, ...]
    index: int  # N of S; 1 means S = F_n
    radii: tuple[int, ...]  # one op per radius


def stream_family(rng: random.Random, shape: StreamShape) -> Family:
    letters = list(range(1, shape.n)) if shape.index > 1 else list(range(shape.n))
    rng.shuffle(letters)
    images = [(0,) * shape.m] * shape.n
    for letter, j in zip(letters, shape.coords):
        sign = rng.choice((-1, 1))
        images[letter] = tuple(sign if i == j else 0 for i in range(shape.m))
    return finite_index(rng, shape.n, shape.index, images)
