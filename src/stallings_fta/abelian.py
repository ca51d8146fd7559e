"""Exact integer linear algebra over finitely generated abelian groups.

The ambient group is A = Z^m' x Z/d1 x ... x Z/dk with 2 <= d1 | d2 | ... | dk,
described by an AbelianSpec.  Elements are integer vectors of length
m = m' + k whose torsion coordinates work modulo the corresponding d_i.

Subgroups of A are stored as integer lattices in Z^m that contain the
torsion relation lattice R = <d_i * e_{m'+i}>, kept in row Hermite normal
form with zero rows removed.  With that normalization, value equality of
AbelianSubgroup coincides with equality of the subgroups they denote, and
every operation (sum, intersection, preimages, indices, transversals,
coset witnesses) is plain lattice arithmetic.

Every Hermite form comes from one row elimination, _hnf_inplace.  It carries
one tag vector per row through the same row operations and returns the
pivot map {pivot column: row}, the one way a Hermite form is held and
solved against.  The tags say what is tracked: identity tags give kernels
and solutions, each row's L1-part gives coset witnesses and L1 & L2, and
e_i on row i of D gives the preimage (L)D^-1.  snf is the one other
elimination.

All arithmetic uses Python integers; intermediate entries in normal-form
computations can exceed machine words even for small inputs.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]
Rank = int | float  # a rank or an index: an int, or INFINITY

INFINITY: Rank = float("inf")


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(map(operator.add, u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(map(operator.sub, u, v))


def vec_neg(u: Sequence[int]) -> Vector:
    return tuple(map(operator.neg, u))


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_mat(v: Sequence[int], b: Sequence[Sequence[int]], width: int) -> Vector:
    """Row vector times matrix; width is the number of columns of b."""
    acc = [0] * width
    for coeff, brow in zip(v, b):
        if coeff:
            for j in range(width):
                acc[j] += coeff * brow[j]
    return tuple(acc)


def _row_sub(mat: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        ri, rj = mat[i], mat[j]
        for c in range(len(ri)):
            ri[c] -= q * rj[c]


def _hnf_inplace(mat: list[list[int]], width: int,
                 tags: Optional[list[list[int]]] = None) -> dict[int, list[int]]:
    """Reduce mat to row Hermite normal form in place; return the pivot map.

    Pivots are positive, entries above each pivot lie in [0, pivot), and the
    pivot columns are strictly increasing.  The map sends each pivot column
    to the row of mat whose pivot is there, in row order, so the pivot rows
    are mat[:len(map)] and the zero rows follow.  If tags is given it holds
    one list per row of mat, of any one width, and takes the same row
    operations: each tag ends as the same combination of the original tags
    as its row is of the original rows.  Identity tags give the transform;
    tags past the pivots then span the left kernel.
    """
    nrows = len(mat)
    r = 0
    pivots: dict[int, list[int]] = {}
    for col in range(width):
        while True:
            nz = [i for i in range(r, nrows) if mat[i][col]]
            if not nz:
                break
            # smallest absolute value, first occurrence on ties
            i0 = min(nz, key=lambda i: (abs(mat[i][col]), i))
            if i0 != r:
                mat[r], mat[i0] = mat[i0], mat[r]
                if tags is not None:
                    tags[r], tags[i0] = tags[i0], tags[r]
            clean = True
            for i in range(r + 1, nrows):
                if mat[i][col]:
                    q = mat[i][col] // mat[r][col]
                    _row_sub(mat, i, r, q)
                    if tags is not None:
                        _row_sub(tags, i, r, q)
                    if mat[i][col]:
                        clean = False
            if clean:
                break
        if not nz:
            continue
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
            if tags is not None:
                tags[r] = [-a for a in tags[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            _row_sub(mat, i, r, q)
            if tags is not None:
                _row_sub(tags, i, r, q)
        pivots[col] = mat[r]  # later steps change this row in place only
        r += 1
    return pivots


def _matrix(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """rows as fresh lists, each checked to have width entries."""
    mat = [list(row) for row in rows]
    if any(len(row) != width for row in mat):
        raise ValueError("ragged matrix")
    return mat


def _identity_rows(n: int) -> list[list[int]]:
    return [list(row) for row in mat_identity(n)]


def hnf(rows: Sequence[Sequence[int]], width: Optional[int] = None) -> Matrix:
    """Canonical row Hermite normal form of the lattice spanned by rows.

    Zero rows are removed; the zero lattice yields the empty matrix.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    return tuple(map(tuple, _hnf_inplace(_matrix(rows, width), width).values()))


def kernel(rows: Sequence[Sequence[int]], width: Optional[int] = None) -> Matrix:
    """Basis of the left kernel {x : x @ rows == 0}, one row per basis vector."""
    if width is None:
        width = len(rows[0]) if rows else 0
    tags = _identity_rows(len(rows))
    pivots = _hnf_inplace(_matrix(rows, width), width, tags)
    return tuple(map(tuple, tags[len(pivots):]))


def solve_left(
    rows: Sequence[Sequence[int]], target: Sequence[int],
    width: Optional[int] = None,
) -> Optional[Vector]:
    """Some integer x with x @ rows == target, or None if unsolvable."""
    if width is None:
        width = len(rows[0]) if rows else len(target)
    tags = _identity_rows(len(rows))
    coeff = _solve_hnf(_hnf_inplace(_matrix(rows, width), width, tags), target)
    return None if coeff is None else vec_mat(coeff, tags, len(rows))


def _solve_hnf(pivots: dict[int, Sequence[int]], target: Sequence[int]) -> Optional[list[int]]:
    """Some x with x @ (the pivot rows) == target, for the pivot map of a
    Hermite form; None if target is not in its row space."""
    resid = list(target)
    coeff = []
    for c, row in pivots.items():
        q, rem = divmod(resid[c], row[c])
        if rem:
            return None
        coeff.append(q)
        if q:
            for j in range(c, len(row)):
                resid[j] -= q * row[j]
    if any(resid):
        return None
    return coeff


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form P @ M @ Q == S with unimodular P, Q.

    deltas are the positive invariant factors delta_1 | delta_2 | ...;
    S is diagonal of the input's shape with the deltas on the diagonal.
    """

    deltas: Vector
    P: Matrix
    Q: Matrix
    S: Matrix

    @property
    def s(self) -> int:
        return len(self.deltas)

    def deltas_padded(self, r: int) -> Vector:
        """Invariant factors extended by zeros up to length r."""
        return self.deltas + (0,) * (r - len(self.deltas))


def snf(rows: Sequence[Sequence[int]], width: Optional[int] = None) -> SnfDecomposition:
    """Smith normal form of an integer matrix.

    Pivot choice: smallest absolute value, first occurrence in row-major
    order on ties.  Diagonal entries are normalized to be nonnegative.
    """
    mat = [list(r) for r in rows]
    k = len(mat)
    if width is None:
        width = len(mat[0]) if mat else 0
    p = _identity_rows(k)
    q = _identity_rows(width)

    def col_sub(j: int, t: int, factor: int) -> None:
        if factor:
            for i in range(k):
                mat[i][j] -= factor * mat[i][t]
            for i in range(width):
                q[i][j] -= factor * q[i][t]

    def col_swap(j: int, t: int) -> None:
        for i in range(k):
            mat[i][j], mat[i][t] = mat[i][t], mat[i][j]
        for i in range(width):
            q[i][j], q[i][t] = q[i][t], q[i][j]

    t = 0
    while t < k and t < width:
        # global pivot search in the trailing submatrix
        best = None
        for i in range(t, k):
            for j in range(t, width):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            mat[t], mat[bi] = mat[bi], mat[t]
            p[t], p[bi] = p[bi], p[t]
        if bj != t:
            col_swap(bj, t)
        dirty = False
        for i in range(t + 1, k):
            if mat[i][t]:
                quo = mat[i][t] // mat[t][t]
                _row_sub(mat, i, t, quo)
                _row_sub(p, i, t, quo)
                if mat[i][t]:
                    dirty = True
        for j in range(t + 1, width):
            if mat[t][j]:
                quo = mat[t][j] // mat[t][t]
                col_sub(j, t, quo)
                if mat[t][j]:
                    dirty = True
        if dirty:
            continue
        # row and column are clear; enforce divisibility of the rest
        viol = None
        for i in range(t + 1, k):
            for j in range(t + 1, width):
                if mat[i][j] % mat[t][t]:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            _row_sub(mat, t, viol, -1)
            _row_sub(p, t, viol, -1)
            continue
        if mat[t][t] < 0:
            mat[t] = [-a for a in mat[t]]
            p[t] = [-a for a in p[t]]
        t += 1

    deltas = tuple(mat[i][i] for i in range(t) if mat[i][i])
    return SnfDecomposition(
        deltas=deltas,
        P=tuple(tuple(r) for r in p),
        Q=tuple(tuple(r) for r in q),
        S=tuple(tuple(r) for r in mat),
    )


@dataclass(frozen=True)
class AbelianSpec:
    """Shape of the ambient group: Z^m_free x Z/d1 x ... (d1 | d2 | ...)."""

    m_free: int
    torsion: Vector = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if self.m_free < 0:
            raise ValueError("m_free must be nonnegative")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(f"torsion orders must divide in turn: {prev} | {d} fails")
            prev = d

    @property
    def m(self) -> int:
        return self.m_free + len(self.torsion)

    def zero(self) -> Vector:
        return (0,) * self.m

    def relation_rows(self) -> Matrix:
        """Generators d_i * e_{m'+i} of the torsion relation lattice R."""
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.m
            row[self.m_free + i] = d
            rows.append(tuple(row))
        return tuple(rows)

    def canonicalize(self, vec: Sequence[int]) -> Vector:
        """Reduce torsion coordinates into [0, d_i)."""
        vec = tuple(vec)
        if len(vec) != self.m:
            raise ValueError(f"expected vector of length {self.m}, got {len(vec)}")
        head = vec[: self.m_free]
        tail = tuple(a % d for a, d in zip(vec[self.m_free:], self.torsion))
        return head + tail

    def elements(self) -> Iterator[Vector]:
        """All canonical elements, graded by sum of absolute values.

        Within a grade, vectors come in ascending order of the per-coordinate
        key (abs value, sign bit) read left to right, so e.g. in Z the order
        starts 0, 1, -1, 2, -2, ...
        """
        if self.m == 0:
            yield ()
            return
        max_torsion = sum(d - 1 for d in self.torsion)
        for weight in itertools.count():
            if self.m_free == 0 and weight > max_torsion:
                return
            yield from self._vectors_of_weight(0, weight)

    def _vectors_of_weight(self, pos: int, remaining: int) -> Iterator[Vector]:
        if pos == self.m:
            if remaining == 0:
                yield ()
            return
        if pos < self.m_free:
            for mag in range(remaining + 1):
                vals = (0,) if mag == 0 else (mag, -mag)
                for v in vals:
                    for rest in self._vectors_of_weight(pos + 1, remaining - mag):
                        yield (v,) + rest
        else:
            d = self.torsion[pos - self.m_free]
            for v in range(min(remaining, d - 1) + 1):
                for rest in self._vectors_of_weight(pos + 1, remaining - v):
                    yield (v,) + rest


@dataclass(frozen=True)
class AbelianSubgroup:
    """Subgroup of A as the canonical HNF basis of its lifted lattice in Z^m."""

    spec: AbelianSpec
    lattice_basis: Matrix = ()

    def __post_init__(self):
        rows = _matrix((*self.lattice_basis, *self.spec.relation_rows()), self.spec.m)
        # _pivots: pivot column -> the Hermite row whose pivot is there, in row order
        object.__setattr__(self, "_pivots", _hnf_inplace(rows, self.spec.m))
        object.__setattr__(self, "lattice_basis", tuple(map(tuple, self._pivots.values())))

    @classmethod
    def from_generators(cls, spec: AbelianSpec, gens: Sequence[Sequence[int]]) -> "AbelianSubgroup":
        for g in gens:
            if len(g) != spec.m:
                raise ValueError(f"generator length {len(g)} != ambient length {spec.m}")
        return cls(spec, tuple(tuple(g) for g in gens))

    @classmethod
    def trivial(cls, spec: AbelianSpec) -> "AbelianSubgroup":
        return cls(spec, ())

    @classmethod
    def full(cls, spec: AbelianSpec) -> "AbelianSubgroup":
        return cls(spec, mat_identity(spec.m))

    def contains(self, vec: Sequence[int]) -> bool:
        """True iff vec represents an element of this subgroup of A."""
        return not any(self.reduce_mod(vec))

    def generator_rows(self) -> Matrix:
        """Lattice rows with nontrivial image in A (drops pure relation rows)."""
        zero = self.spec.zero()
        return tuple(
            row for row in self.lattice_basis if self.spec.canonicalize(row) != zero
        )

    def reduce_mod(self, vec: Sequence[int]) -> Vector:
        """Canonical coset representative: floor-reduce at each HNF pivot."""
        if len(vec) != self.spec.m:
            raise ValueError("dimension mismatch")
        resid = list(vec)
        for c, row in self._pivots.items():
            q = resid[c] // row[c]
            if q:
                for j in range(c, self.spec.m):
                    resid[j] -= q * row[j]
        return tuple(resid)

    def sum(self, other: "AbelianSubgroup") -> "AbelianSubgroup":
        if self.spec != other.spec:
            raise ValueError("mismatched ambient abelian groups")
        return AbelianSubgroup(self.spec, self.lattice_basis + other.lattice_basis)

    def intersect(self, other: "AbelianSubgroup") -> "AbelianSubgroup":
        """Lattice intersection; correct on subgroups since both contain R."""
        return CosetIntersection(self, other).base

    def index(self) -> Rank:
        """[A : L]; finite iff the lattice has full rank."""
        if len(self.lattice_basis) < self.spec.m:
            return INFINITY
        out = 1
        for c, row in self._pivots.items():
            out *= row[c]
        return out

    def rank(self) -> int:
        """Minimal number of generators of this subgroup of A."""
        h = len(self.lattice_basis)
        if h == 0 or not self.spec.torsion:
            return h
        # express the relation lattice in the basis; kill unit invariant factors
        coeffs = [_solve_hnf(self._pivots, row) for row in self.spec.relation_rows()]
        dec = snf(coeffs, h)
        return h - sum(1 for d in dec.deltas if d == 1)

    def transversal(self) -> Iterator[Vector]:
        """Coset representatives mod L, graded by sum of absolute values.

        Complete when the index is finite; otherwise infinite, so truncate it
        with itertools.islice.
        """
        target = self.index()
        seen = set()
        for vec in self.spec.elements():
            rep = self.reduce_mod(vec)
            if rep in seen:
                continue
            seen.add(rep)
            yield vec
            if len(seen) == target:
                return

    def finite_index_completion(self) -> "AbelianSubgroup":
        """Smallest-effort L' with L a direct summand of L' and [A : L'] finite.

        Via SNF of the lattice basis: in the transformed coordinates the
        lattice is spanned by delta_i * e_i, so appending the remaining
        coordinate vectors (pulled back through Q^-1) completes it.
        """
        m = self.spec.m
        h = len(self.lattice_basis)
        if h == m:
            return self
        dec = snf(self.lattice_basis, m)
        # Q is unimodular, so its Hermite form is the identity and the
        # identity tags end as Q^-1
        q_inv = _identity_rows(m)
        _hnf_inplace(_matrix(dec.Q, m), m, q_inv)
        return AbelianSubgroup(self.spec, self.lattice_basis + tuple(map(tuple, q_inv[dec.s:])))


class CosetIntersection:
    """Witnesses of (a + L1) & (b + L2) for one fixed pair L1, L2.

    The Hermite form of [L1; -L2] is computed once, each row tagged with
    its L1-part (the row itself, or zero), so the elimination carries the
    L1-part of every Hermite row.  The rows past the pivots are zero, so
    their L1-parts span base = L1 & L2; each witness is then one triangular
    solve, reduced modulo base.
    """

    def __init__(self, l1: AbelianSubgroup, l2: AbelianSubgroup):
        if l1.spec != l2.spec:
            raise ValueError("mismatched ambient abelian groups")
        self.m = m = l1.spec.m
        b1, b2 = l1.lattice_basis, l2.lattice_basis
        stacked = _matrix(b1 + tuple(map(vec_neg, b2)), m)
        self._lifts = _matrix(b1, m) + [[0] * m for _ in b2]
        self._pivots = _hnf_inplace(stacked, m, self._lifts)
        self.base = AbelianSubgroup(l1.spec, tuple(map(tuple, self._lifts[len(self._pivots):])))

    def witness(self, a: Sequence[int], b: Sequence[int]) -> Optional[Vector]:
        """Some c in (a + L1) & (b + L2), canonical mod L1 & L2; None iff empty.

        Nonempty exactly when b - a lies in L1 + L2.
        """
        m = self.m
        if len(a) != m or len(b) != m:
            raise ValueError("dimension mismatch")
        coeff = _solve_hnf(self._pivots, vec_sub(b, a))
        if coeff is None:
            return None
        return self.base.reduce_mod(vec_add(a, vec_mat(coeff, self._lifts, m)))


def coset_intersection_witness(
    a: Sequence[int],
    l1: AbelianSubgroup,
    b: Sequence[int],
    l2: AbelianSubgroup,
) -> Optional[Vector]:
    """Some c in (a + L1) & (b + L2), canonical mod L1 & L2; None iff empty.

    One-shot form of CosetIntersection(l1, l2).witness(a, b).
    """
    return CosetIntersection(l1, l2).witness(a, b)


def preimage_under_matrix(l: AbelianSubgroup, d_rows: Sequence[Sequence[int]]) -> AbelianSubgroup:
    """The lattice (L)D^-1 = {v in Z^r : v @ D in L}, canonical in Z^r.

    D is an r x m integer matrix given by rows; the result always contains
    ker D and is returned as a subgroup of the free group Z^r.  Row i of
    [D; -L] is tagged e_i and each row of -L zero, so the tags past the
    pivots are the D-parts of a left kernel basis: they generate (L)D^-1.
    """
    r, m = len(d_rows), l.spec.m
    for row in d_rows:
        if len(row) != m:
            raise ValueError("dimension mismatch")
    b = l.lattice_basis
    tags = _identity_rows(r) + [[0] * r for _ in b]
    pivots = _hnf_inplace(_matrix(tuple(d_rows) + tuple(map(vec_neg, b)), m), m, tags)
    return AbelianSubgroup(AbelianSpec(r), tuple(map(tuple, tags[len(pivots):])))


def image_invariants(
    l: AbelianSubgroup, d_rows: Sequence[Sequence[int]]
) -> tuple[Vector, Matrix]:
    """Invariant factors of Z^r / (L)D^-1 and the image of each e_i, from
    matrices with at most m rows and columns; r is the number of rows of D.

    v -> vD + L maps Z^r / (L)D^-1 isomorphically onto (rowspace D + L) / L.
    With G the Hermite form of [D; L] (at most m rows) and C the rows of L
    in G's basis, that group is Z^len(G) / rowspace C, and the Smith form
    P C Q = S of C splits it into cyclic factors.  Returns (deltas, gens):
    deltas equals the Smith form of the (L)D^-1 basis padded to length r
    (r - k ones, then the k non-unit factors, then zeros), and gens[i] is
    the image of e_i in the k coordinates of the non-unit factors, reduced
    modulo them.  Equal rows of D have equal images, so G is the Hermite
    form of the distinct rows and L (the same lattice, and a Hermite form
    is unique), and each distinct row is solved once.
    """
    m = l.spec.m
    rows = list(dict.fromkeys(map(tuple, d_rows)))  # the distinct rows, in order
    for row in rows:
        if len(row) != m:
            raise ValueError("dimension mismatch")
    pivots = _hnf_inplace(_matrix(rows + list(l.lattice_basis), m), m)
    # every row of D and L lies in G's row space, so these solves are exact
    dec = snf([_solve_hnf(pivots, row) for row in l.lattice_basis], len(pivots))
    factors = dec.deltas_padded(len(pivots))
    keep = [j for j, d in enumerate(factors) if d != 1]
    deltas = (1,) * (len(d_rows) - len(keep)) + tuple(factors[j] for j in keep)
    images = {}
    for row in rows:
        y = vec_mat(_solve_hnf(pivots, row), dec.Q, len(pivots))
        images[row] = tuple(y[j] % factors[j] if factors[j] else y[j] for j in keep)
    return deltas, tuple(map(images.__getitem__, map(tuple, d_rows)))
