"""Reduced Burau matrices and the Conway polynomial of a braid closure.

A word on n strands maps to an (n-1)x(n-1) matrix over the Laurent ring
in s, the product of its letters' matrices, each the identity plus one
rank-one term.  A matrix is multiplied by a word letter by letter, and a
letter rewrites only the columns it moves, which are built in closed
form and cached.  The Conway polynomial of the word's closure is a
normalized determinant:

    conway = laurent_to_z( (-1)^(n+1) * s^(-e) * det(M - Id) / bracket(n) )

where e is the exponent sum of the word and bracket(n) is the quantum
bracket.  For any actual braid word the division is exact and the
quotient is a polynomial in z = s^-1 - s, so a failure of either step
means the matrices or the normalization are wrong; it surfaces as
InternalInconsistency rather than a value error.  The sign, the monomial
and the bracket are pinned by fixed two-, three- and six-strand closures
in the test suite.  The closed-form full-twist shift that ``verify``
checks against this route is ``skein3.full_twist_difference``.

The normalization after the determinant depends only on (n, e,
det(M - Id)), and few such triples occur, so ``_normalize`` keeps a
fixed-size memo of it; a failed normalization raises and is not cached.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .braid import ArtinWord, BandWord, Frozen, IndexOutOfRange, StrandMismatch, _set
from .polyring import (
    LaurentPoly,
    NotDivisible,
    NotInImage,
    ZPoly,
    laurent_to_z,
    quantum_bracket,
)

__all__ = [
    "BurauMatrix",
    "InternalInconsistency",
    "burau_generator",
    "burau_rep",
    "conway_from_matrix",
    "conway_via_burau",
]


_ONE = LaurentPoly.term(1)
_ZERO = LaurentPoly.term(0)


class InternalInconsistency(RuntimeError):
    """A step that must succeed on braid input failed; the code is at fault."""


class BurauMatrix(Frozen):
    """A square matrix over the Laurent ring, tagged with its strand count.

    The size is n - 1, so the 2-strand group gets 1x1 matrices.  Its one
    product is by a word on the same n, ``matrix * word``.
    """

    __slots__ = ("n", "entries")
    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __init__(self, n: int, entries: tuple[tuple[LaurentPoly, ...], ...]) -> None:
        size = n - 1
        if size < 1:
            raise ValueError(f"need at least 2 strands, got {n}")
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(f"entries must form a {size}x{size} matrix")
        _set(self, "n", n)
        _set(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.n - 1

    @classmethod
    def identity(cls, n: int) -> BurauMatrix:
        if n - 1 > sys.maxsize:
            raise IndexOutOfRange(f"{n} strands are too many to index a matrix")
        rows = tuple(
            (_ZERO,) * r + (_ONE,) + (_ZERO,) * (n - 2 - r) for r in range(n - 1)
        )
        return cls(n, rows)

    def __mul__(self, word: ArtinWord | BandWord) -> BurauMatrix:
        """This matrix times a word's matrix, one letter at a time.

        Each column a letter moves, read from ``_letter_columns``, becomes
        every row's dot product with it; the others are copied.  The shape
        stays, so the product is built without validation.
        """
        if not isinstance(word, (ArtinWord, BandWord)):
            return NotImplemented
        if word.n != self.n:
            raise StrandMismatch(
                f"cannot multiply a matrix for {self.n} strands by a word on {word.n}"
            )
        rows = self.entries
        for letter in word.letters:
            moved = _letter_columns(self.n, letter)
            product = []
            for row in rows:
                out = list(row)
                for j, col in moved:
                    out[j] = LaurentPoly.dot(row, col)
                product.append(tuple(out))
            rows = product
        m = object.__new__(BurauMatrix)
        _set(m, "n", self.n)
        _set(m, "entries", tuple(rows))
        return m

    def det(self) -> LaurentPoly:
        """Fraction-free Bareiss elimination, O(size^3) ring operations.

        Step k replaces each entry below and right of the pivot by the
        2x2 minor it forms with the pivot row and column, divided exactly
        by the previous pivot (Bareiss 1968); the first step's divisor is
        1 and is skipped, so a 2x2 matrix needs no division.  A zero pivot
        swaps in a lower row with a nonzero entry in its column and flips
        the sign; when there is none the determinant is 0.  A zero entry
        whose minor has no cross term stays zero and is skipped.
        """
        rows = [list(row) for row in self.entries]
        size = len(rows)
        negate = False
        prev = None
        for k in range(size - 1):
            if not rows[k][k]:
                swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
                if swap is None:
                    return LaurentPoly()
                rows[k], rows[swap] = rows[swap], rows[k]
                negate = not negate
            pivot_row = rows[k]
            pivot = pivot_row[k]
            for row in rows[k + 1 :]:
                lead = row[k]
                for j in range(k + 1, size):
                    crossed = lead and pivot_row[j]
                    if not (row[j] or crossed):
                        continue  # the minor is 0, and so is 0 / prev
                    minor = row[j] * pivot
                    if crossed:
                        minor = minor - lead * pivot_row[j]
                    row[j] = minor if prev is None else minor.div_exact(prev)
            prev = pivot
        det = rows[-1][-1]
        return -det if negate else det


#: By sign, u's entries at rows i - 1, i, j - 1 and j of a_ij^sign = I + u v^T.
_LETTER_U = {
    1: (LaurentPoly.term(1, 2), -_ONE, LaurentPoly.term(-1, 2), _ONE),
    -1: (_ONE, LaurentPoly.term(-1, -2), -_ONE, LaurentPoly.term(1, -2)),
}

#: p rebuilt from its terms, with its exact bound: sigma_i's -s^2, summed as
#: 1 + (-1 - s^2), would carry 3.  Letters' diagonals take six values.
_exact = lru_cache(maxsize=8)(lambda p: LaurentPoly(dict(p.items())))

#: Entries kept by the one letter cache.  A round of 20 band words on 4 to
#: 7 strands meets all 104 band letters of those strand counts.
_LETTER_MEMO_SIZE = 256


@lru_cache(maxsize=_LETTER_MEMO_SIZE)
def _letter_columns(
    n: int, letter: tuple[int, ...]
) -> tuple[tuple[int, tuple[LaurentPoly, ...]], ...]:
    """(c, column c) for each column c (from 0) that a checked letter moves.

    Artin's (i, s) is a_(i,i+1)^s.  a_ij^s is I + u v^T, v being 1 on
    columns i..j-1, u's entries read from ``_LETTER_U``: rows outside
    1..n-1 are dropped, and rows i and j - 1 add when they meet.
    (I + a v^T)(I + b v^T) is I + (a + b + (v.b) a) v^T, so the two signs'
    u are checked to be inverse as vectors: a + b + (v.b) a = 0.
    """
    i, sign = letter[0], letter[-1]
    j = letter[1] if len(letter) == 3 else i + 1
    a: dict[int, LaurentPoly] = {}
    b: dict[int, LaurentPoly] = {}
    for r, x, y in zip((i - 2, i - 1, j - 2, j - 1), _LETTER_U[1], _LETTER_U[-1]):
        if 0 <= r < n - 1:
            a[r], b[r] = a.get(r, _ZERO) + x, b.get(r, _ZERO) + y
    vb = sum((y for r, y in b.items() if i - 1 <= r < j - 1), _ZERO)
    if any(a[r] + b[r] + vb * a[r] for r in a):
        raise InternalInconsistency(
            f"inverse of letter {i}:{j} on {n} strands failed its identity check"
        )
    u = a if sign == 1 else b
    column = [u.get(r, _ZERO) for r in range(n - 1)]
    return tuple(
        (c, (*column[:c], _exact(_ONE + column[c]), *column[c + 1 :]))
        for c in range(i - 1, j - 1)
    )


def burau_generator(i: int, n: int, sign: int = 1) -> BurauMatrix:
    """The reduced Burau matrix of sigma_i^sign on n strands: the identity but
    for column i, which holds s^2, -s^2, 1 (sign +1) or 1, -s^-2, s^-2 (sign
    -1) at rows i - 1, i and i + 1 where they exist.  ArtinWord checks it."""
    return BurauMatrix.identity(n) * ArtinWord(n, ((i, sign),))


def burau_rep(word: ArtinWord | BandWord) -> BurauMatrix:
    """The matrix of a word: the identity times the word."""
    return BurauMatrix.identity(word.n) * word


def conway_from_matrix(m: BurauMatrix, exponent_sum: int) -> ZPoly:
    """Normalize a word's matrix into the Conway polynomial of its closure.

    On three strands det(M - Id) is det M - tr M + 1, and det M is
    (-s^2)^e for the matrix of any word with exponent sum e, so the trace
    and e suffice; a wrong e makes the normalization fail, as the tests
    check.  On more strands M - Id goes through Bareiss elimination.
    """
    if m.n == 3:
        (a, _), (_, d) = m.entries
        e = exponent_sum
        det = LaurentPoly.term(-1 if e % 2 else 1, 2 * e) - (a + d) + _ONE
        return _normalize(3, e, det)
    shifted = tuple(
        tuple(entry - _ONE if r == c else entry for c, entry in enumerate(row))
        for r, row in enumerate(m.entries)
    )
    return _normalize(m.n, exponent_sum, BurauMatrix(m.n, shifted).det())


#: Entries kept by the normalization memo.  All 29 524 words of a length
#: <= 9 scan share 80 distinct (exponent sum, det(M - Id)) pairs.
_NORMALIZE_MEMO_SIZE = 4096


@lru_cache(maxsize=_NORMALIZE_MEMO_SIZE)
def _normalize(n: int, exponent_sum: int, det: LaurentPoly) -> ZPoly:
    numerator = det * LaurentPoly.term((-1) ** (n + 1), -exponent_sum)
    try:
        quotient = numerator.div_exact(quantum_bracket(n))
        return laurent_to_z(quotient)
    except (NotDivisible, NotInImage) as exc:
        raise InternalInconsistency(
            f"Conway normalization failed on {n} strands: {exc}"
        ) from exc


def conway_via_burau(word: ArtinWord | BandWord) -> ZPoly:
    """The Conway polynomial of the closure of a braid word.

    Artin letter k crosses column k, band letter i:j columns i..j-1.  A
    column in 1..n-1 that no letter crosses splits the closure, whose
    value is then 0: no matrix is built, unless to refuse the strand count.
    """
    letters = set(word.letters)
    spans = sorted({(x[0], x[1] - 1 if len(x) == 3 else x[0]) for x in letters})
    reach = 0
    for lo, hi in spans:
        if lo > reach + 1:
            break  # column reach + 1 is idle
        reach = max(reach, hi)
    if reach < word.n - 1 <= sys.maxsize:
        return ZPoly()
    return conway_from_matrix(burau_rep(word), word.exponent_sum())

