"""Reduced Burau matrices and the Conway polynomial of a braid closure.

A word on n strands maps to an (n-1)x(n-1) matrix over the Laurent ring
in s.  The Conway polynomial of its closure is a normalized determinant:

    conway = laurent_to_z( (-1)^(n+1) * s^(-e) * det(M - Id) / bracket(n) )

where e is the exponent sum of the word and bracket(n) is the quantum
bracket.  For any actual braid word the division is exact and the
quotient is a polynomial in z = s^-1 - s, so a failure of either step
means the matrices or the normalization are wrong; it surfaces as
InternalInconsistency rather than a value error.  The sign, the monomial
and the bracket are pinned by fixed two-, three- and six-strand closures
in the test suite.

Each word's determinant is computed from its own matrix, by Bareiss
elimination in O(n^3) ring operations.  The rest of the normalization
depends only on (n, e, det(M - Id)), and few such triples occur: a scan
of all 29 524 words of length <= 9 meets 80.  So ``_normalize`` keeps a
fixed-size memo of it; a failed normalization raises and is not cached.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from .braid import ArtinWord, BandWord, IndexOutOfRange
from .polyring import (
    LaurentPoly,
    NotDivisible,
    NotInImage,
    ZPoly,
    fibonacci_poly,
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
    "full_twist_difference",
]


class InternalInconsistency(RuntimeError):
    """A step that must succeed on braid input failed; the code is at fault."""


@dataclasses.dataclass(frozen=True)
class BurauMatrix:
    """A square matrix over the Laurent ring, tagged with its strand count.

    The size is n - 1, so the 2-strand group gets 1x1 matrices.
    """

    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self) -> None:
        size = self.n - 1
        if size < 1:
            raise ValueError(f"need at least 2 strands, got {self.n}")
        if len(self.entries) != size or any(len(row) != size for row in self.entries):
            raise ValueError(f"entries must form a {size}x{size} matrix")

    @property
    def size(self) -> int:
        return self.n - 1

    @classmethod
    def identity(cls, n: int) -> BurauMatrix:
        one = LaurentPoly.term(1)
        zero = LaurentPoly()
        size = n - 1
        return cls(
            n,
            tuple(
                tuple(one if r == c else zero for c in range(size))
                for r in range(size)
            ),
        )

    def __mul__(self, other: BurauMatrix) -> BurauMatrix:
        if not isinstance(other, BurauMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(
                f"cannot multiply matrices for {self.n} and {other.n} strands"
            )
        cols = tuple(zip(*other.entries))
        return BurauMatrix(
            self.n,
            tuple(
                tuple(LaurentPoly.dot(row, col) for col in cols)
                for row in self.entries
            ),
        )

    def det(self) -> LaurentPoly:
        """Fraction-free Bareiss elimination, O(size^3) ring operations.

        Step k replaces each entry below and right of the pivot by the
        2x2 minor it forms with the pivot row and column, divided exactly
        by the previous pivot (Bareiss 1968); the first step's divisor is
        1 and is skipped, so a 2x2 matrix needs no division.  A zero pivot
        swaps in a lower row with a nonzero entry in its column and flips
        the sign; when there is none the determinant is 0.
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
                    minor = row[j] * pivot
                    if lead and pivot_row[j]:
                        minor = minor - lead * pivot_row[j]
                    row[j] = minor if prev is None else minor.div_exact(prev)
            prev = pivot
        det = rows[-1][-1]
        return -det if negate else det


#: Column i of sigma_i^sign as (above, diagonal, below) exponent -> coefficient
#: maps; every other column is the identity's.
_GENERATOR_COLUMN = {
    1: ({2: 1}, {2: -1}, {0: 1}),
    -1: ({0: 1}, {-2: -1}, {-2: 1}),
}


def _generator_matrix(i: int, n: int, sign: int) -> BurauMatrix:
    grid = [list(row) for row in BurauMatrix.identity(n).entries]
    col = i - 1
    for r, coeffs in zip((col - 1, col, col + 1), _GENERATOR_COLUMN[sign]):
        if 0 <= r < n - 1:
            grid[r][col] = LaurentPoly(coeffs)
    return BurauMatrix(n, tuple(tuple(row) for row in grid))


@lru_cache(maxsize=None)
def burau_generator(i: int, n: int, sign: int = 1) -> BurauMatrix:
    """The reduced Burau matrix of sigma_i^sign on n strands.

    Both signs are the identity outside column i.  For sigma_i that column
    holds -s^2 on the diagonal, flanked by s^2 above and 1 below where
    those rows exist; for sigma_i^-1 it holds -s^-2, flanked by 1 above and
    s^-2 below.  The two are checked to multiply to the identity before
    the result is cached.
    """
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"generator index {i} out of range on {n} strands")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    pair = {s: _generator_matrix(i, n, s) for s in (1, -1)}
    if pair[1] * pair[-1] != BurauMatrix.identity(n):
        raise InternalInconsistency(
            f"inverse of generator {i} on {n} strands failed its identity check"
        )
    return pair[sign]


@lru_cache(maxsize=None)
def _band_letter_matrix(i: int, j: int, sign: int, n: int) -> BurauMatrix:
    word = BandWord(n, ((i, j, sign),)).to_artin()
    m = BurauMatrix.identity(n)
    for idx, s in word.letters:
        m = m * burau_generator(idx, n, s)
    return m


def burau_rep(word: ArtinWord | BandWord) -> BurauMatrix:
    """The matrix of a word: the product of its letters' matrices.

    The empty word maps to the identity.  Band letters go through their
    Artin expansion, cached per letter.
    """
    m = BurauMatrix.identity(word.n)
    if isinstance(word, BandWord):
        for i, j, s in word.letters:
            m = m * _band_letter_matrix(i, j, s, word.n)
        return m
    for i, s in word.letters:
        m = m * burau_generator(i, word.n, s)
    return m


def conway_from_matrix(m: BurauMatrix, exponent_sum: int) -> ZPoly:
    """Normalize a word's matrix into the Conway polynomial of its closure."""
    one = LaurentPoly.term(1)
    shifted = tuple(
        tuple(entry - one if r == c else entry for c, entry in enumerate(row))
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
    """The Conway polynomial of the closure of a braid word."""
    return conway_from_matrix(burau_rep(word), word.exponent_sum())


def full_twist_difference(e: int, k: int) -> ZPoly:
    """Conway shift caused by k full twists on 3 strands.

    For a 3-strand word with exponent sum e, appending the k-th power of
    the full twist changes the closure's Conway polynomial by

        z * sum_{i<k} (F_{e+6i+4} + F_{e+6i+2})

    in Fibonacci polynomials.  Checked against the matrix route in the
    tests for both signs of e.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    total = ZPoly()
    for i in range(k):
        total = total + fibonacci_poly(e + 6 * i + 4) + fibonacci_poly(e + 6 * i + 2)
    return ZPoly((0, 1)) * total
