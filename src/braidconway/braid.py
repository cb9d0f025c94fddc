"""Braid words on n strands, in Artin and in band generators.

Artin letters are (index, sign) pairs for the adjacent transpositions
sigma_1 .. sigma_{n-1}.  Band letters are (i, j, sign) triples with
1 <= i < j <= n; the band generator on strands i and j is the conjugate

    sigma_{i,j} = (sigma_{j-2} ... sigma_i)^-1 sigma_{j-1} (sigma_{j-2} ... sigma_i)

which ``BandWord.to_artin`` expands letter by letter.  Words are stored
exactly as written; no free reduction or normal form is ever applied.
"""

from __future__ import annotations

import operator
import re
from typing import TypeVar

__all__ = [
    "ArtinWord",
    "BandWord",
    "ParseError",
    "IndexOutOfRange",
    "NotOrdered",
    "StrandMismatch",
    "parse_artin",
    "parse_band",
    "half_twist",
]


class ParseError(ValueError):
    """A word token could not be read."""


class IndexOutOfRange(ValueError):
    """A generator index does not fit the strand count."""


class NotOrdered(ValueError):
    """A band generator needs strand indices i < j."""


class StrandMismatch(ValueError):
    """Operands live in braid groups with different strand counts."""


#: Sets a field of a Frozen instance, which refuses plain assignment.
_set = object.__setattr__


class Frozen:
    """Base of the immutable value types: a frozen dataclass's methods, without
    the start-up cost of importing dataclasses.

    Each class names its own fields in ``__slots__``, after those of its
    bases, and sets them in ``__init__`` through ``_set``.  Two
    instances are equal when their classes and fields are; the hash is
    that of the field tuple; copy and pickle rebuild through ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )
        # Compiled, as a dataclass's methods are: equality and hashing by
        # an attrgetter took about 1.5x as long.
        scope: dict = {}
        exec(f"def _fields(self): return ({''.join(f'self.{k}, ' for k in cls._names)})", scope)
        cls._fields = scope["_fields"]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = zip(self._names, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


_W = TypeVar("_W", bound="_Word")


class _Word(Frozen):
    """Letters on n strands; the last entry of every letter is its sign."""

    __slots__ = ("n", "letters")
    n: int
    letters: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, letters: tuple[tuple[int, ...], ...] = ()) -> None:
        # The one read of n and of every letter entry: each must be an int.
        letters = tuple(tuple(map(operator.index, x)) for x in letters)
        _set(self, "n", operator.index(n))
        _set(self, "letters", letters)
        if self.n < 2:
            raise IndexOutOfRange(f"need at least 2 strands, got {self.n}")
        self._check_letters()

    def _check_letters(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_sum(self) -> int:
        # A band letter is a conjugate of a single Artin letter, so the
        # conjugating parts cancel and only the sign counts.
        return sum(letter[-1] for letter in self.letters)

    def inverse(self: _W) -> _W:
        return type(self)(
            self.n,
            tuple(letter[:-1] + (-letter[-1],) for letter in reversed(self.letters)),
        )

    def rotated(self: _W, k: int) -> _W:
        """Cyclic left rotation by k letters; the closure is unchanged."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return type(self)(self.n, self.letters[k:] + self.letters[:k])

    def __mul__(self: _W, other: _W) -> _W:
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.n != self.n:
            raise StrandMismatch(
                f"cannot concatenate words on {self.n} and {other.n} strands"
            )
        return type(self)(self.n, self.letters + other.letters)


class ArtinWord(_Word):
    """A word in the Artin generators of the n-strand braid group.

    Letters are (index, sign) pairs.
    """

    __slots__ = ()

    def _check_letters(self) -> None:
        for i, s in self.letters:
            if not 1 <= i <= self.n - 1:
                raise IndexOutOfRange(
                    f"generator index {i} out of range on {self.n} strands"
                )
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")

    def __pow__(self, k: int) -> ArtinWord:
        base = self if k >= 0 else self.inverse()
        return ArtinWord(self.n, base.letters * abs(k))

    def __str__(self) -> str:
        return " ".join(str(i * s) for i, s in self.letters)


class BandWord(_Word):
    """A word in the band generators of the n-strand braid group.

    Letters are (i, j, sign) triples with i < j.
    """

    __slots__ = ()

    def _check_letters(self) -> None:
        for i, j, s in self.letters:
            if i >= j:
                raise NotOrdered(f"band generator needs i < j, got {i}:{j}")
            if i < 1 or j > self.n:
                raise IndexOutOfRange(
                    f"band generator {i}:{j} out of range on {self.n} strands"
                )
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")

    def is_positive(self) -> bool:
        return all(s == 1 for _, _, s in self.letters)

    def to_artin(self) -> ArtinWord:
        """Expand every band letter into its Artin conjugate."""
        out: list[tuple[int, int]] = []
        for i, j, s in self.letters:
            out.extend((k, -1) for k in range(i, j - 1))
            out.append((j - 1, s))
            out.extend((k, 1) for k in range(j - 2, i - 1, -1))
        return ArtinWord(self.n, tuple(out))

    def __str__(self) -> str:
        return " ".join(
            (f"{i}:{j}" if s > 0 else f"-{i}:{j}") for i, j, s in self.letters
        )


_INDEX = re.compile(r"-?[0-9]+")


def _index(text: str) -> int:
    """ASCII digits after an optional minus; int() also reads '+1', '1_0'
    and non-ASCII digits."""
    if not _INDEX.fullmatch(text):
        raise ValueError(text)
    return int(text)


def parse_artin(text: str, n: int) -> ArtinWord:
    """Read a whitespace-separated list of signed generator indices.

    "1 -2 1" on 3 strands is sigma_1 sigma_2^-1 sigma_1.  An empty string
    is the empty word.  ArtinWord checks each index against n.
    """
    letters: list[tuple[int, int]] = []
    for token in text.split():
        try:
            k = _index(token)
        except ValueError:
            raise ParseError(f"bad Artin letter {token!r}") from None
        if k == 0:
            raise ParseError("bad Artin letter '0'")
        letters.append((abs(k), 1 if k > 0 else -1))
    return ArtinWord(n, tuple(letters))


def parse_band(text: str, n: int) -> BandWord:
    """Read a whitespace-separated list of band letters 'i:j' or '-i:j'.

    "1:6 -2:5" on 6 strands is sigma_{1,6} sigma_{2,5}^-1.  BandWord
    checks each letter's order and range.
    """
    letters: list[tuple[int, int, int]] = []
    for token in text.split():
        body = token
        sign = 1
        if body.startswith("-"):
            sign = -1
            body = body[1:]
        i_text, colon, j_text = body.partition(":")
        if not colon:
            raise ParseError(f"bad band letter {token!r}: expected i:j")
        try:
            i, j = _index(i_text), _index(j_text)
        except ValueError:
            raise ParseError(f"bad band letter {token!r}") from None
        letters.append((i, j, sign))
    return BandWord(n, tuple(letters))


def half_twist(n: int) -> ArtinWord:
    """The positive half twist (sigma_1)(sigma_2 sigma_1)...(sigma_{n-1} ... sigma_1).

    Its square generates the center of the braid group; on 3 strands the
    word is sigma_1 sigma_2 sigma_1.
    """
    letters = [(i, 1) for k in range(1, n) for i in range(k, 0, -1)]
    return ArtinWord(n, tuple(letters))
