"""Exact integer polynomial arithmetic for braid-closure invariants.

Two coefficient domains appear throughout the package:

* ``LaurentPoly``: Laurent polynomials in the matrix variable s with
  integer coefficients, stored sparsely as exponent -> coefficient.
* ``ZPoly``: ordinary polynomials in the skein variable z, stored as a
  dense ascending coefficient tuple.

The two are linked by the substitution z = s^-1 - s.  ``laurent_to_z``
rewrites a Laurent polynomial as a polynomial in z when one exists, and
``fibonacci_poly`` supplies the Fibonacci polynomials whose shifted sums
express the symmetric combinations s^-n + (-s)^n in the z variable.

Coefficients are Python ints throughout, so nothing overflows or rounds.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "LaurentPoly",
    "ZPoly",
    "NotDivisible",
    "NotInImage",
    "Z",
    "Z_IN_S",
    "quantum_bracket",
    "fibonacci_poly",
    "laurent_to_z",
    "zpoly_to_laurent",
]


class NotDivisible(ArithmeticError):
    """Exact Laurent division left a nonzero remainder."""


class NotInImage(ArithmeticError):
    """The Laurent polynomial is not a polynomial in s^-1 - s."""


class LaurentPoly:
    """An integer Laurent polynomial in s.

    The coefficient map is canonical (zero coefficients are never stored),
    so two values are equal exactly when their maps are equal.  Instances
    are immutable by convention; every operation returns a new object.
    The hash is computed on first use and kept, since matrices of these
    serve as dictionary keys.

    >>> p = LaurentPoly({-1: 1, 1: -1})
    >>> str(p * p)
    's^-2 - 2 + s^2'
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._coeffs: dict[int, int] = (
            {e: c for e, c in coeffs.items() if c} if coeffs else {}
        )
        self._hash: int | None = None

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> LaurentPoly:
        """The monomial coeff * s^exp."""
        return cls({exp: coeff})

    def __getitem__(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        _add_product(out, self._coeffs, other._coeffs)
        return LaurentPoly(out)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Iterable[LaurentPoly], ys: Iterable[LaurentPoly]) -> LaurentPoly:
        """sum(x * y for x, y in zip(xs, ys)), summed into one coefficient map.

        Builds one polynomial for the whole sum: the entry of a matrix
        product costs no intermediate products or partial sums.
        """
        out: dict[int, int] = {}
        for x, y in zip(xs, ys):
            if x._coeffs and y._coeffs:
                _add_product(out, x._coeffs, y._coeffs)
        return LaurentPoly(out)

    def div_exact(self, den: LaurentPoly) -> LaurentPoly:
        """Exact quotient q with q * den == self.

        Long division from the lowest exponent over a dense remainder, in
        O(len(q) * len(den)) steps.  Step i cancels the remainder's entry at
        self.min_exp + i with one quotient term; a leading coefficient that
        den's lowest one does not divide, or a remainder left once the
        quotient's span is used up, raises NotDivisible.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        lo = self.min_exp
        den_lo = den.min_exp
        rem = [0] * (self.max_exp - lo + 1)
        for e, c in self._coeffs.items():
            rem[e - lo] = c
        den_lead = den._coeffs[den_lo]
        den_rest = [(e - den_lo, c) for e, c in den._coeffs.items() if e != den_lo]
        steps = len(rem) - (den.max_exp - den_lo)
        quot: dict[int, int] = {}
        for i in range(steps):
            if not rem[i]:
                continue
            c, r = divmod(rem[i], den_lead)
            if r:
                break
            quot[lo - den_lo + i] = c
            for offset, d in den_rest:
                rem[i + offset] -= c * d
        else:
            if steps > 0 and not any(rem[steps:]):
                return LaurentPoly(quot)
        raise NotDivisible(f"({self}) is not divisible by ({den})")

    def __str__(self) -> str:
        return _render(self.items(), "s")

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


class ZPoly:
    """An integer polynomial in z: dense ascending coefficients.

    Trailing zeros are trimmed on construction, so the zero polynomial is
    the empty tuple and reports degree -1.  The hash is computed on first
    use and kept, since the skein combine cache is keyed on pairs of these.

    >>> ZPoly((1, 0, -1)).render()
    '1 - z^2'
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: tuple[int, ...] | list[int] = ()):
        # A tuple is kept as it is; it is sliced only to drop trailing zeros.
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        self._coeffs = cs[:end] if end < len(cs) else cs
        self._hash: int | None = None

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree as length - 1; the zero polynomial reports -1."""
        return len(self._coeffs) - 1

    def is_nonneg(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._coeffs)
        return self._hash

    def __neg__(self) -> ZPoly:
        return ZPoly([-c for c in self._coeffs])

    def __add__(self, other: ZPoly) -> ZPoly:
        if not isinstance(other, ZPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZPoly(out)

    def __sub__(self, other: ZPoly) -> ZPoly:
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: ZPoly | int) -> ZPoly:
        if isinstance(other, int):
            return ZPoly([c * other for c in self._coeffs])
        if not isinstance(other, ZPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return ZPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return ZPoly(out)

    __rmul__ = __mul__

    def render(self) -> str:
        """Human form in ascending degree, e.g. '1 - z^2 + 2z^3'."""
        return _render(enumerate(self._coeffs), "z")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ZPoly('{self.render()}')"


def _add_product(out: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """Add the product of coefficient maps a and b into out."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2


def _render(terms: Iterable[tuple[int, int]], var: str) -> str:
    """Join (exponent, coefficient) terms, ascending, as '-2 + s^2'."""
    parts: list[str] = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


#: The polynomial z itself.
Z = ZPoly((0, 1))

#: The Laurent image of z under the substitution z = s^-1 - s.
Z_IN_S = LaurentPoly({-1: 1, 1: -1})


def quantum_bracket(n: int) -> LaurentPoly:
    """The balanced geometric sum s^(1-n) + s^(3-n) + ... + s^(n-1).

    Satisfies quantum_bracket(n) * (s^-1 - s) == s^-n - s^n, which is how
    the tests pin it down.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return LaurentPoly({2 * i - (n - 1): 1 for i in range(n)})


_FIB: list[ZPoly] = [ZPoly(), ZPoly((1,))]


def fibonacci_poly(n: int) -> ZPoly:
    """The n-th Fibonacci polynomial, defined for every integer n.

    F_0 = 0, F_1 = 1, F_n = z*F_{n-1} + F_{n-2}; negative indices follow
    the reflection F_{-n} = (-1)^(n+1) * F_n.
    """
    if n < 0:
        flipped = fibonacci_poly(-n)
        return flipped if n % 2 else -flipped
    while len(_FIB) <= n:
        _FIB.append(Z * _FIB[-1] + _FIB[-2])
    return _FIB[n]


_Z_IN_S_POWERS: list[LaurentPoly] = [LaurentPoly.term(1)]


def _z_in_s_power(d: int) -> LaurentPoly:
    while len(_Z_IN_S_POWERS) <= d:
        _Z_IN_S_POWERS.append(_Z_IN_S_POWERS[-1] * Z_IN_S)
    return _Z_IN_S_POWERS[d]


def laurent_to_z(p: LaurentPoly) -> ZPoly:
    """Rewrite p as a polynomial in z = s^-1 - s, if one exists.

    Greedy elimination: the lowest term c*s^-d of the remainder can only
    come from c*z^d, so emit that and subtract c*(s^-1 - s)^d.  The
    remainder's minimum exponent strictly rises each round; if it ever
    becomes positive no cancellation is possible and NotInImage is raised.
    """
    coeffs: dict[int, int] = {}
    rem = p
    while rem:
        lo = rem.min_exp
        if lo > 0:
            raise NotInImage(f"leftover ({rem}) has only positive powers of s")
        d = -lo
        c = rem[lo]
        coeffs[d] = c
        rem = rem - _z_in_s_power(d) * c
    if not coeffs:
        return ZPoly()
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return ZPoly(out)


def zpoly_to_laurent(q: ZPoly) -> LaurentPoly:
    """Expand q at z = s^-1 - s (the section inverted by laurent_to_z)."""
    total = LaurentPoly()
    for d, c in enumerate(q.coeffs):
        if c:
            total = total + _z_in_s_power(d) * c
    return total
