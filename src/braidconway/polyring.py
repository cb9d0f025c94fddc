"""Exact integer polynomial arithmetic for braid-closure invariants.

Two coefficient domains appear throughout the package:

* ``LaurentPoly``: Laurent polynomials in the matrix variable s with
  integer coefficients, packed into one Python int (Kronecker
  substitution).
* ``ZPoly``: ordinary polynomials in the skein variable z, stored as a
  dense ascending coefficient tuple.

The two are linked by the substitution z = s^-1 - s.  ``laurent_to_z``
rewrites a Laurent polynomial as a polynomial in z when one exists, and
``fibonacci_poly`` supplies the Fibonacci polynomials whose shifted sums
express the symmetric combinations s^-n + (-s)^n in the z variable.

Coefficients are Python ints throughout, so nothing overflows or rounds.
"""

from __future__ import annotations

from array import array
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
    """An integer Laurent polynomial in s, packed into one Python int.

    A value is (lo, x, w): s^lo times the polynomial whose coefficients
    are the signed base-2^w digits of the int x, lowest first, each digit
    c in -2^(w-1) < c < 2^(w-1) (Kronecker substitution, Harvey 2009).
    The form is canonical: lo is the lowest exponent, so x's lowest digit
    is nonzero, and w is the least multiple of 64 that holds every
    coefficient; the zero polynomial is (0, 0, 64).  So two values are
    equal exactly when their (lo, x, w) are, and the hash is the hash of
    those three ints.

    Each value also carries b, an upper bound on the sum of the absolute
    values of its coefficients: so b bounds every coefficient, b1 + b2
    bounds a sum and b1 * b2 bounds a product.  While the bound of a
    result is below 2^63, arithmetic is arithmetic on x at w = 64: a sum
    is one shift and one add, a product one int product.  These bounds
    grow loose over a chain of operations, so when one reaches 2^63 the
    operands' bounds are first made exact by unpacking them; a result
    whose exact bound still reaches 2^63 is computed at a wider w,
    unpacked and packed again at its least width.  A value wider than 64
    has b >= 2^63, so the test on the bound alone picks the path.
    Instances are immutable by convention: every operation returns a new
    object, and only b, which is not part of the value, may be replaced
    by a tighter bound.

    >>> p = LaurentPoly({-1: 1, 1: -1})
    >>> str(p * p)
    's^-2 - 2 + s^2'
    """

    __slots__ = ("_lo", "_x", "_w", "_b")

    def __init__(self, coeffs: dict[int, int] | None = None):
        lo, digits = 0, []
        live = {e: c for e, c in coeffs.items() if c} if coeffs else None
        if live:
            lo = min(live)
            digits = [0] * (max(live) - lo + 1)
            for e, c in live.items():
                digits[e - lo] = c
        self._lo, self._x, self._w, self._b = _canonical(lo, digits)

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> LaurentPoly:
        """The monomial coeff * s^exp."""
        if not coeff:
            return _ZERO
        # One digit: the packed int is the coefficient itself at any width.
        return _make(exp, coeff, _width(abs(coeff)), abs(coeff))

    def _digits(self) -> list[int]:
        """The coefficients of s^lo, s^(lo+1), ..., s^max_exp."""
        return _unpack(self._x, self._w)

    def __getitem__(self, exp: int) -> int:
        digits = self._digits()
        d = exp - self._lo
        return digits[d] if 0 <= d < len(digits) else 0

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        lo = self._lo
        return [(lo + i, c) for i, c in enumerate(self._digits()) if c]

    @property
    def min_exp(self) -> int:
        if not self._x:
            raise ValueError("the zero polynomial has no exponents")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._x:
            raise ValueError("the zero polynomial has no exponents")
        return self._lo + len(self._digits()) - 1

    def __bool__(self) -> bool:
        return self._x != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._x == other._x and self._lo == other._lo and self._w == other._w

    def __hash__(self) -> int:
        return hash((self._lo, self._x, self._w))

    def __neg__(self) -> LaurentPoly:
        return _make(self._lo, -self._x, self._w, self._b)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, False)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, True)

    def _plus(self, other: LaurentPoly, negate: bool) -> LaurentPoly:
        """self + other, or self - other when negate is set."""
        x, y = self._x, other._x
        if not y:
            return self
        if not x:
            return -other if negate else other
        bound = self._b + other._b
        w = 64
        if bound >> 63:
            bound = _tight(self) + _tight(other)
            if bound >> 63:
                w = _width(bound)
                x, y = _at(self, w), _at(other, w)
        if negate:
            y = -y
        lo = self._lo
        shift = (other._lo - lo) * w
        if shift >= 0:
            x += y << shift
        else:
            x = (x << -shift) + y
            lo = other._lo
        return _strip(lo, x, bound) if w == 64 else _from_digits(lo, _unpack(x, w))

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        x, y = self._x, other._x
        if not (x and y):
            return _ZERO
        lo = self._lo + other._lo
        bound = self._b * other._b
        if bound >> 63:
            bound = _tight(self) * _tight(other)
            if bound >> 63:
                w = _width(bound)
                return _from_digits(lo, _unpack(_at(self, w) * _at(other, w), w))
        # The product of the lowest digits is nonzero: nothing to strip.
        return _make(lo, x * y, 64, bound)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Iterable[LaurentPoly], ys: Iterable[LaurentPoly]) -> LaurentPoly:
        """sum(x * y for x, y in zip(xs, ys)), summed into one packed int.

        One int product per pair of nonzero entries, shifted into place
        and added: the entry of a matrix product costs no intermediate
        polynomial objects.  The sum is exact whatever the bounds; when
        they do not show that it fits width 64, it is summed again
        through the general operations.
        """
        xs, ys = tuple(xs), tuple(ys)
        acc = lo = bound = 0
        for p, q in zip(xs, ys):
            x, y = p._x, q._x
            if not (x and y):
                continue
            bound += p._b * q._b
            e = p._lo + q._lo
            if not acc:
                acc, lo = x * y, e
            elif e >= lo:
                acc += (x * y) << ((e - lo) << 6)
            else:
                acc = (acc << ((lo - e) << 6)) + x * y
                lo = e
        if bound >> 63:
            pairs = [(p, q) for p, q in zip(xs, ys) if p and q]
            bound = sum(_tight(p) * _tight(q) for p, q in pairs)
            if bound >> 63:
                total = _ZERO
                for p, q in pairs:
                    total = total + p * q
                return total
        return _strip(lo, acc, bound)

    def div_exact(self, den: LaurentPoly) -> LaurentPoly:
        """Exact quotient q with q * den == self.

        At width 64 the packed ints are divided first.  Both values have
        a nonzero constant term once their lowest powers are taken out,
        so den divides self only if den's int divides self's, and a
        remainder raises NotDivisible.  An exact int quotient read as
        digits is the quotient when the bounds show that its product with
        den has no coefficient of 2^63 or more: that product then packs
        to self's int, and packing at width 64 is one-to-one.

        Otherwise, long division from the lowest exponent over the
        unpacked coefficients, in O(len(q) * len(den)) steps.  Step i
        cancels the remainder's entry at self.min_exp + i with one
        quotient term; a leading coefficient that den's lowest one does
        not divide, or a remainder left once the quotient's span is used
        up, raises NotDivisible.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return _ZERO
        if self._w == 64 == den._w:
            q, r = divmod(self._x, den._x)
            if r:
                raise NotDivisible(f"({self}) is not divisible by ({den})")
            bound = sum(map(abs, _unpack(q, 64)))
            if not (bound * den._b) >> 63:
                return _make(self._lo - den._lo, q, 64, bound)
        rem = self._digits()
        den_digits = den._digits()
        den_lead = den_digits[0]
        den_rest = [(i, d) for i, d in enumerate(den_digits) if i and d]
        steps = len(rem) - len(den_digits) + 1
        quot = [0] * max(steps, 0)
        for i in range(steps):
            if not rem[i]:
                continue
            c, r = divmod(rem[i], den_lead)
            if r:
                break
            quot[i] = c
            for offset, d in den_rest:
                rem[i + offset] -= c * d
        else:
            if steps > 0 and not any(rem[steps:]):
                return _from_digits(self._lo - den._lo, quot)
        raise NotDivisible(f"({self}) is not divisible by ({den})")

    def __str__(self) -> str:
        return _render(self.items(), "s")

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


_new = object.__new__


def _make(lo: int, x: int, w: int, b: int) -> LaurentPoly:
    """A LaurentPoly from its canonical packed form and a coefficient bound."""
    p = _new(LaurentPoly)
    p._lo = lo
    p._x = x
    p._w = w
    p._b = b
    return p


def _width(bound: int) -> int:
    """The least multiple w of 64 with bound < 2^(w-1)."""
    return (bound.bit_length() + 64) >> 6 << 6


def _tight(p: LaurentPoly) -> int:
    """The sum of the absolute coefficients of nonzero p, kept as its bound.

    The bound is not part of the value, so making it exact changes no
    result; it only lets later arithmetic stay at width 64.
    """
    digits = p._digits()
    p._b = sum(map(abs, digits))
    return p._b


def _at(p: LaurentPoly, w: int) -> int:
    """p's packed int at width w, which must hold its coefficients."""
    return p._x if p._w == w else _pack(p._digits(), w)


def _offset(n: int, w: int) -> int:
    """sum(2^(w-1) * 2^(w*i) for i < n): the top bit of each of n digits."""
    return int.from_bytes((bytes((w >> 3) - 1) + b"\x80") * n, "little")


def _unpack(x: int, w: int) -> list[int]:
    """The signed base-2^w digits of x, lowest first, without high zeros.

    Adding the top bit of every digit makes each digit nonnegative, so
    the sum's bytes are the digits plus 2^(w-1); flipping those top bits
    back leaves each digit's two's-complement bytes.  Any int has such
    digits: one bit above its length leaves room for 2^127 - 1, whose
    digits at w = 64 are -1, -2^63, 1.
    """
    if not x:
        return []
    n = (x.bit_length() + 1) // w + 1
    h = _offset(n, w)
    raw = ((x + h) ^ h).to_bytes(n * w >> 3, "little")
    if w == 64:
        digits = array("q", raw).tolist()
    else:
        k = w >> 3
        digits = [int.from_bytes(raw[i : i + k], "little", signed=True)
                  for i in range(0, len(raw), k)]
    while not digits[-1]:
        digits.pop()
    return digits


def _pack(digits: list[int], w: int) -> int:
    """The int whose signed base-2^w digits are digits; inverse of _unpack."""
    if w == 64:
        raw = array("q", digits).tobytes()
    else:
        raw = b"".join(c.to_bytes(w >> 3, "little", signed=True) for c in digits)
    h = _offset(len(digits), w)
    return (int.from_bytes(raw, "little") ^ h) - h


def _canonical(lo: int, digits: list[int]) -> tuple[int, int, int, int]:
    """(lo, x, w, b) of s^lo * sum(digits[i] * s^i): zeros stripped, b exact."""
    end = len(digits)
    while end and not digits[end - 1]:
        end -= 1
    start = 0
    while start < end and not digits[start]:
        start += 1
    if start == end:
        return 0, 0, 64, 0
    live = digits[start:end]
    w = _width(max(max(live), -min(live)))
    return lo + start, _pack(live, w), w, sum(map(abs, live))


def _from_digits(lo: int, digits: list[int]) -> LaurentPoly:
    return _make(*_canonical(lo, digits))


def _strip(lo: int, x: int, bound: int) -> LaurentPoly:
    """s^lo * x at width 64, with x's zero low digits moved into lo."""
    if not x:
        return _ZERO
    if not x & 0xFFFFFFFFFFFFFFFF:
        zeros = ((x & -x).bit_length() - 1) >> 6
        x >>= zeros << 6
        lo += zeros
    return _make(lo, x, 64, bound)


_ZERO = _make(0, 0, 64, 0)


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


#: Row d holds the coefficients of (s^-1 - s)^d at s^-d, s^(2-d), ..., s^d:
#: the binomials C(d, k) with sign (-1)^k.
_BINOMIAL_ROWS: list[list[int]] = [[1]]


def _binomial_row(d: int) -> list[int]:
    while len(_BINOMIAL_ROWS) <= d:
        row = _BINOMIAL_ROWS[-1]
        _BINOMIAL_ROWS.append([a - b for a, b in zip(row + [0], [0] + row)])
    return _BINOMIAL_ROWS[d]


def laurent_to_z(p: LaurentPoly) -> ZPoly:
    """Rewrite p as a polynomial in z = s^-1 - s, if one exists.

    Greedy elimination over p's coefficient list: the lowest term c*s^-d
    of the remainder can only come from c*z^d, so emit that and subtract
    c*(s^-1 - s)^d, whose coefficients are every other entry from s^-d to
    s^d.  The remainder's minimum exponent strictly rises each round; if
    it ever becomes positive no cancellation is possible and NotInImage is
    raised.
    """
    if not p:
        return ZPoly()
    lo = p.min_exp
    rem = p._digits()
    # The last subtraction can reach s^-lo.
    rem.extend([0] * (1 - 2 * lo - len(rem)))
    out = [0] * (1 - lo)
    for i, c in enumerate(rem):
        if not c:
            continue
        d = -(lo + i)
        if d < 0:
            leftover = _from_digits(lo + i, rem[i:])
            raise NotInImage(f"leftover ({leftover}) has only positive powers of s")
        out[d] = c
        stop = i + 2 * d + 1
        rem[i:stop:2] = [r - c * b for r, b in zip(rem[i:stop:2], _binomial_row(d))]
    return ZPoly(out)


def zpoly_to_laurent(q: ZPoly) -> LaurentPoly:
    """Expand q at z = s^-1 - s (the section inverted by laurent_to_z)."""
    top = q.degree
    out = [0] * (2 * top + 1)
    for d, c in enumerate(q.coeffs):
        if c:
            start = top - d
            stop = start + 2 * d + 1
            out[start:stop:2] = [
                o + c * b for o, b in zip(out[start:stop:2], _binomial_row(d))
            ]
    return _from_digits(-top, out)
