"""The two polynomial domains and the substitution that links them."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from braidconway.polyring import (
    LaurentPoly,
    NotDivisible,
    NotInImage,
    Z,
    Z_IN_S,
    ZPoly,
    fibonacci_poly,
    laurent_to_z,
    quantum_bracket,
    zpoly_to_laurent,
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)
zpolys = st.lists(st.integers(-9, 9), max_size=8).map(ZPoly)

#: Magnitudes at the edges of the packed form: a digit of width 64 holds
#: |c| < 2^63, and each further 64 bits of width hold 64 more bits.
EDGES = (2**62, 2**63 - 1, 2**63, 2**64, 2**130)
edge_ints = st.one_of(
    st.integers(-9, 9),
    st.tuples(st.sampled_from(EDGES), st.integers(-2, 2), st.sampled_from((1, -1))).map(
        lambda t: (t[0] + t[1]) * t[2]
    ),
)
#: Coefficient maps whose exponents span at most 40.
edge_dicts = st.integers(-20, 20).flatmap(
    lambda lo: st.dictionaries(st.integers(lo, lo + 40), edge_ints, max_size=8)
)


# --- LaurentPoly basics ----------------------------------------------------

def test_zero_coefficients_are_dropped():
    assert LaurentPoly({2: 0, -1: 3}) == LaurentPoly({-1: 3})
    assert not LaurentPoly({5: 0})
    assert LaurentPoly() == LaurentPoly({})


def test_term_and_getitem():
    p = LaurentPoly.term(4, -2)
    assert p[-2] == 4
    assert p[0] == 0
    assert p.min_exp == p.max_exp == -2


def test_zero_has_no_exponents():
    with pytest.raises(ValueError):
        _ = LaurentPoly().min_exp
    with pytest.raises(ValueError):
        _ = LaurentPoly().max_exp


def test_product_example():
    # (s^-1 - s)(s^-2 + 1 + s^2) multiplies out to s^-3 - s^3: the middle
    # terms s^-1 and s cancel pairwise.
    got = Z_IN_S * LaurentPoly({-2: 1, 0: 1, 2: 1})
    assert got == LaurentPoly({-3: 1, 3: -1})


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(Z_IN_S) == "s^-1 - s"
    assert str(LaurentPoly({0: -2, 2: 1})) == "-2 + s^2"


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPoly()


@given(laurents)
def test_laurent_multiplicative_identity(a):
    assert a * LaurentPoly.term(1) == a
    assert a * 1 == a
    assert a * 0 == LaurentPoly()


# --- packed arithmetic against a dict reference ------------------------------

def ref_clean(p):
    return {e: c for e, c in p.items() if c}


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_clean(out)


def ref_div(p, d):
    """The exact quotient of p by nonzero d, or None when there is none."""
    p, d = ref_clean(p), ref_clean(d)
    if not p:
        return {}
    d_lo, d_hi = min(d), max(d)
    rem, quot = dict(p), {}
    while rem:
        lo = min(rem)
        q, r = divmod(rem[lo], d[d_lo])
        if r or max(rem) - lo < d_hi - d_lo:
            return None
        quot[lo - d_lo] = q
        rem = ref_add(rem, ref_mul({lo - d_lo: q}, d), -1)
    return quot


def same(got, want):
    """got is the packed value of the coefficient map want, in every view."""
    built = LaurentPoly(want)
    assert got == built and hash(got) == hash(built)
    assert got.items() == sorted(want.items())
    if want:
        assert (got.min_exp, got.max_exp) == (min(want), max(want))
        for e in range(min(want) - 2, max(want) + 3):
            assert got[e] == want.get(e, 0)
    else:
        assert not got and got[0] == 0


@given(edge_dicts, edge_dicts, edge_ints)
@example({0: 1, 1: 1}, {0: 1}, 2)  # the lowest terms cancel
@example({0: 2**62, 1: 5}, {0: 2**62 + 1, 3: -1}, 2**63)
@example({0: 2**40, 1: 2**40}, {0: 2**22, 1: 2**22}, 1)  # a product term is 2^63
def test_packed_arithmetic_matches_a_dict_reference(a, b, k):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    same(pa, ref_clean(a))
    same(pa + pb, ref_add(a, b))
    same(pa - pb, ref_add(a, b, -1))
    same(-pa, ref_mul(a, {0: -1}))
    same(pa * k, ref_mul(a, {0: k}))
    same(k * pa, ref_mul(a, {0: k}))
    same(pa * pb, ref_mul(a, b))
    same(pa * pb - pb * pa, {})


@given(st.lists(st.tuples(edge_dicts, edge_dicts), max_size=4))
@example([({0: 2**62}, {0: 1}), ({0: 2**62}, {0: 1})])  # only the sum is wide
@example([({0: 1, 1: 1}, {0: 1}), ({0: -1}, {0: 1})])  # the lowest terms cancel
def test_packed_dot_matches_a_dict_reference(pairs):
    want = {}
    for a, b in pairs:
        want = ref_add(want, ref_mul(a, b))
    got = LaurentPoly.dot(
        (LaurentPoly(a) for a, _ in pairs), (LaurentPoly(b) for _, b in pairs)
    )
    same(got, want)


@given(edge_dicts, edge_dicts, edge_dicts)
def test_packed_div_exact_matches_a_dict_reference(a, b, c):
    assume(ref_clean(b))
    for num in (a, ref_mul(a, b), ref_add(ref_mul(a, b), c)):
        want = ref_div(num, b)
        if want is None:
            with pytest.raises(NotDivisible):
                LaurentPoly(num).div_exact(LaurentPoly(b))
        else:
            same(LaurentPoly(num).div_exact(LaurentPoly(b)), want)


def test_values_back_from_a_wide_intermediate_are_canonical():
    # Equal values have one packed form, however they were reached: a
    # product too wide for 64-bit digits, cancelled back to small
    # coefficients, equals and hashes as the value built from a dict.
    big = LaurentPoly({-3: 2**100, 5: -(2**90) + 7})
    other = LaurentPoly({0: 3, 2: -(2**70)})
    p = LaurentPoly({-1: 5, 4: -2})
    for got in ((big * other - big * other) + p, (big * other + p) - big * other):
        assert got == p and hash(got) == hash(p)
        assert got.items() == [(-1, 5), (4, -2)]
    wide = LaurentPoly.term(2**70, 1)
    got = wide - (wide - LaurentPoly.term(1))
    assert got == LaurentPoly({0: 1}) and hash(got) == hash(LaurentPoly({0: 1}))
    assert got == LaurentPoly.term(1)


# --- exact division --------------------------------------------------------

def test_div_exact_example():
    num = LaurentPoly({-3: 1, 3: -1})
    got = num.div_exact(Z_IN_S)
    assert got == LaurentPoly({-2: 1, 0: 1, 2: 1})
    assert got * Z_IN_S == num


def test_div_exact_rejects_nondivisible():
    with pytest.raises(NotDivisible):
        LaurentPoly({-1: 1, 1: 1}).div_exact(Z_IN_S)


def test_div_exact_rejects_bad_leading_coefficient():
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 3}).div_exact(LaurentPoly({0: 2}))


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({0: 1}).div_exact(LaurentPoly())


@given(laurents, laurents)
def test_div_exact_recovers_factor(a, b):
    assume(bool(b))
    assert (a * b).div_exact(b) == a


@given(laurents, laurents)
# The packed ints divide, and the int quotient 2^127 - 1 has a digit of -2^63.
@example(LaurentPoly({0: -2, 2: 1}), LaurentPoly({0: 2}))
def test_div_exact_is_sound(p, b):
    # Whatever p and b are, a returned quotient is exact.
    assume(bool(b))
    try:
        q = p.div_exact(b)
    except NotDivisible:
        return
    assert q * b == p


# --- quantum bracket -------------------------------------------------------

def test_bracket_small_values():
    assert quantum_bracket(1) == LaurentPoly({0: 1})
    assert quantum_bracket(2) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_bracket(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})


def test_bracket_telescopes():
    for n in range(1, 13):
        assert quantum_bracket(n) * Z_IN_S == LaurentPoly({-n: 1, n: -1})


def test_bracket_rejects_nonpositive():
    with pytest.raises(ValueError):
        quantum_bracket(0)


# --- ZPoly basics ----------------------------------------------------------

def test_zpoly_trims_trailing_zeros():
    assert ZPoly((1, 0, 0)) == ZPoly((1,))
    assert ZPoly((0, 0)) == ZPoly()
    assert ZPoly().degree == -1
    assert ZPoly((0, 0, 5)).degree == 2


def test_zpoly_construction_is_the_same_from_lists_and_tuples():
    for cs in [(), (0,), (0, 0), (3,), (1, 0, 2), (1, 0, 2, 0, 0), (0, 0, -4, 0)]:
        trimmed = list(cs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert ZPoly(cs).coeffs == ZPoly(list(cs)).coeffs == tuple(trimmed)
        assert ZPoly(cs) == ZPoly(list(cs))
        assert hash(ZPoly(cs)) == hash(ZPoly(list(cs)))
    assert ZPoly(()) == ZPoly([]) == ZPoly((0, 0, 0)) == ZPoly()
    assert ZPoly([0]).coeffs == ()
    # A tuple with no trailing zero is kept, not copied.
    trimmed = (1, 0, 2)
    assert ZPoly(trimmed).coeffs is trimmed


def test_zpoly_is_nonneg():
    assert ZPoly((1, 0, 7)).is_nonneg()
    assert ZPoly().is_nonneg()
    assert not ZPoly((1, 0, -1)).is_nonneg()


def test_zpoly_render():
    assert ZPoly().render() == "0"
    assert ZPoly((1, 0, -1, 2)).render() == "1 - z^2 + 2z^3"
    assert ZPoly((0, 2)).render() == "2z"
    assert ZPoly((-1, 1)).render() == "-1 + z"
    assert ZPoly((0, 0, 1)).render() == "z^2"


@given(zpolys, zpolys, zpolys)
def test_zpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == ZPoly()


def test_zpoly_scalar_multiplication():
    assert 2 * Z == ZPoly((0, 2))
    assert Z * 0 == ZPoly()


# --- Fibonacci polynomials -------------------------------------------------

def test_fibonacci_small_values():
    assert fibonacci_poly(0) == ZPoly()
    assert fibonacci_poly(1) == ZPoly((1,))
    assert fibonacci_poly(2) == Z
    assert fibonacci_poly(3) == ZPoly((1, 0, 1))
    assert fibonacci_poly(4) == ZPoly((0, 2, 0, 1))
    assert fibonacci_poly(5) == ZPoly((1, 0, 3, 0, 1))


def test_fibonacci_negative_reflection():
    assert fibonacci_poly(-1) == ZPoly((1,))
    assert fibonacci_poly(-2) == -Z
    assert fibonacci_poly(-3) == ZPoly((1, 0, 1))
    for n in range(1, 15):
        want = fibonacci_poly(n) if n % 2 else -fibonacci_poly(n)
        assert fibonacci_poly(-n) == want


def test_fibonacci_recurrence_both_directions():
    for n in range(-12, 12):
        assert fibonacci_poly(n + 1) == Z * fibonacci_poly(n) + fibonacci_poly(n - 1)


def test_fibonacci_addition_identity():
    # F_{m+n} = F_{m+1} F_n + F_m F_{n-1}, the polynomial analogue of the
    # integer Fibonacci addition law.
    for m in range(-6, 7):
        for n in range(-6, 7):
            want = (
                fibonacci_poly(m + 1) * fibonacci_poly(n)
                + fibonacci_poly(m) * fibonacci_poly(n - 1)
            )
            assert fibonacci_poly(m + n) == want


# --- the substitution z = s^-1 - s ------------------------------------------

def test_laurent_to_z_examples():
    assert laurent_to_z(LaurentPoly()) == ZPoly()
    assert laurent_to_z(LaurentPoly({0: 1})) == ZPoly((1,))
    assert laurent_to_z(Z_IN_S) == Z
    assert laurent_to_z(LaurentPoly({-2: 1, 0: -2, 2: 1})) == ZPoly((0, 0, 1))


def test_laurent_to_z_rejects_symmetric_sum():
    with pytest.raises(NotInImage):
        laurent_to_z(LaurentPoly({-1: 1, 1: 1}))


def test_laurent_to_z_rejects_positive_only():
    with pytest.raises(NotInImage):
        laurent_to_z(LaurentPoly({1: 2}))


def test_zpoly_to_laurent_example():
    # 1 + z^2 expands to 1 + (s^-1 - s)^2 = s^-2 - 1 + s^2.
    assert zpoly_to_laurent(ZPoly((1, 0, 1))) == LaurentPoly({-2: 1, 0: -1, 2: 1})


@given(zpolys)
def test_round_trip_from_z(q):
    assert laurent_to_z(zpoly_to_laurent(q)) == q


@given(laurents)
def test_laurent_to_z_is_total_or_refuses(p):
    try:
        q = laurent_to_z(p)
    except NotInImage:
        return
    assert zpoly_to_laurent(q) == p


def test_symmetric_power_identity():
    # s^-n + (-s)^n rewrites to F_{n+1} + F_{n-1} for every integer n.
    for n in range(-20, 21):
        sign = 1 if n % 2 == 0 else -1
        symmetric = LaurentPoly({-n: 1}) + LaurentPoly({n: sign})
        want = fibonacci_poly(n + 1) + fibonacci_poly(n - 1)
        assert laurent_to_z(symmetric) == want
