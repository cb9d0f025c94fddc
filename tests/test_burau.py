"""Matrices of braid words and the Conway normalization."""

import random
import sys
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidconway import burau
from braidconway.braid import ArtinWord, BandWord, half_twist, parse_artin, parse_band
from braidconway.burau import (
    BurauMatrix,
    InternalInconsistency,
    burau_generator,
    burau_rep,
    conway_from_matrix,
    conway_via_burau,
)
from braidconway.polyring import LaurentPoly, Z, ZPoly, fibonacci_poly
from braidconway.skein3 import full_twist_difference

ONE = LaurentPoly({0: 1})
ZERO = LaurentPoly()
S2 = LaurentPoly({2: 1})
NEG_S2 = LaurentPoly({2: -1})


def _random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return ArtinWord(n, letters)


# --- generator matrices ------------------------------------------------------

def test_three_strand_generators():
    assert burau_generator(1, 3).entries == ((NEG_S2, ZERO), (ONE, ONE))
    assert burau_generator(2, 3).entries == ((ONE, S2), (ZERO, NEG_S2))


def test_two_strand_generator_is_scalar():
    assert burau_generator(1, 2).entries == ((NEG_S2,),)
    assert burau_generator(1, 2, -1).entries == ((LaurentPoly({-2: -1}),),)


def test_interior_generator_column():
    m = burau_generator(2, 4)
    assert m.entries == (
        (ONE, S2, ZERO),
        (ZERO, NEG_S2, ZERO),
        (ZERO, ONE, ONE),
    )
    inv = burau_generator(2, 4, -1)
    assert inv.entries == (
        (ONE, ONE, ZERO),
        (ZERO, LaurentPoly({-2: -1}), ZERO),
        (ZERO, LaurentPoly({-2: 1}), ONE),
    )


def test_generator_index_validation():
    from braidconway.braid import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        burau_generator(3, 3)
    with pytest.raises(IndexOutOfRange):
        burau_generator(0, 3)
    with pytest.raises(ValueError, match="letter sign must be"):
        burau_generator(1, 3, 2)
    # ArtinWord reads the letter, so a float never reaches the matrix code.
    for args in ((1.0, 3), (1, 3.0), (1, 3, 1.0)):
        with pytest.raises(TypeError):
            burau_generator(*args)


def test_inverses_multiply_to_identity():
    for n in range(2, 10):
        for i in range(1, n):
            for sign in (1, -1):
                inverse = ArtinWord(n, ((i, -sign),))
                assert burau_generator(i, n, sign) * inverse == BurauMatrix.identity(n)
                assert burau_rep(ArtinWord(n, ((i, sign),)) * inverse) == (
                    BurauMatrix.identity(n)
                )


def test_generator_identity_check_catches_a_wrong_inverse(monkeypatch):
    # The inverse's u with a wrong entry at row j.  The cache is emptied so
    # that every letter below is built from the broken table; a letter that
    # fails its check raises and is not cached.
    broken = dict(burau._LETTER_U)
    broken[-1] = (ONE, LaurentPoly({-2: -1}), -ONE, LaurentPoly({-2: -1}))
    monkeypatch.setattr(burau, "_LETTER_U", broken)
    burau._letter_columns.cache_clear()
    with pytest.raises(InternalInconsistency):
        burau_generator(1, 3)
    with pytest.raises(InternalInconsistency):
        burau_generator(1, 3, -1)
    for sign in (1, -1):
        with pytest.raises(InternalInconsistency):
            burau_rep(BandWord(4, ((1, 3, sign),)))


def test_letter_caches_are_bounded():
    assert burau._letter_columns.cache_info().maxsize is not None


def _column_generator(i, n, sign):
    """sigma_i^sign built entry by entry: the identity outside column i.

    For sigma_i column i holds -s^2 on the diagonal, flanked by s^2 above
    and 1 below where those rows exist; for sigma_i^-1 it holds -s^-2,
    flanked by 1 above and s^-2 below.
    """
    column = {
        1: (S2, NEG_S2, ONE),
        -1: (ONE, LaurentPoly({-2: -1}), LaurentPoly({-2: 1})),
    }[sign]
    rows = [[ONE if r == c else ZERO for c in range(n - 1)] for r in range(n - 1)]
    for r, entry in zip((i - 2, i - 1, i), column):
        if 0 <= r < n - 1:
            rows[r][i - 1] = entry
    return BurauMatrix(n, tuple(map(tuple, rows)))


def _every_letter(max_n):
    """(n, letter, i, j): every Artin and band letter on 2..max_n strands."""
    for n in range(2, max_n + 1):
        for sign in (1, -1):
            for i in range(1, n):
                yield n, (i, sign), i, i + 1
                for j in range(i + 1, n + 1):
                    yield n, (i, j, sign), i, j


def _one_letter_word(n, letter):
    return (ArtinWord if len(letter) == 2 else BandWord)(n, (letter,))


def _as_artin(word):
    return word.to_artin() if isinstance(word, BandWord) else word


def test_letters_equal_the_product_of_their_artin_expansion():
    # The closed form against products of generators built entry by entry,
    # multiplied entry by entry.
    for n, letter, i, j in _every_letter(9):
        word = _one_letter_word(n, letter)
        got = burau_rep(word)
        assert got == _dense_rep(_as_artin(word))
        assert _dense_product(got, burau_rep(word.inverse())) == BurauMatrix.identity(n)


def test_a_letter_is_the_identity_plus_a_rank_one_term():
    # B - I = u v^T, v being the ones on columns i..j-1: every row of B - I
    # is its entry at column i times v, and some row is not zero.
    for n, letter, i, j in _every_letter(9):
        m = burau_rep(_one_letter_word(n, letter))
        moved = [
            [entry - (ONE if r == c else ZERO) for c, entry in enumerate(row)]
            for r, row in enumerate(m.entries)
        ]
        assert any(any(row) for row in moved)
        for row in moved:
            u = row[i - 1]
            assert row == [u if i - 1 <= c < j - 1 else ZERO for c in range(n - 1)]


def test_a_letters_entries_carry_exact_coefficient_bounds():
    # Each entry's bound is the sum of its absolute coefficients, so that
    # products of letters stay at the narrow width as long as they can:
    # sigma_i's -s^2 is not built as 1 + (-1 - s^2) with bound 3.  The
    # columns are built afresh, past the cache, and the letter's matrix
    # keeps their bounds.
    for n, letter, _, _ in _every_letter(9):
        columns = [col for _, col in burau._letter_columns.__wrapped__(n, letter)]
        for row in columns + list(burau_rep(_one_letter_word(n, letter)).entries):
            for entry in row:
                assert entry._b == sum(abs(c) for _, c in entry.items()), (n, letter)


def _dense_product(a, b):
    """a * b with every entry summed from its products, no column reused."""
    size = a.size
    return BurauMatrix(
        a.n,
        tuple(
            tuple(
                sum((a.entries[r][k] * b.entries[k][c] for k in range(size)), ZERO)
                for c in range(size)
            )
            for r in range(size)
        ),
    )


def _dense_rep(word):
    """An Artin word's matrix from generators built entry by entry, multiplied
    entry by entry."""
    m = BurauMatrix.identity(word.n)
    for i, s in word.letters:
        m = _dense_product(m, _column_generator(i, word.n, s))
    return m


def test_products_equal_dense_products():
    # The words run from the empty word through single letters, which
    # move one column, to words that move them all.  Band letters such as
    # 1:4 also have columns that keep the identity's 1 on the diagonal but
    # not its zeros around it.
    rng = random.Random(5147)
    for _ in range(80):
        n = rng.randint(2, 6)
        left = _dense_rep(_random_word(rng, n, 6))
        band = []
        for _ in range(rng.randint(0, 2)):
            i = rng.randint(1, n - 1)
            band.append((i, rng.randint(i + 1, n), rng.choice((1, -1))))
        band = BandWord(n, tuple(band))
        for word in (_random_word(rng, n, 3), band, band.to_artin()):
            right = _dense_rep(_as_artin(word))
            assert left * word == _dense_product(left, right)
            assert burau_rep(word) == right


def test_identity_equals_one_built_entry_by_entry():
    for n in range(2, 10):
        built = tuple(
            tuple(LaurentPoly({0: 1} if r == c else {}) for c in range(n - 1))
            for r in range(n - 1)
        )
        assert BurauMatrix.identity(n) == BurauMatrix(n, built)
        assert BurauMatrix.identity(n) * ArtinWord(n) == BurauMatrix(n, built)


def _moved_columns_by_entry(m):
    """(j, column j) for every column j with an entry unlike the identity's."""
    columns = [tuple(row[j] for row in m.entries) for j in range(m.size)]
    return tuple(
        (j, col)
        for j, col in enumerate(columns)
        if any(entry != (ONE if r == j else ZERO) for r, entry in enumerate(col))
    )


def test_letter_columns_match_an_entry_by_entry_reference():
    # Every generator and band letter on up to 7 strands against the
    # columns of its matrix built entry by entry that are not the
    # identity's.
    count = 0
    for n, letter, _, _ in _every_letter(7):
        reference = _dense_rep(_as_artin(_one_letter_word(n, letter)))
        expected = _moved_columns_by_entry(reference)
        assert expected
        assert burau._letter_columns(n, letter) == expected
        count += 1
    assert count == 2 * (21 + 56)


def test_the_public_constructor_still_checks_the_shape():
    for entries in ((), ((ONE,),), ((ONE, ZERO), (ONE,)), ((ONE, ZERO, ZERO),) * 3):
        with pytest.raises(ValueError):
            BurauMatrix(3, entries)
    with pytest.raises(ValueError):
        BurauMatrix(1, ())
    with pytest.raises(ValueError, match="for 3 strands by a word on 4"):
        BurauMatrix.identity(3) * ArtinWord(4)
    with pytest.raises(ValueError, match="for 3 strands by a word on 4"):
        BurauMatrix.identity(3) * BandWord(4, ((1, 4, 1),))


def test_a_matrix_is_multiplied_by_words_only():
    m = burau_rep(parse_artin("1 -2", 3))
    for other in (m, BurauMatrix.identity(3), 2, ((1, 1),), b"\x00"):
        with pytest.raises(TypeError):
            m * other


def test_products_behave_like_validated_matrices():
    # A product skips the shape check; it still equals and hashes like
    # the matrix built entry by entry through the public constructor.
    rng = random.Random(3307)
    for _ in range(40):
        n = rng.randint(2, 6)
        left = burau_rep(_random_word(rng, n, 5))
        word = _random_word(rng, n, 3)
        product = left * word
        reference = _dense_product(left, _dense_rep(word))
        assert (product.n, product.size) == (reference.n, reference.size)
        assert product == reference
        assert hash(product) == hash(reference)
        assert {reference: "m"}[product] == "m"


def test_braid_relations():
    for n in range(3, 7):
        for i in range(1, n - 1):
            a = ArtinWord(n, ((i, 1),))
            b = ArtinWord(n, ((i + 1, 1),))
            assert burau_rep(a * b * a) == burau_rep(b * a * b)
        for i in range(1, n):
            for j in range(i + 2, n):
                a = ArtinWord(n, ((i, 1),))
                b = ArtinWord(n, ((j, 1),))
                assert burau_rep(a * b) == burau_rep(b * a)


def _leibniz_det(rows):
    """Reference determinant: the signed sum over all permutations."""
    size = len(rows)
    total = ZERO
    for perm in permutations(range(size)):
        inversions = sum(
            perm[a] > perm[b] for a in range(size) for b in range(a + 1, size)
        )
        term = LaurentPoly.term(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


_entries = st.one_of(
    st.just(ZERO),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=3).map(
        LaurentPoly
    ),
)


@st.composite
def _laurent_matrices(draw):
    """k x k Laurent matrices, k <= 5, some with a zero leading pivot (so
    elimination must swap rows) and some singular with a zero column."""
    size = draw(st.integers(1, 5))
    rows = [[draw(_entries) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        rows[0][0] = ZERO
    if draw(st.booleans()):
        col = draw(st.integers(0, size - 1))
        for row in rows:
            row[col] = ZERO
    return rows


@given(_laurent_matrices())
# A zero pivot at the second step: rows 1 and 2 must be swapped.
@example([[ONE, ONE, ZERO], [ONE, ONE, ONE], [ZERO, ONE, ONE]])
# A zero leading pivot with nothing below it in its column.
@example([[ZERO, S2], [ZERO, ONE]])
def test_determinant_matches_leibniz_formula(rows):
    m = BurauMatrix(len(rows) + 1, tuple(tuple(row) for row in rows))
    assert m.det() == _leibniz_det(rows)


def test_determinant_tracks_exponent_sum():
    rng = random.Random(9021)
    for n in range(2, 10):
        for _ in range(8):
            w = _random_word(rng, n, 10)
            e = w.exponent_sum()
            sign = 1 if e % 2 == 0 else -1
            assert burau_rep(w).det() == LaurentPoly({2 * e: sign})


def test_empty_word_is_identity():
    assert burau_rep(ArtinWord(4)) == BurauMatrix.identity(4)


def _crossed_columns(word):
    """The columns k in 1..n-1 that some letter of word crosses."""
    crossed = set()
    for letter in word.letters:
        last = letter[1] - 1 if len(letter) == 3 else letter[0]
        crossed.update(range(letter[0], last + 1))
    return crossed


def test_an_idle_column_answers_zero_without_a_matrix(monkeypatch):
    def refuse(cls, n):
        raise AssertionError(f"an identity on {n} strands was built")

    monkeypatch.setattr(BurauMatrix, "identity", classmethod(refuse))
    for word in (
        parse_artin("1 2 3", 300),
        parse_artin("1 2 3", 10**6),
        parse_artin("1 -1 3", 4),
        parse_artin("", 2),
        parse_band("1:3 4:6", 6),
        parse_band("2:4 -2:4", 4),
        parse_band("1:3 -1:2", 4),
    ):
        assert _crossed_columns(word) != set(range(1, word.n))
        assert conway_via_burau(word) == ZPoly()


def test_a_strand_count_too_large_to_index_is_still_refused():
    from braidconway.braid import IndexOutOfRange

    for n in (10**20, sys.maxsize + 2):
        with pytest.raises(IndexOutOfRange, match="too many to index"):
            conway_via_burau(parse_artin("1", n))


def test_words_with_an_idle_column_have_value_zero_by_their_matrix():
    # The closure of a word that leaves a column idle splits; its matrix
    # route gives 0 as well, and every other word goes through the matrix.
    rng = random.Random(7311)
    idle = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        length = rng.randint(0, 6)
        if rng.random() < 0.5:
            word = _random_word(rng, n, length)
        else:
            letters = []
            for _ in range(length):
                i = rng.randint(1, n - 1)
                letters.append((i, rng.randint(i + 1, n), rng.choice((1, -1))))
            word = BandWord(n, tuple(letters))
        by_matrix = conway_from_matrix(burau_rep(word), word.exponent_sum())
        assert conway_via_burau(word) == by_matrix
        if _crossed_columns(word) != set(range(1, n)):
            idle += 1
            assert by_matrix == ZPoly()
    assert 50 <= idle <= 250


def test_band_words_match_their_artin_expansion():
    rng = random.Random(40318)
    for _ in range(10):
        n = rng.randint(2, 6)
        letters = []
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            letters.append((i, j, rng.choice((1, -1))))
        band = BandWord(n, tuple(letters))
        assert burau_rep(band) == burau_rep(band.to_artin())


def test_full_twist_is_scalar():
    got = burau_rep(half_twist(3) ** 2)
    s6 = LaurentPoly({6: 1})
    assert got == BurauMatrix(3, ((s6, ZERO), (ZERO, s6)))


def test_band_relation_has_one_image():
    spellings = ["2:3 1:2", "1:3 2:3", "1:2 1:3"]
    matrices = [burau_rep(parse_band(text, 3)) for text in spellings]
    assert matrices[0] == matrices[1] == matrices[2]


def test_ascending_cycle_is_twist_times_artin_power():
    # (G12 G23 G13)^k equals the k-th full twist times sigma_2^(-3k).
    twist = half_twist(3) ** 2
    for k in range(1, 4):
        cycle = parse_band(" ".join(["1:2 2:3 1:3"] * k), 3)
        other = (twist**k) * parse_artin(" ".join(["-2"] * (3 * k)), 3)
        assert burau_rep(cycle) == burau_rep(other)


# --- Conway values -----------------------------------------------------------

def test_unknot_closures():
    assert conway_via_burau(parse_artin("1", 2)) == ZPoly((1,))
    assert conway_via_burau(parse_artin("1 1 -1", 2)) == ZPoly((1,))
    assert conway_via_burau(parse_artin("1 2", 3)) == ZPoly((1,))


def test_split_closures_vanish():
    assert conway_via_burau(ArtinWord(2)) == ZPoly()
    assert conway_via_burau(ArtinWord(3)) == ZPoly()
    assert conway_via_burau(parse_artin("1 1", 3)) == ZPoly()


def test_hopf_link():
    assert conway_via_burau(parse_artin("1 1", 2)) == Z


def test_trefoil():
    assert conway_via_burau(parse_artin("1 1 1", 2)) == ZPoly((1, 0, 1))


def test_figure_eight():
    assert conway_via_burau(parse_artin("1 -2 1 -2", 3)) == ZPoly((1, 0, -1))


def test_six_strand_closure_with_negative_coefficient():
    word = parse_band("1:6 1:6 4:6 3:5 2:4 1:3 2:5", 6)
    assert conway_via_burau(word) == ZPoly((1, 0, -1))


def test_six_strand_closure_rearranged_positive():
    word = parse_band("1:6 1:6 2:5 1:3 2:4 3:5 4:6", 6)
    assert conway_via_burau(word) == ZPoly((1, 0, 7))


def test_conjugation_invariance():
    rng = random.Random(5150)
    for n in (2, 3, 4):
        for _ in range(6):
            w = _random_word(rng, n, 8)
            value = conway_via_burau(w)
            for k in range(1, max(1, len(w))):
                assert conway_via_burau(w.rotated(k)) == value


def test_markov_stabilization():
    rng = random.Random(77)
    for n in (2, 3, 4):
        for _ in range(6):
            w = _random_word(rng, n, 8)
            value = conway_via_burau(w)
            for sign in (1, -1):
                wider = ArtinWord(n + 1, w.letters + ((n, sign),))
                assert conway_via_burau(wider) == value


@st.composite
def _mixed_artin_words(draw, n=None):
    if n is None:
        n = draw(st.integers(2, 8))
    letters = draw(
        st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=10)
    )
    return ArtinWord(n, tuple(letters))


@st.composite
def _mixed_words(draw, n, band):
    """A mixed-sign band word on n strands, or an Artin word if not band."""
    if not band:
        return draw(_mixed_artin_words(n))
    sign = st.sampled_from((1, -1))
    letter = st.integers(1, n - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n), sign)
    )
    return BandWord(n, tuple(draw(st.lists(letter, max_size=6))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_matrix_acts_on_words(data):
    # (M u) v = M (u v), and the identity times a word is its matrix
    # multiplied entry by entry.
    n = data.draw(st.integers(2, 7))
    m = burau_rep(data.draw(_mixed_words(n, data.draw(st.booleans()))))
    band = data.draw(st.booleans())
    u, v = data.draw(_mixed_words(n, band)), data.draw(_mixed_words(n, band))
    assert (m * u) * v == m * (u * v)
    for word in (u, v, u * v):
        assert BurauMatrix.identity(n) * word == _dense_rep(_as_artin(word))


@settings(max_examples=100, deadline=None)
@given(_mixed_artin_words(), st.integers(0, 9))
def test_conway_is_invariant_under_rotation(word, k):
    assert conway_via_burau(word.rotated(k % max(1, len(word)))) == conway_via_burau(word)


@settings(max_examples=40, deadline=None)
@given(_mixed_artin_words(), st.data())
def test_conway_is_invariant_under_conjugation(word, data):
    # Any v on the same strands, not only a rotation's prefix of the word.
    v = data.draw(_mixed_artin_words(word.n))
    assert conway_via_burau(v * word * v.inverse()) == conway_via_burau(word)


@settings(max_examples=100, deadline=None)
@given(_mixed_artin_words(), st.sampled_from((1, -1)))
# 2 -> 3 and 3 -> 4 strands cross between the trace form and Bareiss.
@example(ArtinWord(2, ((1, 1), (1, 1), (1, -1))), -1)
@example(ArtinWord(3, ((1, 1), (2, -1), (2, -1), (1, 1))), 1)
def test_conway_is_invariant_under_markov_stabilization(word, sign):
    wider = ArtinWord(word.n + 1, word.letters + ((word.n, sign),))
    assert conway_via_burau(wider) == conway_via_burau(word)


def test_normalization_rejects_wrong_exponent():
    # Feeding the wrong exponent sum breaks exactness, and the failure is
    # reported as an internal fault, not a value.
    m = burau_rep(parse_artin("1", 2))
    with pytest.raises(InternalInconsistency):
        conway_from_matrix(m, 2)


# --- the three-strand trace form --------------------------------------------

def _bareiss_conway(m, exponent_sum):
    """The normalization of det(M - Id) from Bareiss elimination, any n."""
    shifted = BurauMatrix(
        m.n,
        tuple(
            tuple(entry - ONE if r == c else entry for c, entry in enumerate(row))
            for r, row in enumerate(m.entries)
        ),
    )
    return burau._normalize(m.n, exponent_sum, shifted.det())


def _positive_three_braids(max_len):
    """(matrix, length) for every distinct positive 3-braid up to max_len.

    The band words are walked length by length and deduplicated on the
    matrix, which is faithful on three strands.
    """
    letters = [BandWord(3, ((i, j, 1),)) for i, j in ((1, 2), (2, 3), (1, 3))]
    level = {BurauMatrix.identity(3)}
    for length in range(max_len + 1):
        yield from ((m, length) for m in level)
        level = {m * letter for m in level for letter in letters}


def test_trace_form_matches_bareiss_on_every_positive_braid_to_length_9():
    count = 0
    for m, length in _positive_three_braids(9):
        assert m.det() == LaurentPoly({2 * length: -1 if length % 2 else 1})
        assert conway_from_matrix(m, length) == _bareiss_conway(m, length)
        count += 1
    assert count == 2 ** 11 - 9 - 3


def test_trace_form_matches_bareiss_on_mixed_sign_words():
    rng = random.Random(27183)
    words = [_random_word(rng, 3, 12) for _ in range(100)]
    for _ in range(100):
        letters = tuple(
            rng.choice(((1, 2), (2, 3), (1, 3))) + (rng.choice((1, -1)),)
            for _ in range(rng.randint(0, 12))
        )
        words.append(BandWord(3, letters))
    exponents = [w.exponent_sum() for w in words]
    assert min(exponents) < 0 < max(exponents)
    for w, e in zip(words, exponents):
        m = burau_rep(w)
        assert m.det() == LaurentPoly({2 * e: -1 if e % 2 else 1})
        assert conway_from_matrix(m, e) == _bareiss_conway(m, e)


def test_trace_form_rejects_a_wrong_exponent_sum():
    rng = random.Random(1618)
    for _ in range(40):
        w = _random_word(rng, 3, 12)
        m, e = burau_rep(w), w.exponent_sum()
        for wrong in (e - 2, e - 1, e + 1, e + 2, e + 3):
            with pytest.raises(InternalInconsistency):
                conway_from_matrix(m, wrong)


def test_trace_form_takes_no_determinant_and_wider_braids_take_one(monkeypatch):
    calls = 0
    det = BurauMatrix.det

    def counted_det(self):
        nonlocal calls
        calls += 1
        return det(self)

    monkeypatch.setattr(BurauMatrix, "det", counted_det)
    rng = random.Random(4142)
    for n in range(3, 8):
        for _ in range(4):
            w = _random_word(rng, n, 10)
            m = burau_rep(w)
            calls = 0
            conway_from_matrix(m, w.exponent_sum())
            assert calls == (0 if n == 3 else 1)


# --- the full-twist difference law -------------------------------------------

def test_full_twist_difference_frozen_values():
    # By the recurrence F_4 = z^3 + 2z and F_2 = z, so the e=0, k=1 shift
    # is z(F_4 + F_2) = 3z^2 + z^4.
    assert full_twist_difference(0, 1) == ZPoly((0, 0, 3, 0, 1))
    # At e=-3 the reflection gives F_1 + F_-1 = 2.
    assert full_twist_difference(-3, 1) == ZPoly((0, 2))
    # At e=-6, k=2 the four Fibonacci terms cancel in pairs.
    assert full_twist_difference(-6, 2) == ZPoly()
    assert full_twist_difference(5, 0) == ZPoly()
    with pytest.raises(ValueError, match="need k >= 0"):
        full_twist_difference(0, -1)


def test_full_twist_difference_matches_matrix_route():
    rng = random.Random(60103)
    twist = half_twist(3)
    for _ in range(40):
        alpha = _random_word(rng, 3, 10)
        base = conway_via_burau(alpha)
        e = alpha.exponent_sum()
        for k in (1, 2, 3):
            beta = (twist ** (2 * k)) * alpha
            assert conway_via_burau(beta) - base == full_twist_difference(e, k)


def test_balanced_exponent_collapse():
    # With e = -3r the difference collapses: even r leaves the polynomial
    # unchanged, odd r shifts it by 2z times a Fibonacci sum.
    rng = random.Random(8101)
    twist = half_twist(3)
    for r in (1, 2, 3):
        target = -3 * r
        for _ in range(10):
            alpha = _random_word(rng, 3, 6)
            pad = target - alpha.exponent_sum()
            sign = 1 if pad >= 0 else -1
            alpha = alpha * ArtinWord(3, tuple((2, sign) for _ in range(abs(pad))))
            assert alpha.exponent_sum() == target
            diff = conway_via_burau((twist ** (2 * r)) * alpha) - conway_via_burau(
                alpha
            )
            if r % 2 == 0:
                assert diff == ZPoly()
            else:
                want = ZPoly()
                for i in range(r):
                    want = want + fibonacci_poly(-3 * r + 6 * i + 4)
                assert diff == 2 * Z * want
