"""Word types, parsing, and the band-to-Artin expansion."""

import pytest

from braidconway.braid import (
    ArtinWord,
    BandWord,
    IndexOutOfRange,
    NotOrdered,
    ParseError,
    StrandMismatch,
    half_twist,
    parse_artin,
    parse_band,
)


def test_parse_artin_example():
    w = parse_artin("1 -2 1", 3)
    assert w.letters == ((1, 1), (2, -1), (1, 1))
    assert w.n == 3


def test_parse_artin_empty():
    assert parse_artin("", 4) == ArtinWord(4)
    assert parse_artin("   ", 4) == ArtinWord(4)


def test_parse_artin_rejects_garbage():
    with pytest.raises(ParseError):
        parse_artin("1 x", 3)
    with pytest.raises(ParseError):
        parse_artin("0", 3)


def test_parse_artin_rejects_large_index():
    with pytest.raises(IndexOutOfRange):
        parse_artin("3", 3)
    with pytest.raises(IndexOutOfRange):
        parse_artin("-5", 4)


def test_parse_band_example():
    w = parse_band("1:6 -2:5", 6)
    assert w.letters == ((1, 6, 1), (2, 5, -1))


def test_parse_band_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_band("1-3", 4)
    with pytest.raises(ParseError):
        parse_band("a:b", 4)
    with pytest.raises(NotOrdered):
        parse_band("3:1", 4)
    with pytest.raises(NotOrdered):
        parse_band("2:2", 4)
    with pytest.raises(IndexOutOfRange):
        parse_band("1:7", 6)


@pytest.mark.parametrize(
    "token",
    [
        "1_0",  # an underscore, which int() reads as 10
        "+1",  # a plus sign
        "\uff11",  # FULLWIDTH DIGIT ONE
        "\u0661",  # ARABIC-INDIC DIGIT ONE
    ],
)
def test_parsers_read_ascii_digits_only(token):
    with pytest.raises(ParseError, match="bad Artin letter"):
        parse_artin(f"1 {token}", 12)
    with pytest.raises(ParseError, match="bad band letter"):
        parse_band(f"{token}:11", 12)
    with pytest.raises(ParseError, match="bad band letter"):
        parse_band(f"-1:{token}", 12)


def test_artin_word_validates_letters():
    with pytest.raises(IndexOutOfRange):
        ArtinWord(3, ((3, 1),))
    with pytest.raises(IndexOutOfRange):
        ArtinWord(1, ())
    with pytest.raises(ValueError):
        ArtinWord(3, ((1, 2),))
    # A non-int strand count or entry is refused here, before any matrix.
    for n, letters in ((3, ((1.0, 1),)), (3, ((1, 1.0),)), (3.0, ((1, 1),))):
        with pytest.raises(TypeError):
            ArtinWord(n, letters)


def test_band_word_validates_letters():
    with pytest.raises(NotOrdered):
        BandWord(4, ((3, 2, 1),))
    with pytest.raises(IndexOutOfRange):
        BandWord(4, ((0, 2, 1),))
    with pytest.raises(ValueError, match="letter sign must be"):
        BandWord(4, ((1, 2, 2),))
    # A non-int strand count or entry is refused here, before any matrix.
    for n, letters in ((4, ((1, 2.5, 1),)), (4.0, ())):
        with pytest.raises(TypeError):
            BandWord(n, letters)


def test_exponent_sums():
    assert parse_artin("1 -2 1", 3).exponent_sum() == 1
    assert parse_artin("", 3).exponent_sum() == 0
    # Band letters contribute only their middle sign; the conjugating
    # letters cancel.
    assert parse_band("1:6 -2:5 3:4", 6).exponent_sum() == 1
    assert parse_band("1:6 -2:5 3:4", 6).to_artin().exponent_sum() == 1


def test_band_to_artin_adjacent_is_single_letter():
    assert parse_band("2:3", 4).to_artin() == parse_artin("2", 4)
    assert parse_band("-1:2", 4).to_artin() == parse_artin("-1", 4)


def test_band_to_artin_wide_example():
    # The band joining strands 1 and 4 conjugates sigma_3 by sigma_2 sigma_1.
    assert parse_band("1:4", 4).to_artin() == parse_artin("-1 -2 3 2 1", 4)


def test_band_to_artin_sign_flips_middle_letter_only():
    assert parse_band("-1:3", 3).to_artin() == parse_artin("-1 -2 1", 3)
    assert parse_band("1:3", 3).to_artin() == parse_artin("-1 2 1", 3)


def test_rotation():
    w = parse_artin("1 2 1", 3)
    assert w.rotated(1) == parse_artin("2 1 1", 3)
    assert w.rotated(3) == w
    assert w.rotated(-1) == w.rotated(2)
    assert ArtinWord(3).rotated(5) == ArtinWord(3)
    b = parse_band("1:2 2:3", 3)
    assert b.rotated(1) == parse_band("2:3 1:2", 3)


def test_concatenation_and_inverse():
    a = parse_artin("1 2", 3)
    b = parse_artin("-1", 3)
    assert a * b == parse_artin("1 2 -1", 3)
    assert a.inverse() == parse_artin("-2 -1", 3)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert parse_band("1:3", 3).inverse() == parse_band("-1:3", 3)


def test_concatenation_rejects_strand_mismatch():
    with pytest.raises(StrandMismatch):
        parse_artin("1", 3) * parse_artin("1", 4)
    with pytest.raises(StrandMismatch):
        parse_band("1:2", 3) * parse_band("1:2", 4)
    # Artin and band words never concatenate, even on the same strands.
    with pytest.raises(TypeError):
        parse_artin("1", 3) * parse_band("1:2", 3)
    with pytest.raises(TypeError):
        parse_band("1:2", 3) * parse_artin("1", 3)


def test_powers():
    w = parse_artin("1 2", 3)
    assert w**0 == ArtinWord(3)
    assert w**2 == parse_artin("1 2 1 2", 3)
    assert w**-1 == w.inverse()
    assert w**-2 == (w.inverse()) ** 2


def test_half_twist_words():
    assert half_twist(2) == parse_artin("1", 2)
    assert half_twist(3) == parse_artin("1 2 1", 3)
    assert half_twist(4) == parse_artin("1 2 1 3 2 1", 4)
    assert len(half_twist(5)) == 10


def test_word_str_round_trips():
    artin = parse_artin("1 -2 1", 3)
    assert parse_artin(str(artin), 3) == artin
    band = parse_band("1:6 -2:5", 6)
    assert parse_band(str(band), 6) == band


# --- the value types on Frozen ---------------------------------------------------

def _values():
    """One instance of each value type, and its repr at the time these types
    were frozen dataclasses."""
    from braidconway.burau import BurauMatrix, burau_rep
    from braidconway.skein3 import parse_word, resolve

    return [
        (ArtinWord(3, ((1, 1), (2, -1))), "ArtinWord(n=3, letters=((1, 1), (2, -1)))"),
        (ArtinWord(3), "ArtinWord(n=3, letters=())"),
        (BandWord(3, ((1, 3, 1),)), "BandWord(n=3, letters=((1, 3, 1),))"),
        (
            burau_rep(ArtinWord(3, ((1, 1),))),
            "BurauMatrix(n=3, entries=((LaurentPoly('-s^2'), LaurentPoly('0')), "
            "(LaurentPoly('1'), LaurentPoly('1'))))",
        ),
        (BurauMatrix.identity(2), "BurauMatrix(n=2, entries=((LaurentPoly('1'),),))"),
        (
            resolve(parse_word("1 2")),
            "Node(word=b'\\x00\\x01', value=ZPoly('1'), "
            "leaf=<LeafKind.TWO_DISTINCT: 'two-distinct'>, left=None, right=None, size=1)",
        ),
        (
            resolve(parse_word("1 1")),
            "Node(word=b'\\x00\\x00', value=ZPoly('0'), leaf=None, "
            "left=Node(word=b'', value=ZPoly('0'), leaf=<LeafKind.EMPTY: 'empty'>, "
            "left=None, right=None, size=1), "
            "right=Node(word=b'\\x00', value=ZPoly('0'), "
            "leaf=<LeafKind.SINGLE_LETTER: 'single-letter'>, left=None, right=None, size=1), "
            "size=3)",
        ),
    ]


def test_value_types_keep_the_dataclass_repr():
    for value, text in _values():
        assert repr(value) == text


def test_value_types_compare_by_class_and_fields():
    values = [value for value, _ in _values()]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    twin = _values()
    for (a, _), (b, _) in zip(_values(), twin):
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(a._fields())
    # Equal fields, different classes.
    assert ArtinWord(3, ()) != BandWord(3, ())
    assert hash(ArtinWord(3, ())) == hash(BandWord(3, ()))
    assert len({ArtinWord(3, ()), BandWord(3, ()), ArtinWord(3)}) == 2
    assert ArtinWord(3) != (3, ())


def test_value_types_refuse_assignment():
    for value, _ in _values():
        for name in value._names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
        assert not hasattr(value, "__dict__")


def test_value_types_copy_and_pickle():
    import copy
    import pickle

    for value, text in _values():
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == text
