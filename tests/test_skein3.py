"""The resolution-tree engine on positive three-strand band words."""

import random
from itertools import product

import pytest

from braidconway.braid import ParseError
from braidconway.burau import burau_rep, conway_via_burau
from braidconway.polyring import Z, ZPoly
from braidconway.skein3 import (
    LETTERS,
    LeafKind,
    NoSquare,
    NotDescending,
    classify_leaf,
    conway_via_skein,
    find_square,
    format_word,
    leaf_conway,
    parse_word,
    resolve,
    rewrite_descending,
    split_square,
    to_band_word,
    tree_to_dot,
    tree_to_json,
)


def w(text):
    return parse_word(text)


def _random_word(rng, max_len):
    return tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, max_len)))


# --- alphabet ----------------------------------------------------------------

def _successor(x):
    return (x + 1) % 3


def test_successor_cycles():
    # G12 -> G23 -> G13 -> G12, spelled 1 -> 2 -> 13 -> 1.
    assert parse_word("1 2 13") == (0, 1, 2)
    assert _successor(0) == 1
    assert _successor(1) == 2
    assert _successor(2) == 0
    for x in LETTERS:
        cycle = (x, _successor(x), _successor(_successor(x)))
        assert classify_leaf(cycle) == LeafKind.TRIPLE_POWER


def test_parse_and_format():
    assert w("1 2 13") == LETTERS == (0, 1, 2)
    assert w("") == ()
    assert format_word(w("13 13 2")) == "13 13 2"
    with pytest.raises(ParseError):
        w("1 3")
    with pytest.raises(ParseError):
        w("12")


def test_to_band_word():
    band = to_band_word(w("1 2 13"))
    assert band.n == 3
    assert band.letters == ((1, 2, 1), (2, 3, 1), (1, 3, 1))
    assert band.is_positive()


# --- leaves ------------------------------------------------------------------

def test_classify_short_leaves():
    assert classify_leaf(w("")) == LeafKind.EMPTY
    assert classify_leaf(w("2")) == LeafKind.SINGLE_LETTER
    assert classify_leaf(w("2 1")) == LeafKind.TWO_DISTINCT
    assert classify_leaf(w("1 1")) is None


def test_classify_ascending_cycles():
    assert classify_leaf(w("1 2 13")) == LeafKind.TRIPLE_POWER
    assert classify_leaf(w("13 1 2")) == LeafKind.TRIPLE_POWER
    assert classify_leaf(w("2 13 1 2 13 1")) == LeafKind.TRIPLE_POWER


def test_classify_rejects_non_leaves():
    assert classify_leaf(w("1 2 1 2")) is None
    assert classify_leaf(w("1 2 13 1")) is None
    assert classify_leaf(w("1 13 2")) is None


def test_leaf_values():
    assert leaf_conway(LeafKind.EMPTY) == ZPoly()
    assert leaf_conway(LeafKind.SINGLE_LETTER) == ZPoly()
    assert leaf_conway(LeafKind.TWO_DISTINCT) == ZPoly((1,))
    assert leaf_conway(LeafKind.TRIPLE_POWER, 1) == 2 * Z
    assert leaf_conway(LeafKind.TRIPLE_POWER, 2) == ZPoly()
    assert leaf_conway(LeafKind.TRIPLE_POWER, 4) == ZPoly()


def test_odd_cycle_leaf_matches_matrix_route():
    for k in (1, 3, 5):
        cycle = w(" ".join(["1 2 13"] * k))
        assert leaf_conway(LeafKind.TRIPLE_POWER, k) == conway_via_burau(
            to_band_word(cycle)
        )


def test_triple_power_needs_positive_k():
    with pytest.raises(ValueError):
        leaf_conway(LeafKind.TRIPLE_POWER, 0)


# --- squares -----------------------------------------------------------------

def test_find_square_examples():
    assert find_square(w("1 1 2")) == 0
    assert find_square(w("2 1 1")) == 1
    assert find_square(w("2 1 2")) == 2  # wraparound pair
    assert find_square(w("1 2")) is None
    assert find_square(w("1")) is None
    assert find_square(w("")) is None


def test_split_square_interior():
    erased, reduced = split_square(w("1 1"), 0)
    assert erased == ()
    assert reduced == w("1")
    erased, reduced = split_square(w("13 2 2 1"), 1)
    assert erased == w("13 1")
    assert reduced == w("13 2 1")


def test_split_square_wraparound_rotates_first():
    erased, reduced = split_square(w("2 1 2"), 2)
    assert erased == w("1")
    assert reduced == w("2 1")


def test_split_square_rejects_bad_positions():
    with pytest.raises(NoSquare):
        split_square(w("1 2 13"), 0)
    with pytest.raises(NoSquare):
        split_square(w("1 1"), 5)


# --- descending pairs ----------------------------------------------------------

def test_rewrite_keeps_spelling_that_already_fits():
    assert rewrite_descending(w("2 1 1"), 0) == w("2 1 1")


def test_rewrite_respells_toward_next_letter():
    assert rewrite_descending(w("2 1 2"), 0) == w("13 2 2")
    assert rewrite_descending(w("2 1 13"), 0) == w("1 13 13")


def test_rewrite_wraparound_pair():
    # The descending pair (w[2], w[0]) is respelled in place around the end.
    assert rewrite_descending(w("1 13 2"), 2) == w("13 13 1")


def test_rewrite_rejects_non_descending():
    with pytest.raises(NotDescending):
        rewrite_descending(w("1 2 1"), 0)
    with pytest.raises(NotDescending):
        rewrite_descending(w("1 1"), 0)


def test_rewrite_preserves_matrix_on_interior_pairs():
    rng = random.Random(3121)
    checked = 0
    while checked < 60:
        word = _random_word(rng, 8)
        length = len(word)
        if length < 3:
            continue
        for t in range(length - 1):
            if _successor(word[(t + 1) % length]) == word[t]:
                rewritten = rewrite_descending(word, t)
                assert burau_rep(to_band_word(rewritten)) == burau_rep(
                    to_band_word(word)
                )
                checked += 1


def test_rewrite_preserves_closure_on_wraparound_pairs():
    rng = random.Random(644)
    checked = 0
    while checked < 25:
        word = _random_word(rng, 8)
        length = len(word)
        if length < 3:
            continue
        t = length - 1
        if _successor(word[0]) == word[t]:
            rewritten = rewrite_descending(word, t)
            assert conway_via_burau(to_band_word(rewritten)) == conway_via_burau(
                to_band_word(word)
            )
            checked += 1


# --- whole trees ---------------------------------------------------------------

def test_hopf_tree_value():
    assert conway_via_skein(w("1 1 2")) == Z


def test_trefoil_tree_shape():
    tree = resolve(w("1 2 1 2"))
    assert tree.leaf is None
    assert tree.left.word == w("1 13")
    assert tree.left.leaf == LeafKind.TWO_DISTINCT
    assert tree.right.word == w("1 13 2")
    assert tree.right.left.word == w("13")
    assert tree.right.right.word == w("13 2")
    assert tree.value() == ZPoly((1, 0, 1))
    assert tree.leaf_count() == 3


def test_resolve_leaf_is_single_node():
    tree = resolve(w("1 2 13"))
    assert tree.leaf == LeafKind.TRIPLE_POWER
    assert tree.left is None and tree.right is None
    assert tree.value() == 2 * Z


def test_tree_accounting():
    # Children shorten by exactly two (erased) and one (reduced) letters,
    # and the cached evaluator agrees with the sum over the tree's leaves.
    rng = random.Random(216091)

    def check(node):
        if node.leaf is not None:
            assert classify_leaf(node.word) == node.leaf
            return leaf_conway(node.leaf, len(node.word) // 3)
        assert len(node.left.word) == len(node.word) - 2
        assert len(node.right.word) == len(node.word) - 1
        return check(node.left) + Z * check(node.right)

    for _ in range(40):
        word = _random_word(rng, 9)
        tree = resolve(word)
        assert check(tree) == conway_via_skein(word)
        assert tree.value() == conway_via_skein(word)


def test_delta_relabel_keeps_both_routes():
    # Conjugation by delta = G23 G12 maps every letter to its successor,
    # so the closure, and with it each route's value, is unchanged.
    for length in range(8):
        for word in product(LETTERS, repeat=length):
            relabelled = tuple(_successor(x) for x in word)
            assert conway_via_skein(relabelled) == conway_via_skein(
                word
            ), format_word(word)
            assert conway_via_burau(to_band_word(relabelled)) == conway_via_burau(
                to_band_word(word)
            ), format_word(word)


def test_exhaustive_agreement_up_to_length_six():
    for length in range(7):
        for word in product(LETTERS, repeat=length):
            via_skein = conway_via_skein(word)
            assert via_skein == conway_via_burau(to_band_word(word)), format_word(
                word
            )
            assert via_skein.is_nonneg(), format_word(word)


# --- serialization -----------------------------------------------------------

def test_tree_to_json_document():
    tree = resolve(w("1 1 2"))
    doc = tree_to_json(tree)
    assert list(doc) == ["word", "tree", "value"]
    assert doc["word"] == "1 1 2"
    assert doc["value"] == list(tree.value().coeffs)
    root = doc["tree"]
    assert "edge" not in root
    left, right = root["children"]
    assert left["edge"] == "1" and right["edge"] == "z"
    # The square at position 0 erases to "2" and reduces to "1 2".
    assert left["word"] == "2" and left["leaf"] == "single-letter"
    assert right["word"] == "1 2" and right["leaf"] == "two-distinct"
    assert "k" not in left and "k" not in right


def test_tree_to_json_triple_power_carries_k():
    doc = tree_to_json(resolve(w("2 13 1 2 13 1")))
    leaf = doc["tree"]
    assert leaf["leaf"] == "triple-power" and leaf["k"] == 2
    # An even number of full cycles closes to a two-component split link.
    assert doc["value"] == [] and leaf["value"] == []


def test_tree_to_dot_shape():
    dot = tree_to_dot(resolve(w("1 1")))
    assert dot.startswith("digraph resolution {")
    assert dot.endswith("}")
    assert '[label="1"]' in dot and '[label="z"]' in dot
    assert 'label="conway: ' in dot
    assert "(empty)" in dot  # the erased child of "1 1"
