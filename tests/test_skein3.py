"""The resolution-tree engine on positive three-strand band words."""

import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidconway import skein3
from braidconway.braid import ParseError
from braidconway.burau import burau_rep, conway_via_burau
from braidconway.polyring import Z, ZPoly, fibonacci_poly
from braidconway.skein3 import (
    LETTERS,
    LeafKind,
    classify_leaf,
    conway_via_skein,
    format_word,
    full_twist_difference,
    leaf_conway,
    parse_word,
    resolve,
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
    assert parse_word("1 2 13") == b"\x00\x01\x02"
    assert _successor(0) == 1
    assert _successor(1) == 2
    assert _successor(2) == 0
    for x in LETTERS:
        cycle = bytes((x, _successor(x), _successor(_successor(x))))
        assert classify_leaf(cycle) == LeafKind.TRIPLE_POWER


def test_parse_and_format():
    assert w("1 2 13") == bytes(LETTERS) == b"\x00\x01\x02"
    assert LETTERS == (0, 1, 2)
    assert w("") == b""
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


@pytest.mark.parametrize(
    "word",
    [(-1,), (-1, 0), (0, 3), (1, -3), (3,), (0, 0, 7), (-1, 0, 1), (-3, 1, 2)],
)
def test_foreign_letters_are_refused(word):
    # A negative int must not be read as a letter counted from the end,
    # nor a letter past 2 as a byte that matches no square or pair.  An
    # iterator is read once, so the error names its letter all the same.
    spellings = [tuple, list, iter]
    if min(word) >= 0:
        spellings.append(bytes)
    for entry in (format_word, to_band_word, conway_via_skein, resolve):
        for spell in spellings:
            with pytest.raises(ValueError, match="not a three-strand letter"):
                entry(spell(word))


def test_an_int_is_not_a_word():
    # bytes(3) would be three zero bytes, the word "1 1 1"; a float or a
    # string is no letter, even where it equals or spells one.
    for entry in (format_word, to_band_word, conway_via_skein, resolve):
        with pytest.raises(TypeError, match="not the int 3"):
            entry(3)
        for word in [(1.0,), (0, 2.0), "1 2"]:
            with pytest.raises(TypeError):
                entry(word)


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


def _ascends_all_the_way(word):
    # The reference definition: every cyclic pair, wraparound included,
    # steps to the successor.
    length = len(word)
    return all(
        word[(t + 1) % length] == _successor(word[t]) for t in range(length)
    )


def _reference_leaf(word):
    if len(word) == 0:
        return LeafKind.EMPTY
    if len(word) == 1:
        return LeafKind.SINGLE_LETTER
    if len(word) == 2:
        return LeafKind.TWO_DISTINCT if word[0] != word[1] else None
    return LeafKind.TRIPLE_POWER if _ascends_all_the_way(word) else None


def test_classify_leaf_matches_the_pairwise_definition():
    for length in range(10):
        for word in map(bytes, product(LETTERS, repeat=length)):
            assert classify_leaf(word) == _reference_leaf(word), format_word(word)


def test_classify_leaf_refuses_foreign_first_letters():
    # A first letter outside 0, 1, 2 picks no cycle that the word can equal.
    # Negative letters cannot be bytes: the entry points refuse them.
    for word in map(bytes, [(3, 1, 2), (5, 0, 1, 2, 0, 1)]):
        assert classify_leaf(word) is _reference_leaf(word) is None


def test_skein_combine_matches_zpoly_arithmetic():
    # The combine step adds z * value(reduced) on raw coefficient tuples;
    # it must equal the same sum taken with ZPoly's own operators.
    for length in range(9):
        for word in map(bytes, product(LETTERS, repeat=length)):
            leaf = _reference_leaf(word)
            if leaf is not None:
                expected = leaf_conway(leaf, length // 3)
            else:
                erased, reduced = skein3._resolution_step(word)
                lo, hi = conway_via_skein(erased), conway_via_skein(reduced)
                expected = lo + Z * hi
                assert skein3._combine(lo, hi) == expected, format_word(word)
            assert conway_via_skein(word) == expected, format_word(word)


_zpolys = st.lists(st.integers(-3, 3), max_size=6).map(ZPoly)


@example(ZPoly((1, 1)), ZPoly((-1,)))  # the top cancels: 1
@example(ZPoly((0, 2, 1)), ZPoly((-2, -1)))  # everything cancels: 0
@example(ZPoly((4,)), ZPoly((0, 0, 3)))
@example(ZPoly(), ZPoly((2, 1)))
@example(ZPoly((2, 1)), ZPoly())
@example(ZPoly(), ZPoly())
@given(_zpolys, _zpolys)
def test_skein_combine_adds_any_two_child_values(lo, hi):
    # Real children have non-negative values, whose sum never cancels; fed
    # arbitrary ones, the combine must still trim a cancelled top.  The
    # second call, on equal but distinct values, is answered by the cache.
    expected = (lo + Z * hi).coeffs
    assert skein3._combine(lo, hi).coeffs == expected
    assert skein3._combine(ZPoly(lo.coeffs), ZPoly(hi.coeffs)).coeffs == expected


def test_skein_combine_shares_one_bounded_cache():
    first = skein3._combine(ZPoly((1, 2)), ZPoly((0, 3)))
    assert skein3._combine(ZPoly((1, 2)), ZPoly((0, 3))) is first
    assert skein3._combine.cache_info().maxsize is not None


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


def test_cycle_leaf_is_the_full_twist_shift():
    # The reference is the sum itself: 2z times the sum of F_{6i+4-3k}
    # over i < k for odd k, and 0 for even k.
    for k in range(1, 61):
        want = ZPoly()
        if k % 2:
            for i in range(k):
                want = want + fibonacci_poly(6 * i + 4 - 3 * k)
            want = 2 * Z * want
        leaf = leaf_conway(LeafKind.TRIPLE_POWER, k)
        assert leaf == want == full_twist_difference(-3 * k, k), k


def test_odd_cycle_leaf_has_no_negative_coefficient():
    # The sign that the paper's induction needs of its one non-trivial leaf.
    for k in range(1, 102, 2):
        leaf = leaf_conway(LeafKind.TRIPLE_POWER, k)
        assert leaf.coeffs and leaf.is_nonneg(), k


def test_triple_power_needs_positive_k():
    with pytest.raises(ValueError):
        leaf_conway(LeafKind.TRIPLE_POWER, 0)
    with pytest.raises(ValueError, match="unknown leaf kind"):
        leaf_conway("triple-power", 1)


# --- the resolution step ------------------------------------------------------

def step(text):
    erased, reduced = skein3._resolution_step(w(text))
    return format_word(erased), format_word(reduced)


def test_find_square_examples():
    # The leftmost cyclic square is split, before any descending pair.
    assert step("1 1 2") == ("2", "1 2")
    assert step("2 1 1") == ("2", "2 1")
    assert step("1 2 2 13 13") == ("1 13 13", "1 2 13 13")
    assert step("2 1 13 13") == ("2 1", "2 1 13")


def test_split_square_interior():
    assert step("1 1") == ("", "1")
    assert step("13 2 2 1") == ("13 1", "13 2 1")


def test_split_square_wraparound_rotates_first():
    # The square (w[2], w[0]) is rotated to the front, then split.
    assert step("2 1 2") == ("1", "2 1")


def test_rewrite_keeps_spelling_that_already_fits():
    # The descending pair "2 1" already ends in the letter after it, so
    # the word is split as spelled.
    assert step("2 1 1") == ("2", "2 1")


def test_rewrite_respells_toward_next_letter():
    # "2 1 13" respells to "1 13 13", whose square splits.
    assert step("2 1 13") == ("1", "1 13")
    # In "1 2 13 2" the leftmost descending pair, "13 2", respells to
    # "2 1"; the square "1 1" that it plants wraps, so it is rotated to
    # the front as "1 1 2 2" and split.
    assert step("1 2 13 2") == ("2 2", "1 2 2")


def test_rewrite_wraparound_pair():
    # Only the wraparound pair (2, 1) descends: it is rotated to the front
    # as "2 1 2 13 1", respelled to "13 2 2 13 1", and split.
    assert step("1 2 13 1 2") == ("13 13 1", "13 2 13 1")


def _split(word, pos):
    # The children of the square (word[pos], word[pos + 1]).
    return word[:pos] + word[pos + 2 :], word[: pos + 1] + word[pos + 2 :]


def _respell(word, t):
    # The descending pair (word[t], word[t + 1]) as ((x + 1) % 3, x), x the
    # letter after the pair: one letter of the braid, spelled another way.
    x = word[(t + 2) % len(word)]
    return word[:t] + bytes((_successor(x), x)) + word[t + 2 :]


def _square_free_words(length):
    # Every word of the given length with no cyclic square.
    for start in LETTERS:
        for steps in product((1, 2), repeat=length - 1):
            word = [start]
            for s in steps:
                word.append((word[-1] + s) % 3)
            if word[-1] != word[0]:
                yield bytes(word)


def _leftmost_descending(word):
    length = len(word)
    return next(
        (t for t in range(length) if _successor(word[(t + 1) % length]) == word[t]),
        None,
    )


def test_rewrite_preserves_matrix_on_interior_pairs():
    # Without a square, the step respells the leftmost descending pair in
    # place and splits the square it plants; the respelling keeps the matrix.
    rng = random.Random(3121)
    checked = 0
    while checked < 60:
        length = rng.randint(3, 14)
        word = rng.choice(list(_square_free_words(length)))
        t = _leftmost_descending(word)
        if t is None or t > length - 3:
            continue
        respelled = _respell(word, t)
        assert burau_rep(to_band_word(respelled)) == burau_rep(to_band_word(word))
        assert skein3._resolution_step(word) == _split(respelled, t + 1)
        checked += 1


def test_rewrite_preserves_closure_on_wraparound_pairs():
    # A move that wraps around the end is rotated to the front first, which
    # conjugates the braid: the matrix changes, the closure does not.
    def conway(word):
        return conway_via_burau(to_band_word(word))

    def rotate(word):
        return word[-1:] + word[:-1]

    checked = {"square": 0, "pair": 0, "planted": 0}
    for length in range(3, 12):
        # The only square wraps: (w[-1], w[0]).
        for inner in _square_free_words(length - 1):
            word = inner + inner[:1]
            rotated = rotate(word)
            assert conway(rotated) == conway(word)
            assert skein3._resolution_step(word) == _split(rotated, 0)
            checked["square"] += 1
        for word in _square_free_words(length):
            t = _leftmost_descending(word)
            if t == length - 1:
                # The only descending pair wraps: rotate, then respell.
                moved = _respell(rotate(word), 0)
                pos = 1
                checked["pair"] += 1
            elif t == length - 2:
                # The respelling plants the square (w[-1], w[0]).
                moved = rotate(_respell(word, t))
                pos = 0
                checked["planted"] += 1
            else:
                continue
            assert conway(moved) == conway(word)
            assert skein3._resolution_step(word) == _split(moved, pos)
    assert min(checked.values()) > 0, checked


def test_step_obeys_the_skein_relation_on_the_matrix_route():
    # Every move, respelling and rotation included, must keep
    # value(w) = value(erased) + z * value(reduced) by the other route.
    def burau(word):
        return conway_via_burau(to_band_word(word))

    for length in range(8):
        for word in map(bytes, product(LETTERS, repeat=length)):
            if classify_leaf(word) is None:
                erased, reduced = skein3._resolution_step(word)
                assert burau(word) == burau(erased) + Z * burau(reduced), format_word(
                    word
                )


def test_step_choices_are_pinned():
    # The exact children of every non-leaf word of length <= 8: the tree's
    # shape, and so the `tree` output, depends on them, not only its value.
    # Words and children are hashed in their tuple spelling.
    digest = hashlib.sha256()
    count = 0
    for length in range(9):
        for word in product(LETTERS, repeat=length):
            if classify_leaf(bytes(word)) is None:
                erased, reduced = map(tuple, skein3._resolution_step(bytes(word)))
                digest.update(f"{word} {erased} {reduced}\n".encode())
                count += 1
    assert count == 9825
    assert digest.hexdigest() == (
        "a21407e890c2d6778fafa65febc7e17e36acbe35d3b58a86622a188f355bdf19"
    )


def _tuple_loop_step(w):
    # The resolution step as it was written on tuple words, with one
    # Python loop per search: the reference that the byte patterns replace.
    length = len(w)
    for pos in range(length):
        if w[pos] == w[pos + 1 - length]:
            break
    else:
        for pos in range(length):
            if (w[pos + 1 - length] + 1) % 3 == w[pos]:
                break
        else:
            raise skein3.Unresolvable(format_word(w))
        if pos == length - 1:
            w, pos = w[pos:] + w[:pos], 0
        nxt = w[(pos + 2) % length]
        w = w[:pos] + ((nxt + 1) % 3, nxt) + w[pos + 2 :]
        pos += 1
    if pos == length - 1:
        w, pos = w[pos:] + w[:pos], 0
    return w[:pos] + w[pos + 2 :], w[: pos + 1] + w[pos + 2 :]


def _same_step(word):
    erased, reduced = skein3._resolution_step(bytes(word))
    return (tuple(erased), tuple(reduced)) == _tuple_loop_step(tuple(word))


def test_step_matches_the_tuple_loop_on_every_short_word():
    count = 0
    for length in range(11):
        for word in product(LETTERS, repeat=length):
            if classify_leaf(bytes(word)) is None:
                assert _same_step(word), format_word(word)
                count += 1
    assert count == 88_554


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), max_size=60))
def test_step_matches_the_tuple_loop_on_long_words(word):
    if classify_leaf(bytes(word)) is None:
        assert _same_step(word), format_word(word)


def test_an_ascending_cycle_offers_no_move():
    # A leaf, never resolved by the fold; asked anyway, the step refuses.
    with pytest.raises(skein3.Unresolvable):
        skein3._resolution_step(w("1 2 13"))


# --- the normal form ---------------------------------------------------------

def test_normal_form_counts_the_braids_of_each_length():
    # Length L has 2^(L+1) - 1 positive three-strand braids.
    for length in range(11):
        words = map(bytes, product(LETTERS, repeat=length))
        forms = {skein3._normal_form(word) for word in words}
        assert len(forms) == 2 ** (length + 1) - 1, length


def test_each_descending_pair_is_delta():
    for pair in ("2 1", "13 2", "1 13"):
        assert skein3._normal_form(w(pair)) == b"\x03"


def test_normal_forms_are_equal_exactly_when_burau_matrices_are():
    # The Burau matrix is faithful on three strands, so it names the
    # braid.  Each form is delta^p followed by letters with no descending
    # adjacent pair, spells the word's braid with delta as 2 1, and is the
    # word itself when the word has no descending pair.
    delta = w("2 1")
    form_of_matrix, matrix_of_form = {}, {}
    for length in range(9):
        for word in map(bytes, product(LETTERS, repeat=length)):
            form = skein3._normal_form(word)
            matrix = burau_rep(to_band_word(word))
            assert form_of_matrix.setdefault(matrix, form) == form, format_word(word)
            assert matrix_of_form.setdefault(form, matrix) == matrix, format_word(word)
            u = form.lstrip(b"\x03")
            assert all((x - y) % 3 != 1 for x, y in zip(u, u[1:])), format_word(word)
            spelling = form.replace(b"\x03", delta)
            assert burau_rep(to_band_word(spelling)) == matrix, format_word(word)
            if skein3._DESCENDING.search(word) is None:
                assert form is word
    assert len(form_of_matrix) == len(matrix_of_form) == 2**10 - 11


def _normal_forms(max_length):
    """The normal form of every positive braid of braid length <= max_length.

    A form is delta^p u with no descending pair in u: after its first
    letter, each letter of u repeats the one before or is its successor.
    """
    words = [[b""], [bytes((x,)) for x in LETTERS]]
    while len(words) <= max_length:
        words.append(
            [u + bytes((y,)) for u in words[-1] for y in (u[-1], _successor(u[-1]))]
        )
    return [
        skein3._DELTA * p + u
        for length in range(max_length + 1)
        for p in range(length // 2 + 1)
        for u in words[length - 2 * p]
    ]


def test_braid_step_folds_every_short_braid_to_its_matrix_value():
    # Every positive braid of braid length <= 10 (delta counts 2), as its
    # normal form: the braid fold gives the matrix value of the form
    # spelled with delta as 2 1, and each braid step's children are normal
    # forms, 2 (erased) and 1 (reduced) shorter.
    forms = _normal_forms(10)
    assert len(forms) == len(set(forms)) == sum(2 ** (k + 1) - 1 for k in range(11))
    for key in forms:
        spelling = _spelled(key)
        assert skein3._normal_form(spelling) == key
        value = skein3._fold(key, {}, skein3._value, skein3._braid_step)
        assert value == conway_via_burau(to_band_word(spelling)), key
        if skein3._leaf_kind(key) is None:
            erased, reduced = skein3._braid_step(key)
            for child, drop in ((erased, 2), (reduced, 1)):
                assert skein3._normal_form(_spelled(child)) == child, (key, child)
                assert len(_spelled(child)) == len(spelling) - drop, (key, child)


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
    assert conway_via_skein(tree.word) == ZPoly((1, 0, 1))
    # Three leaves under two inner nodes.
    assert (tree.size, tree.left.size, tree.right.size) == (5, 1, 3)


def test_resolve_leaf_is_single_node():
    tree = resolve(w("1 2 13"))
    assert tree.leaf == LeafKind.TRIPLE_POWER
    assert tree.left is None and tree.right is None
    assert tree.size == 1
    assert conway_via_skein(tree.word) == 2 * Z


def test_tree_accounting():
    # Children shorten by exactly two (erased) and one (reduced) letters,
    # each node's size counts its subtree, and the cached evaluator agrees
    # with the sum over the tree's leaves.
    rng = random.Random(216091)

    def check(node):
        if node.leaf is not None:
            assert classify_leaf(node.word) == node.leaf
            assert node.size == 1
            value = leaf_conway(node.leaf, len(node.word) // 3)
        else:
            assert len(node.left.word) == len(node.word) - 2
            assert len(node.right.word) == len(node.word) - 1
            assert node.size == 1 + node.left.size + node.right.size
            value = check(node.left) + Z * check(node.right)
        assert node.value == value
        return value

    for _ in range(40):
        word = _random_word(rng, 9)
        assert check(resolve(word)) == conway_via_skein(word)


def _proper_subwords(tree):
    """The words of every node below the root of a resolved tree."""
    stack, seen = [tree], set()
    while stack:
        node = stack.pop()
        if node.leaf is None:
            for child in (node.left, node.right):
                seen.add(child.word)
                stack.append(child)
    return seen


def _spelled(key):
    """A normal form's key as a word, with delta spelled 2 1."""
    return key.replace(skein3._DELTA, w("2 1"))


def _check_memo_keys(memo, word, keys):
    # Each of keys is the normal form of a braid no longer than word, the
    # braid of word itself or one below it.  keys in memo hold the value
    # of the braid they spell.
    word = bytes(word)
    for key in keys:
        assert type(key) is bytes
        spelling = _spelled(key)
        assert skein3._normal_form(spelling) == key, key
        assert len(spelling) <= len(word), key
        assert memo[key] == resolve(spelling).value, key


def test_conway_via_skein_memoizes_braids_by_normal_form(monkeypatch):
    # Values are kept in the memo that the caller passes, each under the
    # normal form of its braid alone: the word's own braid and every braid
    # folded below it, never a spelling that is not a form.
    word = w("1 2 1 2 13 2 2 1")
    memo = {}
    value = conway_via_skein(word, memo)
    tree = resolve(word)

    _check_memo_keys(memo, word, memo)
    assert memo[skein3._normal_form(word)] == value == tree.value
    assert word not in memo
    for sub in _proper_subwords(tree):
        key = skein3._normal_form(sub)
        if key in memo:
            assert memo[key] == conway_via_skein(sub)
    assert conway_via_skein(word, {}) == value

    classified = []
    classify = skein3.classify_leaf
    monkeypatch.setattr(
        skein3, "classify_leaf", lambda v: classified.append(v) or classify(v)
    )
    assert conway_via_skein(word, memo) == value
    assert classified == []


def test_conway_via_skein_memo_holds_only_normal_forms():
    # After any call, over a fresh memo or one shared by many words, each
    # key is the normal form of the braid that it spells.
    rng = random.Random(3141)
    shared = {}
    for _ in range(200):
        word = _random_word(rng, 14)
        fresh = {}
        for memo in (fresh, shared):
            conway_via_skein(word, memo)
            assert all(skein3._normal_form(_spelled(key)) == key for key in memo)
        for key in fresh.keys() & shared.keys():
            assert fresh[key] == shared[key], format_word(word)


def test_both_folds_agree_where_braids_share_values():
    # resolve keys its memo on words and conway_via_skein on braids, so
    # on long words, where many subwords spell one braid, they must still
    # give one value.
    rng = random.Random(23)
    for _ in range(30):
        word = bytes(rng.choice(LETTERS) for _ in range(rng.randint(18, 24)))
        assert resolve(word).value == conway_via_skein(word, {}), format_word(word)


def test_braid_keys_resolve_fewer_subwords(monkeypatch):
    # The 24-letter word's tree has 577 distinct subwords.  The value fold
    # folds braids, the word's own included, each once, and takes 50
    # braid steps; resolve, which keeps a node per word, still classifies
    # all 577.
    word = w("2 1 13 13 13 2 1 1 2 2 13 2 1 2 1 1 1 2 13 13 13 2 1 13")
    stepped = []
    braid_step = skein3._braid_step
    monkeypatch.setattr(
        skein3, "_braid_step", lambda key: stepped.append(key) or braid_step(key)
    )
    memo = {}
    value = conway_via_skein(word, memo)
    assert len(stepped) == len(set(stepped)) == 50
    assert len(memo) == 56
    classified = []
    classify = skein3.classify_leaf
    monkeypatch.setattr(
        skein3, "classify_leaf", lambda v: classified.append(v) or classify(v)
    )
    tree = resolve(word)
    assert len(classified) == len(set(classified)) == 577
    assert tree.value == value and tree.size == 98_217


def test_long_words_resolve_without_a_depth_limit():
    # The walk keeps an explicit stack, so the word's length, which is
    # its tree's depth, sets no recursion limit.  sigma_1^1001 sigma_2
    # stabilizes the (2, 1001) torus knot.
    from braidconway.braid import parse_artin

    value = conway_via_skein((0,) * 1001 + (1,))
    assert value == conway_via_burau(parse_artin("1 " * 1001, 2))
    assert len(value.coeffs) == 1001 and value.is_nonneg()


def test_module_memo_is_cleared_past_its_bound(monkeypatch):
    # Without a memo of the caller's, values go through the module-wide
    # one, which is emptied before a fold once it passes its bound.  Below
    # the bound a fold only adds keys, and a braid met earlier is not
    # folded again, so a fresh memo may hold keys that the shared one
    # skipped, but never a different value.
    monkeypatch.setattr(skein3, "_MEMO", {})
    monkeypatch.setattr(skein3, "_MEMO_LIMIT", 20)
    rng = random.Random(131072)
    cleared = 0
    for _ in range(60):
        word = tuple(rng.choice(LETTERS) for _ in range(rng.randint(6, 11)))
        before = dict(skein3._MEMO)
        value = conway_via_skein(word)
        fresh = {}
        assert value == conway_via_skein(word, fresh), format_word(word)
        assert all(type(key) is bytes for key in skein3._MEMO)
        if len(before) > 20:
            cleared += 1
            assert skein3._MEMO == fresh, format_word(word)
            _check_memo_keys(skein3._MEMO, word, skein3._MEMO)
        else:
            assert skein3._MEMO.items() >= before.items(), format_word(word)
            _check_memo_keys(skein3._MEMO, word, skein3._MEMO.keys() - before)
            for key in fresh.keys() & skein3._MEMO.keys():
                assert skein3._MEMO[key] == fresh[key], format_word(word)
    assert cleared > 10


def test_tree_size_limit_falls_between_lengths_25_and_26():
    # x^n resolves to x^(n-2) and x^(n-1), so it has F(n+1) leaves and
    # 2 F(n+1) - 1 nodes: 242 785 at n = 25, 392 835 at n = 26.
    fib = [0, 1]
    while len(fib) <= 27:
        fib.append(fib[-1] + fib[-2])
    assert skein3.TREE_NODE_LIMIT == 250_000
    assert resolve((0,) * 25).size == 242_785 == 2 * fib[26] - 1
    with pytest.raises(skein3.TreeTooLarge, match="250000"):
        resolve((0,) * 26)


def test_resolve_refuses_exactly_the_trees_over_the_limit(monkeypatch):
    # A subtree or the memo past the limit stops the fold; either happens
    # exactly when the whole tree has more nodes than the limit.
    sizes = {
        word: resolve(word).size
        for length in range(8)
        for word in product(LETTERS, repeat=length)
    }
    for limit in (1, 3, 5, 9, 20):
        monkeypatch.setattr(skein3, "TREE_NODE_LIMIT", limit)
        for word, size in sizes.items():
            if size > limit:
                with pytest.raises(skein3.TreeTooLarge, match=f"{limit} nodes"):
                    resolve(word)
            else:
                assert resolve(word).size == size


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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=15, max_size=60).map(tuple))
def test_routes_agree_beyond_the_exhaustive_range(word):
    via_skein = conway_via_skein(word)
    assert via_skein == conway_via_burau(to_band_word(word)), format_word(word)
    assert via_skein.is_nonneg(), format_word(word)


def test_routes_agree_on_words_of_100_and_200_letters():
    rng = random.Random(200)
    for length in (100, 200):
        for _ in range(10):
            word = bytes(rng.choice(LETTERS) for _ in range(length))
            via_skein = conway_via_skein(word, {})
            assert via_skein == conway_via_burau(to_band_word(word)), format_word(word)
            assert via_skein.is_nonneg(), format_word(word)


# --- serialization -----------------------------------------------------------

def test_tree_to_json_document():
    tree = resolve(w("1 1 2"))
    doc = tree_to_json(tree)
    assert list(doc) == ["word", "tree", "value"]
    assert doc["word"] == "1 1 2"
    assert doc["value"] == list(conway_via_skein(tree.word).coeffs)
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


def test_tree_output_of_every_short_word_is_pinned():
    # One sha256 over the JSON and DOT bytes of all 1093 words of length
    # <= 6, in product order.
    digest = hashlib.sha256()
    for length in range(7):
        for word in product(LETTERS, repeat=length):
            tree = resolve(word)
            digest.update(json.dumps(tree_to_json(tree), indent=2).encode())
            digest.update(tree_to_dot(tree).encode())
    assert digest.hexdigest() == (
        "ef26c5fcb8d1523205b6deaf38fbd08552a6ee872014a6cb783788d33cb0cdf5"
    )


def test_tree_writers_read_the_values_that_resolve_made(monkeypatch):
    # The writers resolve no word again, as each node carries its value,
    # and leave the module-wide memo alone.
    monkeypatch.setattr(skein3, "_MEMO", {})
    tree = resolve(w("2 1 13 13 13 2 1 1 2 2 13 2 1 2 1 1 1 2 13 13 13 2 1 13"))
    classified = []
    classify = skein3.classify_leaf
    monkeypatch.setattr(
        skein3, "classify_leaf", lambda v: classified.append(v) or classify(v)
    )
    tree_to_json(tree)
    tree_to_dot(tree)
    assert tree.size == 98_217 and classified == []
    assert skein3._MEMO == {}
