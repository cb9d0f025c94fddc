"""Skein resolution trees for positive band words on three strands.

On three strands there are exactly three band generators: the Artin pair
acting on strands 1,2 and 2,3, and the band joining strands 1 and 3.
Written G12, G23, G13, they satisfy the rotation relation

    G23 G12 = G13 G23 = G12 G13      (the same braid element)

so the alphabet carries a 3-cycle G12 -> G23 -> G13 -> G12, called the
successor here.  A cyclically adjacent pair of distinct letters is
"ascending" when its second letter is the successor of its first, and
"descending" when the first is the successor of the second; the three
descending pairs are precisely the three spellings of the relation above.

In code the letters G12, G23, G13 are the ints 0, 1, 2, a word is a bytes
object of them, and the successor of x is (x + 1) % 3.  ``parse_word`` and
``format_word`` spell the letters 1, 2, 13.  ``format_word``,
``to_band_word``, ``conway_via_skein`` and ``resolve`` take any iterable of
letters and make it bytes through ``_as_word``, the one check of a letter;
``classify_leaf``, ``value_by_step`` and the resolution step take bytes.

The Conway polynomial of a closed positive band word resolves by a binary
tree.  At a doubled letter (a "square") w = P x x Q the skein relation
splits the closure into P Q, weight 1, and P x Q, weight z.  When no
square exists but some cyclic pair descends, the pair is respelled via
the relation so that its new second letter equals the letter that follows
the pair; that creates a square one step to the right, and the closure is
unchanged (for the wraparound pair, unchanged up to conjugation).  Words
on which neither move fires are the leaves:

* the empty word and single letters (closures with a split component),
* two distinct letters (an unknot),
* the ascending cycles, i.e. rotations of (G12 G23 G13)^k.

Each leaf has a known Conway polynomial; the ascending cycle's is the
shift of k full twists, ``full_twist_difference(-3k, k)``.  The value of
the whole word is the sum over leaves of z^(number of weight-z edges on
the path) times the leaf value.  One function, ``_resolution_step``,
makes the move at every node, deterministically and leftmost-first, so
the same word always produces the same tree.

One explicit-stack pass folds a tree from the leaves up, over a memo
that its caller owns and a step function that gives each inner key its
two children.  ``resolve`` folds words by ``_resolution_step`` and
builds nodes up to ``TREE_NODE_LIMIT``, each with its value, which the
tree writers read.  Nothing recurses, so length sets no depth limit.

A value depends only on the braid, and many words spell one braid, so
``conway_via_skein`` folds braids, each keyed by its left normal form
delta^p u (Birman, Ko and Lee), delta = G23 G12 written as the byte 3,
which no letter is.  ``_braid_step`` splits a square of the form and
gives both children as normal forms, so only the asked word's key is
computed from a spelling.  ``value_by_step`` gives a word its value by
its own resolution step, its children read from the caller's dicts of
the two levels below, or folded on a miss; ``scan`` checks every word so.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable
from functools import lru_cache
from operator import add

from .braid import BandWord, Frozen, ParseError, _set
from .polyring import Z, ZPoly, fibonacci_poly

__all__ = [
    "LETTERS",
    "Word",
    "LeafKind",
    "Node",
    "Unresolvable",
    "parse_word",
    "format_word",
    "to_band_word",
    "classify_leaf",
    "resolve",
    "TREE_NODE_LIMIT",
    "TreeTooLarge",
    "leaf_conway",
    "full_twist_difference",
    "conway_via_skein",
    "tree_to_json",
    "tree_to_dot",
]


#: The letters G12, G23, G13, in enumeration order wherever words are ordered.
LETTERS = (0, 1, 2)

#: A word: one byte per letter, so slices are copies of bytes and each
#: word hashes once however often it keys a memo.
Word = bytes

#: The spelling of each letter, indexed by it.
_TOKENS = ("1", "2", "13")
_BY_TOKEN = {token: letter for letter, token in enumerate(_TOKENS)}


class Unresolvable(RuntimeError):
    """No leaf, no square, no descending pair: impossible for real words."""


def parse_word(text: str) -> Word:
    """Read a whitespace-separated word over the tokens 1, 2, 13."""
    out = []
    for token in text.split():
        if token not in _BY_TOKEN:
            raise ParseError(f"bad band letter {token!r}: expected 1, 2 or 13")
        out.append(_BY_TOKEN[token])
    return bytes(out)


#: The letters as one bytes object: a Word stripped of them is empty.
_ALPHABET = bytes(LETTERS)


def _as_word(letters: Iterable[int]) -> Word:
    """letters as a Word, read once; the one check of a three-strand letter.

    Bytes come back as they are, unless they hold a foreign byte.  An int,
    which bytes() would read as a count of zero bytes, and a letter that
    is not an int raise TypeError; a letter outside 0, 1, 2 raises
    ValueError.
    """
    word = letters
    if type(word) is not bytes:
        if isinstance(word, int):
            raise TypeError(f"a word is a sequence of letters, not the int {word}")
        letters = tuple(letters)
        try:
            word = bytes(letters)
        except ValueError:  # a letter outside 0..255
            word = None
    # rstrip stops at the last foreign byte, so only a clean word strips bare.
    if word is None or word.rstrip(_ALPHABET):
        letter = next(x for x in letters if x not in LETTERS)
        raise ValueError(f"not a three-strand letter: {letter!r}, expected 0, 1 or 2")
    return word


def format_word(w: Iterable[int]) -> str:
    """Spell a word with the tokens 1, 2, 13."""
    return " ".join([_TOKENS[letter] for letter in _as_word(w)])


#: The band letter (i, j, sign) of each letter, indexed by it.
_BAND_TRIPLE = ((1, 2, 1), (2, 3, 1), (1, 3, 1))


def to_band_word(w: Iterable[int]) -> BandWord:
    """The same word as a positive BandWord on three strands."""
    return BandWord(3, tuple([_BAND_TRIPLE[letter] for letter in _as_word(w)]))


#: The ascending cycle that starts at each letter: (x, x + 1, x + 2) mod 3.
_CYCLE = (b"\x00\x01\x02", b"\x01\x02\x00", b"\x02\x00\x01")


class LeafKind(enum.Enum):
    """What kind of leaf a word is; a triple power of length L has k = L // 3."""

    EMPTY = "empty"
    SINGLE_LETTER = "single-letter"
    TWO_DISTINCT = "two-distinct"
    TRIPLE_POWER = "triple-power"


def classify_leaf(w: Word) -> LeafKind | None:
    """The leaf kind of the Word w, or None when w still resolves further."""
    length = len(w)
    if length == 0:
        return LeafKind.EMPTY
    if length == 1:
        return LeafKind.SINGLE_LETTER
    if length == 2:
        return LeafKind.TWO_DISTINCT if w[0] != w[1] else None
    # A full ascending cycle: the successor has order 3, so the length is
    # a multiple of 3 and w repeats the cycle that starts at its first
    # letter.  The % 3 keeps a foreign first letter from indexing _CYCLE;
    # such a word never equals the cycle it picks.
    if length % 3 == 0 and w == _CYCLE[w[0] % 3] * (length // 3):
        return LeafKind.TRIPLE_POWER
    return None


#: The squares, and the descending pairs (x + 1, x), as byte patterns.
_SQUARE = re.compile(b"\x00\x00|\x01\x01|\x02\x02")
_DESCENDING = re.compile(b"\x01\x00|\x02\x01|\x00\x02")

#: The descending pair (x + 1, x) that ends in each letter x.
_RESPELLING = (b"\x01\x00", b"\x02\x01", b"\x00\x02")


#: The byte that stands for delta = G23 G12 in a normal form; no letter is 3.
_DELTA = b"\x03"

#: Each letter x minus k, mod 3, indexed by k and then by x.
_MINUS = tuple(tuple((x - k) % 3 for x in LETTERS) for k in LETTERS)

#: The translation that adds k to every letter, mod 3, indexed by k.
_PLUS = tuple(
    bytes.maketrans(_ALPHABET, bytes((x + k) % 3 for x in LETTERS)) for k in LETTERS
)


def _normal_form(w: Word) -> bytes:
    """The left normal form delta^p u of the braid that w spells, as _DELTA * p + u.

    Each descending pair spells delta, and x delta = delta ((x + 1) % 3),
    so a descending pair moves to the front as delta and shifts every
    letter before it by one; u is left with no descending adjacent pair.
    Two positive words give one form exactly when they spell one braid
    (Birman, Ko and Lee's left normal form, on three strands).  A word
    with no descending pair is its own form, returned as it is.
    """
    # _RESPELLING holds the three descending pairs.
    if _RESPELLING[0] not in w and _RESPELLING[1] not in w and _RESPELLING[2] not in w:
        return w
    # u is a stack of letters, each kept minus p, so that a new delta
    # shifts them all without touching one; 3 marks its bottom.  The top
    # and a letter x make a descending pair when the top, kept, is
    # (x - (p - 1)) % 3.
    p = 0
    u = [3]
    top = 3
    kept, descends_from = _MINUS[0], _MINUS[2]
    for x in w:
        if top == descends_from[x]:
            u.pop()
            top = u[-1]
            p += 1
            kept, descends_from = _MINUS[p % 3], _MINUS[(p - 1) % 3]
        else:
            top = kept[x]
            u.append(top)
    return _DELTA * p + bytes(u[1:]).translate(_PLUS[p % 3])


def _resolution_step(w: Word) -> tuple[Word, Word]:
    """The children of a non-leaf word under one skein move.

    The move splits the leftmost cyclic square into (erased, reduced): the
    word without both of its letters, and with one.  Without a square, it
    first respells the leftmost descending cyclic pair as ((x + 1) % 3, x),
    x the letter after the pair, which plants a square one step to the
    right.  A pair or a square that wraps around the end, (w[-1], w[0]),
    comes after every interior one; it is first rotated to the front,
    which conjugates the closure.
    """
    length = len(w)
    last = length - 1
    found = _SQUARE.search(w)
    if found is not None:
        pos = found.start()
    elif length and w[-1] == w[0]:
        pos = last
    else:
        found = _DESCENDING.search(w)
        if found is not None:
            pos = found.start()
        elif length and w[-1] == (w[0] + 1) % 3:
            pos = last
        else:
            raise Unresolvable(f"no move applies to {format_word(w)!r}")
        if pos == last:
            w, pos = w[pos:] + w[:pos], 0
        w = w[:pos] + _RESPELLING[w[(pos + 2) % length]] + w[pos + 2 :]
        pos += 1
    if pos == last:
        w, pos = w[pos:] + w[:pos], 0
    return w[:pos] + w[pos + 2 :], w[: pos + 1] + w[pos + 2 :]


def _leaf_kind(key: bytes) -> LeafKind | None:
    """The leaf kind of a word or of a normal form's key, or None.

    delta alone is two distinct letters; every other key that starts with
    delta resolves further, and a key without delta is a word, which
    ``classify_leaf`` reads.
    """
    if key[:1] == _DELTA:
        return LeafKind.TWO_DISTINCT if len(key) == 1 else None
    return classify_leaf(key)


#: The letter x + 1, mod 3, as a one-letter word, indexed by x.
_SUCCESSOR = (b"\x01", b"\x02", b"\x00")


def _braid_step(key: bytes) -> tuple[bytes, bytes]:
    """The children (erased, reduced) of a non-leaf normal form, as normal forms.

    key is delta^p u, _DELTA * p + u with no descending pair in u, and
    each child's braid length (a delta counts 2) is 2 and 1 below key's.
    With p >= 1 and u = x u', the last delta is spelled ((x + 1) % 3, x),
    which plants the square x x: the reduced child is delta^p u', and the
    erased one delta^(p - 1) ((x + 1) % 3) u', which is delta^p u'[1:]
    when u' starts with x.  delta^p alone, p >= 2, spells its last two
    deltas (2 1)(1 0): erased delta^(p - 2) 2 0, reduced delta^(p - 1) 0.
    With p = 0, u takes the word's own step and both children are
    normalized; a child with no descending pair is its own form.
    """
    u = key.lstrip(_DELTA)
    p = len(key) - len(u)
    if p:
        if not u:
            return key[2:] + b"\x02\x00", key[1:] + b"\x00"
        reduced = key[:p] + u[1:]
        if u[1:2] == u[:1]:
            return key[:p] + u[2:], reduced
        return key[1:p] + _SUCCESSOR[u[0]] + u[1:], reduced
    erased, reduced = _resolution_step(u)
    return _normal_form(erased), _normal_form(reduced)


def _fold(w: bytes, memo: dict, make, step):
    """Fold w's resolution tree from the leaves up, with an explicit stack.

    step gives an inner key's children (erased, reduced): ``_resolution_step``
    folds words, and ``_braid_step`` the normal forms of braids.  A key's
    result is make(key, kind, erased_result, reduced_result), with kind
    None for inner keys and both results None for leaves; make never
    returns None.  memo maps the keys below w to results and gains each
    one that the fold meets, so equal subtrees fold once; w's own result
    is returned, not stored.  The leaf test runs once for w and once per
    key folded.
    """
    kind = _leaf_kind(w)
    if kind is not None:
        return make(w, kind, None, None)
    # The keys above the current one, each waiting for a child's result.
    stack = []
    key = w
    erased, reduced = step(w)
    while True:
        lo, hi = memo.get(erased), memo.get(reduced)
        if lo is None or hi is None:
            child = erased if lo is None else reduced
            kind = _leaf_kind(child)
            if kind is None:
                stack.append((key, erased, reduced))
                key = child
                erased, reduced = step(child)
            else:
                memo[child] = make(child, kind, None, None)
            continue
        result = make(key, None, lo, hi)
        if not stack:
            return result
        memo[key] = result
        key, erased, reduced = stack.pop()


class Node(Frozen):
    """A resolution-tree node.

    Leaves carry their LeafKind; inner nodes carry two children, the left
    reached by the weight-1 edge (square erased) and the right by the
    weight-z edge (square reduced to one letter).  Equal subwords share
    one Node.  size counts the nodes of the subtree, 1 for a leaf, each
    shared Node as often as it is reached.  value is the Conway
    polynomial of the word's closure.
    """

    __slots__ = ("word", "value", "leaf", "left", "right", "size")
    word: Word
    value: ZPoly
    leaf: LeafKind | None
    left: Node | None
    right: Node | None
    size: int

    def __init__(
        self,
        word: Word,
        value: ZPoly,
        leaf: LeafKind | None = None,
        left: Node | None = None,
        right: Node | None = None,
        size: int = 1,
    ) -> None:
        _set(self, "word", word)
        _set(self, "value", value)
        _set(self, "leaf", leaf)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "size", size)


#: The most nodes that ``resolve`` builds a tree of.
TREE_NODE_LIMIT = 250_000


class TreeTooLarge(ValueError):
    """A word's resolution tree has more than TREE_NODE_LIMIT nodes."""


def resolve(w: Iterable[int]) -> Node:
    """The full resolution tree of a word, each node with its value.

    The nodes hold bytes, however the word was given.

    Equal subwords share one Node, so the tree takes one Node per distinct
    subword, however many leaves it has.  A word's distinct subwords never
    outnumber its tree's nodes, so the fold raises TreeTooLarge once a
    subtree or its memo passes TREE_NODE_LIMIT: a refusal takes at most
    about TREE_NODE_LIMIT resolution steps.
    """
    memo: dict[Word, Node] = {}

    def make(word: Word, kind: LeafKind | None, left: Node, right: Node) -> Node:
        if kind is not None:
            return Node(word, leaf_conway(kind, len(word) // 3), kind)
        size = 1 + left.size + right.size
        if size > TREE_NODE_LIMIT or len(memo) > TREE_NODE_LIMIT:
            raise TreeTooLarge(f"resolution tree has more than {TREE_NODE_LIMIT} nodes")
        return Node(word, _combine(left.value, right.value), None, left, right, size)

    return _fold(_as_word(w), memo, make, _resolution_step)


def leaf_conway(leaf: LeafKind, k: int = 0) -> ZPoly:
    """The Conway polynomial of a leaf's closure; k is a triple power's power.

    Empty and single-letter closures have split components, value 0; two
    distinct letters close to the unknot, value 1.  The ascending cycle
    (G12 G23 G13)^k closes to a link whose value is the shift of k full
    twists at exponent sum -3k.  Pairing i with k - 1 - i, the reflection
    F_{-m} = (-1)^(m+1) F_m makes that 2z * sum_{i<k} F_{6i+4-3k} for odd
    k and 0 for even k.
    """
    if leaf in (LeafKind.EMPTY, LeafKind.SINGLE_LETTER):
        return ZPoly()
    if leaf is LeafKind.TWO_DISTINCT:
        return ZPoly((1,))
    if leaf is not LeafKind.TRIPLE_POWER:
        raise ValueError(f"unknown leaf kind {leaf!r}")
    if k < 1:
        raise ValueError(f"triple power needs k >= 1, got {k}")
    return full_twist_difference(-3 * k, k)


def full_twist_difference(e: int, k: int) -> ZPoly:
    """Conway shift caused by k full twists on 3 strands.

    Appending the k-th power of the full twist to a 3-strand word of
    exponent sum e changes its closure's Conway polynomial by
    z * sum_{i<k} (F_{e+6i+4} + F_{e+6i+2}), in Fibonacci polynomials;
    ``verify`` checks it against the matrix route for both signs of e.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    total = ZPoly()
    for i in range(k):
        total = total + fibonacci_poly(e + 6 * i + 4) + fibonacci_poly(e + 6 * i + 2)
    return Z * total


def _walk(root: Node):
    """(node, edge, entering) events of a depth-first walk of a tree.

    Nodes are entered in preorder and left after their weight-1 and then
    weight-z subtrees; edge is "1" or "z", or None on the root.
    """
    stack = [(root, None, True)]
    while stack:
        node, edge, entering = stack.pop()
        yield node, edge, entering
        if entering:
            stack.append((node, edge, False))
            if node.leaf is None:
                stack += [(node.right, "z", True), (node.left, "1", True)]


def tree_to_json(root: Node) -> dict:
    """A JSON-ready document for a resolution tree.

    Nested nodes carry the word, the edge label that reached them ("1" or
    "z", absent on the root), and either a leaf record or two children.
    The top level repeats the input word and ends with the tree's total
    skein value as a coefficient list, so the footer is the last key.
    """
    open_docs: list[dict] = []  # entered and not yet left
    for node, edge, entering in _walk(root):
        if not entering:
            doc = open_docs.pop()
            continue
        doc = {"word": format_word(node.word)}
        if edge is not None:
            doc["edge"] = edge
        if node.leaf is not None:
            doc["leaf"] = node.leaf.value
            if node.leaf is LeafKind.TRIPLE_POWER:
                doc["k"] = len(node.word) // 3
            doc["value"] = list(node.value.coeffs)
        else:
            doc["children"] = []
        if open_docs:
            open_docs[-1]["children"].append(doc)
        open_docs.append(doc)
    return {
        "word": format_word(root.word),
        "tree": doc,
        "value": list(root.value.coeffs),
    }


def tree_to_dot(root: Node) -> str:
    """The tree as a DOT digraph, nodes numbered in preorder.

    Leaves are boxes annotated with their kind and value; the graph label
    carries the total.  An edge is written when its child is left.
    """
    lines = ["digraph resolution {", "  node [fontname=monospace];"]
    open_names: list[str] = []  # entered and not yet left
    entered = 0
    for node, edge, entering in _walk(root):
        if not entering:
            name = open_names.pop()
            if open_names:
                lines.append(f'  {open_names[-1]} -> {name} [label="{edge}"];')
            continue
        name = f"n{entered}"
        entered += 1
        label = format_word(node.word) if node.word else "(empty)"
        if node.leaf is not None:
            lines.append(
                f'  {name} [shape=box label="{label}\\n'
                f'{node.leaf.value}: {node.value.render()}"];'
            )
        else:
            lines.append(f'  {name} [label="{label}"];')
        open_names.append(name)
    lines.append(f'  label="conway: {root.value.render()}";')
    lines.append("}")
    return "\n".join(lines)


#: Entries kept by the combine cache.  Inner keys see few distinct pairs
#: of child values: ``scan --max-len 9`` combines 29 505 times, once per
#: inner word, on 129 pairs (443 at length 11), a 25-word ``long`` round
#: 1060 to 1650 times on 590 to 1070, and 100 over one memo meet 2175.
_COMBINE_MEMO_SIZE = 4096


@lru_cache(maxsize=_COMBINE_MEMO_SIZE)
def _combine(lo_value: ZPoly, hi_value: ZPoly) -> ZPoly:
    """lo_value + z * hi_value: an inner word's value from its children's.

    Cached on the two values, which are equal or not by their
    coefficients alone, so equal pairs share one result object and every
    memo that holds it holds one copy.
    """
    # On the coefficient tuples: times z is a shift by one degree, so
    # lo[0] stands alone, lo[1:] meets hi, and the longer of the two
    # supplies the tail.  Only when both reach the same top degree can it
    # cancel, and ZPoly trims just then.
    hi = hi_value.coeffs
    if not hi:
        return lo_value
    lo = lo_value.coeffs
    if not lo:
        return ZPoly((0,) + hi)
    return ZPoly(
        (lo[0],) + tuple(map(add, lo[1:], hi)) + lo[len(hi) + 1 :] + hi[len(lo) - 1 :]
    )


def _value(word: Word, kind: LeafKind | None, lo: ZPoly, hi: ZPoly) -> ZPoly:
    return _combine(lo, hi) if kind is None else leaf_conway(kind, len(word) // 3)


#: The memo of braid values that conway_via_skein uses by default.
_MEMO: dict[bytes, ZPoly] = {}

#: Entries, not bytes, past which conway_via_skein clears _MEMO before it
#: folds.  A 25-word ``long`` round fills 1070 to 1670, where a fresh memo
#: per word is 1.6 to 1.9 times as slow, and the two workers of ``scan
#: --max-len 11 --jobs 2`` 1693 and 1496, about twice as many per length.
_MEMO_LIMIT = 2**17


def conway_via_skein(w: Iterable[int], memo: dict[bytes, ZPoly] | None = None) -> ZPoly:
    """The Conway polynomial of the closure of w, by resolution.

    w's braid is looked up in memo by its left normal form, and on a miss
    folded as that form and stored under it, with each braid below it, so
    memo holds normal forms only; a form with no delta is its own word.
    Without a memo, a module-wide one is used, which lives as long as the
    process and is cleared before a fold once it holds more than
    _MEMO_LIMIT entries.  The value returned may be one object shared with
    other words' values, as ZPoly is immutable.
    """
    if memo is None:
        if len(_MEMO) > _MEMO_LIMIT:
            _MEMO.clear()
        memo = _MEMO
    key = _normal_form(_as_word(w))
    value = memo.get(key)
    if value is None:
        value = memo[key] = _fold(key, memo, _value, _braid_step)
    return value


def value_by_step(
    word: Word, two_below: dict[Word, ZPoly], one_below: dict[Word, ZPoly]
) -> ZPoly:
    """The value of word by its own resolution step.

    A leaf takes its leaf value.  Otherwise the erased child is read from
    two_below and the reduced one from one_below, the values by word of the
    two levels below; a miss is folded by ``conway_via_skein`` over the
    module memo and stored in the child's level dict.
    """
    kind = classify_leaf(word)
    if kind is not None:
        return leaf_conway(kind, len(word) // 3)
    erased, reduced = _resolution_step(word)
    lo = two_below.get(erased)
    if lo is None:
        lo = two_below[erased] = conway_via_skein(erased)
    hi = one_below.get(reduced)
    if hi is None:
        hi = one_below[reduced] = conway_via_skein(reduced)
    return _combine(lo, hi)
