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

In code the letters G12, G23, G13 are the ints 0, 1, 2, a word is a tuple
of them, and the successor of x is (x + 1) % 3.  ``parse_word`` and
``format_word`` spell the letters 1, 2, 13.

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

Each leaf has a known Conway polynomial, and the value of the whole word
is the sum over leaves of z^(number of weight-z edges on the path) times
the leaf value.  Every step is deterministic, leftmost-first, so the same
word always produces the same tree.

Values are computed in one place: a memoized recursion from words to
values, which ``conway_via_skein`` returns and every tree ``Node`` reads.
``resolve`` builds the tree's structure only.
"""

from __future__ import annotations

import dataclasses
import enum
from functools import lru_cache

from .braid import BandWord, ParseError
from .polyring import Z, ZPoly, fibonacci_poly

__all__ = [
    "LETTERS",
    "Word",
    "LeafKind",
    "Node",
    "Unresolvable",
    "NoSquare",
    "NotDescending",
    "parse_word",
    "format_word",
    "to_band_word",
    "classify_leaf",
    "find_square",
    "rewrite_descending",
    "split_square",
    "resolve",
    "leaf_conway",
    "conway_via_skein",
    "tree_to_json",
    "tree_to_dot",
]


#: The letters G12, G23, G13, in enumeration order wherever words are ordered.
LETTERS = (0, 1, 2)

Word = tuple[int, ...]

#: The spelling of each letter, indexed by letter.
_TOKENS = ("1", "2", "13")
_BY_TOKEN = {token: letter for letter, token in enumerate(_TOKENS)}


class Unresolvable(RuntimeError):
    """No leaf, no square, no descending pair: impossible for real words."""


class NoSquare(ValueError):
    """split_square was pointed at a position that is not a square."""


class NotDescending(ValueError):
    """rewrite_descending was pointed at a pair that does not descend."""


def parse_word(text: str) -> Word:
    """Read a whitespace-separated word over the tokens 1, 2, 13."""
    out = []
    for token in text.split():
        if token not in _BY_TOKEN:
            raise ParseError(f"bad band letter {token!r}: expected 1, 2 or 13")
        out.append(_BY_TOKEN[token])
    return tuple(out)


def format_word(w: Word) -> str:
    return " ".join(_TOKENS[letter] for letter in w)


#: The band letter (i, j, sign) of each letter, indexed by letter.
_BAND_TRIPLE = ((1, 2, 1), (2, 3, 1), (1, 3, 1))


def to_band_word(w: Word) -> BandWord:
    """The same word as a positive BandWord on three strands."""
    return BandWord(3, tuple(_BAND_TRIPLE[letter] for letter in w))


class LeafKind(enum.Enum):
    """What kind of leaf a word is; a triple power of length L has k = L // 3."""

    EMPTY = "empty"
    SINGLE_LETTER = "single-letter"
    TWO_DISTINCT = "two-distinct"
    TRIPLE_POWER = "triple-power"


def classify_leaf(w: Word) -> LeafKind | None:
    """The leaf kind of w, or None when w still resolves further."""
    length = len(w)
    if length == 0:
        return LeafKind.EMPTY
    if length == 1:
        return LeafKind.SINGLE_LETTER
    if length == 2:
        return LeafKind.TWO_DISTINCT if w[0] != w[1] else None
    if all(w[(t + 1) % length] == (w[t] + 1) % 3 for t in range(length)):
        # A full ascending cycle: the successor has order 3, so the length
        # is a multiple of 3 and w is a rotation of (G12 G23 G13)^(L/3).
        return LeafKind.TRIPLE_POWER
    return None


def find_square(w: Word) -> int | None:
    """Smallest cyclic index t with w[t] == w[t+1], if any.

    Indices run 0 <= t < len(w), so the wraparound pair comes last.  Words
    shorter than two letters have no pair of positions to compare.
    """
    length = len(w)
    if length < 2:
        return None
    for t in range(length):
        if w[t] == w[(t + 1) % length]:
            return t
    return None


def rewrite_descending(w: Word, pos: int) -> Word:
    """Respell the descending cyclic pair at pos to end with the next letter.

    The pair (w[pos], w[pos+1]) is one spelling of the two-letter relation
    element; the spelling ending in x is ((x + 1) % 3, x).  Choosing x to
    be the letter at pos+2 plants a square at (pos+1, pos+2).  Positions
    are cyclic and the word keeps its length.
    """
    length = len(w)
    if length < 3:
        raise NotDescending(f"need at least 3 letters, got {length}")
    a, b = w[pos], w[(pos + 1) % length]
    if (b + 1) % 3 != a:
        raise NotDescending(
            f"pair at {pos} ({_TOKENS[a]} {_TOKENS[b]}) does not descend"
        )
    nxt = w[(pos + 2) % length]
    out = list(w)
    out[pos] = (nxt + 1) % 3
    out[(pos + 1) % length] = nxt
    return tuple(out)


def split_square(w: Word, pos: int) -> tuple[Word, Word]:
    """Resolve the square at cyclic position pos.

    Returns (erased, reduced): the word with both square letters removed,
    and the word with one removed.  A wrapping square is first brought
    inside by rotating the word, which conjugates the closure and changes
    neither child's value.
    """
    length = len(w)
    if pos < 0 or pos >= length:
        raise NoSquare(f"position {pos} out of range for length {length}")
    if w[pos] != w[(pos + 1) % length]:
        raise NoSquare(f"no square at position {pos}")
    if pos + 1 == length:
        w = w[pos:] + w[:pos]
        pos = 0
    head, tail = w[:pos], w[pos + 2 :]
    return head + tail, head + w[pos : pos + 1] + tail


def _leftmost_descending(w: Word) -> int | None:
    length = len(w)
    for t in range(length):
        if (w[(t + 1) % length] + 1) % 3 == w[t]:
            return t
    return None


def _resolution_step(w: Word) -> tuple[Word, Word]:
    """Children of a non-leaf word under the deterministic strategy."""
    pos = find_square(w)
    if pos is None:
        dpos = _leftmost_descending(w)
        if dpos is None:
            raise Unresolvable(f"no move applies to {format_word(w)!r}")
        if dpos == len(w) - 1:
            # Wraparound pair: rotate it to the front first (conjugation).
            w = w[dpos:] + w[:dpos]
            dpos = 0
        w = rewrite_descending(w, dpos)
        pos = dpos + 1
    return split_square(w, pos)


@dataclasses.dataclass(frozen=True)
class Node:
    """A resolution-tree node.

    Leaves carry their LeafKind; inner nodes carry two children, the left
    reached by the weight-1 edge (square erased) and the right by the
    weight-z edge (square reduced to one letter).  A node holds no value:
    ``value`` looks its word up in the memo behind ``conway_via_skein``.
    """

    word: Word
    leaf: LeafKind | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    def value(self) -> ZPoly:
        """The skein value of this node's word, read from the memo."""
        return _skein_value(self.word)

    def leaf_count(self) -> int:
        if self.leaf is not None:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.leaf_count() + self.right.leaf_count()


def resolve(w: Word) -> Node:
    """The full resolution tree of a word: its structure, not its values.

    Recursion depth is bounded by the word length: each child is strictly
    shorter than its parent.
    """
    leaf = classify_leaf(w)
    if leaf is not None:
        return Node(word=w, leaf=leaf)
    erased, reduced = _resolution_step(w)
    return Node(word=w, left=resolve(erased), right=resolve(reduced))


def leaf_conway(leaf: LeafKind, k: int = 0) -> ZPoly:
    """The Conway polynomial of a leaf's closure; k is a triple power's power.

    Empty and single-letter closures have split components, value 0; two
    distinct letters close to the unknot, value 1.  The ascending cycle
    (G12 G23 G13)^k closes to a link whose value vanishes for even k and
    for odd k equals 2z * sum_{i<k} F_{6i+4-3k}.
    """
    if leaf in (LeafKind.EMPTY, LeafKind.SINGLE_LETTER):
        return ZPoly()
    if leaf is LeafKind.TWO_DISTINCT:
        return ZPoly((1,))
    if leaf is not LeafKind.TRIPLE_POWER:
        raise ValueError(f"unknown leaf kind {leaf!r}")
    if k < 1:
        raise ValueError(f"triple power needs k >= 1, got {k}")
    if k % 2 == 0:
        return ZPoly()
    total = ZPoly()
    for i in range(k):
        total = total + fibonacci_poly(6 * i + 4 - 3 * k)
    return 2 * Z * total


def tree_to_json(root: Node) -> dict:
    """A JSON-ready document for a resolution tree.

    Nested nodes carry the word, the edge label that reached them ("1" or
    "z", absent on the root), and either a leaf record or two children.
    The top level repeats the input word and ends with the tree's total
    skein value as a coefficient list, so the footer is the last key.
    """

    def node_doc(node: Node, edge: str | None) -> dict:
        out: dict = {"word": format_word(node.word)}
        if edge is not None:
            out["edge"] = edge
        if node.leaf is not None:
            out["leaf"] = node.leaf.value
            if node.leaf is LeafKind.TRIPLE_POWER:
                out["k"] = len(node.word) // 3
            out["value"] = list(node.value().coeffs)
        else:
            assert node.left is not None and node.right is not None
            out["children"] = [
                node_doc(node.left, "1"),
                node_doc(node.right, "z"),
            ]
        return out

    return {
        "word": format_word(root.word),
        "tree": node_doc(root, None),
        "value": list(root.value().coeffs),
    }


def tree_to_dot(root: Node) -> str:
    """The tree as a DOT digraph, nodes numbered in preorder.

    Leaves are boxes annotated with their kind and value; the graph label
    carries the total.
    """
    lines = ["digraph resolution {", "  node [fontname=monospace];"]
    counter = 0

    def label(word: Word) -> str:
        return format_word(word) if word else "(empty)"

    def walk(node: Node) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if node.leaf is not None:
            lines.append(
                f'  {name} [shape=box label="{label(node.word)}\\n'
                f'{node.leaf.value}: {node.value().render()}"];'
            )
        else:
            lines.append(f'  {name} [label="{label(node.word)}"];')
            assert node.left is not None and node.right is not None
            lines.append(f'  {name} -> {walk(node.left)} [label="1"];')
            lines.append(f'  {name} -> {walk(node.right)} [label="z"];')
        return name

    walk(root)
    lines.append(f'  label="conway: {root.value().render()}";')
    lines.append("}")
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _skein_value(w: Word) -> ZPoly:
    # The only place where child values are combined.
    leaf = classify_leaf(w)
    if leaf is not None:
        return leaf_conway(leaf, len(w) // 3)
    erased, reduced = _resolution_step(w)
    return _skein_value(erased) + Z * _skein_value(reduced)


def conway_via_skein(w: Word) -> ZPoly:
    """The Conway polynomial of the closure of w, by resolution.

    Subword values are cached, so sweeping many related words stays
    cheap.  ``resolve(w).value()`` reads the same cache, so the two agree
    by construction.
    """
    return _skein_value(w)
