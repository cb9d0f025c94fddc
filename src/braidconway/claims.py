"""The checkable claims behind ``braidconway verify``.

Each ``check_*`` function takes its own seeded generator and raises
``ClaimFailed`` when its claim does not hold.  ``CLAIMS`` lists them by
name in the order ``verify`` reports them; the acceptance suite calls the
same functions, so every claim is written once.  The checks are explicit
tests, not ``assert`` statements, so they still run under ``python -O``.
"""

from __future__ import annotations

import random
from itertools import product

from .braid import ArtinWord, half_twist, parse_artin, parse_band
from .burau import BurauMatrix, burau_rep, conway_via_burau, full_twist_difference
from .polyring import (
    LaurentPoly,
    ZPoly,
    fibonacci_poly,
    laurent_to_z,
    quantum_bracket,
)
from .skein3 import (
    LETTERS,
    LeafKind,
    conway_via_skein,
    format_word,
    leaf_conway,
    to_band_word,
)


class ClaimFailed(Exception):
    """A claim did not hold; the message says where."""


def _random_artin_word(rng: random.Random, n: int, max_len: int) -> ArtinWord:
    length = rng.randint(0, max_len)
    return ArtinWord(
        n,
        tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
        ),
    )


def check_fixed_closures(rng: random.Random) -> None:
    cases = [
        (parse_artin("1", 2), ZPoly((1,))),
        (parse_artin("1 1 1", 2), ZPoly((1, 0, 1))),
        (parse_artin("1 1 -1", 2), ZPoly((1,))),
        (parse_band("1:6 1:6 4:6 3:5 2:4 1:3 2:5", 6), ZPoly((1, 0, -1))),
        (parse_band("1:6 1:6 2:5 1:3 2:4 3:5 4:6", 6), ZPoly((1, 0, 7))),
    ]
    for word, want in cases:
        got = conway_via_burau(word)
        if got != want:
            raise ClaimFailed(f"closure of '{word}' gave {got}, expected {want}")


def check_full_twist_matrix(rng: random.Random) -> None:
    twist = half_twist(3) * half_twist(3)
    want = BurauMatrix(
        3,
        (
            (LaurentPoly({6: 1}), LaurentPoly()),
            (LaurentPoly(), LaurentPoly({6: 1})),
        ),
    )
    if burau_rep(twist) != want:
        raise ClaimFailed("full twist matrix is not s^6 times the identity")


def check_band_relation(rng: random.Random) -> None:
    spellings = ["2:3 1:2", "1:3 2:3", "1:2 1:3"]
    matrices = [burau_rep(parse_band(text, 3)) for text in spellings]
    if not matrices[0] == matrices[1] == matrices[2]:
        raise ClaimFailed(
            "the three spellings of the band relation have different matrices"
        )


def check_bracket_telescopes(rng: random.Random) -> None:
    z_in_s = LaurentPoly({-1: 1, 1: -1})
    for n in range(1, 13):
        if quantum_bracket(n) * z_in_s != LaurentPoly({-n: 1, n: -1}):
            raise ClaimFailed(f"bracket failed to telescope at n={n}")


def check_fibonacci_reflection(rng: random.Random) -> None:
    for n in range(-20, 21):
        sign = 1 if n % 2 == 0 else -1
        symmetric = LaurentPoly({-n: 1}) + LaurentPoly({n: sign})
        if laurent_to_z(symmetric) != fibonacci_poly(n + 1) + fibonacci_poly(n - 1):
            raise ClaimFailed(f"reflection identity failed at n={n}")


def check_full_twist_difference(rng: random.Random) -> None:
    twist = half_twist(3)
    for _ in range(200):
        alpha = _random_artin_word(rng, 3, 12)
        base = conway_via_burau(alpha)
        e = alpha.exponent_sum()
        for k in range(1, 5):
            beta = (twist ** (2 * k)) * alpha
            if conway_via_burau(beta) - base != full_twist_difference(e, k):
                raise ClaimFailed(f"difference law failed at e={e}, k={k}")


def check_balanced_exponent_powers(rng: random.Random) -> None:
    twist = half_twist(3)
    for r in range(1, 5):
        target = -3 * r
        # At exponent sum -3r the shift is the closed form of the ascending
        # cycle (G12 G23 G13)^r, which vanishes for even r.
        want = leaf_conway(LeafKind.TRIPLE_POWER, r)
        for _ in range(50):
            alpha = _random_artin_word(rng, 3, 8)
            pad = target - alpha.exponent_sum()
            sign = 1 if pad >= 0 else -1
            alpha = alpha * ArtinWord(3, tuple((2, sign) for _ in range(abs(pad))))
            if alpha.exponent_sum() != target:
                raise ClaimFailed(f"padding missed exponent sum {target}")
            beta = (twist ** (2 * r)) * alpha
            if conway_via_burau(beta) - conway_via_burau(alpha) != want:
                raise ClaimFailed(f"power shift wrong at r={r}")


def check_ascending_cycles(rng: random.Random) -> None:
    for k in range(1, 7):
        word = LETTERS * k
        closed = leaf_conway(LeafKind.TRIPLE_POWER, k)
        if conway_via_skein(word) != closed:
            raise ClaimFailed(f"skein value off at k={k}")
        if conway_via_burau(to_band_word(word)) != closed:
            raise ClaimFailed(f"matrix value off at k={k}")
        if k % 2 == 0 and closed != ZPoly():
            raise ClaimFailed(f"even cycle k={k} should vanish")


def check_short_words_agree(rng: random.Random) -> None:
    for length in range(5):
        for word in product(LETTERS, repeat=length):
            if conway_via_skein(word) != conway_via_burau(to_band_word(word)):
                raise ClaimFailed(f"routes disagree at '{format_word(word)}'")


CLAIMS = (
    ("fixed closures have their known polynomials", check_fixed_closures),
    ("full twist matrix is s^6 times the identity", check_full_twist_matrix),
    ("band relation has one matrix image", check_band_relation),
    ("quantum bracket telescopes", check_bracket_telescopes),
    ("fibonacci reflection identity", check_fibonacci_reflection),
    ("full-twist difference law on random words", check_full_twist_difference),
    ("full-twist powers at balanced exponent sums", check_balanced_exponent_powers),
    ("ascending-cycle closures match the matrix route", check_ascending_cycles),
    ("skein and matrix routes agree on short words", check_short_words_agree),
)
