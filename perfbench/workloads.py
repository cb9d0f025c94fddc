"""Workload definitions: seeded inputs and the correctness gate for each.

Four workloads, each stressing a different layer of braidconway:

* ``scan9``: the paper's headline sweep, ``scan --max-len 9 --jobs 1``.
* ``scan10_par``: ``scan --max-len 10 --jobs 2``, the only path through the
  process pool, the depth-2 partition and the merge.
* ``wide``: mixed-sign band words on 4..7 strands through
  ``cli.main(["conway", ...])``; the cofactor determinant dominates.
* ``long``: positive 3-strand words of 28..32 letters through both
  ``conway_via_skein`` and ``conway_via_burau``; the cold skein recursion
  dominates.

The scan workloads are exhaustive sweeps, so their input is the same for
every seed.  ``wide`` and ``long`` answer a stream of rounds drawn from the
seed (20 words for ``wide``, 25 for ``long``), each round in a fresh
interpreter, as many rounds as a run has time for.  Strand counts,
lengths, letter spans, signs and token counts are stratified within a
round, so every round has the same mix of sizes and only the letters and
their order vary.  Even so, the cost of a word on the most strands varies
tenfold with its letters, so a run's latency quantiles are only as steady
as the number of such words it answers.  An 8-strand word takes about
0.45 s, too long for a run to answer enough of them to pin a 90th
percentile; a 7-strand word, still a 6x6 cofactor expansion, takes about
0.08 s.  Skein cost grows about 2.3x per four letters and is heavy-tailed
beyond 32 letters (one 40-letter word can take a second), so ``long``
stops at 32 letters.

Every check here is independent of the code under test's own cross-checks:
scan output is pinned by digest, ``wide`` answers must obey the
component-parity law of the Conway polynomial, and ``long`` compares the
two routes.
"""

from __future__ import annotations

import random
from typing import NamedTuple



class Scan(NamedTuple):
    max_len: int
    jobs: int
    words: int
    sha256: str
    summary: str


#: Scan workloads; digests and summaries were recorded from the seed code.
SCANS = {
    "scan9": Scan(
        9,
        1,
        29524,
        "209ff31b22f638220a2279668e56616d640be3d345ca5fd09f3d2c2247998c2f",
        "words: 29524\ndistinct conway polynomials: 67\nmax degree: 7\n",
    ),
    "scan10_par": Scan(
        10,
        2,
        88573,
        "8f0730eeac1f57fa888e50113e5c728a9bfb495cb3120f4244a550ee86fd2818",
        "words: 88573\ndistinct conway polynomials: 109\nmax degree: 8\n",
    ),
}

WIDE_STRANDS = range(4, 8)
WIDE_PER_STRAND = 5
WIDE_LENGTHS = (16, 32)

LONG_WORDS = 25
LONG_LENGTHS = (28, 32)
LONG_TOKENS = ("1", "2", "13")

WORKLOADS = ("scan9", "scan10_par", "wide", "long")


def _stratified_length(k: int, count: int, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return lo + (k * (hi - lo + 1)) // count


def _span_schedule(n: int, length: int) -> list[int]:
    """Letter spans j - i for one word, spread like those of uniform pairs.

    Of the pairs 1 <= i < j <= n, n - d have span d; the schedule takes
    `length` evenly spaced entries of that sorted list of spans.
    """
    spans = sorted(j - i for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return [spans[(k * len(spans)) // length] for k in range(length)]


def wide_words(seed: int, round_: int = 0) -> list[tuple[int, str]]:
    """(strands, band word text) pairs: 5 words per strand count 4..7.

    Lengths are spread evenly over 16..32 within each strand count.  Each
    word has the span mix of uniformly drawn pairs and half its letters
    negative; where each span sits, which strands it joins, which letters
    are negative and the order of the words come from the seed and the
    round.
    """
    rng = random.Random(f"wide:{seed}:{round_}")
    out = []
    for n in WIDE_STRANDS:
        for k in range(WIDE_PER_STRAND):
            lo, hi = WIDE_LENGTHS
            length = lo + (k * (hi - lo)) // (WIDE_PER_STRAND - 1)
            signs = ["-"] * (length // 2) + [""] * (length - length // 2)
            rng.shuffle(signs)
            spans = _span_schedule(n, length)
            rng.shuffle(spans)
            letters = []
            for sign, d in zip(signs, spans):
                i = rng.randint(1, n - d)
                letters.append(f"{sign}{i}:{i + d}")
            out.append((n, " ".join(letters)))
    rng.shuffle(out)
    return out


def long_words(seed: int, round_: int = 0) -> list[str]:
    """Positive 3-strand words over the tokens 1, 2, 13, lengths 28..32.

    Each word uses the three tokens as evenly as its length allows; their
    order, and the order of the words, come from the seed and the round.
    """
    rng = random.Random(f"long:{seed}:{round_}")
    out = []
    for k in range(LONG_WORDS):
        length = _stratified_length(k, LONG_WORDS, LONG_LENGTHS)
        tokens = [LONG_TOKENS[i % len(LONG_TOKENS)] for i in range(length)]
        rng.shuffle(tokens)
        out.append(" ".join(tokens))
    rng.shuffle(out)
    return out


def components(n: int, pairs: list[tuple[int, int]]) -> int:
    """Number of components of the closure of a braid on n strands.

    Each letter swaps the strands in its pair (an Artin letter k is the
    pair (k, k+1), a band letter i:j the pair (i, j)); the components are
    the cycles of the resulting permutation.
    """
    perm = list(range(n + 1))
    for i, j in pairs:
        perm[i], perm[j] = perm[j], perm[i]
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return cycles


def band_pairs(text: str) -> list[tuple[int, int]]:
    """Strand pairs of a band word written as 'i:j' or '-i:j' tokens."""
    pairs = []
    for token in text.split():
        i, j = token.lstrip("-").split(":")
        pairs.append((int(i), int(j)))
    return pairs


def check_parity(mu: int, coeffs: list[int]) -> str | None:
    """Why coeffs cannot be the Conway polynomial of a mu-component link.

    The Conway polynomial of a link with mu components is z^(mu-1) times a
    polynomial in z^2, and its constant term is 1 for a knot.  Returns None
    when coeffs obey both rules.
    """
    for degree, c in enumerate(coeffs):
        if c and (degree < mu - 1 or (degree - mu + 1) % 2):
            return f"term {c}z^{degree} on a {mu}-component closure"
    if mu == 1 and (not coeffs or coeffs[0] != 1):
        return f"knot with constant term {coeffs[0] if coeffs else 0}"
    return None


def check_wide(words: list[tuple[int, str]], answers: list) -> list[str]:
    """One failure message per word whose answer breaks the parity law.

    An answer is the coefficient list printed by ``conway --format json``,
    or None when the word raised.
    """
    failures = []
    for (n, text), coeffs in zip(words, answers, strict=True):
        if coeffs is None:
            failures.append(f"n={n} '{text}': no answer")
            continue
        why = check_parity(components(n, band_pairs(text)), coeffs)
        if why is not None:
            failures.append(f"n={n} '{text}': {why}")
    return failures


def check_long(words: list[str], answers: list) -> list[str]:
    """One failure message per word whose skein and matrix answers differ."""
    failures = []
    for text, pair in zip(words, answers, strict=True):
        if pair is None:
            failures.append(f"'{text}': no answer")
        elif pair[0] != pair[1]:
            failures.append(f"'{text}': skein {pair[0]} != matrix {pair[1]}")
    return failures


def check_scan(name: str, rc: int, digest: str, summary: str) -> str | None:
    """Why a scan's exit code, output digest or summary is wrong, or None."""
    want = SCANS[name]
    if rc != 0:
        return f"exit code {rc}"
    if digest != want.sha256:
        return f"output sha256 {digest}, expected {want.sha256}"
    if summary != want.summary:
        return f"summary {summary!r}, expected {want.summary!r}"
    return None
