"""Command line interface.

Four subcommands:

* ``conway``: Conway polynomial of one braid closure, via the matrix route.
* ``tree``: resolution tree of a positive three-strand band word.
* ``scan``: sweep all band words on three strands up to a length, check the
  skein route against the matrix route, and emit one JSON line per word.
* ``verify``: the claims in ``braidconway.claims`` (fixed closures plus seeded
  randomized suites), pass/fail each.

Exit codes: 0 success, 1 a check failed or the reader closed stdout early,
2 unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import TextIO

from . import claims
from .braid import IndexOutOfRange, NotOrdered, ParseError, parse_artin, parse_band
from .burau import BurauMatrix, burau_rep, conway_from_matrix, conway_via_burau
from .polyring import ZPoly
from .skein3 import (
    LETTERS,
    TreeTooLarge,
    Word,
    format_word,
    parse_word,
    resolve,
    to_band_word,
    tree_to_dot,
    tree_to_json,
    value_by_step,
)

DEFAULT_SEED = 1234567
SEED_ENV_VAR = "BRAIDCONWAY_SEED"


class ScanViolation(RuntimeError):
    """A scanned word failed a check that must hold for every word."""

    def __init__(self, word: str, detail: str):
        super().__init__(word, detail)
        self.word = word
        self.detail = detail


# ---------------------------------------------------------------------------
# conway

def _cmd_conway(args: argparse.Namespace) -> int:
    if args.artin is not None:
        word = parse_artin(args.artin, args.strands)
    else:
        word = parse_band(args.band, args.strands)
    value = conway_via_burau(word)
    if args.format == "json":
        print(json.dumps(list(value.coeffs)))
    else:
        print(value.render())
    return 0


# ---------------------------------------------------------------------------
# tree

def _cmd_tree(args: argparse.Namespace) -> int:
    tree = resolve(parse_word(args.word))
    if args.format == "dot":
        print(tree_to_dot(tree))
    else:
        # Streamed: the whole 116 MB document near the node limit is never one string.
        json.dump(tree_to_json(tree), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# scan

#: A parallel scan splits the trie at this depth, into 3^3 = 27 prefixes.
SPLIT_DEPTH = 3

#: Each letter as a one-letter Word, to extend words by.
_LETTER_BYTES = [bytes((letter,)) for letter in LETTERS]

def _scan_subtree(
    prefixes: tuple[Sequence[int], ...], max_len: int
) -> dict[int, list[tuple[int, ...]]]:
    """Coefficient tuples of the words that extend prefixes up to max_len, by length.

    prefixes are words of one length, in letter order, as any sequences
    of letters; the walk extends them as bytes.  The walk goes one length
    at a time: each level is the level before it with each word extended
    by each letter in letter order, so each length's values come out in
    the lexicographic order of their words.

    Many words spell the same braid (the 3^L words of length L give
    2^(L+1) - 1 braids), and the Burau matrix is faithful on three
    strands, so each distinct matrix gets one record, made at the first
    word that spells it: its matrix, its Conway value and, once computed,
    the records of its three one-letter extensions.  That is one product
    per distinct (braid, letter) pair, and one Conway normalization and
    sign check per distinct braid; a negative value stops the walk at the
    word whose record it is.  Every word's skein value is still computed
    by its own resolution step, ``value_by_step``, and compared exactly
    with its braid's matrix value.  The step's children are words two and
    one letters shorter, read from the dicts of values of the two levels
    below, so a walk from the empty word takes no normal form and folds
    no braid.  A walk from longer prefixes folds each child that does not
    extend them by ``conway_via_skein``, over the module memo, and keeps
    its value in the child's level dict, which goes with that level.  The
    walk's dicts live for this call only, and no function refers to
    itself, so they go as soon as it returns; the skein memo and combine
    cache that it shares with the process are bounded and pure, so what
    ran before a task can save it work but cannot change its results.
    """
    found: dict[int, list[tuple[int, ...]]] = {
        length: [] for length in range(len(prefixes[0]), max_len + 1)
    }
    letter_words = [to_band_word((letter,)) for letter in LETTERS]
    # A letter's matrix has determinant -s^2, so a matrix fixes its length.
    braids: dict[BurauMatrix, list] = {}

    def braid_record(word: Word, matrix: BurauMatrix) -> list:
        braid = braids.setdefault(matrix, [matrix, None, None])
        if braid[1] is None:
            # A positive band word's exponent sum is its length.
            value = conway_from_matrix(matrix, len(word))
            if not value.is_nonneg():
                raise ScanViolation(format_word(word), f"negative coefficient in {value}")
            braid[1] = value
        return braid

    # Records are made in letter order, so each names its first spelling.
    words = [bytes(prefix) for prefix in prefixes]
    level = [braid_record(word, burau_rep(to_band_word(word))) for word in words]
    two_below: dict[Word, ZPoly] = {}
    one_below: dict[Word, ZPoly] = {}
    for length, values in found.items():
        last = length == max_len
        here: dict[Word, ZPoly] = {}
        for word, braid in zip(words, level):
            matrix, value, children = braid
            via_skein = value_by_step(word, two_below, one_below)
            if via_skein != value:
                raise ScanViolation(
                    format_word(word), f"skein gives {via_skein}, matrix gives {value}"
                )
            values.append(value.coeffs)
            if not last:
                here[word] = value
                if children is None:
                    braid[2] = [
                        braid_record(word + letter, matrix * letter_word)
                        for letter, letter_word in zip(_LETTER_BYTES, letter_words)
                    ]
        if not last:
            two_below, one_below = one_below, here
            level = (child for braid in level for child in braid[2])
            words = (word + letter for word in words for letter in _LETTER_BYTES)
            # A level below the last is held whole; the last is walked as made.
            if length + 1 < max_len:
                level, words = list(level), list(words)
    return found


def _scan_task(
    task: tuple[tuple[Sequence[int], ...], int]
) -> dict[int, list[tuple[int, ...]]]:
    prefixes, max_len = task
    return _scan_subtree(prefixes, max_len)


def _cmd_scan(args: argparse.Namespace) -> int:
    # Open --out before the sweep, so an unwritable path fails at once; a
    # scan that stops with exit 1 leaves the file empty.
    if args.out is None:
        return _scan(args.max_len, args.jobs, sys.stdout, sys.stderr)
    with open(args.out, "w", newline="\n") as handle:
        return _scan(args.max_len, args.jobs, handle, sys.stdout)


def _scan(max_len: int, jobs: int, sink: TextIO, report: TextIO) -> int:
    """Write the records to sink and the summary to report."""
    # In parallel, the 13 words shorter than SPLIT_DEPTH are walked here
    # and the 27 prefixes of length SPLIT_DEPTH are cut into one
    # contiguous group per worker.  Each worker walks its group once, with
    # one set of memos, and sends back coefficient tuples, not records; the
    # parts come back in prefix order, so the records below are the same
    # bytes for every job count.
    workers = min(jobs, 3**SPLIT_DEPTH, os.cpu_count() or 1) if max_len >= SPLIT_DEPTH else 1
    try:
        if workers > 1:
            prefixes = list(product(LETTERS, repeat=SPLIT_DEPTH))
            cuts = [len(prefixes) * k // workers for k in range(workers + 1)]
            tasks = [(tuple(prefixes[a:b]), max_len) for a, b in zip(cuts, cuts[1:])]
            parts = [_scan_subtree((b"",), SPLIT_DEPTH - 1)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts.extend(pool.map(_scan_task, tasks))
        else:
            parts = [_scan_subtree((b"",), max_len)]
    except ScanViolation as exc:
        print(f"scan aborted at word '{exc.word}': {exc.detail}", file=sys.stderr)
        return 1

    # A record is matched to its word by position alone, so a length with
    # one value too few or too many would shift every record after it.
    for length in range(max_len + 1):
        got = sum(len(found.get(length, ())) for found in parts)
        if got != 3**length:
            print(
                f"scan aborted at length {length}: {got} values for {3**length} words",
                file=sys.stderr,
            )
            return 1

    distinct = set().union(*(values for found in parts for values in found.values()))
    tails = {
        coeffs: f'"conway": [{", ".join(map(str, coeffs))}], "nonneg": true, "agree": true}}\n'
        for coeffs in distinct
    }
    tokens = [format_word((letter,)) for letter in LETTERS]
    # One write per record: a reader that leaves mid-scan then raises
    # BrokenPipeError, where one large write can lose its tail silently.
    write = sink.write
    for length in range(max_len + 1):
        texts = map(" ".join, product(tokens, repeat=length))
        for found in parts:
            # Values first: zip stops on them without taking the next text.
            for coeffs, text in zip(found.get(length, ()), texts):
                write(f'{{"word": "{text}", "len": {length}, {tails[coeffs]}')

    print(f"words: {(3 ** (max_len + 1) - 1) // 2}", file=report)
    print(f"distinct conway polynomials: {len(distinct)}", file=report)
    print(f"max degree: {max(len(coeffs) for coeffs in distinct) - 1}", file=report)
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    print(f"seed: {args.seed}")
    first_failure = None
    for name, check in claims.CLAIMS:
        try:
            check(random.Random(args.seed))
        except claims.ClaimFailed as exc:
            print(f"FAIL  {name}: {exc}")
            if first_failure is None:
                first_failure = name
        else:
            print(f"PASS  {name}")
    if first_failure is not None:
        print(f"first failing claim: {first_failure}", file=sys.stderr)
        return 1
    print("all claims pass")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command line parser and its verify subparser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="braidconway",
        description="Conway polynomials of braid closures, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conway = sub.add_parser(
        "conway", help="Conway polynomial of one braid closure"
    )
    source = conway.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--artin", metavar="WORD", help="Artin word, e.g. '1 -2 1'"
    )
    source.add_argument(
        "--band", metavar="WORD", help="band word, e.g. '1:6 -2:5'"
    )
    conway.add_argument(
        "-n", "--strands", type=int, required=True, help="strand count"
    )
    conway.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    conway.set_defaults(func=_cmd_conway)

    tree = sub.add_parser(
        "tree", help="resolution tree of a positive 3-strand band word"
    )
    tree.add_argument("word", help="letters from {1, 2, 13}, e.g. '1 2 1 2'")
    tree.add_argument("--format", choices=("json", "dot"), default="json")
    tree.set_defaults(func=_cmd_tree)

    scan = sub.add_parser(
        "scan",
        help="sweep all 3-strand band words up to a length, cross-checking routes",
    )
    scan.add_argument("--max-len", type=int, required=True, help="longest word")
    scan.add_argument("--out", metavar="PATH", help="write records here instead of stdout")
    scan.add_argument("--jobs", type=int, default=1, help="worker processes")
    scan.set_defaults(func=_cmd_scan)

    verify = sub.add_parser(
        "verify", help="run the built-in fixed and randomized checks"
    )
    # main sets the default from the environment at every call.
    verify.add_argument(
        "--seed", type=int,
        help=f"randomization seed (default {DEFAULT_SEED}, "
        f"or the {SEED_ENV_VAR} environment variable)"
    )
    verify.set_defaults(func=_cmd_verify)

    return parser, verify


def main(argv: list[str] | None = None) -> int:
    parser, verify = _build_parsers()
    # argparse runs type=int on a string default too, so a malformed
    # environment value is a usage error (exit 2) like a malformed flag.
    verify.set_defaults(seed=os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))
    args = parser.parse_args(argv)
    if args.command == "scan":
        if args.max_len < 0:
            parser.error("--max-len must be >= 0")
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
    try:
        code = args.func(args)
        # Flush here, so a reader that left early is seen inside this try.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull, so the flush
        # at interpreter exit cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ParseError, IndexOutOfRange, NotOrdered, TreeTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
