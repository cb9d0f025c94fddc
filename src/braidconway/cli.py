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
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import product
from typing import TextIO

from . import claims
from .braid import IndexOutOfRange, NotOrdered, ParseError, parse_artin, parse_band
from .burau import BurauMatrix, burau_rep, conway_from_matrix, conway_via_burau
from .skein3 import (
    LETTERS,
    Word,
    conway_via_skein,
    format_word,
    parse_word,
    resolve,
    to_band_word,
    tree_to_dot,
    tree_to_json,
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
    word = parse_word(args.word)
    tree = resolve(word)
    if args.format == "dot":
        print(tree_to_dot(tree))
    else:
        print(json.dumps(tree_to_json(tree), indent=2))
    return 0


# ---------------------------------------------------------------------------
# scan

@lru_cache(maxsize=None)
def _letter_matrix(letter: int) -> BurauMatrix:
    return burau_rep(to_band_word((letter,)))


def _record(word: Word, matrix: BurauMatrix) -> tuple[str, tuple[int, ...]]:
    # A positive band word's exponent sum is its length.
    via_matrix = conway_from_matrix(matrix, len(word))
    via_skein = conway_via_skein(word)
    if via_skein != via_matrix:
        raise ScanViolation(
            format_word(word),
            f"skein gives {via_skein}, matrix gives {via_matrix}",
        )
    if not via_skein.is_nonneg():
        raise ScanViolation(format_word(word), f"negative coefficient in {via_skein}")
    line = json.dumps(
        {
            "word": format_word(word),
            "len": len(word),
            "conway": list(via_skein.coeffs),
            "nonneg": True,
            "agree": True,
        }
    )
    return line, via_skein.coeffs


def _scan_subtree(
    prefix: Word, max_len: int
) -> tuple[dict[int, list[str]], set[tuple[int, ...]]]:
    """Records for prefix and all extensions up to max_len, grouped by length.

    Walks the extension trie depth first in letter order, reusing each
    prefix's matrix product, so every word costs one matrix multiplication.
    """
    buffers: dict[int, list[str]] = {
        length: [] for length in range(len(prefix), max_len + 1)
    }
    seen: set[tuple[int, ...]] = set()

    def walk(word: Word, matrix: BurauMatrix) -> None:
        line, coeffs = _record(word, matrix)
        buffers[len(word)].append(line)
        seen.add(coeffs)
        if len(word) < max_len:
            for letter in LETTERS:
                walk(word + (letter,), matrix * _letter_matrix(letter))

    walk(prefix, burau_rep(to_band_word(prefix)))
    return buffers, seen


def _scan_task(task: tuple[Word, int]) -> tuple[dict[int, list[str]], set[tuple[int, ...]]]:
    prefix, max_len = task
    return _scan_subtree(prefix, max_len)


def _cmd_scan(args: argparse.Namespace) -> int:
    # Open --out before the sweep, so an unwritable path fails at once; a
    # scan that stops with exit 1 leaves the file empty.
    if args.out is None:
        return _scan(args.max_len, args.jobs, sys.stdout, sys.stderr)
    with open(args.out, "w", newline="\n") as handle:
        return _scan(args.max_len, args.jobs, handle, sys.stdout)


def _scan(max_len: int, jobs: int, sink: TextIO, report: TextIO) -> int:
    """Write the records to sink and the summary to report."""
    # Partition the trie at depth 2 when running in parallel: nine subtree
    # tasks plus the four short words handled inline.  Merging buffers in
    # prefix order keeps the byte stream identical for every job count.
    split = jobs > 1 and max_len >= 2
    try:
        if split:
            parts = [_scan_subtree((), 1)]
            tasks = [((a, b), max_len) for a, b in product(LETTERS, repeat=2)]
            workers = min(jobs, len(tasks), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts.extend(pool.map(_scan_task, tasks))
        else:
            parts = [_scan_subtree((), max_len)]
    except ScanViolation as exc:
        print(f"scan aborted at word '{exc.word}': {exc.detail}", file=sys.stderr)
        return 1

    lines: list[str] = []
    for length in range(max_len + 1):
        for buffers, _ in parts:
            lines.extend(buffers.get(length, ()))

    distinct: set[tuple[int, ...]] = set()
    for _, seen in parts:
        distinct |= seen
    max_degree = max(len(coeffs) - 1 for coeffs in distinct)

    # One write per record: a reader that leaves mid-scan then raises
    # BrokenPipeError, where one large write can lose its tail silently.
    for line in lines:
        sink.write(line + "\n")
    print(f"words: {len(lines)}", file=report)
    print(f"distinct conway polynomials: {len(distinct)}", file=report)
    print(f"max degree: {max_degree}", file=report)
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

def _build_parser() -> argparse.ArgumentParser:
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
    # argparse runs type=int on a string default too, so a malformed
    # environment value is a usage error (exit 2) like a malformed flag.
    verify.add_argument(
        "--seed", type=int, default=os.environ.get(SEED_ENV_VAR, DEFAULT_SEED),
        help=f"randomization seed (default {DEFAULT_SEED}, "
        f"or the {SEED_ENV_VAR} environment variable)"
    )
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
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
    except (ParseError, IndexOutOfRange, NotOrdered, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
