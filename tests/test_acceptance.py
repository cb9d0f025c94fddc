"""End-to-end acceptance: every criterion prints one PASS or FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
plain -v test report carries the same per-criterion verdicts.  Criteria
1-4, 6 and 7 run the claims in ``braidconway.claims`` that ``braidconway
verify`` reports, with this suite's seeds; criteria 5 and 8 drive the
scan.  All comparisons are exact integer equality, tolerance zero.
Criteria with a stated time budget fail when they run over it.
"""

import contextlib
import hashlib
import io
import json
import random
import time

from braidconway import claims
from braidconway.burau import conway_via_burau
from braidconway.cli import main
from braidconway.skein3 import conway_via_skein, parse_word, to_band_word


class Criterion:
    """Times a block, prints its verdict, and enforces a budget if one is set."""

    def __init__(self, number, label, budget_s=None):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        if exc_type is not None:
            print(f"criterion {self.number}: FAIL ({self.label})")
            return False
        if self.budget_s is not None and elapsed > self.budget_s:
            print(
                f"criterion {self.number}: FAIL ({self.label}; "
                f"{elapsed:.2f}s over the {self.budget_s:.0f}s budget)"
            )
            raise AssertionError(
                f"criterion {self.number} ran {elapsed:.2f}s, "
                f"budget {self.budget_s:.0f}s"
            )
        print(f"criterion {self.number}: PASS ({self.label}; {elapsed:.2f}s)")
        return False


def test_criterion_1_fixed_closures():
    with Criterion(1, "fixed closures", budget_s=1.0):
        claims.check_fixed_closures(random.Random(0))


def test_criterion_2_full_twist_matrix():
    with Criterion(2, "full twist matrix is s^6 times the identity"):
        claims.check_full_twist_matrix(random.Random(0))


def test_criterion_3_full_twist_difference_law():
    with Criterion(3, "difference law on 200 random words", budget_s=10.0):
        claims.check_full_twist_difference(random.Random(193))


def test_criterion_4_balanced_exponent_powers():
    with Criterion(4, "full-twist powers at exponent sum -3r", budget_s=10.0):
        claims.check_balanced_exponent_powers(random.Random(389))


def test_criterion_5_exhaustive_scan(tmp_path):
    with Criterion(5, "all 29524 words of length <= 9", budget_s=60.0):
        out_path = tmp_path / "scan9.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["scan", "--max-len", "9", "--out", str(out_path), "--jobs", "1"]
            )
        assert code == 0
        # The scan bytes are part of the output contract.
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "209ff31b22f638220a2279668e56616d640be3d345ca5fd09f3d2c2247998c2f"
        )
        lines = out_path.read_text().splitlines()
        assert len(lines) == 29524
        records = [json.loads(line) for line in lines]
        assert all(r["agree"] and r["nonneg"] for r in records)
        # Spot re-verification: recompute a sample from scratch by both routes.
        rng = random.Random(1031)
        for record in rng.sample(records, 50):
            word = parse_word(record["word"])
            value = conway_via_skein(word)
            assert list(value.coeffs) == record["conway"]
            assert conway_via_burau(to_band_word(word)) == value


def test_criterion_6_ascending_cycle_closures():
    with Criterion(6, "ascending cycles k = 1..6 match the matrix route"):
        claims.check_ascending_cycles(random.Random(0))


def test_criterion_7_fibonacci_reflection():
    with Criterion(7, "symmetric powers rewrite to Fibonacci sums, |n| <= 20"):
        claims.check_fibonacci_reflection(random.Random(0))


def test_criterion_8_scan_determinism(tmp_path):
    with Criterion(8, "scan bytes identical for --jobs 1 and --jobs 8"):
        single = tmp_path / "jobs1.jsonl"
        parallel = tmp_path / "jobs8.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert (
                main(["scan", "--max-len", "7", "--out", str(single), "--jobs", "1"])
                == 0
            )
            assert (
                main(["scan", "--max-len", "7", "--out", str(parallel), "--jobs", "8"])
                == 0
            )
        assert single.read_bytes() == parallel.read_bytes()
