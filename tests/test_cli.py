"""The command line surface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidconway
from braidconway import claims
from braidconway.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- conway -------------------------------------------------------------------

def test_conway_band_human(capsys):
    code, out, err = run(
        capsys, "conway", "--band", "1:6 1:6 4:6 3:5 2:4 1:3 2:5", "-n", "6"
    )
    assert code == 0
    assert out == "1 - z^2\n"


def test_conway_artin_json(capsys):
    code, out, err = run(
        capsys, "conway", "--artin", "1 1 1", "-n", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [1, 0, 1]


def test_conway_rejects_bad_word(capsys):
    code, out, err = run(capsys, "conway", "--artin", "1 x", "-n", "3")
    assert code == 2
    assert "bad Artin letter" in err


def test_conway_rejects_index_out_of_range(capsys):
    code, out, err = run(capsys, "conway", "--band", "1:7", "-n", "6")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "alphabet, word, strands, named",
    [
        ("--artin", "1 3", "3", "generator index 3 "),
        ("--artin", "1 -5", "4", "generator index 5 "),
        ("--artin", "1 0", "3", "'0'"),
        ("--artin", "1", "1", "at least 2 strands, got 1"),
        ("--band", "1:2 1:7", "6", "band generator 1:7 "),
        ("--band", "-0:2", "3", "band generator 0:2 "),
        ("--band", "3:1", "4", "i < j, got 3:1"),
        ("--band", "-2:2", "4", "i < j, got 2:2"),
        ("--band", "1:2", "1", "at least 2 strands, got 1"),
        ("--artin", "1", "9" * 20, "9" * 20 + " strands are too many"),
        ("--band", "1:" + "9" * 20, "9" * 20, "9" * 20 + " strands are too many"),
    ],
)
def test_conway_names_a_bad_letter_and_exits_2(capsys, alphabet, word, strands, named):
    # The parsers only tokenize; ArtinWord and BandWord check every letter.
    # A strand count too large to index passes them, and the matrix route
    # refuses it.
    code, out, err = run(capsys, "conway", f"{alphabet}={word}", "-n", strands)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_conway_answers_an_idle_column_at_once(capsys, monkeypatch):
    # Column 4 of 299 is crossed by no letter, so the closure splits; no
    # 299x299 identity is built, nor one of 999 999 columns.
    from braidconway.burau import BurauMatrix

    def refuse(cls, n):
        raise AssertionError(f"an identity on {n} strands was built")

    monkeypatch.setattr(BurauMatrix, "identity", classmethod(refuse))
    for strands in ("300", "1000000"):
        for alphabet, word in (("--artin", "1 2 3"), ("--band", "1:4 -2:3")):
            code, out, err = run(capsys, "conway", "-n", strands, alphabet, word)
            assert (code, out, err) == (0, "0\n", "")


def test_conway_requires_exactly_one_alphabet():
    with pytest.raises(SystemExit) as info:
        main(["conway", "--artin", "1", "--band", "1:2", "-n", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["conway", "-n", "3"])
    assert info.value.code == 2


WIDE_10 = (
    "9:10 6:9 -5:9 9:10 2:9 -8:9 -5:6 1:10 -8:10 -2:7 9:10 8:9 -7:9 8:9 "
    "-7:9 -8:10 -9:10 -9:10 6:8 2:10 -9:10 -5:10 -7:10 7:10 9:10 9:10 -6:7 "
    "2:9 2:10 1:3 -8:9 -9:10 -2:9 -4:6 -1:9 4:9 2:8 -5:9 3:9 6:9"
)
WIDE_16 = (
    "-12:15 -6:11 6:15 5:12 -14:15 4:5 -12:14 -15:16 3:12 1:3 -14:16 -7:15 "
    "-11:12 -5:13 -13:14 4:15 -11:15 8:11 -15:16 8:15 7:15 -7:15 1:11 -7:10 "
    "-14:15 -2:14 8:13 15:16 -14:15 5:16 10:16 -3:11 4:14 12:16 11:13 -11:14 "
    "8:9 -10:13 7:10 6:16"
)


def _components(n, band_word):
    """Cycles of the permutation of the strands that band_word induces."""
    perm = list(range(n + 1))
    for token in band_word.split():
        i, j = (int(x) for x in token.lstrip("-").split(":"))
        perm[i], perm[j] = perm[j], perm[i]
    seen = set()
    cycles = 0
    for start in range(1, n + 1):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return cycles


def _obeys_parity_law(mu, coeffs):
    # A mu-component link's Conway polynomial is z^(mu-1) times a
    # polynomial in z^2; a knot's constant term is 1.
    if any(c and (d < mu - 1 or (d - mu + 1) % 2) for d, c in enumerate(coeffs)):
        return False
    return mu > 1 or coeffs[:1] == [1]


def _conway_json(capsys, band_word, n):
    code, out, err = run(
        capsys, "conway", "--band", band_word, "-n", str(n), "--format", "json"
    )
    assert (code, err) == (0, "")
    return json.loads(out)


def test_conway_on_ten_strands_is_fast_and_stable(capsys):
    # Forty mixed-sign letters on 10 strands: a 9x9 determinant, which the
    # cofactor expansion could not finish.
    start = time.perf_counter()
    coeffs = _conway_json(capsys, WIDE_10, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"conway on 10 strands took {elapsed:.2f} s"
    assert coeffs
    assert _obeys_parity_law(_components(10, WIDE_10), coeffs)
    # Markov stabilization does not change the closure.
    assert _conway_json(capsys, WIDE_10 + " 10:11", 11) == coeffs


def test_conway_answers_on_sixteen_strands(capsys):
    coeffs = _conway_json(capsys, WIDE_16, 16)
    assert _obeys_parity_law(_components(16, WIDE_16), coeffs)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # The reader is gone before the command writes anything, so the first
    # write to stdout, buffered or not, meets a broken pipe.
    src = str(Path(braidconway.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    flags = ["-u"] if unbuffered else []
    argv = ["conway", "-n", "2", "--artin", "1 1 1"]
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "braidconway.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 1
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_scan_into_a_pipe_closed_midway_exits_1_quietly(unbuffered):
    # The records of a length <= 8 scan (about 1 MB) overflow a pipe's
    # buffer, so the reader leaves while the scan is still writing.
    src = str(Path(braidconway.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    flags = ["-u"] if unbuffered else []
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "braidconway.cli", "scan", "--max-len", "8"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert json.loads(first)["word"] == ""
    assert code == 1
    assert err == b""


# --- tree ---------------------------------------------------------------------

def test_tree_json_document(capsys):
    code, out, err = run(capsys, "tree", "1 2 1 2")
    assert code == 0
    document = json.loads(out)
    assert document["word"] == "1 2 1 2"
    assert document["value"] == [1, 0, 1]
    root = document["tree"]
    assert root["word"] == "1 2 1 2"
    left, right = root["children"]
    assert left["edge"] == "1"
    assert right["edge"] == "z"
    assert left["leaf"] == "two-distinct"
    assert left["value"] == [1]


def test_tree_json_footer_is_last_key(capsys):
    code, out, err = run(capsys, "tree", "1 1 2")
    assert code == 0
    document = json.loads(out)
    assert list(document) == ["word", "tree", "value"]


def test_tree_empty_word(capsys):
    code, out, err = run(capsys, "tree", "")
    assert code == 0
    document = json.loads(out)
    assert document["value"] == []
    assert document["tree"]["leaf"] == "empty"


def test_tree_triple_power_reports_k(capsys):
    code, out, err = run(capsys, "tree", "1 2 13 1 2 13")
    assert code == 0
    document = json.loads(out)
    assert document["tree"]["leaf"] == "triple-power"
    assert document["tree"]["k"] == 2
    assert document["value"] == []


def test_tree_dot_output(capsys):
    code, out, err = run(capsys, "tree", "1 1 2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph resolution {")
    assert 'label="conway: z";' in out
    assert '[label="1"]' in out and '[label="z"]' in out


def test_tree_output_bytes_are_pinned(capsys):
    # This word's tree has all four leaf kinds; its JSON and DOT bytes are
    # part of the output contract.
    pinned = {
        "json": "73337db962d9d9638fd4886d0de102f911e0c7d3108834d5e534811022fb4008",
        "dot": "53a33dcecbbd82f26e2b643fcef7791841e08759d5f2d7edaa34e38756a5bb27",
    }
    for fmt, digest in pinned.items():
        code, out, err = run(capsys, "tree", "1 1 13 1 2", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_tree_rejects_foreign_letters(capsys):
    code, out, err = run(capsys, "tree", "1 3")
    assert code == 2
    assert "expected 1, 2 or 13" in err


def test_tree_refuses_a_tree_over_the_node_limit(capsys):
    # "1"*26 has 392 835 nodes, "1"*30 has 2 692 537, and a random
    # 200-letter word has far more; each is refused while its tree is
    # built, before anything is printed.
    import random

    rng = random.Random(200)
    letters = ["1", "2", "13"]
    words = [" ".join(["1"] * n) for n in (26, 30)]
    for word in words + [" ".join(rng.choices(letters, k=200))]:
        for fmt in ("json", "dot"):
            code, out, err = run(capsys, "tree", word, "--format", fmt)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "250000 nodes" in err


# --- scan ---------------------------------------------------------------------

def test_scan_short_sweep(capsys):
    code, out, err = run(capsys, "scan", "--max-len", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    records = [json.loads(line) for line in lines]
    assert [r["len"] for r in records] == [0] + [1] * 3 + [2] * 9
    assert all(r["agree"] and r["nonneg"] for r in records)
    assert records[0] == {
        "word": "",
        "len": 0,
        "conway": [],
        "nonneg": True,
        "agree": True,
    }
    # Key order is part of the byte-stable format.
    assert list(records[5]) == ["word", "len", "conway", "nonneg", "agree"]
    assert "words: 13" in err


def test_scan_counts_match_alphabet_growth(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--max-len", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 3 + 9 + 27 + 81
    assert "words: 121" in out


def _count_normalizations_and_determinants(monkeypatch):
    """Counts calls to the scan's conway_from_matrix and to BurauMatrix.det."""
    from braidconway import cli
    from braidconway.burau import BurauMatrix

    counts = {"normalize": 0, "det": 0}
    normalize, det = cli.conway_from_matrix, BurauMatrix.det

    def counted_normalize(m, exponent_sum):
        counts["normalize"] += 1
        return normalize(m, exponent_sum)

    def counted_det(self):
        counts["det"] += 1
        return det(self)

    monkeypatch.setattr(cli, "conway_from_matrix", counted_normalize)
    monkeypatch.setattr(BurauMatrix, "det", counted_det)
    return counts


def test_scan_takes_one_normalization_per_braid(monkeypatch):
    # The 3^k words of length k spell 2^(k+1) - 1 distinct braids, so a
    # walk that normalizes each distinct matrix once makes
    # sum_{k <= L} (2^(k+1) - 1) = 2^(L+2) - L - 3 normalizations.  The
    # same count on a second walk shows that no memo outlives its walk.
    # On three strands the normalization reads the trace, so the walk
    # takes no determinant.
    from braidconway import cli

    counts = _count_normalizations_and_determinants(monkeypatch)
    for max_len in range(9):
        for _ in range(2):
            counts.update(normalize=0, det=0)
            cli._scan_subtree(((),), max_len)
            normalizations = 2 ** (max_len + 2) - max_len - 3
            assert counts == {"normalize": normalizations, "det": 0}


def test_scan_takes_no_normal_form_and_folds_no_braid(monkeypatch):
    # Each word's children in its resolution step are words two and one
    # letters shorter, and the walk keeps the values of the two levels
    # below the current one in one dict each, so a walk from the empty
    # word finds every child there: it takes no normal form, folds no
    # braid and leaves its cold memo empty.  A word at length k meets the
    # dicts of lengths k - 2 and k - 1, whole; the dict of its own length,
    # the third, is the next level's one below.
    from braidconway import cli, skein3

    calls = {"normal form": 0, "braid step": 0}
    normal_form, braid_step, step = (
        skein3._normal_form, skein3._braid_step, cli.value_by_step
    )

    def counted_normal_form(word):
        calls["normal form"] += 1
        return normal_form(word)

    def counted_braid_step(key):
        calls["braid step"] += 1
        return braid_step(key)

    sizes = []

    def measured_step(word, two_below, one_below, cold):
        value = step(word, two_below, one_below, cold)
        sizes.append((len(word), len(two_below), len(one_below), len(cold)))
        return value

    monkeypatch.setattr(skein3, "_normal_form", counted_normal_form)
    monkeypatch.setattr(skein3, "_braid_step", counted_braid_step)
    monkeypatch.setattr(cli, "value_by_step", measured_step)
    for max_len in range(9):
        sizes.clear()
        cli._scan_subtree(((),), max_len)
        assert calls == {"normal form": 0, "braid step": 0}
        assert len(sizes) == (3 ** (max_len + 1) - 1) // 2
        for length, two, one, cold in sizes:
            below = [3 ** (length - k) if length >= k else 0 for k in (2, 1)]
            assert [two, one, cold] == below + [0]
    assert max(two + one for _, two, one, _ in sizes) == 3**7 + 3**6


def test_scan_skein_memo_lives_for_one_walk(monkeypatch):
    # Each walk classifies every subword it meets again: no skein memo
    # outlives its walk.
    from braidconway import cli, skein3

    calls = 0
    classify = skein3.classify_leaf

    def counted_classify(word):
        nonlocal calls
        calls += 1
        return classify(word)

    monkeypatch.setattr(skein3, "classify_leaf", counted_classify)
    counts = []
    for _ in range(2):
        calls = 0
        cli._scan_subtree(((),), 6)
        counts.append(calls)
    assert counts[0] == counts[1] > 3**6


def test_scan_worker_cold_memo_holds_few_braids(monkeypatch):
    # A --jobs 2 worker walks one group of the depth-3 prefixes, so the
    # children that extend none of them are folded cold.  Their values go
    # with their level's dict; the walk's one cold memo keeps normal forms
    # only, so it holds at most the 2^10 - 1 braids of length <= 9.
    from itertools import product

    from braidconway import cli, skein3

    colds = {}
    step = cli.value_by_step

    def recorded_step(word, two_below, one_below, cold):
        colds[id(cold)] = cold
        return step(word, two_below, one_below, cold)

    monkeypatch.setattr(cli, "value_by_step", recorded_step)
    prefixes = list(product(skein3.LETTERS, repeat=cli.SPLIT_DEPTH))
    half = len(prefixes) // 2
    for group in (prefixes[:half], prefixes[half:]):
        colds.clear()
        cli._scan_subtree(tuple(group), 10)
        (cold,) = colds.values()
        assert 0 < len(cold) < 2**10
        for key in cold:
            assert skein3._normal_form(key.replace(skein3._DELTA, b"\x01\x00")) == key


def test_scan_takes_each_words_own_resolution_step(monkeypatch):
    # Spellings of one braid share their children's values, but every
    # scanned word that is not a leaf still takes its own step, so each
    # word's step is checked against its braid's matrix value.
    from itertools import product

    from braidconway import cli, skein3

    stepped = set()
    step = skein3._resolution_step
    monkeypatch.setattr(
        skein3, "_resolution_step", lambda v: stepped.add(v) or step(v)
    )
    cli._scan_subtree(((),), 6)
    inner = [
        bytes(word)
        for length in range(7)
        for word in product(skein3.LETTERS, repeat=length)
        if skein3.classify_leaf(bytes(word)) is None
    ]
    assert len(inner) > 3**6 and stepped >= set(inner)


def test_scan_takes_one_product_per_braid_and_letter(monkeypatch):
    # Each walk builds the three letter matrices, one product each, and
    # extends each braid of length < L once by each letter:
    # 3 + 3 * sum_{k < L} (2^(k+1) - 1) = 3 + 3 * (2^(L+1) - L - 2)
    # products.  The same count on a second walk shows that no memo
    # outlives its walk.
    from braidconway import cli
    from braidconway.burau import BurauMatrix

    calls = 0
    mul = BurauMatrix.__mul__

    def counted_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    # The process-wide letter-matrix cache builds each matrix in closed
    # form, with no product, so the count below is the walk's alone,
    # whether or not the cache is cold.
    monkeypatch.setattr(BurauMatrix, "__mul__", counted_mul)
    for max_len in range(9):
        for _ in range(2):
            calls = 0
            cli._scan_subtree(((),), max_len)
            assert calls == 3 + 3 * (2 ** (max_len + 1) - max_len - 2)
    assert calls == 1509


def _scan_failure(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--max-len", "4", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert out_path.read_text() == ""
    return err


def test_scan_stops_when_the_routes_disagree(capsys, tmp_path, monkeypatch):
    from braidconway import cli
    from braidconway.polyring import ZPoly
    from braidconway.skein3 import parse_word

    chosen = parse_word("1 2 13")
    step = cli.value_by_step
    wrong = ZPoly((0, 2, 0, 1))
    monkeypatch.setattr(
        cli,
        "value_by_step",
        lambda w, *dicts: wrong if w == chosen else step(w, *dicts),
    )
    err = _scan_failure(capsys, tmp_path)
    assert err == (
        "scan aborted at word '1 2 13': skein gives 2z + z^3, matrix gives 2z\n"
    )


def test_scan_stops_at_a_negative_coefficient(capsys, tmp_path, monkeypatch):
    # Both routes give the same negative value for "1 2 13", the only
    # spelling of its braid, so only the sign check can stop the scan.
    from braidconway import cli
    from braidconway.burau import burau_rep
    from braidconway.polyring import ZPoly
    from braidconway.skein3 import parse_word, to_band_word

    chosen = parse_word("1 2 13")
    chosen_matrix = burau_rep(to_band_word(chosen))
    step, matrix = cli.value_by_step, cli.conway_from_matrix
    negative = ZPoly((0, 2, -1))
    monkeypatch.setattr(
        cli,
        "value_by_step",
        lambda w, *dicts: negative if w == chosen else step(w, *dicts),
    )
    monkeypatch.setattr(
        cli,
        "conway_from_matrix",
        lambda m, e: negative if m == chosen_matrix else matrix(m, e),
    )
    err = _scan_failure(capsys, tmp_path)
    assert err == (
        "scan aborted at word '1 2 13': negative coefficient in 2z - z^2\n"
    )


def test_scan_compares_every_word_even_for_a_value_already_checked(
    capsys, tmp_path, monkeypatch
):
    # The walk checks and formats each distinct value once.  A wrong value
    # that the walk has already met, here the unknot's 1 from "1 2", must
    # still stop the scan at the last word of length 6, whose closure has
    # a split component and so the value 0.
    from braidconway import cli
    from braidconway.polyring import ZPoly
    from braidconway.skein3 import parse_word

    chosen = parse_word("13 13 13 13 13 13")
    step = cli.value_by_step
    monkeypatch.setattr(
        cli,
        "value_by_step",
        lambda w, *dicts: ZPoly((1,)) if w == chosen else step(w, *dicts),
    )
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--max-len", "6", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert out_path.read_text() == ""
    assert err == (
        "scan aborted at word '13 13 13 13 13 13': skein gives 1, matrix gives 0\n"
    )


@pytest.mark.parametrize(
    "braid, max_len, first",
    [("2 1", 4, "1 13"), ("2 1 2", 3, "1 1 13"), ("2 1 2 1", 6, "1 1 13 1")],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_names_the_first_spelling_of_a_negative_braid(
    capsys, tmp_path, monkeypatch, in_process_pool, braid, max_len, first, jobs
):
    # Both routes give the same negative value for every spelling of the
    # braid, so the sign check stops the scan at the spelling that comes
    # first in walk order, in the main process or in a worker.  At
    # --jobs 2 the spellings of "2 1 2" are depth-3 prefixes, four of them
    # in the first worker's group.
    from braidconway import cli
    from braidconway.burau import burau_rep
    from braidconway.polyring import ZPoly
    from braidconway.skein3 import parse_word, to_band_word

    chosen = parse_word(braid)
    chosen_key = (burau_rep(to_band_word(chosen)), len(chosen))
    step, matrix = cli.value_by_step, cli.conway_from_matrix
    negative = ZPoly((0, 2, -1))
    monkeypatch.setattr(
        cli,
        "value_by_step",
        lambda w, *dicts: negative
        if (burau_rep(to_band_word(w)), len(w)) == chosen_key
        else step(w, *dicts),
    )
    monkeypatch.setattr(
        cli,
        "conway_from_matrix",
        lambda m, e: negative if (m, e) == chosen_key else matrix(m, e),
    )
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(
        capsys,
        "scan", "--max-len", str(max_len), "--out", str(out_path), "--jobs", jobs,
    )
    assert code == 1
    assert out == ""
    assert out_path.read_text() == ""
    assert err == f"scan aborted at word '{first}': negative coefficient in 2z - z^2\n"


def test_scan_violation_survives_a_pickle_round_trip():
    # A worker's violation reaches the main process only through pickle.
    import pickle

    from braidconway.cli import ScanViolation

    exc = pickle.loads(pickle.dumps(ScanViolation("1 13", "negative coefficient in -z")))
    assert type(exc) is ScanViolation
    assert (exc.word, exc.detail) == ("1 13", "negative coefficient in -z")


def test_scan_records_match_json_dumps(capsys):
    # The records are formatted by hand; each must be exactly what
    # json.dumps makes of its own parse.
    code, out, err = run(capsys, "scan", "--max-len", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1093
    for line in lines:
        assert line == json.dumps(json.loads(line))


def test_scan_deterministic_across_jobs(capsys, tmp_path):
    single = tmp_path / "single.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run(capsys, "scan", "--max-len", "4", "--out", str(single))[0] == 0
    assert (
        run(
            capsys,
            "scan", "--max-len", "4", "--out", str(parallel), "--jobs", "3",
        )[0]
        == 0
    )
    assert single.read_bytes() == parallel.read_bytes()


@pytest.fixture
def in_process_pool(monkeypatch):
    """Runs the scan's pool tasks in this process on a machine of 64 CPUs,
    and gives the list of max_workers the scan asked for."""
    from braidconway import cli

    requested = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    return requested


def test_scan_clamps_jobs_to_its_tasks(capsys, tmp_path, monkeypatch, in_process_pool):
    # The depth-3 partition has 27 prefixes, one task per worker, so more
    # workers than that would only be forked to sit idle; so would more
    # workers than CPUs.
    from braidconway import cli

    requested = in_process_pool
    single = tmp_path / "single.jsonl"
    wide = tmp_path / "wide.jsonl"
    assert run(capsys, "scan", "--max-len", "3", "--out", str(single))[0] == 0
    assert requested == []
    assert (
        run(
            capsys,
            "scan", "--max-len", "3", "--out", str(wide), "--jobs", "64",
        )[0]
        == 0
    )
    assert requested == [27]
    assert single.read_bytes() == wide.read_bytes()

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run(capsys, "scan", "--max-len", "3", "--out", str(wide), "--jobs", "64")[0] == 0
    assert requested == [27, 4]
    assert single.read_bytes() == wide.read_bytes()


def test_scan_on_a_one_cpu_host_forks_no_pool(capsys, tmp_path, monkeypatch, in_process_pool):
    # One worker walks the whole trie in this process, as --jobs 1 does,
    # rather than one pool worker beside the walk of the short words.
    from braidconway import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    outputs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"scan-{jobs}.jsonl"
        code, out, err = run(
            capsys, "scan", "--max-len", "4", "--out", str(out_path), "--jobs", jobs
        )
        assert (code, err) == (0, "")
        outputs.append((out_path.read_bytes(), out))
    assert in_process_pool == []
    assert outputs[0] == outputs[1]


def test_scan_bytes_are_the_same_for_every_job_count(capsys, tmp_path, in_process_pool):
    # Covers --max-len below the split depth with --jobs > 1, --max-len
    # exactly at it, groups of one prefix (27 jobs) and more jobs than
    # prefixes.
    for max_len in range(6):
        outputs = set()
        for jobs in (1, 2, 3, 5, 27, 64):
            out_path = tmp_path / f"scan-{max_len}-{jobs}.jsonl"
            code, out, err = run(
                capsys,
                "scan", "--max-len", str(max_len), "--out", str(out_path),
                "--jobs", str(jobs),
            )
            assert (code, err) == (0, "")
            outputs.add((out_path.read_bytes(), out))
        assert len(outputs) == 1, max_len
    assert in_process_pool == [2, 3, 5, 27, 27] * 3


def test_parallel_scan_walks_each_group_once(monkeypatch, in_process_pool):
    # At --jobs 2 the 27 depth-3 prefixes go to two tasks of 13 and 14,
    # each one walk with one matrix memo.  Braids shared between the two
    # groups are normalized once in each, so the count lies between one
    # walk of all words (1013 normalizations at length 8) and nine
    # separate tasks, one per depth-2 prefix (2227).
    from braidconway import cli

    counts = _count_normalizations_and_determinants(monkeypatch)
    assert cli._scan(8, 2, io.StringIO(), io.StringIO()) == 0
    assert in_process_pool == [2]
    assert counts == {"normalize": 1259, "det": 0}


def test_scan_value_ids_line_up_with_words():
    # Each length's coefficient tuples come in the lexicographic order of
    # its words, each the word's own value.
    from itertools import product

    from braidconway import cli
    from braidconway.skein3 import LETTERS, conway_via_skein

    for max_len in range(7):
        found = cli._scan_subtree(((),), max_len)
        assert sorted(found) == list(range(max_len + 1))
        for length, values in found.items():
            assert values == [
                conway_via_skein(w).coeffs for w in product(LETTERS, repeat=length)
            ]


def test_scan_walk_leaves_no_reference_cycle():
    # The walk's memos go when it returns, not when the cyclic garbage
    # collector next runs.
    import gc
    from itertools import product

    from braidconway import cli
    from braidconway.skein3 import LETTERS

    gc.collect()
    gc.disable()
    try:
        cli._scan_subtree(((),), 6)
        cli._scan_subtree(tuple(product(LETTERS, repeat=3))[13:], 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_scan_refuses_a_part_with_the_wrong_number_of_ids(
    capsys, tmp_path, monkeypatch, in_process_pool, change
):
    # Records are matched to words by position, so one value too few or
    # too many in any part must stop the scan before a record is written.
    from braidconway import cli

    task = cli._scan_task

    def faulty_task(arg):
        found = task(arg)
        values = found[5]
        if change == "drop":
            values.pop()
        else:
            values.append(values[-1])
        return found

    monkeypatch.setattr(cli, "_scan_task", faulty_task)
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(
        capsys, "scan", "--max-len", "6", "--out", str(out_path), "--jobs", "2"
    )
    assert code == 1
    assert out == ""
    assert out_path.read_text() == ""
    got = 3**5 - 2 if change == "drop" else 3**5 + 2
    assert err == f"scan aborted at length 5: {got} values for 243 words\n"


def test_scan_out_into_missing_directory_exits_2(capsys, tmp_path, monkeypatch):
    # The path is opened before the sweep, so the sweep never starts.
    from braidconway import cli

    def no_sweep(*args):
        raise AssertionError("scan swept before opening --out")

    monkeypatch.setattr(cli, "_scan_subtree", no_sweep)
    code, out, err = run(
        capsys, "scan", "--max-len", "2", "--out", str(tmp_path / "missing" / "x.jsonl")
    )
    assert code == 2
    assert err.startswith("error: ")


def test_scan_validates_flags():
    with pytest.raises(SystemExit) as info:
        main(["scan", "--max-len", "-1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["scan", "--max-len", "3", "--jobs", "0"])
    assert info.value.code == 2


# --- any argv -------------------------------------------------------------------

_TOKENS = (
    "1", "-2", "13", "1:2", "-1:3", "0", "-0", "2:1", "1:", "x", "\u0663",
    "12345678901234567890", "1:12345678901234567890",
)

_words = st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join)


def _argvs():
    """argv lists over the four subcommands, valid and not.

    A word here has at most 6 letters, so on 10**6 strands it leaves a
    column that no letter crosses, and the matrix route answers 0 without
    building a matrix.  A word that crosses every column of about 10**5
    strands or more would make it ask for an (N-1)x(N-1) identity, which
    exhausts memory; 10**20 is past what a tuple can index, so it is
    refused at once.
    """
    conway = st.builds(
        lambda n, alphabet, word: ["conway", "-n", n, f"{alphabet}={word}"],
        st.sampled_from(
            ("-1", "0", "1", "2", "3", "5", "8", str(10**6), str(10**20))
        ),
        st.sampled_from(("--artin", "--band")),
        _words,
    )
    tree = st.builds(
        lambda letters, fmt: ["tree", " ".join(letters), *fmt],
        st.one_of(
            st.lists(st.sampled_from(("1", "2", "13")), max_size=10),
            st.lists(st.sampled_from(_TOKENS), max_size=10),
        ),
        st.sampled_from(((), ("--format", "dot"))),
    )
    scan = st.builds(
        lambda max_len, jobs: ["scan", "--max-len", str(max_len), "--jobs", str(jobs)],
        st.integers(-1, 3),
        st.integers(0, 1),
    )
    verify = st.builds(
        lambda seed: ["verify", f"--seed={seed}"],
        st.sampled_from(("x", "", "1.5", "0x10", "\u0663x")),
    )
    return st.one_of(conway, tree, scan, verify)


@settings(max_examples=200, deadline=None)
@example(["conway", "-n", str(10**20), "--artin=1"])
@given(_argvs())
def test_no_argv_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


# --- verify ---------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert out.startswith("seed: 1234567\n")
    assert "all claims pass" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 9
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a2a4fec04ff63a40d7bbe34597c72746558076c07726316b1ae24d2cc2b4fc41"
    )


def test_verify_seed_flag_is_echoed(capsys):
    code, out, err = run(capsys, "verify", "--seed", "42")
    assert code == 0
    assert out.startswith("seed: 42\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "16fd9e1216dbf2acebf0b27bfb1b09f459e8e866fd4af9151393b3c228ab0ac0"
    )


def test_verify_seed_env_var(capsys, monkeypatch):
    # The parser is built once per process; the variable is read at every call.
    for seed in ("97", "98"):
        monkeypatch.setenv("BRAIDCONWAY_SEED", seed)
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert out.startswith(f"seed: {seed}\n")
    monkeypatch.delenv("BRAIDCONWAY_SEED")
    code, out, err = run(capsys, "verify")
    assert out.startswith("seed: 1234567\n")


def test_verify_rejects_a_malformed_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCONWAY_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_verify_reports_a_failing_claim(capsys, monkeypatch):
    def refuse(rng):
        raise claims.ClaimFailed("refused on purpose")

    patched = list(claims.CLAIMS)
    name = patched[2][0]
    patched[2] = (name, refuse)
    monkeypatch.setattr(claims, "CLAIMS", patched)
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert f"FAIL  {name}: refused on purpose\n" in out
    assert out.count("PASS  ") == 8
    assert "all claims pass" not in out
    assert err == f"first failing claim: {name}\n"


def test_verify_still_checks_under_optimize():
    # python -O strips assert statements; the claims must not rely on them.
    script = (
        "import sys\n"
        "from braidconway import claims, cli\n"
        "claims.conway_via_burau = lambda word: 5\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    src = str(Path(braidconway.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  fixed closures have their known polynomials" in proc.stdout
