"""The command line surface: output formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_scan_clamps_jobs_to_its_tasks(capsys, tmp_path, monkeypatch):
    # The depth-2 partition has nine tasks, so more workers than that
    # would only be forked to sit idle; so would more workers than CPUs.
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
    assert requested == [9]
    assert single.read_bytes() == wide.read_bytes()

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run(capsys, "scan", "--max-len", "3", "--out", str(wide), "--jobs", "64")[0] == 0
    assert requested == [9, 4]
    assert single.read_bytes() == wide.read_bytes()


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


# --- verify ---------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert out.startswith("seed: 1234567\n")
    assert "all claims pass" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_verify_seed_flag_is_echoed(capsys):
    code, out, err = run(capsys, "verify", "--seed", "42")
    assert code == 0
    assert out.startswith("seed: 42\n")


def test_verify_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCONWAY_SEED", "97")
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert out.startswith("seed: 97\n")


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
