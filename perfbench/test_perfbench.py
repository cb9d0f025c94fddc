"""Tests of the benchmark's own checks and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  Each workload's
check must accept the package's real answers and refuse a corrupted one.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads
from braidconway import burau, cli, skein3


def artin_pairs(text: str) -> list[tuple[int, int]]:
    return [(abs(int(k)), abs(int(k)) + 1) for k in text.split()]


def test_components_hand_cases():
    assert workloads.components(2, artin_pairs("1 1 1")) == 1  # trefoil
    assert workloads.components(2, artin_pairs("1 1")) == 2  # Hopf link
    assert workloads.components(3, workloads.band_pairs("1:3 -1:3")) == 3
    assert workloads.components(3, workloads.band_pairs("1:2 2:3")) == 1


def test_parity_law_on_known_closures():
    assert workloads.check_parity(1, [1, 0, 1]) is None  # trefoil
    assert workloads.check_parity(2, [0, 1]) is None  # Hopf link
    assert workloads.check_parity(3, []) is None  # split link
    assert workloads.check_parity(1, [1, 1]) is not None
    assert workloads.check_parity(1, [2]) is not None
    assert workloads.check_parity(2, [1]) is not None
    assert workloads.check_parity(3, [1]) is not None


def test_wide_words_repeat_per_seed_and_cover_every_size():
    words = workloads.wide_words(7)
    assert words == workloads.wide_words(7)
    assert words != workloads.wide_words(8)
    assert sorted({n for n, _ in words}) == list(workloads.WIDE_STRANDS)
    lengths = {len(text.split()) for _, text in words}
    assert min(lengths) == 16 and max(lengths) == 32
    for n, text in words:
        tokens = text.split()
        assert sum(token.startswith("-") for token in tokens) == len(tokens) // 2
        pairs = workloads.band_pairs(text)
        assert all(1 <= i < j <= n for i, j in pairs)
        assert sorted(j - i for i, j in pairs) == workloads._span_schedule(n, len(tokens))


def test_long_words_repeat_per_seed_and_balance_their_tokens():
    words = workloads.long_words(7)
    assert words == workloads.long_words(7)
    assert words != workloads.long_words(7, 1)
    assert len(words) == workloads.LONG_WORDS
    assert {len(text.split()) for text in words} == set(range(28, 33))
    for text in words:
        counts = [text.split().count(t) for t in workloads.LONG_TOKENS]
        assert max(counts) - min(counts) <= 1


def test_span_schedule_follows_uniform_pairs():
    # On 4 strands three pairs have span 1, two span 2 and one span 3.
    assert workloads._span_schedule(4, 6) == [1, 1, 1, 2, 2, 3]
    assert workloads._span_schedule(4, 3) == [1, 1, 2]


def test_word_times_are_scaled_milliseconds():
    result = {"wall": 2.0, "latencies": [0.001, 0.004]}
    assert run.word_times_ms("long", result, 2, 0.5) == pytest.approx([0.5, 2.0])
    assert run.word_times_ms("scan9", result, 1000, 0.5) == pytest.approx([1.0])


def test_child_reports_a_calibration_loop_per_word(tmp_path):
    words = [" ".join(text.split()[:12]) for text in workloads.long_words(4)[:3]]
    result = run.Runner(tmp_path).spawn({"kind": "long", "words": words, "trace": False})
    assert len(result["calibration"]) == len(words)
    assert all(c > 0 for c in result["calibration"])
    assert result["wall"] == pytest.approx(sum(result["latencies"]))


def _conway_json(n: int, text: str) -> list[int]:
    return list(burau.conway_via_burau(cli.parse_band(text, n)).coeffs)


def test_wide_check_accepts_real_answers_and_refuses_corrupted_ones():
    words = [(n, text) for n, text in workloads.wide_words(3) if n <= 6][:12]
    answers = [_conway_json(n, text) for n, text in words]
    assert workloads.check_wide(words, answers) == []
    for k in range(len(words)):
        # One more term, one degree up, always breaks the parity law.
        corrupted = list(answers)
        corrupted[k] = answers[k] + [1]
        assert len(workloads.check_wide(words, corrupted)) == 1
    corrupted = list(answers)
    corrupted[0] = None
    assert len(workloads.check_wide(words, corrupted)) == 1


def test_long_check_accepts_real_answers_and_refuses_corrupted_ones():
    words = [" ".join(text.split()[:14]) for text in workloads.long_words(5)[:6]]
    answers = []
    for text in words:
        word = skein3.parse_word(text)
        answers.append([
            list(skein3.conway_via_skein(word).coeffs),
            list(burau.conway_via_burau(skein3.to_band_word(word)).coeffs),
        ])
    assert workloads.check_long(words, answers) == []
    for k in range(len(words)):
        corrupted = list(answers)
        skein_answer, matrix_answer = answers[k]
        corrupted[k] = [skein_answer + [1], matrix_answer]
        assert len(workloads.check_long(words, corrupted)) == 1


@pytest.fixture(scope="module")
def scan9_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "scan9.jsonl"
    summary = subprocess.run(
        [sys.executable, "-m", "braidconway.cli", "scan", "--max-len", "9",
         "--out", str(out)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
    ).stdout
    return out.read_bytes(), summary


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_scan_checks_accept_real_output_and_refuse_corrupted_output(scan9_output):
    data, summary = scan9_output
    assert workloads.check_scan("scan9", 0, _digest(data), summary) is None
    # Change one coefficient of one record.
    lines = data.decode().splitlines(keepends=True)
    record = json.loads(lines[1000])
    record["conway"][-1] += 1
    lines[1000] = json.dumps(record) + "\n"
    corrupted = "".join(lines).encode()
    assert workloads.check_scan("scan9", 0, _digest(corrupted), summary) is not None
    assert workloads.check_scan("scan9", 1, _digest(data), summary) is not None
    wrong_summary = summary.replace("67", "66")
    assert workloads.check_scan("scan9", 0, _digest(data), wrong_summary) is not None
    # The length-9 sweep is not the length-10 answer.
    assert workloads.check_scan("scan10_par", 0, _digest(data), summary) is not None


def test_span_self_time_subtracts_children(tmp_path):
    rec = tracing.Recorder()

    def inner():
        time.sleep(0.002)

    inner = rec.wrap("inner", inner)

    def outer(depth):
        time.sleep(0.002)
        inner()
        inner()
        if depth:
            outer_traced(depth - 1)

    outer_traced = rec.wrap("outer", outer)
    outer_traced(1)
    rec.dump(tmp_path / "a.spans")
    summary = tracing.summarize([tmp_path / "a.spans"])
    assert summary["calls"] == {"inner": 4, "outer": 2}
    # The nested outer call is counted but adds no second interval.
    busy, self_s = summary["busy"], summary["self"]
    assert busy["outer"] > busy["inner"] > 0
    assert self_s["outer"] == pytest.approx(busy["outer"] - busy["inner"])
    assert self_s["inner"] == pytest.approx(busy["inner"])


def test_traced_counts_repeat_exactly(tmp_path):
    words = [" ".join(text.split()[:16]) for text in workloads.long_words(2)[:5]]
    job = {"kind": "long", "words": words, "trace": True}
    runner = run.Runner(tmp_path)
    results = [runner.spawn(job) for _ in range(2)]
    counts = [run._exact(tracing.summarize(run._span_files(r))) for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["skein3.nodes_evaluated"] > 0
    assert workloads.check_long(words, results[0]["answers"]) == []
