"""braidconway benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every round runs in a fresh interpreter (``child.py``) that imports the
package from ``src`` and drives it through ``cli.main``,
``skein3.conway_via_skein`` and ``burau.conway_via_burau`` only.  Every
answer is checked (see ``workloads.py``); a wrong answer or an exception
counts as a failed word and does not stop the run.

``--trace 0`` runs rounds of the workload one after another, each in a
fresh interpreter, until ``--seconds`` is used up, and reports the
end-to-end metrics:

* ``word_ms.p50``, ``word_ms.p90``: median and nearest-rank 90th percentile
  of per-word latency (a scan answers all its words in one call, so each
  scan round gives one sample, its mean time per word);
* ``words_per_s``: words answered over the summed time of the rounds;
* ``setup_s``: median time from starting an interpreter to the package
  imported and ready for its first word;
* ``peak_rss_mb``: median over rounds of the largest ``ru_maxrss`` of the
  round's process and its children;
* ``ok_ratio``: words answered correctly over words attempted.

The host these figures come from may be a share of a machine whose other
tenants stretch every program's run time by up to half, in spells that last
minutes; a run's plain wall times then move with the neighbours' load more
than with the code.  So every child also times a fixed calibration loop
that does not touch the package (see ``child.py``), and every time above is
reported at a fixed reference speed: a round's times are multiplied by
``CALIBRATION_S`` over the median of the round's calibration loops
(``setup_s`` by ``CALIBRATION_S`` over the run's median).  A change to the
package moves the figures as before; a change in the host's load cancels
out.  The unscaled figures and the calibration median are printed above
the result line.

``--trace 1`` runs one untraced round and two traced rounds of the same
input, reports the per-layer metrics of the first traced round, and checks
that the exact counters repeat in the second.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check fails and 2
when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

#: Import-only interpreters started per run to time set-up, besides the
#: set-up of every round.
SETUP_PROBES = 10

CHILD_TIMEOUT_S = 170

#: Reference time of the calibration loop in ``child.py``, near its time on
#: an idle core of the 2-vCPU host the baseline was measured on.  Times are
#: reported at the speed at which the loop takes this long.
CALIBRATION_S = 0.0003

END_TO_END = {
    "words_per_s": "1/s",
    "word_ms.p50": "ms",
    "word_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "polyring.mul.calls": "count",
    "polyring.mul.term_products": "count",
    "polyring.div_exact.busy_s": "s",
    "polyring.div_exact.calls": "count",
    "polyring.laurent_to_z.busy_s": "s",
    "polyring.laurent_to_z.calls": "count",
    "burau.matmul.busy_s": "s",
    "burau.matmul.calls": "count",
    "burau.rep.busy_s": "s",
    "burau.rep.calls": "count",
    "burau.det.busy_s": "s",
    "burau.det.calls": "count",
    "burau.normalize.busy_s": "s",
    "burau.normalize.self_s": "s",
    "burau.normalize.calls": "count",
    "skein3.value.busy_s": "s",
    "skein3.value.calls": "count",
    "skein3.nodes_evaluated": "count",
    "skein3.cache_hit_ratio": "ratio",
    "braid.parse.busy_s": "s",
    "cli.encode.busy_s": "s",
    "cli.encode.calls": "count",
    "cli.pool.worker_cpu_s": "s",
    "cli.pool.parent_cpu_s": "s",
    "cli.pool.efficiency": "ratio",
    "trace.overhead_s": "s",
}


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Runner:
    """Starts child interpreters for one run and keeps their set-up times."""

    def __init__(self, work: Path):
        self.work = work
        self.jobs = 0
        self.setups: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, job: dict) -> dict:
        self.jobs += 1
        job_dir = self.work / f"job{self.jobs}"
        job_dir.mkdir()
        job = dict(job, dir=str(job_dir))
        job_path = job_dir / "job.json"
        job_path.write_text(json.dumps(job))
        t0 = time.perf_counter()
        with open(job_dir / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(job_path)],
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                cwd=ROOT,
                env=self.env,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline()
                ready = time.perf_counter()
                out = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            err.seek(0)
            if first.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(
                    f"benchmark child failed (exit {proc.returncode}): "
                    f"{err.read().strip()[-2000:]}"
                )
        self.setups.append(ready - t0)
        result = json.loads(out.strip().splitlines()[-1])
        result["dir"] = job_dir
        return result


def make_job(name: str, seed: int, round_: int) -> tuple[dict, list]:
    """The child job for one round of a workload, and the words it answers."""
    if name in workloads.SCANS:
        scan = workloads.SCANS[name]
        return {"kind": "scan", "max_len": scan.max_len, "jobs": scan.jobs}, []
    if name == "wide":
        words = workloads.wide_words(seed, round_)
    else:
        words = workloads.long_words(seed, round_)
    return {"kind": name, "words": words}, words


class Tally:
    """Words attempted and failed in one run, and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.repeats = True  # the exact counters repeated between traced runs

    def check(self, name: str, words: list, result: dict) -> int:
        """Check one round's answers; returns the number of words it answered."""
        if name in workloads.SCANS:
            attempted = workloads.SCANS[name].words
            why = workloads.check_scan(
                name, result["rc"], result["digest"], result["summary"]
            )
            failures = [] if why is None else [f"{why} {result['error'] or ''}".rstrip()]
            failed = attempted if failures else 0
        else:
            attempted = len(words)
            checker = workloads.check_wide if name == "wide" else workloads.check_long
            failures = checker(words, result["answers"])
            failed = len(failures)
            failures += result["errors"]
        self.attempted += attempted
        self.failed += failed
        self.messages += failures
        return attempted


def word_times_ms(name: str, result: dict, words: int, scale: float) -> list[float]:
    """Per-word latencies of one round, each multiplied by `scale`.  A scan
    answers all its words in one call, so a scan round contributes its
    mean time per word."""
    if name in workloads.SCANS:
        return [1000 * scale * result["wall"] / words]
    return [1000 * scale * t for t in result["latencies"]]


def run_untraced(name: str, seed: int, seconds: float, runner: Runner, tally: Tally):
    rounds = []
    t_start = time.perf_counter()
    while True:
        job, words = make_job(name, seed, len(rounds))
        t_round = time.perf_counter()
        result = runner.spawn(dict(job, trace=False))
        rounds.append((result, tally.check(name, words, result)))
        now = time.perf_counter()
        # Stop when one more round like the last would overrun --seconds.
        if now - t_start + now - t_round > seconds:
            break
    per_word, busy_s = [], 0.0
    for result, words in rounds:
        scale = CALIBRATION_S / statistics.median(result["calibration"])
        per_word += word_times_ms(name, result, words, scale)
        busy_s += scale * result["wall"]
    words_done = sum(words for _, words in rounds)
    calibration = [c for result, _ in rounds for c in result["calibration"]]
    run_scale = CALIBRATION_S / statistics.median(calibration)
    unscaled = [t for result, words in rounds for t in word_times_ms(name, result, words, 1.0)]
    print(f"{name}  calibration loop median = {1000 * CALIBRATION_S / run_scale:.4g} ms; unscaled: "
          f"words_per_s = {words_done / sum(r['wall'] for r, _ in rounds):.6g}, "
          f"word_ms.p50 = {statistics.median(unscaled):.6g}, "
          f"setup_s = {statistics.median(runner.setups):.6g}")
    metrics = {
        "words_per_s": words_done / busy_s,
        "word_ms.p50": statistics.median(per_word),
        "word_ms.p90": p90(per_word),
        "setup_s": run_scale * statistics.median(runner.setups),
        "peak_rss_mb": statistics.median(result["rss_kb"] / 1024 for result, _ in rounds),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {
        "words_per_s": words_done,
        "word_ms.p50": len(per_word),
        "word_ms.p90": len(per_word),
        "setup_s": len(runner.setups),
        "peak_rss_mb": len(rounds),
        "ok_ratio": tally.attempted,
    }
    return metrics, samples


def _span_files(result: dict) -> list[Path]:
    return sorted(result["dir"].glob("*.spans"))


def _exact(summary: dict) -> dict:
    return {
        "polyring.mul.term_products": summary["counts"]["mul.term_products"],
        "skein3.nodes_evaluated": summary["counts"]["skein.misses"],
        "burau.det.calls": summary["calls"].get("burau.det", 0),
        "cli.encode.calls": summary["calls"].get("cli.encode", 0),
    }


def run_traced(name: str, seed: int, runner: Runner, tally: Tally):
    job, words = make_job(name, seed, 0)
    plain = runner.spawn(dict(job, trace=False))
    traced = [runner.spawn(dict(job, trace=True)) for _ in range(2)]
    for result in [plain] + traced:
        tally.check(name, words, result)

    first, second = (tracing.summarize(_span_files(r)) for r in traced)
    jobs = workloads.SCANS[name].jobs if name in workloads.SCANS else 1
    for key, value in _exact(first).items():
        again = _exact(second)[key]
        # Pool workers keep their skein caches across tasks, and which
        # worker runs which task varies, so cache misses vary with it.
        if jobs > 1 and key == "skein3.nodes_evaluated":
            continue
        if value != again:
            tally.repeats = False
            tally.messages.append(f"{key} did not repeat: {value} then {again}")

    calls, busy, self_s, counts = (first[k] for k in ("calls", "busy", "self", "counts"))
    metrics = {
        "polyring.mul.calls": counts["mul.calls"],
        "polyring.mul.term_products": counts["mul.term_products"],
        "skein3.nodes_evaluated": counts["skein.misses"],
        "skein3.cache_hit_ratio": (
            1 - counts["skein.misses"] / counts["skein.lookups"]
            if counts["skein.lookups"] else 0.0
        ),
        "burau.normalize.self_s": self_s.get("burau.normalize", 0.0),
        "braid.parse.busy_s": busy.get("braid.parse", 0.0),
    }
    for span in ("polyring.div_exact", "polyring.laurent_to_z", "burau.matmul",
                 "burau.rep", "burau.det", "burau.normalize", "skein3.value",
                 "cli.encode"):
        metrics[f"{span}.busy_s"] = busy.get(span, 0.0)
        metrics[f"{span}.calls"] = calls.get(span, 0)
    metrics["cli.pool.worker_cpu_s"] = plain["cpu_children"]
    metrics["cli.pool.parent_cpu_s"] = plain["cpu_self"]
    metrics["cli.pool.efficiency"] = plain["cpu_children"] / (jobs * plain["wall"])
    metrics["trace.overhead_s"] = statistics.mean(r["wall"] for r in traced) - plain["wall"]
    return metrics, dict.fromkeys(metrics, 1)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tally = Tally()
    try:
        runner = Runner(work)
        runner.spawn({"kind": "probe"})  # compiles bytecode; not timed
        runner.setups.clear()
        if trace:
            metrics, samples = run_traced(name, seed, runner, tally)
            units = PER_LAYER
        else:
            for _ in range(SETUP_PROBES):
                runner.spawn({"kind": "probe"})
            metrics, samples = run_untraced(name, seed, seconds, runner, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in tally.messages[:20]:
        print(f"{name}: FAILED {line}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{name}  {key} = {metrics[key]:.6g} {unit}  (samples: {samples[key]})")
    return {
        "correct": tally.failed == 0 and tally.repeats,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidconway" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'braidconway'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
