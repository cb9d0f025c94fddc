"""One timed round of a workload, in a fresh interpreter.

Usage: ``python3 child.py JOB.json`` with ``src`` on PYTHONPATH.

Prints ``ready`` as soon as the package is imported, so the parent can time
set-up, then runs the job and prints one JSON result line.  A fresh
interpreter per round means every round starts with cold caches, as every
``braidconway`` command does.

Jobs (``kind``):

* ``probe``: import only.
* ``scan``: one ``cli.main(["scan", ...])`` call writing to a file; the
  result carries the exit code, the summary and the sha256 of the output.
* ``wide``: ``cli.main(["conway", "-n", n, "--band", w, "--format",
  "json"])`` per word; the result carries each printed coefficient list.
* ``long``: ``conway_via_skein`` and ``conway_via_burau`` per word; the
  result carries both answers.

Every timed job also times a fixed pure-Python loop that does not touch
the package (``calibration``): before each word, or before, during and
after a scan.  The parent scales the job's times by it, so that a host
whose speed drifts with its other tenants' load gives steady figures.

With ``"trace": true`` the package's functions are wrapped first (see
``tracing.py``) and the spans are written to the job's directory.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from braidconway import burau, cli, skein3


#: Iterations of the calibration loop, about 0.3 ms on a 2020s x86 core:
#: short enough to finish within one scheduler slice when it wakes beside
#: busy pool workers.
CALIBRATION_LOOP = 5_000

#: Calibration loops run before and after a scan.
SCAN_CALIBRATION = 50

#: Seconds between calibration loops while an untraced scan runs.  A scan
#: is one call, so a timer signal interrupts it to run the loop, and the
#: loops' time is taken off the scan's.
SCAN_SAMPLE_S = 0.05


def _calibrate() -> float:
    """Seconds one run of the calibration loop takes."""
    t = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - t


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _scan(job: dict) -> dict:
    out = Path(job["dir"]) / "scan.jsonl"
    argv = ["scan", "--max-len", str(job["max_len"]), "--jobs", str(job["jobs"]),
            "--out", str(out)]
    captured = io.StringIO()
    error = None
    during: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: during.append(_calibrate()))
    interval = 0 if job["trace"] else SCAN_SAMPLE_S
    calibration = [_calibrate() for _ in range(SCAN_CALIBRATION)]
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        rc, error = -1, repr(exc)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0 - sum(during)
    calibration += during + [_calibrate() for _ in range(SCAN_CALIBRATION)]
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else ""
    out.unlink(missing_ok=True)
    return {"wall": wall, "rc": rc, "summary": captured.getvalue(),
            "digest": digest, "error": error, "calibration": calibration}


def _wide(job: dict) -> dict:
    answers, latencies, errors, calibration = [], [], [], []
    captured = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(captured):
        for n, text in job["words"]:
            calibration.append(_calibrate())
            start = captured.tell()
            t = clock()
            try:
                rc = cli.main(["conway", "-n", str(n), "--band", text, "--format", "json"])
            except (Exception, SystemExit) as exc:
                rc = repr(exc)
            latencies.append(clock() - t)
            if rc == 0:
                answers.append(json.loads(captured.getvalue()[start:]))
            else:
                answers.append(None)
                errors.append(f"n={n} '{text}': {rc}")
    return {"wall": sum(latencies), "latencies": latencies, "answers": answers,
            "errors": errors[:5], "calibration": calibration}


def _long(job: dict) -> dict:
    answers, latencies, errors, calibration = [], [], [], []
    clock = time.perf_counter
    for text in job["words"]:
        calibration.append(_calibrate())
        t = clock()
        try:
            word = skein3.parse_word(text)
            via_skein = skein3.conway_via_skein(word)
            via_matrix = burau.conway_via_burau(skein3.to_band_word(word))
        except Exception as exc:
            latencies.append(clock() - t)
            answers.append(None)
            errors.append(f"'{text}': {exc!r}")
            continue
        latencies.append(clock() - t)
        answers.append([list(via_skein.coeffs), list(via_matrix.coeffs)])
    return {"wall": sum(latencies), "latencies": latencies, "answers": answers,
            "errors": errors[:5], "calibration": calibration}


def main() -> None:
    print("ready", flush=True)
    job = json.loads(Path(sys.argv[1]).read_text())
    if job["kind"] == "probe":
        print(json.dumps({}))
        return
    if job["trace"]:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec, Path(job["dir"]))
    self0 = _cpu(resource.RUSAGE_SELF)
    children0 = _cpu(resource.RUSAGE_CHILDREN)
    result = {"scan": _scan, "wide": _wide, "long": _long}[job["kind"]](job)
    result["cpu_self"] = _cpu(resource.RUSAGE_SELF) - self0
    result["cpu_children"] = _cpu(resource.RUSAGE_CHILDREN) - children0
    result["rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if job["trace"]:
        rec.dump(Path(job["dir"]) / "main.spans")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
