"""Measure the benchmark's baseline and its run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 301-310 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed and workload, workloads taking
turns, then one ``--trace 1`` run per workload on the first seed.  Prints,
for every end-to-end metric and workload, the median of the runs and their
spread: the distance between the first and third quartile as a share of
the median, beside the metric's bound from ``BENCHMARK.json``.  With
``--out`` it also writes the medians, quartiles and per-layer figures as
JSON, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="301-310", help="LO-HI, inclusive")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the per-layer runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    units: dict[str, str] = {}
    for seed in seeds:
        for workload in args.workloads:
            result = bench(workload, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: a correctness check failed")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"seed {seed} {workload}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    end_to_end: dict[str, dict] = {}
    print(f"\n{'workload':<11} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}")
    for workload, metrics in values.items():
        end_to_end[workload] = {}
        for name, xs in metrics.items():
            q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            spread = (q3 - q1) / median if median else 0.0
            end_to_end[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "unit": units[name], "runs": len(xs),
            }
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  > bound/3"
            print(f"{workload:<11} {name:<12} {median:>10.4g} {spread:>7.3f} "
                  f"{bounds[name]:>6.2f}{flag}")

    per_layer = {}
    if not args.no_trace:
        for workload in args.workloads:
            result = bench(workload, seeds[0], args.seconds, 1)
            if not result["correct"]:
                sys.exit(f"{workload} traced run: a check failed")
            per_layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}

    if args.out:
        doc = {
            "about": (f"Medians and quartiles of {len(seeds)} --trace 0 runs per workload "
                      f"(seeds {args.seeds}) and one --trace 1 run (seed {seeds[0]}), "
                      f"run_seconds {args.seconds}; times are at the calibration loop's "
                      f"reference speed (see run.py)."),
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "cpu": cpu_model(),
            },
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
