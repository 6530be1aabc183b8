"""Run the benchmark several times per workload and report run-to-run spread.

Run from the repository root::

    python3 bench/spread.py                       # 10 seeds on every workload
    python3 bench/spread.py --workload ref-iid --runs 5
    python3 bench/spread.py --out bench/baseline.json

Each run uses its own seed. For every end-to-end metric the tool prints
the median of the runs and the distance between their first and third
quartiles as a share of that median, next to the metric's bound from
``BENCHMARK.json``. With ``--out`` it also makes one traced run per
workload and writes every value, the environment and the per-layer
predictions to a JSON file.
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

import numpy as np

from run import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{done.stderr}")
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": metric["bound"], "unit": metric["unit"], "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeat to pick several; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every value to this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to give quartiles")

    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg_at_start": os.getloadavg(),
            "run_seconds": args.seconds,
        },
        "workloads": {},
    }
    steady = True
    for name in args.workload or list(WORKLOADS):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [bench(name, seed, args.seconds, 0) for seed in seeds]
        summary = summarize(runs)
        print(f"{name}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"cells attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for metric, s in summary.items():
            flag = ""
            if s["spread"] > s["bound"] / 3:
                flag = "  OVER BOUND" if s["spread"] > s["bound"] else "  above bound/3"
            steady &= not flag
            print(f"  {metric:<14} median {s['median']:>12.4f} {s['unit']:<4} "
                  f"spread {100 * s['spread']:5.1f}%  bound {100 * s['bound']:4.0f}%{flag}")
        entry = {
            "seeds": list(seeds),
            "cells_attempted": [r["attempted"] for r in runs],
            "cells_failed": [r["failed"] for r in runs],
            "end_to_end": summary,
        }
        if args.out:
            traced = bench(name, args.first_seed, args.seconds, 1)
            entry["traced_seed"] = args.first_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        record["predictions"] = {name: moves for name, (_, moves) in PER_LAYER.items()}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
