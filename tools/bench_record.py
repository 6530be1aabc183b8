"""Record one point of the benchmark trajectory as JSON on stdout.

The two arguments are source trees of this repository: the parent
commit (a ``git archive`` of it) and the change. For each, in that
order, the record holds:

* the last line of its ``bench/run.py`` for both workloads at seed 0,
  untraced (``--trace 0``) and traced (``--trace 1``), each run for
  ``SECONDS`` so that records stay comparable;
* the README's reference scenario (the generator block, 100 users x
  1000 trials), timed through ``harness.run`` and ``write_report`` in a
  fresh interpreter on its ``src``, best of 5 each: models i, ii and iv
  at all of its XPDs, and models i-iv at 3-20 dB, since model iii finds
  no first-branch spacing for some users at 30 dB.

The environment is recorded once: Python, numpy, numpy's baseline and
active SIMD dispatch targets, the CPU count and the host-speed scale of
``bench/hostspeed.py`` (reference kernel time over the fastest of 30
kernel runs). Times are wall seconds, unscaled, except the bench lines,
which scale their own. Run from the repository root::

    python3 tools/bench_record.py PARENT_DIR . > BENCH_36.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ref-iid", "pattern-small-batch")
SECONDS = 6

#: Timed in a fresh interpreter with the tree's ``src`` first on the path.
REFERENCE = r"""
import dataclasses, json, re, tempfile
from pathlib import Path
from time import perf_counter
from dualpolsim import harness

readme = Path("README.md").read_text(encoding="utf-8")
base = harness.parse_scenario(re.search(r"^```ini\n(.*?)^```", readme, re.M | re.S).group(1))
cases = {
    "models i, ii, iv at " + ", ".join(f"{x:g}" for x in base.xpd_sweep_db) + " dB":
        dataclasses.replace(base, models=("i", "ii", "iv")),
    "models i-iv at 3, 5, 10, 20 dB":
        dataclasses.replace(base, models=("i", "ii", "iii", "iv"),
                            xpd_sweep_db=(3.0, 5.0, 10.0, 20.0)),
}
out = {}
with tempfile.TemporaryDirectory() as work:
    for name, scenario in cases.items():
        run_s, write_s = [], []
        for _ in range(5):
            start = perf_counter()
            report = harness.run(scenario)
            run_s.append(perf_counter() - start)
            start = perf_counter()
            harness.write_report(report, Path(work) / "out")
            write_s.append(perf_counter() - start)
        out[name] = {"users": len(scenario.users), "trials_per_user": scenario.trials_per_user,
                     "run_s": min(run_s), "write_report_s": min(write_s)}
print(json.dumps(out))
"""

ENVIRONMENT = r"""
import json, os, platform, sys
import numpy as np
from numpy._core import _multiarray_umath as umath
sys.path.insert(0, "bench")
import hostspeed
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "numpy_baseline": list(umath.__cpu_baseline__),
    "numpy_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    "npy_enable_cpu_features": os.environ.get("NPY_ENABLE_CPU_FEATURES"),
    "nproc": os.cpu_count(),
    "platform": platform.platform(),
    "hostspeed_scale": hostspeed.scale([hostspeed.kernel_s() for _ in range(30)]),
}))
"""


def _python(tree: Path, code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def _bench_line(tree: Path, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {"environment": _python(trees["change"], ENVIRONMENT),
              "bench_seconds": SECONDS, "trees": {}}
    for name, tree in trees.items():
        print(f"{name}: {tree}", file=sys.stderr)
        record["trees"][name] = {
            "bench": {workload: {f"trace_{trace}": _bench_line(tree, workload, trace)
                                 for trace in (0, 1)}
                      for workload in WORKLOADS},
            "reference_scenario": _python(tree, REFERENCE),
        }
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
