"""dualpolsim benchmark: one workload, one seed, one measurement window.

Run from the repository root::

    python3 bench/run.py --workload ref-iid --seed 0 --seconds 60 --trace 0

The benchmark generates the workload's scenario (and pattern file) from
the seed, parses it once, then repeats the workload's sweep until the
window is used up. One sweep runs ``harness.run`` once per XPD value
(one *cell*) with all of the workload's models and writes the report of
every cell that succeeded. After the timed part of every sweep the
workload's probe cells run untimed (see ``workloads.py``). Every cell is
checked (see ``check.py``), and ``attempted``/``failed`` count every
cell run, probe cells included.

It prints a table for people and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones below (see
:func:`fastest_sweep` for how sweeps are combined), with every time
scaled to a reference host speed (see ``hostspeed.py``). With ``--trace 1``
untraced and traced sweeps alternate and the metrics are the per-layer
ones, means over the traced sweeps.
"""

from __future__ import annotations

import os

# one BLAS thread: the workloads are single-process closed loops
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
from check import check_cell, check_spacings, zero_fraction
from tracing import LAYERS, FunctionStats, Tracer
from workloads import WORKLOADS, pattern_text, scenario_text

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fewest fresh interpreters timed per run for ``setup_s``: one runs
#: before each untraced sweep, and more after the window if needed.
MIN_SETUP_SAMPLES = 9

SPACING = "correlation.equivalent_spacing"

#: name -> unit. Measured with tracing off; times are scaled by :func:`hostspeed.scale`.
END_TO_END = {
    "setup_s": "s",        # package import + parse_scenario (population draw included)
    "sweep_s": "s",        # harness.run wall time summed over the sweep's cells
    "report_s": "s",       # write_report wall time summed over the sweep's cells
    "wall_s": "s",         # setup_s + sweep_s + report_s
    "trials_per_s": "1/s",  # user-trials of succeeded cells / sweep_s
    "peak_rss_mib": "MiB",  # ru_maxrss of the benchmark process
}

#: name -> (unit, end-to-end metric and workload it is expected to move).
PER_LAYER = {
    "harness.parse_scenario.s": ("s", "setup_s on every workload"),
    "harness.run.self_s": ("s", "sweep_s on pattern-small-batch"),
    "harness.write_report.s": ("s", "report_s on ref-iid"),
    "harness.format_cdf_csv.s": ("s", "report_s on ref-iid"),
    "harness.report_bytes": ("bytes", "report_s on ref-iid"),
    "link.evaluate_user.calls": ("count", "trials_per_s on ref-iid and pattern-small-batch"),
    "link.evaluate_user.self_s": ("s", "trials_per_s on ref-iid and pattern-small-batch"),
    "link.cdf.s": ("s", "sweep_s on ref-iid"),
    "link.rank_deficient_frac": ("frac", "none: a pure speed-up leaves it unchanged"),
    "chanmodel.draw_fading_batch.calls": ("count", "trials_per_s on ref-iid"),
    "chanmodel.draw_fading_batch.s": ("s", "trials_per_s on ref-iid"),
    "chanmodel.build_effective.calls": ("count", "trials_per_s on ref-iid"),
    "chanmodel.kronecker_effective.calls": ("count", "trials_per_s on ref-iid"),
    "chanmodel.multitap_effective.calls": ("count", "sweep_s on ref-iid"),
    "correlation.equivalent_spacing.calls": ("count", "sweep_s on ref-iid"),
    "correlation.equivalent_spacing.s": ("s", "sweep_s on ref-iid"),
    "correlation.equivalent_spacing.failures": ("count", "cells.failed_frac on ref-iid"),
    "correlation.spatial_corr_matrix.calls": ("count", "sweep_s on ref-iid"),
    "correlation.matrix_sqrt_psd.calls": ("count", "sweep_s on ref-iid and pattern-small-batch"),
    "correlation.dualpole_corr_exact.calls": ("count", "sweep_s on ref-iid and pattern-small-batch"),
    "pattern.load_pattern.calls": ("count", "sweep_s on pattern-small-batch"),
    "pattern.scale_to_xpd.calls": ("count", "sweep_s on pattern-small-batch"),
    "pattern.gain_at.calls": ("count", "sweep_s on pattern-small-batch"),
    "harness.self_s": ("s", "sweep_s on pattern-small-batch"),
    "link.self_s": ("s", "trials_per_s on ref-iid"),
    "chanmodel.self_s": ("s", "trials_per_s on ref-iid"),
    "correlation.self_s": ("s", "sweep_s on ref-iid"),
    "pattern.self_s": ("s", "sweep_s on pattern-small-batch"),
    "cells.per_sweep": ("count", "none: fixed by the workload"),
    "cells.failed_frac": ("frac", "none until the unreachable-spacing cells are solved"),
    "traced.sweep_s": ("s", "none: tracing cost included"),
    "traced.report_s": ("s", "none: tracing cost included"),
    "trace_overhead_s": ("s", "none: cost of the tracer"),
    "unaccounted_s": ("s", "none: traced time outside every span"),
}


@dataclasses.dataclass
class Sweep:
    cell_s: dict[float, float]  # XPD -> harness.run wall time
    report_cell_s: dict[float, float]  # XPD -> write_report wall time
    trials: int
    cells: int  # probe cells included
    failed: int
    report_bytes: int

    @property
    def sweep_s(self) -> float:
        return sum(self.cell_s.values())

    @property
    def report_s(self) -> float:
        return sum(self.report_cell_s.values())


class Bench:
    """One benchmark run: a parsed scenario and the checks gathered so far."""

    def __init__(self, harness, numeric_errors, scenario, workload, work: Path):
        self.harness = harness
        self.numeric_errors = numeric_errors
        self.scenario = scenario
        self.workload = workload
        self.work = work
        self.problems: list[str] = []
        self.table_rows = []
        self.zeros = 0
        self.samples = 0
        self.kernel_s: list[float] = []  # hostspeed kernel, timed before each timed call

    def _cell(self, xpd_db: float, models: tuple[str, ...]):
        return dataclasses.replace(self.scenario, xpd_sweep_db=(xpd_db,), models=models)

    def _check(self, report, cell, xpd_db: float) -> None:
        self.problems += check_cell(report, cell, xpd_db)
        self.table_rows += report.table_rows
        zeros, total = zero_fraction(report)
        self.zeros += zeros
        self.samples += total

    def probe(self) -> tuple[int, int]:
        """Run the workload's probe cells, untimed; return (attempted, failed)."""
        failed = 0
        cells = self.workload.probe_cells()
        for xpd_db, models in cells:
            cell = self._cell(xpd_db, models)
            try:
                report = self.harness.run(cell)
            except self.numeric_errors:
                failed += 1
                continue
            self._check(report, cell, xpd_db)
        return len(cells), failed

    def sweep(self) -> Sweep:
        reports = []
        cell_s = {}
        failed = 0
        trials = 0
        for xpd_db, models in self.workload.timed_cells():
            cell = self._cell(xpd_db, models)
            self.kernel_s.append(hostspeed.kernel_s())
            start = perf_counter()
            try:
                report = self.harness.run(cell)
            except self.numeric_errors:
                report = None
            cell_s[xpd_db] = perf_counter() - start
            if report is None:
                failed += 1
            else:
                reports.append((xpd_db, cell, report))
                trials += len(cell.users) * cell.trials_per_user * len(models)

        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work))
        report_cell_s = {}
        written = []
        for xpd_db, _, report in reports:
            self.kernel_s.append(hostspeed.kernel_s())
            start = perf_counter()
            written += self.harness.write_report(report, out / f"xpd_{xpd_db:g}")
            report_cell_s[xpd_db] = perf_counter() - start
        report_bytes = 0
        for path in written:
            size = path.stat().st_size if path.is_file() else 0
            if size == 0:
                self.problems.append(f"report file {path.name} is missing or empty")
            report_bytes += size
        shutil.rmtree(out)

        for xpd_db, cell, report in reports:
            self._check(report, cell, xpd_db)
        return Sweep(
            cell_s=cell_s,
            report_cell_s=report_cell_s,
            trials=trials,
            cells=len(cell_s),
            failed=failed,
            report_bytes=report_bytes,
        )


def fastest_sweep(sweeps: list[Sweep], field: str) -> float:
    """Sum over the cells of each cell's fastest time among ``sweeps``.

    Where a host's cores are shared with other virtual machines, a CPU can
    run the same code up to 1.7 times slower for seconds at a time. A
    cell's fastest repetition is its uncontended time, and it varies far
    less between runs than a median does.
    """
    best: dict[float, float] = {}
    for sweep in sweeps:
        for xpd_db, seconds in getattr(sweep, field).items():
            best[xpd_db] = min(seconds, best.get(xpd_db, seconds))
    return sum(best.values())


def measure_setup(scenario_path: Path) -> float:
    """Seconds for import + parse_scenario in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "text = open(sys.argv[1]).read()\n"
        "start = time.perf_counter()\n"
        "from dualpolsim import harness\n"
        "harness.parse_scenario(text)\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(scenario_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


_FIELDS = {"calls": "calls", "s": "total_s", "self_s": "self_s", "failures": "errors"}


def _span_metric(name: str, parse: dict, stats: dict) -> float:
    """``<layer>.self_s`` or ``<layer>.<function>.<calls|s|self_s|failures>``."""
    head, _, field = name.rpartition(".")
    if head in LAYERS:
        return sum(st.self_s for fn, st in stats.items() if fn.startswith(head + "."))
    source = parse if head == "harness.parse_scenario" else stats
    return getattr(source.get(head, FunctionStats()), _FIELDS[field])


def layer_metrics(bench: Bench, traced: list[tuple[Sweep, dict, dict]],
                  untraced: list[Sweep]) -> dict[str, float]:
    """Per-layer metrics: means over the traced sweeps."""
    sweeps = untraced + [s for s, _, _ in traced]
    m = {
        "harness.report_bytes": _mean(s.report_bytes for s, _, _ in traced),
        "link.rank_deficient_frac": bench.zeros / bench.samples if bench.samples else 0.0,
        "cells.per_sweep": _mean(s.cells for s in sweeps),
        "cells.failed_frac": sum(s.failed for s in sweeps) / sum(s.cells for s in sweeps),
        "traced.sweep_s": _mean(s.sweep_s for s, _, _ in traced),
        "traced.report_s": _mean(s.report_s for s, _, _ in traced),
        "trace_overhead_s": (fastest_sweep([s for s, _, _ in traced], "cell_s")
                             - fastest_sweep(untraced, "cell_s")),
        "unaccounted_s": _mean(s.sweep_s + s.report_s - sum(st.self_s for st in t.values())
                               for s, _, t in traced),
    }
    for name in PER_LAYER.keys() - m.keys():
        m[name] = _mean(_span_metric(name, p, t) for _, p, t in traced)
    return m


def print_layer_table(traced: list[tuple[Sweep, dict, dict]]) -> None:
    """Per-function calls, time and self-time share, summed over traced sweeps."""
    totals: dict[str, FunctionStats] = {}
    for _, _, stats in traced:
        for name, st in stats.items():
            acc = totals.setdefault(name, FunctionStats())
            acc.calls += st.calls
            acc.total_s += st.total_s
            acc.self_s += st.self_s
            acc.errors += st.errors
    n = len(traced)
    timed = sum(s.sweep_s + s.report_s for s, _, _ in traced) / n
    print(f"traced sweep_s + report_s = {timed:.4f} s per sweep ({n} traced sweeps)")
    print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
    accounted = 0.0
    for layer in LAYERS:
        self_s = sum(st.self_s for name, st in totals.items()
                     if name.startswith(layer + ".")) / n
        accounted += self_s
        print(f"{layer:<12} {self_s:>10.4f} {100 * self_s / timed:>6.1f}%")
    print(f"{'unaccounted':<12} {timed - accounted:>10.4f} "
          f"{100 * (timed - accounted) / timed:>6.1f}%")
    print(f"{'function':<38} {'calls':>9} {'total_s':>9} {'self_s':>9} {'share':>7} errors")
    for name, st in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:<38} {st.calls / n:>9.0f} {st.total_s / n:>9.4f} "
              f"{st.self_s / n:>9.4f} {100 * st.self_s / n / timed:>6.1f}% "
              f"{st.errors / n:g}")


def run_benchmark(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    pattern_path = None
    if workload.pattern:
        pattern_path = work / "pattern.csv"
        pattern_path.write_text(pattern_text(args.seed))
    text = scenario_text(workload, args.seed, pattern_path)
    scenario_path = work / "scenario.ini"
    scenario_path.write_text(text)

    sys.path.insert(0, str(SRC))
    from dualpolsim import cli, harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: dualpolsim imported from {harness.__file__}, not {SRC}")
    scenario = harness.parse_scenario(text)
    bench = Bench(harness, cli._NUMERIC_ERRORS, scenario, workload, work)
    tracer = Tracer() if args.trace else None

    def probe(sweep: Sweep) -> Sweep:
        attempted, failed = bench.probe()
        sweep.cells += attempted
        sweep.failed += failed
        return sweep

    untraced: list[Sweep] = []
    traced: list[tuple[Sweep, dict, dict]] = []
    setup: list[float] = []
    # successive sweeps run on alternate CPUs, so that one contended CPU
    # cannot hide a cell's uncontended time for the whole run
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + args.seconds
    while True:
        start = perf_counter()
        os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
        if tracer is None:
            bench.kernel_s.append(hostspeed.kernel_s())
            setup.append(measure_setup(scenario_path))
        untraced.append(probe(bench.sweep()))
        if tracer is not None:
            tracer.install()
            try:
                harness.parse_scenario(text)
                parse_stats = tracer.collect()
                sweep = bench.sweep()
                stats = tracer.collect()
                probe(sweep)
                # the probe's unreachable spacings count with its sweep;
                # its time does not
                stats.setdefault(SPACING, FunctionStats()).errors += \
                    tracer.collect().get(SPACING, FunctionStats()).errors
                traced.append((sweep, parse_stats, stats))
            finally:
                tracer.uninstall()
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    while tracer is None and len(setup) < MIN_SETUP_SAMPLES:
        os.sched_setaffinity(0, {cpus[len(setup) % len(cpus)]})
        bench.kernel_s.append(hostspeed.kernel_s())
        setup.append(measure_setup(scenario_path))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.problems += check_spacings(bench.table_rows)

    sweeps = untraced + [s for s, _, _ in traced]
    attempted = sum(s.cells for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    print(f"workload {workload.name}  seed {args.seed}  sweeps {len(untraced)} untraced"
          f" + {len(traced)} traced  cells {attempted} (failed {failed}, probe included)")
    if workload.probe:
        print(f"probe cells {', '.join(f'model {m} at {x:g} dB' for x, m in workload.probe)}"
              f" run untimed after every sweep")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"checker: {'ok' if not bench.problems else f'{len(bench.problems)} problems'}")

    if tracer is None:
        speed = hostspeed.scale(bench.kernel_s)
        setup_s = min(setup) * speed
        sweep_s = fastest_sweep(untraced, "cell_s") * speed
        report_s = fastest_sweep(untraced, "report_cell_s") * speed
        values = {
            "setup_s": setup_s,
            "sweep_s": sweep_s,
            "report_s": report_s,
            "wall_s": setup_s + sweep_s + report_s,
            "trials_per_s": statistics.median(s.trials for s in untraced) / sweep_s,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"setup_s: fastest of {len(setup)} interpreters; sweep_s and report_s: "
              f"each cell's fastest of {len(untraced)} sweeps, summed; all times scaled by"
              f" {speed:.4f} (hostspeed kernel: fastest {min(bench.kernel_s):.5f} s of"
              f" {len(bench.kernel_s)}, reference {hostspeed.REFERENCE_KERNEL_S} s)")
        medians = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(s.sweep_s for s in untraced),
            "report_s": statistics.median(s.report_s for s in untraced),
        }
        print(f"{'metric':<14} {'value':>12}  unit  (unscaled median)")
        for name, unit in END_TO_END.items():
            extra = f"  ({medians[name]:.4f})" if name in medians else ""
            print(f"{name:<14} {values[name]:>12.4f}  {unit}{extra}")
    else:
        print_layer_table(traced)
        values = layer_metrics(bench, traced, untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        print(f"{'metric':<42} {'mean':>12} {'unit':<6} moves")
        for name, (unit, moves) in PER_LAYER.items():
            print(f"{name:<42} {values[name]:>12.5g} {unit:<6} {moves}")
    return {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; at least one sweep always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualpolsim" / "__init__.py").is_file():
        print(f"error: no dualpolsim sources under {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        result = run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
