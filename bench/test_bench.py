"""Tests of the benchmark's tracer, checker and declared metrics.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dualpolsim  # noqa: E402
from dualpolsim import harness, link  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
from check import cdf_columns, check_cell, check_spacings  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, pattern_text, scenario_text  # noqa: E402

SMALL = Workload(
    name="small", why="test", users=3, trials_per_user=16, xpd_db=(3.0, 20.0),
    models=("i", "ii", "iii", "iv"), pattern=True,
)


@pytest.fixture
def scenario(tmp_path):
    pattern_path = tmp_path / "pattern.csv"
    pattern_path.write_text(pattern_text(5))
    return harness.parse_scenario(scenario_text(SMALL, 5, pattern_path))


def _bindings():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "dualpolsim" or name.startswith("dualpolsim.")
        for attr, obj in vars(module).items()
    }


def test_uninstall_restores_every_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # patched where defined and where imported by name
        assert link.evaluate_user is not before[("dualpolsim.link", "evaluate_user")]
        assert harness.evaluate_user is not before[("dualpolsim.harness", "evaluate_user")]
        assert dualpolsim.run is not before[("dualpolsim", "run")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_traced_run_gives_identical_cdfs(scenario):
    plain = harness.run(scenario)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run(scenario)
    finally:
        tracer.uninstall()
    stats = tracer.collect()

    assert plain.cdf_series.keys() == traced.cdf_series.keys()
    for key, series in plain.cdf_series.items():
        for a, b in zip(cdf_columns(series), cdf_columns(traced.cdf_series[key])):
            assert np.array_equal(a, b)
    tasks = len(scenario.users) * len(scenario.models) * len(scenario.xpd_sweep_db)
    assert stats["link.evaluate_user"].calls == tasks
    assert stats["harness.run"].calls == 1
    # self times of all spans partition the one root span
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(stats["harness.run"].total_s, rel=1e-9)
    assert stats["pattern.gain_at"].calls > 0


def test_tracer_counts_errors_and_reraises():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(dualpolsim.NoSolutionError):
            dualpolsim.equivalent_spacing(dualpolsim.SpacingQuery(
                0.0632, dualpolsim.AodDistribution.laplacian(np.radians(20.0),
                                                             np.radians(26.0))))
    finally:
        tracer.uninstall()
    assert tracer.collect()["correlation.equivalent_spacing"].errors == 1


def test_checker_accepts_a_run_and_rejects_a_broken_cdf(scenario):
    cell = dataclasses.replace(scenario, xpd_sweep_db=(20.0,))
    report = harness.run(cell)
    assert check_cell(report, cell, 20.0) == []
    assert check_spacings(report.table_rows) == []

    key = ("ii", 20.0)
    values, probs = cdf_columns(report.cdf_series[key])
    report.cdf_series[key] = list(zip(values[::-1], probs))
    assert any("ascending" in p for p in check_cell(report, cell, 20.0))
    report.cdf_series[key] = list(zip(values[1:], probs[1:]))
    assert any("samples" in p for p in check_cell(report, cell, 20.0))


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }


def test_hostspeed_kernel_keeps_gc_state_and_scale_uses_fastest():
    assert gc.isenabled()
    assert hostspeed.kernel_s() > 0
    assert gc.isenabled()
    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.scale([4 * ref, 2 * ref, 3 * ref]) == pytest.approx(0.5)
