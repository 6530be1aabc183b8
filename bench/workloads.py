"""Benchmark workloads and the seeded inputs they are built from.

A workload is a scenario family; the seed fixes its user population,
its Monte Carlo substreams and, for measured-pattern workloads, the
synthetic antenna pattern. The package only ever sees the scenario text
and the pattern file generated here.

The populations are smaller than the paper's reference sweep so that one
benchmark run repeats the whole sweep many times; per-call batch sizes
(trials per user) and the per-task mix are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    trials_per_user: int
    xpd_db: tuple[float, ...]
    models: tuple[str, ...]
    pattern: bool = False
    #: (XPD, model) pairs of the sweep that the seed commit cannot solve:
    #: model iii at 30 dB asks for a correlation no spacing reaches. They
    #: are attempted after every sweep, outside its timing, so a fix shows
    #: as a count and not as a slower sweep, and the share of failed cells
    #: is the same however many sweeps a run makes.
    probe: tuple[tuple[float, str], ...] = ()

    def timed_cells(self) -> list[tuple[float, tuple[str, ...]]]:
        """(XPD, models) of each timed ``harness.run`` call of one sweep."""
        cells = []
        for xpd_db in self.xpd_db:
            models = tuple(m for m in self.models if (xpd_db, m) not in self.probe)
            if models:
                cells.append((xpd_db, models))
        return cells

    def probe_cells(self) -> list[tuple[float, tuple[str, ...]]]:
        return [(xpd_db, (model,)) for xpd_db, model in self.probe]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-iid",
            why="reference sweep, models i-iv with 1000-trial batches: time goes to "
                "the link and channel layers, the spacing solve and the CSV report",
            users=20,
            trials_per_user=1000,
            xpd_db=(3.0, 5.0, 10.0, 20.0, 30.0),
            models=("i", "ii", "iii", "iv"),
            probe=((30.0, "iii"),),
        ),
        Workload(
            name="pattern-small-batch",
            why="measured pattern with 20-trial batches: per-task overhead and "
                "pattern interpolation dominate",
            users=500,
            trials_per_user=20,
            xpd_db=(3.0, 10.0, 30.0),
            models=("i", "ii"),
            pattern=True,
        ),
    )
}


def _join(values) -> str:
    return ", ".join(f"{v:g}" for v in values)


def scenario_text(workload: Workload, seed: int, pattern_path: Path | None) -> str:
    """Scenario file content for ``workload`` with ``seed`` as master seed."""
    lines = [
        "[generator]",
        f"count = {workload.users}",
        "distance_m = 3, 60",
        "sector_deg = 120",
        "aod_spread_deg = 26",
        "",
        "[sweep]",
        f"xpd_db = {_join(workload.xpd_db)}",
        f"models = {', '.join(workload.models)}",
        f"trials_per_user = {workload.trials_per_user}",
    ]
    if pattern_path is not None:
        lines += [f"pattern_file = {pattern_path}", "pattern_reference_deg = 0"]
    lines += ["", "[seed]", f"value = {seed}", ""]
    return "\n".join(lines)


def pattern_text(seed: int) -> str:
    """A 1-degree two-port sector pattern whose ports have unequal XPDs.

    Each port has a Gaussian-in-dB main lobe with a front-to-back floor
    and a cross-polar cut that sits a port-specific, azimuth-dependent
    XPD below it. Shapes, boresights and XPD offsets come from ``seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A7]))
    deg = np.arange(-180, 180)
    rows = [deg.astype(float)]
    for port_xpd_db in (rng.uniform(12.0, 18.0), rng.uniform(20.0, 26.0)):
        peak = rng.uniform(7.0, 9.0)
        beamwidth = rng.uniform(60.0, 80.0)
        boresight = rng.uniform(-10.0, 10.0)
        off = (deg - boresight + 180.0) % 360.0 - 180.0
        co = peak - np.minimum(12.0 * (off / beamwidth) ** 2, 25.0)
        co += rng.normal(0.0, 0.3, deg.size)
        xpd = port_xpd_db - 6.0 * (1.0 - np.cos(np.radians(off))) \
            + rng.normal(0.0, 0.5, deg.size)
        rows += [co, co - xpd]
    body = "\n".join(", ".join(f"{v:.4f}" for v in row) for row in zip(*rows))
    return (
        "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
        + body + "\n"
    )
