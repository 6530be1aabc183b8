"""Output checks that hold for any random stream.

Nothing here depends on the sampled values themselves, only on
properties every correct run has, so a change to the random substreams
still passes.
"""

from __future__ import annotations

import math

import numpy as np


def cdf_columns(series) -> tuple[np.ndarray, np.ndarray]:
    """(values, probabilities) of a CDF given as (value, probability) pairs."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"CDF of shape {arr.shape} is not a list of pairs")
    return arr[:, 0], arr[:, 1]


def check_cell(report, scenario, xpd_db: float) -> list[str]:
    """Problems found in the report of a one-XPD run; empty when it is correct.

    The Bessel check of the isotropic spacing is left to
    :func:`check_spacings`, which needs scipy.
    """
    problems = []
    expected_keys = {(m, xpd_db) for m in scenario.models}
    if set(report.cdf_series) != expected_keys:
        problems.append(f"CDF keys {sorted(report.cdf_series)} != {sorted(expected_keys)}")
    n = len(scenario.users) * scenario.trials_per_user
    cap = scenario.link.max_throughput()
    for key, series in report.cdf_series.items():
        values, probs = cdf_columns(series)
        where = f"cdf {key}"
        if values.size != n:
            problems.append(f"{where}: {values.size} samples, expected {n}")
            continue
        if np.any(np.diff(values) < 0):
            problems.append(f"{where}: values are not ascending")
        if values[0] < 0 or values[-1] > cap:
            problems.append(f"{where}: values leave [0, {cap}]")
        if probs[-1] != 1.0:
            problems.append(f"{where}: last probability is {probs[-1]!r}, not 1")
    if len(report.table_rows) != 1 or report.table_rows[0].xpd_db != xpd_db:
        problems.append("summary table does not hold exactly this XPD")
        return problems
    row = report.table_rows[0]
    chi = 10.0 ** (xpd_db / 10.0)
    rho = 2.0 * math.sqrt(chi) / (chi + 1.0)
    if not math.isclose(row.rho_exact, rho, rel_tol=1e-12):
        problems.append(f"rho_exact {row.rho_exact!r} != 2 sqrt(chi)/(chi+1) = {rho!r}")
    return problems


def zero_fraction(report) -> tuple[int, int]:
    """(zero-throughput samples, all samples) over the report's CDFs."""
    zeros = total = 0
    for series in report.cdf_series.values():
        values, _ = cdf_columns(series)
        zeros += int(np.count_nonzero(values == 0.0))
        total += values.size
    return zeros, total


def check_spacings(rows) -> list[str]:
    """|J0(2 pi d_iso)| must equal rho_exact within 1e-6 for every table row."""
    from scipy.special import j0

    return [
        f"xpd {r.xpd_db:g} dB: |J0(2 pi d_iso)| = {abs(j0(2 * math.pi * r.d_iso_lambda))!r}"
        f" != rho_exact {r.rho_exact!r}"
        for r in rows
        if abs(abs(j0(2.0 * math.pi * r.d_iso_lambda)) - r.rho_exact) > 1e-6
    ]
