"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance. Monte Carlo
criteria use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np

from dualpolsim.chanmodel import (
    PropagationGains,
    build_effective,
    draw_fading_batch,
    empirical_tx_correlation,
    kronecker_effective,
)
from dualpolsim.correlation import (
    AodDistribution,
    CorrelationMatrix,
    SpacingQuery,
    bessel_j0,
    dualpole_corr_exact,
    equivalent_spacing,
    matrix_sqrt_psd,
)
from dualpolsim.harness import GeneratorBounds, generate_users
from dualpolsim.link import LinkParams, UserChannel, evaluate_user, zf_weights

XPD_DB = (3.0, 5.0, 10.0, 20.0, 30.0)
TABLE_RHO = (0.9432, 0.8545, 0.5750, 0.1980, 0.0632)
TABLE_D_ISO = (0.076, 0.124, 0.220, 0.326, 0.364)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _mean_throughput(user, model, seed, n_trials, params=None):
    rng = np.random.default_rng(seed)
    return float(np.mean(
        evaluate_user(user, model, rng, n_trials, params).throughput
    ))


def test_criterion_1_table_rho_row():
    dualpole_corr_exact(2.0)  # warmup outside the timed section
    start = time.perf_counter()
    got = [dualpole_corr_exact(10.0 ** (db / 10.0)).coefficient.real for db in XPD_DB]
    elapsed = time.perf_counter() - start
    max_err = max(abs(g - r) for g, r in zip(got, TABLE_RHO))
    ok = max_err <= 5e-4 and elapsed < 1e-3
    _report(1, ok,
            f"rho row {[f'{g:.4f}' for g in got]}, max err {max_err:.2e} "
            f"(tol 5e-4), {elapsed * 1e6:.0f} us (limit 1 ms)")


def test_criterion_2_table_d_iso_row():
    iso = AodDistribution.isotropic()
    equivalent_spacing(SpacingQuery(0.5, iso))  # warmup
    start = time.perf_counter()
    got = [equivalent_spacing(SpacingQuery(rho, iso)) for rho in TABLE_RHO]
    # cross-check the Bessel core against direct quadrature of the
    # uniform-AoD expectation (midpoint rule on the cosine integral)
    xs = np.linspace(0.0, 20.0, 201)
    theta = (np.arange(4096) + 0.5) * math.pi / 4096
    quad = np.cos(np.outer(xs, np.sin(theta))).mean(axis=1)
    bessel_err = float(np.max(np.abs(bessel_j0(xs) - quad)))
    elapsed = time.perf_counter() - start
    max_err = max(abs(g - r) for g, r in zip(got, TABLE_D_ISO))
    ok = max_err <= 0.002 and bessel_err <= 1e-8 and elapsed < 0.1
    _report(2, ok,
            f"d_iso row {[f'{g:.3f}' for g in got]} (tol 0.002), "
            f"Bessel-vs-quadrature err {bessel_err:.1e} (tol 1e-8), "
            f"{elapsed * 1e3:.1f} ms (limit 100 ms)")


def test_criterion_3_kronecker_fidelity():
    start = time.perf_counter()
    n = 100_000
    chi = 10.0  # 10 dB
    target = dualpole_corr_exact(chi)

    eff_ii = kronecker_effective(
        draw_fading_batch(np.random.default_rng(301), n), np.ones(2), target
    )
    err_ii = float(np.max(np.abs(
        empirical_tx_correlation(eff_ii, normalize=False) - target.matrix
    )))

    eff_i = build_effective(
        PropagationGains.from_xpd(chi),
        draw_fading_batch(np.random.default_rng(302), n),
    )
    rho_i = float(np.abs(empirical_tx_correlation(eff_i)[0, 1]))
    expected = 2.0 * math.sqrt(chi) / (chi + 1.0)
    err_i = abs(rho_i - expected)

    elapsed = time.perf_counter() - start
    ok = err_ii <= 0.02 and err_i <= 0.02 and elapsed < 30.0
    _report(3, ok,
            f"model-ii empirical R err {err_ii:.4f} (tol 0.02), model-i "
            f"|rho| {rho_i:.4f} vs {expected:.4f} (tol 0.02), "
            f"{elapsed:.1f} s (limit 30 s)")


def test_criterion_4_model_agreement():
    chi = 10.0
    loss = 10.0 ** 8.5  # 85 dB: equal per-port gains, mid-cell SNR
    user = UserChannel(
        gains=PropagationGains.from_xpd(chi, path_loss=loss),
        xpd=(chi, chi),
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.0, math.radians(26.0)),
    )
    mean_i = _mean_throughput(user, "i", 401, 10_000)
    mean_ii = _mean_throughput(user, "ii", 401, 10_000)
    rel_gap = abs(mean_i - mean_ii) / mean_i
    ok = rel_gap < 0.05
    _report(4, ok,
            f"mean throughput i {mean_i / 1e6:.2f} Mbps vs ii "
            f"{mean_ii / 1e6:.2f} Mbps, relative gap {rel_gap * 100:.2f}% "
            f"(tol 5%)")


def test_criterion_5_throughput_monotone_in_xpd():
    start = time.perf_counter()
    users = generate_users(
        100, np.random.default_rng(np.random.SeedSequence([505, 0xA0D])),
        GeneratorBounds(),
    )
    params = LinkParams()
    means = []
    for xpd_db in XPD_DB:
        chi = 10.0 ** (xpd_db / 10.0)
        total = 0.0
        for ui, user in enumerate(users):
            loss = 10.0 ** (user.path_loss_db / 10.0)
            channel = UserChannel(
                gains=PropagationGains.from_xpd(chi, path_loss=loss),
                xpd=(chi, chi),
                omni_gain=1.0 / loss,
                aod=AodDistribution.laplacian(user.mean_aod, user.aod_spread),
            )
            # common per-user substream across XPD points
            rng = np.random.default_rng(np.random.SeedSequence([505, ui]))
            total += sum(
                evaluate_user(channel, "ii", rng, 1000, params).throughput
            )
        means.append(total / (len(users) * 1000))
    elapsed = time.perf_counter() - start

    nondecreasing = all(a <= b for a, b in zip(means, means[1:]))
    gap_10_20 = means[3] - means[2]
    gap_20_30 = means[4] - means[3]
    ok = nondecreasing and gap_20_30 < gap_10_20 and elapsed < 300.0
    _report(5, ok,
            f"means {[f'{m / 1e6:.2f}' for m in means]} Mbps over "
            f"{{3,5,10,20,30}} dB, gap(10->20) {gap_10_20 / 1e6:.2f} Mbps > "
            f"gap(20->30) {gap_20_30 / 1e6:.2f} Mbps, {elapsed:.0f} s "
            f"(limit 300 s)")


def test_criterion_6_zero_xpd_degeneracy():
    corr = dualpole_corr_exact(1.0)  # 0 dB
    matrix_ok = np.array_equal(corr.matrix, np.ones((2, 2)))
    eig_min = float(corr.eigenvalues()[0])

    chi = 1.0
    user = UserChannel(
        gains=PropagationGains.from_xpd(chi, path_loss=1e8),
        xpd=(chi, chi),
        omni_gain=1e-8,
        aod=AodDistribution.laplacian(0.0, math.radians(26.0)),
    )
    results = evaluate_user(user, "ii", np.random.default_rng(606), 1000)
    zero_share = np.mean(results.throughput == 0.0)

    ok = matrix_ok and eig_min < 1e-12 and zero_share == 1.0
    _report(6, ok,
            f"R = all-ones {matrix_ok}, min eigenvalue {eig_min:.2e} "
            f"(< 1e-12), zero-throughput share {zero_share * 100:.0f}% "
            f"(need 100%)")


def test_criterion_7_numerical_plumbing():
    rng = np.random.default_rng(707)
    sqrt_worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(0, 1) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        corr = CorrelationMatrix.from_coefficient(rho)
        root = matrix_sqrt_psd(corr)
        sqrt_worst = max(
            sqrt_worst, float(np.linalg.norm(root @ root - corr.matrix, "fro"))
        )

    zf_worst = 0.0
    checked = 0
    while checked < 1000:
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(h) > 1e6:
            continue
        w = zf_weights(h)
        zf_worst = max(
            zf_worst, float(np.linalg.norm(w.T @ h - np.eye(2), "fro"))
        )
        checked += 1

    ok = sqrt_worst <= 1e-12 and zf_worst <= 1e-10
    _report(7, ok,
            f"worst ||S.S - R||_F {sqrt_worst:.2e} (tol 1e-12), worst "
            f"||W.T H - I||_F {zf_worst:.2e} (tol 1e-10), 1000 instances each")


def test_criterion_8_laplacian_spacing_ordering():
    iso = AodDistribution.isotropic()
    lap = AodDistribution.laplacian(0.0, math.radians(26.0))
    pairs = []
    for rho in TABLE_RHO:
        d_iso = equivalent_spacing(SpacingQuery(rho, iso))
        d_lap = equivalent_spacing(SpacingQuery(rho, lap))
        pairs.append((d_iso, d_lap))
    ok = all(d_lap > d_iso for d_iso, d_lap in pairs)
    detail = ", ".join(f"{d_lap:.3f}>{d_iso:.3f}" for d_iso, d_lap in pairs)
    _report(8, ok, f"d_lap(26 deg) vs d_iso per table point: {detail}")
