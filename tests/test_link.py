"""Tests for the zero-forcing receiver, throughput map and Monte Carlo loop."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualpolsim.chanmodel import PropagationGains, draw_fading_batch, kronecker_effective
from dualpolsim.correlation import AodDistribution, dualpole_corr_exact
from dualpolsim.link import (
    MAX_CONDITION,
    LinkParams,
    LinkResult,
    RankDeficientError,
    UserChannel,
    cdf,
    evaluate_user,
    zf_weights,
    _capped_throughput,
    _zf_kernel,
)

# 10^(-174/10) mW/Hz * 8.4e6 Hz
NOISE_POWER_MW = 3.3441002326493874e-11
# 8.4e6 * (1 - 0.2522) * (2 streams * 5 bit/s/Hz)
MAX_THROUGHPUT = 62_815_200.0
# one stream at the 5 bit/s/Hz cap plus one at exactly 1 bit/s/Hz
MIXED_THROUGHPUT = 37_689_120.0


def make_user(chi=10.0, path_loss_db=85.0, taps=(1.0,), spread_deg=26.0):
    loss = 10.0 ** (path_loss_db / 10.0)
    return UserChannel(
        gains=PropagationGains.from_xpd(chi, path_loss=loss),
        xpd=(chi, chi),
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.0, math.radians(spread_deg)),
        tap_powers=taps,
    )


# ---------------------------------------------------------------------------
# zero forcing
# ---------------------------------------------------------------------------


def test_zf_identity_channel():
    assert_allclose(zf_weights(np.eye(2)), np.eye(2), atol=1e-15)


def test_zf_diagonal_channel():
    w = zf_weights(np.diag([2.0, 4.0]).astype(complex))
    assert_allclose(w.T, np.diag([0.5, 0.25]), atol=1e-15)


def test_zf_identical_columns_is_rank_deficient():
    h = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex)
    with pytest.raises(RankDeficientError):
        zf_weights(h)


def test_zf_exactness_on_random_channels():
    rng = np.random.default_rng(1001)
    checked = 0
    while checked < 1000:
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(h) > 1e6:
            continue
        w = zf_weights(h)
        assert np.linalg.norm(w.T @ h - np.eye(2), "fro") <= 1e-10
        checked += 1


def test_zf_rejects_wrong_shape():
    with pytest.raises(ValueError):
        zf_weights(np.eye(3))


def _svd_inv_oracle(h, noise):
    """Reference zero forcing of a stack: batched SVD rank test, then inverse."""
    good = np.zeros(len(h), dtype=bool)
    sinrs = np.zeros((len(h), 2))
    for k, m in enumerate(h):
        if not np.all(np.isfinite(m)):
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > s[0] / MAX_CONDITION:
            good[k] = True
            sinrs[k] = 1.0 / (np.sum(np.abs(np.linalg.inv(m)) ** 2, axis=1) * noise)
    return good, sinrs


def test_zf_kernel_matches_svd_and_inverse():
    # No batch holds a condition number near MAX_CONDITION: there both
    # methods resolve s_min only to about eps * s_max, i.e. to ~1e-4 of
    # the threshold, so which side a matrix lands on is rounding noise.
    rng = np.random.default_rng(2024)
    noise = LinkParams().noise_power()
    gauss = rng.standard_normal((600, 2, 2)) + 1j * rng.standard_normal((600, 2, 2))
    gauss = gauss[np.linalg.cond(gauss) < 1e4][:500]
    scales = 10.0 ** rng.uniform(-6, 0, (len(gauss), 1, 1))  # path-loss amplitudes
    u = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    v = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    rank_one = u[:, :, None] * v[:, None, :].conj()
    zero_db = kronecker_effective(
        draw_fading_batch(rng, 50), np.full(2, 1e-8), dualpole_corr_exact(1.0)
    )
    # diagonal channels with conditions 1e8-1e10 (full rank) and 1e14-1e16
    # (rank deficient): exact singular values and inverses for both methods
    graded = np.zeros((6, 2, 2), complex)
    graded[:, 0, 0] = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    graded[:, 1, 1] = 10.0 ** -np.array([8, 9, 10, 14, 15, 16]) * 1j
    non_finite = np.repeat(np.eye(2, dtype=complex)[None], 4, axis=0)
    non_finite[0, 0, 0] = np.nan
    non_finite[1, 1, 0] = np.inf
    non_finite[2, 0, 1] = complex(0.0, -np.inf)
    non_finite[3] = np.nan
    h = np.concatenate(
        [gauss * scales, graded, rank_one, zero_db, np.zeros((5, 2, 2), complex),
         non_finite]
    )

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # bad rows are masked out without a warning
        good, sinrs = _zf_kernel(h, noise)
    want_good, want_sinrs = _svd_inv_oracle(h, noise)
    assert np.array_equal(good, want_good)
    assert good.sum() == len(gauss) + 3
    assert_allclose(sinrs, want_sinrs, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# SINR and throughput
# ---------------------------------------------------------------------------


def test_noise_power_value():
    assert LinkParams().noise_power() == pytest.approx(NOISE_POWER_MW, rel=1e-12)


def test_sinr_identity_weights():
    # the identity channel has identity ZF weights: SINR 1/p_n per stream
    _, values = _zf_kernel(np.eye(2, dtype=complex)[None], LinkParams().noise_power())
    assert_allclose(values[0], [1.0 / NOISE_POWER_MW] * 2, rtol=1e-12)


def test_sinr_quadratic_weight_scaling():
    # halving H doubles the ZF weights and quarters the SINR
    noise = LinkParams().noise_power()
    h = np.array([[[1.5, 0.2], [0.1, 0.9]]], dtype=complex)
    _, base = _zf_kernel(h, noise)
    _, halved = _zf_kernel(0.5 * h, noise)
    assert_allclose(halved, base / 4.0, rtol=1e-12)


def test_throughput_saturated():
    params = LinkParams()
    tp = _capped_throughput(np.array([1e9, 1e9]), params)
    assert tp == pytest.approx(MAX_THROUGHPUT, rel=1e-12)
    assert tp == pytest.approx(params.max_throughput(), rel=1e-12)


def test_throughput_zero_sinr():
    assert _capped_throughput(np.zeros(2), LinkParams()) == 0.0


def test_throughput_one_saturated_one_unit():
    tp = _capped_throughput(np.array([1e9, 1.0]), LinkParams())  # log2(1+1) = 1
    assert tp == pytest.approx(MIXED_THROUGHPUT, rel=1e-12)


def test_throughput_never_exceeds_cap():
    rng = np.random.default_rng(7)
    params = LinkParams()
    tp = _capped_throughput(10.0 ** rng.uniform(-3, 12, (200, 2)), params)
    assert np.all(tp <= params.max_throughput() + 1e-6)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(effective_bandwidth=0.0)
    with pytest.raises(ValueError):
        LinkParams(overhead_fraction=1.0)
    with pytest.raises(ValueError):
        LinkParams(max_spectral_efficiency=-1.0)
    for density in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise density"):
            LinkParams(noise_density_dbm_hz=density)


# ---------------------------------------------------------------------------
# per-user evaluation
# ---------------------------------------------------------------------------


def test_evaluate_user_deterministic():
    user = make_user()
    a = evaluate_user(user, "ii", np.random.default_rng(42), 200)
    b = evaluate_user(user, "ii", np.random.default_rng(42), 200)
    assert np.array_equal(a.throughput, b.throughput)


def test_evaluate_user_infinite_xpd_matches_zero_cross():
    # clean polarization: the correlated model collapses onto the
    # physical one, so equal seeds give identical samples
    loss = 10.0 ** 8.5
    user = UserChannel(
        gains=PropagationGains(alpha=np.full(2, 1 / loss), beta=np.zeros(2),
                               path_loss=loss),
        xpd=(math.inf, math.inf),
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.0, 0.45),
    )
    a = evaluate_user(user, "i", np.random.default_rng(9), 500)
    b = evaluate_user(user, "ii", np.random.default_rng(9), 500)
    assert np.array_equal(a.throughput, b.throughput)


def test_evaluate_user_models_i_and_ii_agree_in_mean():
    # matched gains and a common seed: the correlated model tracks the
    # physical one within 5 percent at 1e4 trials
    user = make_user(chi=10.0, path_loss_db=85.0)
    mean_i = np.mean(evaluate_user(user, "i", np.random.default_rng(5), 10_000).throughput)
    mean_ii = np.mean(evaluate_user(user, "ii", np.random.default_rng(5), 10_000).throughput)
    assert abs(mean_i - mean_ii) / mean_i < 0.05


def test_evaluate_user_zero_xpd_records_zero_throughput():
    user = make_user(chi=1.0)
    result = evaluate_user(user, "ii", np.random.default_rng(3), 400)
    assert np.all(result.throughput == 0.0)
    assert np.all(result.sinr == 0.0)


def test_evaluate_user_model_iii_runs_and_matches_iv_in_mean():
    # with the spacing solved from the user's own AoD law, the spatially
    # correlated tapped model shares the distribution of the
    # correlation-based omni model
    user = make_user(chi=10.0, path_loss_db=88.0, taps=(0.6, 0.3, 0.1))
    mean_iii = np.mean(evaluate_user(user, "iii", np.random.default_rng(15), 20_000).throughput)
    mean_iv = np.mean(evaluate_user(user, "iv", np.random.default_rng(16), 20_000).throughput)
    assert abs(mean_iii - mean_iv) / mean_iv < 0.03


def test_evaluate_user_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        evaluate_user(make_user(), "v", np.random.default_rng(0), 10)
    with pytest.raises(ValueError):
        evaluate_user(make_user(), "ii", np.random.default_rng(0), 0)


def test_user_channel_validation():
    with pytest.raises(ValueError):
        make_user(taps=())
    with pytest.raises(ValueError):
        make_user(taps=(0.0,))
    with pytest.raises(ValueError):
        make_user(chi=-2.0)


def test_link_result_fields():
    result = evaluate_user(make_user(), "i", np.random.default_rng(1), 3)
    assert isinstance(result, LinkResult)
    assert result.sinr.shape == (3, 2)
    assert result.throughput.shape == (3,)
    assert np.all(result.sinr >= 0)


# ---------------------------------------------------------------------------
# empirical CDF
# ---------------------------------------------------------------------------


def test_cdf_single_sample():
    assert np.array_equal(cdf([5.0]), [(5.0, 1.0)])


def test_cdf_sorts_and_ranks():
    assert np.array_equal(cdf([1.0, 3.0, 2.0]), [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)])


def test_cdf_ends_at_one_and_is_monotone():
    rng = np.random.default_rng(12)
    series = cdf(rng.exponential(1.0, 1000))
    values = [v for v, _ in series]
    probs = [p for _, p in series]
    assert probs[-1] == 1.0
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_cdf_rejects_empty():
    with pytest.raises(ValueError):
        cdf([])
