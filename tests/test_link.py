"""Tests for the zero-forcing receiver, throughput map and Monte Carlo loop."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualpolsim.chanmodel import (
    PropagationGains,
    build_effective,
    draw_fading_batch,
    kronecker_effective,
)
from dualpolsim.correlation import (
    AodDistribution,
    CorrelationMatrix,
    SpacingQuery,
    dualpole_corr_exact,
    equivalent_spacing,
    spatial_corr,
)
from dualpolsim.harness import _user_channel, parse_scenario, run
from dualpolsim.link import (
    MAX_CONDITION,
    MODELS,
    LinkParams,
    LinkResult,
    RankDeficientError,
    UserChannel,
    cdf,
    draw_gram,
    evaluate_user,
    zf_weights,
    _capped_throughput,
    _explicit_terms,
    _gram_terms,
    _sigma,
    _zf_sinr,
)

# 10^(-174/10) mW/Hz * 8.4e6 Hz
NOISE_POWER_MW = 3.3441002326493874e-11
# 8.4e6 * (1 - 0.2522) * (2 streams * 5 bit/s/Hz)
MAX_THROUGHPUT = 62_815_200.0
# one stream at the 5 bit/s/Hz cap plus one at exactly 1 bit/s/Hz
MIXED_THROUGHPUT = 37_689_120.0


def make_user(chi=10.0, path_loss_db=85.0, spread_deg=26.0):
    loss = 10.0 ** (path_loss_db / 10.0)
    return UserChannel(
        gains=PropagationGains.from_xpd(chi, path_loss=loss),
        xpd=(chi, chi),
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.0, math.radians(spread_deg)),
    )


def zf_explicit(h, noise):
    """Mask and per-stream SINRs, shape (n, 2), of the ZF kernel fed by explicit channels."""
    good, sinrs = _zf_sinr(*_explicit_terms(h), noise)
    return good, sinrs.T


def make_skewed_user():
    # unequal port gains and XPDs, and a mean AoD off broadside, so that
    # every model's mixing matrix has distinct entries and model iii's a
    # complex correlation
    loss = 10.0 ** 8.0
    alpha, beta = np.array([1.0, 0.6]) / loss, np.array([0.05, 0.12]) / loss
    return UserChannel(
        gains=PropagationGains(alpha=alpha, beta=beta),
        xpd=(alpha[0] / beta[1], alpha[1] / beta[0]),
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.4, math.radians(26.0)),
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
        good, sinrs = zf_explicit(h, noise)
    want_good, want_sinrs = _svd_inv_oracle(h, noise)
    assert np.array_equal(good, want_good)
    assert good.sum() == len(gauss) + 3
    assert_allclose(sinrs, want_sinrs, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# Gram-matrix path
# ---------------------------------------------------------------------------


def _gram_features(h):
    """(G_00, G_11, Re G_01) and |det h|^2 of explicit channels, G = h^H h."""
    gram = np.einsum("nri,nrj->nij", h.conj(), h)
    det = np.linalg.det(h)
    features = np.stack((gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1].real))
    return features, np.abs(det) ** 2


def _sigma_moduli(sig):
    """(Sigma_00, Sigma_11, |Sigma_01|, det Sigma) of a Hermitian 2x2 Sigma."""
    return (sig[0, 0].real, sig[1, 1].real, abs(sig[0, 1]),
            (sig[0, 0] * sig[1, 1]).real - abs(sig[0, 1]) ** 2)


def _cholesky(sigma):
    """U = [[sqrt(S_00), |S_01| / sqrt(S_00)], [0, sqrt(det S / S_00)]] from _sigma_moduli."""
    s00, _, s01, det_s = sigma
    return np.array([[math.sqrt(s00), s01 / math.sqrt(s00)],
                     [0.0, math.sqrt(det_s / s00)]], dtype=complex)


@pytest.mark.parametrize("model", MODELS)
def test_gram_path_matches_explicit_kernel(model):
    # the same fading seen through G = H_w^H H_w and |det H_w|^2 gives the
    # SINRs of the kernel applied to the explicit channel H_w @ U, U the
    # upper Cholesky factor of the model's Sigma = M^H M
    noise = LinkParams().noise_power()
    user = make_skewed_user()
    sigma = _sigma(user, model)
    assert_allclose(sigma, _sigma_moduli(_explicit_sigma(user, model)), rtol=1e-12)
    h = draw_fading_batch(np.random.default_rng(11), 2000)
    got = evaluate_user(user, model, _gram_features(h), 2000).sinr
    want_good, want_sinrs = zf_explicit(h @ _cholesky(sigma), noise)
    assert want_good.all() and np.all(got > 0.0)
    assert_allclose(got, want_sinrs, rtol=1e-12, atol=0.0)


def test_gram_terms_give_column_energies():
    # a complex M whose columns mix both fading columns: the Cholesky
    # factor U of its Sigma gives the column energies of H_w U and
    # D = |det H_w M|^2
    m = np.array([[0.8 + 0.3j, -0.2 + 0.5j], [0.1 - 0.7j, 1.1 + 0.0j]])
    sigma = _sigma_moduli(m.conj().T @ m)
    u = _cholesky(sigma)
    assert_allclose(_sigma_moduli(u.conj().T @ u), sigma, rtol=1e-12)
    h = draw_fading_batch(np.random.default_rng(12), 50)
    col, det_sq = _gram_terms(sigma, *_gram_features(h))
    assert col.shape == (2, 50) and col.dtype == float
    assert_allclose(col, np.sum(np.abs(h @ u) ** 2, axis=1).T, rtol=1e-12)
    assert_allclose(det_sq, np.abs(np.linalg.det(h @ m)) ** 2, rtol=1e-12)


def test_draw_gram_moments_and_determinism():
    n = 200_000
    features, det_w = draw_gram(np.random.default_rng(21), n)
    again, det_again = draw_gram(np.random.default_rng(21), n)
    assert np.array_equal(features, again) and np.array_equal(det_w, det_again)
    assert features.shape == (3, n) and det_w.shape == (n,)
    # the Bartlett construction from the same seed: r_11^2 ~ Gamma(2, 1),
    # r_22^2 ~ Exp(1) and r_12 ~ CN(0, 1), with G = R^H R
    rng = np.random.default_rng(21)
    exp = rng.standard_exponential((3, n))
    r12 = rng.standard_normal((2, n)) * math.sqrt(0.5)
    r11_sq = exp[0] + exp[1]
    g01 = np.sqrt(r11_sq) * (r12[0] + 1j * r12[1])
    assert_allclose(features, [r11_sq, r12[0] ** 2 + r12[1] ** 2 + exp[2], g01.real],
                    rtol=1e-15)
    assert_allclose(det_w, r11_sq * exp[2], rtol=1e-15)
    # G_00 ~ Gamma(2, 1) and G_11 = Exp + Exp: mean 2, variance 2; Re and Im
    # of G_01 = r_11 r_12: mean 0, variance 1; |det H_w|^2 = Gamma(2) Exp(1):
    # mean 2, variance E[r_11^4] E[r_22^4] - 4 = 6 * 2 - 4 = 8
    for values, mean, var in ((features[0], 2.0, 2.0), (features[1], 2.0, 2.0),
                              (features[2], 0.0, 1.0), (g01.imag, 0.0, 1.0),
                              (det_w, 2.0, 8.0)):
        assert abs(values.mean() - mean) < 4.0 * math.sqrt(var / n)
    # G is positive semidefinite with the drawn determinant
    g01_sq = features[2] ** 2 + g01.imag ** 2
    assert_allclose(features[0] * features[1] - g01_sq, det_w, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("model", ["i", "ii"])
def test_gram_draw_has_the_explicit_sinr_law(model):
    stats = pytest.importorskip("scipy.stats")
    n = 200_000
    user = make_user(chi=10.0, path_loss_db=85.0)
    noise = LinkParams().noise_power()
    got = evaluate_user(user, model, np.random.default_rng(31), n).sinr
    fading = draw_fading_batch(np.random.default_rng(32), n)
    if model == "i":
        h = build_effective(user.gains, fading)
    else:
        h = kronecker_effective(fading, user.gains.alpha, user.xpd_corr)
    _, want = zf_explicit(h, noise)
    for stream in range(2):
        assert stats.ks_2samp(got[:, stream], want[:, stream]).pvalue > 0.01


# ---------------------------------------------------------------------------
# SINR and throughput
# ---------------------------------------------------------------------------


def test_noise_power_value():
    assert LinkParams().noise_power() == pytest.approx(NOISE_POWER_MW, rel=1e-12)


def test_sinr_identity_weights():
    # the identity channel has identity ZF weights: SINR 1/p_n per stream
    _, values = zf_explicit(np.eye(2, dtype=complex)[None], LinkParams().noise_power())
    assert_allclose(values[0], [1.0 / NOISE_POWER_MW] * 2, rtol=1e-12)


def test_sinr_quadratic_weight_scaling():
    # halving H doubles the ZF weights and quarters the SINR
    noise = LinkParams().noise_power()
    h = np.array([[[1.5, 0.2], [0.1, 0.9]]], dtype=complex)
    _, base = zf_explicit(h, noise)
    _, halved = zf_explicit(0.5 * h, noise)
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
    # beyond +-300 dBm/Hz the noise power underflows to 0 or overflows
    for density in (math.nan, math.inf, -math.inf, -4000.0, 3070.0, 3100.0):
        with pytest.raises(ValueError, match="noise density"):
            LinkParams(noise_density_dbm_hz=density)
    for bandwidth, density in ((1e290, 300.0), (1e-300, -300.0)):
        with pytest.raises(ValueError, match="noise power"):
            LinkParams(effective_bandwidth=bandwidth, noise_density_dbm_hz=density)


def test_link_params_bound_the_noise_power_in_dbm():
    # at 1e-295 Hz and -174 dBm/Hz the noise power is 4e-313 mW, and a
    # full-rank trial's SINR at 30 dB path loss would overflow the float range
    with pytest.raises(ValueError, match="noise power must lie within"):
        LinkParams(effective_bandwidth=1e-295)
    for density in (-300.0, 300.0):
        LinkParams(effective_bandwidth=1.0, noise_density_dbm_hz=density)  # +-300 dBm
    # the lowest noise power accepted, under gains a pattern file can reach
    user = UserChannel(
        gains=PropagationGains(alpha=(1e30, 1e30), beta=(1e-30, 1e-30)),
        xpd=(1e60, 1e60),
        omni_gain=1e30,
        aod=AodDistribution.laplacian(0.0, math.radians(26.0)),
    )
    params = LinkParams(effective_bandwidth=1.0, noise_density_dbm_hz=-300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in ("i", "ii", "iv"):
            result = evaluate_user(user, model, np.random.default_rng(3), 200, params)
            assert np.all(np.isfinite(result.sinr)) and np.all(result.sinr > 0.0)


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
        gains=PropagationGains(alpha=np.full(2, 1 / loss), beta=np.zeros(2)),
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
    # correlated model shares the distribution of the correlation-based
    # omni model
    user = make_user(chi=10.0, path_loss_db=88.0)
    mean_iii = np.mean(evaluate_user(user, "iii", np.random.default_rng(15), 20_000).throughput)
    mean_iv = np.mean(evaluate_user(user, "iv", np.random.default_rng(16), 20_000).throughput)
    assert abs(mean_iii - mean_iv) / mean_iv < 0.03
    # model iii's Sigma is that of the omni gains and the spatial
    # correlation at the equivalent spacing
    assert_allclose(_sigma(user, "iii"), _sigma_moduli(_explicit_sigma(user, "iii")),
                    rtol=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_evaluate_user_on_a_draw_matches_its_generator(model):
    user = make_skewed_user()
    draw = draw_gram(np.random.default_rng(17), 300)
    on_draw = evaluate_user(user, model, draw, 300)
    on_rng = evaluate_user(user, model, np.random.default_rng(17), 300)
    assert on_draw.sinr.tobytes() == on_rng.sinr.tobytes()
    assert on_draw.throughput.tobytes() == on_rng.throughput.tobytes()
    with pytest.raises(ValueError, match="does not hold 299 trials"):
        evaluate_user(user, model, draw, 299)
    features, det_w = draw
    with pytest.raises(ValueError, match="read-only"):
        features[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        det_w[0] = 1.0


def test_evaluate_user_zero_sigma00_is_rank_deficient_without_warning():
    # alpha_0 = beta_1 = 0: column 0 of model i's channel carries no
    # power (Sigma_00 = 0), so every trial is rank deficient
    loss = 10.0 ** 8.0
    user = UserChannel(
        gains=PropagationGains(alpha=(0.0, 1.0 / loss), beta=(0.1 / loss, 0.0)),
        xpd=(1.0, 1.0),  # read by models ii-iv only
        omni_gain=1.0 / loss,
        aod=AodDistribution.laplacian(0.0, math.radians(26.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = evaluate_user(user, "i", np.random.default_rng(4), 500)
    assert np.all(result.sinr == 0.0)
    assert np.all(result.throughput == 0.0)


def test_evaluate_user_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        evaluate_user(make_user(), "v", np.random.default_rng(0), 10)
    with pytest.raises(ValueError):
        evaluate_user(make_user(), "ii", np.random.default_rng(0), 0)


def test_user_channel_validation():
    with pytest.raises(ValueError):
        make_user(chi=-2.0)


@pytest.mark.parametrize(
    "field, value",
    [("xpd", (0.0, 1.0)), ("xpd", (-1.0, 1.0)), ("xpd", (math.nan, 1.0)),
     ("omni_gain", 0.0), ("omni_gain", -1.0), ("omni_gain", math.nan)],
)
def test_user_channel_rejects_non_positive_xpd_and_omni_gain(field, value):
    # valid gains, so the channel's own checks are the ones that reject
    kwargs = dict(gains=PropagationGains.from_xpd(10.0, path_loss=1e8), xpd=(10.0, 10.0),
                  omni_gain=1e-8, aod=AodDistribution.laplacian(0.0, math.radians(26.0)))
    with pytest.raises(ValueError, match="positive"):
        UserChannel(**{**kwargs, field: value})


def test_link_result_fields():
    result = evaluate_user(make_user(), "i", np.random.default_rng(1), 3)
    assert isinstance(result, LinkResult)
    assert result.sinr.shape == (3, 2)
    assert result.throughput.shape == (3,)
    assert np.all(result.sinr >= 0)


# ---------------------------------------------------------------------------
# exact per-stream laws
# ---------------------------------------------------------------------------


def _explicit_sigma(user, model):
    """Sigma = M^H M of a model's mixing matrix M, read off the explicit channel constructions."""
    eye = np.eye(2, dtype=complex)[None]  # H_w = I gives H_w M = M
    if model == "i":
        m = build_effective(user.gains, eye)[0]
    else:
        alpha = user.gains.alpha if model == "ii" else np.full(2, user.omni_gain)
        corr = user.xpd_corr
        if model == "iii":
            spacing = equivalent_spacing(SpacingQuery(abs(corr.coefficient), user.aod))
            corr = CorrelationMatrix(spatial_corr(spacing, user.aod))
        m = kronecker_effective(eye, alpha, corr)[0]
    return m.conj().T @ m


def _ks_exp1(x):
    """Kolmogorov-Smirnov distance of a sample from Exp(1)."""
    x = np.sort(x)
    law = -np.expm1(-x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - law), np.max(law - np.arange(n) / n))


def _ks_2samp(x, y):
    """Two-sample Kolmogorov-Smirnov distance."""
    both = np.concatenate((x, y))
    fx = np.searchsorted(np.sort(x), both, side="right") / x.size
    fy = np.searchsorted(np.sort(y), both, side="right") / y.size
    return np.max(np.abs(fx - fy))


def _stream_throughput(sinr, params):
    """Capped throughput of each stream, shape (n, 2), from per-stream SINRs."""
    bw_term = params.effective_bandwidth * (1.0 - params.overhead_fraction)
    return bw_term * np.minimum(np.log2(1.0 + sinr), params.max_spectral_efficiency)


def _exact_stream_throughput(gamma, params):
    """Mean capped throughput of SINR gamma X, X ~ Exp(1), by the E_1 closed form."""
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma)
        cap = mpmath.mpf(2) ** params.max_spectral_efficiency
        se = mpmath.exp(1 / g) * (mpmath.e1(1 / g) - mpmath.e1(cap / g)) / mpmath.log(2)
        return params.effective_bandwidth * (1.0 - params.overhead_fraction) * float(se)


LAW_USERS = {
    "3dB": lambda: make_user(chi=10.0 ** 0.3),
    "10dB": lambda: make_user(chi=10.0),
    "30dB": lambda: make_user(chi=1000.0),
    "skewed": make_skewed_user,
}


@pytest.mark.parametrize("user_name", LAW_USERS)
@pytest.mark.parametrize("model", MODELS)
def test_zf_streams_follow_the_exact_law_of_sigma(model, user_name):
    # H = H_w M makes H^H H complex Wishart with covariance Sigma = M^H M, so
    # stream k's SINR is gamma_k X with X ~ Exp(1) and
    # gamma_k = det Sigma / (p_n Sigma_k'k'), k' the other stream
    n = 200_000
    params = LinkParams()
    user = LAW_USERS[user_name]()
    sigma = _explicit_sigma(user, model)
    det_sigma = (sigma[0, 0] * sigma[1, 1]).real - abs(sigma[0, 1]) ** 2
    seed = 700 + 10 * MODELS.index(model) + list(LAW_USERS).index(user_name)
    result = evaluate_user(user, model, np.random.default_rng(seed), n, params)
    per_stream = _stream_throughput(result.sinr, params)
    for k in range(2):
        gamma = det_sigma / (params.noise_power() * sigma[1 - k, 1 - k].real)
        assert _ks_exp1(result.sinr[:, k] / gamma) * math.sqrt(n) < 1.95, k
        tp = per_stream[:, k]
        z = (tp.mean() - _exact_stream_throughput(gamma, params)) / (tp.std() / math.sqrt(n))
        assert abs(z) < 5.0, (k, z)


def test_mixings_of_equal_sigma_moduli_have_one_law():
    # model i's M = [[sqrt(a0), sqrt(b0)], [sqrt(b1), sqrt(a1)]] and model
    # ii's diag(sqrt(a')) sqrt(R) with a' and R solved for the same Sigma_00,
    # Sigma_11 and |Sigma_01|: two unlike mixing matrices, one law
    n = 200_000
    phys = make_skewed_user()
    want = _explicit_sigma(phys, "i")
    s00, s11, s01 = want[0, 0].real, want[1, 1].real, abs(want[0, 1])
    total = s00 + s11
    rho = 2.0 * s01 / total
    s = math.sqrt(1.0 - rho * rho)
    chi = ((1.0 + s) / rho) ** 2  # 2 sqrt(chi) / (chi + 1) = rho
    alpha = (0.5 * (total + (s00 - s11) / s), 0.5 * (total - (s00 - s11) / s))
    corr = UserChannel(
        gains=PropagationGains(alpha=alpha, beta=(0.0, 0.0)),
        xpd=(chi, chi),
        omni_gain=phys.omni_gain,
        aod=phys.aod,
    )
    got = _explicit_sigma(corr, "ii")
    assert_allclose([got[0, 0].real, got[1, 1].real, abs(got[0, 1])], [s00, s11, s01],
                    rtol=1e-12)
    a = evaluate_user(phys, "i", np.random.default_rng(801), n)
    b = evaluate_user(corr, "ii", np.random.default_rng(802), n)
    for k in range(2):
        assert _ks_2samp(a.sinr[:, k], b.sinr[:, k]) * math.sqrt(n / 2) < 1.95, k
    spread = math.sqrt((a.throughput.var() + b.throughput.var()) / n)
    assert abs(a.throughput.mean() - b.throughput.mean()) / spread < 5.0


# ---------------------------------------------------------------------------
# exact mean throughput of a scenario run
# ---------------------------------------------------------------------------


# the CI's pattern-free users, plus an edge user whose stream SINR scales
# gamma_k fall below 1 at every XPD here
ORACLE_SCENARIO = """\
[users]
near = path_loss_db=72 mean_aod_deg=-15
far = path_loss_db=88 mean_aod_deg=30
edge = path_loss_db=112 mean_aod_deg=60

[sweep]
xpd_db = 3, 10, 20
models = i, ii, iii, iv
trials_per_user = 20000
"""


def _stream_gammas(channel, model, params):
    """gamma_k = det Sigma / (p_n Sigma_k'k') of both streams, k' the other stream."""
    s00, s11, _, det_sigma = _sigma(channel, model)
    return det_sigma / (params.noise_power() * s11), det_sigma / (params.noise_power() * s00)


def _exact_mean_throughput(channel, model, params):
    """Exact mean capped throughput of one user and model: both streams' E_1 closed forms."""
    return sum(_exact_stream_throughput(g, params) for g in _stream_gammas(channel, model, params))


def test_scenario_cdf_means_match_the_exact_mean_throughput():
    # each pooled CDF's sample mean against the exact mean of its users;
    # the edge user's gamma_k < 1 puts the boundary layer of the E_1 form,
    # at t = 0 of its integrand exp(-(2^t - 1) / gamma_k), into the check
    scenario = parse_scenario(ORACLE_SCENARIO)
    report, params = run(scenario), scenario.link
    for xpd_db in scenario.xpd_sweep_db:
        channels = [_user_channel(user, xpd_db, None) for user in scenario.users]
        for model in scenario.models:
            assert any(max(_stream_gammas(c, model, params)) < 1.0 for c in channels)
            exact = [_exact_mean_throughput(channel, model, params) for channel in channels]
            samples = report.cdf_series[(model, xpd_db)][:, 0]
            # users are equal strata, so the pooled mean's variance is the
            # within-user variance over the sample count: the pooled variance
            # less the spread of the exact user means
            se = math.sqrt((samples.var() - np.var(exact)) / samples.size)
            z = (samples.mean() - np.mean(exact)) / se
            assert abs(z) <= 6.0, (model, xpd_db, z)


def test_paired_model_i_minus_ii_matches_the_exact_difference():
    # models i and ii read one draw per user (common random numbers), so
    # their paired difference has a far smaller standard error than two means
    scenario = parse_scenario(ORACLE_SCENARIO)
    n, params, users = scenario.trials_per_user, scenario.link, len(scenario.users)
    draws = [draw_gram(np.random.default_rng([0, k]), n) for k in range(users)]
    for xpd_db in scenario.xpd_sweep_db:
        mean_d = exact_d = var_d = var_unpaired = 0.0
        for user, draw in zip(scenario.users, draws):
            channel = _user_channel(user, xpd_db, None)
            i, ii = (evaluate_user(channel, m, draw, n, params).throughput for m in ("i", "ii"))
            mean_d += (i - ii).mean()
            var_d += (i - ii).var()
            var_unpaired += i.var() + ii.var()
            exact_d += (_exact_mean_throughput(channel, "i", params)
                        - _exact_mean_throughput(channel, "ii", params))
        paired_se, unpaired_se = (math.sqrt(v / n) / users for v in (var_d, var_unpaired))
        z = (mean_d - exact_d) / users / paired_se
        assert abs(z) <= 6.0, (xpd_db, z)
        assert paired_se < unpaired_se, (xpd_db, paired_se, unpaired_se)


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


def test_cdf_is_bitwise_the_sorted_column_beside_i_over_n():
    rng = np.random.default_rng(13)
    samples = rng.choice([0.0, -0.0, 1.5, np.nan, -np.inf, 62.8e6], (7, 1001))
    samples[0] = rng.uniform(0.0, 1.0, 1001)
    expected = np.column_stack((np.sort(samples, axis=None),
                                np.arange(1, samples.size + 1) / samples.size))
    assert cdf(samples).tobytes() == expected.tobytes()


def test_cdf_pools_every_sample_whatever_the_shape():
    stack = np.random.default_rng(5).exponential(1.0, (3, 4))
    assert cdf(stack).tobytes() == cdf(stack.ravel()).tobytes()
    assert np.array_equal(cdf(5.0), [(5.0, 1.0)])


def test_cdf_rejects_empty():
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="cdf requires at least one sample"):
            cdf(empty)
