"""Tests for fading generation and effective channel construction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualpolsim.chanmodel import (
    PropagationGains,
    build_effective,
    draw_fading_batch,
    empirical_tx_correlation,
    kronecker_effective,
    multitap_effective,
)
from dualpolsim.correlation import (
    AodDistribution,
    CorrelationMatrix,
    InvalidCorrelationError,
    spatial_corr_matrix,
)

# chi-square critical value at the 1 percent level, 15 degrees of freedom
CHI2_CRIT_16BINS_1PCT = 30.57791416689249


def one_draw(seed):
    return draw_fading_batch(np.random.default_rng(seed), 1)[0]


# ---------------------------------------------------------------------------
# fading draws
# ---------------------------------------------------------------------------


def test_draw_fading_deterministic():
    a = draw_fading_batch(np.random.default_rng(1234), 1)
    b = draw_fading_batch(np.random.default_rng(1234), 1)
    c = draw_fading_batch(np.random.default_rng(1235), 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (1, 2, 2)


def test_draw_fading_batch_deterministic_and_shaped():
    a = draw_fading_batch(np.random.default_rng(77), 1000)
    b = draw_fading_batch(np.random.default_rng(77), 1000)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 2, 2)
    assert a.dtype == complex


def test_draw_fading_moments():
    # law-of-large-numbers bounds at ~6 sigma for n = 1e5
    draws = draw_fading_batch(np.random.default_rng(2024), 100_000)
    mean = draws.mean(axis=0)
    var = np.mean(np.abs(draws - mean) ** 2, axis=0)
    assert np.all(np.abs(mean) <= 0.02)
    assert np.all((var >= 0.98) & (var <= 1.02))


def test_gaussian_phase_uniformity_too():
    # the complex entries themselves should have uniform argument
    draws = draw_fading_batch(np.random.default_rng(3), 100_000)
    angles = np.angle(draws.ravel())
    counts, _ = np.histogram(angles, bins=16, range=(-math.pi, math.pi))
    expected = angles.size / 16
    assert np.sum((counts - expected) ** 2 / expected) < CHI2_CRIT_16BINS_1PCT


# ---------------------------------------------------------------------------
# propagation gains
# ---------------------------------------------------------------------------


def test_propagation_gains_validation():
    with pytest.raises(ValueError):
        PropagationGains(alpha=np.array([-1.0, 1.0]), beta=np.zeros(2))
    with pytest.raises(ValueError):
        PropagationGains(alpha=np.zeros(2), beta=np.zeros(2))
    with pytest.raises(ValueError):
        PropagationGains(alpha=np.ones(3), beta=np.ones(3))
    with pytest.raises(ValueError):
        PropagationGains(alpha=np.ones(2), beta=np.ones(2), path_loss=0.5)


def test_propagation_gains_from_xpd_roundtrip():
    gains = PropagationGains.from_xpd(10.0, path_loss=100.0)
    assert_allclose(gains.alpha, [0.01, 0.01])
    assert_allclose(gains.beta, [0.001, 0.001])
    assert gains.xpd() == pytest.approx((10.0, 10.0))


def test_propagation_gains_xpd_indexing():
    # port 1's XPD compares its copolar gain with the leakage arriving
    # through polarization 2
    gains = PropagationGains(alpha=np.array([1.0, 0.5]), beta=np.array([0.25, 0.125]))
    chi1, chi2 = gains.xpd()
    assert chi1 == pytest.approx(1.0 / 0.125)
    assert chi2 == pytest.approx(0.5 / 0.25)
    # each port is infinite only when its own leakage vanishes
    gains = PropagationGains(alpha=np.array([1.0, 1.0]), beta=np.array([0.0, 0.5]))
    assert gains.xpd() == (2.0, math.inf)


# ---------------------------------------------------------------------------
# effective channel
# ---------------------------------------------------------------------------


def test_build_effective_zero_cross_gain():
    gains = PropagationGains(alpha=np.array([1.0, 1.0]), beta=np.zeros(2))
    fading = one_draw(5)
    assert np.array_equal(build_effective(gains, fading), fading)


def test_build_effective_direct_substitution():
    # alpha = beta and all-ones fading: every effective entry is 2*sqrt(alpha)
    alpha = 0.49
    gains = PropagationGains(alpha=np.full(2, alpha), beta=np.full(2, alpha))
    eff = build_effective(gains, np.ones((2, 2), dtype=complex))
    assert_allclose(eff, np.full((2, 2), 2.0 * math.sqrt(alpha)), rtol=1e-15)


def test_build_effective_cross_uses_opposite_port():
    gains = PropagationGains(alpha=np.array([1.0, 4.0]), beta=np.array([9.0, 16.0]))
    # every fading entry is its own power of ten and every gain root a
    # distinct digit, so each sum below splits uniquely into its parts
    h = np.array([[1.0, 10.0], [100.0, 1000.0]], dtype=complex)
    eff = build_effective(gains, h)
    # copolar [[1, 20], [100, 2000]]: column t carries sqrt(alpha[t]) * h[:, t];
    # cross-polar [[40, 3], [4000, 300]]: column 1 carries sqrt(beta[1]) * h[:, 1],
    # column 2 sqrt(beta[0]) * h[:, 0]
    assert_allclose(eff, [[41.0, 23.0], [4100.0, 2300.0]], rtol=1e-15)


def test_build_effective_column_powers():
    # E|h_eff[r, t]|^2 = alpha[t] + beta[t'], asymmetric gains to pin indexing
    gains = PropagationGains(alpha=np.array([1.0, 0.5]), beta=np.array([0.25, 0.125]))
    draws = draw_fading_batch(np.random.default_rng(11), 100_000)
    eff = build_effective(gains, draws)
    power = np.mean(np.abs(eff) ** 2, axis=0)
    expected = np.array([[1.125, 0.75], [1.125, 0.75]])
    assert np.all(np.abs(power / expected - 1.0) < 0.03)


def test_effective_is_exactly_co_plus_cross():
    alpha, beta = np.array([0.3, 0.7]), np.array([0.02, 0.05])
    fading = one_draw(8)
    co = build_effective(PropagationGains(alpha=alpha, beta=np.zeros(2)), fading)
    cross = build_effective(PropagationGains(alpha=np.zeros(2), beta=beta), fading)
    eff = build_effective(PropagationGains(alpha=alpha, beta=beta), fading)
    assert np.array_equal(eff, co + cross)


def test_kronecker_identity_correlation():
    fading = one_draw(21)
    alpha = np.array([2.0, 3.0])
    eff = kronecker_effective(fading, alpha, CorrelationMatrix.from_coefficient(0.0))
    assert_allclose(eff, fading * np.sqrt(alpha), atol=1e-15)


def test_kronecker_full_correlation_is_rank_one():
    eff = kronecker_effective(
        one_draw(22), np.ones(2), CorrelationMatrix.from_coefficient(1.0)
    )
    assert_allclose(eff[:, 0], eff[:, 1], rtol=1e-12)
    s = np.linalg.svd(eff, compute_uv=False)
    assert s[1] < 1e-12 * s[0]


@pytest.mark.parametrize(
    "construct",
    [
        kronecker_effective,
        lambda h, alpha, corr: multitap_effective([(1.0, h, corr)], alpha),
    ],
    ids=["kronecker", "multitap-single-tap"],
)
def test_kronecker_empirical_transmit_correlation(construct):
    # a complex rho pins the convention: sqrt(R).T would impose conj(R),
    # whose off-diagonal is off by 2 * 0.644 here
    lap = AodDistribution.laplacian(math.radians(30.0), math.radians(26.0))
    target = spatial_corr_matrix(0.3, lap)  # rho = 0.511 - 0.644j
    assert abs(target.coefficient.imag) > 0.5
    draws = draw_fading_batch(np.random.default_rng(31), 100_000)
    eff = construct(draws, np.ones(2), target)
    est = empirical_tx_correlation(eff, normalize=False)
    assert np.max(np.abs(est - target.matrix)) < 0.02


def test_kronecker_rejects_invalid_correlation():
    bad = CorrelationMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
    with pytest.raises(InvalidCorrelationError):
        kronecker_effective(one_draw(0), np.ones(2), bad)


def test_build_effective_empirical_correlation_formula():
    # equal per-port XPD chi with unit path loss converges to 2 sqrt(chi)/(chi+1)
    chi = 10.0
    gains = PropagationGains.from_xpd(chi)
    draws = draw_fading_batch(np.random.default_rng(41), 100_000)
    eff = build_effective(gains, draws)
    est = empirical_tx_correlation(eff)
    expected = 2.0 * math.sqrt(chi) / (chi + 1.0)
    assert abs(abs(est[0, 1]) - expected) < 0.02


# ---------------------------------------------------------------------------
# multitap
# ---------------------------------------------------------------------------


def test_multitap_single_tap_identity():
    identity = CorrelationMatrix.from_coefficient(0.0)
    fading = one_draw(51)
    alpha = np.array([1.5, 1.5])
    eff = multitap_effective([(0.7, fading, identity)], alpha)
    assert_allclose(eff, fading * np.sqrt(alpha), atol=1e-15)


def test_multitap_power_preservation():
    # two equal-power independent taps keep the average Frobenius power
    identity = CorrelationMatrix.from_coefficient(0.0)
    alpha = np.ones(2)
    rng = np.random.default_rng(61)
    one = draw_fading_batch(rng, 100_000)
    single = multitap_effective([(1.0, one, identity)], alpha)
    t1 = draw_fading_batch(rng, 100_000)
    t2 = draw_fading_batch(rng, 100_000)
    double = multitap_effective([(0.5, t1, identity), (0.5, t2, identity)], alpha)
    p_single = np.mean(np.sum(np.abs(single) ** 2, axis=(1, 2)))
    p_double = np.mean(np.sum(np.abs(double) ** 2, axis=(1, 2)))
    assert abs(p_double / p_single - 1.0) < 0.03


def test_multitap_linearity_in_each_tap():
    corr = CorrelationMatrix.from_coefficient(0.3)
    alpha = np.array([1.0, 2.0])
    rng = np.random.default_rng(71)
    f1, f2 = draw_fading_batch(rng, 2)
    base = multitap_effective([(2.0, f1, corr), (1.0, f2, corr)], alpha)
    bumped = multitap_effective([(2.0, 2.0 * f1, corr), (1.0, f2, corr)], alpha)
    contribution = math.sqrt(2.0 / 3.0) * kronecker_effective(f1, alpha, corr)
    assert_allclose(bumped, base + contribution, rtol=1e-12)


def test_multitap_normalizes_tap_weights():
    # scaling all powers by a constant leaves the output unchanged
    corr = CorrelationMatrix.from_coefficient(0.2)
    rng = np.random.default_rng(81)
    f1, f2 = draw_fading_batch(rng, 2)
    a = multitap_effective([(0.6, f1, corr), (0.3, f2, corr)], np.ones(2))
    b = multitap_effective([(6.0, f1, corr), (3.0, f2, corr)], np.ones(2))
    assert_allclose(a, b, rtol=1e-12)


def test_multitap_errors():
    with pytest.raises(ValueError, match="at least one tap"):
        multitap_effective([], np.ones(2))
    identity = CorrelationMatrix.from_coefficient(0.0)
    fading = one_draw(0)
    with pytest.raises(ValueError, match="not all be zero"):
        multitap_effective([(0.0, fading, identity)], np.ones(2))
    with pytest.raises(ValueError, match=">= 0"):
        multitap_effective([(-0.5, fading, identity), (1.0, fading, identity)], np.ones(2))


# ---------------------------------------------------------------------------
# mixing kernel against explicit matrix products
# ---------------------------------------------------------------------------

BATCH_SHAPES = [(7,), (3, 4), ()]


def _complex_stack(rng, shape):
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


def _sqrt_ref(corr):
    # principal root through an eigendecomposition of R itself, not conj(R)
    w, v = np.linalg.eigh(corr.matrix)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_build_effective_matches_matmul(shape):
    h = _complex_stack(np.random.default_rng(101), shape)
    alpha, beta = np.array([0.8, 0.3]), np.array([0.05, 0.2])
    # column t: sqrt(alpha[t]) h[:, t] + sqrt(beta[t']) h[:, t']
    m = np.sqrt([[alpha[0], beta[0]], [beta[1], alpha[1]]])
    eff = build_effective(PropagationGains(alpha=alpha, beta=beta), h)
    assert eff.shape == h.shape
    assert_allclose(eff, np.matmul(h, m), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_kronecker_effective_matches_matmul(shape):
    h = _complex_stack(np.random.default_rng(102), shape)
    alpha = np.array([0.6, 1.7])
    corr = CorrelationMatrix.from_coefficient(0.4 - 0.5j)
    want = np.einsum("...rk,kc->...rc", h * np.sqrt(alpha), _sqrt_ref(corr))
    eff = kronecker_effective(h, alpha, corr)
    assert eff.shape == h.shape
    assert_allclose(eff, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_multitap_effective_matches_matmul(shape):
    rng = np.random.default_rng(103)
    alpha = np.array([1.3, 0.4])
    taps = [
        (0.5, _complex_stack(rng, shape), CorrelationMatrix.from_coefficient(0.7j)),
        (0.3, _complex_stack(rng, shape), CorrelationMatrix.from_coefficient(-0.2 + 0.6j)),
        (0.2, _complex_stack(rng, shape), CorrelationMatrix.from_coefficient(0.0)),
    ]
    want = sum(
        math.sqrt(p) * np.matmul(h * np.sqrt(alpha), _sqrt_ref(corr)) for p, h, corr in taps
    )
    assert_allclose(multitap_effective(taps, alpha), want, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# estimator plumbing
# ---------------------------------------------------------------------------


def test_empirical_tx_correlation_validates_shape():
    with pytest.raises(ValueError):
        empirical_tx_correlation(np.ones((2, 2)))


def test_empirical_tx_correlation_normalized_diagonal():
    draws = draw_fading_batch(np.random.default_rng(90), 2000)
    est = empirical_tx_correlation(draws)
    assert_allclose(np.diagonal(est).real, [1.0, 1.0], rtol=1e-12)
