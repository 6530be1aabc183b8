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
)
from dualpolsim.correlation import (
    AodDistribution,
    CorrelationMatrix,
    InvalidCorrelationError,
    spatial_corr,
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


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("alpha, beta, message", [
    ([_NAN, 1.0], [0.0, 0.0], "gains must be finite"),
    ([1.0, 1.0], [_INF, 0.0], "gains must be finite"),
    ([1.0, 1.0], [0.0, -_INF], "gains must be finite"),
    ([-1.0, 1.0], [0.0, 0.0], "gains must be >= 0"),
    ([1.0, 1.0], [0.0, -1e-300], "gains must be >= 0"),
    ([-0.0, 1.0], [0.0, 0.0], "each port needs some received power (alpha + beta > 0)"),
    ([1.0, 0.0], [1.0, 0.0], "each port needs some received power (alpha + beta > 0)"),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "alpha and beta must each hold one value per port"),
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], "alpha and beta must each hold one value per port"),
    (1.0, [1.0, 1.0], "alpha and beta must each hold one value per port"),
    # one value per port, yet a column: the shape rule, not float() of a 1-element array
    (np.ones((2, 1)), [1.0, 1.0], "alpha and beta must each hold one value per port"),
])
def test_propagation_gains_rejections_keep_type_and_message(alpha, beta, message):
    with pytest.raises(ValueError) as info:
        PropagationGains(alpha=alpha, beta=beta)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("path_loss", [0.5, _NAN])
def test_propagation_gains_from_xpd_rejects_path_loss_below_one(path_loss):
    with pytest.raises(ValueError) as info:
        PropagationGains.from_xpd(10.0, path_loss=path_loss)
    assert type(info.value) is ValueError and str(info.value) == "linear path loss must be >= 1"


def test_propagation_gains_keep_signed_zero_and_are_read_only():
    # -0.0 is not below zero: accepted, and stored bit for bit
    gains = PropagationGains(alpha=np.array([-0.0, 1.0]), beta=[1, 0.0])
    assert gains.alpha == (-0.0, 1.0) and math.copysign(1.0, gains.alpha[0]) == -1.0
    for pair in (gains.alpha, gains.beta):
        assert type(pair) is tuple and [type(v) for v in pair] == [float, float]
    with pytest.raises(TypeError):
        gains.alpha[0] = 2.0


def test_propagation_gains_from_xpd_roundtrip():
    gains = PropagationGains.from_xpd(10.0, path_loss=100.0)
    assert_allclose(gains.alpha, [0.01, 0.01])
    assert_allclose(gains.beta, [0.001, 0.001])


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


def test_kronecker_empirical_transmit_correlation():
    # a complex rho pins the convention: sqrt(R).T would impose conj(R),
    # whose off-diagonal is off by 2 * 0.644 here
    lap = AodDistribution.laplacian(math.radians(30.0), math.radians(26.0))
    target = CorrelationMatrix(spatial_corr(0.3, lap))  # rho = 0.511 - 0.644j
    assert abs(target.coefficient.imag) > 0.5
    draws = draw_fading_batch(np.random.default_rng(31), 100_000)
    eff = kronecker_effective(draws, np.ones(2), target)
    est = empirical_tx_correlation(eff, normalize=False)
    assert np.max(np.abs(est - target.matrix)) < 0.02


def test_kronecker_rejects_invalid_correlation():
    # an invalid correlation cannot be built, so it never reaches the kernel
    with pytest.raises(InvalidCorrelationError, match="off-diagonal magnitude exceeds 1"):
        kronecker_effective(one_draw(0), np.ones(2), CorrelationMatrix(0.5 + 0.9j))
    with pytest.raises(ValueError, match="^alpha must hold one gain per port$"):
        kronecker_effective(one_draw(0), np.ones(3), CorrelationMatrix(0.5))


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
