"""Tests for the correlation module.

Reference values are either computed by an independent oracle inside the
test (quadrature, explicit Gram products, squaring the matrix root) or
frozen from high-precision evaluation (mpmath at 30 digits).
"""

import builtins
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualpolsim import correlation
from dualpolsim.correlation import (
    AodDistribution,
    CorrelationMatrix,
    InvalidCorrelationError,
    J0_FIRST_ZERO,
    NoSolutionError,
    SpacingQuery,
    bessel_j0,
    dualpole_corr_approx,
    dualpole_corr_exact,
    equivalent_spacing,
    matrix_sqrt_psd,
    spatial_corr,
)

# Table values the simulator must reproduce: XPD (dB) -> coefficient
TABLE_RHO = {3: 0.9432, 5: 0.8545, 10: 0.5750, 20: 0.1980, 30: 0.0632}
# XPD (dB) -> isotropic equivalent spacing in wavelengths
TABLE_D_ISO = {3: 0.076, 5: 0.124, 10: 0.220, 20: 0.326, 30: 0.364}

# mpmath.besselj(0, x) at 30 digits, frozen
J0_REFERENCE = {
    0.5: 0.938469807240812904,
    1.0: 0.765197686557966551,
    2.0: 0.223890779141235668,
    5.0: -0.177596771314338304,
    8.0: 0.171650807137553906,
    10.0: -0.245935764451348335,
    12.5: 0.146884054700421102,
    14.0: 0.171073476110458659,
    15.7: -0.140070211829048428,
    16.0: -0.174899073983629185,
    18.0: -0.013355805721984111,
    20.0: 0.167024664340583155,
}


def j0_quadrature(x: np.ndarray, n: int = 4096) -> np.ndarray:
    """Independent J0 oracle: midpoint rule on the cosine integral.

    The integrand is smooth and periodic, so the midpoint rule converges
    geometrically; n = 4096 is far below 1e-12 error for x <= 25.
    """
    theta = (np.arange(n) + 0.5) * math.pi / n
    return np.cos(np.outer(np.asarray(x, dtype=float), np.sin(theta))).mean(axis=1)


def laplacian_rho_quadrature(d, mu, sigma, n=400001):
    """Dense-trapezoid oracle for the truncated Laplacian correlation."""
    b = math.sqrt(2.0) / sigma
    norm = 1.0 - 0.5 * (math.exp(-b * (math.pi - mu)) + math.exp(-b * (math.pi + mu)))
    # place the density kink exactly on a grid point
    left = np.linspace(-math.pi, mu, n // 2)
    right = np.linspace(mu, math.pi, n // 2)
    out = 0.0
    for phi in (left, right):
        dens = (b / 2.0) * np.exp(-b * np.abs(phi - mu)) / norm
        out += np.trapezoid(dens * np.exp(-1j * 2.0 * math.pi * d * np.sin(phi)), phi)
    return out


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------


def test_bessel_j0_frozen_reference_values():
    for x, ref in J0_REFERENCE.items():
        assert abs(bessel_j0(x) - ref) < 1e-11, f"J0({x})"


def test_bessel_j0_accuracy_against_quadrature():
    xs = np.linspace(0.0, 20.0, 2001)
    assert np.max(np.abs(bessel_j0(xs) - j0_quadrature(xs))) < 1e-10


def test_bessel_j0_first_zero():
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12


def test_bessel_j0_even_and_scalar():
    assert bessel_j0(-3.0) == bessel_j0(3.0)
    assert isinstance(bessel_j0(1.0), float)
    assert bessel_j0(np.array([0.0, 1.0])).shape == (2,)
    assert bessel_j0(0.0) == 1.0


def test_bessel_jn_matches_mpmath():
    # every order a 64-wavelength scan uses, scalar path and grid tables
    orders = sorted({*range(0, 501, 7), 1, 2, 499, 500})
    for x in (0.0, 1e-30, 0.5, J0_FIRST_ZERO, 16.0, 100.5, 2.0 * math.pi * 64.0):
        jn = correlation._bessel_jn(x, 500)
        for n in orders:
            assert abs(jn[n] - float(mpmath.besselj(n, x))) < 1e-13, (x, n)
    for chunk, step, n in ((0, 0, 0), (0, 0, 7), (0, 255, 20), (0, 255, 61),
                           (24, 0, 300), (24, 255, 0), (24, 255, 401), (24, 255, 470)):
        table = correlation._grid_table(chunk)
        d = (chunk * 256 + 1 + step) * 0.01
        assert abs(table[step, n] - float(mpmath.besselj(n, 2.0 * math.pi * d))) < 1e-13
        assert not table.flags.writeable


@pytest.mark.parametrize("chunk", range(25))
def test_grid_table_equals_scalar_recurrence(chunk):
    table = correlation._grid_table(chunk)
    first = chunk * 256 + 1
    assert table.flags.c_contiguous and not table.flags.writeable
    for step in range(table.shape[0]):
        x = 2.0 * math.pi * (first + step) * 0.01
        # the refine's recurrence starts at the table's top order, which
        # must reach the series order at every step d it may evaluate
        d = (first + step) * 0.01
        assert correlation._series_order(2.0 * math.pi * d) < table.shape[1], step
        assert table[step].tolist() == correlation._bessel_jn(x, table.shape[1] - 1), step


_PLAIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12 on: Neumaier-compensated over floats."""
    items = list(iterable)
    if not all(type(v) is float for v in items):
        return _PLAIN_SUM(items, start)
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_bessel_jn_bits_do_not_depend_on_the_builtin_sum(monkeypatch):
    # the reports must keep their bytes on Python 3.12+, whose sum()
    # compensates the rounding of floats
    rng = np.random.default_rng(12)
    floats = [0.0, 1e-30, *(2.0 * math.pi * rng.uniform(0.0, 64.0, 400)).tolist()]
    grid = 2.0 * math.pi * np.arange(1, 257) * correlation._SCAN_STEP

    def jn_bytes():
        rows = [correlation._bessel_jn(x, correlation._series_order(x)) for x in floats]
        rows.append(correlation._bessel_jn(grid, correlation._series_order(grid[-1])))
        return [np.array(row).tobytes() for row in rows]

    expected = jn_bytes()
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "sum", _compensated_sum)
        assert sum([1e16, 1.0, -1e16]) == 1.0
        assert jn_bytes() == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 * math.pi * 64.0 + 0.01])
def test_bessel_j0_rejects_arguments_outside_its_range(bad):
    with pytest.raises(ValueError, match="must be finite"):
        bessel_j0(bad)
    with pytest.raises(ValueError, match="must be finite"):
        bessel_j0(np.array([1.0, bad]))


# ---------------------------------------------------------------------------
# XPD -> correlation
# ---------------------------------------------------------------------------


def test_dualpole_exact_table_values():
    for db, rho in TABLE_RHO.items():
        corr = dualpole_corr_exact(10.0 ** (db / 10.0))
        assert abs(corr.coefficient.real - rho) < 5e-4, f"{db} dB"


def test_dualpole_exact_zero_db_is_rank_one():
    corr = dualpole_corr_exact(1.0)
    assert_allclose(corr.matrix, np.ones((2, 2)), rtol=0, atol=1e-15)
    assert corr.eigenvalues()[0] < 1e-12


def test_dualpole_exact_matches_gram_normalization():
    # oracle: normalize the Gram matrix of the coupling explicitly
    rng = np.random.default_rng(402)
    for _ in range(200):
        chi1, chi2 = 10.0 ** rng.uniform(-0.5, 4.0, 2)
        coupling = np.array([[1.0, 1.0 / math.sqrt(chi1)],
                             [1.0 / math.sqrt(chi2), 1.0]])
        gram = coupling.T @ coupling
        scale = np.diag(1.0 / np.sqrt(np.diag(gram)))
        expected = scale @ gram @ scale
        got = dualpole_corr_exact(chi1, chi2).matrix.real
        assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_dualpole_exact_infinite_xpd_is_identity():
    assert_allclose(dualpole_corr_exact(math.inf).matrix, np.eye(2), atol=0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_dualpole_rejects_nonpositive_xpd(bad):
    with pytest.raises(ValueError):
        dualpole_corr_exact(bad)
    with pytest.raises(ValueError):
        dualpole_corr_approx(bad)


def test_dualpole_approx_values():
    assert abs(dualpole_corr_approx(100.0).coefficient.real - 0.2000) < 1e-12
    assert abs(dualpole_corr_approx(1000.0).coefficient.real - 0.0632) < 1e-4


def test_dualpole_approx_clamp_and_flag():
    assert dualpole_corr_approx(4.0).coefficient.real == 1.0
    assert dualpole_corr_approx(2.0).coefficient.real == 1.0  # clamped


@pytest.mark.parametrize("chi", [1.0, 4.0, 10.0, 1e6, math.inf])
def test_dualpole_approx_is_hermitian_correlation_matrix(chi):
    approx = dualpole_corr_approx(chi)
    assert type(approx) is CorrelationMatrix
    m = approx.matrix
    assert np.array_equal(m, m.conj().T)
    assert approx.coefficient == min(2.0 / math.sqrt(chi), 1.0)


@given(st.floats(min_value=4.0, max_value=1e9))
@settings(max_examples=200, deadline=None)
def test_exact_approx_convergence_bound(chi):
    exact = dualpole_corr_exact(chi).coefficient.real
    approx = dualpole_corr_approx(chi).coefficient.real
    assert abs(exact - approx) <= 2.0 * chi ** -1.5 + 1e-15


# ---------------------------------------------------------------------------
# matrix square root
# ---------------------------------------------------------------------------


def _eigh_sqrt(m):
    """Oracle: principal root from a per-matrix eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def test_matrix_sqrt_identity():
    assert_allclose(matrix_sqrt_psd(CorrelationMatrix(0.0)), np.eye(2), atol=1e-15)


def test_matrix_sqrt_all_ones():
    root = matrix_sqrt_psd(CorrelationMatrix.from_coefficient(1.0))
    assert_allclose(root, np.ones((2, 2)) / math.sqrt(2.0), atol=1e-12)


def test_matrix_sqrt_closed_form_half():
    # for [[1, r], [r, 1]]: diag (sqrt(1+r)+sqrt(1-r))/2, offdiag difference/2
    r = 0.5
    a = (math.sqrt(1.5) + math.sqrt(0.5)) / 2.0
    b = (math.sqrt(1.5) - math.sqrt(0.5)) / 2.0
    root = matrix_sqrt_psd(CorrelationMatrix.from_coefficient(r))
    assert_allclose(root.real, [[a, b], [b, a]], atol=1e-14)
    assert_allclose(root @ root, [[1, r], [r, 1]], atol=1e-14)


def test_matrix_sqrt_random_correlations():
    rng = np.random.default_rng(517)
    for _ in range(1000):
        rho = rng.uniform(0, 1) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        corr = CorrelationMatrix.from_coefficient(rho)
        root = matrix_sqrt_psd(corr)
        assert np.linalg.norm(root @ root - corr.matrix, "fro") <= 1e-12
        assert np.max(np.abs(root - root.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(root)[0] >= -1e-12
        assert_allclose(root, _eigh_sqrt(corr.matrix), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "rho, atol",
    [
        (0.0, 1e-14),
        (0.3 - 0.8j, 1e-13),
        # rank 1: both methods take the root of a rounding-level eigenvalue,
        # which is ~1e-8, so they agree only to that level
        (np.exp(0.7j), 1e-7),
        (1.0, 1e-7),
    ],
    ids=["rho-0", "complex-rho", "unit-complex-rho", "rho-1"],
)
def test_matrix_sqrt_matches_eigh_oracle(rho, atol):
    corr = CorrelationMatrix(rho)
    root = matrix_sqrt_psd(corr)
    assert root.shape == (2, 2)
    assert_allclose(root, _eigh_sqrt(corr.matrix), rtol=0, atol=atol)


def test_matrix_sqrt_rejects_indefinite():
    # |rho| > 1 makes R indefinite; such a correlation cannot be built
    with pytest.raises(InvalidCorrelationError):
        matrix_sqrt_psd(CorrelationMatrix(1.2))


@st.composite
def coefficients(draw):
    """Coefficients the constructor accepts: interior, |rho| = 1 and |rho| in (1, 1 + 1e-12]."""
    kind = draw(st.sampled_from(["interior", "unit", "above-one"]))
    if kind == "interior":
        mag = draw(st.floats(0.0, 1.0, exclude_max=True))
    elif kind == "unit":
        mag = 1.0
    else:  # the eigenvalue 1 - |rho| in [-1e-12, 0)
        mag = draw(st.floats(1.0, 1.0 + 1e-12, exclude_min=True))
    if draw(st.booleans()):
        phase = draw(st.floats(-math.pi, math.pi))
        rho = complex(mag * math.cos(phase), mag * math.sin(phase))
        assume(abs(rho) <= 1.0 + 1e-12)
        return rho
    # an exactly real coefficient, with a signed zero imaginary part
    return complex(draw(st.sampled_from([mag, -mag])), draw(st.sampled_from([0.0, -0.0])))


@given(coefficients())
@settings(max_examples=500, deadline=None)
def test_matrix_sqrt_is_a_hermitian_psd_root(rho):
    corr = CorrelationMatrix(rho)
    root = matrix_sqrt_psd(corr)
    assert root.dtype == complex and root.shape == (2, 2)
    # above |rho| = 1 the root is R / sqrt(2), whose square overshoots R by
    # (|rho|^2 - 1) / 2 on the diagonal
    overshoot = max(abs(rho) ** 2 - 1.0, 0.0) / math.sqrt(2.0)
    assert np.linalg.norm(root @ root - corr.matrix) <= 1e-12 + overshoot
    assert np.array_equal(root, root.conj().T)
    assert np.linalg.eigvalsh(root)[0] >= -1e-12


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("rho, message", [
    (complex(_NAN, 0.0), "correlation matrix has non-finite entries"),
    (complex(0.0, _INF), "correlation matrix has non-finite entries"),
    (complex(-_INF, 0.0), "correlation matrix has non-finite entries"),
    (1.0 + 2e-12, "off-diagonal magnitude exceeds 1"),
    (-1.0 - 2e-12, "off-diagonal magnitude exceeds 1"),
    (complex(0.0, 1.0 + 2e-12), "off-diagonal magnitude exceeds 1"),
    (1.0 + 1e-12, None),
    (complex(-0.0, -1.0 - 1e-12), None),
])
def test_correlation_matrix_rejections_keep_type_and_message(rho, message):
    if message is None:
        corr = CorrelationMatrix(rho)
        assert type(corr.coefficient) is complex and corr.coefficient == rho
        rho = complex(rho)  # its conjugate has imaginary part -0.0
        want = np.array([[1.0, rho], [rho.conjugate(), 1.0]])
        assert corr.matrix.tobytes() == want.tobytes()
        return
    with pytest.raises(InvalidCorrelationError) as info:
        CorrelationMatrix(rho)
    assert type(info.value) is InvalidCorrelationError and str(info.value) == message


@pytest.mark.parametrize("rho, message", [
    (1.0 + 2e-12, "off-diagonal magnitude exceeds 1"),
    (1.0 + 1e-12, None),
])
def test_matrix_sqrt_rejections_keep_type_and_message(rho, message):
    # the root's input is built first: past the tolerance no root is taken,
    # within it the clip at 0 gives the |rho| = 1 root R / sqrt(2)
    if message is None:
        corr = CorrelationMatrix(rho)
        root = matrix_sqrt_psd(corr)
        assert_allclose(root, corr.matrix / math.sqrt(2.0), rtol=0, atol=1e-15)
        return
    with pytest.raises(InvalidCorrelationError) as info:
        matrix_sqrt_psd(CorrelationMatrix(rho))
    assert type(info.value) is InvalidCorrelationError and str(info.value) == message


# ---------------------------------------------------------------------------
# spatial correlation
# ---------------------------------------------------------------------------


def test_spatial_corr_zero_distance():
    # rho(0) is the law's mass, exactly 1: a 0 dB model iii channel is
    # then exactly singular, like those of the other models
    assert spatial_corr(0.0, AodDistribution.isotropic()) == 1.0
    rng = np.random.default_rng(361)
    means = np.concatenate(([-math.pi, 0.0, math.pi], rng.uniform(-math.pi, math.pi, 40)))
    spreads = np.concatenate(([1.5, 360.0, 26.0], rng.uniform(1.5, 360.0, 40)))
    for mu, spread in zip(means, spreads):
        lap = AodDistribution.laplacian(float(mu), math.radians(spread))
        assert spatial_corr(0.0, lap) == 1.0, (mu, spread)


def test_spatial_corr_isotropic_table_spot_check():
    # 0.326 wavelengths is the tabulated 20 dB spacing, rounded to 3
    # decimals; the rounding moves rho by at most ~2e-3
    rho = spatial_corr(0.326, AodDistribution.isotropic())
    assert rho.imag == 0.0
    assert abs(rho.real - 0.198) < 2e-3


def test_spatial_corr_isotropic_first_null():
    d = J0_FIRST_ZERO / (2.0 * math.pi)
    assert abs(spatial_corr(d, AodDistribution.isotropic())) <= 1e-6


def test_spatial_corr_isotropic_matches_quadrature():
    # Bessel identity: uniform-AoD expectation equals J0(k d)
    rng = np.random.default_rng(91)
    iso = AodDistribution.isotropic()
    phi = (np.arange(65536) + 0.5) / 65536 * 2.0 * math.pi - math.pi
    for d in rng.uniform(0.0, 2.0, 100):
        oracle = np.exp(-1j * 2.0 * math.pi * d * np.sin(phi)).mean()
        assert abs(spatial_corr(d, iso) - oracle) < 1e-8


def test_spatial_corr_laplacian_matches_quadrature():
    rng = np.random.default_rng(92)
    for _ in range(25):
        d = rng.uniform(0.0, 3.0)
        mu = rng.uniform(-2.8, 2.8)
        sigma = rng.uniform(0.05, 1.2)
        got = spatial_corr(d, AodDistribution.laplacian(mu, sigma))
        ref = laplacian_rho_quadrature(d, mu, sigma)
        assert abs(got - ref) < 1e-8


def laplacian_rho_mpmath(d, mu, sigma):
    """Truncated-Laplacian E[exp(-j 2 pi d sin(phi))] by mpmath adaptive quadrature.

    The interval is split at the density kink and at mu +- {1, 4, 16}
    sigma, so that narrow spreads are resolved.
    """
    mp = mpmath.mp
    with mpmath.workdps(20):
        b = mp.sqrt(2) / sigma
        norm = 1 - (mp.exp(-b * (mp.pi - mu)) + mp.exp(-b * (mp.pi + mu))) / 2

        def integrand(phi):
            return b / 2 * mp.exp(-b * abs(phi - mu) - 2j * mp.pi * d * mp.sin(phi)) / norm

        inner = sorted({mu + k * sigma for k in (-16, -4, -1, 0, 1, 4, 16)
                        if -math.pi < mu + k * sigma < math.pi})
        return complex(mp.quad(integrand, [-mp.pi, *inner, mp.pi]))


def test_spatial_corr_laplacian_matches_mpmath_oracle():
    # the accepted spread range end to end, including a mean near -pi
    cases = {
        1.5: [(0.0, 0.1), (1.0, 0.9), (-2.5, 2.2), (0.0, 3.0)],
        26.0: [(0.0, 0.25), (1.0, 1.3), (-2.5, 2.6), (0.0, 3.0)],
        360.0: [(0.0, 0.4), (1.0, 1.7), (-2.5, 2.9), (0.0, 3.0)],
    }
    for spread_deg, points in cases.items():
        sigma = math.radians(spread_deg)
        for mu, d in points:
            got = spatial_corr(d, AodDistribution.laplacian(mu, sigma))
            assert abs(got - laplacian_rho_mpmath(d, mu, sigma)) < 1e-8, (spread_deg, mu, d)


def test_spatial_corr_slope_matches_mpmath_central_difference():
    # the central difference's truncation error is h^2 / 6 times the
    # third derivative, at most (2 pi)^3: 4e-9 at h = 1e-5
    h = 1e-5
    for spread_deg, mu, d in [(1.5, 0.0, 0.1), (1.5, 1.0, 0.9), (26.0, -2.5, 1.3),
                              (26.0, 0.4, 2.6), (360.0, 1.0, 0.4), (360.0, -2.5, 2.9)]:
        sigma = math.radians(spread_deg)
        dist = AodDistribution.laplacian(mu, sigma)
        a, b = (c[: correlation._series_order(2.0 * math.pi * d) + 1] for c in dist._coefficients)
        _, slope = correlation._rho_and_slope(d, a.tolist(), b.tolist())
        numeric = (laplacian_rho_mpmath(d + h, mu, sigma)
                   - laplacian_rho_mpmath(d - h, mu, sigma)) / (2.0 * h)
        assert abs(slope - numeric) < 1e-8, (spread_deg, mu, d)


def test_spatial_corr_magnitude_bounded():
    rng = np.random.default_rng(93)
    for _ in range(50):
        dist = AodDistribution.laplacian(rng.uniform(-3, 3), rng.uniform(0.02, 1.4))
        assert abs(spatial_corr(rng.uniform(0, 10), dist)) <= 1.0 + 1e-12


def test_spatial_corr_rejects_negative_distance():
    with pytest.raises(ValueError):
        spatial_corr(-0.1, AodDistribution.isotropic())


@pytest.mark.parametrize("d", [math.inf, math.nan, 64.01, 1e6])
def test_spatial_corr_rejects_non_finite_or_distant_spacing(d):
    for dist in (AodDistribution.isotropic(), AodDistribution.laplacian(0.3, 0.4)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 64\] wavelengths"):
            spatial_corr(d, dist)
        assert abs(spatial_corr(64.0, dist)) <= 1.0


def test_laplacian_pdf_integrates_to_one():
    # the truncated Laplacian density b/2 exp(-b |phi - mu|) / Z on [-pi, pi];
    # trapezoid on each smooth side; 2e6 points keeps the oracle's own
    # discretization error well below the 1e-10 budget
    for mu, sigma in [(0.0, 0.45), (1.2, 0.1), (-2.5, 0.9), (3.0, 0.3)]:
        dist = AodDistribution.laplacian(mu, sigma)
        b = math.sqrt(2.0) / sigma

        def pdf(phi):
            return (b / 2.0) * np.exp(-b * np.abs(phi - mu)) / dist._normalization()

        left = np.linspace(-math.pi, mu, 2_000_001)
        right = np.linspace(mu, math.pi, 2_000_001)
        mass = np.trapezoid(pdf(left), left) + np.trapezoid(pdf(right), right)
        assert abs(mass - 1.0) < 1e-10
        # c_0 = E[1] of the law's Fourier coefficients is the same mass
        assert abs(dist._fourier(0)[0] - 1.0) < 1e-10


def test_aod_distribution_validation():
    with pytest.raises(ValueError):
        AodDistribution.laplacian(0.0, 0.0)
    with pytest.raises(ValueError):
        AodDistribution.laplacian(0.0, -0.1)
    for spread_deg in (1.4, 361.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="AoD spread must lie in"):
            AodDistribution.laplacian(0.0, math.radians(spread_deg))
    with pytest.raises(ValueError):
        AodDistribution(kind="gaussian")


# ---------------------------------------------------------------------------
# equivalent spacing
# ---------------------------------------------------------------------------


def test_equivalent_spacing_target_one_is_zero():
    for dist in (AodDistribution.isotropic(), AodDistribution.laplacian(0.0, 0.4)):
        assert equivalent_spacing(SpacingQuery(1.0, dist)) == 0.0


def test_equivalent_spacing_isotropic_table_values():
    iso = AodDistribution.isotropic()
    for db in TABLE_RHO:
        d = equivalent_spacing(SpacingQuery(TABLE_RHO[db], iso))
        assert abs(d - TABLE_D_ISO[db]) <= 0.002, f"{db} dB"


def test_equivalent_spacing_right_inverse_isotropic():
    iso = AodDistribution.isotropic()
    for rho in np.arange(0.05, 0.951, 0.05):
        d = equivalent_spacing(SpacingQuery(float(rho), iso))
        assert abs(abs(spatial_corr(d, iso)) - rho) <= 1e-6


def test_equivalent_spacing_right_inverse_laplacian():
    lap = AodDistribution.laplacian(0.0, math.radians(26.0))
    for rho in np.arange(0.10, 0.951, 0.05):
        d = equivalent_spacing(SpacingQuery(float(rho), lap))
        assert abs(abs(spatial_corr(d, lap)) - rho) <= 1e-6


@pytest.mark.parametrize("law", [AodDistribution.isotropic(),
                                 AodDistribution.laplacian(0.0, math.radians(26.0))],
                         ids=["iso", "lap26"])
def test_equivalent_spacing_round_trip_near_rho_one(law):
    # 1 - |rho| ~ c d^2 here, so a fixed residual bound on |rho| does not
    # bound d. The solve stops within 4e-16 of the target at the least,
    # which moves d by up to 4e-16 / (2 (1 - |rho|)) relative; allow that
    # beside 1e-3 (it exceeds 1e-3 only below d ~ 3e-7 wavelengths).
    for d in np.geomspace(1e-7, 5e-3, 41).tolist():
        target = abs(spatial_corr(d, law))
        got = equivalent_spacing(SpacingQuery(target, law))
        assert abs(got / d - 1.0) <= 1e-3 + 2e-16 / (1.0 - target), d


def test_equivalent_spacing_narrow_spread_ordering():
    # Concentrated departures decorrelate slower, so the Laplacian
    # spacing exceeds the isotropic one wherever the first-branch
    # inverse exists. At 30 degrees the first local minimum of |rho|
    # (about 0.156) sits above the smallest table coefficient, so that
    # single combination has no smallest-root solution and is skipped.
    iso = AodDistribution.isotropic()
    solved = 0
    for spread_deg in (10.0, 20.0, 26.0, 30.0):
        lap = AodDistribution.laplacian(0.0, math.radians(spread_deg))
        for rho in TABLE_RHO.values():
            d_iso = equivalent_spacing(SpacingQuery(rho, iso))
            try:
                d_lap = equivalent_spacing(SpacingQuery(rho, lap))
            except NoSolutionError:
                assert spread_deg == 30.0 and rho == min(TABLE_RHO.values())
                continue
            solved += 1
            assert d_lap >= d_iso, (spread_deg, rho)
    assert solved == 19


def test_equivalent_spacing_no_solution_reports_range():
    lap = AodDistribution.laplacian(0.0, math.radians(26.0))
    with pytest.raises(NoSolutionError, match="achievable range"):
        equivalent_spacing(SpacingQuery(0.01, lap))


def test_equivalent_spacing_isotropic_root_between_scan_steps():
    # |J0| at the scan steps either side of its first zero is 0.0087 and
    # 0.024, so these targets are only met between two steps
    zero = J0_FIRST_ZERO / (2.0 * math.pi)
    for target in (1e-6, 1e-3, 5e-3):
        d = equivalent_spacing(SpacingQuery(target, AodDistribution.isotropic()))
        assert abs(abs(bessel_j0(2.0 * math.pi * d)) - target) <= 5e-7
        assert d < zero


def test_equivalent_spacing_first_branch_property():
    # each solve returns a root on the first branch of |rho| or gives up
    rng = np.random.default_rng(2027)
    laws = [AodDistribution.isotropic()] + [
        AodDistribution.laplacian(math.radians(mean_deg), math.radians(spread_deg))
        for spread_deg in (1.5, 26.0, 360.0)
        for mean_deg in (-180.0, -120.0, -45.0, 0.0, 30.0, 90.0, 180.0)
    ]
    outcomes = {"solved": 0, "unreachable": 0}
    for dist in laws:
        for target in rng.uniform(0.02, 0.98, 3):
            try:
                d = equivalent_spacing(SpacingQuery(float(target), dist))
            except NoSolutionError:
                outcomes["unreachable"] += 1
                continue
            outcomes["solved"] += 1
            assert abs(abs(spatial_corr(d, dist)) - target) <= 5e-7
            below = np.arange(1, int(d / 0.01) + 1) * 0.01
            below = below[below < d]
            if below.size > 200:  # the 20 steps next to d and a sample of the rest
                below = np.concatenate((below[-20:], rng.choice(below[:-20], 180, replace=False)))
            assert all(abs(spatial_corr(s, dist)) > target for s in below), (dist, target)
    assert min(outcomes.values()) > 0, outcomes


def test_spacing_query_validation():
    iso = AodDistribution.isotropic()
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            SpacingQuery(bad, iso)


# ---------------------------------------------------------------------------
# CorrelationMatrix container
# ---------------------------------------------------------------------------


def test_correlation_matrix_validation():
    with pytest.raises(InvalidCorrelationError):
        CorrelationMatrix(1.3)
    with pytest.raises(InvalidCorrelationError):
        CorrelationMatrix.from_coefficient(0.9 - 0.9j)
    with pytest.raises(InvalidCorrelationError):
        CorrelationMatrix(math.nan)


def test_correlation_matrix_is_immutable():
    # a real rho, and the complex one of a Laplacian law 0.3 wavelengths apart
    for rho in (0.3, spatial_corr(0.3, AodDistribution.laplacian(0.7, 0.4))):
        corr = CorrelationMatrix.from_coefficient(rho)
        with pytest.raises(ValueError):
            corr.matrix[0, 1] = 0.9
        assert corr.coefficient == rho
        assert np.array_equal(corr.matrix, corr.matrix.conj().T)
        assert corr.matrix[0, 0] == 1.0 and corr.matrix[1, 1] == 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=100, deadline=None)
def test_correlation_matrix_coefficient_roundtrip(mag, phase):
    rho = mag * complex(math.cos(phase), math.sin(phase))
    corr = CorrelationMatrix.from_coefficient(rho)
    assert corr.coefficient == rho
    assert np.array_equal(corr.matrix, corr.matrix.conj().T)
