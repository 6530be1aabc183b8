"""Transmit-correlation math for the dual-polarization channel model.

Covers four related pieces:

* the port-to-port correlation coefficient implied by a given
  cross-polarization discrimination (XPD), in both its exact and
  high-XPD approximate forms,
* the spatial correlation of a two-element omnidirectional array under
  isotropic or Laplacian angle-of-departure (AoD) statistics,
* the principal PSD square root used to impose a transmit correlation
  on an i.i.d. fading matrix,
* the inverse problem: the antenna spacing whose spatial correlation
  magnitude matches a requested coefficient ("equivalent spacing").

Antenna spacings are in wavelengths throughout.

Everything here is a pure function of its arguments. The only
module-level data are read-only Bessel tables on the spacing solver's
scan grid, built on first use and shared by every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "CorrelationMatrix",
    "AodDistribution",
    "SpacingQuery",
    "ApproxCorrelation",
    "InvalidCorrelationError",
    "NoSolutionError",
    "bessel_j0",
    "dualpole_corr_exact",
    "dualpole_corr_approx",
    "matrix_sqrt_psd",
    "spatial_corr",
    "spatial_corr_matrix",
    "equivalent_spacing",
]

#: First positive zero of the Bessel function J0 (tabulated).
J0_FIRST_ZERO = 2.404825557695773

#: XPD below which the high-XPD approximation exceeds 1 and is clamped.
HIGH_XPD_LIMIT = 4.0

#: Laplacian angle spreads accepted, in degrees: the range the tests cover.
#: It keeps the law's scale finite and nonzero; the series needs no bound.
LAPLACIAN_SPREAD_DEG = (1.5, 360.0)

_RHO_TOL = 5e-7          # the spacing solve stops once ||rho| - target| <= this
_SCAN_STEP = 0.01        # bracket scan step of the spacing solve, in wavelengths
_SCAN_CHUNK = 256        # scan steps per precomputed Bessel table
_SCAN_MAX_WAVELENGTHS = 64.0
_SCAN_STEPS = round(_SCAN_MAX_WAVELENGTHS / _SCAN_STEP)


class InvalidCorrelationError(ValueError):
    """Raised when a matrix is not a valid Hermitian PSD correlation."""


class NoSolutionError(ValueError):
    """Raised when no spacing reaches the requested correlation magnitude."""


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """2x2 transmit correlation matrix with unit diagonal.

    The constructor checks shape, finiteness, an exactly-unit diagonal
    and off-diagonal magnitudes <= 1. Hermitian positive
    semidefiniteness is required wherever the matrix is actually used
    as a correlation (see :func:`matrix_sqrt_psd`); it is not imposed
    here because the high-XPD approximation with unequal port XPDs is
    written asymmetrically.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidCorrelationError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidCorrelationError("correlation matrix has non-finite entries")
        if not np.array_equal(np.diagonal(m), np.ones(2)):
            raise InvalidCorrelationError("correlation diagonal must be exactly 1")
        if max(abs(m[0, 1]), abs(m[1, 0])) > 1.0 + 1e-12:
            raise InvalidCorrelationError("off-diagonal magnitude exceeds 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_coefficient(cls, rho: complex) -> "CorrelationMatrix":
        """Hermitian matrix [[1, rho], [conj(rho), 1]]."""
        return cls(np.array([[1.0, rho], [np.conj(rho), 1.0]], dtype=complex))

    @property
    def coefficient(self) -> complex:
        """Upper off-diagonal entry."""
        return complex(self.matrix[0, 1])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (requires a Hermitian matrix)."""
        return np.linalg.eigvalsh(self.matrix)


class ApproxCorrelation(NamedTuple):
    """High-XPD approximate correlation plus its validity flag."""

    corr: CorrelationMatrix
    high_xpd_valid: bool


@dataclass(frozen=True)
class AodDistribution:
    """Angle-of-departure law seen from the transmit array.

    ``isotropic`` is the rich-scattering reference; ``laplacian`` is the
    double-exponential power azimuth spectrum with scale ``angle_spread``
    centered on ``mean_aod``, truncated to [-pi, pi] and renormalized.
    Angles are radians; the spread must lie within :data:`LAPLACIAN_SPREAD_DEG`.
    """

    kind: str
    mean_aod: float = 0.0
    angle_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("isotropic", "laplacian"):
            raise ValueError(f"unknown AoD distribution kind {self.kind!r}")
        if self.kind == "laplacian":
            lo, hi = LAPLACIAN_SPREAD_DEG
            if not math.radians(lo) <= self.angle_spread <= math.radians(hi):
                raise ValueError(f"laplacian angle_spread must lie in [{lo:g}, {hi:g}] degrees")
            if not -math.pi <= self.mean_aod <= math.pi:
                raise ValueError("mean_aod must lie in [-pi, pi]")

    @classmethod
    def isotropic(cls) -> "AodDistribution":
        return cls(kind="isotropic")

    @classmethod
    def laplacian(cls, mean_aod: float, angle_spread: float) -> "AodDistribution":
        return cls(kind="laplacian", mean_aod=mean_aod, angle_spread=angle_spread)

    def _normalization(self) -> float:
        """Mass of the untruncated Laplacian inside [-pi, pi], closed form."""
        b = math.sqrt(2.0) / self.angle_spread
        return 1.0 - 0.5 * (
            math.exp(-b * (math.pi - self.mean_aod))
            + math.exp(-b * (math.pi + self.mean_aod))
        )

    def _fourier(self, top: int) -> np.ndarray:
        """c_n = E[exp(-j n phi)] for n = 0..top, in closed form; c_{-n} = conj(c_n)."""
        n = np.arange(top + 1)
        if self.kind == "isotropic":
            return (n == 0).astype(complex)
        b = math.sqrt(2.0) / self.angle_spread
        mu = self.mean_aod
        up, down = b + 1j * n, b - 1j * n
        return (0.5 * b / self._normalization()) * np.exp(-1j * n * mu) * (
            (1.0 - np.exp(-up * (math.pi - mu))) / up
            + (1.0 - np.exp(-down * (math.pi + mu))) / down
        )

    def pdf(self, phi: np.ndarray) -> np.ndarray:
        """Density on [-pi, pi]; zero outside."""
        phi = np.asarray(phi, dtype=float)
        if self.kind == "isotropic":
            dens = np.full(phi.shape, 1.0 / (2.0 * math.pi))
        else:
            b = math.sqrt(2.0) / self.angle_spread
            dens = (b / 2.0) * np.exp(-b * np.abs(phi - self.mean_aod))
            dens /= self._normalization()
        return np.where((phi >= -math.pi) & (phi <= math.pi), dens, 0.0)


@dataclass(frozen=True)
class SpacingQuery:
    """Inputs of the equivalent-spacing inverse problem."""

    target_rho: float
    distribution: AodDistribution

    def __post_init__(self) -> None:
        if not 0.0 < self.target_rho <= 1.0:
            raise ValueError("target_rho must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def _series_order(x: float) -> int:
    """Order where the Bessel recurrence starts and the series stops; |J_n(x)| < 1e-20 beyond."""
    return int(x + 30.0 + 6.0 * x ** (1.0 / 3.0))


def _bessel_jn(x: float, top: int) -> list[float]:
    """J_0(x), ..., J_top(x) for 0 <= x <= 2*pi*64, with Python floats.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1}, started
    at order max(top, :func:`_series_order`) and normalized by the
    identity J_0 + 2 sum_k J_2k = 1.
    """
    x = max(x, 1e-50)  # keeps 2n/x finite; below it J_0 = 1 and |J_n| < 1e-50
    start = max(top, _series_order(x))
    vals = [0.0] * (start + 1)
    two_over_x = 2.0 / x
    j_next, j = 0.0, 1.0
    for n in range(start, 0, -1):
        vals[n] = j
        j_next, j = j, n * two_over_x * j - j_next
        if abs(j) > 1e250:  # rescale before the next step can overflow
            vals[n:] = [v * 1e-250 for v in vals[n:]]
            j_next, j = j_next * 1e-250, j * 1e-250
    vals[0] = j
    scale = 1.0 / (vals[0] + 2.0 * sum(vals[2::2]))
    return [v * scale for v in vals[: top + 1]]


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Order 0 of the Miller recurrence that serves the spatial
    correlation series; absolute error below 2e-15 against mpmath for
    |x| <= 2*pi*64, the solver's range, and a ValueError outside it.
    Accepts scalars or arrays and mirrors numpy's scalar/array return
    convention.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    x_max = 2.0 * math.pi * _SCAN_MAX_WAVELENGTHS
    if not np.all(x_arr <= x_max):  # also catches NaN
        raise ValueError(f"bessel_j0 argument must be finite with |x| <= {x_max:.6g}")
    out = np.array([_bessel_jn(v, 0)[0] for v in x_arr.ravel().tolist()]).reshape(x_arr.shape)
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# XPD -> correlation
# ---------------------------------------------------------------------------


def _check_xpd(chi: float, name: str) -> float:
    chi = float(chi)
    # +inf is the clean-polarization limit and maps to zero coupling
    if math.isnan(chi) or chi <= 0:
        raise ValueError(f"{name} must be a positive linear XPD, got {chi}")
    return chi


def dualpole_corr_exact(chi1: float, chi2: float | None = None) -> CorrelationMatrix:
    """Exact transmit correlation of a dual-polarized port pair.

    ``chi1`` and ``chi2`` are the linear XPDs of the two ports toward
    the user. The coefficient comes from normalizing the Gram matrix of
    the polarization coupling [[1, 1/sqrt(chi1)], [1/sqrt(chi2), 1]] to
    unit diagonal; for equal ports it reduces to
    2*sqrt(chi) / (chi + 1).

    Parameters
    ----------
    chi1, chi2 : float
        Per-port linear XPD (> 0). ``chi2`` defaults to ``chi1``.

    Returns
    -------
    CorrelationMatrix
        Real symmetric PSD matrix with unit diagonal.
    """
    chi1 = _check_xpd(chi1, "chi1")
    chi2 = chi1 if chi2 is None else _check_xpd(chi2, "chi2")
    a = 1.0 / math.sqrt(chi1)
    b = 1.0 / math.sqrt(chi2)
    rho = (a + b) / math.sqrt((1.0 + a * a) * (1.0 + b * b))
    return CorrelationMatrix.from_coefficient(min(rho, 1.0))


def dualpole_corr_approx(chi1: float, chi2: float | None = None) -> ApproxCorrelation:
    """High-XPD approximation of :func:`dualpole_corr_exact`.

    Off-diagonals are 2/sqrt(chi) per port, clamped to 1. The flag is
    False when either XPD falls below 4 (6 dB), where the unclamped
    coefficient would exceed 1 and the approximation breaks down.
    """
    chi1 = _check_xpd(chi1, "chi1")
    chi2 = chi1 if chi2 is None else _check_xpd(chi2, "chi2")
    rho12 = min(2.0 / math.sqrt(chi1), 1.0)
    rho21 = min(2.0 / math.sqrt(chi2), 1.0)
    corr = CorrelationMatrix(np.array([[1.0, rho12], [rho21, 1.0]], dtype=complex))
    valid = min(chi1, chi2) >= HIGH_XPD_LIMIT
    return ApproxCorrelation(corr=corr, high_xpd_valid=valid)


# ---------------------------------------------------------------------------
# PSD square root
# ---------------------------------------------------------------------------


def matrix_sqrt_psd(corr: CorrelationMatrix | np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD correlation matrix.

    Uses the 2x2 closed form (M + s I) / sqrt(tr M + 2 s) with
    s = sqrt(det M), which squares to M by the Cayley-Hamilton identity
    M^2 = tr(M) M - det(M) I. Eigenvalues in [-1e-12, 0) are treated as
    exact zeros; anything lower, or a non-Hermitian or non-finite input,
    raises :class:`InvalidCorrelationError`. The zero matrix has the
    zero root.
    """
    m = corr.matrix if isinstance(corr, CorrelationMatrix) else np.asarray(corr, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidCorrelationError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidCorrelationError("correlation matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise InvalidCorrelationError("correlation matrix is not Hermitian")
    a, d = m[0, 0].real, m[1, 1].real
    off = abs(m[0, 1])
    eig_min = 0.5 * (a + d) - math.hypot(0.5 * (a - d), off)
    if eig_min < -1e-12:
        raise InvalidCorrelationError(
            f"correlation matrix is not PSD (eigenvalue {eig_min:.3e})"
        )
    s = math.sqrt(max(a * d - off * off, 0.0))
    trace_term = a + d + 2.0 * s  # (sqrt(l1) + sqrt(l2))^2
    if trace_term <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (m + s * np.eye(2)) / math.sqrt(trace_term)


# ---------------------------------------------------------------------------
# spatial correlation and its inverse
# ---------------------------------------------------------------------------


def _series(dist: AodDistribution, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a, b with rho(d) = sum a_n J_n(x), rho'(d) = 2 pi sum b_n J_n(x), n = 0..top.

    Here x = 2*pi*d. By Jacobi-Anger, rho = sum over all integers n of
    c_n J_n(x) with the law's c_n = E[exp(-j n phi)]; a folds the
    negative orders in with J_{-n} = (-1)^n J_n, and b follows from
    J_n' = (J_{n-1} - J_{n+1}) / 2 and J_0' = -J_1.
    """
    c = dist._fourier(top + 1)
    a = c + (-1.0) ** np.arange(top + 2) * c.conj()  # c_{-n} = conj(c_n)
    a[0] = c[0]
    below = np.concatenate(([0.0, 2.0 * a[0]], a[1:top]))  # a_{n-1}, a_0 counted twice
    return a[: top + 1], 0.5 * (a[1:] - below)


def _rho_and_slope(d: float, a: list[complex], b: list[complex]) -> tuple[complex, complex]:
    """rho(d) and d rho / d d from :func:`_series` coefficients up to _series_order(2 pi d)."""
    jn = _bessel_jn(2.0 * math.pi * d, len(a) - 1)
    return sum(map(mul, a, jn)), 2.0 * math.pi * sum(map(mul, b, jn))


def spatial_corr(d: float, dist: AodDistribution) -> complex:
    """Spatial correlation of two omni antennas ``d`` wavelengths apart.

    Evaluates the AoD-averaged phase factor E[exp(-j*k*d*sin(phi))]
    with wavenumber k = 2*pi per wavelength as the Jacobi-Anger series
    sum_n c_n J_n(k*d) over the law's Fourier coefficients c_n (c_n = 0
    for n != 0 under the isotropic law, so rho = J0(k*d)). Absolute
    error against an mpmath integral stays below 1e-14 over the
    accepted spreads. A ``d`` that is not finite or lies outside
    [0, 64] wavelengths, the spacing solver's range, is a ValueError.
    """
    if not 0.0 <= d <= _SCAN_MAX_WAVELENGTHS:
        raise ValueError(f"separation d must lie in [0, 64] wavelengths, got {d!r}")
    a, b = _series(dist, _series_order(2.0 * math.pi * d))
    return complex(_rho_and_slope(d, a.tolist(), b.tolist())[0])


def spatial_corr_matrix(d: float, dist: AodDistribution) -> CorrelationMatrix:
    """Hermitian 2x2 correlation [[1, rho], [conj(rho), 1]] at spacing ``d``."""
    return CorrelationMatrix.from_coefficient(spatial_corr(d, dist))


@functools.lru_cache(maxsize=None)
def _grid_table(chunk: int) -> np.ndarray:
    """Read-only J_n(2 pi d), shape (steps, orders), on the steps of scan chunk ``chunk``.

    Orders reach _series_order at the chunk's last step; no AoD law enters.
    Runs :func:`_bessel_jn`'s recurrence on all steps at once from the
    common order ``top``, so every column equals its scalar counterpart
    bit for bit. Its rescale never fires here: the largest unnormalized
    value, at the first grid step (x = 0.063, top = 61), is about 2e175.
    """
    first = chunk * _SCAN_CHUNK + 1
    last = min(first + _SCAN_CHUNK - 1, _SCAN_STEPS)
    top = _series_order(2.0 * math.pi * last * _SCAN_STEP)
    two_over_x = 2.0 / (2.0 * math.pi * np.arange(first, last + 1) * _SCAN_STEP)
    vals = np.zeros((top + 1, two_over_x.size))
    j_next, j = np.zeros_like(two_over_x), np.ones_like(two_over_x)
    for n in range(top, 0, -1):
        vals[n] = j
        j_next, j = j, n * two_over_x * j - j_next
    vals[0] = j
    # an axis-0 sum adds row after row, in the order of _bessel_jn's sum()
    scale = 1.0 / (vals[0] + 2.0 * vals[2::2].sum(axis=0))
    table = np.ascontiguousarray((vals * scale).T)
    table.flags.writeable = False
    return table


def _refine(lo: float, hi: float, target: float, a: list, b: list) -> tuple[float | None, float]:
    """(first root of |rho(d)| = target in [lo, hi] or None, smallest |rho| seen).

    |rho(lo)| > target, and either |rho(hi)| <= target or |rho| has one
    minimum inside. Newton steps on |rho|, of slope Re(conj(rho) rho') / |rho|,
    become bisection steps when they leave the interval. The upper end
    moves to any point below the target or where |rho| rises, so an
    interval with no root shrinks onto the minimum and gives None.
    """
    d, m_min = hi, math.inf
    for _ in range(100):
        if hi - lo <= 1e-9:
            break
        rho, slope = _rho_and_slope(d, a, b)
        m = abs(rho)
        m_min = min(m_min, m)
        if abs(m - target) <= _RHO_TOL:
            return d, m_min
        df = (rho.conjugate() * slope).real / m if m else 0.0
        if m < target or df > 0.0:
            hi = d
        else:
            lo = d
        d_next = d - (m - target) / df if df else lo
        d = d_next if lo < d_next < hi else 0.5 * (lo + hi)
    return None, m_min


def equivalent_spacing(query: SpacingQuery) -> float:
    """Smallest antenna spacing, in wavelengths, whose |spatial correlation| hits the target.

    Solves |rho(d)| = target_rho on the first branch of |rho|, for
    either AoD law. A scan in 0.01-wavelength steps, one product with a
    shared Bessel table per 256 steps, stops at the first step with
    |rho| <= target or at the first local minimum of |rho|. Safeguarded
    Newton steps (:func:`_refine`) then solve to ||rho| - target| <= 5e-7,
    also where |rho| dips to the target between two steps (a zero of J0).

    Raises
    ------
    NoSolutionError
        If the first local minimum of |rho| stays above the target, or
        no crossing occurs within 64 wavelengths; wide Laplacian spreads
        develop a first local minimum of |rho| well above zero, so small
        targets can be unreachable.
    """
    target = query.target_rho
    if target == 1.0:
        return 0.0
    k_prev, m_prev = 0, 1.0  # last scan step above the target, and its |rho|
    for chunk in range(-(-_SCAN_STEPS // _SCAN_CHUNK)):
        table = _grid_table(chunk)
        a, b = _series(query.distribution, table.shape[1] - 1)
        ms = np.append(m_prev, np.hypot(table @ a.real, table @ a.imag))  # from step k_prev
        stops = np.flatnonzero((ms[1:] <= target) | (ms[1:] > ms[:-1])).tolist()
        if not stops:
            k_prev, m_prev = k_prev + table.shape[0], ms[-1]
            continue
        k_prev, m_prev = k_prev + stops[0], ms[stops[0]]
        # a crossing lies in [k_prev, k_prev + 1]; where |rho| rose
        # instead, its minimum lies in [k_prev - 1, k_prev + 1]
        lo = k_prev if ms[stops[0] + 1] <= target else max(k_prev - 1, 0)
        hi = (k_prev + 1) * _SCAN_STEP
        d, m_min = _refine(lo * _SCAN_STEP, hi, target, a.tolist(), b.tolist())
        if d is not None:
            return d
        m_min = min(m_min, m_prev)
        raise NoSolutionError(
            f"target |rho| = {target:.6g} is below the minimum achievable "
            f"{m_min:.6g} on [0, {k_prev * _SCAN_STEP:.4g}] wavelengths; "
            f"achievable range is [{m_min:.6g}, 1]"
        )
    raise NoSolutionError(
        f"no crossing of |rho| = {target:.6g} within "
        f"{_SCAN_MAX_WAVELENGTHS:.0f} wavelengths"
    )
