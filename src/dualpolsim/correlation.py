"""Transmit-correlation math for the dual-polarization channel model.

Covers four related pieces:

* the port-to-port correlation coefficient implied by a given
  cross-polarization discrimination (XPD), in both its exact and
  high-XPD approximate forms,
* the spatial correlation of a two-element omnidirectional array under
  isotropic or Laplacian angle-of-departure (AoD) statistics,
* the principal square root used to impose a transmit correlation on
  an i.i.d. fading matrix,
* the inverse problem: the antenna spacing whose spatial correlation
  magnitude matches a requested coefficient ("equivalent spacing").

Antenna spacings are in wavelengths throughout. A 2x2 correlation is
held as its one coefficient rho (:class:`CorrelationMatrix`), which is
checked once, when it is built.

Everything here is a pure function of its arguments. The only
module-level data are read-only Bessel tables on the spacing solver's
scan grid, built on first use and shared by every caller; likewise
each AoD law computes its series coefficients once, on first use.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

__all__ = [
    "CorrelationMatrix",
    "AodDistribution",
    "SpacingQuery",
    "InvalidCorrelationError",
    "NoSolutionError",
    "bessel_j0",
    "dualpole_corr_exact",
    "dualpole_corr_approx",
    "matrix_sqrt_psd",
    "spatial_corr",
    "equivalent_spacing",
]

#: First positive zero of the Bessel function J0 (tabulated).
J0_FIRST_ZERO = 2.404825557695773

#: Laplacian angle spreads accepted, in degrees: the range the tests cover.
#: It keeps the law's scale finite and nonzero; the series needs no bound.
LAPLACIAN_SPREAD_DEG = (1.5, 360.0)

_RHO_TOL = 5e-7          # largest ||rho| - target| at which the spacing solve stops
_SCAN_STEP = 0.01        # bracket scan step of the spacing solve, in wavelengths
_SCAN_CHUNK = 256        # scan steps per precomputed Bessel table
_SCAN_MAX_WAVELENGTHS = 64.0
_SCAN_STEPS = round(_SCAN_MAX_WAVELENGTHS / _SCAN_STEP)


class InvalidCorrelationError(ValueError):
    """Raised for a correlation coefficient that is not finite or exceeds 1 in magnitude."""


class NoSolutionError(ValueError):
    """Raised when no spacing reaches the requested correlation magnitude."""


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """2x2 transmit correlation [[1, rho], [conj(rho), 1]], held as its coefficient rho.

    The constructor checks that rho is finite with |rho| <= 1 + 1e-12
    and raises :class:`InvalidCorrelationError` otherwise. The matrix is
    then Hermitian with a unit diagonal by construction, and its
    eigenvalues 1 -+ |rho| make it positive semidefinite down to
    1 - |rho| >= -1e-12, so no other code checks a correlation again.
    """

    coefficient: complex

    def __post_init__(self) -> None:
        rho = complex(self.coefficient)
        if not cmath.isfinite(rho):
            raise InvalidCorrelationError("correlation matrix has non-finite entries")
        if abs(rho) > 1.0 + 1e-12:
            raise InvalidCorrelationError("off-diagonal magnitude exceeds 1")
        object.__setattr__(self, "coefficient", rho)

    @classmethod
    def from_coefficient(cls, rho: complex) -> "CorrelationMatrix":
        """Same as ``CorrelationMatrix(rho)``; acceptance criterion 7 builds through it."""
        return cls(rho)

    @property
    def matrix(self) -> np.ndarray:
        """The read-only complex array [[1, rho], [conj(rho), 1]]."""
        rho = self.coefficient
        m = np.array([[1.0, rho], [rho.conjugate(), 1.0]])
        m.flags.writeable = False
        return m

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues 1 - |rho|, 1 + |rho|, from numpy's Hermitian solver."""
        return np.linalg.eigvalsh(self.matrix)


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
            if not -math.pi <= self.mean_aod <= math.pi:
                raise ValueError("mean AoD must lie in [-180, 180] degrees")
            lo, hi = LAPLACIAN_SPREAD_DEG
            if not math.radians(lo) <= self.angle_spread <= math.radians(hi):
                raise ValueError(f"AoD spread must lie in [{lo:g}, {hi:g}] degrees")

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

    @functools.cached_property
    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only a, b with rho(d) = sum a_n J_n(x), rho'(d) = 2 pi sum b_n J_n(x).

        Here x = 2*pi*d, and n runs to the series order at 64
        wavelengths, the largest spacing. They are computed once per
        law, and callers slice them to the order they need. By Jacobi-Anger,
        rho = sum over all integers n of c_n J_n(x) with the law's
        c_n = E[exp(-j n phi)]; a folds the negative orders in with
        J_{-n} = (-1)^n J_n, and b follows from
        J_n' = (J_{n-1} - J_{n+1}) / 2 and J_0' = -J_1.
        """
        top = _series_order(2.0 * math.pi * _SCAN_MAX_WAVELENGTHS)
        c = self._fourier(top + 1)
        a = c + (-1.0) ** np.arange(top + 2) * c.conj()  # c_{-n} = conj(c_n)
        a[0] = c[0]
        below = np.concatenate(([0.0, 2.0 * a[0]], a[1:top]))  # a_{n-1}, a_0 counted twice
        a, b = a[: top + 1], 0.5 * (a[1:] - below)
        a.flags.writeable = b.flags.writeable = False
        return a, b

    def _fourier(self, top: int) -> np.ndarray:
        """c_n = E[exp(-j n phi)] for n = 0..top, in closed form; c_{-n} = conj(c_n)."""
        n = np.arange(top + 1)
        if self.kind == "isotropic":
            return (n == 0).astype(complex)
        b = math.sqrt(2.0) / self.angle_spread
        mu = self.mean_aod
        up, down = b + 1j * n, b - 1j * n
        c = (0.5 * b / self._normalization()) * np.exp(-1j * n * mu) * (
            (1.0 - np.exp(-up * (math.pi - mu))) / up
            + (1.0 - np.exp(-down * (math.pi + mu))) / down
        )
        c[0] = 1.0  # the law's mass, which the closed form misses by up to 3e-16
        return c


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


def _bessel_jn(x, top: int) -> list:
    """J_0(x), ..., J_top(x) by Miller's backward recurrence, for one x or a scan grid.

    ``x`` is a float in [0, 2*pi*64] or an array of scan-grid arguments,
    which gives one row per order. J_{n-1} = (2n/x) J_n - J_{n+1} starts
    at order ``top`` >= :func:`_series_order` of the largest x and is
    normalized by J_0 + 2 sum_k J_2k = 1, summed order after order, so a
    row's elements equal the float results bit for bit. The sum runs left
    to right, not through the builtin ``sum``, which compensates floats
    since Python 3.12. Only floats need the tiny-x guard and the rescale:
    the grid's largest unnormalized value, at x = 2*pi*0.01 with
    top = 61, is about 2e175.
    """
    grid = isinstance(x, np.ndarray)
    if not grid and x < 1e-50:  # J_0 = 1 and |J_n| < 1e-50 here, and 2n/x would overflow
        return [1.0] + [0.0] * top
    vals = [0.0] * (top + 1)
    two_over_x = 2.0 / x
    j_next, j = 0.0 * x, 0.0 * x + 1.0  # 0 and 1, shaped like x
    for n in range(top, 0, -1):
        vals[n] = j
        j_next, j = j, n * two_over_x * j - j_next
        if not grid and abs(j) > 1e250:  # rescale before the next step can overflow
            vals[n:] = [v * 1e-250 for v in vals[n:]]
            j_next, j = j_next * 1e-250, j * 1e-250
    vals[0] = j
    scale = 1.0 / (vals[0] + 2.0 * functools.reduce(add, vals[2::2], 0.0))
    return [v * scale for v in vals]


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
    out = np.array([_bessel_jn(v, _series_order(v))[0]
                    for v in x_arr.ravel().tolist()]).reshape(x_arr.shape)
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
    return CorrelationMatrix(min(rho, 1.0))


def dualpole_corr_approx(chi: float) -> CorrelationMatrix:
    """High-XPD approximation of :func:`dualpole_corr_exact` for equal ports.

    The coefficient is 2/sqrt(chi), clamped to 1. It exceeds 1 below
    chi = 4 (6 dB), where the approximation no longer holds; a caller
    that needs to know compares its own ``chi`` with 4.
    """
    return CorrelationMatrix(min(2.0 / math.sqrt(_check_xpd(chi, "chi")), 1.0))


# ---------------------------------------------------------------------------
# PSD square root
# ---------------------------------------------------------------------------


def matrix_sqrt_psd(corr: CorrelationMatrix) -> np.ndarray:
    """Principal square root of a correlation matrix R = [[1, rho], [conj(rho), 1]].

    Uses the 2x2 closed form (R + s I) / sqrt(2 + 2 s) with
    s = sqrt(max(1 - |rho|^2, 0)) = sqrt(det R), which squares to R by
    the Cayley-Hamilton identity R^2 = tr(R) R - det(R) I. The clip at 0
    takes |rho| in (1, 1 + 1e-12], which the constructor admits, as
    |rho| = 1.
    """
    off = abs(corr.coefficient)
    s = math.sqrt(max(1.0 - off * off, 0.0))
    return (corr.matrix + s * np.eye(2)) / math.sqrt(2.0 + 2.0 * s)


# ---------------------------------------------------------------------------
# spatial correlation and its inverse
# ---------------------------------------------------------------------------


def _rho_and_slope(d: float, a: list[complex], b: list[complex]) -> tuple[complex, complex]:
    """rho(d) and d rho / d d from slices of :attr:`AodDistribution._coefficients`.

    ``a`` and ``b`` run to order _series_order(2 pi d) or beyond; the
    recurrence starts at their last order.
    """
    jn = _bessel_jn(2.0 * math.pi * d, len(a) - 1)
    return sum(map(mul, a, jn)), 2.0 * math.pi * sum(map(mul, b, jn))


def spatial_corr(d: float, dist: AodDistribution) -> complex:
    """Spatial correlation of two omni antennas ``d`` wavelengths apart.

    Evaluates the AoD-averaged phase factor E[exp(-j*k*d*sin(phi))]
    with wavenumber k = 2*pi per wavelength as the Jacobi-Anger series
    sum_n c_n J_n(k*d) over the law's Fourier coefficients c_n (c_n = 0
    for n != 0 under the isotropic law, so rho = J0(k*d)), with J_n from
    :func:`_bessel_jn`, the recurrence of the solver's scan tables. Absolute
    error against an mpmath integral stays below 1e-14 over the
    accepted spreads. A ``d`` that is not finite or lies outside
    [0, 64] wavelengths, the spacing solver's range, is a ValueError.
    """
    if not 0.0 <= d <= _SCAN_MAX_WAVELENGTHS:
        raise ValueError(f"separation d must lie in [0, 64] wavelengths, got {d!r}")
    x = 2.0 * math.pi * d
    a = dist._coefficients[0][: _series_order(x) + 1].tolist()
    return complex(sum(map(mul, a, _bessel_jn(x, len(a) - 1))))


@functools.lru_cache(maxsize=None)
def _grid_table(chunk: int) -> np.ndarray:
    """Read-only J_n(2 pi d), shape (steps, orders), on the steps of scan chunk ``chunk``.

    Orders reach _series_order at the chunk's last step; no AoD law enters.
    One :func:`_bessel_jn` call on the chunk's arguments, so every row
    equals the float recurrence at its step bit for bit.
    """
    first = chunk * _SCAN_CHUNK + 1
    last = min(first + _SCAN_CHUNK - 1, _SCAN_STEPS)
    x = 2.0 * math.pi * np.arange(first, last + 1) * _SCAN_STEP
    rows = _bessel_jn(x, _series_order(2.0 * math.pi * last * _SCAN_STEP))
    table = np.ascontiguousarray(np.array(rows).T)
    table.flags.writeable = False
    return table


def _refine(lo: float, hi: float, target: float, a: list, b: list) -> tuple[float | None, float]:
    """(first root of |rho(d)| = target in [lo, hi] or None, smallest |rho| seen).

    |rho(lo)| > target, and either |rho(hi)| <= target or |rho| has one
    minimum inside. Newton steps on |rho|, of slope Re(conj(rho) rho') / |rho|,
    become bisection steps when they leave the interval. The upper end
    moves to any point below the target or where |rho| rises, so an
    interval with no root shrinks onto the minimum and gives None. The
    stop at ||rho| - target| <= min(5e-7, 1e-3 (1 - target)), floored at
    4e-16, bounds d also near rho = 1, where 1 - |rho| ~ d^2 is flat.
    """
    tol = max(min(_RHO_TOL, 1e-3 * (1.0 - target)), 4e-16)
    d, m_min = hi, math.inf
    for _ in range(100):
        if hi - lo <= 1e-9:
            break
        rho, slope = _rho_and_slope(d, a, b)
        m = abs(rho)
        m_min = min(m_min, m)
        if abs(m - target) <= tol:
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
    Newton steps (:func:`_refine`) then solve |rho| = target to 5e-7 (less
    near 1), also where |rho| dips to the target between two steps.

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
        a, b = (c[: table.shape[1]] for c in query.distribution._coefficients)
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
