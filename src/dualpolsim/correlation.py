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

Everything here is a pure function of its arguments; the module keeps
no state and is safe to call from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: Laplacian angle spreads accepted, in degrees: below 1.5 deg the fixed
#: quadrature panels stop resolving the density (error above 1e-10).
LAPLACIAN_SPREAD_DEG = (1.5, 360.0)

_RHO_TOL = 1e-6          # |rho| tolerance of the spacing solver
_SCAN_STEP = 0.01        # bracket scan step for the Laplacian inverse, in wavelengths
_SCAN_MAX_WAVELENGTHS = 64.0


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
# Bessel J0
# ---------------------------------------------------------------------------

_J0_SERIES_CUTOFF = 14.0
_J0_SERIES_TERMS = 48
_J0_HANKEL_TERMS = 9


def _hankel_coefficients(n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the large-argument cosine/sine expansions of J0.

    The cosine series has terms p[k] / x**(2k), the sine series
    q[k] / x**(2k+1); both alternate in sign with double-factorial
    numerators.
    """

    def dfact(n: int) -> int:
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    p = np.empty(n_terms)
    q = np.empty(n_terms)
    for k in range(n_terms):
        p[k] = (-1.0) ** k * dfact(4 * k - 1) ** 2 / (
            math.factorial(2 * k) * 8.0 ** (2 * k)
        )
        q[k] = (-1.0) ** (k + 1) * dfact(4 * k + 1) ** 2 / (
            math.factorial(2 * k + 1) * 8.0 ** (2 * k + 1)
        )
    return p, q


_J0_P, _J0_Q = _hankel_coefficients(_J0_HANKEL_TERMS)


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Power series below ``x = 14``, Hankel's large-argument expansion
    above; absolute error below 1e-10 on [0, 20]. Accepts scalars or
    arrays and mirrors numpy's scalar/array return convention.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)

    small = x_arr < _J0_SERIES_CUTOFF
    if np.any(small):
        xs = x_arr[small]
        quarter_sq = 0.25 * xs * xs
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for m in range(1, _J0_SERIES_TERMS + 1):
            term *= -quarter_sq / (m * m)
            acc += term
        out[small] = acc

    if np.any(~small):
        xl = x_arr[~small]
        inv_sq = 1.0 / (xl * xl)
        p = np.full_like(xl, _J0_P[-1])
        for c in _J0_P[-2::-1]:
            p = p * inv_sq + c
        q = np.full_like(xl, _J0_Q[-1])
        for c in _J0_Q[-2::-1]:
            q = q * inv_sq + c
        q /= xl
        phase = xl - 0.25 * math.pi
        out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (
            p * np.cos(phase) - q * np.sin(phase)
        )

    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


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

_GL_NODES_PER_PANEL = 24
_GL_BASE = np.polynomial.legendre.leggauss(_GL_NODES_PER_PANEL)


def _laplacian_rule(max_d: float, dist: AodDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule (sin(phi), w * pdf(phi)) of the truncated Laplacian.

    Composite Gauss-Legendre on the two smooth pieces either side of
    the density kink at the mean AoD; the panel count grows with
    k * max_d so the oscillatory factor stays resolved for every
    spacing up to ``max_d`` wavelengths.
    """
    panels_per_side = max(4, int(math.ceil(2.0 * math.pi * max_d / 4.0)))
    nodes = []
    weights = []
    for lo, hi in ((-math.pi, dist.mean_aod), (dist.mean_aod, math.pi)):
        if hi - lo <= 0.0:
            continue
        edges = np.linspace(lo, hi, panels_per_side + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            nodes.append(0.5 * (a + b) + half * _GL_BASE[0])
            weights.append(half * _GL_BASE[1])
    phi = np.concatenate(nodes)
    return np.sin(phi), np.concatenate(weights) * dist.pdf(phi)


def _laplacian_rho(d: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """E[exp(-j*k*d*sin(phi))] for each spacing in ``d`` (wavelengths) under ``rule``."""
    sin_phi, w = rule
    return np.exp(-1j * np.outer(2.0 * math.pi * d, sin_phi)) @ w


def spatial_corr(d: float, dist: AodDistribution) -> complex:
    """Spatial correlation of two omni antennas ``d`` wavelengths apart.

    Evaluates the AoD-averaged phase factor E[exp(-j*k*d*sin(phi))]
    with wavenumber k = 2*pi per wavelength. The isotropic case is the
    closed form J0(k*d); the Laplacian case is quadrature over the
    truncated, renormalized density (absolute error <= 1e-8).
    """
    if d < 0:
        raise ValueError("separation d must be >= 0")
    if dist.kind == "isotropic":
        return complex(bessel_j0(2.0 * math.pi * d), 0.0)
    return complex(_laplacian_rho(np.array([d]), _laplacian_rule(d, dist))[0])


def spatial_corr_matrix(d: float, dist: AodDistribution) -> CorrelationMatrix:
    """Hermitian 2x2 correlation [[1, rho], [conj(rho), 1]] at spacing ``d``."""
    return CorrelationMatrix.from_coefficient(spatial_corr(d, dist))


def _laplacian_bracket(dist: AodDistribution, target: float) -> tuple[float, float]:
    """Scan |rho(d)| outward to bracket the first crossing of ``target``.

    Stops at the first local minimum of |rho|; if that minimum is still
    above the target, the target is unreachable on the first branch.
    """
    d_prev, m_prev = 0.0, 1.0
    n_steps = int(_SCAN_MAX_WAVELENGTHS / _SCAN_STEP)
    chunk = 256
    for start in range(1, n_steps + 1, chunk):
        ds = np.arange(start, min(start + chunk, n_steps + 1)) * _SCAN_STEP
        ms = np.abs(_laplacian_rho(ds, _laplacian_rule(ds[-1], dist)))
        for d_cur, m_cur in zip(ds, ms):
            if m_cur <= target:
                return d_prev, float(d_cur)
            if m_cur > m_prev:
                raise NoSolutionError(
                    f"target |rho| = {target:.6g} is below the minimum achievable "
                    f"{m_prev:.6g} on [0, {d_prev:.4g}] wavelengths; "
                    f"achievable range is [{m_prev:.6g}, 1]"
                )
            d_prev, m_prev = float(d_cur), float(m_cur)
    raise NoSolutionError(
        f"no crossing of |rho| = {target:.6g} within "
        f"{_SCAN_MAX_WAVELENGTHS:.0f} wavelengths"
    )


def equivalent_spacing(query: SpacingQuery) -> float:
    """Smallest antenna spacing, in wavelengths, whose |spatial correlation| hits the target.

    Solves |rho(d)| = target_rho by bisection on the first branch of
    the (oscillatory) correlation magnitude. For the isotropic law the
    bracket is [0, first zero of J0]; for the Laplacian law it is found
    by scanning to the first local minimum of |rho|, and one quadrature
    rule, sized to the bracket's upper end, serves every bisection step.

    Raises
    ------
    NoSolutionError
        If the target magnitude is below the minimum reachable on the
        bracket; wide Laplacian spreads develop a first local minimum
        of |rho| well above zero, so small targets can be unreachable.
    """
    target = query.target_rho
    dist = query.distribution
    if target == 1.0:
        return 0.0

    if dist.kind == "isotropic":
        lo, hi = 0.0, J0_FIRST_ZERO / (2.0 * math.pi)

        def abs_rho(d):
            return abs(bessel_j0(2.0 * math.pi * d))
    else:
        lo, hi = _laplacian_bracket(dist, target)
        rule = _laplacian_rule(hi, dist)

        def abs_rho(d):
            return abs(_laplacian_rho(np.array([d]), rule)[0])

    f_lo = abs_rho(lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = abs_rho(mid) - target
        if abs(f_mid) <= _RHO_TOL * 0.5:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
