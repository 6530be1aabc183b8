"""Azimuth radiation patterns of a two-port dual-polarized antenna.

A pattern holds co- and cross-polarized power gains sampled uniformly
around the azimuth cut for both ports. Gains are stored linear; files
carry them in dBi. Patterns are immutable after construction and all
operations are pure, so they can be shared freely across workers.
One lookup at an azimuth serves both ports: :func:`gain_at` returns the
co- and cross-polarized gains and :func:`xpd_at` the XPDs, each as a
(2,) array indexed by port - 1; an array of azimuths gets one column
per azimuth.

File format (plain text CSV):

    azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi

One header line, then data rows; ``#`` starts a comment. Azimuths are
strictly increasing degrees, spanning less than one turn, whose every
step, the one across +-180 degrees included, lies within
:data:`STEP_TOL_DEG` degrees of 360/n. :class:`RadiationPattern`
states the grid and gain rules; :func:`load_pattern` only reads rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadiationPattern",
    "PatternFormatError",
    "load_pattern",
    "gain_at",
    "xpd_at",
    "scale_to_xpd",
]

MIN_SAMPLES = 8

#: Largest deviation of any azimuth step from 360/n, in degrees: six printed decimals.
STEP_TOL_DEG = 1e-6

#: Largest magnitude accepted for a dB input (pattern gain, XPD, path
#: loss, noise density): the linear value 10**(x/10) and its reciprocal
#: then stay in [1e-30, 1e30], far from float overflow, and no physical
#: link comes near the bound.
MAX_ABS_DB = 300.0

_TWO_PI = 2.0 * math.pi


class PatternFormatError(ValueError):
    """Raised for a malformed pattern file; the message names the line."""


def _wrap_angle(phi: float | np.ndarray):
    """Wrap radians into [-pi, pi); a float stays a float, an array an array."""
    wrapped = (phi + math.pi) % _TWO_PI - math.pi
    # the modulo rounds up to 2 pi for phi a rounding error below -pi
    return wrapped - _TWO_PI * (wrapped == math.pi)


@dataclass(frozen=True, eq=False)
class RadiationPattern:
    """Uniformly sampled azimuth gains for two ports.

    ``angles`` are at least :data:`MIN_SAMPLES` radians, strictly
    ascending over [-pi, pi), with every step, the one across +-pi
    included, within :data:`STEP_TOL_DEG` degrees of 2*pi/n. ``co`` and
    ``cross`` are (2, n) arrays of positive, finite linear power gains,
    one row per port. The constructor is the one place these rules are
    checked; a breach raises ``ValueError``.
    """

    angles: np.ndarray
    co: np.ndarray
    cross: np.ndarray

    def __post_init__(self) -> None:
        angles = np.array(self.angles, dtype=float)
        co = np.array(self.co, dtype=float)
        cross = np.array(self.cross, dtype=float)
        n = angles.size
        if n < MIN_SAMPLES:
            raise ValueError(f"too few samples: {n} < {MIN_SAMPLES}")
        if co.shape != (2, n) or cross.shape != (2, n):
            raise ValueError("gain arrays must have shape (2, n_samples)")
        for name, arr in (("angle", angles), ("co", co), ("cross", cross)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} values must be finite")
        if not (np.all(co > 0) and np.all(cross > 0)):
            raise ValueError("linear gains must be positive")
        steps = np.append(np.diff(angles), angles[0] + _TWO_PI - angles[-1])
        if np.any(steps[:-1] <= 0):
            raise ValueError("angles must be strictly increasing")
        if angles[0] < -math.pi or angles[-1] >= math.pi:
            raise ValueError("angles must lie in [-pi, pi)")
        if np.max(np.abs(steps - _TWO_PI / n)) > math.radians(STEP_TOL_DEG):
            raise ValueError(f"sampling must be uniform over one full turn: each step, the one "
                             f"across +-180 deg included, within {STEP_TOL_DEG:g} deg of 360/{n}")
        for arr in (angles, co, cross):
            arr.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "co", co)
        object.__setattr__(self, "cross", cross)

    @property
    def n_samples(self) -> int:
        return self.angles.size

    @property
    def step(self) -> float:
        return _TWO_PI / self.n_samples


def load_pattern(source: str) -> RadiationPattern:
    """Parse pattern-file content into a :class:`RadiationPattern`.

    The first non-comment line is the header and is skipped. Gains are
    converted from dBi to linear; azimuths are wrapped into [-pi, pi)
    and rotated into ascending order. The reader checks only what needs
    the file's lines or row order; the grid rules are the ones
    :class:`RadiationPattern` states.

    Raises
    ------
    PatternFormatError
        Empty file, malformed row, non-finite azimuth, gain beyond
        +-:data:`MAX_ABS_DB` dBi, non-monotone or duplicate angles, rows
        spanning a full turn or more (their wrapped angles would land on
        another grid), or any breach of the :class:`RadiationPattern`
        rules; the message names the offending line where one exists.
    """
    rows: list[tuple[int, float, float, float, float, float]] = []
    header_seen = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise PatternFormatError(
                f"line {lineno}: expected 5 comma-separated fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise PatternFormatError(f"line {lineno}: non-numeric field in {line!r}") from None
        if not (math.isfinite(values[0]) and all(abs(v) <= MAX_ABS_DB for v in values[1:])):
            raise PatternFormatError(
                f"line {lineno}: need a finite azimuth and gains within +-{MAX_ABS_DB:g} dBi"
            )
        rows.append((lineno, *values))

    if not header_seen:
        raise PatternFormatError("empty pattern file")
    if not rows:
        raise PatternFormatError("pattern file has a header but no data rows")

    for (ln_a, deg_a, *_), (ln_b, deg_b, *_) in zip(rows[:-1], rows[1:]):
        if deg_b == deg_a:
            raise PatternFormatError(f"line {ln_b}: duplicate angle {deg_b} deg")
        if deg_b < deg_a:
            raise PatternFormatError(
                f"line {ln_b}: angle {deg_b} deg is not increasing (previous {deg_a})"
            )

    if rows[-1][1] - rows[0][1] >= 360.0:
        raise PatternFormatError(f"line {rows[-1][0]}: rows must span less than one turn")

    deg = np.array([r[1] for r in rows])
    gains_db = np.array([r[2:] for r in rows])  # columns: co1, x1, co2, x2
    angles = np.asarray(_wrap_angle(np.radians(deg)))
    order = np.argsort(angles)
    angles = angles[order]
    gains = 10.0 ** (gains_db[order] / 10.0)
    try:
        return RadiationPattern(
            angles=angles,
            co=np.stack([gains[:, 0], gains[:, 2]]),
            cross=np.stack([gains[:, 1], gains[:, 3]]),
        )
    except ValueError as exc:
        raise PatternFormatError(str(exc)) from None


def _db_lerp(g_a: np.ndarray, g_b: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Interpolate linearly in dB from positive ``g_a`` (frac 0) to ``g_b`` (frac 1), elementwise.

    The logarithms and powers are libm's, ``math.log10`` and Python's
    ``**``, called per value: numpy's vectorized ``log10`` and ``power``
    round some values differently, which would move the gains, and so
    every pattern run's samples, by an ulp.
    """
    log10 = np.frompyfunc(math.log10, 1, 1)
    db_a, db_b = (10.0 * log10(g).astype(float) for g in (g_a, g_b))
    return np.frompyfunc(pow, 2, 1)(10.0, ((1.0 - frac) * db_a + frac * db_b) / 10.0).astype(float)


def gain_at(
    pattern: RadiationPattern, azimuth: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear ``(co, cross)`` gains at ``azimuth``, one row per port.

    A float ``azimuth`` gives two (2,) arrays; an array of azimuths of
    shape S gives two (2, *S) arrays, column for column equal to the
    float calls. Interpolates linearly in the dB domain between the two
    bracketing samples, periodically across +-pi; queries at sample
    angles return the stored values exactly; a non-finite azimuth
    raises ``ValueError``.
    """
    phi = np.asarray(azimuth, dtype=float)
    finite = np.isfinite(phi)
    if not finite.all():
        raise ValueError(f"azimuth must be finite, got {phi[~finite].flat[0].item()!r}")
    n = pattern.n_samples
    u = (_wrap_angle(phi.ravel()) - pattern.angles[0]) / pattern.step
    floor = np.floor(u)
    frac = u - floor
    i0 = floor.astype(np.intp) % n
    i1 = (i0 + 1) % n
    cuts = np.stack((pattern.co, pattern.cross))  # (cut, port, sample)
    # a query within 1e-12 steps of a sample reads that sample exactly
    gains = cuts[:, :, np.where(frac < 0.5, i0, i1)]
    lerp = (frac >= 1e-12) & (frac <= 1.0 - 1e-12)
    if lerp.any():
        gains[:, :, lerp] = _db_lerp(cuts[:, :, i0[lerp]], cuts[:, :, i1[lerp]], frac[lerp])
    return tuple(gains.reshape(2, 2, *phi.shape))


def xpd_at(pattern: RadiationPattern, azimuth: float | np.ndarray) -> np.ndarray:
    """Co-to-cross gain ratio of each port toward ``azimuth``, shaped as :func:`gain_at`'s.

    Positive, as every gain of a pattern is; finite for the gains a
    pattern file or :func:`scale_to_xpd` yields.
    """
    co, cross = gain_at(pattern, azimuth)
    return co / cross


def scale_to_xpd(
    pattern: RadiationPattern, target_xpd_db: float, reference_azimuth: float
) -> RadiationPattern:
    """Rescale the pattern so each port's XPD at the reference equals the target.

    Each port's co and cross cuts are multiplied by constants chosen so
    that (a) the XPD at ``reference_azimuth`` becomes ``target_xpd_db``
    for both ports and (b) each port's radiated power, the azimuth
    trapezoid integral of co+cross, is unchanged. Shapes within one
    polarization cut are untouched, so dB differences between angles
    are preserved.
    """
    if not math.isfinite(target_xpd_db):
        raise ValueError("target XPD must be finite (in dB)")
    target = 10.0 ** (target_xpd_db / 10.0)

    ratio = target / xpd_at(pattern, reference_azimuth)
    p_co = pattern.co.sum(axis=1)
    p_cross = pattern.cross.sum(axis=1)
    cross_scale = (p_co + p_cross) / (ratio * p_co + p_cross)
    co_scale = ratio * cross_scale
    return RadiationPattern(angles=pattern.angles, co=pattern.co * co_scale[:, None],
                            cross=pattern.cross * cross_scale[:, None])
