"""Tests for pattern parsing, gain interpolation, XPD and rescaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualpolsim.pattern import (
    STEP_TOL_DEG,
    PatternFormatError,
    RadiationPattern,
    _wrap_angle,
    gain_at,
    load_pattern,
    scale_to_xpd,
    xpd_at,
)

HEADER = "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"


def make_file(rows):
    return HEADER + "\n".join(
        ", ".join(str(v) for v in row) for row in rows
    ) + "\n"


def flat_file(n=36, co_db=6.0, cross_db=-14.0, start=0.0):
    step = 360.0 / n
    rows = [(start + i * step, co_db, cross_db, co_db, cross_db) for i in range(n)]
    return make_file(rows)


def directional_pattern(n=72):
    """Cardioid-like co cut with a milder cross cut; ports differ slightly."""
    angles = -180.0 + 360.0 / n * np.arange(n)
    rad = np.radians(angles)
    co1 = 6.0 + 8.0 * np.cos(rad / 2.0) ** 2
    cross1 = -14.0 + 5.0 * np.cos(rad)
    co2 = co1 - 0.8
    cross2 = cross1 + 1.1
    rows = list(zip(angles, co1, cross1, co2, cross2))
    return load_pattern(make_file(rows))


def pattern_total_power(pat):
    """Independent trapezoid oracle with an explicit periodic closure point."""
    angles = np.append(pat.angles, pat.angles[0] + 2.0 * math.pi)
    total = 0.0
    for port in (0, 1):
        for cut in (pat.co, pat.cross):
            gains = np.append(cut[port], cut[port][0])
            total += np.trapezoid(gains, angles)
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_load_pattern_converts_dbi_to_linear():
    pat = load_pattern(flat_file())
    # 10^(6/10) and 10^(-14/10)
    co, cross = gain_at(pat, 0.0)
    assert_allclose(co[0], 3.9810717055349722, rtol=1e-12)
    assert_allclose(cross[0], 0.039810717055349734, rtol=1e-12)


def test_load_pattern_single_row_is_too_few():
    content = make_file([(0.0, 6.0, -14.0, 6.0, -14.0)])
    with pytest.raises(PatternFormatError, match="too few samples"):
        load_pattern(content)


def test_load_pattern_wraps_350_to_minus_10():
    pat = load_pattern(flat_file(n=36, start=0.0))  # rows 0..350 deg
    wrapped = math.radians(-10.0)
    assert np.min(np.abs(pat.angles - wrapped)) < 1e-12
    assert pat.angles[0] == pytest.approx(-math.pi)
    assert np.all(np.diff(pat.angles) > 0)


def test_wrap_angle_a_rounding_error_below_minus_pi_is_minus_pi():
    # (phi + pi) % 2 pi rounds up to 2 pi here; the float and array paths
    # must both give -pi, never +pi
    phi = math.nextafter(-math.pi, -math.inf)
    assert phi == math.radians(-180.00000000000003)
    assert _wrap_angle(phi) == -math.pi
    assert _wrap_angle(np.array([phi, -math.pi, math.pi])).tolist() == [-math.pi] * 3
    rows = [(repr(-180.00000000000003 + 10.0 * i), 6.0, -14.0, 5.0, -11.0) for i in range(36)]
    pat = load_pattern(make_file(rows))
    assert pat.n_samples == 36 and pat.angles[0] == -math.pi


def test_load_pattern_empty_file():
    with pytest.raises(PatternFormatError, match="empty"):
        load_pattern("")
    with pytest.raises(PatternFormatError, match="no data rows"):
        load_pattern(HEADER)


def test_load_pattern_malformed_row_names_line():
    rows = [(i * 10.0, 6, -14, 6, -14) for i in range(36)]
    content = make_file(rows).splitlines()
    content[5] = "40.0, 6.0, oops, 6.0, -14.0"  # header is line 1, so this is line 6
    with pytest.raises(PatternFormatError, match="line 6"):
        load_pattern("\n".join(content))
    content[5] = "40.0, 6.0, -14.0"
    with pytest.raises(PatternFormatError, match="line 6.*5 comma-separated"):
        load_pattern("\n".join(content))


def test_load_pattern_duplicate_angle_names_line():
    rows = [(i * 10.0, 6, -14, 6, -14) for i in range(36)]
    rows[7] = (60.0, 6, -14, 6, -14)  # same as row 6
    with pytest.raises(PatternFormatError, match="line 9.*duplicate"):
        load_pattern(make_file(rows))


def test_load_pattern_non_monotone_names_line():
    rows = [(i * 10.0, 6, -14, 6, -14) for i in range(36)]
    rows[8] = (65.0, 6, -14, 6, -14)  # drops below the 70 at row 8 (line 9)
    with pytest.raises(PatternFormatError, match="line 10.*not increasing"):
        load_pattern(make_file(rows))


def test_load_pattern_rejects_partial_turn():
    rows = [(i * 10.0, 6, -14, 6, -14) for i in range(18)]  # only 0..170
    with pytest.raises(PatternFormatError, match="full turn"):
        load_pattern(make_file(rows))


def test_load_pattern_rejects_rows_spanning_a_turn():
    # 0..640 at 80 deg steps would wrap onto a uniform 40 deg grid
    rows = [(i * 80.0, 6, -14, 6, -14) for i in range(9)]
    with pytest.raises(PatternFormatError, match="line 10.*less than one turn"):
        load_pattern(make_file(rows))


def test_load_pattern_third_degree_six_decimals():
    # 360/1080 is not a six-decimal number: each printed azimuth is off
    # its grid point by up to 5e-7 deg
    rows = [(f"{-180.0 + i / 3.0:.6f}", 6.0, -14.0, 5.0, -11.0) for i in range(1080)]
    pat = load_pattern(make_file(rows))
    assert pat.n_samples == 1080
    assert_allclose(pat.angles, -math.pi + pat.step * np.arange(1080), rtol=0, atol=1e-8)


@given(n=st.integers(min_value=1, max_value=1100),
       start=st.floats(min_value=-720.0, max_value=720.0),
       jitter=st.floats(min_value=0.0, max_value=2e-6),
       fmt=st.sampled_from(["{:.6f}", "{:.9f}", "{!r}", "{:.3f}", "{:g}"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_load_pattern_grid_property(n, start, jitter, fmt, seed):
    offsets = np.random.default_rng(seed).uniform(-jitter, jitter, n)
    deg = start + 360.0 / n * np.arange(n) + offsets
    rows = [(fmt.format(a), 6.0, -14.0, 5.0, -11.0) for a in deg.tolist()]
    try:
        pat = load_pattern(make_file(rows))
    except PatternFormatError:
        return
    assert pat.n_samples == n
    steps = np.diff(np.append(pat.angles, pat.angles[0] + 2.0 * math.pi))
    assert np.max(np.abs(steps - pat.step)) <= math.radians(STEP_TOL_DEG)


def test_load_pattern_skips_comments_and_blank_lines():
    body = flat_file().splitlines()
    body.insert(3, "# a comment")
    body.insert(5, "")
    pat = load_pattern("\n".join(body))
    assert pat.n_samples == 36


def test_radiation_pattern_invariants():
    n = 16
    angles = -math.pi + 2 * math.pi / n * np.arange(n)
    good = np.ones((2, n))
    RadiationPattern(angles=angles, co=good, cross=good)
    with pytest.raises(ValueError, match="too few samples"):
        RadiationPattern(angles=angles[:4], co=good[:, :4], cross=good[:, :4])
    with pytest.raises(ValueError, match="positive"):
        RadiationPattern(angles=angles, co=-good, cross=good)
    with pytest.raises(ValueError, match="finite"):
        bad = good.copy()
        bad[0, 0] = math.inf
        RadiationPattern(angles=angles, co=bad, cross=good)
    with pytest.raises(ValueError, match="uniform"):
        RadiationPattern(angles=np.sort(np.random.default_rng(0).uniform(-3, 3, n)),
                         co=good, cross=good)
    # each inner step is within tolerance, but their drift piles up in
    # the step across +-pi
    drift = 0.9 * math.radians(STEP_TOL_DEG)
    with pytest.raises(ValueError, match="across"):
        RadiationPattern(angles=-math.pi + (2 * math.pi / n + drift) * np.arange(n),
                         co=good, cross=good)


def test_radiation_pattern_rejects_zero_gain():
    n = 16
    angles = -math.pi + 2 * math.pi / n * np.arange(n)
    for cut in ("co", "cross"):
        gains = {"co": np.ones((2, n)), "cross": np.ones((2, n))}
        gains[cut][1, 3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            RadiationPattern(angles=angles, **gains)
    ones = np.ones((2, n))
    for kwargs, message in [
        (dict(angles=angles, co=np.ones((3, n)), cross=ones),
         r"^gain arrays must have shape \(2, n_samples\)$"),
        (dict(angles=angles[::-1], co=ones, cross=ones), "^angles must be strictly increasing$"),
        (dict(angles=angles + math.pi, co=ones, cross=ones), r"^angles must lie in \[-pi, pi\)$"),
    ]:
        with pytest.raises(ValueError, match=message):
            RadiationPattern(**kwargs)


# ---------------------------------------------------------------------------
# gain interpolation
# ---------------------------------------------------------------------------


def test_gain_at_exact_on_samples():
    pat = directional_pattern()
    for idx in (0, 5, 33, 71):
        phi = float(pat.angles[idx])
        co, cross = gain_at(pat, phi)
        assert np.array_equal(co, pat.co[:, idx])
        assert np.array_equal(cross, pat.cross[:, idx])


def test_gain_at_db_midpoint():
    # neighbors at 0 dBi and 10 dBi: the midpoint is 5 dBi = 3.1623 linear
    n = 36
    angles = -math.pi + 2 * math.pi / n * np.arange(n)
    co = np.ones((2, n))
    co[:, 1] = 10.0  # 10 dBi at the second sample, 0 dBi elsewhere
    pat = RadiationPattern(angles=angles, co=co, cross=np.ones((2, n)))
    mid = float(angles[0] + math.pi / n)
    assert_allclose(gain_at(pat, mid)[0][0], 3.1622776601683795, rtol=1e-12)


def test_gain_at_periodic_at_pi():
    pat = directional_pattern()
    # the seam itself maps to one sample, so equality is exact
    assert gain_at(pat, math.pi)[0][0] == gain_at(pat, -math.pi)[0][0]
    for phi in (-2.9, 0.4, 1.7):
        # phi + 2*pi is already rounded before the call, so allow the
        # corresponding last-ulp wiggle in the interpolated value
        assert gain_at(pat, phi)[0][1] == pytest.approx(
            gain_at(pat, phi + 2 * math.pi)[0][1], rel=1e-12
        )


def test_gain_at_wraparound_interpolation():
    # between the last sample and the first, interpolation crosses +-pi
    pat = directional_pattern()
    phi = float(pat.angles[-1] + pat.step / 3.0)
    lo = 10 * math.log10(pat.co[0, -1])
    hi = 10 * math.log10(pat.co[0, 0])
    expected = 10 ** (((2 / 3) * lo + (1 / 3) * hi) / 10)
    assert gain_at(pat, phi)[0][0] == pytest.approx(expected, rel=1e-12)


def _fancy_index_gain_at(pat, azimuth):
    """Reference: gain_at reading both bracketing columns by fancy indexing."""
    phi = float((np.asarray(azimuth) + math.pi) % (2.0 * math.pi) - math.pi)
    u = (phi - pat.angles[0]) / pat.step
    i0 = int(math.floor(u)) % pat.n_samples
    frac = u - math.floor(u)
    if frac < 1e-12 or frac > 1.0 - 1e-12:
        i = i0 if frac < 0.5 else (i0 + 1) % pat.n_samples
        return pat.co[:, i], pat.cross[:, i]
    cols = [i0, (i0 + 1) % pat.n_samples]
    return tuple(
        np.array([10.0 ** (((1.0 - frac) * (10.0 * math.log10(g_a))
                            + frac * (10.0 * math.log10(g_b))) / 10.0)
                  for g_a, g_b in cut[:, cols].tolist()])
        for cut in (pat.co, pat.cross)
    )


def test_gain_at_matches_fancy_indexing_reference():
    pat = directional_pattern()
    samples = pat.angles.tolist()
    between = [a + f * pat.step for a in samples[::7] for f in (1e-9, 0.25, 0.5, 0.9)]
    seam = [math.pi, -math.pi, math.pi - 1e-3, -math.pi + 1e-3, float(pat.angles[-1]) + 0.01,
            3.0 * math.pi, -5.0 * math.pi + 0.2, 7.5, -7.5]
    for phi in samples + between + seam:
        got, expected = gain_at(pat, phi), _fancy_index_gain_at(pat, phi)
        for g, e in zip(got, expected):
            assert g.dtype == float and g.shape == (2,)
            assert g.tobytes() == e.tobytes(), phi


def test_gain_at_over_an_array_matches_the_scalar_calls_bit_for_bit():
    # the azimuths of the fancy-indexing test, and enough random ones that
    # numpy's log10 or power in place of libm's would change some bits
    pat = directional_pattern()
    samples = pat.angles.tolist()
    between = [a + f * pat.step for a in samples[::7] for f in (1e-9, 0.25, 0.5, 0.9)]
    seam = [math.pi, -math.pi, math.pi - 1e-3, -math.pi + 1e-3, float(pat.angles[-1]) + 0.01,
            3.0 * math.pi, -5.0 * math.pi + 0.2, 7.5, -7.5]
    spread = np.random.default_rng(5).uniform(-4.0, 4.0, 3000).tolist()
    azimuths = samples + between + seam + spread
    got = gain_at(pat, np.array(azimuths))
    for g in got:
        assert g.dtype == float and g.shape == (2, len(azimuths))
    for k, phi in enumerate(azimuths):
        for g, e, one in zip(got, _fancy_index_gain_at(pat, phi), gain_at(pat, phi)):
            assert g[:, k].tobytes() == e.tobytes() == one.tobytes(), phi
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            gain_at(pat, np.array([0.1, bad, 0.2]))


@given(st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_gain_at_two_pi_periodic(phi):
    pat = _SHARED_PATTERN
    assert gain_at(pat, phi)[0][0] == pytest.approx(
        gain_at(pat, phi + 2 * math.pi)[0][0], rel=1e-12
    )


_SHARED_PATTERN = directional_pattern()


# ---------------------------------------------------------------------------
# XPD
# ---------------------------------------------------------------------------


def test_xpd_equal_gains_is_unity():
    pat = load_pattern(flat_file(co_db=3.0, cross_db=3.0))
    value = xpd_at(pat, 0.7)[0]
    assert value == pytest.approx(1.0, rel=1e-12)
    assert 10 * math.log10(value) == pytest.approx(0.0, abs=1e-12)


def test_xpd_twenty_db():
    pat = load_pattern(flat_file(co_db=6.0, cross_db=-14.0))
    value = xpd_at(pat, 0.0)[1]
    assert value == pytest.approx(100.0, rel=1e-12)
    assert 10 * math.log10(value) == pytest.approx(20.0, abs=1e-12)


def test_xpd_invariant_under_joint_scaling():
    pat = directional_pattern()
    scaled = RadiationPattern(angles=pat.angles, co=pat.co * 7.3, cross=pat.cross * 7.3)
    for phi in (-2.0, 0.0, 1.3):
        for port in (0, 1):
            assert xpd_at(scaled, phi)[port] == pytest.approx(
                xpd_at(pat, phi)[port], rel=1e-12
            )


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def test_scale_to_xpd_fixed_point():
    pat = load_pattern(flat_file(co_db=6.0, cross_db=-14.0))
    out = scale_to_xpd(pat, 20.0, reference_azimuth=0.0)
    assert np.max(np.abs(out.co - pat.co)) < 1e-12
    assert np.max(np.abs(out.cross - pat.cross)) < 1e-12


def test_scale_to_xpd_zero_db_target():
    pat = directional_pattern()
    out = scale_to_xpd(pat, 0.0, reference_azimuth=0.3)
    co, cross = gain_at(out, 0.3)
    for port in (0, 1):
        assert co[port] == pytest.approx(cross[port], rel=1e-9)
    assert pattern_total_power(out) == pytest.approx(pattern_total_power(pat), rel=1e-9)


def test_scale_to_xpd_twenty_to_ten_db():
    pat = load_pattern(flat_file(co_db=6.0, cross_db=-14.0))
    out = scale_to_xpd(pat, 10.0, reference_azimuth=0.0)
    for value in xpd_at(out, 0.0):
        assert 10 * math.log10(value) == pytest.approx(10.0, abs=1e-9)
    assert pattern_total_power(out) == pytest.approx(pattern_total_power(pat), rel=1e-9)


def test_scale_to_xpd_preserves_shapes():
    pat = directional_pattern()
    out = scale_to_xpd(pat, 12.0, reference_azimuth=0.0)
    for cut_in, cut_out in ((pat.co, out.co), (pat.cross, out.cross)):
        for port in (0, 1):
            db_in = 10 * np.log10(cut_in[port])
            db_out = 10 * np.log10(cut_out[port])
            spread = np.ptp((db_out - db_in))
            assert spread < 1e-9  # a constant dB offset only


def test_scale_to_xpd_rejects_non_finite_target():
    pat = directional_pattern()
    with pytest.raises(ValueError):
        scale_to_xpd(pat, math.inf, 0.0)


@pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
def test_lookups_reject_a_non_finite_azimuth(azimuth):
    for lookup in (gain_at, xpd_at, lambda pat, phi: scale_to_xpd(pat, 10.0, phi)):
        with pytest.raises(ValueError) as info:
            lookup(_SHARED_PATTERN, azimuth)
        assert str(info.value) == f"azimuth must be finite, got {azimuth!r}"


@given(st.floats(min_value=-10.0, max_value=35.0),
       st.floats(min_value=-math.pi, max_value=math.pi - 1e-9))
@settings(max_examples=60, deadline=None)
def test_scale_to_xpd_roundtrip_property(target_db, ref):
    out = scale_to_xpd(_SHARED_PATTERN, target_db, ref)
    for value in xpd_at(out, ref):
        assert abs(10 * math.log10(value) - target_db) <= 1e-9
    assert pattern_total_power(out) == pytest.approx(
        pattern_total_power(_SHARED_PATTERN), rel=1e-9
    )
