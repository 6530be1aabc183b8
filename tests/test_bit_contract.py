"""Numeric facts of this host's numpy and libm that array rewrites rely on, bit for bit.

Each test names the ROADMAP item whose shortcut rests on its fact. A
failure on another platform says that the shortcut does not hold there,
not that the current output is wrong: today's code does not take it.
"""

import math

import numpy as np
import pytest

from dualpolsim import correlation
from dualpolsim.chanmodel import PropagationGains
from dualpolsim.correlation import AodDistribution
from dualpolsim.link import (
    LinkParams,
    UserChannel,
    _capped_throughput,
    _gram_terms,
    _sigma,
    _zf_sinr,
    draw_grams,
)

# (users per draw block, trials per user); each user has TASKS (XPD, model) tasks
BLOCK_SHAPES = [(4096, 1), (204, 20), (4, 1000)]
TASKS = 6


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _sigmas(rng: np.random.Generator, count: int) -> list:
    """Sigma of models i, ii and iv for random users: XPD 0-30 dB, path loss 70-110 dB."""
    sigmas = []
    while len(sigmas) < count:
        chi = 10.0 ** rng.uniform(0.0, 3.0) if len(sigmas) % 7 else 1.0  # 0 dB: det Sigma = 0
        loss = 10.0 ** rng.uniform(7.0, 11.0)
        alpha, beta = rng.uniform(0.5, 1.0, 2) / loss, rng.uniform(0.5, 1.0, 2) / (chi * loss)
        user = UserChannel(gains=PropagationGains(alpha=alpha, beta=beta), xpd=(chi, chi),
                           omni_gain=1.0 / loss, aod=AodDistribution.isotropic())
        sigmas += [_sigma(user, model) for model in ("i", "ii", "iv")]
    return sigmas[:count]


def _block(users: int, n: int):
    """A draw block's features and |det H_w|^2, and the Sigma of each of its (user, task) pairs."""
    rng = np.random.default_rng([users, n])
    # disjoint substreams, 2**64 outputs apart
    keys = [b << 64 for b in range(users)]
    features, det_w = draw_grams(rng, rng.bit_generator.state, keys, n)
    pool = _sigmas(rng, 97)
    sigmas = [[pool[(b * TASKS + k) % len(pool)] for k in range(TASKS)] for b in range(users)]
    return features, det_w, sigmas


def _stacked_terms(features, det_w, sigmas):
    """Column energies (B, K, 2, n) from one stacked ``matmul``, and D (B, K, n)."""
    # each task's (2, 3) Cholesky weights, read back exactly as _gram_terms
    # applied to the identity
    eye, one = np.eye(3), np.ones(3)
    weights = np.array([[_gram_terms(s, eye, one)[0] for s in row] for row in sigmas])
    det_s = np.array([[s[3] for s in row] for row in sigmas])
    return weights @ features[:, None], det_w[:, None] * det_s[..., None]


@pytest.mark.parametrize("users, n", BLOCK_SHAPES)
def test_stacked_matmul_equals_per_task_gram_terms(users, n):
    """Item 4's kernel: one stacked ``matmul`` per block gives each task's terms.

    (B, K, 2, 3) weights against the block's (B, 1, 3, n) features give,
    for every (user, task), the bits of that task's ``(2, 3) @ (3, n)``
    product in :func:`_gram_terms`. ``np.einsum`` and the explicit
    three-term sum do not: c_1 moves where Re G_01 cancels.
    """
    features, det_w, sigmas = _block(users, n)
    col, det = _stacked_terms(features, det_w, sigmas)
    assert col.shape == (users, TASKS, 2, n)
    expected = [[_gram_terms(s, features[b], det_w[b]) for s in row]
                for b, row in enumerate(sigmas)]
    assert np.array_equal(_bits(col), _bits(np.array([[c for c, _ in row] for row in expected])))
    assert np.array_equal(_bits(det), _bits(np.array([[d for _, d in row] for row in expected])))


@pytest.mark.parametrize("users, n", BLOCK_SHAPES)
def test_zf_and_throughput_on_a_strided_view_equal_a_contiguous_copy(users, n):
    """Item 4's copy into columns: the block's SINRs and throughputs need no contiguous copy.

    ``_zf_sinr`` on the stream axis of the stacked terms, a strided view
    of shape (2, B, K, n), and ``_capped_throughput`` on the SINRs with
    their streams moved last give the bits of the same calls on
    contiguous copies (``np.log2`` included).
    """
    col, det = _stacked_terms(*_block(users, n))
    params = LinkParams()
    noise = params.noise_power()
    view = np.moveaxis(col, -2, 0)
    assert not view.flags.c_contiguous
    good, sinr = _zf_sinr(view, det, noise)
    good_copy, sinr_copy = _zf_sinr(np.ascontiguousarray(view), det, noise)
    assert np.array_equal(good, good_copy)
    assert not good.all() and good.any()
    assert np.array_equal(_bits(sinr), _bits(sinr_copy))
    streams_last = np.moveaxis(sinr, 0, -1)
    assert not streams_last.flags.c_contiguous
    rate = _capped_throughput(streams_last, params)
    rate_copy = _capped_throughput(np.ascontiguousarray(streams_last), params)
    assert np.array_equal(_bits(rate), _bits(rate_copy))
    # both sides of the 5 bit/s/Hz cap are exercised
    cap = params.max_throughput()
    assert (rate == cap).any() and (good & (rate < cap)).any()


@pytest.mark.parametrize("chunk", range(25))
def test_bessel_jn_on_off_grid_arguments_equals_its_float_calls(chunk):
    """Item 5's lockstep refine: Newton steps of many users in one array ``_bessel_jn`` call.

    The refine of a crossing found in scan chunk ``chunk`` runs the
    recurrence from that chunk's top order, the :func:`_series_order` of
    its last step, at any d from one step before the chunk to one step
    after it. On an array of such d, off the 0.01 lambda grid (random,
    and one ulp from grid points), every order equals the float call at
    the same top bit for bit. d < 0.01 lambda is left out: there the
    float path's tiny-x guard and its 1e250 rescale can take other steps
    than the array path, which has neither.
    """
    first = chunk * correlation._SCAN_CHUNK + 1
    last = min(first + correlation._SCAN_CHUNK - 1, correlation._SCAN_STEPS)
    step = correlation._SCAN_STEP
    top = correlation._series_order(2.0 * math.pi * last * step)
    grid = np.arange(max(first - 1, 1), min(last + 1, correlation._SCAN_STEPS) + 1) * step
    lo, hi = grid[0], grid[-1]
    rng = np.random.default_rng(chunk)
    near = rng.choice(grid, 8, replace=False)
    d = np.concatenate((rng.uniform(lo, hi, 48), np.nextafter(near, math.inf),
                        np.nextafter(near, -math.inf)))
    d = d[(d >= lo) & (d <= hi)]
    assert d.size >= 60 and not np.isin(d, grid).any()
    x = 2.0 * math.pi * d
    rows = np.array(correlation._bessel_jn(x, top))
    for i, xi in enumerate(x.tolist()):
        scalar = np.array(correlation._bessel_jn(xi, top))
        assert np.array_equal(_bits(rows[:, i]), _bits(scalar)), d[i]
