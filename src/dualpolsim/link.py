"""Zero-forcing link evaluation: SINR, throughput, and Monte Carlo CDFs.

The receiver is an open-loop zero-forcing inverse of the 2x2 effective
channel with unit transmit power per stream; per-stream SINR is the
reciprocal of the noise power amplified by the corresponding inverse
row. Throughput maps SINR through truncated per-stream Shannon capacity
capped at the maximum supported spectral efficiency.

Monte Carlo batches never form an SVD or an inverse. For a 2x2 channel
H with F = ||H||_F^2, D = |det H|^2 and column energies
c_j = ||H[:, j]||^2, the squared singular values are
s_max^2 = (F + sqrt(F^2 - 4 D)) / 2 and s_min^2 = D / s_max^2, so the
condition number kappa = s_max / s_min satisfies
F^2 / D = (kappa + 1/kappa)^2. Row i of inv(H) has energy c_{1-i} / D,
so stream i sees SINR_i = D / (c_{1-i} p_n). A realization counts as
rank deficient when an entry is not finite or kappa reaches
``MAX_CONDITION``, i.e. unless D (MAX_CONDITION + 1/MAX_CONDITION)^2 > F^2.
The kernel forms this SINR on every row and keeps it on the full-rank
rows with one ``np.where``, raising no floating-point warning.

Four effective-channel constructions are selectable per trial batch:

* ``i``   physical dual-polarization channel (copolar plus cross-polar),
* ``ii``  correlated channel with the XPD-implied transmit correlation,
* ``iii`` omnidirectional tapped-delay channel spatially correlated at
          the XPD-equivalent antenna spacing,
* ``iv``  correlated channel with the XPD-implied correlation on
          omnidirectional gains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import chanmodel, correlation
from .chanmodel import PropagationGains, draw_fading_batch
from .correlation import AodDistribution, SpacingQuery

__all__ = [
    "MODELS",
    "LinkParams",
    "LinkResult",
    "UserChannel",
    "RankDeficientError",
    "zf_weights",
    "evaluate_user",
    "cdf",
]

MODELS = ("i", "ii", "iii", "iv")

#: Condition-number guard separating numerical singularity from low-rank physics.
MAX_CONDITION = 1e12


class RankDeficientError(np.linalg.LinAlgError):
    """Raised when the effective channel cannot support two streams."""


@dataclass(frozen=True)
class LinkParams:
    """LTE-style system constants.

    Defaults: 8.4 MHz effective bandwidth, 25.22 percent overhead,
    5 bit/s/Hz per-stream cap (64-QAM at rate 5/6) and -174 dBm/Hz
    noise density.
    """

    effective_bandwidth: float = 8.4e6
    overhead_fraction: float = 0.2522
    max_spectral_efficiency: float = 5.0
    noise_density_dbm_hz: float = -174.0

    def __post_init__(self) -> None:
        if not self.effective_bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.overhead_fraction < 1.0:
            raise ValueError("overhead fraction must lie in [0, 1)")
        if not self.max_spectral_efficiency > 0:
            raise ValueError("max spectral efficiency must be positive")
        if not math.isfinite(self.noise_density_dbm_hz):
            raise ValueError("noise density must be finite")
        if not math.isfinite(self.max_throughput()):
            raise ValueError("bandwidth times the spectral efficiency cap must be finite")

    def noise_power(self) -> float:
        """Noise power in mW over the effective bandwidth."""
        return 10.0 ** (self.noise_density_dbm_hz / 10.0) * self.effective_bandwidth

    def max_throughput(self) -> float:
        """Hard cap: both streams at maximum spectral efficiency."""
        return (
            self.effective_bandwidth
            * (1.0 - self.overhead_fraction)
            * 2.0
            * self.max_spectral_efficiency
        )


@dataclass(frozen=True, eq=False)
class LinkResult:
    """Outcome of a batch of trials, one row per trial.

    ``sinr`` holds the linear per-stream SINRs, shape (n, 2), and
    ``throughput`` the mapped throughput in bit/s, shape (n,). Both come
    from the closed form of the module docstring; a rank-deficient
    trial has zero SINR on both streams and zero throughput.
    """

    sinr: np.ndarray
    throughput: np.ndarray


@dataclass(frozen=True, eq=False)
class UserChannel:
    """Everything one user contributes to a link evaluation.

    ``gains`` drive the physical model; ``xpd`` the correlation-based
    models; ``omni_gain`` is the per-port gain of the two-omni-antenna
    reference; ``aod`` and ``tap_powers`` feed the spatially correlated
    tapped-delay model.
    """

    gains: PropagationGains
    xpd: tuple[float, float]
    omni_gain: float
    aod: AodDistribution
    tap_powers: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not all(x > 0 for x in self.xpd):
            raise ValueError("per-port XPD must be positive (linear)")
        if not self.omni_gain > 0:
            raise ValueError("omni gain must be positive")
        if len(self.tap_powers) == 0 or min(self.tap_powers) < 0 or sum(self.tap_powers) <= 0:
            raise ValueError("tap powers must be nonnegative with a positive sum")

    @functools.cached_property
    def xpd_corr(self) -> correlation.CorrelationMatrix:
        """Transmit correlation implied by ``xpd``; models ii, iii and iv share it."""
        return correlation.dualpole_corr_exact(*self.xpd)


def _zf_kernel(
    h: np.ndarray, noise_power: float, max_condition: float = MAX_CONDITION
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form zero forcing of a stack of 2x2 channels, shape (n, 2, 2).

    Returns the full-rank mask, shape (n,), and the per-stream SINRs,
    shape (n, 2), which are zero where the mask is false.
    """
    # with kappa = s_max / s_min, F^2 / D = (kappa + 1/kappa)^2, which grows
    # with kappa; a non-finite entry makes F inf or NaN, failing the test
    bound = (max_condition + 1.0 / max_condition) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = h.real ** 2 + h.imag ** 2
        col = power[:, 0] + power[:, 1]  # c_j
        frob = col[:, 0] + col[:, 1]  # F
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        det_sq = det.real ** 2 + det.imag ** 2  # D
        good = det_sq * bound > frob * frob
        # row i of inv(H) has energy c_{1-i} / D
        sinr_all = np.where(good[:, None], det_sq[:, None] / (col[:, ::-1] * noise_power), 0.0)
    return good, sinr_all


def _capped_throughput(sinrs: np.ndarray, params: LinkParams) -> np.ndarray:
    """Truncated-capacity throughput, summed over the streams on the last axis of ``sinrs``."""
    bw_term = params.effective_bandwidth * (1.0 - params.overhead_fraction)
    se = np.minimum(np.log2(1.0 + sinrs), params.max_spectral_efficiency)
    return bw_term * (se[..., 0] + se[..., 1])


def zf_weights(h_eff: np.ndarray, max_condition: float = MAX_CONDITION) -> np.ndarray:
    """Zero-forcing receive filter W, defined through W.T @ H = I.

    The rank test is the one Monte Carlo batches use.

    Raises
    ------
    RankDeficientError
        If the channel's condition number reaches ``max_condition``
        (the zero-XPD, fully correlated case lands here by design).
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.shape != (2, 2):
        raise ValueError("effective channel must be 2x2")
    good, _ = _zf_kernel(h_eff[None], 1.0, max_condition)
    if not good[0]:
        raise RankDeficientError(
            f"effective channel is rank deficient (condition number at least "
            f"{max_condition:g} or non-finite entries)"
        )
    return np.linalg.inv(h_eff).T


def _effective_batch(
    user: UserChannel, model: str, rng: np.random.Generator, n_trials: int
) -> np.ndarray:
    """Stack of effective channels for one model, shape (n_trials, 2, 2)."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    omni_alpha = np.array([user.omni_gain, user.omni_gain])
    if model == "iii":
        target = abs(user.xpd_corr.coefficient)
        spacing = correlation.equivalent_spacing(SpacingQuery(target, user.aod))
        corr = correlation.spatial_corr_matrix(spacing, user.aod)
        taps = [(p, draw_fading_batch(rng, n_trials), corr) for p in user.tap_powers]
        return chanmodel.multitap_effective(taps, omni_alpha)
    fading = draw_fading_batch(rng, n_trials)
    if model == "i":
        return chanmodel.build_effective(user.gains, fading)
    alpha = user.gains.alpha if model == "ii" else omni_alpha
    return chanmodel.kronecker_effective(fading, alpha, user.xpd_corr)


def evaluate_user(
    user: UserChannel,
    model: str,
    rng: np.random.Generator,
    n_trials: int,
    params: LinkParams | None = None,
) -> LinkResult:
    """Run ``n_trials`` independent realizations of one model for one user.

    Each realization goes through zero forcing, SINR and the throughput
    map. Rank-deficient realizations are kept as zero-throughput
    samples rather than aborting the run; at 0 dB XPD every sample is
    one, which is the intended degenerate physics.

    A fixed generator state yields bit-identical result arrays.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    params = params or LinkParams()
    h = _effective_batch(user, model, rng, n_trials)
    _, sinr_all = _zf_kernel(h, params.noise_power())
    return LinkResult(sinr=sinr_all, throughput=_capped_throughput(sinr_all, params))


def cdf(samples) -> np.ndarray:
    """Empirical CDF of throughput samples.

    Returns an (N, 2) array of ascending (value, cumulative probability)
    rows with probabilities i/N, ending exactly at 1.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("cdf requires at least one sample")
    probs = np.arange(1, values.size + 1) / values.size
    return np.column_stack((values, probs))
