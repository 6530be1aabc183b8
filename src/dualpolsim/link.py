"""Zero-forcing link evaluation: SINR, throughput, and Monte Carlo CDFs.

The receiver is an open-loop zero-forcing inverse of the 2x2 effective
channel with unit transmit power per stream; per-stream SINR is the
reciprocal of the noise power amplified by the corresponding inverse
row. Throughput maps SINR through truncated per-stream Shannon capacity
capped at the maximum supported spectral efficiency.

Zero forcing needs no SVD and no inverse. For a 2x2 channel H with
column energies c_j = ||H[:, j]||^2, F = c_0 + c_1 = ||H||_F^2 and
D = |det H|^2, the squared singular values are
s_max^2 = (F + sqrt(F^2 - 4 D)) / 2 and s_min^2 = D / s_max^2, so the
condition number kappa = s_max / s_min satisfies
F^2 / D = (kappa + 1/kappa)^2. Row i of inv(H) has energy c_{1-i} / D,
so stream i sees SINR_i = D / (c_{1-i} p_n). A realization counts as
rank deficient when a term is not finite or kappa reaches
``MAX_CONDITION``, i.e. unless D (MAX_CONDITION + 1/MAX_CONDITION)^2 > F^2.
Only full-rank rows are divided, so a rank-deficient row raises no warning.

Monte Carlo batches never form a channel. Every model is H = H_w M,
i.i.d. CN(0, 1) fading H_w times one 2x2 mixing matrix M per (user,
model). H^H H = M^H G M, with the Gram matrix G = H_w^H H_w, is complex
Wishart with covariance Sigma = M^H M (Goodman, Ann. Math. Statist. 34
(1963) 152-177), so the ZF law depends on M only through Sigma_00,
Sigma_11 and |Sigma_01| (Gore, Heath and Paulraj, ISIT 2002). Each model
is therefore evaluated as H_w U, with U = [[sqrt(Sigma_00), u_01],
[0, u_11]] the real upper Cholesky factor of Sigma, u_01 = |Sigma_01| /
sqrt(Sigma_00) and u_11^2 = det Sigma / Sigma_00: c_0 = Sigma_00 G_00,
c_1 = u_01^2 G_00 + u_11^2 G_11 + 2 u_01 u_11 Re G_01 and
D = |det H_w|^2 det Sigma. G is drawn by the Bartlett decomposition
(Tulino and Verdu, Random Matrix Theory and Wireless Communications,
2004): with H_w = QR, r_11^2 ~ Gamma(2, 1), r_22^2 ~ Exp(1) and
r_12 ~ CN(0, 1) are independent, G = R^H R and |det H_w|^2 = r_11^2 r_22^2.
A trial costs three exponentials and two normals. The draw does not
depend on the model or the XPD, so :func:`evaluate_user` takes either a
generator to draw from or a read-only draw of :func:`draw_gram`, which
one user's models and XPDs can share. :func:`draw_grams` draws a block
of users, each at the point of one stream that its key fixes, and does
the arithmetic once for the block; :func:`draw_gram` is its one-user call.

Four models are selectable per trial batch, each given by its Sigma in
closed form (:func:`_sigma`):

* ``i``   physical dual-polarization channel (copolar plus cross-polar),
* ``ii``  correlated channel with the XPD-implied transmit correlation,
* ``iii`` omni gains with the spatial correlation at the XPD-equivalent
          spacing, which is the XPD's: model iv wherever that spacing exists,
* ``iv``  correlated channel with the XPD-implied correlation on
          omnidirectional gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import correlation
from .chanmodel import PropagationGains
from .correlation import AodDistribution, SpacingQuery
from .pattern import MAX_ABS_DB

__all__ = [
    "MODELS",
    "LinkParams",
    "LinkResult",
    "UserChannel",
    "RankDeficientError",
    "zf_weights",
    "draw_gram",
    "draw_grams",
    "evaluate_user",
    "cdf",
]

MODELS = ("i", "ii", "iii", "iv")

#: Condition-number guard separating numerical singularity from low-rank physics.
MAX_CONDITION = 1e12
_RANK_BOUND = (MAX_CONDITION + 1.0 / MAX_CONDITION) ** 2  # full rank iff D * bound > F^2


class RankDeficientError(np.linalg.LinAlgError):
    """Raised when the effective channel cannot support two streams."""


@dataclass(frozen=True)
class LinkParams:
    """LTE-style system constants.

    Defaults: 8.4 MHz effective bandwidth, 25.22 percent overhead,
    5 bit/s/Hz per-stream cap (64-QAM at rate 5/6) and -174 dBm/Hz
    noise density, which must lie within +-:data:`MAX_ABS_DB`; so must
    the noise power over the bandwidth, in dBm, which keeps SINRs finite.
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
        if not abs(self.noise_density_dbm_hz) <= MAX_ABS_DB:
            raise ValueError(f"noise density must lie within +-{MAX_ABS_DB:g} dBm/Hz")
        if not 10.0 ** (-MAX_ABS_DB / 10) <= self.noise_power() <= 10.0 ** (MAX_ABS_DB / 10):
            raise ValueError(f"noise power must lie within +-{MAX_ABS_DB:g} dBm")
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
    reference; ``aod`` decides whether model iii's spacing exists.
    ``xpd_corr``, the transmit correlation implied by ``xpd``, is built
    and checked with the channel; models ii, iii and iv read it.
    """

    gains: PropagationGains
    xpd: tuple[float, float]
    omni_gain: float
    aod: AodDistribution
    xpd_corr: correlation.CorrelationMatrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.omni_gain > 0:
            raise ValueError("omni gain must be positive")
        object.__setattr__(self, "xpd_corr", correlation.dualpole_corr_exact(*self.xpd))


def _zf_sinr(
    col: np.ndarray, det_sq: np.ndarray, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form zero forcing of channels given by their module-docstring terms.

    ``col`` holds the column energies c_j, shape (2, n), and ``det_sq``
    D = |det H|^2, shape (n,). Returns the full-rank mask, shape (n,),
    and the per-stream SINRs, shape (2, n), which are zero where the
    mask is false: those rows are never divided. Only F above about
    1e142 can overflow (a RuntimeWarning); no parsed scenario comes near.
    """
    # with kappa = s_max / s_min, F^2 / D = (kappa + 1/kappa)^2, which grows
    # with kappa; a non-finite term makes F or D inf or NaN, failing the test
    frob = col[0] + col[1]
    good = det_sq * _RANK_BOUND > frob * frob
    # row i of inv(H) has energy c_{1-i} / D
    sinr = np.divide(det_sq, col[::-1] * noise_power, out=np.zeros(col.shape), where=good)
    return good, sinr


def _explicit_terms(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column energies, shape (2, ...), and |det h|^2 of explicit 2x2 channels ``h``."""
    with np.errstate(invalid="ignore", over="ignore"):
        power = h.real ** 2 + h.imag ** 2
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
        col = np.moveaxis(power[..., 0, :] + power[..., 1, :], -1, 0)
        return col, det.real ** 2 + det.imag ** 2


def _capped_throughput(sinrs: np.ndarray, params: LinkParams) -> np.ndarray:
    """Truncated-capacity throughput, summed over the streams on the last axis of ``sinrs``."""
    bw_term = params.effective_bandwidth * (1.0 - params.overhead_fraction)
    se = np.minimum(np.log2(1.0 + sinrs), params.max_spectral_efficiency)
    return bw_term * (se[..., 0] + se[..., 1])


def zf_weights(h_eff: np.ndarray) -> np.ndarray:
    """Zero-forcing receive filter W, defined through W.T @ H = I.

    The rank test is the one Monte Carlo batches use.

    Raises
    ------
    RankDeficientError
        If the condition number reaches :data:`MAX_CONDITION` or an entry is
        not finite (the zero-XPD, fully correlated case lands here by design).
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.shape != (2, 2):
        raise ValueError("effective channel must be 2x2")
    good, _ = _zf_sinr(*_explicit_terms(h_eff), 1.0)
    if not good:
        raise RankDeficientError(
            f"effective channel is rank deficient (condition number at least "
            f"{MAX_CONDITION:g} or non-finite entries)"
        )
    return np.linalg.inv(h_eff).T


def _sigma(user: UserChannel, model: str) -> tuple[float, float, float, float]:
    """(Sigma_00, Sigma_11, |Sigma_01|, det Sigma) of one model, in closed form.

    Model i's M = [[sqrt(alpha_0), sqrt(beta_0)], [sqrt(beta_1), sqrt(alpha_1)]].
    Models ii-iv have M = diag(sqrt(a)) sqrt(R) with port gains a and
    |R_01| = rho, so Sigma = sqrt(R) diag(a) sqrt(R); s = sqrt(1 - rho^2).
    No det Sigma is a difference that cancels. Model iii's spacing d* has
    |rho_sp(d*)| = rho by definition, so it takes model iv's Sigma once the
    spacing scan proves that d* exists; it raises NoSolutionError where not.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if model == "i":
        (a0, a1), (b0, b1) = user.gains.alpha, user.gains.beta
        return (a0 + b1, b0 + a1, math.sqrt(a0 * b0) + math.sqrt(a1 * b1),
                (math.sqrt(a0 * a1) - math.sqrt(b0 * b1)) ** 2)
    rho = abs(user.xpd_corr.coefficient)
    if model == "iii":
        correlation.equivalent_spacing(SpacingQuery(rho, user.aod), root=False)
    a0, a1 = user.gains.alpha if model == "ii" else (user.omni_gain, user.omni_gain)
    s = math.sqrt(max(1.0 - rho * rho, 0.0))
    return ((a0 * (1.0 + s) + a1 * (1.0 - s)) / 2.0, (a0 * (1.0 - s) + a1 * (1.0 + s)) / 2.0,
            (a0 + a1) * rho / 2.0, a0 * a1 * s * s)


def _gram_terms(
    sigma: tuple, features: np.ndarray, det_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column energies, shape (2, n), and D of H_w U for a :func:`draw_gram` draw of H_w.

    U is the Cholesky factor of the module docstring for ``sigma`` as
    :func:`_sigma` returns it; where Sigma_00 = 0, u_01 = 0 and
    u_11^2 = Sigma_11.
    """
    s00, s11, s01, det_s = sigma
    u01, u11_sq = (s01 / math.sqrt(s00), det_s / s00) if s00 > 0.0 else (0.0, s11)
    # rows: c_0 and c_1 as weights on (G_00, G_11, Re G_01)
    weights = np.array([[s00, 0.0, 0.0], [u01 * u01, u11_sq, 2.0 * u01 * math.sqrt(u11_sq)]])
    return weights @ features, det_w * det_s


def draw_grams(
    rng: np.random.Generator, start: dict, keys, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett draws of ``n`` Gram matrices G = H_w^H H_w of i.i.d. CN(0, 1) 2x2 H_w per key.

    User k's raw variates, three exponentials then two normals per
    trial, come from ``rng`` set to the bit-generator state ``start``
    and advanced by ``keys[k]``; a zero key does not advance, so
    :func:`draw_gram` serves a bit generator without ``advance``. One
    arithmetic pass over the whole block then gives the features
    (G_00, G_11, Re G_01), shape (len(keys), 3, n), and |det H_w|^2,
    shape (len(keys), n), both read-only, so that one user's draw can
    feed every model and XPD of that user. A user's rows depend on
    ``start`` and its key only, whatever the block.
    """
    exp, normal = np.empty((len(keys), 3, n)), np.empty((len(keys), 2, n))
    for exp_k, normal_k, key in zip(exp, normal, keys):
        rng.bit_generator.state = start
        if key:
            rng.bit_generator.advance(key)
        rng.standard_exponential(out=exp_k)
        rng.standard_normal(out=normal_k)
    normal *= math.sqrt(0.5)  # Re and Im of r_12 ~ CN(0, 1)
    features = np.empty(exp.shape)
    r11_sq = np.add(exp[:, 0], exp[:, 1], out=features[:, 0])  # G_00 = r_11^2 ~ Gamma(2, 1)
    re_g01 = np.sqrt(r11_sq, out=features[:, 2])
    re_g01 *= normal[:, 0]  # Re G_01 = r_11 Re r_12
    normal *= normal
    g11 = np.add(normal[:, 0], normal[:, 1], out=features[:, 1])
    g11 += exp[:, 2]  # G_11 = |r_12|^2 + r_22^2
    det_w = r11_sq * exp[:, 2]
    features.flags.writeable = det_w.flags.writeable = False
    return features, det_w


def draw_gram(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`draw_grams` for one user: features, shape (3, n), and |det H_w|^2, shape (n,)."""
    features, det_w = draw_grams(rng, rng.bit_generator.state, (0,), n)
    return features[0], det_w[0]


def evaluate_user(
    user: UserChannel,
    model: str,
    rng: np.random.Generator | tuple[np.ndarray, np.ndarray],
    n_trials: int,
    params: LinkParams | None = None,
) -> LinkResult:
    """Run ``n_trials`` independent realizations of one model for one user.

    Each realization goes through zero forcing, SINR and the throughput
    map, computed from a Gram-matrix draw (see the module docstring).
    ``rng`` is either a generator, from which ``n_trials`` Gram matrices
    are drawn, or such a draw of :func:`draw_gram`, which the caller may
    pass to every model and XPD of one user. Rank-deficient realizations
    are kept as zero-throughput samples rather than aborting the run; at
    0 dB XPD every sample is one, which is the intended degenerate
    physics: det Sigma = 0 exactly for every model.

    A fixed generator state, or a fixed draw, yields bit-identical
    result arrays.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    params = params or LinkParams()
    sigma = _sigma(user, model)
    features, det_w = draw_gram(rng, n_trials) if isinstance(rng, np.random.Generator) else rng
    if features.shape != (3, n_trials) or det_w.shape != (n_trials,):
        raise ValueError(f"Gram draw of shapes {features.shape} and {det_w.shape} "
                         f"does not hold {n_trials} trials")
    _, sinr = _zf_sinr(*_gram_terms(sigma, features, det_w), params.noise_power())
    return LinkResult(sinr=sinr.T, throughput=_capped_throughput(sinr.T, params))


def cdf(samples) -> np.ndarray:
    """Empirical CDF of throughput samples.

    Returns an (N, 2) array of ascending (value, cumulative probability)
    rows with probabilities i/N, ending exactly at 1. Every sample is
    pooled, whatever the shape of ``samples``: a scalar is one sample.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("cdf requires at least one sample")
    series = np.empty((n, 2))
    series[:, 0] = np.sort(samples, axis=None)
    np.divide(np.arange(1, n + 1), n, out=series[:, 1])
    return series
