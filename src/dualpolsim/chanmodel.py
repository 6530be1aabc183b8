"""Fading generation and explicit effective 2x2 channels.

Every channel model is H_eff = H_w M: one i.i.d. Rayleigh draw H_w
times a 2x2 *mixing matrix* M per (user, model). Two constructions
apply M to explicit fading stacks of shape ``(..., 2, 2)``, returning
views laid out along the batch:

* :func:`build_effective`: M = [[sqrt(alpha0), sqrt(beta0)],
  [sqrt(beta1), sqrt(alpha1)]], the copolar and cross-polar gains;
* :func:`kronecker_effective`: M = diag(sqrt(alpha)) sqrt(R), with the
  principal PSD square root of the transmit correlation R.

The Monte Carlo path of :mod:`dualpolsim.link` forms neither: it reads
each model's Sigma = M^H M in closed form and draws the Gram matrix of
H_w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix, matrix_sqrt_psd

__all__ = [
    "PropagationGains",
    "draw_fading_batch",
    "build_effective",
    "kronecker_effective",
    "empirical_tx_correlation",
]


@dataclass(frozen=True, eq=False)
class PropagationGains:
    """Per-port linear power gains, path loss already divided out.

    ``alpha[t]`` is the copolarized gain of port t toward the user and
    ``beta[t]`` the cross-polarized gain arriving through polarization
    t (radiated by the opposite port). The XPD of port t is therefore
    ``alpha[t] / beta[1 - t]``. The constructor checks each gain vector's
    shape through one float array, then keeps it as a pair of Python
    floats, which it checks: finite, >= 0 and alpha[t] + beta[t] > 0.
    """

    alpha: tuple[float, float]
    beta: tuple[float, float]

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if alpha.shape != (2,) or beta.shape != (2,):
            raise ValueError("alpha and beta must each hold one value per port")
        (a0, a1), (b0, b1) = alpha.tolist(), beta.tolist()
        if not all(map(math.isfinite, (a0, a1, b0, b1))):
            raise ValueError("gains must be finite")
        if min(a0, a1, b0, b1) < 0:
            raise ValueError("gains must be >= 0")
        if a0 + b0 <= 0 or a1 + b1 <= 0:
            raise ValueError("each port needs some received power (alpha + beta > 0)")
        object.__setattr__(self, "alpha", (a0, a1))
        object.__setattr__(self, "beta", (b0, b1))

    @classmethod
    def from_xpd(cls, chi: float, path_loss: float = 1.0) -> "PropagationGains":
        """Symmetric gains: copolar 1 / ``path_loss`` (linear, >= 1) and the given XPD."""
        if not (math.isfinite(chi) and chi > 0):
            raise ValueError("linear XPD must be positive and finite")
        if not path_loss >= 1.0:
            raise ValueError("linear path loss must be >= 1")
        a = 1.0 / path_loss
        return cls(alpha=(a, a), beta=(a / chi, a / chi))


def draw_fading_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent i.i.d. CN(0, 1) 2x2 fading matrices, shape (n, 2, 2).

    Entry variance is 1 (0.5 per real component); the complex Gaussian
    entries already have uniformly distributed phase. A given generator
    state yields a fixed batch, so runs are reproducible.
    """
    h = np.empty((n, 2, 2), dtype=complex)
    h.real, h.imag = rng.standard_normal((2, n, 2, 2))  # all real parts, then all imaginary
    h /= math.sqrt(2.0)
    return h


def _mix(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``h @ m`` for a stack ``h`` of shape (..., 2, 2) and one complex 2x2 ``m``."""
    # elementwise products, not a BLAS ``h @ m``: each entry is one sum of
    # two products, so build_effective stays exactly co + cross
    rows = h.reshape(-1, 2)
    return (m[0][:, None] * rows[:, 0] + m[1][:, None] * rows[:, 1]).T.reshape(h.shape)


def build_effective(gains: PropagationGains, h: np.ndarray) -> np.ndarray:
    """Effective channel ``h @ M`` of the dual-polarized port pair.

    Column t of M holds sqrt(alpha[t]) on the fading of port t (the
    copolar part) and sqrt(beta[t']) on the fading of the opposite port
    t' (the cross-polar part).
    """
    a0, a1 = map(math.sqrt, gains.alpha)
    b0, b1 = map(math.sqrt, gains.beta)
    return _mix(h, np.array([[a0, b0], [b1, a1]], dtype=complex))


def kronecker_effective(h: np.ndarray, alpha: np.ndarray, corr: CorrelationMatrix) -> np.ndarray:
    """Correlated channel ``h @ M`` with M = diag(sqrt(alpha)) sqrt(corr).

    The principal PSD square root is applied on the transmit side, so
    the transmit correlation E[H^H H] is proportional to ``corr`` itself
    (not its conjugate). ``alpha`` must hold one gain per port. ``corr``
    holds only its coefficient, checked when it was built, so nothing
    here checks it again.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2,):
        raise ValueError("alpha must hold one gain per port")
    return _mix(h, np.sqrt(alpha)[:, None] * matrix_sqrt_psd(corr))


def empirical_tx_correlation(h: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Transmit-side sample correlation of a batch of channel matrices.

    Averages ``H^H H`` over the batch and the receive antennas. With
    ``normalize`` the result is scaled to a unit diagonal, which is the
    estimator to compare against a target correlation matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[-2:] != (2, 2):
        raise ValueError("expected a batch of 2x2 matrices, shape (n, 2, 2)")
    gram = np.einsum("nri,nrj->ij", h.conj(), h) / (h.shape[0] * h.shape[1])
    if not normalize:
        return gram
    scale = 1.0 / np.sqrt(np.real(np.diagonal(gram)))
    return gram * np.outer(scale, scale)
