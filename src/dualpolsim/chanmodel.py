"""Fading generation and effective 2x2 channel construction.

Every function returns plain complex arrays of shape ``(..., 2, 2)``:
a batch of fading matrices in, a batch of effective channels out. Each
construction is H_eff = H_w M, one i.i.d. Rayleigh draw H_w times a 2x2
*mixing matrix* M per (user, model, tap):

* :func:`build_effective`: M = [[sqrt(alpha0), sqrt(beta0)],
  [sqrt(beta1), sqrt(alpha1)]], the copolar and cross-polar gains;
* :func:`kronecker_effective`: M = diag(sqrt(alpha)) sqrt(R), with the
  principal PSD square root of the transmit correlation R;
* :func:`multitap_effective`: the sum over independent taps of
  M = sqrt(p / sum p) diag(sqrt(alpha)) sqrt(R).

All functions are pure given an explicit numpy ``Generator``; Monte
Carlo runs derive independent per-task generators from a master seed so
results are reproducible for a fixed seed and task layout. Leading
batch dimensions broadcast through every operation. Effective channels
are views laid out along the batch, not C-contiguous arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import CorrelationMatrix, matrix_sqrt_psd

__all__ = [
    "PropagationGains",
    "draw_fading_batch",
    "build_effective",
    "kronecker_effective",
    "multitap_effective",
    "empirical_tx_correlation",
]


@dataclass(frozen=True, eq=False)
class PropagationGains:
    """Per-port linear power gains, path loss included.

    ``alpha[t]`` is the copolarized gain of port t toward the user and
    ``beta[t]`` the cross-polarized gain arriving through polarization
    t (radiated by the opposite port). The XPD of port t is therefore
    ``alpha[t] / beta[1 - t]``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    path_loss: float = 1.0

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if alpha.shape != (2,) or beta.shape != (2,):
            raise ValueError("alpha and beta must each hold one value per port")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("gains must be finite")
        if np.any(alpha < 0) or np.any(beta < 0):
            raise ValueError("gains must be >= 0")
        if np.any(alpha + beta <= 0):
            raise ValueError("each port needs some received power (alpha + beta > 0)")
        if not self.path_loss >= 1.0:
            raise ValueError("linear path loss must be >= 1")
        alpha.flags.writeable = False
        beta.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_xpd(cls, chi: float, path_loss: float = 1.0) -> "PropagationGains":
        """Symmetric gains with unit-antenna copolar gain and the given XPD."""
        if not (math.isfinite(chi) and chi > 0):
            raise ValueError("linear XPD must be positive and finite")
        a = 1.0 / path_loss
        return cls(alpha=np.array([a, a]), beta=np.array([a / chi, a / chi]),
                   path_loss=path_loss)

    def xpd(self) -> tuple[float, float]:
        """Per-port linear XPD (copolar over opposite-polarization leakage)."""
        return tuple(
            float(a / b) if b else math.inf for a, b in zip(self.alpha, self.beta[::-1])
        )


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
    rows = h.reshape(-1, 2)  # the result is laid out along the stack, for long loops later
    return (m[0][:, None] * rows[:, 0] + m[1][:, None] * rows[:, 1]).T.reshape(h.shape)


def build_effective(gains: PropagationGains, h: np.ndarray) -> np.ndarray:
    """Effective channel ``h @ M`` of the dual-polarized port pair.

    Column t is sqrt(alpha[t]) times the fading ``h`` of port t (the
    copolar part) plus sqrt(beta[t']) times the fading of the opposite
    port t' (the cross-polar part).
    """
    a, b = np.sqrt(gains.alpha), np.sqrt(gains.beta)
    return _mix(h, np.array([[a[0], b[0]], [b[1], a[1]]], dtype=complex))


def kronecker_effective(h: np.ndarray, alpha: np.ndarray, corr: CorrelationMatrix) -> np.ndarray:
    """Correlated channel ``h @ M`` with M = diag(sqrt(alpha)) sqrt(corr).

    ``alpha`` holds the per-port copolarized power gains. The principal
    PSD square root is applied on the transmit side, so the transmit
    correlation E[H^H H] is proportional to ``corr`` itself (not its
    conjugate); an invalid correlation raises
    :class:`~dualpolsim.correlation.InvalidCorrelationError`.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2,):
        raise ValueError("alpha must hold one gain per port")
    return _mix(h, np.sqrt(alpha)[:, None] * matrix_sqrt_psd(corr))


def multitap_effective(
    taps: Sequence[tuple[float, np.ndarray, CorrelationMatrix]],
    alpha: np.ndarray,
) -> np.ndarray:
    """Tapped-delay-line effective channel with normalized tap weights.

    Each ``(power, h, corr)`` tap contributes its own
    :func:`kronecker_effective` matrix with the gains ``alpha`` scaled
    by ``power / sum(powers)``; fading is independent per tap. A single
    tap with identity correlation passes its matrix through unchanged.
    """
    if len(taps) == 0:
        raise ValueError("at least one tap is required")
    powers = np.array([p for p, _, _ in taps], dtype=float)
    if np.any(powers < 0):
        raise ValueError("tap powers must be >= 0")
    total = powers.sum()
    if total <= 0:
        raise ValueError("tap powers must not all be zero")
    return sum(kronecker_effective(h, np.multiply(alpha, power / total), corr)
               for power, h, corr in taps)


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
