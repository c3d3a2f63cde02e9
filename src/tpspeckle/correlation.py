"""Frequency correlations of the random medium's transmission coefficients.

Transmission coefficients of a diffusive slab are modeled as zero-mean
circular Gaussian random variables with
``<t(w) t*(w')> = t_bar * C(w - w')``.  Two kernels are supported:

* Model I  - exponential decay, ``C(dw) = exp(-|dw| / omega_corr)``,
* Model II - diffusive kernel, ``C(dw) = z / sinh(z)`` with
  ``z = sqrt(-i dw / omega_th)``, ``omega_th`` the Thouless frequency.

Either scale may be inf: frequency-flat transmission (the cw limit), where
C = 1 at every detuning.

``covariance_factor`` builds a lower-triangular factor of the Hermitian
covariance matrix on a uniform grid, used to draw correlated samples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NotPositiveSemidefiniteError

__all__ = [
    "ModelI",
    "ModelII",
    "CorrelationModel",
    "FrequencyGrid",
    "CovarianceFactor",
    "correlation",
    "correlation_sq_magnitude",
    "covariance_factor",
]

# Relative eigenvalue floor and jitter budget for the covariance factorization.
EIG_FLOOR = 1e-12
JITTER_BUDGET = 1e-6


@dataclass(frozen=True)
class ModelI:
    """Exponential frequency correlation with correlation frequency ``omega_corr`` in (0, inf]."""

    omega_corr: float

    def __post_init__(self):
        if not self.omega_corr > 0:
            raise ValueError(f"omega_corr must lie in (0, inf], got {self.omega_corr!r}")


@dataclass(frozen=True)
class ModelII:
    """Diffusive frequency correlation with Thouless frequency ``omega_th`` in (0, inf]."""

    omega_th: float

    def __post_init__(self):
        if not self.omega_th > 0:
            raise ValueError(f"omega_th must lie in (0, inf], got {self.omega_th!r}")


CorrelationModel = Union[ModelI, ModelII]


def _model_scale(model: CorrelationModel) -> float:
    """omega_corr or omega_th of a correlation model; ``TypeError`` for anything else."""
    if isinstance(model, ModelI):
        return model.omega_corr
    if isinstance(model, ModelII):
        return model.omega_th
    raise TypeError(f"model must be ModelI or ModelII, got {model!r}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: ``n >= 8`` points on ``[center - half_width, center + half_width]``,
    at most ``np.iinfo(np.intp).max``, the largest length a numpy axis can have."""

    center: float
    half_width: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise TypeError(f"grid n must be an integer, got {self.n!r}")
        most = np.iinfo(np.intp).max
        if not 8 <= self.n <= most:
            raise ValueError(f"grid needs n >= 8 points, at most {most}, got {self.n}")
        if not (math.isfinite(self.center) and math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("center must be finite and half_width finite and > 0")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.center - self.half_width, self.center + self.half_width, self.n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class CovarianceFactor:
    """Lower-triangular factor L with ``L @ L^H = t_bar * C(w_m - w_n) + jitter_used * I``."""

    lower_factor: np.ndarray
    jitter_used: float


def _model_ii_ratio(z: np.ndarray) -> np.ndarray:
    """z / sinh(z), stable at the removable singularity and for large |z|."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    az = np.abs(z)

    small = az < 1e-3
    zs = z[small]
    z2 = zs * zs
    # z/sinh z = 1 - z^2/6 + 7 z^4/360 - ...
    out[small] = 1.0 - z2 / 6.0 + 7.0 * z2 * z2 / 360.0

    big = az > 20.0
    zb = z[big]
    # 2 z e^{-z} / (1 - e^{-2z}) avoids sinh overflow; Re z > 0 for the principal root
    emz = np.exp(-zb)
    out[big] = 2.0 * zb * emz / (1.0 - emz * emz)

    mid = ~(small | big)
    out[mid] = z[mid] / np.sinh(z[mid])
    return out


def correlation(delta_omega, model: CorrelationModel):
    """Field correlation C(delta_omega); complex for Model II, C(0) = 1 exactly."""
    dw = np.asarray(delta_omega, dtype=float)
    if isinstance(model, ModelI):
        out = np.exp(-np.abs(dw) / model.omega_corr).astype(complex)
    else:
        z = np.sqrt(-1j * dw / model.omega_th + 0j)
        out = _model_ii_ratio(z)
    if np.isscalar(delta_omega) or out.ndim == 0:
        return complex(out)
    return out


def correlation_sq_magnitude(delta_omega, model: CorrelationModel):
    """|C(delta_omega)|^2, real, even, equal to 1 at zero detuning."""
    out = np.abs(correlation(delta_omega, model)) ** 2
    return float(out) if np.ndim(out) == 0 else out


def covariance_factor(grid: FrequencyGrid, model: CorrelationModel, t_bar: float) -> CovarianceFactor:
    """Factor the Hermitian covariance ``t_bar * C(w_m - w_n)`` on the grid.

    Adds the minimal diagonal jitter needed to lift the smallest eigenvalue
    to ``EIG_FLOOR * t_bar``; raises ``NotPositiveSemidefiniteError`` if more
    than ``JITTER_BUDGET * t_bar`` would be required.
    """
    if not 0.0 < t_bar <= 1.0:
        raise ValueError("t_bar must be in (0, 1]")
    omega = grid.axis()
    col = t_bar * correlation(omega - omega[0], model)
    # Hermitian Toeplitz: col below the diagonal, its conjugate above
    lag = np.subtract.outer(np.arange(grid.n), np.arange(grid.n))
    entries = col[np.abs(lag)]
    sigma = np.where(lag >= 0, entries, np.conj(entries))

    eig_min = float(np.linalg.eigvalsh(sigma).min())
    jitter = max(0.0, EIG_FLOOR * t_bar - eig_min)
    budget = JITTER_BUDGET * t_bar
    while True:
        if jitter > budget:
            raise NotPositiveSemidefiniteError(
                f"covariance not positive semidefinite: required jitter {jitter:.3e} "
                f"exceeds budget {budget:.3e}"
            )
        try:
            L = np.linalg.cholesky(sigma + jitter * np.eye(grid.n))
            break
        except np.linalg.LinAlgError:
            jitter = max(2.0 * jitter, 1e-15 * t_bar)
    return CovarianceFactor(lower_factor=L, jitter_used=jitter)

