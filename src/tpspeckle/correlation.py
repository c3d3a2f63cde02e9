"""Frequency correlations of the random medium's transmission coefficients.

Transmission coefficients of a diffusive slab are modeled as zero-mean
circular Gaussian random variables with
``<t(w) t*(w')> = t_bar * C(w - w')``.  Two kernels are supported:

* Model I  - exponential decay, ``C(dw) = exp(-|dw| / omega_corr)``,
* Model II - diffusive kernel, ``C(dw) = z / sinh(z)`` with
  ``z = sqrt(-i dw / omega_th)``, ``omega_th`` the Thouless frequency,
  evaluated in real parts (``_model_ii``), so ``|C|^2`` takes no complex step.

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


def _model_ii(delta_omega, omega_th):
    """C_II = num (1 - i s) / (re - i s im) at v = delta_omega / omega_th; returns (num, re, im, s, a).

    With a = sqrt(|v| / 2), e = exp(-a) and s = sign v, z = a (1 - i s), and z and
    sinh z times 2e give num = 2 a e, re = -expm1(-2a) cos a, im = (1 + e^2) sin a:
    |C_II|^2 = 2 num^2 / (re^2 + im^2) has nothing to cancel.  Below a = 1e-8,
    C_II = 1 + i s a^2 / 3 and |C_II|^2 = 1 to double precision, so the parts are
    taken at a = 1e-8 there and the readers use the limit; past a = 800, e = 0
    and the parts are taken at 800, so C_II(+-inf) = 0.
    """
    v = np.asarray(delta_omega, dtype=float) / omega_th
    a = np.sqrt(0.5 * np.abs(v))
    b = np.minimum(np.maximum(a, 1e-8), 800.0)
    e = np.exp(-b)
    return 2.0 * b * e, -np.expm1(-2.0 * b) * np.cos(b), (1.0 + e * e) * np.sin(b), np.sign(v), a


def correlation(delta_omega, model: CorrelationModel):
    """Field correlation C(delta_omega); complex for Model II, C(0) = 1 exactly."""
    dw = np.asarray(delta_omega, dtype=float)
    if isinstance(model, ModelI):
        out = np.exp(-np.abs(dw) / model.omega_corr).astype(complex)
    else:
        num, re, im, s, a = _model_ii(dw, model.omega_th)
        out = np.where(a < 1e-8, 1.0 + 1j * s * a * a / 3.0, num * (1.0 - 1j * s) / (re - 1j * s * im))
    return complex(out) if out.ndim == 0 else out


def correlation_sq_magnitude(delta_omega, model: CorrelationModel):
    """|C(delta_omega)|^2, real, even, equal to 1 at zero detuning."""
    dw = np.asarray(delta_omega, dtype=float)
    if isinstance(model, ModelI):
        out = np.exp(-np.abs(dw) / model.omega_corr) ** 2
    else:
        num, re, im, _, a = _model_ii(dw, model.omega_th)
        out = np.where(a < 1e-8, 1.0, 2.0 * num * num / (re * re + im * im))
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

