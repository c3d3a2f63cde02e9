"""Frequency correlations of the random medium's transmission coefficients.

Transmission coefficients of a diffusive slab are modeled as zero-mean
circular Gaussian random variables with
``<t(w) t*(w')> = t_bar * C(w - w')``.  Two kernels are supported:

* Model I  - exponential decay, ``C(dw) = exp(-|dw| / omega_corr)``,
* Model II - diffusive kernel, ``C(dw) = z / sinh(z)`` with
  ``z = sqrt(-i dw / omega_th)``, ``omega_th`` the Thouless frequency.

``covariance_factor`` builds a lower-triangular factor of the Hermitian
covariance matrix on a uniform grid, used to draw correlated samples.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import cholesky, eigvalsh, toeplitz

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
    "model_to_config",
    "model_from_config",
]

# Relative eigenvalue floor and jitter budget for the covariance factorization.
EIG_FLOOR = 1e-12
JITTER_BUDGET = 1e-6


@dataclass(frozen=True)
class ModelI:
    """Exponential frequency correlation with correlation frequency ``omega_corr``."""

    omega_corr: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_corr) and self.omega_corr > 0):
            raise ValueError("omega_corr must be finite and > 0")


@dataclass(frozen=True)
class ModelII:
    """Diffusive frequency correlation with Thouless frequency ``omega_th``."""

    omega_th: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_th) and self.omega_th > 0):
            raise ValueError("omega_th must be finite and > 0")


CorrelationModel = Union[ModelI, ModelII]


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: ``n`` points on ``[center - half_width, center + half_width]``.

    Quadrature and ensemble consumers need n >= 8; a single-point grid is
    allowed so degenerate covariance cases stay expressible.
    """

    center: float
    half_width: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise TypeError(f"grid n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("grid needs n >= 1 points")
        if not (math.isfinite(self.center) and math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("center must be finite and half_width finite and > 0")

    @property
    def spacing(self) -> float:
        if self.n == 1:
            return 0.0
        return 2.0 * self.half_width / (self.n - 1)

    def axis(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.center])
        return np.linspace(self.center - self.half_width, self.center + self.half_width, self.n)

    def trapezoid_weights(self) -> np.ndarray:
        if self.n == 1:
            return np.array([2.0 * self.half_width])
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class CovarianceFactor:
    """Lower-triangular factor L with ``L @ L^H = t_bar * C(w_m - w_n) + jitter_used * I``."""

    grid: FrequencyGrid
    lower_factor: np.ndarray
    jitter_used: float
    t_bar: float


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
    col = np.atleast_1d(col)
    sigma = toeplitz(col, np.conj(col))

    eig_min = float(eigvalsh(sigma).min()) if grid.n > 1 else float(sigma[0, 0].real)
    jitter = max(0.0, EIG_FLOOR * t_bar - eig_min)
    budget = JITTER_BUDGET * t_bar
    while True:
        if jitter > budget:
            raise NotPositiveSemidefiniteError(
                f"covariance not positive semidefinite: required jitter {jitter:.3e} "
                f"exceeds budget {budget:.3e}"
            )
        try:
            L = cholesky(sigma + jitter * np.eye(grid.n), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter = max(2.0 * jitter, 1e-15 * t_bar)
    return CovarianceFactor(grid=grid, lower_factor=L, jitter_used=jitter, t_bar=t_bar)


def model_to_config(model: CorrelationModel) -> dict:
    """Serialize to the {"model": "I"|"II", "scale": <rad/time>} wire format."""
    if isinstance(model, ModelI):
        return {"model": "I", "scale": model.omega_corr}
    return {"model": "II", "scale": model.omega_th}


def model_from_config(cfg) -> CorrelationModel:
    """Parse the {"model": "I"|"II", "scale": <rad/time>} wire format."""
    if isinstance(cfg, str):
        cfg = json.loads(cfg)
    kind = cfg["model"]
    scale = float(cfg["scale"])
    if kind == "I":
        return ModelI(omega_corr=scale)
    if kind == "II":
        return ModelII(omega_th=scale)
    raise ValueError(f"unknown correlation model {kind!r}")
