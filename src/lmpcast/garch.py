"""GARCH conditional-variance models layered on ARMA residuals.

The variance recursion is

    sigma2_t = alpha0 + sum_i alpha_i e2_{t-i} + sum_j beta_j sigma2_{t-j}

with presample squared residuals and variances both initialized to the
sample variance of the residual series. Estimation is two-stage: the mean
equation is fitted first and GARCH is fitted to its residuals, so
attaching a variance model never moves a point forecast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.signal import lfilter, lfiltic

from .errors import InvalidParameters
from .series import HourlySeries

if TYPE_CHECKING:  # pragma: no cover
    from .estimation import FitOptions, FittedModel

__all__ = [
    "GarchSpec",
    "GarchParams",
    "conditional_variances",
    "garch_log_likelihood",
    "forecast_variance",
    "forecast_variance_origins",
    "attach_garch",
]


@dataclass(frozen=True)
class GarchSpec:
    """Orders of a GARCH(p, q) model.

    ``p`` counts squared-residual (ARCH) lags and must be at least 1;
    ``q`` counts lagged-variance (GARCH) terms and may be 0.
    """

    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"ARCH order p must be >= 1, got {self.p}")
        if self.q < 0:
            raise ValueError(f"GARCH order q must be >= 0, got {self.q}")


@dataclass(frozen=True)
class GarchParams:
    """Coefficients of the variance recursion.

    Weak nonnegativity is admitted for ``alpha``/``beta`` so boundary
    estimates are representable; ``sum(alpha) + sum(beta) < 1`` keeps the
    process covariance stationary.
    """

    alpha0: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        if not self.alpha0 > 0.0:
            raise InvalidParameters(f"alpha0 must be positive, got {self.alpha0}")
        if not self.alpha:
            raise InvalidParameters("at least one ARCH coefficient is required")
        if any(a < 0.0 for a in self.alpha) or any(b < 0.0 for b in self.beta):
            raise InvalidParameters("alpha and beta coefficients must be non-negative")
        if self.persistence >= 1.0:
            raise InvalidParameters(
                f"sum(alpha) + sum(beta) = {self.persistence} must be < 1"
            )

    @property
    def persistence(self) -> float:
        return float(sum(self.alpha) + sum(self.beta))

    @property
    def unconditional_variance(self) -> float:
        """Long-run variance alpha0 / (1 - sum(alpha) - sum(beta))."""
        return self.alpha0 / (1.0 - self.persistence)


def _check_orders(spec: GarchSpec, params: GarchParams) -> None:
    if len(params.alpha) != spec.p or len(params.beta) != spec.q:
        raise InvalidParameters(
            f"params have orders ({len(params.alpha)}, {len(params.beta)}), "
            f"spec requires ({spec.p}, {spec.q})"
        )


def _variance_recursion(
    alpha0: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    eps2: np.ndarray,
    v0: float,
) -> np.ndarray:
    """Run the recursion with presample eps2 and sigma2 both equal to v0."""
    p = alpha.shape[0]
    q = beta.shape[0]
    m = eps2.shape[0]
    eps2_ext = np.concatenate([np.full(p, v0), eps2])
    arch = np.convolve(np.concatenate([[0.0], alpha]), eps2_ext)[p : p + m]
    x = alpha0 + arch
    if q == 0:
        return x
    a = np.concatenate([[1.0], -beta])
    zi = lfiltic([1.0], a, np.full(q, v0))
    sig2, _ = lfilter([1.0], a, x, zi=zi)
    return sig2


def conditional_variances(params: GarchParams, residuals: HourlySeries) -> HourlySeries:
    """Conditional variance path of the residual series under the model.

    Presample squared residuals and variances are backcast with the
    residual sample variance; outputs are strictly positive because
    ``alpha0 > 0``.
    """
    values = residuals.values
    v0 = float(np.var(values))
    sig2 = _variance_recursion(
        params.alpha0, np.asarray(params.alpha), np.asarray(params.beta), values**2, v0
    )
    return HourlySeries(residuals.start, sig2, "variance")


def garch_log_likelihood(params: GarchParams, residuals: HourlySeries) -> float:
    """Gaussian quasi-log-likelihood of the residuals under the variance path."""
    eps2 = residuals.values**2
    sig2 = _variance_recursion(
        params.alpha0,
        np.asarray(params.alpha),
        np.asarray(params.beta),
        eps2,
        float(np.var(residuals.values)),
    )
    return float(
        -0.5 * (residuals.values.shape[0] * math.log(2.0 * math.pi) + np.sum(np.log(sig2)) + np.sum(eps2 / sig2))
    )


def forecast_variance(params: GarchParams, residuals: HourlySeries, horizon: int) -> np.ndarray:
    """Expected conditional variances for 1..horizon steps ahead.

    Runs the variance recursion forward in expectation (Baillie and
    Bollerslev 1992): a squared residual or variance already observed
    enters as itself, and a future squared residual enters as its expected
    value, the variance forecast for that step. For GARCH(1, 1) this is
    ``sigma2_{t+h} = alpha0 + persistence * sigma2_{t+h-1}`` for h >= 2,
    converging geometrically to the unconditional variance.
    """
    return _forecast_variance(params, residuals.values, horizon)


def _forecast_variance(params: GarchParams, values: np.ndarray, horizon: int) -> np.ndarray:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    v0 = float(np.var(values))
    alpha = np.asarray(params.alpha)
    beta = np.asarray(params.beta)
    p, q = alpha.shape[0], beta.shape[0]
    sig2 = _variance_recursion(params.alpha0, alpha, beta, values**2, v0)
    # the last p squared residuals and q variances, backcast with v0 before the sample
    eps2 = np.concatenate([np.full(p, v0), values[-p:] ** 2])[-p:]
    past = np.concatenate([np.full(q, v0), sig2[-q:]])[-q:] if q else np.empty(0)
    return _expected_path(params.alpha0, alpha, beta, eps2[None], past[None], horizon)[0]


def forecast_variance_origins(
    params: GarchParams,
    innovations: np.ndarray,
    response: np.ndarray,
    shifts: np.ndarray,
    ends: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Variance forecasts from many origins of one residual series, shaped ``(origins, horizon)``.

    Origin ``i``'s residuals are ``innovations[:ends[i]] + shifts[i] * response[:ends[i]]``,
    as an ARMA filter's innovations are under per-origin backcast means, and
    row ``i`` is :func:`forecast_variance` of them. The variance recursion is
    linear in the squared residuals and in its presample value, so one
    recursion over each of ``innovations**2``, ``innovations * response``,
    ``response**2`` and the presample serves every origin.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alpha = np.asarray(params.alpha)
    beta = np.asarray(params.beta)
    p, q = alpha.shape[0], beta.shape[0]
    e, r = innovations, response
    s = np.asarray(shifts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.intp)

    def prefix_sum(x: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(x)])[ends]

    mean = (prefix_sum(e) + s * prefix_sum(r)) / ends
    v0 = (prefix_sum(e * e) + 2.0 * s * prefix_sum(e * r) + s * s * prefix_sum(r * r)) / ends
    v0 = v0 - mean**2

    parts = (
        _variance_recursion(params.alpha0, alpha, beta, e * e, 0.0),
        _variance_recursion(0.0, alpha, beta, e * r, 0.0),
        _variance_recursion(0.0, alpha, beta, r * r, 0.0),
        _variance_recursion(0.0, alpha, beta, np.zeros_like(e), 1.0),
    )

    shift, v0_col = s[:, None], v0[:, None]
    # each origin's last p squared residuals and q variances, oldest first,
    # backcast with its v0 before the sample
    idx = ends[:, None] - np.arange(p, 0, -1)
    x = e[np.maximum(idx, 0)] + shift * r[np.maximum(idx, 0)]
    eps2 = np.where(idx >= 0, x * x, v0_col)
    idx = ends[:, None] - np.arange(q, 0, -1)
    at = np.maximum(idx, 0)
    sig2 = parts[0][at] + 2.0 * shift * parts[1][at] + shift * shift * parts[2][at] + v0_col * parts[3][at]
    past = np.where(idx >= 0, sig2, v0_col)
    return _expected_path(params.alpha0, alpha, beta, eps2, past, horizon)


def _expected_path(
    alpha0: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    eps2: np.ndarray,
    past: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Run the recursion forward in expectation, one row per origin.

    ``eps2`` and ``past`` hold each origin's last p squared residuals and q
    variances, oldest first; a future squared residual enters as its
    expected value, the variance forecast for that step.
    """
    p, q = alpha.shape[0], beta.shape[0]
    eps2 = [eps2[:, i] for i in range(p)]
    past = [past[:, j] for j in range(q)]
    out = np.empty((eps2[0].shape[0], horizon))
    for h in range(horizon):
        step = np.full(out.shape[0], alpha0)
        for i in range(1, p + 1):
            step = step + alpha[i - 1] * eps2[-i]
        for j in range(1, q + 1):
            step = step + beta[j - 1] * past[-j]
        out[:, h] = step
        eps2.append(step)
        past.append(step)
    return out


def attach_garch(
    arma_fit: "FittedModel",
    gspec: GarchSpec,
    options: "FitOptions | None" = None,
) -> "FittedModel":
    """Fit a GARCH model to the residuals of a fitted mean equation.

    Returns a copy of the fit carrying the variance model; the mean
    equation, and with it every point forecast, is untouched. Coefficient
    estimates that land on the zero boundary are reported through the
    diagnostics flags.
    """
    from .estimation import FitOptions, fit_garch

    gparams = fit_garch(arma_fit.residuals, gspec, options or FitOptions())
    flags = list(arma_fit.diagnostics.boundary_flags)
    if any(a < 1e-6 for a in gparams.alpha):
        flags.append("garch_alpha_at_zero")
    if any(b < 1e-6 for b in gparams.beta):
        flags.append("garch_beta_at_zero")
    diagnostics = replace(arma_fit.diagnostics, boundary_flags=tuple(flags))
    return replace(arma_fit, garch=(gspec, gparams), diagnostics=diagnostics)
