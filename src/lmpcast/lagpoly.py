"""Backshift-operator polynomial algebra.

A lag polynomial is a finite sum ``1 + c_1 B + c_2 B^2 + ...`` in the
backshift operator B (``B^h x_t = x_{t-h}``), stored sparsely by lag so
seasonal factors such as ``1 - 0.4 B^24`` stay cheap. The lag-0 coefficient
is always exactly 1, matching the leading 1 of every AR/MA/differencing
factor used here.

Sign convention: a factor with autoregressive coefficient ``phi`` is stored
as ``{0: 1, 1: -phi}`` - the minus signs live in the stored coefficients.

The sparse map is the public algebra; computation reads dense ascending-lag
arrays, and every recursion that continues from past values runs as one
:func:`lfilter` call started by :func:`past_terms`. :func:`lfilter` is the
package's one filter entry point: SciPy's C routine behind
``scipy.signal.lfilter``, loaded from its extension file so that the
``scipy.signal`` package ``__init__``, which imports ``scipy.stats`` and
more, never runs. The same loader, :func:`_load_scipy_routines`, loads
MINPACK's ``lmder`` for the mean-equation search, so no ``scipy.optimize``
import runs either.
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterable, Mapping, NamedTuple

import numpy as np
import scipy

from .errors import InsufficientPresample, SeriesTooShort
from .series import HOUR, HourlySeries, format_hour

__all__ = [
    "LagPolynomial",
    "DifferenceSpec",
    "StabilityResult",
    "apply",
    "multiply",
    "difference_polynomial",
    "integrate",
    "is_stable",
    "lfilter",
    "past_terms",
]


def _load_scipy_routines(root: str = os.path.dirname(scipy.__file__)) -> list:
    """SciPy's private C routines that the package calls, ``[_linear_filter, _lmder]``, from under ``root``.

    ``_sigtools._linear_filter`` is the filter behind ``scipy.signal.lfilter``
    and ``_minpack._lmder`` MINPACK's Levenberg-Marquardt (More 1978) behind
    ``scipy.optimize.leastsq``. The package's one place that names them:
    only their extension files are loaded, so neither package ``__init__``
    runs (``scipy.signal``'s imports ``scipy.stats``, ``scipy.optimize``
    takes about 0.4 s). A missing extension or routine is an ImportError
    naming the installed SciPy.
    """
    routines = []
    for package, extension, name in (("signal", "_sigtools", "_linear_filter"), ("optimize", "_minpack", "_lmder")):
        directory = os.path.join(root, package)
        finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(f"scipy.{package}.{extension}")
        routine = None
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            routine = getattr(module, name, None)
        if routine is None:
            raise ImportError(
                f"lmpcast calls SciPy's C routine {extension}.{name}, "
                f"which SciPy {scipy.__version__} does not provide in {directory}"
            )
        routines.append(routine)
    return routines


_linear_filter, _lmder = _load_scipy_routines()


def lfilter(b, a, x, zi=None, axis=-1):
    """``scipy.signal.lfilter(b, a, x, axis=axis, zi=zi)`` on float64 input; with ``zi``, ``(y, zf)``.

    ``b`` and ``a`` are one-dimensional: arrays or sequences, never scalars.
    A one-term denominator without ``zi`` runs one ``np.convolve(b / a[0],
    row)`` per lane of ``x`` along ``axis``, as SciPy's wrapper does, and
    every other call SciPy's C routine, so each form the package uses equals
    SciPy bit for bit.
    """
    b, a, x = np.asarray(b), np.asarray(a), np.asarray(x)
    if a.shape[0] == 1 and zi is None:
        b = b / a[0]
        x = np.moveaxis(x, axis, -1)
        n = x.shape[-1]
        y = np.array([np.convolve(b, row) for row in x.reshape(-1, n)]).reshape(*x.shape[:-1], -1)[..., :n]
        return np.moveaxis(y, -1, axis)
    return _linear_filter(b, a, x, axis) if zi is None else _linear_filter(b, a, x, axis, np.asarray(zi))


@dataclass(frozen=True)
class LagPolynomial:
    """Finite polynomial in the backshift operator with unit lag-0 coefficient."""

    coefficients: Mapping[int, float]

    def __post_init__(self) -> None:
        cleaned: dict[int, float] = {}
        for lag, coeff in self.coefficients.items():
            lag = int(lag)
            coeff = float(coeff)
            if lag < 0:
                raise ValueError(f"negative lag {lag}")
            if lag != 0 and coeff == 0.0:
                continue  # keep storage sparse
            cleaned[lag] = coeff
        if cleaned.get(0) != 1.0:
            raise ValueError("lag-0 coefficient must be exactly 1")
        object.__setattr__(self, "coefficients", dict(sorted(cleaned.items())))

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    def coefficient(self, lag: int) -> float:
        return self.coefficients.get(lag, 0.0)

    def dense(self) -> np.ndarray:
        """Coefficients as an ascending-lag dense array of length degree+1."""
        out = np.zeros(self.degree + 1)
        for lag, coeff in self.coefficients.items():
            out[lag] = coeff
        return out

    def __mul__(self, other: "LagPolynomial") -> "LagPolynomial":
        return multiply(self, other)

    @staticmethod
    def identity() -> "LagPolynomial":
        return LagPolynomial({0: 1.0})

    @staticmethod
    def from_factor_coefficients(coeffs: Iterable[float], spacing: int = 1) -> "LagPolynomial":
        """Build ``1 - a_1 B^s - a_2 B^{2s} - ...`` from factor coefficients ``a_i``.

        This is the shared shape of the AR, seasonal AR, MA and seasonal MA
        factors: the caller passes the plain coefficients and the minus signs
        are applied here.
        """
        if spacing < 1:
            raise ValueError("spacing must be >= 1")
        out = {0: 1.0}
        for i, a in enumerate(coeffs, start=1):
            if a != 0.0:
                out[i * spacing] = -float(a)
        return LagPolynomial(out)


class StabilityResult(NamedTuple):
    stable: bool
    margin: float


@dataclass(frozen=True)
class DifferenceSpec:
    """Orders of ordinary (d) and seasonal (D, season length S) differencing."""

    d: int = 0
    D: int = 0
    S: int = 24

    def __post_init__(self) -> None:
        if self.d < 0 or self.D < 0:
            raise ValueError("differencing orders must be non-negative")
        if self.S < 1:
            raise ValueError("season length must be positive")
        if self.D > 0 and self.S < 2:
            raise ValueError("seasonal differencing requires season length >= 2")

    @property
    def order(self) -> int:
        """Number of presample values consumed: d + D*S."""
        return self.d + self.D * self.S


def multiply(a: LagPolynomial, b: LagPolynomial) -> LagPolynomial:
    """Product polynomial: convolution of the sparse coefficient maps."""
    out: dict[int, float] = {}
    for la, ca in a.coefficients.items():
        for lb, cb in b.coefficients.items():
            lag = la + lb
            out[lag] = out.get(lag, 0.0) + ca * cb
    return LagPolynomial(out)


def difference_polynomial(spec: DifferenceSpec) -> LagPolynomial:
    """Expanded ``(1 - B)^d (1 - B^S)^D``."""
    poly = LagPolynomial.identity()
    step = LagPolynomial({0: 1.0, 1: -1.0})
    for _ in range(spec.d):
        poly = multiply(poly, step)
    if spec.D > 0:
        seasonal = LagPolynomial({0: 1.0, spec.S: -1.0})
        for _ in range(spec.D):
            poly = multiply(poly, seasonal)
    return poly


def apply(poly: LagPolynomial, series: HourlySeries) -> HourlySeries:
    """Apply the operator: ``out_t = sum_h coeff(h) * in_{t-h}``.

    Defined only where every lag is available, so the output is shorter by
    ``degree`` samples and its start is advanced by the same number of hours.
    """
    k = poly.degree
    n = len(series)
    if n <= k:
        raise SeriesTooShort(f"series of length {n} cannot absorb polynomial of degree {k}")
    out = apply_array(poly, series.values)
    return HourlySeries(series.start + HOUR * k, out, series.units)


def apply_array(poly: LagPolynomial, x: np.ndarray) -> np.ndarray:
    """Array form of :func:`apply`; returns length ``len(x) - degree``."""
    k = poly.degree
    n = x.shape[0]
    out = np.zeros(n - k)
    for lag, coeff in poly.coefficients.items():
        out += coeff * x[k - lag : n - lag]
    return out


def integrate(
    differenced: HourlySeries,
    presample: HourlySeries,
    spec: DifferenceSpec,
) -> HourlySeries:
    """Invert :func:`difference_polynomial` applied to a level series.

    ``presample`` must supply the ``d + D*S`` level values immediately
    preceding the differenced window (extra leading values are ignored).
    The output covers exactly the differenced window, and re-differencing
    the presample-prefixed output reproduces the input exactly.
    """
    poly = difference_polynomial(spec)
    k = poly.degree
    if k == 0:
        return differenced
    if len(presample) < k:
        raise InsufficientPresample(
            f"need {k} presample values for d={spec.d}, D={spec.D}, S={spec.S}; got {len(presample)}"
        )
    if presample.end != differenced.start:
        raise InsufficientPresample(
            f"presample must end immediately before the differenced window: "
            f"presample end {format_hour(presample.end)} vs start {format_hour(differenced.start)}"
        )
    out = integrate_array(differenced.values, presample.values[-k:], poly.dense())
    return HourlySeries(differenced.start, out, presample.units)


def past_terms(coeffs: np.ndarray, past: np.ndarray, n: int | None = None) -> np.ndarray:
    """``sum_{i>j} c_i x_{j-i}`` for ``j = 0..n-1``: what each row's past adds to a filter's first outputs.

    ``coeffs`` is a dense ascending-lag array of degree ``k`` (lag 0 unread);
    ``past`` holds each row's last ``k`` values, oldest first. ``n`` defaults
    to ``k``; later outputs are zero. Negated, it is ``lfiltic``'s state.
    """
    k = coeffs.shape[0] - 1
    n = k if n is None else n
    c = np.concatenate([coeffs[1:], np.zeros(n)])
    return past[..., ::-1] @ c[np.arange(k)[:, None] + np.arange(n)]


def integrate_array(diff: np.ndarray, presample: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Recursive inversion ``y_t = diff_t - sum_{h>=1} a_h * y_{t-h}`` along the last axis.

    ``a`` is the dense ascending-lag operator; the filter ``lfilter([1], a,
    diff)`` starts from the ``len(a) - 1`` presample values (oldest first,
    one row per row of ``diff``) as its past outputs.
    """
    if a.shape[0] == 1:
        return diff
    return lfilter([1.0], a, diff, zi=-past_terms(a, presample))[0]


def is_stable(poly: LagPolynomial | np.ndarray, tolerance: float = 1e-8) -> StabilityResult:
    """Whether all roots (in B) lie strictly outside the unit circle.

    ``poly`` is a :class:`LagPolynomial` or its dense ascending-lag array.
    Roots come from the companion-matrix eigenvalues of the reversed
    coefficient vector (numpy.roots). The margin is ``min |root| - 1``; the
    polynomial counts as stable when the margin exceeds ``tolerance``.
    A degree-0 polynomial has no roots and is stable with infinite margin.
    """
    dense = poly.dense() if isinstance(poly, LagPolynomial) else poly
    return _stability(tuple(np.asarray(dense).tolist()), tolerance)


# the last results by coefficients: each fit's factors are checked for its
# boundary flags, then by the conformity checks of its residuals and of its
# forecasts, which a rolling backtest makes at every refit origin
@functools.lru_cache(maxsize=16)
def _stability(coefficients: tuple[float, ...], tolerance: float) -> StabilityResult:
    """:func:`is_stable` of the ascending-lag ``coefficients``."""
    roots = np.roots(np.array(coefficients[::-1]))
    if not roots.size:
        return StabilityResult(True, float("inf"))
    margin = float(np.min(np.abs(roots)) - 1.0)
    return StabilityResult(margin > tolerance, margin)
