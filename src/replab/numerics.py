"""Self-contained numerical kernels: special functions, roots, minima, quadrature.

Everything downstream (mechanism expectations, equilibrium solvers, closed-form
accuracy results) is built on the handful of primitives in this module.  They
are implemented here rather than pulled from a special-function library so the
package's analytical results can be cross-checked against independent oracles
in the test suite, and so the numerical behavior (tolerances, tail cutoffs) is
pinned by our own code.

Conventions
-----------
- All functions are deterministic and side-effect free.
- ``erf`` and ``folded_normal_mean`` accept floats or numpy arrays and return
  the matching kind; the iterative solvers (``find_root``, ``minimize_1d``,
  ``integrate``) are scalar.
- Improper integrals over Normal tails are handled by the callers via a fixed
  cutoff of 8 standard deviations; beyond that point the Normal cdf/pdf are
  below 1e-15, which is negligible at the 1e-9 quadrature tolerance used
  throughout.
- Absolute-error targets: ``erf`` is accurate to 1e-12 or better over the real
  line; ``integrate`` targets the requested absolute tolerance (default 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NormalParams",
    "NoBracket",
    "NoRoot",
    "erf",
    "normal_pdf",
    "normal_cdf",
    "folded_normal_mean",
    "find_root",
    "minimize_1d",
    "integrate",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Normal tail cutoff used by callers when truncating semi-infinite integrals.
TAIL_SIGMAS = 8.0


class NoBracket(RuntimeError):
    """Raised when a root finder is given endpoints that do not bracket a root."""


class NoRoot(RuntimeError):
    """Raised when an equation solver cannot locate a root in its search domain."""


@dataclass(frozen=True)
class NormalParams:
    """Parameters of a (possibly degenerate) Normal distribution.

    ``std == 0`` is allowed and denotes a point mass at ``mean``; sampling and
    closed-form code paths both honor it.
    """

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not math.isfinite(self.std) or self.std < 0.0:
            raise ValueError(f"std must be finite and >= 0, got {self.std!r}")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

# Maclaurin series is used on |x| <= 2 where its terms stay small (no
# cancellation trouble); beyond that the continued fraction for erfc converges
# rapidly.  48 series terms / 90 fraction levels are well past what double
# precision can resolve at the switchover point.
_SERIES_CUT = 2.0
_SERIES_TERMS = 48
_CF_LEVELS = 90


def _erf_series(ax: np.ndarray) -> np.ndarray:
    # erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
    x2 = ax * ax
    term = ax.copy()  # (-1)^n x^(2n+1) / n!   at n = 0
    total = ax.copy()  # running sum of term / (2n+1)
    for n in range(1, _SERIES_TERMS):
        term *= -x2 / n
        total += term / (2 * n + 1)
    return (2.0 / _SQRT_PI) * total


def _erfc_cf(ax: np.ndarray) -> np.ndarray:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # Beyond x = 40, erfc underflows to 0 in double precision; capping the
    # argument there avoids pointless overflow in x*x for extreme inputs.
    ax = np.minimum(ax, 40.0)
    t = np.zeros_like(ax)
    for k in range(_CF_LEVELS, 0, -1):
        t = (0.5 * k) / (ax + t)
    return np.exp(-ax * ax) / _SQRT_PI / (ax + t)


def erf(x: float | np.ndarray) -> float | np.ndarray:
    """Error function, accurate to about 1e-15 absolute (contract: <= 1e-12).

    Accepts a float or an ndarray; arrays are evaluated elementwise.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    ax = np.abs(np.atleast_1d(arr))
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUT
    if np.any(small):
        out[small] = _erf_series(ax[small])
    if not np.all(small):
        large = ~small
        out[large] = 1.0 - _erfc_cf(ax[large])
    out = np.copysign(out, np.atleast_1d(arr))
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def normal_pdf(x: float | np.ndarray, mean: float = 0.0, std: float = 1.0) -> float | np.ndarray:
    """Density of N(mean, std^2); ``std`` must be positive."""
    if not std > 0.0:
        raise ValueError(f"std must be positive, got {std!r}")
    z = (np.asarray(x, dtype=float) - mean) / std
    out = _INV_SQRT_2PI / std * np.exp(-0.5 * z * z)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x: float | np.ndarray, mean: float = 0.0, std: float = 1.0) -> float | np.ndarray:
    """Cumulative distribution of N(mean, std^2); ``std`` must be positive."""
    if not std > 0.0:
        raise ValueError(f"std must be positive, got {std!r}")
    z = (np.asarray(x, dtype=float) - mean) / (std * _SQRT2)
    return 0.5 * (1.0 + erf(z))


def folded_normal_mean(mu: float | np.ndarray, sigma: float | np.ndarray) -> float | np.ndarray:
    """E|Z| for Z ~ N(mu, sigma^2).

    Closed form: sigma*sqrt(2/pi)*exp(-mu^2/(2 sigma^2)) + mu*erf(mu/(sqrt(2) sigma)).
    ``sigma == 0`` degenerates to ``|mu|``.  Elementwise on arrays (with
    broadcasting between ``mu`` and ``sigma``).
    """
    mu_a = np.asarray(mu, dtype=float)
    sg_a = np.asarray(sigma, dtype=float)
    if not np.all(sg_a >= 0.0):
        raise ValueError("sigma must be >= 0")
    scalar = mu_a.ndim == 0 and sg_a.ndim == 0
    mu_b, sg_b = np.broadcast_arrays(np.atleast_1d(mu_a), np.atleast_1d(sg_a))
    out = np.abs(mu_b).astype(float)
    # For |mu| >> sigma the correction terms vanish below double precision
    # (e.g. exp(-800) at 40 sigma), so only the non-degenerate cells are
    # evaluated through the closed form.
    pos = np.abs(mu_b) < 40.0 * sg_b
    if np.any(pos):
        m, s = mu_b[pos], sg_b[pos]
        ratio = m / (s * _SQRT2)
        out_pos = s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (m / s) ** 2) + m * erf(ratio)
        out[pos] = out_pos
    if scalar:
        return float(out[0])
    return out.reshape(np.broadcast_shapes(mu_a.shape, sg_a.shape))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


# Secant-or-bisection steps before find_root settles for its bracket's
# midpoint; every step shrinks the bracket by at least 1%.
_ROOT_STEPS = 200


def _check_interval(lo: float, hi: float, tol: float) -> None:
    """Raise ``ValueError`` naming a bound that is not finite or a ``tol``
    that is not positive, with which a solver would never stop."""
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Locate a root of ``f`` inside ``[lo, hi]`` with a bisection-safeguarded secant.

    The endpoints must bracket a sign change (``f(lo) * f(hi) <= 0``),
    otherwise :class:`NoBracket` is raised.  Terminates when the bracket width
    falls below ``tol`` (or an exact zero is hit) and returns the bracket
    midpoint.  Deterministic: no randomness, no global state.  Raises
    ``ValueError`` on a bound that is not finite or a ``tol`` that is not
    positive.
    """
    _check_interval(lo, hi, tol)
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoBracket(f"f({lo:g})={fa:g} and f({hi:g})={fb:g} have the same sign")
    a, b = lo, hi
    for _ in range(_ROOT_STEPS):
        if (b - a) <= tol:
            break
        # Secant proposal, demoted to bisection when degenerate or out of bracket.
        x = 0.5 * (a + b)
        if fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            if a < s < b:
                x = s
        # Keep the step from stagnating against one endpoint.
        width = b - a
        x = min(max(x, a + 0.01 * width), b - 0.01 * width)
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# One-dimensional minimization
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    scan_points: int = 129,
) -> tuple[float, float]:
    """Minimize ``f`` on ``[lo, hi]``; returns ``(argmin, min value)``.

    A uniform coarse scan (``scan_points`` samples) selects the best basin;
    golden-section search then shrinks it to width ``tol``.  The scan makes the
    routine robust to multimodal objectives whose basins are wider than the
    scan spacing; raise ``scan_points`` for narrower features.  Raises
    ``ValueError`` on a bound that is not finite or a ``tol`` that is not
    positive.
    """
    _check_interval(lo, hi, tol)
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if scan_points < 3:
        raise ValueError("scan_points must be >= 3")
    xs = np.linspace(lo, hi, scan_points)
    vals = [f(float(x)) for x in xs]
    i = int(np.argmin(vals))
    best_x, best_f = float(xs[i]), float(vals[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, scan_points - 1)])
    # Golden-section search on the bracketing cell.
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    mid = 0.5 * (a + b)
    fmid = f(mid)
    if fmid < best_f:
        best_x, best_f = mid, fmid
    return best_x, best_f


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# Bisections of one interval before integrate takes its Richardson estimate
# whatever the error.
_SIMPSON_DEPTH = 48


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    err = left + right - whole
    if not math.isfinite(err):
        # No refinement makes a non-finite estimate finite.
        raise ValueError(f"integrand is not finite on [{a!r}, {b!r}]")
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[lo, hi]``.

    Targets absolute error ``tol`` (Richardson-extrapolated error estimate).
    Reversed bounds negate the result; equal bounds give 0.  Semi-infinite
    integrands over Normal tails should be truncated by the caller at
    ``TAIL_SIGMAS`` standard deviations (see module docstring).  Raises
    ``ValueError`` on a bound that is not finite or a ``tol`` that is not
    positive, and once an estimate of the integral is not finite.
    """
    _check_interval(lo, hi, tol)
    if lo == hi:
        return 0.0
    if hi < lo:
        return -integrate(f, hi, lo, tol=tol)
    fa = f(lo)
    fb = f(hi)
    m = 0.5 * (lo + hi)
    fm = f(m)
    whole = _simpson(fa, fm, fb, lo, hi)
    return _adaptive(f, lo, hi, fa, fm, fb, whole, tol, _SIMPSON_DEPTH)
