"""Independent closed-form oracles for the benchmark's correctness checks.

Everything here is written against ``math.erf`` and ``math.exp`` only, so a
check never compares replab with itself.  The formulas follow the model
described in replab's docstrings:

- the band offset ``y`` is the root in (0, 1) of the stationarity condition
  of the expected published reputation under punish-reward;
- the expected published reputation and the expected band error have
  elementary antiderivatives in the Normal cdf and pdf;
- a manipulated cross-report ``a*R + b`` checked against an honest report
  gives a folded-Normal discrepancy.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def phi(w: float) -> float:
    """Standard Normal density."""
    return math.exp(-0.5 * w * w) / SQRT_2PI


def big_phi(w: float) -> float:
    """Standard Normal cdf."""
    return 0.5 * (1.0 + math.erf(w / SQRT2))


def folded_normal_mean(mu: float, sigma: float) -> float:
    """E|Z| for Z ~ N(mu, sigma^2)."""
    return sigma * SQRT_2_OVER_PI * math.exp(-0.5 * (mu / sigma) ** 2) + mu * math.erf(
        mu / (SQRT2 * sigma)
    )


def collusion_tax(a: float, b: float, r: float, sigma: float) -> float:
    """Expected |a*R + b - R'| for R, R' ~ N(r, sigma^2) independent."""
    return folded_normal_mean((a - 1.0) * r + b, math.sqrt(1.0 + a * a) * sigma)


def _offset_residual(y: float, a: float) -> float:
    t1 = a * (y + 1.0) / SQRT2
    t2 = a * (y - 1.0) / SQRT2
    gauss = (a / SQRT_2PI) * (math.exp(-t1 * t1) - 3.0 * math.exp(-t2 * t2))
    return gauss - 0.5 * (math.erf(t1) + 3.0 * math.erf(t2))


def band_offset(a: float) -> float:
    """Root in (0, 1) of the band-offset equation, by scan and bisection."""
    points = 1024
    ys = [1e-9 + (1.0 - 2e-9) * i / (points - 1) for i in range(points)]
    prev = _offset_residual(ys[0], a)
    for lo, hi in zip(ys, ys[1:]):
        cur = _offset_residual(hi, a)
        if (prev < 0.0) != (cur < 0.0):
            break
        prev = cur
    else:
        raise ValueError(f"no sign change of the band-offset equation for a={a}")
    f_lo = _offset_residual(lo, a)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        f_mid = _offset_residual(mid, a)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cdf_antiderivative(c: float, mu: float, s: float) -> float:
    """Integral of the N(mu, s^2) cdf from -inf to c."""
    w = (c - mu) / s
    return s * (w * big_phi(w) + phi(w))


def expected_reputation(x: float, mu: float, s: float, eps: float) -> float:
    """Expected published reputation of a report ``x`` under punish-reward.

    The aggregate is N(mu, s^2) and ``eps`` is the band half-width.
    """
    f_hi = big_phi((x + eps - mu) / s)
    f_lo = big_phi((x - eps - mu) / s)
    return (
        x
        + 0.5 * eps * f_hi
        - 1.5 * eps * f_lo
        - 0.5 * _cdf_antiderivative(x + eps, mu, s)
        - 1.5 * _cdf_antiderivative(x - eps, mu, s)
    )


def band_error(a: float, s: float) -> float:
    """Expected |published - true| at the optimal self-report (centred)."""
    x = a * s * band_offset(a)
    eps = a * s
    lo, hi = x - eps, x + eps
    below = x * big_phi(lo / s) + 2.0 * s * phi(lo / s)
    above = x * (1.0 - big_phi(hi / s))

    def part(t: float) -> float:
        # Antiderivative of (t + x) times the N(0, s^2) density.
        return -s * phi(t / s) + x * big_phi(t / s)

    if lo < -x < hi:
        band = (part(hi) - part(-x)) - (part(-x) - part(lo))
    elif -x <= lo:
        band = part(hi) - part(lo)
    else:
        band = part(lo) - part(hi)
    return below + above + 0.5 * band


def uniform_abs_error_moments(r: float) -> tuple[float, float]:
    """Mean and variance of |U - r| for U ~ Uniform(0, 1)."""
    mean = 0.5 * (r * r + (1.0 - r) ** 2)
    second = (r**3 + (1.0 - r) ** 3) / 3.0
    return mean, second - mean * mean


def uniform_charge_moments(m: float, s: float) -> tuple[float, float]:
    """Mean and variance of (U - R0)^2, U ~ Uniform(0, 1), R0 ~ N(m, s^2).

    With D = U - R0 = (1/2 - m) + X + Y, X ~ Uniform(-1/2, 1/2) and
    Y ~ N(0, s^2) independent, the central moments of X + Y are
    E[Z^2] = 1/12 + s^2 and E[Z^4] = 1/80 + s^2/2 + 3 s^4.
    """
    c = 0.5 - m
    z2 = 1.0 / 12.0 + s * s
    z4 = 1.0 / 80.0 + 0.5 * s * s + 3.0 * s**4
    mean = c * c + z2
    fourth = c**4 + 6.0 * c * c * z2 + z4
    return mean, fourth - mean * mean
