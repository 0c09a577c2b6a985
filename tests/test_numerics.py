"""Oracle checks for the numerical kernels.

The special functions are compared against independent references: the C
library ``math.erf``, Monte Carlo estimates, plain bisection, and dense-grid
scans.  Expected values asserted below were produced by those oracles, never
by the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from replab.numerics import (
    NoBracket,
    NormalParams,
    erf,
    find_root,
    folded_normal_mean,
    integrate,
    minimize_1d,
    normal_cdf,
    normal_pdf,
)


# ---------------------------------------------------------------------------
# erf / normal cdf
# ---------------------------------------------------------------------------


def test_erf_matches_stdlib_on_dense_grid():
    xs = np.linspace(-8.0, 8.0, 4001)
    ours = erf(xs)
    ref = np.array([math.erf(x) for x in xs])
    assert np.max(np.abs(ours - ref)) <= 1e-13


def test_erf_accuracy_near_series_cf_switchover():
    xs = np.linspace(1.9, 2.1, 2001)
    ref = np.array([math.erf(x) for x in xs])
    assert np.max(np.abs(erf(xs) - ref)) <= 1e-14


def test_erf_scalar_and_array_types():
    assert isinstance(erf(0.3), float)
    out = erf(np.array([[0.1, -0.2], [3.0, -5.0]]))
    assert out.shape == (2, 2)
    assert erf(0.0) == 0.0
    assert erf(10.0) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-10, max_value=10))
def test_erf_is_odd(x):
    assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)


def test_erf_monotone():
    xs = np.linspace(-5, 5, 1201)
    assert np.all(np.diff(erf(xs)) > 0)
    wide = np.linspace(-12, 12, 401)
    assert np.all(np.diff(erf(wide)) >= 0)


def test_normal_cdf_against_stdlib():
    for x in (-3.0, -1.0, 0.0, 0.5, 1.96, 4.0):
        ref = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert normal_cdf(x) == pytest.approx(ref, abs=1e-14)
    assert normal_cdf(1.3, mean=1.3, std=2.0) == pytest.approx(0.5, abs=1e-14)


def test_normal_pdf_peak_and_symmetry():
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    assert normal_pdf(0.7, mean=0.2, std=0.3) == pytest.approx(
        normal_pdf(-0.3, mean=0.2, std=0.3), abs=1e-15
    )


# ---------------------------------------------------------------------------
# folded normal mean
# ---------------------------------------------------------------------------


def test_folded_mean_degenerate_sigma():
    assert folded_normal_mean(0.4, 0.0) == 0.4
    assert folded_normal_mean(-0.4, 0.0) == 0.4


def test_folded_mean_centered_is_half_normal():
    for sigma in (0.05, 0.1, 1.0, 3.0):
        assert folded_normal_mean(0.0, sigma) == pytest.approx(
            sigma * math.sqrt(2.0 / math.pi), abs=1e-14
        )


def test_folded_mean_against_monte_carlo():
    rng = np.random.default_rng(20240817)
    for mu, sigma in ((0.1, 0.2), (-0.3, 0.05), (0.5, 0.5), (2.0, 0.7)):
        z = rng.normal(mu, sigma, size=2_000_000)
        sample = np.abs(z)
        mc = sample.mean()
        stderr = sample.std(ddof=1) / math.sqrt(sample.size)
        assert folded_normal_mean(mu, sigma) == pytest.approx(mc, abs=4 * stderr)


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0, max_value=2),
)
def test_folded_mean_symmetry_and_lower_bounds(mu, sigma):
    val = folded_normal_mean(mu, sigma)
    assert val == pytest.approx(folded_normal_mean(-mu, sigma), abs=1e-12)
    assert val >= abs(mu) - 1e-12
    assert val >= sigma * math.sqrt(2.0 / math.pi) * math.exp(-1e9 if sigma == 0 else 0) - 1e-12


def test_folded_mean_monotone_in_sigma_and_abs_mu():
    sig = np.linspace(0.0, 2.0, 41)
    vals = folded_normal_mean(0.3, sig)
    assert np.all(np.diff(vals) > 0)
    mus = np.linspace(0.0, 2.0, 41)
    vals = folded_normal_mean(mus, 0.4)
    assert np.all(np.diff(vals) > 0)


def test_folded_mean_broadcasts():
    out = folded_normal_mean(np.linspace(-1, 1, 5)[:, None], np.array([0.1, 0.2]))
    assert out.shape == (5, 2)


def test_normal_params_validation():
    NormalParams(0.5, 0.0)
    with pytest.raises(ValueError):
        NormalParams(0.0, -0.1)
    with pytest.raises(ValueError):
        NormalParams(math.nan, 0.1)


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------


def _bisect_oracle(f, lo, hi, n=200):
    fa = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fa < 0) == (fm < 0):
            lo, fa = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_find_root_cosine():
    root = find_root(math.cos, 1.0, 2.0, tol=1e-13)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_find_root_matches_bisection_oracle():
    f = lambda x: x**3 - 2.0 * x - 5.0
    root = find_root(f, 1.0, 3.0, tol=1e-13)
    assert root == pytest.approx(_bisect_oracle(f, 1.0, 3.0), abs=1e-12)
    assert abs(f(root)) < 1e-10


def test_find_root_exact_endpoint():
    assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert find_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_find_root_requires_bracket():
    with pytest.raises(NoBracket):
        find_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_find_root_flat_then_steep():
    # Nearly flat left of the root; secant alone would crawl, the bisection
    # safeguard must keep progress geometric.
    f = lambda x: math.tanh(50.0 * (x - 0.7)) + x * 1e-6
    root = find_root(f, 0.0, 1.0, tol=1e-13)
    assert abs(f(root)) < 1e-9


# ---------------------------------------------------------------------------
# minimize_1d
# ---------------------------------------------------------------------------


def test_minimize_parabola():
    x, fx = minimize_1d(lambda t: (t - 1.7) ** 2 + 0.25, 0.0, 5.0, tol=1e-10)
    assert x == pytest.approx(1.7, abs=1e-7)
    assert fx == pytest.approx(0.25, abs=1e-12)


def test_minimize_nonconvex_matches_dense_grid_oracle():
    f = lambda t: math.sin(3.0 * t) + 0.5 * math.sin(7.0 * t) + 0.05 * t
    grid = np.linspace(0.0, 3.0, 10_001)
    vals = np.array([f(t) for t in grid])
    oracle_x = grid[np.argmin(vals)]
    x, fx = minimize_1d(f, 0.0, 3.0, tol=1e-9)
    assert abs(x - oracle_x) <= (grid[1] - grid[0]) + 1e-9
    assert fx <= vals.min() + 1e-12


def test_minimize_boundary_minimum():
    x, fx = minimize_1d(lambda t: t, 2.0, 3.0, tol=1e-9)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_polynomial_exact():
    assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_sine():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-9)


def test_integrate_normal_density_mass():
    mu, sigma = 0.3, 0.07
    total = integrate(
        lambda x: normal_pdf(x, mean=mu, std=sigma), mu - 8 * sigma, mu + 8 * sigma
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_integrate_kinked_integrand():
    assert integrate(abs, -1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_integrate_orientation_and_degenerate():
    assert integrate(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)
    assert integrate(lambda x: x, 0.7, 0.7) == 0.0


def test_integrate_matches_cdf_difference():
    # d/dx normal_cdf = normal_pdf, so the quadrature must reproduce cdf gaps.
    mu, sigma = 0.1, 0.4
    lo, hi = -0.5, 0.9
    ref = normal_cdf(hi, mu, sigma) - normal_cdf(lo, mu, sigma)
    assert integrate(lambda x: normal_pdf(x, mu, sigma), lo, hi) == pytest.approx(ref, abs=1e-9)


def _counted(f, limit=10_000):
    """``f``, failing the test once it has been called ``limit`` times, so a
    solver that would not return fails fast instead of hanging."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError(f"called {limit} times without a result")
        return f(x)

    return counted


@pytest.mark.parametrize(
    "f",
    [lambda x: math.nan, lambda x: math.inf if x == 0.5 else 1.0],
    ids=["nan", "inf-at-midpoint"],
)
def test_integrate_rejects_non_finite_integrand(f):
    with pytest.raises(ValueError, match="integrand is not finite"):
        integrate(_counted(f), 0.0, 1.0)


@pytest.mark.parametrize("solver", [find_root, minimize_1d, integrate])
@pytest.mark.parametrize(
    "lo, hi, name",
    [(0.0, math.inf, "hi"), (0.0, math.nan, "hi"), (-math.inf, 1.0, "lo"), (math.nan, 1.0, "lo")],
)
def test_solvers_reject_non_finite_bounds(solver, lo, hi, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solver(_counted(lambda x: x - 0.3), lo, hi)


@pytest.mark.parametrize("solver", [find_root, minimize_1d, integrate])
@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_solvers_reject_a_tolerance_that_is_not_positive(solver, tol):
    # minimize_1d and integrate would never reach a width or error of at
    # most 0, or compare true against NaN.
    with pytest.raises(ValueError, match="tol must be positive"):
        solver(_counted(lambda x: x - 0.3), 0.0, 1.0, tol=tol)
