"""End-to-end acceptance gate: eleven numbered behavioral criteria.

Each test enforces one criterion at its stated numeric tolerance and time
budget and prints a single pass/fail verdict line (visible with ``-rA``;
``pytest -v`` additionally gives one PASSED/FAILED line per criterion).

Criterion 8 currently FAILS, on purpose: the claim that the collusion-tax
grid search bottoms out at truthful reporting is false.  Along the line
where the manipulated report is unbiased the expected discrepancy still
grows with the scaling coefficient, so the grid minimizer sits at the
smallest scaling, not at the identity map.  The closed-form-vs-Monte-Carlo
half of that criterion is asserted first so the verdict isolates the false
minimizer claim; the failure message reports the measured minimizer.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from click.testing import CliRunner

from replab.analysis import (
    as_ir_gain,
    collusion_expected_tax,
    hetero_image_participation,
    hetero_system_gain,
    hetero_truth_participation,
    deviation_report,
    pr_mae,
)
from replab.cli import main
from replab.core import (
    AS,
    AbsPower,
    Agent,
    Environment,
    ExtendedAS,
    Image,
    Linear,
    Mixed,
    PR,
    Quality,
    Truth,
    UtilitySpec,
)
from replab.mechanisms import run_batch
from replab.numerics import NormalParams, minimize_1d
from replab.strategies import (
    _y_residual,
    expected_pr_reputation,
    pr_optimal_self_report,
    proportional_deviation_profit,
    solve_y,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num:02d} {name}: {status}", flush=True)
    if failures:
        raise AssertionError(f"criterion {num:02d} {name}: " + " | ".join(failures))


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


@contextmanager
def _budget(failures: list[str], seconds: float, label: str = "criterion"):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    if elapsed > seconds:
        failures.append(f"{label} took {elapsed:.1f}s, budget {seconds:.0f}s")


# ---------------------------------------------------------------------------
# Shared scenario builders
# ---------------------------------------------------------------------------

ALL_TRUTH_INI = """\
[environment]
index_scheme = {scheme}
system_std = 0.1
cross_std = 0.1

[agents]
agent0 = quality=0.3 type=truth
agent1 = quality=0.5 type=truth
agent2 = quality=0.7 type=truth
agent3 = quality=0.4 type=truth
agent4 = quality=0.6 type=truth

[mechanism]
kind = {kind}

[simulation]
seed = 2026
"""


def _truth_agent(i: int, quality: float, sigma: float, p: float = 2.0) -> Agent:
    return Agent(
        id=i,
        quality=Quality(quality),
        agent_type=Truth(),
        utility=UtilitySpec(f=AbsPower(p), g=Linear(), truth_weight=1.0),
        cross_obs=NormalParams(0.0, sigma),
    )


def _image_agent(i: int, quality: float, sigma: float) -> Agent:
    return Agent(
        id=i,
        quality=Quality(quality),
        agent_type=Image(),
        utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=0.0),
        cross_obs=NormalParams(0.0, sigma),
    )


def _mixed_population(
    n_truth: int, n_image: int, sigma: float = 0.3, sigma0: float = 0.1
) -> Environment:
    """Focal truth agent first, then image users at quality 0.25, then truth."""
    agents = [_truth_agent(0, 0.5, sigma)]
    agents += [_image_agent(1 + j, 0.25, sigma) for j in range(n_image)]
    agents += [_truth_agent(1 + n_image + j, 0.5, sigma) for j in range(n_truth - 1)]
    return Environment(agents=tuple(agents), system_obs=NormalParams(0.0, sigma0))


# ---------------------------------------------------------------------------
# 1. Equilibrium suite via the CLI audit command
# ---------------------------------------------------------------------------


def test_criterion_01_equilibrium_suite(tmp_path):
    failures: list[str] = []
    runner = CliRunner()
    for kind in ("as", "extended_as", "fr", "simple_averaging"):
        # The share mechanism estimates relative standing, so its all-truth
        # equilibrium is stated against share targets.
        scheme = "relative" if kind == "fr" else "absolute"
        config = tmp_path / f"{kind}.ini"
        config.write_text(ALL_TRUTH_INI.format(kind=kind, scheme=scheme))
        with _budget(failures, 60.0, label=kind):
            result = runner.invoke(
                main,
                [
                    "check-equilibrium",
                    str(config),
                    "--grid",
                    "201",
                    "--trials",
                    "100000",
                ],
            )
        _check(
            failures,
            result.exit_code == 0,
            f"{kind}: exit {result.exit_code}, output: {result.output.strip()}",
        )
        _check(
            failures,
            "no profitable deviation" in result.output,
            f"{kind}: missing all-clear line",
        )
    _verdict(1, "equilibrium-suite", failures)


# ---------------------------------------------------------------------------
# 2. Band-offset roots against a dense grid-argmax oracle
# ---------------------------------------------------------------------------


def test_criterion_02_band_offset_roots():
    failures: list[str] = []
    mu, sigma_prime = 0.5, 0.1
    with _budget(failures, 10.0):
        for a in np.linspace(0.5, 5.0, 50):
            a = float(a)
            y = solve_y(a)
            _check(failures, 0.0 < y < 1.0, f"a={a:.3f}: root {y} outside (0, 1)")
            residual = abs(float(_y_residual(y, a)))
            _check(
                failures,
                residual <= 1e-10,
                f"a={a:.3f}: residual {residual:.2e} > 1e-10",
            )
            eps = a * sigma_prime
            xs = np.linspace(mu, mu + eps, 5001)
            values = expected_pr_reputation(xs, mu, sigma_prime, eps)
            y_oracle = (float(xs[int(np.argmax(values))]) - mu) / eps
            _check(
                failures,
                abs(y - y_oracle) <= 1e-3,
                f"a={a:.3f}: root {y:.6f} vs grid argmax {y_oracle:.6f}",
            )
    _verdict(2, "band-offset-roots", failures)


# ---------------------------------------------------------------------------
# 3. Band-error minimum location and level
# ---------------------------------------------------------------------------


def test_criterion_03_band_error_minimum():
    failures: list[str] = []
    with _budget(failures, 30.0):
        for sigma_prime in (0.05, 0.1, 0.2):
            best_a, best_val = minimize_1d(
                lambda a: pr_mae(a, sigma_prime), 0.5, 5.0, tol=1e-6
            )
            _check(
                failures,
                abs(best_a - 1.7) <= 0.1,
                f"sigma'={sigma_prime}: argmin {best_a:.4f} not within 1.7 +- 0.1",
            )
            averaging = SQRT_2_OVER_PI * sigma_prime
            level = pr_mae(1.7, sigma_prime)
            _check(
                failures,
                level < averaging,
                f"sigma'={sigma_prime}: error {level:.6f} not below averaging {averaging:.6f}",
            )
    _verdict(3, "band-error-minimum", failures)


# ---------------------------------------------------------------------------
# 4. The mutually beneficial band multiplier
# ---------------------------------------------------------------------------


def test_criterion_04_mutual_benefit_point():
    failures: list[str] = []
    with _budget(failures, 10.0):
        a, sigma_prime, r = 2.25, 0.1, 0.5
        eq = pr_optimal_self_report(r, sigma_prime, a)
        lift = expected_pr_reputation(eq.x_star, r, sigma_prime, a * sigma_prime) - r
        _check(failures, lift > 0.0, f"reputation lift {lift:.6f} not positive")
        averaging = SQRT_2_OVER_PI * sigma_prime
        level = pr_mae(a, sigma_prime)
        _check(
            failures,
            level < averaging,
            f"error {level:.6f} not below averaging {averaging:.6f}",
        )
    _verdict(4, "mutual-benefit-point", failures)


# ---------------------------------------------------------------------------
# 5. Budget balance on random message profiles
# ---------------------------------------------------------------------------


def test_criterion_05_budget_balance():
    failures: list[str] = []
    with _budget(failures, 5.0):
        rng = np.random.Generator(np.random.Philox(20260815))
        k, profiles = 7, 10_000
        selfs = rng.uniform(0.0, 1.0, size=(profiles, k))
        cross = rng.uniform(0.0, 1.0, size=(profiles, k, k))
        r0 = rng.uniform(0.0, 1.0, size=(profiles, k))
        cases = [
            ("plain scoring", AS(), selfs, None, r0),
            ("one validation layer", ExtendedAS(layers=1), selfs, cross, None),
            ("two validation layers", ExtendedAS(layers=2), selfs, cross, None),
        ]
        for label, spec, s, c, sys_obs in cases:
            _, taxes = run_batch(spec, s, c, sys_obs)
            worst = float(np.abs(taxes.sum(axis=1)).max())
            _check(
                failures,
                worst <= 1e-10,
                f"{label}: worst net tax {worst:.2e} > 1e-10",
            )
    _verdict(5, "budget-balance", failures)


# ---------------------------------------------------------------------------
# 6. Participation gain: sign and closed-form-vs-Monte-Carlo sweep
# ---------------------------------------------------------------------------


def test_criterion_06_participation_gain_sweep():
    failures: list[str] = []
    with _budget(failures, 60.0):
        rng = np.random.Generator(np.random.Philox(6))
        trials = 100_000
        for p in (1.0, 2.0):
            for sigma in np.linspace(0.0, 0.5, 11):
                sigma = float(sigma)
                draws = rng.normal(0.0, sigma, trials) if sigma > 0.0 else np.zeros(trials)
                losses = np.abs(draws) if p == 1.0 else draws * draws
                per_peer_mc = float(losses.mean())
                per_peer_se = float(losses.std(ddof=1) / math.sqrt(trials))
                for k in range(2, 21):
                    agents = tuple(
                        _truth_agent(i, 0.5, sigma, p=p) for i in range(k)
                    )
                    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
                    gain = as_ir_gain(env.agents[0], env)
                    _check(
                        failures,
                        gain >= 0.0,
                        f"p={p} sigma={sigma:.2f} K={k}: gain {gain:.3e} negative",
                    )
                    mc = (k - 1) * per_peer_mc
                    tol = 3.0 * (k - 1) * per_peer_se
                    _check(
                        failures,
                        abs(gain - mc) <= tol,
                        f"p={p} sigma={sigma:.2f} K={k}: closed {gain:.6f} vs MC {mc:.6f} "
                        f"(3 stderr {tol:.6f})",
                    )
    _verdict(6, "participation-gain-sweep", failures)


# ---------------------------------------------------------------------------
# 7. Worked mixed-population example: best response, participation, gain
# ---------------------------------------------------------------------------


def test_criterion_07_worked_example_thresholds():
    failures: list[str] = []
    with _budget(failures, 30.0):
        # (a) image best response min(r + 1/2, 1) vs the numeric maximizer.
        for r in (0.25, 0.4, 0.6):
            env = Environment(
                agents=(
                    _image_agent(0, r, 0.1),
                    _truth_agent(1, 0.5, 0.1),
                    _truth_agent(2, 0.55, 0.1),
                ),
                system_obs=NormalParams(0.0, 0.1),
            )
            report = deviation_report(
                0, AS(), env, others_strategy="equilibrium", trials=100_000, grid=201
            )
            closed = min(r + 0.5, 1.0)
            _check(
                failures,
                abs(report.best - closed) <= 1e-3,
                f"r={r}: numeric best {report.best:.4f} vs closed {closed:.4f}",
            )

        # (b) truth participation verdict vs the rho <= 4 sigma^2 rule at 20
        # lattice points, both sides, margins >= 5% of the boundary.
        points = 0
        for sigma in np.linspace(0.16, 0.42, 10):
            sigma = float(sigma)
            boundary = 4.0 * sigma * sigma
            for factor in (0.75, 1.25):
                n_image = int(round(100 * boundary * factor))
                n_image = min(max(n_image, 1), 100)
                rho = n_image / 100.0
                margin = abs(rho - boundary) / boundary
                _check(
                    failures,
                    margin >= 0.05,
                    f"sigma={sigma:.3f} I={n_image}: margin {margin:.3f} < 5%",
                )
                env = _mixed_population(
                    n_truth=101 - n_image, n_image=n_image, sigma=sigma
                )
                report = hetero_truth_participation(env, method="closed")
                expected = rho <= boundary
                _check(
                    failures,
                    report.participates == expected,
                    f"sigma={sigma:.3f} rho={rho:.2f}: verdict "
                    f"{report.participates}, rule says {expected}",
                )
                points += 1
        _check(failures, points == 20, f"covered {points} lattice points, wanted 20")

        # (c) image participation vs gamma <= 4(1-r), including the
        # always-joins low-quality case and both sides at high quality.
        for r, n_truth_others, expected in (
            (0.3, 10, True),  # gamma = 1.0 <= 2.8
            (0.9, 3, True),  # gamma = 0.3 <= 0.4
            (0.9, 5, False),  # gamma = 0.5 > 0.4
        ):
            agents = [_image_agent(0, r, 0.1)]
            agents += [_truth_agent(1 + j, 0.5, 0.1) for j in range(n_truth_others)]
            agents += [
                _image_agent(1 + n_truth_others + j, 0.25, 0.1)
                for j in range(10 - n_truth_others)
            ]
            env = Environment(agents=tuple(agents), system_obs=NormalParams(0.0, 0.1))
            report = hetero_image_participation(env.agents[0], env, method="closed")
            gamma = n_truth_others / 10.0
            _check(
                failures,
                report.gamma == gamma,
                f"r={r}: census gamma {report.gamma} != {gamma}",
            )
            rule = gamma <= 4.0 * (1.0 - r)
            _check(
                failures,
                report.participates == expected and rule == expected,
                f"r={r} gamma={gamma}: verdict {report.participates}, rule {rule}, "
                f"expected {expected}",
            )

        # (d) system-gain verdict vs rho < 2 sqrt(2/pi) sigma, both sides.
        for n_image, expected in ((1, True), (2, False)):
            env = _mixed_population(n_truth=11 - n_image, n_image=n_image, sigma=0.1)
            rho = n_image / 10.0
            bound = 2.0 * SQRT_2_OVER_PI * env.system_obs.std
            _check(
                failures,
                (rho < bound) == expected,
                f"setup error: rho {rho} vs bound {bound:.4f}",
            )
            _check(
                failures,
                hetero_system_gain(env) == expected,
                f"I={n_image}: system-gain verdict {hetero_system_gain(env)}, "
                f"rule says {expected}",
            )
    _verdict(7, "worked-example-thresholds", failures)


# ---------------------------------------------------------------------------
# 8. Collusion-tax grid minimizer (HONEST FAIL: the truthful-minimum claim
#    is false; the unbiased line beats it at smaller scalings)
# ---------------------------------------------------------------------------


def test_criterion_08_collusion_tax_minimum():
    failures: list[str] = []
    with _budget(failures, 30.0):
        r, sigma = 0.3, 0.1

        # Closed form vs 10^6-draw Monte Carlo first, so a verdict failure
        # below isolates the minimizer claim.
        rng = np.random.Generator(np.random.Philox(8))
        for a, b in ((1.0, 0.0), (0.0, 0.3), (1.5, 0.2)):
            x = rng.normal(r, sigma, 1_000_000)
            y = rng.normal(r, sigma, 1_000_000)
            sample = np.abs(a * x + b - y)
            mc = float(sample.mean())
            se = float(sample.std(ddof=1) / math.sqrt(sample.size))
            closed = collusion_expected_tax(a, b, r, sigma)
            _check(
                failures,
                abs(closed - mc) <= 3.0 * se,
                f"(a={a}, b={b}): closed {closed:.6f} vs MC {mc:.6f} (3 stderr {3*se:.2e})",
            )

        grid_a = np.linspace(0.0, 2.0, 201)
        grid_b = np.linspace(-0.5, 0.5, 201)
        taxes = np.empty((grid_a.size, grid_b.size))
        for i, a in enumerate(grid_a):
            for j, b in enumerate(grid_b):
                taxes[i, j] = collusion_expected_tax(float(a), float(b), r, sigma)
        i_min, j_min = np.unravel_index(int(np.argmin(taxes)), taxes.shape)
        a_min, b_min = float(grid_a[i_min]), float(grid_b[j_min])
        step_a = float(grid_a[1] - grid_a[0])
        step_b = float(grid_b[1] - grid_b[0])
        at_truthful = collusion_expected_tax(1.0, 0.0, r, sigma)
        _check(
            failures,
            abs(a_min - 1.0) <= step_a + 1e-12 and abs(b_min) <= step_b + 1e-12,
            "grid minimizer is NOT the truthful report: found "
            f"(a={a_min:.3f}, b={b_min:.3f}) with expected tax {taxes[i_min, j_min]:.6f} "
            f"vs {at_truthful:.6f} at (1, 0); every point on the unbiased line "
            "b = (1 - a) r with a < 1 undercuts the identity report because the "
            "discrepancy spread sqrt(1 + a^2) sigma shrinks with a",
        )
    _verdict(8, "collusion-tax-minimum", failures)


# ---------------------------------------------------------------------------
# 9. Closed-form published-reputation oracle vs mechanism Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_09_band_reputation_oracle():
    failures: list[str] = []
    with _budget(failures, 60.0):
        points = [
            # (x, mu, sigma', a)
            (0.55, 0.5, 0.1, 1.0),
            (0.50, 0.5, 0.1, 1.7),
            (0.65, 0.5, 0.1, 1.7),
            (0.25, 0.5, 0.1, 2.0),
            (0.90, 0.5, 0.1, 2.25),
            (0.52, 0.5, 0.05, 2.0),
            (0.62, 0.5, 0.05, 1.0),
            (0.45, 0.4, 0.2, 1.7),
            (0.10, 0.3, 0.2, 2.5),
            (0.975, 0.5, 0.2, 3.0),
        ]
        trials = 1_000_000
        for index, (x, mu, sigma_prime, a) in enumerate(points):
            rng = np.random.Generator(np.random.Philox(900 + index))
            # Three iid N(mu, sigma' * sqrt(3)) channels average to the
            # target N(mu, sigma') aggregate for subject 0.
            channel_std = sigma_prime * math.sqrt(3.0)
            selfs = np.full((trials, 3), 0.5)
            selfs[:, 0] = x
            cross = np.full((trials, 3, 3), 0.5)
            cross[:, 1, 0] = rng.normal(mu, channel_std, trials)
            cross[:, 2, 0] = rng.normal(mu, channel_std, trials)
            r0 = np.full((trials, 3), 0.5)
            r0[:, 0] = rng.normal(mu, channel_std, trials)
            reps, taxes = run_batch(PR(a=a), selfs, cross, r0, sigma_prime=sigma_prime)
            published = reps[:, 0]
            mc = float(published.mean())
            se = float(published.std(ddof=1) / math.sqrt(trials))
            closed = expected_pr_reputation(x, mu, sigma_prime, a * sigma_prime)
            _check(
                failures,
                abs(closed - mc) <= 3.0 * se,
                f"point {index} (x={x}, mu={mu}, sigma'={sigma_prime}, a={a}): "
                f"closed {closed:.6f} vs MC {mc:.6f} (3 stderr {3*se:.2e})",
            )
            _check(
                failures,
                float(np.abs(taxes).max()) == 0.0,
                f"point {index}: band mechanism levied a tax",
            )
    _verdict(9, "band-reputation-oracle", failures)


# ---------------------------------------------------------------------------
# 10. Determinism of file outputs across worker counts and reruns
# ---------------------------------------------------------------------------


def test_criterion_10_output_determinism(tmp_path):
    failures: list[str] = []
    runner = CliRunner()
    config = tmp_path / "scenario.ini"
    config.write_text(
        ALL_TRUTH_INI.format(kind="as", scheme="absolute").replace(
            "seed = 2026", "seed = 2026\ntrials = 3000"
        )
    )

    def run_outputs(tag: str, workers: int) -> dict[str, bytes]:
        out = tmp_path / tag
        result = runner.invoke(
            main,
            ["run", str(config), "--out", str(out), "--workers", str(workers)],
        )
        _check(failures, result.exit_code == 0, f"{tag}: exit {result.exit_code}")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    baseline = run_outputs("w1", 1)
    for workers in (2, 8):
        other = run_outputs(f"w{workers}", workers)
        _check(
            failures,
            other == baseline,
            f"{workers}-worker outputs differ from the single-worker run",
        )
    rerun = run_outputs("w1-again", 1)
    _check(failures, rerun == baseline, "identical rerun changed output bytes")

    pr_config = tmp_path / "band.ini"
    pr_config.write_text(
        "[environment]\nsystem_std = 0.15\ncross_std = 0.15\n\n"
        "[agents]\nagent0 = quality=0.4 type=image\n"
        "agent1 = quality=0.5 type=image\nagent2 = quality=0.6 type=image\n\n"
        "[mechanism]\nkind = pr\na = 2.0\n\n[simulation]\ntrials = 1000\nseed = 5\n"
    )

    def sweep_outputs(tag: str, workers: int) -> dict[str, bytes]:
        out = tmp_path / tag
        result = runner.invoke(
            main,
            [
                "sweep",
                str(pr_config),
                "--parameter",
                "pr_a",
                "--grid",
                "1.0,1.7,2.25",
                "--out",
                str(out),
                "--workers",
                str(workers),
            ],
        )
        _check(failures, result.exit_code == 0, f"{tag}: exit {result.exit_code}")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    _check(
        failures,
        sweep_outputs("s1", 1) == sweep_outputs("s4", 4),
        "sweep outputs differ across worker counts",
    )
    _verdict(10, "output-determinism", failures)


# ---------------------------------------------------------------------------
# 11. Share-of-total deviation: net loss and component signs
# ---------------------------------------------------------------------------


def test_criterion_11_share_deviation_signs():
    failures: list[str] = []
    with _budget(failures, 10.0):
        agents = (
            Agent(
                id=0,
                quality=Quality(0.3),
                agent_type=Mixed(),
                utility=UtilitySpec(f=AbsPower(1.0), g=Linear(), truth_weight=0.5),
                cross_obs=NormalParams(0.0, 0.1),
            ),
            _truth_agent(1, 0.2, 0.1, p=1.0),
            _truth_agent(2, 0.15, 0.1, p=1.0),
            _truth_agent(3, 0.25, 0.1, p=1.0),
            _truth_agent(4, 0.1, 0.1, p=1.0),
        )
        env = Environment(
            agents=agents,
            system_obs=NormalParams(0.0, 0.1),
            index_scheme="relative",
        )
        r = 0.3
        for x in np.linspace(0.0, 1.0, 1001):
            x = float(x)
            accuracy, image, tax = proportional_deviation_profit(0, x, env, tax="as")
            net = accuracy + image + tax
            _check(failures, net <= 1e-12, f"x={x:.3f}: net profit {net:.3e} > 0")
            _check(
                failures,
                accuracy <= 1e-15,
                f"x={x:.3f}: accuracy component {accuracy:.3e} positive",
            )
            if x > r + 1e-9:
                _check(failures, image > 0.0, f"x={x:.3f}: image component not positive")
            elif x < r - 1e-9:
                _check(failures, image < 0.0, f"x={x:.3f}: image component not negative")
            else:
                _check(
                    failures,
                    abs(image) <= 1e-12,
                    f"x={x:.3f}: image component {image:.3e} not ~0 at the truth",
                )
            if failures:
                break  # one grid point is enough to diagnose; avoid 1001 repeats
    _verdict(11, "share-deviation-signs", failures)
