"""Limit fits, sigma and covering extrapolation, chains, bounds profiles."""

import copy
import math

import numpy as np
import pytest

from rieszlab.asymptotics import (
    AsymptoticFit,
    bounds_profile,
    estimate_covering_constant,
    estimate_sigma,
    fit_limit,
    sth_root_chain,
)
from rieszlab.covering import best_covering
from rieszlab.geometry import Ball, Cube, Sphere
from rieszlab.polarization import SolverOptions, inner_min, polarization_curve

LIGHT1 = SolverOptions(restarts=6, iters=800, tol=1e-4, seed=0, workers=1)
PROF = SolverOptions(restarts=6, iters=800, tol=1e-4, seed=0, workers=4)


def odd_power_sum(s):
    """Sum over odd k of k**-s."""
    k = np.arange(1.0, 20001.0, 2.0)
    return float(np.sum(k ** -s))


# ---------------------------------------------------------------------------
# fit_limit
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    n = np.array([4.0, 6.0, 9.0, 14.0, 21.0, 32.0])
    v = 3.0 + 2.0 / n
    fit = fit_limit(np.column_stack([n, v]))
    assert fit.method == "power_fit"
    assert fit.limit == pytest.approx(3.0, rel=1e-8)
    assert fit.exponent == pytest.approx(1.0, rel=1e-4)
    assert fit.residual < 1e-8
    np.testing.assert_allclose(fit.value_at(n), v, rtol=1e-7)


def test_fit_constant_sequence():
    n = np.array([2.0, 4.0, 8.0, 16.0])
    fit = fit_limit(np.column_stack([n, np.full(4, 5.0)]))
    assert fit.limit == pytest.approx(5.0, abs=1e-9)
    # whatever exponent the search kept, the decay term is negligible
    assert abs(fit.coeff) * 2.0 ** -fit.exponent < 1e-8


def test_fit_fixed_exponent_is_exact():
    n = np.array([3.0, 5.0, 8.0, 13.0, 21.0])
    v = 7.0 + 3.0 * n ** -0.5
    fit = fit_limit(np.column_stack([n, v]), fixed_p=0.5)
    assert fit.limit == pytest.approx(7.0, abs=1e-10)
    assert fit.coeff == pytest.approx(3.0, rel=1e-10)
    assert fit.exponent == 0.5


def test_fit_free_exponent_finds_half():
    n = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    v = 7.0 + 3.0 * n ** -0.5
    fit = fit_limit(np.column_stack([n, v]), dim=2)
    assert fit.limit == pytest.approx(7.0, abs=1e-6)
    assert fit.exponent == pytest.approx(0.5, rel=1e-3)


def test_fit_falls_back_on_oscillation():
    n = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    v = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    fit = fit_limit(np.column_stack([n, v]))
    assert fit.method in ("richardson", "last_value")
    assert math.isfinite(fit.limit) and math.isfinite(fit.residual)


def test_fit_rejects_bad_samples():
    good = np.column_stack([[1.0, 2.0, 3.0, 4.0], np.ones(4)])
    with pytest.raises(ValueError):
        fit_limit(good[:3])
    with pytest.raises(ValueError):
        fit_limit(good[[0, 2, 1, 3]])
    neg = good.copy()
    neg[:, 0] = [-1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        fit_limit(neg)
    with pytest.raises(ValueError):
        fit_limit(good, fixed_p=-1.0)
    with pytest.raises(ValueError):
        fit_limit(np.ones(5))


def test_root_fit_value_model():
    fit = AsymptoticFit(np.zeros((3, 2)), limit=16.0, coeff=-0.5,
                        exponent=0.5, residual=0.0, method="power_fit",
                        root=4.0)
    # value(n) = (16**(1/4) - 0.5 * n**-0.5)**4
    assert fit.value_at(16.0) == pytest.approx((2.0 - 0.125) ** 4, rel=1e-12)


# ---------------------------------------------------------------------------
# sigma on the interval
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def candidate_limit_s3():
    # independent oracle: exact inner minimum of the equally spaced
    # N-point configuration with endpoints, extrapolated in N
    rows = []
    for N in (16, 32, 64, 128, 256, 512):
        pts = np.linspace(0.0, 1.0, N)[:, None]
        rows.append((float(N), inner_min(Cube(1), pts, 3.0).value / N ** 3))
    return fit_limit(np.asarray(rows), dim=1)


@pytest.fixture(scope="module")
def interval_sigma_s3():
    return estimate_sigma(Cube(1), 3.0, [8, 16, 24, 32, 48, 64], opts=LIGHT1)


def test_candidate_matches_end_gap_closed_form(candidate_limit_s3):
    # for equal spacing the minimum sits at an end-gap midpoint, so the
    # normalized limit is 2**s * (1 + sum over odd k of k**-s)
    closed = 8.0 * (1.0 + odd_power_sum(3.0))
    assert candidate_limit_s3.limit == pytest.approx(closed, rel=1e-2)
    assert candidate_limit_s3.limit == pytest.approx(16.42898, rel=1e-3)


@pytest.mark.slow
def test_sigma_interval_near_candidate(candidate_limit_s3, interval_sigma_s3):
    fit = interval_sigma_s3
    assert fit.method == "power_fit" and fit.root == 1.0
    rel = abs(fit.limit - candidate_limit_s3.limit) / candidate_limit_s3.limit
    assert rel <= 0.02
    assert fit.limit == pytest.approx(16.612, rel=1e-2)


@pytest.mark.slow
def test_sigma_interval_near_closed_form(interval_sigma_s3):
    # optimal interval configurations pull the end charges in, lifting the
    # constant to 2**(s+1) * sum over odd k of k**-s
    sigma = 16.0 * odd_power_sum(3.0)
    assert abs(interval_sigma_s3.limit - sigma) / sigma <= 0.03


@pytest.mark.slow
def test_sigma_interval_window_consistency():
    w1 = estimate_sigma(Cube(1), 4.0, [8, 12, 16, 24, 32], opts=LIGHT1)
    w2 = estimate_sigma(Cube(1), 4.0, [16, 24, 32, 48, 64], opts=LIGHT1)
    rel = abs(w1.limit - w2.limit) / w2.limit
    assert rel <= 0.03
    assert w1.limit == pytest.approx(32.41, rel=2e-2)
    assert w2.limit == pytest.approx(32.23, rel=2e-2)
    # normalized values barely move over the top octave of the window
    top = w2.samples[w2.samples[:, 0] >= 32.0, 1]
    assert (np.max(top) - np.min(top)) / np.min(top) < 0.20


def test_sigma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        estimate_sigma(Cube(1), 1.0, [8, 16, 32])
    with pytest.raises(ValueError):
        estimate_sigma(Cube(2), 1.5, [8, 16, 32])
    with pytest.raises(ValueError):
        estimate_sigma(Cube(1), 3.0, [8, 16])


# ---------------------------------------------------------------------------
# sigma across domains
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_sigma_domain_independence_d2():
    # the normalized limit depends only on (s, d) once measure is divided
    # out, so square and disk estimates must agree
    fc = estimate_sigma(Cube(2), 4.0, [8, 16, 32, 64], opts=PROF)
    fb = estimate_sigma(Ball(2), 4.0, [8, 16, 32, 64], opts=PROF)
    assert fc.root == 4.0 and fb.root == 4.0
    rel = abs(fc.limit - fb.limit) / max(fc.limit, fb.limit)
    assert rel <= 0.10


# ---------------------------------------------------------------------------
# covering constant
# ---------------------------------------------------------------------------


def test_covering_constant_interval_exact():
    # N points cover the interval at exactly 1/(2N), so the scaled
    # sequence is constant 1/2
    fit = estimate_covering_constant(Cube(1), [4, 8, 16, 32])
    assert fit.limit == pytest.approx(0.5, abs=1e-6)
    assert abs(fit.coeff) < 1e-5
    assert fit.exponent == 1.0


@pytest.mark.slow
def test_covering_constant_disk_near_density_target():
    fit = estimate_covering_constant(Ball(2), [8, 12, 16, 24, 32])
    target = math.sqrt(2.0) / 27.0 ** 0.25 * math.sqrt(math.pi)
    assert abs(fit.limit - target) / target <= 0.10
    assert fit.exponent == pytest.approx(0.5)


def test_covering_constant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        estimate_covering_constant(Cube(1), [4, 8])
    with pytest.raises(ValueError):
        estimate_covering_constant(Cube(1), [8, 8, 16])


# ---------------------------------------------------------------------------
# s-th root chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def interval_chain():
    return sth_root_chain(Cube(1), 1, [8.0, 16.0, 32.0], [8, 12, 16, 24, 32],
                          opts=LIGHT1)


def test_interval_chain_covering_leg(interval_chain):
    for row in interval_chain:
        assert row.covering_leg == pytest.approx(2.0, abs=1e-6)


def test_interval_chain_roots_match_closed_form(interval_chain):
    for row in interval_chain:
        target = 2.0 * 2.0 ** (1.0 / row.s) * odd_power_sum(row.s) ** (1.0 / row.s)
        assert row.sigma_root == pytest.approx(target, rel=5e-4)
        assert row.gap == pytest.approx(abs(row.sigma_root - row.covering_leg))


def test_interval_chain_gap_shrinks(interval_chain):
    gaps = [row.gap for row in interval_chain]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_chain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sth_root_chain(Cube(1), 2, [8.0, 16.0], [8, 12, 16])
    with pytest.raises(ValueError):
        sth_root_chain(Cube(1), 1, [16.0, 8.0], [8, 12, 16])
    with pytest.raises(ValueError):
        sth_root_chain(Cube(1), 1, [0.5, 2.0], [8, 12, 16])
    # cubes in d = 3 need s > 3d - 4
    with pytest.raises(ValueError):
        sth_root_chain(Cube(3), 3, [4.0, 6.0], [8, 12, 16])


# ---------------------------------------------------------------------------
# bounds profile
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_runs():
    return polarization_curve(Cube(2), 6.0, [6, 10, 16], opts=PROF)


@pytest.fixture(scope="module")
def square_profile(square_runs):
    return bounds_profile(Cube(2), square_runs)


def test_profile_constants_positive(square_profile):
    p = square_profile
    assert p.s == 6.0
    for v in (p.c_hat, p.C_hat, p.R_hat, p.p_hat, p.b_hat, p.eta_hat):
        assert math.isfinite(v) and v > 0.0
    assert p.p_hat <= p.C_hat


def test_profile_duality_sandwich(square_runs):
    # the best covering at radius rho forces the maximal polarization to
    # be at least rho**-s
    for r in square_runs:
        N = len(r.config)
        bc = best_covering(Cube(2), N, n_starts=4, iters=150, seed=0)
        assert r.value >= bc.rho ** -6.0 * (1 - 1e-9)


def test_profile_ball_boundary_statistic():
    runs = polarization_curve(Ball(2), 4.0, [6, 10], opts=PROF)
    prof = bounds_profile(Ball(2), runs)
    assert math.isfinite(prof.b_hat) and prof.b_hat > 0.0
    assert prof.c_hat > 0.0 and prof.eta_hat > 0.0


def test_profile_sphere_has_no_boundary_constraint():
    runs = polarization_curve(Sphere(2), 4.0, [6, 8], opts=PROF)
    prof = bounds_profile(Sphere(2), runs)
    assert prof.b_hat == math.inf
    assert prof.c_hat > 0.0


def test_profile_rejects_bad_archives(square_runs):
    with pytest.raises(ValueError):
        bounds_profile(Cube(2), [])
    mixed = [copy.copy(square_runs[0]), copy.copy(square_runs[1])]
    mixed[1].s = 4.0
    with pytest.raises(ValueError):
        bounds_profile(Cube(2), mixed)
    sub = [copy.copy(square_runs[0])]
    sub[0].s = 2.0
    with pytest.raises(ValueError):
        bounds_profile(Cube(2), sub)
