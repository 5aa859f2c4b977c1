"""Covering radius, separation, weak separation, best covering."""

import itertools
import math

import numpy as np
import pytest

from rieszlab.covering import (
    ball_intersection_measure,
    best_covering,
    covering_radius,
    diagnose,
    equidistribution_discrepancy,
    farthest_point_sample,
    minimal_enclosing_ball,
    separation,
    weak_separation_count,
    weak_separation_verdict,
)
from rieszlab.geometry import Ball, Cube, Sphere


# ---------------------------------------------------------------------------
# minimal enclosing ball
# ---------------------------------------------------------------------------


def test_meb_simple_cases():
    c, r = minimal_enclosing_ball([[0.0, 0.0]])
    assert r == 0.0
    c, r = minimal_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-12)
    assert r == pytest.approx(1.0, rel=1e-12)
    tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    c, r = minimal_enclosing_ball(tri)
    assert r == pytest.approx(1 / math.sqrt(3), rel=1e-10)
    # obtuse triangle: ball spans the long edge only
    c, r = minimal_enclosing_ball([[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]])
    np.testing.assert_allclose(c, [2.0, 0.0], atol=1e-9)
    assert r == pytest.approx(2.0, rel=1e-10)


def test_meb_contains_all_and_is_locally_optimal():
    rng = np.random.default_rng(101)
    for dim in (1, 2, 3):
        for _ in range(30):
            pts = rng.standard_normal((int(rng.integers(2, 40)), dim))
            c, r = minimal_enclosing_ball(pts)
            d = np.linalg.norm(pts - c, axis=1)
            assert np.max(d) <= r * (1 + 1e-9) + 1e-12
            # no nearby center does strictly better
            for _ in range(20):
                c2 = c + rng.standard_normal(dim) * 0.01 * (r + 0.1)
                assert np.max(np.linalg.norm(pts - c2, axis=1)) >= r * (1 - 1e-9)


def test_meb_handles_duplicates_and_large_sets():
    pts = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
    c, r = minimal_enclosing_ball(pts)
    assert r == pytest.approx(math.sqrt(2) / 2, rel=1e-10)
    rng = np.random.default_rng(7)
    big = rng.random((3000, 2))
    c, r = minimal_enclosing_ball(big)
    assert np.max(np.linalg.norm(big - c, axis=1)) <= r * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def test_separation_basics():
    assert separation([[0.1], [0.5], [0.6]]) == pytest.approx(0.1, rel=1e-12)
    assert separation([[0.3, 0.3], [0.3, 0.3]]) == 0.0
    assert separation([[0.5, 0.5]]) == math.inf


def test_separation_large_matches_direct():
    rng = np.random.default_rng(55)
    pts = rng.random((2500, 2))
    direct = np.inf
    # blocked direct computation as the oracle
    for i in range(0, 2500, 500):
        blk = pts[i:i + 500]
        d = np.linalg.norm(pts[:, None, :] - blk[None, :, :], axis=2)
        d[d == 0] = np.inf
        direct = min(direct, float(np.min(d)))
    assert separation(pts) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------


def test_covering_radius_closed_forms():
    cr = covering_radius(Cube(2), [[0.5, 0.5]], tol=1e-6)
    assert cr.value == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
    cr = covering_radius(Cube(1), [[0.25], [0.75]], tol=1e-8)
    assert cr.value == pytest.approx(0.25, abs=1e-8)
    # flat maximum at the antipode: the attained value is sharp even
    # though the certificate stops at a wider bracket
    cr = covering_radius(Sphere(2), [[1.0, 0.0, 0.0]], tol=1e-3,
                         max_active=40_000)
    assert cr.value == pytest.approx(2.0, abs=1e-6)
    assert cr.bracket[1] >= 2.0


def test_covering_radius_bracket_is_consistent():
    rng = np.random.default_rng(201)
    for A in (Cube(2), Ball(2), Sphere(2)):
        pts = A.sample(rng, 7)
        cr = covering_radius(A, pts, tol=1e-4)
        lo, hi = cr.bracket
        assert lo <= hi and hi - lo <= 1e-4 + 1e-12
        assert cr.value == pytest.approx(lo)
        # the reported farthest point attains the reported value
        attained = float(np.min(np.linalg.norm(pts - cr.farthest_point, axis=1)))
        assert attained == pytest.approx(cr.value, rel=1e-9)
        assert A.contains(cr.farthest_point, tol=1e-9)
        # dense random probing never exceeds the certified upper bound
        probes = A.sample(np.random.default_rng(77), 20000)
        d = np.min(np.linalg.norm(
            probes[:, None, :] - pts[None, :, :], axis=2), axis=1)
        assert float(np.max(d)) <= hi + 1e-9


# ---------------------------------------------------------------------------
# weak separation
# ---------------------------------------------------------------------------


def brute_weak_separation(points, r):
    """Exponential subset oracle (closed balls, same tolerance)."""
    P = np.asarray(points, dtype=float)
    best = 1
    for k in range(2, len(P) + 1):
        found = False
        for idx in itertools.combinations(range(len(P)), k):
            _, rad = minimal_enclosing_ball(P[list(idx)])
            if rad <= r * (1 + 1e-12) + 1e-15:
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def test_weak_separation_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert weak_separation_count(tri, 0.58) == 3
    assert weak_separation_count(tri, 0.57) == 2
    assert weak_separation_count(tri, 0.49) == 1


def test_weak_separation_line_cluster():
    pts = np.array([[0.0], [0.1], [0.2], [0.9]])
    assert weak_separation_count(pts, 0.11) == 3
    assert weak_separation_count(pts, 0.05) == 2
    assert weak_separation_count(pts, 0.04) == 1


def test_weak_separation_duplicates():
    pts = np.array([[0.2, 0.2]] * 4 + [[0.8, 0.8]])
    assert weak_separation_count(pts, 0.0) == 4


def test_weak_separation_matches_brute_force():
    rng = np.random.default_rng(301)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        dim = int(rng.integers(1, 4))
        pts = rng.random((n, dim))
        r = float(rng.uniform(0.05, 0.7))
        assert weak_separation_count(pts, r) == brute_weak_separation(pts, r)


def test_weak_separation_monotone_in_radius():
    rng = np.random.default_rng(303)
    pts = rng.random((12, 2))
    counts = [weak_separation_count(pts, r) for r in np.linspace(0.0, 1.0, 12)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 12


def test_weak_separation_verdict_grid():
    # 2N-point grid on the square: counts stay small at small eta
    ax = (np.arange(4) + 0.5) / 4
    pts = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
    v = weak_separation_verdict(Cube(2), pts)
    assert v.bound == 3
    assert v.eta_star > 0
    etas = [row.eta for row in v.rows]
    passes = [row.passes for row in v.rows]
    # the passing set is an initial segment of the grid
    first_fail = passes.index(False) if False in passes else len(passes)
    assert all(passes[:first_fail]) and not any(passes[first_fail:])
    assert max(e for e, p in zip(etas, passes) if p) == pytest.approx(v.eta_star)


# ---------------------------------------------------------------------------
# best covering
# ---------------------------------------------------------------------------


def test_best_covering_interval_exact():
    out = best_covering(Cube(1), 3, n_starts=4, seed=0)
    np.testing.assert_allclose(out.points[:, 0], [1 / 6, 1 / 2, 5 / 6],
                               atol=1e-9)
    assert out.rho == pytest.approx(1 / 6, abs=1e-9)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 9])
def test_best_covering_circle_equal_spacing(N):
    # equal spacing is optimal on the circle: rho = 2 sin(pi / (2N))
    exact = 2.0 * math.sin(math.pi / (2 * N))
    out = best_covering(Sphere(1), N)
    assert abs(out.rho - exact) <= 1e-6
    assert out.bracket[0] - 1e-12 <= exact <= out.bracket[1] + 1e-12


def test_best_covering_square_single_point():
    out = best_covering(Cube(2), 1, n_starts=2, seed=0)
    np.testing.assert_allclose(out.points[0], [0.5, 0.5], atol=1e-3)
    assert out.rho == pytest.approx(math.sqrt(2) / 2, abs=5e-3)


def test_best_covering_square_16_near_kershner_band():
    out = best_covering(Cube(2), 16, n_starts=6, seed=0)
    scaled = 4.0 * out.rho
    assert scaled == pytest.approx(0.62040, rel=0.15)
    assert len(out.points) == 16


def test_farthest_point_sample_spreads():
    nodes = Cube(2).build_mesh(0.05).nodes
    pts = farthest_point_sample(nodes, 5, 0)
    assert len(np.unique(pts, axis=0)) == 5
    assert separation(pts) > 0.4


# ---------------------------------------------------------------------------
# measures of ball intersections, discrepancy
# ---------------------------------------------------------------------------


def mc_measure_fraction(A, z, r, n=400_000, seed=4242):
    pts = A.sample(np.random.default_rng(seed), n)
    return float(np.mean(np.linalg.norm(pts - z, axis=1) <= r))


@pytest.mark.parametrize("A,z,r", [
    (Cube(1), np.array([0.2]), 0.3),
    (Cube(2), np.array([0.3, 0.8]), 0.4),
    (Cube(2), np.array([0.5, 0.5]), 0.2),
    (Ball(2), np.array([0.5, 0.0]), 0.7),
    (Ball(3), np.array([0.2, 0.2, 0.1]), 0.6),
    (Sphere(2), np.array([1.0, 0.0, 0.0]), 0.8),
])
def test_ball_intersection_measure_against_monte_carlo(A, z, r):
    frac = ball_intersection_measure(A, z, r) / A.hausdorff_measure()
    assert frac == pytest.approx(mc_measure_fraction(A, z, r), abs=3e-3)


def test_discrepancy_prefers_uniform_configurations():
    ax = (np.arange(8) + 0.5) / 8
    grid = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
    clustered = 0.05 * np.random.default_rng(9).random((64, 2))
    radii = [0.3]
    d_grid = equidistribution_discrepancy(Cube(2), grid, radii,
                                          n_probes=200)[0.3]
    d_clust = equidistribution_discrepancy(Cube(2), clustered, radii,
                                           n_probes=200)[0.3]
    assert d_grid < 0.08
    assert d_clust > 0.4


def test_diagnose_bundles_everything():
    pts = Cube(2).sample(np.random.default_rng(12), 9)
    rep = diagnose(Cube(2), pts, radii=(0.25,), rho_tol=1e-3)
    assert rep.rho > 0 and rep.separation > 0
    assert rep.weak_sep.bound == 3
    assert 0.25 in rep.discrepancy
