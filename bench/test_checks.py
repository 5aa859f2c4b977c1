"""Tests for the benchmark's output checks and its tracer.

Each check must pass a real rieszlab result and reject the same result
nudged to be wrong.  Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from rieszlab import asymptotics, covering, geometry, kernels  # noqa: E402
from rieszlab import polarization  # noqa: E402
from tracer import Tracer  # noqa: E402

SQUARE = ("cube", 2)


@pytest.fixture(scope="module")
def jgrid():
    return workloads.jittered_grid4()


@pytest.fixture(scope="module")
def inner(jgrid):
    return polarization.inner_min(geometry.Cube(2), jgrid, 8.0)


def sample(spec):
    return checks.dense_sample(spec, np.random.default_rng(3))


def test_polarization_check_passes_real_bracket(jgrid, inner):
    assert checks.check_polarization(SQUARE, jgrid, 8.0, inner.bracket,
                                     inner.witness, 1e-4,
                                     sample(SQUARE)) == []


def test_polarization_check_rejects_raised_lower_end(jgrid, inner):
    floor = float(np.min(checks.riesz_field(jgrid, sample(SQUARE), 8.0)))
    raised = (floor * (1 + 1e-5), floor * (1 + 2e-5))
    problems = checks.check_polarization(SQUARE, jgrid, 8.0, raised,
                                         inner.witness, 1e-4, sample(SQUARE))
    assert any("dense sample" in p for p in problems)


def test_polarization_check_rejects_moved_witness(jgrid, inner):
    moved = inner.witness + np.array([0.01, 0.0])
    problems = checks.check_polarization(SQUARE, jgrid, 8.0, inner.bracket,
                                         moved, 1e-4, sample(SQUARE))
    assert any("at the witness" in p for p in problems)


def test_polarization_check_rejects_loose_bracket(jgrid, inner):
    lo, hi = inner.bracket
    problems = checks.check_polarization(SQUARE, jgrid, 8.0, (0.99 * lo, hi),
                                         inner.witness, 1e-4, sample(SQUARE))
    assert any("tolerance" in p for p in problems)


def test_circle_polarization_check():
    th = 2 * np.pi * np.arange(3) / 3
    X = np.column_stack([np.cos(th), np.sin(th)])
    res = polarization.inner_min(geometry.Sphere(1), X, 2.0)
    assert checks.circle_equal_spacing_optimum(3, 2.0) == pytest.approx(2.25)
    assert checks.check_circle_polarization(3, 2.0, res.bracket) == []
    nudged = (res.bracket[0], res.bracket[1] * 1.001)
    assert checks.check_circle_polarization(3, 2.0, nudged)


def test_sigma_check():
    fit = asymptotics.estimate_sigma(geometry.Cube(1), 8.0, [4, 5, 6, 7],
                                     opts=workloads.POLARIZE_OPTS)
    assert checks.check_sigma_interval(8.0, fit.limit) == []
    assert checks.check_sigma_interval(8.0, fit.limit * 1.1)


def test_covering_check_passes_real_bracket(jgrid):
    cr = covering.covering_radius(geometry.Cube(2), jgrid, tol=1e-6)
    assert checks.check_covering(SQUARE, jgrid, cr.bracket,
                                 cr.farthest_point, sample(SQUARE)) == []


def test_covering_check_rejects_radius_below_hexagon_bound(jgrid):
    cr = covering.covering_radius(geometry.Cube(2), jgrid, tol=1e-6)
    mb = checks.covering_measure_bound(SQUARE, len(jgrid))
    hb = checks.hexagon_bound(1.0, len(jgrid))
    assert mb < hb
    f = 0.5 * (mb + hb) / cr.bracket[1]
    nudged = (cr.bracket[0] * f, cr.bracket[1] * f)
    problems = checks.check_covering(SQUARE, jgrid, nudged,
                                     cr.farthest_point, sample(SQUARE))
    assert any("hexagon" in p for p in problems)
    assert not any("measure bound" in p for p in problems)


def test_covering_check_rejects_lower_end_not_attained(jgrid):
    cr = covering.covering_radius(geometry.Cube(2), jgrid, tol=1e-6)
    nudged = (cr.bracket[0] * 0.999, cr.bracket[1])
    problems = checks.check_covering(SQUARE, jgrid, nudged,
                                     cr.farthest_point, sample(SQUARE))
    assert any("farthest point" in p for p in problems)


def test_closed_form_covering_checks():
    bc = covering.best_covering(geometry.Cube(1), 16)
    assert checks.check_interval_covering(16, bc.bracket) == []
    assert checks.check_interval_covering(
        16, (bc.bracket[0] + 1e-6, bc.bracket[1]))
    th = 2 * np.pi * np.arange(9) / 9
    ring = np.column_stack([np.cos(th), np.sin(th)])
    cr = covering.covering_radius(geometry.Sphere(1), ring, tol=1e-9)
    assert checks.check_circle_covering(9, cr.bracket) == []
    assert checks.check_circle_covering(9, (cr.bracket[0] * 1.001,
                                            cr.bracket[1]))


def test_weak_separation_check(jgrid):
    verdict = covering.weak_separation_verdict(geometry.Cube(2), jgrid)
    radii = [row.radius for row in verdict.rows]
    counts = [row.count for row in verdict.rows]
    assert checks.check_weak_separation(jgrid, radii, counts) == []
    for k in (3, len(counts) - 1):
        for step in (1, -1):
            nudged = list(counts)
            nudged[k] += step
            assert checks.check_weak_separation(jgrid, radii, nudged)


def test_planar_count_matches_brute_force():
    rng = np.random.default_rng(8)
    P = rng.random((12, 2))
    ax = np.linspace(-0.3, 1.3, 321)
    centres = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
    for r in (0.1, 0.2, 0.35):
        d = np.linalg.norm(centres[:, None] - P[None], axis=2)
        grid_best = int(np.max(np.sum(d <= r, axis=1)))
        exact = checks.planar_weak_separation_count(P, r)
        assert exact >= grid_best
        assert exact == covering.weak_separation_count(P, r)


def test_tracer_counts_and_restores(jgrid):
    originals = (polarization.inner_min, polarization.potential_field,
                 kernels.potential_field, covering.min_distance_field,
                 geometry.Cube.build_mesh)
    with Tracer() as t:
        assert polarization.inner_min is not originals[0]
        res = polarization.inner_min(geometry.Cube(2), jgrid, 8.0)
        cr = covering.covering_radius(geometry.Cube(2), jgrid, tol=1e-6)
    assert (polarization.inner_min, polarization.potential_field,
            kernels.potential_field, covering.min_distance_field,
            geometry.Cube.build_mesh) == originals
    assert t.path_errors == []
    st = t.stats
    assert st["polarization.inner_min"]["nodes_evaluated"] == \
        res.nodes_evaluated
    assert st["covering.covering_radius"]["nodes_evaluated"] == \
        cr.nodes_evaluated
    assert st["geometry.build_mesh"]["calls"] == 2
    assert st["kernels.potential_field"]["pairs"] == \
        res.nodes_evaluated * len(jgrid)
    assert st["kernels.min_distance_field"]["pairs"] == \
        cr.nodes_evaluated * len(jgrid)
    names = {span[0] for span in t.spans}
    assert "polarization.inner_min" in names
    assert "kernels.potential" not in names          # counted, not spanned


def test_tracer_flags_a_miscounted_front(jgrid, monkeypatch):
    real = polarization.inner_min

    def undercount(*args, **kwargs):
        out = real(*args, **kwargs)
        out.nodes_evaluated += 1
        return out

    monkeypatch.setattr(polarization, "inner_min", undercount)
    with Tracer() as t:
        polarization.inner_min(geometry.Cube(2), jgrid, 8.0)
    assert len(t.path_errors) == 1
