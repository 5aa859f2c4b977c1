"""Polarization solver tests.

Expected values come from three independent sources: closed forms for
single charges and degenerate regimes, a dense-grid sweep for the inner
minimization, and an exact-inner-min brute force over configuration
grids for two charges on the interval.
"""

import warnings

import numpy as np
import pytest

from rieszlab import polarization
from rieszlab.covering import best_covering
from rieszlab.geometry import Ball, Cube, Ellipsoid, Sphere, default_fill
from rieszlab.kernels import (
    LOG_SCALE_S,
    potential,
    potential_field,
    potential_gradient,
)
from rieszlab.polarization import (
    SolverOptions,
    inner_min,
    maximize_polarization,
    polarization_curve,
)

LIGHT = SolverOptions(restarts=6, iters=800, tol=1e-4, seed=0, workers=1)


def interval_grid_min(omega, s, step=1e-6):
    """Dense-grid evaluation of the inner minimum on [0,1].

    Direct sweep, no descent and no bounds; serves as an oracle for
    inner_min on interval configurations.
    """
    y = np.arange(0.0, 1.0 + 0.5 * step, step)
    d = np.abs(y[:, None] - np.asarray(omega, dtype=float)[None, :])
    with np.errstate(divide="ignore"):
        f = np.sum(d ** (-float(s)), axis=1)
    i = int(np.argmin(f))
    return float(f[i]), float(y[i])


def two_charge_brute(s, step=1e-3):
    """Exact brute force for two charges on [0,1].

    For charges a <= b the potential is monotone on [0,a) and (b,1] and
    has a single interior minimum at the midpoint of (a,b), so the inner
    minimum is exactly min(f(0), f(1), f((a+b)/2)).  Maximizing that over
    the full (x1,x2) grid gives an oracle independent of the solver.
    """
    g = np.arange(0.0, 1.0 + 0.5 * step, step)
    x1, x2 = g[:, None], g[None, :]
    with np.errstate(divide="ignore"):
        f0 = x1 ** -s + x2 ** -s
        f1 = (1.0 - x1) ** -s + (1.0 - x2) ** -s
        fm = 2.0 * (np.abs(x2 - x1) / 2.0) ** -s
    inner = np.minimum(np.minimum(f0, f1), fm)
    k = int(np.argmax(inner))
    return float(inner.flat[k]), float(g[k // len(g)]), float(g[k % len(g)])


class TestInnerMin:
    def test_single_midpoint_charge(self):
        r = inner_min(Cube(1), np.array([[0.5]]), 3.0, tol=1e-4)
        assert abs(r.value - 8.0) <= 1e-9 * 8.0
        w = float(r.witness[0])
        assert min(w, 1.0 - w) <= 1e-6
        assert r.certified

    def test_ball_center_charge(self):
        r = inner_min(Ball(2), np.zeros((1, 2)), 4.0, tol=1e-4)
        # minimum attained on the whole unit circle; the flat witness set
        # slows certification but the value itself is pinned
        assert abs(r.value - 1.0) <= 1e-7
        assert abs(np.linalg.norm(r.witness) - 1.0) <= 1e-9
        assert r.bracket[0] <= r.value <= r.bracket[1]

    def test_two_charges_match_grid_oracle(self):
        om = [0.25, 0.75]
        oracle, y_star = interval_grid_min(om, 2.0)
        assert abs(oracle - 160.0 / 9.0) <= 1e-9 * oracle
        assert min(y_star, 1.0 - y_star) <= 1e-6
        r = inner_min(Cube(1), np.array(om).reshape(-1, 1), 2.0, tol=1e-4)
        assert abs(r.value - oracle) <= 1e-4 * oracle
        assert r.certified
        w = float(r.witness[0])
        assert min(w, 1.0 - w) <= 1e-6

    def test_certified_means_tight(self):
        r = inner_min(Cube(1), np.array([[0.3], [0.6]]), 3.0, tol=1e-4)
        assert r.certified
        assert r.bracket[1] - r.bracket[0] <= 1e-4 * abs(r.bracket[1])

    def test_budget_exhaustion_flags(self):
        r = inner_min(Cube(1), np.array([[0.25], [0.75]]), 2.0,
                      tol=1e-4, max_levels=1)
        assert not r.certified
        assert r.bracket[0] <= r.value <= r.bracket[1]

    def test_rejections(self):
        with pytest.raises(ValueError):
            inner_min(Cube(1), np.array([[0.5]]), 0.0, tol=1e-4)
        with pytest.raises(ValueError):
            inner_min(Cube(1), np.array([[0.5]]), 3.0, tol=0.0)
        with pytest.raises(ValueError):
            inner_min(Cube(1), np.array([[2.0]]), 3.0, tol=1e-4)


class TestMaximize:
    @pytest.mark.parametrize("s", [3.0, 5.0, 10.0])
    def test_single_charge_interval(self, s):
        r = maximize_polarization(Cube(1), 1, s, LIGHT)
        assert abs(r.value - 2.0 ** s) <= 1e-9 * 2.0 ** s
        assert abs(float(r.config[0, 0]) - 0.5) <= 1e-9
        assert r.certified

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_charge_ball(self, d):
        r = maximize_polarization(Ball(d), 1, 4.0, LIGHT)
        assert r.value == 1.0
        assert np.all(r.config == 0.0)
        assert r.certified

    def test_ball_degenerate_closed_form(self):
        r = maximize_polarization(Ball(3), 5, 1.0, LIGHT)
        assert r.value == 5.0
        assert np.all(r.config == 0.0)
        assert r.certified

    def test_rejections(self):
        with pytest.raises(ValueError):
            maximize_polarization(Ellipsoid((1.0, 0.7, 0.5)), 3, 1.0, LIGHT)
        with pytest.raises(ValueError):
            maximize_polarization(Cube(1), 0, 3.0, LIGHT)

    def test_two_charges_match_brute_force(self):
        brute, b1, b2 = two_charge_brute(3.0)
        r = maximize_polarization(Cube(1), 2, 3.0, LIGHT)
        assert abs(r.value - brute) <= 5e-3 * brute
        c = np.sort(r.config.ravel())
        assert abs(c[0] - b1) <= 5e-3 and abs(c[1] - b2) <= 5e-3

    def test_two_charges_exact_anchor(self):
        # equalizing f(0) = f(1) = f(midpoint) at s=2 gives config
        # (1 -+ 3^(-1/2))/2 and value exactly 24
        r = maximize_polarization(Cube(1), 2, 2.0, LIGHT)
        assert abs(r.value - 24.0) <= 1e-5 * 24.0
        t = (1.0 - 1.0 / np.sqrt(3.0)) / 2.0
        c = np.sort(r.config.ravel())
        assert np.abs(c - [t, 1.0 - t]).max() <= 1e-4

    def test_monotone_in_N(self):
        vals = [maximize_polarization(Cube(1), n, 3.0, LIGHT).value
                for n in (1, 2, 3)]
        assert vals[1] >= vals[0] * (1.0 - 1e-6)
        assert vals[2] >= vals[1] * (1.0 - 1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_interval_reflection_symmetry(self, n):
        r = maximize_polarization(Cube(1), n, 3.0, LIGHT)
        c = np.sort(r.config.ravel())
        assert np.abs(c + c[::-1] - 1.0).max() <= 1e-6

    def test_circle_equal_spacing(self):
        # three charges on the circle: equally spaced, worst point the
        # antipode of a charge, value 1/4 + 1 + 1 = 9/4
        r = maximize_polarization(Sphere(1), 3, 2.0, LIGHT)
        assert abs(r.value - 2.25) <= 1e-6 * 2.25
        assert np.abs(np.linalg.norm(r.config, axis=1) - 1.0).max() <= 1e-9
        ang = np.sort(np.arctan2(r.config[:, 1], r.config[:, 0]))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        assert gaps.max() - gaps.min() <= 1e-6

    def test_result_invariants(self):
        r = maximize_polarization(Cube(2), 5, 4.0, LIGHT)
        pot = potential(r.config, r.witness, 4.0)
        assert abs(r.value - pot) <= 1e-9 * abs(pot)
        assert r.bracket[0] <= r.value <= r.bracket[1]
        if r.certified:
            assert r.bracket[1] - r.bracket[0] <= 1e-4 * abs(r.value)
        assert r.witness_gap > 0.0
        for key in ("restarts", "iterations", "mesh_fill", "seed"):
            assert key in r.solver_stats
        assert all(Cube(2).contains(p) for p in r.config)
        assert Cube(2).contains(r.witness)

    def test_worker_count_invariance(self):
        opts1 = SolverOptions(restarts=6, iters=400, tol=1e-4, seed=3,
                              workers=1)
        opts8 = SolverOptions(restarts=6, iters=400, tol=1e-4, seed=3,
                              workers=8)
        r1 = maximize_polarization(Cube(2), 6, 4.0, opts1)
        r8 = maximize_polarization(Cube(2), 6, 4.0, opts8)
        assert r1.value == r8.value
        assert np.array_equal(r1.config, r8.config)
        assert np.array_equal(r1.witness, r8.witness)

    def test_scale_covariance_of_potential(self):
        # |Lx - Ly|^(-s) = L^(-s) |x-y|^(-s); configuration-level identity
        # that a rescaled-domain solve would inherit
        rng = np.random.default_rng(11)
        om = rng.uniform(0.1, 0.9, (5, 2))
        y = rng.uniform(0.1, 0.9, 2)
        for s in (2.0, 4.5):
            a = potential(2.0 * om, 2.0 * y, s) * 2.0 ** s
            b = potential(om, y, s)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_beats_covering_configuration(self):
        A = Cube(2)
        cov = best_covering(A, 8, tol=1e-4).points
        ref = inner_min(A, cov, 4.0, tol=1e-4)
        r = maximize_polarization(A, 8, 4.0, LIGHT)
        assert r.value >= ref.value * (1.0 - 3e-4)


class TestCurve:
    def test_interval_curve(self):
        curve = polarization_curve(Cube(1), 4.0, [1, 2, 4], LIGHT)
        vals = [r.value for r in curve]
        assert vals[0] < vals[1] < vals[2]
        # normalized values rise toward the large-N limit (about 32.5 at
        # s=4: interior spacing delta with end offsets near delta/2)
        norm = [v / n ** 4 for v, n in zip(vals, (1, 2, 4))]
        assert norm[0] < norm[1] < norm[2] < 40.0
        # chain against the exact interval covering radius 1/(2N)
        for r, n in zip(curve, (1, 2, 4)):
            assert r.value >= (2.0 * n) ** 4 * (1.0 - 1e-6)

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            polarization_curve(Cube(1), 3.0, [2, 2], LIGHT)


def reference_descent(A, omega, s, y0, step0, iters=80):
    """One projected descent, one kernel call per value and gradient."""
    y = np.asarray(y0, dtype=float).copy()
    val = potential(omega, y, s)
    step = max(step0, 1e-12)
    floor = 1e-12 * A.diameter()
    for _ in range(iters):
        _, _, g = potential_gradient(omega, y, s)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn) or gn == 0.0:
            break
        trial = A.project(y - (step / gn) * g)
        tv = potential(omega, trial, s)
        if tv < val:
            y, val = trial, tv
            step *= 1.4
        else:
            step *= 0.5
            if step < floor:
                break
    return y, val


def reference_inner_upper(A, omega, s, nodes, r):
    """The quick inner value of one configuration, one descent at a time:
    exact gap bisection on the interval, else the mesh argmin and descents
    from up to four low nodes more than 4r apart."""
    if isinstance(A, Cube) and A.d == 1:
        x = np.sort(omega.ravel())
        cand_y = [0.0, 1.0]
        with np.errstate(divide="ignore", over="ignore"):
            cand_v = [float(np.sum(np.abs(x) ** -s)),
                      float(np.sum(np.abs(1.0 - x) ** -s))]
        lo, hi = x[:-1].copy(), x[1:].copy()
        keep = hi - lo > 1e-15
        lo, hi = lo[keep], hi[keep]
        if len(lo):
            with np.errstate(divide="ignore", over="ignore"):
                for _ in range(64):
                    mid = 0.5 * (lo + hi)
                    diff = mid[:, None] - x[None, :]
                    g = -s * np.sum(np.sign(diff) * np.abs(diff) ** -(s + 1.0),
                                    axis=1)
                    lo = np.where(g < 0.0, mid, lo)
                    hi = np.where(g < 0.0, hi, mid)
                mid = 0.5 * (lo + hi)
                vals = np.sum(np.abs(mid[:, None] - x[None, :]) ** -s, axis=1)
            k = int(np.argmin(vals))
            cand_y.append(float(mid[k]))
            cand_v.append(float(vals[k]))
        j = int(np.argmin(cand_v))
        return cand_v[j], np.array([cand_y[j]])
    f = potential_field(omega, nodes, s)
    order = np.argsort(f)
    seeds = []
    for i in order[:64]:
        if all(np.linalg.norm(nodes[i] - nodes[j]) > 4.0 * r for j in seeds):
            seeds.append(int(i))
            if len(seeds) == 4:
                break
    best_v, best_y = float(f[order[0]]), nodes[order[0]].copy()
    for i in seeds:
        y, v = reference_descent(A, omega, s, nodes[i], r)
        if v < best_v:
            best_v, best_y = v, y
    return best_v, best_y


class TestBatchedInner:
    """Each row of a batched quick-inner evaluation is the batch of one,
    and both equal the one-at-a-time reference bit for bit."""

    @staticmethod
    def _mesh(A, N):
        mesh = A.build_mesh(0.5 * default_fill(A, N))
        return mesh.nodes, mesh.fill_distance

    @staticmethod
    def _assert_rows_match(A, X, s, nodes, r):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            V, Y = polarization._inner_upper_many(A, X, s, nodes, r)
            for b in range(len(X)):
                v, y = polarization._inner_upper(A, X[b], s, nodes, r)
                assert v == V[b] or (np.isinf(v) and np.isinf(V[b]))
                assert np.array_equal(y, Y[b])
                v, y = reference_inner_upper(A, X[b], s, nodes, r)
                assert v == V[b] or (np.isinf(v) and np.isinf(V[b]))
                assert np.array_equal(y, Y[b])
        return V

    @pytest.mark.parametrize("A", [Sphere(1), Cube(2), Ball(2)],
                             ids=["sphere1", "cube2", "ball2"])
    @pytest.mark.parametrize("s", [2.0, 6.0, LOG_SCALE_S + 5.0])
    def test_mesh_rows_match_single(self, A, s):
        rng = np.random.default_rng(3)
        N = 4
        nodes, r = self._mesh(A, N)
        X = np.stack([A.sample(rng, N) for _ in range(5)])
        X[1, 2] = nodes[7]                      # a point on a mesh node
        V = self._assert_rows_match(A, X, s, nodes, r)
        assert np.all(V > 0.0)

    @pytest.mark.parametrize("s", [3.0, 8.0, LOG_SCALE_S + 5.0])
    def test_interval_rows_match_single(self, s):
        A = Cube(1)
        rng = np.random.default_rng(4)
        nodes, r = self._mesh(A, 5)
        X = rng.random((6, 5, 1))
        X[2, 3] = X[2, 1] + 1e-16               # collapsed gap
        X[3, :] = 0.5                           # every gap collapsed
        X[4, 0] = 0.0                           # charge on the endpoint
        self._assert_rows_match(A, X, s, nodes, r)
        self._assert_rows_match(A, rng.random((3, 1, 1)), s, nodes, r)

    def test_interval_single_charge_exact(self):
        v, y = polarization._inner_upper(Cube(1), np.array([[0.5]]), 3.0,
                                         *self._mesh(Cube(1), 1))
        assert v == 8.0 and y[0] in (0.0, 1.0)

    @pytest.mark.parametrize("s", [4.0, LOG_SCALE_S + 20.0])
    def test_descent_rows_match_single(self, s):
        A = Cube(2)
        rng = np.random.default_rng(5)
        omegas = rng.random((6, 5, 2))
        Y0 = rng.random((6, 2))
        Y0[2] = omegas[2, 0]                    # start on a charge
        Y, V = polarization._descend(A, omegas, s, Y0, 0.05)
        assert np.isinf(V[2]) and np.array_equal(Y[2], Y0[2])
        for i in range(len(Y0)):
            y, v = polarization._descend(A, omegas[i:i + 1], s, Y0[i:i + 1],
                                         0.05)
            assert np.array_equal(y[0], Y[i])
            assert v[0] == V[i] or (np.isinf(v[0]) and np.isinf(V[i]))
            y, v = reference_descent(A, omegas[i], s, Y0[i], 0.05)
            assert np.array_equal(y, Y[i])
            assert v == V[i] or (np.isinf(v) and np.isinf(V[i]))
            if np.isfinite(V[i]):
                assert V[i] <= potential(omegas[i], Y0[i], s)

    def test_compass_batch_cap_invariance(self, monkeypatch):
        A, N, s = Cube(1), 5, 8.0
        nodes, r = self._mesh(A, N)
        x0 = np.linspace(0.1, 0.9, N)[:, None]
        x, v = polarization._compass_config(A, x0, s, nodes, r, 1.0 / N,
                                            budget=400)
        v0, _ = polarization._inner_upper(A, x0, s, nodes, r)
        assert v > v0 and not np.array_equal(x, x0)   # moves were taken
        monkeypatch.setattr(polarization, "BATCH_ELEMENTS", 1)
        x1, v1 = polarization._compass_config(A, x0, s, nodes, r, 1.0 / N,
                                              budget=400)
        assert np.array_equal(x, x1) and v == v1


def test_inner_min_steep_kernel_is_quiet():
    # at s=128 the far-cell constants overflow; the call must stay silent
    # and keep its bracket (s-th root near 3 sqrt(2), the corner distance)
    ax = np.array([1.0, 3.0, 5.0]) / 6.0
    X = np.array([[a, b] for a in ax for b in ax])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = inner_min(Cube(2), X, 128.0)
    assert r.certified
    assert r.bracket == pytest.approx((2.1747147701483743e+80,
                                       2.1749051748733853e+80), rel=1e-9)
    assert r.bracket[1] ** (1.0 / 128.0) == pytest.approx(3.0 * np.sqrt(2.0),
                                                          rel=1e-6)
