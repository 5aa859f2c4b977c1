"""Domain geometry: membership, projection, measures, meshes."""

import math

import numpy as np
import pytest

from rieszlab.geometry import (
    Ball,
    Cube,
    Ellipsoid,
    Sphere,
    SphericalCap,
    branch_and_bound,
    default_fill,
    domain_from_config,
    refine_nodes,
    spherical_cap_measure,
    sphere_surface_area,
    unit_ball_volume,
)

RNG = np.random.default_rng(1729)

ALL_DOMAINS = [
    Cube(1),
    Cube(2),
    Cube(3),
    Ball(2),
    Ball(3),
    Ellipsoid((2.0, 1.0)),
    Ellipsoid((1.5, 1.0, 0.5)),
    Sphere(1),
    Sphere(2),
    SphericalCap(2, 0.5),
    SphericalCap(1, 0.0),
]


def ambient_box_samples(A, n, rng):
    """Random ambient probes in a box slightly larger than A."""
    r = A.diameter() * 0.75 + 0.5
    return rng.uniform(-r, r, size=(n, A.ambient))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_cube_contains_boundary_tolerance():
    A = Cube(2)
    assert A.contains((0.5, 0.5))
    assert A.contains((1.0 + 1e-12, 0.5), tol=1e-9)
    assert not A.contains((1.1, 0.5))
    assert not A.contains((1.0 + 1e-8, 0.5), tol=1e-9)


def test_sphere_contains_is_shell_only():
    A = Sphere(2)
    assert A.contains((1.0, 0.0, 0.0))
    assert not A.contains((0.5, 0.0, 0.0))
    assert not A.contains((0.0, 0.0, 0.0))


def test_cap_contains_respects_height():
    A = SphericalCap(2, 0.5)
    assert A.contains((1.0, 0.0, 0.0))
    assert A.contains((0.5, math.sqrt(0.75), 0.0))
    assert not A.contains((0.4, math.sqrt(1 - 0.16), 0.0))


def test_samples_are_members():
    for A in ALL_DOMAINS:
        pts = A.sample(np.random.default_rng(7), 200)
        assert pts.shape == (200, A.ambient)
        for p in pts:
            assert A.contains(p, tol=1e-9)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_idempotent():
    for A in ALL_DOMAINS:
        P = ambient_box_samples(A, 500, np.random.default_rng(11))
        X = A.project_many(P)
        X2 = A.project_many(X)
        assert np.max(np.linalg.norm(X2 - X, axis=1)) <= 1e-12
        for x in X:
            assert A.contains(x, tol=1e-9)


def test_projection_beats_random_members():
    # nearest-point optimality against in-domain competitors
    for A in ALL_DOMAINS:
        rng = np.random.default_rng(23)
        P = ambient_box_samples(A, 10_000, rng)
        Q = A.sample(rng, 10_000)
        X = A.project_many(P)
        dproj = np.linalg.norm(X - P, axis=1)
        dq = np.linalg.norm(Q - P, axis=1)
        assert np.all(dproj <= dq + 1e-9)


def test_projection_fixes_interior_points():
    for A in [Cube(2), Ball(2), Ellipsoid((2.0, 1.0))]:
        pts = A.sample(np.random.default_rng(3), 200)
        X = A.project_many(pts)
        assert np.max(np.linalg.norm(X - pts, axis=1)) <= 1e-12


def test_sphere_origin_projection_tie_break():
    A = Sphere(2)
    x = A.project((0.0, 0.0, 0.0))
    np.testing.assert_allclose(x, [-1.0, 0.0, 0.0])


def test_cap_axis_projection_tie_break():
    A = SphericalCap(2, 0.5)
    x = A.project((-1.0, 0.0, 0.0))
    np.testing.assert_allclose(x[0], 0.5)
    np.testing.assert_allclose(x[1], -A.rim_radius)
    np.testing.assert_allclose(x[2], 0.0)


def test_ellipsoid_projection_matches_parametric_oracle():
    # dense boundary sweep as the independent oracle
    A = Ellipsoid((2.0, 1.0))
    ang = np.linspace(0.0, 2.0 * math.pi, 400_001)
    boundary = np.column_stack([2.0 * np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(5)
    P = rng.uniform(-3.0, 3.0, size=(50, 2))
    outside = P[np.sum((P / A.axes_array) ** 2, axis=1) > 1.0]
    X = A.project_many(outside)
    for p, x in zip(outside, X):
        oracle = np.min(np.linalg.norm(boundary - p, axis=1))
        assert abs(np.linalg.norm(x - p) - oracle) <= 1e-8


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------


def test_boundary_distance_closed_forms():
    assert Cube(2).boundary_distance((0.2, 0.6)) == pytest.approx(0.2)
    assert Ball(2).boundary_distance((0.6, 0.0)) == pytest.approx(0.4)
    assert Ellipsoid((2.0, 1.0)).boundary_distance((0.0, 0.0)) == pytest.approx(1.0)
    assert Sphere(2).boundary_distance((1.0, 0.0, 0.0)) == math.inf


def test_cap_boundary_distance_is_rim_distance():
    A = SphericalCap(2, 0.5)
    apex = np.array([1.0, 0.0, 0.0])
    rim = np.array([0.5, A.rim_radius, 0.0])
    assert A.boundary_distance(apex) == pytest.approx(np.linalg.norm(apex - rim))
    assert A.boundary_distance(rim) == pytest.approx(0.0, abs=1e-12)


def test_ellipsoid_boundary_distance_dense_oracle():
    A = Ellipsoid((2.0, 1.0))
    ang = np.linspace(0.0, 2.0 * math.pi, 400_001)
    boundary = np.column_stack([2.0 * np.cos(ang), np.sin(ang)])
    for p in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (1.0, 0.3), (-1.2, -0.4)]:
        oracle = float(np.min(np.linalg.norm(boundary - np.asarray(p), axis=1)))
        assert A.boundary_distance(p) == pytest.approx(oracle, abs=1e-8)


def test_interior_boundary_distance_is_radius_of_contained_ball():
    # dist to boundary b means B(p, b) stays inside the solid domain
    for A in [Cube(2), Ball(2), Ellipsoid((2.0, 1.0)), Ellipsoid((1.5, 1.0, 0.5))]:
        rng = np.random.default_rng(13)
        pts = A.sample(rng, 100)
        dirs = rng.standard_normal((100, A.ambient))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for p, u in zip(pts, dirs):
            b = A.boundary_distance(p)
            assert b >= -1e-12
            if b > 1e-9:
                assert A.contains(p + 0.999 * b * u, tol=1e-9)


# ---------------------------------------------------------------------------
# measures and diameters
# ---------------------------------------------------------------------------


def test_measure_closed_forms():
    assert Cube(3).hausdorff_measure() == 1.0
    assert Ball(2).hausdorff_measure() == pytest.approx(math.pi, rel=1e-12)
    assert Ball(3).hausdorff_measure() == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert Ellipsoid((2.0, 1.0)).hausdorff_measure() == pytest.approx(2 * math.pi)
    assert Sphere(2).hausdorff_measure() == pytest.approx(4 * math.pi, rel=1e-12)
    assert Sphere(1).hausdorff_measure() == pytest.approx(2 * math.pi, rel=1e-12)
    assert SphericalCap(2, 0.5).hausdorff_measure() == pytest.approx(
        2 * math.pi * 0.5, rel=1e-10)
    assert SphericalCap(1, 0.0).hausdorff_measure() == pytest.approx(
        math.pi, rel=1e-10)


def test_cap_measure_exhausts_sphere():
    for d in (1, 2, 3):
        full = sphere_surface_area(d)
        assert spherical_cap_measure(d, -1.0 + 1e-12) == pytest.approx(
            full, rel=1e-6)
        vals = [spherical_cap_measure(d, t) for t in np.linspace(0.9, -0.9, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


def test_diameters():
    assert Cube(2).diameter() == pytest.approx(math.sqrt(2))
    assert Ball(3).diameter() == 2.0
    assert Ellipsoid((2.0, 1.0)).diameter() == 4.0
    assert Sphere(2).diameter() == 2.0
    assert SphericalCap(2, 0.5).diameter() == pytest.approx(2 * math.sqrt(0.75))
    assert SphericalCap(2, -0.5).diameter() == 2.0


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def mesh_fill_observed(A, mesh, n_probe=4000, seed=99):
    probes = A.sample(np.random.default_rng(seed), n_probe)
    d = np.linalg.norm(probes[:, None, :] - mesh.nodes[None, :, :], axis=2)
    return float(np.max(np.min(d, axis=1)))


@pytest.mark.parametrize("A", ALL_DOMAINS, ids=lambda a: repr(a))
def test_mesh_covers_domain(A):
    h = 0.25 * A.diameter()
    mesh = A.build_mesh(h)
    assert mesh.fill_distance <= h + 1e-12
    for node in mesh.nodes[:: max(1, len(mesh.nodes) // 200)]:
        assert A.contains(node, tol=1e-9)
    assert mesh_fill_observed(A, mesh) <= mesh.fill_distance + 1e-9


@pytest.mark.parametrize("A", ALL_DOMAINS, ids=lambda a: repr(a))
def test_mesh_refinement_certification(A):
    # half-spacing refinement finds no point farther than fill_distance
    h = 0.3 * A.diameter()
    coarse = A.build_mesh(h)
    fine = A.build_mesh(h / 2.0)
    d = np.linalg.norm(
        fine.nodes[:, None, :] - coarse.nodes[None, :, :], axis=2)
    assert float(np.max(np.min(d, axis=1))) <= coarse.fill_distance + 1e-9


def test_sphere_mesh_node_count_band():
    mesh = Sphere(2).build_mesh(0.5)
    assert 50 <= len(mesh.nodes) <= 500


def test_default_fill_rule():
    assert default_fill(Cube(2), 1) == pytest.approx(0.2 * math.sqrt(2))
    assert default_fill(Cube(2), 64) == pytest.approx(0.25 / 8 * math.sqrt(2))


def test_refine_nodes_covers_patch():
    for A in [Cube(2), Ball(2), Sphere(2), Ellipsoid((2.0, 1.0))]:
        center = A.project_many(A.interior_point()[None, :] + 0.05)
        r = 0.3
        children = refine_nodes(A, center, r)
        rng = np.random.default_rng(17)
        probes = A.sample(rng, 8000)
        near = probes[np.linalg.norm(probes - center[0], axis=1) <= r]
        if len(near) == 0:
            continue
        d = np.linalg.norm(near[:, None, :] - children[None, :, :], axis=2)
        assert float(np.max(np.min(d, axis=1))) <= r / 2.0 + 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_domain_config_round_trip():
    for A in ALL_DOMAINS:
        B = domain_from_config(A.to_config())
        assert B == A


def test_invalid_domains_rejected():
    with pytest.raises(ValueError):
        Cube(0)
    with pytest.raises(ValueError):
        Ellipsoid((1.0, -2.0))
    with pytest.raises(ValueError):
        SphericalCap(2, 1.0)
    with pytest.raises(ValueError):
        domain_from_config({"kind": "torus", "d": 2})


def _pointwise_solid_mesh(A, box_half, h):
    """The solid grid mesh with membership tested one point at a time."""
    d = len(box_half)
    step = h / math.sqrt(d)
    axes = [np.linspace(-a, a, max(2, int(math.ceil(2.0 * a / step)) + 1))
            for a in box_half]
    spacing = max(ax[1] - ax[0] for ax in axes)
    G = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                 axis=1)
    inside = np.array([A.contains(g, tol=0.0) for g in G])
    outside = G[~inside]
    proj = A.project_many(outside)
    half_diag = spacing * math.sqrt(d) / 2.0
    close = np.linalg.norm(proj - outside, axis=1) <= half_diag
    return np.vstack([G[inside], proj[close]]), 2.0 * half_diag


@pytest.mark.parametrize("A,h", [
    (Ball(4), 0.6),
    (Ball(4), 0.35),
    (Ball(5), 0.6),
    (Ellipsoid((1.0, 0.8, 0.6, 0.5)), 0.6),
    (Ellipsoid((1.0, 0.8, 0.6, 0.5)), 0.35),
], ids=repr)
def test_high_dim_solid_mesh_matches_pointwise_membership(A, h):
    box_half = A.axes_array if isinstance(A, Ellipsoid) else np.ones(A.d)
    nodes, fill = _pointwise_solid_mesh(A, box_half, h)
    mesh = A.build_mesh(h)
    assert mesh.fill_distance == fill
    assert np.array_equal(mesh.nodes, nodes)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def _bb_parabola(close, max_levels=12, max_active=10_000):
    """Minimize (y - 0.3)^2 over [0, 1] (minimum 0) with a 1.4-Lipschitz
    cell bound and the mesh argmin as the only polish candidate."""
    def evaluate(nodes, r):
        f = (nodes[:, 0] - 0.3) ** 2
        return f, f - 1.4 * r

    def polish(nodes, f, r, level):
        i = int(np.argmin(f))
        yield float(f[i]), nodes[i]

    A = Cube(1)
    return branch_and_bound(A, A.build_mesh(0.1), evaluate, polish, close,
                            max_levels, max_active)


def test_branch_and_bound_closes_on_tolerance():
    lower, upper, point, certified, level, evaluated = _bb_parabola(
        lambda lo, up: up - lo <= 1e-3)
    assert certified
    assert lower <= 0.0 <= upper and upper - lower <= 1e-3
    assert abs(point[0] - 0.3) <= 0.05
    assert 0 < level < 12 and evaluated > 0


def test_branch_and_bound_empty_front_is_certified():
    # f(y) = y with the exact cell minimum max(n - r, 0): no cell can beat
    # the node y = 0, so the front empties before any refinement
    def evaluate(nodes, r):
        f = nodes[:, 0].copy()
        return f, np.maximum(f - r, 0.0)

    def polish(nodes, f, r, level):
        i = int(np.argmin(f))
        yield float(f[i]), nodes[i]

    A = Cube(1)
    lower, upper, point, certified, level, _ = branch_and_bound(
        A, A.build_mesh(0.1), evaluate, polish, lambda lo, up: False, 12,
        10_000)
    assert certified and level == 0
    assert lower == upper == 0.0 and point[0] == 0.0


def test_branch_and_bound_front_cap_is_uncertified():
    lower, upper, _, certified, level, _ = _bb_parabola(
        lambda lo, up: False, max_active=0)
    assert not certified and level == 0
    assert lower <= 0.0 <= upper


def test_branch_and_bound_level_budget_is_uncertified():
    lower, upper, _, certified, level, evaluated = _bb_parabola(
        lambda lo, up: False, max_levels=3)
    assert not certified and level == 3
    assert lower <= 0.0 <= upper
    assert evaluated > len(Cube(1).build_mesh(0.1))


def test_branch_and_bound_clamps_lower_to_upper():
    # a cell bound above the polished value still yields lower <= upper
    def evaluate(nodes, r):
        f = (nodes[:, 0] - 0.3) ** 2
        return f, f + 1.0

    def polish(nodes, f, r, level):
        yield -1.0, nodes[0]

    A = Cube(1)
    lower, upper, _, certified, _, _ = branch_and_bound(
        A, A.build_mesh(0.1), evaluate, polish, lambda lo, up: up - lo <= 0,
        12, 10_000)
    assert certified and lower == upper == -1.0
