"""Compact domains for potential-theoretic experiments.

Five domain kinds are supported: the unit cube [0,1]^d, the closed unit
ball, solid axis-aligned ellipsoids, the unit sphere S^d (embedded in
R^{d+1}), and spherical caps {x in S^d : x(1) >= t0}.  Every domain
exposes membership, nearest-point projection, distance to the boundary,
its Hausdorff measure and diameter, seeded uniform sampling, and
certified covering meshes: ``build_mesh(h)`` returns nodes whose balls of
radius ``fill_distance <= h`` provably cover the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONTAINS_TOL = 1e-9
ELLIPSOID_ROOT_TOL = 1e-12
ELLIPSOID_ROOT_MAXITER = 200


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_area(d: int) -> float:
    """d-dimensional Hausdorff measure of S^d in R^{d+1}."""
    return (d + 1) * unit_ball_volume(d + 1)


def spherical_cap_measure(d: int, t0: float) -> float:
    """H_d of the cap {x in S^d : x(1) >= t0}.

    Computed from the polar-slice representation
    H_d = d * V_d * int_{t0}^{1} (1 - t^2)^{(d-2)/2} dt,
    which for d = 2 reduces to the classical 2*pi*(1 - t0).
    """
    if not -1.0 <= t0 <= 1.0:
        raise ValueError("cap height t0 must lie in [-1, 1]")
    if d == 1:
        return 2.0 * math.acos(t0)
    if d == 2:
        return 2.0 * math.pi * (1.0 - t0)
    from scipy.integrate import quad

    val, _ = quad(lambda t: (1.0 - t * t) ** ((d - 2) / 2.0), t0, 1.0,
                  epsabs=1e-14, epsrel=1e-12)
    return d * unit_ball_volume(d) * val


@dataclass(frozen=True, eq=False)
class Mesh:
    """Covering mesh: balls of radius fill_distance around nodes cover A."""

    nodes: np.ndarray
    fill_distance: float

    def __len__(self) -> int:
        return len(self.nodes)


class Domain:
    """Base class; subclasses are immutable value objects."""

    d: int          # intrinsic dimension
    ambient: int    # ambient dimension

    # -- membership / projection -------------------------------------------

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        raise NotImplementedError

    def project_many(self, P: np.ndarray) -> np.ndarray:
        """Nearest points of A for a batch of query points, shape (n, ambient)."""
        raise NotImplementedError

    def project(self, p) -> np.ndarray:
        return self.project_many(np.asarray(p, dtype=float)[None, :])[0]

    def boundary_distance(self, p) -> float:
        raise NotImplementedError

    # -- measure / geometry -------------------------------------------------

    def hausdorff_measure(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        """A canonical (deterministic) point of A, used to anchor searches."""
        raise NotImplementedError

    # -- meshes / sampling --------------------------------------------------

    def build_mesh(self, h: float) -> Mesh:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cube(Domain):
    """Unit cube [0,1]^d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def ambient(self) -> int:
        return self.d

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= -tol) and np.all(p <= 1.0 + tol))

    def project_many(self, P: np.ndarray) -> np.ndarray:
        return np.clip(P, 0.0, 1.0)

    def boundary_distance(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(np.min(np.minimum(p, 1.0 - p)))

    def hausdorff_measure(self) -> float:
        return 1.0

    def diameter(self) -> float:
        return math.sqrt(self.d)

    def interior_point(self) -> np.ndarray:
        return np.full(self.d, 0.5)

    def build_mesh(self, h: float) -> Mesh:
        _check_h(h)
        spacing_target = h / math.sqrt(self.d)
        n = max(2, int(math.ceil(1.0 / spacing_target)) + 1)
        axis = np.linspace(0.0, 1.0, n)
        nodes = _grid(axis, self.d)
        spacing = axis[1] - axis[0]
        return Mesh(nodes, spacing * math.sqrt(self.d) / 2.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random((n, self.d))

    def to_config(self) -> dict:
        return {"kind": "cube", "d": self.d}


# ---------------------------------------------------------------------------
# ball / ellipsoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball(Domain):
    """Closed unit ball in R^d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def ambient(self) -> int:
        return self.d

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.linalg.norm(p) <= 1.0 + tol)

    def project_many(self, P: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(P, axis=1)
        scale = np.where(r > 1.0, 1.0 / np.maximum(r, 1e-300), 1.0)
        return P * scale[:, None]

    def boundary_distance(self, p) -> float:
        return 1.0 - float(np.linalg.norm(np.asarray(p, dtype=float)))

    def hausdorff_measure(self) -> float:
        return unit_ball_volume(self.d)

    def diameter(self) -> float:
        return 2.0

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.d)

    def build_mesh(self, h: float) -> Mesh:
        return _mesh_solid(self, np.ones(self.d), h)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal((n, self.d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r = rng.random(n) ** (1.0 / self.d)
        return x * r[:, None]

    def to_config(self) -> dict:
        return {"kind": "ball", "d": self.d}


@dataclass(frozen=True)
class Ellipsoid(Domain):
    """Solid axis-aligned ellipsoid sum_i x_i^2 / a_i^2 <= 1."""

    semi_axes: tuple

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semi_axes)
        if len(axes) < 1 or any(a <= 0 for a in axes):
            raise ValueError("semi-axes must be positive")
        object.__setattr__(self, "semi_axes", axes)

    @property
    def d(self) -> int:
        return len(self.semi_axes)

    @property
    def ambient(self) -> int:
        return len(self.semi_axes)

    @property
    def axes_array(self) -> np.ndarray:
        return np.asarray(self.semi_axes, dtype=float)

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.sum((p / self.axes_array) ** 2) <= 1.0 + tol)

    def project_many(self, P: np.ndarray) -> np.ndarray:
        a = self.axes_array
        inside = np.sum((P / a) ** 2, axis=1) <= 1.0
        out = P.copy()
        if not np.all(inside):
            X, _ = _ellipsoid_nearest_boundary(a, P[~inside])
            out[~inside] = X
        return out

    def boundary_distance(self, p) -> float:
        p = np.asarray(p, dtype=float)[None, :]
        _, dist = _ellipsoid_nearest_boundary(self.axes_array, p)
        return float(dist[0])

    def hausdorff_measure(self) -> float:
        return unit_ball_volume(self.d) * float(np.prod(self.axes_array))

    def diameter(self) -> float:
        return 2.0 * float(np.max(self.axes_array))

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.d)

    def build_mesh(self, h: float) -> Mesh:
        return _mesh_solid(self, self.axes_array, h)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return Ball(self.d).sample(rng, n) * self.axes_array

    def to_config(self) -> dict:
        return {"kind": "ellipsoid", "semi_axes": list(self.semi_axes)}


# ---------------------------------------------------------------------------
# sphere / cap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sphere(Domain):
    """Unit sphere S^d embedded in R^{d+1}."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def ambient(self) -> int:
        return self.d + 1

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(abs(np.linalg.norm(p) - 1.0) <= tol)

    def project_many(self, P: np.ndarray) -> np.ndarray:
        return _normalize_rows(P)

    def boundary_distance(self, p) -> float:
        return math.inf

    def hausdorff_measure(self) -> float:
        return sphere_surface_area(self.d)

    def diameter(self) -> float:
        return 2.0

    def interior_point(self) -> np.ndarray:
        out = np.zeros(self.ambient)
        out[0] = 1.0
        return out

    def build_mesh(self, h: float) -> Mesh:
        _check_h(h)
        if self.d == 1:
            return _mesh_circle(h)
        if self.d == 2:
            nodes, fill = _icosphere_nodes(h)
            return Mesh(nodes, fill)
        return _mesh_sphere_shell(self.ambient, h)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal((n, self.ambient))
        return _normalize_rows(x)

    def to_config(self) -> dict:
        return {"kind": "sphere", "d": self.d}


@dataclass(frozen=True)
class SphericalCap(Domain):
    """Cap {x in S^d : x(1) >= t0} with the rim circle as boundary."""

    d: int
    t0: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not -1.0 < self.t0 < 1.0:
            raise ValueError("cap height t0 must lie in (-1, 1)")

    @property
    def ambient(self) -> int:
        return self.d + 1

    @property
    def rim_radius(self) -> float:
        return math.sqrt(1.0 - self.t0 * self.t0)

    def contains(self, p, tol: float = CONTAINS_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(abs(np.linalg.norm(p) - 1.0) <= tol and p[0] >= self.t0 - tol)

    def project_many(self, P: np.ndarray) -> np.ndarray:
        X = _normalize_rows(P)
        low = X[:, 0] < self.t0
        if np.any(low):
            # nearest point then sits on the rim: first coordinate t0, the
            # rest scaled to the rim radius (axis ties broken toward -e2)
            rest = P[low, 1:]
            nr = np.linalg.norm(rest, axis=1)
            rim = np.zeros_like(rest)
            ok = nr > 1e-300
            rim[ok] = rest[ok] * (self.rim_radius / nr[ok])[:, None]
            rim[~ok, 0] = -self.rim_radius
            X[low, 0] = self.t0
            X[low, 1:] = rim
        return X

    def boundary_distance(self, p) -> float:
        p = np.asarray(p, dtype=float)
        back = np.linalg.norm(p[1:])
        return math.hypot(p[0] - self.t0, back - self.rim_radius)

    def hausdorff_measure(self) -> float:
        return spherical_cap_measure(self.d, self.t0)

    def diameter(self) -> float:
        if self.t0 <= 0.0:
            return 2.0
        return 2.0 * self.rim_radius

    def interior_point(self) -> np.ndarray:
        out = np.zeros(self.ambient)
        out[0] = 1.0
        return out

    def build_mesh(self, h: float) -> Mesh:
        _check_h(h)
        base = Sphere(self.d).build_mesh(h / 2.0)
        f = base.fill_distance
        nodes = base.nodes
        keep = nodes[:, 0] >= self.t0
        inside = nodes[keep]
        outside = nodes[~keep]
        extra = np.empty((0, self.ambient))
        if len(outside):
            proj = self.project_many(outside)
            close = np.linalg.norm(proj - outside, axis=1) <= f
            extra = proj[close]
        return Mesh(np.vstack([inside, extra]), 2.0 * f)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.d == 1:
            theta0 = math.acos(self.t0)
            ang = rng.uniform(-theta0, theta0, size=n)
            return np.column_stack([np.cos(ang), np.sin(ang)])
        if self.d == 2:
            t = rng.uniform(self.t0, 1.0, size=n)
        else:
            t = _sample_cap_height(rng, self.d, self.t0, n)
        u = rng.standard_normal((n, self.d))
        u = _normalize_rows(u)
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        return np.column_stack([t, u * r[:, None]])

    def to_config(self) -> dict:
        return {"kind": "cap", "d": self.d, "t0": self.t0}


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def domain_from_config(cfg: dict) -> Domain:
    """Build a domain from its flat config mapping (inverse of to_config)."""
    kind = cfg.get("kind")
    if kind == "cube":
        return Cube(int(cfg["d"]))
    if kind == "ball":
        return Ball(int(cfg["d"]))
    if kind == "ellipsoid":
        return Ellipsoid(tuple(cfg["semi_axes"]))
    if kind == "sphere":
        return Sphere(int(cfg["d"]))
    if kind == "cap":
        return SphericalCap(int(cfg["d"]), float(cfg["t0"]))
    raise ValueError(f"unknown domain kind: {kind!r}")


def default_fill(A: Domain, N: int) -> float:
    """Default mesh fill for N-point sweeps: min(0.2, 0.25 N^{-1/d}) * diam."""
    return min(0.2, 0.25 * N ** (-1.0 / A.d)) * A.diameter()


def _check_h(h: float) -> None:
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("mesh fill h must be positive and finite")


def _grid(axis: np.ndarray, d: int) -> np.ndarray:
    mats = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mats], axis=1)


def _normalize_rows(P: np.ndarray) -> np.ndarray:
    """Radial projection onto the unit sphere; the origin maps to -e1."""
    P = np.asarray(P, dtype=float)
    r = np.linalg.norm(P, axis=1)
    out = np.empty_like(P)
    ok = r > 1e-300
    out[ok] = P[ok] / r[ok, None]
    if np.any(~ok):
        fallback = np.zeros(P.shape[1])
        fallback[0] = -1.0
        out[~ok] = fallback
    return out


def _sample_cap_height(rng: np.random.Generator, d: int, t0: float,
                       n: int) -> np.ndarray:
    # rejection from the uniform envelope; density (1 - t^2)^{(d-2)/2}
    peak = max((1.0 - t0 * t0) ** ((d - 2) / 2.0), 1.0) if d > 2 else 1.0
    out = np.empty(0)
    while len(out) < n:
        m = 2 * (n - len(out)) + 16
        t = rng.uniform(t0, 1.0, size=m)
        acc = rng.random(m) * peak <= (1.0 - t * t) ** ((d - 2) / 2.0)
        out = np.concatenate([out, t[acc]])
    return out[:n]


# ---------------------------------------------------------------------------
# ellipsoid nearest boundary point
# ---------------------------------------------------------------------------


def _ellipsoid_nearest_boundary(a: np.ndarray, P: np.ndarray):
    """Nearest points on the boundary ellipsoid, for arbitrary query points.

    Solves the Lagrange condition x_i = p_i a_i^2 / (a_i^2 + mu) with a
    safeguarded bisection on mu in (-a_min^2, inf).  When every smallest
    semi-axis coordinate of p vanishes and the constraint function at
    mu = -a_min^2 stays below one, the multiplier saturates and the
    leftover norm goes onto a smallest axis.  Returns (points, distances).
    """
    P = np.asarray(P, dtype=float)
    n, d = P.shape
    a2 = a * a
    amin2 = float(np.min(a2))
    min_axes = np.isclose(a2, amin2)
    j0 = int(np.argmin(a2))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms_floor = a2 * P * P / np.where(min_axes, np.inf, a2 - amin2) ** 2
        on_min = min_axes & (P != 0.0)
        f_floor = np.where(np.any(on_min, axis=1), np.inf,
                           np.sum(np.where(min_axes, 0.0, terms_floor), axis=1))

    X = np.empty_like(P)
    saturated = f_floor <= 1.0
    if np.any(saturated):
        Q = P[saturated]
        with np.errstate(divide="ignore", invalid="ignore"):
            Xs = np.where(min_axes, 0.0, Q * a2 / (a2 - amin2))
        leftover = np.sqrt(np.maximum(0.0, amin2)) * \
            np.sqrt(np.maximum(0.0, 1.0 - f_floor[saturated]))
        Xs[:, j0] = np.where(Q[:, j0] >= 0.0, leftover, -leftover)
        X[saturated] = Xs

    free = ~saturated
    if np.any(free):
        Q = P[free]
        m = len(Q)

        def f(mu):
            return np.sum(a2 * Q * Q / (a2 + mu[:, None]) ** 2, axis=1)

        # f decreases from f_floor > 1 at the left end to < 1 at hi; the
        # left endpoint itself is never evaluated, so it may sit on -amin2
        lo = np.full(m, -amin2)
        amax = float(np.max(a))
        hi = np.where(f(np.zeros(m)) <= 1.0, 0.0,
                      amax * np.maximum(np.linalg.norm(Q, axis=1), 1.0))
        # each row stops on its own bracket width, so a row's result does
        # not depend on the other rows of the batch
        done = np.zeros(m, dtype=bool)
        for _ in range(ELLIPSOID_ROOT_MAXITER):
            mid = 0.5 * (lo + hi)
            val = f(mid)
            lo = np.where(~done & (val > 1.0), mid, lo)
            hi = np.where(~done & ~(val > 1.0), mid, hi)
            done |= hi - lo <= ELLIPSOID_ROOT_TOL * max(amin2, 1.0)
            if done.all():
                break
        mu = 0.5 * (lo + hi)
        Xf = Q * a2 / (a2 + mu[:, None])
        # snap exactly onto the surface
        norm = np.sqrt(np.sum((Xf / a) ** 2, axis=1))
        Xf /= np.maximum(norm, 1e-300)[:, None]
        X[free] = Xf

    dist = np.linalg.norm(X - P, axis=1)
    return X, dist


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def _mesh_solid(A: Domain, box_half: np.ndarray, h: float) -> Mesh:
    """Grid mesh of a solid domain in [-box_half, box_half], plus a layer of
    boundary projections so the fill bound 2 * (spacing * sqrt(d) / 2) holds."""
    _check_h(h)
    d = len(box_half)
    spacing_target = h / math.sqrt(d)
    axes = []
    spacing = 0.0
    for half in box_half:
        n = max(2, int(math.ceil(2.0 * half / spacing_target)) + 1)
        ax = np.linspace(-half, half, n)
        axes.append(ax)
        spacing = max(spacing, ax[1] - ax[0])
    mats = np.meshgrid(*axes, indexing="ij")
    G = np.stack([m.ravel() for m in mats], axis=1)
    half_diag = spacing * math.sqrt(d) / 2.0

    inside = _solid_inside_mask(A, G)
    nodes_in = G[inside]
    outside = G[~inside]
    extra = np.empty((0, d))
    if len(outside):
        proj = A.project_many(outside)
        close = np.linalg.norm(proj - outside, axis=1) <= half_diag
        extra = proj[close]
    return Mesh(np.vstack([nodes_in, extra]), 2.0 * half_diag)


def _solid_inside_mask(A: Domain, G: np.ndarray) -> np.ndarray:
    if isinstance(A, Ball):
        return np.linalg.norm(G, axis=1) <= 1.0
    if isinstance(A, Ellipsoid):
        return np.sum((G / A.axes_array) ** 2, axis=1) <= 1.0
    raise TypeError("solid mesh supports balls and ellipsoids")


def _mesh_circle(h: float) -> Mesh:
    hh = min(h, 1.9)
    n = max(4, int(math.ceil(math.pi / (2.0 * math.asin(hh / 2.0)))) + 1)
    ang = 2.0 * math.pi * np.arange(n) / n
    nodes = np.column_stack([np.cos(ang), np.sin(ang)])
    return Mesh(nodes, 2.0 * math.sin(math.pi / (2.0 * n)))


_ICO_CACHE: dict = {}


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            v += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = _normalize_rows(np.array(v))
    from scipy.spatial import ConvexHull

    faces = ConvexHull(verts).simplices
    return verts, faces


def _icosphere_nodes(h: float):
    """Subdivided icosahedron with max chordal edge <= min(h, 1).

    For edge length e the chordal fill distance is at most
    e / sqrt(3) + e^2 / 3 (planar circumradius plus the radial lift),
    which stays below h for e <= min(h, 1).
    """
    target = min(h, 1.0)
    level = 0
    verts, faces = _ico_level(0)
    while _max_edge(verts, faces) > target:
        level += 1
        if level > 9:
            raise ValueError("mesh fill too small for the sphere mesher")
        verts, faces = _ico_level(level)
    e = _max_edge(verts, faces)
    return verts, e / math.sqrt(3.0) + e * e / 3.0


def _ico_level(level: int):
    if level in _ICO_CACHE:
        return _ICO_CACHE[level]
    if level == 0:
        out = _icosahedron()
    else:
        verts, faces = _ico_level(level - 1)
        verts = [tuple(v) for v in verts]
        index = {v: i for i, v in enumerate(verts)}
        midpoint: dict = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                m = np.array(verts[i]) + np.array(verts[j])
                m = tuple(m / np.linalg.norm(m))
                if m not in index:
                    index[m] = len(verts)
                    verts.append(m)
                midpoint[key] = index[m]
            return midpoint[key]

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        out = np.array(verts), np.array(new_faces)
    _ICO_CACHE[level] = out
    return out


def _max_edge(verts, faces) -> float:
    V = np.asarray(verts)
    F = np.asarray(faces)
    e = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        e = max(e, float(np.max(np.linalg.norm(V[F[:, a]] - V[F[:, b]], axis=1))))
    return e


def _mesh_sphere_shell(ambient: int, h: float) -> Mesh:
    spacing = h / math.sqrt(ambient)
    n = int(math.ceil(2.2 / spacing)) + 1
    axis = np.linspace(-1.1, 1.1, n)
    spacing = axis[1] - axis[0]
    half_diag = spacing * math.sqrt(ambient) / 2.0
    G = _grid(axis, ambient)
    r = np.linalg.norm(G, axis=1)
    keep = np.abs(r - 1.0) <= half_diag
    nodes = _normalize_rows(G[keep])
    return Mesh(nodes, 2.0 * half_diag)


# ---------------------------------------------------------------------------
# local refinement
# ---------------------------------------------------------------------------


_INT_BALL_CACHE: dict = {}


def _int_ball_offsets(ambient: int) -> np.ndarray:
    """Integer lattice points with |v| <= 3 sqrt(ambient)."""
    if ambient not in _INT_BALL_CACHE:
        rad = 3.0 * math.sqrt(ambient)
        m = int(math.ceil(rad))
        axis = np.arange(-m, m + 1)
        G = _grid(axis.astype(float), ambient)
        keep = np.linalg.norm(G, axis=1) <= rad + 1e-12
        _INT_BALL_CACHE[ambient] = G[keep].astype(np.int64)
    return _INT_BALL_CACHE[ambient]


def _unique_row_indices(keys: np.ndarray) -> np.ndarray:
    """First-occurrence indices of the distinct rows, in original order.

    Rows are packed into scalars when the coordinate span permits, which is
    much faster than the structured row sort inside unique(axis=0).
    """
    lo = keys.min(axis=0)
    span = keys.max(axis=0) - lo + 1
    bits = np.ceil(np.log2(np.maximum(span, 2))).astype(int)
    if int(bits.sum()) <= 62:
        packed = np.zeros(len(keys), dtype=np.int64)
        for k in range(keys.shape[1]):
            packed = (packed << int(bits[k])) | (keys[:, k] - lo[k])
        _, idx = np.unique(packed, return_index=True)
    else:
        _, idx = np.unique(keys, axis=0, return_index=True)
    return np.sort(idx)


def refine_nodes(A: Domain, centers: np.ndarray, r: float) -> np.ndarray:
    """Nodes covering union of B(center, r) cap A with balls of radius r/2.

    Children live on one shared grid of spacing r / (2.05 sqrt(d)), are
    deduplicated in integer coordinates before the (expensive) projection
    onto A, and then re-deduplicated finely after it.  For p in the union
    the nearest grid point q has |p - q| <= g sqrt(d)/2, so the projected
    child is within 2 |p - q| <= r/2.05 of p; the post-projection merge
    adds at most r/131, keeping the child fill below r/2.
    """
    d = A.ambient
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) == 0:
        return centers.reshape(0, d)
    g = r / (2.05 * math.sqrt(d))
    base = np.round(centers / g).astype(np.int64)
    offs = _int_ball_offsets(d)
    # chunked expansion keeps peak memory at ~chunk * len(offs) rows
    chunk = max(1, 8_000_000 // len(offs))
    parts = []
    for i in range(0, len(base), chunk):
        blk = (base[i:i + chunk, None, :] + offs[None, :, :]).reshape(-1, d)
        parts.append(blk[_unique_row_indices(blk)])
    keys = parts[0] if len(parts) == 1 else np.vstack(parts)
    keys = keys[_unique_row_indices(keys)]
    cand = keys.astype(float) * g
    if len(centers) > 1:
        from scipy.spatial import cKDTree

        dmin, _ = cKDTree(centers).query(cand, k=1)
    else:
        dmin = np.linalg.norm(cand - centers[0], axis=1)
    cand = cand[dmin <= r + g * math.sqrt(d) / 2.0 + 1e-12 * r]
    cand = A.project_many(cand)
    fine = np.round(cand / (g / 64.0)).astype(np.int64)
    return cand[_unique_row_indices(fine)]


def branch_and_bound(A: Domain, mesh: Mesh, evaluate, polish, close,
                     max_levels: int, max_active: int):
    """Certified bracket on the minimum of a function over A.

    Each level evaluates the function on the current nodes, whose balls of
    radius r cover the live part of A.  ``evaluate(nodes, r)`` returns the
    node values and a lower bound on the function over each node's cell;
    ``polish(nodes, values, r, level)`` yields (value, point) candidates,
    and the first strictly lower one becomes the upper end.  The lower end
    is the smallest cell bound, clamped to the upper end.  The search stops
    certified once ``close(lower, upper)`` holds or no cell bound lies
    below the upper end; otherwise the cells that may still hold the
    minimum are refined with radius r/2.  It stops uncertified when that
    front exceeds max_active nodes or after max_levels refinements.
    Returns (lower, upper, point, certified, level, nodes evaluated).
    """
    nodes, r = mesh.nodes, mesh.fill_distance
    upper, point = math.inf, None
    evaluated = 0
    for level in range(max_levels + 1):
        values, bounds = evaluate(nodes, r)
        evaluated += len(nodes)
        for v, y in polish(nodes, values, r, level):
            if v < upper:
                upper, point = v, y
        lower = min(float(np.min(bounds)), upper)
        if close(lower, upper):
            return lower, upper, point, True, level, evaluated
        active = nodes[bounds < upper]
        if len(active) == 0:
            return upper, upper, point, True, level, evaluated
        if len(active) > max_active or level == max_levels:
            break
        nodes = refine_nodes(A, active, r)
        r /= 2.0
    return lower, upper, point, False, level, evaluated
