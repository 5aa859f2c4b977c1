"""Covering, separation, and equidistribution diagnostics.

Covering radii are computed with certified brackets: the farthest-point
function y -> min_j |y - x_j| is 1-Lipschitz, so a mesh sweep brackets the
maximum between the best node value and that value plus the fill distance,
and local refinement shrinks the bracket to tolerance.  Weak-separation
counts (max points of a configuration inside a ball of radius r) are exact,
via branch-and-bound over minimal enclosing balls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .geometry import (
    Ball,
    Cube,
    Domain,
    Ellipsoid,
    Sphere,
    SphericalCap,
    refine_nodes,
    spherical_cap_measure,
    unit_ball_volume,
)
from .kernels import min_distance_field

MEB_TOL = 1e-12
BALL_COUNT_TOL = 1e-12          # closed-ball convention for counts
DISCREPANCY_PROBE_SEED = 20270314
DISCREPANCY_PROBES = 1000


# ---------------------------------------------------------------------------
# minimal enclosing ball (Welzl, move-to-front, bounded recursion)
# ---------------------------------------------------------------------------


def _circumball(boundary):
    """Smallest ball with every boundary point on its surface."""
    k = len(boundary)
    if k == 0:
        return np.zeros(1), -1.0
    B = np.asarray(boundary, dtype=float)
    if k == 1:
        return B[0], 0.0
    V = B[1:] - B[0]
    rhs = 0.5 * np.einsum("ij,ij->i", V, V)
    lam = None
    if k == 2:
        g = 2.0 * rhs[0]
        if g > 1e-30:
            lam = np.array([rhs[0] / g])
    elif k == 3:
        g00 = float(V[0] @ V[0])
        g01 = float(V[0] @ V[1])
        g11 = float(V[1] @ V[1])
        det = g00 * g11 - g01 * g01
        if abs(det) > 1e-12 * max(g00 * g11, 1e-30):
            lam = np.array([(rhs[0] * g11 - rhs[1] * g01) / det,
                            (rhs[1] * g00 - rhs[0] * g01) / det])
    else:
        try:
            lam = np.linalg.solve(V @ V.T, rhs)
        except np.linalg.LinAlgError:
            lam = None
    if lam is None:
        # affinely dependent boundary: minimum-norm solution stays in the
        # affine hull, matching the nondegenerate limit
        lam, *_ = np.linalg.lstsq(V @ V.T, rhs, rcond=None)
    c = B[0] + lam @ V
    r = float(np.max(np.linalg.norm(B - c, axis=1)))
    return c, r


def _mb(pts, boundary, dim):
    centre, radius = _circumball(boundary)
    if len(boundary) == dim + 1 or len(pts) == 0:
        return centre, radius
    i = 0
    while i < len(pts):
        if radius < 0:
            j = i
        else:
            d = np.linalg.norm(pts[i:] - centre, axis=1)
            viol = np.nonzero(d > radius * (1 + MEB_TOL) + 1e-14)[0]
            if len(viol) == 0:
                break
            j = i + int(viol[0])
        centre, radius = _mb(pts[:j], boundary + [pts[j]], dim)
        i = j + 1
    return centre, radius


def _welzl_ball(P: np.ndarray):
    uniq = np.unique(P, axis=0)
    order = np.random.default_rng(911).permutation(len(uniq))
    c, r = _mb(uniq[order], [], P.shape[1])
    return c, max(r, 0.0)


def minimal_enclosing_ball(points):
    """Exact smallest enclosing ball; returns (center, radius).

    Small sets go through Welzl's algorithm (move-to-front, recursion depth
    bounded by the ambient dimension plus one).  Larger sets grow a support
    set by absorbing the farthest outlier until the support ball contains
    everything; each round touches the data only through one vectorized
    distance sweep, and the subset radius increases strictly, so the loop
    terminates at the true ball.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if len(P) == 0:
        raise ValueError("need at least one point")
    n, d = P.shape
    if n <= max(12, d + 4):
        return _welzl_ball(P)
    far = int(np.argmax(np.linalg.norm(P - P.mean(axis=0), axis=1)))
    support = [far, int(np.argmax(np.linalg.norm(P - P[far], axis=1)))]
    for _ in range(64):
        c, r = _welzl_ball(P[support])
        dist = np.linalg.norm(P - c, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= r * (1 + MEB_TOL) + 1e-14:
            return c, r
        support.append(far)
    return _welzl_ball(P)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------


def separation(points) -> float:
    """Minimum pairwise distance; 0 for repeated points, inf for N = 1."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    n = len(P)
    if n < 2:
        return math.inf
    if n <= 2000:
        return float(np.min(pdist(P)))
    # spatial index beats the quadratic scan above this size
    from scipy.spatial import cKDTree

    tree = cKDTree(P)
    dist, _ = tree.query(P, k=2)
    return float(np.min(dist[:, 1]))


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CoveringRadius:
    value: float                  # certified lower estimate (attained value)
    bracket: tuple                # (value, upper bound), true rho inside
    farthest_point: np.ndarray
    levels: int
    nodes_evaluated: int

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def covering_radius(A: Domain, points, tol: float = 1e-3,
                    max_levels: int = 48,
                    max_active: int = 250_000) -> CoveringRadius:
    """Certified bracket on rho_A(points) = max_{y in A} min_j |y - x_j|.

    The bracket is always valid; it only reaches width <= tol while the
    active refinement front stays below max_active nodes.  A flat maximum
    (zero gradient, e.g. the antipode of a single point on a sphere) makes
    the front grow like 1/width, so very tight tolerances are only
    attainable at nondegenerate maxima.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    h = 0.25 * A.diameter()
    mesh = A.build_mesh(h)
    nodes, r = mesh.nodes, mesh.fill_distance
    evaluated = 0
    best = -math.inf
    best_point = None
    for level in range(max_levels + 1):
        g = min_distance_field(P, nodes)
        evaluated += len(nodes)
        top = int(np.argmax(g))
        if g[top] > best:
            best, best_point = float(g[top]), nodes[top]
        y_pol, v_pol = _ascend_min_distance(A, P, nodes[top], r)
        if v_pol > best:
            best, best_point = v_pol, y_pol
        ub = max(best, float(np.max(g)) + r)
        if ub - best <= tol:
            return CoveringRadius(best, (best, ub), best_point, level, evaluated)
        active = nodes[g + r > best]
        if len(active) == 0:
            return CoveringRadius(best, (best, best), best_point, level, evaluated)
        if len(active) > max_active:
            break
        nodes = refine_nodes(A, active, r)
        r /= 2.0
    return CoveringRadius(best, (best, ub), best_point, level, evaluated)


def _ascend_min_distance(A: Domain, P: np.ndarray, y0: np.ndarray,
                         step0: float):
    """Compass-search ascent of the min-distance function from y0."""
    y = y0.copy()
    val = float(np.min(np.linalg.norm(P - y, axis=1)))
    step = step0
    dim = A.ambient
    for _ in range(200):
        improved = False
        for k in range(dim):
            for sign in (1.0, -1.0):
                cand = y.copy()
                cand[k] += sign * step
                cand = A.project(cand)
                v = float(np.min(np.linalg.norm(P - cand, axis=1)))
                if v > val + 1e-15:
                    y, val, improved = cand, v, True
        if not improved:
            step /= 2.0
            if step < 1e-12 * max(step0, 1.0):
                break
    return y, val


# ---------------------------------------------------------------------------
# weak separation
# ---------------------------------------------------------------------------


def weak_separation_count(points, r: float) -> int:
    """Max number of configuration points inside a ball of radius r.

    Equals the size of the largest subset whose minimal enclosing ball has
    radius <= r (closed-ball convention, tolerance 1e-12; boundary ties
    count in).  Exact branch-and-bound, seeded per configuration point.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(P)
    if n > 500:
        raise ValueError("exact weak-separation counting is supported "
                         "for configurations up to 500 points")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    slack = r * (1 + BALL_COUNT_TOL) + 1e-15
    D = squareform(pdist(P)) if n > 1 else np.zeros((1, 1))
    best = 1

    def meb_radius(idx):
        _, rad = minimal_enclosing_ball(P[idx])
        return rad

    def grow(chosen, candidates):
        nonlocal best
        best = max(best, len(chosen))
        for pos, j in enumerate(candidates):
            if len(chosen) + len(candidates) - pos <= best:
                return
            if meb_radius(chosen + [j]) <= slack:
                nxt = [q for q in candidates[pos + 1:]
                       if D[q, j] <= 2 * slack]
                grow(chosen + [j], nxt)

    for i in range(n):
        neigh = [j for j in range(n) if j != i and D[i, j] <= 2 * slack]
        if 1 + len(neigh) <= best:
            continue
        if len(neigh) and meb_radius([i] + neigh) <= slack:
            best = max(best, 1 + len(neigh))
            continue
        neigh.sort(key=lambda j: D[i, j])
        grow([i], neigh)
    return best


@dataclass(eq=False)
class WeakSeparationRow:
    eta: float
    radius: float
    count: int
    bound: int
    passes: bool


@dataclass(eq=False)
class WeakSeparationVerdict:
    rows: list
    eta_star: float      # largest grid eta with count <= bound, 0.0 if none
    bound: int


def weak_separation_verdict(A: Domain, points, eta_grid=None
                            ) -> WeakSeparationVerdict:
    """Count points in balls of radius eta * N^{-1/d} across an eta grid.

    The multiplicity bound checked is 2d - 1, with d the domain's
    intrinsic dimension.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(P)
    bound = 2 * A.d - 1
    if eta_grid is None:
        eta_grid = np.geomspace(0.05, 2.0, 18)
    rows = []
    eta_star = 0.0
    scale = n ** (-1.0 / A.d)
    for eta in np.asarray(eta_grid, dtype=float):
        r = eta * scale
        count = weak_separation_count(P, r)
        ok = count <= bound
        rows.append(WeakSeparationRow(float(eta), float(r), count, bound, ok))
        if ok:
            eta_star = max(eta_star, float(eta))
    return WeakSeparationVerdict(rows, eta_star, bound)


# ---------------------------------------------------------------------------
# best covering
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BestCovering:
    points: np.ndarray
    rho: float
    bracket: tuple
    farthest_point: np.ndarray
    starts_used: int


def farthest_point_sample(nodes: np.ndarray, n: int, start: int) -> np.ndarray:
    """Greedy max-min subset of the nodes, seeded at index start."""
    chosen = [start % len(nodes)]
    d = np.linalg.norm(nodes - nodes[chosen[0]], axis=1)
    while len(chosen) < n:
        nxt = int(np.argmax(d))
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(nodes - nodes[nxt], axis=1))
    return nodes[chosen]


def _fps_complete(nodes: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
    """Top up base with greedy farthest mesh nodes until it has n points."""
    pts = list(base)
    d = np.min(np.linalg.norm(
        nodes[:, None, :] - base[None, :, :], axis=2), axis=1)
    while len(pts) < n:
        i = int(np.argmax(d))
        pts.append(nodes[i])
        d = np.minimum(d, np.linalg.norm(nodes - nodes[i], axis=1))
    return np.asarray(pts)


def _fit_count(cand: np.ndarray, N: int, nodes: np.ndarray,
               anchor: np.ndarray) -> np.ndarray:
    if len(cand) == N:
        return cand
    if len(cand) > N:
        start = int(np.argmin(np.linalg.norm(cand - anchor, axis=1)))
        return farthest_point_sample(cand, N, start)
    return _fps_complete(nodes, cand, N)


def _hex_points(a: float, lo: np.ndarray, hi: np.ndarray,
                rot: bool = False) -> np.ndarray:
    rows = []
    y = lo[1] - a
    k = 0
    while y <= hi[1] + a:
        x = np.arange(lo[0] - a + (k % 2) * a / 2.0, hi[0] + a, a)
        rows.append(np.column_stack([x, np.full(len(x), y)]))
        y += a * math.sqrt(3.0) / 2.0
        k += 1
    pts = np.vstack(rows)
    return pts[:, ::-1] if rot else pts


def _bcc_points(a: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    axes = [np.arange(lo[k] - a, hi[k] + a, a) for k in range(3)]
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.vstack([G, G + a / 2.0])


def structured_layouts(A: Domain, N: int, nodes: np.ndarray) -> list:
    """Lattice-style initial configurations adapted to the domain kind.

    Hexagonal seeding in the plane, body-centred cubic in space, midpoints
    on segments, golden-angle spirals on spheres and caps.  Counts are
    fitted by farthest-point subselection or top-up over the mesh nodes.
    """
    anchor = A.interior_point()
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    out = []
    if isinstance(A, Sphere) and A.d == 1:
        th = 2.0 * math.pi * (np.arange(N) + 0.5) / N
        out.append(np.column_stack([np.cos(th), np.sin(th)]))
    elif isinstance(A, Sphere) and A.d == 2:
        i = np.arange(N) + 0.5
        z = 1.0 - 2.0 * i / N
        th = math.pi * (3.0 - math.sqrt(5.0)) * i
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        out.append(np.column_stack([r * np.cos(th), r * np.sin(th), z]))
    elif isinstance(A, SphericalCap) and A.d == 2:
        i = np.arange(N) + 0.5
        t = 1.0 - (1.0 - A.t0) * i / N
        th = math.pi * (3.0 - math.sqrt(5.0)) * i
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        out.append(np.column_stack([t, r * np.cos(th), r * np.sin(th)]))
    elif isinstance(A, SphericalCap) and A.d == 1:
        th0 = math.acos(A.t0)
        th = -th0 + 2.0 * th0 * (np.arange(N) + 0.5) / N
        out.append(np.column_stack([np.cos(th), np.sin(th)]))
    elif A.d == 1:
        mid = lo + (hi - lo) * ((np.arange(N) + 0.5) / N)[:, None]
        out.append(A.project_many(mid))
    elif A.d == 2 and isinstance(A, (Cube, Ball, Ellipsoid)):
        a0 = math.sqrt(2.0 * A.hausdorff_measure() / (math.sqrt(3.0) * N))
        # scale and orientation variants seed different cell topologies
        for scale, rot in ((1.0, False), (1.0, True), (0.94, False),
                           (1.06, False)):
            cand = _hex_points(scale * a0, lo, hi, rot)
            cand = cand[[A.contains(p) for p in cand]]
            if len(cand):
                out.append(_fit_count(cand, N, nodes, anchor))
    elif A.d == 3 and isinstance(A, (Cube, Ball, Ellipsoid)):
        a0 = (2.0 * A.hausdorff_measure() / N) ** (1.0 / 3.0)
        for scale in (1.0, 1.1):
            cand = _bcc_points(scale * a0, lo, hi)
            cand = cand[[A.contains(p) for p in cand]]
            if len(cand):
                out.append(_fit_count(cand, N, nodes, anchor))
    return out


def quick_covering_points(A: Domain, N: int, iters: int = 60) -> np.ndarray:
    """Approximate covering configuration, cheap enough to use as a seed.

    One coarse pass of the staged search: structured and farthest-point
    starts through a short Lloyd descent with a few swap moves.  No
    certification, no continuum polish; callers that need a certified
    radius want best_covering instead.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    h0 = max(0.15 * N ** (-1.0 / A.d), 0.015) * A.diameter()
    mesh = A.build_mesh(h0)
    anchor = int(np.argmin(np.linalg.norm(
        mesh.nodes - A.interior_point(), axis=1)))
    inits = structured_layouts(A, N, mesh.nodes)
    inits.append(farthest_point_sample(mesh.nodes, N, anchor))
    best_pts, best_score = None, math.inf
    for init in inits:
        pts, score = _swap_descent(A, mesh.nodes, init, iters, max_swaps=6)
        if score < best_score:
            best_pts, best_score = pts, score
    return best_pts[np.lexsort(best_pts.T[::-1])]


def best_covering(A: Domain, N: int, *, n_starts: int = 8, iters: int = 200,
                  seed: int = 0, tol: float = 1e-6,
                  refine_rounds: int = 2) -> BestCovering:
    """Near-optimal N-point covering of A.

    Staged search: lattice-style and farthest-point starts run through
    Lloyd descent with k-center swap moves on a coarse mesh, survivors on a
    halved mesh, then the top two get a softmax relaxation of the max-min
    objective (beta ramp) on a quartered mesh followed by certified
    deep-hole pulls.  1-D intervals get an exact fixed-point polish.  The
    returned radius is always a certified covering_radius of the winner.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    h0 = max(0.15 * N ** (-1.0 / A.d), 0.015) * A.diameter()
    mesh = A.build_mesh(h0)
    rng = np.random.default_rng([seed, 77])
    anchor = int(np.argmin(np.linalg.norm(
        mesh.nodes - A.interior_point(), axis=1)))
    structured = structured_layouts(A, N, mesh.nodes)
    inits = list(structured)
    inits.append(farthest_point_sample(mesh.nodes, N, anchor))
    if N <= len(mesh.nodes):
        inits.append(farthest_point_sample(
            mesh.nodes, N, int(rng.integers(len(mesh.nodes)))))
    while len(inits) < max(1, n_starts):
        idx = rng.choice(len(mesh.nodes), size=N,
                         replace=len(mesh.nodes) < N)
        inits.append(mesh.nodes[np.atleast_1d(idx)])
    # the continuum stage re-descends the survivors on exact domains, so
    # the mesh pass only needs to rank basins there
    exact_path = _exact_kind(A) is not None and N >= 4
    candidates = []
    for k, init in enumerate(inits):
        pts, score = _swap_descent(A, mesh.nodes, init,
                                   min(iters, 80) if exact_path else iters,
                                   max_swaps=8 if exact_path else 24)
        candidates.append((score, k, pts))
    candidates.sort(key=lambda t: (t[0], t[1]))

    if isinstance(A, Cube) and A.d == 1:
        pts = _interval_lloyd_exact(candidates[0][2])
        cr = covering_radius(A, pts, tol=max(tol, 1e-9))
        order = np.lexsort(pts.T[::-1])
        return BestCovering(pts[order], cr.value, cr.bracket,
                            cr.farthest_point, len(candidates))

    if exact_path:
        out = _best_covering_exact(A, N, candidates, mesh.nodes, rng, tol)
        if out is not None:
            return out

    mid = A.build_mesh(h0 / 2.0) if refine_rounds >= 1 else mesh
    stage2 = []
    for score, k, pts in candidates[:3]:
        pts, score = _swap_descent(A, mid.nodes, pts, iters)
        stage2.append((score, k, pts))
    stage2.sort(key=lambda t: (t[0], t[1]))

    fine = A.build_mesh(h0 / 4.0) if refine_rounds >= 2 else mid
    best = None
    for score, k, pts in stage2[:2]:
        for beta in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            pts = _soft_descent(A, fine.nodes, pts, beta)
        pts, score = _swap_descent(A, fine.nodes, pts, iters)
        cr = covering_radius(A, pts, tol=max(score * 2e-4, tol, 1e-9))
        if best is None or (cr.value, k) < (best[0].value, best[2]):
            best = (cr, pts, k)
    cr, pts, _ = best

    for _ in range(8):
        hole = cr.farthest_point
        j = int(np.argmin(np.linalg.norm(pts - hole, axis=1)))
        trial = pts.copy()
        trial[j] += 0.5 * (hole - trial[j])
        trial, _ = _lloyd(A, fine.nodes, trial, 60)
        crt = covering_radius(A, trial,
                              tol=max(cr.value * 2e-4, tol, 1e-9))
        if crt.value < cr.value - 1e-9:
            pts, cr = trial, crt
        else:
            break
    if cr.width > tol:
        cr = covering_radius(A, pts, tol=max(tol, 1e-9))
    # the mesh stages can settle just above a structured start that is
    # already optimal (equal spacing on the circle); never return worse
    for start in structured:
        crs = covering_radius(A, start, tol=max(tol, 1e-9))
        if crs.value < cr.value:
            pts, cr = start, crs
    order = np.lexsort(pts.T[::-1])
    return BestCovering(pts[order], cr.value, cr.bracket, cr.farthest_point,
                        len(candidates))


# ---------------------------------------------------------------------------
# exact cell machinery for the square, disk, and 2-sphere
#
# For these domains every local maximum of y -> min_j |y - x_j| is a
# Voronoi-type critical point, so the covering radius of a configuration is
# an exact finite maximum: clipped-cell vertices for the square (computed
# by reflecting the sites across the four sides, which turns boundary
# criticals into ordinary Voronoi vertices), spherical Voronoi vertices on
# the 2-sphere, and interior vertices plus bisector/circle intersections
# and antipodal rim points on the disk.
# ---------------------------------------------------------------------------


def _exact_kind(A: Domain):
    if isinstance(A, Cube) and A.d == 2:
        return "square"
    if isinstance(A, Ball) and A.d == 2:
        return "disk"
    if isinstance(A, Sphere) and A.d == 2:
        return "sphere"
    return None


def _square_cells(pts: np.ndarray):
    from scipy.spatial import Voronoi

    x, y = pts[:, 0], pts[:, 1]
    blocks = []
    for fx in (lambda v: v, lambda v: -v, lambda v: 2.0 - v):
        for fy in (lambda v: v, lambda v: -v, lambda v: 2.0 - v):
            blocks.append(np.column_stack([fx(x), fy(y)]))
    vor = Voronoi(np.vstack(blocks))
    cells = []
    for i in range(len(pts)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) == 0:
            return None
        cells.append(np.clip(vor.vertices[region], 0.0, 1.0))
    return cells


def _sphere_cells(pts: np.ndarray):
    from scipy.spatial import SphericalVoronoi

    sv = SphericalVoronoi(pts, radius=1.0, center=np.zeros(3))
    return [sv.vertices[reg] for reg in sv.regions]


def _disk_criticals(pts: np.ndarray) -> np.ndarray:
    cand = []
    norms = np.linalg.norm(pts, axis=1)
    for i, p in enumerate(pts):
        if norms[i] > 1e-12:
            cand.append(-p / norms[i])
    if len(pts) >= 4:
        from scipy.spatial import Voronoi

        vor = Voronoi(pts)
        inside = np.linalg.norm(vor.vertices, axis=1) <= 1.0
        cand.extend(vor.vertices[inside])
        pairs = vor.ridge_points
    else:
        pairs = [(i, j) for i in range(len(pts))
                 for j in range(i + 1, len(pts))]
        for idx in itertools.combinations(range(len(pts)), 3):
            c, _ = _circumball(pts[list(idx)])
            if np.all(np.isfinite(c)) and np.linalg.norm(c) <= 1.0:
                cand.append(c)
    for i, j in pairs:
        a = 2.0 * (pts[j] - pts[i])
        b = float(pts[j] @ pts[j] - pts[i] @ pts[i])
        aa = float(a @ a)
        if aa < 1e-24:
            continue
        foot = (b / aa) * a
        disc = 1.0 - b * b / aa
        if disc < 0.0:
            continue
        t = math.sqrt(disc / aa)
        perp = np.array([-a[1], a[0]])
        cand.append(foot + t * perp)
        cand.append(foot - t * perp)
    return np.array(cand)


def _cells_and_criticals(A: Domain, pts: np.ndarray):
    kind = _exact_kind(A)
    if kind == "square":
        cells = _square_cells(pts)
        if cells is None:
            return None, None
        return cells, np.vstack(cells)
    if kind == "sphere":
        cells = _sphere_cells(pts)
        return cells, np.vstack(cells)
    if kind == "disk":
        crit = _disk_criticals(pts)
        d = cdist(crit, pts)
        m = d.min(axis=1)
        cells = [crit[d[:, j] <= m * (1.0 + 1e-9)] for j in range(len(pts))]
        return cells, crit
    return None, None


def _exact_rho(A: Domain, pts: np.ndarray):
    """(covering radius, attaining point) via the critical-point maximum."""
    _, crit = _cells_and_criticals(A, pts)
    d = cdist(crit, pts).min(axis=1)
    k = int(np.argmax(d))
    return float(d[k]), crit[k]


_TRIU_CACHE: dict = {}
_COMB3_CACHE: dict = {}


def _meb_center_2d(P: np.ndarray) -> np.ndarray:
    """Center of the smallest circle containing the rows of P.

    Planar cells have few vertices, so trying every pair-diameter circle
    and every circumcircle beats the general recursion by a wide margin.
    """
    k = len(P)
    if k == 1:
        return P[0].copy()
    if k == 2:
        return 0.5 * (P[0] + P[1])
    pair = _TRIU_CACHE.get(k)
    if pair is None:
        pair = _TRIU_CACHE.setdefault(k, np.triu_indices(k, 1))
    ii, jj = pair
    c = 0.5 * (P[ii] + P[jj])
    r = 0.5 * np.linalg.norm(P[ii] - P[jj], axis=1)
    ok = cdist(c, P).max(axis=1) <= r + 1e-12 * (r + 1.0)
    if ok.any():
        sel = np.flatnonzero(ok)
        return c[sel[np.argmin(r[sel])]]
    comb = _COMB3_CACHE.get(k)
    if comb is None:
        comb = np.array(list(itertools.combinations(range(k), 3)))
        _COMB3_CACHE[k] = comb
    P0 = P[comb[:, 0]]
    a = P[comb[:, 1]] - P0
    b = P[comb[:, 2]] - P0
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    safe = np.abs(det) > 1e-14
    if not safe.any():
        return minimal_enclosing_ball(P)[0]
    a, b, P0, det = a[safe], b[safe], P0[safe], det[safe]
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    cc = P0 + np.column_stack([(aa * b[:, 1] - bb * a[:, 1]) / (2.0 * det),
                               (bb * a[:, 0] - aa * b[:, 0]) / (2.0 * det)])
    rr = np.linalg.norm(cc - P0, axis=1)
    ok = cdist(cc, P).max(axis=1) <= rr + 1e-12 * (rr + 1.0)
    if not ok.any():
        return minimal_enclosing_ball(P)[0]
    sel = np.flatnonzero(ok)
    return cc[sel[np.argmin(rr[sel])]]


def _exact_lloyd(A: Domain, pts: np.ndarray, iters: int = 300):
    pts = pts.copy()
    planar = pts.shape[1] == 2
    for _ in range(iters):
        cells, _ = _cells_and_criticals(A, pts)
        if cells is None:
            return None
        moved = 0.0
        for i, cell in enumerate(cells):
            if len(cell) == 0:
                continue
            if planar:
                c = _meb_center_2d(cell)
            else:
                c = minimal_enclosing_ball(cell)[0]
            c = A.project(c)
            moved = max(moved, float(np.linalg.norm(c - pts[i])))
            pts[i] = c
        if moved < 1e-11:
            break
    return pts


def _exact_swap_descent(A: Domain, pts: np.ndarray, max_swaps: int = 40):
    pts = _exact_lloyd(A, pts)
    if pts is None:
        return None, math.inf
    val, hole = _exact_rho(A, pts)
    for _ in range(max_swaps):
        _, crit = _cells_and_criticals(A, pts)
        d = cdist(crit, pts)
        owner = d.argmin(axis=1)
        part = np.partition(d, 1, axis=1)
        drop = np.empty(len(pts))
        for j in range(len(pts)):
            drop[j] = float(np.max(np.where(owner == j, part[:, 1],
                                            part[:, 0])))
        # relocate the most redundant center into the deepest hole; give
        # the runner-up one try before declaring the descent stuck
        improved = False
        for j in np.argsort(drop)[:2]:
            cand = pts.copy()
            cand[int(j)] = hole
            cand = _exact_lloyd(A, cand)
            if cand is None:
                continue
            cval, chole = _exact_rho(A, cand)
            if cval < val - 1e-12:
                pts, val, hole = cand, cval, chole
                improved = True
                break
        if not improved:
            break
    return pts, val


def _best_covering_exact(A: Domain, N: int, candidates, soft_nodes,
                         rng, tol: float):
    """Continuum stage of best_covering on the exactly-evaluable domains.

    The mesh-stage survivors are re-descended with true-cell Lloyd and
    swap moves, then the winner takes softmax basin hops.  Returns None
    when the geometry backend rejects a configuration, in which case the
    caller falls back to the mesh pipeline.
    """
    from scipy.spatial import QhullError

    ranked = []
    for score, k, pts in candidates[:4]:
        try:
            out, val = _exact_swap_descent(A, pts)
        except (QhullError, ValueError):
            continue
        if out is not None and math.isfinite(val):
            ranked.append((val, k, out))
    if not ranked:
        return None
    ranked.sort(key=lambda t: (t[0], t[1]))
    val, _, pts = ranked[0]

    spacing = A.diameter() * N ** (-1.0 / A.d)
    for hop in range(8):
        sigma = (0.15, 0.28)[hop % 2] * spacing
        trial = A.project_many(pts + rng.normal(size=pts.shape) * sigma)
        try:
            for beta in (8.0, 32.0):
                trial = _soft_descent(A, soft_nodes, trial, beta)
            trial, tval = _exact_swap_descent(A, trial)
        except (QhullError, ValueError):
            continue
        if trial is not None and tval < val:
            pts, val = trial, tval
    cr = covering_radius(A, pts, tol=max(tol, 1e-9))
    order = np.lexsort(pts.T[::-1])
    return BestCovering(pts[order], cr.value, cr.bracket, cr.farthest_point,
                        len(candidates))


def _soft_descent(A: Domain, nodes: np.ndarray, pts: np.ndarray,
                  beta_scaled: float, iters: int = 60) -> np.ndarray:
    """Descend a softmax relaxation of max_y min_j |y - x_j| over the nodes.

    The softmax couples every near-deep hole at once, so several centers
    move together; single-move heuristics stall on exactly those
    configurations.  Projected gradient steps with Barzilai-Borwein sizes;
    beta is normalized by the current radius, so beta_scaled is unitless.
    """
    pts = pts.copy()
    best, best_pts = math.inf, pts.copy()
    prev_P = prev_g = None
    step = 0.05 * A.diameter() * len(pts) ** (-1.0 / A.d)
    for _ in range(iters):
        d = cdist(nodes, pts)
        owner = d.argmin(axis=1)
        m = d[np.arange(len(nodes)), owner]
        val = float(m.max())
        if val < best:
            best, best_pts = val, pts.copy()
        beta = beta_scaled / max(val, 1e-12)
        w = np.exp(beta * (m - val))
        w /= w.sum()
        u = (nodes - pts[owner]) / np.maximum(m, 1e-12)[:, None]
        g = np.zeros_like(pts)
        np.add.at(g, owner, -w[:, None] * u)
        if prev_P is not None:
            dP = (pts - prev_P).ravel()
            dg = (g - prev_g).ravel()
            den = float(np.dot(dP, dg))
            if abs(den) > 1e-18:
                step = min(abs(float(np.dot(dP, dP)) / den),
                           0.5 * A.diameter())
        prev_P, prev_g = pts.copy(), g.copy()
        pts = A.project_many(pts - step * g)
    return best_pts


def _swap_descent(A: Domain, nodes: np.ndarray, pts: np.ndarray, iters: int,
                  max_swaps: int = 24):
    """Lloyd descent with k-center swap moves between runs.

    Lloyd alone locks into its initial cell topology, so between runs the
    most redundant point (removing it grows the covering radius least) is
    relocated to the current deep hole.  Strict improvements only.
    """
    pts, score = _lloyd(A, nodes, pts, iters)
    n = len(pts)
    if n == 1:
        return pts, score
    for _ in range(min(max_swaps, 2 * n)):
        d = np.linalg.norm(nodes[:, None, :] - pts[None, :, :], axis=2)
        owner = np.argmin(d, axis=1)
        part = np.partition(d, 1, axis=1)
        hole = nodes[int(np.argmax(part[:, 0]))]
        drop = np.empty(n)
        for j in range(n):
            drop[j] = float(np.max(np.where(owner == j, part[:, 1],
                                            part[:, 0])))
        cand = pts.copy()
        cand[int(np.argmin(drop))] = hole
        cand, cscore = _lloyd(A, nodes, cand, iters)
        if cscore < score - 1e-12:
            pts, score = cand, cscore
        else:
            break
    return pts, score


def _lloyd(A: Domain, nodes: np.ndarray, pts: np.ndarray, iters: int):
    pts = pts.copy()
    best_pts, best_radius = pts.copy(), math.inf
    n = len(pts)
    stall = 0
    for _ in range(iters):
        d = np.linalg.norm(nodes[:, None, :] - pts[None, :, :], axis=2)
        owner = np.argmin(d, axis=1)
        radius = float(np.max(np.min(d, axis=1)))
        if radius < best_radius - 1e-12:
            best_pts, best_radius, stall = pts.copy(), radius, 0
        else:
            # the max-radius can plateau for a while as interior cells
            # settle, but a long stall means convergence (or a cycle)
            stall += 1
            if stall >= 50:
                break
        moved = 0.0
        for j in range(n):
            cell = nodes[owner == j]
            if len(cell) == 0:
                hole = int(np.argmax(np.min(d, axis=1)))
                new = nodes[hole]
            else:
                c, _ = minimal_enclosing_ball(cell)
                new = A.project(c)
            moved = max(moved, float(np.linalg.norm(new - pts[j])))
            pts[j] = new
        if moved <= 1e-13:
            break
    d = np.linalg.norm(nodes[:, None, :] - pts[None, :, :], axis=2)
    radius = float(np.max(np.min(d, axis=1)))
    if radius < best_radius:
        return pts, radius
    return best_pts, best_radius


def _interval_lloyd_exact(pts: np.ndarray) -> np.ndarray:
    x = np.sort(pts[:, 0])
    for _ in range(50_000):
        b = 0.5 * (x[:-1] + x[1:])
        lo = np.concatenate([[0.0], b])
        hi = np.concatenate([b, [1.0]])
        nxt = 0.5 * (lo + hi)
        if np.max(np.abs(nxt - x)) < 1e-15:
            x = nxt
            break
        x = nxt
    return x[:, None]


# ---------------------------------------------------------------------------
# equidistribution discrepancy
# ---------------------------------------------------------------------------


def ball_intersection_measure(A: Domain, z: np.ndarray, r: float) -> float:
    """H_d(B(z, r) cap A) for the supported domain kinds."""
    z = np.asarray(z, dtype=float)
    if r <= 0:
        return 0.0
    if isinstance(A, Cube):
        if A.d == 1:
            return max(0.0, min(1.0, z[0] + r) - max(0.0, z[0] - r))
        if A.d == 2:
            return _square_disc_area(z, r)
        return _monte_carlo_fraction(A, z, r) * A.hausdorff_measure()
    if isinstance(A, Ball):
        return _two_ball_volume(A.d, float(np.linalg.norm(z)), r)
    if isinstance(A, Sphere):
        rho = float(np.linalg.norm(z))
        if rho < 1e-300:
            return A.hausdorff_measure() if r >= 1.0 else 0.0
        t_hat = (1.0 + rho * rho - r * r) / (2.0 * rho)
        if t_hat > 1.0:
            return 0.0
        if t_hat < -1.0:
            return A.hausdorff_measure()
        return spherical_cap_measure(A.d, t_hat)
    if isinstance(A, (Ellipsoid, SphericalCap)):
        return _monte_carlo_fraction(A, z, r) * A.hausdorff_measure()
    raise TypeError(f"unsupported domain {A!r}")


def _square_disc_area(z: np.ndarray, r: float) -> float:
    # area of B(z, r) cap [0,1]^2 via the angular substitution that removes
    # the sqrt endpoint singularity; Gauss-Legendre after the substitution
    lo = math.asin(min(1.0, max(-1.0, (0.0 - z[0]) / r)))
    hi = math.asin(min(1.0, max(-1.0, (1.0 - z[0]) / r)))
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(96)
    phi = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    x = z[0] + r * np.sin(phi)
    half = r * np.cos(phi)
    seg = np.clip(z[1] + half, 0.0, 1.0) - np.clip(z[1] - half, 0.0, 1.0)
    return float(0.5 * (hi - lo) * np.sum(weights * seg * r * np.cos(phi)))


def _solid_cap_volume(d: int, tau: float) -> float:
    """Volume of {x in unit ball : x(1) >= tau}."""
    from scipy.special import betainc

    v = unit_ball_volume(d)
    if tau <= -1.0:
        return v
    if tau >= 1.0:
        return 0.0
    half = 0.5 * v * float(betainc((d + 1) / 2.0, 0.5, 1.0 - tau * tau))
    return half if tau >= 0.0 else v - half


def _two_ball_volume(d: int, rho: float, r: float) -> float:
    """Volume of B(0,1) cap B(z,r) with |z| = rho."""
    if rho >= 1.0 + r:
        return 0.0
    if rho <= abs(1.0 - r):
        small = min(1.0, r)
        return unit_ball_volume(d) * small ** d
    t1 = (rho * rho + 1.0 - r * r) / (2.0 * rho)
    t2 = rho - t1
    return _solid_cap_volume(d, t1) + r ** d * _solid_cap_volume(d, t2 / r)


def _monte_carlo_fraction(A: Domain, z: np.ndarray, r: float,
                          n: int = 20000) -> float:
    pts = A.sample(np.random.default_rng(DISCREPANCY_PROBE_SEED + 1), n)
    return float(np.mean(np.linalg.norm(pts - z, axis=1) <= r))


def equidistribution_discrepancy(A: Domain, points, radii,
                                 n_probes: int = DISCREPANCY_PROBES) -> dict:
    """Max over seeded probe balls of |empirical share - measure share|.

    Probe centers are a fixed seeded uniform sample of A (shared across
    configurations so curves over N are comparable).  Closed balls.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(P)
    probes = A.sample(np.random.default_rng(DISCREPANCY_PROBE_SEED), n_probes)
    total = A.hausdorff_measure()
    out = {}
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        d = np.linalg.norm(probes[:, None, :] - P[None, :, :], axis=2)
        counts = np.sum(d <= r + BALL_COUNT_TOL, axis=1) / n
        worst = 0.0
        for z, share in zip(probes, counts):
            frac = ball_intersection_measure(A, z, float(r)) / total
            worst = max(worst, abs(share - frac))
        out[float(r)] = worst
    return out


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CoveringReport:
    rho: float
    rho_bracket: tuple
    farthest_point: np.ndarray
    separation: float
    weak_sep: WeakSeparationVerdict
    discrepancy: dict = field(default_factory=dict)


def diagnose(A: Domain, points, *, eta_grid=None, radii=(),
             rho_tol: float = 1e-3) -> CoveringReport:
    """Covering/separation/weak-separation summary of a configuration."""
    cr = covering_radius(A, points, tol=rho_tol)
    ws = weak_separation_verdict(A, points, eta_grid=eta_grid)
    disc = equidistribution_discrepancy(A, points, radii) if len(
        np.atleast_1d(radii)) else {}
    return CoveringReport(cr.value, cr.bracket, cr.farthest_point,
                          separation(points), ws, disc)
