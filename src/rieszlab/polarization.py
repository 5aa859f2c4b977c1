"""Riesz polarization: certified inner minimization and configuration search.

The inner problem (minimize the potential of a fixed configuration over the
domain) is solved with a mesh sweep plus projected gradient polish, and
certified by per-cell lower bounds: cells far from every configuration point
get a Lipschitz bound, cells near one get a proximity bound, and active
cells are refined until the bracket closes (``geometry.branch_and_bound``,
which ``covering.covering_radius`` shares).  The outer problem (place N
points to maximize the inner minimum) is multi-start softmin ascent, with a
pattern-search polish for tiny problems; only the final configuration pays
for full certification.

On a one-dimensional domain the optimum is known by its shape: for a
convex decreasing kernel it is the unique configuration whose N+1 local
minima (the two ends and one per gap) are equal (Borodachov, Hardin and
Saff, *Discrete Energy on Rectifiable Sets*, 2019).  There a damped Newton
solve of those N equations replaces the search.

Elsewhere the outer search ranks configurations by a quick inner value (a
mesh sweep plus short descents).  That value is evaluated for a whole
batch of configurations at once, with every row doing the arithmetic of a
lone evaluation, and the descents of all seeds run in lockstep.  The
compass polish uses this to try the remaining directions of a sweep
speculatively in one batch; it takes the same moves as trying them one at
a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .covering import (
    farthest_point_sample,
    quick_covering_points,
    structured_layouts,
)
from .geometry import (
    Ball,
    Cube,
    Domain,
    Ellipsoid,
    Sphere,
    SphericalCap,
    branch_and_bound,
    default_fill,
)
from .kernels import COINCIDENCE_EPS, _potential_rows, potential_field

INNER_SEEDS = 10
INNER_MAX_LEVELS = 12
INNER_MAX_ACTIVE = 600_000
# elements per block of a batched quick-inner evaluation (configurations x
# nodes x points x coordinates in a mesh sweep).  It caps a compass batch
# and the node chunk of a mesh sweep, so the temporaries stay small enough
# for the core's cache at any N; larger blocks ran slower per configuration
# at N >= 32
BATCH_ELEMENTS = 1 << 14
# the interval Newton solve stops once its log minima agree to EQUAL_SPREAD
# or when NEWTON_HALVINGS halvings of a step all fail (from the pull-in
# start no accepted step has needed more than one)
EQUAL_SPREAD = 1e-14
NEWTON_HALVINGS = 8


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 16
    iters: int = 2000
    tol: float = 1e-4
    seed: int = 0
    workers: int = 1


@dataclass
class InnerMinResult:
    """Certified inner minimum; unpacks as (value, witness, bracket)."""

    value: float
    witness: np.ndarray
    bracket: tuple
    certified: bool
    levels: int
    nodes_evaluated: int

    def __iter__(self):
        return iter((self.value, self.witness, self.bracket))

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


@dataclass
class PolarizationResult:
    value: float
    witness: np.ndarray
    bracket: tuple
    config: np.ndarray
    s: float
    certified: bool
    solver_stats: dict

    @property
    def log_value(self) -> float:
        return math.log(self.value)

    @property
    def witness_gap(self) -> float:
        """min_j |witness - x_j|; positive for any finite value."""
        return float(np.min(np.linalg.norm(self.config - self.witness,
                                           axis=1)))


def _check_sv(s: float) -> float:
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("s must be positive and finite")
    return s


def _as_interior_config(A: Domain, omega) -> np.ndarray:
    P = np.atleast_2d(np.asarray(omega, dtype=float))
    if P.shape[1] != A.ambient:
        raise ValueError(
            f"configuration is {P.shape[1]}-dimensional, domain wants "
            f"{A.ambient}")
    for x in P:
        if not A.contains(x):
            raise ValueError("configuration must lie inside the domain")
    return P


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, d) array.

    np.linalg.norm of a 1-D vector is sqrt of a BLAS dot, which rounds
    differently from a plain sum of squares; a stack of 1 x d by d x 1
    products runs the same dot, so each row matches the unbatched norm.
    """
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


def _descend(A: Domain, omegas: np.ndarray, s: float, Y0: np.ndarray,
             step0: float, iters: int = 80):
    """Projected gradient descents of the potential, one per row, in lockstep.

    Row i descends the potential of configuration omegas[i] (shape
    (k, N, ambient); a broadcast view serves one shared configuration)
    from Y0[i].  Every row keeps the arithmetic of a lone descent: strict
    decrease accepts a trial and grows the step by 1.4, a rejection halves
    it, and a row stops on a coincidence, a zero or non-finite gradient,
    or a step below the floor.  The distances of an accepted trial give
    the next gradient.  Returns the end points (k, ambient) and values.
    """
    Y = np.array(Y0, dtype=float)
    diff = Y[:, None, :] - omegas
    r = np.linalg.norm(diff, axis=2)
    val = _potential_rows(r, s)
    step = np.full(len(Y), max(step0, 1e-12))
    floor = 1e-12 * A.diameter()
    live = np.arange(len(Y))
    for _ in range(iters):
        rl, dl = r[live], diff[live]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef = s * rl ** (-s - 2.0)
            g = -np.sum(coef[:, :, None] * dl, axis=1)
            gn = _row_norms(g)
        go = ((np.min(rl, axis=1) >= COINCIDENCE_EPS) & np.isfinite(gn)
              & (gn != 0.0))
        live, g, gn = live[go], g[go], gn[go]
        if len(live) == 0:
            break
        trial = A.project_many(Y[live] - (step[live] / gn)[:, None] * g)
        tdiff = trial[:, None, :] - omegas[live]
        tr = np.linalg.norm(tdiff, axis=2)
        tv = _potential_rows(tr, s)
        acc = tv < val[live]
        a = live[acc]
        Y[a], val[a], diff[a], r[a] = trial[acc], tv[acc], tdiff[acc], tr[acc]
        step[a] *= 1.4
        step[live[~acc]] *= 0.5
        live = live[acc | (step[live] >= floor)]
    return Y, val


def _cell_lower_bounds(A: Domain, omega: np.ndarray, nodes: np.ndarray,
                       f: np.ndarray, r: float, s: float,
                       chunk: int = 4096) -> np.ndarray:
    """Per-node lower bound on the potential over the node's radius-r cell.

    Any y in the cell has |y - x_j| <= d_nj + r, so the sum of
    (d_nj + r)^(-s) bounds from below everywhere.  Cells clear of every
    x_j also carry a Lipschitz bound f(node) - L r with
    L = s sum_j (d_nj - r)^(-(s+1)), and a second-order Taylor bound
    f(node) - drop(grad) - (1/2) H r^2 with the Hessian norm bounded by
    H = s(s+1) sum_j (d_nj - r)^(-(s+2)).  The gradient drop respects the
    domain: tangential on the sphere and on a spherical cap, which lies on
    it (the chordal normal offset of at most r^2/2 folds into the
    second-order term), per-axis box reach on the cube, and a capped
    outward radial reach on the ball.  The drop vanishing at interior and
    boundary minimizers alike is what keeps the active refinement front
    from blowing up as the bracket tightens.
    """
    on_sphere = isinstance(A, (Sphere, SphericalCap))
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), chunk):
        blk = nodes[lo:lo + chunk]
        diff = blk[:, None, :] - omega[None, :, :]
        d = np.linalg.norm(diff, axis=2)
        with np.errstate(over="ignore", divide="ignore"):
            prox = np.sum((d + r) ** (-s), axis=1)
        rho = d - r
        far = np.all(rho > 0.0, axis=1)
        bound = prox
        if far.any():
            fb = f[lo:lo + chunk][far]
            nb = blk[far]
            # at steep s the far-cell constants overflow; those bounds come
            # out inf or nan and are discarded below
            with np.errstate(over="ignore", invalid="ignore"):
                L = s * np.sum(rho[far] ** (-(s + 1.0)), axis=1)
                H = s * (s + 1.0) * np.sum(rho[far] ** (-(s + 2.0)), axis=1)
                coef = s * d[far] ** (-(s + 2.0))
                g = -np.einsum("ij,ijk->ik", coef, diff[far])
                gn = np.linalg.norm(g, axis=1)
                lip = fb - L * r
                if on_sphere:
                    gt = g - nb * np.sum(g * nb, axis=1)[:, None]
                    taylor = (fb - np.linalg.norm(gt, axis=1) * r
                              - 0.5 * (gn + H) * r * r)
                elif isinstance(A, Cube):
                    # exact minimum of g.(y - n) over the per-axis feasible
                    # box [-min(r, n_k), min(r, 1 - n_k)], never worse than
                    # the euclidean drop |g| r
                    reach_lo = np.minimum(r, nb)
                    reach_hi = np.minimum(r, 1.0 - nb)
                    drop = np.sum(np.where(g > 0.0, g * reach_lo,
                                           -g * reach_hi), axis=1)
                    drop = np.minimum(drop, gn * r)
                    taylor = fb - drop - 0.5 * H * r * r
                elif isinstance(A, Ball):
                    # outward radial reach is capped by (1 - |n|^2)/(2|n|)
                    # (from |y| <= 1), so a boundary-hugging cell loses only
                    # the tangential component
                    nn = np.linalg.norm(nb, axis=1)
                    nhat = nb / np.maximum(nn, 1e-30)[:, None]
                    gr = np.sum(g * nhat, axis=1)
                    gt = np.linalg.norm(g - gr[:, None] * nhat, axis=1)
                    cap = np.minimum(r, (1.0 - nn ** 2) /
                                     np.maximum(2.0 * nn, 1e-30))
                    drop = gt * r + np.where(gr > 0.0, gr * r, -gr * cap)
                    drop = np.minimum(drop, gn * r)
                    taylor = fb - drop - 0.5 * H * r * r
                elif isinstance(A, Ellipsoid):
                    taylor = fb - gn * r - 0.5 * H * r * r
                else:
                    taylor = lip
                cand = np.maximum(lip, taylor)
                cand[~np.isfinite(cand)] = -math.inf
            tmp = bound[far]
            bound[far] = np.maximum(tmp, cand)
        out[lo:lo + chunk] = bound
    return out


def inner_min(A: Domain, omega, s: float, tol: float = 1e-4, *,
              max_levels: int = INNER_MAX_LEVELS) -> InnerMinResult:
    """Certified global minimum of the potential of omega over A.

    Mesh sweep at the default fill, projected gradient descent from the
    best mesh seeds, then cell-bound refinement until the bracket width is
    at most tol * value.  If the bracket has not closed after max_levels
    refinements the best bracket is returned with certified=False.
    """
    s = _check_sv(s)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    omega = _as_interior_config(A, omega)
    # quarter of the sweep default: the Lipschitz bracket shrinks linearly
    # with the fill, and the halving budget needs this head start to reach
    # 1e-4 relative width on unit-scale problems; the bound constants also
    # grow linearly in s, so the start shrinks accordingly for steep kernels
    h = default_fill(A, len(omega)) * min(0.25, 1.2 / s)

    def evaluate(nodes, r):
        f = potential_field(omega, nodes, s)
        return f, _cell_lower_bounds(A, omega, nodes, f, r, s)

    def polish(nodes, f, r, level):
        # each seed node, then its descent; ties keep the earlier candidate
        seeds = np.argsort(f)[:INNER_SEEDS if level == 0 else 2]
        Y, V = _descend(A, np.broadcast_to(omega, (len(seeds),) + omega.shape),
                        s, nodes[seeds], r)
        for i, y, v in zip(seeds, Y, V.tolist()):
            yield float(f[i]), nodes[i].copy()
            yield v, y

    lower, upper, witness, certified, level, evaluated = branch_and_bound(
        A, A.build_mesh(h), evaluate, polish,
        lambda lo, up: up - lo <= tol * abs(up), max_levels, INNER_MAX_ACTIVE)
    return InnerMinResult(upper, witness, (lower, upper), certified, level,
                          evaluated)


# ---------------------------------------------------------------------------
# outer maximization
# ---------------------------------------------------------------------------


_COVERING_INIT_CACHE: dict = {}


def _covering_init(A: Domain, N: int) -> np.ndarray:
    """Covering-style seed configuration, cached: it does not depend on s."""
    key = (repr(A), N)
    if key not in _COVERING_INIT_CACHE:
        _COVERING_INIT_CACHE[key] = quick_covering_points(A, N)
    return _COVERING_INIT_CACHE[key]


def _interval_inner_exact(x: np.ndarray, s: float):
    """All N+1 local minima of the potential of ordered charges x in (0, 1).

    The potential is monotone on the two outer segments and strictly
    convex on every gap, so its local minima are its values at 0 and 1 and
    at the one zero of the derivative in each gap, bisected for all gaps.
    Returns the log minima log m_k (N+1,), in order from 0 to 1, and their
    Jacobian d log m_k / d x_j (N+1, N).  At a gap minimizer y_k the
    derivative in y vanishes, so by Danskin's theorem m_k moves with x_j
    as if y_k stood still: dm_k/dx_j = s (y_k - x_j) |y_k - x_j|^(-s-2).
    Distances are scaled by the gap width in the bisection and by the
    nearest charge in the values, so nothing overflows at steep s.
    """
    lo, hi = x[:-1], x[1:]
    w = (hi - lo)[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            u = (mid[:, None] - x) / w
            # the sign of -f'(mid): positive while the minimum lies right
            right = np.sum(np.sign(u) * np.abs(u) ** -(s + 1.0), axis=1) > 0.0
            lo = np.where(right, mid, lo)
            hi = np.where(right, hi, mid)
    diff = np.concatenate(([0.0], 0.5 * (lo + hi), [1.0]))[:, None] - x
    dist = np.abs(diff)
    near = np.min(dist, axis=1)
    rel = (near[:, None] / dist) ** s
    tot = np.sum(rel, axis=1)
    jac = s * np.sign(diff) * rel / (dist * tot[:, None])
    return np.log(tot) - s * np.log(near), jac


def _equalize_interval(u: np.ndarray, s: float):
    """Damped Newton on log m_k - log m_0 = 0 (k = 1..N) from charges u.

    A step is halved until it keeps the charges strictly ordered inside
    (0, 1) and lowers the spread max_k |log m_k - log m_0|.  The start is
    kept if its exact minimum is the larger.  Returns the charges, their
    log minima and the number of steps taken.
    """
    def spread(log_m):
        return np.max(np.abs(log_m[1:] - log_m[0]))

    start = best = (u,) + _interval_inner_exact(u, s)
    steps = 0
    while spread(best[1]) > EQUAL_SPREAD:
        x, log_m, jac = best
        try:
            du = np.linalg.solve(jac[1:] - jac[0], log_m[0] - log_m[1:])
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(NEWTON_HALVINGS):
            trial = x + t * du
            if np.all(np.diff(np.concatenate(([0.0], trial, [1.0]))) > 0.0):
                cand = (trial,) + _interval_inner_exact(trial, s)
                if spread(cand[1]) < spread(log_m):
                    break
        else:
            break
        best = cand
        steps += 1
    if np.min(start[1]) > np.min(best[1]):
        best = start
    return best[0], best[1], steps


def _seed_choice(nodes: np.ndarray, top: np.ndarray, r: float) -> list:
    """Up to four of the low nodes top (in order) more than 4r apart."""
    T = nodes[top]
    far = (_row_norms((T[:, None, :] - T[None, :, :]).reshape(-1, T.shape[1]))
           .reshape(len(T), len(T)) > 4.0 * r).tolist()
    seeds = []
    for p in range(len(T)):
        if all(far[p][q] for q in seeds):
            seeds.append(p)
            if len(seeds) == 4:
                break
    return [int(top[p]) for p in seeds]


def _inner_upper_many(A: Domain, X: np.ndarray, s: float,
                      nodes: np.ndarray, r: float):
    """Quick upper estimates of the inner min for a batch of configurations.

    X has shape (B, N, ambient).  Near-optimal configurations equalize
    several competing minima, so a single descent from the global mesh
    argmin leaves the other basins evaluated only to mesh accuracy and the
    polish steps that rely on this estimate stall on that noise.  Each
    configuration gets a mesh sweep, then descents from up to four
    well-separated low nodes; all descents of the batch run in one
    lockstep call.  Each row's result is what a batch of one gives.
    Returns values (B,) and witnesses (B, ambient).
    """
    F = np.empty((len(X), len(nodes)))
    chunk = max(1, BATCH_ELEMENTS // X.size)
    for lo in range(0, len(nodes), chunk):
        dist = np.linalg.norm(nodes[None, lo:lo + chunk, None, :]
                              - X[:, None, :, :], axis=3)
        with np.errstate(divide="ignore", over="ignore"):
            F[:, lo:lo + chunk] = np.sum(dist ** (-s), axis=2)
    order = np.argsort(F, axis=1)
    rows = np.arange(len(X))
    best_v = F[rows, order[:, 0]]
    best_y = nodes[order[:, 0]]
    owner, starts = [], []
    for b in rows:
        seeds = _seed_choice(nodes, order[b, :64], r)
        owner += [b] * len(seeds)
        starts += seeds
    Y, V = _descend(A, X[owner], s, nodes[starts], r)
    for b, y, v in zip(owner, Y, V.tolist()):
        if v < best_v[b]:
            best_v[b], best_y[b] = v, y
    return best_v, best_y


def _inner_upper(A: Domain, omega: np.ndarray, s: float,
                 nodes: np.ndarray, r: float):
    """_inner_upper_many for one configuration: (value, witness)."""
    v, y = _inner_upper_many(A, omega[None], s, nodes, r)
    return float(v[0]), y[0]


def _soft_ascent(A: Domain, nodes: np.ndarray, x: np.ndarray, s: float,
                 beta: float, iters: int, spacing: float):
    """Projected ascent of the softmin-smoothed inner minimum.

    The smoothing acts on the potential normalized by its current minimum,
    so one beta schedule serves every N, s, d.  Barzilai-Borwein steps with
    a displacement cap; the best hard (unsmoothed) iterate is kept.
    """
    x = x.copy()
    best_val, best_x = -math.inf, x.copy()
    prev_x = None
    prev_g = None
    step = 0.2 * spacing
    stall = 0
    for _ in range(iters):
        d = np.maximum(cdist(nodes, x), 1e-12)
        with np.errstate(over="ignore"):
            f = np.sum(d ** (-s), axis=1)
        hard = float(np.min(f))
        if hard > best_val * (1.0 + 1e-10):
            best_val, best_x = hard, x.copy()
            stall = 0
        else:
            # the BB iteration keeps rattling around the optimum long after
            # the hard value stops moving; cut the stage short
            stall += 1
            if stall >= 60:
                break
        scale = max(abs(hard), 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.exp(-beta * (f - hard) / scale)
        z = np.nan_to_num(z, nan=0.0)
        tot = float(z.sum())
        if tot <= 0.0:
            break
        p = z / tot
        with np.errstate(over="ignore", invalid="ignore"):
            W = (s * p)[:, None] * d ** (-s - 2.0)
        W = np.nan_to_num(W, nan=0.0, posinf=0.0)
        g = W.T @ nodes - x * np.sum(W, axis=0)[:, None]
        if prev_x is not None:
            dx = (x - prev_x).ravel()
            dg = (g - prev_g).ravel()
            den = float(dg @ dg)
            if den > 1e-300:
                step = abs(float(dx @ dg)) / den
        if not (math.isfinite(step) and step > 0.0):
            step = 0.2 * spacing
        disp = step * g
        norms = np.linalg.norm(disp, axis=1)
        mx = float(norms.max(initial=0.0))
        if not math.isfinite(mx) or mx == 0.0:
            break
        cap = 0.5 * spacing
        if mx > cap:
            disp *= cap / mx
        prev_x, prev_g = x, g
        x = A.project_many(x + disp)
    d = np.maximum(cdist(nodes, x), 1e-12)
    with np.errstate(over="ignore"):
        hard = float(np.min(np.sum(d ** (-s), axis=1)))
    if hard > best_val:
        best_val, best_x = hard, x
    return best_x, best_val


def _compass_config(A: Domain, x: np.ndarray, s: float, nodes: np.ndarray,
                    r: float, spacing: float, budget: int = 2000):
    """Pattern search on the quick inner value; small N only.

    A sweep tries its directions in order and takes each one that improves
    the value.  Most trials improve nothing, so the sweep evaluates its
    remaining directions from the current x speculatively, as one batch of
    at most BATCH_ELEMENTS elements, accepts the first improving one, and
    re-batches the directions after it from the new x.  After a hit the
    next batch holds twice the directions that hit took, and each batch
    without one doubles it again, so frequent hits waste little work.  The
    moves taken and the evaluation count are those of the one-at-a-time
    sweep.
    """
    val, _ = _inner_upper(A, x, s, nodes, r)
    step = 0.05 * spacing
    evals = 0
    batch = size = max(1, BATCH_ELEMENTS // (x.size * len(nodes)))
    # +e and -e for every coordinate of every point, in that order
    eye = np.eye(x.size).reshape((x.size,) + x.shape)
    dirs = np.stack([eye, -eye], axis=1).reshape((-1,) + x.shape)
    while step > 1e-7 * A.diameter() and evals < budget:
        improved = False
        i = 0
        while i < len(dirs):
            E = dirs[i:i + size]
            cand = A.project_many((x + step * E).reshape(-1, x.shape[1]))
            cand = cand.reshape(E.shape)
            cv, _ = _inner_upper_many(A, cand, s, nodes, r)
            hit = np.flatnonzero(cv > val * (1.0 + 1e-13))
            if len(hit):
                j = int(hit[0])
                x, val = cand[j], float(cv[j])
                improved = True
                i += j + 1
                size = min(2 * (j + 1), batch)
            else:
                i += len(E)
                size = min(2 * size, batch)
        evals += len(dirs)
        if not improved:
            step /= 2.0
    return x, val


_SOFT_BETAS = tuple(float(2 ** k) for k in range(9))     # 1 .. 256


def _run_restart(A: Domain, x0: np.ndarray, s: float, nodes: np.ndarray,
                 r: float, spacing: float, iters: int):
    stage_iters = max(8, iters // len(_SOFT_BETAS))
    x = x0
    used = 0
    for beta in _SOFT_BETAS:
        x, _ = _soft_ascent(A, nodes, x, s, beta, stage_iters, spacing)
        used += stage_iters
    val, _ = _inner_upper(A, x, s, nodes, r)
    # the smoothed ascent can drift away from a start that was already
    # good (structured seeds, warm starts); never return worse than it
    v0, _ = _inner_upper(A, x0, s, nodes, r)
    if v0 > val:
        x, val = x0, v0
    order = np.lexsort(x.T[::-1])
    return x[order], val, used


def _certified_result(A: Domain, x: np.ndarray, s: float,
                      opts: SolverOptions, stats: dict) -> PolarizationResult:
    cert = inner_min(A, x, s, tol=opts.tol)
    stats.update(inner_levels=cert.levels, inner_nodes=cert.nodes_evaluated,
                 witness_gap=float(np.min(np.linalg.norm(x - cert.witness,
                                                         axis=1))))
    return PolarizationResult(cert.value, cert.witness, cert.bracket, x, s,
                              cert.certified, stats)


def _maximize_interval(A: Domain, N: int, s: float,
                       opts: SolverOptions) -> PolarizationResult:
    """The equalized optimum on a one-dimensional domain, certified.

    The domain is the segment of length L = diameter() centred on
    interior_point(); it maps affinely onto [0, 1], which scales every
    potential by L^s and changes no comparison, so the solve runs there.
    The start is equal spacing with the end charges pulled in by half a
    gap scaled by 2^(-1/s), which equalizes the end values with the
    interior gap minima when only nearest neighbours count.  The pull-in
    vanishes as s -> 0; its floor keeps the end charges off the ends in
    floating point.
    """
    L = A.diameter()
    lo = float(A.interior_point()[0]) - 0.5 * L
    off = max(0.5 * 2.0 ** (-1.0 / s) / (N - 1 + 2.0 ** (-1.0 / s)), 1e-12)
    u, log_m, steps = _equalize_interval(np.linspace(off, 1.0 - off, N), s)
    stats = {"restarts": 1, "iterations": steps, "mesh_fill": 0.0,
             "seed": opts.seed,
             "spread": float(np.max(log_m) - np.min(log_m))}
    return _certified_result(A, (lo + L * u)[:, None], s, opts, stats)


def maximize_polarization(A: Domain, N: int, s: float,
                          opts: SolverOptions = SolverOptions(),
                          _extra_inits=None) -> PolarizationResult:
    """Best found N-point polarization configuration with certified value.

    On a one-dimensional domain the equalization Newton solve gives the
    optimum directly, and opts.restarts, iters, seed and workers do not
    apply.  Elsewhere: multi-start (best-covering, structured layouts,
    farthest-point, random) softmin ascent with a beta ramp, and a
    coordinate polish for small problems.  Restarts are reduced in index
    order, so a fixed seed gives identical output for any worker count.
    Only the winning configuration is certified by inner_min.
    """
    s = _check_sv(s)
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(A, Ellipsoid) and s <= A.d - 2:
        raise ValueError(
            "s <= d-2 on an ellipsoid: the optimum degenerates to repeated "
            "centroids and ascent is meaningless; no closed form is "
            "implemented for this domain")
    if isinstance(A, Ball) and (N == 1 or s <= A.d - 2):
        # N = 1: the farthest boundary point from x sits at distance
        # 1 + |x|, minimized at the center, so the value is exactly 1 for
        # every s.  s <= d-2: repeated centers are optimal and the minimum
        # again sits on the unit boundary with value N.
        config = np.zeros((N, A.d))
        witness = np.zeros(A.d)
        witness[0] = 1.0
        stats = {"restarts": 0, "iterations": 0, "mesh_fill": 0.0,
                 "seed": opts.seed, "closed_form": True, "witness_gap": 1.0}
        return PolarizationResult(float(N), witness, (float(N), float(N)),
                                  config, s, True, stats)
    if A.ambient == 1:
        return _maximize_interval(A, N, s, opts)

    h = 0.5 * default_fill(A, N)
    mesh = A.build_mesh(h)
    nodes, r = mesh.nodes, mesh.fill_distance
    spacing = A.diameter() * N ** (-1.0 / A.d)
    rng = np.random.default_rng([opts.seed, 404])

    inits = []
    if _extra_inits:
        inits.extend(np.atleast_2d(np.asarray(e, dtype=float))
                     for e in _extra_inits)
    inits.append(_covering_init(A, N))
    inits.extend(structured_layouts(A, N, nodes))
    anchor = int(np.argmin(np.linalg.norm(
        nodes - A.interior_point(), axis=1)))
    inits.append(farthest_point_sample(nodes, N, anchor))
    while len(inits) < max(1, opts.restarts):
        inits.append(A.sample(rng, N))
    keep = max(opts.restarts, 1 + (len(_extra_inits) if _extra_inits else 0))
    inits = inits[:keep]

    per_restart = max(50, opts.iters)

    def run(i):
        return _run_restart(A, inits[i], s, nodes, r, spacing, per_restart)

    if opts.workers > 1:
        with ThreadPoolExecutor(max_workers=opts.workers) as ex:
            outs = list(ex.map(run, range(len(inits))))
    else:
        outs = [run(i) for i in range(len(inits))]

    best_x, best_val = None, -math.inf
    total_iters = 0
    for x, val, used in outs:                    # fixed order: deterministic
        total_iters += used
        if val > best_val * (1.0 + 1e-12) or best_x is None:
            best_x, best_val = x, val
        elif val >= best_val * (1.0 - 1e-12):
            # value tie: keep the lexicographically smaller configuration
            if tuple(x.ravel()) < tuple(best_x.ravel()):
                best_x = x
    if N * A.ambient <= 12:
        # tiny problems: pattern-search the winner onto the exact optimum
        best_x, _ = _compass_config(A, best_x, s, nodes, r, spacing)
        best_x = best_x[np.lexsort(best_x.T[::-1])]
    stats = {"restarts": len(inits), "iterations": total_iters,
             "mesh_fill": r, "seed": opts.seed}
    return _certified_result(A, best_x, s, opts, stats)


def _resize_config(A: Domain, base: np.ndarray, N: int,
                   rng: np.random.Generator) -> np.ndarray:
    if len(base) == N:
        return base
    if len(base) > N:
        return farthest_point_sample(base, N, 0)
    return np.vstack([base, A.sample(rng, N - len(base))])


def polarization_curve(A: Domain, s: float, N_list,
                       opts: SolverOptions = SolverOptions()) -> list:
    """maximize_polarization along N_list, warm-starting each run from the
    previous configuration plus a point inserted at the previous witness
    (the one-dimensional solve ignores warm starts)."""
    N_list = [int(n) for n in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    rng = np.random.default_rng([opts.seed, 808])
    out = []
    prev = None
    for N in N_list:
        extra = None
        if prev is not None:
            seeded = np.vstack([prev.config, prev.witness[None, :]])
            extra = [_resize_config(A, seeded, N, rng)]
        out.append(maximize_polarization(A, N, s, opts, _extra_inits=extra))
        prev = out[-1]
    return out
