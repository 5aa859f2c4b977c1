"""Output checks for the benchmark, computed with numpy and scipy only.

Every check takes plain arrays and numbers, recomputes what it tests on a
path of its own, and returns a list of problems; an empty list means the
result passed.  Nothing here imports rieszlab, so a fault in the package
cannot hide itself by also breaking its check.

A domain is named by a ``(kind, d)`` pair: ``("cube", d)`` is [0, 1]^d,
``("ball", d)`` the closed unit ball of R^d and ``("sphere", d)`` the unit
sphere S^d in R^(d+1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma, zeta

MEMBER_TOL = 1e-9       # membership slack for witnesses and configurations
VALUE_RTOL = 1e-9       # recomputed values agree with reported ones to this
CLOSED_FORM_ATOL = 1e-6 # best_covering's default bracket tolerance
SIGMA_RTOL = 5e-3       # estimate_sigma's s-th root against the zeta limit
COUNT_RTOL = 1e-9       # closed-disc slack for weak-separation counts


def ambient(spec) -> int:
    kind, d = spec
    return d + 1 if kind == "sphere" else d


def measure(spec) -> float:
    """d-dimensional Hausdorff measure of the domain."""
    kind, d = spec
    if kind == "cube":
        return 1.0
    if kind == "ball":
        return math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)
    return 2.0 * math.pi ** ((d + 1) / 2.0) / gamma((d + 1) / 2.0)


def contains(spec, P, tol: float = MEMBER_TOL) -> np.ndarray:
    """Row-wise membership of the points P in the domain."""
    kind, _ = spec
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[1] != ambient(spec):
        return np.zeros(len(P), dtype=bool)
    if kind == "cube":
        return np.all((P >= -tol) & (P <= 1.0 + tol), axis=1)
    r = np.linalg.norm(P, axis=1)
    if kind == "ball":
        return r <= 1.0 + tol
    return np.abs(r - 1.0) <= tol


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    th = math.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def dense_sample(spec, rng: np.random.Generator,
                 n_random: int = 20_000) -> np.ndarray:
    """A fixed dense net of the domain (boundary included) plus n_random
    uniform points drawn from rng."""
    kind, d = spec
    if kind == "cube" and d == 1:
        net = np.linspace(0.0, 1.0, 40_001)[:, None]
    elif kind == "cube" and d == 2:
        ax = np.linspace(0.0, 1.0, 301)
        net = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
    elif kind == "ball" and d == 2:
        ax = np.linspace(-1.0, 1.0, 401)
        g = np.stack(np.meshgrid(ax, ax), axis=-1).reshape(-1, 2)
        th = 2.0 * math.pi * np.arange(8000) / 8000
        net = np.vstack([g[np.linalg.norm(g, axis=1) <= 1.0],
                         np.column_stack([np.cos(th), np.sin(th)])])
    elif kind == "sphere" and d == 1:
        th = 2.0 * math.pi * np.arange(40_000) / 40_000
        net = np.column_stack([np.cos(th), np.sin(th)])
    elif kind == "sphere" and d == 2:
        net = fibonacci_sphere(100_000)
    else:
        raise ValueError(f"no dense sample for {spec}")
    n = ambient(spec)
    if kind == "cube":
        extra = rng.random((n_random, n))
    elif kind == "ball":
        x = rng.uniform(-1.0, 1.0, (4 * n_random, n))
        extra = x[np.linalg.norm(x, axis=1) <= 1.0][:n_random]
    else:
        x = rng.standard_normal((n_random, n))
        extra = x / np.linalg.norm(x, axis=1, keepdims=True)
    return np.vstack([net, extra])


def riesz_field(config, Y, s: float, chunk: int = 4096) -> np.ndarray:
    """sum_j |y - x_j|^(-s) for each row y of Y; +inf on coincidence."""
    X = np.atleast_2d(np.asarray(config, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.empty(len(Y))
    for lo in range(0, len(Y), chunk):
        dist = np.sqrt(((Y[lo:lo + chunk, None, :] - X[None]) ** 2).sum(-1))
        with np.errstate(divide="ignore", over="ignore"):
            out[lo:lo + chunk] = (dist ** (-s)).sum(axis=1)
    return out


def _bracket_problems(bracket) -> tuple[float, float, list]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
        return lo, hi, [f"bracket ({lo!r}, {hi!r}) is not 0 < lower <= upper"]
    return lo, hi, []


def check_polarization(spec, config, s: float, bracket, witness,
                       tol: float, sample: np.ndarray) -> list:
    """Bracket on the inner minimum of the potential of config over A.

    The lower end may not exceed the potential at any point of the dense
    sample, the upper end must be the potential at the witness, the
    witness and the configuration must lie in A, and the bracket must be
    as narrow as the requested relative tolerance.
    """
    lo, hi, problems = _bracket_problems(bracket)
    if problems:
        return problems
    if hi - lo > tol * hi * (1.0 + 1e-9):
        problems.append(f"bracket width {(hi - lo) / hi:.3g} of the upper "
                        f"end exceeds the tolerance {tol}")
    if not contains(spec, witness)[0]:
        problems.append("witness lies outside the domain")
    if not np.all(contains(spec, config)):
        problems.append("configuration point lies outside the domain")
    at_witness = float(riesz_field(config, witness, s)[0])
    if not abs(at_witness - hi) <= VALUE_RTOL * hi:
        problems.append(f"upper end {hi!r} differs from the potential "
                        f"{at_witness!r} at the witness")
    floor = float(np.min(riesz_field(config, sample, s)))
    if lo > floor:
        problems.append(f"lower end {lo!r} exceeds the potential minimum "
                        f"{floor!r} over the dense sample")
    return problems


def circle_equal_spacing_optimum(N: int, s: float) -> float:
    """Polarization optimum on S^1: N equally spaced points, their
    potential taken at the midpoint of one arc."""
    k = np.arange(N)
    return float(np.sum((2.0 * np.sin(math.pi * (2 * k + 1) / (2 * N)))
                        ** (-s)))


def check_circle_polarization(N: int, s: float, bracket) -> list:
    opt = circle_equal_spacing_optimum(N, s)
    hi = float(bracket[1])
    if hi > opt * (1.0 + VALUE_RTOL):
        return [f"upper end {hi!r} exceeds the equal-spacing optimum {opt!r}"]
    return []


def interval_sigma_root(s: float) -> float:
    """(2 (2^s - 1) zeta(s))^(1/s): the s-th root of the large-N limit of
    P_s([0,1]; N) / N^s."""
    return (2.0 * (2.0 ** s - 1.0) * float(zeta(s))) ** (1.0 / s)


def check_sigma_interval(s: float, limit: float,
                         rtol: float = SIGMA_RTOL) -> list:
    target = interval_sigma_root(s)
    if not (limit > 0.0 and math.isfinite(limit)):
        return [f"sigma estimate {limit!r} is not positive and finite"]
    got = limit ** (1.0 / s)
    if abs(got - target) > rtol * target:
        return [f"sigma s-th root {got!r} is not within {rtol} of the "
                f"zeta limit {target!r}"]
    return []


def covering_measure_bound(spec, N: int) -> float:
    """Least radius at which N balls can cover the domain's measure."""
    kind, d = spec
    if kind == "sphere" and d == 1:
        return 2.0 * math.sin(math.pi / (2 * N))
    if kind == "sphere" and d == 2:
        # a cap of chordal radius r has area pi r^2
        return 2.0 / math.sqrt(N)
    if kind == "sphere":
        raise ValueError(f"no measure bound for {spec}")
    omega = math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)
    return (measure(spec) / (N * omega)) ** (1.0 / d)


def hexagon_bound(area: float, N: int) -> float:
    """Fejes Toth: N discs of radius r cover a convex planar domain only
    if its area is at most N (3 sqrt(3) / 2) r^2."""
    return math.sqrt(2.0 * area / (3.0 * math.sqrt(3.0) * N))


def check_covering(spec, config, bracket, farthest_point,
                   sample: np.ndarray) -> list:
    """Bracket on rho_A(config) = max_{y in A} min_j |y - x_j|.

    The lower end must be attained at the reported farthest point, and
    the upper end may not fall below the dense-sample max-min distance,
    the measure bound, or (on the convex planar domains) the Fejes Toth
    hexagon bound.
    """
    lo, hi, problems = _bracket_problems(bracket)
    if problems:
        return problems
    X = np.atleast_2d(np.asarray(config, dtype=float))
    N = len(X)
    tree = cKDTree(X)
    if not contains(spec, farthest_point)[0]:
        problems.append("farthest point lies outside the domain")
    if not np.all(contains(spec, X)):
        problems.append("configuration point lies outside the domain")
    at_fp = float(tree.query(np.atleast_2d(farthest_point))[0][0])
    if not abs(at_fp - lo) <= VALUE_RTOL * max(lo, 1e-300):
        problems.append(f"lower end {lo!r} is not the distance {at_fp!r} "
                        "attained at the farthest point")
    reach = float(np.max(tree.query(sample)[0]))
    if hi < reach * (1.0 - 1e-12):
        problems.append(f"upper end {hi!r} is below the dense-sample "
                        f"max-min distance {reach!r}")
    mb = covering_measure_bound(spec, N)
    if hi < mb * (1.0 - 1e-12):
        problems.append(f"upper end {hi!r} is below the measure bound {mb!r}")
    kind, d = spec
    if d == 2 and kind in ("cube", "ball"):
        hb = hexagon_bound(measure(spec), N)
        if hi < hb * (1.0 - 1e-12):
            problems.append(f"upper end {hi!r} is below the hexagon bound "
                            f"{hb!r}")
    return problems


def check_interval_covering(N: int, bracket) -> list:
    rho = float(bracket[0])
    if abs(rho - 1.0 / (2 * N)) > 1e-9:
        return [f"interval covering radius {rho!r} is not 1/(2N) = "
                f"{1.0 / (2 * N)!r}"]
    return []


def check_circle_covering(N: int, bracket,
                          atol: float = CLOSED_FORM_ATOL) -> list:
    rho = float(bracket[0])
    opt = 2.0 * math.sin(math.pi / (2 * N))
    if abs(rho - opt) > atol:
        return [f"circle covering radius {rho!r} is not 2 sin(pi/2N) = "
                f"{opt!r} (off by {(rho - opt) / opt:.3%})"]
    return []


def planar_weak_separation_count(points, r: float) -> int:
    """Most points of a planar set inside one closed disc of radius r.

    An optimal disc holding two or more points can be moved until two of
    them lie on its circle, so the discs centred at the points and the
    radius-r circles through each close pair are the only candidates.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    centres = [P]
    i, j = np.triu_indices(len(P), 1)
    v = P[j] - P[i]
    dd = np.einsum("ij,ij->i", v, v)
    ok = (dd > 0.0) & (dd <= 4.0 * r * r * (1.0 + COUNT_RTOL))
    if ok.any():
        v, dd, mid = v[ok], dd[ok], 0.5 * (P[i[ok]] + P[j[ok]])
        h = np.sqrt(np.maximum(r * r / dd - 0.25, 0.0))
        perp = np.column_stack([-v[:, 1], v[:, 0]]) * h[:, None]
        centres += [mid + perp, mid - perp]
    C = np.vstack(centres)
    dist = np.sqrt(((C[:, None, :] - P[None]) ** 2).sum(-1))
    return int(np.max(np.sum(dist <= r * (1.0 + COUNT_RTOL) + 1e-12,
                             axis=1)))


def check_weak_separation(points, radii, counts) -> list:
    problems = []
    for r, c in zip(radii, counts):
        exact = planar_weak_separation_count(points, float(r))
        if int(c) != exact:
            problems.append(f"weak-separation count {c} at r={r!r} differs "
                            f"from the exact count {exact}")
    return problems
