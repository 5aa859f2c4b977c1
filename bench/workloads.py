"""The benchmark's workloads: operations, their inputs, checks and merit.

Each workload is a fixed list of operations.  An operation calls one
public rieszlab function, looked up on its module at call time so that a
traced pass sees the tracer's wrappers.  Its check (numpy and scipy only,
see checks.py) and its merit term run after the timed pass.

The run's seed never feeds the solvers: in ``polarize`` and ``cover`` it
only draws the random half of the checks' dense samples, because a
different search seed changes the search's cost with identical certified
values.  In ``certify`` it also moves each fixed configuration by a
symmetry of its domain and permutes its points: every certified quantity
stays the same, while the numbers the program works on change.  The
symmetries are those that also map the program's meshes onto themselves
(the square's dihedral group; on S^2 the cyclic coordinate permutations
with sign changes, which fix the icosahedral mesh), so the work done stays
the same too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from rieszlab import asymptotics, covering, geometry, polarization

WORKLOADS = ("polarize", "cover", "certify")

# outer-search settings for every polarize operation; seed 0 is the
# program's default search seed
POLARIZE_OPTS = polarization.SolverOptions(restarts=3, iters=400)
SIGMA_S = 8.0
SIGMA_N = (4, 5, 6, 7)
INNER_TOL = 1e-4          # inner_min's default relative bracket width
COVER_TOL = 1e-6          # covering_radius tolerance in certify
JITTER_SEED = 20170301    # fixed jitter of the certify point sets


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, np.random.Generator], list]
    merit: Callable[[object], float] | None = None
    known_fault: str | None = None


def _polar_merit(N: int, s: float, d: int):
    return lambda res: float(res.bracket[0]) ** (1.0 / s) * N ** (-1.0 / d)


def _cover_merit(N: int, d: int):
    return lambda res: 1.0 / (N ** (1.0 / d) * float(res.bracket[1]))


# ---------------------------------------------------------------------------
# polarize
# ---------------------------------------------------------------------------


def _polarize_op(A, spec, N: int, s: float) -> Op:
    def check(res, rng):
        out = checks.check_polarization(
            spec, res.config, s, res.bracket, res.witness,
            POLARIZE_OPTS.tol, checks.dense_sample(spec, rng))
        if len(res.config) != N:
            out.append(f"configuration has {len(res.config)} points, not {N}")
        if spec == ("sphere", 1):
            out += checks.check_circle_polarization(N, s, res.bracket)
        return out

    return Op(f"maximize_polarization {spec[0]}{spec[1]} N={N} s={s:g}",
              lambda: polarization.maximize_polarization(A, N, s,
                                                         POLARIZE_OPTS),
              check, _polar_merit(N, s, spec[1]))


def _sigma_op() -> Op:
    return Op(f"estimate_sigma cube1 s={SIGMA_S:g} N={SIGMA_N[0]}..{SIGMA_N[-1]}",
              lambda: asymptotics.estimate_sigma(geometry.Cube(1), SIGMA_S,
                                                 list(SIGMA_N),
                                                 opts=POLARIZE_OPTS),
              lambda res, rng: checks.check_sigma_interval(SIGMA_S,
                                                           res.limit))


def polarize_ops(seed: int) -> list:
    G = geometry
    return [
        # N * ambient <= 12 or the interval: the pattern-search path
        _polarize_op(G.Sphere(1), ("sphere", 1), 3, 2.0),
        _polarize_op(G.Cube(2), ("cube", 2), 4, 4.0),
        # larger problems skip it
        _polarize_op(G.Ball(2), ("ball", 2), 16, 4.0),
        _polarize_op(G.Cube(2), ("cube", 2), 16, 6.0),
        _sigma_op(),
    ]


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def _cover_op(A, spec, N: int, known_fault: str = None) -> Op:
    def check(res, rng):
        out = checks.check_covering(spec, res.points, res.bracket,
                                    res.farthest_point,
                                    checks.dense_sample(spec, rng))
        if len(res.points) != N:
            out.append(f"configuration has {len(res.points)} points, not {N}")
        if spec == ("cube", 1):
            out += checks.check_interval_covering(N, res.bracket)
        if spec == ("sphere", 1):
            out += checks.check_circle_covering(N, res.bracket)
        return out

    return Op(f"best_covering {spec[0]}{spec[1]} N={N}",
              lambda: covering.best_covering(A, N), check,
              _cover_merit(N, spec[1]), known_fault)


def cover_ops(seed: int) -> list:
    G = geometry
    return [
        _cover_op(G.Cube(2), ("cube", 2), 6),
        _cover_op(G.Ball(2), ("ball", 2), 6),
        _cover_op(G.Cube(1), ("cube", 1), 16),
        _cover_op(G.Sphere(1), ("sphere", 1), 7,
                  known_fault="best_covering(Sphere(1), 7) stops 0.8% above "
                              "equal spacing"),
    ]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def grid3() -> np.ndarray:
    ax = np.array([1.0, 3.0, 5.0]) / 6.0
    return np.array([[a, b] for a in ax for b in ax])


def jittered_grid4() -> np.ndarray:
    ax = (np.arange(4) + 0.5) / 4.0
    base = np.array([[a, b] for a in ax for b in ax])
    return base + np.random.default_rng(JITTER_SEED).uniform(-0.06, 0.06,
                                                             base.shape)


def fibonacci32() -> np.ndarray:
    return checks.fibonacci_sphere(32)


_SQUARE_MAPS = (
    lambda x, y: (1.0 - y, x),          # quarter turn
    lambda x, y: (1.0 - x, 1.0 - y),    # half turn
    lambda x, y: (y, 1.0 - x),          # three-quarter turn
    lambda x, y: (y, x),                # diagonal mirror
    lambda x, y: (1.0 - y, 1.0 - x),    # antidiagonal mirror
)


def square_symmetry(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A non-identity symmetry of [0,1]^2 that moves both coordinates of
    a generic point, and a permutation of the rows."""
    f = _SQUARE_MAPS[int(rng.integers(len(_SQUARE_MAPS)))]
    Q = np.column_stack(f(P[:, 0], P[:, 1]))
    return Q[rng.permutation(len(Q))]


def sphere_symmetry(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A symmetry of S^2 that maps the icosahedral mesh onto itself and
    moves every coordinate of a generic point (a cyclic coordinate shift
    with any sign changes, or the antipodal map), and a row permutation."""
    k = int(rng.integers(17))
    if k == 16:
        Q = -P
    else:
        shift = 1 + k // 8
        signs = np.array([1.0 if (k >> b) & 1 else -1.0 for b in range(3)])
        Q = np.roll(P, shift, axis=1) * signs
    return Q[rng.permutation(len(Q))]


def _inner_op(A, spec, X: np.ndarray, s: float) -> Op:
    N, d = len(X), spec[1]

    def check(res, rng):
        return checks.check_polarization(spec, X, s, res.bracket,
                                         res.witness, INNER_TOL,
                                         checks.dense_sample(spec, rng))

    return Op(f"inner_min {spec[0]}{d} N={N} s={s:g}",
              lambda: polarization.inner_min(A, X, s, tol=INNER_TOL),
              check, _polar_merit(N, s, d))


def _radius_op(A, spec, X: np.ndarray) -> Op:
    def check(res, rng):
        return checks.check_covering(spec, X, res.bracket,
                                     res.farthest_point,
                                     checks.dense_sample(spec, rng))

    return Op(f"covering_radius {spec[0]}{spec[1]} N={len(X)}",
              lambda: covering.covering_radius(A, X, tol=COVER_TOL),
              check, _cover_merit(len(X), spec[1]))


def _weak_op(A, X: np.ndarray) -> Op:
    def check(res, rng):
        return checks.check_weak_separation(
            X, [row.radius for row in res.rows],
            [row.count for row in res.rows])

    return Op(f"weak_separation_verdict cube2 N={len(X)}",
              lambda: covering.weak_separation_verdict(A, X), check)


def certify_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 1703])
    square, sphere = geometry.Cube(2), geometry.Sphere(2)
    g3 = square_symmetry(grid3(), rng)
    j4 = square_symmetry(jittered_grid4(), rng)
    f32 = sphere_symmetry(fibonacci32(), rng)
    return [
        _inner_op(square, ("cube", 2), g3, 128.0),
        _inner_op(square, ("cube", 2), j4, 32.0),
        _inner_op(sphere, ("sphere", 2), f32, 4.0),
        _radius_op(sphere, ("sphere", 2), f32),
        _radius_op(square, ("cube", 2), j4),
        _weak_op(square, j4),
    ]


def build(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return {"polarize": polarize_ops, "cover": cover_ops,
            "certify": certify_ops}[workload](seed)


def merit(ops: list, results: list) -> float:
    """Geometric mean of the merit terms over the results obtained."""
    terms = [op.merit(res) for op, res in zip(ops, results)
             if op.merit is not None and res is not None]
    if not terms or not all(t > 0.0 and math.isfinite(t) for t in terms):
        return math.nan
    return math.exp(sum(math.log(t) for t in terms) / len(terms))
