"""Extrapolation of large-N and large-s limits from finite solver runs."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .covering import best_covering, covering_radius, weak_separation_verdict
from .geometry import Cube, Domain
from .polarization import SolverOptions, polarization_curve

__all__ = [
    "AsymptoticFit",
    "BoundsProfile",
    "ChainRow",
    "bounds_profile",
    "estimate_covering_constant",
    "estimate_sigma",
    "fit_limit",
    "sth_root_chain",
]


@dataclass(eq=False)
class AsymptoticFit:
    """Power-law extrapolation value(n)^{1/root} ~ L + coeff * n**-exponent.

    root is 1 for plain fits, so the model is the usual L + a * n**-p
    with L = limit; a root of s marks a fit done on s-th roots of the
    values, where a multiplicative 1 - c * n**-p correction of the value
    becomes additive and a short sample list stays well conditioned.
    """

    samples: np.ndarray   # (k, 2) columns n, value
    limit: float
    coeff: float
    exponent: float
    residual: float       # RMS relative misfit over the fitted samples
    method: str           # power_fit | richardson | last_value
    root: float = 1.0

    def value_at(self, n):
        base = self.limit ** (1.0 / self.root) + self.coeff * np.asarray(
            n, dtype=float) ** (-self.exponent)
        return base ** self.root


def _rel_residual(model: np.ndarray, v: np.ndarray) -> float:
    # per-sample relative, floored by the overall scale so exact zeros
    # among the values cannot blow the RMS up to inf
    w = np.maximum(np.abs(v), 1e-9 * np.max(np.abs(v)) + 1e-300)
    return float(np.sqrt(np.mean(((model - v) / w) ** 2)))


def _linear_at_p(n: np.ndarray, v: np.ndarray, p: float):
    # least squares in (L, a) for fixed decay exponent
    X = np.column_stack([np.ones_like(n), n ** (-p)])
    (L, a), *_ = np.linalg.lstsq(X, v, rcond=None)
    return float(L), float(a)


def _aitken(samples: np.ndarray) -> "AsymptoticFit":
    """Richardson step on the last three samples.

    Exact for geometric value decay, which n**-p gives whenever the last
    three n are in geometric progression.
    """
    S = samples[-3:]
    n, v = S[:, 0], S[:, 1]
    d1, d2 = v[1] - v[0], v[2] - v[1]
    denom = d2 - d1
    if abs(denom) < 1e-300 * max(abs(d1), abs(d2), 1.0):
        L = float(v[2])
        resid = _rel_residual(np.full(3, L), v)
        return AsymptoticFit(samples, L, 0.0, 1.0, resid, "last_value")
    L = float(v[2] - d2 * d2 / denom)
    r = d2 / d1
    if 0.0 < r < 1.0 and n[2] > n[1] > 0:
        p = float(-math.log(r) / math.log(n[2] / n[1]))
    else:
        p = 1.0
    a = float((v[2] - L) * n[2] ** p)
    model = L + a * n ** (-p)
    return AsymptoticFit(samples, L, a, max(p, 1e-12),
                         _rel_residual(model, v), "richardson")


def fit_limit(samples, *, dim: int = 1, fixed_p: float = None,
              p_grid=None, max_residual: float = 0.05) -> AsymptoticFit:
    """Fit value(n) = L + a * n**-p over the samples and report L.

    Nonlinear least squares on (L, a, p) with relative residuals,
    multi-started over a p grid ({0.5, 1, 2} scaled by 1/dim unless given
    explicitly).  A fixed_p skips the p search.  If the best fit still
    misses by more than max_residual in RMS relative terms the estimate
    falls back to a Richardson step on the last three points, and the
    method tag says so.
    """
    S = np.asarray(samples, dtype=float)
    if S.ndim != 2 or S.shape[1] != 2:
        raise ValueError("samples must be (n, value) pairs")
    if len(S) < 4:
        raise ValueError("need at least 4 samples to fit a limit")
    n, v = S[:, 0], S[:, 1]
    if not np.all(np.diff(n) > 0.0):
        raise ValueError("sample n values must be strictly increasing")
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(v)) and n[0] > 0):
        raise ValueError("samples must be finite with positive n")

    w = np.maximum(np.abs(v), 1e-300)

    if fixed_p is not None:
        p = float(fixed_p)
        if not p > 0.0:
            raise ValueError("fixed_p must be positive")
        L, a = _linear_at_p(n, v, p)
        resid = _rel_residual(L + a * n ** (-p), v)
        return AsymptoticFit(S, L, a, p, resid, "power_fit")

    if p_grid is None:
        p_grid = np.array([0.5, 1.0, 2.0]) / max(int(dim), 1)

    w = np.maximum(w, 1e-9 * np.max(np.abs(v)) + 1e-300)

    def resfun(x):
        L, a, q = x
        return (L + a * n ** (-math.exp(q)) - v) / w

    best = None
    for p0 in p_grid:
        L0, a0 = _linear_at_p(n, v, p0)
        # p stays within a factor 4 of its start; a near-zero p makes
        # n**-p collinear with the constant and the limit ill-posed, so
        # each start polishes its own decade instead of drifting there
        lo = [-np.inf, -np.inf, math.log(p0 / 4.0)]
        hi = [np.inf, np.inf, math.log(4.0 * p0)]
        try:
            sol = least_squares(resfun, [L0, a0, math.log(p0)],
                                bounds=(lo, hi),
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except Exception:
            continue
        resid = float(np.sqrt(np.mean(sol.fun ** 2)))
        if best is None or resid < best[0]:
            best = (resid, sol.x)
    if best is not None and best[0] <= max_residual:
        L, a, q = best[1]
        return AsymptoticFit(S, float(L), float(a), float(math.exp(q)),
                             best[0], "power_fit")
    return _aitken(S)


def _root_domain_fit(n: np.ndarray, v: np.ndarray, s: float,
                     p: float) -> AsymptoticFit:
    """Fixed-exponent fit of v(n) = (L + a * n**-p)**s on the s-th roots.

    The dominant finite-N defect of a polarization curve is a boundary
    layer that multiplies the value by (1 - c * n**-p)**s; taking s-th
    roots turns that into an additive correction a short list can pin
    down, where a direct fit of the raw values is hopeless for large s.
    """
    u = v ** (1.0 / s)
    L, a = _linear_at_p(n, u, p)
    model = np.maximum(L + a * n ** (-p), 1e-300) ** s
    return AsymptoticFit(np.column_stack([n, v]), float(L ** s), a, p,
                         _rel_residual(model, v), "power_fit", root=s)


def estimate_sigma(A: Domain, s: float, N_list,
                   opts: SolverOptions = SolverOptions()) -> AsymptoticFit:
    """Extrapolated limit of P_s(A;N) / N^{s/d}, rescaled by measure.

    Runs a warm-started solver curve over N_list, normalizes each value by
    N^{s/d}, and multiplies the fitted limit by H_d(A)^{s/d} so estimates
    from different domains of the same dimension are comparable.

    Interval curves converge fast and get the free power fit when the
    list is long enough.  For d >= 2 the sequence at desk scale is still
    dominated by its boundary layer, whose relative size is of order
    N^{-1/d} but which multiplies the value s times over; the free fit
    then responds to fit slop more than to data, so those curves are fit
    with the fixed exponent in the s-th-root domain instead.
    """
    d = A.d
    s = float(s)
    if not s > d:
        raise ValueError("sigma estimation needs s > d")
    N_list = [int(N) for N in N_list]
    if len(N_list) < 3:
        raise ValueError("need at least 3 curve points to extrapolate")
    runs = polarization_curve(A, s, N_list, opts=opts)
    scale = A.hausdorff_measure() ** (s / d)
    n = np.array([len(r.config) for r in runs], dtype=float)
    v = np.array([r.value for r in runs]) * scale / n ** (s / d)
    if d == 1 and len(n) >= 4:
        return fit_limit(np.column_stack([n, v]), dim=d)
    return _root_domain_fit(n, v, s, 1.0 / d)


def estimate_covering_constant(A: Domain, N_list,
                               cover_options: dict = None) -> AsymptoticFit:
    """Extrapolated limit of N^{1/d} * rho_A(N) from certified coverings.

    The decay exponent is pinned to 1/d: the deficit of a finite covering
    against the limit density is a boundary layer of width comparable to
    the covering radius, so its relative size scales like N**(-1/d).
    Freeing the exponent lets desk-scale lists with commensurability
    wobbles pick a near-flat model whose extrapolation is meaningless.
    """
    kw = dict(cover_options or {})
    d = A.d
    N_list = [int(N) for N in N_list]
    if len(N_list) < 3:
        raise ValueError("need at least 3 covering points to extrapolate")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    rows = []
    for N in N_list:
        bc = best_covering(A, N, **kw)
        rows.append((float(N), N ** (1.0 / d) * bc.rho))
    S = np.asarray(rows, dtype=float)
    if len(S) >= 4:
        return fit_limit(S, dim=d, fixed_p=1.0 / d)
    n, v = S[:, 0], S[:, 1]
    L, a = _linear_at_p(n, v, 1.0 / d)
    model = L + a * n ** (-1.0 / d)
    return AsymptoticFit(S, float(L), float(a), 1.0 / d,
                         _rel_residual(model, v), "power_fit")


@dataclass(eq=False)
class ChainRow:
    s: float
    sigma_hat: float      # extrapolated sigma estimate at this s
    sigma_root: float     # (sigma_hat / H_d^{s/d}) ** (1/s)
    covering_leg: float   # 1 / extrapolated lim N^{1/d} rho_A(N)
    gap: float            # |sigma_root - covering_leg|


def sth_root_chain(A: Domain, d: int, s_list, N_list,
                   opts: SolverOptions = SolverOptions(), *,
                   cover_options: dict = None,
                   require_shrinking: bool = True) -> list:
    """s-th roots of normalized polarization limits against the covering leg.

    For each s the table row holds (sigma_hat / H_d^{s/d})^{1/s} next to the
    s-independent 1 / lim N^{1/d} rho_A(N); the two columns converge to each
    other as s grows, and by default a widening gap raises.
    """
    d = int(d)
    if d != A.d:
        raise ValueError("declared dimension disagrees with the domain")
    s_arr = [float(s) for s in s_list]
    if any(b <= a for a, b in zip(s_arr, s_arr[1:])):
        raise ValueError("s_list must be strictly increasing")
    s_floor = max(d, 3 * d - 4) if isinstance(A, Cube) else d
    if any(s <= s_floor for s in s_arr):
        raise ValueError(f"every s must exceed {s_floor} for this domain")

    cfit = estimate_covering_constant(A, N_list, cover_options)
    leg = 1.0 / cfit.limit
    H = A.hausdorff_measure()
    rows = []
    for s in s_arr:
        sfit = estimate_sigma(A, s, N_list, opts=opts)
        root = (sfit.limit / H ** (s / d)) ** (1.0 / s)
        rows.append(ChainRow(s, sfit.limit, root, leg, abs(root - leg)))
    gaps = [row.gap for row in rows]
    if require_shrinking and any(b > a for a, b in zip(gaps, gaps[1:])):
        raise RuntimeError(f"gap sequence is not shrinking: {gaps}")
    return rows


@dataclass(eq=False)
class BoundsProfile:
    """Empirical scaling constants harvested from an archive of solver runs."""

    s: float
    c_hat: float      # min N^{1/d} * (witness distance to the configuration)
    C_hat: float      # max value / N^{s/d}
    R_hat: float      # max N^{1/d} * covering radius of the configuration
    p_hat: float      # min value / N^{s/d}
    b_hat: float      # boundary repulsion constant, see _repulsion_constant
    eta_hat: float    # largest ball-count eta that every run satisfies


def _repulsion_constant(A: Domain, config: np.ndarray, N: int) -> float:
    """Scaled distance of the configuration from the domain's thin parts.

    Smooth convex bodies repel optimal points from the whole boundary at
    the N^{-2/d} scale; the cube only repels them from its corners, in
    the max-coordinate sense and at the coarser N^{-1/d} scale.  Domains
    without such a statement report inf, meaning unconstrained.
    """
    d = A.d
    if isinstance(A, Cube):
        corners = np.array(
            np.meshgrid(*[[0.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
        dist = np.min(np.max(
            np.abs(config[:, None, :] - corners[None, :, :]), axis=2))
        return N ** (1.0 / d) * float(dist)
    try:
        bdist = min(A.boundary_distance(x) for x in config)
    except NotImplementedError:
        return math.inf
    if not math.isfinite(bdist):
        return math.inf
    return N ** (2.0 / d) * float(bdist)


def bounds_profile(A: Domain, runs) -> BoundsProfile:
    """Scaling constants from polarization runs on A at a common s."""
    runs = list(runs)
    if not runs:
        raise ValueError("empty run archive")
    s = float(runs[0].s)
    if any(abs(float(r.s) - s) > 1e-12 for r in runs):
        raise ValueError("archive mixes kernel exponents")
    d = A.d
    if not s > d:
        raise ValueError("profile constants need s > d")

    c_hat = math.inf
    C_hat, p_hat = -math.inf, math.inf
    R_hat, b_hat, eta_hat = -math.inf, math.inf, math.inf
    for r in runs:
        N = len(r.config)
        nd = N ** (1.0 / d)
        c_hat = min(c_hat, nd * r.witness_gap)
        norm = r.value / N ** (s / d)
        C_hat, p_hat = max(C_hat, norm), min(p_hat, norm)
        rho = covering_radius(A, r.config).bracket[1]
        R_hat = max(R_hat, float(nd * rho))
        b_hat = min(b_hat, _repulsion_constant(A, r.config, N))
        eta_hat = min(eta_hat, weak_separation_verdict(A, r.config).eta_star)
    return BoundsProfile(s, c_hat, C_hat, R_hat, p_hat, b_hat, eta_hat)
