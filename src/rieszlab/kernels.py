"""Inverse power-law (Riesz) kernel sums and their derivatives.

The pairwise interaction is K(x, y) = |x - y|^(-s), s > 0.  Discrete
potentials of a configuration are accumulated with compensated summation;
a coincidence between the evaluation point and a configuration point
returns the +inf sentinel rather than raising.  For large s the linear
scale overflows, so the log-domain value is always available and the
linear value degrades to inf gracefully.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

COINCIDENCE_EPS = 1e-300
LOG_SCALE_S = 40.0


def _as_config(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("configuration must be a nonempty (N, dim) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("configuration entries must be finite")
    return pts


def _check_s(s: float) -> float:
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("kernel exponent s must be positive and finite")
    return s


def pair_distances(points, y) -> np.ndarray:
    pts = _as_config(points)
    y = np.asarray(y, dtype=float)
    return np.linalg.norm(pts - y[None, :], axis=1)


def potential(points, y, s: float) -> float:
    """sum_j |y - x_j|^(-s), +inf on coincidence or overflow."""
    s = _check_s(s)
    return float(_potential_rows(pair_distances(points, y)[None, :], s)[0])


def _potential_rows(r: np.ndarray, s: float) -> np.ndarray:
    """The potential for each row of a (k, N) array of distances.

    Each row gets exactly the arithmetic of a single evaluation: +inf on
    coincidence, the log-sum-exp path above LOG_SCALE_S, and otherwise a
    compensated sum of r^(-s) that degrades to +inf on overflow.
    """
    out = np.full(len(r), math.inf)
    ok = np.flatnonzero(np.min(r, axis=1) >= COINCIDENCE_EPS)
    if len(ok) == 0:
        return out
    if s > LOG_SCALE_S:
        lv = logsumexp(-s * np.log(r[ok]), axis=1)
        out[ok] = [math.inf if v > 709.0 else math.exp(v)
                   for v in lv.tolist()]
        return out
    with np.errstate(over="ignore"):
        terms = r[ok] ** (-s)
    finite = np.all(np.isfinite(terms), axis=1)
    out[ok] = [math.fsum(t) if f else math.inf
               for t, f in zip(terms.tolist(), finite.tolist())]
    return out


def log_potential(points, y, s: float) -> float:
    """log of the potential, stable for any s (log-sum-exp over terms)."""
    s = _check_s(s)
    r = pair_distances(points, y)
    if np.min(r) < COINCIDENCE_EPS:
        return math.inf
    return float(logsumexp(-s * np.log(r)))


def potential_gradient(points, y, s: float):
    """Potential value with analytic gradients.

    Returns (value, grad_points, grad_y) where
    grad_points[j] = d/dx_j sum |y - x_j|^(-s) = s |y - x_j|^(-s-2) (y - x_j)
    and grad_y = -sum_j grad_points[j].  Gradients are inf-filled on
    coincidence, matching the value sentinel.
    """
    s = _check_s(s)
    pts = _as_config(points)
    y = np.asarray(y, dtype=float)
    diff = y[None, :] - pts
    r = np.linalg.norm(diff, axis=1)
    if np.min(r) < COINCIDENCE_EPS:
        bad = np.full_like(pts, math.inf)
        return math.inf, bad, np.full(pts.shape[1], math.inf)
    with np.errstate(over="ignore"):
        terms = r ** (-s)
        coeff = s * r ** (-s - 2.0)
    value = math.fsum(terms.tolist()) if np.all(np.isfinite(terms)) else math.inf
    grad_pts = coeff[:, None] * diff
    grad_y = -np.sum(grad_pts, axis=0)
    return value, grad_pts, grad_y


def potential_field(points, nodes: np.ndarray, s: float,
                    chunk: int = 8192) -> np.ndarray:
    """Vectorized potential over many evaluation nodes (pairwise order sums).

    Coincidences map to +inf entries.  Used for mesh sweeps where the
    per-node compensated accumulation would be needlessly slow.
    """
    s = _check_s(s)
    pts = _as_config(points)
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), chunk):
        blk = nodes[lo:lo + chunk]
        d = np.linalg.norm(blk[:, None, :] - pts[None, :, :], axis=2)
        with np.errstate(divide="ignore", over="ignore"):
            t = d ** (-s)
        out[lo:lo + chunk] = np.sum(t, axis=1)
    return out


def min_distance_field(points, nodes: np.ndarray,
                       chunk: int = 8192) -> np.ndarray:
    """min_j |node - x_j| over many nodes."""
    pts = _as_config(points)
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), chunk):
        blk = nodes[lo:lo + chunk]
        d = np.linalg.norm(blk[:, None, :] - pts[None, :, :], axis=2)
        out[lo:lo + chunk] = np.min(d, axis=1)
    return out


def sphere_uniform_potential(d: int, s: float, y) -> float:
    """Average of |x - y|^(-s) over the uniform measure on S^d.

    Requires 0 < s < d so the surface integral converges for |y| = 1.
    Depends only on R = |y|; reduced to a single polar integral with the
    substitution u = 1 - cos(theta):

        U(R) = C int_0^2 ((1-R)^2 + 2 R u)^(-s/2) (2u - u^2)^((d-2)/2) du,

    C = H_{d-1}(S^{d-1}) / H_d(S^d), evaluated by adaptive quadrature to
    1e-8 relative.
    """
    s = _check_s(s)
    if d < 1:
        raise ValueError("sphere dimension must be >= 1")
    if s >= d:
        raise ValueError("uniform sphere potential needs s < d "
                         f"(got s={s}, d={d})")
    from scipy.integrate import quad

    from .geometry import sphere_surface_area

    y = np.asarray(y, dtype=float)
    R = float(np.linalg.norm(y))
    if d == 1:
        # H_0(S^0) = 2, the counting measure on two points
        norm_c = 2.0 / sphere_surface_area(1)
    else:
        norm_c = sphere_surface_area(d - 1) / sphere_surface_area(d)

    def integrand(u):
        rad = (1.0 - R) ** 2 + 2.0 * R * u
        return rad ** (-s / 2.0) * (2.0 * u - u * u) ** ((d - 2) / 2.0)

    val, err = quad(integrand, 0.0, 2.0, epsabs=0.0, epsrel=1e-10, limit=400)
    out = norm_c * val
    if not math.isfinite(out) or (out > 0 and err / val > 1e-8):
        raise RuntimeError("sphere potential quadrature failed to converge")
    return out
