"""Lattice ball coverings: covering radii and covering densities."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .geometry import unit_ball_volume

__all__ = [
    "Lattice",
    "lattice_covering_radius",
    "lattice_density",
    "make_lattice",
    "named_lattice",
]


@dataclass(eq=False)
class Lattice:
    """Full-rank lattice given by basis columns, with its covering data.

    radius_bracket is (lower, upper) for the covering radius: equal
    entries for dimensions where the computation is exact (d <= 3), a
    certified gap from the deep-hole search for d in {4, 5}.
    """

    basis: np.ndarray
    det: float
    covering_radius: float
    name: str = None
    radius_bracket: tuple = None


def _check_basis(basis) -> np.ndarray:
    B = np.asarray(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("basis must be a square matrix")
    if not np.all(np.isfinite(B)):
        raise ValueError("basis entries must be finite")
    det = np.linalg.det(B)
    if abs(det) < 1e-12 * max(1.0, float(np.max(np.abs(B)))) ** B.shape[0]:
        raise ValueError("singular basis")
    return B


def _lagrange_reduce(B: np.ndarray) -> np.ndarray:
    # classical two-dimensional reduction: shortest possible b1, then b2
    b1, b2 = B[:, 0].copy(), B[:, 1].copy()
    if b1 @ b1 > b2 @ b2:
        b1, b2 = b2, b1
    while True:
        mu = round(float(b1 @ b2) / float(b1 @ b1))
        b2 = b2 - mu * b1
        if b2 @ b2 >= b1 @ b1:
            return np.column_stack([b1, b2])
        b1, b2 = b2, b1


def _size_reduce(B: np.ndarray, sweeps: int = 60) -> np.ndarray:
    # greedy pairwise reduction; not a full reduction but enough to keep
    # the enumeration boxes below small for any sane input
    C = B.copy()
    d = C.shape[1]
    for _ in range(sweeps):
        order = np.argsort(np.sum(C ** 2, axis=0))
        C = C[:, order]
        changed = False
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                bi, bj = C[:, i], C[:, j]
                mu = round(float(bi @ bj) / float(bi @ bi))
                if mu != 0:
                    new = bj - mu * bi
                    if new @ new < bj @ bj - 1e-15:
                        C[:, j] = new
                        changed = True
        if not changed:
            break
    return C


def _enumerate_points(B: np.ndarray, K: int) -> np.ndarray:
    d = B.shape[0]
    coefs = np.array(list(itertools.product(range(-K, K + 1), repeat=d)),
                     dtype=float)
    return coefs @ B.T


def _covering_radius_low_dim(B: np.ndarray) -> float:
    """Exact covering radius for d in {2, 3}.

    The deepest hole is a vertex of the Voronoi cell, equivalently the
    circumcenter of a Delaunay simplex; enumerating three shells of a
    reduced basis puts every relevant circumcenter inside the central
    coefficient cell.
    """
    d = B.shape[0]
    R = _lagrange_reduce(B) if d == 2 else _size_reduce(B)
    pts = _enumerate_points(R, 3)
    tri = Delaunay(pts)
    P = pts[tri.simplices]                     # (m, d+1, d)
    M = 2.0 * (P[:, 1:, :] - P[:, :1, :])      # (m, d, d)
    rhs = (np.sum(P[:, 1:, :] ** 2, axis=2)
           - np.sum(P[:, :1, :] ** 2, axis=2))
    scale = float(np.max(np.abs(M))) + 1e-300
    good = np.abs(np.linalg.det(M)) > 1e-9 * scale ** d
    centers = np.linalg.solve(M[good], rhs[good][..., None])[..., 0]
    radii = np.linalg.norm(centers - P[good][:, 0, :], axis=1)
    # keep circumcenters inside the central cell; every hole appears
    # there by periodicity
    coords = np.linalg.solve(R, centers.T).T
    inside = np.all(np.abs(coords) <= 0.5 + 1e-9, axis=1)
    if not np.any(inside):
        raise RuntimeError("no Delaunay circumcenter in the central cell")
    return float(np.max(radii[inside]))


def _dist_to_lattice(B: np.ndarray, Binv: np.ndarray, offsets: np.ndarray,
                     Y: np.ndarray) -> np.ndarray:
    # nearest lattice point by rounding in coefficients plus one shell
    C = np.rint(Y @ Binv.T)
    best = np.full(len(Y), np.inf)
    for o in offsets:
        V = (C + o) @ B.T
        best = np.minimum(best, np.sum((Y - V) ** 2, axis=1))
    return np.sqrt(best)


def _deep_hole_search(B: np.ndarray, mesh_m: int, n_ascents: int,
                      seed: int = 0):
    """Lower bound by local ascent, upper bound from a Lipschitz mesh."""
    d = B.shape[0]
    R = _size_reduce(B)
    Rinv = np.linalg.inv(R)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d)),
                       dtype=float)

    axes = (np.arange(mesh_m) + 0.5) / mesh_m
    U = np.array(list(itertools.product(axes, repeat=d)))
    Y = U @ R.T
    dist = np.zeros(len(Y))
    for lo in range(0, len(Y), 65536):
        blk = slice(lo, lo + 65536)
        dist[blk] = _dist_to_lattice(R, Rinv, offsets, Y[blk])
    # the distance function is 1-Lipschitz, so the mesh maximum plus the
    # largest distance to a mesh point bounds every hole
    cell_radius = 0.5 * math.sqrt(d) / mesh_m * float(
        np.linalg.norm(R, ord=2))
    upper = float(np.max(dist)) + cell_radius

    order = np.argsort(dist)[::-1][:n_ascents]
    best = float(np.max(dist))
    step0 = 0.5 * cell_radius
    for idx in order:
        y = Y[idx].copy()
        val = dist[idx]
        step = step0
        while step > 1e-10 * (1.0 + best):
            probes = y + np.vstack([np.eye(d), -np.eye(d)]) * step
            pv = _dist_to_lattice(R, Rinv, offsets, probes)
            k = int(np.argmax(pv))
            if pv[k] > val:
                y, val = probes[k], float(pv[k])
            else:
                step *= 0.5
        # the ascent stalls on a ridge near a Voronoi vertex, the
        # circumcenter of the d+1 lattice points nearest y; the distance
        # at any point is a lower bound, so the vertex may replace y
        V = (np.rint(Rinv @ y) + offsets) @ R.T
        near = V[np.argsort(np.sum((V - y) ** 2, axis=1))[:d + 1]]
        try:
            c = np.linalg.solve(2.0 * (near[1:] - near[0]),
                                np.sum(near[1:] ** 2 - near[0] ** 2, axis=1))
            val = max(val, float(_dist_to_lattice(R, Rinv, offsets,
                                                  c[None])[0]))
        except np.linalg.LinAlgError:
            pass
        best = max(best, val)
    return best, (best, upper)


def lattice_covering_radius(L: Lattice) -> float:
    """Covering radius of the lattice: exact for d <= 3, searched for d <= 5."""
    B = _check_basis(L.basis)
    d = B.shape[0]
    if d == 1:
        return abs(float(B[0, 0])) / 2.0
    if d <= 3:
        return _covering_radius_low_dim(B)
    if d <= 5:
        mesh_m = 24 if d == 4 else 10
        best, _ = _deep_hole_search(B, mesh_m, n_ascents=8)
        return best
    raise ValueError("covering radius supports d <= 5 only")


def make_lattice(basis, name: str = None) -> Lattice:
    B = _check_basis(basis)
    d = B.shape[0]
    det = abs(float(np.linalg.det(B)))
    if d == 1:
        r = abs(float(B[0, 0])) / 2.0
        bracket = (r, r)
    elif d <= 3:
        r = _covering_radius_low_dim(B)
        bracket = (r, r)
    elif d <= 5:
        mesh_m = 24 if d == 4 else 10
        r, bracket = _deep_hole_search(B, mesh_m, n_ascents=8)
    else:
        raise ValueError("covering radius supports d <= 5 only")
    return Lattice(B, det, r, name, bracket)


def _a_family_basis(d: int) -> np.ndarray:
    # difference vectors of consecutive coordinates span the sum-zero
    # hyperplane of R^{d+1}; express them in an orthonormal frame of it
    M = np.zeros((d + 1, d))
    for i in range(d):
        M[i, i] = 1.0
        M[i + 1, i] = -1.0
    Q, _ = np.linalg.qr(M)
    return Q.T @ M


def named_lattice(name: str, d: int = None) -> Lattice:
    """Z_d, hex, and the A_d family with its dual, for d <= 5."""
    key = str(name).strip().lower().replace("-", "_").replace("*", "_dual")
    if key == "hex":
        if d not in (None, 2):
            raise ValueError("hex is two-dimensional")
        return make_lattice([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]], "hex")
    if key in ("z", "z_d", "zd", "int"):
        if d is None:
            raise ValueError("Z lattice needs a dimension")
        return make_lattice(np.eye(int(d)), f"Z_{int(d)}")
    if key in ("a", "a_d", "ad"):
        if d is None:
            raise ValueError("A_d lattice needs a dimension")
        return make_lattice(_a_family_basis(int(d)), f"A_{int(d)}")
    if key in ("a_dual", "a_d_dual", "ad_dual"):
        if d is None:
            raise ValueError("A_d dual lattice needs a dimension")
        Bd = np.linalg.inv(_a_family_basis(int(d))).T
        return make_lattice(Bd, f"A_{int(d)}_dual")
    raise ValueError(f"unknown lattice name: {name}")


def lattice_density(L: Lattice, d: int = None) -> float:
    """Covering density V_d * R^d / det of the lattice ball family."""
    dim = L.basis.shape[0]
    if d is not None and int(d) != dim:
        raise ValueError("declared dimension disagrees with the basis")
    return unit_ball_volume(dim) * L.covering_radius ** dim / L.det
