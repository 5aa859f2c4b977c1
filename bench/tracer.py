"""Call tracer for the benchmark's traced runs.

The tracer wraps rieszlab's public layer functions and scipy's Voronoi
constructors from outside the package, and restores every original on
exit.  Each call is timed; its self time is its duration minus the time
spent in traced calls it made.  Calls of the coarse functions become
spans (name, operation, parent, start, end) kept in memory until
``write``; the per-point functions, called hundreds of thousands of
times per pass, are only counted and timed, so the trace stays small.

Two totals are taken on a path independent of the package's own
counters: the ``potential_field`` rows evaluated inside each
``inner_min`` call and the ``min_distance_field`` rows inside each
``covering_radius`` call must equal that result's ``nodes_evaluated``.
A mismatch is kept in ``path_errors``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np


def _npts(points) -> int:
    shape = np.shape(points)
    return shape[0] if len(shape) == 2 else 1


def _targets():
    """(label, owner, attribute, leaf, counters, rows-owner) per wrapped
    function, resolved against the modules already imported."""
    import scipy.spatial

    from rieszlab import asymptotics, covering, geometry, kernels
    from rieszlab import polarization

    def field_pairs(args, kwargs, out):
        return {"pairs": len(out) * _npts(args[0])}

    def inner_counts(args, kwargs, out):
        return {"levels": out.levels, "nodes_evaluated": out.nodes_evaluated,
                "uncertified": int(not out.certified)}

    def outer_counts(args, kwargs, out):
        return {"restarts": out.solver_stats.get("restarts", 0),
                "iterations": out.solver_stats.get("iterations", 0)}

    def radius_counts(args, kwargs, out):
        return {"levels": out.levels, "nodes_evaluated": out.nodes_evaluated}

    mesh_classes = [c for c in vars(geometry).values()
                    if isinstance(c, type) and issubclass(c, geometry.Domain)
                    and "build_mesh" in vars(c)]
    out = [("geometry.build_mesh", c, "build_mesh", False,
            lambda a, k, o: {"nodes": len(o.nodes)}, None)
           for c in mesh_classes]
    out += [
        ("geometry.refine_nodes", geometry, "refine_nodes", False,
         lambda a, k, o: {"nodes": len(o)}, None),
        ("kernels.potential", kernels, "potential", True, None, None),
        ("kernels.potential_gradient", kernels, "potential_gradient", True,
         None, None),
        ("kernels.potential_field", kernels, "potential_field", False,
         field_pairs, "polarization.inner_min"),
        ("kernels.min_distance_field", kernels, "min_distance_field", False,
         field_pairs, "covering.covering_radius"),
        ("polarization.inner_min", polarization, "inner_min", False,
         inner_counts, None),
        ("polarization.maximize_polarization", polarization,
         "maximize_polarization", False, outer_counts, None),
        ("covering.best_covering", covering, "best_covering", False, None,
         None),
        ("covering.voronoi", scipy.spatial, "Voronoi", True, None, None),
        ("covering.voronoi", scipy.spatial, "SphericalVoronoi", True, None,
         None),
        ("covering.minimal_enclosing_ball", covering,
         "minimal_enclosing_ball", True, None, None),
        ("covering.covering_radius", covering, "covering_radius", False,
         radius_counts, None),
        ("covering.weak_separation_count", covering, "weak_separation_count",
         False, None, None),
        ("asymptotics.estimate_sigma", asymptotics, "estimate_sigma", False,
         None, None),
        ("asymptotics.fit_limit", asymptotics, "fit_limit", False, None,
         None),
    ]
    return out


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.op`` to tag spans."""

    def __init__(self):
        self.op = -1
        self.spans = []        # [name, op, parent, start, end]
        self.stats = {}        # name -> {"calls", "self_s", counters...}
        self.path_errors = []
        self._stack = []       # [name, span id or None, child seconds, rows]
        self._undo = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for label, owner, attr, leaf, counts, rows_to in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(label, original, leaf, counts, rows_to)
            self._replace(owner, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        return False

    def _replace(self, owner, attr, original, wrapper):
        """Rebind the function on its owner and in every rieszlab module
        that imported it by name."""
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for name, m in sorted(sys.modules.items())
                        if name.startswith("rieszlab.") and m is not owner]
        for obj in holders:
            for name, value in list(vars(obj).items()):
                if value is original:
                    self._undo.append((obj, name, original))
                    setattr(obj, name, wrapper)

    # -- recording ----------------------------------------------------------

    def _wrap(self, label, fn, leaf, counts, rows_to):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(label, {"calls": 0, "self_s": 0.0})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = None
            if not leaf:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                sid = len(spans)
                spans.append([label, self.op, parent, 0.0, 0.0])
            frame = [label, sid, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat["calls"] += 1
                stat["self_s"] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if sid is not None:
                    spans[sid][3:] = [t0, t1]
            if counts is not None:
                for key, value in counts(args, kwargs, out).items():
                    stat[key] = stat.get(key, 0) + int(value)
            if rows_to is not None:
                owner = next((f for f in reversed(stack)
                              if f[0] == rows_to), None)
                if owner is not None:
                    owner[3] += len(out)
            if label in ("polarization.inner_min",
                         "covering.covering_radius") \
                    and frame[3] != out.nodes_evaluated:
                self.path_errors.append(
                    f"{label}: traced field rows {frame[3]} != "
                    f"nodes_evaluated {out.nodes_evaluated}")
            return out

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "path_errors": self.path_errors,
                       "spans": self.spans}, fh)
