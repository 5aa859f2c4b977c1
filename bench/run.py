"""Benchmark of rieszlab's certified polarization, covering and certification.

    python3 bench/run.py --workload {polarize,cover,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in whole passes, each
in a fresh process (worker.py), until S seconds have gone by; at least one
pass always runs, and none starts that would end more than S/2 seconds
late.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, merit, peak_rss_mb);
with --trace 1 untraced and traced passes alternate and the metrics are
the per-layer counts and self times of the traced passes, plus the
tracing overhead.  Per-pass records go to bench/out/.  The script needs
only the standard library; the passes need numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0      # no pass may end later than this after start
OVERRUN = 1.5             # nor later than this many times --seconds

# per-layer metrics: (metric name, tracer label, tracer key)
PER_LAYER = [
    (f"{label}.{key}", label, "calls" if key in ("calls", "builds") else key)
    for label, keys in (
        ("geometry.build_mesh", ("calls", "nodes", "self_s")),
        ("geometry.refine_nodes", ("calls", "nodes", "self_s")),
        ("kernels.potential_field", ("calls", "pairs", "self_s")),
        ("kernels.potential", ("calls",)),
        ("kernels.potential_gradient", ("calls", "self_s")),
        ("kernels.min_distance_field", ("calls", "pairs", "self_s")),
        ("polarization.inner_min",
         ("calls", "levels", "nodes_evaluated", "uncertified", "self_s")),
        ("polarization.maximize_polarization",
         ("calls", "restarts", "iterations", "self_s")),
        ("covering.best_covering", ("calls", "self_s")),
        ("covering.voronoi", ("builds", "self_s")),
        ("covering.minimal_enclosing_ball", ("calls", "self_s")),
        ("covering.covering_radius",
         ("calls", "levels", "nodes_evaluated", "self_s")),
        ("covering.weak_separation_count", ("calls", "self_s")),
        ("asymptotics.estimate_sigma", ("self_s",)),
        ("asymptotics.fit_limit", ("calls", "self_s")),
    )
    for key in keys
]


class PassFailed(RuntimeError):
    pass


def run_pass(args, traced: bool, index: int, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    started = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--pass-index", str(index), "--started", repr(started)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassFailed(f"pass {index} did not end in time")
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise PassFailed(f"pass {index} printed no result")
    rec = json.loads(lines[-1])
    rec["process_s"] = time.monotonic() - started
    return rec


def run_passes(args) -> list:
    """Whole passes until args.seconds have gone by; in a traced run,
    untraced and traced passes alternate and come in pairs.  A pass (or
    pair) that would end after OVERRUN * args.seconds, judged by the
    longest one so far, is not started, so a slow host cannot stretch a
    run much past its length."""
    begin = time.monotonic()
    deadline = begin + TIME_LIMIT_S
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = run_pass(args, traced, len(passes), deadline)
        passes.append(rec)
        ops = rec["ops"]
        bad = sum(1 for op in ops if op["problems"])
        print(f"bench: pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"{rec['cpu_s']:.3f} s CPU ({rec['wall_s']:.3f} s wall) over "
              f"{len(ops)} operations, {bad} failed, set-up "
              f"{rec['setup_cpu_s']:.3f} s CPU", file=sys.stderr)
        now = time.monotonic()
        whole = not args.trace or len(passes) % 2 == 0
        step = max(p["process_s"] for p in passes) * (2 if args.trace else 1)
        if whole and (now - begin >= args.seconds
                      or now - begin + step > OVERRUN * args.seconds
                      or now + step > deadline):
            return passes


def least_pass_s(passes: list) -> float:
    """Sum over the operations of the least process CPU time each took in
    any of the passes.  This host's cores slow down by up to half for
    seconds to minutes at a time, which only ever adds time, and the
    passes are separate processes, so the least time is the steadiest
    estimate of what one pass costs."""
    per_op = zip(*([op["cpu_s"] for op in p["ops"]] for p in passes))
    return sum(min(times) for times in per_op)


def summarize(args, passes: list) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    correct = True
    for op in failed:
        if not op["known_fault"]:
            correct = False
        for problem in op["problems"]:
            print(f"bench: {op['name']}: {problem}", file=sys.stderr)
    merits = {p["merit"] for p in passes}
    if len(merits) != 1 or not all(math.isfinite(m) for m in merits):
        print(f"bench: passes disagree on merit: {sorted(merits)}",
              file=sys.stderr)
        correct = False
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    for p in traced:
        for err in p["trace"]["path_errors"]:
            print(f"bench: independent path: {err}", file=sys.stderr)
            correct = False

    if args.trace:
        metrics = {}
        for name, label, key in PER_LAYER:
            vals = [p["trace"]["stats"].get(label, {}).get(key, 0)
                    for p in traced]
            timed = key == "self_s"
            metrics[name] = {"value": min(vals),
                             "unit": "s" if timed else "count"}
        overhead = least_pass_s(traced) - least_pass_s(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        merit = passes[0]["merit"]
        metrics = {
            # one cold set-up per run: the first process's, which also
            # pays for anything the file cache lost since the last run
            "setup_s": {"value": plain[0]["setup_cpu_s"], "unit": "s"},
            "wall_s": {"value": least_pass_s(plain), "unit": "s"},
            "merit": {"value": merit if math.isfinite(merit) else 0.0,
                      "unit": "unitless"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        passes = run_passes(args)
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = summarize(args, passes)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
                    ".json", "w") as fh:
        json.dump({"result": result, "passes": passes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
