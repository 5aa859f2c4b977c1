"""One pass over a benchmark workload, in a fresh process.

run.py starts this script once per pass, so every pass is cold: no
cache of the package survives from an earlier pass.  It imports
rieszlab from the checkout's ``src`` directory (never from anywhere
else), builds the workload's inputs, runs its operations once with
per-operation timing, then checks every result and prints one JSON
object as its last line of standard output.

    python3 bench/worker.py --workload certify --seed 1 --trace 0 \
        --started <time.monotonic() when the process was started>
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def _import_package() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        from rieszlab import polarization
    except ImportError as exc:
        print(f"bench: cannot import rieszlab from {SRC}: {exc}",
              file=sys.stderr)
        return False
    if SRC.resolve() not in Path(polarization.__file__).resolve().parents:
        print(f"bench: rieszlab was imported from {polarization.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--started", type=float, required=True)
    args = ap.parse_args(argv)

    if not _import_package():
        return 2
    import numpy as np

    import workloads
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed)
    setup_wall_s = time.monotonic() - args.started
    setup_cpu_s = time.process_time()

    results, records = [], []
    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                res, err = op.run(), None
            except Exception as exc:     # a failed operation, not a crash
                res, err = None, f"raised {type(exc).__name__}: {exc}"
            records.append({"name": op.name,
                            "wall_s": time.perf_counter() - t0,
                            "cpu_s": time.process_time() - c0,
                            "error": err})
            results.append(res)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, (op, res, rec) in enumerate(zip(ops, results, records)):
        if res is None:
            problems = [rec["error"]]
        else:
            rng = np.random.default_rng([args.seed, i, 5])
            try:
                problems = op.check(res, rng)
            except Exception as exc:     # a result the check cannot read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        rec["problems"] = problems
        rec["known_fault"] = op.known_fault

    out = {"setup_wall_s": setup_wall_s,
           "setup_cpu_s": setup_cpu_s,
           "wall_s": sum(r["wall_s"] for r in records),
           "cpu_s": sum(r["cpu_s"] for r in records),
           "peak_rss_mb": peak_mb,
           "merit": workloads.merit(ops, results),
           "traced": bool(args.trace),
           "ops": records}
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}-"
                           f"pass{args.pass_index}.json")
        out["trace"] = {"stats": tracer.stats,
                        "path_errors": tracer.path_errors}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
