"""One benchmark pass in a fresh process.

    python3 studybench/worker.py --root . --workload smooth_study --trace 0 [--setup-only]

Set-up (importing igaplate with numpy and scipy, loading the geometry) ends
with a `ready` line on standard output, so the parent can time it from
process start.  The pass then solves every cell of the workload once, with
the transform cache cold as in a user's CLI run, while a `SpeedSampler`
times reference chunks between stretches of it.  The worker prints one JSON
line: the pass's wall time without the chunks, that time scaled to the
fixed machine speed, the median chunk time, the process's peak RSS, the
per-layer metrics when traced, and the checks' verdict per cell.  The
checks run after the timed pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from igaplate import bench

    from checks import L2Capture, check_cells, merge_captures
    from tracing import Tracer
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[args.workload]
    bench.load_geometry(workload.geometry)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import reference

    reference.chunk()  # warm-up: the first chunk of a process pays for lazy set-up
    sampler = reference.SpeedSampler()
    tracer = Tracer(sampler.clock).install() if args.trace else None
    capture = L2Capture().install()
    sampler.start()
    try:
        t0 = sampler.clock()
        cells = run_pass(workload)
        wall_s = sampler.clock() - t0
    finally:
        sampler.stop()
        capture.uninstall()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = merge_captures(cells, capture.records)
    fails = check_cells(cells, workload.thin_pair)
    result = {
        "wall_s": wall_s,
        "scaled_s": sampler.scaled_s,
        "chunk_s": statistics.median(sampler.chunk_s),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "cells": [
            {"key": list(c["key"]), "l2": c["l2"], "fails": fails[c["key"]]} for c in cells
        ],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
