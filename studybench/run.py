"""Convergence-study benchmark: end-to-end and per-layer metrics per workload.

    python3 studybench/run.py --workload smooth_study --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each pass runs in a fresh worker
process (`worker.py`) with one BLAS thread.  The run starts passes back to
back until the next one would end after `--seconds`.  It always makes at
least one pass and reports medians over the passes.  With `--trace 0` it
also times the set-up of extra processes that stop once ready, so `setup_s`
is a median of several samples.  With `--trace 1` the passes wrap
igaplate's public calls and the run reports per-layer metrics.

Times are scaled to a fixed machine speed with the reference chunks of
`reference.py`, timed next to every set-up sample and during every pass.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Without `src/igaplate` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 12  # set-up-only processes per untraced run, after one warm-up
RUN_LIMIT_S = 170.0  # no pass starts that could end after this (per run)
PASS_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "prepare.s": "s",
    "prepare.elements": "count",
    "assemble.s": "s",
    "assemble.stored_nnz": "count",
    "assemble.nonzero_share": "share",
    "monolithic.s": "s",
    "transforms.s": "s",
    "pg.s": "s",
    "condense.s": "s",
    "condense.stored_nnz": "count",
    "condense.nonzero_share": "share",
    "factor.s": "s",
    "factor.lu_nnz": "count",
    "solve.s": "s",
    "recover.s": "s",
    "l2.s": "s",
    "solved.dofs": "count",
    "solved.nnz": "count",
    "other.s": "s",
    # measured times of the traced pass, before scaling
    "unscaled.wall_s": "s",
    "unscaled.chunk_s": "s",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    # one BLAS thread: on a few shared cores a second one measures the scheduler
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(workload: str, trace: int, setup_only: bool, timeout: float):
    """Start one worker; returns (seconds from start to ready, parsed result or None)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root",
        str(ROOT),
        "--workload",
        workload,
        "--trace",
        str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {workload} failed (exit {code})")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def timed_setups(workload: str) -> list[float]:
    """Set-up times of SETUP_PROBES processes, each scaled by the chunks on either side."""
    import reference

    run_worker(workload, 0, True, PASS_TIMEOUT_S)  # warm-up: bytecode and file cache
    reference.chunk()  # warm-up of the reference computation
    before = reference.chunk()
    samples = []
    for _ in range(SETUP_PROBES):
        setup_s = run_worker(workload, 0, True, PASS_TIMEOUT_S)[0]
        after = reference.chunk()
        samples.append(reference.scaled(setup_s, 0.5 * (before + after)))
        before = after
    return samples


def judge(workload, passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over all passes; reports failures on stderr."""
    known = workload.known_failures
    correct = True
    attempted = failed = 0
    first_l2 = [c["l2"] for c in passes[0]["cells"]]
    for i, res in enumerate(passes):
        for msg in res["problems"]:
            correct = False
            print(f"pass {i}: {msg}", file=sys.stderr)
        if [c["l2"] for c in res["cells"]] != first_l2:
            correct = False
            print(f"pass {i}: L2 errors differ from pass 0", file=sys.stderr)
        for cell in res["cells"]:
            attempted += 1
            if not cell["fails"]:
                continue
            failed += 1
            key = tuple(cell["key"])
            if key in known:
                if i == 0:
                    print(f"known failure {key}: {known[key]}", file=sys.stderr)
                continue
            correct = False
            print(f"pass {i}: cell {key} failed: {'; '.join(cell['fails'])}", file=sys.stderr)
    return correct, attempted, failed


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "igaplate" / "__init__.py").is_file():
        print(f"no igaplate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"seed {args.seed}: the workloads are fixed and use no random input", file=sys.stderr)

    start = time.perf_counter()
    setups = [] if args.trace else timed_setups(args.workload)

    passes = []
    t_measure = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        res = run_worker(args.workload, args.trace, False, PASS_TIMEOUT_S)[1]
        passes.append(res)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        print(
            f"pass {len(passes)}: {res['wall_s']:.3f} s measured, {res['scaled_s']:.3f} s scaled "
            f"(median chunk {res['chunk_s']:.4f} s)",
            file=sys.stderr,
        )
        if now - t_measure + longest > args.seconds or now - start + 1.5 * longest > RUN_LIMIT_S:
            break

    correct, attempted, failed = judge(WORKLOADS[args.workload], passes)
    if args.trace:
        values = {"unscaled.wall_s": statistics.median(p["wall_s"] for p in passes)}
        values["unscaled.chunk_s"] = statistics.median(p["chunk_s"] for p in passes)
        for name, unit in PER_LAYER.items():
            if name not in values:
                # a span's time is scaled by its pass's factor
                values[name] = statistics.median(
                    p["layers"][name] * (p["scaled_s"] / p["wall_s"] if unit == "s" else 1.0)
                    for p in passes
                )
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p["scaled_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
