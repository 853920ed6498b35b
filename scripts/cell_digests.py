#!/usr/bin/env python3
"""Print one line per convergence-study cell that pins its answer to the byte.

Runs `bench.run_convergence_study` with the given study settings, or on
every study of one `studybench` workload (`--workload`, read from
`studybench/workloads.py`; its singles are not study cells), and prints,
per cell in record order: the key (variant, p, t, level), the SHA-256 of
`d_full`, the `repr` of the L2 error, the solver, the GMRES iteration
count, the LU fill (`lu_fill`), `nnz_condensed` and the `repr` of
`lump_dev`.  A failed cell prints
the name of its exception instead.  Two commits give the same answers and
patterns on a study exactly when their outputs are the same, so a
byte-identity claim is one `diff`:

    PYTHONPATH=src python scripts/cell_digests.py --geometry mp_various \\
        --variants mxd,ead --degrees 3 --levels 1,2,3 > after.txt
    PYTHONPATH=../parent/src python scripts/cell_digests.py ... > before.txt
    diff before.txt after.txt

    PYTHONPATH=src python scripts/cell_digests.py --workload mp_thickness

BLAS runs on one thread.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402

from igaplate import bench  # noqa: E402

_WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "studybench", "workloads.py")


def _split(text: str, cast=str) -> tuple:
    return tuple(cast(v.strip()) for v in text.split(",") if v.strip())


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("studybench_workloads", _WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--geometry", help="catalog name or geometry file")
    source.add_argument(
        "--workload", choices=sorted(workloads), help="a studybench workload's study cells; ignores the options below"
    )
    parser.add_argument("--variants", default="ead")
    parser.add_argument("--degrees", default="2")
    parser.add_argument("--levels", default="1,2,3")
    parser.add_argument("--thicknesses", default="1,1e-2,1e-4")
    parser.add_argument("--continuity-reduction", choices=("on", "off"), help="default: per variant")
    parser.add_argument("--shear-weights", choices=("nurbs", "bspline"), default="nurbs")
    args = parser.parse_args(argv)
    if args.workload:
        workload = workloads[args.workload]
        configs = [
            bench.StudyConfig(
                geometry=workload.geometry,
                variants=study.variants,
                degrees=(study.degree,),
                levels=study.levels,
                thicknesses=study.thicknesses,
            )
            for study in workload.studies
        ]
    else:
        configs = [
            bench.StudyConfig(
                geometry=args.geometry,
                variants=_split(args.variants),
                degrees=_split(args.degrees, int),
                levels=_split(args.levels, int),
                thicknesses=_split(args.thicknesses, float),
                continuity_reduction={None: None, "on": True, "off": False}[args.continuity_reduction],
                shear_weighting=args.shear_weights,
            )
        ]
    for config in configs:
        _print_digests(config)
    return 0


def _print_digests(config) -> None:
    # the study takes every solved cell's L2 error; record the solution there
    solved = {}
    l2_error = bench.l2_error

    def recording_l2_error(solution, problem, reference=None):
        c = solution.config
        solved[c.variant, c.degree, c.thickness, c.level] = solution
        return l2_error(solution, problem, reference)

    bench.l2_error = recording_l2_error
    try:
        records = bench.run_convergence_study(config)
    finally:
        bench.l2_error = l2_error

    for r in records:
        key = f"{r.variant} p={r.p} t={r.t!r} L={r.level}"
        if r.error:
            print(key, f"error:{r.error}")
            continue
        sol = solved[r.variant, r.p, r.t, r.level]
        digest = hashlib.sha256(sol.d_full.tobytes()).hexdigest()
        d = sol.diagnostics
        extra = (d["solver"], d["iterations"], d["lu_fill"], r.nnz_condensed, repr(r.lump_dev))
        print(key, digest, repr(r.l2_error), *extra)


if __name__ == "__main__":
    raise SystemExit(main())
