#!/usr/bin/env python3
"""Map where GMRES on the primal factor converges, against mesh slenderness.

For every cell of the grid this forces the Krylov attempt of
`condense.solve_variant` (both of its gates opened for every variant but
`std`, `lmp` included) and prints one row:
geometry, variant, p, L, t, n (free d DOFs), alpha = kGt h^2 / D
(`condense.mesh_slenderness`), the GMRES iterations, whether the answer was
accepted, and the seconds the whole solve took.  Rerun it whenever the
element kernels, the transforms or the Krylov gates change, and set each
variant's bound in `condense.GMRES_MAX_SLENDERNESS` where every cell up to
it converges, below the smallest alpha that does not.  BLAS runs on one
thread.

Usage:
    PYTHONPATH=src python scripts/krylov_map.py [--geometries c0_single,mp_various]
        [--variants ead] [--degrees 2,3] [--levels 3,4] [--thicknesses 1,1e-2,1e-4]
        [--min-dofs 1000]
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from igaplate.bench import GEOMETRY_NAMES, geometry_catalog  # noqa: E402
from igaplate.multipatch import boundary_d_indices  # noqa: E402

# the module, not the function of the same name that the package exports
condense = importlib.import_module("igaplate.condense")


def _split(text: str, cast=str) -> list:
    return [cast(v.strip()) for v in text.split(",") if v.strip()]


def _print_rows(args) -> None:
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    print("geometry,variant,p,L,t,n,alpha,iterations,accepted,seconds")
    for geometry in _split(args.geometries):
        assembly = geometry_catalog(geometry)
        for variant in _split(args.variants):
            for p in _split(args.degrees, int):
                for level in _split(args.levels, int):
                    for t in _split(args.thicknesses, float):
                        config = condense.SolveConfig(
                            variant=variant, degree=p, level=level, thickness=t
                        )
                        ctx = condense.prepare_problem(assembly, config)
                        n = 3 * ctx.refined.n_points - len(boundary_d_indices(ctx.refined))
                        if n < args.min_dofs:
                            continue
                        t0 = time.perf_counter()
                        sol = condense.solve_variant(assembly, config, load=load)
                        seconds = time.perf_counter() - t0
                        d = sol.diagnostics
                        alpha = condense.mesh_slenderness(sol.ctx, config.make_material())
                        print(
                            f"{geometry},{variant},{p},{level},{t:g},{d['n_dof_primal']},"
                            f"{alpha:.4g},{d['iterations']},{d['solver'] == 'gmres'},{seconds:.3f}",
                            flush=True,
                        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--geometries", default=",".join(GEOMETRY_NAMES))
    parser.add_argument("--variants", default="ead")
    parser.add_argument("--degrees", default="2,3")
    parser.add_argument("--levels", default="3,4")
    parser.add_argument("--thicknesses", default="1,1e-2,3e-3,1e-3,1e-4")
    parser.add_argument(
        "--min-dofs", type=int, default=condense.GMRES_MIN_DOFS, help="skip smaller cells unsolved"
    )
    args = parser.parse_args(argv)

    # open both gates, so every cell tries GMRES before any LU; closed again on return
    gates = condense.GMRES_MIN_DOFS, condense.GMRES_MAX_SLENDERNESS
    condense.GMRES_MIN_DOFS = 0
    condense.GMRES_MAX_SLENDERNESS = {v: np.inf for v in condense.VARIANTS if v != "std"}
    try:
        _print_rows(args)
    finally:
        condense.GMRES_MIN_DOFS, condense.GMRES_MAX_SLENDERNESS = gates
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
