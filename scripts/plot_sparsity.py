#!/usr/bin/env python3
"""Print sparsity and DOF statistics for each condensation stage of one solve.

Shows what the dual lumping buys: the mixed saddle system, the
Petrov-Galerkin transformed system, and the condensed displacement-only
system, with their dimensions, nonzero counts and bandwidths.
"""

import argparse
import sys

import numpy as np

from igaplate.bench import geometry_catalog
from igaplate.condense import SolveConfig, assemble_mixed, build_transforms, condense, pg_transform, prepare_problem
from igaplate.sparse import nnz_and_bandwidth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--geometry", default="undistorted")
    parser.add_argument("--degree", type=int, default=3)
    parser.add_argument("--level", type=int, default=3)
    parser.add_argument("--thickness", type=float, default=0.1)
    args = parser.parse_args(argv)

    assembly = geometry_catalog(args.geometry)
    config = SolveConfig(
        variant="ead", degree=args.degree, level=args.level, thickness=args.thickness
    )
    ctx = prepare_problem(assembly, config)
    system = assemble_mixed(ctx, config.make_material())

    a, _ = system.monolithic()
    nnz, band = nnz_and_bandwidth(a)
    print(f"mixed saddle system:   dim={a.shape[0]:6d}  nnz={nnz:9d}  band={band}")

    t1s, t2s = build_transforms(ctx)
    transformed = pg_transform(system, t1s, t2s)
    a_t, _ = transformed.monolithic()
    nnz, band = nnz_and_bandwidth(a_t)
    print(f"dual-transformed:      dim={a_t.shape[0]:6d}  nnz={nnz:9d}  band={band}")

    cond = condense(transformed, lumped=True)
    nnz, band = nnz_and_bandwidth(cond.k_cond)
    print(f"condensed (lumped):    dim={cond.n:6d}  nnz={nnz:9d}  band={band}")
    print(f"row-sum deviation from identity: {cond.lump_dev:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
