"""The benchmark's workloads and one pass over a workload's solves.

An operation is one study cell: one solve plus its L2 error and the checks
on it.  Inputs are fixed catalog geometries and study settings, so a pass
needs no seed and always runs the same cells in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Study:
    """One call of `run_convergence_study` on the workload's geometry."""

    variants: tuple
    degree: int
    levels: tuple
    thicknesses: tuple


@dataclass(frozen=True)
class Workload:
    geometry: str
    studies: tuple
    # single cells solved with `run_single`: (variant, degree, thickness, level)
    singles: tuple = ()
    # two cells whose errors must agree: the thin-plate limit
    thin_pair: tuple | None = None
    # cells that fail on every pass because of a named fault in the program
    known_failures: dict = field(default_factory=dict)


WORKLOADS = {
    "smooth_study": Workload(
        geometry="undistorted",
        studies=(Study(("std", "mxd", "lmp", "ead"), 2, (1, 2, 3, 4), (1.0, 1e-2, 1e-4)),),
        singles=(("mxd", 2, 1e-6, 3), ("mxd", 2, 1e-8, 3)),
        thin_pair=(("mxd", 2, 1e-6, 3), ("mxd", 2, 1e-8, 3)),
        known_failures={
            ("mxd", 2, 1e-8, 3): "mxd loses the thin-plate limit at t=1e-8 "
            "(no nondimensionalisation by D)",
        },
    ),
    "c0_fine": Workload(
        geometry="c0_single",
        studies=(
            Study(("ead",), 3, (3, 4), (1.0,)),
            Study(("mxd",), 3, (2, 3), (1.0,)),
        ),
    ),
    "mp_thickness": Workload(
        geometry="mp_various",
        studies=(Study(("mxd", "ead"), 3, (1, 2, 3), (1.0, 1e-2, 1e-4)),),
        known_failures={
            ("ead", 3, 1.0, 3): "ead with NURBS shear weights on a rational geometry "
            "condenses with lump_dev 1.35e-2 as if it were the identity",
        },
    ),
}


def cell_key(variant, degree, thickness, level) -> tuple:
    return (variant, int(degree), float(thickness), int(level))


def run_pass(workload: Workload) -> list[dict]:
    """Solve every cell of the workload once; returns one dict per cell in run order."""
    from igaplate import bench
    from igaplate.condense import SolveConfig

    cells = []
    for study in workload.studies:
        records = bench.run_convergence_study(
            bench.StudyConfig(
                geometry=workload.geometry,
                variants=study.variants,
                degrees=(study.degree,),
                levels=study.levels,
                thicknesses=study.thicknesses,
            )
        )
        for r in records:
            cells.append(
                {
                    "key": cell_key(r.variant, r.p, r.t, r.level),
                    "l2": r.l2_error,
                    "rate": r.rate,
                    "error": r.error,
                }
            )
    if workload.singles:
        assembly = bench.load_geometry(workload.geometry)
        for variant, degree, thickness, level in workload.singles:
            problem = bench.BenchmarkProblem(geometry=workload.geometry, thickness=thickness)
            config = SolveConfig(variant=variant, degree=degree, level=level, thickness=thickness)
            cell = {"key": cell_key(variant, degree, thickness, level), "rate": None}
            try:
                _, cell["l2"] = bench.run_single(assembly, problem, config)
                cell["error"] = None
            except Exception as exc:  # recorded like a failed study cell
                cell["l2"], cell["error"] = None, type(exc).__name__
            cells.append(cell)
    return cells
