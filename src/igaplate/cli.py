"""Command line interface: single solves, convergence studies, geometry export."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .condense import VARIANTS, SolveConfig


def _solve(args) -> int:
    assembly = bench.load_geometry(args.geometry)
    problem = bench.BenchmarkProblem(geometry=args.geometry, thickness=args.thickness)
    config = SolveConfig(
        variant=args.variant,
        degree=args.degree,
        level=args.level,
        thickness=args.thickness,
        shear_weighting=args.shear_weights,
        continuity_reduction=False if args.no_continuity_reduction else None,
    )
    sol, err = bench.run_single(assembly, problem, config)
    d = sol.diagnostics
    summary = {
        "geometry": args.geometry,
        "variant": args.variant,
        "degree": args.degree,
        "level": args.level,
        "thickness": args.thickness,
        "shear_weights": args.shear_weights,
        "l2_error": err,
        "n_dof_primal": d["n_dof_primal"],
        "n_dof_mixed": d["n_dof_mixed"],
        "n_dof_solved": d["n_dof_solved"],
        "nnz_solved": d["nnz_solved"],
        "assembly_s": d["assembly_s"],
        "factor_s": d["factor_s"],
        "solve_s": d["solve_s"],
        "lump_dev": d["lump_dev"],
        "solver": d["solver"],
    }
    for key, value in summary.items():
        print(f"{key} = {value}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _parse_config_file(path: str) -> bench.StudyConfig:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise bench.ParseError(f"line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()

    def as_list(text, cast):
        return tuple(cast(v.strip()) for v in text.split(",") if v.strip())

    kwargs: dict = {}
    if "geometry" not in values:
        raise bench.ParseError("config needs a 'geometry' entry")
    kwargs["geometry"] = values.pop("geometry")
    if "variants" in values:
        kwargs["variants"] = as_list(values.pop("variants"), str)
    if "variant" in values:
        kwargs["variants"] = as_list(values.pop("variant"), str)
    if "degrees" in values:
        kwargs["degrees"] = as_list(values.pop("degrees"), int)
    if "degree" in values:
        kwargs["degrees"] = as_list(values.pop("degree"), int)
    if "levels" in values:
        kwargs["levels"] = as_list(values.pop("levels"), int)
    if "thicknesses" in values:
        kwargs["thicknesses"] = as_list(values.pop("thicknesses"), float)
    if "thickness" in values:
        kwargs["thicknesses"] = as_list(values.pop("thickness"), float)
    if "continuity_reduction" in values:
        kwargs["continuity_reduction"] = values.pop("continuity_reduction").lower() in (
            "1",
            "true",
            "yes",
            "on",
        )
    if "shear_weights" in values:
        kwargs["shear_weighting"] = values.pop("shear_weights")
    if "out" in values:
        kwargs["out"] = values.pop("out")
    if "record_timings" in values:
        kwargs["record_timings"] = values.pop("record_timings").lower() in (
            "1",
            "true",
            "yes",
            "on",
        )
    if values:
        raise bench.ParseError(f"unknown config keys: {sorted(values)}")
    return bench.StudyConfig(**kwargs)


def _convergence(args) -> int:
    config = _parse_config_file(args.config)
    records = bench.run_convergence_study(config)
    out = config.out or "results.csv"
    if not config.out:
        with open(out, "w") as fh:
            fh.write(bench.records_to_csv(records, config.record_timings))
    failed = [r for r in records if r.error]
    for r in records:
        status = f"error:{r.error}" if r.error else f"l2={r.l2_error:.6e}"
        print(
            f"{r.geometry} {r.variant} p={r.p} t={r.t} level={r.level} "
            f"elems={r.elems_per_dir} {status}"
        )
    print(f"wrote {out} ({len(records)} cells, {len(failed)} failed)")
    return 2 if failed else 0


def _geometry(args) -> int:
    if args.list:
        for name in bench.GEOMETRY_NAMES:
            print(name)
        return 0
    if args.export:
        assembly = bench.geometry_catalog(args.export)
        bench.write_geometry_file(assembly, sys.stdout)
        return 0
    print("nothing to do: pass --list or --export NAME", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igaplate",
        description="Mixed isogeometric Reissner-Mindlin plate solver and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one benchmark configuration")
    ps.add_argument("--geometry", required=True, help="catalog name or geometry file")
    ps.add_argument("--variant", required=True, choices=VARIANTS)
    ps.add_argument("--degree", type=int, required=True)
    ps.add_argument("--level", type=int, required=True)
    ps.add_argument("--thickness", type=float, required=True)
    ps.add_argument("--no-continuity-reduction", action="store_true")
    ps.add_argument("--shear-weights", choices=("nurbs", "bspline"), default="nurbs")
    ps.add_argument("--out", help="write a JSON summary here")
    ps.set_defaults(func=_solve)

    pc = sub.add_parser("convergence", help="run a convergence study from a config file")
    pc.add_argument("--config", required=True)
    pc.set_defaults(func=_convergence)

    pg = sub.add_parser("geometry", help="list or export catalog geometries")
    pg.add_argument("--list", action="store_true")
    pg.add_argument("--export", metavar="NAME")
    pg.set_defaults(func=_geometry)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
