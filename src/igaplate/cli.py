"""Command line interface: single solves, convergence studies, geometry export."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import bench
from .condense import VARIANTS, SolveConfig
from .plate import check_shear_weighting


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
    summary = {
        "geometry": args.geometry,
        "variant": args.variant,
        "degree": args.degree,
        "level": args.level,
        "thickness": args.thickness,
        "shear_weights": args.shear_weights,
        "l2_error": err,
        **sol.diagnostics,
    }
    for key, value in summary.items():
        print(f"{key} = {value}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _as_list(cast):
    return lambda text: tuple(cast(v.strip()) for v in text.split(",") if v.strip())


def _as_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{text!r} is not one of 1/0, true/false, yes/no, on/off")
    return value in ("1", "true", "yes", "on")


def _as_variants(text: str) -> tuple:
    return bench.check_variants(_as_list(str)(text))


# config key -> (StudyConfig field, cast); a field may be given once, under
# one of its keys, and a cast raises ValueError on a value it cannot take
_CONFIG_KEYS = {
    "geometry": ("geometry", str),
    "variants": ("variants", _as_variants),
    "variant": ("variants", _as_variants),
    "degrees": ("degrees", _as_list(int)),
    "degree": ("degrees", _as_list(int)),
    "levels": ("levels", lambda text: bench.check_levels(_as_list(int)(text))),
    "thicknesses": ("thicknesses", _as_list(float)),
    "thickness": ("thicknesses", _as_list(float)),
    "continuity_reduction": ("continuity_reduction", _as_bool),
    "shear_weights": ("shear_weighting", check_shear_weighting),
    "out": ("out", str),
    "record_timings": ("record_timings", _as_bool),
}


def _parse_config_file(path: str) -> bench.StudyConfig:
    values: dict = {}  # StudyConfig field -> (key, value, line number)
    unknown = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise bench.ParseError(f"line {lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                unknown.add(key)
                continue
            field, cast = _CONFIG_KEYS[key]
            if field in values:
                first, _, first_line = values[field]
                raise bench.ParseError(
                    f"line {lineno}: {key!r} sets {field!r} again, set by {first!r} on line {first_line}"
                )
            try:
                values[field] = (key, cast(val), lineno)
            except ValueError as exc:
                raise bench.ParseError(f"line {lineno}: bad {key!r}: {exc}") from exc

    if "geometry" not in values:
        raise bench.ParseError("config needs a 'geometry' entry")
    if unknown:
        raise bench.ParseError(f"unknown config keys: {sorted(unknown)}")
    return bench.StudyConfig(**{field: value for field, (_, value, _) in values.items()})


def _convergence(args) -> int:
    config = _parse_config_file(args.config)
    config = replace(config, out=config.out or "results.csv")
    records = bench.run_convergence_study(config)  # writes config.out
    failed = [r for r in records if r.error]
    for r in records:
        status = f"error:{r.error}" if r.error else f"l2={r.l2_error:.6e}"
        print(
            f"{r.geometry} {r.variant} p={r.p} t={r.t} level={r.level} "
            f"elems={r.elems_per_dir} {status}"
        )
    print(f"wrote {config.out} ({len(records)} cells, {len(failed)} failed)")
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
    """Run one command; exit code 0, 1 if `geometry` has nothing to do, 2 if study cells failed, 3 on an input error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (bench.ParseError, bench.UnknownGeometry, bench.InvalidGeometry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
