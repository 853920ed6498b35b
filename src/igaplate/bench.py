"""Clamped-plate benchmark: geometry catalog, loading, errors, study driver.

The benchmark problem is a fully clamped unit square plate under a smooth
polynomial pressure whose closed-form deflection is known, discretised by a
catalog of single- and multi-patch NURBS geometries with full and limited
internal continuity.  Errors are global L2 norms of the deflection; the
study driver records mesh sizes, DOF counts, sparsity and rates to CSV.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .condense import VARIANTS, SolveConfig, VariantSolution, solve_thicknesses, solve_variant
from .multipatch import PatchAssembly, build_dof_map
from .plate import check_shear_weighting, material
from .splines import ControlNet, DecreasingKnots, SplineError, SurfacePatch, validate_knot_vector


class UnknownGeometry(Exception):
    pass


class ParseError(Exception):
    pass


class InvalidGeometry(Exception):
    pass


# ---------------------------------------------------------------------------
# loading and closed-form solution (normalised coordinates x/L, y/L; L = 1 m)
# ---------------------------------------------------------------------------


def _fhat(x, y):
    f1 = x * (x - 1.0) * (5.0 * y * y - 5.0 * y + 1.0)
    f2 = y * (y - 1.0) * (5.0 * x * x - 5.0 * x + 1.0)
    return f1, f2


def load_function(x, y, mat, f0: float = 100.0):
    """Transverse pressure of the benchmark, including the bending-stiffness factor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f1h, f2h = _fhat(x, y)
    f1 = 12.0 * f2h * (2.0 * y * y * (y - 1.0) ** 2 + f1h)
    f2 = 12.0 * f1h * (2.0 * x * x * (x - 1.0) ** 2 + f2h)
    stiff = mat.e_mod * mat.t**3 / (12.0 * (1.0 - mat.nu**2))
    return f0 * stiff * (f1 + f2)


def exact_displacement(x, y, t: float, nu: float):
    """Closed-form deflection for a unit-amplitude load (no load scale factor)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f1h, f2h = _fhat(x, y)
    w0 = (x * (x - 1.0) * y * (y - 1.0)) ** 3 / 3.0
    w1 = y * y * (y - 1.0) ** 2 * x * (x - 1.0) * f2h
    w2 = x * x * (x - 1.0) ** 2 * y * (y - 1.0) * f1h
    return w0 - 2.0 * t * t / (5.0 * (1.0 - nu)) * (w1 + w2)


@dataclass(frozen=True)
class BenchmarkProblem:
    """Clamped square plate with the catalog material constants."""

    geometry: str
    thickness: float
    e_mod: float = 10000.0
    nu: float = 0.3
    kappa: float = 5.0 / 6.0
    f0: float = 100.0

    def make_material(self):
        return material(self.e_mod, self.nu, self.thickness, self.kappa)

    def load(self, x, y):
        return load_function(x, y, self.make_material(), self.f0)

    def reference_w(self, x, y):
        # the load carries the amplitude f0, so the reference deflection does too
        return self.f0 * exact_displacement(x, y, self.thickness, self.nu)

    def assembly(self) -> PatchAssembly:
        return geometry_catalog(self.geometry)


def l2_error(solution: VariantSolution, problem: BenchmarkProblem, reference=None) -> float:
    """Global L2 deflection error by element-wise Gauss quadrature, (p+3)^2 points."""
    ref = reference if reference is not None else problem.reference_w
    total = 0.0
    for pidx, batches in enumerate(solution.ctx.error_quadrature):
        wc = solution.patch_w_coeffs(pidx)
        for gi, r, xy, w_param, det in batches:
            wh = (r @ wc[gi][..., None])[..., 0]
            wex = np.reshape(ref(xy[:, 0], xy[:, 1]), wh.shape)
            total += float(np.sum((wh - wex) ** 2 * w_param * det))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# geometry catalog
# ---------------------------------------------------------------------------


def _patch(p, q, ku, kv, rows):
    """Build a patch from eta-major (x, y, z, w) rows, as in the catalog tables."""
    kv_u = validate_knot_vector(np.asarray(ku, dtype=float), p)
    kv_v = validate_knot_vector(np.asarray(kv, dtype=float), q)
    n, m = kv_u.n, kv_v.n
    rows = np.asarray([[float(v) for v in row] for row in rows])
    if rows.shape != (n * m, 4):
        raise InvalidGeometry(f"need {n * m} point rows, got {rows.shape[0]}")
    grid = rows.reshape(m, n, 4).transpose(1, 0, 2)  # row j * n + i is point (i, j)
    pts, wts = np.ascontiguousarray(grid[..., :3]), np.ascontiguousarray(grid[..., 3])
    return SurfacePatch(kv_u, kv_v, ControlNet(points=pts, weights=wts))


F = Fraction

_CATALOG_SINGLE = {
    "undistorted": dict(
        p=1,
        q=1,
        ku=(0, 0, 1, 1),
        kv=(0, 0, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
    "nurbs_distorted": dict(
        p=2,
        q=2,
        ku=(0, 0, 0, 1, 1, 1),
        kv=(0, 0, 0, 1, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.5, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 0.5, 0, 1),
            (0.3, 0.3, 0, 1.5),
            (1, 0.5, 0, 1),
            (0, 1, 0, 1),
            (0.5, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
    "c1_single": dict(
        p=2,
        q=2,
        ku=(0, 0, 0, 0.5, 1, 1, 1),
        kv=(0, 0, 0, 0.5, 1, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.25, 0, 0, 1),
            (0.75, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 0.25, 0, 1),
            (0.45, 0.4, 0, 1),
            (0.7, 0.2, 0, 1),
            (1, 0.25, 0, 1),
            (0, 0.75, 0, 1),
            (0.2, 0.9, 0, 1),
            (0.5, 0.6, 0, 1),
            (1, 0.75, 0, 1),
            (0, 1, 0, 1),
            (0.25, 1, 0, 1),
            (0.75, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
    "c0_single": dict(
        p=2,
        q=2,
        ku=(0, 0, 0, 0.5, 0.5, 1, 1, 1),
        kv=(0, 0, 0, 0.5, 0.5, 1, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.25, 0, 0, 1),
            (0.5, 0, 0, 1),
            (0.75, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 0.25, 0, 1),
            (0.25, 0.25, 0, 1),
            (0.5, 0.25, 0, 1),
            (0.75, 0.25, 0, 1),
            (1, 0.25, 0, 1),
            (0, 0.5, 0, 1),
            (0.3, 0.55, 0, 1),
            (0.45, 0.45, 0, 1),
            (0.65, 0.45, 0, 1),
            (1, 0.5, 0, 1),
            (0, 0.75, 0, 1),
            (0.25, 0.75, 0, 1),
            (0.55, 0.6, 0, 1),
            (0.65, 0.65, 0, 1),
            (1, 0.75, 0, 1),
            (0, 1, 0, 1),
            (0.25, 1, 0, 1),
            (0.5, 1, 0, 1),
            (0.75, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
}

_CATALOG_MULTI = {
    "mp_linear": dict(
        q=1,
        kv=(0, 0, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.5, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
            (0.5, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
    "mp_c1": dict(
        q=2,
        kv=(0, 0, 0, 0.5, 1, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.5, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 0.25, 0, 1),
            (0.6, 0.3, 0, 1),
            (1, 0.25, 0, 1),
            (0, 0.75, 0, 1),
            (0.4, 0.7, 0, 1),
            (1, 0.75, 0, 1),
            (0, 1, 0, 1),
            (0.5, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
    "mp_various": dict(
        q=3,
        kv=(0, 0, 0, 0, 0.3, 0.3, 0.5, 0.5, 0.5, 0.7, 1, 1, 1, 1),
        rows=[
            (0, 0, 0, 1),
            (0.5, 0, 0, 1),
            (1, 0, 0, 1),
            (0, 0.1, 0, 1),
            (0.55, 0.1, 0, 1.2),
            (1, 0.1, 0, 1),
            (0, 0.2, 0, 1),
            (0.52, 0.2, 0, 1.4),
            (1, 0.2, 0, 1),
            (0, F(11, 30), 0, 1),
            (0.5, 0.32, 0, 0.8),
            (1, F(11, 30), 0, 1),
            (0, F(13, 30), 0, 1),
            (0.4, 0.45, 0, 1),
            (1, F(13, 30), 0, 1),
            (0, F(8, 15), 0, 1),
            (0.42, 0.55, 0, 1.3),
            (1, F(8, 15), 0, 1),
            (0, 0.6, 0, 1),
            (0.56, 0.69, 0, 1.1),
            (1, 0.6, 0, 1.0),
            (0, F(23, 30), 0, 1),
            (0.55, 0.8, 0, 1.5),
            (1, F(23, 30), 0, 1),
            (0, 0.9, 0, 1),
            (0.5, 0.95, 0, 0.9),
            (1, 0.9, 0, 1),
            (0, 1, 0, 1),
            (0.5, 1, 0, 1),
            (1, 1, 0, 1),
        ],
    ),
}

GEOMETRY_NAMES = tuple(_CATALOG_SINGLE) + tuple(_CATALOG_MULTI)


def geometry_catalog(name: str) -> PatchAssembly:
    """Exact catalog geometries (single patches and two-patch assemblies)."""
    if name in _CATALOG_SINGLE:
        spec = _CATALOG_SINGLE[name]
        patch = _patch(spec["p"], spec["q"], spec["ku"], spec["kv"], spec["rows"])
        return build_dof_map([patch])
    if name in _CATALOG_MULTI:
        spec = _CATALOG_MULTI[name]
        q = spec["q"]
        kv = spec["kv"]
        rows = np.array([[float(v) for v in row] for row in spec["rows"]])
        m = len(rows) // 3
        combined = rows.reshape(m, 3, 4)  # (eta row, xi column, xyzw)
        patches = []
        for cols in ((0, 1), (1, 2)):
            sub = [combined[j, i] for j in range(m) for i in cols]
            patches.append(_patch(1, q, (0, 0, 1, 1), kv, sub))
        return build_dof_map(patches)
    raise UnknownGeometry(f"unknown geometry {name!r}; available: {GEOMETRY_NAMES}")


# ---------------------------------------------------------------------------
# geometry text files
# ---------------------------------------------------------------------------


def write_geometry_file(assembly: PatchAssembly, target) -> None:
    """Write the documented text format; floats use shortest round-trip form."""
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w") if own else target
    try:
        fh.write("igaplate-geometry v1\n")
        for patch in assembly.patches:
            p, q = patch.degrees
            fh.write("patch\n")
            fh.write(f"degrees {p} {q}\n")
            fh.write("knots_u " + " ".join(repr(float(x)) for x in patch.knots_u.values) + "\n")
            fh.write("knots_v " + " ".join(repr(float(x)) for x in patch.knots_v.values) + "\n")
            fh.write("points\n")
            n, m = patch.net.shape
            for j in range(m):
                for i in range(n):
                    x, y, z = (float(v) for v in patch.net.points[i, j])
                    w = float(patch.net.weights[i, j])
                    fh.write(f"{x!r} {y!r} {z!r} {w!r}\n")
            fh.write("end\n")
    finally:
        if own:
            fh.close()


def read_geometry_file(source) -> PatchAssembly:
    """Parse the text format; interfaces are auto-detected from coincident edges."""
    own = isinstance(source, (str, os.PathLike))
    fh = open(source) if own else source
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()

    def fail(lineno, msg):
        raise ParseError(f"line {lineno + 1}: {msg}")

    if not lines or lines[0].strip() != "igaplate-geometry v1":
        fail(0, "expected header 'igaplate-geometry v1'")

    patches = []
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line != "patch":
            fail(i, f"expected 'patch', got {line!r}")
        i += 1
        fields = {}
        for key, count in (("degrees", 2), ("knots_u", None), ("knots_v", None)):
            if i >= len(lines):
                fail(i - 1, f"unexpected end of file, expected '{key}'")
            parts = lines[i].split()
            if not parts or parts[0] != key:
                fail(i, f"expected '{key}' line")
            try:
                vals = [float(v) for v in parts[1:]]
            except ValueError as exc:
                fail(i, f"bad number in '{key}': {exc}")
            if not all(map(math.isfinite, vals)):
                fail(i, f"non-finite number in '{key}'")
            if key == "degrees" and any(v != int(v) for v in vals):
                fail(i, f"degrees must be integers, got {parts[1:]}")
            if count is not None and len(vals) != count:
                fail(i, f"'{key}' needs {count} values")
            fields[key] = (vals, i)
            i += 1
        p, q = (int(v) for v in fields["degrees"][0])
        try:
            kv_u = validate_knot_vector(fields["knots_u"][0], p)
        except DecreasingKnots as exc:
            fail(fields["knots_u"][1], f"knots_u: {exc}")
        except SplineError as exc:
            raise InvalidGeometry(f"knots_u: {exc}") from exc
        try:
            kv_v = validate_knot_vector(fields["knots_v"][0], q)
        except DecreasingKnots as exc:
            fail(fields["knots_v"][1], f"knots_v: {exc}")
        except SplineError as exc:
            raise InvalidGeometry(f"knots_v: {exc}") from exc
        if i >= len(lines) or lines[i].strip() != "points":
            fail(i, "expected 'points' line")
        i += 1
        n, m = kv_u.n, kv_v.n
        pts = np.zeros((n, m, 3))
        wts = np.ones((n, m))
        for j in range(m):
            for ii in range(n):
                if i >= len(lines):
                    fail(i - 1, f"expected {n * m} point lines")
                parts = lines[i].split()
                if len(parts) != 4:
                    fail(i, "point line needs 'x y z w'")
                try:
                    x, y, z, w = (float(v) for v in parts)
                except ValueError as exc:
                    fail(i, f"bad number: {exc}")
                if not all(map(math.isfinite, (x, y, z, w))):
                    fail(i, "non-finite number in point line")
                if w <= 0:
                    raise InvalidGeometry(f"line {i + 1}: weight must be positive, got {w}")
                pts[ii, j] = (x, y, z)
                wts[ii, j] = w
                i += 1
        if i >= len(lines) or lines[i].strip() != "end":
            fail(i if i < len(lines) else i - 1, "expected 'end'")
        i += 1
        try:
            patches.append(SurfacePatch(kv_u, kv_v, ControlNet(points=pts, weights=wts)))
        except SplineError as exc:
            raise InvalidGeometry(str(exc)) from exc
    if not patches:
        raise InvalidGeometry("file contains no patches")
    return build_dof_map(patches)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    geometry: str
    variants: tuple = ("ead",)
    degrees: tuple = (2,)
    levels: tuple = (1, 2, 3)
    thicknesses: tuple = (0.01,)
    continuity_reduction: bool | None = None
    shear_weighting: str = "nurbs"
    out: str | None = None
    record_timings: bool = True

    def __post_init__(self):
        check_levels(self.levels)
        check_variants(self.variants)
        check_shear_weighting(self.shear_weighting)


def check_variants(variants: tuple) -> tuple:
    """variants, if each is one of VARIANTS; else ValueError."""
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    return variants


def check_levels(levels: tuple) -> tuple:
    """levels, if a study can take them: at least two, non-negative and strictly increasing; else ValueError."""
    if len(levels) < 2:
        raise ValueError("need at least two levels to observe a rate")
    if levels[0] < 0 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be non-negative and strictly increasing, got {levels}")
    return levels


@dataclass
class ConvergenceRecord:
    """One study cell; a failed cell keeps the defaults and names its exception."""

    geometry: str
    variant: str
    p: int
    t: float
    level: int
    elems_per_dir: int
    n_dof_primal: int | None = None
    n_dof_mixed: int | None = None
    nnz_condensed: int | None = None
    l2_error: float | None = None
    rate: float | None = None
    assembly_s: float = 0.0
    factor_s: float = 0.0
    solve_s: float = 0.0
    lump_dev: float | None = None
    error: str | None = None


# one column per record field; a failed cell shows "error:<name>" as its l2_error
_CSV_FIELDS = tuple(f.name for f in fields(ConvergenceRecord) if f.name != "error")
CSV_HEADER = ",".join(_CSV_FIELDS)
_TIMING_FIELDS = ("assembly_s", "factor_s", "solve_s")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records, record_timings: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in records:
        row = {name: getattr(r, name) for name in _CSV_FIELDS}
        if r.error:
            row["l2_error"] = f"error:{r.error}"
        if not record_timings:
            row.update(dict.fromkeys(_TIMING_FIELDS, 0.0))
        lines.append(",".join(_fmt(row[name]) for name in _CSV_FIELDS))
    return "\n".join(lines) + "\n"


def _coarse_spans(assembly: PatchAssembly) -> int:
    spans = 0
    for patch in assembly.patches:
        spans = max(spans, len(patch.knots_u.spans()), len(patch.knots_v.spans()))
    return spans


def load_geometry(name_or_path: str) -> PatchAssembly:
    if name_or_path in GEOMETRY_NAMES:
        return geometry_catalog(name_or_path)
    if os.path.exists(name_or_path):
        return read_geometry_file(name_or_path)
    raise UnknownGeometry(f"{name_or_path!r} is neither a catalog name nor a file")


def run_single(
    assembly: PatchAssembly,
    problem: BenchmarkProblem,
    config: SolveConfig,
) -> tuple[VariantSolution, float]:
    """Solve one configuration under the problem's load; returns it with its L2 error.

    The load and the reference deflection come from the problem, the
    stiffness from the config, so both must describe the same plate.
    """
    for name in ("thickness", "e_mod", "nu", "kappa"):
        ours, theirs = getattr(problem, name), getattr(config, name)
        if ours != theirs:
            raise ValueError(f"problem and config disagree on {name}: {ours} != {theirs}")
    sol = solve_variant(assembly, config, load=problem.load)
    return sol, l2_error(sol, problem)


def run_convergence_study(config: StudyConfig) -> list[ConvergenceRecord]:
    """Run all (variant, p, t, level) cells of one geometry; write CSV if asked.

    Each (variant, p, level) is solved at every thickness by one
    solve_thicknesses call.  The L2 errors are taken afterwards, cell by
    cell in record order.
    """
    assembly = load_geometry(config.geometry)
    spans = _coarse_spans(assembly)
    loads = [BenchmarkProblem(geometry=config.geometry, thickness=t).load for t in config.thicknesses]
    records: list[ConvergenceRecord] = []
    for variant in config.variants:
        for p in config.degrees:
            solved = {}  # (t, level) -> solution, or the name of the exception it raised
            for level in config.levels:
                cfg = SolveConfig(
                    variant=variant,
                    degree=p,
                    level=level,
                    thickness=math.nan,  # each thickness is set by solve_thicknesses
                    shear_weighting=config.shear_weighting,
                    continuity_reduction=config.continuity_reduction,
                )
                results = solve_thicknesses(assembly, cfg, config.thicknesses, loads)
                for t, sol in zip(config.thicknesses, results):
                    solved[t, level] = sol if isinstance(sol, VariantSolution) else type(sol).__name__
            for t in config.thicknesses:
                problem = BenchmarkProblem(geometry=config.geometry, thickness=t)
                prev_err = prev_level = None
                for level in config.levels:
                    cell = dict(
                        geometry=config.geometry,
                        variant=variant,
                        p=p,
                        t=t,
                        level=level,
                        elems_per_dir=spans * 2**level,
                    )
                    sol = solved[t, level]
                    if not isinstance(sol, str):
                        try:
                            err = l2_error(sol, problem)
                        except Exception as exc:  # record and continue
                            sol = type(exc).__name__
                    if isinstance(sol, str):
                        records.append(ConvergenceRecord(**cell, error=sol))
                        prev_err = None
                        continue
                    d = sol.diagnostics
                    # per halving of the element size: a step of k levels halves it k times
                    rate = None if prev_err is None else math.log2(prev_err / err) / (level - prev_level)
                    prev_err, prev_level = err, level
                    records.append(
                        ConvergenceRecord(
                            **cell,
                            n_dof_primal=d["n_dof_primal"],
                            n_dof_mixed=d["n_dof_mixed"],
                            nnz_condensed=d["nnz_solved"],
                            l2_error=err,
                            rate=rate,
                            assembly_s=d["assembly_s"],
                            factor_s=d["factor_s"],
                            solve_s=d["solve_s"],
                            lump_dev=d["lump_dev"],
                        )
                    )
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(records_to_csv(records, config.record_timings))
    return records
