"""Petrov-Galerkin dual transform, row-sum lumping and static condensation.

Formulation variants:
  std  - purely displacement-based solve (bending + shear penalty)
  mxd  - mixed saddle-point system, solved monolithically
  lmp  - mixed system with plain row-sum lumping of the shear blocks
  ad   - dual-transformed shear rows, lumping to the identity
  ead  - like ad but with enhanced dual transforms for limited continuity

The shear rows are kept in the normalised sign convention (see plate.py),
so the condensed operator is K_dd - sum_a K_dSa X_a with X_a the
(transformed / diagonally scaled / exactly solved) shear-to-displacement
coupling, and shear recovery reads S_a = -X_a d.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .duals import (
    DimensionMismatch,
    DualTransform2D,
    dual_transform_1d,
    dual_transform_2d,
    extract_element_transform,
)
from .multipatch import PatchAssembly, assemble_multipatch, assemble_primal_multipatch, build_dof_map
from .plate import (
    LoadQuadrature,
    MixedSystem,
    PatchDiscretization,
    UnitMaterial,
    _csr,
    _mixed_blocks,
    _rotation_ids,
    _triplets,
    apply_clamped_bc,
    build_field_spaces,
    d_ids,
    expand_displacement,
    free_dofs,
    material,
)
from .sparse import DirectSolver, KrylovSolver, nnz_and_bandwidth
from .splines import SurfacePatch


class SingularShearBlock(Exception):
    pass


class NonPositiveDiagonal(Exception):
    pass


VARIANTS = ("std", "mxd", "lmp", "ad", "ead")

# Mixed and condensed systems with at least this many free d DOFs are first
# solved by GMRES preconditioned with the primal matrix's LU; smaller ones by
# LU alone.  Break-even measured on c1_single and nurbs_distorted (see README).
GMRES_MIN_DOFS = 1000
# ... and only if the mesh slenderness kGt h^2 / D is at most this.  The
# primal preconditioner locks in shear as it grows: every measured ead cell
# up to 187 converged, every one from 380 was rejected (table in README;
# remeasure with scripts/krylov_map.py).
GMRES_MAX_SLENDERNESS = 250.0
# The bound for mxd, whose saddle matrix is preconditioned by the primal
# matrix in a block triangle (see KrylovSolver): every measured mxd cell up
# to 61 converged, the first were rejected at 95 (table in README).
GMRES_MAX_SLENDERNESS_MXD = 60.0
# lmp never tries GMRES: plain lumping moves its condensed matrix so far from
# the primal one that every measured cell needed all 60 iterations, even at
# t=1 (README).
GMRES_MAX_SLENDERNESS_LMP = -np.inf


@dataclass(frozen=True)
class SolveConfig:
    """One solver run: variant, refinement and model parameters."""

    variant: str
    degree: int
    level: int
    thickness: float
    shear_weighting: str = "nurbs"
    continuity_reduction: bool | None = None  # None: on for ad/ead, off otherwise
    e_mod: float = 10000.0
    nu: float = 0.3
    kappa: float = 5.0 / 6.0
    estimate_condition: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")

    @property
    def reduction(self) -> bool:
        if self.continuity_reduction is None:
            return self.variant in ("ad", "ead")
        return self.continuity_reduction

    @property
    def scheme(self) -> str:
        return "galerkin" if self.variant == "mxd" else "weighted"

    def make_material(self):
        return material(self.e_mod, self.nu, self.thickness, self.kappa)


@dataclass
class ProblemContext:
    """Refined spaces, discretisations and the unified DOF map."""

    coarse: PatchAssembly
    refined: PatchAssembly
    spaces: list
    discs: list
    config: SolveConfig  # only its thickness-free fields are read

    @cached_property
    def error_quadrature(self) -> list:
        """Per patch, per element batch: the error norms' quadrature on (p+3)^2 Gauss points.

        Each batch is (w ids, rational w basis, points (Q, 2), parametric
        weight, Jacobian determinant); built once per level and shared by
        the L2 errors of its thicknesses.
        """
        out = []
        for spaces in self.spaces:
            disc = PatchDiscretization(spaces, nq=max(spaces.degrees) + 3)
            batches = []
            for eu, ev in disc.chunks():
                geo = disc.geometry(eu, ev, gradients=False)
                xy = geo["xy"].reshape(-1, 2)
                batches.append((geo["gi"], geo["r"], xy, geo["w_param"], geo["det"]))
            out.append(batches)
        return out


def prepare_problem(assembly: PatchAssembly | SurfacePatch, config: SolveConfig) -> ProblemContext:
    if isinstance(assembly, SurfacePatch):
        assembly = build_dof_map([assembly])
    spaces = [
        build_field_spaces(
            patch,
            config.degree,
            config.level,
            continuity_reduction=config.reduction,
            shear_weighting=config.shear_weighting,
        )
        for patch in assembly.patches
    ]
    refined = build_dof_map([s.patch for s in spaces])
    discs = [PatchDiscretization(s) for s in spaces]
    return ProblemContext(
        coarse=assembly, refined=refined, spaces=spaces, discs=discs, config=config
    )


def assemble_mixed(ctx: ProblemContext, mat, load=None) -> MixedSystem:
    system = assemble_multipatch(ctx.refined, ctx.discs, mat, ctx.config.scheme, load)
    constrained, _ = apply_clamped_bc(system)
    return constrained


# ---------------------------------------------------------------------------
# transform / lump / condense
# ---------------------------------------------------------------------------


def build_transforms(ctx: ProblemContext) -> tuple[list, list]:
    """Per-patch 2D dual transforms T1, T2 with full reproduction degrees."""
    variant = {"ad": "AD", "ead": "eAD"}[ctx.config.variant]
    t1s, t2s = [], []
    for spaces in ctx.spaces:
        s1u = dual_transform_1d(spaces.s1.kv_u, spaces.s1.kv_u.degree, variant)
        s1v = dual_transform_1d(spaces.s1.kv_v, spaces.s1.kv_v.degree, variant)
        s2u = dual_transform_1d(spaces.s2.kv_u, spaces.s2.kv_u.degree, variant)
        s2v = dual_transform_1d(spaces.s2.kv_v, spaces.s2.kv_v.degree, variant)
        t1s.append(dual_transform_2d(s1u, s1v, spaces.s1.weights))
        t2s.append(dual_transform_2d(s2u, s2v, spaces.s2.weights))
    return t1s, t2s


def pg_transform(system: MixedSystem, t1, t2) -> MixedSystem:
    """Pre-multiply the shear rows with the dual transforms (Petrov-Galerkin).

    Accepts one transform per shear component for a single patch, or a list
    per patch.  Displacement rows are untouched; the transform is an
    invertible row operation, so exact condensation afterwards leaves the
    solution unchanged.
    """
    t1s = t1 if isinstance(t1, (list, tuple)) else [t1]
    t2s = t2 if isinstance(t2, (list, tuple)) else [t2]
    if len(t1s) != system.n_patches or len(t2s) != system.n_patches:
        raise DimensionMismatch("need one transform pair per patch")
    k_s1d, k_s2d, k_s11, k_s22 = [], [], [], []
    for p in range(system.n_patches):
        for t, blk in ((t1s[p], system.k_s11[p]), (t2s[p], system.k_s22[p])):
            if t.matrix.shape[1] != blk.shape[0]:
                raise DimensionMismatch(
                    f"transform size {t.matrix.shape} does not match shear block {blk.shape}"
                )
        k_s1d.append((t1s[p].matrix @ system.k_s1d[p]).tocsr())
        k_s2d.append((t2s[p].matrix @ system.k_s2d[p]).tocsr())
        k_s11.append((t1s[p].matrix @ system.k_s11[p]).tocsr())
        k_s22.append((t2s[p].matrix @ system.k_s22[p]).tocsr())
    return replace(
        system,
        k_s1d=k_s1d,
        k_s2d=k_s2d,
        k_s11=k_s11,
        k_s22=k_s22,
        transformed=True,
    )


def row_sum_lump(block, require_positive: bool = False) -> tuple[np.ndarray, float]:
    """diag(block @ 1) and the largest deviation of a row sum from one."""
    diag = np.asarray(block @ np.ones(block.shape[1])).ravel()
    dev = float(np.abs(diag - 1.0).max()) if len(diag) else 0.0
    if require_positive and np.any(diag <= 0):
        raise NonPositiveDiagonal(
            f"row-sum lumping produced {int(np.sum(diag <= 0))} non-positive entries"
        )
    return diag, dev


@dataclass
class CondensedSystem:
    """Displacement-only system with per-patch shear recovery operators.

    The condensed matrix K_dd - sum_a K_dSa X_a is kept as its bending part
    K_dd and its shear part sum_a K_dSa X_a.  Every X_a is proportional to
    kappa*G*t, so parts condensed from unit material scalars give the
    matrix of any thickness divided by D as K_dd - (kappa*G*t / D) * shear
    part (see ThicknessFreeParts).
    """

    k_dd: sp.csr_matrix
    k_shear: sp.csr_matrix
    f_d: np.ndarray
    recovery: list  # per patch: (X1, X2); shear recovery S_a = -X_a @ d
    mode: str  # 'identity' | 'diagonal' | 'schur'
    lump_dev: float

    @property
    def n(self) -> int:
        return self.k_dd.shape[0]

    @property
    def k_cond(self) -> sp.csr_matrix:
        return (self.k_dd - self.k_shear).tocsr()


def condense(system: MixedSystem, lumped: bool = True) -> CondensedSystem:
    """Eliminate the shear DOFs.

    With dual-transformed shear rows the lumped block is the identity by
    construction, so no inversion is needed; the actual row-sum deviation is
    recorded as a diagnostic.  Without a transform, lumping inverts the row
    sums diag(K_SS @ 1) (the plain-lumping baseline); the shear basis is a
    partition of unity, so this reproduces constant shear exactly and the
    baseline is a consistent quasi-interpolation of at most second order.
    Unlumped condensation factorises each shear block (the expensive exact
    Schur complement).
    """
    shear = None
    recovery = []
    dev = 0.0
    mode = "schur"
    for p in range(system.n_patches):
        ops = []
        for k_ss, k_sd in ((system.k_s11[p], system.k_s1d[p]), (system.k_s22[p], system.k_s2d[p])):
            if lumped and system.transformed:
                mode = "identity"
                _, d = row_sum_lump(k_ss)
                dev = max(dev, d)
                x = k_sd
            elif lumped:
                mode = "diagonal"
                diag, _ = row_sum_lump(k_ss, require_positive=True)
                rel = np.abs(diag / k_ss.diagonal() - 1.0)
                dev = max(dev, float(rel.max()) if len(rel) else 0.0)
                x = sp.diags(1.0 / diag) @ k_sd
            else:
                try:
                    x = sp.csr_matrix(DirectSolver(k_ss).solve(k_sd.toarray()))
                except Exception as exc:
                    raise SingularShearBlock(str(exc)) from exc
            ops.append(x)
        recovery.append(tuple(ops))
        for k_ds, x in zip((system.k_ds1[p], system.k_ds2[p]), ops):
            part = k_ds @ x
            shear = part if shear is None else shear + part
    return CondensedSystem(
        k_dd=system.k_dd,
        k_shear=shear.tocsr(),
        f_d=system.f_d.copy(),
        recovery=recovery,
        mode=mode,
        lump_dev=dev,
    )


def recover_shear(cond: CondensedSystem, d_solution: np.ndarray) -> list:
    """Per-patch shear coefficients that balance the (lumped) shear rows."""
    out = []
    for x1, x2 in cond.recovery:
        s1 = -np.asarray(x1 @ d_solution).ravel()
        s2 = -np.asarray(x2 @ d_solution).ravel()
        out.append((s1, s2))
    return out


# ---------------------------------------------------------------------------
# element-wise transform path (multi-patch friendly assembly order)
# ---------------------------------------------------------------------------


def pg_shear_rows_elementwise(disc: PatchDiscretization, mat, t1: DualTransform2D, t2: DualTransform2D):
    """Assemble already-transformed shear rows element by element.

    Sums T^e K^e over the elements of the batched kernel, which equals
    transforming the assembled blocks globally; the element path avoids
    building a huge block-diagonal transform in multi-patch runs.  Returns
    (K_S1d, K_S2d, K_S11, K_S22) in patch-local numbering.
    """
    spaces = disc.spaces
    nd, ns1, ns2 = spaces.nd, spaces.s1.ndof, spaces.s2.ndof
    parts = {key: [] for key in ("s1d", "s2d", "s11", "s22")}
    for eu, ev in disc.chunks():
        k = _mixed_blocks(disc, mat, "weighted", eu, ev)
        rot = _rotation_ids(k["gi"], spaces.disp.ndof)
        for key, t, theta in (("1", t1, rot[:, 0::2]), ("2", t2, rot[:, 1::2])):
            s = k[f"s{key}_idx"]
            for e in range(len(eu)):
                et = extract_element_transform(t, s[e])
                for name, cols, blk, n_cols in (
                    (f"s{key}d", k["gi"][e], k[f"s{key}d_w"][e], nd),
                    (f"s{key}d", theta[e], k[f"s{key}d_t"][e], nd),
                    (f"s{key}{key}", s[e], k[f"s{key}{key}"][e], t.n),
                ):
                    parts[name].append(
                        _triplets(et.rows[None], cols[None], (et.block @ blk)[None], n_cols)
                    )
    return (
        _csr((ns1, nd), parts["s1d"]),
        _csr((ns2, nd), parts["s2d"]),
        _csr((ns1, ns1), parts["s11"]),
        _csr((ns2, ns2), parts["s22"]),
    )


# ---------------------------------------------------------------------------
# variant dispatcher
# ---------------------------------------------------------------------------


@dataclass
class VariantSolution:
    """Solved displacement state plus diagnostics and evaluation context."""

    config: SolveConfig
    ctx: ProblemContext
    d_full: np.ndarray  # unified d vector including clamped zeros
    free_d: np.ndarray
    shear: list | None
    diagnostics: dict

    def patch_w_coeffs(self, patch_idx: int) -> np.ndarray:
        """Deflection control coefficients of one patch."""
        return self.d_full[self.ctx.refined.point_maps[patch_idx]]

    def patch_theta_coeffs(self, patch_idx: int) -> np.ndarray:
        """(nw_local, 2) rotation coefficients of one patch."""
        points = self.ctx.refined.point_maps[patch_idx][:, None]
        return self.d_full[d_ids(points, self.ctx.refined.n_points)[:, 1:]]


def _ratio(mat) -> float:
    """kappa*G*t / D: the one thickness-dependent scalar of a nondimensional system."""
    return mat.kgt / mat.bending_stiffness


def mesh_slenderness(ctx: ProblemContext, mat) -> float:
    """kGt h^2 / D, the shear-to-bending stiffness ratio of the largest element.

    h is the largest element edge over the refined patches, taken per patch
    and parametric direction as the longest chord of a control-net row (first
    to last control point) divided by the elements along it.
    """
    h = 0.0
    for spaces in ctx.spaces:
        pts = spaces.patch.net.points
        chord_u = np.linalg.norm(pts[-1] - pts[0], axis=-1).max()
        chord_v = np.linalg.norm(pts[:, -1] - pts[:, 0], axis=-1).max()
        n_u, n_v = len(spaces.disp.kv_u.spans()), len(spaces.disp.kv_v.spans())
        h = max(h, chord_u / n_u, chord_v / n_v)
    return float(_ratio(mat) * h**2)


def _primal_parts(ctx: ProblemContext, bending: bool = True) -> tuple:
    """Primal shear-penalty and bending parts on the free d DOFs, load quadrature, free DOFs.

    Built with unit material scalars; without `bending` only the shear
    part is assembled and the bending part is None.
    """
    unit = UnitMaterial(ctx.config.nu)
    shear, bend, quad, boundary = assemble_primal_multipatch(ctx.refined, ctx.discs, unit, bending)
    free = free_dofs(shear.shape[0], boundary)
    sub = np.ix_(free, free)
    return shear[sub].tocsr(), None if bend is None else bend[sub].tocsr(), quad, free


@dataclass
class ThicknessFreeParts:
    """What one discretisation's solves share across thicknesses.

    Built once per (geometry, variant, degree, level, nu, shear weighting,
    continuity reduction) with unit material scalars, D = 1 and
    kappa*G*t = 1 (see build_parts).  Thickness enters every block through
    these two scalars only, so each thickness's system divided by D is the
    pencil fixed + scale(mat) * scaled against f / D (see system_at):

      std           bending + (kGt/D) * shear penalty
      lmp, ad, ead  K_dd - (kGt/D) * sum_a K_dSa X_a
      mxd           the saddle without its shear-shear blocks + (D/kGt) *
                    those blocks; its shear unknowns are scaled by 1/D and
                    its shear rows keep their right-hand side of 0
    """

    ctx: ProblemContext
    free: np.ndarray  # free d DOFs
    quadrature: LoadQuadrature | None
    fixed: sp.csr_matrix | None
    scaled: sp.csr_matrix | None
    cond: CondensedSystem | None = None  # lmp/ad/ead: recovery operators and lump diagnostics
    penalty: sp.csr_matrix | None = None  # primal shear penalty, assembled on first use

    def scale(self, mat) -> float:
        """The pencil's thickness-dependent scalar c(mat) (see the class docstring)."""
        if self.ctx.config.variant == "mxd":
            return mat.bending_stiffness / mat.kgt
        return _ratio(mat) if self.ctx.config.variant == "std" else -_ratio(mat)

    def primal(self, mat) -> sp.csc_matrix:
        """Primal matrix of mat divided by D on the free d DOFs, bending + (kGt/D) shear.

        Its bending part is the leading block of fixed, the system's own
        K_dd: the same bending blocks summed in the same order.
        """
        if self.penalty is None:
            self.penalty = _primal_parts(self.ctx, bending=False)[0]
        n = len(self.free)
        return (self.fixed[:n, :n] + _ratio(mat) * self.penalty).tocsc()

    def system_at(self, mat, load=None) -> tuple:
        """Matrix and right-hand side of mat's system, nondimensionalised by D."""
        f = np.zeros(self.fixed.shape[0])
        f[: len(self.free)] = self.quadrature.vector(load)[self.free] / mat.bending_stiffness
        return (self.fixed + self.scale(mat) * self.scaled).tocsr(), f

    def split(self, x: np.ndarray, mat) -> tuple:
        """The free d DOFs and per-patch shear (S1, S2), None for std, of system_at(mat)'s answer x."""
        if self.cond is not None:
            return x, recover_shear(self.cond, mat.kgt * x)
        if self.ctx.config.variant == "std":
            return x, None
        # mxd: x holds d, then S1 of every patch, then S2 of every patch, all over D
        spaces = self.ctx.spaces
        sizes = [len(self.free)] + [s.s1.ndof for s in spaces] + [s.s2.ndof for s in spaces]
        d_free, *over_d = np.split(x, np.cumsum(sizes)[:-1])
        shear = [mat.bending_stiffness * s for s in over_d]
        return d_free, list(zip(shear[: len(spaces)], shear[len(spaces) :]))


def build_parts(assembly, config: SolveConfig) -> ThicknessFreeParts:
    """Refine, assemble, eliminate the boundary, transform and condense once.

    Nothing here reads the thickness, E or kappa of the config: the kernel
    runs with unit material scalars and no load, and keeps the load
    quadrature for the solves.
    """
    ctx = prepare_problem(assembly, config)
    if config.variant == "std":
        shear, bending, quad, free = _primal_parts(ctx)
        return ThicknessFreeParts(ctx, free, quad, bending, shear)
    system = assemble_mixed(ctx, UnitMaterial(config.nu))
    if config.variant == "mxd":
        empty = {k: [sp.csr_matrix(m.shape) for m in getattr(system, k)] for k in ("k_s11", "k_s22")}
        fixed, _ = replace(system, **empty).monolithic()
        scaled = sp.block_diag([sp.csr_matrix((system.nd, system.nd)), *system.k_s11, *system.k_s22], format="csr")
        return ThicknessFreeParts(ctx, system.free_d, system.quadrature, fixed, scaled)
    if config.variant in ("ad", "ead"):
        system = pg_transform(system, *build_transforms(ctx))
    cond = condense(system, lumped=True)
    recovery = replace(cond, k_dd=None, k_shear=None, f_d=None)
    return ThicknessFreeParts(ctx, system.free_d, system.quadrature, cond.k_dd, cond.k_shear, recovery)


def solve_thicknesses(assembly, config: SolveConfig, thicknesses, loads) -> list:
    """Solve one discretisation at every thickness from one thickness-free build.

    Returns, per thickness, its VariantSolution or the exception its solve
    raised; an exception of the build is returned for every thickness.  The
    build time is charged to the first thickness's assembly_s.  Once the
    last thickness's system is formed, the parts' matrices and load
    quadrature are dropped, so they do not share the memory peak of its
    factorisation.

    All variants share one factorisation and one solve of the
    nondimensional system.  A mixed or condensed system with at least
    GMRES_MIN_DOFS free d DOFs, a mesh slenderness of at most its
    variant's bound (GMRES_MAX_SLENDERNESS; for mxd and lmp,
    GMRES_MAX_SLENDERNESS_MXD and _LMP) and no condition estimate asked for
    is first solved by GMRES preconditioned with the LU of the
    primal matrix on the same DOFs (mxd: in a block triangle with the shear
    block, see KrylovSolver); if that answer misses the Krylov gates, the
    matrix is factorised directly as for every other system.  Every
    thickness's matrix has the stored pattern of the one build, so the
    column order of the first direct factorisation serves every later one
    (see DirectSolver) and COLAMD runs once per call; a matrix dense enough
    for LAPACK's getrf has no column order and runs none.

    The result list is released from the frame on return: a stored
    exception's traceback keeps this frame, so a list left in it would
    form a reference cycle that holds every local until the cyclic
    collector runs.
    """
    t0 = time.perf_counter()
    try:
        parts = build_parts(assembly, config)
    except Exception as exc:
        return [exc] * len(thicknesses)
    ctx, free = parts.ctx, parts.free
    ns_total = sum(s.s1.ndof + s.s2.ndof for s in ctx.spaces)
    bounds = {"mxd": GMRES_MAX_SLENDERNESS_MXD, "lmp": GMRES_MAX_SLENDERNESS_LMP}
    bound = bounds.get(config.variant, GMRES_MAX_SLENDERNESS)
    column_order = None  # of the first direct factorisation that has a successor
    out = []
    try:
        for i, (t, load) in enumerate(zip(thicknesses, loads, strict=True)):
            if i:
                t0 = time.perf_counter()
            try:
                cfg = replace(config, thickness=t)
                mat = cfg.make_material()
                diagnostics: dict = {"variant": cfg.variant}
                primal = None
                if parts.cond is not None:
                    diagnostics["condense_mode"] = parts.cond.mode
                if (
                    cfg.variant != "std"
                    and not cfg.estimate_condition
                    and len(free) >= GMRES_MIN_DOFS
                    and mesh_slenderness(ctx, mat) <= bound
                ):
                    primal = parts.primal(mat)  # before the matrix: a first build peaks in memory
                matrix, rhs = parts.system_at(mat, load)
                if i == len(thicknesses) - 1:  # the answer split needs none of these
                    parts = replace(parts, quadrature=None, fixed=None, scaled=None, penalty=None)

                t1 = time.perf_counter()
                x, iterations = None, None
                if primal is not None:
                    solver = KrylovSolver(matrix, primal)
                    del primal
                    t2 = time.perf_counter()
                    x = solver.solve(rhs)
                    iterations = solver.iterations
                if x is None:
                    solver = None  # a rejected Krylov answer: free the primal factor first
                    solver = DirectSolver(matrix, column_order)
                    if column_order is None and i < len(thicknesses) - 1:
                        column_order = solver.column_order()
                    t2 = time.perf_counter()
                    x = solver.solve(rhs)
                t3 = time.perf_counter()
                d_free, shear = parts.split(x, mat)

                nnz, band = nnz_and_bandwidth(matrix)
                diagnostics.update(
                    {
                        "n_dof_primal": int(len(free)),
                        "n_dof_mixed": int(len(free) + ns_total),
                        "n_dof_solved": int(matrix.shape[0]),
                        "nnz_solved": nnz,
                        "bandwidth": band,
                        "assembly_s": t1 - t0,
                        "factor_s": t2 - t1,
                        "solve_s": t3 - t2,
                        "lump_dev": None if parts.cond is None else parts.cond.lump_dev,
                        "solver": "gmres" if isinstance(solver, KrylovSolver) else "lu",
                        "iterations": iterations,
                    }
                )
                if cfg.estimate_condition:
                    diagnostics["cond_est"] = solver.condition_estimate()
                out.append(
                    VariantSolution(
                        config=cfg,
                        ctx=ctx,
                        d_full=expand_displacement(3 * ctx.refined.n_points, free, d_free),
                        free_d=free,
                        shear=shear,
                        diagnostics=diagnostics,
                    )
                )
            except Exception as exc:
                out.append(exc)
            matrix = primal = solver = None  # before the next thickness forms its own
        return out
    finally:
        del out  # see above: the traceback of a stored exception keeps this frame


def solve_variant(assembly, config: SolveConfig, load=None) -> VariantSolution:
    """Build spaces, assemble, and solve with the requested formulation.

    The one-thickness case of solve_thicknesses; raises what it returns.
    """
    (result,) = solve_thicknesses(assembly, config, [config.thickness], [load])
    if isinstance(result, Exception):
        raise result
    return result
