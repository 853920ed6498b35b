"""Petrov-Galerkin dual transform, row-sum lumping and static condensation.

Formulation variants:
  std  - purely displacement-based solve (bending + shear penalty)
  mxd  - mixed saddle-point system, monolithic direct solve
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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .duals import (
    DimensionMismatch,
    DualTransform2D,
    dual_transform_1d,
    dual_transform_2d,
    extract_element_transform,
)
from .multipatch import PatchAssembly, assemble_multipatch, assemble_primal_multipatch, build_dof_map
from .plate import (
    MixedSystem,
    PatchDiscretization,
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

# Condensed systems with at least this many free d DOFs are first solved by
# GMRES preconditioned with the primal matrix's LU; smaller ones by LU alone.
# Break-even measured on c1_single and nurbs_distorted (see README).
GMRES_MIN_DOFS = 1000


@dataclass(frozen=True)
class SolveConfig:
    """One solver run: variant, refinement and model parameters."""

    variant: str
    degree: int
    level: int
    thickness: float
    shear_weighting: str = "nurbs"
    continuity_reduction: bool | None = None  # None: on for ad/ead, off otherwise
    reduce_mode: str = "preserve_C0"
    e_mod: float = 10000.0
    nu: float = 0.3
    kappa: float = 5.0 / 6.0
    nq: int | None = None
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
    config: SolveConfig


def prepare_problem(assembly: PatchAssembly | SurfacePatch, config: SolveConfig) -> ProblemContext:
    if isinstance(assembly, SurfacePatch):
        assembly = build_dof_map([assembly])
    spaces = [
        build_field_spaces(
            patch,
            config.degree,
            config.level,
            continuity_reduction=config.reduction,
            reduce_mode=config.reduce_mode,
            shear_weighting=config.shear_weighting,
        )
        for patch in assembly.patches
    ]
    refined = build_dof_map([s.patch for s in spaces])
    discs = [PatchDiscretization(s, nq=config.nq) for s in spaces]
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
    """Displacement-only system with per-patch shear recovery operators."""

    k_cond: sp.csr_matrix
    f_d: np.ndarray
    recovery: list  # per patch: (X1, X2); shear recovery S_a = -X_a @ d
    mode: str  # 'identity' | 'diagonal' | 'schur'
    lump_dev: float
    system: MixedSystem

    @property
    def n(self) -> int:
        return self.k_cond.shape[0]


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
    k = system.k_dd.astype(float)
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
            k = k - (k_ds @ x)
    return CondensedSystem(
        k_cond=k.tocsr(),
        f_d=system.f_d.copy(),
        recovery=recovery,
        mode=mode,
        lump_dev=dev,
        system=system,
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


def pg_shear_rows_elementwise(disc: PatchDiscretization, mat, t1: DualTransform2D, t2: DualTransform2D, load=None):
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
        k = _mixed_blocks(disc, mat, "weighted", eu, ev, load)
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


def _condition_estimate(solver: DirectSolver) -> float | None:
    """1-norm condition estimate of the solved matrix from the solver's own factor.

    ||A||_1 is exact; ||A^-1||_1 is estimated from one starting vector of
    ones, which draws no random numbers, so the estimate is reproducible and
    leaves the global RNG alone.
    """
    try:
        op = spla.LinearOperator(
            solver.a.shape,
            matvec=solver._lu.solve,
            rmatvec=lambda b: solver._lu.solve(b, trans="T"),
        )
        return float(spla.norm(solver.a, 1) * spla.onenormest(op, t=1))
    except Exception:
        return None


def _primal_free(ctx: ProblemContext, mat, load=None) -> tuple:
    """Primal matrix and load on the free d DOFs, and those DOFs' ids."""
    k, f, boundary = assemble_primal_multipatch(ctx.refined, ctx.discs, mat, load)
    free = free_dofs(k.shape[0], boundary)
    return k[np.ix_(free, free)].tocsr(), f[free], free


def solve_variant(assembly, config: SolveConfig, load=None) -> VariantSolution:
    """Build spaces, assemble, and solve with the requested formulation.

    The variants differ only in the (matrix, rhs) they build; all of them
    share one factorisation and one solve.  A condensed system with at least
    GMRES_MIN_DOFS free d DOFs, and no condition estimate asked for, is
    first solved by GMRES preconditioned with the LU of the primal matrix on
    the same DOFs; if that answer misses the Krylov residual gate, the
    condensed matrix is factorised directly as for every other system.
    """
    mat = config.make_material()
    t0 = time.perf_counter()
    ctx = prepare_problem(assembly, config)
    diagnostics: dict = {"variant": config.variant}
    lump_dev = None

    primal = None
    if config.variant == "std":
        matrix, rhs, free = _primal_free(ctx, mat, load)
    else:
        system = assemble_mixed(ctx, mat, load)
        free = system.free_d
        if config.variant == "mxd":
            matrix, rhs = system.monolithic()
        else:
            if config.variant in ("ad", "ead"):
                t1s, t2s = build_transforms(ctx)
                system = pg_transform(system, t1s, t2s)
            cond = condense(system, lumped=True)
            matrix, rhs = cond.k_cond, cond.f_d
            lump_dev = cond.lump_dev
            diagnostics["condense_mode"] = cond.mode
            if not config.estimate_condition and len(free) >= GMRES_MIN_DOFS:
                primal, _, _ = _primal_free(ctx, mat)

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
        solver = DirectSolver(matrix)
        t2 = time.perf_counter()
        x = solver.solve(rhs)
    t3 = time.perf_counter()

    if config.variant == "std":
        d_free, shear = x, None
    elif config.variant == "mxd":
        # x holds d, then S1 of every patch, then S2 of every patch
        sizes = [system.nd] + [m.shape[0] for m in system.k_s11 + system.k_s22]
        d_free, *parts = np.split(x, np.cumsum(sizes)[:-1])
        shear = list(zip(parts[: system.n_patches], parts[system.n_patches :]))
    else:
        d_free, shear = x, recover_shear(cond, x)

    ns_total = sum(s.s1.ndof + s.s2.ndof for s in ctx.spaces)
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
            "lump_dev": lump_dev,
            "solver": "gmres" if isinstance(solver, KrylovSolver) else "lu",
            "iterations": iterations,
        }
    )
    if config.estimate_condition:
        diagnostics["cond_est"] = _condition_estimate(solver)

    nd_full = 3 * ctx.refined.n_points
    return VariantSolution(
        config=config,
        ctx=ctx,
        d_full=expand_displacement(nd_full, free, d_free),
        free_d=free,
        shear=shear,
        diagnostics=diagnostics,
    )
