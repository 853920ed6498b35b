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
import scipy.sparse.linalg as spla

from .duals import (
    DimensionMismatch,
    dual_transform_1d,
    dual_transform_2d,
)
from .multipatch import PatchAssembly, assemble_multipatch, assemble_primal_multipatch, build_dof_map, grid_sweeps
from .plate import (
    MixedSystem,
    PatchDiscretization,
    UnitMaterial,
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
# solved by GMRES preconditioned with the primal matrix's factor; smaller ones
# by LU alone.  Break-even measured on c1_single and nurbs_distorted (see README).
GMRES_MIN_DOFS = 1000
# ... and only if the mesh slenderness kGt h^2 / D is at most their variant's
# bound here; a variant without one (std, lmp) never tries GMRES.  The primal
# preconditioner locks in shear as the slenderness grows (tables in README;
# remeasure with scripts/krylov_map.py):
#   ad, ead  every measured ead cell up to 187 converged, every one from 380
#            was rejected;
#   mxd      its saddle matrix is preconditioned by the primal matrix in a
#            block triangle (see KrylovSolver): every measured cell up to 61
#            converged, the first were rejected at 95;
#   lmp      plain lumping moves its condensed matrix so far from the primal
#            one that every measured cell needed all 60 iterations, even at t=1.
GMRES_MAX_SLENDERNESS = {"mxd": 60.0, "ad": 250.0, "ead": 250.0}


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
        if self.level < 0:
            raise ValueError(f"refinement level must be non-negative, got {self.level}")

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
    def sweeps(self) -> list:
        """Per sweep of the refined control-point grids, every point's place in it (see grid_sweeps)."""
        return grid_sweeps(self.refined)

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


def assemble_mixed(ctx: ProblemContext, mat, loads=()) -> MixedSystem:
    """The mixed system on the free d DOFs; f_d has one column per load."""
    system = assemble_multipatch(ctx.refined, ctx.discs, mat, ctx.config.scheme, loads)
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


class MatrixProduct:
    """The product L R of two sparse matrices, kept as its factors (L, R).

    Offers what a matrix-free reader needs of it: shape, nnz (the entries
    both factors store), products with vectors, applied as L (R v), and the
    transpose R^T L^T.  tocsr() forms it.
    """

    def __init__(self, left, right):
        self.factors = (left, right)
        self.shape = (left.shape[0], right.shape[1])

    @property
    def nnz(self) -> int:
        return self.factors[0].nnz + self.factors[1].nnz

    @property
    def T(self) -> "MatrixProduct":
        left, right = self.factors
        return MatrixProduct(right.T, left.T)

    def __matmul__(self, v):
        left, right = self.factors
        return left @ (right @ v)

    def tocsr(self) -> sp.csr_matrix:
        """(L @ R).tocsr(): the one place a transformed shear block T K is multiplied out."""
        left, right = self.factors
        return (left @ right).tocsr()


class _FormedOnRead:
    """A per-patch list of MatrixProducts whose elements read as the formed matrices.

    `products` holds them unformed, for readers that need no formed matrix.
    """

    def __init__(self, products):
        self.products = list(products)

    def __len__(self) -> int:
        return len(self.products)

    def __getitem__(self, p: int) -> sp.csr_matrix:
        return self.products[p].tocsr()


def pg_transform(system: MixedSystem, t1, t2) -> MixedSystem:
    """Pre-multiply the shear rows with the dual transforms (Petrov-Galerkin).

    Accepts one transform per shear component for a single patch, or a list
    per patch.  Displacement rows are untouched; the transform is an
    invertible row operation, so exact condensation afterwards leaves the
    solution unchanged.  Each transformed block T K is kept as its two
    factors (MatrixProduct): reading a block of the result, k_s1d[p] say,
    forms it, while lumped condensation applies the factors and forms
    nothing.
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
        k_s1d.append(MatrixProduct(t1s[p].matrix, system.k_s1d[p]))
        k_s2d.append(MatrixProduct(t2s[p].matrix, system.k_s2d[p]))
        k_s11.append(MatrixProduct(t1s[p].matrix, system.k_s11[p]))
        k_s22.append(MatrixProduct(t2s[p].matrix, system.k_s22[p]))
    return replace(
        system,
        k_s1d=_FormedOnRead(k_s1d),
        k_s2d=_FormedOnRead(k_s2d),
        k_s11=_FormedOnRead(k_s11),
        k_s22=_FormedOnRead(k_s22),
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

    The condensed matrix K_dd - sum_a K_dSa X_a is kept as its parts: the
    bending part K_dd and, per patch, the couplings K_dSa next to the X_a.
    A dual-transformed X_a = T_a K_Sad is kept as its two factors (a
    MatrixProduct); the others are matrices.  The shear part
    sum_a K_dSa X_a is formed only when k_shear or k_cond is read, afresh
    on every read.  Every X_a is proportional to kappa*G*t, so
    parts condensed from unit material scalars give the matrix of any
    thickness divided by D as K_dd - (kappa*G*t / D) * shear part (see
    ThicknessFreeParts).
    """

    k_dd: sp.csr_matrix
    coupling: list  # per patch: (K_dS1, K_dS2)
    f_d: np.ndarray
    recovery: list  # per patch: (X1, X2); shear recovery S_a = -X_a @ d
    mode: str  # 'identity' | 'diagonal' | 'schur'
    lump_dev: float

    @property
    def n(self) -> int:
        return self.k_dd.shape[0]

    @property
    def k_shear(self) -> sp.csr_matrix:
        """sum_a K_dSa X_a, patch by patch and S1 before S2: the one place the sum is formed.

        A factored X_a = T_a K_Sad is formed first, as (T_a @ K_Sad).tocsr().
        """
        shear = None
        for pair, ops in zip(self.coupling, self.recovery):
            for k_ds, x in zip(pair, ops):
                part = k_ds @ x.tocsr()
                shear = part if shear is None else shear + part
        return shear.tocsr()

    @property
    def k_cond(self) -> sp.csr_matrix:
        return (self.k_dd - self.k_shear).tocsr()


class CondensedOperator(spla.LinearOperator):
    """v -> K_dd v + c sum_a K_dSa (X_a v): a condensed pencil matrix applied from its parts.

    Applies ThicknessFreeParts.matrix_at(mat) of lmp/ad/ead, K_dd + c *
    shear part with c = scale(mat), without forming it; rmatvec applies its
    transpose.  An ad/ead X_a = T_a K_Sad is applied from its factors, as
    T_a (K_Sad v), so neither it nor the shear part is ever formed.  Its
    stored-entry count and bandwidth are read from the parts, every chain
    K_dSa T_a K_Sad (lmp: K_dSa X_a) in turn (see nnz_and_bandwidth).  The
    operator holds the parts it was made from, so they live as long as it
    does.
    """

    def __init__(self, parts: "ThicknessFreeParts", mat):
        super().__init__(float, parts.fixed.shape)
        self.parts, self.mat = parts, mat
        self.k_dd, self.c = parts.fixed, parts.scale(mat)
        cond = parts.cond
        self.pairs = [pq for pair, ops in zip(cond.coupling, cond.recovery) for pq in zip(pair, ops)]

    def formed(self) -> sp.csr_matrix:
        """The matrix applied, formed: matrix_at(mat) of the parts it was made from."""
        return self.parts.matrix_at(self.mat)

    def _matvec(self, v):
        return self.k_dd @ v + self.c * sum(k_ds @ (x @ v) for k_ds, x in self.pairs)

    def _rmatvec(self, v):
        return self.k_dd.T @ v + self.c * sum(x.T @ (k_ds.T @ v) for k_ds, x in self.pairs)

    def nnz_and_bandwidth(self) -> tuple[int, int]:
        """Entries stored by the parts applied, and the formed matrix's bandwidth chained through them."""
        chains = [(k_ds, *x.factors) if isinstance(x, MatrixProduct) else (k_ds, x) for k_ds, x in self.pairs]
        return nnz_and_bandwidth(self.k_dd, chains)


def condense(system: MixedSystem, lumped: bool = True) -> CondensedSystem:
    """Eliminate the shear DOFs.

    With dual-transformed shear rows the lumped block is the identity by
    construction, so no inversion is needed; the actual row-sum deviation,
    max |T (K_SS 1) - 1|, is recorded as a diagnostic.  pg_transform's
    blocks are read as their factors there, so X = T K_Sd stays factored
    and nothing is formed.  Without a transform, lumping inverts the row
    sums diag(K_SS @ 1) (the plain-lumping baseline); the shear basis is a
    partition of unity, so this reproduces constant shear exactly and the
    baseline is a consistent quasi-interpolation of at most second order.
    Unlumped condensation factorises each shear block (the expensive exact
    Schur complement).
    """
    recovery = []
    dev = 0.0
    mode = "schur"
    identity = lumped and system.transformed
    for p in range(system.n_patches):
        ops = []
        for blocks in ((system.k_s11, system.k_s1d), (system.k_s22, system.k_s2d)):
            # the identity branch reads pg_transform's blocks unformed; the others form them
            k_ss, k_sd = (b.products[p] if identity and isinstance(b, _FormedOnRead) else b[p] for b in blocks)
            if identity:
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
    return CondensedSystem(
        k_dd=system.k_dd,
        coupling=list(zip(system.k_ds1, system.k_ds2)),
        f_d=system.f_d.copy(),
        recovery=recovery,
        mode=mode,
        lump_dev=dev,
    )


def recover_shear(cond: CondensedSystem, d_solution: np.ndarray) -> list:
    """Per-patch shear coefficients that balance the (lumped) shear rows, S_a = -X_a d.

    A factored X_a = T_a K_Sad is applied as T_a (K_Sad d).
    """
    return [tuple(-np.asarray(x @ d_solution).ravel() for x in pair) for pair in cond.recovery]


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


def _primal_parts(ctx: ProblemContext, bending: bool = True, loads=()) -> tuple:
    """Primal shear-penalty and bending parts and load vectors on the free d DOFs, free DOFs.

    Built with unit material scalars; without `bending` only the shear
    part is assembled and the bending part is None.
    """
    unit = UnitMaterial(ctx.config.nu)
    shear, bend, f, boundary = assemble_primal_multipatch(ctx.refined, ctx.discs, unit, bending, loads)
    free = free_dofs(shear.shape[0], boundary)
    sub = np.ix_(free, free)
    return shear[sub].tocsr(), None if bend is None else bend[sub].tocsr(), f[free], free


@dataclass
class ThicknessFreeParts:
    """What one discretisation's solves share across thicknesses.

    Built once per (geometry, variant, degree, level, nu, shear weighting,
    continuity reduction) with unit material scalars, D = 1 and
    kappa*G*t = 1 (see build_parts).  Thickness enters every block through
    these two scalars only, so each thickness's system divided by D is the
    pencil fixed + scale(mat) * scaled against its f / D (matrix_at, rhs_at):

      std           bending + (kGt/D) * shear penalty
      lmp, ad, ead  K_dd - (kGt/D) * sum_a K_dSa X_a
      mxd           the saddle without its shear-shear blocks + (D/kGt) *
                    those blocks; its shear unknowns are scaled by 1/D and
                    its shear rows keep their right-hand side of 0

    For lmp/ad/ead the shear part is kept as its factors in `cond` (ad/ead:
    K_dSa, T_a and K_Sad), and `scaled` is None until matrix_at first forms
    it; the level's later formed matrices reuse it.  operator_at applies
    the pencil from the factors instead (see CondensedOperator), so a level
    that GMRES solves forms neither the shear part nor any T_a K_Sad.
    """

    ctx: ProblemContext
    free: np.ndarray  # free d DOFs
    loads: np.ndarray  # the level's load vectors on the free d DOFs, one column per thickness
    fixed: sp.csr_matrix | None
    scaled: sp.csr_matrix | None
    cond: CondensedSystem | None = None  # lmp/ad/ead: couplings, recovery operators, lump diagnostics
    penalty: sp.csr_matrix | None = None  # primal shear penalty, assembled on first use

    def scale(self, mat) -> float:
        """The pencil's thickness-dependent scalar c(mat) (see the class docstring)."""
        if self.ctx.config.variant == "mxd":
            return mat.bending_stiffness / mat.kgt
        return _ratio(mat) if self.ctx.config.variant == "std" else -_ratio(mat)

    def primal(self, mat) -> sp.csc_matrix:
        """Primal matrix of mat divided by D on the free d DOFs, bending + (kGt/D) shear.

        Its bending part is the leading block of fixed, the system's own
        K_dd: the same bending blocks summed in the same order.  It is
        symmetric up to the round-off of the element products (9e-17
        relative); KrylovSolver reads its lower triangle alone.
        """
        if self.penalty is None:
            self.penalty = _primal_parts(self.ctx, bending=False)[0]
        n = len(self.free)
        return (self.fixed[:n, :n] + _ratio(mat) * self.penalty).tocsc()

    def orders(self) -> list:
        """Candidate band orders of the level's systems, one per grid sweep.

        Every unknown belongs to a control point: a free d DOF to its point
        (through d_ids), an mxd S1 DOF (i, j) of a patch to point (i, j) of
        that patch's displacement grid without its last row, and an S2 DOF to
        point (i, j) of the grid without its last column.  An order sorts
        the unknowns by their point's place in a sweep (ProblemContext.sweeps),
        then by kind: w, theta_1, theta_2, S1, S2.  Every system but mxd's
        has the free d DOFs alone, and so has the primal matrix, whose
        orders are these restricted to them (see KrylovSolver).
        """
        ctx, n = self.ctx, self.ctx.refined.n_points
        points = np.arange(n)[:, None]
        ids = d_ids(points, n)  # (n, 3): w, theta_1, theta_2 of every point
        point_of, kind_of = np.empty(3 * n, dtype=np.int64), np.empty(3 * n, dtype=np.int64)
        point_of[ids], kind_of[ids] = points, np.arange(3)
        point, kind = point_of[self.free], kind_of[self.free]
        if ctx.config.variant == "mxd":
            grids = [pm.reshape(s.disp.shape) for pm, s in zip(ctx.refined.point_maps, ctx.spaces)]
            shear = [g[:-1].ravel() for g in grids] + [g[:, :-1].ravel() for g in grids]  # S1, then S2 of every patch
            point = np.concatenate([point, *shear])
            kind = np.concatenate([kind, *(np.full(s.size, 3 + (i >= len(grids))) for i, s in enumerate(shear))])
        return [np.lexsort((kind, rank[point])) for rank in ctx.sweeps]

    def matrix_at(self, mat) -> sp.csr_matrix:
        """Matrix of mat's system divided by D, formed."""
        if self.scaled is None:  # lmp/ad/ead: form the shear part once, on first use
            self.scaled = self.cond.k_shear
        return (self.fixed + self.scale(mat) * self.scaled).tocsr()

    def operator_at(self, mat):
        """matrix_at(mat) for a Krylov solve; for lmp/ad/ead a CondensedOperator, not formed."""
        if self.cond is None:
            return self.matrix_at(mat)
        return CondensedOperator(self, mat)

    def rhs_at(self, mat, i: int) -> np.ndarray:
        """Right-hand side of mat's system under load i, divided by D."""
        f = np.zeros(self.fixed.shape[0])
        f[: len(self.free)] = self.loads[:, i] / mat.bending_stiffness
        return f

    def split(self, x: np.ndarray, mat) -> tuple:
        """The free d DOFs and per-patch shear (S1, S2), None for std, of an answer x of mat's system."""
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


def build_parts(assembly, config: SolveConfig, loads=()) -> ThicknessFreeParts:
    """Refine, assemble, eliminate the boundary, transform and condense once.

    Nothing here reads the thickness, E or kappa of the config: the kernel
    runs with unit material scalars.  It integrates every load, one per
    thickness, in the same pass; no load is evaluated after it.
    """
    ctx = prepare_problem(assembly, config)
    if config.variant == "std":
        shear, bending, f, free = _primal_parts(ctx, loads=loads)
        return ThicknessFreeParts(ctx, free, f, bending, shear)
    system = assemble_mixed(ctx, UnitMaterial(config.nu), loads)
    if config.variant == "mxd":
        empty = {k: [sp.csr_matrix(m.shape) for m in getattr(system, k)] for k in ("k_s11", "k_s22")}
        fixed, _ = replace(system, **empty).monolithic()
        scaled = sp.block_diag([sp.csr_matrix((system.nd, system.nd)), *system.k_s11, *system.k_s22], format="csr")
        return ThicknessFreeParts(ctx, system.free_d, system.f_d, fixed, scaled)
    if config.variant in ("ad", "ead"):
        system = pg_transform(system, *build_transforms(ctx))
    cond = condense(system, lumped=True)
    factors = replace(cond, k_dd=None, f_d=None)  # couplings, recovery operators, diagnostics
    return ThicknessFreeParts(ctx, system.free_d, system.f_d, cond.k_dd, None, factors)


def solve_thicknesses(assembly, config: SolveConfig, thicknesses, loads) -> list:
    """Solve one discretisation at every thickness from one thickness-free build.

    loads[i], the load of thicknesses[i], is integrated in the build; a
    count unlike that of thicknesses raises ValueError before any work.
    Returns, per thickness, its VariantSolution or the exception its solve
    or its load raised; any other exception of the build is returned for
    every thickness.  The build time is charged to the first thickness's
    assembly_s.  At the last thickness the primal shear penalty is dropped
    before its matrix is formed, and the parts' matrices once it is, so
    they share neither the memory peak of forming it nor that of its
    factorisation; a condensed operator (below) holds its own parts
    through its solve.

    All variants share one factorisation and one solve of the
    nondimensional system.  A mixed or condensed system with at least
    GMRES_MIN_DOFS free d DOFs, a mesh slenderness of at most its
    variant's bound in GMRES_MAX_SLENDERNESS and no condition estimate asked
    for is first solved by GMRES preconditioned with the factor of the
    primal matrix on the same DOFs, a band Cholesky where it fits (mxd: in
    a block triangle with the shear block, see KrylovSolver).  GMRES
    applies a condensed (lmp/ad/ead) matrix from its parts
    (ThicknessFreeParts.operator_at), so the shear part sum_a K_dSa X_a is
    formed only for a direct factorisation.  If the
    Krylov answer misses the Krylov gates, the matrix is formed and
    factorised directly as for every other system (see DirectSolver).
    Both solvers are given the level's candidate orders, one per sweep of
    the control-point grids (ThicknessFreeParts.orders), made only when a
    band factor is tried; a band is put in the narrowest of them.

    The result list is released from the frame on return, and the list of
    load exceptions emptied: a stored exception's traceback keeps this
    frame and the build's, so a list left in them would form a reference
    cycle that holds every local until the cyclic collector runs.
    """
    if len(loads) != len(thicknesses):
        raise ValueError(f"{len(loads)} loads for {len(thicknesses)} thicknesses")
    errors = [None] * len(loads)  # per thickness: the exception its load raised in the build

    def kept(i, load):  # load i as the build calls it: an exception fails thickness i alone
        def call(x, y):
            try:
                return np.nan if errors[i] is not None else load(x, y)
            except Exception as exc:
                errors[i] = exc
                return np.nan

        return call

    t0 = time.perf_counter()
    try:
        parts = build_parts(assembly, config, [None if f is None else kept(i, f) for i, f in enumerate(loads)])
    except Exception as exc:
        errors.clear()  # the build's frames hold it (see the docstring)
        return [exc] * len(thicknesses)
    ctx, free = parts.ctx, parts.free
    ns_total = sum(s.s1.ndof + s.s2.ndof for s in ctx.spaces)
    bound = GMRES_MAX_SLENDERNESS.get(config.variant)
    out = []
    try:
        for i, t in enumerate(thicknesses):
            if i:
                t0 = time.perf_counter()
            try:
                cfg = replace(config, thickness=t)
                mat = cfg.make_material()
                if errors[i] is not None:
                    raise errors[i]
                diagnostics: dict = {"variant": cfg.variant}
                primal = None
                if parts.cond is not None:
                    diagnostics["condense_mode"] = parts.cond.mode
                if (
                    bound is not None
                    and not cfg.estimate_condition
                    and len(free) >= GMRES_MIN_DOFS
                    and mesh_slenderness(ctx, mat) <= bound
                ):
                    primal = parts.primal(mat)  # before the matrix: a first build peaks in memory
                rhs = parts.rhs_at(mat, i)
                last = i == len(thicknesses) - 1
                if last:  # the primal matrix is built
                    parts = replace(parts, penalty=None)
                matrix = parts.matrix_at(mat) if primal is None else parts.operator_at(mat)
                if last:  # split reads none of the matrices; an operator holds its own
                    cond = None if parts.cond is None else replace(parts.cond, coupling=None)
                    parts = replace(parts, fixed=None, scaled=None, cond=cond)

                t1 = time.perf_counter()
                x, iterations = None, None
                if primal is not None:
                    solver = KrylovSolver(matrix, primal, parts.orders)
                    del primal
                    t2 = time.perf_counter()
                    x = solver.solve(rhs)
                    iterations = solver.iterations
                if x is None:
                    solver = None  # a rejected Krylov answer: free the primal factor first
                    if not sp.issparse(matrix):
                        matrix = matrix.formed()
                    solver = DirectSolver(matrix, parts.orders)
                    t2 = time.perf_counter()
                    x = solver.solve(rhs)
                t3 = time.perf_counter()
                d_free, shear = parts.split(x, mat)

                nnz, band = nnz_and_bandwidth(matrix) if sp.issparse(matrix) else matrix.nnz_and_bandwidth()
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
                        "lu_fill": solver.lu_fill,
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
        del out  # see above: the traceback of a stored exception keeps this frame and the build's
        errors.clear()


def solve_variant(assembly, config: SolveConfig, load=None) -> VariantSolution:
    """Build spaces, assemble, and solve with the requested formulation.

    The one-thickness case of solve_thicknesses; raises what it returns.
    """
    (result,) = solve_thicknesses(assembly, config, [config.thickness], [load])
    if isinstance(result, Exception):
        raise result
    return result
