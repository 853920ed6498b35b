"""Mixed displacement-shear Reissner-Mindlin plate discretisation.

Fields and approximation orders: deflection w and rotations Theta use the
(refined) geometry space of degree (p, p); the two shear-force components
use selectively reduced degrees (p-1, p) and (p, p-1) on the derivative
knot vectors.

Two integration schemes are supported.  'galerkin' integrates every block
with the physical measure (saddle-point form).  'weighted' integrates the
shear-test rows with kappa*G*t * W^2 against the parametric measure, which
makes the shear-shear block a weighted Gram matrix in parameter space; that
is the form whose dual transform lumps to the identity.  In both schemes
the shear rows are normalised (multiplied by -1 relative to the plain weak
form) so the shear-shear block is symmetric positive definite and the
condensed operator reads K_dd - sum_a K_dSa * inv(K_SaSa) * K_Sad.

DOF order: all w, then rotations (2 per control point), then S1, then S2.
Bivariate index ordering is k = i*m + j with i along xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .splines import (
    KnotVector,
    SplineError,
    SurfacePatch,
    basis_table,
    elevate_degree,
    insert_knots,
    validate_knot_vector,
)
from .duals import reduce_continuity


class InvalidMaterial(Exception):
    pass


class DegreeTooLow(SplineError):
    pass


class DegenerateJacobian(SplineError):
    pass


@dataclass(frozen=True)
class PlateMaterial:
    """Isotropic plate material with derived bending/shear matrices."""

    e_mod: float
    nu: float
    t: float
    kappa: float

    @property
    def g_mod(self) -> float:
        return self.e_mod / (2.0 * (1.0 + self.nu))

    @property
    def kgt(self) -> float:
        """Shear stiffness kappa * G * t (D_S = kgt * I2)."""
        return self.kappa * self.g_mod * self.t

    @property
    def d_bend(self) -> np.ndarray:
        fac = self.e_mod * self.t**3 / (12.0 * (1.0 - self.nu**2))
        return fac * np.array(
            [[1.0, self.nu, 0.0], [self.nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - self.nu)]]
        )


def material(e_mod: float, nu: float, t: float, kappa: float = 5.0 / 6.0) -> PlateMaterial:
    if e_mod <= 0 or t <= 0 or not (-1.0 < nu < 0.5) or kappa <= 0:
        raise InvalidMaterial(f"invalid material E={e_mod}, nu={nu}, t={t}, kappa={kappa}")
    return PlateMaterial(e_mod=float(e_mod), nu=float(nu), t=float(t), kappa=float(kappa))


@dataclass(frozen=True)
class Space2D:
    """One discretised scalar field: tensor knot vectors plus optional weights."""

    kv_u: KnotVector
    kv_v: KnotVector
    weights: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.kv_u.n, self.kv_v.n

    @property
    def ndof(self) -> int:
        return self.kv_u.n * self.kv_v.n


@dataclass(frozen=True)
class FieldSpaces:
    """All field spaces for one patch, plus the refined geometry.

    Degrees may differ per direction when the geometry starts above the
    requested degree; the shear spaces are always reduced by one in their
    own direction.
    """

    patch: SurfacePatch  # refined geometry (also the w/Theta space)
    disp: Space2D
    s1: Space2D  # degrees (pu-1, pv)
    s2: Space2D  # degrees (pu, pv-1)
    degree: int  # requested degree
    level: int

    @property
    def degrees(self) -> tuple[int, int]:
        return self.disp.kv_u.degree, self.disp.kv_v.degree

    @property
    def nd(self) -> int:
        return 3 * self.disp.ndof


def _derivative_knots(kv: KnotVector) -> KnotVector:
    """Knot vector of the derivative space: degree p-1, end knots dropped once."""
    return validate_knot_vector(kv.values[1:-1], kv.degree - 1)


def _missing_knots(kv: KnotVector, kv_target: KnotVector) -> list[float]:
    """Interior knots (with multiplicity) present in kv_target but not kv."""
    out = []
    vals, counts = np.unique(kv_target.values, return_counts=True)
    for x, c in zip(vals, counts):
        have = int(np.sum(np.abs(kv.values - x) < 1e-14))
        out.extend([float(x)] * max(0, c - have))
    return out


def _dyadic_knots(kv: KnotVector, level: int) -> list[float]:
    new = []
    for _, a, b in kv.spans():
        k = 2**level
        for s in range(1, k):
            new.append(a + (b - a) * s / k)
    return new


def _weight_samples(patch: SurfacePatch, kv_u: KnotVector, kv_v: KnotVector) -> np.ndarray:
    """Geometry weight function sampled at the Greville grid of a shear space."""
    if np.all(patch.net.weights == 1.0):
        return np.ones((kv_u.n, kv_v.n))
    p, q = patch.degrees
    first_u, bu = basis_table(patch.knots_u, kv_u.greville())
    first_v, bv = basis_table(patch.knots_v, kv_v.greville())
    iu = _local_ids(first_u, p + 1)[:, None, :, None]
    iv = _local_ids(first_v, q + 1)[None, :, None, :]
    return np.einsum("ai,bj,abij->ab", bu[:, 0], bv[:, 0], patch.net.weights[iu, iv])


def _local_ids(first: np.ndarray, count: int) -> np.ndarray:
    return first[:, None] + np.arange(count)


def build_field_spaces(
    patch: SurfacePatch,
    target_p: int,
    level: int = 0,
    continuity_reduction: bool = False,
    reduce_mode: str = "preserve_C0",
    shear_weighting: str = "nurbs",
) -> FieldSpaces:
    """k-refine the coarse geometry and derive the four field spaces.

    Continuity reduction (when requested) is applied to the coarse knot
    vectors before elevation and knot insertion, so the reduced smoothness
    survives refinement.
    """
    p0, q0 = patch.degrees
    if target_p < 2:
        raise DegreeTooLow("mixed plate spaces need degree >= 2")
    if shear_weighting not in ("nurbs", "bspline"):
        raise ValueError(f"unknown shear weighting {shear_weighting!r}")
    # geometry degrees can exceed the requested one; never lower them
    pu = max(target_p, p0)
    pv = max(target_p, q0)

    work = patch
    if continuity_reduction:
        ins_u = _missing_knots(work.knots_u, reduce_continuity(work.knots_u, reduce_mode))
        ins_v = _missing_knots(work.knots_v, reduce_continuity(work.knots_v, reduce_mode))
        if ins_u or ins_v:
            work = insert_knots(work, ins_u, ins_v)
    work = elevate_degree(work, pu - work.knots_u.degree, pv - work.knots_v.degree)
    if level > 0:
        work = insert_knots(work, _dyadic_knots(work.knots_u, level), _dyadic_knots(work.knots_v, level))

    disp = Space2D(work.knots_u, work.knots_v, work.net.weights)
    kv_u_s = _derivative_knots(work.knots_u)
    kv_v_s = _derivative_knots(work.knots_v)
    w1 = w2 = None
    if shear_weighting == "nurbs":
        w1 = _weight_samples(work, kv_u_s, work.knots_v)
        w2 = _weight_samples(work, work.knots_u, kv_v_s)
    s1 = Space2D(kv_u_s, work.knots_v, w1)
    s2 = Space2D(work.knots_u, kv_v_s, w2)
    return FieldSpaces(patch=work, disp=disp, s1=s1, s2=s2, degree=target_p, level=level)


# ---------------------------------------------------------------------------
# quadrature tables and the batched element kernel
# ---------------------------------------------------------------------------

CHUNK = 256  # elements per kernel call; bounds the (element, point, function) arrays


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor-product basis of a batch: (E, qa, i) x (E, qb, j) -> (E, qa*qb, i*j)."""
    ne, qa, na = a.shape
    _, qb, nb = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(ne, qa * qb, na * nb)


class PatchDiscretization:
    """Per-patch quadrature grid, basis tables and the batched element kernel.

    Kernel arrays carry the axes (element, quadrature point, local function);
    element (eu, ev) comes at position eu * n_elem_v + ev of the element order.
    """

    def __init__(self, spaces: FieldSpaces, nq: int | None = None):
        self.spaces = spaces
        self.nq1 = int(nq) if nq else max(spaces.degrees) + 1

        xg, wg = np.polynomial.legendre.leggauss(self.nq1)
        self.spans_u = spaces.disp.kv_u.spans()
        self.spans_v = spaces.disp.kv_v.spans()
        su1 = spaces.s1.kv_u.spans()
        sv2 = spaces.s2.kv_v.spans()
        if len(su1) != len(self.spans_u) or len(sv2) != len(self.spans_v):
            raise SplineError("shear spaces must share the displacement breakpoints")

        def grid(spans):
            a = np.array([s[1] for s in spans])[:, None]
            b = np.array([s[2] for s in spans])[:, None]
            h = 0.5 * (b - a)
            return 0.5 * (a + b) + h * xg, h * wg

        self.pts_u, self.wts_u = grid(self.spans_u)
        self.pts_v, self.wts_v = grid(self.spans_v)

        def tables(kv, pts, nderiv):
            first, ders = basis_table(kv, pts.ravel(), nderiv)
            return first.reshape(pts.shape)[:, 0], ders.reshape(pts.shape + ders.shape[1:])

        self.first_du, self.tab_du = tables(spaces.disp.kv_u, self.pts_u, 1)
        self.first_dv, self.tab_dv = tables(spaces.disp.kv_v, self.pts_v, 1)
        self.first_1u, self.tab_1u = tables(spaces.s1.kv_u, self.pts_u, 0)
        self.first_2v, self.tab_2v = tables(spaces.s2.kv_v, self.pts_v, 0)

        self.n_elem_u = len(self.spans_u)
        self.n_elem_v = len(self.spans_v)
        self.unit_weights = bool(np.all(spaces.patch.net.weights == 1.0))

    @property
    def n_elems(self) -> int:
        return self.n_elem_u * self.n_elem_v

    def chunks(self):
        """Element index arrays (eu, ev), CHUNK elements at a time, in element order."""
        eu, ev = np.divmod(np.arange(self.n_elems), self.n_elem_v)
        for s in range(0, self.n_elems, CHUNK):
            yield eu[s : s + CHUNK], ev[s : s + CHUNK]

    def geometry(self, eu: np.ndarray, ev: np.ndarray) -> dict:
        """Rational basis, physical gradients, points and measures of a batch of elements."""
        pu, pv = self.spaces.degrees
        net = self.spaces.patch.net
        ne = len(eu)
        n_u, d_u = self.tab_du[eu, :, 0], self.tab_du[eu, :, 1]
        n_v, d_v = self.tab_dv[ev, :, 0], self.tab_dv[ev, :, 1]
        iu = _local_ids(self.first_du[eu], pu + 1)[:, :, None]
        iv = _local_ids(self.first_dv[ev], pv + 1)[:, None, :]

        nn, nn_xi, nn_eta = _outer(n_u, n_v), _outer(d_u, n_v), _outer(n_u, d_v)
        if self.unit_weights:
            w_q = np.ones(nn.shape[:2])
            r, r_xi, r_eta = nn, nn_xi, nn_eta
        else:
            wl = net.weights[iu, iv].reshape(ne, 1, -1)
            w_q = (nn @ _swap(wl))[..., 0]
            w_xi = (nn_xi @ _swap(wl))[..., 0]
            w_eta = (nn_eta @ _swap(wl))[..., 0]
            r = nn * wl / w_q[..., None]
            r_xi = (nn_xi * wl - r * w_xi[..., None]) / w_q[..., None]
            r_eta = (nn_eta * wl - r * w_eta[..., None]) / w_q[..., None]

        ploc = net.points[iu, iv, :2].reshape(ne, -1, 2)
        xy = r @ ploc
        x_xi = r_xi @ ploc  # Jacobian columns d(x, y)/dxi and d(x, y)/deta
        x_eta = r_eta @ ploc
        det = x_xi[..., 0] * x_eta[..., 1] - x_eta[..., 0] * x_xi[..., 1]
        bad = np.any(det <= 0, axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise DegenerateJacobian(
                f"non-positive Jacobian determinant in element ({eu[k]}, {ev[k]})"
            )

        # push parametric gradients to physical ones via inv(J)^T
        inv_det = 1.0 / det[..., None]
        gx = inv_det * (x_eta[..., 1:] * r_xi - x_xi[..., 1:] * r_eta)
        gy = inv_det * (-x_eta[..., :1] * r_xi + x_xi[..., :1] * r_eta)

        w_param = (self.wts_u[eu][:, :, None] * self.wts_v[ev][:, None, :]).reshape(ne, -1)
        gi = (iu * self.spaces.disp.kv_v.n + iv).reshape(ne, -1)
        return {
            "r": r,
            "gx": gx,
            "gy": gy,
            "xy": xy,
            "det": det,
            "w_geom": w_q,
            "w_param": w_param,
            "gi": gi,
        }

    def shear_bases(self, eu: np.ndarray, ev: np.ndarray) -> tuple:
        """(n1, s1_idx, n2, s2_idx): shear bases and patch-local shear ids of a batch."""
        out = []
        for space, (first_u, tab_u), (first_v, tab_v) in (
            (self.spaces.s1, (self.first_1u, self.tab_1u), (self.first_dv, self.tab_dv)),
            (self.spaces.s2, (self.first_du, self.tab_du), (self.first_2v, self.tab_2v)),
        ):
            tab_u, tab_v = tab_u[eu, :, 0], tab_v[ev, :, 0]
            iu = _local_ids(first_u[eu], tab_u.shape[-1])[:, :, None]
            iv = _local_ids(first_v[ev], tab_v.shape[-1])[:, None, :]
            n = _outer(tab_u, tab_v)
            if space.weights is not None and not np.all(space.weights == 1.0):
                num = n * space.weights[iu, iv].reshape(len(eu), 1, -1)
                n = num / num.sum(axis=-1, keepdims=True)
            out += [n, (iu * space.kv_v.n + iv).reshape(len(eu), -1)]
        return tuple(out)


def _rotation_ids(gi: np.ndarray, nw: int) -> np.ndarray:
    """Interleaved (theta_1, theta_2) d ids of w-point ids (..., L) -> (..., 2L)."""
    return (nw + 2 * gi[..., None] + np.arange(2)).reshape(gi.shape[:-1] + (-1,))


def d_ids(points: np.ndarray, n_points: int) -> np.ndarray:
    """d ids of point ids (..., L) -> (..., 3L): their w ids, then their rotation pairs.

    The one owner of the d layout: all n_points w DOFs first, then the
    interleaved (theta_1, theta_2) pair of every point.
    """
    return np.concatenate([points, _rotation_ids(points, n_points)], axis=-1)


def free_dofs(n: int, fixed: np.ndarray) -> np.ndarray:
    """Sorted ids of range(n) that are not in fixed."""
    mask = np.ones(n, dtype=bool)
    mask[fixed] = False
    return np.flatnonzero(mask)


def _bending(gx: np.ndarray, gy: np.ndarray, w: np.ndarray, d_m: np.ndarray) -> np.ndarray:
    """Bending blocks B^T D B on interleaved rotations of a batch: (E, 2L, 2L)."""
    ne, nq, nloc = gx.shape
    b = np.zeros((ne, nq, 3, 2 * nloc))
    b[:, :, 0, 0::2] = gx
    b[:, :, 1, 1::2] = gy
    b[:, :, 2, 0::2] = gy
    b[:, :, 2, 1::2] = gx
    db = (d_m @ b).reshape(ne, 3 * nq, -1)
    bw = (b * w[..., None, None]).reshape(ne, 3 * nq, -1)
    return _swap(bw) @ db


def _load_vector(geo: dict, w_phys: np.ndarray, load) -> np.ndarray:
    """Consistent load on the w functions of a batch: (E, L)."""
    xy = geo["xy"].reshape(-1, 2)
    fv = np.asarray(load(xy[:, 0], xy[:, 1]), dtype=float).reshape(w_phys.shape)
    return (_swap(geo["r"]) @ (fv * w_phys)[..., None])[..., 0]


@dataclass
class ElementMatrices:
    """Blocks of one element in the normalised sign convention."""

    k_dd: np.ndarray
    k_ds1: np.ndarray
    k_ds2: np.ndarray
    k_s1d: np.ndarray
    k_s2d: np.ndarray
    k_s11: np.ndarray
    k_s22: np.ndarray
    f_w: np.ndarray
    d_idx: np.ndarray
    w_idx: np.ndarray
    s1_idx: np.ndarray
    s2_idx: np.ndarray


def _mixed_blocks(disc: PatchDiscretization, mat: PlateMaterial, scheme: str, eu, ev, load) -> dict:
    """Nonzero sub-blocks of the mixed element matrices of a batch of elements.

    'tt' is the bending block on the interleaved rotations; '_w' and '_t'
    are the w and matching-rotation (theta_1 for S1, theta_2 for S2) parts of
    the coupling blocks.  Every other sub-block of the element matrices is
    zero.  scheme='galerkin' uses the physical measure everywhere;
    scheme='weighted' integrates the shear rows with kappa*G*t * W^2 against
    the parametric measure.  Shear rows carry the normalising -1.
    """
    if scheme not in ("galerkin", "weighted"):
        raise ValueError(f"unknown scheme {scheme!r}")
    geo = disc.geometry(eu, ev)
    n1, s1_idx, n2, s2_idx = disc.shear_bases(eu, ev)
    r, gx, gy = geo["r"], geo["gx"], geo["gy"]
    w_phys = geo["w_param"] * geo["det"]

    if scheme == "weighted":
        # with B-spline shear interpolation the geometry-weight factor is
        # dropped, which makes the shear block an exact parametric Gram
        if disc.spaces.s1.weights is None:
            w_shear = geo["w_param"]
        else:
            w_shear = geo["w_param"] * geo["w_geom"] ** 2
        row_fac, ss_fac = mat.kgt, 1.0
    else:
        w_shear, row_fac, ss_fac = w_phys, 1.0, 1.0 / mat.kgt

    rw = _swap(r * w_phys[..., None])
    n1w = _swap(n1 * w_shear[..., None])
    n2w = _swap(n2 * w_shear[..., None])
    f_w = np.zeros(gx.shape[::2]) if load is None else _load_vector(geo, w_phys, load)
    return {
        "gi": geo["gi"],
        "s1_idx": s1_idx,
        "s2_idx": s2_idx,
        "tt": _bending(gx, gy, w_phys, mat.d_bend),
        # displacement rows of the coupling blocks (physical measure)
        "ds1_w": _swap(gx * w_phys[..., None]) @ n1,
        "ds1_t": -(rw @ n1),
        "ds2_w": _swap(gy * w_phys[..., None]) @ n2,
        "ds2_t": -(rw @ n2),
        # shear rows, normalised sign: -(S-d coupling), +(S-S Gram)
        "s1d_w": -row_fac * (n1w @ gx),
        "s1d_t": row_fac * (n1w @ r),
        "s2d_w": -row_fac * (n2w @ gy),
        "s2d_t": row_fac * (n2w @ r),
        "s11": ss_fac * (n1w @ n1),
        "s22": ss_fac * (n2w @ n2),
        "f_w": f_w,
    }


def element_matrices(
    disc: PatchDiscretization,
    mat: PlateMaterial,
    scheme: str,
    elem: tuple[int, int],
    load=None,
) -> ElementMatrices:
    """Dense mixed blocks of one element: a one-element view of the batched kernel."""
    eu, ev = elem
    k = {key: val[0] for key, val in _mixed_blocks(disc, mat, scheme, [eu], [ev], load).items()}
    gi, s1_idx, s2_idx = k["gi"], k["s1_idx"], k["s2_idx"]
    nloc = len(gi)
    k_dd = np.zeros((3 * nloc, 3 * nloc))
    k_dd[nloc:, nloc:] = k["tt"]
    k_ds1, k_ds2 = np.zeros((3 * nloc, len(s1_idx))), np.zeros((3 * nloc, len(s2_idx)))
    k_s1d, k_s2d = np.zeros((len(s1_idx), 3 * nloc)), np.zeros((len(s2_idx), 3 * nloc))
    for ds, sd, key, rot in ((k_ds1, k_s1d, "1", nloc), (k_ds2, k_s2d, "2", nloc + 1)):
        ds[:nloc], ds[rot::2] = k[f"ds{key}_w"], k[f"ds{key}_t"]
        sd[:, :nloc], sd[:, rot::2] = k[f"s{key}d_w"], k[f"s{key}d_t"]
    return ElementMatrices(
        k_dd=k_dd,
        k_ds1=k_ds1,
        k_ds2=k_ds2,
        k_s1d=k_s1d,
        k_s2d=k_s2d,
        k_s11=k["s11"],
        k_s22=k["s22"],
        f_w=k["f_w"],
        d_idx=d_ids(gi, disc.spaces.disp.ndof),
        w_idx=gi,
        s1_idx=s1_idx,
        s2_idx=s2_idx,
    )


@dataclass
class MixedSystem:
    """Block-sparse mixed system; shear blocks are kept per patch.

    Displacement DOFs may be shared across patches (multi-patch assembly);
    shear DOFs are always patch-local, so K_S1-S2 couplings and cross-patch
    shear couplings are structurally absent.
    """

    k_dd: sp.csr_matrix
    k_ds1: list
    k_ds2: list
    k_s1d: list
    k_s2d: list
    k_s11: list
    k_s22: list
    f_d: np.ndarray
    scheme: str
    spaces: list
    boundary_d: np.ndarray
    nd_full: int
    free_d: np.ndarray | None = None  # set after BC elimination
    transformed: bool = False  # shear rows pre-multiplied by dual transforms

    @property
    def nd(self) -> int:
        return self.k_dd.shape[0]

    @property
    def ns(self) -> int:
        return int(sum(k.shape[0] for k in self.k_s11) + sum(k.shape[0] for k in self.k_s22))

    @property
    def n_patches(self) -> int:
        return len(self.k_s11)

    def monolithic(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Full saddle matrix with DOF order d, S1 (per patch), S2 (per patch)."""
        np_ = self.n_patches
        nblk = 1 + 2 * np_
        blocks = [[None] * nblk for _ in range(nblk)]
        blocks[0][0] = self.k_dd
        for p in range(np_):
            blocks[0][1 + p] = self.k_ds1[p]
            blocks[0][1 + np_ + p] = self.k_ds2[p]
            blocks[1 + p][0] = self.k_s1d[p]
            blocks[1 + np_ + p][0] = self.k_s2d[p]
            blocks[1 + p][1 + p] = self.k_s11[p]
            blocks[1 + np_ + p][1 + np_ + p] = self.k_s22[p]
        a = sp.bmat(blocks, format="csr")
        rhs = np.concatenate([self.f_d, np.zeros(self.ns)])
        return a, rhs



def boundary_point_ids(grid) -> np.ndarray:
    """Sorted control-point ids on the first/last row/column of a grid.

    `grid` is anything with an (n, m) `shape`: a Space2D or a ControlNet.
    """
    n, m = grid.shape
    on_edge = np.zeros((n, m), dtype=bool)
    on_edge[[0, -1], :] = True
    on_edge[:, [0, -1]] = True
    return np.flatnonzero(on_edge)


def _triplets(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray, n_cols: int) -> tuple:
    """(key, value) pairs of a batch of dense blocks (E, a, b) with ids rows (E, a), cols (E, b).

    Entry (r, c) is keyed r * n_cols + c, one int64 per entry; no row or
    column array the size of the blocks is made.
    """
    key = rows[:, :, None].astype(np.int64) * n_cols + cols[:, None, :]
    return key.ravel(), blocks.ravel()


def _csr(shape, parts: list) -> sp.csr_matrix:
    """One CSR build from (key, value) parts, summing duplicates in element order.

    The parts are packed into one key and one value array and each is
    released from `parts` once copied.  A stable sort on the key keeps each
    entry's contributions in the order the elements came, so the sums do not
    depend on CHUNK.  Sums that cancel to exactly zero (on affine patches)
    are not stored.
    """
    n = sum(len(k) for k, _ in parts)
    key, vals = np.empty(n, dtype=np.int64), np.empty(n)
    start = 0
    for i, (k, v) in enumerate(parts):
        key[start : start + len(k)] = k
        vals[start : start + len(k)] = v
        start += len(k)
        parts[i] = None
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    del order
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sums = np.add.reduceat(vals, first)
    del vals
    keep = sums != 0.0
    key, sums = key[first][keep], sums[keep]
    indptr = np.searchsorted(key, np.arange(shape[0] + 1) * shape[1])
    return sp.csr_matrix((sums, key % shape[1], indptr), shape=shape)


def assemble_patches(
    discs: list,
    d_maps: list,
    nd: int,
    mat: PlateMaterial,
    scheme: str,
    boundary_d: np.ndarray,
    load=None,
) -> MixedSystem:
    """Mixed system of several patches, scattered once into a shared d numbering.

    d_maps[p] maps patch p's local d ids to global ones; shear ids stay
    patch-local, so every patch keeps its own shear blocks.  Only the
    nonzero sub-blocks of the element matrices are stored.
    """
    dd = []
    f_d = np.zeros(nd)
    blocks = {key: [] for key in ("ds1", "ds2", "s1d", "s2d", "s11", "s22")}
    for disc, d_map in zip(discs, d_maps):
        nw = disc.spaces.disp.ndof
        parts = {key: [] for key in blocks}
        f_ids, f_vals = [], []
        ns1, ns2 = disc.spaces.s1.ndof, disc.spaces.s2.ndof
        for eu, ev in disc.chunks():
            k = _mixed_blocks(disc, mat, scheme, eu, ev, load)
            w = d_map[k["gi"]]
            rot = d_map[_rotation_ids(k["gi"], nw)]
            s1, s2 = k["s1_idx"], k["s2_idx"]
            dd.append(_triplets(rot, rot, k["tt"], nd))
            for key, s, t, ns in (("1", s1, rot[:, 0::2], ns1), ("2", s2, rot[:, 1::2], ns2)):
                parts["ds" + key] += [
                    _triplets(w, s, k[f"ds{key}_w"], ns),
                    _triplets(t, s, k[f"ds{key}_t"], ns),
                ]
                parts[f"s{key}d"] += [
                    _triplets(s, w, k[f"s{key}d_w"], nd),
                    _triplets(s, t, k[f"s{key}d_t"], nd),
                ]
                parts[f"s{key}{key}"].append(_triplets(s, s, k[f"s{key}{key}"], ns))
            f_ids.append(w.ravel())
            f_vals.append(k["f_w"].ravel())
        f_d += np.bincount(np.concatenate(f_ids), np.concatenate(f_vals), minlength=nd)
        for key, shape in (
            ("ds1", (nd, ns1)),
            ("ds2", (nd, ns2)),
            ("s1d", (ns1, nd)),
            ("s2d", (ns2, nd)),
            ("s11", (ns1, ns1)),
            ("s22", (ns2, ns2)),
        ):
            blocks[key].append(_csr(shape, parts[key]))
    return MixedSystem(
        k_dd=_csr((nd, nd), dd),
        k_ds1=blocks["ds1"],
        k_ds2=blocks["ds2"],
        k_s1d=blocks["s1d"],
        k_s2d=blocks["s2d"],
        k_s11=blocks["s11"],
        k_s22=blocks["s22"],
        f_d=f_d,
        scheme=scheme,
        spaces=[d.spaces for d in discs],
        boundary_d=boundary_d,
        nd_full=nd,
    )


def _patch_boundary_d(spaces: FieldSpaces) -> np.ndarray:
    return np.sort(d_ids(boundary_point_ids(spaces.disp), spaces.disp.ndof))


def assemble(
    disc: PatchDiscretization,
    mat: PlateMaterial,
    scheme: str,
    load=None,
) -> MixedSystem:
    """Assemble the patch-local mixed system with the batched element kernel."""
    nd = disc.spaces.nd
    return assemble_patches(
        [disc], [np.arange(nd)], nd, mat, scheme, _patch_boundary_d(disc.spaces), load
    )


def apply_clamped_bc(system: MixedSystem) -> tuple[MixedSystem, dict]:
    """Eliminate all boundary w/Theta DOFs (clamped edge); shear stays free."""
    if system.free_d is not None:
        raise ValueError("boundary conditions already applied")
    free = free_dofs(system.nd_full, system.boundary_d)

    constrained = MixedSystem(
        k_dd=system.k_dd[np.ix_(free, free)].tocsr(),
        k_ds1=[m[free] for m in system.k_ds1],
        k_ds2=[m[free] for m in system.k_ds2],
        k_s1d=[m[:, free] for m in system.k_s1d],
        k_s2d=[m[:, free] for m in system.k_s2d],
        k_s11=list(system.k_s11),
        k_s22=list(system.k_s22),
        f_d=system.f_d[free],
        scheme=system.scheme,
        spaces=system.spaces,
        boundary_d=system.boundary_d,
        nd_full=system.nd_full,
        free_d=free,
        transformed=system.transformed,
    )
    report = {
        "n_fixed": int(len(system.boundary_d)),
        "n_free_d": int(len(free)),
        "fixed": system.boundary_d,
    }
    return constrained, report




def expand_displacement(nd_full: int, free: np.ndarray, d_free: np.ndarray) -> np.ndarray:
    """Scatter a free solution into the full d vector (zeros on the boundary)."""
    full = np.zeros(nd_full)
    full[free] = d_free
    return full


# ---------------------------------------------------------------------------
# primal (purely displacement-based) formulation
# ---------------------------------------------------------------------------


def assemble_primal_patches(
    discs: list, d_maps: list, nd: int, mat: PlateMaterial, load=None
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Standard irreducible form of several patches in a shared d numbering.

    Bending plus the kappa*G*t shear penalty, integrated by the batched
    kernel and scattered once; see assemble_patches for d_maps.
    """
    parts = []
    f = np.zeros(nd)
    for disc, d_map in zip(discs, d_maps):
        nw = disc.spaces.disp.ndof
        f_ids, f_vals = [], []
        for eu, ev in disc.chunks():
            geo = disc.geometry(eu, ev)
            r, gx, gy = geo["r"], geo["gx"], geo["gy"]
            ne, nq, nloc = r.shape
            w_phys = geo["w_param"] * geo["det"]
            bs = np.zeros((ne, nq, 2, 3 * nloc))
            bs[:, :, 0, :nloc] = gx
            bs[:, :, 1, :nloc] = gy
            bs[:, :, 0, nloc::2] = -r
            bs[:, :, 1, nloc + 1 :: 2] = -r
            bsw = (bs * w_phys[..., None, None]).reshape(ne, 2 * nq, -1)
            k_e = mat.kgt * (_swap(bsw) @ bs.reshape(ne, 2 * nq, -1))
            k_e[:, nloc:, nloc:] += _bending(gx, gy, w_phys, mat.d_bend)
            ids = d_map[d_ids(geo["gi"], nw)]
            parts.append(_triplets(ids, ids, k_e, nd))
            if load is not None:
                f_ids.append(ids[:, :nloc].ravel())
                f_vals.append(_load_vector(geo, w_phys, load).ravel())
        if f_ids:
            f += np.bincount(np.concatenate(f_ids), np.concatenate(f_vals), minlength=nd)
    return _csr((nd, nd), parts), f


def assemble_primal(
    disc: PatchDiscretization,
    mat: PlateMaterial,
    load=None,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Standard irreducible form: bending plus kappa*G*t shear penalty.

    Returns (K, f, boundary_d) in the same d DOF numbering as the mixed
    system.
    """
    nd = disc.spaces.nd
    k, f = assemble_primal_patches([disc], [np.arange(nd)], nd, mat, load)
    return k, f, _patch_boundary_d(disc.spaces)
