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

from dataclasses import dataclass, replace

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
    def bending_stiffness(self) -> float:
        """D = E t^3 / (12 (1 - nu^2)); D_B = D * bending_matrix(nu)."""
        return self.e_mod * self.t**3 / (12.0 * (1.0 - self.nu**2))

    @property
    def d_bend(self) -> np.ndarray:
        return self.bending_stiffness * bending_matrix(self.nu)


@dataclass(frozen=True)
class UnitMaterial:
    """Kernel scalars with D = 1 and kappa*G*t = 1.

    Thickness enters the element blocks only through D and kappa*G*t, so
    blocks built with these scalars are the thickness-free parts of every
    thickness's blocks.
    """

    nu: float

    @property
    def kgt(self) -> float:
        return 1.0

    @property
    def d_bend(self) -> np.ndarray:
        return bending_matrix(self.nu)


def bending_matrix(nu: float) -> np.ndarray:
    """Material matrix of bending per unit bending stiffness D."""
    return np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]])


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


def check_shear_weighting(shear_weighting: str) -> str:
    """shear_weighting, if it names one, 'nurbs' or 'bspline'; else ValueError."""
    if shear_weighting not in ("nurbs", "bspline"):
        raise ValueError(f"unknown shear weighting {shear_weighting!r}")
    return shear_weighting


def build_field_spaces(
    patch: SurfacePatch,
    target_p: int,
    level: int = 0,
    continuity_reduction: bool = False,
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
    check_shear_weighting(shear_weighting)
    # geometry degrees can exceed the requested one; never lower them
    pu = max(target_p, p0)
    pv = max(target_p, q0)

    work = patch
    if continuity_reduction:
        ins_u = _missing_knots(work.knots_u, reduce_continuity(work.knots_u))
        ins_v = _missing_knots(work.knots_v, reduce_continuity(work.knots_v))
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
    return FieldSpaces(patch=work, disp=disp, s1=s1, s2=s2)


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

    def geometry(self, eu: np.ndarray, ev: np.ndarray, gradients: bool = True) -> dict:
        """Rational basis, physical gradients, points and measures of a batch of elements.

        Without `gradients` the physical gradients 'gx' and 'gy' are left out.
        """
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

        w_param = (self.wts_u[eu][:, :, None] * self.wts_v[ev][:, None, :]).reshape(ne, -1)
        gi = (iu * self.spaces.disp.kv_v.n + iv).reshape(ne, -1)
        out = {"r": r, "xy": xy, "det": det, "w_geom": w_q, "w_param": w_param, "gi": gi}
        if gradients:
            # push parametric gradients to physical ones via inv(J)^T
            inv_det = 1.0 / det[..., None]
            out["gx"] = inv_det * (x_eta[..., 1:] * r_xi - x_xi[..., 1:] * r_eta)
            out["gy"] = inv_det * (-x_eta[..., :1] * r_xi + x_xi[..., :1] * r_eta)
        return out

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


def _add_loads(f: np.ndarray, loads, ids: np.ndarray, xy: np.ndarray, rw: np.ndarray) -> None:
    """Add every load's consistent vector over a batch to its column of f, in element order.

    ids (E, L) are the batch's global w ids, xy (E, Q, 2) its physical
    quadrature points and rw (E, L, Q) its w basis times the quadrature
    weight.  A None load adds nothing; a load may return one value for all.
    """
    ne, _, nq = rw.shape
    xy = xy.reshape(-1, 2)
    for col, load in enumerate(loads):
        if load is not None:
            fv = np.broadcast_to(np.asarray(load(xy[:, 0], xy[:, 1]), dtype=float).ravel(), len(xy))
            np.add.at(f[:, col], ids.ravel(), (rw @ fv.reshape(ne, nq, 1)).ravel())


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


def _mixed_blocks(disc: PatchDiscretization, mat: PlateMaterial, scheme: str, eu, ev) -> dict:
    """Nonzero sub-blocks of the mixed element matrices of a batch of elements.

    'tt' is the bending block on the interleaved rotations; '_w' and '_t'
    are the w and matching-rotation (theta_1 for S1, theta_2 for S2) parts of
    the coupling blocks.  Every other sub-block of the element matrices is
    zero.  scheme='galerkin' uses the physical measure everywhere;
    scheme='weighted' integrates the shear rows with kappa*G*t * W^2 against
    the parametric measure.  Shear rows carry the normalising -1.  'xy'
    and 'rw' are the load quadrature of the batch (see _add_loads).
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
        "xy": geo["xy"],
        "rw": rw,
    }


def element_matrices(
    disc: PatchDiscretization,
    mat: PlateMaterial,
    scheme: str,
    elem: tuple[int, int],
) -> ElementMatrices:
    """Dense mixed blocks of one element: a one-element view of the batched kernel."""
    eu, ev = elem
    k = {key: val[0] for key, val in _mixed_blocks(disc, mat, scheme, [eu], [ev]).items()}
    nloc = len(k["gi"])
    ns1, ns2 = len(k["s11"]), len(k["s22"])
    k_dd = np.zeros((3 * nloc, 3 * nloc))
    k_dd[nloc:, nloc:] = k["tt"]
    k_ds1, k_ds2 = np.zeros((3 * nloc, ns1)), np.zeros((3 * nloc, ns2))
    k_s1d, k_s2d = np.zeros((ns1, 3 * nloc)), np.zeros((ns2, 3 * nloc))
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
    f_d: np.ndarray  # (nd,), or (nd, k) with one column per load of the assembly pass
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
        rhs = np.concatenate([self.f_d, np.zeros((self.ns, *self.f_d.shape[1:]))])
        return a, rhs


EDGES = ("u0", "u1", "v0", "v1")


def edge_point_ids(shape: tuple[int, int], edge: str) -> np.ndarray:
    """Control-point ids along one edge of an (n, m) grid, ordered along the edge.

    The one owner of which control points lie on an edge: the clamped
    boundary of a patch and the outer boundary of a multi-patch assembly
    are both built from it.
    """
    n, m = shape
    if edge == "u0":
        return np.arange(m)
    if edge == "u1":
        return (n - 1) * m + np.arange(m)
    if edge == "v0":
        return np.arange(n) * m
    if edge == "v1":
        return np.arange(n) * m + (m - 1)
    raise ValueError(f"unknown edge {edge!r}")


def boundary_point_ids(grid) -> np.ndarray:
    """Sorted control-point ids on any edge of a grid.

    `grid` is anything with an (n, m) `shape`: a Space2D or a ControlNet.
    """
    return np.unique(np.concatenate([edge_point_ids(grid.shape, e) for e in EDGES]))


def _sides(disc: PatchDiscretization) -> dict:
    """The sides of one patch's blocks by name: all d ids (w, theta_1 and theta_2 apart),
    the rotation pairs, w with one rotation, and the shear spaces, each as
    (grid, groups, size).

    Every element holds count[0] x count[1] functions of the grid (first,
    count, shape), from first[0][eu] and first[1][ev] on; point (i_u, i_v)
    is number i_u * n_v + i_v, as in the kernel.  Component c of point k in
    group (base, stride, n) has id base + stride * k + c, of `size` ids.
    """
    spaces = disc.spaces
    pu, pv = spaces.degrees
    nw, nd = spaces.disp.ndof, spaces.nd
    d = ((disc.first_du, disc.first_dv), (pu + 1, pv + 1), spaces.disp.shape)
    s1 = ((disc.first_1u, disc.first_dv), (pu, pv + 1), spaces.s1.shape)
    s2 = ((disc.first_du, disc.first_2v), (pu + 1, pv), spaces.s2.shape)
    one, rot, t1, t2 = (0, 1, 1), (nw, 2, 2), (nw, 2, 1), (nw + 1, 2, 1)
    return {
        "d": (d, (one, t1, t2), nd),
        "rot": (d, (rot,), nd),
        "w_t1": (d, (one, t1), nd),
        "w_t2": (d, (one, t2), nd),
        "s1": (s1, (one,), spaces.s1.ndof),
        "s2": (s2, (one,), spaces.s2.ndof),
    }


class _Band:
    """One patch block, summed in its tensor-product band and read out as CSR.

    In an element both functions of an entry are the element's first one plus
    a local offset per direction, and the two sides' first functions differ by
    one shift per patch, so an entry's column is its row's point moved by
    (du, dv).  The band has a row per row id from the side's first id on and
    `width` slots, one per (column group, du, dv, component); a contribution
    adds to row * width + slot[q, s], a static table of element-local pairs.
    The slots are laid out in column order, so every row reads out sorted:
    within one stride a column grows with the slot's constant part, and the
    groups of stride 1 (w) hold smaller ids than those of stride 2 (the
    rotations, interleaved even where theta_1 and theta_2 are apart).
    np.add.at adds in element order, so the sums do not depend on CHUNK; sums
    that are exactly zero (they cancel on affine patches) are not stored.
    """

    def __init__(self, rows: tuple, cols: tuple):
        ((r_first, (lu, lv), r_shape), self.row_groups, n_rows) = rows
        ((c_first, (cu, cv), c_shape), c_groups, n_cols) = cols
        shift = [fc - fr for fr, fc in zip(r_first, c_first)]
        if any(np.any(s != s[0]) for s in shift):
            raise SplineError("the two sides of a block differ by more than one shift")
        wu, wv = lu + cu - 1, lv + cv - 1
        du, dv = np.divmod(np.arange(wu * wv), wv)
        # column point of slot (du, dv), less the row point's place in the column grid
        moved = (du - lu + 1 + shift[0][0]) * c_shape[1] + dv - lv + 1 + shift[1][0]
        stride, const, start = [], [], [0]
        for base, step, n in c_groups:
            stride.append(np.full(wu * wv * n, step))
            const.append((base + step * moved[:, None] + np.arange(n)).ravel())
            start.append(start[-1] + wu * wv * n)
        self.width = start[-1]
        stride, const = np.concatenate(stride), np.concatenate(const)
        order = np.lexsort((const, stride))  # column order of the slots (see above)
        rank = np.empty_like(order)
        rank[order] = np.arange(self.width)
        self.col_stride, self.col_const = stride[order], const[order]
        # the place of every band row's point in the column grid
        self.first, self.shape = min(g[0] for g in self.row_groups), (n_rows, n_cols)
        point = np.arange(r_shape[0] * r_shape[1])
        iu, iv = np.divmod(point, r_shape[1])
        self.col_base = np.zeros(n_rows - self.first, dtype=np.int64)
        for base, step, n in self.row_groups:
            rows = base - self.first + step * point[:, None] + np.arange(n)
            self.col_base[rows] = (iu * c_shape[1] + iv)[:, None]
        # slot of every element-local pair (q, s) of each (row group, column group) piece
        au, av = np.divmod(np.arange(lu * lv), lv)
        bu, bv = np.divmod(np.arange(cu * cv), cv)
        pair = (bu - au[:, None] + lu - 1) * wv + bv - av[:, None] + lv - 1
        self.slots = {}
        for j, (_, _, nc) in enumerate(c_groups):
            slot = (start[j] + pair[:, :, None] * nc + np.arange(nc)).reshape(lu * lv, -1)
            for i, (_, _, nr) in enumerate(self.row_groups):
                self.slots[i, j] = rank[np.repeat(slot, nr, axis=0)]
        self.values = np.zeros((n_rows - self.first) * self.width)

    def add(self, points: np.ndarray, pieces) -> None:
        """Add a batch's blocks, given its row points (E, L) and the pieces
        (row group, column group, blocks (E, q, s)) of the block."""
        for i, j, block in pieces:
            base, step, n = self.row_groups[i]
            rows = (base - self.first + step * points)[:, :, None] + np.arange(n)
            keys = rows.reshape(len(points), -1, 1) * self.width + self.slots[i, j]
            np.add.at(self.values, keys.ravel(), block.ravel())

    def csr(self) -> sp.csr_matrix:
        """The block in patch-local ids, with sorted column ids."""
        nz = np.flatnonzero(self.values)
        row, slot = np.divmod(nz, self.width)
        cols = self.col_stride[slot] * self.col_base[row] + self.col_const[slot]
        counts = np.bincount(row, minlength=len(self.col_base))
        indptr = np.concatenate([np.zeros(self.first + 1, dtype=np.int64), np.cumsum(counts)])
        return sp.csr_matrix((self.values[nz], cols, indptr), shape=self.shape)


def _relabel(k: sp.csr_matrix, ids: np.ndarray, nd: int, rows: bool, cols: bool) -> sp.csr_matrix:
    """P^T k P on the sides asked for, sorted; P[i, ids[i]] = 1 takes a patch's d ids
    to the shared numbering (a single patch's ids are the shared ones)."""
    if not (rows or cols) or (len(ids) == nd and np.array_equal(ids, np.arange(nd))):
        return k
    p = sp.csr_matrix((np.ones(len(ids)), ids, np.arange(len(ids) + 1)), shape=(len(ids), nd))
    k = p.T.tocsr() @ k if rows else k
    k = k @ p if cols else k
    k.sort_indices()
    return k


def assemble_patches(
    discs: list,
    d_maps: list,
    nd: int,
    mat: PlateMaterial,
    scheme: str,
    boundary_d: np.ndarray,
    loads=(),
) -> MixedSystem:
    """Mixed system of several patches in a shared d numbering, with one load vector per load.

    d_maps[p] maps patch p's local d ids to global ones; shear ids stay
    patch-local, so every patch keeps its own shear blocks.  Each block is
    summed in its patch's band (see _Band) from the nonzero sub-blocks of
    the element matrices, the w and matching-rotation parts of a coupling
    block in one band, and then mapped into the shared numbering.  Every
    load is integrated in the same pass; f_d has one column per load.
    """
    f = np.zeros((nd, len(loads)))
    blocks = {key: [] for key in ("dd", "ds1", "ds2", "s1d", "s2d", "s11", "s22")}
    for disc, d_map in zip(discs, d_maps):
        side = _sides(disc)
        bands = {"dd": _Band(side["rot"], side["rot"])}
        for a in ("1", "2"):
            d, s = side["w_t" + a], side["s" + a]
            bands.update({"ds" + a: _Band(d, s), f"s{a}d": _Band(s, d), f"s{a}{a}": _Band(s, s)})
        for eu, ev in disc.chunks():
            k = _mixed_blocks(disc, mat, scheme, eu, ev)
            gi = k["gi"]
            bands["dd"].add(gi, [(0, 0, k["tt"])])
            for key in ("1", "2"):
                s = k[f"s{key}_idx"]
                bands["ds" + key].add(gi, [(0, 0, k[f"ds{key}_w"]), (1, 0, k[f"ds{key}_t"])])
                bands[f"s{key}d"].add(s, [(0, 0, k[f"s{key}d_w"]), (0, 1, k[f"s{key}d_t"])])
                bands[f"s{key}{key}"].add(s, [(0, 0, k[f"s{key}{key}"])])
            _add_loads(f, loads, d_map[gi], k["xy"], k["rw"])
        for key, band in bands.items():
            # d rows and d columns go to the shared numbering
            blocks[key].append(_relabel(band.csr(), d_map, nd, key[0] == "d", key[-1] == "d"))
    return MixedSystem(
        k_dd=sum(blocks["dd"][1:], blocks["dd"][0]),  # the sum drops entries that cancel to 0
        k_ds1=blocks["ds1"],
        k_ds2=blocks["ds2"],
        k_s1d=blocks["s1d"],
        k_s2d=blocks["s2d"],
        k_s11=blocks["s11"],
        k_s22=blocks["s22"],
        f_d=f,
        boundary_d=boundary_d,
        nd_full=nd,
    )


def assemble(
    disc: PatchDiscretization,
    mat: PlateMaterial,
    scheme: str,
    load=None,
) -> MixedSystem:
    """Assemble the patch-local mixed system with the batched element kernel."""
    disp = disc.spaces.disp
    boundary = np.sort(d_ids(boundary_point_ids(disp), disp.ndof))
    nd = disc.spaces.nd
    system = assemble_patches([disc], [np.arange(nd)], nd, mat, scheme, boundary, [load])
    return replace(system, f_d=system.f_d[:, 0])


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


def _primal_blocks(disc: PatchDiscretization, mat: PlateMaterial, eu, ev, bending=True) -> dict:
    """Primal blocks of a batch of elements: the kappa*G*t shear penalty 'shear' on all
    d ids, the bending block 'tt' on the rotations (None without `bending`) and the
    load quadrature 'xy' and 'rw' (see _add_loads)."""
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
    return {
        "gi": geo["gi"],
        "shear": mat.kgt * (_swap(bsw) @ bs.reshape(ne, 2 * nq, -1)),
        "tt": _bending(gx, gy, w_phys, mat.d_bend) if bending else None,
        "xy": geo["xy"],
        "rw": _swap(r * w_phys[..., None]),
    }


def assemble_primal_patches(
    discs: list, d_maps: list, nd: int, mat: PlateMaterial, bending: bool = True, loads=()
) -> tuple:
    """Standard irreducible form of several patches in a shared d numbering.

    Returns the kappa*G*t shear-penalty part, the bending part (None unless
    asked for) and the load vectors (nd, len(loads)); the primal matrix is
    the sum of the two parts.  All come from one pass of the batched kernel,
    each part summed in its own band; the bending part only from the
    rotation block, the one block where it is nonzero.  See
    assemble_patches for d_maps and the loads.
    """
    shear, bend = [], []
    f = np.zeros((nd, len(loads)))
    for disc, d_map in zip(discs, d_maps):
        side = _sides(disc)
        shear_band = _Band(side["d"], side["d"])
        bend_band = _Band(side["rot"], side["rot"]) if bending else None
        for eu, ev in disc.chunks():
            k = _primal_blocks(disc, mat, eu, ev, bending)
            gi, ks, n = k["gi"], k["shear"], k["gi"].shape[1]
            parts = ((0, slice(None, n)), (1, slice(n, None, 2)), (2, slice(n + 1, None, 2)))  # w, theta_1, theta_2
            # the theta_1-theta_2 pieces are exact zeros: no quadrature row of the penalty holds both
            pieces = [(i, j, ks[:, a, b]) for i, a in parts for j, b in parts if i == j or 0 in (i, j)]
            shear_band.add(gi, pieces)
            if bending:
                bend_band.add(gi, [(0, 0, k["tt"])])
            _add_loads(f, loads, d_map[gi], k["xy"], k["rw"])
        shear.append(_relabel(shear_band.csr(), d_map, nd, True, True))
        if bending:
            bend.append(_relabel(bend_band.csr(), d_map, nd, True, True))
    return sum(shear[1:], shear[0]), sum(bend[1:], bend[0]) if bending else None, f
