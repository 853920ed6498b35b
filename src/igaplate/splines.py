"""Uni- and bi-variate B-spline/NURBS bases, refinement and continuity tools.

All evaluations return only the nonzero basis block together with the index
of the first nonzero function, so downstream assembly stays sparse.  Knot
vectors are open (clamped); spans follow the half-open convention with the
last span closed at the right end of the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SplineError(Exception):
    """Base class for spline construction/evaluation errors."""


class DecreasingKnots(SplineError):
    pass


class NotOpen(SplineError):
    pass


class ExcessMultiplicity(SplineError):
    pass


class OutOfDomain(SplineError):
    pass


class MultiplicityOverflow(SplineError):
    pass


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector of a given degree.  Construct via validate_knot_vector."""

    values: np.ndarray
    degree: int

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.values) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def spans(self) -> list[tuple[int, float, float]]:
        """Nonempty spans as (span_index k, left, right) with U[k] < U[k+1]."""
        u = self.values
        out = []
        for k in range(self.degree, self.n):
            if u[k] < u[k + 1]:
                out.append((k, float(u[k]), float(u[k + 1])))
        return out

    def greville(self) -> np.ndarray:
        """Greville abscissae (knot averages)."""
        p = self.degree
        if p == 0:
            return 0.5 * (self.values[:-1] + self.values[1:])
        out = np.empty(self.n)
        for i in range(self.n):
            out[i] = self.values[i + 1 : i + p + 1].mean()
        return out

    def __len__(self) -> int:
        return len(self.values)


def validate_knot_vector(values, degree: int) -> KnotVector:
    """Check ordering, openness and multiplicity limits; return a KnotVector."""
    p = int(degree)
    if p < 0:
        raise SplineError(f"degree must be non-negative, got {p}")
    u = np.asarray(values, dtype=float).copy()
    if u.ndim != 1 or len(u) < 2:
        raise NotOpen("knot vector needs at least two entries")
    if np.any(np.diff(u) < 0):
        i = int(np.argmax(np.diff(u) < 0))
        raise DecreasingKnots(f"knots decrease between positions {i} and {i + 1}")
    if len(u) < 2 * (p + 1):
        raise NotOpen(f"knot vector of degree {p} needs at least {2 * (p + 1)} entries")
    if not (np.all(u[: p + 1] == u[0]) and u[p + 1] > u[0]):
        raise NotOpen(f"first knot must repeat exactly {p + 1} times")
    if not (np.all(u[-(p + 1) :] == u[-1]) and u[-(p + 2)] < u[-1]):
        raise NotOpen(f"last knot must repeat exactly {p + 1} times")
    vals, counts = np.unique(u[p + 1 : -(p + 1)], return_counts=True)
    if np.any(counts > p + 1):
        j = int(np.argmax(counts > p + 1))
        raise ExcessMultiplicity(
            f"interior knot {vals[j]} has multiplicity {counts[j]} > {p + 1}"
        )
    u.setflags(write=False)
    return KnotVector(values=u, degree=p)


def basis_table(kv: KnotVector, xs, nderiv: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Cox-de Boor values and derivatives of the nonzero B-splines at many points.

    One vectorised pass over all points.  Returns (first, ders): first[k] is
    the index of the first of the p+1 functions that are nonzero at xs[k],
    ders[k] (nderiv+1, p+1) holds their values (row 0) and derivatives.
    Spans are half-open, with the last nonempty span closed.
    """
    u = kv.values
    p = kv.degree
    if nderiv > p:
        raise SplineError(f"nderiv={nderiv} exceeds degree {p}")
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    lo, hi = kv.domain
    outside = (x < lo - 1e-14) | (x > hi + 1e-14)
    if outside.any():
        raise OutOfDomain(f"{x[outside][0]} outside parametric domain [{lo}, {hi}]")
    # open knot vectors make u[span] < u[span + 1] for every clipped index
    span = np.searchsorted(u, np.clip(x, lo, hi), side="right") - 1
    span = np.clip(span, p, kv.n - 1)

    ndu = np.empty((p + 1, p + 1) + x.shape)
    left = np.empty((p + 1,) + x.shape)
    right = np.empty((p + 1,) + x.shape)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - u[span + 1 - j]
        right[j] = u[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nderiv + 1, p + 1) + x.shape)
    ders[0] = ndu[:, p]
    if nderiv > 0:
        a = np.empty((2, p + 1) + x.shape)
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for k in range(1, nderiv + 1):
                d = 0.0
                rk = r - k
                pk = p - k
                if r >= k:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    d = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    d = d + a[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                    d = d + a[s2, k] * ndu[r, pk]
                ders[k, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, nderiv + 1):
            ders[k] *= fac
            fac *= p - k
    return span - p, np.moveaxis(ders, -1, 0)


@dataclass(frozen=True)
class BasisEval:
    """Nonzero 1D basis block: functions first..first+p at one point."""

    first: int
    ders: np.ndarray  # (nderiv+1, p+1)

    @property
    def values(self) -> np.ndarray:
        return self.ders[0]


def eval_basis_1d(kv: KnotVector, x: float, nderiv: int = 0) -> BasisEval:
    """Values (and derivatives) of the p+1 B-splines that are nonzero at x."""
    first, ders = basis_table(kv, [x], nderiv)
    return BasisEval(first=int(first[0]), ders=ders[0])


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlNet:
    """Control points (n, m, 3) and positive weights (n, m); i runs along xi."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != 3:
            raise SplineError("control points must have shape (n, m, 3)")
        if w.shape != pts.shape[:2]:
            raise SplineError("weight grid must match control point grid")
        if np.any(w <= 0):
            raise SplineError("control weights must be strictly positive")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.points.shape[:2]


@dataclass(frozen=True)
class SurfacePatch:
    """Tensor-product NURBS surface: two knot vectors and a control net."""

    knots_u: KnotVector
    knots_v: KnotVector
    net: ControlNet

    def __post_init__(self):
        if self.net.shape != (self.knots_u.n, self.knots_v.n):
            raise SplineError(
                f"net shape {self.net.shape} does not match basis counts "
                f"({self.knots_u.n}, {self.knots_v.n})"
            )

    @property
    def degrees(self) -> tuple[int, int]:
        return self.knots_u.degree, self.knots_v.degree

    def homogeneous(self) -> np.ndarray:
        """Control data in homogeneous form (n, m, 4): (w*x, w*y, w*z, w)."""
        w = self.net.weights[..., None]
        return np.concatenate([self.net.points * w, w], axis=2)


def _patch_from_homogeneous(kv_u: KnotVector, kv_v: KnotVector, pw: np.ndarray) -> SurfacePatch:
    w = pw[..., 3]
    pts = pw[..., :3] / w[..., None]
    return SurfacePatch(kv_u, kv_v, ControlNet(points=pts, weights=w))


@dataclass(frozen=True)
class BasisEval2D:
    """Nonzero bivariate NURBS block at one parametric point."""

    first_u: int
    first_v: int
    values: np.ndarray  # (p+1, q+1) NURBS values R_ij
    grad_xi: np.ndarray
    grad_eta: np.ndarray
    weight: float  # W(xi, eta)


@dataclass(frozen=True)
class SurfaceEval:
    basis: BasisEval2D
    point: np.ndarray  # (3,)
    jac: np.ndarray  # (2,2) d(x,y)/d(xi,eta)
    det_jac: float


def eval_surface(patch: SurfacePatch, xi: float, eta: float, nderiv: int = 1) -> SurfaceEval:
    """Evaluate NURBS basis, surface point and Jacobian at (xi, eta)."""
    bu = eval_basis_1d(patch.knots_u, xi, min(nderiv, 1))
    bv = eval_basis_1d(patch.knots_v, eta, min(nderiv, 1))
    p, q = patch.degrees
    iu, iv = bu.first, bv.first
    wloc = patch.net.weights[iu : iu + p + 1, iv : iv + q + 1]
    ploc = patch.net.points[iu : iu + p + 1, iv : iv + q + 1]

    nn = np.outer(bu.values, bv.values)  # bivariate B-spline values
    wn = nn * wloc
    W = wn.sum()
    if nderiv >= 1:
        nn_xi = np.outer(bu.ders[1], bv.values)
        nn_eta = np.outer(bu.values, bv.ders[1])
        W_xi = (nn_xi * wloc).sum()
        W_eta = (nn_eta * wloc).sum()
    else:
        nn_xi = nn_eta = np.zeros_like(nn)
        W_xi = W_eta = 0.0

    R = wn / W
    R_xi = (nn_xi * wloc - R * W_xi) / W
    R_eta = (nn_eta * wloc - R * W_eta) / W

    point = np.einsum("ij,ijk->k", R, ploc)
    jac = np.empty((2, 2))
    jac[:, 0] = np.einsum("ij,ijk->k", R_xi, ploc)[:2]
    jac[:, 1] = np.einsum("ij,ijk->k", R_eta, ploc)[:2]
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])

    basis = BasisEval2D(
        first_u=iu,
        first_v=iv,
        values=R,
        grad_xi=R_xi,
        grad_eta=R_eta,
        weight=float(W),
    )
    return SurfaceEval(basis=basis, point=point, jac=jac, det_jac=det)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _insert_knot_curve(u: np.ndarray, p: int, pw: np.ndarray, x: float):
    """Boehm single-knot insertion on homogeneous control rows (n, ...)."""
    n = len(u) - p - 1
    k = int(np.searchsorted(u, x, side="right")) - 1
    k = min(max(k, p), n - 1)
    new = np.empty((n + 1,) + pw.shape[1:])
    new[: k - p + 1] = pw[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        denom = u[i + p] - u[i]
        alpha = (x - u[i]) / denom if denom > 0 else 0.0
        new[i] = alpha * pw[i] + (1.0 - alpha) * pw[i - 1]
    new[k + 1 :] = pw[k:]
    return np.insert(u, k + 1, x), new


def insert_knots(patch: SurfacePatch, new_knots_u=(), new_knots_v=()) -> SurfacePatch:
    """Insert knots in either direction; the surface itself is unchanged."""
    p, q = patch.degrees
    kv_u, kv_v = patch.knots_u, patch.knots_v
    pw = patch.homogeneous()

    for direction, new_knots in (("u", new_knots_u), ("v", new_knots_v)):
        kv = kv_u if direction == "u" else kv_v
        deg = kv.degree
        lo, hi = kv.domain
        u = kv.values.copy()
        data = pw if direction == "u" else np.swapaxes(pw, 0, 1)
        for x in sorted(float(x) for x in new_knots):
            if not (lo < x < hi):
                raise OutOfDomain(f"inserted knot {x} must lie strictly inside ({lo}, {hi})")
            if np.sum(np.abs(u - x) < 1e-14) + 1 > deg:
                raise MultiplicityOverflow(
                    f"inserting {x} would exceed interior multiplicity {deg}"
                )
            u, data = _insert_knot_curve(u, deg, data, x)
        if direction == "u":
            kv_u = validate_knot_vector(u, deg)
            pw = data
        else:
            kv_v = validate_knot_vector(u, deg)
            pw = np.swapaxes(data, 0, 1)

    return _patch_from_homogeneous(kv_u, kv_v, pw)


def _elevated_knots(kv: KnotVector, dp: int) -> KnotVector:
    """Knot vector of degree p+dp with the same continuity at every knot."""
    vals, counts = np.unique(kv.values, return_counts=True)
    new = []
    for x, c in zip(vals, counts):
        mult = c + dp
        new.extend([x] * mult)
    return validate_knot_vector(np.array(new), kv.degree + dp)


def _transfer_curve(kv_old: KnotVector, kv_new: KnotVector, data: np.ndarray) -> np.ndarray:
    """Re-express curves from kv_old in kv_new (a superspace) exactly.

    Interpolates at the Greville abscissae of kv_new; since each homogeneous
    component already lies in the target space, the result is exact up to
    solver round-off.
    """
    g = kv_new.greville()
    a, b = np.zeros((len(g), kv_new.n)), np.zeros((len(g), kv_old.n))
    for m, kv in ((a, kv_new), (b, kv_old)):
        first, ders = basis_table(kv, g)
        m[np.arange(len(g))[:, None], first[:, None] + np.arange(kv.degree + 1)] = ders[:, 0]
    rhs = b @ data.reshape(kv_old.n, -1)
    coef = np.linalg.solve(a, rhs)
    return coef.reshape((kv_new.n,) + data.shape[1:])


def elevate_degree(patch: SurfacePatch, dp: int, dq: int) -> SurfacePatch:
    """Raise degrees by (dp, dq), preserving geometry and continuity."""
    if dp < 0 or dq < 0:
        raise SplineError("degree increments must be non-negative")
    if dp == 0 and dq == 0:
        return patch
    pw = patch.homogeneous()
    kv_u, kv_v = patch.knots_u, patch.knots_v
    if dp > 0:
        kv_new = _elevated_knots(kv_u, dp)
        pw = _transfer_curve(kv_u, kv_new, pw)
        kv_u = kv_new
    if dq > 0:
        kv_new = _elevated_knots(kv_v, dq)
        pw = np.swapaxes(_transfer_curve(kv_v, kv_new, np.swapaxes(pw, 0, 1)), 0, 1)
        kv_v = kv_new
    return _patch_from_homogeneous(kv_u, kv_v, pw)


def continuity_profile(kv: KnotVector) -> list[tuple[float, int, int]]:
    """(knot value, multiplicity c, continuity p-c) per distinct interior knot."""
    p = kv.degree
    interior = kv.values[p + 1 : -(p + 1)]
    vals, counts = np.unique(interior, return_counts=True)
    return [(float(x), int(c), p - int(c)) for x, c in zip(vals, counts)]
