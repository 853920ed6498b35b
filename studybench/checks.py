"""Correctness checks on the cells of one pass.

The checks test properties the method must have (optimal rates, locking,
plain lumping's second-order cap, the thin-plate limit) and, on the
`undistorted` geometry, recompute the L2 error apart from the solver: basis
values from `scipy.interpolate.BSpline`, a Gauss rule and the closed-form
deflection are all evaluated here.  A check that fails marks its cell as
failed; a rate or ratio check counts against the finest cell of its
sequence.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import cell_key

RATE_SLACK_BELOW = 0.5  # finest rate of mxd/ead at least p + 1 - 0.5
RATE_SLACK_ABOVE = 2.0  # and at most p + 1 + 2 (pre-asymptotic rates overshoot)
EAD_MXD_FACTOR = 3.0  # ead error within [1/3, 3] x mxd error on the same cell
LMP_RATE = (1.5, 2.5)  # plain lumping's second-order cap at t = 1
LMP_GAP = 20.0  # lmp error at least 20 x mxd error at t = 1
STD_LOCK_T = 1e-4  # std locks at this thickness and below ...
STD_LOCK_GAP = 100.0  # ... with an error at least 100 x that of mxd
LUMP_DEV_MAX = 1e-10  # transformed shear row sums on unit-weight geometries
THIN_PAIR_REL = 0.05  # thin-plate pair errors agree within 5 %
L2_REL_TOL = 1e-9  # independent L2 error against bench.l2_error

# material and load of bench.BenchmarkProblem
NU = 0.3
F0 = 100.0


class L2Capture:
    """Wraps `bench.l2_error` to keep what the checks need from each solution.

    It copies a few diagnostics and, on `undistorted`, the deflection
    coefficients and knot vectors; the solution itself is not kept, so the
    pass's memory use is unchanged.
    """

    def __init__(self):
        self.records = []
        self._bench = None
        self._original = None

    def install(self):
        from igaplate import bench

        self._bench = bench
        self._original = original = bench.l2_error

        def l2_error(solution, problem, reference=None):
            value = original(solution, problem, reference)
            self.records.append(_capture(solution, problem, value))
            return value

        bench.l2_error = l2_error
        return self

    def uninstall(self):
        if self._bench is not None:
            self._bench.l2_error = self._original
            self._bench = None


def _capture(solution, problem, value) -> dict:
    cfg = solution.config
    diag = solution.diagnostics
    ctx = solution.ctx
    rec = {
        "key": cell_key(cfg.variant, cfg.degree, cfg.thickness, cfg.level),
        "l2": value,
        "n_dof_primal": diag["n_dof_primal"],
        "n_dof_solved": diag["n_dof_solved"],
        "lump_dev": diag["lump_dev"],
        "unit_weights": all(bool(np.all(p.net.weights == 1.0)) for p in ctx.coarse.patches),
    }
    if problem.geometry == "undistorted":
        disp = ctx.spaces[0].disp
        rec["knots_u"] = disp.kv_u.values.copy()
        rec["knots_v"] = disp.kv_v.values.copy()
        rec["coeffs"] = solution.patch_w_coeffs(0).copy()
    return rec


# ---------------------------------------------------------------------------
# independent L2 error on the undistorted unit square
# ---------------------------------------------------------------------------


def closed_form_w(x, y, t):
    """Deflection of the clamped unit square under the benchmark load."""
    gx = x * (x - 1.0)
    gy = y * (y - 1.0)
    hx = 5.0 * x * x - 5.0 * x + 1.0
    hy = 5.0 * y * y - 5.0 * y + 1.0
    bending = (gx * gy) ** 3 / 3.0
    shear = gx * gy**3 * hx + gx**3 * gy * hy
    return F0 * (bending - 2.0 * t * t / (5.0 * (1.0 - NU)) * shear)


def uniform_knots(degree: int, level: int) -> np.ndarray:
    """Open uniform knot vector with 2**level spans on [0, 1]."""
    n = 2**level
    return np.concatenate([np.zeros(degree + 1), np.arange(1, n) / n, np.ones(degree + 1)])


def independent_l2(coeffs, degree: int, level: int, t: float) -> float:
    """L2 deflection error with (p+3)^2 Gauss points per element, as l2_error documents.

    The unit square is its own parameter domain, so x = u and y = v.
    Coefficients are ordered u-major, as `VariantSolution.patch_w_coeffs`.
    """
    from scipy.interpolate import BSpline

    n = 2**level
    knots = uniform_knots(degree, level)
    xg, wg = np.polynomial.legendre.leggauss(degree + 3)
    starts = np.arange(n) / n
    pts = (starts[:, None] + (xg[None, :] + 1.0) / (2.0 * n)).ravel()
    wts = np.tile(wg / (2.0 * n), n)
    basis = BSpline.design_matrix(pts, knots, degree).toarray()
    c = np.asarray(coeffs, dtype=float).reshape(basis.shape[1], basis.shape[1])
    wh = basis @ c @ basis.T
    xx, yy = np.meshgrid(pts, pts, indexing="ij")
    err = wh - closed_form_w(xx, yy, t)
    return math.sqrt(float(wts @ (err * err) @ wts))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def merge_captures(cells, captures) -> list[str]:
    """Attach each capture to its cell; returns problems found while matching."""
    problems = []
    solved = [c for c in cells if c["error"] is None]
    if len(solved) != len(captures):
        return [f"{len(captures)} L2 evaluations for {len(solved)} solved cells"]
    for cell, cap in zip(solved, captures):
        if cap["key"] != cell["key"]:
            problems.append(f"cell {cell['key']} evaluated as {cap['key']}")
        elif cap["l2"] != cell["l2"]:
            problems.append(f"cell {cell['key']}: reported L2 {cell['l2']!r} != {cap['l2']!r}")
        else:
            cell.update({k: v for k, v in cap.items() if k not in ("key", "l2")})
    return problems


def check_cells(cells, thin_pair=None) -> dict:
    """Failure messages per cell key (an empty list means the cell passed)."""
    fails = {c["key"]: [] for c in cells}
    by_key = {c["key"]: c for c in cells}

    for c in cells:
        variant, p, t, level = c["key"]
        msgs = fails[c["key"]]
        if c["error"] is not None:
            msgs.append(f"raised {c['error']}")
            continue
        if not (isinstance(c["l2"], float) and math.isfinite(c["l2"]) and c["l2"] > 0):
            msgs.append(f"L2 error {c['l2']!r} is not a positive number")
            continue
        if "n_dof_solved" not in c:
            msgs.append("no L2 evaluation was captured")
            continue
        if variant in ("lmp", "ad", "ead") and c["n_dof_solved"] != c["n_dof_primal"]:
            msgs.append(f"condensed size {c['n_dof_solved']} != primal size {c['n_dof_primal']}")
        if variant in ("ad", "ead") and c["unit_weights"]:
            if c["lump_dev"] is None or not c["lump_dev"] <= LUMP_DEV_MAX:
                msgs.append(f"lump_dev {c['lump_dev']!r} > {LUMP_DEV_MAX}")
        if "coeffs" in c:
            own = uniform_knots(p, level)
            if not (np.array_equal(own, c["knots_u"]) and np.array_equal(own, c["knots_v"])):
                msgs.append("refined knot vectors are not the uniform ones")
            else:
                ref = independent_l2(c["coeffs"], p, level, t)
                if not abs(ref - c["l2"]) <= L2_REL_TOL * ref:
                    msgs.append(f"L2 error {c['l2']:.6e} != independent {ref:.6e}")

    finest = {}
    for c in cells:
        variant, p, t, level = c["key"]
        seq = (variant, p, t)
        if seq not in finest or level > finest[seq]["key"][3]:
            finest[seq] = c

    def ok(c):
        return c is not None and c["error"] is None and not fails[c["key"]]

    for (variant, p, t), c in finest.items():
        msgs = fails[c["key"]]
        if not ok(c):
            continue
        rate = c["rate"]
        mxd = finest.get(("mxd", p, t))
        mxd = mxd if mxd is not None and mxd["key"][3] == c["key"][3] and ok(mxd) else None
        if variant in ("mxd", "ead") and rate is not None:
            lo, hi = p + 1 - RATE_SLACK_BELOW, p + 1 + RATE_SLACK_ABOVE
            if not lo <= rate <= hi:
                msgs.append(f"finest rate {rate:.3f} outside [{lo}, {hi}]")
        if variant == "ead" and mxd is not None:
            ratio = c["l2"] / mxd["l2"]
            if not 1.0 / EAD_MXD_FACTOR <= ratio <= EAD_MXD_FACTOR:
                msgs.append(f"error {ratio:.3g} x that of mxd, outside factor {EAD_MXD_FACTOR}")
        if variant == "lmp" and t == 1.0 and mxd is not None:
            if rate is None or not LMP_RATE[0] <= rate <= LMP_RATE[1]:
                msgs.append(f"lmp finest rate {rate} outside {LMP_RATE}")
            if not c["l2"] >= LMP_GAP * mxd["l2"]:
                msgs.append(f"lmp error only {c['l2'] / mxd['l2']:.3g} x that of mxd")
        if variant == "std" and t <= STD_LOCK_T and mxd is not None:
            if not c["l2"] >= STD_LOCK_GAP * mxd["l2"]:
                msgs.append(f"std does not lock: error {c['l2'] / mxd['l2']:.3g} x that of mxd")

    if thin_pair is not None:
        thick, thin = (by_key.get(k) for k in thin_pair)
        if thin is not None and ok(thin):
            if thick is None or not ok(thick):
                fails[thin["key"]].append("thin-plate reference cell failed")
            else:
                rel = abs(thin["l2"] - thick["l2"]) / thick["l2"]
                if not rel <= THIN_PAIR_REL:
                    fails[thin["key"]].append(
                        f"thin-plate pair differs by {100 * rel:.3g} % "
                        f"({thick['l2']:.4e} vs {thin['l2']:.4e})"
                    )
    return fails
