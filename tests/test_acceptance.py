"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Solves are cached across criteria; the whole module is a desk-scale run
(meshes up to 64x64, degrees up to 3) that exercises the full pipeline on
every catalog geometry.
"""

import math
import time

import numpy as np
import pytest

from igaplate.bench import (
    BenchmarkProblem,
    geometry_catalog,
    l2_error,
    run_single,
)
from igaplate.condense import (
    SolveConfig,
    assemble_mixed,
    build_transforms,
    condense,
    pg_transform,
    prepare_problem,
    solve_variant,
)
from igaplate.duals import (
    dual_transform_1d,
    gram_matrix,
    basis_moments,
)
from igaplate.plate import PatchDiscretization, apply_clamped_bc, assemble, build_field_spaces
from igaplate.sparse import DirectSolver, solve_direct
from oracles import least_squares_rate, pg_shear_rows_elementwise
from igaplate.splines import eval_basis_1d, insert_knots, validate_knot_vector

_cells: dict = {}
_assemblies: dict = {}
_problems: dict = {}


def _assembly(geom):
    if geom not in _assemblies:
        _assemblies[geom] = geometry_catalog(geom)
    return _assemblies[geom]


def _problem(geom, t):
    key = (geom, t)
    if key not in _problems:
        _problems[key] = BenchmarkProblem(geom, thickness=t)
    return _problems[key]


def cell(geom, variant, p, t, level, **kw):
    """One study cell (cached): returns (l2 error, diagnostics)."""
    key = (geom, variant, p, t, level, tuple(sorted(kw.items())))
    if key not in _cells:
        cfg = SolveConfig(variant=variant, degree=p, level=level, thickness=t, **kw)
        sol, err = run_single(_assembly(geom), _problem(geom, t), cfg)
        _cells[key] = (err, sol.diagnostics)
    return _cells[key]


def errors_over(geom, variant, p, t, levels, **kw):
    return [cell(geom, variant, p, t, lv, **kw)[0] for lv in levels]


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_1_optimal_rates_full_continuity():
    details = []
    ok = True
    for p in (2, 3):
        errs = errors_over("undistorted", "ead", p, 0.01, (1, 2, 3, 4, 5))
        slope = least_squares_rate(errs, last=3)
        details.append(f"p={p} slope={slope:.2f} (need >= {p + 0.8})")
        ok = ok and slope >= p + 0.8
        # monotone convergence on full-continuity meshes
        ok = ok and all(a > b for a, b in zip(errs, errs[1:]))
    check("criterion 1 (optimal rates, ead, undistorted, t=0.01)", ok, "; ".join(details))


def test_criterion_2_locking_evidence():
    e_std = errors_over("undistorted", "std", 2, 0.0001, (2, 3, 4))
    e_mxd = cell("undistorted", "mxd", 2, 0.0001, 4)[0]
    ratio = e_std[-1] / e_mxd
    plateau = least_squares_rate(e_std, last=3)
    ok = ratio >= 100.0 and plateau <= 0.5
    check(
        "criterion 2 (std locking, t=0.0001, p=2)",
        ok,
        f"std/mxd error ratio={ratio:.1f} (need >= 100), std rate lv2..4={plateau:.2f} (need <= 0.5)",
    )


def test_criterion_3_nurbs_lumping_plateau():
    # Plain lumping (without the dual transform) loses the mixed method's
    # optimal rate.  Inverting the shear row sums reproduces constant shear
    # exactly, so lmp is a consistent quasi-interpolation capped at second
    # order, not a stall: its finest rate must lie in [1.5, 2.5] and its error
    # must stay at least 100x above mxd, whose rate stays near p + 1 = 4.
    e_lmp = errors_over("undistorted", "lmp", 3, 1.0, (1, 2, 3, 4, 5))
    e_mxd = errors_over("undistorted", "mxd", 3, 1.0, (1, 2, 3, 4, 5))
    rate_lmp = math.log2(e_lmp[-2] / e_lmp[-1])
    rate_mxd = math.log2(e_mxd[-2] / e_mxd[-1])
    gap = e_lmp[-1] / e_mxd[-1]
    ok_mxd = rate_mxd >= 3.5
    ok_lmp = 1.5 <= rate_lmp <= 2.5 and gap >= 100.0
    check(
        "criterion 3 (lmp second-order cap vs mxd, undistorted, t=1, p=3)",
        ok_lmp and ok_mxd,
        f"lmp rate={rate_lmp:.2f} (need in [1.5,2.5]), mxd rate={rate_mxd:.2f} (need >= 3.5), "
        f"lmp/mxd error gap={gap:.0f}x (need >= 100)",
    )


def test_criterion_4_c0_degradation_and_cure():
    # ad's slope is measured over levels 2..4 (8..32 elements per direction,
    # where its ~1.5 plateau is established before drifting lower); ead over
    # the finest three levels.
    details = []
    ok = True
    for p in (2, 3):
        e_ad = errors_over("c0_single", "ad", p, 1.0, (2, 3, 4))
        e_ead = errors_over("c0_single", "ead", p, 1.0, (3, 4, 5))
        s_ad = least_squares_rate(e_ad, last=3)
        s_ead = least_squares_rate(e_ead, last=3)
        details.append(
            f"p={p}: ad slope={s_ad:.2f} (need in [1.1,1.9]), ead slope={s_ead:.2f} (need >= {p + 0.8})"
        )
        ok = ok and 1.1 <= s_ad <= 1.9 and s_ead >= p + 0.8
    check("criterion 4 (C0 geometry: ad degrades, ead cures, t=1)", ok, "; ".join(details))


def test_criterion_5_c1_cure_hierarchy():
    levels = (1, 2, 3, 4, 5)
    e_ad0 = errors_over("c1_single", "ad", 3, 1.0, levels, continuity_reduction=False)
    e_ad = errors_over("c1_single", "ad", 3, 1.0, levels)
    e_ead = errors_over("c1_single", "ead", 3, 1.0, levels)
    slope = least_squares_rate(e_ead, last=3)
    ok = e_ad0[-1] > e_ad[-1] > e_ead[-1] and slope >= 3.8
    check(
        "criterion 5 (C1 geometry hierarchy, t=1, p=3)",
        ok,
        f"finest errors ad0={e_ad0[-1]:.2e} > ad={e_ad[-1]:.2e} > ead={e_ead[-1]:.2e}, "
        f"ead slope={slope:.2f} (need >= 3.8)",
    )


def test_criterion_6_dual_equivalence_smooth_patches():
    worst = 0.0
    for geom in ("undistorted", "nurbs_distorted"):
        pa = _assembly(geom)
        prob = _problem(geom, 0.1)
        for level in (1, 2, 3, 4):
            sols = {}
            for variant in ("ad", "ead"):
                cfg = SolveConfig(variant=variant, degree=3, level=level, thickness=0.1)
                sols[variant] = solve_variant(pa, cfg, load=prob.load)
            a, b = sols["ad"].d_full, sols["ead"].d_full
            scale = max(np.abs(a).max(), 1e-30)
            worst = max(worst, np.abs(a - b).max() / scale)
    check(
        "criterion 6 (ad == ead on full-continuity geometries)",
        worst <= 1e-12,
        f"max relative solution difference={worst:.2e} (need <= 1e-12)",
    )


def test_criterion_7_weight_dropping():
    details = []
    ok = True
    for geom, levels in (("nurbs_distorted", (1, 2, 3, 4)), ("mp_various", (1, 2, 3))):
        for t in (0.01, 0.0001):
            worst = 0.0
            for level in levels:
                e_n = cell(geom, "ead", 2, t, level, shear_weighting="nurbs")[0]
                e_b = cell(geom, "ead", 2, t, level, shear_weighting="bspline")[0]
                worst = max(worst, abs(e_b - e_n) / e_n)
            details.append(f"{geom} t={t}: max dev={100 * worst:.2f}%")
            ok = ok and worst <= 0.05
    check("criterion 7 (B-spline vs NURBS shear weights within 5%)", ok, "; ".join(details))


def _uniform_mesh_spaces(n_elems, p):
    patch = geometry_catalog("undistorted").patches[0]
    if n_elems > 1:
        knots = [k / n_elems for k in range(1, n_elems)]
        patch = insert_knots(patch, knots, knots)
    return build_field_spaces(patch, p, level=0)


def test_criterion_8a_schur_equivalence():
    worst = 0.0
    mat_cfg = SolveConfig(variant="mxd", degree=2, level=0, thickness=0.1)
    for p in (2, 3):
        for n_elems in (1, 2, 3, 4):
            spaces = _uniform_mesh_spaces(n_elems, p)
            disc = PatchDiscretization(spaces)
            mat = mat_cfg.make_material()
            prob = _problem("undistorted", 0.1)
            system = assemble(disc, mat, "galerkin", prob.load)
            constrained, _ = apply_clamped_bc(system)
            if constrained.nd == 0:
                continue
            a, rhs = constrained.monolithic()
            mono = solve_direct(a, rhs)[: constrained.nd]
            cond = condense(constrained, lumped=False)
            d = solve_direct(cond.k_cond, cond.f_d)
            worst = max(worst, np.abs(d - mono).max() / max(np.abs(mono).max(), 1e-30))
    check(
        "criterion 8a (Schur equivalence on 1x1..4x4 meshes)",
        worst <= 1e-10,
        f"max relative deviation={worst:.2e} (need <= 1e-10)",
    )


def test_criterion_8b_lumping_identity_rowsums():
    worst = 0.0
    for geom in ("undistorted", "nurbs_distorted"):
        for level in (2, 3):
            _, diag = cell(geom, "ead", 2, 0.01, level, shear_weighting="bspline")
            worst = max(worst, diag["lump_dev"])
    check(
        "criterion 8b (transformed shear row sums = 1, B-spline weighting)",
        worst <= 1e-8,
        f"max |rowsum - 1|={worst:.2e} (need <= 1e-8)",
    )


def test_criterion_8c_elementwise_vs_global_transform():
    pa = _assembly("nurbs_distorted")
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=0.1)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    disc = ctx.discs[0]
    system = assemble(disc, mat, "weighted")
    t1s, t2s = build_transforms(ctx)
    global_path = pg_transform(system, t1s, t2s)
    e_s1d, e_s2d, e_s11, e_s22 = pg_shear_rows_elementwise(disc, mat, t1s[0], t2s[0])
    worst = 0.0
    for a, b in (
        (e_s1d, global_path.k_s1d[0]),
        (e_s2d, global_path.k_s2d[0]),
        (e_s11, global_path.k_s11[0]),
        (e_s22, global_path.k_s22[0]),
    ):
        scale = max(1.0, np.abs(b.toarray()).max())
        worst = max(worst, np.abs((a - b).toarray()).max() / scale)
    check(
        "criterion 8c (element-wise vs global PG transform)",
        worst <= 1e-12,
        f"max relative block deviation={worst:.2e} (need <= 1e-12)",
    )


def test_criterion_8d_exact_solution_strong_form():
    import sympy as sm

    x, y = sm.symbols("x y")
    t_val = sm.Rational(1, 10)
    nu = sm.Rational(3, 10)
    e_mod, f0, kappa = 10000, 100, sm.Rational(5, 6)
    g_mod = e_mod / (2 * (1 + nu))
    kgt = kappa * g_mod * t_val
    d_fac = e_mod * t_val**3 / (12 * (1 - nu**2))

    f1h = x * (x - 1) * (5 * y**2 - 5 * y + 1)
    f2h = y * (y - 1) * (5 * x**2 - 5 * x + 1)
    load = f0 * d_fac * (
        12 * f2h * (2 * y**2 * (y - 1) ** 2 + f1h)
        + 12 * f1h * (2 * x**2 * (x - 1) ** 2 + f2h)
    )
    w0 = x**3 * (x - 1) ** 3 * y**3 * (y - 1) ** 3 / 3
    w1 = y**2 * (y - 1) ** 2 * x * (x - 1) * f2h
    w2 = x**2 * (x - 1) ** 2 * y * (y - 1) * f1h
    w = f0 * (w0 - 2 * t_val**2 / (5 * (1 - nu)) * (w1 + w2))
    th1, th2 = f0 * sm.diff(w0, x), f0 * sm.diff(w0, y)
    s1 = kgt * (sm.diff(w, x) - th1)
    s2 = kgt * (sm.diff(w, y) - th2)
    m1 = d_fac * (sm.diff(th1, x) + nu * sm.diff(th2, y))
    m2 = d_fac * (nu * sm.diff(th1, x) + sm.diff(th2, y))
    m12 = d_fac * (1 - nu) / 2 * (sm.diff(th1, y) + sm.diff(th2, x))

    r_w = sm.lambdify((x, y), sm.diff(s1, x) + sm.diff(s2, y) + load)
    r_t1 = sm.lambdify((x, y), sm.diff(m1, x) + sm.diff(m12, y) + s1)
    r_t2 = sm.lambdify((x, y), sm.diff(m12, x) + sm.diff(m2, y) + s2)
    load_fn = sm.lambdify((x, y), load)

    rng = np.random.default_rng(2024)
    pts = rng.random((100, 2))
    scale = max(abs(load_fn(float(a), float(b))) for a, b in pts)
    worst = 0.0
    for a, b in pts:
        worst = max(
            worst,
            abs(r_w(float(a), float(b))) / scale,
            abs(r_t1(float(a), float(b))) / scale,
            abs(r_t2(float(a), float(b))) / scale,
        )
    check(
        "criterion 8d (closed-form solution satisfies the strong form)",
        worst <= 1e-8,
        f"max relative residual at 100 random points={worst:.2e} (need <= 1e-8)",
    )


def test_criterion_9_dual_basis_unit_properties():
    rng = np.random.default_rng(7)
    worst_repro = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 5))
        n_int = int(rng.integers(0, 5))
        interior = np.sort(rng.choice(np.arange(1, 20) * 0.05, size=n_int, replace=False))
        vals = [0.0] * (p + 1) + list(interior) + [1.0] * (p + 1)
        kv = validate_knot_vector(vals, p)
        s = dual_transform_1d(kv, p, "AD")
        xs = np.linspace(0, 1, 50)
        for k in range(p + 1):
            coeffs = s.matrix @ basis_moments(kv, lambda t, k=k: t**k)
            for xx in xs:
                be = eval_basis_1d(kv, float(xx))
                val = be.values @ coeffs[be.first : be.first + p + 1]
                worst_repro = max(worst_repro, abs(val - xx**k))
    ok_repro = worst_repro <= 1e-8

    worst_bern = 0.0
    for p in (1, 2, 3, 4):
        kv = validate_knot_vector([0.0] * (p + 1) + [1.0] * (p + 1), p)
        s = dual_transform_1d(kv, p, "AD")
        worst_bern = max(
            worst_bern, np.abs(s.matrix - np.linalg.inv(gram_matrix(kv))).max()
        )
    ok_bern = worst_bern <= 1e-10

    worst_broken = 0.0
    cases = [
        ([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2, 0.5, (1, 2)),  # C0 knot, p=2
        ([0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1], 3, 0.5, (2, 3)),  # C1 knot, p=3
        ([0, 0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1, 1], 3, 0.5, (1, 2, 3)),  # C0 knot, p=3
    ]
    for vals, p, xhat, orders in cases:
        kv = validate_knot_vector(vals, p)
        s = dual_transform_1d(kv, p, "eAD")
        xs = np.linspace(0, 1, 50)
        for k in orders:
            f = lambda t, k=k: np.where(t > xhat, t - xhat, 0.0) ** k
            coeffs = s.matrix @ basis_moments(kv, f)
            for xx in xs:
                be = eval_basis_1d(kv, float(xx))
                val = be.values @ coeffs[be.first : be.first + p + 1]
                worst_broken = max(worst_broken, abs(val - max(xx - xhat, 0.0) ** k))
    ok_broken = worst_broken <= 1e-8

    check(
        "criterion 9 (dual-basis unit properties)",
        ok_repro and ok_bern and ok_broken,
        f"reproduction={worst_repro:.2e} (<=1e-8), Bernstein |S-G^-1|={worst_bern:.2e} (<=1e-10), "
        f"eAD broken={worst_broken:.2e} (<=1e-8)",
    )


def test_criterion_10_multipatch():
    details = []
    ok = True
    for geom, levels in (("mp_linear", (1, 2, 3, 4, 5)), ("mp_various", (1, 2, 3))):
        errs = errors_over(geom, "ead", 2, 0.01, levels)
        slope = least_squares_rate(errs, last=3)
        details.append(f"{geom} slope={slope:.2f} (need >= 2.8)")
        ok = ok and slope >= 2.8

    # interface displacement jump
    pa = _assembly("mp_various")
    prob = _problem("mp_various", 0.01)
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.01)
    sol = solve_variant(pa, cfg, load=prob.load)
    iface = sol.ctx.refined.interfaces[0]

    def w_on_edge(pidx, edge, tpar):
        spaces = sol.ctx.spaces[pidx]
        wc = sol.patch_w_coeffs(pidx)
        xi = {"u0": 0.0, "u1": 1.0}[edge]
        bu = eval_basis_1d(spaces.disp.kv_u, xi)
        bv = eval_basis_1d(spaces.disp.kv_v, tpar)
        m = spaces.disp.kv_v.n
        idx = np.add.outer(
            (bu.first + np.arange(spaces.disp.kv_u.degree + 1)) * m,
            bv.first + np.arange(spaces.disp.kv_v.degree + 1),
        ).ravel()
        vals = np.outer(bu.values, bv.values).ravel()
        wts = spaces.disp.weights
        if wts is not None:
            wl = wts.ravel()[idx]
            vals = vals * wl / (vals @ wl)
        return vals @ wc[idx]

    jump = max(
        abs(w_on_edge(iface.patch_a, iface.edge_a, t) - w_on_edge(iface.patch_b, iface.edge_b, t))
        for t in np.linspace(0, 1, 20)
    )
    details.append(f"interface jump={jump:.2e} (need <= 1e-10)")
    ok = ok and jump <= 1e-10

    # structural zeros between patch shear blocks
    ctx = prepare_problem(pa, cfg)
    system = assemble_mixed(ctx, cfg.make_material(), [prob.load])
    a, _ = system.monolithic()
    a = a.tocsr()
    nd = system.nd
    ns1 = [m.shape[0] for m in system.k_s11]
    blk = a[nd : nd + ns1[0], :][:, nd + ns1[0] : nd + ns1[0] + ns1[1]]
    details.append(f"cross-patch shear nnz={blk.nnz} (need 0)")
    ok = ok and blk.nnz == 0
    check("criterion 10 (multi-patch rates, continuity, locality)", ok, "; ".join(details))


def test_criterion_11_efficiency_proxy():
    # DOF bookkeeping on every condensing cell recorded so far
    ok_dofs = True
    for (geom, variant, p, t, level, kw), (err, diag) in _cells.items():
        if variant in ("lmp", "ad", "ead"):
            ok_dofs = ok_dofs and diag["n_dof_solved"] == diag["n_dof_primal"]
            ok_dofs = ok_dofs and diag["n_dof_solved"] < diag["n_dof_mixed"]

    # relative timing on a 16x16 mesh: identity-lumped condensation beats the
    # unlumped Schur complement
    pa = _assembly("undistorted")
    prob = _problem("undistorted", 0.01)
    cfg = SolveConfig(variant="ead", degree=3, level=4, thickness=0.01)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    system = assemble_mixed(ctx, mat, [prob.load])

    t0 = time.perf_counter()
    t1s, t2s = build_transforms(ctx)
    cond_fast = condense(pg_transform(system, t1s, t2s), lumped=True)
    DirectSolver(cond_fast.k_cond).solve(cond_fast.f_d[:, 0])
    t_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    cond_slow = condense(system, lumped=False)
    DirectSolver(cond_slow.k_cond).solve(cond_slow.f_d[:, 0])
    t_slow = time.perf_counter() - t0

    ok = ok_dofs and t_fast <= t_slow
    check(
        "criterion 11 (DOF bookkeeping and condensation speed)",
        ok,
        f"dof checks={'ok' if ok_dofs else 'violated'}, lumped {t_fast:.2f}s vs unlumped {t_slow:.2f}s "
        f"on 16x16, p=3",
    )
