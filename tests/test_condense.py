"""PG transform, lumping, condensation algebra and the variant dispatcher."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from igaplate.bench import BenchmarkProblem, geometry_catalog, l2_error
from igaplate.condense import (
    NonPositiveDiagonal,
    SolveConfig,
    build_transforms,
    condense,
    pg_transform,
    prepare_problem,
    recover_shear,
    row_sum_lump,
    solve_variant,
)
from igaplate.duals import DualTransform2D, dual_transform_1d, dual_transform_2d
from igaplate.multipatch import assemble_multipatch
from igaplate.plate import PatchDiscretization, apply_clamped_bc, assemble
from igaplate.sparse import DirectSolver, solve_direct
from oracles import pg_shear_rows_elementwise


def _weighted_system(geometry="undistorted", p=2, level=1, t=0.1, shear_weighting="nurbs"):
    pa = geometry_catalog(geometry)
    cfg = SolveConfig(variant="ead", degree=p, level=level, thickness=t, shear_weighting=shear_weighting)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    disc = ctx.discs[0]
    system = assemble(disc, mat, "weighted", load=lambda x, y: np.ones_like(x))
    constrained, _ = apply_clamped_bc(system)
    return ctx, cfg, constrained


def _identity_transform(n):
    return DualTransform2D(matrix=sp.identity(n, format="csr"), mode="bspline")


# pg_transform ----------------------------------------------------------------------


def test_identity_transform_leaves_system():
    ctx, cfg, system = _weighted_system()
    t1 = _identity_transform(system.k_s11[0].shape[0])
    t2 = _identity_transform(system.k_s22[0].shape[0])
    out = pg_transform(system, t1, t2)
    assert np.abs((out.k_s1d[0] - system.k_s1d[0]).toarray()).max() == 0.0
    assert np.abs((out.k_s11[0] - system.k_s11[0]).toarray()).max() == 0.0
    assert out.transformed


def test_transformed_rowsums_near_one_bspline():
    ctx, cfg, system = _weighted_system(shear_weighting="bspline")
    t1s, t2s = build_transforms(ctx)
    out = pg_transform(system, t1s, t2s)
    for blk in (out.k_s11[0], out.k_s22[0]):
        rows = np.asarray(blk @ np.ones(blk.shape[1])).ravel()
        assert np.abs(rows - 1.0).max() < 1e-8


def test_elementwise_equals_global_transform():
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=0.1)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    disc = ctx.discs[0]
    system = assemble(disc, mat, "weighted")
    t1s, t2s = build_transforms(ctx)
    global_path = pg_transform(system, t1s, t2s)
    e_s1d, e_s2d, e_s11, e_s22 = pg_shear_rows_elementwise(disc, mat, t1s[0], t2s[0])
    for a, b in (
        (e_s1d, global_path.k_s1d[0]),
        (e_s2d, global_path.k_s2d[0]),
        (e_s11, global_path.k_s11[0]),
        (e_s22, global_path.k_s22[0]),
    ):
        scale = max(1.0, np.abs(b.toarray()).max())
        assert np.abs((a - b).toarray()).max() < 1e-12 * scale


# row_sum_lump -----------------------------------------------------------------------


def test_lump_identity():
    diag, dev = row_sum_lump(sp.identity(5, format="csr"))
    assert np.allclose(diag, 1.0) and dev == 0.0


def test_lump_positive_diagonal_oracle():
    # NURBS row sums equal the weighted basis integrals (partition of unity)
    ctx, cfg, system = _weighted_system(geometry="nurbs_distorted", p=2, level=1)
    blk = system.k_s11[0]
    diag, _ = row_sum_lump(blk, require_positive=True)
    assert np.all(diag > 0)
    # oracle: integral of each shear basis function against W^2 (quadrature)
    disc = ctx.discs[0]
    ns1 = disc.spaces.s1.ndof
    oracle = np.zeros(ns1)
    for eu, ev in disc.chunks():
        geo = disc.geometry(eu, ev)
        n1, s1_idx, _, _ = disc.shear_bases(eu, ev)
        w = geo["w_param"] * geo["w_geom"] ** 2
        np.add.at(oracle, s1_idx, np.einsum("eqi,eq->ei", n1, w))
    assert np.abs(diag - oracle).max() < 1e-12 * max(1.0, oracle.max())


@pytest.mark.parametrize("geometry", ["undistorted", "nurbs_distorted"])
@pytest.mark.parametrize("shear_weighting", ["nurbs", "bspline"])
def test_lump_recovers_constant_shear(geometry, shear_weighting):
    # plain lumping recovers S_a = -(K_Sad d) / (K_SaSa 1); with a
    # partition-of-unity shear basis this maps the constant shear of w = x
    # (S1) or w = y (S2), theta = 0, back to exactly kappa*G*t, so the lmp
    # baseline is a consistent (second-order) quasi-interpolation
    cfg = SolveConfig(variant="lmp", degree=3, level=2, thickness=0.1, shear_weighting=shear_weighting)
    ctx = prepare_problem(geometry_catalog(geometry), cfg)
    mat = cfg.make_material()
    system = assemble_multipatch(ctx.refined, ctx.discs, mat, "weighted")
    cond = condense(system, lumped=True)
    assert cond.mode == "diagonal"
    n_pts = ctx.refined.n_points
    xy = ctx.refined.patches[0].net.points.reshape(n_pts, 3)
    for comp in (0, 1):
        d = np.zeros(system.nd)
        d[:n_pts] = xy[:, comp]
        shear = recover_shear(cond, d)[0][comp]
        assert np.abs(shear / mat.kgt - 1.0).max() < 1e-12


def test_lump_nonpositive_raises():
    blk = sp.csr_matrix(np.array([[1.0, -2.0], [0.0, 1.0]]))
    with pytest.raises(NonPositiveDiagonal):
        row_sum_lump(blk, require_positive=True)
    diag, _ = row_sum_lump(blk)  # diagnostic mode tolerates it
    assert diag[0] == -1.0


# condensation -----------------------------------------------------------------------


def test_schur_equivalence_mxd():
    for p in (2, 3):
        for level in (0, 1, 2):
            pa = geometry_catalog("undistorted")
            cfg = SolveConfig(variant="mxd", degree=p, level=level, thickness=0.1)
            ctx = prepare_problem(pa, cfg)
            mat = cfg.make_material()
            system = assemble(ctx.discs[0], mat, "galerkin", load=lambda x, y: np.ones_like(x))
            constrained, _ = apply_clamped_bc(system)
            if constrained.nd == 0:
                continue
            a, rhs = constrained.monolithic()
            mono = solve_direct(a, rhs)[: constrained.nd]
            cond = condense(constrained, lumped=False)
            d = solve_direct(cond.k_cond, cond.f_d)
            scale = max(np.abs(mono).max(), 1e-30)
            assert np.abs(d - mono).max() / scale < 1e-10


def test_pg_then_exact_condensation_is_invariant():
    ctx, cfg, system = _weighted_system(geometry="nurbs_distorted", level=1)
    cond_plain = condense(system, lumped=False)
    d_plain = solve_direct(cond_plain.k_cond, cond_plain.f_d)
    t1s, t2s = build_transforms(ctx)
    transformed = pg_transform(system, t1s, t2s)
    # exact condensation after the transform: same solution
    transformed = type(transformed)(**{**transformed.__dict__, "transformed": False})
    cond_pg = condense(transformed, lumped=False)
    d_pg = solve_direct(cond_pg.k_cond, cond_pg.f_d)
    scale = max(np.abs(d_plain).max(), 1e-30)
    assert np.abs(d_pg - d_plain).max() / scale < 1e-9


def test_desk_case_block_elimination_oracle():
    # condensed solve equals direct block elimination of the lumped system
    ctx, cfg, system = _weighted_system(geometry="undistorted", p=2, level=1)
    t1s, t2s = build_transforms(ctx)
    transformed = pg_transform(system, t1s, t2s)
    cond = condense(transformed, lumped=True)
    d = solve_direct(cond.k_cond, cond.f_d)

    nd = transformed.nd
    ns1 = transformed.k_s11[0].shape[0]
    ns2 = transformed.k_s22[0].shape[0]
    a = np.zeros((nd + ns1 + ns2, nd + ns1 + ns2))
    a[:nd, :nd] = transformed.k_dd.toarray()
    a[:nd, nd : nd + ns1] = transformed.k_ds1[0].toarray()
    a[:nd, nd + ns1 :] = transformed.k_ds2[0].toarray()
    a[nd : nd + ns1, :nd] = transformed.k_s1d[0].toarray()
    a[nd + ns1 :, :nd] = transformed.k_s2d[0].toarray()
    a[nd : nd + ns1, nd : nd + ns1] = np.eye(ns1)  # lumped identity block
    a[nd + ns1 :, nd + ns1 :] = np.eye(ns2)
    rhs = np.concatenate([transformed.f_d, np.zeros(ns1 + ns2)])
    full = np.linalg.solve(a, rhs)
    assert np.abs(full[:nd] - d).max() < 1e-12 * max(1.0, np.abs(d).max())
    s = recover_shear(cond, d)
    assert np.abs(full[nd : nd + ns1] - s[0][0]).max() < 1e-10 * max(1.0, np.abs(full[nd:]).max())


def test_recover_shear_zero_displacement():
    ctx, cfg, system = _weighted_system()
    t1s, t2s = build_transforms(ctx)
    cond = condense(pg_transform(system, t1s, t2s), lumped=True)
    s = recover_shear(cond, np.zeros(cond.n))
    assert np.abs(s[0][0]).max() == 0.0 and np.abs(s[0][1]).max() == 0.0


def test_shear_row_residual_of_lumped_system():
    ctx, cfg, system = _weighted_system(geometry="nurbs_distorted", p=2, level=2, t=1.0)
    t1s, t2s = build_transforms(ctx)
    transformed = pg_transform(system, t1s, t2s)
    cond = condense(transformed, lumped=True)
    d = solve_direct(cond.k_cond, cond.f_d)
    (s1, s2), = recover_shear(cond, d)
    r1 = transformed.k_s1d[0] @ d + s1  # lumped identity rows
    r2 = transformed.k_s2d[0] @ d + s2
    scale = np.linalg.norm(np.concatenate([transformed.f_d, s1, s2])) + 1e-30
    assert np.linalg.norm(np.concatenate([r1, r2])) < 1e-10 * scale


def test_recovered_shear_matches_derivative_expression():
    """Thick plate: recovered S1 vs kappa G t (dw/dx - theta1) near the centre."""
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=1.0)
    prob = BenchmarkProblem("undistorted", thickness=1.0)
    sol = solve_variant(pa, cfg, load=prob.load)
    mat = cfg.make_material()
    spaces = sol.ctx.spaces[0]

    from igaplate.splines import eval_basis_1d

    # quarter point: shear is well away from its symmetry zero at the centre
    pu = pv = 0.25
    bu = eval_basis_1d(spaces.disp.kv_u, pu, nderiv=1)
    bv = eval_basis_1d(spaces.disp.kv_v, pv, nderiv=1)
    m = spaces.disp.kv_v.n
    idx = np.add.outer(
        (bu.first + np.arange(spaces.disp.kv_u.degree + 1)) * m,
        bv.first + np.arange(spaces.disp.kv_v.degree + 1),
    ).ravel()
    vals = np.outer(bu.values, bv.values).ravel()
    dxi = np.outer(bu.ders[1], bv.values).ravel()  # identity map: d/dxi = d/dx
    wc = sol.patch_w_coeffs(0)[idx]
    th1 = sol.patch_theta_coeffs(0)[idx, 0]
    s_deriv = mat.kgt * (dxi @ wc - vals @ th1)

    b1u = eval_basis_1d(spaces.s1.kv_u, pu)
    b1v = eval_basis_1d(spaces.s1.kv_v, pv)
    m1 = spaces.s1.kv_v.n
    idx1 = np.add.outer(
        (b1u.first + np.arange(spaces.s1.kv_u.degree + 1)) * m1,
        b1v.first + np.arange(spaces.s1.kv_v.degree + 1),
    ).ravel()
    v1 = np.outer(b1u.values, b1v.values).ravel()
    if spaces.s1.weights is not None:
        wl = spaces.s1.weights.ravel()[idx1]
        v1 = v1 * wl / (v1 @ wl)
    s1_h = v1 @ sol.shear[0][0][idx1]
    assert abs(s1_h - s_deriv) / max(abs(s_deriv), 1e-30) < 0.10


# solve_variant ----------------------------------------------------------------------


def test_ad_equals_ead_on_full_continuity():
    pa = geometry_catalog("undistorted")
    prob = BenchmarkProblem("undistorted", thickness=0.1)
    sols = {}
    for variant in ("ad", "ead"):
        cfg = SolveConfig(variant=variant, degree=3, level=2, thickness=0.1)
        sols[variant] = solve_variant(pa, cfg, load=prob.load)
    a, b = sols["ad"].d_full, sols["ead"].d_full
    assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_std_locks_against_mxd_for_thin_plate():
    pa = geometry_catalog("undistorted")
    prob = BenchmarkProblem("undistorted", thickness=0.0001)
    errs = {}
    for variant in ("std", "mxd"):
        cfg = SolveConfig(variant=variant, degree=2, level=3, thickness=0.0001)
        sol = solve_variant(pa, cfg, load=prob.load)
        errs[variant] = l2_error(sol, prob)
    assert errs["std"] >= 100.0 * errs["mxd"]


def test_weight_dropping_close_errors():
    pa = geometry_catalog("nurbs_distorted")
    prob = BenchmarkProblem("nurbs_distorted", thickness=0.01)
    errs = {}
    for mode in ("nurbs", "bspline"):
        cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.01, shear_weighting=mode)
        sol = solve_variant(pa, cfg, load=prob.load)
        errs[mode] = l2_error(sol, prob)
    assert abs(errs["bspline"] - errs["nurbs"]) / errs["nurbs"] < 0.05


def test_condensed_dimension_is_displacement_only():
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.01)
    sol = solve_variant(pa, cfg, load=lambda x, y: np.ones_like(x))
    d = sol.diagnostics
    assert d["n_dof_solved"] == d["n_dof_primal"]
    assert d["n_dof_solved"] < d["n_dof_mixed"]


def test_variant_validation():
    with pytest.raises(ValueError):
        SolveConfig(variant="nope", degree=2, level=1, thickness=0.1)


def test_condition_estimate_recorded_on_request():
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=0.1, estimate_condition=True)
    sol = solve_variant(pa, cfg, load=lambda x, y: np.ones_like(x))
    assert sol.diagnostics["cond_est"] is not None
    assert sol.diagnostics["cond_est"] >= 1.0


@pytest.mark.parametrize("variant", ["std", "mxd", "ead"])
def test_condition_estimate_reuses_the_factorisation(factorisations, variant):
    # factorisations of either kind count: these level-1 matrices take gbtrf
    cfg = SolveConfig(variant=variant, degree=2, level=1, thickness=0.1, estimate_condition=True)
    sol = solve_variant(geometry_catalog("undistorted"), cfg, load=lambda x, y: np.ones_like(x))
    assert sol.diagnostics["cond_est"] is not None
    assert len(factorisations) == 1


@pytest.mark.parametrize(
    ("geometry", "variant", "p", "level", "factor"),
    [
        ("undistorted", "ead", 2, 1, "gbtrf"),
        ("undistorted", "mxd", 2, 4, "gbtrf"),
        ("c0_single", "mxd", 3, 3, "pbtrf+pbtrf"),
    ],
)
def test_lu_fill_counts_the_entries_the_factors_store(monkeypatch, geometry, variant, p, level, factor):
    # gbtrf stores its (2 kl + ku + 1, n) band, pbtrf its (kd + 1, n) band,
    # SuperLU its nnz; the c0_single cell takes GMRES: the band Cholesky of
    # the primal matrix and that of the shear block count
    import scipy.linalg.lapack as lapack
    import scipy.sparse.linalg as spla

    from igaplate.sparse import BandLU

    stored = []

    def recording(name, factorise, size):
        def wrapper(*args, **kwargs):
            out = factorise(*args, **kwargs)
            stored.append((name, size(out)))
            return out

        return wrapper

    def unread(self):
        raise AssertionError("a LAPACK factor's L or U was built")

    monkeypatch.setattr(spla, "splu", recording("splu", spla.splu, lambda lu: lu.nnz))
    monkeypatch.setattr(lapack, "dgbtrf", recording("gbtrf", lapack.dgbtrf, lambda out: out[0].size))
    monkeypatch.setattr(lapack, "dpbtrf", recording("pbtrf", lapack.dpbtrf, lambda out: out[0].size))
    monkeypatch.setattr(BandLU, "L", property(unread))
    monkeypatch.setattr(BandLU, "U", property(unread))
    cfg = SolveConfig(variant=variant, degree=p, level=level, thickness=1.0)
    sol = solve_variant(geometry_catalog(geometry), cfg, load=lambda x, y: np.ones_like(x))
    d = sol.diagnostics
    assert [name for name, _ in stored] == factor.split("+")
    assert d["lu_fill"] == sum(size for _, size in stored) > 0
    if factor == "gbtrf":
        assert d["lu_fill"] % d["n_dof_solved"] == 0 and d["solver"] == "lu"
    else:
        assert d["solver"] == "gmres" and len(stored) == 2


def test_a_thin_mxd_answer_is_within_1e_10_of_its_long_double_refinement():
    # the factor's answer on this saddle is 1e-6 off (SuperLU's was 8e-7);
    # the one refinement step in DirectSolver.solve brings it to about 3e-12
    from igaplate.condense import build_parts

    cfg = SolveConfig(variant="mxd", degree=3, level=2, thickness=1e-4)
    parts = build_parts(geometry_catalog("mp_various"), cfg, [BenchmarkProblem("mp_various", thickness=1e-4).load])
    mat = cfg.make_material()
    a, b = parts.matrix_at(mat), parts.rhs_at(mat, 0)
    solver = DirectSolver(a)
    x = solver.solve(b)
    wide, ref = sp.csr_matrix(a, dtype=np.longdouble), x.astype(np.longdouble)
    for _ in range(10):  # refine with long-double residuals
        ref += solver._lu.solve((b - wide @ ref).astype(float))
    assert np.linalg.norm(x - ref.astype(float)) <= 1e-10 * np.linalg.norm(ref.astype(float))


def test_condition_estimate_is_reproducible_and_leaves_the_global_rng_alone():
    cfg = SolveConfig(variant="mxd", degree=2, level=2, thickness=0.1, estimate_condition=True)
    pa = geometry_catalog("undistorted")
    estimates = set()
    for seed in (1, 2, 3):
        np.random.seed(seed)
        name, keys, pos, has_gauss, gauss = np.random.get_state()
        sol = solve_variant(pa, cfg, load=lambda x, y: np.ones_like(x))
        estimates.add(np.float64(sol.diagnostics["cond_est"]).tobytes())
        after = np.random.get_state()
        assert after[0] == name and np.array_equal(after[1], keys)
        assert after[2:] == (pos, has_gauss, gauss)
    assert len(estimates) == 1


@pytest.mark.parametrize("geometry", ["undistorted", "c0_single"])
@pytest.mark.parametrize("variant", ["mxd", "ead"])
def test_bare_patch_solves_like_its_catalog_assembly(geometry, variant):
    pa = geometry_catalog(geometry)
    cfg = SolveConfig(variant=variant, degree=2, level=1, thickness=0.1)
    load = BenchmarkProblem(geometry, thickness=0.1).load
    bare = solve_variant(pa.patches[0], cfg, load=load)
    wrapped = solve_variant(pa, cfg, load=load)
    assert bare.ctx.coarse.interfaces == pa.interfaces == []
    assert bare.ctx.coarse.n_points == pa.n_points
    assert np.array_equal(bare.ctx.coarse.boundary_points, pa.boundary_points)
    assert bare.d_full.tobytes() == wrapped.d_full.tobytes()


def test_galerkin_vs_weighted_full_solves_agree():
    """Both uncondensed schemes discretise the same problem: centre deflections
    agree within 1% on a coarse mesh at t=0.01."""
    pa = geometry_catalog("undistorted")
    prob = BenchmarkProblem("undistorted", thickness=0.01)
    cfg = SolveConfig(variant="mxd", degree=2, level=2, thickness=0.01)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    results = {}
    for scheme in ("galerkin", "weighted"):
        system = assemble(ctx.discs[0], mat, scheme, prob.load)
        constrained, _ = apply_clamped_bc(system)
        a, rhs = constrained.monolithic()
        x = solve_direct(a, rhs)
        d_full = np.zeros(system.nd)
        d_full[constrained.free_d] = x[: constrained.nd]
        # centre control coefficient of w (odd net: centre point exists)
        n, m = ctx.spaces[0].disp.shape
        results[scheme] = d_full[(n // 2) * m + m // 2]
    rel = abs(results["weighted"] - results["galerkin"]) / abs(results["galerkin"])
    assert rel < 0.01


def test_condensed_sparser_than_mixed():
    """4x4 undistorted mesh, p=2: the condensed matrix has fewer nonzeros than
    the full mixed system and a grown bandwidth relative to K_dd."""
    from igaplate.sparse import nnz_and_bandwidth

    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.1)
    ctx = prepare_problem(pa, cfg)
    mat = cfg.make_material()
    system = assemble(ctx.discs[0], mat, "weighted", lambda x, y: np.ones_like(x))
    constrained, _ = apply_clamped_bc(system)
    t1s, t2s = build_transforms(ctx)
    cond = condense(pg_transform(constrained, t1s, t2s), lumped=True)
    nnz_cond, band_cond = nnz_and_bandwidth(cond.k_cond)
    a, _ = constrained.monolithic()
    nnz_mixed, _ = nnz_and_bandwidth(a)
    _, band_kdd = nnz_and_bandwidth(constrained.k_dd)
    assert nnz_cond < nnz_mixed
    assert band_cond >= band_kdd


def test_stored_entry_count_does_not_depend_on_thickness():
    # nnz_solved counts stored entries; every thickness's matrix is the pencil
    # of one thickness-free build, so all of them store its pattern, which the
    # column-order reuse of a level's direct solves relies on
    from igaplate.condense import VARIANTS, solve_thicknesses

    thicknesses = [1.0, 1e-2, 1e-4, 1e-8]
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    for geometry, p, level in (("undistorted", 2, 3), ("mp_various", 3, 2)):
        pa = geometry_catalog(geometry)
        for variant in VARIANTS:
            cfg = SolveConfig(variant=variant, degree=p, level=level, thickness=1.0)
            sols = solve_thicknesses(pa, cfg, thicknesses, [load] * len(thicknesses))
            counts = [sol.diagnostics["nnz_solved"] for sol in sols]
            assert counts == [counts[0]] * len(thicknesses), (geometry, variant)


def test_mxd_keeps_the_thin_plate_limit():
    # the nondimensional saddle system: at t=1e-8 the error must match the
    # t=1e-6 one (1.7649e-5), not drift with the t^-3 scale of the blocks
    pa = geometry_catalog("undistorted")
    errs = {}
    for t in (1e-6, 1e-8):
        prob = BenchmarkProblem("undistorted", thickness=t)
        sol = solve_variant(pa, SolveConfig(variant="mxd", degree=2, level=3, thickness=t), load=prob.load)
        errs[t] = l2_error(sol, prob)
    assert abs(errs[1e-8] - errs[1e-6]) <= 0.01 * errs[1e-6]


# c0_single ead p3 L3 at t=1e-2 passes both Krylov gates (1083 DOFs, slenderness 137)
@pytest.mark.parametrize(
    ("geometry", "p", "level", "solver"), [("undistorted", 2, 1, "lu"), ("c0_single", 3, 3, "gmres")]
)
def test_solve_thicknesses_shares_one_build_and_frees_it(monkeypatch, geometry, p, level, solver):
    import weakref

    module, calls = _count_primal_builds(monkeypatch)
    build, direct, krylov = module.build_parts, module.DirectSolver, module.KrylovSolver
    built, recovery, alive = [], [], []

    def capturing_build(assembly, config, loads):
        parts = build(assembly, config, loads)
        # the parts, K_dd and every K_dSa; then every X_a
        couplings = [k for pair in parts.cond.coupling for k in pair]
        built.extend(weakref.ref(m) for m in (parts, parts.fixed, *couplings))
        recovery.extend(weakref.ref(x) for ops in parts.cond.recovery for x in ops)
        return parts

    def checking(solver_class):
        class Checked(solver_class):
            def __init__(self, *args):
                alive.append([ref() is not None for ref in built])
                super().__init__(*args)

        return Checked

    monkeypatch.setattr(module, "build_parts", capturing_build)
    monkeypatch.setattr(module, "DirectSolver", checking(direct))
    monkeypatch.setattr(module, "KrylovSolver", checking(krylov))
    cfg = SolveConfig(variant="ead", degree=p, level=level, thickness=1.0)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    first, second = module.solve_thicknesses(geometry_catalog(geometry), cfg, [1e-2, 1e-2], [load, load])
    monkeypatch.undo()

    assert first.diagnostics["solver"] == second.diagnostics["solver"] == solver
    assert first.config.thickness == second.config.thickness == 1e-2
    assert first.d_full.tobytes() == second.d_full.tobytes()
    assert [s.tobytes() for s in first.shear[0]] == [s.tobytes() for s in second.shear[0]]
    assert calls == ([1] if solver == "gmres" else [])
    # everything is alive while the first thickness solves; for the last, the
    # parts are gone, and so are K_dd and the K_dSa before a factorisation,
    # while GMRES applies them to its last solve
    assert len(built) == 4 and len(recovery) == 2
    operator = [solver == "gmres"] * 3
    assert alive == [[True] * 4, [False, *operator]]
    # and no result keeps any matrix of the build
    assert [ref() for ref in built + recovery] == [None] * 6


@pytest.mark.parametrize("geometry", ["nurbs_distorted", "mp_various"])
@pytest.mark.parametrize("variant", ["std", "mxd", "lmp", "ad", "ead"])
def test_nondimensional_system_is_the_dimensional_one_divided_by_d(geometry, variant):
    # the parts are built with D = kGt = 1; each thickness's system must be
    # the dimensional system with its d rows divided by D (mxd: and its shear
    # unknowns divided by D), and its answers those of the dimensional solve
    from igaplate.condense import assemble_mixed, build_parts, solve_thicknesses
    from igaplate.multipatch import assemble_primal_multipatch
    from igaplate.plate import free_dofs

    load = lambda x, y: 1.0 + x * y  # noqa: E731
    cfg = SolveConfig(variant=variant, degree=2, level=1, thickness=0.1)
    mat = cfg.make_material()
    d = mat.bending_stiffness
    parts = build_parts(geometry_catalog(geometry), cfg, [load])
    ctx = parts.ctx
    matrix, rhs = parts.matrix_at(mat), parts.rhs_at(mat, 0)

    shear, bend, _, boundary = assemble_primal_multipatch(ctx.refined, ctx.discs, mat)
    free = free_dofs(shear.shape[0], boundary)
    primal = (shear + bend)[np.ix_(free, free)]
    system = assemble_mixed(ctx, mat, [load])
    n = system.nd
    cond = None
    if variant == "std":
        dim, dim_rhs = primal, system.f_d
    elif variant == "mxd":
        dim, dim_rhs = system.monolithic()
    else:
        if variant in ("ad", "ead"):
            system = pg_transform(system, *build_transforms(ctx))
        cond = condense(system, lumped=True)
        dim, dim_rhs = cond.k_cond, cond.f_d
        # the primal preconditioner's bending half is the condensed K_dd
        assert np.abs(d * parts.primal(mat) - primal).max() <= 1e-13 * np.abs(primal).max()
    dim_rhs = dim_rhs[:, 0]  # the column of the one load
    # row scale 1/D on the d rows; mxd: column scale D on the shear unknowns
    # (its galerkin shear rows are thickness-free)
    rows = np.r_[np.full(n, 1.0 / d), np.ones(dim.shape[0] - n)]
    cols = np.r_[np.ones(n), np.full(dim.shape[0] - n, d)]
    ref = sp.diags(rows) @ dim @ sp.diags(cols)
    assert matrix.shape == ref.shape
    assert np.abs(matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(rhs - rows * dim_rhs).max() <= 1e-13 * np.abs(dim_rhs / d).max()

    (sol,) = solve_thicknesses(geometry_catalog(geometry), cfg, [cfg.thickness], [load])
    x = solve_direct(dim, dim_rhs)
    d_ref, s_ref, s_sol = x[:n], x[n:], np.zeros(0)
    if variant == "mxd":
        s_sol = np.concatenate([s1 for s1, _ in sol.shear] + [s2 for _, s2 in sol.shear])
    elif cond is not None:
        s_ref = np.concatenate([s for pair in recover_shear(cond, d_ref) for s in pair])
        s_sol = np.concatenate([s for pair in sol.shear for s in pair])
    assert np.abs(sol.d_full[sol.free_d] - d_ref).max() <= 1e-10 * np.abs(d_ref).max()
    if len(s_ref):
        assert np.abs(s_sol - s_ref).max() <= 1e-10 * np.abs(s_ref).max()


# solve path of large condensed systems ---------------------------------------------


def _condensed(pa, cfg, load):
    """(ctx, material, condensed system) of one solve, through the solve's own build."""
    from types import SimpleNamespace

    from igaplate.condense import build_parts

    parts = build_parts(pa, cfg, [load])
    mat = cfg.make_material()
    return parts.ctx, mat, SimpleNamespace(k_cond=parts.matrix_at(mat), f_d=parts.rhs_at(mat, 0), parts=parts)


def test_large_condensed_system_is_solved_by_gmres_on_the_primal_factor(monkeypatch):
    import igaplate.sparse as sparse

    pa = geometry_catalog("c0_single")
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    factored = []
    band_cholesky = sparse.BandCholesky

    def recording_band_cholesky(m, *args):
        factored.append(m)
        return band_cholesky(m, *args)

    # t=1e-2 at L3 is the thinnest measured cell below the slenderness gate (137)
    for level, t in ((4, 1.0), (3, 1e-2)):
        cfg = SolveConfig(variant="ead", degree=3, level=level, thickness=t)
        factored.clear()
        monkeypatch.setattr(sparse, "BandCholesky", recording_band_cholesky)
        sol = solve_variant(pa, cfg, load=load)
        monkeypatch.undo()

        assert sol.diagnostics["solver"] == "gmres"
        assert 0 < sol.diagnostics["iterations"] < 60
        ctx, mat, cond = _condensed(pa, cfg, load)
        primal = cond.parts.primal(mat)
        assert len(factored) == 1
        assert factored[0].shape == primal.shape and (factored[0] != primal).nnz == 0
        assert (factored[0] != cond.k_cond).nnz > 0
        d_lu = solve_direct(cond.k_cond, cond.f_d)
        d = sol.d_full[sol.free_d]
        assert np.linalg.norm(d - d_lu) <= 1e-10 * np.linalg.norm(d_lu)


def _count_shear_products(monkeypatch):
    """Patch condense's one product sum_a K_dSa X_a to record each call; returns the record."""
    from igaplate.condense import CondensedSystem

    calls = []
    product = CondensedSystem.k_shear.fget

    def counting(self):
        calls.append(1)
        return product(self)

    monkeypatch.setattr(CondensedSystem, "k_shear", property(counting))
    return calls


def test_gmres_applies_the_condensed_matrix_without_forming_it(monkeypatch):
    # the GMRES path needs the condensed matrix only through products, so the
    # shear part sum_a K_dSa X_a is never formed
    pa = geometry_catalog("c0_single")
    cfg = SolveConfig(variant="ead", degree=3, level=3, thickness=1.0)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    products = _count_shear_products(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()

    diag = sol.diagnostics
    assert diag["solver"] == "gmres" and 0 < diag["iterations"] < 60
    assert products == []
    _, _, cond = _condensed(pa, cfg, load)
    d_lu = solve_direct(cond.k_cond, cond.f_d)
    d = sol.d_full[sol.free_d]
    assert np.linalg.norm(d - d_lu) <= 1e-10 * np.linalg.norm(d_lu)
    # nnz_solved counts the parts applied: K_dd, every K_dSa and every X_a
    parts = cond.parts.cond
    applied = [cond.parts.fixed, *(m for pairs in parts.coupling + parts.recovery for m in pairs)]
    assert len(applied) == 5
    assert diag["nnz_solved"] == sum(m.nnz for m in applied) < cond.k_cond.nnz


def _count_transformed_blocks(monkeypatch):
    """Patch the one place a transformed shear block T K is formed to record each call; returns the record."""
    from igaplate.condense import MatrixProduct

    calls = []
    form = MatrixProduct.tocsr

    def counting(self):
        calls.append(self.shape)
        return form(self)

    monkeypatch.setattr(MatrixProduct, "tocsr", counting)
    return calls


def test_a_level_that_gmres_solves_forms_no_transformed_shear_block(monkeypatch):
    # GMRES applies every X = T K_Sd as T (K_Sd v) and lumping reads the row
    # sums as T (K_SS 1), so no T K is multiplied out (four were, per patch)
    cfg = SolveConfig(variant="ead", degree=3, level=3, thickness=1.0)
    formed = _count_transformed_blocks(monkeypatch)
    sol = solve_variant(geometry_catalog("c0_single"), cfg, load=lambda x, y: np.ones_like(x))
    monkeypatch.undo()

    assert sol.diagnostics["solver"] == "gmres"
    assert formed == []


def test_a_direct_level_forms_each_transformed_coupling_once_and_as_before(monkeypatch):
    # a direct factor needs the matrix: each X = T K_Sd is formed once, as
    # (T @ K_Sd).tocsr(), then K_dS @ X, so the matrix is the same to the byte;
    # no T K_SS is formed, and the row-sum deviation is that of the formed T K_SS
    from igaplate.condense import assemble_mixed, build_parts
    from igaplate.plate import UnitMaterial

    pa = geometry_catalog("mp_various")
    cfg = SolveConfig(variant="ead", degree=3, level=2, thickness=1e-4)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    formed = _count_transformed_blocks(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()
    assert sol.diagnostics["solver"] == "lu"
    assert len(formed) == 4  # two patches, S1 and S2

    parts = build_parts(pa, cfg, [load])
    mat = cfg.make_material()
    ctx = prepare_problem(pa, cfg)
    system = assemble_mixed(ctx, UnitMaterial(cfg.nu))
    t1s, t2s = build_transforms(ctx)
    shear, dev = None, 0.0
    for p in range(system.n_patches):
        for t, k_ds, k_sd, k_ss in (
            (t1s[p], system.k_ds1[p], system.k_s1d[p], system.k_s11[p]),
            (t2s[p], system.k_ds2[p], system.k_s2d[p], system.k_s22[p]),
        ):
            part = k_ds @ (t.matrix @ k_sd).tocsr()
            shear = part if shear is None else shear + part
            dev = max(dev, row_sum_lump((t.matrix @ k_ss).tocsr())[1])
    reference = (system.k_dd + parts.scale(mat) * shear.tocsr()).tocsr()  # K_dd - (kGt/D) sum_a K_dSa X_a
    matrix = parts.matrix_at(mat)
    for name in ("data", "indices", "indptr"):
        assert getattr(matrix, name).tobytes() == getattr(reference, name).tobytes()
    assert abs(parts.cond.lump_dev - dev) <= 1e-14


@pytest.mark.parametrize(("geometry", "level"), [("c0_single", 3), ("mp_various", 2)])
def test_the_condensed_operator_is_the_formed_matrix(geometry, level):
    # products with the operator and its transpose match the formed matrix,
    # and its bandwidth, chained through the parts, is the formed one's
    from igaplate.sparse import nnz_and_bandwidth

    cfg = SolveConfig(variant="ead", degree=3, level=level, thickness=1e-2)
    _, mat, cond = _condensed(geometry_catalog(geometry), cfg, lambda x, y: np.ones_like(x))
    operator = cond.parts.operator_at(mat)
    matrix = cond.k_cond
    assert operator.nnz_and_bandwidth()[1] == nnz_and_bandwidth(matrix)[1]
    v = np.random.default_rng(0).standard_normal(matrix.shape[0])
    for applied, formed in ((operator @ v, matrix @ v), (operator.T @ v, matrix.T @ v)):
        assert np.linalg.norm(applied - formed) <= 1e-13 * np.linalg.norm(formed)


def test_rejected_krylov_answer_falls_back_to_the_direct_solve(monkeypatch):
    import importlib

    from igaplate.condense import GMRES_MAX_SLENDERNESS, mesh_slenderness
    from igaplate.plate import expand_displacement

    # lmp never tries GMRES; open its bound, as scripts/krylov_map.py does
    monkeypatch.setitem(importlib.import_module("igaplate.condense").GMRES_MAX_SLENDERNESS, "lmp", np.inf)
    pa = geometry_catalog("c0_single")
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    products = _count_shear_products(monkeypatch)
    # lmp needs all 60 iterations here; at t=1e-2 their answer passes the
    # residual gate but is 1.1e-9 off the LU answer, so it must be rejected;
    # only then is the shear part formed, once, for the LU
    for t in (1.0, 1e-2):
        cfg = SolveConfig(variant="lmp", degree=3, level=3, thickness=t)
        products.clear()
        sol = solve_variant(pa, cfg, load=load)
        assert products == [1]
        assert sol.diagnostics["n_dof_solved"] == 1083
        assert mesh_slenderness(sol.ctx, cfg.make_material()) <= GMRES_MAX_SLENDERNESS["ead"]
        assert sol.diagnostics["solver"] == "lu"
        assert sol.diagnostics["iterations"] == 60
        ctx, _, cond = _condensed(pa, cfg, load)
        orders = cond.parts.orders()  # the solve's candidate orders of the grid sweeps
        d_lu = DirectSolver(cond.k_cond, orders).solve(cond.f_d)
        direct = expand_displacement(sol.d_full.size, sol.free_d, d_lu)
        assert sol.d_full.tobytes() == direct.tobytes()


def _count_primal_builds(monkeypatch):
    """Patch condense's primal assembly to record each call; returns the record."""
    import importlib

    module = importlib.import_module("igaplate.condense")
    calls = []
    primal = module.assemble_primal_multipatch

    def counting(*args, **kwargs):
        calls.append(1)
        return primal(*args, **kwargs)

    monkeypatch.setattr(module, "assemble_primal_multipatch", counting)
    return module, calls


def test_small_condensed_system_never_builds_the_primal_matrix(monkeypatch):
    module, calls = _count_primal_builds(monkeypatch)
    cfg = SolveConfig(variant="ead", degree=2, level=3, thickness=1.0)
    sol = solve_variant(geometry_catalog("undistorted"), cfg, load=lambda x, y: np.ones_like(x))
    assert sol.diagnostics["n_dof_solved"] < module.GMRES_MIN_DOFS
    assert sol.diagnostics["solver"] == "lu" and sol.diagnostics["iterations"] is None
    assert calls == []


def test_thin_plate_above_the_slenderness_gate_never_builds_the_primal_matrix(monkeypatch):
    from igaplate.plate import expand_displacement

    pa = geometry_catalog("c0_single")
    cfg = SolveConfig(variant="ead", degree=3, level=3, thickness=1e-4)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    module, calls = _count_primal_builds(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()
    assert sol.diagnostics["n_dof_solved"] >= module.GMRES_MIN_DOFS
    assert module.mesh_slenderness(sol.ctx, cfg.make_material()) > module.GMRES_MAX_SLENDERNESS["ead"]
    assert sol.diagnostics["solver"] == "lu" and sol.diagnostics["iterations"] is None
    assert calls == []
    _, _, cond = _condensed(pa, cfg, load)
    orders = cond.parts.orders()
    direct = expand_displacement(sol.d_full.size, sol.free_d, DirectSolver(cond.k_cond, orders).solve(cond.f_d))
    assert sol.d_full.tobytes() == direct.tobytes()


def test_lmp_never_tries_gmres(monkeypatch):
    from igaplate.plate import expand_displacement

    # c0_single lmp p3 L3 t=1 passes the DOF gate and the ead bound (1083 DOFs)
    pa = geometry_catalog("c0_single")
    cfg = SolveConfig(variant="lmp", degree=3, level=3, thickness=1.0)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    module, calls = _count_primal_builds(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()
    assert sol.diagnostics["n_dof_primal"] >= module.GMRES_MIN_DOFS
    assert module.mesh_slenderness(sol.ctx, cfg.make_material()) <= module.GMRES_MAX_SLENDERNESS["ead"]
    assert sol.diagnostics["solver"] == "lu" and sol.diagnostics["iterations"] is None
    assert calls == []
    _, _, cond = _condensed(pa, cfg, load)
    orders = cond.parts.orders()
    direct = expand_displacement(sol.d_full.size, sol.free_d, DirectSolver(cond.k_cond, orders).solve(cond.f_d))
    assert sol.d_full.tobytes() == direct.tobytes()


def test_large_mxd_system_is_solved_by_gmres_on_the_block_triangular_preconditioner(monkeypatch):
    from igaplate.condense import build_parts

    pa = geometry_catalog("c0_single")
    cfg = SolveConfig(variant="mxd", degree=3, level=3, thickness=1.0)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    module, calls = _count_primal_builds(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()

    diag = sol.diagnostics
    assert diag["solver"] == "gmres" and 0 < diag["iterations"] < 60
    assert diag["n_dof_primal"] >= module.GMRES_MIN_DOFS
    assert diag["n_dof_solved"] == diag["n_dof_mixed"] > diag["n_dof_primal"]
    assert calls == [1]  # the shear-penalty pass; the bending half is the saddle's own K_dd
    mat = cfg.make_material()
    parts = build_parts(pa, cfg, [load])
    saddle, rhs = parts.matrix_at(mat), parts.rhs_at(mat, 0)
    x = solve_direct(saddle, rhs)
    n = diag["n_dof_primal"]
    d_lu, s_lu = x[:n], mat.bending_stiffness * x[n:]
    d = sol.d_full[sol.free_d]
    s = np.concatenate([s1 for s1, _ in sol.shear] + [s2 for _, s2 in sol.shear])
    assert np.linalg.norm(d - d_lu) <= 1e-10 * np.linalg.norm(d_lu)
    assert np.linalg.norm(s - s_lu) <= 1e-10 * np.linalg.norm(s_lu)


def test_mxd_above_its_slenderness_bound_never_builds_the_primal_matrix(monkeypatch):
    from igaplate.condense import build_parts
    from igaplate.plate import expand_displacement

    pa = geometry_catalog("c0_single")
    cfg = SolveConfig(variant="mxd", degree=3, level=3, thickness=1e-2)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    module, calls = _count_primal_builds(monkeypatch)
    sol = solve_variant(pa, cfg, load=load)
    monkeypatch.undo()

    # slender enough for mxd's bound, not for the condensed variants' one (137)
    alpha = module.mesh_slenderness(sol.ctx, cfg.make_material())
    assert module.GMRES_MAX_SLENDERNESS["mxd"] < alpha <= module.GMRES_MAX_SLENDERNESS["ead"]
    assert sol.diagnostics["n_dof_primal"] >= module.GMRES_MIN_DOFS
    assert sol.diagnostics["solver"] == "lu" and sol.diagnostics["iterations"] is None
    assert calls == []
    mat, parts = cfg.make_material(), build_parts(pa, cfg, [load])
    saddle, rhs = parts.matrix_at(mat), parts.rhs_at(mat, 0)
    orders = parts.orders()  # the saddle's: free d DOFs, then S1 and S2 at their control points
    n = sol.diagnostics["n_dof_primal"]
    direct = expand_displacement(sol.d_full.size, sol.free_d, DirectSolver(saddle, orders).solve(rhs)[:n])
    assert sol.d_full.tobytes() == direct.tobytes()


def test_a_raising_thickness_leaves_no_local_alive_once_its_result_is_dropped(monkeypatch):
    # a stored exception's traceback keeps the solve's frame; the frame must
    # not keep the result list, or the two form a cycle that only the cyclic
    # collector frees, together with every local of the frame
    import gc
    import importlib
    import weakref

    module = importlib.import_module("igaplate.condense")
    build = module.build_parts
    refs = []

    def capturing_build(assembly, config, loads):
        parts = build(assembly, config, loads)
        refs.extend(weakref.ref(m) for m in (parts, parts.ctx, parts.cond))
        return parts

    def failing_load(x, y):
        raise RuntimeError("load fails")

    monkeypatch.setattr(module, "build_parts", capturing_build)
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=1.0)
    ok = lambda x, y: np.ones_like(x)  # noqa: E731
    gc.disable()
    try:
        results = module.solve_thicknesses(geometry_catalog("undistorted"), cfg, [1.0, 1e-2], [ok, failing_load])
        assert isinstance(results[1], RuntimeError)
        # the traceback is intact: from the solve down to the load that raised
        tb, names = results[1].__traceback__, []
        while tb is not None:
            names.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert names[0] == "solve_thicknesses" and names[-1] == "failing_load"
        assert all(ref() is not None for ref in refs)
        del results
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


@pytest.mark.parametrize(("thicknesses", "n_loads"), [([1.0, 0.1], 1), ([1.0], 2)])
def test_a_load_count_unlike_the_thickness_count_raises_before_any_work(monkeypatch, thicknesses, n_loads):
    import importlib

    module = importlib.import_module("igaplate.condense")
    build, direct = module.build_parts, module.DirectSolver
    work = []

    def counting_build(*args):
        work.append("build")
        return build(*args)

    class CountingSolver(direct):
        def __init__(self, *args):
            work.append("factor")
            super().__init__(*args)

    monkeypatch.setattr(module, "build_parts", counting_build)
    monkeypatch.setattr(module, "DirectSolver", CountingSolver)
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=1.0)
    load = lambda x, y: np.ones_like(x)  # noqa: E731
    with pytest.raises(ValueError, match="loads for"):
        module.solve_thicknesses(geometry_catalog("undistorted"), cfg, thicknesses, [load] * n_loads)
    assert work == []


def test_loads_are_evaluated_in_the_build_only(monkeypatch):
    # the build's kernel pass integrates every thickness's load; no load is
    # called once build_parts has returned
    import importlib

    module = importlib.import_module("igaplate.condense")
    build = module.build_parts
    events = []

    def marking_build(*args):
        parts = build(*args)
        events.append("built")
        return parts

    def recording(load):
        def call(x, y):
            events.append("load")
            return load(x, y)

        return call

    thicknesses = [1.0, 1e-2, 1e-4]
    loads = [recording(BenchmarkProblem("mp_various", thickness=t).load) for t in thicknesses]
    monkeypatch.setattr(module, "build_parts", marking_build)
    cfg = SolveConfig(variant="ead", degree=3, level=2, thickness=1.0)
    results = module.solve_thicknesses(geometry_catalog("mp_various"), cfg, thicknesses, loads)
    assert all(isinstance(r, module.VariantSolution) for r in results)
    assert events.count("built") == 1 and events.count("load") >= len(thicknesses)
    assert events[-1] == "built"


def _level_and_alone(module, cfg):
    """One solve_thicknesses call on undistorted over three thicknesses, and a solve_variant per thickness."""
    pa = geometry_catalog("undistorted")
    thicknesses = [1.0, 1e-2, 1e-4]
    loads = [BenchmarkProblem("undistorted", thickness=t).load for t in thicknesses]
    level = module.solve_thicknesses(pa, cfg, thicknesses, loads)
    alone = [module.solve_variant(pa, replace(cfg, thickness=t), load) for t, load in zip(thicknesses, loads)]
    return level, alone


def _assert_solved_as_alone(results, alone, estimate_condition):
    for sol, ref in zip(results, alone, strict=True):
        assert sol.d_full.tobytes() == ref.d_full.tobytes()
        assert [s.tobytes() for s in sol.shear[0]] == [s.tobytes() for s in ref.shear[0]]
        assert sol.diagnostics.get("cond_est") == ref.diagnostics.get("cond_est")
        assert (sol.diagnostics.get("cond_est") is not None) == estimate_condition


@pytest.mark.parametrize("estimate_condition", [False, True])
def test_a_banded_level_solves_every_thickness_as_alone(factorisations, estimate_condition):
    # the mxd p2 L4 saddle stores 3.6 % of n^2 and is a narrow band in RCM
    # order: every thickness is factorised by gbtrf, none by SuperLU, and
    # each answer is the byte-for-byte answer of a separate solve
    import importlib

    module = importlib.import_module("igaplate.condense")
    cfg = SolveConfig(variant="mxd", degree=2, level=4, thickness=1.0, estimate_condition=estimate_condition)
    results, alone = _level_and_alone(module, cfg)
    assert factorisations == ["gbtrf"] * 6
    _assert_solved_as_alone(results, alone, estimate_condition)


def test_a_level_whose_band_exceeds_the_cap_is_factorised_by_superlu(factorisations, monkeypatch):
    # with no room for a LAPACK factor of a sparse matrix, the mxd p2 L4
    # saddle goes to SuperLU at every thickness, each answer still that of
    # a separate solve, and the answer matches the band's
    import importlib

    import igaplate.sparse as sparse

    module = importlib.import_module("igaplate.condense")
    cfg = SolveConfig(variant="mxd", degree=2, level=4, thickness=1.0, estimate_condition=True)
    load = BenchmarkProblem("undistorted", thickness=1.0).load
    band = module.solve_thicknesses(geometry_catalog("undistorted"), cfg, [1.0], [load])[0]
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", 0)
    factorisations.clear()
    results, alone = _level_and_alone(module, cfg)
    assert factorisations == ["splu"] * 6
    _assert_solved_as_alone(results, alone, True)
    d = results[0].diagnostics
    assert d["lu_fill"] < band.diagnostics["lu_fill"]
    assert np.linalg.norm(results[0].d_full - band.d_full) <= 1e-12 * np.linalg.norm(band.d_full)


@pytest.mark.parametrize("estimate_condition", [False, True])
def test_a_dense_level_solves_every_thickness_as_alone(factorisations, estimate_condition):
    # the ead p2 L3 condensed matrix stores 69 % of its n^2 entries, and its
    # band in the grid's sweep order fits: every thickness is factorised by
    # gbtrf, none by SuperLU
    import importlib

    module = importlib.import_module("igaplate.condense")
    cfg = SolveConfig(variant="ead", degree=2, level=3, thickness=1.0, estimate_condition=estimate_condition)
    results, alone = _level_and_alone(module, cfg)
    assert factorisations == ["gbtrf"] * 6
    _assert_solved_as_alone(results, alone, estimate_condition)


def test_a_scalar_load_solves_like_a_constant_array():
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="mxd", degree=2, level=1, thickness=0.1)
    scalar = solve_variant(pa, cfg, load=lambda x, y: 1.0)
    array = solve_variant(pa, cfg, load=lambda x, y: np.ones_like(x))
    assert scalar.d_full.tobytes() == array.d_full.tobytes()
    assert np.abs(scalar.d_full).max() > 0
