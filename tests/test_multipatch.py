"""Conforming interfaces, unified displacement DOFs, per-patch condensation."""

import numpy as np
import pytest

from igaplate.bench import BenchmarkProblem, geometry_catalog, l2_error
from igaplate.condense import SolveConfig, prepare_problem, solve_variant
from igaplate.multipatch import (
    Interface,
    NonConformingInterface,
    PatchAssembly,
    build_dof_map,
    detect_interfaces,
    grid_sweeps,
)
from igaplate.splines import ControlNet, SurfacePatch, eval_surface, validate_knot_vector


def two_patch_assembly():
    return geometry_catalog("mp_linear")


def test_detect_shared_edge():
    pa = two_patch_assembly()
    assert len(pa.interfaces) == 1
    iface = pa.interfaces[0]
    assert {iface.edge_a, iface.edge_b} == {"u0", "u1"}


def test_dof_count_shared_edge():
    pa = two_patch_assembly()
    n_local = sum(p.net.shape[0] * p.net.shape[1] for p in pa.patches)
    n_edge = pa.patches[0].net.shape[1]
    assert pa.n_points == n_local - n_edge  # 2*(n*m) - shared column


def test_single_patch_identity_map():
    pa = geometry_catalog("undistorted")
    assert pa.n_points == 4
    assert np.array_equal(pa.point_maps[0], np.arange(4))


def test_perturbed_interface_raises():
    pa = two_patch_assembly()
    patches = list(pa.patches)
    pts = patches[1].net.points.copy()
    pts[0, 1, 0] += 1e-6  # interface control point of patch B
    patches[1] = SurfacePatch(
        patches[1].knots_u, patches[1].knots_v, ControlNet(points=pts, weights=patches[1].net.weights)
    )
    with pytest.raises(NonConformingInterface):
        build_dof_map(patches)


def test_explicit_interface_validation():
    pa = two_patch_assembly()
    bad = Interface(patch_a=0, edge_a="v0", patch_b=1, edge_b="v1", reversed=False)
    with pytest.raises(NonConformingInterface):
        build_dof_map(pa.patches, interfaces=[bad])


def test_boundary_points_exclude_interface_interior():
    pa = two_patch_assembly()
    # every unified point is either boundary or on the interface interior;
    # the mp_linear interface ends lie on the outer boundary
    assert pa.n_points == 6
    assert len(pa.boundary_points) == 6  # coarse net: everything touches the edge


def test_one_patch_pipeline_matches_direct_single():
    # same geometry entered as one patch vs the assembly machinery
    pa = geometry_catalog("undistorted")
    prob = BenchmarkProblem("undistorted", thickness=0.1)
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.1)
    sol = solve_variant(pa, cfg, load=prob.load)
    sol2 = solve_variant(pa.patches[0], cfg, load=prob.load)  # raw SurfacePatch input
    assert np.abs(sol.d_full - sol2.d_full).max() <= 1e-12 * max(1.0, np.abs(sol.d_full).max())


def test_interface_displacement_continuity():
    pa = geometry_catalog("mp_c1")
    prob = BenchmarkProblem("mp_c1", thickness=0.1)
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.1)
    sol = solve_variant(pa, cfg, load=prob.load)

    iface = sol.ctx.refined.interfaces[0]
    pts = np.linspace(0.0, 1.0, 20)
    from igaplate.splines import eval_basis_1d

    def w_on_edge(pidx, edge, t):
        spaces = sol.ctx.spaces[pidx]
        wc = sol.patch_w_coeffs(pidx)
        xi = {"u0": 0.0, "u1": 1.0}.get(edge)
        bu = eval_basis_1d(spaces.disp.kv_u, xi)
        bv = eval_basis_1d(spaces.disp.kv_v, t)
        m = spaces.disp.kv_v.n
        idx = np.add.outer(
            (bu.first + np.arange(spaces.disp.kv_u.degree + 1)) * m,
            bv.first + np.arange(spaces.disp.kv_v.degree + 1),
        ).ravel()
        vals = np.outer(bu.values, bv.values).ravel()
        wts = sol.ctx.spaces[pidx].disp.weights
        if wts is not None:
            wl = wts.ravel()[idx]
            vals = vals * wl / (vals @ wl)
        return vals @ wc[idx]

    for t in pts:
        wa = w_on_edge(iface.patch_a, iface.edge_a, t)
        wb = w_on_edge(iface.patch_b, iface.edge_b, t)
        assert abs(wa - wb) < 1e-10


def test_shear_never_couples_across_patches():
    pa = geometry_catalog("mp_various")
    cfg = SolveConfig(variant="mxd", degree=2, level=1, thickness=0.1)
    from igaplate.condense import assemble_mixed, prepare_problem

    ctx = prepare_problem(pa, cfg)
    system = assemble_mixed(ctx, cfg.make_material(), [lambda x, y: np.ones_like(x)])
    a, _ = system.monolithic()
    a = a.tocsr()
    nd = system.nd
    ns1 = [m.shape[0] for m in system.k_s11]
    ns2 = [m.shape[0] for m in system.k_s22]
    # shear block of patch 0 vs shear block of patch 1: structurally zero
    r0 = slice(nd, nd + ns1[0])
    r1 = slice(nd + ns1[0], nd + ns1[0] + ns1[1])
    block = a[r0, :][:, r1.start : r1.stop]
    assert block.nnz == 0
    # S1-S2 coupling absent as well
    s2_start = nd + sum(ns1)
    block12 = a[r0, :][:, s2_start : s2_start + ns2[0]]
    assert block12.nnz == 0


def test_patch_level_vs_monolithic_condensation():
    pa = geometry_catalog("mp_linear")
    prob = BenchmarkProblem("mp_linear", thickness=0.1)
    cfg = SolveConfig(variant="ead", degree=2, level=2, thickness=0.1)
    from igaplate.condense import (
        assemble_mixed,
        build_transforms,
        condense,
        pg_transform,
        prepare_problem,
    )
    import scipy.sparse as sp
    from igaplate.sparse import solve_direct

    ctx = prepare_problem(pa, cfg)
    system = assemble_mixed(ctx, cfg.make_material(), [prob.load])
    t1s, t2s = build_transforms(ctx)
    transformed = pg_transform(system, t1s, t2s)
    cond = condense(transformed, lumped=True)  # per-patch accumulation
    d_patchwise = solve_direct(cond.k_cond, cond.f_d[:, 0])

    # monolithic block-diagonal treatment of the same transformed system
    k = transformed.k_dd.copy()
    t_s1d = sp.vstack(transformed.k_s1d)
    t_s2d = sp.vstack(transformed.k_s2d)
    k_ds1 = sp.hstack(transformed.k_ds1)
    k_ds2 = sp.hstack(transformed.k_ds2)
    k_mono = k - k_ds1 @ t_s1d - k_ds2 @ t_s2d
    d_mono = solve_direct(k_mono.tocsr(), transformed.f_d[:, 0])
    assert np.abs(d_patchwise - d_mono).max() <= 1e-11 * max(1.0, np.abs(d_mono).max())


def test_patch_order_independence():
    pa = geometry_catalog("mp_c1")
    prob = BenchmarkProblem("mp_c1", thickness=0.01)
    cfg = SolveConfig(variant="ead", degree=2, level=1, thickness=0.01)
    sol_ab = solve_variant(pa, cfg, load=prob.load)
    swapped = PatchAssembly(
        patches=[pa.patches[1], pa.patches[0]],
        interfaces=None or [],
        point_maps=[],
        n_points=0,
        boundary_points=np.array([], dtype=int),
    )
    swapped = build_dof_map(swapped.patches)
    sol_ba = solve_variant(swapped, cfg, load=prob.load)
    err_ab = l2_error(sol_ab, prob)
    err_ba = l2_error(sol_ba, prob)
    assert abs(err_ab - err_ba) <= 1e-12 * max(err_ab, 1e-30)


def test_error_invariant_under_patch_reordering():
    pa = geometry_catalog("mp_various")
    prob = BenchmarkProblem("mp_various", thickness=0.1)
    cfg = SolveConfig(variant="mxd", degree=2, level=1, thickness=0.1)
    sol = solve_variant(pa, cfg, load=prob.load)
    swapped = build_dof_map([pa.patches[1], pa.patches[0]])
    sol2 = solve_variant(swapped, cfg, load=prob.load)
    e1, e2 = l2_error(sol, prob), l2_error(sol2, prob)
    assert abs(e1 - e2) <= 1e-14


def test_the_sweeps_of_one_patch_are_its_point_order_and_its_transpose():
    cfg = SolveConfig(variant="mxd", degree=3, level=2, thickness=1.0)
    ctx = prepare_problem(geometry_catalog("c0_single"), cfg)
    n_u, n_v = ctx.refined.patches[0].net.shape
    assert ctx.refined.n_points == n_u * n_v
    u0, v0 = grid_sweeps(ctx.refined)
    assert np.array_equal(u0, np.arange(n_u * n_v))  # iu n_v + iv
    iu, iv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    assert np.array_equal(v0, (iv * n_u + iu).ravel())


def test_the_sweeps_of_two_patches_run_across_their_interface_row_by_row():
    # mp_various joins patch 0's u1 edge to patch 1's u0 edge; at L3 each
    # grid has 11 columns along u, 21 across both
    cfg = SolveConfig(variant="mxd", degree=3, level=3, thickness=1.0)
    pa = prepare_problem(geometry_catalog("mp_various"), cfg).refined
    u0, v0 = grid_sweeps(pa)
    (n_u, n_v), (m_u, m_v) = (p.net.shape for p in pa.patches)
    assert n_v == m_v and n_u + m_u - 1 == 21
    for p, ids in enumerate(pa.point_maps):
        grid = ids.reshape(pa.patches[p].net.shape)
        iu, iv = np.meshgrid(np.arange(grid.shape[0]), np.arange(n_v), indexing="ij")
        column = iu + p * (n_u - 1)  # across both patches, the interface column shared
        assert np.array_equal(v0[grid], iv * 21 + column)
        # only patch 0's u0 edge starts the u0 walk, not the ends of the interface
        assert np.array_equal(u0[grid], column * n_v + iv)
