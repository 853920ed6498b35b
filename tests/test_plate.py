"""Material matrices, field spaces, element integrals, assembly and BCs."""

import numpy as np
import pytest

from igaplate.bench import geometry_catalog
from igaplate.duals import gram_matrix
from igaplate.multipatch import assemble_primal_multipatch, build_dof_map
from igaplate.plate import (
    DegreeTooLow,
    InvalidMaterial,
    MixedSystem,
    PatchDiscretization,
    apply_clamped_bc,
    assemble,
    boundary_point_ids,
    build_field_spaces,
    element_matrices,
    material,
)


def unit_patch():
    return geometry_catalog("undistorted").patches[0]


def _one_patch_primal(disc, mat, load=None):
    """Primal (K, f, boundary_d) of one patch in its own d numbering."""
    pa = build_dof_map([disc.spaces.patch])
    shear, bending, f, boundary = assemble_primal_multipatch(pa, [disc], mat, loads=[load])
    return bending + shear, f[:, 0], boundary


# material ----------------------------------------------------------------------


def test_material_derived_values():
    mat = material(10000.0, 0.3, 0.1, 5.0 / 6.0)
    assert abs(mat.d_bend[0, 0] - 0.915750915750916) < 1e-12
    assert abs(mat.kgt - 320.5128205128205) < 1e-9


def test_material_zero_poisson():
    mat = material(1000.0, 0.0, 0.2)
    assert mat.d_bend[0, 1] == 0.0 and mat.d_bend[1, 0] == 0.0


def test_material_thickness_scaling():
    m1 = material(1000.0, 0.3, 0.1)
    m2 = material(1000.0, 0.3, 0.2)
    assert np.allclose(m2.d_bend, 8.0 * m1.d_bend)
    assert abs(m2.kgt - 2.0 * m1.kgt) < 1e-12


def test_material_validation():
    with pytest.raises(InvalidMaterial):
        material(-1.0, 0.3, 0.1)
    with pytest.raises(InvalidMaterial):
        material(10.0, 0.7, 0.1)
    with pytest.raises(InvalidMaterial):
        material(10.0, 0.3, 0.0)


# field spaces ------------------------------------------------------------------


def test_space_counts_p2_level0():
    spaces = build_field_spaces(unit_patch(), 2, level=0)
    assert spaces.disp.shape == (3, 3)
    assert spaces.s1.shape == (2, 3)
    assert spaces.s2.shape == (3, 2)


def test_continuity_reduction_before_refinement():
    patch = geometry_catalog("c1_single").patches[0]
    spaces = build_field_spaces(patch, 2, level=0, continuity_reduction=True)
    from igaplate.splines import continuity_profile

    assert continuity_profile(spaces.disp.kv_u) == [(0.5, 2, 0)]


def test_reduction_noop_on_full_continuity():
    patch = unit_patch()
    a = build_field_spaces(patch, 2, level=1, continuity_reduction=True)
    b = build_field_spaces(patch, 2, level=1, continuity_reduction=False)
    assert np.allclose(a.disp.kv_u.values, b.disp.kv_u.values)


def test_degree_too_low():
    with pytest.raises(DegreeTooLow):
        build_field_spaces(unit_patch(), 1)
    patch = geometry_catalog("nurbs_distorted").patches[0]  # degree 2 geometry
    build_field_spaces(patch, 2, level=0)  # equal degree is fine


def test_dyadic_level_spans():
    spaces = build_field_spaces(unit_patch(), 2, level=3)
    assert len(spaces.disp.kv_u.spans()) == 8
    patch = geometry_catalog("c0_single").patches[0]
    spaces = build_field_spaces(patch, 2, level=2)
    assert len(spaces.disp.kv_u.spans()) == 8  # 2 coarse spans * 2^2


# element matrices -----------------------------------------------------------------


def _disc(p=2, level=0, geometry="undistorted", **kw):
    patch = geometry_catalog(geometry).patches[0]
    return PatchDiscretization(build_field_spaces(patch, p, level=level, **kw))


def test_rigid_rotation_zero_energy():
    disc = _disc()
    mat = material(10000.0, 0.3, 0.1)
    em = element_matrices(disc, mat, "galerkin", (0, 0))
    nloc = disc.spaces.disp.ndof
    d = np.zeros(3 * nloc)
    d[nloc::2] = 0.7  # constant theta_1
    d[nloc + 1 :: 2] = -0.3  # constant theta_2
    resid = np.abs(em.k_dd @ d).max()
    assert resid < 1e-10 * np.abs(em.k_dd).max()


def test_weighted_shear_block_is_gram():
    disc = _disc()
    mat = material(10000.0, 0.3, 0.1)
    em = element_matrices(disc, mat, "weighted", (0, 0))
    g1 = np.kron(
        gram_matrix(disc.spaces.s1.kv_u), gram_matrix(disc.spaces.s1.kv_v)
    )
    assert np.abs(em.k_s11 - g1).max() < 1e-12
    g2 = np.kron(
        gram_matrix(disc.spaces.s2.kv_u), gram_matrix(disc.spaces.s2.kv_v)
    )
    assert np.abs(em.k_s22 - g2).max() < 1e-12


def test_shear_blocks_positive_definite():
    for geometry in ("undistorted", "nurbs_distorted"):
        disc = _disc(geometry=geometry)
        mat = material(10000.0, 0.3, 0.1)
        for scheme in ("galerkin", "weighted"):
            em = element_matrices(disc, mat, scheme, (0, 0))
            assert np.linalg.eigvalsh(em.k_s11).min() > 0
            assert np.linalg.eigvalsh(em.k_s22).min() > 0
            assert np.linalg.eigvalsh(em.k_dd).min() > -1e-10 * np.abs(em.k_dd).max()


def test_quadrature_sufficiency_on_affine_patch():
    patch = geometry_catalog("undistorted").patches[0]
    mat = material(10000.0, 0.3, 0.1)
    spaces = build_field_spaces(patch, 3, level=1)
    base = PatchDiscretization(spaces)
    fine = PatchDiscretization(spaces, nq=2 * base.nq1)
    for scheme in ("galerkin", "weighted"):
        a = element_matrices(base, mat, scheme, (0, 1))
        b = element_matrices(fine, mat, scheme, (0, 1))
        for key in ("k_dd", "k_ds1", "k_s1d", "k_s11", "k_s22"):
            x, y = getattr(a, key), getattr(b, key)
            scale = max(1.0, np.abs(x).max())
            assert np.abs(x - y).max() <= 1e-12 * scale


# assembly ---------------------------------------------------------------------------


def test_system_dimension_1x1_p2():
    disc = _disc()
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "weighted")
    assert system.nd == 27  # 9 w + 18 theta
    assert system.ns == 12  # 6 + 6
    a, rhs = system.monolithic()
    assert a.shape == (39, 39)
    assert len(rhs) == 39


def test_assembled_kdd_symmetric():
    disc = _disc(p=3, level=1, geometry="nurbs_distorted")
    mat = material(10000.0, 0.3, 0.01)
    system = assemble(disc, mat, "weighted")
    asym = (system.k_dd - system.k_dd.T).toarray()
    assert np.abs(asym).max() <= 1e-12 * np.abs(system.k_dd.toarray()).max()


def test_zero_load_zero_rhs():
    disc = _disc()
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "weighted", load=None)
    assert np.all(system.f_d == 0.0)


def test_galerkin_saddle_consistency():
    # shear rows are the negated transpose of the displacement couplings
    disc = _disc(p=2, level=1)
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "galerkin")
    diff = (system.k_s1d[0] + system.k_ds1[0].T * mat.kgt / mat.kgt).toarray()
    assert np.abs(system.k_s1d[0].toarray() + system.k_ds1[0].T.toarray()).max() < 1e-10


def test_clamped_bc_single_element():
    # 3x3 net: all control points except the centre lie on the first/last
    # row/column, so only the centre w and rotations stay free
    disc = _disc()
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "weighted")
    constrained, report = apply_clamped_bc(system)
    assert report["n_fixed"] == 24
    assert constrained.nd == 3
    assert constrained.ns == 12


def test_clamped_bc_interior_count():
    disc = _disc(p=2, level=2)  # 4x4 elements -> 6x6 net
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "weighted")
    constrained, _ = apply_clamped_bc(system)
    assert constrained.nd == 3 * 16  # (6-2)^2 interior points


def test_boundary_point_ids():
    spaces = build_field_spaces(unit_patch(), 2, level=1)
    ids = boundary_point_ids(spaces.disp)
    n, m = spaces.disp.shape
    assert len(ids) == 2 * n + 2 * m - 4


def test_bc_keeps_kdd_symmetry():
    disc = _disc(p=2, level=2)
    mat = material(10000.0, 0.3, 0.1)
    system = assemble(disc, mat, "weighted")
    constrained, _ = apply_clamped_bc(system)
    asym = (constrained.k_dd - constrained.k_dd.T).toarray()
    assert np.abs(asym).max() <= 1e-12 * max(1.0, np.abs(constrained.k_dd.toarray()).max())


def test_patch_test_constant_moment():
    """Manufactured constant-moment state on one galerkin element, t=1.

    theta = (a x, 0), w = a x^2 / 2 gives constant bending moments and zero
    shear; fixing the boundary DOFs at the interpolant must reproduce the
    interior DOFs exactly.
    """
    patch = geometry_catalog("undistorted").patches[0]
    mat = material(10000.0, 0.3, 1.0)
    spaces = build_field_spaces(patch, 2, level=0)
    disc = PatchDiscretization(spaces)
    system = assemble(disc, mat, "galerkin")

    # exact coefficients via Greville collocation (fields are in the space)
    gu = spaces.disp.kv_u.greville()
    gv = spaces.disp.kv_v.greville()
    xx, yy = np.meshgrid(gu, gv, indexing="ij")
    a = 0.37
    w_ex = a * xx.ravel() ** 2 / 2.0
    th1_ex = a * xx.ravel()
    # For the identity map with p=2, Greville collocation of quadratics is a
    # small solve; build the collocation matrix explicitly.
    from igaplate.splines import eval_basis_1d

    def colloc(kv):
        g = kv.greville()
        m = np.zeros((kv.n, kv.n))
        for row, x in enumerate(g):
            be = eval_basis_1d(kv, float(x))
            m[row, be.first : be.first + kv.degree + 1] = be.values
        return m

    cu, cv = colloc(spaces.disp.kv_u), colloc(spaces.disp.kv_v)
    c2d = np.kron(cu, cv)
    w_coef = np.linalg.solve(c2d, w_ex)
    th1_coef = np.linalg.solve(c2d, th1_ex)

    nw = spaces.disp.ndof
    d_exact = np.concatenate([w_coef, np.stack([th1_coef, np.zeros(nw)], axis=1).ravel()])

    a_full, _ = system.monolithic()
    a_full = a_full.toarray()
    boundary = system.boundary_d
    mask = np.ones(a_full.shape[0], dtype=bool)
    mask[boundary] = False
    free = np.flatnonzero(mask)
    rhs = -a_full[np.ix_(free, boundary)] @ d_exact[boundary]
    sol = np.linalg.solve(a_full[np.ix_(free, free)], rhs)
    full = np.zeros(a_full.shape[0])
    full[boundary] = d_exact[boundary]
    full[free] = sol
    assert np.abs(full[: system.nd] - d_exact).max() < 1e-8


def test_primal_matches_mixed_for_thick_plate():
    """Full galerkin mixed solve equals the primal solve when shear is exact."""
    patch = geometry_catalog("undistorted").patches[0]
    mat = material(10000.0, 0.3, 1.0)
    spaces = build_field_spaces(patch, 2, level=2)
    disc = PatchDiscretization(spaces)

    def load(x, y):
        return np.ones_like(x)

    k, f, boundary = _one_patch_primal(disc, mat, load)
    mask = np.ones(k.shape[0], dtype=bool)
    mask[boundary] = False
    free = np.flatnonzero(mask)
    from igaplate.sparse import solve_direct

    d_primal = solve_direct(k[np.ix_(free, free)].tocsr(), f[free])

    system = assemble(disc, mat, "galerkin", load)
    constrained, _ = apply_clamped_bc(system)
    a, rhs = constrained.monolithic()
    x = solve_direct(a, rhs)
    # primal and mixed differ (mixed relaxes shear), but w at the center
    # control point should agree well for a thick plate
    nw_free = constrained.nd // 3
    w_mixed = x[: constrained.nd][: nw_free]
    w_prim = d_primal[:nw_free]
    scale = max(np.abs(w_prim).max(), 1e-30)
    assert np.abs(w_mixed - w_prim).max() / scale < 0.05


# batched kernel ---------------------------------------------------------------------


def _pointwise_blocks(disc, mat, scheme):
    """K_theta-theta, K_dS1, K_S1S1 and the primal matrix by pointwise Gauss quadrature.

    Independent of the batched kernel: every point is evaluated on its own
    with eval_surface and eval_basis_1d, and all DOF ids are global.
    """
    from igaplate.splines import eval_basis_1d, eval_surface

    spaces = disc.spaces
    s1 = spaces.s1
    nw, m = spaces.disp.ndof, spaces.disp.kv_v.n
    nd, ns1 = 3 * nw, s1.ndof
    d_m, kgt = mat.d_bend, mat.kgt
    k_tt, k_ds1 = np.zeros((2 * nw, 2 * nw)), np.zeros((nd, ns1))
    k_s11, k_primal = np.zeros((ns1, ns1)), np.zeros((nd, nd))
    xg, wg = np.polynomial.legendre.leggauss(disc.nq1)
    for _, a, b in spaces.disp.kv_u.spans():
        for _, c, d in spaces.disp.kv_v.spans():
            for xi, wx in zip(0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg):
                for eta, wy in zip(0.5 * (c + d) + 0.5 * (d - c) * xg, 0.5 * (d - c) * wg):
                    ev = eval_surface(spaces.patch, xi, eta)
                    bas = ev.basis
                    pu, pv = bas.values.shape
                    iu, iv = bas.first_u + np.arange(pu), bas.first_v + np.arange(pv)
                    ids = np.add.outer(iu * m, iv).ravel()
                    jinv = np.linalg.inv(ev.jac)
                    gx = (jinv[0, 0] * bas.grad_xi + jinv[1, 0] * bas.grad_eta).ravel()
                    gy = (jinv[0, 1] * bas.grad_xi + jinv[1, 1] * bas.grad_eta).ravel()
                    r = bas.values.ravel()
                    w_phys = wx * wy * ev.det_jac

                    bend = np.zeros((3, 2 * nw))
                    bend[0, 2 * ids], bend[1, 2 * ids + 1] = gx, gy
                    bend[2, 2 * ids], bend[2, 2 * ids + 1] = gy, gx
                    k_theta = w_phys * bend.T @ d_m @ bend
                    k_tt += k_theta

                    shear = np.zeros((2, nd))
                    shear[0, ids], shear[1, ids] = gx, gy
                    shear[0, nw + 2 * ids], shear[1, nw + 2 * ids + 1] = -r, -r
                    k_primal += kgt * w_phys * shear.T @ shear
                    k_primal[nw:, nw:] += k_theta

                    bu, bv = eval_basis_1d(s1.kv_u, xi), eval_basis_1d(s1.kv_v, eta)
                    n1 = np.outer(bu.values, bv.values)
                    iu1 = bu.first + np.arange(len(bu.values))
                    iv1 = bv.first + np.arange(len(bv.values))
                    s_ids = np.add.outer(iu1 * s1.kv_v.n, iv1).ravel()
                    if s1.weights is not None:
                        n1 = n1 * s1.weights[np.ix_(iu1, iv1)]
                        n1 = n1 / n1.sum()
                    n1 = n1.ravel()
                    k_ds1[np.ix_(ids, s_ids)] += np.outer(gx, n1) * w_phys
                    k_ds1[np.ix_(nw + 2 * ids, s_ids)] -= np.outer(r, n1) * w_phys
                    if scheme == "galerkin":
                        k_s11[np.ix_(s_ids, s_ids)] += np.outer(n1, n1) * w_phys / kgt
                    else:
                        w_shear = wx * wy * (1.0 if s1.weights is None else bas.weight**2)
                        k_s11[np.ix_(s_ids, s_ids)] += np.outer(n1, n1) * w_shear
    return k_tt, k_ds1, k_s11, k_primal


@pytest.mark.parametrize(
    "patch,p,level",
    [
        (geometry_catalog("nurbs_distorted").patches[0], 2, 1),
        (geometry_catalog("mp_various").patches[0], 3, 1),
    ],
    ids=["nurbs_distorted", "mp_various_patch0"],
)
def test_batched_kernel_matches_pointwise_quadrature(patch, p, level):
    disc = PatchDiscretization(build_field_spaces(patch, p, level=level))
    assert not disc.unit_weights and disc.spaces.s1.weights is not None
    mat = material(10000.0, 0.3, 0.1)
    nw = disc.spaces.disp.ndof
    for scheme in ("galerkin", "weighted"):
        k_tt, k_ds1, k_s11, k_primal = _pointwise_blocks(disc, mat, scheme)
        system = assemble(disc, mat, scheme)
        k, _, _ = _one_patch_primal(disc, mat)
        for got, want in (
            (system.k_dd[nw:, nw:], k_tt),
            (system.k_ds1[0], k_ds1),
            (system.k_s11[0], k_s11),
            (k, k_primal),
        ):
            assert np.abs(got.toarray() - want).max() <= 1e-12 * np.abs(want).max()


def test_folded_control_net_raises_degenerate_jacobian():
    from igaplate.plate import DegenerateJacobian
    from igaplate.splines import ControlNet, SurfacePatch, eval_surface, validate_knot_vector

    kv = validate_knot_vector([0, 0, 0, 1, 1, 1], 2)
    g = np.array([0.0, 0.5, 1.0])
    pts = np.zeros((3, 3, 3))
    pts[..., 0], pts[..., 1] = g[:, None], g[None, :]
    pts[1, 1, :2] = (-1.0, -1.0)  # pulled past the corner: the map folds near (0, 0)
    patch = SurfacePatch(kv, kv, ControlNet(points=pts, weights=np.ones((3, 3))))
    grid = np.linspace(0.0, 1.0, 11)
    dets = [eval_surface(patch, x, y).det_jac for x in grid for y in grid]
    assert min(dets) < 0 < max(dets)
    disc = PatchDiscretization(build_field_spaces(patch, 2, level=1))
    mat = material(10000.0, 0.3, 0.1)
    with pytest.raises(DegenerateJacobian, match=r"element \(0, 0\)"):
        assemble(disc, mat, "weighted")
    with pytest.raises(DegenerateJacobian, match=r"element \(0, 0\)"):
        _one_patch_primal(disc, mat)


@pytest.mark.parametrize("geometry", ["undistorted", "mp_various"])
def test_mixed_blocks_store_no_zeros(geometry):
    from igaplate.condense import SolveConfig, prepare_problem
    from igaplate.multipatch import assemble_multipatch

    for variant in ("mxd", "ead"):
        cfg = SolveConfig(variant=variant, degree=3, level=1, thickness=0.1)
        ctx = prepare_problem(geometry_catalog(geometry), cfg)
        system = assemble_multipatch(ctx.refined, ctx.discs, cfg.make_material(), cfg.scheme)
        blocks = [system.k_dd]
        for name in ("k_ds1", "k_ds2", "k_s1d", "k_s2d", "k_s11", "k_s22"):
            blocks.extend(getattr(system, name))
        assert all(np.all(b.data != 0.0) for b in blocks)
        # the w rows of K_dd are structurally zero and hold no entries
        assert system.k_dd[: ctx.refined.n_points].nnz == 0


@pytest.mark.parametrize("geometry", ["undistorted", "mp_various"])
def test_primal_parts_store_no_zeros(geometry):
    from igaplate.condense import SolveConfig, prepare_problem

    cfg = SolveConfig(variant="std", degree=3, level=1, thickness=0.1)
    ctx = prepare_problem(geometry_catalog(geometry), cfg)
    shear, bending, _, _ = assemble_primal_multipatch(ctx.refined, ctx.discs, cfg.make_material())
    assert np.all(shear.data != 0.0) and np.all(bending.data != 0.0)
    # the bending part lives on the rotations only: its w rows and columns hold no entries
    n = ctx.refined.n_points
    assert bending[:n].nnz == bending[:, :n].nnz == 0


def _all_blocks(geometry, p, level, variant="ead", load=None):
    """A catalog cell's mixed and primal blocks, named as in oracles.coo_blocks, and both loads."""
    from igaplate.condense import SolveConfig, prepare_problem
    from igaplate.multipatch import assemble_multipatch

    cfg = SolveConfig(variant=variant, degree=p, level=level, thickness=0.1)
    ctx = prepare_problem(geometry_catalog(geometry), cfg)
    mat = cfg.make_material()
    system = assemble_multipatch(ctx.refined, ctx.discs, mat, cfg.scheme, [load])
    shear, bending, f, _ = assemble_primal_multipatch(ctx.refined, ctx.discs, mat, loads=[load])
    blocks = {"k_dd": system.k_dd, "shear": shear, "bending": bending}
    for name in ("k_ds1", "k_ds2", "k_s1d", "k_s2d", "k_s11", "k_s22"):
        for patch, block in enumerate(getattr(system, name)):
            blocks[f"{name}[{patch}]"] = block
    return blocks, (system.f_d[:, 0], f[:, 0]), ctx, mat, cfg.scheme


@pytest.mark.parametrize(
    "geometry, p, level", [("c0_single", 3, 2), ("mp_various", 3, 1), ("nurbs_distorted", 2, 2)]
)
@pytest.mark.parametrize("variant", ["mxd", "ead"])
def test_blocks_match_the_coo_reference(geometry, p, level, variant):
    from oracles import coo_blocks

    blocks, _, ctx, mat, scheme = _all_blocks(geometry, p, level, variant)
    ref = coo_blocks(ctx.refined, ctx.discs, mat, scheme)
    assert blocks.keys() == ref.keys()
    for name, block in blocks.items():
        assert np.all(block.data != 0.0) and block.has_canonical_format, name
        scale = np.abs(ref[name].data).max()
        assert np.abs((block - ref[name]).data).max(initial=0.0) <= 1e-14 * scale, name


def test_chunk_size_changes_no_block(monkeypatch):
    import igaplate.plate as plate

    def load(x, y):
        return 1.0 + x * y

    cells = [("nurbs_distorted", 2, 3), ("mp_various", 3, 1)]  # 64 elements; 2 x 16 elements
    whole = [_all_blocks(*cell, load=load)[:2] for cell in cells]
    monkeypatch.setattr(plate, "CHUNK", 5)
    for cell, (blocks, loads) in zip(cells, whole):
        parts, part_loads = _all_blocks(*cell, load=load)[:2]
        for name, a in blocks.items():
            b = parts[name]
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices), name
            assert np.array_equal(a.data, b.data), name
        assert all(np.array_equal(f, g) for f, g in zip(loads, part_loads))
