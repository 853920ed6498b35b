"""Benchmark harness: loading, exact solution, errors, geometry IO, studies, CLI."""

import io
import math
import os

import numpy as np
import pytest

from igaplate.bench import (
    BenchmarkProblem,
    GEOMETRY_NAMES,
    InvalidGeometry,
    ParseError,
    StudyConfig,
    UnknownGeometry,
    exact_displacement,
    exact_rotation,
    geometry_catalog,
    l2_error,
    least_squares_rate,
    load_function,
    load_geometry,
    read_geometry_file,
    records_to_csv,
    reference_l2_norm,
    run_convergence_study,
    run_single,
    write_geometry_file,
)
from igaplate.condense import SolveConfig, solve_variant
from igaplate.plate import material


# load and closed-form solution ------------------------------------------------


def test_load_vanishes_at_corners():
    mat = material(10000.0, 0.3, 0.1)
    for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert load_function(x, y, mat) == 0.0


def test_load_centre_value():
    mat = material(10000.0, 0.3, 0.1)
    assert abs(load_function(0.5, 0.5, mat) - 25.755494505494504) < 1e-10


def test_load_symmetric_under_swap():
    mat = material(10000.0, 0.3, 0.01)
    rng = np.random.default_rng(2)
    for x, y in rng.random((20, 2)):
        assert abs(load_function(x, y, mat) - load_function(y, x, mat)) < 1e-12


def test_exact_displacement_boundary_zero():
    for s in np.linspace(0, 1, 11):
        assert exact_displacement(0.0, s, 0.1, 0.3) == 0.0
        assert exact_displacement(s, 1.0, 0.1, 0.3) == 0.0


def test_exact_displacement_centre_value():
    assert abs(exact_displacement(0.5, 0.5, 0.1, 0.3) - 9.25409226190476e-5) < 1e-15


def test_thin_limit_is_bending_part():
    x, y = 0.3, 0.7
    w_t = exact_displacement(x, y, 1e-8, 0.3)
    w0 = (x * (x - 1) * y * (y - 1)) ** 3 / 3.0
    assert abs(w_t - w0) < 1e-16


def test_strong_form_residual_sympy():
    """The scaled closed-form fields satisfy the plate equations with the load."""
    import sympy as sm

    x, y = sm.symbols("x y")
    e_mod, nu, t, f0 = 10000, sm.Rational(3, 10), sm.Rational(1, 10), 100
    kappa = sm.Rational(5, 6)
    g_mod = e_mod / (2 * (1 + nu))
    kgt = kappa * g_mod * t
    d_fac = e_mod * t**3 / (12 * (1 - nu**2))

    f1h = x * (x - 1) * (5 * y**2 - 5 * y + 1)
    f2h = y * (y - 1) * (5 * x**2 - 5 * x + 1)
    f1 = 12 * f2h * (2 * y**2 * (y - 1) ** 2 + f1h)
    f2 = 12 * f1h * (2 * x**2 * (x - 1) ** 2 + f2h)
    load = f0 * d_fac * (f1 + f2)

    w0 = x**3 * (x - 1) ** 3 * y**3 * (y - 1) ** 3 / 3
    w1 = y**2 * (y - 1) ** 2 * x * (x - 1) * f2h
    w2 = x**2 * (x - 1) ** 2 * y * (y - 1) * f1h
    w = f0 * (w0 - 2 * t**2 / (5 * (1 - nu)) * (w1 + w2))
    th1 = f0 * sm.diff(w0, x)
    th2 = f0 * sm.diff(w0, y)

    s1 = kgt * (sm.diff(w, x) - th1)
    s2 = kgt * (sm.diff(w, y) - th2)
    # moments from the bending law
    m1 = d_fac * (sm.diff(th1, x) + nu * sm.diff(th2, y))
    m2 = d_fac * (nu * sm.diff(th1, x) + sm.diff(th2, y))
    m12 = d_fac * (1 - nu) / 2 * (sm.diff(th1, y) + sm.diff(th2, x))

    r_w = sm.simplify(sm.diff(s1, x) + sm.diff(s2, y) + load)
    r_t1 = sm.simplify(sm.diff(m1, x) + sm.diff(m12, y) + s1)
    r_t2 = sm.simplify(sm.diff(m12, x) + sm.diff(m2, y) + s2)
    assert r_w == 0 and r_t1 == 0 and r_t2 == 0


def test_strong_form_residual_numeric():
    # finite-difference version of the residual check at random points
    f0, t, nu, e_mod = 100.0, 0.1, 0.3, 10000.0
    mat = material(e_mod, nu, t)
    h = 1e-5
    rng = np.random.default_rng(8)

    def s_field(x, y):
        th1, th2 = exact_rotation(x, y)
        dwdx = (exact_displacement(x + h, y, t, nu) - exact_displacement(x - h, y, t, nu)) / (2 * h)
        dwdy = (exact_displacement(x, y + h, t, nu) - exact_displacement(x, y - h, t, nu)) / (2 * h)
        return mat.kgt * f0 * np.array([dwdx - th1, dwdy - th2])

    worst = 0.0
    for x, y in 0.1 + 0.8 * rng.random((100, 2)):
        div_s = (s_field(x + h, y)[0] - s_field(x - h, y)[0]) / (2 * h) + (
            s_field(x, y + h)[1] - s_field(x, y - h)[1]
        ) / (2 * h)
        f = load_function(x, y, mat, f0)
        worst = max(worst, abs(div_s + f) / max(abs(f), 1.0))
    assert worst < 1e-4  # finite differences; the sympy test checks exactness


# geometry catalog ----------------------------------------------------------------


def test_catalog_names_and_unknown():
    assert set(GEOMETRY_NAMES) == {
        "undistorted",
        "nurbs_distorted",
        "c1_single",
        "c0_single",
        "mp_linear",
        "mp_c1",
        "mp_various",
    }
    with pytest.raises(UnknownGeometry):
        geometry_catalog("spherical_cow")


def test_undistorted_table():
    pa = geometry_catalog("undistorted")
    patch = pa.patches[0]
    assert patch.degrees == (1, 1)
    assert np.allclose(patch.knots_u.values, [0, 0, 1, 1])
    assert np.allclose(patch.net.points[:, :, :2].reshape(-1, 2).sum(axis=0), [2, 2])


def test_nurbs_distorted_centre_weight():
    patch = geometry_catalog("nurbs_distorted").patches[0]
    assert patch.net.weights[1, 1] == 1.5
    assert np.allclose(patch.net.points[1, 1, :2], [0.3, 0.3])


def test_mp_various_fractions_and_weights():
    pa = geometry_catalog("mp_various")
    assert len(pa.patches) == 2
    patch = pa.patches[0]
    assert patch.degrees == (1, 3)
    h = patch.knots_v.values
    assert np.allclose(
        h, [0, 0, 0, 0, 0.3, 0.3, 0.5, 0.5, 0.5, 0.7, 1, 1, 1, 1]
    )
    ys = patch.net.points[0, :, 1]
    assert abs(ys[3] - 11 / 30) < 1e-15 and abs(ys[4] - 13 / 30) < 1e-15
    assert abs(ys[5] - 8 / 15) < 1e-15 and abs(ys[7] - 23 / 30) < 1e-15
    mid_weights = pa.patches[0].net.weights[1, :]
    assert np.allclose(mid_weights, [1, 1.2, 1.4, 0.8, 1, 1.3, 1.1, 1.5, 0.9, 1])


def test_mp_c1_per_patch_definition():
    pa = geometry_catalog("mp_c1")
    for patch in pa.patches:
        assert patch.degrees == (1, 2)
        assert np.allclose(patch.knots_v.values, [0, 0, 0, 0.5, 1, 1, 1])


# geometry files ------------------------------------------------------------------


def test_roundtrip_all_catalog_geometries(tmp_path):
    for name in GEOMETRY_NAMES:
        pa = geometry_catalog(name)
        path = tmp_path / f"{name}.txt"
        write_geometry_file(pa, path)
        back = read_geometry_file(path)
        assert len(back.patches) == len(pa.patches)
        for a, b in zip(pa.patches, back.patches):
            assert np.array_equal(a.net.points, b.net.points)
            assert np.array_equal(a.net.weights, b.net.weights)
            assert np.array_equal(a.knots_u.values, b.knots_u.values)
        # canonical formatting: write(read(x)) is byte-identical
        buf1 = io.StringIO()
        write_geometry_file(back, buf1)
        path2 = tmp_path / f"{name}2.txt"
        write_geometry_file(back, path2)
        assert buf1.getvalue() == path2.read_text()
        assert path.read_text() == buf1.getvalue()


def test_handwritten_c1_file_matches_catalog(tmp_path):
    rows = geometry_catalog("c1_single").patches[0]
    lines = ["igaplate-geometry v1", "patch", "degrees 2 2"]
    lines.append("knots_u 0 0 0 0.5 1 1 1")
    lines.append("knots_v 0 0 0 0.5 1 1 1")
    lines.append("points")
    n, m = rows.net.shape
    for j in range(m):
        for i in range(n):
            x, y, z = rows.net.points[i, j]
            lines.append(f"{x} {y} {z} 1")
    lines.append("end")
    path = tmp_path / "c1.txt"
    path.write_text("\n".join(lines) + "\n")
    pa = read_geometry_file(path)
    cat = geometry_catalog("c1_single")
    assert np.allclose(pa.patches[0].net.points, cat.patches[0].net.points)


def test_parse_error_decreasing_knots(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "igaplate-geometry v1\npatch\ndegrees 1 1\nknots_u 0 1 0 1\nknots_v 0 0 1 1\n"
        "points\n0 0 0 1\n1 0 0 1\n0 1 0 1\n1 1 0 1\nend\n"
    )
    with pytest.raises(ParseError) as exc:
        read_geometry_file(path)
    assert "position" in str(exc.value)  # names the offending knot index


def test_parse_error_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ParseError):
        read_geometry_file(path)


def test_invalid_geometry_nonpositive_weight(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "igaplate-geometry v1\npatch\ndegrees 1 1\nknots_u 0 0 1 1\nknots_v 0 0 1 1\n"
        "points\n0 0 0 1\n1 0 0 -2\n0 1 0 1\n1 1 0 1\nend\n"
    )
    with pytest.raises(InvalidGeometry):
        read_geometry_file(path)


# error norm ----------------------------------------------------------------------


def test_zero_solution_error_is_reference_norm():
    prob = BenchmarkProblem("undistorted", thickness=0.1)
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="mxd", degree=2, level=3, thickness=0.1)
    sol = solve_variant(pa, cfg, load=prob.load)
    sol.d_full[:] = 0.0
    err = l2_error(sol, prob)
    ref = reference_l2_norm(prob)
    assert err > 0
    assert abs(err - ref) / ref < 1e-6  # (p+3)^2 error quadrature vs dense oracle


def test_interpolated_reference_gives_tiny_error():
    """The reference deflection is degree 6 per direction; interpolating it in a
    degree-6 space must leave an error far below discretisation levels."""
    prob = BenchmarkProblem("undistorted", thickness=0.1)
    pa = geometry_catalog("undistorted")
    cfg = SolveConfig(variant="mxd", degree=6, level=1, thickness=0.1)
    from igaplate.condense import VariantSolution, prepare_problem

    ctx = prepare_problem(pa, cfg)
    spaces = ctx.spaces[0]
    from igaplate.splines import eval_basis_1d

    def colloc(kv):
        g = kv.greville()
        m = np.zeros((kv.n, kv.n))
        for row, xx in enumerate(g):
            be = eval_basis_1d(kv, float(xx))
            m[row, be.first : be.first + kv.degree + 1] = be.values
        return m

    gu = spaces.disp.kv_u.greville()
    gv = spaces.disp.kv_v.greville()
    xx, yy = np.meshgrid(gu, gv, indexing="ij")
    vals = prob.reference_w(xx.ravel(), yy.ravel())
    coef = np.linalg.solve(np.kron(colloc(spaces.disp.kv_u), colloc(spaces.disp.kv_v)), vals)
    nd_full = 3 * ctx.refined.n_points
    sol = VariantSolution(
        config=cfg,
        ctx=ctx,
        d_full=np.zeros(nd_full),
        free_d=np.arange(nd_full),
        shear=None,
        diagnostics={},
    )
    sol.d_full[: len(coef)] = coef
    assert l2_error(sol, prob) < 1e-9


# study driver --------------------------------------------------------------------


def test_convergence_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    config = StudyConfig(
        geometry="undistorted",
        variants=("ead", "std"),
        degrees=(2,),
        levels=(1, 2),
        thicknesses=(0.1,),
        out=str(out),
    )
    records = run_convergence_study(config)
    assert len(records) == 4
    text = out.read_text()
    header = text.splitlines()[0]
    assert header == (
        "geometry,variant,p,t,level,elems_per_dir,n_dof_primal,n_dof_mixed,"
        "nnz_condensed,l2_error,rate,assembly_s,factor_s,solve_s,lump_dev"
    )
    # rates defined from the second level on
    assert records[0].rate is None and records[1].rate is not None


def test_study_determinism_without_timings():
    config = StudyConfig(
        geometry="undistorted",
        variants=("ead",),
        degrees=(2,),
        levels=(1, 2),
        thicknesses=(0.1,),
        record_timings=False,
    )
    a = records_to_csv(run_convergence_study(config), record_timings=False)
    b = records_to_csv(run_convergence_study(config), record_timings=False)
    assert a == b


def test_failed_cell_is_recorded_and_study_continues():
    config = StudyConfig(
        geometry="mp_various",
        variants=("lmp",),
        degrees=(2,),
        levels=(1, 2),
        thicknesses=(1e20,),  # invalid material scale survives; use bad thickness
    )
    # thickness that breaks the material validation
    import dataclasses

    config = dataclasses.replace(config, thicknesses=(-1.0,))
    records = run_convergence_study(config)
    assert len(records) == 2
    assert all(r.error for r in records)
    csv = records_to_csv(records)
    assert "error:" in csv


def test_least_squares_rate():
    errs = [1.0, 0.25, 0.0625, 0.015625]
    assert abs(least_squares_rate(errs, last=3) - 2.0) < 1e-12


def test_load_geometry_dispatch(tmp_path):
    assert load_geometry("undistorted").n_patches == 1
    path = tmp_path / "geo.txt"
    write_geometry_file(geometry_catalog("mp_linear"), path)
    assert load_geometry(str(path)).n_patches == 2
    with pytest.raises(UnknownGeometry):
        load_geometry("no_such_thing.txt")


# CLI --------------------------------------------------------------------------------


def test_cli_geometry_list(capsys):
    from igaplate.cli import main

    assert main(["geometry", "--list"]) == 0
    out = capsys.readouterr().out
    for name in GEOMETRY_NAMES:
        assert name in out


def test_cli_geometry_export(capsys):
    from igaplate.cli import main

    assert main(["geometry", "--export", "nurbs_distorted"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("igaplate-geometry v1")
    assert "1.5" in out


def test_cli_solve_and_convergence(tmp_path, capsys):
    from igaplate.cli import main

    out = tmp_path / "run.json"
    code = main(
        [
            "solve",
            "--geometry",
            "undistorted",
            "--variant",
            "ead",
            "--degree",
            "2",
            "--level",
            "1",
            "--thickness",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    import json

    summary = json.loads(out.read_text())
    assert summary["l2_error"] > 0
    assert summary["solver"] == "lu"
    assert "solver = lu" in capsys.readouterr().out

    cfg = tmp_path / "study.cfg"
    csv = tmp_path / "study.csv"
    cfg.write_text(
        "geometry = undistorted\nvariants = ead\ndegrees = 2\nlevels = 1,2\n"
        f"thicknesses = 0.1\nout = {csv}\n"
    )
    capsys.readouterr()
    assert main(["convergence", "--config", str(cfg)]) == 0
    assert csv.exists()


def test_cli_convergence_failure_exit_code(tmp_path, capsys):
    from igaplate.cli import main

    cfg = tmp_path / "study.cfg"
    csv = tmp_path / "study.csv"
    # degree 1 is below the mixed-variant minimum: every cell fails
    cfg.write_text(
        f"geometry = undistorted\nvariants = ead\ndegrees = 1\nlevels = 1,2\nout = {csv}\n"
    )
    assert main(["convergence", "--config", str(cfg)]) == 2


def test_reproduce_studies_script_writes_csv(tmp_path):
    import importlib.util

    from igaplate.bench import CSV_HEADER

    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "reproduce_studies.py")
    spec = importlib.util.spec_from_file_location("reproduce_studies", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--out-dir", str(tmp_path), "--geometries", "undistorted", "--variants", "ead,mxd"]
    argv += ["--degrees", "2", "--max-level", "2", "--thicknesses", "1"]
    assert script.main(argv) == 0
    lines = (tmp_path / "undistorted.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # two variants x levels 1-2


def test_plot_sparsity_script_prints_every_stage(capsys):
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "plot_sparsity.py")
    spec = importlib.util.spec_from_file_location("plot_sparsity", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--geometry", "undistorted", "--degree", "2", "--level", "1", "--thickness", "0.1"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    for stage in ("mixed saddle system:", "dual-transformed:", "condensed (lumped):"):
        assert stage in out
