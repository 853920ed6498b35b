"""Benchmark harness: loading, exact solution, errors, geometry IO, studies, CLI."""

import dataclasses
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
    geometry_catalog,
    l2_error,
    load_function,
    load_geometry,
    read_geometry_file,
    records_to_csv,
    run_convergence_study,
    run_single,
    write_geometry_file,
)
from igaplate.condense import SolveConfig, solve_variant
from igaplate.plate import material
from oracles import exact_rotation, least_squares_rate, reference_l2_norm


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


_BILINEAR = (
    "igaplate-geometry v1\npatch\ndegrees {deg}\nknots_u {knots}\nknots_v 0 0 1 1\n"
    "points\n{point}\n1 0 0 1\n0 1 0 1\n1 1 0 1\nend\n"
)


def _bilinear_file(tmp_path, deg="1 1", knots="0 0 1 1", point="0 0 0 1"):
    path = tmp_path / "geo.txt"
    path.write_text(_BILINEAR.format(deg=deg, knots=knots, point=point))
    return path


@pytest.mark.parametrize(
    ("field", "line"),
    [({"deg": "1.5 1"}, 3), ({"knots": "0 0 inf inf"}, 4), ({"point": "nan 0 0 1"}, 7), ({"point": "0 0 0 nan"}, 7)],
    ids=["fractional_degree", "infinite_knot", "nan_coordinate", "nan_weight"],
)
def test_parse_error_malformed_number_names_its_line(tmp_path, field, line):
    with pytest.raises(ParseError, match=f"^line {line}: "):
        read_geometry_file(_bilinear_file(tmp_path, **field))


def test_integral_float_degree_is_accepted(tmp_path):
    pa = read_geometry_file(_bilinear_file(tmp_path, deg="1.0 1"))
    assert pa.patches[0].knots_u.degree == 1


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


def test_l2_error_is_the_sum_over_each_element_batch():
    # the level's shared quadrature holds what geometry() gives per batch,
    # without the gradients; the error is the same float
    from igaplate.plate import PatchDiscretization

    prob = BenchmarkProblem("mp_various", thickness=1e-2)
    cfg = SolveConfig(variant="ead", degree=3, level=2, thickness=1e-2)
    sol = solve_variant(geometry_catalog("mp_various"), cfg, load=prob.load)
    total = 0.0
    for pidx, spaces in enumerate(sol.ctx.spaces):
        disc = PatchDiscretization(spaces, nq=max(spaces.degrees) + 3)
        wc = sol.patch_w_coeffs(pidx)
        for eu, ev in disc.chunks():
            geo = disc.geometry(eu, ev)
            wh = (geo["r"] @ wc[geo["gi"]][..., None])[..., 0]
            xy = geo["xy"].reshape(-1, 2)
            wex = np.reshape(prob.reference_w(xy[:, 0], xy[:, 1]), wh.shape)
            total += float(np.sum((wh - wex) ** 2 * geo["w_param"] * geo["det"]))
    assert l2_error(sol, prob) == math.sqrt(total)


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


def _recorded_study(monkeypatch, config):
    """Run a study; return its records, the solutions given to l2_error and the prepare calls."""
    import importlib

    from igaplate import bench

    condense = importlib.import_module("igaplate.condense")
    prepared, evaluated = [], []
    prepare, l2 = condense.prepare_problem, bench.l2_error

    def counting_prepare(assembly, cfg):
        prepared.append((cfg.variant, cfg.degree, cfg.level))
        return prepare(assembly, cfg)

    def recording_l2(solution, problem, reference=None):
        evaluated.append(solution)
        return l2(solution, problem, reference)

    monkeypatch.setattr(condense, "prepare_problem", counting_prepare)
    monkeypatch.setattr(bench, "l2_error", recording_l2)
    records = run_convergence_study(config)
    monkeypatch.undo()
    return records, evaluated, prepared


_THREE_THICKNESSES = StudyConfig(
    geometry="mp_various",
    variants=("mxd", "ead"),
    degrees=(2,),
    levels=(1, 2),
    thicknesses=(1.0, 1e-2, 1e-4),
)


def test_study_builds_each_level_once_for_all_thicknesses(monkeypatch):
    _, _, prepared = _recorded_study(monkeypatch, _THREE_THICKNESSES)
    assert prepared == [(v, 2, level) for v in ("mxd", "ead") for level in (1, 2)]


def test_study_takes_l2_errors_in_record_order(monkeypatch):
    records, evaluated, _ = _recorded_study(monkeypatch, _THREE_THICKNESSES)
    assert len(records) == 12 and not any(r.error for r in records)
    order = [(s.config.variant, s.config.degree, s.config.thickness, s.config.level) for s in evaluated]
    assert order == [(r.variant, r.p, r.t, r.level) for r in records]


def _assert_cells_equal_single_solves(records, evaluated):
    """Each solved study cell equals run_single on its config, byte for byte."""
    records = [r for r in records if not r.error]
    assert len(records) == len(evaluated)
    assembly = geometry_catalog("mp_various")
    for record, solution in zip(records, evaluated):
        problem = BenchmarkProblem("mp_various", thickness=record.t)
        single, err = run_single(assembly, problem, solution.config)
        assert np.float64(err).tobytes() == np.float64(record.l2_error).tobytes()
        assert single.d_full.tobytes() == solution.d_full.tobytes()
        assert single.diagnostics["nnz_solved"] == record.nnz_condensed


def test_study_cells_equal_single_solves_byte_for_byte(monkeypatch):
    _assert_cells_equal_single_solves(*_recorded_study(monkeypatch, _THREE_THICKNESSES)[:2])


def test_build_failure_is_recorded_for_every_thickness_of_its_level(monkeypatch):
    # p=1 has no mixed spaces: each level's one build raises, and is not retried per thickness
    config = dataclasses.replace(_THREE_THICKNESSES, variants=("ead",), degrees=(1,))
    records, _, prepared = _recorded_study(monkeypatch, config)
    assert [r.error for r in records] == ["DegreeTooLow"] * 6
    assert prepared == [("ead", 1, 1), ("ead", 1, 2)]


def test_failed_thickness_leaves_the_others_of_its_level_as_single_solves(monkeypatch):
    config = dataclasses.replace(_THREE_THICKNESSES, thicknesses=(1.0, -1.0, 1e-2))
    records, evaluated, _ = _recorded_study(monkeypatch, config)
    assert [r.error for r in records if r.error] == ["InvalidMaterial"] * 4
    assert all(r.t == -1.0 for r in records if r.error)
    _assert_cells_equal_single_solves(records, evaluated)


def test_l2_error_tabulates_each_level_once_for_all_thicknesses(monkeypatch):
    from igaplate.plate import PatchDiscretization

    built = []
    init = PatchDiscretization.__init__

    def counting(self, spaces, nq=None):
        built.append(nq)
        init(self, spaces, nq)

    monkeypatch.setattr(PatchDiscretization, "__init__", counting)
    records, _, _ = _recorded_study(monkeypatch, _THREE_THICKNESSES)
    assert len(records) == 12 and not any(r.error for r in records)
    # l2_error alone asks for a Gauss rule: 2 variants x 2 levels x 2 patches
    assert len([nq for nq in built if nq is not None]) == 8


def test_rate_over_a_level_gap_is_per_halving_of_the_element_size():
    # levels 1 and 3 are two halvings apart: the rate is the mean of the two
    # consecutive ones, not their sum
    study = dict(geometry="undistorted", variants=("mxd",), degrees=(2,), thicknesses=(1.0,))
    gap = run_convergence_study(StudyConfig(levels=(1, 3), **study))
    steps = run_convergence_study(StudyConfig(levels=(1, 2, 3), **study))
    assert [r.l2_error for r in gap] == [steps[0].l2_error, steps[2].l2_error]
    assert gap[1].rate == math.log2(gap[0].l2_error / gap[1].l2_error) / 2
    assert abs(gap[1].rate - (steps[1].rate + steps[2].rate) / 2) <= 1e-12
    assert steps[1].rate == math.log2(steps[0].l2_error / steps[1].l2_error)


def test_a_negative_level_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        SolveConfig(variant="mxd", degree=2, level=-1, thickness=1.0)


@pytest.mark.parametrize("levels", [(-1, 0), (1, 1, 2), (1, 2, 2), (3, 1), (2, 3, 1)])
def test_study_levels_must_be_non_negative_and_strictly_increasing(levels):
    with pytest.raises(ValueError, match="non-negative and strictly increasing"):
        StudyConfig(geometry="undistorted", levels=levels)


def test_a_study_rejects_an_unknown_variant_or_shear_weighting_before_any_cell():
    with pytest.raises(ValueError, match="unknown variant 'eadd'"):
        StudyConfig(geometry="undistorted", variants=("ead", "eadd"))
    with pytest.raises(ValueError, match="unknown shear weighting 'nurb'"):
        StudyConfig(geometry="undistorted", shear_weighting="nurb")


def test_least_squares_rate():
    errs = [1.0, 0.25, 0.0625, 0.015625]
    assert abs(least_squares_rate(errs, last=3) - 2.0) < 1e-12


def test_least_squares_rate_raises_on_a_missing_level():
    # dropping the None would fit 1.0 and 0.0625 as one halving apart: a rate of 4, not 2
    with pytest.raises(ValueError, match="no error"):
        least_squares_rate([1.0, None, 0.0625], last=3)
    with pytest.raises(ValueError, match="no error"):
        least_squares_rate([None, 1.0, 0.25, 0.0625], last=3)


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
    assert summary["iterations"] is None  # GMRES was not tried
    assert summary["bandwidth"] > 0
    printed = capsys.readouterr().out
    assert "solver = lu" in printed and "iterations = None" in printed
    assert f"bandwidth = {summary['bandwidth']}" in printed
    assert summary["lu_fill"] > 0 and f"lu_fill = {summary['lu_fill']}" in printed
    # a large mxd cell takes GMRES, and the summary carries its iteration count
    args = ["solve", "--geometry", "c0_single", "--variant", "mxd", "--degree", "3", "--level", "3"]
    assert main(args + ["--thickness", "1", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["solver"] == "gmres" and 0 < summary["iterations"] < 60
    assert f"iterations = {summary['iterations']}" in capsys.readouterr().out

    cfg = tmp_path / "study.cfg"
    csv = tmp_path / "study.csv"
    cfg.write_text(
        "geometry = undistorted\nvariants = ead\ndegrees = 2\nlevels = 1,2\n"
        f"thicknesses = 0.1\nout = {csv}\n"
    )
    capsys.readouterr()
    assert main(["convergence", "--config", str(cfg)]) == 0
    assert csv.exists()


def test_cli_solve_reports_every_diagnostic(tmp_path, capsys):
    import json

    from igaplate.cli import main

    out = tmp_path / "run.json"
    args = ["--geometry", "undistorted", "--variant", "ead", "--degree", "2", "--level", "1", "--thickness", "0.1"]
    assert main(["solve", *args, "--out", str(out)]) == 0
    summary, printed = json.loads(out.read_text()), capsys.readouterr().out.splitlines()
    config = SolveConfig(variant="ead", degree=2, level=1, thickness=0.1)
    sol, _ = run_single(geometry_catalog("undistorted"), BenchmarkProblem("undistorted", thickness=0.1), config)
    assert "condense_mode" in sol.diagnostics
    for key, value in sol.diagnostics.items():
        assert key in summary and any(line.startswith(f"{key} = ") for line in printed)
        if not key.endswith("_s"):  # timings differ between the runs
            assert summary[key] == value and f"{key} = {value}" in printed


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["convergence", "--config", "study.cfg"], "error: line 2: bad 'variants': unknown variant 'eadd'"),
        (
            ["solve", "--geometry", "nosuch", "--variant", "ead", "--degree", "2", "--level", "1", "--thickness", "1"],
            "error: 'nosuch' is neither a catalog name nor a file",
        ),
        (["convergence", "--config", "nosuch.cfg"], "error: [Errno 2] No such file or directory: 'nosuch.cfg'"),
    ],
    ids=["config", "geometry", "missing-config"],
)
def test_cli_input_errors_print_one_line_and_exit_3(tmp_path, monkeypatch, capsys, argv, message):
    from igaplate.cli import main

    (tmp_path / "study.cfg").write_text("geometry = undistorted\nvariants = eadd\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith(message)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["convergence"], "igaplate convergence: error: the following arguments are required: --config"),
        (["bogus"], "igaplate: error: argument command: invalid choice: 'bogus'"),
    ],
    ids=["missing-option", "unknown-command"],
)
def test_cli_usage_errors_exit_3_unlike_failed_cells(capsys, argv, message):
    # exit code 2 means that study cells failed (test_cli_convergence_failure_exit_code)
    from igaplate.cli import main

    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1].startswith(message)


def test_config_file_keys_aliases_and_errors(tmp_path):
    from igaplate.cli import _parse_config_file

    def parse(text):
        path = tmp_path / "study.cfg"
        path.write_text(text)
        return _parse_config_file(str(path))

    plural = parse(
        "# a study\n"
        "geometry = c0_single  # trailing comment\n"
        "\n"
        "# out = ignored.csv\n"
        "variants = std, mxd\n"
        "degrees = 2,3\n"
        "levels = 1,2,3\n"
        "thicknesses = 0.1,1e-4\n"
        "continuity_reduction = yes\n"
        "shear_weights = bspline\n"
        "out = results.csv\n"
        "record_timings = off\n"
    )
    assert plural == StudyConfig(
        geometry="c0_single",
        variants=("std", "mxd"),
        degrees=(2, 3),
        levels=(1, 2, 3),
        thicknesses=(0.1, 1e-4),
        continuity_reduction=True,
        shear_weighting="bspline",
        out="results.csv",
        record_timings=False,
    )
    singular = parse("geometry = undistorted\nvariant = ead\ndegree = 3\nthickness = 0.5\n")
    assert singular == StudyConfig(
        geometry="undistorted", variants=("ead",), degrees=(3,), thicknesses=(0.5,)
    )
    for spelling, value in (
        ("1", True),
        ("TRUE", True),
        ("Yes", True),
        ("on", True),
        ("0", False),
        ("false", False),
        ("no", False),
        ("off", False),
    ):
        cfg = parse(
            f"geometry = undistorted\ncontinuity_reduction = {spelling}\n"
            f"record_timings = {spelling}\n"
        )
        assert cfg.continuity_reduction is value and cfg.record_timings is value
    with pytest.raises(ParseError, match="config needs a 'geometry' entry"):
        parse("variants = ead\n")
    with pytest.raises(ParseError, match=r"unknown config keys: \['colour'\]"):
        parse("geometry = undistorted\ncolour = red\n")
    with pytest.raises(ParseError, match="line 2: expected 'key = value'"):
        parse("geometry = undistorted\nlevels 1,2\n")


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("continuity_reduction = yse\n", r"line 2: bad 'continuity_reduction': 'yse' is not one of"),
        ("record_timings = treu\n", r"line 2: bad 'record_timings': 'treu' is not one of"),
        ("levels = 1,x\n", r"line 2: bad 'levels': invalid literal for int\(\)"),
        ("levels = 2,1\n", r"line 2: bad 'levels': levels must be non-negative and strictly increasing"),
        ("out = a.csv\nlevels = 2\n", r"line 3: bad 'levels': need at least two levels"),
        ("levels = 1,2\nlevels = 1,3\n", r"line 3: 'levels' sets 'levels' again, set by 'levels' on line 2"),
        ("variant = mxd\nvariants = ead\n", r"line 3: 'variants' sets 'variants' again, set by 'variant' on line 2"),
        ("variants = ead\nvariant = mxd\n", r"line 3: 'variant' sets 'variants' again, set by 'variants' on line 2"),
        ("out = a.csv\nvariants = ead,eadd\n", r"line 3: bad 'variants': unknown variant 'eadd'; pick one of"),
        ("shear_weights = nurb\n", r"line 2: bad 'shear_weights': unknown shear weighting 'nurb'"),
    ],
    ids=[
        "boolean",
        "boolean-timings",
        "integer",
        "decreasing-levels",
        "one-level",
        "repeated-key",
        "alias-after-key",
        "key-after-alias",
        "unknown-variant",
        "unknown-shear-weighting",
    ],
)
def test_config_file_errors_name_their_line(tmp_path, text, message):
    from igaplate.cli import _parse_config_file

    path = tmp_path / "study.cfg"
    path.write_text("geometry = undistorted\n" + text)
    with pytest.raises(ParseError, match=message):
        _parse_config_file(str(path))


def test_cli_convergence_writes_results_csv_by_default(tmp_path, monkeypatch, capsys):
    from igaplate.cli import main

    study = "geometry = undistorted\nvariants = ead\ndegrees = 2\nlevels = 1,2\nrecord_timings = off\n"
    (tmp_path / "study.cfg").write_text(study)
    (tmp_path / "named.cfg").write_text(study + "out = named.csv\n")
    monkeypatch.chdir(tmp_path)
    assert main(["convergence", "--config", "study.cfg"]) == 0
    assert capsys.readouterr().out.endswith("wrote results.csv (2 cells, 0 failed)\n")
    assert main(["convergence", "--config", "named.cfg"]) == 0
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "named.csv").read_bytes()


@pytest.mark.parametrize(
    "field,value", [("thickness", 0.2), ("e_mod", 2e4), ("nu", 0.25), ("kappa", 1.0)]
)
def test_run_single_rejects_a_problem_and_config_for_different_plates(field, value):
    problem = BenchmarkProblem("undistorted", thickness=0.1)
    config = SolveConfig(variant="mxd", degree=2, level=1, thickness=0.1)
    if field == "thickness":
        problem = BenchmarkProblem("undistorted", thickness=value)
    else:
        config = dataclasses.replace(config, **{field: value})
    with pytest.raises(ValueError, match=field):
        run_single(geometry_catalog("undistorted"), problem, config)


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


def test_krylov_map_script_prints_a_row_and_closes_the_gates_again(capsys, monkeypatch):
    import importlib
    import importlib.util

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the script sets these on import; restored after the test
    condense = importlib.import_module("igaplate.condense")
    gates = condense.GMRES_MIN_DOFS, dict(condense.GMRES_MAX_SLENDERNESS)
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "krylov_map.py")
    spec = importlib.util.spec_from_file_location("krylov_map", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--geometries", "undistorted", "--variants", "ead", "--degrees", "2", "--levels", "1"]
    assert script.main(argv + ["--thicknesses", "1", "--min-dofs", "0"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "geometry,variant,p,L,t,n,alpha,iterations,accepted,seconds"
    assert len(rows) == 1 and rows[0].startswith("undistorted,ead,2,1,1,")
    assert rows[0].split(",")[8] == "True"  # 12 free d DOFs: GMRES on the primal factor converges
    assert (condense.GMRES_MIN_DOFS, condense.GMRES_MAX_SLENDERNESS) == gates


def test_cell_digests_script_pins_each_cell(capsys, monkeypatch):
    import hashlib
    import importlib.util

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the script sets these on import; restored after the test
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "cell_digests.py")
    spec = importlib.util.spec_from_file_location("cell_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--geometry", "undistorted", "--variants", "ead", "--degrees", "1,2", "--levels", "1,2"]
    assert script.main(argv + ["--thicknesses", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ead p=1 t=1.0 L=1 error:DegreeTooLow", "ead p=1 t=1.0 L=2 error:DegreeTooLow"]
    assert len(lines) == 4
    problem = BenchmarkProblem("undistorted", thickness=1.0)
    config = SolveConfig(variant="ead", degree=2, level=2, thickness=1.0)
    sol = solve_variant(geometry_catalog("undistorted"), config, load=problem.load)
    digest = hashlib.sha256(sol.d_full.tobytes()).hexdigest()
    d = sol.diagnostics
    pattern = f"{d['nnz_solved']} {d['lump_dev']!r}"
    assert lines[3] == f"ead p=2 t=1.0 L=2 {digest} {l2_error(sol, problem)!r} lu None {d['lu_fill']} {pattern}"


def test_cell_digests_script_digests_a_workloads_study_cells(capsys, monkeypatch):
    # every cell of a pass, the singles included
    import importlib.util

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the script sets these on import; restored after the test
    root = os.path.join(os.path.dirname(__file__), "..")
    spec = importlib.util.spec_from_file_location("cell_digests", os.path.join(root, "scripts", "cell_digests.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--workload", "smooth_study"]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [" ".join(line.split()[:4]) for line in lines]
    assert [len(line.split()) for line in lines[-2:]] == [11, 11]  # the singles are solved and digested

    monkeypatch.syspath_prepend(os.path.join(root, "studybench"))
    from workloads import WORKLOADS, run_pass

    cells = run_pass(WORKLOADS["smooth_study"])  # the study cells, then the singles
    assert len(cells) == 50
    assert keys == [f"{v} p={p} t={t!r} L={level}" for v, p, t, level in (c["key"] for c in cells)]
