"""Snapshot of the public surface: package exports, CLI flags, CSV columns, file format.

These names are fixed; a change that drops or renames one must update this
file on purpose.
"""

import io

import igaplate
from igaplate import bench, cli

EXPORTS = [
    "BasisEval",
    "BenchmarkProblem",
    "CondensedSystem",
    "ControlNet",
    "DualTransform1D",
    "DualTransform2D",
    "FieldSpaces",
    "KnotVector",
    "MixedSystem",
    "PatchAssembly",
    "PlateMaterial",
    "SolveConfig",
    "StudyConfig",
    "SurfacePatch",
    "VariantSolution",
    "apply_clamped_bc",
    "assemble",
    "bench",
    "build_dof_map",
    "build_field_spaces",
    "condense",
    "continuity_profile",
    "dual_transform_1d",
    "dual_transform_2d",
    "duals",
    "element_matrices",
    "elevate_degree",
    "eval_basis_1d",
    "eval_surface",
    "exact_displacement",
    "extract_element_transform",
    "geometry_catalog",
    "gram_matrix",
    "insert_knots",
    "l2_error",
    "load_function",
    "material",
    "multipatch",
    "nnz_and_bandwidth",
    "pg_transform",
    "plate",
    "read_geometry_file",
    "recover_shear",
    "reduce_continuity",
    "row_sum_lump",
    "run_convergence_study",
    "solve_direct",
    "solve_variant",
    "sparse",
    "splines",
    "validate_knot_vector",
    "write_geometry_file",
]

CLI_OPTIONS = {
    "solve": [
        "-h",
        "--help",
        "--geometry",
        "--variant",
        "--degree",
        "--level",
        "--thickness",
        "--no-continuity-reduction",
        "--shear-weights",
        "--out",
    ],
    "convergence": ["-h", "--help", "--config"],
    "geometry": ["-h", "--help", "--list", "--export"],
}

CSV_HEADER = (
    "geometry,variant,p,t,level,elems_per_dir,n_dof_primal,n_dof_mixed,"
    "nnz_condensed,l2_error,rate,assembly_s,factor_s,solve_s,lump_dev"
)

UNDISTORTED_FILE = """\
igaplate-geometry v1
patch
degrees 1 1
knots_u 0.0 0.0 1.0 1.0
knots_v 0.0 0.0 1.0 1.0
points
0.0 0.0 0.0 1.0
1.0 0.0 0.0 1.0
0.0 1.0 0.0 1.0
1.0 1.0 0.0 1.0
end
"""


def test_package_exports():
    assert sorted(igaplate.__all__) == EXPORTS


def test_cli_option_strings():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.choices and not a.option_strings]
    found = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert found == CLI_OPTIONS


def test_csv_header():
    assert bench.CSV_HEADER == CSV_HEADER


def test_geometry_file_format():
    out = io.StringIO()
    bench.write_geometry_file(bench.geometry_catalog("undistorted"), out)
    assert out.getvalue() == UNDISTORTED_FILE
    assert bench.read_geometry_file(io.StringIO(UNDISTORTED_FILE)).n_patches == 1
