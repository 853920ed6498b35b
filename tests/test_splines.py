"""Basis evaluation, refinement and continuity bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igaplate.splines import (
    ControlNet,
    DecreasingKnots,
    ExcessMultiplicity,
    MultiplicityOverflow,
    NotOpen,
    OutOfDomain,
    SurfacePatch,
    basis_table,
    continuity_profile,
    elevate_degree,
    eval_basis_1d,
    eval_surface,
    insert_knots,
    validate_knot_vector,
)


def unit_square_patch():
    kv = validate_knot_vector([0, 0, 1, 1], 1)
    pts = np.zeros((2, 2, 3))
    pts[0, 0] = (0, 0, 0)
    pts[1, 0] = (1, 0, 0)
    pts[0, 1] = (0, 1, 0)
    pts[1, 1] = (1, 1, 0)
    return SurfacePatch(kv, kv, ControlNet(points=pts, weights=np.ones((2, 2))))


def table_1b_patch():
    from igaplate.bench import geometry_catalog

    return geometry_catalog("nurbs_distorted").patches[0]


# knot vector validation -----------------------------------------------------


def test_minimal_open_vector():
    kv = validate_knot_vector([0, 0, 1, 1], 1)
    assert kv.n == 2


def test_c1_vector_from_catalog():
    kv = validate_knot_vector([0, 0, 0, 0.5, 1, 1, 1], 2)
    assert kv.n == 4
    assert continuity_profile(kv) == [(0.5, 1, 1)]


def test_decreasing_raises():
    with pytest.raises(DecreasingKnots):
        validate_knot_vector([0, 1, 0], 1)


def test_not_open_raises():
    with pytest.raises(NotOpen):
        validate_knot_vector([0, 0, 0.5, 1], 1)
    with pytest.raises(NotOpen):
        validate_knot_vector([0, 0, 1, 1], 2)


def test_excess_multiplicity_raises():
    with pytest.raises(ExcessMultiplicity):
        validate_knot_vector([0, 0, 0.5, 0.5, 0.5, 1, 1], 1)


# 1D basis ---------------------------------------------------------------------


def test_bernstein_values_at_half():
    kv = validate_knot_vector([0, 0, 0, 1, 1, 1], 2)
    be = eval_basis_1d(kv, 0.5)
    assert np.allclose(be.values, [0.25, 0.5, 0.25], atol=1e-15)


def test_bernstein_endpoint_derivative():
    kv = validate_knot_vector([0, 0, 0, 1, 1, 1], 2)
    be = eval_basis_1d(kv, 0.0, nderiv=1)
    assert np.allclose(be.values, [1, 0, 0], atol=1e-15)
    assert np.allclose(be.ders[1], [-2, 2, 0], atol=1e-15)


def test_two_span_partition_of_unity():
    kv = validate_knot_vector([0, 0, 0, 0.5, 1, 1, 1], 2)
    be = eval_basis_1d(kv, 0.25)
    assert abs(be.values.sum() - 1.0) < 1e-13
    assert np.all(be.values >= 0) and np.all(be.values <= 1)


def test_right_end_evaluation():
    kv = validate_knot_vector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    be = eval_basis_1d(kv, 1.0)
    assert abs(be.values.sum() - 1.0) < 1e-13
    assert be.first + kv.degree == kv.n - 1  # last function active


def test_out_of_domain():
    kv = validate_knot_vector([0, 0, 1, 1], 1)
    with pytest.raises(OutOfDomain):
        eval_basis_1d(kv, 1.5)


@st.composite
def open_knot_vectors(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    n_int = draw(st.integers(min_value=0, max_value=4))
    # well separated interior knots (multiples of 0.05)
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    interior = sorted(draw(st.lists(st.sampled_from(grid), min_size=n_int, max_size=n_int, unique=True)))
    vals = [0.0] * (p + 1) + interior + [1.0] * (p + 1)
    return validate_knot_vector(vals, p)


@given(open_knot_vectors(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_partition_of_unity_random(kv, x):
    be = eval_basis_1d(kv, x)
    assert abs(be.values.sum() - 1.0) < 1e-13


@given(open_knot_vectors(), st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=30, deadline=None)
def test_derivative_matches_finite_difference(kv, x):
    h = 1e-6
    lo, hi = kv.domain
    if x - h <= lo or x + h >= hi:
        return
    if np.min(np.abs(kv.values - x)) < 10 * h:
        return  # derivative may be one-sided at a knot
    be = eval_basis_1d(kv, x, nderiv=1)
    # compare on the full coefficient vector to handle span changes
    def full(xx):
        b = eval_basis_1d(kv, xx)
        out = np.zeros(kv.n)
        out[b.first : b.first + kv.degree + 1] = b.values
        return out

    fd = (full(x + h) - full(x - h)) / (2 * h)
    an = np.zeros(kv.n)
    an[be.first : be.first + kv.degree + 1] = be.ders[1]
    scale = max(1.0, np.abs(an).max())
    assert np.abs(an - fd).max() / scale < 1e-5


@given(open_knot_vectors())
@settings(max_examples=25, deadline=None)
def test_derivatives_sum_to_zero(kv):
    be = eval_basis_1d(kv, 0.37, nderiv=1)
    assert abs(be.ders[1].sum()) < 1e-10


def test_basis_table_matches_scipy_bspline():
    # independent reference: scipy's B-splines with unit coefficient vectors,
    # on a knot vector with a repeated (C1) interior knot, its knots and ends
    from scipy.interpolate import BSpline

    kv = validate_knot_vector([0, 0, 0, 0, 0.2, 0.5, 0.5, 0.7, 1, 1, 1, 1], 3)
    xs = np.concatenate([np.linspace(0.0, 1.0, 41), [0.2, 0.5, 0.7]])
    first, ders = basis_table(kv, xs, nderiv=3)
    assert ders.shape == (len(xs), 4, 4)
    local = first[:, None] + np.arange(4)
    for nu in range(4):
        full = BSpline(kv.values, np.eye(kv.n), 3)(xs, nu)
        want = np.take_along_axis(full, local, axis=1)
        assert np.abs(ders[:, nu] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    # one point through eval_basis_1d is the same tabulation
    be = eval_basis_1d(kv, 0.5, nderiv=3)
    assert be.first == first[42] and np.array_equal(be.ders, ders[42])


def test_local_support():
    kv = validate_knot_vector([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], 2)
    be = eval_basis_1d(kv, 0.6)
    # only functions whose support [u_i, u_{i+p+1}) contains 0.6
    for i in range(be.first, be.first + 3):
        assert kv.values[i] <= 0.6 < kv.values[i + 3 + 1 - 1 + 1]


# surfaces ---------------------------------------------------------------------


def test_identity_map_surface():
    patch = unit_square_patch()
    for xi, eta in [(0.2, 0.7), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5)]:
        se = eval_surface(patch, xi, eta)
        assert np.allclose(se.point, [xi, eta, 0.0], atol=1e-14)
        assert abs(se.det_jac - 1.0) < 1e-14


def test_weight_function_center():
    se = eval_surface(table_1b_patch(), 0.5, 0.5)
    assert abs(se.basis.weight - 1.125) < 1e-14


def test_nurbs_partition_of_unity():
    patch = table_1b_patch()
    rng = np.random.default_rng(0)
    for xi, eta in rng.random((10, 2)):
        se = eval_surface(patch, xi, eta)
        assert abs(se.basis.values.sum() - 1.0) < 1e-13


# refinement -------------------------------------------------------------------


def _sample_grid(patch, k=17):
    xs = np.linspace(*patch.knots_u.domain, k)
    ys = np.linspace(*patch.knots_v.domain, k)
    out = np.empty((k, k, 3))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = eval_surface(patch, x, y).point
    return out


def test_insert_knot_preserves_geometry():
    patch = unit_square_patch()
    refined = insert_knots(patch, [0.5], [])
    assert len(refined.knots_u.spans()) == 2
    assert np.abs(_sample_grid(patch) - _sample_grid(refined)).max() < 1e-12


def test_insert_knots_nurbs_geometry_unchanged():
    patch = table_1b_patch()
    refined = insert_knots(patch, [0.25, 0.5, 0.75], [0.25, 0.5, 0.75])
    assert len(refined.knots_u.spans()) == 4
    assert np.abs(_sample_grid(patch) - _sample_grid(refined)).max() < 1e-12


def test_insert_overflow():
    patch = table_1b_patch()
    once = insert_knots(patch, [0.5, 0.5], [])
    with pytest.raises(MultiplicityOverflow):
        insert_knots(once, [0.5], [])


def test_elevate_bilinear():
    patch = unit_square_patch()
    el = elevate_degree(patch, 1, 1)
    assert el.degrees == (2, 2)
    assert el.net.shape == (3, 3)
    assert np.abs(_sample_grid(patch) - _sample_grid(el)).max() < 1e-12


def test_elevate_preserves_continuity_and_geometry():
    from igaplate.bench import geometry_catalog

    patch = geometry_catalog("c1_single").patches[0]
    el = elevate_degree(patch, 1, 0)
    assert el.degrees == (3, 2)
    assert continuity_profile(el.knots_u) == [(0.5, 2, 1)]  # still C1
    assert np.abs(_sample_grid(patch) - _sample_grid(el)).max() < 1e-12


def test_elevate_zero_is_identity():
    patch = table_1b_patch()
    assert elevate_degree(patch, 0, 0) is patch


def test_continuity_profile_cases():
    assert continuity_profile(validate_knot_vector([0, 0, 0, 0.5, 1, 1, 1], 2)) == [
        (0.5, 1, 1)
    ]
    assert continuity_profile(validate_knot_vector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)) == [
        (0.5, 2, 0)
    ]
    assert continuity_profile(validate_knot_vector([0, 0, 1, 1], 1)) == []
