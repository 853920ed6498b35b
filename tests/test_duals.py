"""Dual transform construction: reproduction, bandedness, Kronecker forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.sparse as sp

from igaplate.duals import (
    DimensionMismatch,
    basis_moments,
    dual_transform_1d,
    dual_transform_2d,
    extract_element_transform,
    gram_matrix,
    monomial_coeffs,
    reduce_continuity,
    truncated_power_coeffs,
)
from igaplate.splines import validate_knot_vector


def kv_of(vals, p):
    return validate_knot_vector(vals, p)


# continuity reduction ---------------------------------------------------------


def test_reduce_c1_knot():
    kv = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    red = reduce_continuity(kv)
    assert np.allclose(red.values, [0, 0, 0, 0.5, 0.5, 1, 1, 1])


def test_reduce_keeps_c0():
    kv = kv_of([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    assert np.allclose(reduce_continuity(kv).values, kv.values)


def test_reduce_no_interior():
    kv = kv_of([0, 0, 1, 1], 1)
    assert np.allclose(reduce_continuity(kv).values, kv.values)


# gram matrix -------------------------------------------------------------------


def test_gram_hat_functions():
    g = gram_matrix(kv_of([0, 0, 1, 1], 1))
    assert np.allclose(g, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)


def test_gram_bernstein_p2():
    g = gram_matrix(kv_of([0, 0, 0, 1, 1, 1], 2))
    exact = np.array(
        [
            [1 / 5, 1 / 10, 1 / 30],
            [1 / 10, 2 / 15, 1 / 10],
            [1 / 30, 1 / 10, 1 / 5],
        ]
    )
    assert np.abs(g - exact).max() < 1e-15


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=0.1, max_value=0.9), max_size=3, unique=True),
)
@settings(max_examples=25, deadline=None)
def test_gram_total_mass_is_domain_length(p, interior):
    vals = [0.0] * (p + 1) + sorted(interior) + [1.0] * (p + 1)
    g = gram_matrix(kv_of(vals, p))
    ones = np.ones(g.shape[0])
    assert abs(ones @ g @ ones - 1.0) < 1e-13
    assert np.abs(g - g.T).max() < 1e-15


def test_monomial_coeffs_greville():
    kv = kv_of([0, 0, 1, 1], 1)
    assert np.allclose(monomial_coeffs(kv, 1), [0, 1])
    kv2 = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    # collocation check: sum a_i N_i(x) == x^k
    from igaplate.splines import eval_basis_1d

    for k in range(3):
        a = monomial_coeffs(kv2, k)
        for x in np.linspace(0, 1, 23):
            be = eval_basis_1d(kv2, float(x))
            val = be.values @ a[be.first : be.first + 3]
            assert abs(val - x**k) < 1e-13


def test_truncated_power_coeffs_exact():
    kv = kv_of([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
    from igaplate.splines import eval_basis_1d

    a = truncated_power_coeffs(kv, 0.5, 2)
    for x in np.linspace(0, 1, 31):
        be = eval_basis_1d(kv, float(x))
        val = be.values @ a[be.first : be.first + 3]
        assert abs(val - max(x - 0.5, 0.0) ** 2) < 1e-12


# 1D transforms ------------------------------------------------------------------


def test_hat_dual_matrix():
    s = dual_transform_1d(kv_of([0, 0, 1, 1], 1), 1, "AD")
    assert np.allclose(s.matrix, [[4, -2], [-2, 4]], atol=1e-9)


def test_r0_constant_reproduction_and_diagonal():
    kv = kv_of([0, 0, 0, 0.2, 0.55, 1, 1, 1], 2)
    s = dual_transform_1d(kv, 0, "AD")
    mu = gram_matrix(kv) @ np.ones(kv.n)
    assert np.abs(s.matrix @ mu - 1.0).max() < 1e-10
    off = s.matrix - np.diag(np.diag(s.matrix))
    assert np.abs(off).max() == 0.0


def test_bernstein_full_reproduction_is_inverse_gram():
    for p in (1, 2, 3, 4):
        vals = [0.0] * (p + 1) + [1.0] * (p + 1)
        kv = kv_of(vals, p)
        s = dual_transform_1d(kv, p, "AD")
        g = gram_matrix(kv)
        assert np.abs(s.matrix - np.linalg.inv(g)).max() < 1e-10


def _reproduction_error(kv, s, targets):
    """Max pointwise error of the reproduction identity at 50 sample points."""
    from igaplate.splines import eval_basis_1d

    lo, hi = kv.domain
    xs = np.linspace(lo, hi, 50)
    worst = 0.0
    for f, fv in targets:
        coeffs = s.matrix @ basis_moments(kv, f)
        for x in xs:
            be = eval_basis_1d(kv, float(x))
            val = be.values @ coeffs[be.first : be.first + kv.degree + 1]
            worst = max(worst, abs(val - fv(x)))
    return worst


def test_polynomial_reproduction_identity():
    kv = kv_of([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], 2)
    s = dual_transform_1d(kv, 2, "AD")
    targets = [(lambda x, k=k: x**k, lambda x, k=k: x**k) for k in range(3)]
    assert _reproduction_error(kv, s, targets) < 1e-8


def test_bandwidth_ad():
    kv = kv_of([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], 2)
    for r in (0, 1, 2):
        s = dual_transform_1d(kv, r, "AD")
        for i in range(kv.n):
            for j in range(kv.n):
                if abs(i - j) > r:
                    assert s.matrix[i, j] == 0.0


def test_biorthogonality_improves_with_r():
    kv = kv_of([0, 0, 0, 0.2, 0.4, 0.6, 0.8, 1, 1, 1], 2)
    devs = [dual_transform_1d(kv, r, "AD").biorthogonality for r in (0, 1, 2)]
    assert devs[0] > devs[1] > devs[2]


def test_symmetry():
    kv = kv_of([0, 0, 0, 0, 0.3, 0.55, 0.7, 1, 1, 1, 1], 3)
    for variant in ("AD", "eAD"):
        s = dual_transform_1d(kv, 3, variant)
        assert np.abs(s.matrix - s.matrix.T).max() < 1e-13


def test_ead_equals_ad_on_full_continuity():
    kv = kv_of([0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1], 2)
    ad = dual_transform_1d(kv, 2, "AD")
    ead = dual_transform_1d(kv, 2, "eAD")
    assert ead.matrix is ad.matrix  # same underlying construction


def test_ead_reproduces_broken_polynomials():
    # C0 knot for p=2: truncated powers of orders 1 and 2
    kv = kv_of([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2)
    s = dual_transform_1d(kv, 2, "eAD")
    targets = [
        (lambda x: np.maximum(x - 0.5, 0.0), lambda x: max(x - 0.5, 0.0)),
        (lambda x: np.maximum(x - 0.5, 0.0) ** 2, lambda x: max(x - 0.5, 0.0) ** 2),
    ]
    assert _reproduction_error(kv, s, targets) < 1e-8
    assert _reproduction_error(
        kv, s, [(lambda x, k=k: x**k, lambda x, k=k: x**k) for k in range(3)]
    ) < 1e-8


def test_ead_band_widens_only_near_limited_knot():
    kv = kv_of([0, 0, 0, 0.125, 0.25, 0.375, 0.5, 0.5, 0.625, 0.75, 0.875, 1, 1, 1], 2)
    s = dual_transform_1d(kv, 2, "eAD")
    assert s.enhanced_rows.any() and not s.enhanced_rows.all()
    for i in range(kv.n):
        for j in range(kv.n):
            if abs(i - j) > 2 and abs(s.matrix[i, j]) > 0:
                assert s.enhanced_rows[i] or s.enhanced_rows[j]


def test_ad_loses_reproduction_at_limited_continuity():
    # the plain transform is the smooth-case construction: at a C0 knot its
    # reproduction degrades; the enhanced transform keeps it exact
    kv = kv_of([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2)
    ad = dual_transform_1d(kv, 2, "AD")
    ead = dual_transform_1d(kv, 2, "eAD")
    assert ad.reproduction_residual > 1e-4
    assert ead.reproduction_residual < 1e-10


def test_reject_bad_reproduction_degree():
    kv = kv_of([0, 0, 1, 1], 1)
    with pytest.raises(Exception):
        dual_transform_1d(kv, 2, "AD")


# 2D transforms -------------------------------------------------------------------


def test_kron_identity():
    kv = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    su = dual_transform_1d(kv, 2, "AD")
    t = dual_transform_2d(su, su)
    dense = t.matrix.toarray()
    assert np.abs(dense - np.kron(su.matrix, su.matrix)).max() < 1e-14


def test_kron_separability():
    kva = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    kvb = kv_of([0, 0, 0.5, 1, 1], 1)
    su = dual_transform_1d(kva, 2, "AD")
    sv = dual_transform_1d(kvb, 1, "AD")
    t = dual_transform_2d(su, sv)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(su.n)
    b = rng.standard_normal(sv.n)
    lhs = t.matrix @ np.kron(a, b)
    rhs = np.kron(su.matrix @ a, sv.matrix @ b)
    assert np.abs(lhs - rhs).max() < 1e-13 * max(1.0, np.abs(rhs).max())


def test_unit_weights_match_bspline_mode():
    kv = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    su = dual_transform_1d(kv, 2, "AD")
    t_b = dual_transform_2d(su, su)
    t_n = dual_transform_2d(su, su, weights=np.ones((su.n, su.n)))
    assert np.abs((t_b.matrix - t_n.matrix)).max() == 0.0
    assert t_n.mode == "nurbs" and t_b.mode == "bspline"


def test_weight_sandwich():
    kv = kv_of([0, 0, 0.5, 1, 1], 1)
    su = dual_transform_1d(kv, 1, "AD")
    rng = np.random.default_rng(5)
    w = 0.5 + rng.random((su.n, su.n))
    t = dual_transform_2d(su, su, weights=w)
    lam = w.ravel()
    expected = np.kron(su.matrix, su.matrix) / np.outer(lam, lam)
    assert np.abs(t.matrix.toarray() - expected).max() < 1e-12


def test_weight_shape_mismatch():
    kv = kv_of([0, 0, 0.5, 1, 1], 1)
    su = dual_transform_1d(kv, 1, "AD")
    with pytest.raises(DimensionMismatch):
        dual_transform_2d(su, su, weights=np.ones((2, 2)))


def test_extract_element_transform_identity():
    kv = kv_of([0, 0, 0.5, 1, 1], 1)
    su = dual_transform_1d(kv, 0, "AD")  # diagonal
    t = dual_transform_2d(su, su)
    cols = np.array([0, 1, 3])
    et = extract_element_transform(t, cols)
    assert np.array_equal(et.rows, cols)
    assert np.allclose(et.block, t.matrix.toarray()[np.ix_(cols, cols)])


def test_elementwise_assembly_matches_global_product():
    # sum_e (T^e K^e) scattered equals T (sum_e K^e) for random element blocks
    kv = kv_of([0, 0, 0, 0.5, 1, 1, 1], 2)
    su = dual_transform_1d(kv, 2, "AD")
    t = dual_transform_2d(su, su)
    n = t.n
    rng = np.random.default_rng(11)
    # two fake "elements" with overlapping dof sets
    sets = [np.arange(0, 9), np.arange(7, 16)]
    global_k = np.zeros((n, n))
    assembled = np.zeros((n, n))
    for cols in sets:
        k_e = rng.standard_normal((len(cols), len(cols)))
        global_k[np.ix_(cols, cols)] += k_e
        et = extract_element_transform(t, cols)
        assembled[np.ix_(et.rows, cols)] += et.block @ k_e
    expected = t.matrix.toarray() @ global_k
    assert np.abs(assembled - expected).max() < 1e-12
