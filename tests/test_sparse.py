"""Deterministic triplet assembly and the direct-solve contract."""

import numpy as np
import pytest
import scipy.sparse as sp

from igaplate.sparse import SingularMatrix, build_csr, nnz_and_bandwidth, solve_direct


def test_duplicate_triplets_summed():
    m = build_csr((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert m[0, 0] == 3.0 and m[1, 1] == 5.0 and m.nnz == 2


def test_permutation_gives_bit_identical_matrix():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 40, size=500)
    cols = rng.integers(0, 40, size=500)
    vals = rng.standard_normal(500)
    a = build_csr((40, 40), rows, cols, vals)
    perm = rng.permutation(500)
    b = build_csr((40, 40), rows[perm], cols[perm], vals[perm])
    assert a.data.tobytes() == b.data.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.indptr.tobytes() == b.indptr.tobytes()


def test_identity_solve():
    a = sp.identity(4, format="csr")
    b = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(solve_direct(a, b), b)


def test_small_symmetric_solve():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = solve_direct(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_banded_nonsymmetric_vs_dense_oracle():
    rng = np.random.default_rng(42)
    n = 50
    a = np.zeros((n, n))
    for d in (-2, -1, 0, 1, 2, 3):
        idx = np.arange(max(0, -d), min(n, n - d))
        a[idx, idx + d] = rng.standard_normal(len(idx))
    a += np.eye(n) * 10  # keep it solvable
    b = rng.standard_normal(n)
    x = solve_direct(sp.csr_matrix(a), b)
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-10


def test_singular_raises():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        solve_direct(a, np.array([1.0, 0.0]))


def test_residual_contract_on_solves():
    rng = np.random.default_rng(1)
    a = sp.csr_matrix(rng.standard_normal((30, 30)) + 10 * np.eye(30))
    b = rng.standard_normal(30)
    x = solve_direct(a, b)
    norm_a = sp.linalg.norm(a, np.inf)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * (
        norm_a * np.linalg.norm(x) + np.linalg.norm(b)
    )


def test_nnz_and_bandwidth_identity():
    assert nnz_and_bandwidth(sp.identity(5, format="csr")) == (5, 0)


def test_nnz_and_bandwidth_tridiagonal():
    a = sp.diags([np.ones(4), np.ones(5), np.ones(4)], [-1, 0, 1], format="csr")
    assert nnz_and_bandwidth(a) == (13, 1)


def test_nnz_prunes_stored_near_zeros():
    a = sp.csr_matrix((np.array([1.0, 1e-15]), (np.array([0, 0]), np.array([0, 3]))), shape=(4, 4))
    assert nnz_and_bandwidth(a) == (1, 0)


def test_dense_input_factorised_like_its_sparse_form():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 20)) + 10 * np.eye(20)
    b = rng.standard_normal(20)
    assert solve_direct(a, b).tobytes() == solve_direct(sp.csr_matrix(a), b).tobytes()
    with pytest.raises(SingularMatrix):
        solve_direct(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
