"""The direct-solve contract and structural counts."""

import numpy as np
import pytest
import scipy.sparse as sp

from igaplate.sparse import (
    DirectSolver,
    KrylovSolver,
    SingularMatrix,
    nnz_and_bandwidth,
    solve_direct,
)


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
    assert nnz_and_bandwidth(a) == nnz_and_bandwidth(a.tocsc()) == (13, 1)


def test_nnz_counts_stored_entries():
    a = sp.csr_matrix((np.array([1.0, 1e-15]), (np.array([0, 0]), np.array([0, 3]))), shape=(4, 4))
    assert nnz_and_bandwidth(a) == nnz_and_bandwidth(a.tocsc()) == (2, 3)
    # unsorted indices in both formats, with an empty row (column); they stay unsorted
    indices, indptr = np.array([3, 0, 2, 1]), np.array([0, 2, 2, 3, 4])
    for fmt in (sp.csr_matrix, sp.csc_matrix):
        b = fmt((np.ones(4), indices.copy(), indptr), shape=(4, 4))
        b.has_sorted_indices = False
        assert nnz_and_bandwidth(b) == (4, 3)
        assert b.indices.tolist() == indices.tolist()


def test_dense_input_factorised_like_its_sparse_form():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 20)) + 10 * np.eye(20)
    b = rng.standard_normal(20)
    assert solve_direct(a, b).tobytes() == solve_direct(sp.csr_matrix(a), b).tobytes()
    with pytest.raises(SingularMatrix):
        solve_direct(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_krylov_solver_returns_only_answers_within_its_gate():
    n = 200
    a = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    b = np.ones(n)
    exact = KrylovSolver(a, a)
    x = exact.solve(b)
    assert exact.iterations <= 2
    assert np.linalg.norm(x - solve_direct(a, b)) <= 1e-12 * np.linalg.norm(x)
    # 200 distinct eigenvalues over 12 decades: 60 unpreconditioned iterations fall short
    stiff = sp.diags(np.logspace(0, 12, n), format="csr")
    slow = KrylovSolver(stiff, sp.identity(n, format="csr"))
    assert slow.solve(b) is None and slow.iterations == 60
    assert KrylovSolver(a, sp.csr_matrix((n, n))).solve(b) is None


def test_block_triangular_preconditioner_with_the_exact_schur_complement():
    # a saddle [[K, B], [B2, C]] whose shear rows B2 are not B^T; with the
    # Schur complement K - B C^-1 B2 as M, [[M, B], [0, C]] makes the
    # preconditioned matrix I plus a nilpotent part: two iterations at most
    rng = np.random.default_rng(5)
    n, m = 40, 24
    k = sp.diags([-np.ones(n - 1), 6.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    b = sp.random(n, m, density=0.2, random_state=rng)
    b2 = b.T + 0.1 * sp.random(m, n, density=0.1, random_state=rng)
    c = sp.diags(1.0 + rng.random(m))
    saddle = sp.bmat([[k, b], [b2, c]], format="csr")
    schur = k - b @ sp.diags(1.0 / c.diagonal()) @ b2
    rhs = rng.standard_normal(n + m)
    solver = KrylovSolver(saddle, schur)
    x = solver.solve(rhs)
    assert x is not None and 0 < solver.iterations <= 2
    assert np.linalg.norm(x - solve_direct(saddle, rhs)) <= 1e-12 * np.linalg.norm(x)
    # K alone in the Schur complement's place is a nearby, not an exact, preconditioner
    nearby = KrylovSolver(saddle, k)
    assert nearby.solve(rhs) is not None and nearby.iterations > 2


def test_solvers_take_the_inf_norm_without_reordering_the_callers_matrix():
    n = 50
    bands = [-np.ones(n - 1), 4.0 * np.ones(n), -2.0 * np.ones(n - 1)]
    lap = sp.diags(bands, [-1, 0, 1], format="csr")
    # the same matrix with every row's column indices stored in descending order
    ptr = lap.indptr
    order = np.concatenate([np.arange(ptr[i + 1] - 1, ptr[i] - 1, -1) for i in range(n)])
    a = sp.csr_matrix((lap.data[order], lap.indices[order], lap.indptr), shape=(n, n))
    assert not a.has_sorted_indices
    indices, data = a.indices.copy(), a.data.copy()
    dense_norm = np.abs(a.toarray()).sum(axis=1).max()
    krylov = KrylovSolver(a, lap)
    assert krylov.solve(np.ones(n)) is not None
    assert krylov.norm_a == dense_norm == DirectSolver(a).norm_a == 7.0
    assert np.array_equal(a.indices, indices) and np.array_equal(a.data, data)
    assert not a.has_sorted_indices


def _same_pattern_pair(n=60, seed=5):
    """Two nonsymmetric sparse matrices with one stored pattern and unrelated values."""
    rng = np.random.default_rng(seed)
    a = (sp.random(n, n, density=0.08, random_state=rng) + 4 * sp.identity(n)).tocsc()
    b = a.copy()
    b.data = rng.standard_normal(b.nnz)
    b.setdiag(8.0 + b.diagonal())
    return a, b


def test_a_reused_column_order_factorises_like_a_fresh_colamd():
    a, b = _same_pattern_pair()
    first = DirectSolver(a)
    order = first.column_order()
    assert np.array_equal(order.order, np.argsort(first._lu.perm_c))
    assert not np.array_equal(order.order, np.arange(len(order.order)))
    reused, fresh = DirectSolver(b, order), DirectSolver(b)
    assert reused.column_order() is order and fresh.column_order() is not order
    for name in ("L", "U"):
        assert getattr(reused._lu, name).data.tobytes() == getattr(fresh._lu, name).data.tobytes()
    assert np.array_equal(reused._lu.perm_r, fresh._lu.perm_r)
    rhs = np.random.default_rng(6).standard_normal((b.shape[0], 2))
    for col in (rhs[:, 0], rhs):
        assert reused.solve(col).tobytes() == fresh.solve(col).tobytes()
    assert reused.condition_estimate() == fresh.condition_estimate()


def test_a_column_order_is_not_given_to_another_pattern():
    a, b = _same_pattern_pair()
    order = DirectSolver(a).column_order()
    zero = np.argwhere(b.toarray() == 0)[0]
    grown = b.tolil()
    grown[zero[0], zero[1]] = 1.0
    grown = grown.tocsc()
    assert grown.nnz == b.nnz + 1
    solver, fresh = DirectSolver(grown, order), DirectSolver(grown)
    assert solver.column_order() is not order
    assert np.array_equal(solver._lu.perm_c, fresh._lu.perm_c)
    rhs = np.ones(b.shape[0])
    assert solver.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()
