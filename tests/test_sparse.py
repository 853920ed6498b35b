"""The direct-solve contract and structural counts."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

import igaplate.sparse as sparse
from igaplate.bench import GEOMETRY_NAMES, geometry_catalog
from igaplate.condense import SolveConfig, build_parts
from igaplate.sparse import (
    BAND_MAX_ENTRIES,
    BandCholesky,
    BandLU,
    DirectSolver,
    KrylovSolver,
    SingularMatrix,
    _inf_norm,
    band_order,
    nnz_and_bandwidth,
    rcm_band,
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
    assert np.linalg.norm(a @ x - b) <= 1e-13 * (
        norm_a * np.linalg.norm(x) + np.linalg.norm(b)
    )


def test_a_direct_answer_with_a_backward_error_of_1e_11_is_rejected():
    # the direct and the Krylov solves share one gate, KRYLOV_GATE = 1e-13
    rng = np.random.default_rng(1)
    a = sp.csr_matrix(rng.standard_normal((30, 30)) + 10 * np.eye(30))
    b = rng.standard_normal(30)
    solver = DirectSolver(a)
    x = solver.solve(b)
    # a perturbation e of the answer with ||A e|| / (||A|| ||x|| + ||b||) = 1e-11
    e = rng.standard_normal(30)
    e *= 1e-11 * (sp.linalg.norm(a, np.inf) * np.linalg.norm(x) + np.linalg.norm(b)) / np.linalg.norm(a @ e)
    factor = solver._lu
    solver._lu = SimpleNamespace(solve=lambda rhs: factor.solve(rhs) + e)
    with pytest.raises(SingularMatrix, match="residual"):
        solver.solve(b)


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


def _stored_share_matrix(n, nnz, seed=7):
    """A well-conditioned nonsymmetric n x n CSC matrix with exactly nnz stored entries."""
    rng = np.random.default_rng(seed)
    off = rng.permutation(np.flatnonzero(~np.eye(n, dtype=bool)))[: nnz - n]
    rows = np.concatenate([np.arange(n), off // n])
    cols = np.concatenate([np.arange(n), off % n])
    vals = np.concatenate([n + rng.random(n), rng.standard_normal(nnz - n)])
    a = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    assert a.nnz == nnz
    return a


def _row_order(piv: np.ndarray) -> np.ndarray:
    """The rows of P A = L U from LAPACK's 0-based pivots: row i swapped with piv[i], in turn."""
    order = np.arange(len(piv))
    for i, p in enumerate(piv):
        order[[i, p]] = order[[p, i]]
    return order


def test_a_matrix_storing_a_tenth_of_n2_is_factorised_by_gbtrf_like_superlu(factorisations):
    n = 60
    a = _stored_share_matrix(n, n * n // 10)
    reference = spla.splu(a)
    factorisations.clear()
    solver = DirectSolver(a)
    perm, _, kl, ku = rcm_band(a)
    assert factorisations == ["gbtrf"] and isinstance(solver._lu, BandLU)
    assert solver.lu_fill == (2 * kl + ku + 1) * n
    b = np.random.default_rng(8).standard_normal(n)
    for trans in ("N", "T"):
        x, ref = solver._lu.solve(b, trans=trans), reference.solve(b, trans=trans)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # one step of iterative refinement on the factor's answer
    y = solver._lu.solve(b)
    assert solver.solve(b).tobytes() == (y + solver._lu.solve(b - a @ y)).tobytes()
    # the factors the trace counts: P B = L U for the RCM-permuted B, with a unit lower L
    lu = solver._lu
    permuted = a.toarray()[perm][:, perm]
    assert np.allclose((lu.L @ lu.U).toarray(), permuted[_row_order(lu._piv)], rtol=0, atol=1e-12 * n)
    assert np.array_equal(lu.L.diagonal(), np.ones(n))


def _scrambled_band(n=200, lower=3, upper=1, seed=9):
    """A nonsymmetric n x n CSC matrix with bands -lower..upper, rows and columns shuffled alike."""
    rng = np.random.default_rng(seed)
    offsets = range(-lower, upper + 1)
    bands = [rng.standard_normal(n - abs(k)) + (2.0 if k == 0 else 0.0) for k in offsets]
    shuffle = rng.permutation(n)
    return sp.diags(bands, list(offsets), format="csr")[shuffle][:, shuffle].tocsc()


def test_a_matrix_below_the_dense_share_is_factorised_by_gbtrf_in_rcm_order(factorisations):
    n = 200
    a = _scrambled_band(n)
    solver = DirectSolver(a)
    assert factorisations == ["gbtrf"] and isinstance(solver._lu, BandLU)
    perm, inv, kl, ku = rcm_band(a)
    assert np.array_equal(inv[perm], np.arange(n))
    assert {kl, ku} == {3, 1}  # RCM finds the band again; its two sides differ
    assert solver.lu_fill == (2 * kl + ku + 1) * n
    reference = spla.splu(a)
    rhs = np.random.default_rng(10).standard_normal((n, 2))
    for b in (rhs[:, 0], rhs):
        for trans in ("N", "T"):
            x, ref = solver._lu.solve(b, trans=trans), reference.solve(b, trans=trans)
            assert x.shape == b.shape
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # P B = L U for the RCM-permuted matrix B, with row interchanges taken
    lu = solver._lu
    assert np.count_nonzero(lu._piv != np.arange(n)) > 0
    permuted = a.toarray()[perm][:, perm]
    assert np.allclose((lu.L @ lu.U).toarray(), permuted[_row_order(lu._piv)], rtol=0, atol=1e-12 * n)
    assert np.array_equal(lu.L.diagonal(), np.ones(n))
    assert sp.triu(lu.L, 1).nnz == 0 and sp.tril(lu.U, -1).nnz == 0


def test_a_matrix_whose_band_needs_n_rows_goes_to_gbtrf(factorisations):
    n = 60
    a = _arrow(n)
    assert a.nnz == 3 * n - 2
    _, _, kl, ku = rcm_band(a)
    assert n <= 2 * kl + ku + 1 <= BAND_MAX_ENTRIES // n
    solver = DirectSolver(a)
    assert factorisations == ["gbtrf"] and isinstance(solver._lu, BandLU)
    assert solver.lu_fill == (2 * kl + ku + 1) * n
    b = np.ones(n)
    assert np.linalg.norm(a @ solver.solve(b) - b) <= 1e-13 * np.linalg.norm(b)


def _arrow(n=60):
    """A diagonal and one full row and column, 3n - 2 entries: in any order its band needs n rows."""
    a = sp.lil_matrix((n, n))
    a.setdiag(4.0 + np.arange(n))
    a[0, 1:], a[1:, 0] = 1.0, -1.0
    return a.tocsc()


@pytest.mark.parametrize("a", [_scrambled_band(), _arrow()], ids=["band", "arrow"])
def test_a_sparse_matrix_whose_lapack_factor_would_exceed_the_cap_goes_to_superlu(a, factorisations, monkeypatch):
    n = a.shape[0]
    _, _, kl, ku = rcm_band(a)
    stored = (2 * kl + ku + 1) * n
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", stored)
    assert DirectSolver(a).lu_fill == stored
    assert factorisations[-1] == "gbtrf"
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", stored - 1)
    solver = DirectSolver(a)
    assert factorisations[-1] == "splu" and solver.lu_fill == solver._lu.nnz
    b = np.ones(n)
    x = solver._lu.solve(b)
    assert solver.solve(b).tobytes() == (x + solver._lu.solve(b - a @ x)).tobytes()
    with pytest.raises(SingularMatrix):
        DirectSolver(sp.block_diag([np.array([[1.0, 2.0], [2.0, 4.0]])] * (n // 2), format="csc"))


def test_a_superlu_out_of_memory_raises_a_memory_error_naming_the_matrix(monkeypatch):
    # SuperLU's "Can't expand MemType" reaches scipy's caller as this SystemError
    def out_of_memory(a, **options):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(spla, "splu", out_of_memory)
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", 0)
    a = _scrambled_band()
    m = (a @ a.T).tocsc() + sp.identity(a.shape[0], format="csc")
    # the Krylov solver raises too, rather than leaving the caller to try a larger SuperLU factor
    for factorise, matrix in ((DirectSolver, a), (lambda spd: KrylovSolver(spd, spd), m)):
        message = f"SuperLU ran out of memory on n = 200 with {matrix.nnz} stored entries"
        with pytest.raises(MemoryError, match=message) as info:
            factorise(matrix)
        assert isinstance(info.value.__cause__, SystemError)


def test_a_singular_banded_matrix_raises_from_the_constructor_without_warning(factorisations):
    # 2 x 2 blocks [[1, 2], [2, 4]]: the pivoted elimination leaves an exact zero
    a = sp.block_diag([np.array([[1.0, 2.0], [2.0, 4.0]])] * 20, format="csc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix, match="exact zero pivot"):
            DirectSolver(a)
    assert factorisations == ["gbtrf"]


def test_a_singular_dense_matrix_raises_from_the_constructor_without_warning():
    a = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix, match="exact zero pivot"):
            DirectSolver(a)


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
    # a saddle [[K, B], [B2, C]] whose shear rows B2 are -B^T, as in the
    # plate's sign convention, so that the Schur complement K - B C^-1 B2
    # is symmetric positive definite; with it as M, [[M, B], [0, C]] makes
    # the preconditioned matrix I plus a nilpotent part: two iterations at most
    rng = np.random.default_rng(5)
    n, m = 40, 24
    k = sp.diags([-np.ones(n - 1), 6.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    b = sp.random(n, m, density=0.2, random_state=rng)
    b2 = -b.T
    c = sp.diags(1.0 + rng.random(m))
    saddle = sp.bmat([[k, b], [b2, c]], format="csr")
    schur = k - b @ sp.diags(1.0 / c.diagonal()) @ b2
    assert np.linalg.eigvalsh(schur.toarray()).min() > 0
    rhs = rng.standard_normal(n + m)
    solver = KrylovSolver(saddle, schur)
    x = solver.solve(rhs)
    assert x is not None and 0 < solver.iterations <= 2
    assert np.linalg.norm(x - solve_direct(saddle, rhs)) <= 1e-12 * np.linalg.norm(x)
    # K alone in the Schur complement's place is a nearby, not an exact, preconditioner
    nearby = KrylovSolver(saddle, k)
    assert nearby.solve(rhs) is not None and nearby.iterations > 2


def _primal(geometry: str, level: int) -> sp.csc_matrix:
    """The primal matrix of an ead p3 cell at t = 1, as KrylovSolver receives it."""
    cfg = SolveConfig(variant="ead", degree=3, level=level, thickness=1.0)
    return build_parts(geometry_catalog(geometry), cfg).primal(cfg.make_material())


@pytest.mark.parametrize(("geometry", "level"), [("c0_single", 2), ("mp_various", 1)])
def test_a_band_cholesky_of_a_primal_matrix_solves_like_a_dense_cholesky(geometry, level):
    # the primal matrix is symmetric up to round-off; the band reads its lower triangle alone
    m = _primal(geometry, level)
    n = m.shape[0]
    perm, inv, kl, ku = rcm_band(m)
    kd = max(kl, ku)
    factor = BandCholesky(m, perm, inv, kd)
    assert factor.shape == m.shape and factor.nnz == (kd + 1) * n
    dense = cho_factor(sp.tril(m).toarray(), lower=True)
    rhs = np.random.default_rng(12).standard_normal((n, 2))
    for b in (rhs[:, 0], rhs):
        x, ref = factor.solve(b), cho_solve(dense, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _grid_laplacian(nu: int, nv: int) -> sp.csc_matrix:
    """The 5-point Laplacian of an nu x nv grid, point (iu, iv) at iu nv + iv."""
    lap = lambda k: sp.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)], [-1, 0, 1])  # noqa: E731
    return sp.kronsum(lap(nv), lap(nu), format="csc")


def test_band_order_keeps_the_narrowest_candidate_and_reads_rcm_without_one(factorisations):
    nu, nv = 12, 30
    a = _grid_laplacian(nu, nv)
    rows = np.arange(nu * nv)  # along v, band nv
    cols = rows.reshape(nu, nv).T.ravel()  # along u, band nu
    for orders in ([rows, cols], [cols, rows]):
        perm, inv, kl, ku = band_order(a, orders)
        assert perm is cols and kl == ku == nu and np.array_equal(inv[perm], rows)
    assert band_order(a, [rows, rows[::-1]])[0] is rows  # a tie goes to the first
    assert all(np.array_equal(x, y) for x, y in zip(band_order(a), rcm_band(a)))
    m = (a + sp.identity(nu * nv)).tocsc()  # symmetric positive definite
    factorisations.clear()
    assert DirectSolver(a, [rows, cols]).lu_fill == (3 * nu + 1) * nu * nv
    assert KrylovSolver(m, m, [rows, cols]).lu_fill == (nu + 1) * nu * nv
    assert factorisations == ["gbtrf", "pbtrf"]


def test_solve_direct_keeps_the_rcm_band_of_the_matrix_alone(factorisations):
    cfg = SolveConfig(variant="std", degree=2, level=4, thickness=1.0)
    parts = build_parts(geometry_catalog("undistorted"), cfg)
    a, b = sp.csc_matrix(parts.matrix_at(cfg.make_material())), np.ones(len(parts.free))
    orders = parts.orders()
    perm, inv, kl, ku = rcm_band(a)
    _, _, sweep_kl, sweep_ku = band_order(a, orders)
    assert 2 * sweep_kl + sweep_ku < 2 * kl + ku
    x = solve_direct(a, b)
    lu = BandLU(a, perm, inv, kl, ku)
    y = lu.solve(b)
    y += lu.solve(b - a @ y)
    assert factorisations == ["gbtrf", "gbtrf"] and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("geometry", GEOMETRY_NAMES)
@pytest.mark.parametrize(("variant", "degree"), [("mxd", 2), ("std", 3)])
def test_the_grid_sweep_band_is_no_wider_than_rcm_on_every_catalog_geometry(geometry, variant, degree):
    # a walk started from the outer points of the edges, the end points of
    # an interface included, widens mp_linear's u0 band from 105 to 411
    cfg = SolveConfig(variant=variant, degree=degree, level=3, thickness=1.0)
    parts = build_parts(geometry_catalog(geometry), cfg)
    mat = cfg.make_material()
    orders, n = parts.orders(), len(parts.free)
    primal_orders = [o[o < n] for o in orders]  # the primal matrix's, as KrylovSolver restricts them
    assert len(orders) == 2
    for m, candidates in ((sp.csc_matrix(parts.matrix_at(mat)), orders), (parts.primal(mat), primal_orders)):
        _, _, kl, ku = band_order(m, candidates)
        _, _, rcm_kl, rcm_ku = rcm_band(m)
        assert 2 * kl + ku <= 2 * rcm_kl + rcm_ku


def test_a_symmetric_indefinite_preconditioner_gives_no_krylov_answer(factorisations):
    n = 40
    diagonal = 2.5 * np.ones(n)
    diagonal[n // 2] = -3.0
    m = sp.diags([-np.ones(n - 1), diagonal, -np.ones(n - 1)], [-1, 0, 1], format="csc")
    perm, inv, kd, _ = rcm_band(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix, match="not positive"):
            BandCholesky(m, perm, inv, kd)
        krylov = KrylovSolver(m, m)
    assert factorisations == ["pbtrf", "pbtrf"]
    assert krylov.solve(np.ones(n)) is None and krylov.lu_fill == 0


def test_a_primal_matrix_whose_band_exceeds_the_cap_goes_to_superlu(factorisations, monkeypatch):
    m = _primal("c0_single", 2)
    n = m.shape[0]
    _, _, kd, _ = rcm_band(m)
    b = np.random.default_rng(13).standard_normal(n)
    factorisations.clear()
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", (kd + 1) * n)
    band = KrylovSolver(m, m)
    assert factorisations == ["pbtrf"] and isinstance(band._lu, BandCholesky) and band.lu_fill == (kd + 1) * n
    x = band.solve(b)
    monkeypatch.setattr(sparse, "BAND_MAX_ENTRIES", (kd + 1) * n - 1)
    superlu = KrylovSolver(m, m)
    assert factorisations == ["pbtrf", "splu"] and superlu.lu_fill == superlu._lu.nnz
    y = superlu.solve(b)
    assert x is not None and y is not None
    assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


def test_a_preconditioner_is_read_from_its_lower_triangle_alone(factorisations):
    # an M whose strict upper triangle is one ulp off its transpose gives
    # the band Cholesky, the answer bytes and the iterations of the symmetric M
    n = 50
    a = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -1.5 * np.ones(n - 1)], [-1, 0, 1], format="csr")
    m = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    upper = sp.triu(m, 1, format="csc")
    upper.data = np.nextafter(upper.data, 0.0)
    off = (sp.tril(m) + upper).tocsc()
    assert (off != off.T).nnz == 2 * (n - 1)
    b = np.ones(n)
    symmetric, skewed = KrylovSolver(a, m), KrylovSolver(a, off)
    assert factorisations == ["pbtrf", "pbtrf"]
    x, y = symmetric.solve(b), skewed.solve(b)
    assert x is not None and x.tobytes() == y.tobytes()
    assert symmetric.iterations == skewed.iterations > 2


def _symmetric_tridiagonal(n: int) -> sp.csc_matrix:
    """tridiag(-1, 4, -1), a symmetric positive definite preconditioner near the tests' tridiag(-1, 4, -2)."""
    return sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")


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
    krylov = KrylovSolver(a, _symmetric_tridiagonal(n))
    assert krylov.solve(np.ones(n)) is not None
    assert krylov.norm_a == dense_norm == DirectSolver(a).norm_a == 7.0
    assert np.array_equal(a.indices, indices) and np.array_equal(a.data, data)
    assert not a.has_sorted_indices


def test_the_gate_norm_of_an_operator_is_at_most_the_inf_norm_of_its_matrix():
    # GMRES on an operator gates its answer with a norm estimate that never
    # exceeds the exact norm of the matrix the operator applies, so its gate
    # is never looser; the estimate draws no random numbers
    rng = np.random.default_rng(11)
    n = 120
    lap = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -2.0 * np.ones(n - 1)], [-1, 0, 1], format="csr")
    heavy = lap.tolil()
    heavy[n // 3, :] = rng.standard_normal(n)  # one dense row holds the norm
    matrices = [lap, heavy.tocsr()]
    for _ in range(4):
        matrices.append((sp.random(n, n, density=0.05, random_state=rng) + 6 * sp.identity(n)).tocsr())
    b = rng.standard_normal(n)
    m = _symmetric_tridiagonal(n)
    for a in matrices:
        krylov = KrylovSolver(spla.aslinearoperator(a), m)
        assert 0 < krylov.norm_a <= _inf_norm(a)
        assert KrylovSolver(spla.aslinearoperator(a), m).norm_a == krylov.norm_a
        x = krylov.solve(b)
        assert x is not None
        assert np.linalg.norm(x - solve_direct(a, b)) <= 1e-12 * np.linalg.norm(x)
    # the estimate finds the largest row of the tridiagonal matrix, up to round-off
    assert _inf_norm(lap) == 7.0
    assert KrylovSolver(spla.aslinearoperator(lap), m).norm_a >= (1 - 1e-12) * 7.0


def test_bandwidth_of_a_sum_of_products_is_read_without_forming_them():
    # the count is of the entries the parts store, not of the formed sum
    rng = np.random.default_rng(3)
    n, m = 70, 40
    a = sp.diags([np.ones(n - 2), np.ones(n), np.ones(n - 3)], [-2, 0, 3], format="csr")
    pairs = []
    for _ in range(2):
        b = sp.random(n, m, density=0.03, random_state=rng, format="csr")
        c = sp.random(m, n, density=0.03, random_state=rng, format="csr")
        pairs.append((b, c))
        formed = a + sum(b @ c for b, c in pairs)
        stored = a.nnz + sum(b.nnz + c.nnz for b, c in pairs)
        assert nnz_and_bandwidth(a, pairs) == (stored, nnz_and_bandwidth(formed.tocsr())[1])
        assert nnz_and_bandwidth(a.tocsc(), pairs) == nnz_and_bandwidth(a, pairs)  # a is read as stored
    empty = sp.csr_matrix((n, n))
    assert nnz_and_bandwidth(empty, []) == (0, 0)
    assert nnz_and_bandwidth(empty, pairs[:1])[1] == nnz_and_bandwidth((pairs[0][0] @ pairs[0][1]).tocsr())[1]


def test_bandwidth_of_a_chain_of_three_factors_is_read_without_forming_it():
    # a chain (b, t, c) stands for b @ t @ c, as the condensed operator's K_dS T K_Sd;
    # random entries are positive, so no extreme entry cancels and the band is exact
    rng = np.random.default_rng(5)
    n, m = 80, 45
    a = sp.diags([np.ones(n - 1), np.ones(n)], [-1, 0], format="csr")
    chains = []
    for density in (0.02, 0.05):
        b = sp.random(n, m, density=density, random_state=rng, format="csr")
        t = sp.random(m, m, density=density, random_state=rng, format="csr")
        c = sp.random(m, n, density=density, random_state=rng, format="csr")
        chains.append((b, t, c))
        formed = a + sum(b @ t @ c for b, t, c in chains)
        stored = a.nnz + sum(f.nnz for chain in chains for f in chain)
        assert nnz_and_bandwidth(a, chains) == (stored, nnz_and_bandwidth(formed.tocsr())[1])
        csc = [tuple(f.tocsc() for f in chain) for chain in chains]  # factors in any format
        assert nnz_and_bandwidth(a.tocsc(), csc) == nnz_and_bandwidth(a, chains)
    # a chain of three reads as the pair of its formed left product and its last factor
    b, t, c = chains[1]
    assert nnz_and_bandwidth(a, [(b, t, c)])[1] == nnz_and_bandwidth(a, [((b @ t).tocsr(), c)])[1]
