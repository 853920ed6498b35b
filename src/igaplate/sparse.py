"""Direct and preconditioned Krylov solve contracts, and structural counts."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrix(Exception):
    pass


GMRES_RESTART = 60  # iterations of the one GMRES cycle; converging cells measured needed <= 50
KRYLOV_GATE = 1e-13  # backward-error bound every direct and iterative answer must meet
DENSE_SHARE = 0.1  # a matrix storing at least this share of its n^2 entries is factorised dense


def _inf_norm(a: sp.csr_matrix | sp.csc_matrix) -> float:
    """||A||_inf summed over the stored entries in one O(nnz) pass.

    Unlike scipy.sparse.linalg.norm, whose abs() sorts the indices of A in
    place, this leaves A (and so the caller's matrix it may share arrays
    with) untouched.
    """
    if a.nnz == 0:
        return 0.0
    if a.format == "csc":
        return float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max())
    starts = a.indptr[:-1][np.diff(a.indptr) > 0]  # rows with entries, each summed in order
    return float(np.add.reduceat(np.abs(a.data), starts).max())


def _residual_and_bound(a, x, b, tol: float, norm_a: float) -> tuple[float, float]:
    """||Ax - b|| and the bound tol (||A|| ||x|| + ||b||) it must not exceed."""
    resid = np.linalg.norm(a @ x - b)
    bound = tol * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
    return resid, max(bound, 1e-300)


def _pattern_digest(a: sp.csc_matrix) -> bytes:
    """SHA-256 of a CSC matrix's stored pattern: its indptr, then its indices."""
    digest = hashlib.sha256(a.indptr)
    digest.update(a.indices)
    return digest.digest()


@dataclass(frozen=True)
class ColumnOrder:
    """The fill-reducing column order of one COLAMD factorisation and the pattern it was made for.

    SuperLU factorises A Pc = A[:, order] with order = argsort(perm_c): column
    j of the factorised matrix is column order[j] of A (A[:, perm_c] is the
    inverse permutation, and fills far more).  COLAMD reads only the stored
    pattern, so the order serves every matrix with the same indptr and
    indices.  The pattern is kept as its SHA-256 digest, so no index array
    stays alive from one factorisation to the next.
    """

    pattern: bytes  # _pattern_digest of the matrix factorised
    order: np.ndarray

    def fits(self, a: sp.csc_matrix) -> bool:
        return _pattern_digest(a) == self.pattern


class DenseLU:
    """LAPACK getrf factor P A = L U of a square CSC matrix, held as one dense array.

    Offers the part of SuperLU's interface DirectSolver and its readers use:
    shape, solve(b, trans) and the factors L (unit diagonal stored) and U
    as sparse matrices, built on first use.  The matrix is expanded once
    into a Fortran-ordered array that getrf overwrites with the factor, so
    the factor is the only n x n array made until L or U is read.  Raises
    SingularMatrix on an exact zero pivot.
    """

    def __init__(self, a: sp.csc_matrix):
        self.shape = a.shape
        lu, self._piv, info = lapack.dgetrf(a.toarray(order="F"), overwrite_a=True)
        if info > 0:
            raise SingularMatrix(f"exact zero pivot in column {info - 1}")
        self._lu = lu

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        x, _ = lapack.dgetrs(self._lu, self._piv, b, trans={"N": 0, "T": 1}[trans])
        return x

    @cached_property
    def L(self) -> sp.csc_matrix:
        lower = np.tril(self._lu, -1)
        np.fill_diagonal(lower, 1.0)
        return sp.csc_matrix(lower)

    @cached_property
    def U(self) -> sp.csc_matrix:
        return sp.csc_matrix(np.triu(self._lu))


class DirectSolver:
    """Factorise once, solve many; every accepted solve meets a residual bound.

    Handles nonsymmetric matrices.  A matrix that stores at least
    DENSE_SHARE of its n^2 entries is factorised dense by LAPACK (DenseLU),
    so its dense array takes at most 1/DENSE_SHARE times the stored
    entries; any other input, dense ones included, is factorised by
    SuperLU in CSC form.  Raises SingularMatrix if factorisation fails or
    the residual bound ||Ax - b|| <= KRYLOV_GATE (||A|| ||x|| + ||b||) is
    violated.

    Given the ColumnOrder of an earlier factorisation whose pattern A has,
    it factorises A[:, order] in natural order instead of running COLAMD
    again, and maps every answer back.  SuperLU then sees the same columns
    in the same order, so L, U, the pivots and the answers are those of a
    fresh factorisation.  The one exception is an exact tie for the largest
    entry of a pivot column: SuperLU breaks it in favour of the diagonal of
    the matrix it is given, which for A[:, order] is not A's diagonal.
    Either pivot is a largest one.  A dense factor has no column order.
    """

    def __init__(self, a, column_order: ColumnOrder | None = None):
        a = sp.csc_matrix(a, dtype=float)
        n = a.shape[0]
        if n != a.shape[1]:
            raise SingularMatrix("matrix must be square")
        dense = a.nnz > 0 and a.nnz >= DENSE_SHARE * n * n
        if dense or (column_order is not None and not column_order.fits(a)):
            column_order = None
        self._column_order = column_order
        self._order = None  # set when the factor is of A[:, order]
        if column_order is not None:
            self._order = column_order.order
            a = a[:, self._order]
        self.a = a  # the matrix factorised
        self.norm_a = _inf_norm(a)  # before the factor: its scratch is freed by then
        if dense:
            self._lu = DenseLU(a)
        else:
            try:
                self._lu = spla.splu(a, permc_spec="COLAMD" if self._order is None else "NATURAL")
            except (RuntimeError, ValueError) as exc:
                raise SingularMatrix(str(exc)) from exc

    def column_order(self) -> ColumnOrder | None:
        """The column order of this factor, for later matrices of A's pattern; None if dense."""
        if self._column_order is None and not isinstance(self._lu, DenseLU):
            self._column_order = ColumnOrder(_pattern_digest(self.a), np.argsort(self._lu.perm_c))
        return self._column_order

    def _to_columns_of_a(self, y: np.ndarray) -> np.ndarray:
        """x with x[order] = y: an answer of A[:, order] as one of A."""
        if self._order is None:
            return y
        x = np.empty_like(y)
        x[self._order] = y
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        y = self._lu.solve(b)
        if not np.all(np.isfinite(y)):
            raise SingularMatrix("solve produced non-finite entries")
        resid, bound = _residual_and_bound(self.a, y, b, KRYLOV_GATE, self.norm_a)  # A[:, order] y = A x
        if resid > bound:
            raise SingularMatrix(f"residual {resid:.3e} exceeds bound {bound:.3e}")
        return self._to_columns_of_a(y)

    def condition_estimate(self) -> float | None:
        """1-norm condition estimate of A from the factor already made.

        ||A||_1 is exact; ||A^-1||_1 is estimated from one starting vector of
        ones, which draws no random numbers, so the estimate is reproducible
        and leaves the global RNG alone.  None if the estimate fails.
        """
        order = slice(None) if self._order is None else self._order
        try:
            op = spla.LinearOperator(
                self.a.shape,
                matvec=lambda b: self._to_columns_of_a(self._lu.solve(b)),
                rmatvec=lambda b: self._lu.solve(b[order], trans="T"),
            )
            return float(spla.norm(self.a, 1) * spla.onenormest(op, t=1))
        except Exception:
            return None


class KrylovSolver:
    """GMRES on A preconditioned by the LU of a nearby matrix M.

    M is factorised by SuperLU in symmetric mode (minimum degree on M^T + M,
    diagonal pivots), which suits a symmetric positive definite M.  If A is
    larger than M, A is a saddle matrix [[K, B], [B', C]] whose leading
    block has M's size, and M stands in for its Schur complement
    K - B C^-1 B': the preconditioner is the block upper triangle
    [[M, B], [0, C]], with C factorised by SuperLU's default LU.  With the
    exact Schur complement as M, GMRES converges in at most two iterations.

    One solve runs a single cycle of at most GMRES_RESTART iterations from
    x0 = 0, so it is deterministic; it stops early once the preconditioned
    residual has fallen by KRYLOV_GATE.  An answer is returned only if the
    cycle stopped before its last iteration and
    ||Ax - b|| <= KRYLOV_GATE (||A|| ||x|| + ||b||) in the infinity norm of
    A, the gate of DirectSolver; otherwise solve() returns None and the caller
    decides how to solve instead.  A cycle that needs every iteration has
    not converged, and its answer can pass the residual gate while far off
    the LU answer (1.1e-9 relative on c0_single lmp p=3 L3 t=1e-2).
    """

    def __init__(self, a, m):
        self.a = sp.csr_matrix(a, dtype=float)
        self.norm_a = _inf_norm(self.a)
        self.iterations = 0
        n = m.shape[0]
        try:
            self._lu = spla.splu(
                sp.csc_matrix(m, dtype=float),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            if n < self.a.shape[0]:
                self._coupling = self.a[:n, n:]
                self._lu_c = spla.splu(sp.csc_matrix(self.a[n:, n:]))
        except RuntimeError:
            self._lu = None

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r, or for a saddle matrix [[M, B], [0, C]]^-1 r."""
        n = self._lu.shape[0]
        if n == len(r):
            return self._lu.solve(r)
        y = self._lu_c.solve(r[n:])
        return np.concatenate([self._lu.solve(r[:n] - self._coupling @ y), y])

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        if self._lu is None:
            return None
        b = np.asarray(b, dtype=float)
        n = self.a.shape[0]
        precond = spla.LinearOperator((n, n), matvec=self._precondition, dtype=float)
        residuals = []
        x, _ = spla.gmres(
            self.a,
            b,
            rtol=KRYLOV_GATE,
            restart=GMRES_RESTART,
            maxiter=1,
            M=precond,
            callback=residuals.append,
            callback_type="pr_norm",
        )
        self.iterations = len(residuals)
        if self.iterations >= GMRES_RESTART or not np.all(np.isfinite(x)):
            return None
        resid, bound = _residual_and_bound(self.a, x, b, KRYLOV_GATE, self.norm_a)
        return x if resid <= bound else None


def solve_direct(a, b: np.ndarray) -> np.ndarray:
    """One-shot direct solve; see DirectSolver for the contract."""
    return DirectSolver(a).solve(b)


def nnz_and_bandwidth(a: sp.csr_matrix | sp.csc_matrix) -> tuple[int, int]:
    """Stored entry count and max |row-col| over the stored entries.

    Read from the index arrays as stored, with no copy of the matrix; the
    indices need not be sorted and are left as they are (see _inf_norm).
    """
    if a.nnz == 0:
        return 0, 0
    major = np.flatnonzero(np.diff(a.indptr))  # rows (CSC: columns) with entries
    starts = a.indptr[major]
    lo = np.minimum.reduceat(a.indices, starts)
    hi = np.maximum.reduceat(a.indices, starts)
    return int(a.nnz), int(max((major - lo).max(), (hi - major).max()))
