"""Direct and preconditioned Krylov solve contracts, and structural counts."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrix(Exception):
    pass


GMRES_RESTART = 60  # iterations of the one GMRES cycle; converging cells measured needed <= 50
KRYLOV_GATE = 1e-13  # backward-error bound an iterative answer must meet


def _residual_and_bound(a, x, b, tol: float, norm_a: float) -> tuple[float, float]:
    """||Ax - b|| and the bound tol (||A|| ||x|| + ||b||) it must not exceed."""
    resid = np.linalg.norm(a @ x - b)
    bound = tol * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
    return resid, max(bound, 1e-300)


class DirectSolver:
    """Factorise once, solve many; every accepted solve meets a residual bound.

    Handles nonsymmetric matrices; any input, dense ones included, is
    factorised by SuperLU in CSC form.  Raises SingularMatrix if
    factorisation fails or the residual bound
    ||Ax - b|| <= 1e-10 (||A|| ||x|| + ||b||) is violated.
    """

    def __init__(self, a):
        self.a = sp.csc_matrix(a, dtype=float)
        if self.a.shape[0] != self.a.shape[1]:
            raise SingularMatrix("matrix must be square")
        try:
            self._lu = spla.splu(self.a)
        except (RuntimeError, ValueError) as exc:
            raise SingularMatrix(str(exc)) from exc
        self.norm_a = spla.norm(self.a, np.inf) if self.a.nnz else 0.0

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("solve produced non-finite entries")
        resid, bound = _residual_and_bound(self.a, x, b, 1e-10, self.norm_a)
        if resid > bound:
            raise SingularMatrix(f"residual {resid:.3e} exceeds bound {bound:.3e}")
        return x


class KrylovSolver:
    """GMRES on A preconditioned by the LU of a nearby matrix M.

    M is factorised by SuperLU in symmetric mode (minimum degree on M^T + M,
    diagonal pivots), which suits a symmetric positive definite M.  One
    solve runs a single cycle of at most GMRES_RESTART iterations from
    x0 = 0, so it is deterministic; it stops early once the preconditioned
    residual has fallen by KRYLOV_GATE.  An answer is returned only if
    ||Ax - b|| <= KRYLOV_GATE (||A|| ||x|| + ||b||) in the infinity norm of
    A, as in DirectSolver; otherwise solve() returns None and the caller
    decides how to solve instead.
    """

    def __init__(self, a, m):
        self.a = sp.csr_matrix(a, dtype=float)
        self.norm_a = spla.norm(self.a, np.inf) if self.a.nnz else 0.0
        self.iterations = 0
        try:
            self._lu = spla.splu(
                sp.csc_matrix(m, dtype=float),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:
            self._lu = None

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        if self._lu is None:
            return None
        b = np.asarray(b, dtype=float)
        n = self.a.shape[0]
        precond = spla.LinearOperator((n, n), matvec=self._lu.solve, dtype=float)
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
        if not np.all(np.isfinite(x)):
            return None
        resid, bound = _residual_and_bound(self.a, x, b, KRYLOV_GATE, self.norm_a)
        return x if resid <= bound else None


def solve_direct(a, b: np.ndarray) -> np.ndarray:
    """One-shot direct solve; see DirectSolver for the contract."""
    return DirectSolver(a).solve(b)


def nnz_and_bandwidth(a) -> tuple[int, int]:
    """Stored entry count and max |row-col| over the stored entries."""
    coo = sp.coo_matrix(a)
    if coo.nnz == 0:
        return 0, 0
    return int(coo.nnz), int(np.abs(coo.row - coo.col).max())
