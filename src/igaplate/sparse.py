"""Direct-solve contract and structural counts shared by all pipelines."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrix(Exception):
    pass


PRUNE_TOL = 1e-14  # structural-count threshold for stored near-zeros


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
        resid = np.linalg.norm(self.a @ x - b)
        bound = 1e-10 * (self.norm_a * np.linalg.norm(x) + np.linalg.norm(b))
        if resid > max(bound, 1e-300):
            raise SingularMatrix(f"residual {resid:.3e} exceeds bound {bound:.3e}")
        return x


def solve_direct(a, b: np.ndarray) -> np.ndarray:
    """One-shot direct solve; see DirectSolver for the contract."""
    return DirectSolver(a).solve(b)


def nnz_and_bandwidth(a) -> tuple[int, int]:
    """Structural nonzero count and max |row-col| after pruning near-zeros."""
    coo = sp.coo_matrix(a)
    mask = np.abs(coo.data) >= PRUNE_TOL
    if not mask.any():
        return 0, 0
    rows, cols = coo.row[mask], coo.col[mask]
    return int(mask.sum()), int(np.abs(rows - cols).max())
