"""Direct and preconditioned Krylov solve contracts, and structural counts."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


class SingularMatrix(Exception):
    pass


GMRES_RESTART = 60  # iterations of the one GMRES cycle; converging cells measured needed <= 50
KRYLOV_GATE = 1e-13  # backward-error bound every direct and iterative answer must meet
DENSE_SHARE = 0.1  # a matrix storing at least this share of its n^2 entries is factorised dense
BAND_MAX_ENTRIES = 1 << 23  # the most entries (64 MiB) a band or dense factor of a sparser matrix may store


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


def _inf_norm_estimate(a: spla.LinearOperator) -> float:
    """A lower bound of ||A||_inf = ||A^T||_1 from A's products alone.

    One block-1 sweep of Higham's estimator (onenormest with t=1) starts
    from the vector of ones and draws no random numbers, so it is
    reproducible.  Every estimate is ||A^T v||_1 / ||v||_1 of an actual v,
    so it never exceeds the norm; it is shrunk by n eps, the round-off of
    summing a row in another order than _inf_norm does, so it never exceeds
    _inf_norm of the formed matrix either.  A residual gate that reads it
    is never looser than one that reads the exact norm.
    """
    n = a.shape[0]
    return float(spla.onenormest(a.T, t=1)) * (1.0 - n * np.finfo(float).eps)


def _residual_and_bound(a, x, b, tol: float, norm_a: float) -> tuple[float, float]:
    """||Ax - b|| and the bound tol (||A|| ||x|| + ||b||) it must not exceed."""
    resid = np.linalg.norm(a @ x - b)
    bound = tol * (norm_a * np.linalg.norm(x) + np.linalg.norm(b))
    return resid, max(bound, 1e-300)


class DenseLU:
    """LAPACK getrf factor P A = L U of a square CSC matrix, held as one dense array.

    Offers the part of SuperLU's interface DirectSolver and its readers use:
    shape, nnz (here the n^2 entries the factor stores), solve(b, trans)
    and the factors L (unit diagonal stored) and U as sparse matrices,
    built on first use.  The matrix is expanded once into a Fortran-ordered
    array that getrf overwrites with the factor, so the factor is the only
    n x n array made until L or U is read.  Raises SingularMatrix on an
    exact zero pivot.
    """

    def __init__(self, a: sp.csc_matrix):
        self.shape = a.shape
        lu, self._piv, info = lapack.dgetrf(a.toarray(order="F"), overwrite_a=True)
        if info > 0:
            raise SingularMatrix(f"exact zero pivot in column {info - 1}")
        self._lu = lu
        self.nnz = lu.size

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


def _ordered_band(a: sp.csc_matrix, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """perm, its inverse, and kl, ku of A in the order perm.

    perm orders rows and columns alike: B = A[perm][:, perm], and
    inv[perm] = 0..n-1.  kl and ku are B's numbers of sub- and
    superdiagonals, taken apart because A's pattern need not be symmetric,
    and read per column of A with no permuted copy made.
    """
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    lo, hi = _index_range(a, inv, inv)  # per column of A, its least and largest row of B
    cols = np.flatnonzero(hi >= 0)
    return perm, inv, int(np.max(hi[cols] - inv[cols], initial=0)), int(np.max(inv[cols] - lo[cols], initial=0))


def rcm_band(a: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Reverse Cuthill-McKee order of A's symmetrised pattern, its inverse, and kl, ku of A in that order.

    See _ordered_band for the three.
    """
    pattern = sp.csc_matrix((np.ones(a.nnz, dtype=np.int8), a.indices, a.indptr), shape=a.shape)
    # symmetric: CSC reads as CSR
    return _ordered_band(a, csgraph.reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True))


def band_order(a: sp.csc_matrix, orders=()) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The order of the candidates whose band stores the fewest rows, 2 kl + ku, with its inverse, kl and ku.

    orders is a sequence of candidate orders, or a function of no arguments
    that returns one, called here, so only when a band is tried.  Ties go
    to the earlier candidate.  With no candidates it is rcm_band(a), which
    sees the matrix alone; a caller that knows the grid of its unknowns
    passes orders that sweep it (ThicknessFreeParts.orders), whose bands
    are narrower.
    """
    if callable(orders):
        orders = orders()
    if not len(orders):
        return rcm_band(a)
    return min((_ordered_band(a, perm) for perm in orders), key=lambda band: 2 * band[2] + band[3])


class BandLU:
    """LAPACK gbtrf factor P B = L U of B = A[perm][:, perm], held as one band.

    perm, inv, kl and ku are those of band_order.  A is scattered from its CSC
    arrays straight into the Fortran-ordered (2 kl + ku + 1, n) band that
    gbtrf overwrites with the factor: B's entry (i, j) in row kl + ku + i - j
    of column j, the first kl rows left for the fill of pivoting.  No
    permuted copy of A is made.  Offers DenseLU's interface: shape, nnz
    (the entries the band stores), solve(b, trans), which applies perm on
    both sides so that it solves with A, and B's factors L and U, built on
    first use.  Raises SingularMatrix on an exact zero pivot.
    """

    def __init__(self, a: sp.csc_matrix, perm: np.ndarray, inv: np.ndarray, kl: int, ku: int):
        n = a.shape[0]
        self.shape, self._perm, self._inv, self._kl, self._ku = a.shape, perm, inv, kl, ku
        rows = 2 * kl + ku + 1
        band = np.zeros((rows, n), order="F")
        # flat Fortran index of B's (i, j): kl + ku + i - j + j * rows
        index = np.repeat(self._inv.astype(np.intp) * (rows - 1) + kl + ku, np.diff(a.indptr))
        index += self._inv[a.indices]
        np.add.at(band.ravel(order="F"), index, a.data)  # duplicates add up, as in A
        lu, self._piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            raise SingularMatrix(f"exact zero pivot in column {info - 1} of the band")
        self._lu = lu
        self.nnz = lu.size

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        y, _ = lapack.dgbtrs(
            self._lu, self._kl, self._ku, b[self._perm], self._piv, trans={"N": 0, "T": 1}[trans], overwrite_b=True
        )
        return y[self._inv]

    @cached_property
    def L(self) -> sp.csc_matrix:
        """Unit lower factor: gbtrf's multipliers, moved to the rows that later pivots swap them to."""
        n, kl, multipliers = self.shape[0], self._kl, self._lu[self._kl + self._ku + 1 :]
        rows = np.full((kl, n), n)  # n: beyond the matrix
        final = np.arange(n)  # final[r]: where the row at position r after step j ends up
        for j in range(n - 1, -1, -1):
            below = final[j + 1 : j + 1 + kl]
            rows[: len(below), j] = below
            p = self._piv[j]
            final[j], final[p] = final[p], final[j]
        keep = (rows < n) & (multipliers != 0)
        cols = np.broadcast_to(np.arange(n), rows.shape)
        lower = sp.csc_matrix((multipliers[keep], (rows[keep], cols[keep])), shape=self.shape)
        return lower + sp.identity(n, format="csc")

    @cached_property
    def U(self) -> sp.csc_matrix:
        width = self._kl + self._ku  # superdiagonals of U
        return sp.dia_matrix((self._lu[: width + 1], np.arange(width, -1, -1)), shape=self.shape).tocsc()


class BandCholesky:
    """LAPACK pbtrf factor B = L L^T of a symmetric B = M[perm][:, perm], held as one band.

    perm and inv are those of band_order, and kd is at least its kl and ku.
    M's lower triangle alone is read, its entry (i, j), i >= j, going to B's
    (inv[i], inv[j]) or its mirror, whichever is on or below the diagonal,
    so M need be symmetric only up to round-off.  It is scattered from its
    CSC arrays straight into the Fortran-ordered (kd + 1, n) band that pbtrf
    overwrites with L.  Offers shape, nnz (the entries the band stores) and
    solve(b), which applies perm on both sides so that it solves with M.
    Raises SingularMatrix when a pivot is not positive.
    """

    def __init__(self, m: sp.csc_matrix, perm: np.ndarray, inv: np.ndarray, kd: int):
        n = m.shape[0]
        self.shape, self._perm, self._inv = m.shape, perm, inv
        band = np.zeros((kd + 1, n), order="F")
        cols = np.repeat(np.arange(n), np.diff(m.indptr))
        lower = m.indices >= cols
        r, c = inv[m.indices[lower]].astype(np.intp), inv[cols[lower]].astype(np.intp)
        # flat Fortran index of B's (r, c), r >= c: r - c + c * (kd + 1); duplicates add up, as in M
        np.add.at(band.ravel(order="F"), np.maximum(r, c) + kd * np.minimum(r, c), m.data[lower])
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=True)
        if info > 0:
            raise SingularMatrix(f"pivot {info - 1} of the band is not positive")
        self._factor = factor
        self.nnz = factor.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, _ = lapack.dpbtrs(self._factor, b[self._perm], lower=1, overwrite_b=True)
        return x[self._inv]


class DirectSolver:
    """Factorise once, solve many; every accepted solve meets a residual bound.

    Handles nonsymmetric matrices.  The factor is chosen from the matrix
    and the candidate orders, and no choice lets LAPACK store more than the
    larger of nnz / DENSE_SHARE and BAND_MAX_ENTRIES entries:

    - a matrix that stores at least DENSE_SHARE of its n^2 entries is
      factorised dense by LAPACK getrf (DenseLU), in its own order, so its
      dense array takes at most 1/DENSE_SHARE times the stored entries;
    - any other matrix is put in the candidate order with the narrowest
      band, or in reverse Cuthill-McKee order without candidates (see
      band_order), and factorised as a band by LAPACK gbtrf (BandLU), or by
      getrf if its band would need at least n rows, as long as that factor
      stores at most BAND_MAX_ENTRIES entries;
    - a larger one is factorised by SuperLU in COLAMD order: a band in two
      dimensions stores O(n^1.5) entries, 2.2-3.1x SuperLU's fill on the
      large cells.

    solve() takes one step of iterative refinement, x += LU^-1 (b - A x),
    then raises SingularMatrix if the refined residual violates
    ||Ax - b|| <= KRYLOV_GATE (||A|| ||x|| + ||b||); the constructor raises
    it if factorisation fails.
    """

    def __init__(self, a, orders=()):
        a = sp.csc_matrix(a, dtype=float)
        n = a.shape[0]
        if n != a.shape[1]:
            raise SingularMatrix("matrix must be square")
        self.a = a
        self.norm_a = _inf_norm(a)  # before the factor: its scratch is freed by then
        if a.nnz > 0 and a.nnz >= DENSE_SHARE * n * n:
            self._lu = DenseLU(a)
            return
        # every column must fit in the band's kl + ku + 1 rows, so n times the longest bounds its storage below
        if n * np.diff(a.indptr).max(initial=0) <= BAND_MAX_ENTRIES:
            perm, inv, kl, ku = band_order(a, orders)
            rows = 2 * kl + ku + 1
            if min(rows, n) * n <= BAND_MAX_ENTRIES:
                self._lu = DenseLU(a) if rows >= n else BandLU(a, perm, inv, kl, ku)
                return
        try:
            self._lu = spla.splu(a, permc_spec="COLAMD")
        except (RuntimeError, ValueError) as exc:
            raise SingularMatrix(str(exc)) from exc

    @property
    def lu_fill(self) -> int:
        """Entries the factor stores."""
        return int(self._lu.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        x += self._lu.solve(b - self.a @ x)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("solve produced non-finite entries")
        resid, bound = _residual_and_bound(self.a, x, b, KRYLOV_GATE, self.norm_a)
        if resid > bound:
            raise SingularMatrix(f"residual {resid:.3e} exceeds bound {bound:.3e}")
        return x

    def condition_estimate(self) -> float | None:
        """1-norm condition estimate of A from the factor already made.

        ||A||_1 is exact; ||A^-1||_1 is estimated from one starting vector of
        ones, which draws no random numbers, so the estimate is reproducible
        and leaves the global RNG alone.  None if the estimate fails.
        """
        try:
            op = spla.LinearOperator(
                self.a.shape,
                matvec=self._lu.solve,
                rmatvec=lambda b: self._lu.solve(b, trans="T"),
            )
            return float(spla.norm(self.a, 1) * spla.onenormest(op, t=1))
        except Exception:
            return None


class KrylovSolver:
    """GMRES on A preconditioned by the factor of a nearby matrix M.

    M, and a saddle matrix's block C (below), must be symmetric positive
    definite.  Each is factorised by LAPACK pbtrf as a band Cholesky
    (BandCholesky, which reads the lower triangle alone) in the candidate
    order where its band is narrowest (see band_order), or by SuperLU in
    symmetric mode (minimum degree on M^T + M, diagonal pivots) if that
    band would store more than BAND_MAX_ENTRIES entries.  orders are
    candidates for A's unknowns; M takes each restricted to its own, the
    leading ones.  If A is larger than M, A is a saddle matrix
    [[K, B], [B', C]] whose leading block has M's size, and M stands in
    for its Schur complement K - B C^-1 B': the preconditioner is the
    block upper triangle [[M, B], [0, C]], C in its own, block-diagonal,
    order.  With the exact Schur complement as M, GMRES converges in at
    most two iterations.

    A may also be a square LinearOperator with matvec and rmatvec, which
    GMRES applies without a matrix ever being formed.

    One solve runs a single cycle of at most GMRES_RESTART iterations from
    x0 = 0, so it is deterministic; it stops early once the preconditioned
    residual has fallen by KRYLOV_GATE.  An answer is returned only if the
    cycle stopped before its last iteration and
    ||Ax - b|| <= KRYLOV_GATE (||A|| ||x|| + ||b||) in the infinity norm of
    A, the gate of DirectSolver; otherwise solve() returns None and the caller
    decides how to solve instead.  For an operator ||A||_inf is a lower
    bound (_inf_norm_estimate), so its gate is never looser.  A cycle that
    needs every iteration has not converged, and its answer can pass the
    residual gate while far off the LU answer (1.1e-9 relative on c0_single
    lmp p=3 L3 t=1e-2).
    """

    def __init__(self, a, m, orders=()):
        if isinstance(a, spla.LinearOperator):
            self.a, self.norm_a = a, _inf_norm_estimate(a)
        else:
            self.a = sp.csr_matrix(a, dtype=float)
            self.norm_a = _inf_norm(self.a)
        self.iterations = 0
        self._lu_c = None  # the shear block's factor, for a saddle matrix
        m = sp.csc_matrix(m, dtype=float)
        n = m.shape[0]
        try:
            self._lu = self._factor(m, lambda: [o[o < n] for o in (orders() if callable(orders) else orders)])
            if n < self.a.shape[0]:
                self._coupling = self.a[:n, n:]
                self._lu_c = self._factor(sp.csc_matrix(self.a[n:, n:]), [np.arange(self.a.shape[0] - n)])
        except (RuntimeError, SingularMatrix):
            self._lu = None

    @staticmethod
    def _factor(m: sp.csc_matrix, orders):
        """M's BandCholesky if its band fits in BAND_MAX_ENTRIES, else its SuperLU."""
        perm, inv, kl, ku = band_order(m, orders)
        kd = max(kl, ku)  # a stored entry's mirror may be B's farthest from the diagonal
        if (kd + 1) * m.shape[0] <= BAND_MAX_ENTRIES:
            return BandCholesky(m, perm, inv, kd)
        return spla.splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    @property
    def lu_fill(self) -> int:
        """Entries the factors store: M's (a band Cholesky's band or SuperLU's L and U), and C's for a saddle matrix."""
        return sum(int(lu.nnz) for lu in (self._lu, self._lu_c) if lu is not None)

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


def _index_range(a, lo: np.ndarray | None = None, hi: np.ndarray | None = None) -> tuple:
    """Per row of a CSR matrix (CSC: per column), the least and largest index it stores.

    Given lo and hi, the least lo[j] and largest hi[j] over its stored
    indices j instead.  A row that stores none gets the largest integer and
    -1.  Reads the index arrays as stored, so they need not be sorted.
    """
    n_major = len(a.indptr) - 1
    out_lo, out_hi = np.full(n_major, np.iinfo(np.intp).max), np.full(n_major, -1)
    rows = np.flatnonzero(np.diff(a.indptr))
    if len(rows):
        starts = a.indptr[rows]
        out_lo[rows] = np.minimum.reduceat(a.indices if lo is None else lo[a.indices], starts)
        out_hi[rows] = np.maximum.reduceat(a.indices if hi is None else hi[a.indices], starts)
    return out_lo, out_hi


def _band(lo: np.ndarray, hi: np.ndarray) -> int:
    """Max |row-col| over rows whose least and largest stored columns are lo and hi."""
    rows = np.flatnonzero(hi >= 0)
    if not len(rows):
        return 0
    return int(max((rows - lo[rows]).max(), (hi[rows] - rows).max()))


def nnz_and_bandwidth(a: sp.csr_matrix | sp.csc_matrix, products=()) -> tuple[int, int]:
    """Stored entry count and max |row-col| over the stored entries of a + sum of the products.

    Each product is a chain (b, c, ...) of two or more sparse factors, whose
    product b @ c @ ... enters the sum.  a's index arrays are read as
    stored, CSR or CSC (the band is the larger of a's and the products'),
    with no copy of the matrix; the indices need not be sorted and are left
    as they are (see _inf_norm).  With products, the count is of the
    entries a and every factor store, as an exact count of the formed sum
    would cost as much as forming it, and each row's least and largest
    stored column is chained through the factors from right to left in
    O(nnz), so no product is formed.  The formed sum's bandwidth can only
    be narrower, where an extreme entry cancels to exactly zero and is
    dropped.
    """
    lo, hi = _index_range(a)
    for chain in products:
        c_lo, c_hi = _index_range(chain[-1].tocsr())
        for factor in chain[-2::-1]:
            c_lo, c_hi = _index_range(factor.tocsr(), c_lo, c_hi)
        np.minimum(lo, c_lo, out=lo)
        np.maximum(hi, c_hi, out=hi)
    return int(a.nnz + sum(f.nnz for chain in products for f in chain)), _band(lo, hi)
