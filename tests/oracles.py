"""Reference computations that only the tests use.

Each one rebuilds a library result by an independent, slower route: the
assembled blocks from element triplets, the Petrov-Galerkin shear rows
element by element, the closed-form rotations and the L2 norm of the
reference deflection.  least_squares_rate, the convergence rate the
acceptance criteria read, is here as well: no library code reads it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from igaplate.duals import DualTransform2D, extract_element_transform
from igaplate.multipatch import PatchAssembly, d_index_map
from igaplate.plate import PatchDiscretization, _mixed_blocks, _primal_blocks, _rotation_ids, d_ids


def coo_blocks(pa: PatchAssembly, discs: list, mat, scheme: str) -> dict:
    """Every block of the mixed and primal assemblies, from element triplets.

    The element blocks come from the same kernels as the library's
    (_mixed_blocks and _primal_blocks); their ids are mapped into the
    shared d numbering and the triplets are summed by scipy's COO to CSR
    conversion.  Keys are those of MixedSystem, 'k_ds1[p]' for patch p,
    plus 'shear' and 'bending' for the primal parts.
    """
    nd = 3 * pa.n_points
    triplets, shapes = {}, {}

    def add(name, shape, rows, cols, blocks):
        shapes[name] = shape
        parts = triplets.setdefault(name, ([], [], []))
        parts[0].append(np.broadcast_to(rows[:, :, None], blocks.shape).ravel())
        parts[1].append(np.broadcast_to(cols[:, None, :], blocks.shape).ravel())
        parts[2].append(blocks.ravel())

    for p, disc in enumerate(discs):
        d_map = d_index_map(pa, p)
        nw, ns1, ns2 = disc.spaces.disp.ndof, disc.spaces.s1.ndof, disc.spaces.s2.ndof
        for eu, ev in disc.chunks():
            k = _mixed_blocks(disc, mat, scheme, eu, ev)
            w, rot = d_map[k["gi"]], d_map[_rotation_ids(k["gi"], nw)]
            add("k_dd", (nd, nd), rot, rot, k["tt"])
            for key, s, theta, ns in (
                ("1", k["s1_idx"], rot[:, 0::2], ns1),
                ("2", k["s2_idx"], rot[:, 1::2], ns2),
            ):
                for part, rows in (("w", w), ("t", theta)):
                    add(f"k_ds{key}[{p}]", (nd, ns), rows, s, k[f"ds{key}_{part}"])
                    add(f"k_s{key}d[{p}]", (ns, nd), s, rows, k[f"s{key}d_{part}"])
                add(f"k_s{key}{key}[{p}]", (ns, ns), s, s, k[f"s{key}{key}"])
            k = _primal_blocks(disc, mat, eu, ev)
            ids = d_map[d_ids(k["gi"], nw)]
            rot = ids[:, k["gi"].shape[1] :]
            add("shear", (nd, nd), ids, ids, k["shear"])
            add("bending", (nd, nd), rot, rot, k["tt"])
    return {
        name: sp.coo_matrix(
            (np.concatenate(v), (np.concatenate(r), np.concatenate(c))), shape=shapes[name]
        ).tocsr()
        for name, (r, c, v) in triplets.items()
    }


def pg_shear_rows_elementwise(disc: PatchDiscretization, mat, t1: DualTransform2D, t2: DualTransform2D):
    """Assemble already-transformed shear rows element by element.

    Sums T^e K^e over the elements of the batched kernel, which equals
    transforming the assembled blocks globally.  Returns (K_S1d, K_S2d,
    K_S11, K_S22) in patch-local numbering.
    """
    spaces = disc.spaces
    nd, ns1, ns2 = spaces.nd, spaces.s1.ndof, spaces.s2.ndof
    parts = {key: ([], [], []) for key in ("s1d", "s2d", "s11", "s22")}
    for eu, ev in disc.chunks():
        k = _mixed_blocks(disc, mat, "weighted", eu, ev)
        rot = _rotation_ids(k["gi"], spaces.disp.ndof)
        for key, t, theta in (("1", t1, rot[:, 0::2]), ("2", t2, rot[:, 1::2])):
            s = k[f"s{key}_idx"]
            for e in range(len(eu)):
                et = extract_element_transform(t, s[e])
                for name, cols, blk in (
                    (f"s{key}d", k["gi"][e], k[f"s{key}d_w"][e]),
                    (f"s{key}d", theta[e], k[f"s{key}d_t"][e]),
                    (f"s{key}{key}", s[e], k[f"s{key}{key}"][e]),
                ):
                    rows, cs, vals = parts[name]
                    rows.append(np.repeat(et.rows, len(cols)))
                    cs.append(np.tile(cols, len(et.rows)))
                    vals.append((et.block @ blk).ravel())

    def csr(name, shape):
        rows, cols, vals = (np.concatenate(a) for a in parts[name])
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()

    return (
        csr("s1d", (ns1, nd)),
        csr("s2d", (ns2, nd)),
        csr("s11", (ns1, ns1)),
        csr("s22", (ns2, ns2)),
    )


def exact_rotation(x, y):
    """Rotation field of the closed-form solution (gradient of the bending part)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    th1 = x * x * (x - 1.0) ** 2 * (2.0 * x - 1.0) * (y * (y - 1.0)) ** 3
    th2 = (x * (x - 1.0)) ** 3 * y * y * (y - 1.0) ** 2 * (2.0 * y - 1.0)
    return th1, th2


def reference_l2_norm(problem, n: int = 64) -> float:
    """||w_ref||_L2 over the unit square (tensor Gauss on an n x n grid) of a BenchmarkProblem."""
    xg, wg = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(0.0, 1.0, n + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * xg
        ws = 0.5 * (b - a) * wg
        for c, d in zip(edges[:-1], edges[1:]):
            ys = 0.5 * (c + d) + 0.5 * (d - c) * xg
            vs = 0.5 * (d - c) * wg
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            val = problem.reference_w(xx.ravel(), yy.ravel()) ** 2
            total += float(val @ np.outer(ws, vs).ravel())
    return math.sqrt(total)


def least_squares_rate(errors, last: int = 3) -> float:
    """Least-squares error-decay slope over the final `last` of consecutive levels.

    Fits log2 of the errors against 0, 1, 2, ..., one mesh halving per
    step, so every error must be there: a None (a failed or skipped level)
    raises ValueError rather than being dropped, which would fit the levels
    around it as one halving apart.
    """
    if any(e is None for e in errors):
        raise ValueError("a level has no error; the rate needs consecutive levels")
    if len(errors) < 2:
        raise ValueError("need at least two errors for a rate")
    tail = np.log2(np.asarray(errors[-last:], dtype=float))
    slope = np.polyfit(np.arange(len(tail), dtype=float), tail, 1)[0]
    return float(-slope)
