"""Per-layer timers and counters wrapped around igaplate's public calls.

The wrappers are installed from the benchmark's own files by replacing
module attributes, so the program itself is unchanged; they pass arguments
and results through untouched.  Each span records its self time: time
spent in a nested span is charged to the inner one only.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

NONZERO_REL = 1e-14  # a stored entry counts as nonzero above this share of its matrix's largest


def stored_and_nonzero(mat) -> tuple[int, int]:
    """Stored entries of a sparse matrix and how many of them are not near zero."""
    data = np.abs(mat.tocoo().data)
    if data.size == 0:
        return 0, 0
    return int(data.size), int(np.count_nonzero(data > NONZERO_REL * data.max()))


def _mixed_blocks(system):
    blocks = [system.k_dd]
    for name in ("k_ds1", "k_ds2", "k_s1d", "k_s2d", "k_s11", "k_s22"):
        blocks.extend(getattr(system, name))
    return blocks


class Tracer:
    """Installs the wrappers, accumulates per-layer seconds and counts over a pass.

    Spans read `clock`; the worker passes one that leaves out the reference
    chunks timed during the pass.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _timed(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = tracer.clock() - t0
                inner = tracer._stack.pop()
                tracer.seconds[name] += dt - inner
                if tracer._stack:
                    tracer._stack[-1] += dt
            if count is not None:
                count(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._timed(name, original, count))

    # -- counters ---------------------------------------------------------

    def _add_matrices(self, layer, mats):
        for m in mats:
            stored, nonzero = stored_and_nonzero(m)
            self.counts[layer + ".stored"] += stored
            self.counts[layer + ".nonzero"] += nonzero

    def _count_prepare(self, args, ctx):
        self.counts["prepare.elements"] += sum(d.n_elems for d in ctx.discs)

    def _count_mixed(self, args, system):
        self._add_matrices("assemble", _mixed_blocks(system))

    def _count_primal(self, args, out):
        self._add_matrices("assemble", [out[0]])

    def _count_condense(self, args, cond):
        self._add_matrices("condense", [cond.k_cond])

    # -- install ----------------------------------------------------------

    def install(self):
        import importlib

        from igaplate import bench, plate

        # the package exports a function named `condense` that hides the module
        condense = importlib.import_module("igaplate.condense")

        self._patch(condense, "prepare_problem", "prepare", self._count_prepare)
        self._patch(condense, "assemble_mixed", "assemble", self._count_mixed)
        self._patch(condense, "assemble_primal_multipatch", "assemble", self._count_primal)
        self._patch(plate.MixedSystem, "monolithic", "monolithic")
        self._patch(condense, "build_transforms", "transforms")
        self._patch(condense, "pg_transform", "pg")
        self._patch(condense, "condense", "condense", self._count_condense)
        self._patch(condense, "recover_shear", "recover")
        self._patch(bench, "l2_error", "l2")

        base = condense.DirectSolver
        self._restore.append((condense, "DirectSolver", base))

        class TracedDirectSolver(base):
            __init__ = self._timed("factor", base.__init__, self._count_factor)
            solve = self._timed("solve", base.solve)

        condense.DirectSolver = TracedDirectSolver
        return self

    def _count_factor(self, args, _):
        # every system these workloads solve is sparse, so the factor is SuperLU's
        solver, a = args[0], args[1]
        self.counts["solved.dofs"] += int(a.shape[0])
        self.counts["solved.nnz"] += int(a.nnz)
        self.counts["factor.lu_nnz"] += int(solver._lu.L.nnz + solver._lu.U.nnz)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one pass; `other.s` is the wall time no span covers."""
        c = self.counts
        out = {f"{name}.s": self.seconds.get(name, 0.0) for name in LAYER_SPANS}
        out["other.s"] = wall_s - sum(self.seconds.values())
        out["prepare.elements"] = c["prepare.elements"]
        for layer in ("assemble", "condense"):
            stored = c[layer + ".stored"]
            out[layer + ".stored_nnz"] = stored
            out[layer + ".nonzero_share"] = c[layer + ".nonzero"] / stored if stored else 0.0
        for name in ("factor.lu_nnz", "solved.dofs", "solved.nnz"):
            out[name] = c[name]
        return out


LAYER_SPANS = (
    "prepare",
    "assemble",
    "monolithic",
    "transforms",
    "pg",
    "condense",
    "factor",
    "solve",
    "recover",
    "l2",
)
