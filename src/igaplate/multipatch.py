"""Multi-patch assemblies with C0 displacement coupling at conforming interfaces.

Displacement and rotation DOFs of coincident interface control points are
unified; shear DOFs stay strictly patch-local, so the shear blocks never
couple across patches and condensation can run patch by patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .plate import (
    EDGES,
    MixedSystem,
    assemble_patches,
    assemble_primal_patches,
    d_ids,
    edge_point_ids,
)
from .splines import SurfacePatch


class NonConformingInterface(Exception):
    pass


def _edge_geometry(patch: SurfacePatch, edge: str):
    """(knot vector along the edge, points (k,3), weights (k,)) in edge order."""
    ids = edge_point_ids(patch.net.shape, edge)
    pts = patch.net.points.reshape(-1, 3)[ids]
    wts = patch.net.weights.reshape(-1)[ids]
    kv = patch.knots_v if edge in ("u0", "u1") else patch.knots_u
    return kv, pts, wts


@dataclass(frozen=True)
class Interface:
    patch_a: int
    edge_a: str
    patch_b: int
    edge_b: str
    reversed: bool = False


@dataclass
class PatchAssembly:
    """Patches plus interface topology and the unified displacement DOF map."""

    patches: list
    interfaces: list
    point_maps: list  # per patch: local point id -> global point id
    n_points: int
    boundary_points: np.ndarray  # global point ids on unmatched (outer) edges

    @property
    def n_patches(self) -> int:
        return len(self.patches)


def detect_interfaces(patches, tol: float = 1e-12) -> list[Interface]:
    """Find conforming patch interfaces by coincident edges.

    Edges whose endpoints coincide loosely are treated as intended matches
    and validated strictly, so a slightly perturbed interface raises
    NonConformingInterface instead of silently becoming an outer boundary.
    """
    found: list[Interface] = []
    used: set[tuple[int, str]] = set()
    for a in range(len(patches)):
        for b in range(a + 1, len(patches)):
            for ea in EDGES:
                if (a, ea) in used:
                    continue
                _, pa, _ = _edge_geometry(patches[a], ea)
                for eb in EDGES:
                    if (b, eb) in used:
                        continue
                    _, pb, _ = _edge_geometry(patches[b], eb)
                    if len(pa) != len(pb):
                        continue
                    # loose candidate test; strict validation happens below
                    cand = 1e-3
                    end_same = (
                        np.linalg.norm(pa[0] - pb[0]) < cand
                        and np.linalg.norm(pa[-1] - pb[-1]) < cand
                    )
                    end_rev = (
                        np.linalg.norm(pa[0] - pb[-1]) < cand
                        and np.linalg.norm(pa[-1] - pb[0]) < cand
                    )
                    if not (end_same or end_rev):
                        continue
                    iface = Interface(a, ea, b, eb, reversed=not end_same)
                    _validate_interface(patches, iface, tol)
                    found.append(iface)
                    used.add((a, ea))
                    used.add((b, eb))
                    break
    return found


def _validate_interface(patches, iface: Interface, tol: float) -> None:
    kv_a, pa, wa = _edge_geometry(patches[iface.patch_a], iface.edge_a)
    kv_b, pb, wb = _edge_geometry(patches[iface.patch_b], iface.edge_b)
    if iface.reversed:
        pb = pb[::-1]
        wb = wb[::-1]
        lo, hi = kv_b.domain
        vals_b = (lo + hi - kv_b.values)[::-1]
    else:
        vals_b = kv_b.values
    if kv_a.degree != kv_b.degree:
        raise NonConformingInterface(
            f"degree mismatch {kv_a.degree} vs {kv_b.degree} across interface {iface}"
        )
    if len(kv_a.values) != len(vals_b) or np.abs(kv_a.values - vals_b).max() > tol:
        raise NonConformingInterface(f"knot vectors differ across interface {iface}")
    if np.abs(pa - pb).max() > tol or np.abs(wa - wb).max() > tol:
        gap = max(np.abs(pa - pb).max(), np.abs(wa - wb).max())
        raise NonConformingInterface(
            f"interface control data differ by {gap:.3e} (> {tol:.0e}) across {iface}"
        )


def build_dof_map(patches, interfaces=None, tol: float = 1e-12) -> PatchAssembly:
    """Unify displacement DOFs of matched interface control points."""
    patches = list(patches)
    if interfaces is None:
        interfaces = detect_interfaces(patches, tol)
    else:
        for iface in interfaces:
            _validate_interface(patches, iface, tol)

    sizes = [p.net.shape[0] * p.net.shape[1] for p in patches]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pairs = [np.zeros((2, 0), dtype=int)]
    for iface in interfaces:
        ids_a = edge_point_ids(patches[iface.patch_a].net.shape, iface.edge_a)
        ids_b = edge_point_ids(patches[iface.patch_b].net.shape, iface.edge_b)
        if iface.reversed:
            ids_b = ids_b[::-1]
        pairs.append(np.stack([offsets[iface.patch_a] + ids_a, offsets[iface.patch_b] + ids_b]))
    rows, cols = np.concatenate(pairs, axis=1)
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(offsets[-1],) * 2)
    # components are numbered by their smallest point id, in increasing order
    n_points, labels = connected_components(graph, directed=False)
    global_ids = labels.astype(np.int64)
    point_maps = [
        global_ids[offsets[p] : offsets[p] + sizes[p]].copy() for p in range(len(patches))
    ]

    matched = _interface_edges(interfaces)
    boundary = set()
    for p, patch in enumerate(patches):
        shape = patch.net.shape
        for edge in EDGES:
            if (p, edge) in matched:
                continue
            boundary.update(point_maps[p][edge_point_ids(shape, edge)].tolist())

    return PatchAssembly(
        patches=patches,
        interfaces=list(interfaces),
        point_maps=point_maps,
        n_points=int(n_points),
        boundary_points=np.array(sorted(boundary), dtype=int),
    )


def _interface_edges(interfaces) -> set:
    """(patch, edge) of both sides of every interface."""
    return {(i.patch_a, i.edge_a) for i in interfaces} | {(i.patch_b, i.edge_b) for i in interfaces}


def grid_sweeps(pa: PatchAssembly) -> list:
    """Per sweep, every point's place in a breadth-first walk of the control-point grids.

    One sweep starts from edge u0 of the patches, one from edge v0.  Two
    points are neighbours when they are 4-neighbours in some patch's grid;
    interface points are shared through point_maps.  A walk starts from that
    edge of every patch where it is not an interface edge, in patch order and
    along the edge, and then takes each level's unvisited neighbours in the
    order of the points that reach them.  On one patch the u0 sweep is the
    point order iu n_v + iv itself.  The whole non-interface edges start the
    walk, not the outer points on them: those would add the end points of an
    interface edge, from which the walk runs diagonally through the next
    patch (kl of the mxd p2 L3 band of mp_linear's u0 sweep, 105, would
    become 411).  A sweep
    whose every edge is an interface edge is left out; points no walk
    reaches come last, in id order.
    """
    n = pa.n_points
    pairs = []
    for patch, ids in zip(pa.patches, pa.point_maps):
        grid = ids.reshape(patch.net.shape)
        pairs += [(grid[:-1].ravel(), grid[1:].ravel()), (grid[:, :-1].ravel(), grid[:, 1:].ravel())]
    a, b = (np.concatenate(side) for side in zip(*pairs))
    graph = sp.csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    graph.sort_indices()  # each point's neighbours in id order
    matched = _interface_edges(pa.interfaces)
    sweeps = []
    for edge in ("u0", "v0"):
        starts = [
            ids[edge_point_ids(patch.net.shape, edge)]
            for p, (patch, ids) in enumerate(zip(pa.patches, pa.point_maps))
            if (p, edge) not in matched
        ]
        if not starts:
            continue
        starts = np.concatenate(starts)
        # a root n whose neighbours are the start points in walk order:
        # breadth_first_order takes a point's neighbours in the order stored
        indices, indptr = np.r_[graph.indices, starts], np.r_[graph.indptr, graph.nnz + len(starts)]
        walk_graph = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
        walk = breadth_first_order(walk_graph, n, directed=True, return_predecessors=False)[1:]
        seen = np.zeros(n, dtype=bool)
        seen[walk] = True
        rank = np.empty(n, dtype=np.int64)
        rank[np.r_[walk, np.flatnonzero(~seen)]] = np.arange(n)
        sweeps.append(rank)
    return sweeps


def d_index_map(pa: PatchAssembly, patch_idx: int) -> np.ndarray:
    """Patch-local d DOFs -> global d DOFs (w block, then rotation pairs)."""
    return d_ids(pa.point_maps[patch_idx], pa.n_points)


def boundary_d_indices(pa: PatchAssembly) -> np.ndarray:
    return np.sort(d_ids(pa.boundary_points, pa.n_points))


def assemble_multipatch(
    pa: PatchAssembly,
    discs: list,
    mat,
    scheme: str,
    loads=(),
) -> MixedSystem:
    """Mixed system of all patches, scattered once into the unified d numbering; one f_d column per load."""
    d_maps = [d_index_map(pa, p) for p in range(len(discs))]
    nd = 3 * pa.n_points
    return assemble_patches(discs, d_maps, nd, mat, scheme, boundary_d_indices(pa), loads)


def assemble_primal_multipatch(pa: PatchAssembly, discs: list, mat, bending: bool = True, loads=()):
    """Primal shear-penalty and bending parts, load vectors and boundary d ids.

    All in the unified displacement numbering, one load vector column per
    load; the primal matrix is the sum of the two parts (see assemble_primal_patches).
    """
    d_maps = [d_index_map(pa, p) for p in range(len(discs))]
    shear, bend, f = assemble_primal_patches(discs, d_maps, 3 * pa.n_points, mat, bending, loads)
    return shear, bend, f, boundary_d_indices(pa)
