"""Multi-view evidence aggregation on a sparse BEV occupancy grid.

Every distinct canonical object graph observed in the stream gets an
auto-incremented id. Each id owns two dense (d1, d2) arrays over the grid,
the accumulator's pair of maps: the running mean weight of every cell and
its detection frequency; a cell is occupied when its frequency is nonzero.
Every sum over cells runs in row-major cell order, so a session and its
dump-and-reload give bit-identical results. Region scoring normalizes
summed cell weights into a distribution over fixed-size regions, greedy non-maximal merging groups
neighboring above-threshold regions into instances, and fusion overlays
the per-graph instance maps to deduplicate graphs that describe the same
physical object. Fusion is the one instance query: the records it returns
for a root class are that class's instances, so counting is their number.
Session bytes depend on the order frames arrive in (ids follow first
sight, and running means round differently); the decisions grounded on a
session, its counts, states, candidate sets and queries, do not.

A session is single-threaded: one session per stream, used by one thread,
queries included. fuse_across_graphs keeps each fusion it computes in a
per-session memo keyed by (root_key(root), dx, dy, gamma), so "Cup" and
"cup" share one entry, and hands back a fresh list of the stored records
on a repeat call. accumulate clears the memo; registering a graph leaves
it valid, since a graph with no accumulated weight contributes to no
fusion. A session built by load starts with an empty memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import GridSpec
from .graph import ObjectGraph, from_dict, to_dict


class RegistryError(KeyError):
    """Unknown object id."""


class SessionFormatError(ValueError):
    """Session dump text is malformed."""


def root_key(root: str) -> str:
    """The form a root class takes when compared with graph roots, which
    the tagger has lowercased."""
    return root.lower()


class GraphRegistry:
    """Bijection between canonical object graphs and auto-incremental ids."""

    def __init__(self):
        self._ids: dict[ObjectGraph, int] = {}
        self._graphs: list[ObjectGraph] = []

    def register(self, g: ObjectGraph) -> int:
        oid = self._ids.get(g)
        if oid is None:
            oid = len(self._graphs)
            self._ids[g] = oid
            self._graphs.append(g)
        return oid

    def graph(self, oid: int) -> ObjectGraph:
        if not 0 <= oid < len(self._graphs):
            raise RegistryError(oid)
        return self._graphs[oid]

    def oids_for_root(self, root: str) -> list[int]:
        root = root_key(root)
        return [i for i, g in enumerate(self._graphs) if g.root == root]

    def items(self):
        return enumerate(self._graphs)

    def __contains__(self, oid: int) -> bool:
        return 0 <= oid < len(self._graphs)


@dataclass(frozen=True)
class InstanceRecord:
    """A unique grounded instance after cross-graph fusion; its instance
    `graph` is its first contributor's, the heaviest."""

    regions: frozenset[tuple[int, int]]
    centroid: tuple[float, float]
    score: float
    contributors: tuple[tuple[ObjectGraph, float], ...]
    graph: ObjectGraph = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "graph", self.contributors[0][0])


_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _find(parent, x):
    """Union-find root of x with path halving; parent is a dict or a list."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def merge_regions(scores: np.ndarray, gamma: float) -> dict[tuple[int, int], int]:
    """Greedy non-maximal region merging with explicit instance labels.

    Regions scoring at least gamma are visited in descending score order
    (ties by region index); a region below gamma is zeroed out: it is never
    visited and stays unlabeled. A surviving region adopts the label of an
    already-labeled 8-neighbor, else it starts a new label; when it
    touches several labeled groups those groups are united (the
    score-propagation of the greedy merge read as label propagation).
    Surviving regions therefore partition into connected groups, one per
    instance, with labels numbered by each group's best-scoring region.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    rx, ry = np.divmod(np.flatnonzero(scores.reshape(-1) >= gamma), scores.shape[1])
    order = sorted(zip(rx.tolist(), ry.tolist()), key=lambda r: (-scores[r], r))
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    for region in order:
        parent[region] = region
        for dx, dy in _NEIGHBORS:
            nb = (region[0] + dx, region[1] + dy)
            if nb in parent:
                ra, rb = _find(parent, nb), _find(parent, region)
                if ra != rb:
                    parent[rb] = ra
    # order runs best score first, so a group's first region seen numbers it
    label_of_root: dict[tuple[int, int], int] = {}
    return {
        region: label_of_root.setdefault(_find(parent, region), len(label_of_root))
        for region in order
    }


class AggregationSession:
    """Accumulates per-graph BEV evidence for one observation stream."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.registry = GraphRegistry()
        # indexed by oid: (d1, d2) running mean weight and detection frequency
        self._mean: list[np.ndarray] = []
        self._freq: list[np.ndarray] = []
        self._fused: dict[tuple[str, int, int, float], list[InstanceRecord]] = {}

    # -- accumulation ------------------------------------------------------

    def register_graph(self, g: ObjectGraph) -> int:
        oid = self.registry.register(g)
        if oid == len(self._mean):
            self._mean.append(np.zeros((self.grid.d1, self.grid.d2)))
            self._freq.append(np.zeros((self.grid.d1, self.grid.d2), dtype=np.int64))
        return oid

    def accumulate(self, oid: int, cells: np.ndarray, weights: np.ndarray) -> None:
        """Fold one frame's cells into the running means.

        `cells` (M, 2) are distinct in-grid cells and `weights` (M,) their
        mean point weights, as voxelize_bev_arrays returns them; cells are
        not checked against the grid.
        """
        if oid not in self.registry:
            raise RegistryError(oid)
        self._fused.clear()
        # flat indices into views of the C-ordered arrays register_graph made
        index = cells[:, 0] * self.grid.d2 + cells[:, 1]
        mean, freq = self._mean[oid].reshape(-1), self._freq[oid].reshape(-1)
        seen = freq[index]
        mean[index] = (mean[index] * seen + weights) / (seen + 1)
        freq[index] = seen + 1

    def observe(self, g: ObjectGraph, cells: np.ndarray, weights: np.ndarray) -> int:
        oid = self.register_graph(g)
        self.accumulate(oid, cells, weights)
        return oid

    # -- queries -----------------------------------------------------------

    def occupancy(self, oid: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the graph's (d1, d2) mean-weight and frequency arrays."""
        if oid not in self.registry:
            raise RegistryError(oid)
        return self._mean[oid].copy(), self._freq[oid].copy()

    def _occupied(self, oid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's occupied cells as flat indices into its maps and as
        (cx, cy), in row-major order: np.nonzero's cells, found by a flat
        scan, which is several times faster on the dense maps."""
        flat = np.flatnonzero(self._freq[oid].reshape(-1) != 0)
        ix, iy = np.divmod(flat, self.grid.d2)
        return flat, ix, iy

    def region_scores(self, oid: int, dx: int, dy: int) -> np.ndarray:
        """Sum cell weights per dx-by-dy region and normalize over the whole grid.

        scores[rx, ry] approximates the probability that an instance of the
        graph's root class occupies region (rx, ry); scores sum to 1 whenever
        any mass exists. The grid is zero-padded so dx, dy divide its
        dimensions. A graph with no mass yields all zeros (missing object).
        """
        if dx < 1 or dy < 1:
            raise ValueError("region dimensions must be >= 1")
        if oid not in self.registry:
            raise RegistryError(oid)
        nx = -(-self.grid.d1 // dx)
        ny = -(-self.grid.d2 // dy)
        flat, ix, iy = self._occupied(oid)
        # bincount adds in input order, here row-major cell order
        weights = self._mean[oid].reshape(-1)[flat]
        sums = np.bincount((ix // dx) * ny + iy // dy, weights=weights, minlength=nx * ny)
        sums = sums.reshape(nx, ny)
        total = float(sums.sum())
        return sums / total if total > 0 else sums

    def fuse_across_graphs(
        self, root: str, dx: int, dy: int, gamma: float
    ) -> list[InstanceRecord]:
        """Overlay instance maps of every graph sharing the root class.

        Per-graph instance groups are max-pooled region-wise: groups from
        different graphs that occupy at least one common region describe
        the same physical object and are united. Each fused record keeps
        the contributing graph with the highest accumulated weight as its
        instance graph, the rest as alternates.

        The fusion is computed once per (root_key(root), dx, dy, gamma)
        until the next accumulate; every call returns a new list the
        caller may sort.
        """
        key = (root_key(root), dx, dy, gamma)
        records = self._fused.get(key)
        if records is None:
            records = self._fused[key] = self._fuse(key[0], dx, dy, gamma)
        return list(records)

    def _fuse(self, root: str, dx: int, dy: int, gamma: float) -> list[InstanceRecord]:
        """Merge each graph's scored regions into groups, then unite groups across graphs.

        A group is (oid, regions, x, y, mass): its centroid (x, y) is the
        accumulated-weight (mean * frequency) weighted mean of its member
        cell centers, in meters. Weights are never negative, so a group,
        whose regions score at least gamma, has positive mass. A region's
        pooled score is its best over the graphs that label it.
        """
        groups: list[tuple[int, frozenset[tuple[int, int]], float, float, float]] = []
        pooled: dict[tuple[int, int], float] = {}
        for oid in self.registry.oids_for_root(root):
            scores = self.region_scores(oid, dx, dy)
            by_label: dict[int, list[tuple[int, int]]] = {}
            region_label = np.full(scores.shape, -1, dtype=np.int64)
            for region, label in merge_regions(scores, gamma).items():
                by_label.setdefault(label, []).append(region)
                region_label[region] = label
                pooled[region] = max(pooled.get(region, 0.0), float(scores[region]))
            flat, ix, iy = self._occupied(oid)
            cell_label = region_label[ix // dx, iy // dy]
            member = cell_label >= 0
            flat, ix, iy, cell_label = flat[member], ix[member], iy[member], cell_label[member]
            mass = self._mean[oid].reshape(-1)[flat] * self._freq[oid].reshape(-1)[flat]
            xs = self.grid.origin_x + (ix + 0.5) * self.grid.cell_size
            ys = self.grid.origin_y + (iy + 0.5) * self.grid.cell_size
            n = len(by_label)
            acc = np.bincount(cell_label, weights=mass, minlength=n).tolist()
            wx = np.bincount(cell_label, weights=mass * xs, minlength=n).tolist()
            wy = np.bincount(cell_label, weights=mass * ys, minlength=n).tolist()
            for label in sorted(by_label):
                a = acc[label]
                groups.append((oid, frozenset(by_label[label]), wx[label] / a, wy[label] / a, a))

        # union-find over groups sharing any region
        parent = list(range(len(groups)))
        owner: dict[tuple[int, int], int] = {}
        for idx, (_, regions, _, _, _) in enumerate(groups):
            for region in regions:
                ra, rb = _find(parent, owner.setdefault(region, idx)), _find(parent, idx)
                if ra != rb:
                    parent[rb] = ra

        clusters: dict[int, list[int]] = {}
        for idx in range(len(groups)):
            clusters.setdefault(_find(parent, idx), []).append(idx)

        records = []
        for indices in clusters.values():
            regions = frozenset().union(*(groups[i][1] for i in indices))
            per_oid: dict[int, float] = {}
            wx = wy = total = 0.0
            for i in indices:
                oid, _, x, y, mass = groups[i]
                per_oid[oid] = per_oid.get(oid, 0.0) + mass
                wx += x * mass
                wy += y * mass
                total += mass
            contributors = tuple(
                (self.registry.graph(oid), weight)
                for oid, weight in sorted(per_oid.items(), key=lambda kv: (-kv[1], kv[0]))
            )
            records.append(
                InstanceRecord(
                    regions=regions,
                    centroid=(wx / total, wy / total),
                    score=float(sum(pooled[r] for r in regions)),
                    contributors=contributors,
                )
            )
        records.sort(key=lambda r: (min(r.regions), r.centroid))
        return records

    # -- persistence -------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write the session as round-trippable JSON (registry, maps, grid)."""
        payload = {
            "grid": {
                "origin_x": self.grid.origin_x,
                "origin_y": self.grid.origin_y,
                "cell_size": self.grid.cell_size,
                "d1": self.grid.d1,
                "d2": self.grid.d2,
            },
            "graphs": [{"oid": oid, "graph": to_dict(g)} for oid, g in self.registry.items()],
            "cells": {str(oid): self._cell_rows(oid) for oid, _ in self.registry.items()},
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    def _cell_rows(self, oid: int) -> list[tuple[int, int, float, int]]:
        """Occupied cells as (cx, cy, mean weight, frequency), in row-major order."""
        flat, ix, iy = self._occupied(oid)
        mean, freq = self._mean[oid].reshape(-1)[flat], self._freq[oid].reshape(-1)[flat]
        return list(zip(ix.tolist(), iy.tolist(), mean.tolist(), freq.tolist()))

    @classmethod
    def load(cls, path: str | Path) -> "AggregationSession":
        """Read a dump; SessionFormatError names the first malformed entry.

        Grid sizes that are not positive integers or cannot be allocated,
        a graph listed under two oids, a cells key that is not str(oid) of a
        listed oid, cells outside the grid or with a
        non-integer index, frequencies that are not whole numbers in
        [1, 2**63) and non-finite or negative weights are refused.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise SessionFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
        except json.JSONDecodeError as exc:
            raise SessionFormatError(f"{path}: invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise SessionFormatError(f"{path}: JSON nested too deeply") from exc
        try:
            g = payload["grid"]
            if not all(type(g[k]) is int and g[k] >= 1 for k in ("d1", "d2")):
                raise SessionFormatError(
                    f"{path}: grid size {g['d1']!r}x{g['d2']!r} is not two positive integers"
                )
            session = cls(GridSpec(g["origin_x"], g["origin_y"], g["cell_size"], g["d1"], g["d2"]))
            entries = sorted(payload["graphs"], key=lambda e: e["oid"])
            for expected, entry in enumerate(entries):
                if entry["oid"] != expected:
                    raise SessionFormatError(f"{path}: non-contiguous oid {entry['oid']}")
                oid = session.register_graph(from_dict(entry["graph"]))
                if oid != expected:  # a dump lists each graph once
                    raise SessionFormatError(f"{path}: oid {expected} repeats the graph of oid {oid}")
            oids = {str(oid): oid for oid, _ in session.registry.items()}
            for key, cells in payload["cells"].items():
                if key not in oids:  # "02" or " 2" would overwrite oid 2's cells
                    raise SessionFormatError(f"{path}: cells for unknown oid {key}; a key is str(oid)")
                if cells:
                    session._load_cells(path, oids[key], cells)
        except MemoryError as exc:
            raise SessionFormatError(f"{path}: cannot allocate the {g['d1']}x{g['d2']} grid") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SessionFormatError):
                raise
            raise SessionFormatError(f"{path}: malformed session payload: {exc}") from exc
        return session

    def _load_cells(self, path, oid: int, cells: list) -> None:
        rows = np.asarray(cells, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise SessionFormatError(f"{path}: oid {oid}: cells must be [cx, cy, weight, freq] rows")
        cx, cy, w, freq = rows.T
        # NaN fails every comparison, so it is refused as out-of-grid or below 1
        inside = (cx >= 0) & (cx < self.grid.d1) & (cy >= 0) & (cy < self.grid.d2)
        for ok, problem in (
            (inside, f"lies outside the {self.grid.d1}x{self.grid.d2} grid"),
            ((cx == np.floor(cx)) & (cy == np.floor(cy)), "has a non-integer index"),
            (freq >= 1, "has frequency below 1"),
            (freq == np.floor(freq), "has a non-integer frequency"),
            (freq < 2.0**63, "has frequency 2**63 or more"),
            (np.isfinite(w), "has a non-finite weight"),
            (w >= 0, "has a negative weight"),
        ):
            if not ok.all():
                bad = cells[int(np.argmin(ok))]
                raise SessionFormatError(f"{path}: oid {oid}: cell ({bad[0]}, {bad[1]}) {problem}")
        index = (cx.astype(np.int64), cy.astype(np.int64))
        flat = np.ravel_multi_index(index, (self.grid.d1, self.grid.d2))
        _, first = np.unique(flat, return_index=True)
        if first.size < len(rows):
            listed_before = np.ones(len(rows), dtype=bool)
            listed_before[first] = False
            bad = cells[int(np.argmax(listed_before))]
            raise SessionFormatError(f"{path}: oid {oid}: cell ({bad[0]}, {bad[1]}) is listed twice")
        self._mean[oid][index] = w
        self._freq[oid][index] = freq.astype(np.int64)
