"""Multi-view evidence aggregation on a sparse BEV occupancy grid.

Every distinct canonical object graph observed in the stream gets an
auto-incremented id. Each id owns two dense (d1, d2) arrays over the grid,
the accumulator's pair of maps: the running mean weight of every cell and
its detection frequency; a cell is occupied when its frequency is nonzero.
The session keeps each id's occupied cells, in row-major order, until the
id's next accumulate: a newly registered graph has none, a flat scan of the
frequency map finds them on first use after an accumulate, and load takes
them from the sorted cell list it checks, so queries on a loaded session
scan no dense map. Beside them it keeps each cell's region index and mean
weight for the last region size asked, until the same accumulate, so a cold
fusion reads each graph's cells in one pass: region scores and the group
sums share one region index and one weight gather. Cell centres come from
one table per grid axis, built by the session's first fusion, so nothing
sized by a grid side is allocated before a query needs it.
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
on a repeat call. Its records carry their graph's phrase and attribute
paths, so a repeat grounding walks no graph. accumulate clears the memo;
registering a graph leaves it valid, since a graph with no accumulated
weight contributes to no fusion. A session built by load starts with an
empty memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import GridSpec
from .graph import ObjectGraph, attribute_paths, from_dict, root_key, to_dict
from .language import realize


class SessionFormatError(ValueError):
    """Session dump text is malformed."""


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
            raise KeyError(oid)
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
    `graph` is its first contributor's, the heaviest, realized as `text`."""

    regions: frozenset[tuple[int, int]]
    centroid: tuple[float, float]
    score: float
    contributors: tuple[tuple[ObjectGraph, float], ...]
    graph: ObjectGraph = field(init=False)
    text: str = field(init=False, repr=False, compare=False)
    paths: frozenset[tuple[tuple[str, str], ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "graph", self.contributors[0][0])
        object.__setattr__(self, "text", realize(self.graph))
        object.__setattr__(self, "paths", attribute_paths(self.graph))


def _cell_index(flat: np.ndarray, d2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (flat, cx, cy) of row-major flat cell indices on a grid d2 cells wide."""
    cells = (flat, *np.divmod(flat, d2))
    for a in cells:
        a.flags.writeable = False
    return cells


# the index of a graph that holds no cell: register_graph gives it to every new graph
_NO_CELLS = _cell_index(np.empty(0, dtype=np.intp), 1)

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
    values = scores.reshape(-1)
    flat = np.flatnonzero(values >= gamma)
    ny = scores.shape[1]
    # flat indices run in row-major region order, so (-score, flat) sorts as (-score, region)
    ranked = sorted(zip((-values[flat]).tolist(), flat.tolist()))
    order = [divmod(f, ny) for _, f in ranked]
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    for region in order:
        parent[region] = region
        x, y = region
        for nb in (
            (x - 1, y - 1), (x - 1, y), (x - 1, y + 1), (x, y - 1),
            (x, y + 1), (x + 1, y - 1), (x + 1, y), (x + 1, y + 1),
        ):  # the eight neighbours
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
        # indexed by oid: (d1, d2) running mean weight and detection frequency,
        # and the occupied cells as _occupied returns them (None from an
        # accumulate until the next scan)
        self._mean: list[np.ndarray] = []
        self._freq: list[np.ndarray] = []
        self._cells: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []
        # indexed by oid: (dx, dy, region index, mean weight) of the occupied
        # cells as _weighted_regions returns them (None from an accumulate
        # until the next use)
        self._regions: list[tuple[int, int, np.ndarray, np.ndarray] | None] = []
        # the cell centres of every grid column and row, built by the first fusion
        self._centres: tuple[np.ndarray, np.ndarray] | None = None
        self._fused: dict[tuple[str, int, int, float], list[InstanceRecord]] = {}

    # -- accumulation ------------------------------------------------------

    def register_graph(self, g: ObjectGraph) -> int:
        oid = self.registry.register(g)
        if oid == len(self._mean):
            self._mean.append(np.zeros((self.grid.d1, self.grid.d2)))
            self._freq.append(np.zeros((self.grid.d1, self.grid.d2), dtype=np.int64))
            self._cells.append(_NO_CELLS)
            self._regions.append(None)
        return oid

    def accumulate(self, oid: int, cells: np.ndarray, weights: np.ndarray) -> None:
        """Fold one frame's cells into the running means.

        `cells` (M, 2) are distinct in-grid cells and `weights` (M,) their
        mean point weights, as voxelize_bev_arrays returns them; cells are
        not checked against the grid.
        """
        if oid not in self.registry:
            raise KeyError(oid)
        self._fused.clear()
        self._cells[oid] = self._regions[oid] = None
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
            raise KeyError(oid)
        return self._mean[oid].copy(), self._freq[oid].copy()

    def _occupied(self, oid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's occupied cells as read-only flat indices into its maps
        and as (cx, cy), in row-major order: np.nonzero's cells, found by a
        flat scan, which is several times faster on the dense maps, and kept
        until the graph's next accumulate."""
        cells = self._cells[oid]
        if cells is None:
            cells = self._cells[oid] = _cell_index(
                np.flatnonzero(self._freq[oid].reshape(-1) != 0), self.grid.d2
            )
        return cells

    def _weighted_regions(self, oid: int, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
        """Each occupied cell's flat index among the dx-by-dy regions and its
        mean weight, in _occupied's order; kept until the graph's next
        accumulate or a call with another region size."""
        entry = self._regions[oid]
        if entry is None or entry[0] != dx or entry[1] != dy:
            flat, ix, iy = self._occupied(oid)
            ny = -(-self.grid.d2 // dy)
            entry = self._regions[oid] = (
                dx, dy, (ix // dx) * ny + iy // dy, self._mean[oid].reshape(-1)[flat]
            )
        return entry[2], entry[3]

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
            raise KeyError(oid)
        nx = -(-self.grid.d1 // dx)
        ny = -(-self.grid.d2 // dy)
        region, weights = self._weighted_regions(oid, dx, dy)
        # bincount adds in input order, here row-major cell order
        sums = np.bincount(region, weights=weights, minlength=nx * ny).reshape(nx, ny)
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
        if self._centres is None:
            g = self.grid
            self._centres = (
                g.origin_x + (np.arange(g.d1) + 0.5) * g.cell_size,
                g.origin_y + (np.arange(g.d2) + 0.5) * g.cell_size,
            )
        centre_x, centre_y = self._centres
        groups: list[tuple[int, frozenset[tuple[int, int]], float, float, float]] = []
        pooled: dict[tuple[int, int], float] = {}
        for oid in self.registry.oids_for_root(root):
            scores = self.region_scores(oid, dx, dy)
            labels = merge_regions(scores, gamma)
            if not labels:
                continue
            ny = scores.shape[1]
            # a group's bincount bin is its label + 1; bin 0 takes the cells of no group
            region_bin = np.zeros(scores.size, dtype=np.int64)
            # labels are numbered in iteration order, so members lists them in label order
            members: dict[int, list[tuple[int, int]]] = {}
            for region, label in labels.items():
                x, y = region
                region_bin[x * ny + y] = label + 1
                members.setdefault(label, []).append(region)
                pooled[region] = max(pooled.get(region, 0.0), scores.item(x, y))
            cell_region, weights = self._weighted_regions(oid, dx, dy)
            flat, ix, iy = self._occupied(oid)
            # each bin adds its cells in row-major order, as over the group's cells alone
            cell_bin = region_bin[cell_region]
            mass = weights * self._freq[oid].reshape(-1)[flat]
            n = len(members) + 1
            acc = np.bincount(cell_bin, weights=mass, minlength=n).tolist()
            wx = np.bincount(cell_bin, weights=mass * centre_x[ix], minlength=n).tolist()
            wy = np.bincount(cell_bin, weights=mass * centre_y[iy], minlength=n).tolist()
            for regions, a, x, y in zip(members.values(), acc[1:], wx[1:], wy[1:]):
                groups.append((oid, frozenset(regions), x / a, y / a, a))

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
        a grid origin or cell size that is not a finite JSON number, an oid
        that is not an integer, a graph listed under two oids or not in the
        canonical form `to_dict` writes, a cells key that is not str(oid) of a
        listed oid, a listed oid with no cells list, cells outside the grid,
        with a non-integer index, listed twice or out of row-major order,
        frequencies that are not whole numbers in [1, 2**63), non-finite or
        negative weights and rows unlike [int, int, number, int] are refused.
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
            for k in ("origin_x", "origin_y", "cell_size"):
                if type(g[k]) not in (int, float):  # a boolean is never a number
                    raise SessionFormatError(f"{path}: grid {k} {g[k]!r} is not a number")
            session = cls(GridSpec(g["origin_x"], g["origin_y"], g["cell_size"], g["d1"], g["d2"]))
            for position, entry in enumerate(payload["graphs"]):
                if type(entry["oid"]) is not int:  # dump writes true or 1.0 back as 1
                    raise SessionFormatError(
                        f"{path}: graphs entry {position} has oid {entry['oid']!r}, not an integer"
                    )
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
                if type(cells) is not list:
                    raise SessionFormatError(f"{path}: cells for oid {key} are {cells!r}, not a list")
                if cells:
                    session._load_cells(path, oids[key], cells)
            missing = oids.keys() - payload["cells"].keys()
            if missing:  # a dump lists every oid's cells, an empty list for none
                raise SessionFormatError(f"{path}: no cells for oid {min(map(int, missing))}")
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
            # float64 above reads "1.0", "3" and true as numbers too
            (np.array([type(x) is type(y) is type(f) is int and type(v) in (float, int) for x, y, v, f in cells]),
             "is not the [int, int, number, int] row a dump writes"),
        ):
            if not ok.all():
                bad = cells[int(np.argmin(ok))]
                raise SessionFormatError(f"{path}: oid {oid}: cell ({bad[0]}, {bad[1]}) {problem}")
        index = (cx.astype(np.int64), cy.astype(np.int64))
        flat = np.ravel_multi_index(index, (self.grid.d1, self.grid.d2))
        ascending = flat[1:] > flat[:-1]  # a dump lists each cell once, in the scan's row-major order
        if not ascending.all():
            at = int(np.argmin(ascending)) + 1
            problem = "is listed twice" if flat[at] in flat[:at] else "comes before a cell listed above it"
            raise SessionFormatError(f"{path}: oid {oid}: cell ({cells[at][0]}, {cells[at][1]}) {problem}")
        self._mean[oid][index] = w
        self._freq[oid][index] = freq.astype(np.int64)
        self._cells[oid] = _cell_index(flat, self.grid.d2)
