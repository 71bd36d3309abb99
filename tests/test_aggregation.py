import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refground import aggregation
from refground.aggregation import (
    AggregationSession,
    GraphRegistry,
    InstanceRecord,
    SessionFormatError,
    _find,
    merge_regions,
)
from refground.geometry import GridSpec
from refground.graph import ObjectGraph

from conftest import cell_center

GRID = GridSpec(0.0, 0.0, 0.05, 100, 100)

# a region's eight neighbours, in the order merge_regions probes them
NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]

CUP_RED = ObjectGraph("cup", [("color", "red")])
CUP_BLACK = ObjectGraph("cup", [("color", "black")])


def obs(*entries):
    """One frame's (cells (M, 2), weights (M,)) from ((cx, cy), weight) pairs."""
    cells = np.array([cell for cell, _ in entries], dtype=np.int64).reshape(-1, 2)
    return cells, np.array([weight for _, weight in entries], dtype=np.float64)


def occupied(s, oid):
    return {(int(x), int(y)) for x, y in zip(*np.nonzero(s.occupancy(oid)[1]))}


def session():
    return AggregationSession(GRID)


# -- registry -----------------------------------------------------------------


def test_register_same_graph_twice_same_id():
    s = session()
    assert s.register_graph(CUP_RED) == s.register_graph(CUP_RED)


def test_register_different_graphs_increment():
    s = session()
    assert s.register_graph(CUP_RED) == 0
    assert s.register_graph(CUP_BLACK) == 1


def test_register_permuted_duplicates_one_id():
    a = ObjectGraph("cup", [("color", "red"), ("material", "glass")])
    b = ObjectGraph("cup", [("material", "glass"), ("color", "red")])
    s = session()
    assert s.register_graph(a) == s.register_graph(b)


def test_registry_lookup_and_roots():
    reg = GraphRegistry()
    oid = reg.register(CUP_RED)
    assert reg.graph(oid) == CUP_RED
    assert reg.oids_for_root("cup") == [oid]
    with pytest.raises(KeyError, match="^99$"):
        reg.graph(99)


# -- accumulate -----------------------------------------------------------------


def test_accumulate_running_mean():
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((3, 4), 0.2)))
    s.accumulate(oid, *obs(((3, 4), 0.4)))
    mean, freq = s.occupancy(oid)
    assert (mean[3, 4], freq[3, 4]) == (pytest.approx(0.3), 2)
    assert occupied(s, oid) == {(3, 4)}


def test_accumulate_single_frame():
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((3, 4), 0.7)))
    mean, freq = s.occupancy(oid)
    assert (mean[3, 4], freq[3, 4]) == (0.7, 1)


def test_accumulate_no_cross_talk():
    s = session()
    a = s.register_graph(CUP_RED)
    b = s.register_graph(CUP_BLACK)
    s.accumulate(a, *obs(((1, 1), 0.5)))
    s.accumulate(b, *obs(((9, 9), 0.25)))
    assert occupied(s, a) == {(1, 1)}
    assert occupied(s, b) == {(9, 9)}


def test_accumulate_unknown_oid():
    with pytest.raises(KeyError, match="^5$"):
        session().accumulate(5, *obs(((0, 0), 1.0)))


def test_accumulate_order_free_over_multiset():
    frames = [obs(((2, 2), w)) for w in (0.1, 0.7, 0.4, 0.9, 0.3)]
    rng = np.random.default_rng(0)
    reference = None
    for _ in range(6):
        s = session()
        oid = s.register_graph(CUP_RED)
        for i in rng.permutation(len(frames)):
            s.accumulate(oid, *frames[int(i)])
        mean, freqs = s.occupancy(oid)
        w, freq = mean[2, 2], freqs[2, 2]
        assert freq == len(frames)
        if reference is None:
            reference = w
        assert w == pytest.approx(reference, abs=1e-12)


# -- region scores --------------------------------------------------------------


def test_region_scores_all_mass_one_region():
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((3, 4), 0.5), ((5, 6), 0.2)))
    scores = s.region_scores(oid, 10, 10)
    assert scores[0, 0] == pytest.approx(1.0)
    assert scores.sum() == pytest.approx(1.0)


def test_region_scores_equal_split():
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((3, 4), 0.5), ((13, 4), 0.5)))
    scores = s.region_scores(oid, 10, 10)
    assert scores[0, 0] == pytest.approx(0.5)
    assert scores[1, 0] == pytest.approx(0.5)


def test_region_scores_hand_normalization():
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((0, 0), 1.5), ((1, 1), 1.5), ((10, 0), 1.0)))
    scores = s.region_scores(oid, 10, 10)
    assert scores[0, 0] == pytest.approx(0.75)
    assert scores[1, 0] == pytest.approx(0.25)
    assert np.count_nonzero(scores) == 2


def test_region_scores_empty_is_zero_grid():
    s = session()
    oid = s.register_graph(CUP_RED)
    scores = s.region_scores(oid, 10, 10)
    assert not scores.any()


def test_region_scores_nonnegative_and_normalized():
    rng = np.random.default_rng(8)
    s = session()
    oid = s.register_graph(CUP_RED)
    cells = [((int(x), int(y)), float(w)) for x, y, w in
             zip(rng.integers(0, 100, 60), rng.integers(0, 100, 60), rng.uniform(0.01, 1, 60))]
    s.accumulate(oid, *obs(*cells))
    scores = s.region_scores(oid, 7, 13)  # padding path: 7 and 13 do not divide 100
    assert (scores >= 0).all()
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)


# -- merge_regions ---------------------------------------------------------------


def grid_of(array):
    return np.asarray(array, dtype=float)


def test_merge_single_region():
    labels = merge_regions(grid_of([[1.0, 0.0], [0.0, 0.0]]), 0.05)
    assert labels == {(0, 0): 0}


def test_merge_two_adjacent_regions():
    labels = merge_regions(grid_of([[0.6, 0.4]]), 0.05)
    assert labels[(0, 0)] == labels[(0, 1)]


def test_merge_separated_regions_two_labels():
    labels = merge_regions(grid_of([[0.5, 0.0, 0.5]]), 0.05)
    assert labels[(0, 0)] != labels[(0, 2)]
    assert (0, 1) not in labels


def test_merge_sub_threshold_zeroed_unlabeled():
    labels = merge_regions(grid_of([[0.9, 0.04, 0.06]]), 0.05)
    assert (0, 1) not in labels
    # (0,2) survives but is not adjacent to (0,0): separate instance
    assert labels[(0, 0)] != labels[(0, 2)]


def test_merge_bridge_unites_groups():
    # two strong lobes joined by a weaker surviving bridge must be one label
    labels = merge_regions(grid_of([[0.3, 0.2, 0.3], [0.0, 0.0, 0.0]]), 0.05)
    assert len(set(labels.values())) == 1


def test_merge_diagonal_counts_as_neighbor():
    labels = merge_regions(grid_of([[0.5, 0.0], [0.0, 0.5]]), 0.05)
    assert labels[(0, 0)] == labels[(1, 1)]


def test_merge_labels_partition_survivors():
    rng = np.random.default_rng(4)
    scores = rng.uniform(0, 0.08, (6, 6))
    scores /= scores.sum()
    labels = merge_regions(scores, 0.02)
    survivors = {tuple(r) for r in np.argwhere(scores >= 0.02)}
    assert set(labels) == survivors


def test_merge_matches_the_worked_trace_in_docs():
    """docs/merge_trace.md's grid, its 10 scores and zeros elsewhere, merges
    as its table says: the table's regions in its order, at its scores, all
    under label 0."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "merge_trace.md").read_text(encoding="utf-8")
    grid = re.search(r"```\n(.*?)```", doc, re.S).group(1).splitlines()
    xs = [int(x) for x in re.findall(r"x=(\d+)", grid[-1])]
    scores = np.zeros((10, 10))
    for line in grid[:-1]:
        y, *values = line.split()
        for x, value in zip(xs, values, strict=True):
            scores[x, int(y.removeprefix("y="))] = float(value)
    assert np.count_nonzero(scores) == 10
    steps = re.findall(r"^\| \d+ +\| \((\d+),(\d+)\) +\| (0\.\d+) ", doc, re.M)
    assert len(steps) == 5
    labels = merge_regions(scores, float(re.search(r"`gamma = (0\.\d+)`", doc).group(1)))
    assert list(labels) == [(int(x), int(y)) for x, y, _ in steps]
    assert [scores[region] for region in labels] == [float(score) for _, _, score in steps]
    assert set(labels.values()) == {0}


def test_merge_gamma_validation():
    with pytest.raises(ValueError):
        merge_regions(grid_of([[1.0]]), 0.0)


def blob_grid(rng, n_blobs):
    """Sum of compact unimodal bumps at well-separated centers."""
    size = 12
    scores = np.zeros((size, size))
    centers = []
    while len(centers) < n_blobs:
        c = rng.integers(1, size - 1, 2)
        if all(max(abs(c[0] - o[0]), abs(c[1] - o[1])) >= 4 for o in centers):
            centers.append(c)
    for c in centers:
        amp = float(rng.uniform(0.5, 1.0))
        for dx in range(-1, 2):
            for dy in range(-1, 2):
                scores[c[0] + dx, c[1] + dy] += amp * (0.3 ** (abs(dx) + abs(dy)))
    scores /= scores.sum()
    return scores


def test_merge_monotone_in_gamma_on_blob_grids():
    rng = np.random.default_rng(21)
    for _ in range(25):
        grid = blob_grid(rng, int(rng.integers(1, 4)))
        counts = []
        for gamma in (0.01, 0.03, 0.05, 0.1, 0.2, 0.4):
            labels = merge_regions(grid, gamma)
            counts.append(len(set(labels.values())))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def reference_merge_regions(scores, gamma):
    """merge_regions before pruning: sort every region, skip those below gamma."""
    nx, ny = scores.shape
    order = sorted(
        ((rx, ry) for rx in range(nx) for ry in range(ny)),
        key=lambda r: (-scores[r], r),
    )
    parent = {}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for region in order:
        if scores[region] < gamma:
            continue
        parent[region] = region
        for dx, dy in NEIGHBORS:
            nb = (region[0] + dx, region[1] + dy)
            if nb in parent:
                ra, rb = find(nb), find(region)
                if ra != rb:
                    parent[rb] = ra
    position = {region: i for i, region in enumerate(order)}
    first_member = {}
    for region in parent:
        root = find(region)
        if root not in first_member or position[region] < position[first_member[root]]:
            first_member[root] = region
    ordered_roots = sorted(first_member, key=lambda root: position[first_member[root]])
    label_of_root = {root: i for i, root in enumerate(ordered_roots)}
    return {region: label_of_root[find(region)] for region in parent}


@st.composite
def tied_score_grids(draw):
    """Grids whose scores repeat a few values, gamma itself and its neighbors among them."""
    gamma = draw(st.sampled_from([0.05, 0.1, 0.3]) | st.floats(0.001, 0.999))
    below, above = float(np.nextafter(gamma, 0.0)), float(np.nextafter(gamma, 1.0))
    value = st.sampled_from([0.0, below, gamma, above, 0.5, 1.0]) | st.floats(0.0, 1.0)
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(value, min_size=ny, max_size=ny), min_size=nx, max_size=nx))
    return grid_of(rows), gamma


@settings(max_examples=300, deadline=None)
@given(tied_score_grids())
def test_pruned_merge_matches_full_sort(grid_and_gamma):
    grid, gamma = grid_and_gamma
    # equal labels, and equal iteration order of the returned dict
    assert list(merge_regions(grid, gamma).items()) == list(reference_merge_regions(grid, gamma).items())


# -- instance counting ------------------------------------------------------------


def cluster_count(points, threshold):
    """Counting oracle: single-linkage clusters of points at a separation threshold."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    t2 = threshold * threshold
    for i in range(n):
        for j in range(i + 1, n):
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            if dx * dx + dy * dy <= t2:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    return len({find(i) for i in range(n)})


def splat(s, oid, cx, cy, weight=1.0, spread=2):
    cells = []
    for dx in range(-spread, spread + 1):
        for dy in range(-spread, spread + 1):
            cells.append(((cx + dx, cy + dy), weight / (1 + abs(dx) + abs(dy))))
    s.accumulate(oid, *obs(*cells))


def test_count_instances_empty():
    s = session()
    s.register_graph(CUP_RED)
    assert s.fuse_across_graphs("cup", 10, 10, 0.05) == []


def test_count_instances_two_clusters_matches_oracle():
    s = session()
    oid = s.register_graph(CUP_RED)
    centers = [(15, 15), (75, 75)]
    for cx, cy in centers:
        splat(s, oid, cx, cy)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    world = [cell_center(GRID, c) for c in centers]
    assert len(records) == cluster_count(world, threshold=1.0)
    for record in records:
        assert any(
            abs(record.centroid[0] - wx) < 0.2 and abs(record.centroid[1] - wy) < 0.2
            for wx, wy in world
        )


def test_count_instances_cluster_straddling_boundary():
    s = session()
    oid = s.register_graph(CUP_RED)
    splat(s, oid, 19, 19, spread=3)  # straddles the region corner at (20, 20)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    assert len(records) == 1
    assert len(records[0].regions) > 1


# -- fuse ------------------------------------------------------------------------


def test_fuse_single_oid_identity():
    s = session()
    oid = s.register_graph(CUP_RED)
    splat(s, oid, 15, 15)
    splat(s, oid, 75, 75)
    groups: dict[int, set] = {}
    for region, label in merge_regions(s.region_scores(oid, 10, 10), 0.05).items():
        groups.setdefault(label, set()).add(region)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    assert len(records) == len(groups) == 2
    assert {r.regions for r in records} == {frozenset(g) for g in groups.values()}
    assert all(r.graph == CUP_RED for r in records)


def test_fuse_same_region_group_collapses():
    s = session()
    a = s.register_graph(CUP_RED)
    b = s.register_graph(ObjectGraph("cup", [("color", "red"), ("material", "glass")]))
    splat(s, a, 15, 15, weight=1.0)
    splat(s, b, 16, 15, weight=0.5)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    assert len(records) == 1
    assert records[0].graph == CUP_RED  # higher accumulated weight wins
    assert len(records[0].contributors) == 2
    # the phrase and paths a record carries are its instance graph's, not an alternate's
    assert records[0].text == "a red cup" and records[0].paths == {(("color", "red"),)}


def test_fuse_disjoint_groups_stay_separate():
    s = session()
    a = s.register_graph(CUP_RED)
    b = s.register_graph(CUP_BLACK)
    splat(s, a, 15, 15)
    splat(s, b, 75, 75)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    assert len(records) == 2
    assert {r.graph for r in records} == {CUP_RED, CUP_BLACK}


def test_fuse_filters_by_root():
    s = session()
    a = s.register_graph(CUP_RED)
    b = s.register_graph(ObjectGraph("lamp"))
    splat(s, a, 15, 15)
    splat(s, b, 16, 15)
    assert len(s.fuse_across_graphs("cup", 10, 10, 0.05)) == 1
    assert len(s.fuse_across_graphs("lamp", 10, 10, 0.05)) == 1
    assert s.fuse_across_graphs("sofa", 10, 10, 0.05) == []


def test_fuse_score_is_pooled_sum():
    s = session()
    oid = s.register_graph(CUP_RED)
    splat(s, oid, 15, 15)
    (record,) = s.fuse_across_graphs("cup", 10, 10, 0.05)
    scores = s.region_scores(oid, 10, 10)
    assert record.score == pytest.approx(sum(scores[r] for r in record.regions))


# -- fusion against the code it replaced -------------------------------------------
# RegionGrid, InstanceGroup, _instances and _fuse as they stood before fusion read each
# graph in one loop. The only edits: self became session, region_scores' array is
# wrapped in a RegionGrid, and merge_regions, which now takes the array, is handed it.


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Normalized occupancy scores over dx-by-dy cell regions.

    scores[rx, ry] approximates the probability that an instance of the
    graph's root class occupies region (rx, ry); scores sum to 1 whenever
    any mass exists.
    """

    dx: int
    dy: int
    scores: np.ndarray


@dataclass(frozen=True)
class InstanceGroup:
    """One merged group of regions for a single object graph."""

    regions: frozenset[tuple[int, int]]
    centroid: tuple[float, float]
    accumulated_weight: float


def _instances(session, oid: int, grid: RegionGrid, gamma: float) -> list[InstanceGroup]:
    """Merge the graph's scored regions into groups, for fusion.

    A group's centroid is the accumulated-weight (mean * frequency)
    weighted mean of its member cell centers, in meters. Weights are
    never negative, so a group, whose regions score at least gamma,
    has positive mass.
    """
    labels = merge_regions(grid.scores, gamma)
    by_label: dict[int, list[tuple[int, int]]] = {}
    region_label = np.full(grid.scores.shape, -1, dtype=np.int64)
    for region, label in labels.items():
        by_label.setdefault(label, []).append(region)
        region_label[region] = label
    ix, iy = np.nonzero(session._freq[oid])
    cell_label = region_label[ix // grid.dx, iy // grid.dy]
    member = cell_label >= 0
    ix, iy, cell_label = ix[member], iy[member], cell_label[member]
    mass = session._mean[oid][ix, iy] * session._freq[oid][ix, iy]
    xs = session.grid.origin_x + (ix + 0.5) * session.grid.cell_size
    ys = session.grid.origin_y + (iy + 0.5) * session.grid.cell_size
    n = len(by_label)
    acc = np.bincount(cell_label, weights=mass, minlength=n).tolist()
    wx = np.bincount(cell_label, weights=mass * xs, minlength=n).tolist()
    wy = np.bincount(cell_label, weights=mass * ys, minlength=n).tolist()
    groups = []
    for label in sorted(by_label):
        regions = frozenset(by_label[label])
        a = acc[label]
        groups.append(InstanceGroup(regions, (wx[label] / a, wy[label] / a), a))
    return groups


def reference_fuse(session, root: str, dx: int, dy: int, gamma: float) -> list[InstanceRecord]:
    grids = {
        oid: RegionGrid(dx, dy, session.region_scores(oid, dx, dy))
        for oid in session.registry.oids_for_root(root)
    }
    members: list[tuple[int, InstanceGroup]] = []
    for oid, grid in grids.items():
        for group in _instances(session, oid, grid, gamma):
            members.append((oid, group))
    if not members:
        return []

    # union-find over groups sharing any region
    parent = list(range(len(members)))
    region_owner: dict[tuple[int, int], int] = {}
    for idx, (_, group) in enumerate(members):
        for region in group.regions:
            if region in region_owner:
                ra, rb = _find(parent, region_owner[region]), _find(parent, idx)
                if ra != rb:
                    parent[rb] = ra
            else:
                region_owner[region] = idx

    clusters: dict[int, list[int]] = {}
    for idx in range(len(members)):
        clusters.setdefault(_find(parent, idx), []).append(idx)

    # pooled score per region = max over contributing graphs
    pooled: dict[tuple[int, int], float] = {}
    for oid, group in members:
        for region in group.regions:
            val = float(grids[oid].scores[region])
            pooled[region] = max(pooled.get(region, 0.0), val)

    records = []
    for indices in clusters.values():
        regions = frozenset().union(*(members[i][1].regions for i in indices))
        per_oid: dict[int, float] = {}
        wx = wy = total = 0.0
        for i in indices:
            oid, group = members[i]
            per_oid[oid] = per_oid.get(oid, 0.0) + group.accumulated_weight
            wx += group.centroid[0] * group.accumulated_weight
            wy += group.centroid[1] * group.accumulated_weight
            total += group.accumulated_weight
        contributors = tuple(
            (session.registry.graph(oid), weight)
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


COLORS = ("red", "black", "white", "blue", "green", "yellow")


def random_session(rng, grid=GRID):
    """Cup graphs that each see a random subset of a few objects, jittered per frame,
    beside a lamp; sometimes a cup graph with no cells. Cells stay inside
    [3, 67] on both axes, so any grid at least 70 cells a side holds them."""
    s = AggregationSession(grid)
    objects = rng.integers(10, 61, (int(rng.integers(2, 5)), 2))
    graphs = [ObjectGraph("cup", [("color", c)]) for c in COLORS[: int(rng.integers(2, 7))]]
    for g in graphs + [ObjectGraph("lamp")]:
        oid = s.register_graph(g)
        for center in objects[rng.random(len(objects)) < 0.7]:
            for _ in range(int(rng.integers(1, 4))):
                cx, cy = center + rng.integers(-4, 5, 2)
                spread = int(rng.integers(1, 4))
                xs, ys = np.meshgrid(np.arange(cx - spread, cx + spread + 1), np.arange(cy - spread, cy + spread + 1))
                cells = np.stack([xs.ravel(), ys.ravel()], axis=1)
                s.accumulate(oid, cells, rng.random(len(cells)))
    if rng.random() < 0.3:
        s.register_graph(ObjectGraph("cup", [("material", "glass")]))
    return s


def fusion_cases(s, dx, dy, gamma, records):
    """Which of the union-find's harder cases the cup fusion went through."""
    oids = s.registry.oids_for_root("cup")
    groups = [
        (oid, group.regions)
        for oid in oids
        for group in _instances(s, oid, RegionGrid(dx, dy, s.region_scores(oid, dx, dy)), gamma)
    ]
    cases = set()
    if {oid for oid, _ in groups} != set(oids):
        cases.add("a graph without a group")
    for record in records:
        members = [(oid, regions) for oid, regions in groups if regions <= record.regions]
        graphs = [oid for oid, _ in members]
        if len(set(graphs)) < len(graphs):  # one graph's groups never share a region
            cases.add("two groups of one graph joined through another graph")
        overlapping = sum(bool(a[1] & b[1]) for i, a in enumerate(members) for b in members[i + 1 :])
        if len(set(graphs)) == len(graphs) == 3 and overlapping == 2:
            cases.add("three graphs in a chain")
    return cases


def record_fields(records):
    return [(r.regions, r.centroid, r.score, r.contributors) for r in records]


def assert_fuse_matches_the_code_it_replaced(grid):
    rng = np.random.default_rng(24)
    seen = set()
    for _ in range(30):
        s = random_session(rng, grid)
        for (dx, dy), gamma in itertools.product([(10, 10), (7, 13), (5, 5)], [0.01, 0.05, 0.2]):
            fused = {root: s.fuse_across_graphs(root, dx, dy, gamma) for root in ("cup", "lamp")}
            for root, records in fused.items():
                # ==, not approx: every output byte depends on these floats
                assert record_fields(records) == record_fields(reference_fuse(s, root, dx, dy, gamma))
            seen |= fusion_cases(s, dx, dy, gamma, fused["cup"])
    assert seen == {
        "a graph without a group",
        "two groups of one graph joined through another graph",
        "three graphs in a chain",
    }


def test_fuse_matches_the_code_it_replaced():
    assert_fuse_matches_the_code_it_replaced(GRID)


def test_fuse_matches_the_code_it_replaced_on_an_offset_non_square_grid():
    # x reads the column table and y the row table: on a square grid at the origin a
    # swapped pair of tables reads the same, on this one it does not
    assert_fuse_matches_the_code_it_replaced(GridSpec(-1.3, 0.7, 0.05, 80, 120))


# -- the flat occupied-cell scan against the 2D one -------------------------------
# Every other session in these tests has a square grid, where a flat index divided by
# d1 or by d2 gives the same cells.

NON_SQUARE = [GridSpec(0.0, 0.0, 0.05, 100, 70), GridSpec(0.0, 0.0, 0.05, 70, 100)]


def reference_region_scores(session, oid, dx, dy):
    """region_scores as it stood with np.nonzero's 2D scan."""
    nx = -(-session.grid.d1 // dx)
    ny = -(-session.grid.d2 // dy)
    ix, iy = np.nonzero(session._freq[oid])
    sums = np.bincount(
        (ix // dx) * ny + iy // dy, weights=session._mean[oid][ix, iy], minlength=nx * ny
    ).reshape(nx, ny)
    total = float(sums.sum())
    return sums / total if total > 0 else sums


def reference_cell_rows(session, oid):
    """_cell_rows as it stood with np.nonzero's 2D scan."""
    mean, freq = session._mean[oid], session._freq[oid]
    ix, iy = np.nonzero(freq)
    return list(zip(ix.tolist(), iy.tolist(), mean[ix, iy].tolist(), freq[ix, iy].tolist()))


def assert_reads_like_the_2d_scan(s, tmp_path, monkeypatch, gammas=(0.01, 0.05, 0.2)):
    """Scores, merges, fusions and dump bytes of s equal the 2D scan's, bit for bit.
    On a non-square grid the score arrays merge_regions takes are non-square too."""
    for (dx, dy), gamma in itertools.product([(10, 10), (7, 13)], gammas):
        for oid, _ in s.registry.items():
            scores = s.region_scores(oid, dx, dy)
            want = reference_region_scores(s, oid, dx, dy)
            assert scores.shape == want.shape and scores.tobytes() == want.tobytes()
            labels = merge_regions(scores, gamma)
            assert list(labels.items()) == list(reference_merge_regions(scores, gamma).items())
        for root in {g.root for _, g in s.registry.items()}:
            records = s.fuse_across_graphs(root, dx, dy, gamma)
            assert record_fields(records) == record_fields(reference_fuse(s, root, dx, dy, gamma))
    s.dump(tmp_path / "flat.json")
    with monkeypatch.context() as m:
        m.setattr(AggregationSession, "_cell_rows", reference_cell_rows)
        s.dump(tmp_path / "2d.json")
    assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "2d.json").read_bytes()
    loaded = AggregationSession.load(tmp_path / "flat.json")
    loaded.dump(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "flat.json").read_bytes()


@pytest.mark.parametrize("grid", NON_SQUARE, ids=["100x70", "70x100"])
def test_non_square_sessions_read_like_the_2d_scan(tmp_path, monkeypatch, grid):
    rng = np.random.default_rng(27)
    for _ in range(6):
        assert_reads_like_the_2d_scan(random_session(rng, grid), tmp_path, monkeypatch)


def edge_session(grid, case):
    """One cup graph holding no cell, the first cell, the last cell or every cell."""
    s = AggregationSession(grid)
    oid = s.register_graph(CUP_RED)
    if case == "full":
        xs, ys = np.meshgrid(np.arange(grid.d1), np.arange(grid.d2), indexing="ij")
        cells = np.stack([xs.ravel(), ys.ravel()], axis=1)
        s.accumulate(oid, cells, np.random.default_rng(5).random(len(cells)))
    elif case != "empty":
        cell = (0, 0) if case == "first" else (grid.d1 - 1, grid.d2 - 1)
        s.accumulate(oid, *obs((cell, 0.5)))
    return s, oid


@pytest.mark.parametrize("grid", [GRID] + NON_SQUARE, ids=["100x100", "100x70", "70x100"])
@pytest.mark.parametrize("case", ["empty", "first", "last", "full"])
def test_edge_maps_read_like_the_2d_scan(tmp_path, monkeypatch, grid, case):
    s, oid = edge_session(grid, case)
    assert_reads_like_the_2d_scan(s, tmp_path, monkeypatch, gammas=(0.005, 0.05))
    scores = s.region_scores(oid, 10, 10)
    records = s.fuse_across_graphs("cup", 10, 10, 0.05)
    rows = s._cell_rows(oid)
    if case == "empty":
        assert not scores.any() and merge_regions(scores, 0.05) == {}
        assert records == [] and rows == []
    elif case == "full":
        assert len(rows) == grid.d1 * grid.d2
        assert rows[0][:2] == (0, 0) and rows[-1][:2] == (grid.d1 - 1, grid.d2 - 1)
    else:
        cx, cy = rows[0][:2]
        assert rows == [(cx, cy, 0.5, 1)]
        region = (cx // 10, cy // 10)
        assert scores[region] == 1.0 and np.count_nonzero(scores) == 1
        (record,) = records
        assert record.regions == {region}
        assert record.centroid == ((cx + 0.5) * grid.cell_size, (cy + 0.5) * grid.cell_size)


# -- the kept cell index -----------------------------------------------------------
# A session keeps each graph's occupied cells from the first scan (or from load) until
# the graph's next accumulate; fusion, region scores and dumps read them from there.


def scanned(s, oid):
    """The occupied cells a fresh flat scan of the graph's frequency map finds."""
    flat = np.flatnonzero(s._freq[oid].reshape(-1) != 0)
    return (flat, *np.divmod(flat, s.grid.d2))


def assert_index_is_the_scan(s, oid):
    index = s._cells[oid]
    assert index is not None
    for got, want in zip(index, scanned(s, oid), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("grid", [GRID] + NON_SQUARE, ids=["100x100", "100x70", "70x100"])
def test_a_loaded_session_holds_the_scanned_cell_index(tmp_path, grid):
    rng = np.random.default_rng(30)
    sessions = [random_session(rng, grid) for _ in range(6)]
    sessions += [edge_session(grid, case)[0] for case in ("empty", "first", "last", "full")]
    for s in sessions:
        s.dump(tmp_path / "session.json")
        loaded = AggregationSession.load(tmp_path / "session.json")
        for oid, _ in loaded.registry.items():
            assert_index_is_the_scan(loaded, oid)


def feed_blob(s, rng, oid):
    """One frame of distinct in-grid cells around a random center for graph oid."""
    cx, cy = rng.integers(5, 60, 2)
    xs, ys = np.meshgrid(np.arange(cx - 2, cx + 3), np.arange(cy - 2, cy + 3))
    cells = np.stack([xs.ravel(), ys.ravel()], axis=1)
    s.accumulate(oid, cells, rng.random(len(cells)))


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_fuse_accumulate_fuse_matches_the_reference(tmp_path, loaded):
    rng = np.random.default_rng(31)
    for _ in range(4):
        s = random_session(rng)
        if loaded:
            s.dump(tmp_path / "session.json")
            s = AggregationSession.load(tmp_path / "session.json")
        for (dx, dy), gamma in itertools.product([(10, 10), (7, 13), (5, 5)], [0.01, 0.05, 0.2]):
            for _ in range(2):
                for root in ("cup", "lamp"):
                    records = s.fuse_across_graphs(root, dx, dy, gamma)
                    assert record_fields(records) == record_fields(reference_fuse(s, root, dx, dy, gamma))
                    for oid in s.registry.oids_for_root(root):
                        want = reference_region_scores(s, oid, dx, dy)
                        assert s.region_scores(oid, dx, dy).tobytes() == want.tobytes()
                        assert_index_is_the_scan(s, oid)
                # new evidence drops one graph's index, possibly a graph that held no cell
                oid = int(rng.integers(len(s._mean)))
                feed_blob(s, rng, oid)
                assert s._cells[oid] is None


def count_scans(monkeypatch, grid):
    """Count aggregation's dense-map scans: the np.flatnonzero calls over a whole
    (d1, d2) map. Returns the list that gains one entry per scan."""
    scans = []
    flatnonzero = np.flatnonzero

    def counted(a):
        if a.size == grid.d1 * grid.d2:
            scans.append(a)
        return flatnonzero(a)

    monkeypatch.setattr(aggregation.np, "flatnonzero", counted)
    return scans


def test_a_cold_fusion_scans_each_accumulated_map_once_and_a_loaded_one_never(tmp_path, monkeypatch):
    rng = np.random.default_rng(32)
    s = random_session(rng)
    # a graph that never saw evidence holds the empty index, so its map is never scanned
    s.register_graph(ObjectGraph("cup", [("material", "glass")]))
    cups = s.registry.oids_for_root("cup")
    accumulated = [oid for oid in cups if s._freq[oid].any()]
    assert 0 < len(accumulated) < len(cups)
    scans = count_scans(monkeypatch, s.grid)

    s.fuse_across_graphs("cup", 10, 10, 0.05)  # cold: one scan per graph with evidence
    assert len(scans) == len(accumulated)
    s.fuse_across_graphs("cup", 7, 13, 0.05)  # cold at a new key, the index kept
    s.fuse_across_graphs("cup", 7, 13, 0.05)  # repeat
    assert len(scans) == len(accumulated)
    feed_blob(s, rng, cups[0])
    s.fuse_across_graphs("cup", 10, 10, 0.05)  # cold again: only the fed graph is scanned
    assert len(scans) == len(accumulated) + 1

    s.dump(tmp_path / "session.json")
    loaded = AggregationSession.load(tmp_path / "session.json")
    scans.clear()
    for root in ("cup", "lamp"):
        for _ in range(2):
            loaded.fuse_across_graphs(root, 10, 10, 0.05)
    loaded.dump(tmp_path / "again.json")
    assert len(scans) == 0
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "session.json").read_bytes()


# -- fusion memo ------------------------------------------------------------------


def fuse_cup(s):
    return s.fuse_across_graphs("cup", 10, 10, 0.05)


def test_fuse_repeat_returns_equal_records_in_new_list():
    s = session()
    splat(s, s.register_graph(CUP_RED), 15, 15)
    splat(s, s.register_graph(CUP_BLACK), 75, 75)
    first = fuse_cup(s)
    second = fuse_cup(s)
    assert len(first) == 2 and second == first and second is not first
    second.reverse()
    second.pop()
    assert fuse_cup(s) == first


def test_fuse_memo_keeps_one_entry_per_root_class(monkeypatch):
    calls = []
    fuse = AggregationSession._fuse

    def counted(self, root, *args):
        calls.append(root)
        return fuse(self, root, *args)

    monkeypatch.setattr(AggregationSession, "_fuse", counted)
    s = session()
    splat(s, s.register_graph(CUP_RED), 15, 15)
    splat(s, s.register_graph(CUP_BLACK), 75, 75)
    first = s.fuse_across_graphs("Cup", 10, 10, 0.05)
    assert len(first) == 2 and s.fuse_across_graphs("cup", 10, 10, 0.05) == first
    assert len(calls) == 1 and len(s._fused) == 1


def test_fuse_after_accumulate_matches_fresh_session():
    def fed(s, frames):
        for cx, cy, weight in frames:
            splat(s, s.register_graph(CUP_RED), cx, cy, weight)
        return s

    s = fed(session(), [(15, 15, 1.0), (16, 15, 0.5)])
    before = fuse_cup(s)
    fed(s, [(75, 75, 0.8)])
    after = fuse_cup(s)
    assert after != before
    assert after == fuse_cup(fed(session(), [(15, 15, 1.0), (16, 15, 0.5), (75, 75, 0.8)]))


def test_fuse_includes_newly_registered_graph_of_same_root():
    s = session()
    splat(s, s.register_graph(CUP_RED), 15, 15)
    assert [r.graph for r in fuse_cup(s)] == [CUP_RED]
    s.observe(CUP_BLACK, *obs(((75, 75), 1.0), ((76, 75), 0.5)))
    assert [r.graph for r in fuse_cup(s)] == [CUP_RED, CUP_BLACK]


# -- dump/load --------------------------------------------------------------------


def test_loaded_session_fuses_like_dumped_session(tmp_path):
    s = session()
    splat(s, s.register_graph(CUP_RED), 15, 15)
    splat(s, s.register_graph(CUP_BLACK), 16, 15, weight=0.5)
    dumped = fuse_cup(s)
    s.dump(tmp_path / "session.json")
    loaded = AggregationSession.load(tmp_path / "session.json")
    assert fuse_cup(loaded) == dumped
    # each session keeps its own memo: new evidence in one leaves the other's fusion alone
    splat(loaded, 1, 75, 75)
    assert fuse_cup(loaded) != dumped
    assert fuse_cup(s) == dumped


def test_session_round_trip_bit_exact(tmp_path):
    s = session()
    a = s.register_graph(CUP_RED)
    b = s.register_graph(
        ObjectGraph("lamp", [], [("is-near", ObjectGraph("table"))])
    )
    splat(s, a, 15, 15, weight=0.37)
    splat(s, b, 40, 60, weight=0.81)
    s.accumulate(a, *obs(((15, 15), 0.1234567890123)))
    first = tmp_path / "session.json"
    s.dump(first)
    loaded = AggregationSession.load(first)
    second = tmp_path / "again.json"
    loaded.dump(second)
    assert first.read_bytes() == second.read_bytes()
    for oid in (a, b):
        for got, want in zip(loaded.occupancy(oid), s.occupancy(oid)):
            assert np.array_equal(got, want)
    assert [g for _, g in loaded.registry.items()] == [g for _, g in s.registry.items()]


def dump_with_row(tmp_path, row):
    """A valid session dump whose first graph holds one extra cell row."""
    s = session()
    oid = s.register_graph(CUP_RED)
    s.accumulate(oid, *obs(((3, 4), 0.5)))
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    payload["cells"][str(oid)].append(row)
    path.write_text(json.dumps(payload))
    return path


def refusal(path, cell, problem):
    return rf"^{re.escape(str(path))}: .*cell \({cell[0]}, {cell[1]}\) .*{problem}"


@pytest.mark.parametrize("row", [[-3, 5, 0.5, 1], [100, 5, 0.5, 1], [5, 100, 0.5, 1]])
def test_load_refuses_cell_outside_grid(tmp_path, row):
    path = dump_with_row(tmp_path, row)
    with pytest.raises(SessionFormatError, match=refusal(path, row, "outside the 100x100 grid")):
        AggregationSession.load(path)


def test_load_refuses_frequency_below_one(tmp_path):
    path = dump_with_row(tmp_path, [7, 8, 0.5, 0])
    with pytest.raises(SessionFormatError, match=refusal(path, (7, 8), "frequency below 1")):
        AggregationSession.load(path)


@pytest.mark.parametrize(
    "row, problem",
    [
        ([10.5, 38, 0.5, 1], "non-integer index"),
        ([10, 38.25, 0.5, 1], "non-integer index"),
        ([7, 8, 0.5, 1.5], "non-integer frequency"),
        ([7, 8, 0.5, 1e300], r"frequency 2\*\*63 or more"),
        ([7, 8, 0.5, 2**63], r"frequency 2\*\*63 or more"),
        ([7, 8, 0.5, float("inf")], r"frequency 2\*\*63 or more"),
    ],
    ids=["half_cx", "fractional_cy", "half_frequency", "frequency_1e300", "frequency_2_63", "infinite_frequency"],
)
def test_load_refuses_a_cell_that_would_not_round_trip(tmp_path, row, problem):
    # an int64 cast would truncate the row, or wrap its frequency negative
    path = dump_with_row(tmp_path, row)
    with pytest.raises(SessionFormatError, match=refusal(path, row, problem)):
        AggregationSession.load(path)


def test_load_takes_the_largest_frequency_below_2_to_the_63(tmp_path):
    largest = int(np.nextafter(2.0**63, 0.0))
    loaded = AggregationSession.load(dump_with_row(tmp_path, [7, 8, 0.5, largest]))
    assert loaded.occupancy(0)[1][7, 8] == largest


def test_load_refuses_non_finite_weight(tmp_path):
    path = dump_with_row(tmp_path, [7, 8, float("nan"), 2])
    with pytest.raises(SessionFormatError, match=refusal(path, (7, 8), "non-finite weight")):
        AggregationSession.load(path)


def test_load_refuses_negative_weight(tmp_path):
    # a stored weight is a running mean of soft-mask values; zero stays legal
    AggregationSession.load(dump_with_row(tmp_path, [7, 8, 0.0, 2]))
    path = dump_with_row(tmp_path, [7, 8, -0.25, 2])
    with pytest.raises(SessionFormatError, match=refusal(path, (7, 8), "negative weight")):
        AggregationSession.load(path)


def test_load_refuses_a_cell_listed_twice(tmp_path):
    # the dump already holds cell (3, 4); a second row for it would silently win
    path = dump_with_row(tmp_path, [3, 4, 0.9, 7])
    with pytest.raises(SessionFormatError, match=refusal(path, (3, 4), "is listed twice")):
        AggregationSession.load(path)


def test_load_refuses_cells_for_unknown_graph(tmp_path):
    s = session()
    s.register_graph(CUP_RED)
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    payload["cells"]["-1"] = [[7, 8, 0.5, 1]]
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionFormatError, match="cells for unknown oid -1"):
        AggregationSession.load(path)


@pytest.mark.parametrize("key", ["00", " 0", "0 ", "+0"])
def test_load_refuses_a_cells_key_that_is_not_its_oid(tmp_path, key):
    # int() reads each of these as oid 0, so its rows would silently replace oid 0's
    s = session()
    s.register_graph(CUP_RED)
    s.accumulate(0, *obs(((3, 4), 0.5)))
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    payload["cells"][key] = [[3, 4, 25.0, 50]]
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionFormatError, match=f"^{re.escape(str(path))}: cells for unknown oid {re.escape(key)};"):
        AggregationSession.load(path)


@pytest.mark.parametrize("cells", [None, []], ids=["no_cells_key", "empty_cells"])
def test_load_refuses_a_graph_listed_under_two_oids(tmp_path, cells):
    # loading would register the graph once, so the dump would not survive a round trip
    s = session()
    s.register_graph(CUP_RED)
    s.register_graph(CUP_BLACK)
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    payload["graphs"].append({"oid": 2, "graph": payload["graphs"][0]["graph"]})
    if cells is not None:
        payload["cells"]["2"] = cells
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionFormatError, match=f"^{re.escape(str(path))}: oid 2 repeats the graph of oid 0$"):
        AggregationSession.load(path)


@pytest.mark.parametrize(
    "damage", [lambda node: node.pop("self"), lambda node: node.update(zz=5)], ids=["no_self", "unknown_key"]
)
def test_load_refuses_a_graph_unlike_the_one_dump_writes(tmp_path, damage):
    # at load the graph's reader defaulted a missing key and ignored an unknown one
    s = session()
    s.register_graph(CUP_RED)
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    damage(payload["graphs"][0]["graph"])
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionFormatError, match=r"malformed session payload: graph node has keys \["):
        AggregationSession.load(path)


@pytest.mark.parametrize("oid", [True, 1.0], ids=["true", "float"])
def test_load_refuses_an_oid_that_is_not_an_integer(tmp_path, oid):
    # the oid would load as 1 and dump back as 1, so the bytes would not round-trip
    s = session()
    s.register_graph(CUP_RED)
    s.register_graph(CUP_BLACK)
    path = tmp_path / "session.json"
    s.dump(path)
    payload = json.loads(path.read_text())
    payload["graphs"][1]["oid"] = oid
    path.write_text(json.dumps(payload))
    with pytest.raises(
        SessionFormatError, match=f"^{re.escape(str(path))}: graphs entry 1 has oid {oid!r}, not an integer$"
    ):
        AggregationSession.load(path)


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("origin_x", float("nan"), "grid origin must be finite"),
        ("origin_y", float("-inf"), "grid origin must be finite"),
        ("cell_size", float("inf"), "cell_size must be positive and finite"),
        ("cell_size", float("nan"), "cell_size must be positive and finite"),
    ],
    ids=["nan_origin_x", "minus_infinity_origin_y", "infinite_cell_size", "nan_cell_size"],
)
def test_load_refuses_a_non_finite_grid(tmp_path, key, value, problem):
    # json reads NaN and Infinity; such a grid would fuse to NaN centroids
    path = dump_with_row(tmp_path, [7, 8, 0.5, 1])
    payload = json.loads(path.read_text())
    payload["grid"][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(SessionFormatError, match=f"^{re.escape(str(path))}: malformed session payload: {problem}$"):
        AggregationSession.load(path)


def dump_with_grid(tmp_path, d1, d2):
    """A valid one-graph session dump that declares a d1 x d2 grid."""
    path = dump_with_row(tmp_path, [7, 8, 0.5, 1])
    payload = json.loads(path.read_text())
    payload["grid"].update(d1=d1, d2=d2)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("d1, d2", [(0, 100), (100, -1), (100.0, 100), (100, "100"), (True, 100)])
def test_load_refuses_grid_size_that_is_not_positive_int(tmp_path, d1, d2):
    path = dump_with_grid(tmp_path, d1, d2)
    with pytest.raises(SessionFormatError, match=r"grid size .* is not two positive integers"):
        AggregationSession.load(path)


def test_load_refuses_grid_too_large_to_allocate(tmp_path):
    # 10^9 x 10^9 float64 cells: numpy refuses the request without allocating
    path = dump_with_grid(tmp_path, 10**9, 10**9)
    with pytest.raises(SessionFormatError, match=r"cannot allocate the 1000000000x1000000000 grid"):
        AggregationSession.load(path)
