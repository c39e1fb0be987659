"""Undirected communication graphs and random connected-graph generation.

Graphs are unweighted, have no self-loops, and live on nodes 0..n-1 with
3 <= n <= 64. Generation is Erdos-Renyi G(n, p) with rejection of
disconnected samples, fully deterministic per (seed, draw_index) so that
parallel workers can partition draw-index ranges.

``Graph`` is the validated single graph that the simulator and one-graph
calls take. Datasets hold their graphs as ``GraphArrays`` instead, so that
generating, labelling and stacking many graphs builds no Python object per
graph; each one-graph function here is the one-graph case of its array form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MIN_NODES = 3
MAX_NODES = 64

# Consecutive rejected (disconnected) draws tolerated before giving up;
# hitting this signals a degenerate edge-probability range.
MAX_REJECTIONS = 10_000

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Graph:
    """Undirected graph; ``edges`` holds normalized (i, j) pairs with i < j."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if not MIN_NODES <= n <= MAX_NODES:
            raise ValueError(f"node count must be in [{MIN_NODES}, {MAX_NODES}], got {n}")
        normalized = set()
        for edge in edges:
            i, j = edge
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) outside nodes 0..{n - 1}")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges sorted lexicographically (the canonical on-disk order)."""
        return sorted(self.edges)


@dataclass(frozen=True, eq=False)
class GraphArrays:
    """Any number of graphs as three arrays, the form in which datasets are
    generated, stored, labelled and stacked for the model.

    Graph b has ``sizes[b]`` nodes and the edges
    ``ends[edge_offsets[b]:edge_offsets[b + 1]]``: ``(i, j)`` rows with
    i < j in lexicographic order, as ``Graph.edge_list()`` gives them.
    """

    sizes: np.ndarray  # (B,) node counts
    edge_offsets: np.ndarray  # (B + 1,) first edge row of each graph, then E
    ends: np.ndarray  # (E, 2) endpoints

    @classmethod
    def from_counts(cls, sizes, edge_counts, ends: np.ndarray) -> GraphArrays:
        """From node counts, edge counts, and every graph's edge rows (or
        their flat endpoints) one after another."""
        offsets = np.zeros(len(edge_counts) + 1, dtype=np.intp)
        np.cumsum(np.asarray(edge_counts, dtype=np.intp), out=offsets[1:])
        return cls(np.asarray(sizes, dtype=np.intp), offsets, ends.reshape(-1, 2))

    @classmethod
    def of(cls, graphs: Iterable[Graph]) -> GraphArrays:
        """The arrays of ``graphs``, in their order."""
        graphs = list(graphs)
        edge_lists = [g.edge_list() for g in graphs]
        ends = np.array([edge for edges in edge_lists for edge in edges], dtype=np.intp)
        return cls.from_counts([g.n for g in graphs], [len(edges) for edges in edge_lists], ends)

    def __len__(self) -> int:
        return len(self.sizes)

    def take(self, index) -> GraphArrays:
        """The graphs at the positions of the integer array ``index``, in its
        order: each one's edge rows gathered, its offsets recounted."""
        index = np.asarray(index, dtype=np.intp)
        starts = self.edge_offsets[index]
        counts = self.edge_offsets[index + 1] - starts
        offsets = np.zeros(index.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
        return GraphArrays(self.sizes[index], offsets, self.ends[rows])

    def slice(self, start: int, stop: int) -> GraphArrays:
        """Graphs ``start`` to ``stop - 1``, the graphs of
        ``take(np.arange(start, stop))``, as views of these arrays: only the
        edge offsets are recounted, no edge row is copied."""
        first = self.edge_offsets[start]
        return GraphArrays(self.sizes[start:stop], self.edge_offsets[start : stop + 1] - first,
                           self.ends[first : self.edge_offsets[stop]])

    def graph(self, b: int) -> Graph:
        edges = self.ends[self.edge_offsets[b] : self.edge_offsets[b + 1]]
        return Graph(int(self.sizes[b]), edges.tolist())


@dataclass(frozen=True)
class GraphGenConfig:
    """Sampling law for random connected graphs: G(n, p) with rejection.

    ``n_range`` and ``p_range`` are inclusive intervals; each draw picks n and
    p uniformly, then includes each node pair independently with probability p.
    The default p interval is wide on purpose: it spreads the connectivity
    targets over two orders of magnitude, which the learning benchmarks need.
    """

    n_range: tuple[int, int] = (9, 11)
    p_range: tuple[float, float] = (0.16, 0.95)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.n_range
        if not (MIN_NODES <= lo <= hi <= MAX_NODES):
            raise ValueError(
                f"n_range {self.n_range} is not an ordered range within "
                f"[{MIN_NODES}, {MAX_NODES}]"
            )
        p_lo, p_hi = self.p_range
        if not (0.0 < p_lo <= p_hi <= 1.0):
            raise ValueError(f"p_range {self.p_range} is not an ordered range within (0, 1]")


def _reaches_all(n: int, ends: list) -> bool:
    """True iff breadth-first search from node 0 reaches all n nodes along
    the edges ``ends = [i0, j0, i1, j1, ...]``. Node sets are int bitmasks,
    so a level of the search costs one OR per frontier node."""
    neighbours = [0] * n
    pairs = iter(ends)
    for i, j in zip(pairs, pairs):
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    seen = frontier = 1
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= reached
    return seen == (1 << n) - 1


def are_connected(arrays: GraphArrays) -> np.ndarray:
    """One boolean per graph of ``arrays``: whether it is connected."""
    flat = arrays.ends.ravel()
    bounds = (2 * arrays.edge_offsets).tolist()
    return np.array(
        [_reaches_all(n, flat[a:b].tolist())
         for n, a, b in zip(arrays.sizes.tolist(), bounds, bounds[1:])],
        dtype=bool,
    )


def is_connected(g: Graph) -> bool:
    """True iff breadth-first search from node 0 reaches every node."""
    return bool(are_connected(GraphArrays.of([g]))[0])


@functools.lru_cache(maxsize=None)
def _node_pairs(n: int) -> np.ndarray:
    """Every ``(i, j)`` with i < j < n, in lexicographic order: the order in
    which a draw decides the node pairs."""
    pairs = np.column_stack(np.triu_indices(n, 1))
    pairs.flags.writeable = False
    return pairs


def _draw(cfg: GraphGenConfig, draw_index: int) -> tuple[int, np.ndarray]:
    """Node count and canonical ``(E, 2)`` edge array of draw ``draw_index``."""
    if draw_index < 0:
        raise ValueError("draw_index must be non-negative")
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & _SEED_MASK, draw_index])
    )
    n_lo, n_hi = cfg.n_range
    p_lo, p_hi = cfg.p_range
    for _ in range(MAX_REJECTIONS):
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(p_lo, p_hi))
        pairs = _node_pairs(n)
        ends = pairs[rng.random(len(pairs)) < p]
        if _reaches_all(n, ends.ravel().tolist()):
            return n, ends
    raise RuntimeError(
        f"no connected graph after {MAX_REJECTIONS} draws "
        f"(n_range={cfg.n_range}, p_range={cfg.p_range}): p_range too sparse"
    )


def generate_graph_arrays(cfg: GraphGenConfig, count: int) -> GraphArrays:
    """Draws 0..count-1 as arrays: graph b is ``generate_connected_graph(cfg, b)``."""
    draws = [_draw(cfg, draw_index) for draw_index in range(count)]
    return GraphArrays.from_counts(
        [n for n, _ in draws],
        [len(ends) for _, ends in draws],
        np.concatenate([np.empty((0, 2), dtype=np.intp), *(ends for _, ends in draws)]),
    )


def generate_connected_graph(cfg: GraphGenConfig, draw_index: int) -> Graph:
    """Draw one connected graph, deterministic per (cfg.seed, draw_index).

    Each node pair is kept with probability p, in lexicographic pair order;
    disconnected samples are rejected and redrawn from the same stream.
    Raises RuntimeError after MAX_REJECTIONS consecutive rejections.
    """
    n, ends = _draw(cfg, draw_index)
    return Graph(n, ends.tolist())


def laplacian_stack(arrays: GraphArrays) -> np.ndarray:
    """``(B, n, n)`` Laplacians L = D - A of the B graphs of ``arrays``, n the
    largest node count: graph b's Laplacian fills the leading
    ``sizes[b]``-square block and every other entry is +0.0. Each edge writes
    its two entries alike, so every matrix is exactly symmetric."""
    count, n = len(arrays), int(arrays.sizes.max())
    b = np.repeat(np.arange(count), np.diff(arrays.edge_offsets))
    i, j = arrays.ends.T
    lap = np.zeros((count, n, n))
    lap[b, i, j] = -1.0
    lap[b, j, i] = -1.0
    diagonal = np.arange(n)
    lap[:, diagonal, diagonal] -= lap.sum(axis=2)
    return lap
