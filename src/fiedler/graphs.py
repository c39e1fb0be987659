"""Undirected communication graphs and random connected-graph generation.

Graphs are unweighted, have no self-loops, and live on nodes 0..n-1 with
3 <= n <= 64. Generation is Erdos-Renyi G(n, p) with rejection of
disconnected samples, fully deterministic per (seed, draw_index) so that
parallel workers can partition draw-index ranges.
"""

from __future__ import annotations

import itertools
from collections import deque
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

    def neighbor_lists(self) -> list[list[int]]:
        """Ascending neighbor list per node."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        for lst in nbrs:
            lst.sort()
        return nbrs

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.edges if v in (i, j))


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


def is_connected(g: Graph) -> bool:
    """True iff breadth-first search from node 0 reaches every node."""
    nbrs = g.neighbor_lists()
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def generate_connected_graph(cfg: GraphGenConfig, draw_index: int) -> Graph:
    """Draw one connected graph, deterministic per (cfg.seed, draw_index).

    Disconnected samples are rejected and redrawn from the same stream.
    Raises RuntimeError after MAX_REJECTIONS consecutive rejections.
    """
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
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < p
        g = Graph(n, [pair for pair, k in zip(pairs, keep) if k])
        if is_connected(g):
            return g
    raise RuntimeError(
        f"no connected graph after {MAX_REJECTIONS} draws "
        f"(n_range={cfg.n_range}, p_range={cfg.p_range}): p_range too sparse"
    )


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A (symmetric, rows sum to zero)."""
    return laplacian_stack([g])[0]


def laplacian_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """``(B, n, n)`` Laplacians of B graphs, n the largest node count: graph b's
    Laplacian fills the leading ``graphs[b].n``-square block and every other
    entry is +0.0."""
    n = max(g.n for g in graphs)
    n_edges = [len(g.edges) for g in graphs]
    i, j = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs)),
        dtype=np.intp,
        count=2 * sum(n_edges),
    ).reshape(-1, 2).T
    b = np.repeat(np.arange(len(graphs)), n_edges)
    lap = np.zeros((len(graphs), n, n))
    lap[b, i, j] = -1.0
    lap[b, j, i] = -1.0
    diagonal = np.arange(n)
    lap[:, diagonal, diagonal] -= lap.sum(axis=2)
    return lap


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: edge {i, j} becomes {perm[i], perm[j]}."""
    p = [int(x) for x in perm]
    if sorted(p) != list(range(g.n)):
        raise ValueError(f"perm must be a bijection of 0..{g.n - 1}")
    return Graph(g.n, [(p[i], p[j]) for i, j in g.edges])
