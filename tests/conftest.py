"""Shared graph builders for the test suite."""

import itertools

from fiedler.graphs import Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Hub node 0 with ``leaves`` pendant nodes."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def degree(g: Graph, v: int) -> int:
    return sum(1 for i, j in g.edges if v in (i, j))
