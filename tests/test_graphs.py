import itertools
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import complete_graph, laplacian_of, path_graph, permute
from fiedler.graphs import (
    MAX_REJECTIONS,
    MIN_NODES,
    Graph,
    GraphArrays,
    GraphGenConfig,
    are_connected,
    generate_connected_graph,
    generate_graph_arrays,
    is_connected,
    laplacian_stack,
)
from fiedler.spectral import algebraic_connectivity


def test_graph_normalizes_and_dedupes_edges():
    g = Graph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert g.edge_list() == [(0, 2), (1, 3)]


def test_graph_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)])  # below the minimum node count
    with pytest.raises(ValueError):
        Graph(65, [])
    with pytest.raises(ValueError):
        Graph(4, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(4, [(0, 4)])


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GraphGenConfig(n_range=(2, 5))
    with pytest.raises(ValueError):
        GraphGenConfig(n_range=(5, 4))
    with pytest.raises(ValueError):
        GraphGenConfig(p_range=(0.0, 0.5))
    with pytest.raises(ValueError):
        GraphGenConfig(p_range=(0.5, 1.1))


def test_p_one_forces_complete_graph():
    cfg = GraphGenConfig(n_range=(3, 3), p_range=(1.0, 1.0), seed=5)
    for idx in range(5):
        g = generate_connected_graph(cfg, idx)
        assert g.edges == complete_graph(3).edges


def test_generated_graphs_connected_and_in_range():
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.6), seed=42)
    for idx in range(30):
        g = generate_connected_graph(cfg, idx)
        assert 9 <= g.n <= 11
        assert is_connected(g)


def test_generation_deterministic_per_draw_index():
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.6), seed=7)
    for idx in (0, 3, 11):
        a = generate_connected_graph(cfg, idx)
        b = generate_connected_graph(cfg, idx)
        assert a == b
    assert generate_connected_graph(cfg, 0) != generate_connected_graph(cfg, 1)


def test_generation_fails_on_degenerate_p_range():
    cfg = GraphGenConfig(n_range=(10, 10), p_range=(1e-9, 1e-9), seed=1)
    with pytest.raises(RuntimeError, match="p_range"):
        generate_connected_graph(cfg, 0)


def test_is_connected_cases():
    assert is_connected(complete_graph(4))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(path_graph(5))


def test_laplacian_triangle():
    lap = laplacian_of(complete_graph(3))
    assert np.array_equal(np.diag(lap), [2, 2, 2])
    off = lap[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, -np.ones(6))


def test_laplacian_path3():
    lap = laplacian_of(path_graph(3))
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(lap, expected)


def test_laplacian_rows_sum_to_zero():
    cfg = GraphGenConfig(n_range=(5, 12), p_range=(0.2, 0.8), seed=3)
    for idx in range(20):
        lap = laplacian_of(generate_connected_graph(cfg, idx))
        assert np.max(np.abs(lap.sum(axis=1))) == 0.0
        assert np.array_equal(lap, lap.T)


def _loop_laplacian(g):
    """One graph's Laplacian entry by entry: the reference for the scatter."""
    lap = np.zeros((g.n, g.n))
    for i, j in g.edges:
        lap[i, j] = lap[j, i] = -1.0
    for i in range(g.n):
        lap[i, i] = 0.0 - lap[i].sum()
    return lap


def test_mixed_size_laplacian_stack_is_zero_padded():
    cfg = GraphGenConfig(n_range=(3, 12), p_range=(0.2, 0.8), seed=9)
    graphs = [generate_connected_graph(cfg, idx) for idx in range(12)]
    graphs += [Graph(5, []), Graph(6, [(0, 1), (2, 3)])]  # isolated nodes, last one too
    stack = laplacian_stack(GraphArrays.of(graphs))
    n = max(g.n for g in graphs)
    assert stack.shape == (len(graphs), n, n)
    for lap, g in zip(stack, graphs):
        want = _loop_laplacian(g)
        assert np.array_equal(lap[: g.n, : g.n], want)
        assert np.array_equal(np.signbit(lap[: g.n, : g.n]), np.signbit(want))
        padding = np.ones((n, n), dtype=bool)
        padding[: g.n, : g.n] = False
        assert np.all(lap[padding] == 0.0) and not np.any(np.signbit(lap[padding]))


def test_permute_identity():
    g = path_graph(4)
    assert permute(g, [0, 1, 2, 3]) == g


def test_permute_swap_example():
    g = path_graph(3)  # edges 0-1, 1-2
    swapped = permute(g, [1, 0, 2])
    assert swapped.edges == frozenset({(0, 1), (0, 2)})


def test_permute_preserves_connectivity_value():
    cfg = GraphGenConfig(n_range=(6, 10), p_range=(0.3, 0.7), seed=9)
    rng = np.random.default_rng(0)
    for idx in range(10):
        g = generate_connected_graph(cfg, idx)
        perm = rng.permutation(g.n)
        assert algebraic_connectivity(permute(g, perm)) == pytest.approx(
            algebraic_connectivity(g), abs=1e-9
        )


def test_permute_rejects_non_bijections():
    g = path_graph(3)
    with pytest.raises(ValueError):
        permute(g, [0, 1])
    with pytest.raises(ValueError):
        permute(g, [0, 0, 2])
    with pytest.raises(ValueError):
        permute(g, [0, 1, 3])


# -- array forms against the per-graph code they replaced ---------------------


def _bfs_connected(g):
    """Reference: breadth-first search from node 0 over neighbour lists."""
    nbrs = [[] for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
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


def _draw_reference(cfg, draw_index):
    """Reference: one draw as a Graph per attempt, pairs from
    itertools.combinations, connectivity by BFS."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & ((1 << 64) - 1), draw_index]))
    n_lo, n_hi = cfg.n_range
    p_lo, p_hi = cfg.p_range
    for _ in range(MAX_REJECTIONS):
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(p_lo, p_hi))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < p
        g = Graph(n, [pair for pair, k in zip(pairs, keep) if k])
        if _bfs_connected(g):
            return g
    raise RuntimeError("p_range too sparse")


def _laplacian_stack_frozenset(graphs):
    """Reference: the zero-padded Laplacian stack filled from each Graph's
    frozenset of edges."""
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


@st.composite
def _any_graph(draw):
    """3..40 nodes and any edge set: edgeless, paths and disconnected ones too."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["random", "edgeless", "path", "two-paths"]))
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "path":
        return path_graph(n)
    if kind == "two-paths":
        cut = draw(st.integers(1, n - 1))
        return Graph(n, [(v, v + 1) for v in range(n - 1) if v + 1 != cut])
    density = draw(st.floats(0.0, 1.0))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n * (n - 1) // 2)
    return Graph(n, [pair for pair, k in zip(itertools.combinations(range(n), 2), keep)
                     if k < density])


@settings(max_examples=60, deadline=None)
@given(st.lists(_any_graph(), min_size=1, max_size=8))
def test_arrays_match_the_per_graph_references(graphs):
    arrays = GraphArrays.of(graphs)
    assert [arrays.graph(b) for b in range(len(graphs))] == graphs
    for b, g in enumerate(graphs):
        rows = arrays.ends[arrays.edge_offsets[b] : arrays.edge_offsets[b + 1]]
        assert [tuple(row) for row in rows.tolist()] == g.edge_list()
    want = [_bfs_connected(g) for g in graphs]
    assert are_connected(arrays).tolist() == want
    assert [is_connected(g) for g in graphs] == want
    assert laplacian_stack(arrays).tobytes() == _laplacian_stack_frozenset(graphs).tobytes()
    index = np.arange(len(graphs))[::-1].repeat(2)
    taken = arrays.take(index)
    assert [taken.graph(b) for b in range(len(index))] == [graphs[k] for k in index]


@settings(max_examples=60, deadline=None)
@given(st.lists(_any_graph(), min_size=1, max_size=8), st.data())
def test_slice_is_the_take_of_its_range_as_views(graphs, data):
    arrays = GraphArrays.of(graphs)
    start = data.draw(st.integers(0, len(graphs)))
    stop = data.draw(st.integers(start, len(graphs)))
    view, taken = arrays.slice(start, stop), arrays.take(np.arange(start, stop))
    for name in ("sizes", "edge_offsets", "ends"):
        got, want = getattr(view, name), getattr(taken, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert np.shares_memory(view.sizes, arrays.sizes) == (stop > start)
    assert np.shares_memory(view.ends, arrays.ends) == (view.ends.size > 0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_lo=st.integers(MIN_NODES, 9),
    n_span=st.integers(0, 3),
    p_lo=st.floats(0.08, 0.9),
    p_span=st.floats(0.0, 0.3),
    count=st.integers(1, 6),
)
def test_generation_matches_the_per_draw_reference(seed, n_lo, n_span, p_lo, p_span, count):
    """Sparse laws reject most draws; each draw index still reads its own
    stream exactly as a Graph-per-attempt generator did."""
    cfg = GraphGenConfig(n_range=(n_lo, n_lo + n_span), p_range=(p_lo, min(1.0, p_lo + p_span)),
                         seed=seed)
    try:
        want = [_draw_reference(cfg, index) for index in range(count)]
    except RuntimeError:
        with pytest.raises(RuntimeError, match="p_range too sparse"):
            generate_graph_arrays(cfg, count)
        return
    arrays = generate_graph_arrays(cfg, count)
    assert [arrays.graph(b) for b in range(count)] == want
    assert [generate_connected_graph(cfg, index) for index in range(count)] == want
