import contextlib
import itertools
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from operator import attrgetter
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings

from conftest import (
    build_stack_int64_keys,
    complete_graph,
    cycle_graph,
    degree,
    path_graph,
    permute,
    run_at_one_and_two_blas_threads,
    traced_peak,
)
from fiedler import model
from fiedler.cli import GRADCHECK_INSTANCES
from fiedler.graphs import Graph, GraphArrays, GraphGenConfig, generate_connected_graph
from fiedler.model import (
    MODES,
    ForwardCache,
    ModelParams,
    backward_stack,
    build_stack,
    flatten_params,
    forward,
    forward_stack,
    grad_check,
    gru_update,
    init_params,
    initial_state,
    load_params,
    param_count,
    param_views,
    readout_local,
    save_params,
    stack_loss,
    unflatten_params,
)
from fiedler.spectral import algebraic_connectivity


def rand_graph(seed, n_lo=5, n_hi=9):
    cfg = GraphGenConfig(n_range=(n_lo, n_hi), p_range=(0.3, 0.8), seed=seed)
    return generate_connected_graph(cfg, 0)


# -- parameters ---------------------------------------------------------------


def test_init_deterministic_and_shaped():
    a = init_params(4, seed=3)
    b = init_params(4, seed=3)
    assert np.array_equal(flatten_params(a), flatten_params(b))
    assert a.w_msg.shape == (4, 4)
    assert a.gru.u_c.shape == (4, 4)
    assert a.readout_local.w2.shape == (4,)
    assert a.readout_local.b2 == 0.0
    c = init_params(4, seed=4)
    assert not np.array_equal(flatten_params(a), flatten_params(c))


def test_init_respects_uniform_bounds():
    h = 16
    p = init_params(h, seed=0)
    lim = math.sqrt(6.0 / (2 * h))
    for mat in (p.w_msg, p.gru.w_z, p.gru.u_r, p.readout_local.w1):
        assert np.max(np.abs(mat)) <= lim
    assert np.max(np.abs(p.readout_global.w2)) <= math.sqrt(6.0 / (h + 1))
    assert np.array_equal(p.gru.b_z, np.zeros(h))


def test_flatten_unflatten_round_trip():
    p = init_params(6, seed=1)
    vec = flatten_params(p)
    assert vec.shape == (param_count(6),)
    q = unflatten_params(vec, 6)
    assert np.array_equal(flatten_params(q), vec)
    with pytest.raises(ValueError):
        unflatten_params(vec[:-1], 6)


def _flat_vectors(h_max=6):
    """(H, finite float64 vector of that H's length) pairs, H in 1..h_max."""
    return st.integers(1, h_max).flatmap(
        lambda h: st.tuples(
            st.just(h),
            hnp.arrays(np.float64, param_count(h),
                       elements=st.floats(allow_nan=False, allow_infinity=False)),
        )
    )


@settings(max_examples=60, deadline=None)
@given(_flat_vectors())
def test_unflatten_round_trip_is_bitwise_and_copies(case):
    h, vec = case
    original = vec.copy()
    p = unflatten_params(vec, h)
    assert flatten_params(p).tobytes() == vec.tobytes()
    vec[:] = 7.0
    assert flatten_params(p).tobytes() == original.tobytes()


@settings(max_examples=30, deadline=None)
@given(_flat_vectors(), st.booleans())
def test_checkpoint_round_trip_is_bit_exact_for_any_vector(tmp_path_factory, case,
                                                           b2_float):
    h, vec = case
    p = unflatten_params(vec, h)
    assert p.readout_local.b2.shape == (1,)
    if b2_float:  # as init_params holds it
        p.readout_local.b2 = float(p.readout_local.b2[0])
        p.readout_global.b2 = float(p.readout_global.b2[0])
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.txt"
    save_params(p, path, mode="local", rounds=2)
    loaded, _ = load_params(path)
    assert flatten_params(loaded).tobytes() == vec.tobytes()
    again = path.with_name("again.txt")
    save_params(loaded, again, mode="local", rounds=2)
    assert again.read_bytes() == path.read_bytes()


def test_initial_state_rows_are_e1():
    s = initial_state(2, 3)
    assert np.array_equal(s, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(s.sum(axis=1), [1.0, 1.0])


# -- message step -------------------------------------------------------------


def message_step(params, g, states):
    """Reference: one message round on one graph, where row v becomes the sum
    of w_msg @ state over N(v), computed as ``model.message_step`` did."""
    states = np.asarray(states, dtype=float)
    if states.shape != (g.n, params.hidden_size):
        raise ValueError(f"states must have shape ({g.n}, {params.hidden_size})")
    return build_stack(GraphArrays.of([g])).adjacency @ (states @ params.w_msg.T)


def test_message_step_identity_transform_sums_neighbors():
    p = init_params(3, seed=0)
    p.w_msg = np.eye(3)
    g = path_graph(3)
    states = np.arange(9, dtype=float).reshape(3, 3)
    out = message_step(p, g, states)
    assert np.array_equal(out[1], states[0] + states[2])
    assert np.array_equal(out[0], states[1])


def test_message_step_isolated_node_gets_zero_row():
    p = init_params(3, seed=0)
    g = Graph(3, [(1, 2)])  # node 0 isolated
    states = np.ones((3, 3))
    out = message_step(p, g, states)
    assert np.array_equal(out[0], np.zeros(3))


def test_message_step_equal_states_scale_with_degree():
    p = init_params(4, seed=0)
    p.w_msg = np.eye(4)
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    h = np.array([0.5, -1.0, 2.0, 0.25])
    states = np.tile(h, (4, 1))
    out = message_step(p, g, states)
    for v in range(4):
        assert np.allclose(out[v], degree(g, v) * h, atol=0, rtol=0)


def test_message_step_locality_is_bitwise():
    p = init_params(8, seed=5)
    g = path_graph(6)  # node 0's only neighbor is 1
    rng = np.random.default_rng(0)
    states = rng.normal(size=(6, 8))
    base = message_step(p, g, states)
    perturbed = states.copy()
    perturbed[5] += 10.0  # node 5 is not adjacent to node 0
    out = message_step(p, g, perturbed)
    assert np.array_equal(out[0], base[0])


def test_message_step_shape_check():
    p = init_params(4, seed=0)
    with pytest.raises(ValueError):
        message_step(p, path_graph(3), np.zeros((3, 5)))


# -- stack build --------------------------------------------------------------


def _build_stack_coo(graphs):
    """Reference: the per-edge loop and COO-to-CSR conversion build_stack used
    before it built the CSR arrays directly. Returns (adjacency, offsets,
    node_graph)."""
    sizes = np.array([g.n for g in graphs], dtype=np.intp)
    offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    rows, cols = [], []
    for g, base in zip(graphs, offsets):
        for i, j in g.edge_list():
            rows += [base + i, base + j]
            cols += [base + j, base + i]
    adjacency = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(total, total)
    )
    adjacency.sort_indices()
    node_graph = np.repeat(np.arange(len(graphs), dtype=np.intp), sizes)
    return adjacency, offsets, node_graph


def _build_stack_frozenset(graphs):
    """Reference: the one-pass CSR build from each Graph's frozenset of
    edges, as build_stack did before it took GraphArrays. Returns
    (adjacency, offsets, node_graph)."""
    sizes = np.array([g.n for g in graphs], dtype=np.intp)
    offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    n_edges = np.array([len(g.edges) for g in graphs], dtype=np.intp)
    ends = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs)),
        dtype=np.int64,
        count=2 * int(n_edges.sum()),
    ).reshape(-1, 2)
    ends += np.repeat(offsets[:-1], n_edges)[:, None]
    i, j = ends.T
    keys = np.sort(np.concatenate((i * total + j, j * total + i)))
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends.ravel(), minlength=total), out=indptr[1:])
    adjacency = sp.csr_matrix(
        (np.ones(keys.size), keys % total, indptr), shape=(total, total)
    )
    node_graph = np.repeat(np.arange(len(graphs), dtype=np.intp), sizes)
    return adjacency, offsets, node_graph


@st.composite
def _graphs(draw):
    """A graph with 3..64 nodes and any edge set, the empty one included."""
    n = draw(st.integers(3, 64))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=4 * n))
    return Graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(st.lists(_graphs(), min_size=1, max_size=12))
@example([Graph(3, [])])
@example([Graph(3, []), Graph(5, [(0, 4)]), Graph(3, [])])
@example([Graph(64, itertools.combinations(range(64), 2))])
def test_build_stack_is_bitwise_equal_to_coo_reference(graphs):
    stack = build_stack(GraphArrays.of(graphs))
    for adjacency, offsets, node_graph in (_build_stack_coo(graphs),
                                           _build_stack_frozenset(graphs)):
        for name in ("indices", "indptr", "data"):
            got, want = getattr(stack.adjacency, name), getattr(adjacency, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert stack.adjacency.shape == adjacency.shape
        assert stack.adjacency.has_sorted_indices and adjacency.has_sorted_indices
        for got, want in ((stack.offsets, offsets), (stack.node_graph, node_graph)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert stack.sizes.tolist() == [g.n for g in graphs]
    # a stack of gathered graphs is the stack of those graphs
    index = np.arange(len(graphs))[::-1]
    gathered = build_stack(GraphArrays.of(graphs).take(index))
    adjacency, _, _ = _build_stack_coo([graphs[k] for k in index])
    for name in ("indices", "indptr", "data"):
        assert getattr(gathered.adjacency, name).tobytes() == getattr(adjacency, name).tobytes()


def _assert_same_stack(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.adjacency, name), getattr(want.adjacency, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.adjacency.indptr.dtype == got.adjacency.indices.dtype == np.int32
    assert got.adjacency.shape == want.adjacency.shape
    assert got.adjacency.has_sorted_indices
    for name in ("sizes", "offsets", "node_graph"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def _graph_arrays(draw):
    """The arrays of 1..12 graphs, edgeless ones included, as built, as a
    permuted ``take`` (repeats included) or as a ``slice`` of them."""
    graphs = draw(st.lists(_graphs(), min_size=1, max_size=12))
    arrays = GraphArrays.of(graphs)
    kind = draw(st.sampled_from(["built", "take", "slice"]))
    if kind == "take":
        index = draw(st.lists(st.integers(0, len(graphs) - 1), min_size=1, max_size=16))
        return arrays.take(np.array(index))
    if kind == "slice":
        start = draw(st.integers(0, len(graphs) - 1))
        return arrays.slice(start, draw(st.integers(start + 1, len(graphs))))
    return arrays


@settings(max_examples=80, deadline=None)
@given(_graph_arrays())
@example(GraphArrays.of([Graph(3, [])]))
@example(GraphArrays.of([complete_graph(64)]))
def test_build_stack_is_bitwise_equal_to_the_int64_key_reference(arrays):
    _assert_same_stack(build_stack(arrays), build_stack_int64_keys(arrays))


@pytest.mark.parametrize("total", [46_340, 46_341])
def test_build_stack_on_both_sides_of_the_int32_key_limit(total):
    """Up to 46,340 rows every key ``row * total + column`` fits in int32;
    from 46,341 rows the largest ones do not, and build_stack keys in int64."""
    largest_key = (total - 1) * total + total - 2  # the edge of the last two rows
    assert (largest_key < 2**31) == (total == 46_340)
    rng = np.random.default_rng(total)
    sizes = [64] * (total // 64) + [total % 64]
    ends, counts = [], []
    for n in sizes:
        i, j = np.triu_indices(n, 1)
        keep = rng.random(i.size) < 0.1
        keep[-1] = True  # an edge between the graph's last two nodes
        ends.append(np.column_stack((i[keep], j[keep])))
        counts.append(int(keep.sum()))
    arrays = GraphArrays.from_counts(sizes, counts, np.concatenate(ends).astype(np.intp))
    stack = build_stack(arrays)
    assert stack.n_total == total
    _assert_same_stack(stack, build_stack_int64_keys(arrays))


# -- GRU update ---------------------------------------------------------------


def test_gru_gate_closed_keeps_state():
    p = init_params(6, seed=2)
    p.gru.b_z = np.full(6, -50.0)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(4, 6))
    messages = rng.normal(size=(4, 6))
    out = gru_update(p, states, messages)
    assert np.max(np.abs(out - states)) < 1e-12


def test_gru_gate_open_moves_to_candidate():
    p = init_params(6, seed=2)
    p.gru.b_z = np.full(6, 50.0)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(4, 6))
    messages = rng.normal(size=(4, 6))
    out = gru_update(p, states, messages)
    r = 1.0 / (1.0 + np.exp(-(messages @ p.gru.w_r.T + states @ p.gru.u_r.T + p.gru.b_r)))
    candidate = np.tanh(
        messages @ p.gru.w_c.T + (r * states) @ p.gru.u_c.T + p.gru.b_c
    )
    assert np.max(np.abs(out - candidate)) < 1e-12


def test_gru_all_zero_inputs_and_biases_give_zero():
    p = init_params(5, seed=0)
    out = gru_update(p, np.zeros((3, 5)), np.zeros((3, 5)))
    assert np.array_equal(out, np.zeros((3, 5)))


def _gru_step_allocating(gru, states, messages):
    """Reference: the GRU step before it wrote into caller buffers, one fresh
    array per operation and the overflow silenced per sigmoid."""

    def sigmoid(a):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-a))

    z = sigmoid(messages @ gru.w_z.T + states @ gru.u_z.T + gru.b_z)
    r = sigmoid(messages @ gru.w_r.T + states @ gru.u_r.T + gru.b_r)
    reset_state = r * states
    c = np.tanh(messages @ gru.w_c.T + reset_state @ gru.u_c.T + gru.b_c)
    new_states = (1.0 - z) * states + z * c
    return new_states, z, r, c, reset_state


def _forward_stack_allocating(params, stack, rounds, mode):
    """Reference: forward_stack's loop around ``_gru_step_allocating``; returns
    the ForwardCache it would have built."""
    x = initial_state(stack.n_total, params.hidden_size)
    states, per_round = [x], []
    for _ in range(rounds):
        m = stack.adjacency @ (x @ params.w_msg.T)
        x, z, r, c, _ = _gru_step_allocating(params.gru, x, m)
        per_round.append((m, z, r, c))
        states.append(x)
    if mode == "local":
        readout_input, ro = x, params.readout_local
    else:
        readout_input, ro = model._segment_mean(x, stack), params.readout_global
    estimates, preact, hidden = model._readout_rows(ro, readout_input)
    messages, z, r, c = (list(arrays) for arrays in zip(*per_round))
    return ForwardCache(mode, rounds, stack, states, messages, z, r, c,
                        readout_input, preact, hidden, estimates)


def _backward_stack_allocating(params, cache, targets):
    """Reference: the reverse pass with one ``+=`` per weight-gradient tensor
    per round, each on its own view of the flat gradient."""
    stack, mode, n_graphs = cache.stack, cache.mode, len(cache.stack.sizes)
    grad = np.zeros(param_count(params.hidden_size))
    grads = param_views(grad, params.hidden_size)
    gru, g_gru = params.gru, grads.gru
    if mode == "local":
        err = cache.estimates - np.repeat(targets, stack.sizes)
        d_est = err / (stack.sizes[stack.node_graph] * n_graphs)
        ro, g_ro = params.readout_local, grads.readout_local
    else:
        d_est = (cache.estimates - targets) / n_graphs
        ro, g_ro = params.readout_global, grads.readout_global
    d_preact = np.where(cache.readout_preact > 0.0, d_est[:, None] * ro.w2[None, :], 0.0)
    g_ro.w1 += d_preact.T @ cache.readout_input
    g_ro.b1 += d_preact.sum(axis=0)
    g_ro.w2 += cache.readout_hidden.T @ d_est
    g_ro.b2 += float(d_est.sum())
    d_input = d_preact @ ro.w1
    dx = d_input if mode == "local" else np.repeat(
        d_input / stack.sizes[:, None], stack.sizes, axis=0)
    for t in range(cache.rounds - 1, -1, -1):
        x_prev, m = cache.states[t], cache.messages[t]
        z, r, c = cache.update_gates[t], cache.reset_gates[t], cache.candidates[t]
        dz = dx * (c - x_prev)
        dx_prev = dx * (1.0 - z)
        d_ac = dx * z * (1.0 - c * c)
        g_gru.w_c += d_ac.T @ m
        g_gru.u_c += d_ac.T @ (r * x_prev)
        g_gru.b_c += d_ac.sum(axis=0)
        dm = d_ac @ gru.w_c
        d_rs = d_ac @ gru.u_c
        dx_prev += d_rs * r
        d_ar = d_rs * x_prev * r * (1.0 - r)
        g_gru.w_r += d_ar.T @ m
        g_gru.u_r += d_ar.T @ x_prev
        g_gru.b_r += d_ar.sum(axis=0)
        dm += d_ar @ gru.w_r
        dx_prev += d_ar @ gru.u_r
        d_az = dz * z * (1.0 - z)
        g_gru.w_z += d_az.T @ m
        g_gru.u_z += d_az.T @ x_prev
        g_gru.b_z += d_az.sum(axis=0)
        dm += d_az @ gru.w_z
        dx_prev += d_az @ gru.u_z
        d_sent = stack.adjacency @ dm
        grads.w_msg += d_sent.T @ x_prev
        dx = dx_prev + d_sent @ params.w_msg
    return float(np.mean(model.stack_losses(cache.estimates, stack, targets, mode))), grad


def _perturbed_params(h, seed):
    """Initial parameters with every coordinate moved, biases included."""
    vec = flatten_params(init_params(h, seed))
    vec += np.random.default_rng(seed).normal(scale=0.3, size=vec.size)
    return unflatten_params(vec, h)


_CACHE_LISTS = ("states", "messages", "update_gates", "reset_gates", "candidates")
_CACHE_ARRAYS = ("readout_input", "readout_preact", "readout_hidden", "estimates")


@pytest.mark.parametrize("rounds", [1, 2, 8])
@pytest.mark.parametrize("mode", MODES)
def test_forward_backward_bitwise_equal_to_allocating_reference(mode, rounds):
    p = _perturbed_params(8, seed=31)
    graphs = [rand_graph(200 + i, 3, 20) for i in range(5)] + [Graph(3, [])]
    stack = build_stack(GraphArrays.of(graphs))
    targets = np.linspace(0.2, 2.0, len(graphs))
    params_before = flatten_params(p).tobytes()
    adjacency_before = [a.tobytes() for a in (stack.adjacency.data,
                        stack.adjacency.indices, stack.adjacency.indptr)]

    want = _forward_stack_allocating(p, stack, rounds, mode)
    est, cache = forward_stack(p, stack, rounds, mode, want_cache=True)
    est_nocache, none = forward_stack(p, stack, rounds, mode, want_cache=False)
    assert none is None
    assert est.tobytes() == est_nocache.tobytes() == want.estimates.tobytes()
    for name in _CACHE_LISTS:
        got, ref = getattr(cache, name), getattr(want, name)
        assert len(got) == len(ref), name
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref)), name
    for name in _CACHE_ARRAYS:
        assert getattr(cache, name).tobytes() == getattr(want, name).tobytes(), name

    # the cache keeps every round: no two of its arrays may share memory
    kept = [a for name in _CACHE_LISTS for a in getattr(cache, name)]
    for a, b in itertools.combinations(kept, 2):
        assert not np.shares_memory(a, b)

    loss, grads = backward_stack(p, cache, targets)
    ref_loss, ref_grads = _backward_stack_allocating(p, want, targets)
    assert loss.hex() == ref_loss.hex()
    assert grads.tobytes() == ref_grads.tobytes()

    assert flatten_params(p).tobytes() == params_before
    assert [a.tobytes() for a in (stack.adjacency.data, stack.adjacency.indices,
            stack.adjacency.indptr)] == adjacency_before


@pytest.mark.parametrize("h, n", [(1, 1), (8, 1), (8, 7), (32, 40)])
def test_gru_update_bitwise_equal_to_allocating_reference(h, n):
    p = _perturbed_params(h, seed=h + n)
    rng = np.random.default_rng(n)
    states = rng.normal(size=(n, h))
    messages = rng.normal(scale=3.0, size=(n, h))
    inputs = states.tobytes() + messages.tobytes()
    want = _gru_step_allocating(p.gru, states, messages)[0]
    assert gru_update(p, states, messages).tobytes() == want.tobytes()
    assert states.tobytes() + messages.tobytes() == inputs
    # and the same for column-major inputs
    fortran = np.asfortranarray(states)
    want_f = _gru_step_allocating(p.gru, fortran, messages)[0]
    assert gru_update(p, fortran, messages).tobytes() == want_f.tobytes()


def test_large_weights_saturate_without_runtime_warnings():
    h = 8
    p = unflatten_params(flatten_params(init_params(h, seed=5)) * 1e3, h)
    rng = np.random.default_rng(0)
    states = rng.normal(size=(6, h))
    messages = rng.normal(size=(6, h))
    # exp(-a) overflows once a gate input a drops below about -709
    gate_input = messages @ p.gru.w_z.T + states @ p.gru.u_z.T + p.gru.b_z
    assert gate_input.min() < -710.0
    small = build_stack(GraphArrays.of([rand_graph(s) for s in (1, 2, 3)]))
    split = _stack_of_sizes([8] * 16, 2)
    with _split_small(), warnings.catch_warnings():
        assert len(model._row_parts(split, h)) == 2
        warnings.simplefilter("error")
        out = gru_update(p, states, messages)
        assert np.all(np.isfinite(out))
        for stack in (small, split):
            for mode in MODES:
                for want_cache in (True, False):
                    est, _ = forward_stack(p, stack, 8, mode, want_cache=want_cache)
                    assert np.all(np.isfinite(est))


# -- readouts -----------------------------------------------------------------


def test_readout_local_zero_weights_returns_bias():
    p = init_params(4, seed=0)
    p.readout_local.w1[:] = 0.0
    p.readout_local.w2[:] = 0.0
    p.readout_local.b2 = 2.5
    assert readout_local(p, np.ones(4)) == 2.5


def test_readout_local_relu_kills_negative_preactivations():
    p = init_params(4, seed=0)
    p.readout_local.w1 = -np.eye(4)
    p.readout_local.b1 = np.zeros(4)
    p.readout_local.b2 = -1.25
    assert readout_local(p, np.ones(4)) == -1.25


def readout_global(params, states):
    """Reference: mean-pool one graph's states, then the global readout MLP,
    computed as ``model.readout_global`` did."""
    pooled = np.asarray(states, dtype=float).mean(axis=0)
    estimates, _, _ = model._readout_rows(params.readout_global, pooled[None, :])
    return float(estimates[0])


def test_readout_global_permutation_and_pooling():
    p = init_params(5, seed=3)
    rng = np.random.default_rng(7)
    states = rng.normal(size=(6, 5))
    base = readout_global(p, states)
    shuffled = states[rng.permutation(6)]
    assert readout_global(p, shuffled) == pytest.approx(base, abs=1e-12)
    # single row pools to itself; equal rows pool to the shared row
    row = states[2]
    single = readout_global(p, row[None, :])
    tiled = readout_global(p, np.tile(row, (4, 1)))
    assert tiled == pytest.approx(single, abs=1e-12)


# -- forward ------------------------------------------------------------------


def test_forward_global_invariant_under_isomorphism():
    p = init_params(12, seed=4)
    rng = np.random.default_rng(3)
    for trial in range(5):
        g = rand_graph(60 + trial)
        perm = rng.permutation(g.n)
        a, _ = forward(p, g, 4, "global")
        b, _ = forward(p, permute(g, perm), 4, "global")
        assert b == pytest.approx(a, abs=1e-9)


def test_forward_local_equivariant_under_isomorphism():
    p = init_params(10, seed=4)
    rng = np.random.default_rng(5)
    for trial in range(5):
        g = rand_graph(80 + trial)
        perm = rng.permutation(g.n)
        est, _ = forward(p, g, 3, "local")
        est_p, _ = forward(p, permute(g, perm), 3, "local")
        assert np.max(np.abs(est_p[perm] - est)) < 1e-9


def test_forward_vertex_transitive_graph_gives_equal_estimates():
    p = init_params(16, seed=1)
    est, _ = forward(p, cycle_graph(5), 4, "local")
    assert np.max(np.abs(est - est[0])) < 1e-9


def test_forward_depth_changes_output():
    p = init_params(8, seed=2)
    g = rand_graph(99)
    one, _ = forward(p, g, 1, "local")
    two, _ = forward(p, g, 2, "local")
    assert np.max(np.abs(one - two)) > 1e-8


def test_forward_is_deterministic_bitwise():
    p = init_params(16, seed=9)
    g = rand_graph(123)
    a, _ = forward(p, g, 8, "local")
    b, _ = forward(p, g, 8, "local")
    assert np.array_equal(a, b)


def test_forward_cache_rounds_are_views_into_one_block():
    p = init_params(6, seed=0)
    stack = build_stack(GraphArrays.of([path_graph(4), cycle_graph(5)]))
    _, cache = forward_stack(p, stack, 3, "local")
    per_round = (cache.update_gates, cache.reset_gates, cache.candidates, cache.states[1:])
    block = cache.update_gates[0].base
    assert block.shape == (3, 4, 9, 6)
    for slot, arrays in enumerate(per_round):
        for t, a in enumerate(arrays):
            assert a.base is block
            assert a.ctypes.data == block[t, slot].ctypes.data
    assert cache.states[0].base is not block


def test_training_pass_caches_five_slabs_per_round():
    """A 256-graph batch at H=32, T=8, local mode, run as two parts. The
    cache keeps, per round, the state, message, z, r and c: five (rows, H)
    slabs, plus the initial state; the reverse pass recomputes r * state.
    Forward plus backward peaks (tracemalloc) below that cache, plus the
    reverse pass's two (4, rows, H) gate-gradient buffers, plus 8 slabs: the
    readout's cached preactivation and hidden layer, the readout gradient,
    the reset state the u_c sum reads, the state gradient, the parts'
    product buffers and sparse products (15.08 slabs over the cache in all)."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.8), seed=41)
    stack = build_stack(GraphArrays.of([generate_connected_graph(cfg, i) for i in range(256)]))
    assert len(model._row_parts(stack, 32)) == 2
    p = init_params(32, seed=41)
    targets = np.linspace(0.2, 2.0, 256)
    slab = stack.n_total * 32 * 8

    def train_step():
        _, cache = forward_stack(p, stack, 8, "local")
        backward_stack(p, cache, targets)
        return sum(a.nbytes for name in _CACHE_LISTS for a in getattr(cache, name))

    train_step()  # the part worker starts outside the traced call
    cache_bytes, peak = traced_peak(train_step)
    assert cache_bytes == (5 * 8 + 1) * slab
    assert peak < cache_bytes + 2 * 4 * slab + 8 * slab


def test_forward_cache_records_all_steps():
    p = init_params(6, seed=0)
    g = path_graph(4)
    est, cache = forward(p, g, 3, "local")
    assert len(cache.states) == 4
    assert len(cache.messages) == 3
    assert len(cache.update_gates) == 3
    assert cache.states[0].shape == (4, 6)
    assert np.array_equal(cache.estimates, est)
    with pytest.raises(ValueError):
        forward(p, g, 0, "local")
    with pytest.raises(ValueError):
        forward(p, g, 2, "sideways")


# -- split stacks -------------------------------------------------------------


def _one_part():
    """Run every stack as one part, the reference a split pass must match."""
    return mock.patch.object(model, "PART_MIN_ROWS", sys.maxsize)


def _split_small():
    """Split every stack with ``PART_MIN_ROWS`` rows on each side, however
    few state values its parts hold, so small stacks test the split."""
    return mock.patch.object(model, "PART_MIN_VALUES", 0)


def _edgeless_stack(sizes):
    return build_stack(GraphArrays.from_counts(sizes, [0] * len(sizes), np.empty(0, np.intp)))


# (graph sizes, H, parts): each part needs 64 rows and 8192 state values (rows x H)
ROW_PARTS_TABLE = [
    ([10], 64, 1),                  # one graph
    ([1] * 128, 128, 2),            # 64 rows and 8192 values on each side
    ([1] * 128, 127, 1),            # 64 rows but 8128 values
    ([1] * 127, 256, 1),            # 63 rows on one side, 16128 values
    ([1] * 512, 32, 2),             # 256 x 32 on each side
    ([1] * 511, 32, 1),             # the cut leaves 255 x 32 on one side
    ([64] * 256, 1, 2),             # 8192 x 1 on each side
    ([64] * 255 + [63], 1, 1),      # 8191 x 1 after the cut
    ([8] * 16, 64, 1),              # 64 rows x 64 = 4096 values on each side
    ([10] * 16, 32, 1),             # 160 rows: 80 x 32 on each side
    ([10] * 64, 32, 2),             # 640 rows: 320 x 32 on each side
    ([10] * 128, 8, 1),             # 1280 rows: 640 x 8 on each side
    ([10] * 256, 8, 2),             # 2560 rows: 1280 x 8 on each side
]


@pytest.mark.parametrize("sizes, h, n_parts", ROW_PARTS_TABLE)
def test_row_parts_needs_rows_and_values_on_each_side(sizes, h, n_parts):
    assert (model.PART_MIN_ROWS, model.PART_MIN_VALUES) == (64, 1 << 13)
    stack = _edgeless_stack(sizes)
    parts = model._row_parts(stack, h)
    assert len(parts) == n_parts
    assert parts[0].start == 0 and parts[-1].stop == stack.n_total
    if n_parts == 2:
        assert parts[0].stop == parts[1].start
        assert parts[0].stop in stack.offsets


def _stack_of_sizes(sizes, seed):
    return build_stack(GraphArrays.of([rand_graph(seed + i, n, n) for i, n in enumerate(sizes)]))


# 127 rows: the boundary nearest the middle leaves 63 rows on one side; 128
# rows: 64 on each side; 198 rows of mixed sizes: the boundary sits off the middle
SPLIT_STACKS = {
    "127-rows": ([8] * 7 + [7] + [8] * 8, 1, 1),
    "128-rows": ([8] * 16, 2, 2),
    "198-rows": ([3, 20, 9, 5, 17, 4, 12, 6, 19, 8, 11, 7, 15, 10, 14, 18, 20], 3, 2),
}


def _full_pass(p, stack, rounds, mode, targets):
    """Estimates with and without a cache, the cache, loss and gradient."""
    est, cache = forward_stack(p, stack, rounds, mode, want_cache=True)
    est_nocache, _ = forward_stack(p, stack, rounds, mode, want_cache=False)
    return est, est_nocache, cache, *backward_stack(p, cache, targets)


def _assert_same_pass(got, want):
    est, est_nocache, cache, loss, grad = got
    ref, ref_nocache, ref_cache, ref_loss, ref_grad = want
    assert est.tobytes() == est_nocache.tobytes() == ref.tobytes() == ref_nocache.tobytes()
    for name in _CACHE_LISTS:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(getattr(cache, name), getattr(ref_cache, name))), name
    for name in _CACHE_ARRAYS:
        assert getattr(cache, name).tobytes() == getattr(ref_cache, name).tobytes(), name
    assert loss.hex() == ref_loss.hex()
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("rounds", [1, 2, 8])
@pytest.mark.parametrize("h", [1, 8, 32, 64])
@pytest.mark.parametrize("case", list(SPLIT_STACKS))
def test_split_stack_is_bitwise_equal_to_one_part(case, h, rounds):
    sizes, seed, n_parts = SPLIT_STACKS[case]
    stack = _stack_of_sizes(sizes, seed)
    p = _perturbed_params(h, seed=h + rounds)
    targets = np.linspace(0.2, 2.0, len(sizes))
    for mode in MODES:
        with _split_small():
            assert len(model._row_parts(stack, h)) == n_parts
            got = _full_pass(p, stack, rounds, mode, targets)
        with _one_part():
            want = _full_pass(p, stack, rounds, mode, targets)
        _assert_same_pass(got, want)


def test_split_stack_of_a_training_batch_is_bitwise_equal_to_one_part():
    """A batch the size the benchmark trains on: 256 graphs of 9-11 nodes,
    which the rule splits at H=32 with no patch."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.8), seed=41)
    arrays = GraphArrays.of([generate_connected_graph(cfg, i) for i in range(256)])
    stack = build_stack(arrays)
    assert len(model._row_parts(stack, 32)) == 2
    p = _perturbed_params(32, seed=41)
    targets = np.linspace(0.2, 2.0, len(arrays))
    est, cache = forward_stack(p, stack, 8, "local")
    loss, grad = backward_stack(p, cache, targets)
    with _one_part():
        ref, ref_cache = forward_stack(p, stack, 8, "local")
        ref_loss, ref_grad = backward_stack(p, ref_cache, targets)
    assert est.tobytes() == ref.tobytes()
    for name in _CACHE_LISTS:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(getattr(cache, name), getattr(ref_cache, name))), name
    # and both match the per-tensor reverse pass at this size too
    want_loss, want_grad = _backward_stack_allocating(p, ref_cache, targets)
    assert loss.hex() == ref_loss.hex() == want_loss.hex()
    assert grad.tobytes() == ref_grad.tobytes() == want_grad.tobytes()


def _assert_block_is_the_submatrix(adjacency, rows):
    got, want = model._diagonal_block(adjacency, rows), adjacency[rows, rows]
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(st.lists(_graphs(), min_size=1, max_size=8))
def test_diagonal_block_at_every_graph_boundary_is_the_submatrix(graphs):
    stack = build_stack(GraphArrays.of(graphs))
    n = stack.n_total
    for cut in stack.offsets.tolist():
        for rows in (slice(0, cut), slice(cut, n)):
            _assert_block_is_the_submatrix(stack.adjacency, rows)


def test_diagonal_block_of_every_split_part_is_the_submatrix():
    """Each part ``_row_parts`` makes, at every H the split tests use, and
    the parts of a training-size batch with no patch."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.8), seed=41)
    batch = build_stack(GraphArrays.of([generate_connected_graph(cfg, i) for i in range(256)]))
    assert len(model._row_parts(batch, 32)) == 2
    for rows in model._row_parts(batch, 32):
        _assert_block_is_the_submatrix(batch.adjacency, rows)
    with _split_small():
        for sizes, seed, n_parts in SPLIT_STACKS.values():
            stack = _stack_of_sizes(sizes, seed)
            for h in (1, 8, 32, 64):
                parts = model._row_parts(stack, h)
                assert len(parts) == n_parts
                for rows in parts:
                    _assert_block_is_the_submatrix(stack.adjacency, rows)


@pytest.mark.parametrize("h", [8, 16, 32, 64])
def test_matmul_row_bits_do_not_depend_on_rows_or_offset(h):
    """The platform property a split pass rests on: in a product of at least
    ``PART_MIN_ROWS`` rows with an ``(H, H)`` weight, a row gets the bits it
    gets in any other such product, at any offset in the block and written
    with or without ``out=``. A BLAS that breaks it fails here."""
    rng = np.random.default_rng(h)
    w = param_views(rng.normal(size=param_count(h)), h).gru.w_z
    x = rng.normal(size=(400, h))
    full = x @ w.T
    lo = model.PART_MIN_ROWS
    for rows in (lo, lo + 1, 97, 128, 200, 333):
        out = np.empty((rows, h))
        for offset in sorted({0, 1, 3, 17, 63, 64, 65, 400 - rows}):
            if offset + rows > 400:
                continue
            part = x[offset : offset + rows]
            np.matmul(part, w.T, out=out)
            want = full[offset : offset + rows].tobytes()
            assert (part @ w.T).tobytes() == want == out.tobytes(), (rows, offset)


def test_split_pass_runs_the_worker_under_the_callers_errstate():
    stack = _stack_of_sizes([8] * 16, 2)
    seen = []

    def spy(*args):
        seen.append((threading.current_thread(), np.geterr()))
        return run_rounds(*args)

    run_rounds = model._run_rounds
    p = init_params(8, seed=0)
    with (_split_small(), mock.patch.object(model, "_run_rounds", spy),
          np.errstate(invalid="ignore")):
        forward_stack(p, stack, 2, "global", want_cache=False)
    assert len(seen) == 2
    assert seen[0][0] is not seen[1][0]
    for _, err in seen:
        assert err["invalid"] == "ignore" and err["over"] == "ignore"


def _split_estimates(p, stack):
    return forward_stack(p, stack, 2, "local")[0].tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_pass_runs_in_a_forked_child():
    """A child forked after a split pass starts a worker of its own instead
    of waiting on the parent's, whose thread it did not inherit."""
    stack = _stack_of_sizes([8] * 16, 2)
    p = init_params(8, seed=0)
    with _split_small():  # the child inherits the patched threshold
        want = _split_estimates(p, stack)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_split_estimates, (p, stack)).get(timeout=60) == want


def _pass_bytes(p, stack, targets):
    """Estimates, loss and gradient of one forward and backward pass."""
    est, cache = forward_stack(p, stack, 4, "local")
    loss, grad = backward_stack(p, cache, targets)
    return est.tobytes(), loss.hex(), grad.tobytes()


def test_split_passes_from_many_threads_stay_bitwise():
    """Four callers (more than the cores) share the one part worker with a
    short switch interval, in forward and backward passes; every pass still
    gives the one-part bits."""
    sizes = [3, 20, 9, 5, 17, 4, 12, 6, 19, 8, 11, 7, 15, 10, 14, 18, 20]
    stack = _stack_of_sizes(sizes, 3)
    p = _perturbed_params(16, seed=5)
    targets = np.linspace(0.2, 2.0, len(sizes))
    with _one_part():
        want = _pass_bytes(p, stack, targets)
    results, errors = [], []

    def caller():
        try:
            for _ in range(20):
                results.append(_pass_bytes(p, stack, targets))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _split_small():
            assert len(model._row_parts(stack, 16)) == 2
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [want] * 80


def _split_case():
    """Parameters, a forward cache of the 198-row stack (H=8, T=3) and its
    targets: the input of a backward pass that splits under _split_small."""
    sizes = SPLIT_STACKS["198-rows"][0]
    p = _perturbed_params(8, seed=3)
    _, cache = forward_stack(p, _stack_of_sizes(sizes, 3), 3, "local")
    return p, cache, np.linspace(0.2, 2.0, len(sizes))


def _on_worker() -> bool:
    return threading.current_thread().name.startswith("fiedler-part")


@contextlib.contextmanager
def _backward_jobs(sums=None, chain=None):
    """Number each thread's ``_reverse_step`` jobs from 0, and call
    ``sums(job)`` before each weight-sums call and ``chain(job)`` after each
    chain round, in the thread and job they run in. Yields the lists of the
    jobs started and ended, as ``(on_worker, job)``."""
    started, ended, local = [], [], threading.local()
    step, weight_sums, rounds = model._reverse_step, model._weight_sums, model._reverse_rounds

    def step_spy(*args):
        local.job = sum(1 for worker, _ in started if worker == _on_worker())
        started.append((_on_worker(), local.job))
        try:
            step(*args)
        finally:
            ended.append((_on_worker(), local.job))

    def sums_spy(*args):
        if sums is not None:
            sums(local.job)
        weight_sums(*args)

    def rounds_spy(*args):
        for _ in rounds(*args):
            if chain is not None:
                chain(local.job)
            yield

    with (mock.patch.object(model, "_reverse_step", step_spy),
          mock.patch.object(model, "_weight_sums", sums_spy),
          mock.patch.object(model, "_reverse_rounds", rounds_spy)):
        yield started, ended


def _call_within(seconds, fn, *args):
    """``fn(*args)`` on a thread of its own; fails unless it returns or
    raises within ``seconds``."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # re-raised below, in the test's thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_overlapped_backward_sums_on_the_worker_under_the_callers_errstate():
    """T=3 split: the worker runs four jobs, its three rounds of sums and of
    its part's chain under the caller's np.errstate; the caller adds the
    readout's sums and three rounds'. One part: every job on the caller."""
    p, cache, targets = _split_case()
    for split, on_worker in ((_split_small, True), (_one_part, False)):
        seen = []
        record = lambda job: seen.append((_on_worker(), np.geterr()["invalid"]))
        with (split(), _backward_jobs(record, record) as (started, _),
              np.errstate(invalid="ignore")):
            backward_stack(p, cache, targets)
        assert sum(worker for worker, _ in started) == (4 if on_worker else 0)
        assert sum(worker for worker, _ in seen) == (6 if on_worker else 0)
        # the readout's sums and two spans per round; three rounds per part
        assert len(seen) == 1 + 2 * 3 + 3 * (2 if on_worker else 1)
        assert all(invalid == "ignore" for _, invalid in seen)


def _assert_error_reaches_the_caller(on_worker, k):
    """An error in the sums, then in the chain, of job k of the worker or the
    caller (T=3 split: jobs 0..3, each thread's job 3 adds round 0's sums
    alone, and the worker's job 0 adds none) is raised by the call, which
    starts no later job; the next call gives the one-part bits."""
    p, cache, targets = _split_case()
    with _one_part():
        want_loss, want = backward_stack(p, cache, targets)
    for kind, has_kind in (("sums", k > 0 or not on_worker), ("chain", k < 3)):
        def fail(job):
            if (_on_worker(), job) == (on_worker, k):
                raise FloatingPointError(f"{kind} {k}")

        with _split_small():
            with _backward_jobs(**{kind: fail}) as (started, _):
                if has_kind:
                    with pytest.raises(FloatingPointError, match=f"^{kind} {k}$"):
                        _call_within(60, backward_stack, p, cache, targets)
                    assert max(job for _, job in started) == k
                else:
                    _call_within(60, backward_stack, p, cache, targets)
            got_loss, got = backward_stack(p, cache, targets)
        assert got_loss.hex() == want_loss.hex()
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_overlapped_backward_raises_a_worker_error_and_recovers(k):
    _assert_error_reaches_the_caller(True, k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_overlapped_backward_raises_a_caller_error_and_recovers(k):
    _assert_error_reaches_the_caller(False, k)


@pytest.mark.parametrize("chain_fails", [False, True])
def test_overlapped_backward_returns_only_after_its_last_sums(chain_fails):
    """Slow worker jobs: the call, returning or raising from the caller's
    chain in job 1 of 4, waits until every job it started has ended."""
    p, cache, targets = _split_case()

    def slow(job):
        if _on_worker():
            time.sleep(0.05)

    def chain(job):
        slow(job)
        if chain_fails and not _on_worker() and job == 1:
            raise FloatingPointError("chain")

    with _split_small(), _backward_jobs(slow, chain) as (started, ended):
        if chain_fails:
            with pytest.raises(FloatingPointError, match="chain"):
                backward_stack(p, cache, targets)
        else:
            backward_stack(p, cache, targets)
        done = len(ended)
    assert done == len(started) == (4 if chain_fails else 8)


def _assert_split_matches_one_part(h):
    """A 256-graph batch, both modes, T=2: the pass cut in two parts gives
    the bits of the pass in one, each running round 1 on the degree table."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.8), seed=41)
    stack = build_stack(GraphArrays.of([generate_connected_graph(cfg, i) for i in range(256)]))
    assert len(model._row_parts(stack, h)) == 2
    p = _perturbed_params(h, seed=h)
    targets = np.linspace(0.2, 2.0, len(stack.sizes))
    for mode in MODES:
        got = _full_pass(p, stack, 2, mode, targets)
        with mock.patch.object(model, "PART_MIN_VALUES", sys.maxsize):
            assert len(model._row_parts(stack, h)) == 1
            want = _full_pass(p, stack, 2, mode, targets)
        _assert_same_pass(got, want)


def test_split_stack_above_h64_is_bitwise_one_part_at_one_and_two_blas_threads():
    """And at H=20 and 27, where an NN product's row bits depend on its
    length: the reverse chain must multiply with the NT kernel."""
    run_at_one_and_two_blas_threads(
        "import test_model as t\n"
        "for h in (20, 27, 100, 128, 256):\n"
        "    t._assert_split_matches_one_part(h)\n"
    )


# -- round 1 per degree ---------------------------------------------------------


# Stacks around the 64-row rule, one without edges, and one whose degrees 0..63
# fill the 64-row table: K3..K64, an edgeless graph and a path.
TABLE_STACKS = {
    "63-rows": _stack_of_sizes([9] * 7, 4),
    "64-rows": _stack_of_sizes([8] * 8, 5),
    "65-rows": _stack_of_sizes([8] * 7 + [9], 6),
    "edgeless": _edgeless_stack([10] * 12),
    "64-degrees": build_stack(GraphArrays.of(
        [Graph(3, []), path_graph(3)] + [complete_graph(n) for n in range(3, 65)])),
}


def _assert_table_matches_direct(stack, h, rounds):
    """Both modes give the bits of the direct round 1, the threshold patched off."""
    p = _perturbed_params(h, seed=h + rounds)
    targets = np.linspace(0.2, 2.0, len(stack.sizes))
    for mode in MODES:
        got = _full_pass(p, stack, rounds, mode, targets)
        with _one_part():
            want = _full_pass(p, stack, rounds, mode, targets)
        _assert_same_pass(got, want)


@pytest.mark.parametrize("rounds", [1, 2, 8])
@pytest.mark.parametrize("h", [1, 8, 16, 32, 64])
@pytest.mark.parametrize("case", list(TABLE_STACKS))
def test_degree_table_is_bitwise_equal_to_the_direct_round(case, h, rounds):
    _assert_table_matches_direct(TABLE_STACKS[case], h, rounds)


def test_degree_table_has_one_row_per_distinct_degree():
    p = init_params(4, seed=0)
    for case in ("65-rows", "64-degrees"):
        degree = np.diff(TABLE_STACKS[case].adjacency.indptr)
        row, table = model._degree_table(p, TABLE_STACKS[case].adjacency)
        assert (np.unique(degree)[row] == degree).all()
        assert all(a.shape == (64, 4) for a in table)
    assert np.unique(degree).size == 64


@st.composite
def _graphs_of_any_density(draw):
    """A graph with 3..64 nodes whose node pairs are edges with probability p."""
    n, p = draw(st.integers(3, 64)), draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < p
    return Graph(n, zip(i[keep].tolist(), j[keep].tolist()))


@settings(max_examples=30, deadline=None)
@given(st.lists(_graphs_of_any_density(), min_size=1, max_size=8).filter(
           lambda gs: sum(g.n for g in gs) >= model.PART_MIN_ROWS),
       st.sampled_from([1, 8, 32]), st.integers(1, 3))
def test_degree_table_is_bitwise_on_random_stacks(graphs, h, rounds):
    _assert_table_matches_direct(build_stack(GraphArrays.of(graphs)), h, rounds)


def _calls(name):
    """A patch that records every call of ``model.<name>`` and the list of them."""
    calls, real = [], getattr(model, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    return calls, mock.patch.object(model, name, spy)


def test_degree_table_is_built_once_per_pass():
    """A training-size batch splits in two parts but builds one table per
    pass; a graph alone, ``grad_check`` and stacks under 64 rows build none."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.8), seed=41)
    batch = build_stack(GraphArrays.of([generate_connected_graph(cfg, i) for i in range(256)]))
    assert len(model._row_parts(batch, 32)) == 2
    tables, table_patch = _calls("_degree_table")
    parts, parts_patch = _calls("_run_rounds")
    p = init_params(32, seed=0)
    with table_patch, parts_patch:
        for want_cache in (True, False):
            forward_stack(p, batch, 3, "local", want_cache=want_cache)
        assert len(tables) == 2
        assert [len(args[-1]) for args in parts] == [2] * 4  # rounds 2 and 3, per part
        forward_stack(p, batch, 1, "global")
        assert len(tables) == 3

        small = init_params(4, seed=0)
        g = rand_graph(7, 9, 11)
        forward(small, g, 2, "local")
        grad_check(small, g, 2, "global")
        forward_stack(small, TABLE_STACKS["63-rows"], 2, "local")
        assert len(tables) == 3
        forward_stack(small, TABLE_STACKS["64-rows"], 2, "local")
        assert len(tables) == 4


def test_degree_table_is_bitwise_at_one_and_two_blas_threads():
    """The table check on a stack that also splits in two parts, at each
    BLAS thread count."""
    run_at_one_and_two_blas_threads(
        "import test_model as t\n"
        "for h in (8, 32):\n"
        "    t._assert_table_matches_direct(t.TABLE_STACKS['64-degrees'], h, 2)\n"
        "    t._assert_table_matches_direct(t.TABLE_STACKS['65-rows'], h, 2)\n"
    )


# -- backward -----------------------------------------------------------------


def test_backward_zero_error_gives_zero_gradients():
    p = init_params(8, seed=6)
    g = rand_graph(7)
    est, cache = forward(p, g, 2, "global")
    loss, grads = backward_stack(p, cache, np.array([est]))
    assert loss == 0.0
    assert np.array_equal(grads, np.zeros(param_count(8)))


def test_backward_b2_gradient_is_mean_residual():
    p = init_params(8, seed=6)
    g = rand_graph(8)
    target = 1.25
    est, cache = forward(p, g, 3, "local")
    loss, grad = backward_stack(p, cache, np.array([target]))
    grads = param_views(grad, 8)
    assert loss == pytest.approx(np.sum((est - target) ** 2) / (2 * g.n), rel=1e-12)
    assert grads.readout_local.b2 == pytest.approx(
        np.mean(est - target), rel=1e-12
    )
    # the inactive readout receives no gradient
    assert np.array_equal(grads.readout_global.w1, np.zeros((8, 8)))


def test_backward_deterministic_bitwise():
    p = init_params(12, seed=11)
    g = rand_graph(12)
    _, cache = forward(p, g, 4, "local")
    _, g1 = backward_stack(p, cache, np.array([0.7]))
    _, g2 = backward_stack(p, cache, np.array([0.7]))
    assert np.array_equal(g1, g2)


def test_stacked_batch_matches_mean_of_single_graphs():
    p = init_params(8, seed=13)
    graphs = [rand_graph(20 + i) for i in range(3)]
    targets = np.array([0.5, 1.5, 2.5])
    for mode in ("local", "global"):
        stack = build_stack(GraphArrays.of(graphs))
        _, cache = forward_stack(p, stack, 3, mode)
        batch_loss, batch_grads = backward_stack(p, cache, targets)
        single_losses = []
        single_grads = np.zeros(param_count(8))
        for g, t in zip(graphs, targets):
            _, c = forward(p, g, 3, mode)
            loss, grads = backward_stack(p, c, np.array([t]))
            single_losses.append(loss)
            single_grads += grads
        assert batch_loss == pytest.approx(np.mean(single_losses), rel=1e-12)
        assert batch_grads == pytest.approx(
            single_grads / 3.0, rel=1e-10, abs=1e-12
        )


# -- gradient check -----------------------------------------------------------


def test_grad_check_passes_on_seeded_instances():
    for mode, gseed, pseed, rounds in (
        ("local", 342, 942, 2),
        ("local", 2353, 2953, 3),
        ("global", 352, 952, 2),
    ):
        cfg = GraphGenConfig(n_range=(5, 5), p_range=(0.5, 0.9), seed=gseed)
        g = generate_connected_graph(cfg, 0)
        p = init_params(8, seed=pseed)
        assert grad_check(p, g, rounds, mode) <= 1e-5


def test_grad_check_detects_corruption():
    cfg = GraphGenConfig(n_range=(5, 5), p_range=(0.5, 0.9), seed=352)
    g = generate_connected_graph(cfg, 0)
    p = init_params(8, seed=952)
    assert grad_check(p, g, 2, "local", corrupt=True) >= 0.1


def test_grad_check_zero_error_instance_uses_floor():
    """A global readout of w2 = 0 and b2 = the label estimates the label
    exactly whatever the other weights hold, so every gradient is zero."""
    p = init_params(6, seed=1)
    g = rand_graph(44)
    p.readout_global.w2[...] = 0.0
    p.readout_global.b2 = algebraic_connectivity(g)
    est, cache = forward(p, g, 2, "global")
    _, grads = backward_stack(p, cache, np.array([est]))
    assert est == algebraic_connectivity(g)
    assert np.array_equal(grads, np.zeros(param_count(6)))
    # both sides are 0 on every coordinate; the 1e-8 denominator floor
    # makes each ratio 0 / 1e-8 = 0, not 0 / 0 = NaN
    assert grad_check(p, g, 2, "global") == 0.0


def _grad_check_copying(params, g, rounds, mode, epsilon=1e-5, corrupt=False):
    """Reference: the loop grad_check had before it perturbed views, building two
    fresh ModelParams (copied tensors, float b2) per coordinate."""
    stack = build_stack(GraphArrays.of([g]))
    targets = np.array([float(algebraic_connectivity(g))])
    _, cache = forward_stack(params, stack, rounds, mode, want_cache=True)
    _, analytic = backward_stack(params, cache, targets)
    theta = flatten_params(params)
    if corrupt:
        analytic = analytic.copy()
        analytic[0] += 1.0

    def copied():
        q = unflatten_params(theta, params.hidden_size)
        q.readout_local.b2 = float(q.readout_local.b2[0])
        q.readout_global.b2 = float(q.readout_global.b2[0])
        return q

    worst = 0.0
    for idx in range(theta.size):
        saved = theta[idx]
        theta[idx] = saved + epsilon
        loss_plus = stack_loss(copied(), stack, targets, rounds, mode)
        theta[idx] = saved - epsilon
        loss_minus = stack_loss(copied(), stack, targets, rounds, mode)
        theta[idx] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        a = analytic[idx]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if rel > worst:
            worst = rel
    return worst


@pytest.mark.parametrize("mode, index, kwargs", [
    ("local", 0, {}),
    ("local", 3, {}),
    ("local", 5, {"corrupt": True}),
    ("global", 1, {}),
    ("global", 4, {"corrupt": True}),
])
def test_grad_check_is_bitwise_equal_to_copying_reference(mode, index, kwargs):
    n, rounds, graph_seed, param_seed = GRADCHECK_INSTANCES[mode][index]
    cfg = GraphGenConfig(n_range=(n, n), p_range=(0.5, 0.9), seed=graph_seed)
    g = generate_connected_graph(cfg, 0)
    p = init_params(8, seed=param_seed)
    before = flatten_params(p).tobytes()
    got = grad_check(p, g, rounds, mode, **kwargs)
    assert flatten_params(p).tobytes() == before
    # the probe starts from views of its own vector, so views as params also stay put
    q = unflatten_params(flatten_params(p), 8)
    assert grad_check(q, g, rounds, mode, **kwargs) == got
    assert flatten_params(q).tobytes() == before
    assert got.hex() == _grad_check_copying(p, g, rounds, mode, **kwargs).hex()


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 16), n=st.integers(3, 8), rounds=st.integers(1, 3),
       mode=st.sampled_from(MODES), seed=st.integers(0, 10_000),
       corrupt=st.booleans(), per_chunk=st.integers(2, 17))
@example(h=1, n=3, rounds=1, mode="local", seed=0, corrupt=False, per_chunk=5)
@example(h=8, n=8, rounds=3, mode="global", seed=1, corrupt=True, per_chunk=17)
def test_grad_check_probe_batch_is_bitwise_equal_to_copying_reference(
        h, n, rounds, mode, seed, corrupt, per_chunk):
    """Every chunk size gives the reference's result bit for bit: ``per_chunk``
    coordinates (never a divisor of the count, so a shorter tail chunk runs),
    one coordinate per chunk, and every coordinate in one chunk."""
    total = param_count(h)
    assume(total % per_chunk != 0)
    g = rand_graph(seed, n, n)
    p = _perturbed_params(h, seed)
    want = _grad_check_copying(p, g, rounds, mode, corrupt=corrupt).hex()
    for budget in (2 * per_chunk * 8 * total, 1, 1 << 62):
        with mock.patch.object(model, "GRADCHECK_CHUNK_BYTES", budget):
            assert grad_check(p, g, rounds, mode, corrupt=corrupt).hex() == want, budget


@pytest.mark.parametrize("h", [1, 4, 8, 16, 32])
def test_batched_matmul_is_bitwise_equal_to_per_item_products(h):
    """The platform property the probe batch rests on: numpy's batched matmul
    gives each item exactly the bits of its own 2-D product of the same
    layout, for weights as ``_probe_views`` views them (a readout ``w1`` in
    canonical order, an NT product; a round matrix stored transposed, NN),
    with and without ``out=``, and for the ``(K, H, 1)`` readout column."""
    k = 5
    rng = np.random.default_rng(h)
    probe = model._probe_views(rng.normal(size=(k, param_count(h))), h)
    col = probe.readout_global.w2
    for n in (1, 2, 3, 4, 5, 6, 10, 33):
        x = rng.normal(size=(k, n, h))
        for w in (probe.readout_local.w1, probe.w_msg):
            out = np.empty((k, n, h))
            np.matmul(x, model._t(w), out=out)
            batched = x @ model._t(w)
            for i in range(k):
                want = x[i] @ model._t(w)[i]
                assert batched[i].tobytes() == want.tobytes() == out[i].tobytes(), (n, i)
        column = x @ col
        for i in range(k):
            assert column[i, :, 0].tobytes() == (x[i] @ col[i, :, 0].copy()).tobytes()


# (H, node rows) at which the NN product of a round matrix stored transposed
# gives the bits of the NT product a single-graph pass makes
NN_AS_NT = [(h, range(2, 65)) for h in (*range(1, 17), 24)] + [(32, range(38, 65))]


def _assert_nn_matches_nt():
    rng = np.random.default_rng(15)
    for h, rows in NN_AS_NT:
        for k in (1, 7, 60):
            w = model._probe_views(rng.normal(size=(k, param_count(h))), h).gru.u_c
            assert all(model._t(w)[i].flags.c_contiguous for i in range(k))
            for n in rows:
                x = rng.normal(size=(k, n, h))
                batched = x @ model._t(w)
                for i in range(k):
                    want = x[i] @ w[i].copy().T
                    assert batched[i].tobytes() == want.tobytes(), (h, n, k, i)


def test_probe_nn_products_are_bitwise_equal_to_single_graph_nt_products():
    """The property the transposed probe layout rests on, at each BLAS thread
    count: over the sizes of ``NN_AS_NT``, each item of the batched NN product
    has the bits of its own 2-D NT product. It does not hold for one row, at
    H 17..20 and 25..28, or at H=32 below 38 rows."""
    run_at_one_and_two_blas_threads("import test_model as t\nt._assert_nn_matches_nt()")


def _probe_vectors(probe, k):
    """The ``(k, P)`` canonical parameter vectors of a probe batch."""
    return np.concatenate(
        [attrgetter(name)(probe).reshape(k, -1) for name, _ in model._TENSOR_SPECS],
        axis=1,
    )


def test_probe_positions_map_the_transposed_round_matrices():
    h = 3
    pos = model._probe_positions(h)
    assert not pos.flags.writeable
    assert (np.sort(pos) == np.arange(param_count(h))).all()
    assert (pos[pos] == np.arange(param_count(h))).all()
    assert pos[:9].tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]  # w_msg
    assert pos[7 * 9 :].tolist() == list(range(7 * 9, param_count(h)))
    theta = np.arange(param_count(h), dtype=float)
    block = model._probe_block(theta, 2, h)
    assert (_probe_vectors(model._probe_views(block, h), 2) == theta).all()
    assert (block[:, :9] == param_views(theta, h).w_msg.T.ravel()).all()


@pytest.mark.parametrize("per_chunk, chunk_sizes",
                         [(51, [51, 32, 30]), (7, [7, 3, 4]), (1, [1])])
def test_grad_check_fills_the_block_once_and_moves_one_coordinate_per_probe(
        per_chunk, chunk_sizes):
    """Local mode at H=8 probes 553 coordinates in three groups by first
    round, 185 from round 1, 287 from round 2 and 81 readout coordinates,
    each chunked on its own: one block fill per check, one set of views per
    distinct chunk size, and every probe reads theta with only its own
    coordinate moved, so each chunk restored what the one before it
    perturbed. The result is the reference's."""
    g = rand_graph(352, 5, 5)
    p = _perturbed_params(8, seed=952)
    theta = flatten_params(p)
    eps = 1e-5
    moved = []
    fills, fill_patch = _calls("_probe_block")
    views, views_patch = _calls("_probe_views")
    real = model._probe_losses

    def probe_losses(probe, stack, *args):
        k = len(stack.sizes)
        vecs = _probe_vectors(probe, k)
        rows, cols = np.nonzero(vecs != theta)
        assert (rows == np.arange(k)).all()
        half = k // 2
        assert (cols[:half] == cols[half:]).all()
        assert (vecs[rows[:half], cols[:half]] == theta[cols[:half]] + eps).all()
        assert (vecs[rows[half:], cols[half:]] == theta[cols[half:]] - eps).all()
        moved.extend(cols[:half].tolist())
        return real(probe, stack, *args)

    budget = 2 * per_chunk * 8 * param_count(8)
    with fill_patch, views_patch, mock.patch.object(model, "_probe_losses", probe_losses), \
            mock.patch.object(model, "GRADCHECK_CHUNK_BYTES", budget):
        got = grad_check(p, g, 2, "local", epsilon=eps)
    assert len(fills) == 1
    assert [args[0].shape[0] // 2 for args in views] == chunk_sizes
    assert len(moved) == 634 - 81 and len(set(moved)) == len(moved)
    assert got.hex() == _grad_check_copying(p, g, 2, "local", epsilon=eps).hex()


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("mode", MODES)
def test_grad_check_starts_each_probe_at_its_first_round(mode, rounds):
    """At H=8 the probes of the mode's readout run no round, those of
    columns 1..H-1 of w_msg, u_z, u_r and u_c, rows 1..H-1 of gru.w_r and
    entries 1..H-1 of gru.b_r run T - 1 rounds (none at T=1), and the rest
    all T, each from the single-graph pass's state before its first round.
    The probe stack is built once per check, and the result is the
    reference's."""
    h = 8
    g = rand_graph(352, 5, 5)
    p = _perturbed_params(h, seed=952)
    theta = flatten_params(p)
    _, cache = forward(p, g, rounds, mode)
    want = {}
    for name, sl, _ in model._layout(h):
        for k, coord in enumerate(range(sl.start, sl.stop)):
            if name.startswith(f"readout_{mode}."):
                want[coord] = 0
            elif not name.startswith("readout"):
                late = ((name in ("w_msg", "gru.u_z", "gru.u_r", "gru.u_c") and k % h > 0)
                        or (name == "gru.w_r" and k // h > 0) or (name == "gru.b_r" and k > 0))
                want[coord] = rounds - 1 if late else rounds
    ran = {}
    real = model._probe_losses

    def probe_losses(probe, stack, start, target, run, mode):
        k = len(stack.sizes) // 2
        _, cols = np.nonzero(_probe_vectors(probe, 2 * k)[:k] != theta)
        ran.update(dict.fromkeys(cols.tolist(), run))
        assert start.tobytes() == cache.states[rounds - run].tobytes()
        return real(probe, stack, start, target, run, mode)

    stacks, stack_patch = _calls("build_stack")
    with stack_patch, mock.patch.object(model, "_probe_losses", probe_losses):
        got = grad_check(p, g, rounds, mode)
    assert len(stacks) == 2  # the graph's own and that of the probe copies
    assert ran == want
    assert got.hex() == _grad_check_copying(p, g, rounds, mode).hex()


@pytest.mark.parametrize("h", [1, 3, 8, 17, 20, 27, 32, 40])
def test_first_rounds_leave_the_states_before_them_unchanged(h):
    """The reach map alone: a coordinate the map starts at round s, moved by
    +-epsilon, leaves every state a single-graph pass caches before round s
    bitwise unchanged, at T 1..3 in both modes. Each column 1..H-1 of w_msg,
    u_z, u_r and u_c is moved in one row, each row 1..H-1 of gru.w_r in one
    column and each entry 1..H-1 of gru.b_r, so any initial state but e1
    makes a round-1 state move."""
    g = rand_graph(h, 5, 5)
    stack = build_stack(GraphArrays.of([g]))
    theta = flatten_params(_perturbed_params(h, seed=h))
    rng = np.random.default_rng(h)
    starts = {name: sl.start for name, sl, _ in model._layout(h)}
    sampled = [starts[name] + rng.integers(h) * h + j
               for name in ("w_msg", "gru.u_z", "gru.u_r", "gru.u_c") for j in range(1, h)]
    sampled += rng.choice(theta.size, size=min(20, theta.size), replace=False).tolist()
    sampled += [starts["gru.w_r"] + i * h + rng.integers(h) for i in range(1, h)]
    sampled += [starts["gru.b_r"] + i for i in range(1, h)]

    def states(vec, rounds, mode):
        _, cache = forward_stack(param_views(vec, h), stack, rounds, mode)
        return [x.tobytes() for x in cache.states]

    for rounds, mode in itertools.product((1, 2, 3), MODES):
        first = model._first_rounds(h, rounds, mode)
        assert not first.flags.writeable
        readout, late = h * h + 2 * h + 1, 4 * h * (h - 1) + h * (h - 1) + (h - 1)
        counts = np.zeros(rounds + 3, dtype=int)
        np.add.at(counts, [1, min(2, rounds + 1), rounds + 1, rounds + 2],
                  [theta.size - late - 2 * readout, late, readout, readout])
        assert np.bincount(first, minlength=rounds + 3).tolist() == counts.tolist()
        base = states(theta, rounds, mode)
        for coord in sampled:
            s = int(first[coord])
            for step in (1e-5, -1e-5):
                moved = theta.copy()
                moved[coord] += step
                assert states(moved, rounds, mode)[:s] == base[:s], (rounds, mode, coord, s)


@pytest.mark.parametrize("mode", MODES)
def test_grad_check_probes_only_the_readout_the_mode_reads(mode):
    """At H=8, 81 of the 634 coordinates belong to the other mode's readout;
    they are scored without probes, and the result is the reference's."""
    g = rand_graph(352, 5, 5)
    p = init_params(8, seed=952)
    with mock.patch.object(model, "_probe_losses", wraps=model._probe_losses) as probe:
        got = grad_check(p, g, 2, mode)
    assert sum(len(c.args[1].sizes) for c in probe.call_args_list) == 2 * (634 - 81)
    assert got.hex() == _grad_check_copying(p, g, 2, mode).hex()


def test_grad_check_memory_stays_within_the_chunk_budget():
    """At H=32 one block for both probes of all 9442 coordinates would take
    1.4 GB. The chunked check of every coordinate, about 3,100 chunks, peaks
    below GRADCHECK_CHUNK_BYTES plus 1 MiB, the margin for the flat parameter,
    gradient and error vectors (74 KiB each), the chunk's probe states and
    interpreter free lists: nothing is kept per chunk."""
    g = rand_graph(5, 10, 10)
    p = init_params(32, seed=3)
    _, peak = traced_peak(grad_check, p, g, 2, "local")
    assert peak < model.GRADCHECK_CHUNK_BYTES + (1 << 20)


# The central-difference steps a coordinate's gradient is checked at, and,
# per H=32 instance of GRADCHECK_INSTANCES, the coordinates whose float64
# differences come within 1e-6 of the analytic gradient at none of them: 7
# of the 100,236 coordinates the modes read, from a scan of all of them
FD_STEPS = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
H32_UNRESOLVED = {
    ("local", 4): [5452],
    ("global", 2): [2926],
    ("global", 3): [2498],
    ("global", 4): [1377, 2779, 5732, 5842],
}


def _h32_instance(mode, index):
    """Graph, rounds, parameters, target and analytic gradient of an H=32
    instance."""
    n, rounds, graph_seed, param_seed = GRADCHECK_INSTANCES[mode][index]
    cfg = GraphGenConfig(n_range=(n, n), p_range=(0.5, 0.9), seed=graph_seed)
    g = generate_connected_graph(cfg, 0)
    p = init_params(32, seed=param_seed)
    target = algebraic_connectivity(g)
    _, cache = forward(p, g, rounds, mode)
    _, analytic = backward_stack(p, cache, np.array([target]))
    return g, rounds, p, target, analytic


def _central_difference(loss_at, theta, coord, eps):
    v = theta.copy()
    v[coord] += eps
    plus = loss_at(v)
    v[coord] = theta[coord] - eps
    return (plus - loss_at(v)) / (2 * eps)


def _rel_error(a, numeric):
    return float(abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))


@pytest.mark.parametrize("mode, index", [("local", 4), ("global", 4)])
def test_h32_gradients_meet_central_differences_at_their_best_step(mode, index):
    """``gradcheck --hidden 32`` fails (max_rel_err above 1e-5 at the default
    step) on small coordinates where one step cannot balance truncation
    against rounding; at the best step of FD_STEPS each of 200 seeded
    coordinates is within 1e-6. The instances are those of the largest
    error per mode; the coordinates are drawn from those the mode reads."""
    g, rounds, p, target, analytic = _h32_instance(mode, index)
    stack = build_stack(GraphArrays.of([g]))
    skipped = "readout_global." if mode == "local" else "readout_local."
    read = np.concatenate([np.arange(sl.start, sl.stop) for name, sl, _ in model._layout(32)
                           if not name.startswith(skipped)])
    theta = flatten_params(p)

    def loss_at(v):
        return stack_loss(param_views(v, 32), stack, np.array([target]), rounds, mode)

    for coord in np.random.default_rng(0).choice(read, 200, replace=False):
        best = min(_rel_error(analytic[coord], _central_difference(loss_at, theta, coord, eps))
                   for eps in FD_STEPS)
        assert best <= 1e-6, coord


def _loss_in_extended_precision(v, g, rounds, mode, target):
    """The loss of parameters ``v`` (long double) on ``g``: the model's
    formulas written out plainly, independent of ``model``'s passes."""
    t = {name: v[sl].reshape(shape) for name, sl, shape in model._layout(32)}
    adjacency = np.zeros((g.n, g.n), dtype=np.longdouble)
    for i, j in g.edges:
        adjacency[i, j] = adjacency[j, i] = 1
    x = np.zeros((g.n, 32), dtype=np.longdouble)
    x[:, 0] = 1

    def gate(name, m, s):
        return m @ t[f"gru.w_{name}"].T + s @ t[f"gru.u_{name}"].T + t[f"gru.b_{name}"]

    for _ in range(rounds):
        m = adjacency @ (x @ t["w_msg"].T)
        z = 1 / (1 + np.exp(-gate("z", m, x)))
        r = 1 / (1 + np.exp(-gate("r", m, x)))
        x = (1 - z) * x + z * np.tanh(gate("c", m, r * x))
    ro = f"readout_{mode}"
    if mode == "global":
        x = x.mean(axis=0, keepdims=True)
    hidden = np.maximum(x @ t[f"{ro}.w1"].T + t[f"{ro}.b1"], 0)
    err = hidden @ t[f"{ro}.w2"] + t[f"{ro}.b2"][0] - target
    return (err @ err) / (2 * len(err))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("mode, index", list(H32_UNRESOLVED))
def test_h32_unresolved_coordinates_meet_extended_precision_differences(mode, index):
    """The coordinates float64 differences cannot resolve are finite-difference
    conditioning, not a gradient fault: with the loss in long double (64-bit
    significand), the central differences at steps 1e-3 and 5e-4,
    extrapolated (Richardson), are within 1e-7 of each."""
    g, rounds, p, target, analytic = _h32_instance(mode, index)
    theta = flatten_params(p).astype(np.longdouble)

    def loss_at(v):
        return _loss_in_extended_precision(v, g, rounds, mode, np.longdouble(target))

    for coord in H32_UNRESOLVED[mode, index]:
        coarse, fine = (_central_difference(loss_at, theta, coord, np.longdouble(eps))
                        for eps in (1e-3, 5e-4))
        assert _rel_error(analytic[coord], (4 * fine - coarse) / 3) <= 1e-7, coord


def test_grad_check_epsilon_validation():
    p = init_params(4, seed=0)
    for epsilon in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError):
            grad_check(p, path_graph(3), 2, "local", epsilon=epsilon)


def test_grad_check_nan_error_is_returned():
    """A step of 1e300 overflows the probe losses, so their differences are
    NaN; the check then reports NaN, which fails any tolerance, instead of
    0.0, and lets no RuntimeWarning out (pytest makes one an error)."""
    p = init_params(4, seed=0)
    worst = grad_check(p, path_graph(3), 2, "local", epsilon=1e300)
    assert math.isnan(worst)
    assert not worst <= 1e-5


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    p = init_params(10, seed=21)
    p.readout_local.b2 = 0.1 + 0.2  # not exactly representable as 0.3
    path = tmp_path / "ckpt.txt"
    save_params(p, path, mode="local", rounds=8)
    loaded, meta = load_params(path)
    assert np.array_equal(flatten_params(loaded), flatten_params(p))
    assert meta["mode"] == "local"
    assert meta["T"] == "8"
    assert meta["H"] == "10"
    # a second save of the loaded params is byte-identical
    path2 = tmp_path / "ckpt2.txt"
    save_params(loaded, path2, mode="local", rounds=8)
    assert path.read_bytes() == path2.read_bytes()


def _save_params_per_value(params, path, mode=None, rounds=None):
    """Reference: the writer that formatted each value with its own f-string."""
    header = f"{model.CHECKPOINT_MAGIC} {model.CHECKPOINT_VERSION} H={params.hidden_size}"
    if mode is not None:
        header += f" mode={mode}"
    if rounds is not None:
        header += f" T={int(rounds)}"
    lines = [header]
    for name, arr in model.param_tensors(params):
        lines.append(f"tensor {name} " + " ".join(str(d) for d in arr.shape))
        for row in arr if arr.ndim == 2 else arr[None, :]:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_save_params_bytes_match_per_value_reference(tmp_path):
    h = 5
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, 0.1 + 0.2, -1.0 / 3.0]
    vec = np.random.default_rng(8).normal(scale=10.0, size=param_count(h))
    vec[:len(specials)] = specials
    vec[-len(specials):] = specials  # reaches readout_global.b2, a 1-vector row
    p = unflatten_params(vec, h)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    save_params(p, got, mode="global", rounds=3)
    _save_params_per_value(p, want, mode="global", rounds=3)
    assert got.read_bytes() == want.read_bytes()
    # a file written elsewhere may name neither mode nor T
    bare = tmp_path / "bare.txt"
    _save_params_per_value(p, bare)
    for path, header in ((got, {"H": "5", "mode": "global", "T": "3"}), (bare, {"H": "5"})):
        loaded, meta = load_params(path)
        assert flatten_params(loaded).tobytes() == vec.tobytes()
        assert meta == header


@pytest.mark.parametrize("rounds", [0, -3, 2.7, 2.0, "2", None])
def test_save_params_rejects_rounds_load_params_would_reject(tmp_path, rounds):
    """The header's T must be an integer >= 1 for load_params to read the
    file back, so save_params refuses any other rounds before it opens the
    file."""
    path = tmp_path / "ckpt.txt"
    with pytest.raises(ValueError, match="rounds must be an integer >= 1"):
        save_params(init_params(4, seed=0), path, mode="local", rounds=rounds)
    assert not path.exists()
    save_params(init_params(4, seed=0), path, mode="local", rounds=np.int64(2))
    assert load_params(path)[1]["T"] == "2"


def test_checkpoint_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something-else v1 H=4\n")
    with pytest.raises(ValueError):
        load_params(path)
    p = init_params(4, seed=0)
    good = tmp_path / "good.txt"
    save_params(p, good, mode="local", rounds=2)
    text = good.read_text().splitlines()
    clipped = tmp_path / "clipped.txt"
    clipped.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ValueError):
        load_params(clipped)
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("\n".join([text[0] + " T=7", *text[1:]]) + "\n")
    with pytest.raises(ValueError, match=r"repeated\.txt: header repeats T=$"):
        load_params(repeated)
    # float() reads "0.0_0335..." as 0.00335...; %.17g never writes a "_"
    separated = tmp_path / "separated.txt"
    values = text[2].split()
    values[0] = "0.0_033548624824817908"
    separated.write_text("\n".join([*text[:2], " ".join(values), *text[3:]]) + "\n")
    with pytest.raises(ValueError, match=r"separated\.txt:3: tensor w_msg has a '_' in a value$"):
        load_params(separated)


def _corrupt_checkpoint(tmp_path, edit):
    good = tmp_path / "good.txt"
    save_params(init_params(4, seed=0), good, mode="local", rounds=2)
    lines = good.read_text().splitlines()
    edit(lines)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_weights(tmp_path, token):
    def edit(lines):
        row = lines[2].split()
        row[1] = token
        lines[2] = " ".join(row)

    bad = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=r"bad\.txt:3: tensor .* non-finite"):
        load_params(bad)


@pytest.mark.parametrize("rounds", ["0", "-1", "2.5", "x"])
def test_checkpoint_rejects_bad_rounds(tmp_path, rounds):
    def edit(lines):
        lines[0] = lines[0].replace("T=2", f"T={rounds}")

    bad = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=r"bad\.txt: header T=.* integer >= 1"):
        load_params(bad)


def test_checkpoint_rejects_unknown_mode(tmp_path):
    def edit(lines):
        lines[0] = lines[0].replace("mode=local", "mode=central")

    bad = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=r"bad\.txt: header mode=central"):
        load_params(bad)


_TAIL = 65  # line number of a block appended to an H=4 checkpoint


@pytest.mark.parametrize("edit, where, message", [
    (lambda lines: lines.extend(["tensor bogus 1", "0"]), _TAIL, "unknown tensor bogus"),
    (lambda lines: lines.extend(["tensor w_msg 2 2", "1 2", "3 4"]), _TAIL,
     "duplicate tensor w_msg"),
    (lambda lines: lines.append("tensor"), _TAIL, "expected 'tensor <name> <shape>'"),
    (lambda lines: lines.append("weights 1 2"), _TAIL, "expected 'tensor <name> <shape>'"),
    (lambda lines: lines.__setitem__(1, "tensor w_msg 2 x"), 2,
     "tensor w_msg has shape 2 x, expected 4 4"),
    (lambda lines: lines.__setitem__(1, "tensor w_msg 4 3"), 2,
     "tensor w_msg has shape 4 3, expected 4 4"),
    (lambda lines: lines.__setitem__(2, lines[2].rsplit(" ", 1)[0]), 3,
     "tensor w_msg row has 3 values, expected 4"),
    (lambda lines: lines.__setitem__(2, lines[2] + " 0.5"), 3,
     "tensor w_msg row has 5 values, expected 4"),
    (lambda lines: lines.pop(), _TAIL - 2, "tensor readout_global.b2 has 0 of 1 rows"),
], ids=["unknown", "duplicate", "lone-header", "not-a-header", "shape-not-int",
        "shape-wrong", "row-short", "row-long", "rows-missing"])
def test_checkpoint_rejects_bad_tensor_blocks(tmp_path, edit, where, message):
    bad = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"bad\.txt:{where}: {message}"):
        load_params(bad)
