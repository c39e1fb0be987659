import itertools
import math
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings

from conftest import complete_graph, cycle_graph, path_graph
from fiedler import model
from fiedler.cli import GRADCHECK_INSTANCES
from fiedler.graphs import Graph, GraphGenConfig, generate_connected_graph, permute
from fiedler.model import (
    MODES,
    ForwardCache,
    ModelParams,
    backward,
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
    message_step,
    param_count,
    readout_global,
    readout_local,
    save_params,
    stack_loss,
    unflatten_params,
    zeros_like_params,
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
    save_params(p, path)
    loaded, _ = load_params(path)
    assert flatten_params(loaded).tobytes() == vec.tobytes()
    again = path.with_name("again.txt")
    save_params(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_initial_state_rows_are_e1():
    s = initial_state(2, 3)
    assert np.array_equal(s, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(s.sum(axis=1), [1.0, 1.0])


# -- message step -------------------------------------------------------------


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
        assert np.allclose(out[v], g.degree(v) * h, atol=0, rtol=0)


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
    stack = build_stack(graphs)
    adjacency, offsets, node_graph = _build_stack_coo(graphs)
    for name in ("indices", "indptr", "data"):
        got, want = getattr(stack.adjacency, name), getattr(adjacency, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert stack.adjacency.shape == adjacency.shape
    assert stack.adjacency.has_sorted_indices and adjacency.has_sorted_indices
    for got, want in ((stack.offsets, offsets), (stack.node_graph, node_graph)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert stack.graphs == tuple(graphs)


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
        x, z, r, c, rs = _gru_step_allocating(params.gru, x, m)
        per_round.append((m, z, r, c, rs))
        states.append(x)
    if mode == "local":
        readout_input, ro = x, params.readout_local
    else:
        readout_input, ro = model._segment_mean(x, stack), params.readout_global
    estimates, preact, hidden = model._readout_rows(ro, readout_input)
    messages, z, r, c, rs = (list(arrays) for arrays in zip(*per_round))
    return ForwardCache(mode, rounds, stack, states, messages, z, r, c, rs,
                        readout_input, preact, hidden, estimates)


def _perturbed_params(h, seed):
    """Initial parameters with every coordinate moved, biases included."""
    vec = flatten_params(init_params(h, seed))
    vec += np.random.default_rng(seed).normal(scale=0.3, size=vec.size)
    return unflatten_params(vec, h)


_CACHE_LISTS = ("states", "messages", "update_gates", "reset_gates",
                "candidates", "reset_states")
_CACHE_ARRAYS = ("readout_input", "readout_preact", "readout_hidden", "estimates")


@pytest.mark.parametrize("rounds", [1, 2, 8])
@pytest.mark.parametrize("mode", MODES)
def test_forward_backward_bitwise_equal_to_allocating_reference(mode, rounds):
    p = _perturbed_params(8, seed=31)
    graphs = [rand_graph(200 + i, 3, 20) for i in range(5)] + [Graph(3, [])]
    stack = build_stack(graphs)
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
    ref_loss, ref_grads = backward_stack(p, want, targets)
    assert loss.hex() == ref_loss.hex()
    assert flatten_params(grads).tobytes() == flatten_params(ref_grads).tobytes()

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
    stack = build_stack([rand_graph(s) for s in (1, 2, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gru_update(p, states, messages)
        assert np.all(np.isfinite(out))
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


# -- backward -----------------------------------------------------------------


def test_backward_zero_error_gives_zero_gradients():
    p = init_params(8, seed=6)
    g = rand_graph(7)
    est, cache = forward(p, g, 2, "global")
    loss, grads = backward(p, g, cache, est, "global")
    assert loss == 0.0
    assert np.array_equal(flatten_params(grads), np.zeros(param_count(8)))


def test_backward_b2_gradient_is_mean_residual():
    p = init_params(8, seed=6)
    g = rand_graph(8)
    target = 1.25
    est, cache = forward(p, g, 3, "local")
    loss, grads = backward(p, g, cache, target, "local")
    assert loss == pytest.approx(np.sum((est - target) ** 2) / (2 * g.n), rel=1e-12)
    assert grads.readout_local.b2 == pytest.approx(
        np.mean(est - target), rel=1e-12
    )
    # the inactive readout receives no gradient
    assert np.array_equal(grads.readout_global.w1, np.zeros((8, 8)))


def test_backward_rejects_mismatched_cache():
    p = init_params(8, seed=6)
    g = rand_graph(9)
    other = rand_graph(10)
    _, cache = forward(p, g, 2, "local")
    with pytest.raises(ValueError):
        backward(p, other, cache, 1.0, "local")
    with pytest.raises(ValueError):
        backward(p, g, cache, 1.0, "global")


def test_backward_deterministic_bitwise():
    p = init_params(12, seed=11)
    g = rand_graph(12)
    _, cache = forward(p, g, 4, "local")
    _, g1 = backward(p, g, cache, 0.7, "local")
    _, g2 = backward(p, g, cache, 0.7, "local")
    assert np.array_equal(flatten_params(g1), flatten_params(g2))


def test_stacked_batch_matches_mean_of_single_graphs():
    p = init_params(8, seed=13)
    graphs = [rand_graph(20 + i) for i in range(3)]
    targets = np.array([0.5, 1.5, 2.5])
    for mode in ("local", "global"):
        stack = build_stack(graphs)
        _, cache = forward_stack(p, stack, 3, mode)
        batch_loss, batch_grads = backward_stack(p, cache, targets)
        single_losses = []
        single_grads = np.zeros(param_count(8))
        for g, t in zip(graphs, targets):
            _, c = forward(p, g, 3, mode)
            loss, grads = backward(p, g, c, t, mode)
            single_losses.append(loss)
            single_grads += flatten_params(grads)
        assert batch_loss == pytest.approx(np.mean(single_losses), rel=1e-12)
        assert flatten_params(batch_grads) == pytest.approx(
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
    p = init_params(6, seed=1)
    g = rand_graph(44)
    est, cache = forward(p, g, 2, "global")
    _, grads = backward(p, g, cache, est, "global")
    assert np.array_equal(flatten_params(grads), np.zeros(param_count(6)))
    # both sides are ~0; the 1e-8 denominator floor keeps the ratio tame
    # (the numeric side carries O(eps^2) curvature noise, so it is not exact)
    assert grad_check(p, g, 2, "global", target=est) <= 1e-2


def _grad_check_copying(params, g, rounds, mode, epsilon=1e-5, target=None,
                        sample=None, sample_seed=0, corrupt=False):
    """Reference: the loop grad_check had before it perturbed views, building two
    fresh ModelParams (copied tensors, float b2) per coordinate."""
    if target is None:
        target = algebraic_connectivity(g)
    stack = build_stack([g])
    targets = np.array([float(target)])
    _, cache = forward_stack(params, stack, rounds, mode, want_cache=True)
    _, grads = backward_stack(params, cache, targets)
    analytic = flatten_params(grads)
    theta = flatten_params(params)
    total = theta.size
    if sample is None or max(sample, 500) >= total:
        coords = np.arange(total)
    else:
        rng = np.random.default_rng(sample_seed)
        coords = np.sort(rng.choice(total, size=max(sample, 500), replace=False))
    if corrupt:
        analytic = analytic.copy()
        analytic[coords[0]] += 1.0

    def copied():
        q = unflatten_params(theta, params.hidden_size)
        q.readout_local.b2 = float(q.readout_local.b2[0])
        q.readout_global.b2 = float(q.readout_global.b2[0])
        return q

    worst = 0.0
    for idx in coords:
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
    ("local", 3, {"sample": 500, "sample_seed": 7}),
    ("local", 5, {"corrupt": True}),
    ("global", 1, {}),
    ("global", 4, {"sample": 500, "sample_seed": 2, "corrupt": True}),
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


def test_grad_check_epsilon_validation():
    p = init_params(4, seed=0)
    with pytest.raises(ValueError):
        grad_check(p, path_graph(3), 2, "local", epsilon=0.0)


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


def test_checkpoint_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something-else v1 H=4\n")
    with pytest.raises(ValueError):
        load_params(path)
    p = init_params(4, seed=0)
    good = tmp_path / "good.txt"
    save_params(p, good)
    text = good.read_text().splitlines()
    clipped = tmp_path / "clipped.txt"
    clipped.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ValueError):
        load_params(clipped)


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
