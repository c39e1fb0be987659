"""Message-passing network over a graph: forward pass and exact gradients.

One round sends, along every edge, a linear transform of the sender state,
sums arriving messages per node (ascending sender order), and feeds the sum
through a GRU state update. After a fixed number of rounds, either a per-node
readout MLP (local mode) or a mean-pooled readout MLP (global mode) produces
the connectivity estimate. Weights are shared across rounds, so gradients are
accumulated through time by the reverse pass; everything is float64 and the
reverse pass is written out by hand so it can be checked against finite
differences coordinate by coordinate.

Any number of graphs can be processed as one block-diagonal stack; the public
single-graph API is a stack of size one. The stack's adjacency is built from
all edges at once, and the GRU rounds run in reused buffers (fresh ones per
round only for the arrays a cache keeps), in the formulas' operation order, so
every value is bitwise that of plain allocating numpy expressions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .graphs import Graph
from .spectral import algebraic_connectivity

MODES = ("local", "global")

CHECKPOINT_MAGIC = "fiedler-params"
CHECKPOINT_VERSION = "v1"


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass
class GruParams:
    """Gate weights: w_* act on the message, u_* on the previous state."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_c: np.ndarray
    u_z: np.ndarray
    u_r: np.ndarray
    u_c: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_c: np.ndarray


@dataclass
class ReadoutParams:
    """Single-hidden-layer MLP with ReLU hidden activation and scalar output;
    ``b2`` is a float, or a shape-(1,) view in parameters built from a vector."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float | np.ndarray


@dataclass
class ModelParams:
    hidden_size: int
    w_msg: np.ndarray
    gru: GruParams
    readout_local: ReadoutParams
    readout_global: ReadoutParams


# Gradients share the exact container shape of the parameters they differentiate.
Gradients = ModelParams

# Canonical tensor order: flattening, optimizer state, and checkpoints all use it.
_TENSOR_SPECS = (
    ("w_msg", "hh"),
    ("gru.w_z", "hh"),
    ("gru.w_r", "hh"),
    ("gru.w_c", "hh"),
    ("gru.u_z", "hh"),
    ("gru.u_r", "hh"),
    ("gru.u_c", "hh"),
    ("gru.b_z", "h"),
    ("gru.b_r", "h"),
    ("gru.b_c", "h"),
    ("readout_local.w1", "hh"),
    ("readout_local.b1", "h"),
    ("readout_local.w2", "h"),
    ("readout_local.b2", "scalar"),
    ("readout_global.w1", "hh"),
    ("readout_global.b1", "h"),
    ("readout_global.w2", "h"),
    ("readout_global.b2", "scalar"),
)


@functools.lru_cache(maxsize=None)
def _layout(hidden_size: int) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """(name, slice of the flat vector, shape) per tensor, in canonical order."""
    shapes = {"hh": (hidden_size, hidden_size), "h": (hidden_size,), "scalar": (1,)}
    out, pos = [], 0
    for name, kind in _TENSOR_SPECS:
        size = math.prod(shapes[kind])
        out.append((name, slice(pos, pos + size), shapes[kind]))
        pos += size
    return tuple(out)


def param_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in canonical order; scalars appear as 1-vectors."""
    return [
        (name, np.atleast_1d(np.asarray(attrgetter(name)(params), dtype=float)))
        for name, _ in _TENSOR_SPECS
    ]


def param_count(hidden_size: int) -> int:
    return _layout(hidden_size)[-1][1].stop


def flatten_params(params: ModelParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in param_tensors(params)])


def param_views(vec: np.ndarray, hidden_size: int) -> ModelParams:
    """Parameters whose tensors, ``b2`` included, are views into ``vec``.

    Writing a coordinate of the float64 vector ``vec`` changes the parameters
    and the other way round; the tensors follow the canonical order.
    """
    if vec.dtype != np.float64 or vec.shape != (param_count(hidden_size),):
        raise ValueError(
            f"expected {param_count(hidden_size)} float64 coordinates for "
            f"H={hidden_size}, got {vec.dtype} shape {vec.shape}"
        )
    v = {name: vec[sl].reshape(shape) for name, sl, shape in _layout(hidden_size)}

    def group(cls, prefix: str):
        return cls(**{f.name: v[f"{prefix}.{f.name}"] for f in fields(cls)})

    return ModelParams(
        hidden_size=hidden_size,
        w_msg=v["w_msg"],
        gru=group(GruParams, "gru"),
        readout_local=group(ReadoutParams, "readout_local"),
        readout_global=group(ReadoutParams, "readout_global"),
    )


def unflatten_params(vec: np.ndarray, hidden_size: int) -> ModelParams:
    """Parameters holding a copy of ``vec``: they never alias the caller's array."""
    return param_views(np.array(vec, dtype=float), hidden_size)


def zeros_like_params(params: ModelParams) -> Gradients:
    return param_views(np.zeros(param_count(params.hidden_size)), params.hidden_size)


def init_params(hidden_size: int, seed: int) -> ModelParams:
    """Glorot-uniform matrices, zero biases; deterministic per seed.

    Matrices are drawn in canonical order: w_msg, the six GRU matrices, then
    (w1, w2) of the local and global readouts.
    """
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_size
    lim_hh = math.sqrt(6.0 / (2 * h))
    lim_out = math.sqrt(6.0 / (h + 1))

    def mat() -> np.ndarray:
        return rng.uniform(-lim_hh, lim_hh, size=(h, h))

    w_msg = mat()
    gru = GruParams(
        w_z=mat(), w_r=mat(), w_c=mat(),
        u_z=mat(), u_r=mat(), u_c=mat(),
        b_z=np.zeros(h), b_r=np.zeros(h), b_c=np.zeros(h),
    )

    def readout() -> ReadoutParams:
        w1 = mat()
        w2 = rng.uniform(-lim_out, lim_out, size=h)
        return ReadoutParams(w1=w1, b1=np.zeros(h), w2=w2, b2=0.0)

    return ModelParams(
        hidden_size=h,
        w_msg=w_msg,
        gru=gru,
        readout_local=readout(),
        readout_global=readout(),
    )


def initial_state(n: int, hidden_size: int) -> np.ndarray:
    """Every node starts at the first standard basis vector e1."""
    if n < 1 or hidden_size < 1:
        raise ValueError("n and hidden_size must be >= 1")
    states = np.zeros((n, hidden_size))
    states[:, 0] = 1.0
    return states


# ---------------------------------------------------------------------------
# Stacked execution: several graphs as one block-diagonal node system.
# ---------------------------------------------------------------------------


@dataclass
class GraphStack:
    """Block-diagonal stack of graphs sharing one node-state matrix."""

    graphs: tuple
    sizes: np.ndarray        # nodes per graph
    offsets: np.ndarray      # row offset per graph, length len(graphs) + 1
    node_graph: np.ndarray   # graph index per stacked node row
    adjacency: sp.csr_matrix

    @property
    def n_total(self) -> int:
        return int(self.offsets[-1])


def build_stack(graphs: Sequence[Graph]) -> GraphStack:
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    sizes = np.array([g.n for g in graphs], dtype=np.intp)
    offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    n_edges = np.array([len(g.edges) for g in graphs], dtype=np.intp)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
        dtype=np.int64,
        count=2 * int(n_edges.sum()),
    ).reshape(-1, 2)
    ends += np.repeat(offsets[:-1], n_edges)[:, None]
    i, j = ends.T
    # both directions of every edge, in row-major (row, column) order
    keys = np.sort(np.concatenate((i * total + j, j * total + i)))
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends.ravel(), minlength=total), out=indptr[1:])
    # scipy narrows both index arrays to the smallest dtype that holds them
    adjacency = sp.csr_matrix(
        (np.ones(keys.size), keys % total, indptr), shape=(total, total)
    )
    node_graph = np.repeat(np.arange(len(graphs), dtype=np.intp), sizes)
    return GraphStack(
        graphs=graphs,
        sizes=sizes,
        offsets=offsets,
        node_graph=node_graph,
        adjacency=adjacency,
    )


@dataclass
class ForwardCache:
    """Every intermediate of one forward pass, in stacked (node-row) layout."""

    mode: str
    rounds: int
    stack: GraphStack
    states: list          # rounds + 1 matrices, states[t] before round t+1
    messages: list        # aggregated neighbor messages per round
    update_gates: list    # z
    reset_gates: list     # r
    candidates: list      # c
    reset_states: list    # r * state, the u_c input
    readout_input: np.ndarray
    readout_preact: np.ndarray
    readout_hidden: np.ndarray
    estimates: np.ndarray


def _gru_step(
    gru: GruParams,
    states: np.ndarray,
    messages: np.ndarray,
    out: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    reset_state: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """One GRU round written into the caller's buffers, allocating nothing.

    Sets ``out`` to the new states and ``z``, ``r``, ``c``, ``reset_state``
    to the update gate, reset gate, candidate and ``r * states``; ``scratch``
    is overwritten. Every buffer has the shape of ``states``, is C-contiguous
    and aliases no other argument. The arithmetic is, operation for operation,
    ``sigmoid(a) = 1 / (1 + exp(-a))`` of ``(messages @ w.T + states @ u.T) + b``
    per gate and ``(1 - z) * states + z * c``. ``exp`` overflows to inf for
    very negative gate inputs, giving the correct limit 0; the caller silences
    that warning once per pass.
    """
    gates = ((z, gru.w_z, gru.u_z, gru.b_z), (r, gru.w_r, gru.u_r, gru.b_r))
    for gate, w, u, b in gates:
        np.matmul(messages, w.T, out=gate)
        np.matmul(states, u.T, out=scratch)
        np.add(gate, scratch, out=gate)
        np.add(gate, b, out=gate)
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        np.add(1.0, gate, out=gate)
        np.divide(1.0, gate, out=gate)
    np.multiply(r, states, out=reset_state)
    np.matmul(messages, gru.w_c.T, out=c)
    np.matmul(reset_state, gru.u_c.T, out=scratch)
    np.add(c, scratch, out=c)
    np.add(c, gru.b_c, out=c)
    np.tanh(c, out=c)
    np.subtract(1.0, z, out=scratch)
    np.multiply(scratch, states, out=scratch)
    np.multiply(z, c, out=out)
    np.add(scratch, out, out=out)


def _readout_rows(ro: ReadoutParams, x: np.ndarray):
    preact = x @ ro.w1.T + ro.b1
    hidden = np.maximum(preact, 0.0)
    estimates = hidden @ ro.w2 + ro.b2
    return estimates, preact, hidden


def _segment_mean(x: np.ndarray, stack: GraphStack) -> np.ndarray:
    sums = np.add.reduceat(x, stack.offsets[:-1], axis=0)
    return sums / stack.sizes[:, None]


def forward_stack(
    params: ModelParams,
    stack: GraphStack,
    rounds: int,
    mode: str,
    want_cache: bool = True,
):
    """Run the full message-passing pass on a stack.

    Returns (estimates, cache); estimates has one entry per node (local) or
    per graph (global). cache is None when ``want_cache`` is false.
    """
    _check_mode(mode)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    x = initial_state(stack.n_total, params.hidden_size)
    scratch = np.empty(x.shape)
    if not want_cache:
        z, r, c, rs, spare = np.empty((5, *x.shape))
    states = [x]
    messages, update_gates, reset_gates, candidates, reset_states = [], [], [], [], []
    with np.errstate(over="ignore"):
        for _ in range(rounds):
            m = stack.adjacency @ np.matmul(x, params.w_msg.T, out=scratch)
            if want_cache:
                # the cache keeps every round's arrays, so each round gets new ones
                z, r, c, rs, spare = np.empty((5, *x.shape))
            _gru_step(params.gru, x, m, spare, z, r, c, rs, scratch)
            x, spare = spare, x
            if want_cache:
                messages.append(m)
                update_gates.append(z)
                reset_gates.append(r)
                candidates.append(c)
                reset_states.append(rs)
                states.append(x)

    if mode == "local":
        readout_input = x
        ro = params.readout_local
    else:
        readout_input = _segment_mean(x, stack)
        ro = params.readout_global
    estimates, preact, hidden = _readout_rows(ro, readout_input)

    if not want_cache:
        return estimates, None
    cache = ForwardCache(
        mode=mode,
        rounds=rounds,
        stack=stack,
        states=states,
        messages=messages,
        update_gates=update_gates,
        reset_gates=reset_gates,
        candidates=candidates,
        reset_states=reset_states,
        readout_input=readout_input,
        readout_preact=preact,
        readout_hidden=hidden,
        estimates=estimates,
    )
    return estimates, cache


def stack_losses(estimates: np.ndarray, stack: GraphStack, targets: np.ndarray, mode: str):
    """Per-graph squared loss: (1/(2n)) sum of squared node errors, or half the
    squared scalar error in global mode."""
    targets = np.asarray(targets, dtype=float)
    if mode == "local":
        err = estimates - np.repeat(targets, stack.sizes)
        per_graph = np.bincount(
            stack.node_graph, weights=err * err, minlength=len(stack.graphs)
        )
        return per_graph / (2.0 * stack.sizes)
    err = estimates - targets
    return 0.5 * err * err


def stack_loss(
    params: ModelParams,
    stack: GraphStack,
    targets: np.ndarray,
    rounds: int,
    mode: str,
) -> float:
    """Mean per-graph squared loss, forward only (no cache)."""
    estimates, _ = forward_stack(params, stack, rounds, mode, want_cache=False)
    return float(np.mean(stack_losses(estimates, stack, targets, mode)))


def backward_stack(
    params: ModelParams,
    cache: ForwardCache,
    targets: np.ndarray,
):
    """Mean squared loss over the stack and its exact parameter gradients."""
    stack = cache.stack
    mode = cache.mode
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (len(stack.graphs),):
        raise ValueError("one target per stacked graph required")
    n_graphs = len(stack.graphs)
    per_graph = stack_losses(cache.estimates, stack, targets, mode)
    loss = float(np.mean(per_graph))

    grads = zeros_like_params(params)
    gru, g_gru = params.gru, grads.gru

    # d(mean loss)/d(estimate)
    if mode == "local":
        err = cache.estimates - np.repeat(targets, stack.sizes)
        d_est = err / (stack.sizes[stack.node_graph] * n_graphs)
        ro, g_ro = params.readout_local, grads.readout_local
    else:
        d_est = (cache.estimates - targets) / n_graphs
        ro, g_ro = params.readout_global, grads.readout_global

    d_hidden = d_est[:, None] * ro.w2[None, :]
    d_preact = np.where(cache.readout_preact > 0.0, d_hidden, 0.0)
    g_ro.w1 += d_preact.T @ cache.readout_input
    g_ro.b1 += d_preact.sum(axis=0)
    g_ro.w2 += cache.readout_hidden.T @ d_est
    g_ro.b2 += float(d_est.sum())
    d_input = d_preact @ ro.w1

    if mode == "local":
        dx = d_input
    else:
        dx = np.repeat(d_input / stack.sizes[:, None], stack.sizes, axis=0)

    for t in range(cache.rounds - 1, -1, -1):
        x_prev = cache.states[t]
        m = cache.messages[t]
        z = cache.update_gates[t]
        r = cache.reset_gates[t]
        c = cache.candidates[t]
        rs = cache.reset_states[t]

        dz = dx * (c - x_prev)
        dc = dx * z
        dx_prev = dx * (1.0 - z)

        d_ac = dc * (1.0 - c * c)
        g_gru.w_c += d_ac.T @ m
        g_gru.u_c += d_ac.T @ rs
        g_gru.b_c += d_ac.sum(axis=0)
        dm = d_ac @ gru.w_c
        d_rs = d_ac @ gru.u_c
        dx_prev += d_rs * r
        dr = d_rs * x_prev

        d_ar = dr * r * (1.0 - r)
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

        # message aggregation is symmetric: transpose of adjacency is itself
        d_sent = stack.adjacency @ dm
        grads.w_msg += d_sent.T @ x_prev
        dx = dx_prev + d_sent @ params.w_msg

    return loss, grads


# ---------------------------------------------------------------------------
# Single-graph API.
# ---------------------------------------------------------------------------


def message_step(params: ModelParams, g: Graph, states: np.ndarray) -> np.ndarray:
    """One message round: row v becomes the sum of w_msg @ state over N(v)."""
    states = np.asarray(states, dtype=float)
    if states.shape != (g.n, params.hidden_size):
        raise ValueError(
            f"states must have shape ({g.n}, {params.hidden_size}), got {states.shape}"
        )
    stack = build_stack([g])
    return stack.adjacency @ (states @ params.w_msg.T)


def gru_update(params: ModelParams, states: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """Per-node GRU: h' = (1 - z) * h + z * c with the message as gate input."""
    states = np.asarray(states, dtype=float)
    messages = np.asarray(messages, dtype=float)
    if states.shape != messages.shape or states.shape[-1] != params.hidden_size:
        raise ValueError("states and messages must both be (n, hidden_size)")
    new_states = np.empty(states.shape)
    z, r, c, reset_state, scratch = np.empty((5, *states.shape))
    with np.errstate(over="ignore"):
        _gru_step(params.gru, states, messages, new_states, z, r, c, reset_state, scratch)
    return new_states


def readout_local(params: ModelParams, h: np.ndarray) -> float:
    """Scalar estimate from one node state."""
    h = np.asarray(h, dtype=float)
    estimates, _, _ = _readout_rows(params.readout_local, h[None, :])
    return float(estimates[0])


def readout_global(params: ModelParams, states: np.ndarray) -> float:
    """Scalar estimate from all node states: mean-pool, then the readout MLP."""
    states = np.asarray(states, dtype=float)
    pooled = states.mean(axis=0)
    estimates, _, _ = _readout_rows(params.readout_global, pooled[None, :])
    return float(estimates[0])


def forward(params: ModelParams, g: Graph, rounds: int, mode: str):
    """Full pass on one graph.

    Returns (estimates, cache): a length-n vector of per-node estimates in
    local mode, a scalar in global mode.
    """
    stack = build_stack([g])
    estimates, cache = forward_stack(params, stack, rounds, mode, want_cache=True)
    if mode == "global":
        return float(estimates[0]), cache
    return estimates, cache


def backward(
    params: ModelParams,
    g: Graph,
    cache: ForwardCache,
    target: float,
    mode: str,
):
    """Squared loss against the true connectivity and its exact gradients."""
    _check_mode(mode)
    if cache.mode != mode or cache.stack.graphs != (g,):
        raise ValueError("cache does not belong to this graph/mode")
    return backward_stack(params, cache, np.array([float(target)]))


def grad_check(
    params: ModelParams,
    g: Graph,
    rounds: int,
    mode: str,
    epsilon: float = 1e-5,
    target: float | None = None,
    sample: int | None = None,
    sample_seed: int = 0,
    corrupt: bool = False,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Checks every coordinate by default; ``sample`` limits the check to a seeded
    random subset (never fewer than 500 coordinates). ``corrupt`` deliberately
    damages one analytic gradient entry, for validating the detector itself.

    Each coordinate is perturbed in place in a private flat copy of ``params``
    that one set of probe parameters views; ``params`` itself is never written.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    _check_mode(mode)
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

    probe = param_views(theta, params.hidden_size)
    worst = 0.0
    for idx in coords:
        saved = theta[idx]
        theta[idx] = saved + epsilon
        loss_plus = stack_loss(probe, stack, targets, rounds, mode)
        theta[idx] = saved - epsilon
        loss_minus = stack_loss(probe, stack, targets, rounds, mode)
        theta[idx] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        a = analytic[idx]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if rel > worst:
            worst = rel
    return worst


# ---------------------------------------------------------------------------
# Checkpoint serialization (text, bit-exact round trip).
# ---------------------------------------------------------------------------


def save_params(
    params: ModelParams,
    path,
    mode: str | None = None,
    rounds: int | None = None,
) -> None:
    """Write a versioned text checkpoint; %.17g keeps doubles bit-exact."""
    header = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} H={params.hidden_size}"]
    if mode is not None:
        _check_mode(mode)
        header[0] += f" mode={mode}"
    if rounds is not None:
        header[0] += f" T={int(rounds)}"
    lines = header
    for name, arr in param_tensors(params):
        shape = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {shape}")
        rows = arr if arr.ndim == 2 else arr[None, :]
        for row in rows:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_positive_int(path, meta: dict, key: str) -> int:
    value = meta[key]
    if not value.isdigit() or int(value) < 1:
        raise ValueError(f"{path}: header {key}={value} is not an integer >= 1")
    return int(value)


def load_params(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns (params, header metadata)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    tokens = lines[0].split()
    if tokens[:2] != [CHECKPOINT_MAGIC, CHECKPOINT_VERSION]:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} file")
    meta: dict[str, str] = {}
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        if not value:
            raise ValueError(f"{path}: malformed header token {token!r}")
        meta[key] = value
    if "H" not in meta:
        raise ValueError(f"{path}: header missing H=")
    h = _header_positive_int(path, meta, "H")
    if "T" in meta:
        _header_positive_int(path, meta, "T")
    if meta.get("mode", MODES[0]) not in MODES:
        raise ValueError(f"{path}: header mode={meta['mode']} is not one of {MODES}")

    layout = {name: (sl, shape) for name, sl, shape in _layout(h)}
    vec = np.empty(param_count(h))
    seen: set[str] = set()
    pos = 1
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        where = f"{path}:{pos + 1}"
        head = lines[pos].split()
        if head[0] != "tensor" or len(head) < 3:
            raise ValueError(
                f"{where}: expected 'tensor <name> <shape>', got {lines[pos]!r}"
            )
        name = head[1]
        if name not in layout:
            raise ValueError(f"{where}: unknown tensor {name}")
        if name in seen:
            raise ValueError(f"{where}: duplicate tensor {name}")
        seen.add(name)
        sl, shape = layout[name]
        got, want = " ".join(head[2:]), " ".join(map(str, shape))
        if got != want:
            raise ValueError(f"{where}: tensor {name} has shape {got}, expected {want}")
        n_rows, width = shape if len(shape) == 2 else (1, shape[0])
        rows = lines[pos + 1 : pos + 1 + n_rows]
        if len(rows) < n_rows:
            raise ValueError(f"{where}: tensor {name} has {len(rows)} of {n_rows} rows")
        data = []
        for lineno, row_line in enumerate(rows, start=pos + 2):
            try:
                row = [float(tok) for tok in row_line.split()]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: tensor {name}: {exc}") from exc
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: tensor {name} row has {len(row)} values, "
                    f"expected {width}"
                )
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}:{lineno}: tensor {name} has a non-finite value")
            data.extend(row)
        vec[sl] = data
        pos += 1 + n_rows

    for name in layout:
        if name not in seen:
            raise ValueError(f"{path}: missing tensor {name}")
    return param_views(vec, h), meta
