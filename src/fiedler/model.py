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
single-graph API is a stack of size one. A stack is built from
``GraphArrays``: every edge row is shifted by its graph's first node row, and
the adjacency is built from all edges at once. Without a cache the GRU rounds
run in reused buffers; with one, every round's gates, candidate and new state
are views into a single block allocated once per pass, and the reset state
``r * state``, which the reverse pass recomputes, goes into one reused
buffer. Either way the arithmetic follows the formulas' operation order, so
every value is bitwise that of plain allocating numpy expressions. Every node
starts in the same state, so a stack of 64 or more rows runs the first round
once per distinct node degree and copies the rows out. That table gives every
value the bits of the direct round at H <= 64 (verified with OpenBLAS 0.3.31
at one and two threads), not at every H: at H=100 with two BLAS threads, and
at H=201 even with one, estimates differ from the direct round's in their
last bits. No graph reads another graph's rows, so a large stack runs its GRU
rounds as two row parts cut at a graph boundary, the second on a worker
thread, and its reverse pass runs each round's row-local chain in the same
two parts while the two threads share the round's weight-gradient sums over
all rows, each sum the whole-stack product added in round order. Every
product a part makes has at least 64 rows and runs BLAS's NT kernel, so the
split gives the one-part bits wherever BLAS gives a row the same bits in
every such product: on a 256-graph batch, at every H up to 260 with one
OpenBLAS 0.3.31 thread, and with two at every H up to 192 and at the
multiples of 8 beyond; at the other H from 193 on, the parts' states, and so
the gradients, differ in their last bits.

The finite-difference check runs its probes in batches: a stack of copies of
one graph, each copy with its own parameter set, where every weight product is
one batched matmul over the copies. Each probe's parameters are a row of one
block that stores the seven round matrices transposed, so a round's products
run BLAS's NN kernel, more than twice as fast on these tiny matrices as the NT
kernel a single-graph pass runs. Batched matmul gives each copy the bits of
its own 2-D product, the NN and NT products agree bit for bit at the sizes
listed at ``GRADCHECK_CHUNK_BYTES`` (H=8 among them), and the sparse message
sum adds each row's neighbours in the same order; so at those sizes every
probe's loss is bitwise that of a single-graph pass. A probe skips the rounds
its coordinate cannot change: every node starts at e1, so round 1 reads only
column 0 of ``w_msg``, ``u_z``, ``u_r`` and ``u_c`` and uses only column 0
of the reset gate (row 0 of ``gru.w_r``, entry 0 of ``gru.b_r``), and a
readout coordinate changes no round. Such a probe starts from the states the
single-graph pass of the analytic gradient cached before its first round.
Those states come from NT products, so they too leave each loss bitwise where
NN and NT agree, and elsewhere may move it in the last bits.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .data import read_lines
from .graphs import Graph, GraphArrays
from .spectral import algebraic_connectivity

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    return _assemble(
        {name: vec[sl].reshape(shape) for name, sl, shape in _layout(hidden_size)},
        hidden_size,
    )


# The matrices every message-passing round multiplies by: a probe block
# stores them transposed (``_probe_positions``).
_ROUND_MATRICES = frozenset(
    name for name, kind in _TENSOR_SPECS if kind == "hh" and not name.startswith("readout")
)


@functools.lru_cache(maxsize=None)
def _probe_positions(hidden_size: int) -> np.ndarray:
    """The block column of each canonical coordinate in a probe block.

    A probe block stores each round matrix W transposed, W[i, j] at column
    ``start + j * H + i`` of its span, and every other tensor in canonical
    order. The map is read-only and its own inverse.
    """
    h = hidden_size
    pos = np.arange(param_count(h))
    transposed = np.arange(h * h).reshape(h, h).T.ravel()
    for name, sl, _ in _layout(h):
        if name in _ROUND_MATRICES:
            pos[sl] = sl.start + transposed
    pos.flags.writeable = False
    return pos


def _probe_block(theta: np.ndarray, rows: int, hidden_size: int) -> np.ndarray:
    """A ``(rows, P)`` probe block holding ``theta`` in every row, laid out
    as ``_probe_positions`` says."""
    block = np.empty((rows, theta.size))
    block[:, _probe_positions(hidden_size)] = theta
    return block


def _probe_views(block: np.ndarray, hidden_size: int) -> ModelParams:
    """Parameters of K probes whose tensors view the rows of a ``(K, P)``
    probe block (``_probe_block``).

    Matrices are ``(K, H, H)``, biases ``(K, 1, H)``, the readouts' ``w2``
    ``(K, H, 1)`` and ``b2`` ``(K, 1, 1)``, so each broadcasts against, or
    multiplies, ``(K, rows, H)`` states probe by probe. A round matrix is the
    ``.swapaxes(-1, -2)`` view of its transposed span, so it holds W's values
    while ``_t(w)`` is C-contiguous per probe: ``states @ _t(w)`` then runs
    BLAS's NN kernel, not the slower NT one a canonical span gives. The
    readout matrices keep canonical order (see ``GRADCHECK_CHUNK_BYTES``).
    """
    k, h = block.shape[0], hidden_size
    shapes = {"hh": (k, h, h), "h": (k, 1, h), "scalar": (k, 1, 1)}
    views = {}
    for (name, sl, _), (_, kind) in zip(_layout(h), _TENSOR_SPECS):
        shape = (k, h, 1) if name.endswith(".w2") else shapes[kind]
        view = block[:, sl].reshape(shape)
        views[name] = _t(view) if name in _ROUND_MATRICES else view
    return _assemble(views, h)


def _assemble(v: dict, hidden_size: int) -> ModelParams:
    """ModelParams from a ``name -> tensor`` map in ``_TENSOR_SPECS`` names."""

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

    sizes: np.ndarray        # nodes per graph
    offsets: np.ndarray      # row offset per graph, length len(sizes) + 1
    node_graph: np.ndarray   # graph index per stacked node row
    adjacency: sp.csr_matrix

    @property
    def n_total(self) -> int:
        return int(self.offsets[-1])


def build_stack(arrays: GraphArrays) -> GraphStack:
    """The stack of the graphs of ``arrays``: each graph's edge rows shifted
    by its first node row, then one CSR adjacency over all rows.

    The adjacency's column indices come from sorting the keys
    ``row * total + column`` of both directions of every edge. The keys are
    int32 while every one fits (``total**2 < 2**31``, fewer than 46,341 rows)
    and int64 beyond, which sorts at half the speed. ``indices`` and
    ``indptr`` are built as int32, the dtype scipy keeps for them, so the
    matrix takes both without a copy or a scan of their contents.
    """
    # scipy.sparse costs about 0.2 s and 20 MiB to import, which the commands
    # that run no model (gen-data, a verified load) should not pay
    import scipy.sparse as sp

    if not len(arrays):
        raise ValueError("need at least one graph")
    sizes = arrays.sizes
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    key = np.int32 if total * total < 2**31 else np.int64
    # every endpoint shifted by its graph's first row, flat as i0, j0, i1, j1, ...
    ends = arrays.ends.ravel().astype(key)
    ends += np.repeat(offsets[:-1].astype(key), 2 * np.diff(arrays.edge_offsets))
    i, j = ends[0::2], ends[1::2]
    # both directions of every edge, in row-major (row, column) order
    keys = np.sort(np.concatenate((i * total + j, j * total + i)))
    # each key's column: floor division by a scalar runs several times faster than %
    indices = (keys - keys // total * total).astype(np.int32, copy=False)
    indptr = np.zeros(total + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(ends, minlength=total))
    adjacency = sp.csr_matrix((np.ones(keys.size), indices, indptr), shape=(total, total))
    node_graph = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    return GraphStack(
        sizes=sizes,
        offsets=offsets,
        node_graph=node_graph,
        adjacency=adjacency,
    )


@dataclass
class ForwardCache:
    """The intermediates of one forward pass that the reverse pass reads, in
    stacked (node-row) layout. The reset state ``r * state`` is not kept:
    ``backward_stack`` recomputes it from ``reset_gates`` and ``states``."""

    mode: str
    rounds: int
    stack: GraphStack
    states: list          # rounds + 1 matrices, states[t] before round t+1
    messages: np.ndarray  # aggregated neighbor messages, (rounds, rows, H)
    update_gates: list    # z
    reset_gates: list     # r
    candidates: list      # c
    readout_input: np.ndarray
    readout_preact: np.ndarray
    readout_hidden: np.ndarray
    estimates: np.ndarray


def _t(w: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: ``w.T`` for a matrix, per probe for a
    ``(K, H, H)`` stack of them (``.mT`` needs numpy 2)."""
    return w.swapaxes(-1, -2)


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
    and aliases no other argument, except that ``reset_state`` may be ``r``:
    nothing reads the reset gate after ``r * states``, so a caller that keeps
    no gates lets the product overwrite it. The arithmetic is, operation for
    operation, ``sigmoid(a) = 1 / (1 + exp(-a))`` of
    ``(messages @ w.T + states @ u.T) + b`` per gate and
    ``(1 - z) * states + z * c``. ``exp`` overflows to inf for very negative
    gate inputs, giving the correct limit 0; the caller silences that warning
    once per pass.

    States are ``(rows, H)`` with ``(H, H)`` weights and ``(H,)`` biases, or
    ``(K, rows, H)`` with the ``(K, H, H)`` weights and ``(K, 1, H)`` biases
    of ``_probe_views``: one batched product per gate term, each probe's rows
    with its own weights.
    """
    gates = ((z, gru.w_z, gru.u_z, gru.b_z), (r, gru.w_r, gru.u_r, gru.b_r))
    for gate, w, u, b in gates:
        np.matmul(messages, _t(w), out=gate)
        np.matmul(states, _t(u), out=scratch)
        np.add(gate, scratch, out=gate)
        np.add(gate, b, out=gate)
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        np.add(1.0, gate, out=gate)
        np.divide(1.0, gate, out=gate)
    np.multiply(r, states, out=reset_state)
    np.matmul(messages, _t(gru.w_c), out=c)
    np.matmul(reset_state, _t(gru.u_c), out=scratch)
    np.add(c, scratch, out=c)
    np.add(c, gru.b_c, out=c)
    np.tanh(c, out=c)
    np.subtract(1.0, z, out=scratch)
    np.multiply(scratch, states, out=scratch)
    np.multiply(z, c, out=out)
    np.add(scratch, out, out=out)


def _readout_rows(ro: ReadoutParams, x: np.ndarray):
    preact = x @ _t(ro.w1) + ro.b1
    hidden = np.maximum(preact, 0.0)
    estimates = hidden @ ro.w2 + ro.b2
    return estimates, preact, hidden


def _segment_mean(x: np.ndarray, stack: GraphStack) -> np.ndarray:
    sums = np.add.reduceat(x, stack.offsets[:-1], axis=0)
    return sums / stack.sizes[:, None]


# When a stack runs as two row parts. Each part needs at least PART_MIN_ROWS
# node rows: OpenBLAS gives a row the same bits in every NT product of 38 or
# more rows, wherever the row sits, so such a part computes every state and
# every reverse-chain gradient bit for bit as the whole stack does
# (``tests/test_model.py`` checks the property at H <= 64, and split passes
# at H 100, 128 and 256 too; with two BLAS threads, at larger H that is not a
# multiple of 8, it holds only in products of more than about H rows, and a
# 256-graph batch splits with other bits at every such H from 193 on). The
# NN kernel gives a row bits that depend on the product's length at H=20,
# 25..28 and others, so neither pass multiplies a part by it. Each
# part also needs at least PART_MIN_VALUES state values (rows times H): below
# that, two threads of short numpy calls handing the GIL back and forth cost
# more than they save, so the pass runs slower split than whole. The same row
# count decides when a stack runs round 1 on its degree table and how long the
# table is at least; the table rests on the same property, so it is bitwise
# the direct round at H <= 64 only (see the module docstring).
PART_MIN_ROWS = 64
PART_MIN_VALUES = 1 << 13


def _row_parts(stack: GraphStack, hidden_size: int) -> list[slice]:
    """The stack's node rows as one part, or as two split at the graph
    boundary nearest the middle row when each side has ``PART_MIN_ROWS``
    rows and ``PART_MIN_VALUES`` state values."""
    n = stack.n_total
    cut = int(stack.offsets[np.abs(2 * stack.offsets - n).argmin()])
    side = min(cut, n - cut)
    if side < PART_MIN_ROWS or side * hidden_size < PART_MIN_VALUES:
        return [slice(0, n)]
    return [slice(0, cut), slice(cut, n)]


def _diagonal_block(adjacency: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """``adjacency[rows, rows]`` for ``rows`` cut at a graph boundary: no
    edge crosses the cut, so the block's CSR arrays are those rows' spans of
    the stack's, re-based by the cut (the data a view)."""
    import scipy.sparse as sp

    lo, hi = adjacency.indptr[rows.start], adjacency.indptr[rows.stop]
    n = rows.stop - rows.start
    return sp.csr_matrix(
        (adjacency.data[lo:hi], adjacency.indices[lo:hi] - rows.start,
         adjacency.indptr[rows.start : rows.stop + 1] - lo),
        shape=(n, n),
    )


@functools.cache
def _part_worker() -> ThreadPoolExecutor:
    """The one thread that runs a split stack's second part, in a forward
    pass its GRU rounds and in a backward pass, round by round, its reverse
    chain and half of the weight-gradient sums; it starts on the first split
    pass."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fiedler-part")


def _submit(fn, *args):
    """Run ``fn(*args)`` on the part worker under the caller's context:
    numpy keeps ``np.errstate`` in a context variable, so hand the worker ours."""
    return _part_worker().submit(contextvars.copy_context().run, fn, *args)


if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread
    os.register_at_fork(after_in_child=_part_worker.cache_clear)


def _run_rounds(params: ModelParams, adjacency: sp.csr_matrix, rows: slice, steps) -> None:
    """Every round of one row part, written into ``rows`` of each buffer.

    ``adjacency`` is the part's diagonal block and ``steps`` holds per round
    the whole-stack arrays (input state, ``r * state``, message or None, z,
    r, c, new state). A part reads no row outside its own, so two parts may
    run at the same time.
    """
    scratch = np.empty((rows.stop - rows.start, params.hidden_size))
    for x, rs, m, z, r, c, out in steps:
        x = x[rows]
        sent = adjacency @ np.matmul(x, params.w_msg.T, out=scratch)
        if m is None:
            m = sent
        else:
            m = m[rows]
            m[...] = sent
        _gru_step(params.gru, x, m, out[rows], z[rows], r[rows], c[rows], rs[rows], scratch)


def _degree_table(params: ModelParams, adjacency: sp.csr_matrix):
    """Round 1 once per distinct node degree of ``adjacency``.

    Returns ``(row, table)``: ``table`` holds the round's message, z, r, c
    and new state, one row per distinct degree in ascending
    order, padded with degree-0 rows to at least ``PART_MIN_ROWS`` rows, and
    ``row[i]`` is the table row of node row i. Every node starts at e1, so
    every sent row is the same; the table's messages come from a "star"
    matrix whose row for degree d holds d ones, so the CSR product adds d
    such rows in the order the adjacency's product adds a node's d
    neighbours. With at least ``PART_MIN_ROWS`` rows on both sides, each
    product gives a table row the bits it gives the node rows of its degree.
    """
    import scipy.sparse as sp

    degree = np.diff(adjacency.indptr)
    seen = np.bincount(degree) > 0
    degrees = np.flatnonzero(seen)
    size = max(PART_MIN_ROWS, seen.size)  # seen.size - 1 is the largest degree
    # int32 index arrays, as build_stack's, so scipy copies neither
    counts = np.zeros(size, dtype=np.int32)
    counts[: degrees.size] = degrees
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    cols = np.arange(indptr[-1], dtype=np.int32) - np.repeat(indptr[:-1], counts)
    star = sp.csr_matrix((np.ones(cols.size), cols, indptr), shape=(size, size))
    x0 = initial_state(size, params.hidden_size)
    z, r, c, rs, out, scratch = np.empty((6, *x0.shape))
    m = star @ np.matmul(x0, params.w_msg.T, out=scratch)
    _gru_step(params.gru, x0, m, out, z, r, c, rs, scratch)
    row = np.cumsum(seen) - 1  # the table row of each degree
    return row[degree], (m, z, r, c, out)


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

    With a cache, one ``(rounds, 4, rows, H)`` block is allocated up front and
    round t writes its z, r, c and new state into the views ``block[t]``, so
    the cache's per-round lists hold views into that block; the messages go
    into their own ``(rounds, rows, H)`` array, and every round writes
    ``r * state``, which only its own candidate reads, into one reused
    buffer. Without a cache, two state buffers take turns, the gates are
    reused and ``r * state`` overwrites r.

    Every node starts at e1, so after round 1 a node's message, gates and
    state depend only on its degree (the first step of Weisfeiler-Lehman
    colour refinement). A stack of at least ``PART_MIN_ROWS`` rows runs round
    1 once per distinct degree (``_degree_table``) and gathers the rows into
    its buffers: the new state alone without a cache, every round-1 array
    with one. The table is at least ``PART_MIN_ROWS`` rows long, so at
    H <= 64 every product gives its rows the bits the stack's own products
    would, and every value is bitwise that of the direct round; at H=100
    with two BLAS threads, or H=201 with one, the estimates differ from the
    direct round's by up to about 9e-16 (OpenBLAS 0.3.31). A smaller stack (one
    graph of fewer than 64 nodes, say) runs round 1 directly like the rest.

    A stack of two parts (``_row_parts``) runs the GRU rounds of its second
    part on one worker thread while the caller runs the first, under the
    caller's ``np.errstate``. Each part multiplies by its diagonal block of
    the adjacency, sliced from the stack's CSR arrays (``_diagonal_block``).
    Every value is bitwise that of one part where BLAS gives a row the same
    bits in every product of ``PART_MIN_ROWS`` or more rows: checked at
    every H up to 260 with one thread, and with two at every H up to 192
    and the multiples of 8 beyond (``PART_MIN_ROWS``). The readout runs once
    on the whole stack.
    """
    _check_mode(mode)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    use_table = stack.n_total >= PART_MIN_ROWS
    if want_cache or not use_table:
        x0 = initial_state(stack.n_total, params.hidden_size)
    else:  # nothing reads it: the table gives round 1's state, round 2 writes here
        x0 = np.empty((stack.n_total, params.hidden_size))
    if want_cache:
        block = np.empty((rounds, 4, *x0.shape))
        messages = np.empty((rounds, *x0.shape))
        reset_state = np.empty(x0.shape)
        states = [x0, *block[:, 3]]
        steps = [(states[t], reset_state, messages[t], *block[t]) for t in range(rounds)]
    else:
        z, r, c, spare = np.empty((4, *x0.shape))
        states = [x0, spare]
        steps = [(states[t % 2], r, None, z, r, c, states[1 - t % 2])
                 for t in range(rounds)]
    x = steps[-1][-1]

    parts = _row_parts(stack, params.hidden_size)
    with np.errstate(over="ignore"):
        if use_table:
            row, table = _degree_table(params, stack.adjacency)
            # message, z, r, c and new state with a cache, else the state
            kept = zip(table, steps[0][2:]) if want_cache else [(table[-1], steps[0][-1])]
            for src, dst in kept:  # under the default mode, take buffers its output
                np.take(src, row, axis=0, out=dst, mode="clip")
            steps = steps[1:]
        if len(parts) == 1 or not steps:
            _run_rounds(params, stack.adjacency, slice(0, stack.n_total), steps)
        else:
            first, second = parts
            future = _submit(_run_rounds, params, _diagonal_block(stack.adjacency, second),
                             second, steps)
            try:
                _run_rounds(params, _diagonal_block(stack.adjacency, first), first, steps)
            finally:
                future.result()

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
        update_gates=list(block[:, 0]),
        reset_gates=list(block[:, 1]),
        candidates=list(block[:, 2]),
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
            stack.node_graph, weights=err * err, minlength=len(stack.sizes)
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


def _weight_sums(acc: np.ndarray, terms) -> None:
    """Add to ``acc`` the weight-gradient sums over every node row of
    ``terms``: ``d.T @ x`` for each ``(d, x)``, or ``d.sum(axis=-2)`` where
    ``x`` is None; a ``(k, rows, H)`` stack ``d`` gives its k sums in order,
    each by the product or sum its own ``(rows, H)`` slice would make.
    ``acc`` is the flat gradient's span of those tensors, in their order, so
    one add updates every coordinate as its own ``+=`` would."""
    acc += np.concatenate(
        [(d.sum(axis=-2) if x is None else np.matmul(_t(d), x)).ravel() for d, x in terms]
    )


def _reverse_rounds(params: ModelParams, cache: ForwardCache, adjacency: sp.csr_matrix,
                    rows: slice, dx: np.ndarray, d_blocks: np.ndarray):
    """The reverse chain of one row part, one round per ``next``, last round
    first.

    ``adjacency`` is the part's diagonal block and ``dx`` the gradient of its
    rows of the last state. Round t writes its rows of the gate-input
    gradients d_az, d_ar, d_ac and of the sent messages' gradient into the
    whole-stack ``(4, rows, H)`` buffer ``d_blocks[t % 2]``, overwrites
    ``dx`` with the state gradient round t - 1 starts from, and yields. Each
    product the chain adds, and ``d_ac @ u_c``, goes into one buffer of the
    part's rows, and ``d_sent``'s rows hold the round's other temporaries
    until the round writes them. Every gradient the chain makes is
    row-local, so two parts may run at the same time.
    """
    # each matrix W as the transpose of a C-contiguous copy of W.T: products
    # by it run BLAS's NT kernel, as the forward pass's do (see PART_MIN_ROWS)
    gru = params.gru
    w_msg, u_c, w_c, w_r, w_z, u_r, u_z = (
        np.ascontiguousarray(w.T).T
        for w in (params.w_msg, gru.u_c, gru.w_c, gru.w_r, gru.w_z, gru.u_r, gru.u_z))
    product = np.empty(dx.shape)
    for t in range(cache.rounds - 1, -1, -1):
        x_prev = cache.states[t][rows]
        z = cache.update_gates[t][rows]
        r = cache.reset_gates[t][rows]
        c = cache.candidates[t][rows]
        # each gradient written in place in the formulas' operation order
        # (d_az = ((dx * (c - x_prev)) * z) * (1 - z), ...)
        d_az, d_ar, d_ac, d_sent = d_blocks[t % 2, :, rows]
        # 1 - z, the old state's share of the new one, waits in d_ar's buffer
        keep = np.subtract(1.0, z, out=d_ar)
        np.multiply(dx, np.subtract(c, x_prev, out=d_az), out=d_az)
        d_az *= z
        d_az *= keep
        np.multiply(dx, z, out=d_ac)
        d_ac *= np.subtract(1.0, np.multiply(c, c, out=d_sent), out=d_sent)
        # nothing reads the initial state's gradient, which round t = 0 gives
        if t:
            dx *= keep

        d_rs = np.matmul(d_ac, u_c, out=product)
        np.multiply(d_rs, x_prev, out=d_ar)
        d_ar *= r
        d_ar *= np.subtract(1.0, r, out=d_sent)
        if t:
            dx += np.multiply(d_rs, r, out=product)
            dx += np.matmul(d_ar, u_r, out=product)
            dx += np.matmul(d_az, u_z, out=product)

        dm = np.matmul(d_ac, w_c, out=product)
        dm += np.matmul(d_ar, w_r, out=d_sent)
        dm += np.matmul(d_az, w_z, out=d_sent)
        # message aggregation is symmetric: transpose of adjacency is itself
        d_sent[...] = adjacency @ dm
        if t:
            dx += np.matmul(d_sent, w_msg, out=product)
        yield


def _reverse_step(sums, chain, reset=None) -> None:
    """One thread's share of a reverse round: ``r * state`` into ``out``
    for ``reset = (r, state, out)``, if given, then the weight sums ``(acc,
    terms)`` it was handed, if any, then the next round of ``chain``, if
    any is left."""
    if reset is not None:
        np.multiply(*reset)
    if sums is not None:
        _weight_sums(*sums)
    if chain is not None:
        next(chain, None)


def backward_stack(
    params: ModelParams,
    cache: ForwardCache,
    targets: np.ndarray,
):
    """Mean squared loss over the stack and its exact parameter gradients.

    Returns (loss, grad) with ``grad`` one flat float64 vector in the
    canonical tensor order of ``param_views``.

    Each round's reverse chain (the gate, message and state gradients) is
    row-local (``_reverse_rounds``), and no chain reads the weight-gradient
    sums over all node rows (``_weight_sums``); so each round's sums are
    added at the start of the round after it, and a last step adds round 0's.
    A stack of two parts (``_row_parts``) runs each such step as one fork
    and join on the part worker, under the caller's ``np.errstate``: the
    caller adds the ``w_msg``..``w_c`` sums (the readout's, in the first
    step) and runs its part's chain, the worker adds the ``u_z``..``b_c``
    sums and runs the second part's chain. The ``u_c`` sum reads round t's
    ``r * state``, which the cache does not keep: the thread that adds that
    sum first recomputes it, by the forward pass's multiply, into one buffer
    it reuses every round. The chains write round t into the
    buffer ``t % 2``, which round t - 2 overwrites only after the join that
    ends round t's sums. Each sum is the whole-stack product a one-part pass
    makes, each span is added with one ``+=`` in round order, and each chain
    product has the bits ``forward_stack``'s split rests on; so the gradient
    is bitwise that of one part where the forward pass's states are (see
    ``PART_MIN_ROWS``). A one-part stack runs the same steps on the caller
    alone.
    """
    stack = cache.stack
    mode = cache.mode
    targets = np.asarray(targets, dtype=float)
    n_graphs = len(stack.sizes)
    if targets.shape != (n_graphs,):
        raise ValueError("one target per stacked graph required")
    per_graph = stack_losses(cache.estimates, stack, targets, mode)
    loss = float(np.mean(per_graph))

    grad = np.zeros(param_count(params.hidden_size))
    span = {name: sl for name, sl, _ in _layout(params.hidden_size)}
    # w_msg, the six GRU matrices and the three GRU biases lie end to end,
    # and so do the readout's w1, b1, w2 and b2
    g_head = grad[: span["gru.w_c"].stop]
    g_tail = grad[span["gru.u_z"].start : span["gru.b_c"].stop]
    g_ro = grad[span[f"readout_{mode}.w1"].start : span[f"readout_{mode}.b2"].stop]

    # d(mean loss)/d(estimate)
    if mode == "local":
        err = cache.estimates - np.repeat(targets, stack.sizes)
        d_est = err / (stack.sizes[stack.node_graph] * n_graphs)
        ro = params.readout_local
    else:
        d_est = (cache.estimates - targets) / n_graphs
        ro = params.readout_global

    d_hidden = d_est[:, None] * ro.w2[None, :]
    d_preact = np.where(cache.readout_preact > 0.0, d_hidden, 0.0)
    del d_hidden
    d_input = d_preact @ ro.w1
    if mode == "local":
        dx = d_input
    else:
        dx = np.repeat(d_input / stack.sizes[:, None], stack.sizes, axis=0)
    del d_input

    parts = _row_parts(stack, params.hidden_size)
    blocks = ([stack.adjacency] if len(parts) == 1
              else [_diagonal_block(stack.adjacency, rows) for rows in parts])
    # each round's d_az, d_ar, d_ac and d_sent, round t in block t % 2
    d_blocks = np.empty((2, 4, *dx.shape))
    chains = [_reverse_rounds(params, cache, block, rows, dx[rows], d_blocks)
              for block, rows in zip(blocks, parts)]
    reset_state = np.empty(dx.shape)  # round t's r * state, the u_c sum's input
    # the sums the caller and the worker add first in a round: in the first,
    # the readout's w1, b1, w2 and b2 (a (rows, 1) column sums as the vector
    # does), then those of the round before
    sums = ((g_ro, ((d_preact, cache.readout_input), (d_preact, None),
                    (cache.readout_hidden, d_est), (d_est[:, None], None))), None)
    del d_preact  # released with the first step's sums
    reset = None
    for t in range(cache.rounds - 1, -2, -1):  # at t = -1 only round 0's sums are left
        if len(chains) == 1:
            _reverse_step(sums[1], None, reset)
            _reverse_step(sums[0], chains[0])
        else:
            future = _submit(_reverse_step, sums[1], chains[1], reset)
            try:
                _reverse_step(sums[0], chains[0])
            finally:
                future.result()
        d_gates, d_sent = d_blocks[t % 2, :3], d_blocks[t % 2, 3]
        x_prev = cache.states[t]
        reset = (cache.reset_gates[t], x_prev, reset_state)
        sums = (
            (g_head, ((d_sent, x_prev),                      # w_msg
                      (d_gates, cache.messages[t]))),        # w_z, w_r, w_c
            (g_tail, ((d_gates[:2], x_prev),                 # u_z, u_r
                      (d_gates[2], reset_state),             # u_c
                      (d_gates, None))),                     # b_z, b_r, b_c
        )
    return loss, grad


# ---------------------------------------------------------------------------
# Single-graph API.
# ---------------------------------------------------------------------------


def gru_update(params: ModelParams, states: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """Per-node GRU: h' = (1 - z) * h + z * c with the message as gate input."""
    states = np.asarray(states, dtype=float)
    messages = np.asarray(messages, dtype=float)
    if states.shape != messages.shape or states.shape[-1] != params.hidden_size:
        raise ValueError("states and messages must both be (n, hidden_size)")
    new_states = np.empty(states.shape)
    z, r, c, scratch = np.empty((4, *states.shape))
    with np.errstate(over="ignore"):
        _gru_step(params.gru, states, messages, new_states, z, r, c, r, scratch)
    return new_states


def readout_local(params: ModelParams, h: np.ndarray) -> float:
    """Scalar estimate from one node state."""
    h = np.asarray(h, dtype=float)
    estimates, _, _ = _readout_rows(params.readout_local, h[None, :])
    return float(estimates[0])


def forward(params: ModelParams, g: Graph, rounds: int, mode: str):
    """Full pass on one graph.

    Returns (estimates, cache): a length-n vector of per-node estimates in
    local mode, a scalar in global mode.
    """
    stack = build_stack(GraphArrays.of([g]))
    estimates, cache = forward_stack(params, stack, rounds, mode, want_cache=True)
    if mode == "global":
        return float(estimates[0]), cache
    return estimates, cache


# Bytes of the (probes, P) parameter block one grad_check chunk evaluates in a
# single batched forward pass: two probes (+epsilon, -epsilon) per coordinate.
# Larger blocks spread the per-call overhead over more probes but raise peak
# memory; this size gives 51 coordinates per chunk at H=8 and 3 at H=32, where
# checking every coordinate at once would take a 1.4 GB block. The block
# stores the round matrices transposed (``_probe_positions``): a probe's NN
# product of n state rows then has the bits of the single-graph NT product at
# H 1..16, 21..24 and 29..31 for n >= 2 and at H=32 for n >= 38, and other
# bits at H 17..20 and 25..28 and at H=32 below 38 rows (OpenBLAS 0.3.31,
# one or two threads). The readout matrices keep canonical order: the global
# readout's pooled product has one row per probe, where the two differ at
# every H.
GRADCHECK_CHUNK_BYTES = 1 << 19


@functools.lru_cache(maxsize=None)
def _first_rounds(hidden_size: int, rounds: int, mode: str) -> np.ndarray:
    """The first round of a ``rounds``-round pass in ``mode`` that reads each
    canonical coordinate, where round ``rounds + 1`` is the readout and
    ``rounds + 2`` marks the readout the mode never reads.

    Every node starts at e1 (``initial_state``), and round 1 multiplies
    that state, or ``r * state``, by ``w_msg``, ``u_z``, ``u_r`` and
    ``u_c``: column j > 0 of those meets a zero entry, and each ``0 * w`` it
    adds to a product changes no bit, so round 2 reads it first (the readout,
    at T=1). Row j > 0 of ``gru.w_r`` and entry j of ``gru.b_r`` set column
    j of the reset gate r, which round 1 uses only in ``r * state``, against
    the zero entry j of e1: r is a sigmoid, finite for finite inputs, so that
    product is +0.0 whatever they hold, and round 2 reads them first too.
    Every other round coordinate is read in round 1. The map is read-only.
    """
    h = hidden_size
    first = np.ones(param_count(h), dtype=np.intp)
    second = min(2, rounds + 1)
    later = np.arange(h * h) % h > 0  # columns 1..H-1 of a row-major matrix
    read = f"readout_{mode}."
    for name, sl, _ in _layout(h):
        if name in ("w_msg", "gru.u_z", "gru.u_r", "gru.u_c"):
            first[sl][later] = second
        elif name == "gru.w_r":
            first[sl][h:] = second  # rows 1..H-1
        elif name == "gru.b_r":
            first[sl][1:] = second
        elif name.startswith("readout"):
            first[sl] = rounds + 1 if name.startswith(read) else rounds + 2
    first.flags.writeable = False
    return first


def _stack_head(stack: GraphStack, graphs: int) -> GraphStack:
    """The stack of the first ``graphs`` graphs of ``stack``: views of its
    arrays, the adjacency cut by ``_diagonal_block``."""
    rows = slice(0, int(stack.offsets[graphs]))
    return GraphStack(
        sizes=stack.sizes[:graphs],
        offsets=stack.offsets[: graphs + 1],
        node_graph=stack.node_graph[rows],
        adjacency=_diagonal_block(stack.adjacency, rows),
    )


def _probe_losses(
    probe: ModelParams,
    stack: GraphStack,
    start: np.ndarray,
    target: float,
    rounds: int,
    mode: str,
) -> np.ndarray:
    """Loss of each of K probes (``_probe_views``) on its own copy of a graph
    against ``target``: ``stack`` holds K copies of the graph, and copy k
    starts from the graph's ``(n, H)`` node states ``start`` and runs
    ``rounds`` rounds (none: the readout alone) and the readout with probe k.

    The same operations as ``forward_stack`` without a cache and
    ``stack_losses``, batched over the probes. Where the NN products of the
    round matrices give the bits of the NT ones (``GRADCHECK_CHUNK_BYTES``)
    and ``start`` holds the states a single-graph pass with probe k's
    parameters reaches before those rounds, every loss is bitwise the one
    that pass gives. Overflow warnings are the caller's to silence.
    """
    k, h = probe.w_msg.shape[0], probe.hidden_size
    x = np.empty((k, *start.shape))
    x[...] = start
    scratch = np.empty(x.shape)
    z, r, c, spare = np.empty((4, *x.shape))
    for _ in range(rounds):
        np.matmul(x, _t(probe.w_msg), out=scratch)
        m = (stack.adjacency @ scratch.reshape(-1, h)).reshape(x.shape)
        _gru_step(probe.gru, x, m, spare, z, r, c, r, scratch)
        x, spare = spare, x
    if mode == "local":
        estimates, _, _ = _readout_rows(probe.readout_local, x)
    else:
        pooled = _segment_mean(x.reshape(-1, h), stack)[:, None, :]
        estimates, _, _ = _readout_rows(probe.readout_global, pooled)
    return stack_losses(estimates.ravel(), stack, np.full(k, target), mode)


def grad_check(
    params: ModelParams,
    g: Graph,
    rounds: int,
    mode: str,
    epsilon: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients
    of the loss against the oracle's label of ``g``, over every coordinate.

    ``corrupt`` deliberately damages one analytic gradient entry, for
    validating the detector itself.

    A probe starts at the first round its coordinate can change
    (``_first_rounds``), from the states the analytic gradient's cached
    pass reached before it: a coordinate that round 1 cannot read (columns
    1..H-1 of ``w_msg``, ``u_z``, ``u_r`` and ``u_c``, rows 1..H-1 of
    ``gru.w_r`` and entries 1..H-1 of ``gru.b_r``) runs rounds 2..T, one of
    the mode's readout only the readout, and the others every round. The
    coordinates of the readout the mode does not read need no pass: both of
    their probe losses are the unperturbed loss.

    The probes run in chunks of coordinates that share their first round.
    One block of at most GRADCHECK_CHUNK_BYTES holds the flat parameters
    once per probe, filled once per check in the layout of
    ``_probe_positions``; each chunk moves each probe's coordinate by
    +epsilon or -epsilon, evaluates every probe's loss in one batched
    forward pass (``_probe_losses``) and puts back the entries it moved.
    The stack of probe copies of the graph is built once per check, a
    shorter chunk taking a prefix of it (``_stack_head``), and the views
    once per distinct chunk size. Where the NN products of the transposed
    round matrices give the NT bits (``GRADCHECK_CHUNK_BYTES``), as at H=8,
    each loss, and so the result, is bitwise the one of a separate
    single-graph pass per probe; elsewhere it may differ in the last bits,
    as the cached states come from NT products and the probe rounds from
    NN ones. ``params`` itself is never written. Each coordinate's error
    goes into one array of them, and the chunks are cut as they run, so
    memory does not grow with the number of chunks. Returns NaN when one
    coordinate's error is NaN (say, from a non-finite loss): such a check
    measured nothing and must not pass. The probe losses and differences
    run with overflow and invalid-operation warnings off, as that NaN is
    the report.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    _check_mode(mode)
    target = float(algebraic_connectivity(g))

    one = GraphArrays.of([g])
    stack = build_stack(one)
    _, cache = forward_stack(params, stack, rounds, mode, want_cache=True)
    loss, analytic = backward_stack(params, cache, np.array([target]))
    theta = flatten_params(params)
    if corrupt:
        analytic[0] += 1.0
    rel = np.zeros(theta.size)

    def score(idx, numeric) -> bool:
        """Write the errors of coordinates ``idx``; True if one is NaN."""
        a = analytic[idx]
        rel[idx] = np.abs(a - numeric) / np.maximum(1e-8, np.abs(a) + np.abs(numeric))
        return bool(np.isnan(rel[idx]).any())

    first = _first_rounds(params.hidden_size, rounds, mode)
    groups = [(s, np.flatnonzero(first == s)) for s in range(1, rounds + 2)]
    budget = GRADCHECK_CHUNK_BYTES // (2 * theta.nbytes)
    per_chunk = max(1, min(budget, max(idx.size for _, idx in groups)))
    block = _probe_block(theta, 2 * per_chunk, params.hidden_size)
    copies = build_stack(one.take(np.zeros(2 * per_chunk, dtype=np.intp)))
    pos = _probe_positions(params.hidden_size)
    # the probe stack and views of each chunk size: the full one and the tails
    batches: dict[int, tuple[GraphStack, ModelParams]] = {}
    chunks = ((s, idx[i : i + per_chunk])
              for s, idx in groups for i in range(0, idx.size, per_chunk))
    # Moving a coordinate of the readout the mode never reads leaves both
    # probe losses at the unperturbed loss, so its central difference is
    # (loss - loss) / (2 epsilon) without a forward pass.
    idle = np.flatnonzero(first > rounds + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        nan = score(idle, np.full(idle.size, (loss - loss) / (2.0 * epsilon)))
        for s, idx in chunks:
            if nan:
                break  # a NaN error already decides the result
            k = idx.size
            if k not in batches:
                batches[k] = (_stack_head(copies, 2 * k),
                              _probe_views(block[: 2 * k], params.hidden_size))
            stack_k, probe = batches[k]
            rows, cols = np.arange(k), pos[idx]
            block[rows, cols] = theta[idx] + epsilon
            block[k + rows, cols] = theta[idx] - epsilon
            losses = _probe_losses(probe, stack_k, cache.states[s - 1], target,
                                   rounds + 1 - s, mode)
            block[rows, cols] = block[k + rows, cols] = theta[idx]
            nan = score(idx, (losses[:k] - losses[k:]) / (2.0 * epsilon))
    return float(rel.max())  # NaN if one error is NaN


# ---------------------------------------------------------------------------
# Checkpoint serialization (text, bit-exact round trip).
# ---------------------------------------------------------------------------


def save_params(params: ModelParams, path, mode: str, rounds: int) -> None:
    """Write a versioned text checkpoint whose header names H, the readout
    mode and T; %.17g keeps doubles bit-exact. ``rounds`` must be an integer
    >= 1, as ``load_params`` requires of the header's T."""
    _check_mode(mode)
    if not isinstance(rounds, numbers.Integral) or rounds < 1:
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} H={params.hidden_size} "
             f"mode={mode} T={int(rounds)}"]
    for name, arr in param_tensors(params):
        shape = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {shape}")
        rows = arr if arr.ndim == 2 else arr[None, :]
        row_format = " ".join(["%.17g"] * rows.shape[1])
        lines.extend(row_format % tuple(row) for row in rows.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_positive_int(path, meta: dict, key: str) -> int:
    value = meta[key]
    if not value.isdigit() or int(value) < 1:
        raise ValueError(f"{path}: header {key}={value} is not an integer >= 1")
    return int(value)


def load_params(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns (params, header metadata). The header must
    give H; ``mode=`` and ``T=`` may be missing from a file written elsewhere."""
    lines = read_lines(path)
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
        if key in meta:
            raise ValueError(f"{path}: header repeats {key}=")
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
            # float() would take "_" as a digit separator; %.17g never writes one
            if "_" in row_line:
                raise ValueError(f"{path}:{lineno}: tensor {name} has a '_' in a value")
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
