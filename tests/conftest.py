"""Shared graph builders and helpers for the test suite."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import scipy.sparse as sp

import fiedler
from fiedler import spectral
from fiedler.graphs import Graph, GraphArrays, laplacian_stack
from fiedler.model import GraphStack
from fiedler.training import METRICS_HEADER, EpochRecord, Metrics


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Hub node 0 with ``leaves`` pendant nodes."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def laplacian_of(g: Graph) -> np.ndarray:
    return laplacian_stack(GraphArrays.of([g]))[0]


def eigenvalues(stack: np.ndarray) -> np.ndarray:
    """The oracle's solver on an exactly symmetric ``(B, n, n)`` stack."""
    return spectral._solve(stack, np.full(len(stack), stack.shape[-1]))


def count_solver_calls(monkeypatch) -> list:
    """Patch the oracle's solver to record the sorted node counts of each
    stack it is handed; returns that record."""
    calls = []
    solve = spectral._solve

    def counting(stack, sizes):
        calls.append(sorted(sizes.tolist()))
        return solve(stack, sizes)

    monkeypatch.setattr(spectral, "_solve", counting)
    return calls


def traced_peak(fn, *args, **kwargs):
    """``(result, peak)``: what ``fn(*args, **kwargs)`` returns and the peak
    bytes tracemalloc traced while it ran, counted from the call's start."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def degree(g: Graph, v: int) -> int:
    return sum(1 for i, j in g.edges if v in (i, j))


def permute(g: Graph, perm) -> Graph:
    """Relabel nodes: edge {i, j} becomes {perm[i], perm[j]}."""
    p = [int(x) for x in perm]
    if sorted(p) != list(range(g.n)):
        raise ValueError(f"perm must be a bijection of 0..{g.n - 1}")
    return Graph(g.n, [(p[i], p[j]) for i, j in g.edges])


def metrics_from_csv_text(text: str) -> Metrics:
    """The ``Metrics`` whose ``csv_text`` is ``text``."""
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError("not a metrics CSV")
    rows = []
    for line in lines[1:]:
        epoch, train_l2, val_l1, val_l2, wall = line.split(",")
        rows.append(
            EpochRecord(int(epoch), float(train_l2), float(val_l1), float(val_l2), float(wall))
        )
    return Metrics(rows=rows)


def build_stack_int64_keys(arrays: GraphArrays) -> GraphStack:
    """Reference: the stack as build_stack made it with int64 shifts and
    keys at every size, letting scipy narrow both index arrays."""
    sizes = arrays.sizes
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    ends = arrays.ends + np.repeat(offsets[:-1], np.diff(arrays.edge_offsets))[:, None]
    i, j = ends.T
    keys = np.sort(np.concatenate((i * total + j, j * total + i)))
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends.ravel(), minlength=total), out=indptr[1:])
    adjacency = sp.csr_matrix((np.ones(keys.size), keys % total, indptr), shape=(total, total))
    node_graph = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    return GraphStack(sizes, offsets, node_graph, adjacency)


def run_at_one_and_two_blas_threads(script: str) -> None:
    """Run ``script`` in a child process at ``OPENBLAS_NUM_THREADS`` 1 and at
    2, with ``fiedler`` and the test modules importable; each run must end
    without error. OpenBLAS fixes its thread count at import, so each count
    needs a process of its own."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiedler.__file__)))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script + "\nprint('ok')\n"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", (threads, proc.stderr)
