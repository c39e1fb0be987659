"""Labeled graph datasets and their line-oriented interchange format.

Each item pairs a connected graph with its true algebraic connectivity. The
on-disk format is one header line ``fiedler-dataset v1 count=<k>`` followed by
one line per graph: ``n=<n> edges=<i-j,...> lambda2=<%.12e>`` with edges in
lexicographic order. Regenerating with the same config reproduces the file
byte for byte.

A dataset is held as arrays (``GraphArrays`` plus one label per graph), and
generating, parsing, verifying and writing one works on those arrays: no
stage builds a ``Graph`` per line or per draw.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

import numpy as np

from .graphs import (
    MAX_NODES,
    MIN_NODES,
    Graph,
    GraphArrays,
    GraphGenConfig,
    are_connected,
    generate_graph_arrays,
)
from .spectral import algebraic_connectivities, labels_within

DATASET_MAGIC = "fiedler-dataset"
DATASET_VERSION = "v1"

LABEL_TOL = 1e-9

# Graph lines per piece of text that dataset_chunks yields.
TEXT_CHUNK = 4096

# "i-j" for every endpoint pair, at index i * MAX_NODES + j.
_EDGE_TEXT = tuple(f"{i}-{j}" for i in range(MAX_NODES) for j in range(MAX_NODES))

# A graph line as the writer prints it, up to the whitespace between fields:
# n, the endpoints of the i-j pairs and the label have no "+", "_" or leading
# zero, but for the label's "-" and its exponent's sign. The groups are n, the
# edge list and the label. The label's first form is the writer's %.12e,
# which matches faster than the second, any other decimal. An endpoint's
# leading zero is caught from the length of the edge text (_parse_body): a
# stricter endpoint pattern made the match a third slower.
_EDGE = "[0-9]{1,2}-[0-9]{1,2}"
_LABEL = r"-?[1-9]\.[0-9]{12}e[+-][0-9]{2,3}|-?(?:0|[1-9][0-9]*)(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
_LINE = re.compile(
    rf"\s*n=([1-9][0-9]?)\s+edges=((?:{_EDGE}(?:,{_EDGE})*)?)\s+lambda2=({_LABEL})\s*"
)
# A zero that starts a number of two digits.
_PADDED = re.compile(r"(?<![0-9])0[0-9]")


class Dataset:
    """Labeled graphs: ``arrays`` holds the graphs and ``lambda2`` their
    labels, one float64 per graph.

    ``Dataset(items=pairs)`` builds one from ``(Graph, label)`` pairs, and
    ``items`` gives them back, built on demand: a view for callers that hold
    graphs one at a time. The pipeline itself reads only the arrays.
    """

    def __init__(self, arrays: GraphArrays | None = None, lambda2=(), *, items=None):
        if arrays is None:
            items = list(items or ())
            arrays = GraphArrays.of(g for g, _ in items)
            lambda2 = [label for _, label in items]
        self.arrays = arrays
        self.lambda2 = np.asarray(lambda2, dtype=float)
        if self.lambda2.shape != (len(arrays),):
            raise ValueError(f"{len(arrays)} graphs but {self.lambda2.size} labels")

    def __len__(self) -> int:
        return len(self.arrays)

    @property
    def items(self) -> list[tuple[Graph, float]]:
        return [(self.arrays.graph(b), label) for b, label in enumerate(self.lambda2.tolist())]


def generate_dataset(cfg: GraphGenConfig, count: int) -> Dataset:
    """``count`` labeled connected graphs, deterministic per cfg."""
    if count < 1:
        raise ValueError("count must be >= 1")
    arrays = generate_graph_arrays(cfg, count)
    return Dataset(arrays, algebraic_connectivities(arrays))


def _graph_lines(ds: Dataset, start: int, stop: int) -> list[str]:
    """The file lines of graphs start..stop-1."""
    arrays = ds.arrays
    first, last = arrays.edge_offsets[[start, stop]]
    ends = arrays.ends[first:last]
    keys = (ends[:, 0] * MAX_NODES + ends[:, 1]).tolist()
    bounds = (arrays.edge_offsets[start : stop + 1] - first).tolist()
    edge_text = _EDGE_TEXT.__getitem__
    return [
        f"n={n} edges={','.join(map(edge_text, keys[a:b]))} lambda2={label:.12e}"
        for n, a, b, label in zip(
            arrays.sizes[start:stop].tolist(), bounds, bounds[1:],
            ds.lambda2[start:stop].tolist(),
        )
    ]


def dataset_chunks(ds: Dataset) -> Iterator[str]:
    """The file text in pieces: the header line, then TEXT_CHUNK graph lines
    at a time, each piece ending in a newline."""
    yield f"{DATASET_MAGIC} {DATASET_VERSION} count={len(ds)}\n"
    for start in range(0, len(ds), TEXT_CHUNK):
        yield "\n".join(_graph_lines(ds, start, min(start + TEXT_CHUNK, len(ds)))) + "\n"


def dataset_text(ds: Dataset) -> str:
    return "".join(dataset_chunks(ds))


def read_lines(path) -> list[str]:
    """The lines of the file at ``path``, as ``str.splitlines`` splits them.
    Every file the package reads is ASCII: a byte outside it is a ValueError
    at its ``path:line``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # the bad byte's line: the lines before it, plus the one it is on
        line = len((raw[: exc.start].decode("ascii") + ".").splitlines())
        raise ValueError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not ASCII") from exc


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(dataset_chunks(ds))


def _line_error(line: str) -> str:
    """Why a dataset line is invalid, reading it as one line is checked: its
    fields, then its graph (node count, then each edge), then the edges'
    canonical order, then the exact field layout."""
    fields = dict(token.partition("=")[::2] for token in line.split())
    try:
        n = int(fields["n"])
        edge_field = fields["edges"]
        if not math.isfinite(float(fields["lambda2"])):
            return f"lambda2={fields['lambda2']} is not a finite number"
        pairs = [pair.partition("-")[::2] for pair in edge_field.split(",")] if edge_field else []
        edges = [(int(i), int(j)) for i, j in pairs]
        g = Graph(n, edges)
    except (KeyError, ValueError) as exc:
        return f"malformed dataset line: {exc}"
    if edges != g.edge_list():
        return "edges must be distinct i-j pairs with i < j, in lexicographic order"
    return "malformed dataset line: expected n=<n> edges=<i-j,...> lambda2=<label>"


def _parse_body(body) -> tuple[Dataset, int]:
    """The dataset of the body lines up to the first one that does not parse,
    and that line's position (``len(body)`` when all parse). A line parses
    when it has the writer's layout (_LINE) with no endpoint written with a
    leading zero, n lies in [MIN_NODES, MAX_NODES] and the label is finite.
    The lines are matched in one ``map`` and their values checked as arrays,
    so the first failure found is cut off by parsing again up to it; the
    edges are checked afterwards, as arrays."""
    found = list(map(_LINE.fullmatch, [line for _, line in body]))
    parsed = found.index(None) if None in found else len(found)
    n_texts, edge_fields, label_texts = (
        zip(*[fields.groups() for fields in found[:parsed]]) if parsed else ((), (), ()))
    sizes = np.array(list(map(int, n_texts)), dtype=np.intp)
    labels = np.array(list(map(float, label_texts)))
    flat = ",".join(filter(None, edge_fields)).replace("-", ",")
    ends = np.fromstring(flat, dtype=np.intp, sep=",") if flat else np.empty(0, np.intp)
    bad = (sizes < MIN_NODES) | (sizes > MAX_NODES) | ~np.isfinite(labels)
    # The writer prints one character per digit and per separator; text any
    # longer has an endpoint with a leading zero.
    if flat and len(flat) > 2 * ends.size - 1 + np.count_nonzero(ends >= 10):
        bad |= [_PADDED.search(field) is not None for field in edge_fields]
    if bad.any():
        return _parse_body(body[: int(bad.argmax())])
    arrays = GraphArrays.from_counts(sizes, [field.count("-") for field in edge_fields], ends)
    return Dataset(arrays, labels), parsed


def _bad_edges(arrays: GraphArrays) -> np.ndarray:
    """Per graph: whether an edge is a self-loop, leaves the nodes or breaks
    the strict lexicographic order of i < j pairs."""
    owner = np.repeat(np.arange(len(arrays)), np.diff(arrays.edge_offsets))
    i, j = arrays.ends.T
    bad = (i >= j) | (j >= arrays.sizes[owner])
    key = i * 128 + j  # lexicographic: endpoints have at most two digits
    bad[1:] |= (owner[1:] == owner[:-1]) & (key[1:] <= key[:-1])
    return np.bincount(owner[bad], minlength=len(arrays)) > 0


def load_dataset(path, verify: bool = True) -> Dataset:
    """Read a dataset file; ``verify`` re-checks connectivity and that every
    label lies within LABEL_TOL (1e-9) of its graph's algebraic connectivity.
    A label that is not a finite number (nan, inf) fails at its line whether
    or not ``verify`` is set.

    The label check solves no eigenproblem, so it does not re-run the Jacobi
    code that wrote the labels: ``spectral.labels_within`` certifies
    label - 1e-9 < lambda2 <= label + 1e-9 by two Cholesky factorizations of
    the Laplacian shifted by (c/n) J and by the label -/+ 1e-9 (Sylvester's
    law of inertia; see the spectral module), whose rounding can move the
    decision by at most delta, about 5e-13 (|label| + n): 3e-11 at n = 64 for
    a label of a Laplacian's size.

    The certificate also decides connectivity, so a passing file is not
    searched: a graph passes when its label exceeds 2 * LABEL_TOL and is
    certified, which is exactly "connected and certified".
    - A certified label gives lambda2 > label - 1e-9 - delta, so one above
      2e-9 gives lambda2 > 0: the graph is connected.
    - A connected graph on n <= 64 nodes has lambda2 >= 2 (1 - cos(pi / n))
      >= 2.4e-3 (M. Fiedler, Czech. Math. J. 23, 1973; the path attains it),
      so its certified label is never at or below 2e-9.
    Only the first graph that fails is searched, to tell which of the two it
    breaks, and, if connected, solved, for its error message."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    head = lines[0].split()
    if head[:2] != [DATASET_MAGIC, DATASET_VERSION]:
        raise ValueError(f"{path}: not a {DATASET_MAGIC} {DATASET_VERSION} file")
    meta: dict[str, str] = {}
    for key, _, value in (tok.partition("=") for tok in head[2:]):
        if key in meta:
            raise ValueError(f"{path}: header repeats {key}=")
        meta[key] = value
    try:
        count = int(meta["count"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: header missing count=") from exc
    if meta["count"] != str(abs(count)):  # a sign, a leading zero or a "_"
        raise ValueError(f"{path}:1: header count={meta['count']} is not a plain integer")
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        raise ValueError(f"{path}: header says {count} graphs, found {len(body)}")

    ds, parsed = _parse_body(body)
    bad = np.flatnonzero(_bad_edges(ds.arrays))
    first = int(bad[0]) if bad.size else parsed
    if first < len(body):
        lineno, line = body[first]
        raise ValueError(f"{path}:{lineno}: {_line_error(line)}")
    if verify and len(ds):
        ok = (ds.lambda2 > 2 * LABEL_TOL) & labels_within(ds.arrays, ds.lambda2, LABEL_TOL)
        if not ok.all():
            first = int(np.argmin(ok))
            where = f"{path}:{body[first][0]}"
            if not are_connected(ds.arrays.slice(first, first + 1))[0]:
                raise ValueError(f"{where}: graph is not connected")
            raise ValueError(
                f"{where}: label {ds.lambda2[first].item()} disagrees with oracle "
                f"{algebraic_connectivities(ds.arrays.slice(first, first + 1))[0].item()}"
            )
    return ds
