"""Labeled graph datasets and their line-oriented interchange format.

Each item pairs a connected graph with its true algebraic connectivity. The
on-disk format is one header line ``fiedler-dataset v1 count=<k>`` followed by
one line per graph: ``n=<n> edges=<i-j,...> lambda2=<%.12e>`` with edges in
lexicographic order. Regenerating with the same config reproduces the file
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphGenConfig, generate_connected_graph, is_connected
from .spectral import algebraic_connectivities

DATASET_MAGIC = "fiedler-dataset"
DATASET_VERSION = "v1"

LABEL_TOL = 1e-9


@dataclass
class Dataset:
    """List of (graph, lambda2) pairs."""

    items: list

    def __len__(self) -> int:
        return len(self.items)

    def graphs(self) -> list[Graph]:
        return [g for g, _ in self.items]

    def labels(self) -> list[float]:
        return [y for _, y in self.items]


def generate_dataset(cfg: GraphGenConfig, count: int) -> Dataset:
    """``count`` labeled connected graphs, deterministic per cfg."""
    if count < 1:
        raise ValueError("count must be >= 1")
    graphs = [generate_connected_graph(cfg, draw_index) for draw_index in range(count)]
    return Dataset(items=list(zip(graphs, algebraic_connectivities(graphs))))


def _format_item(g: Graph, label: float) -> str:
    edges = ",".join(f"{i}-{j}" for i, j in g.edge_list())
    return f"n={g.n} edges={edges} lambda2={label:.12e}"


def dataset_text(ds: Dataset) -> str:
    lines = [f"{DATASET_MAGIC} {DATASET_VERSION} count={len(ds.items)}"]
    lines.extend(_format_item(g, label) for g, label in ds.items)
    return "\n".join(lines) + "\n"


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dataset_text(ds))


def _parse_item(line: str, path, lineno: int):
    fields = {}
    for token in line.split():
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        n = int(fields["n"])
        edge_field = fields["edges"]
        label = float(fields["lambda2"])
        edges = []
        if edge_field:
            for pair in edge_field.split(","):
                i, _, j = pair.partition("-")
                edges.append((int(i), int(j)))
        g = Graph(n, edges)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
    if edges != g.edge_list():
        raise ValueError(
            f"{path}:{lineno}: edges must be distinct i-j pairs with i < j, "
            "in lexicographic order"
        )
    return g, label


def load_dataset(path, verify: bool = True) -> Dataset:
    """Read a dataset file; ``verify`` re-checks connectivity and every label
    against the spectral oracle (tolerance 1e-9)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    head = lines[0].split()
    if head[:2] != [DATASET_MAGIC, DATASET_VERSION]:
        raise ValueError(f"{path}: not a {DATASET_MAGIC} {DATASET_VERSION} file")
    try:
        count = int(dict(tok.partition("=")[::2] for tok in head[2:])["count"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: header missing count=") from exc
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        raise ValueError(f"{path}: header says {count} graphs, found {len(body)}")

    items = [_parse_item(line, path, lineno) for lineno, line in body]
    if verify:
        truths = algebraic_connectivities([g for g, _ in items])
        for (lineno, _), (g, label), truth in zip(body, items, truths):
            if not is_connected(g):
                raise ValueError(f"{path}:{lineno}: graph is not connected")
            if not (abs(truth - label) <= LABEL_TOL):
                raise ValueError(
                    f"{path}:{lineno}: label {label} disagrees with oracle {truth}"
                )
    return Dataset(items=items)
