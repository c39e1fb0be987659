import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import fiedler
from conftest import count_solver_calls
from fiedler import data, graphs, spectral
from fiedler.cli import main
from fiedler.data import Dataset, dataset_text, generate_dataset, load_dataset, save_dataset
from fiedler.graphs import MAX_NODES, MIN_NODES, Graph, GraphGenConfig, is_connected
from fiedler.model import init_params, save_params
from fiedler.spectral import algebraic_connectivity
from fiedler.training import TrainConfig, evaluate, train


@pytest.fixture(scope="module")
def small_dataset():
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.2, 0.6), seed=77)
    return generate_dataset(cfg, 30)


def test_generate_dataset_contents(small_dataset):
    assert len(small_dataset) == 30
    for g, label in small_dataset.items:
        assert 9 <= g.n <= 11
        assert is_connected(g)
        assert label > 0.0
        assert label == pytest.approx(algebraic_connectivity(g), abs=1e-12)


def test_generate_dataset_rejects_bad_count():
    cfg = GraphGenConfig(seed=1)
    with pytest.raises(ValueError):
        generate_dataset(cfg, 0)


def test_dataset_file_round_trip(tmp_path, small_dataset):
    path = tmp_path / "data.txt"
    save_dataset(small_dataset, path)
    text = path.read_text()
    assert text.startswith("fiedler-dataset v1 count=30\n")
    loaded = load_dataset(path)
    assert [g for g, _ in loaded.items] == [g for g, _ in small_dataset.items]
    # labels are stored at 12 significant digits
    for (_, got), (_, want) in zip(loaded.items, small_dataset.items):
        assert got == pytest.approx(want, rel=1e-11)
    # saving the loaded dataset reproduces the bytes
    path2 = tmp_path / "data2.txt"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_lo=st.integers(MIN_NODES, 12),
    n_span=st.integers(0, 4),
    p_lo=st.floats(0.2, 0.9),
    count=st.integers(1, 5),
)
def test_dataset_text_round_trip_is_byte_identical(seed, n_lo, n_span, p_lo, count):
    cfg = GraphGenConfig(n_range=(n_lo, n_lo + n_span), p_range=(p_lo, 0.95), seed=seed)
    ds = generate_dataset(cfg, count)
    text = dataset_text(ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        save_dataset(ds, path)
        assert path.read_text() == text
        assert dataset_text(load_dataset(path, verify=False)) == text


def test_regeneration_is_byte_identical():
    cfg = GraphGenConfig(n_range=(9, 10), p_range=(0.3, 0.6), seed=5)
    a = dataset_text(generate_dataset(cfg, 10))
    b = dataset_text(generate_dataset(cfg, 10))
    assert a == b


def test_gen_data_bytes_are_pinned(tmp_path):
    """Per-seed reproducibility of datasets across commits: the file that
    ``fiedler gen-data --count 1000 --seed 3`` writes has these bytes, and
    the labels of that dataset these float64 bits. The file keeps 12
    significant digits of each label, so its bytes alone miss a change in a
    label's last bits (rounding ``tau`` differently in the oracle's rotation
    moves label bits and no file byte)."""
    path = tmp_path / "data.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--count", "1000", "--seed", "3", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c67544a19fc9b91f0b648a4cf2fa50e11c11c5a259e9092f0f3a035f59657426")
    ds = generate_dataset(GraphGenConfig(n_range=(9, 11), p_range=(0.16, 0.95), seed=3), 1000)
    assert hashlib.sha256(ds.lambda2.tobytes()).hexdigest() == (
        "85596d364e5b899f2be6f68e7b263098389f1a25d531ac4ba37c1c9a50f03eaa")


def test_mixed_size_gen_data_bytes_are_pinned(tmp_path):
    """As above for sizes 3..40: the oracle solves these graphs in one stack
    zero-padded to 40 nodes, from which each matrix leaves at the sweep at
    which it converges, so this pins padded rotations next to other sizes."""
    path = tmp_path / "data.txt"
    argv = ["gen-data", "--count", "200", "--n-min", "3", "--n-max", "40", "--seed", "11"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "635ea4e58cdb50cdd7234adaf2c5fc80ff544c240f8d9ed8ce537deb7f3f47a7")
    ds = generate_dataset(GraphGenConfig(n_range=(3, 40), p_range=(0.16, 0.95), seed=11), 200)
    assert hashlib.sha256(ds.lambda2.tobytes()).hexdigest() == (
        "bfffb9f19f88305ca8f841c341f080981393950af336835703c6d2aad34b2cb2")


def test_edges_serialized_lexicographically(small_dataset):
    line = dataset_text(small_dataset).splitlines()[1]
    edge_field = line.split("edges=")[1].split(" ")[0]
    pairs = [tuple(map(int, e.split("-"))) for e in edge_field.split(",")]
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)


def test_load_rejects_corrupted_label(tmp_path, small_dataset):
    path = tmp_path / "data.txt"
    save_dataset(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit("lambda2=", 1)[0] + "lambda2=9.999999999999e-01"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="oracle"):
        load_dataset(bad)
    # verification can be skipped explicitly
    loaded = load_dataset(bad, verify=False)
    assert len(loaded) == 30


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not-a-dataset v1 count=1\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("fiedler-dataset v1 count=2\nn=3 edges=0-1,1-2 lambda2=1.0e+00\n")
    with pytest.raises(ValueError, match="found 1"):
        load_dataset(path)
    path.write_text("fiedler-dataset v1 count=9 count=3\n"
                    + "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n" * 3)
    with pytest.raises(ValueError, match=r"junk\.txt: header repeats count=$"):
        load_dataset(path)
    # int() reads "1_0" as 10; the writer never puts a "_" in a number
    path.write_text("fiedler-dataset v1 count=1_0\n"
                    + "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n" * 10)
    with pytest.raises(ValueError, match=r"junk\.txt:1: header count=1_0 is not a plain integer$"):
        load_dataset(path)
    # nor a sign or a leading zero
    for count in ("+1", "01", "-0"):
        path.write_text(f"fiedler-dataset v1 count={count}\n"
                        "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n")
        with pytest.raises(ValueError, match=rf"junk\.txt:1: header count={re.escape(count)} "
                                             "is not a plain integer$"):
            load_dataset(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_label(tmp_path, small_dataset, bad):
    """At parse time, so with or without the oracle's check."""
    path = tmp_path / "data.txt"
    save_dataset(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit("lambda2=", 1)[0] + f"lambda2={bad}"
    path.write_text("\n".join(lines) + "\n")
    for verify in (True, False):
        with pytest.raises(ValueError, match=rf"data\.txt:4: lambda2={bad} is not a finite number"):
            load_dataset(path, verify=verify)


@pytest.mark.parametrize("edges", ["0-1,0-1,1-2", "1-2,0-1", "1-0,1-2"])
def test_load_rejects_non_canonical_edges(tmp_path, edges):
    path = tmp_path / "data.txt"
    path.write_text(
        "fiedler-dataset v1 count=2\n"
        "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n"
        f"n=3 edges={edges} lambda2=1.000000000000e+00\n"
    )
    with pytest.raises(ValueError, match=r"data\.txt:3: edges must be"):
        load_dataset(path, verify=False)


def test_load_reports_graph_errors_with_location(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "fiedler-dataset v1 count=2\n"
        "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n"
        "\n"
        "n=3 edges=0-1,1-5 lambda2=1.000000000000e+00\n"
    )
    with pytest.raises(ValueError, match=r"data\.txt:4: malformed dataset line: edge"):
        load_dataset(path)


def test_verified_load_reports_the_first_bad_line(tmp_path, small_dataset):
    # the oracle labels the whole file at once; errors still come in file order
    good = dataset_text(small_dataset).splitlines()
    lines = list(good)
    for index in (7, 20):
        lines[index] = lines[index].rsplit("lambda2=", 1)[0] + "lambda2=1.0e+03"
    lines[25] = "n=4 edges=0-1,2-3 lambda2=0.000000000000e+00"  # disconnected
    path = tmp_path / "data.txt"
    for fixed, expect in [(None, r"data\.txt:8: label"), (7, r"data\.txt:21: label"),
                          (20, r"data\.txt:26: graph is not connected")]:
        if fixed is not None:
            lines[fixed] = good[fixed]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=expect):
            load_dataset(path)


def test_verified_load_solves_only_a_failing_graph(tmp_path, monkeypatch, small_dataset):
    path = tmp_path / "data.txt"
    save_dataset(small_dataset, path)
    calls = count_solver_calls(monkeypatch)
    load_dataset(path)
    assert calls == []
    lines = path.read_text().splitlines()
    for index in (5, 9):
        lines[index] = lines[index].rsplit("lambda2=", 1)[0] + "lambda2=1.0e+00"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"data\.txt:6: label 1\.0 disagrees with oracle"):
        load_dataset(path)
    assert len(calls) == 1 and len(calls[0]) == 1


def test_verified_load_searches_only_a_failing_graph(tmp_path, monkeypatch, small_dataset):
    """The label certificate decides connectivity too: a passing load runs no
    breadth-first search, and a failing one searches its first bad graph."""
    path = tmp_path / "data.txt"
    save_dataset(small_dataset, path)
    searched = []
    reaches_all = graphs._reaches_all

    def counting(n, ends):
        searched.append(n)
        return reaches_all(n, ends)

    monkeypatch.setattr(graphs, "_reaches_all", counting)
    load_dataset(path)
    assert searched == []
    lines = path.read_text().splitlines()
    for index in (5, 9):
        lines[index] = lines[index].rsplit("lambda2=", 1)[0] + "lambda2=1.0e+00"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"data\.txt:6: label 1\.0 disagrees with oracle"):
        load_dataset(path)
    assert len(searched) == 1


# Disconnected graphs: no edge at all, two components, one isolated node.
DISCONNECTED_LINES = [
    "n=3 edges=",
    "n=8 edges=0-1,0-2,1-2,2-3,4-5,4-7,5-6,6-7",
    "n=64 edges=" + ",".join(f"{i}-{i + 1}" for i in range(62)),
]


@pytest.mark.parametrize("graph", DISCONNECTED_LINES, ids=["edgeless-3", "two-parts-8",
                                                           "isolated-64"])
def test_verified_load_rejects_disconnected_graphs_at_their_line(tmp_path, small_dataset,
                                                                 graph):
    """Whatever its label, even one the certificate could accept for
    lambda2 = 0, a disconnected graph fails as not connected at its line."""
    good = dataset_text(small_dataset).splitlines()
    path = tmp_path / "data.txt"
    for index, label in enumerate([0.0, 1e-9, -1e-9, 2e-9, 1e-3, 1.0], start=3):
        lines = list(good)
        lines[index] = f"{graph} lambda2={label:.12e}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"data\.txt:{index + 1}: graph is not connected$"):
            load_dataset(path)


def test_verify_is_independent_of_the_labeller(tmp_path, monkeypatch):
    """A labeller that is off by 1e-8 everywhere writes a file that a
    verified load rejects at its first line, with the faulty labeller still
    in place: the check does not re-run it."""
    labeller = spectral.algebraic_connectivities

    def off(arrays):
        return labeller(arrays) + 1e-8

    monkeypatch.setattr(spectral, "algebraic_connectivities", off)
    monkeypatch.setattr(data, "algebraic_connectivities", off)
    path = tmp_path / "data.txt"
    save_dataset(generate_dataset(GraphGenConfig(seed=5), 20), path)
    with pytest.raises(ValueError, match=r"data\.txt:2: label"):
        load_dataset(path)


@pytest.fixture(scope="module")
def eval_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.txt"
    save_params(init_params(4, 0), path, mode="global", rounds=2)
    return path


# Tokens that no int() or float() parse, and the non-finite floats.
_NON_NUMBERS = st.text(alphabet="xyz._", max_size=3)
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_token_corruption_is_rejected_with_its_line(small_dataset, eval_checkpoint, data):
    """Replacing n, one edge endpoint or the label of one line with a
    non-number, a non-finite value, an out-of-range node or a label 1e-6 off
    fails the verified load at that line, and `fiedler eval` exits 2."""
    lines = dataset_text(small_dataset).splitlines()
    index = data.draw(st.integers(1, len(lines) - 1), label="line")
    n_tok, edge_tok, label_tok = lines[index].split(" ")
    n = int(n_tok[len("n="):])
    bad = _NON_NUMBERS | _NON_FINITE
    field = data.draw(st.sampled_from(["n", "endpoint", "label"]), label="field")
    if field == "n":
        # n - 1 leaves an endpoint outside the nodes, n + 1 an isolated node
        nodes = [MIN_NODES - 1, MAX_NODES + 1, 0, -1, n - 1, n + 1]
        n_tok = "n=" + data.draw(bad | st.sampled_from([str(v) for v in nodes]), label="n")
    elif field == "endpoint":
        edges = edge_tok[len("edges="):].split(",")
        which = data.draw(st.integers(0, len(edges) - 1), label="edge")
        ends = edges[which].split("-")
        side = data.draw(st.integers(0, 1), label="side")
        ends[side] = data.draw(bad | st.sampled_from([str(n), str(MAX_NODES), "-1"]), label="end")
        edges[which] = "-".join(ends)
        edge_tok = "edges=" + ",".join(edges)
    else:
        label = float(label_tok[len("lambda2="):])
        moved = [f"{label + delta:.12e}" for delta in (1e-6, -1e-6)]
        label_tok = "lambda2=" + data.draw(bad | st.sampled_from(moved), label="label")
    lines[index] = " ".join((n_tok, edge_tok, label_tok))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}:{index + 1}:"
        with pytest.raises(ValueError, match=re.escape(where)):
            load_dataset(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--checkpoint", str(eval_checkpoint), "--data", str(path)])
        assert code == 2
        assert where in err.getvalue()


def test_empty_file_loads_as_empty_dataset(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("fiedler-dataset v1 count=0\n")
    ds = load_dataset(path)
    assert len(ds) == 0 and ds.items == [] and ds.lambda2.shape == (0,)
    assert dataset_text(ds) == path.read_text()


@pytest.mark.parametrize("line, message", [
    ("n=3 edges=0-1,1-2 lambda2=1.0 extra=1", "malformed dataset line: expected n=<n>"),
    ("edges=0-1,1-2 n=3 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,+1-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-002 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1--2 lambda2=1.0", "malformed dataset line: edge"),
    ("n=3 edges=0-1,1-2-3 lambda2=1.0", "malformed dataset line: invalid literal"),
    ("n=3 edges=0-1,1-2 lambda=1.0", "malformed dataset line: 'lambda2'"),
    ("n=65 edges=0-1,1-2 lambda2=1.0", "malformed dataset line: node count"),
    ("n=3 edges=0-1,2-2 lambda2=1.0", "malformed dataset line: self-loop"),
    ("n=3 edges=0-1,1-3 lambda2=1.0", "malformed dataset line: edge"),
    ("n=3 edges=1-2,0-1 lambda2=1.0", "edges must be"),
    ("n=1_0 edges=0-1,1-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-2 lambda2=1.000_000_000_1", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-2 lambda2=1.0\u00e9", "byte 0xc3 is not ASCII"),
    ("n=+3 edges=0-1,1-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=03 edges=0-1,1-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,01-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-02 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=00-1,1-2 lambda2=1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-2 lambda2=+1.0", "malformed dataset line: expected n=<n>"),
    ("n=3 edges=0-1,1-2 lambda2=01.0", "malformed dataset line: expected n=<n>"),
    ("n=+03 edges=00-01,01-02 lambda2=+1.000000000000e+00",
     "malformed dataset line: expected n=<n>"),
], ids=["extra-field", "field-order", "plus-sign", "three-digits", "negative", "triple",
        "missing-label", "n-range", "self-loop", "endpoint", "order", "n-separator",
        "label-separator", "non-ascii", "n-sign", "n-zero", "start-zero", "end-zero",
        "first-zero", "label-sign", "label-zero", "all-padded"])
def test_load_rejects_each_bad_line_with_its_message(tmp_path, line, message):
    """Lines of the canonical layout keep the messages a line-by-line parse
    gave; anything else the writer never produces is rejected as well."""
    path = tmp_path / "data.txt"
    path.write_text(
        "fiedler-dataset v1 count=3\n"
        "n=3 edges=0-1,1-2 lambda2=1.000000000000e+00\n"
        f"{line}\n"
        "n=3 edges=0-1,1-5 lambda2=1.000000000000e+00\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"data\.txt:3: {re.escape(message)}"):
        load_dataset(path, verify=False)


def test_pipeline_builds_no_graph(tmp_path, monkeypatch):
    """Generating, saving, loading, training on and evaluating a dataset
    works on its arrays: not one Graph is constructed."""
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    ds = generate_dataset(GraphGenConfig(n_range=(5, 9), seed=21), 40)
    path = tmp_path / "data.txt"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    config = TrainConfig(rounds=2, mode="local", hidden_size=4, epochs=1, batch_size=16)
    params, _ = train(config, loaded, loaded)
    evaluate(params, loaded, 2, "global")
    assert built == []
    assert len(ds.items) == 40 and len(built) == 40  # the view does build them


def test_pipeline_does_not_import_csgraph(tmp_path):
    """``scipy.sparse.csgraph`` adds about 9 MiB of resident memory on
    import, so connectivity must not reach for it: a fresh process that
    imports fiedler, loads a verified file and evaluates on it leaves it
    unimported. Nothing before the model needs ``scipy.sparse`` (about 20 MiB
    and 0.2 s), so it is not imported until ``evaluate`` builds a stack."""
    path = tmp_path / "data.txt"
    save_dataset(generate_dataset(GraphGenConfig(seed=8), 12), path)
    script = (
        "import sys\n"
        "import fiedler\n"
        "from fiedler.data import load_dataset\n"
        "from fiedler.model import init_params\n"
        "from fiedler.training import evaluate\n"
        f"ds = load_dataset({str(path)!r}, verify=True)\n"
        "print('scipy.sparse' in sys.modules)\n"
        "evaluate(init_params(4, 0), ds, 2, 'global')\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    src = str(Path(fiedler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "False"]
