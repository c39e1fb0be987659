import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import fiedler
from conftest import metrics_from_csv_text
from fiedler.cli import main
from fiedler.data import load_dataset
from fiedler.graphs import GraphGenConfig, generate_connected_graph
from fiedler.model import flatten_params, init_params, load_params, param_views, save_params


def run(*argv):
    return main([str(a) for a in argv])


def run_child(*argv):
    """``fiedler argv`` in a child process, its stdout and stderr captured."""
    src = str(Path(fiedler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fiedler.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset pair and a small trained model, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    train_file = root / "train.txt"
    val_file = root / "val.txt"
    assert run("gen-data", "--count", 48, "--n-min", 6, "--n-max", 8,
               "--seed", 11, "--out", train_file) == 0
    assert run("gen-data", "--count", 16, "--n-min", 6, "--n-max", 8,
               "--seed", 12, "--out", val_file) == 0
    run_dir = root / "run"
    assert run("train", "--train-data", train_file, "--val-data", val_file,
               "--T", 2, "--mode", "local", "--hidden", 8, "--epochs", 2,
               "--batch", 16, "--seed", 1, "--out-dir", run_dir) == 0
    return root, train_file, val_file, run_dir


def test_gen_data_outputs_and_determinism(workspace, tmp_path):
    root, train_file, _, _ = workspace
    manifest = json.loads((root / "train.txt.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["count"] == 48
    again = tmp_path / "again.txt"
    assert run("gen-data", "--count", 48, "--n-min", 6, "--n-max", 8,
               "--seed", 11, "--out", again) == 0
    assert again.read_bytes() == train_file.read_bytes()
    ds = load_dataset(train_file)
    assert len(ds) == 48


def test_gen_data_usage_errors(tmp_path):
    out = tmp_path / "x.txt"
    assert run("gen-data", "--n-min", 12, "--n-max", 9, "--out", out) == 1
    assert run("gen-data", "--count", 0, "--out", out) == 1
    assert run("gen-data", "--count", 2, "--p-min", 0.0, "--out", out) == 1
    assert not out.exists()


def test_force_guard(workspace):
    _, train_file, _, _ = workspace
    assert run("gen-data", "--count", 5, "--out", train_file) == 1
    assert len(load_dataset(train_file)) == 48  # original intact


def test_train_outputs(workspace):
    _, _, _, run_dir = workspace
    metrics = metrics_from_csv_text((run_dir / "metrics.csv").read_text())
    assert [r.epoch for r in metrics.rows] == [1, 2]
    params, meta = load_params(run_dir / "checkpoint.txt")
    assert params.hidden_size == 8
    assert meta["mode"] == "local"
    assert (run_dir / "checkpoint_epoch_001.txt").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["train_n_range"] == [6, 8]


def test_train_refuses_overwrite_without_force(workspace):
    _, train_file, val_file, run_dir = workspace
    assert run("train", "--train-data", train_file, "--val-data", val_file,
               "--T", 2, "--mode", "local", "--hidden", 8, "--epochs", 1,
               "--batch", 16, "--out-dir", run_dir) == 1


def test_train_usage_and_missing_file_errors(tmp_path, workspace):
    _, train_file, val_file, _ = workspace
    out = tmp_path / "r"
    assert run("train", "--train-data", train_file, "--val-data", val_file,
               "--epochs", 0, "--out-dir", out) == 1
    assert run("train", "--train-data", tmp_path / "nope.txt", "--val-data",
               val_file, "--out-dir", out) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a dataset\n")
    assert run("train", "--train-data", train_file, "--val-data", bad,
               "--out-dir", out) == 2
    # the datasets are read before the run directory is made
    assert not out.exists()


def test_diverging_train_exits_2_without_warnings_or_out_dir(workspace, tmp_path):
    """A huge step size diverges in epoch 1: at batch 16 the loss check
    stops the second batch, at batch 64 (one batch an epoch) the validation
    check stops the epoch, and at 1e308 the first Adam step overflows.
    Either way the command exits 2 with one error line on stderr, no
    RuntimeWarning, and leaves no --out-dir behind."""
    _, train_file, val_file, _ = workspace
    for batch, lr, stop in ((16, "1e300", "non-finite loss"),
                            (64, "1e300", "non-finite validation loss"),
                            (16, "1e308", "non-finite loss")):
        out = tmp_path / f"run{batch}-{lr}"
        proc = run_child("train", "--train-data", train_file, "--val-data", val_file,
                         "--T", 2, "--hidden", 8, "--epochs", 2, "--batch", batch,
                         "--lr", lr, "--out-dir", out)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: training diverged: {stop}")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()


def test_non_finite_results_exit_2_without_warnings_or_outputs(workspace, tmp_path):
    """Finite weights so large that the forward pass overflows: eval, sweep
    and simulate exit 2 with one error line naming the checkpoint, print no
    RuntimeWarning and no result, and write no --out file or manifest."""
    _, _, val_file, _ = workspace
    ckpt = tmp_path / "checkpoint.txt"
    huge = param_views(flatten_params(init_params(8, 0)) * 1e300, 8)
    save_params(huge, ckpt, mode="local", rounds=2)
    (tmp_path / "manifest.json").write_text('{"config": {"train_n_range": [6, 8]}}\n')
    for argv in (["eval", "--data", val_file],
                 ["sweep", "--sizes", "6,7", "--per-size", 4],
                 ["simulate", "--n", 6, "--trace", tmp_path / "trace.csv"]):
        proc = run_child(*argv, "--checkpoint", ckpt, "--out", tmp_path / "out.csv")
        assert proc.returncode == 2, (argv[0], proc.stderr)
        assert proc.stderr.startswith(f"error: {ckpt}: ") and proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.txt", "manifest.json"]


def test_eval_matches_final_metrics_row(workspace, capsys):
    _, _, val_file, run_dir = workspace
    metrics = metrics_from_csv_text((run_dir / "metrics.csv").read_text())
    last = metrics.rows[-1]
    assert run("eval", "--checkpoint", run_dir / "checkpoint.txt",
               "--data", val_file) == 0
    out = capsys.readouterr().out.strip()
    l1 = float(out.split("l1=")[1].split(" ")[0])
    l2 = float(out.split("l2=")[1])
    assert l1 == pytest.approx(last.val_l1, abs=1e-12)
    assert l2 == pytest.approx(last.val_l2, abs=1e-12)


def test_eval_error_paths(workspace, tmp_path):
    _, _, val_file, run_dir = workspace
    ckpt = run_dir / "checkpoint.txt"
    assert run("eval", "--checkpoint", tmp_path / "missing.txt",
               "--data", val_file) == 2
    assert run("eval", "--checkpoint", ckpt, "--data", val_file,
               "--mode", "global") == 1
    assert run("eval", "--checkpoint", ckpt, "--data", val_file,
               "--hidden", 16) == 1


def test_eval_records_resolved_seed(workspace, tmp_path, monkeypatch):
    """eval resolves --seed like every command: flag, config, FIEDLER_SEED, 0."""
    _, _, val_file, run_dir = workspace
    base = ["eval", "--checkpoint", run_dir / "checkpoint.txt", "--data", val_file]
    conf = tmp_path / "conf.txt"
    conf.write_text("seed=9\n")
    monkeypatch.delenv("FIEDLER_SEED", raising=False)
    cases = [("flag", ["--seed", 5], {}, 5), ("config", ["--config", conf], {}, 9),
             ("env", [], {"FIEDLER_SEED": "7"}, 7), ("none", [], {}, 0)]
    for name, extra, env, seed in cases:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / f"{name}.csv"
        assert run(*base, *extra, "--out", out) == 0
        manifest = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
        assert manifest["seed"] == seed, name
        for key in env:
            monkeypatch.delenv(key)


def _nan_first_weight(text):
    lines = text.splitlines()
    lines[2] = "nan " + lines[2].split(" ", 1)[1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace("T=2", "T=0", 1),
    lambda text: text.replace("mode=local", "mode=bogus", 1),
    _nan_first_weight,
    lambda text: text.replace("T=2", "T=2 T=7", 1),
], ids=["rounds", "mode", "weight", "repeated-key"])
def test_eval_rejects_malformed_checkpoint(workspace, tmp_path, corrupt):
    _, _, val_file, run_dir = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text(corrupt((run_dir / "checkpoint.txt").read_text()))
    assert run("eval", "--checkpoint", bad, "--data", val_file) == 2


@pytest.mark.parametrize("block", [
    "tensor bogus 1\n0\n",
    "tensor w_msg 2 2\n1 2\n3 4\n",
    "tensor\n",
    "\u00e9\n",
], ids=["unknown", "duplicate", "lone-header", "non-ascii"])
def test_eval_rejects_bad_tensor_block(workspace, tmp_path, capsys, block):
    _, _, val_file, run_dir = workspace
    bad = tmp_path / "bad.txt"
    text = (run_dir / "checkpoint.txt").read_text()
    bad.write_text(text + block, encoding="utf-8")
    assert run("eval", "--checkpoint", bad, "--data", val_file) == 2
    line = text.count("\n") + 1
    assert f"bad.txt:{line}: " in capsys.readouterr().err


def test_sweep_csv(workspace, tmp_path):
    _, _, _, run_dir = workspace
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--checkpoint", run_dir / "checkpoint.txt",
               "--sizes", "6,7,8,9", "--per-size", 4, "--seed", 3,
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,mean_l1,count,in_train_range"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["6", "7", "8", "9"]
    assert [r[3] for r in rows] == ["1", "1", "1", "0"]  # trained on 6..8
    assert all(r[2] == "4" for r in rows)


def test_sweep_usage_errors(workspace, tmp_path):
    _, _, _, run_dir = workspace
    ckpt = run_dir / "checkpoint.txt"
    assert run("sweep", "--checkpoint", ckpt, "--sizes", "",
               "--out", tmp_path / "s.csv") == 1
    assert run("sweep", "--checkpoint", ckpt, "--sizes", "2,6",
               "--out", tmp_path / "s.csv") == 1


def test_sweep_range_syntax(workspace, tmp_path):
    _, _, _, run_dir = workspace
    out = tmp_path / "sweep2.csv"
    assert run("sweep", "--checkpoint", run_dir / "checkpoint.txt",
               "--sizes", "6..8", "--per-size", 2, "--seed", 3,
               "--out", out) == 0
    assert len(out.read_text().splitlines()) == 4


def test_simulate_report_and_trace(workspace, tmp_path, capsys):
    _, _, _, run_dir = workspace
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.csv"
    assert run("simulate", "--checkpoint", run_dir / "checkpoint.txt",
               "--n", 8, "--T", 3, "--seed", 4, "--trace", trace,
               "--out", report) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9  # true-value line plus one line per node
    assert lines[0].startswith("true lambda2")
    report_lines = report.read_text().splitlines()
    assert report_lines[0] == "node,estimate,abs_error"
    assert len(report_lines) == 10
    trace_lines = trace.read_text().splitlines()
    ds_manifest = json.loads((report.parent / "report.csv.manifest.json").read_text())
    assert ds_manifest["command"] == "simulate"
    # round,sender,receiver,delivered + H payload columns; T * 2|E| message rows
    assert trace_lines[0].split(",")[:4] == ["round", "sender", "receiver", "delivered"]
    assert len(trace_lines[0].split(",")) == 4 + 8
    body = trace_lines[1:]
    # the simulated graph is reproducible from the manifest settings
    cfg = GraphGenConfig(
        n_range=(8, 8),
        p_range=(ds_manifest["config"]["p_min"], ds_manifest["config"]["p_max"]),
        seed=4,
    )
    g = generate_connected_graph(cfg, 0)
    assert len(body) == 3 * 2 * len(g.edges)
    rounds = {line.split(",")[0] for line in body}
    assert rounds == {"1", "2", "3"}
    assert {line.split(",")[3] for line in body} == {"1"}  # nothing was dropped


def test_simulate_rejects_global_checkpoint(tmp_path):
    params = init_params(8, seed=0)
    ckpt = tmp_path / "global.txt"
    save_params(params, ckpt, mode="global", rounds=2)
    assert run("simulate", "--checkpoint", ckpt) == 1


def test_simulate_drop_edges(workspace, tmp_path):
    _, _, _, run_dir = workspace
    ckpt = run_dir / "checkpoint.txt"
    g = generate_connected_graph(GraphGenConfig(n_range=(6, 6), seed=4), 0)
    dropped = g.edge_list()[:2]
    rounds, drop_from = 3, 2
    trace = tmp_path / "trace.csv"
    assert run("simulate", "--checkpoint", ckpt, "--n", 6, "--T", rounds, "--seed", 4,
               "--drop-edges", ",".join(f"{i}-{j}" for i, j in dropped),
               "--drop-from", drop_from, "--trace", trace) == 0
    # the trace holds every send, each dropped one marked delivered=0 with
    # the payload its sender would have delivered
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    assert len(rows) == rounds * 2 * len(g.edges)
    quiet = set(dropped) | {(j, i) for i, j in dropped}
    silenced = {(rnd, i, j) for rnd in range(drop_from, rounds + 1) for i, j in quiet}
    assert {(int(r[0]), int(r[1]), int(r[2])) for r in rows if r[3] == "0"} == silenced
    assert {r[3] for r in rows} == {"0", "1"}
    payloads = {(r[0], r[1]): r[4:] for r in rows if r[3] == "1"}
    for r in rows:
        if r[3] == "0":  # a node sends one payload to all its neighbours in a round
            assert r[4:] == payloads[r[0], r[1]]
    # an edge that does not exist is a usage error
    assert run("simulate", "--checkpoint", ckpt,
               "--n", 6, "--T", 2, "--seed", 4, "--drop-edges", "0-0") == 1


def test_gradcheck_default_passes(capsys):
    assert run("gradcheck") == 0
    out = capsys.readouterr().out
    assert "mode=local" in out and "mode=global" in out
    assert out.count("PASS") == 2


def test_gradcheck_corrupt_fails(capsys):
    assert run("gradcheck", "--corrupt") == 2
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_nan_error_fails(monkeypatch, capsys):
    """One NaN error among finite ones fails its mode instead of losing to max()."""
    errors = iter([0.0, float("nan")] + [0.0] * 10)
    monkeypatch.setattr("fiedler.cli.grad_check", lambda *a, **k: next(errors))
    assert run("gradcheck") == 2
    out = capsys.readouterr().out
    assert "mode=local max_rel_err=nan" in out and out.count("FAIL") == 1


def test_seed_env_fallback(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    monkeypatch.setenv("FIEDLER_SEED", "11")
    assert run("gen-data", "--count", 5, "--n-min", 6, "--n-max", 8, "--out", a) == 0
    monkeypatch.delenv("FIEDLER_SEED")
    assert run("gen-data", "--count", 5, "--n-min", 6, "--n-max", 8,
               "--seed", 11, "--out", b) == 0
    assert run("gen-data", "--count", 5, "--n-min", 6, "--n-max", 8, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()  # default seed is 0


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("# generation settings\ncount=7\nn-min=6\nn-max=8\nseed=11\n")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run("gen-data", "--config", conf, "--out", a) == 0
    assert len(load_dataset(a)) == 7
    assert run("gen-data", "--config", conf, "--count", 3, "--out", b) == 0
    assert len(load_dataset(b)) == 3


def test_unknown_flag_is_usage_error():
    assert run("gen-data", "--frobnicate") == 1


COMMANDS = ["gen-data", "train", "eval", "sweep", "simulate", "gradcheck"]

# The output of each help, of --version, and of a call without a command or
# with an unknown one, as argparse of the Python version named in the file
# lays it out at 80 columns.
CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text())


def run_captured(argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)`` in this process; a
    help or --version exits through argparse's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(list(sys.version_info[:2]) != CLI_TEXT["python"],
                    reason="argparse lays help out differently in other Python versions")
@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in COMMANDS),
                                  ["--version"], [], ["bogus"]],
                         ids=lambda argv: " ".join(["fiedler", *argv]))
def test_cli_text_is_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = CLI_TEXT["cases"][" ".join(["fiedler", *argv])]
    assert run_captured(argv) == (want["code"], want["stdout"], want["stderr"])


def test_a_command_builds_only_its_own_options(monkeypatch, tmp_path):
    """main builds its parser from its argv: every command is listed, but
    only the one that runs has options beyond -h."""
    built = []
    build = fiedler.cli.build_parser

    def spy(argv):
        built.append(build(argv))
        return built[-1]

    monkeypatch.setattr(fiedler.cli, "build_parser", spy)
    assert run("gen-data", "--count", 2, "--n-min", 4, "--n-max", 4,
               "--out", tmp_path / "d.txt") == 0
    (sub,) = built[0]._subparsers._group_actions
    assert list(sub.choices) == COMMANDS
    flags = {name: [a.option_strings[-1] for a in p._actions] for name, p in sub.choices.items()}
    assert flags.pop("gen-data") == ["--help", "--config", "--force", "--seed", "--count",
                                     "--n-min", "--n-max", "--p-min", "--p-max", "--out"]
    assert flags == dict.fromkeys(COMMANDS[1:], ["--help"])


@pytest.mark.parametrize("argv, conf, code, where", [
    (["gen-data", "--out", "{tmp}/d.txt"], "seed=abc\n", 1, "conf.txt:1: seed"),
    (["gen-data", "--out", "{tmp}/d.txt"], "# counts\ncount=x\n", 1, "conf.txt:2: count"),
    (["eval", "--checkpoint", "{ckpt}", "--data", "{val}"], "T=0\n", 1, "conf.txt:1: T"),
    (["gradcheck"], "hidden=0\n", 1, "conf.txt:1: hidden"),
    (["gradcheck"], "epsilon=0\n", 1, "conf.txt:1: epsilon"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--out-dir", "{tmp}/r"],
     "mode=foo\n", 1, "conf.txt:1: mode"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--out-dir", "{tmp}/r"],
     "epochs=0\n", 1, "conf.txt:1: epochs"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--out-dir", "{tmp}/r"],
     "batch=0\n", 1, "conf.txt:1: batch"),
    (["sweep", "--checkpoint", "{ckpt}", "--sizes", "6,x", "--out", "{tmp}/s.csv"],
     None, 1, "--sizes"),
    (["simulate", "--checkpoint", "{ckpt}", "--drop-edges", "0-x"], None, 1, "--drop-edges"),
    (["simulate", "--checkpoint", "{ckpt}", "--n", "5", "--drop-edges", "0-9"], None, 1,
     "--drop-edges: 0-9 is not an edge of the simulated graph"),
    (["eval", "--checkpoint", "{ckpt}", "--data", "{val}", "--T", "0"], None, 1, "--T"),
    (["sweep", "--checkpoint", "{ckpt}", "--sizes", "6", "--T", "0", "--out", "{tmp}/s.csv"],
     None, 1, "--T"),
    (["simulate", "--checkpoint", "{ckpt}", "--T", "0"], None, 1, "--T"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--T", "0",
      "--out-dir", "{tmp}/r"], None, 1, "--T"),
    (["gradcheck", "--hidden", "0"], None, 1, "--hidden"),
    (["sweep", "--checkpoint", "{ckpt}", "--sizes", "6", "--train-manifest", "{val}",
      "--out", "{tmp}/s.csv"], None, 2, "val.txt: "),
    (["sweep", "--checkpoint", "{ckpt}", "--sizes", "6", "--train-manifest",
      "{tmp}/nokey.json", "--out", "{tmp}/s.csv"], None, 2, "nokey.json: "),
    (["simulate", "--checkpoint", "{ckpt}", "--drop-from", "0"], None, 1, "--drop-from"),
    (["simulate", "--checkpoint", "{ckpt}", "--drop-from", "-3"], None, 1, "--drop-from"),
    (["gradcheck", "--epsilon", "nan"], None, 1, "--epsilon"),
    (["gradcheck", "--epsilon", "inf"], None, 1, "--epsilon"),
    (["gradcheck"], "epsilon=nan\n", 1, "conf.txt:1: epsilon"),
    (["gen-data", "--n-min", "2", "--out", "{tmp}/d.txt"], None, 1, "--n-min 2"),
    (["gen-data", "--out", "{tmp}/d.txt"], "seed=3\nn-min=2\n", 1, "conf.txt:2: n-min=2"),
    (["gen-data", "--p-min", "0.9", "--p-max", "0.5", "--out", "{tmp}/d.txt"], None, 1,
     "--p-min 0.9, --p-max 0.5"),
    (["gen-data", "--out", "{tmp}/d.txt"], "p-min=0.99\n", 1,
     "conf.txt:1: p-min=0.99, p-max=0.95 (default)"),
    (["sweep", "--checkpoint", "{ckpt}", "--sizes", "6", "--p-min", "0.9", "--p-max", "0.5",
      "--out", "{tmp}/s.csv"], None, 1, "--p-min 0.9, --p-max 0.5"),
    (["simulate", "--checkpoint", "{ckpt}", "--n", "2"], None, 1, "--n 2"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--lr", "nan",
      "--out-dir", "{tmp}/r"], None, 1, "--lr"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--lr", "inf",
      "--out-dir", "{tmp}/r"], None, 1, "--lr"),
    (["train", "--train-data", "{train}", "--val-data", "{val}", "--out-dir", "{tmp}/r"],
     "lr=nan\n", 1, "conf.txt:1: lr"),
    (["train", "--train-data", "{tmp}/empty.txt", "--val-data", "{tmp}/empty.txt",
      "--out-dir", "{tmp}/r"], None, 2, "non-empty"),
    (["gen-data", "--out", "{tmp}/d.txt"], "count=5\ncuont=5\n", 1, "conf.txt:2: cuont"),
    (["eval", "--checkpoint", "{ckpt}", "--data", "{val}", "--out", "{tmp}/e.csv"],
     "mode=global\n", 1, "conf.txt:1: mode"),
    (["gen-data", "--out", "{tmp}/d.txt"], "count=5\nseed=3\ncount=7\n", 1,
     "conf.txt:3: count: repeats {tmp}/conf.txt:1"),
    (["gen-data", "--out", "{tmp}/d.txt"], "seed=3\ncount=5\u00e9\n", 1,
     "conf.txt:2: byte 0xc3 is not ASCII"),
], ids=["conf-seed", "conf-count", "conf-T", "conf-hidden", "conf-epsilon", "conf-mode",
        "conf-epochs", "conf-batch", "sizes", "drop-edges", "drop-edges-not-an-edge",
        "eval-T", "sweep-T", "simulate-T", "train-T", "gradcheck-hidden",
        "train-manifest-json", "train-manifest-key", "drop-from-0", "drop-from-negative",
        "gradcheck-epsilon-nan", "gradcheck-epsilon-inf", "conf-epsilon-nan",
        "n-min-flag", "conf-n-min", "p-order-flags", "conf-p-min", "sweep-p-order",
        "simulate-n", "lr-nan", "lr-inf", "conf-lr-nan", "train-empty-data",
        "conf-unknown-key", "conf-flag-only-key", "conf-repeated-key", "conf-non-ascii"])
def test_bad_value_names_its_flag_or_line(workspace, tmp_path, capsys, argv, conf, code, where):
    _, train_file, val_file, run_dir = workspace
    (tmp_path / "nokey.json").write_text('{"config": {}}\n')
    (tmp_path / "empty.txt").write_text("fiedler-dataset v1 count=0\n")
    names = {"tmp": tmp_path, "train": train_file, "val": val_file,
             "ckpt": run_dir / "checkpoint.txt"}
    argv = [a.format(**names) for a in argv]
    if conf is not None:
        (tmp_path / "conf.txt").write_text(conf, encoding="utf-8")
        argv += ["--config", tmp_path / "conf.txt"]
    assert run(*argv) == code
    assert where.format(**names) in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("r", "d.txt", "e.csv", "s.csv"))


# Each command's configurable options, given once as flags and once in a
# --config file under the flag names without "--".
FLAG_OR_CONFIG = [
    ("gen-data", ["--out", "d.txt"],
     {"count": 5, "n-min": 6, "n-max": 7, "p-min": 0.3, "p-max": 0.9, "seed": 11}),
    ("train", ["--train-data", "{train}", "--val-data", "{val}", "--out-dir", "r"],
     {"T": 2, "mode": "global", "hidden": 4, "epochs": 1, "lr": 0.01, "batch": 16, "seed": 3}),
    ("eval", ["--checkpoint", "{ckpt}", "--data", "{val}", "--out", "e.csv"], {"T": 3}),
    ("sweep", ["--checkpoint", "{ckpt}", "--out", "s.csv"],
     {"sizes": "6..7", "per-size": 2, "p-min": 0.3, "p-max": 0.8, "T": 2, "seed": 3}),
    ("simulate", ["--checkpoint", "{ckpt}", "--out", "rep.csv", "--trace", "t.csv"],
     {"n": 6, "T": 2, "p-min": 0.3, "p-max": 0.8, "seed": 4}),
    ("gradcheck", [], {"hidden": 6, "epsilon": 1e-5, "seed": 1}),
]


@pytest.mark.parametrize("command, fixed, opts", FLAG_OR_CONFIG,
                         ids=[c[0] for c in FLAG_OR_CONFIG])
def test_config_file_matches_flags(workspace, tmp_path, monkeypatch, capsys,
                                   command, fixed, opts):
    _, train_file, val_file, run_dir = workspace
    names = {"train": train_file, "val": val_file, "ckpt": run_dir / "checkpoint.txt"}
    fixed = [a.format(**names) for a in fixed]
    conf = tmp_path / "conf.txt"
    conf.write_text("".join(f"{key}={value}\n" for key, value in opts.items()))
    flags = [a for key, value in opts.items() for a in (f"--{key}", value)]
    runs = []
    for name, extra in (("flags", flags), ("config", ["--config", conf])):
        out_dir = tmp_path / name
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        code = run(command, *fixed, *extra)
        files = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                text = path.read_text()
                if path.name == "metrics.csv":  # drop the wall-time column
                    text = [line.rsplit(",", 1)[0] for line in text.splitlines()]
                files[path.relative_to(out_dir).as_posix()] = text
        runs.append((code, capsys.readouterr().out, files))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


# -- single-token corruption of checkpoints and config files ------------------

_BAD_INT = ["0", "-1", "2.5", "x", "nan", ""]
_BAD_WEIGHT = ["nan", "NaN", "inf", "-inf", "x", "1.5.0", "0x1p3", ""]


def _corrupt_token(data, line_index: int, tokens: list) -> tuple:
    """(token index, replacement) making one token of a ``fiedler-params v1``
    checkpoint line invalid: a header value, the ``tensor`` keyword, a tensor
    name (unknown, or another tensor's), a shape entry or a weight."""
    if line_index == 0:
        k = data.draw(st.integers(0, len(tokens) - 1), label="header token")
        key, _, value = tokens[k].partition("=")
        bad = {
            0: ["fiedler-param", "x"],
            1: ["v2", "v0"],
            "H": _BAD_INT + ["3", "5", "64"],
            "T": _BAD_INT,
            "mode": ["central", "x", "nan", ""],
        }[k if k < 2 else key]
        replacement = data.draw(st.sampled_from(bad), label="value")
        return k, replacement if k < 2 else f"{key}={replacement}"
    if tokens[0] == "tensor":
        k = data.draw(st.integers(0, len(tokens) - 1), label="tensor token")
        if k == 0:
            bad = ["tensors", "x"]
        elif k == 1:
            names = [name for name, _ in model_tensor_specs() if name != tokens[1]]
            bad = ["bogus", "w_msg.T"] + names
        else:
            bad = [v for v in _BAD_INT + ["3", "5"] if v != tokens[k]]
        return k, data.draw(st.sampled_from(bad), label="replacement")
    k = data.draw(st.integers(0, len(tokens) - 1), label="weight")
    return k, data.draw(st.sampled_from(_BAD_WEIGHT), label="replacement")


def model_tensor_specs():
    from fiedler import model

    return model._TENSOR_SPECS


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_single_token_checkpoint_corruption_is_rejected(workspace, data):
    """Any one invalid header value, tensor keyword, name, shape entry or
    weight fails ``load_params`` with an error naming the file (with the line
    for a body token), and ``fiedler eval`` exits 2 naming it."""
    _, _, val_file, _ = workspace
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good.txt"
        save_params(init_params(4, seed=2), good, mode="global", rounds=2)
        lines = good.read_text().splitlines()
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        tokens = lines[index].split(" ")
        k, replacement = _corrupt_token(data, index, tokens)
        tokens[k] = replacement
        lines[index] = " ".join(tokens)
        bad = Path(tmp) / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        where = re.escape(str(bad)) + (r"(:\d+)?: " if index == 0 else r":\d+: ")
        with pytest.raises(ValueError, match=where):
            load_params(bad)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--checkpoint", str(bad), "--data", str(val_file)])
        assert code == 2
        assert re.search(where, err.getvalue())


# A valid gen-data config, and for each key values that no run can use.
_GEN_CONFIG = {"count": "5", "n-min": "4", "n-max": "6", "p-min": "0.3", "p-max": "0.9",
               "seed": "1"}
_BAD_CONFIG_VALUES = {
    "count": ["0", "-1", "x", "2.5", "nan", ""],
    "n-min": ["2", "7", "65", "x", "4.0", ""],
    "n-max": ["2", "3", "65", "x", "nan", ""],
    "p-min": ["0", "-0.1", "0.95", "1.5", "nan", "inf", "x", ""],
    "p-max": ["0", "0.1", "1.5", "nan", "inf", "x", ""],
    "seed": ["x", "1.5", "nan", "0x10", ""],
}


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(list(_GEN_CONFIG)), data=st.data())
def test_single_config_value_corruption_exits_1_naming_its_line(key, data):
    value = data.draw(st.sampled_from(_BAD_CONFIG_VALUES[key]), label="value")
    conf = {**_GEN_CONFIG, key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "conf.txt"
        path.write_text("".join(f"{k}={v}\n" for k, v in conf.items()))
        out = Path(tmp) / "d.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["gen-data", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"{path}:{list(conf).index(key) + 1}: {key}" in err.getvalue()
        assert not out.exists()
