"""Tests of the benchmark harness itself (not of fiedler).

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import fiedler  # noqa: E402
from fiedler.data import Dataset, save_dataset  # noqa: E402
from fiedler.graphs import Graph  # noqa: E402
from perfbench.harness import run_workload  # noqa: E402
from perfbench.tracing import Span, Tracer, layer_values, self_times_ns  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    NOT_IN_BENCHMARK,
    SIM_TOL,
    WORKLOADS,
    _gradcheck_cases,
    Checks,
    Sizes,
    check_grad_error,
    check_labels,
    run_cli,
)

TINY = Sizes(gen_count=12, train_count=24, val_count=8, epochs=2, eval_count=16,
             sim_count=6, setup_reps=2, setup_seconds=0.0)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fiedler_bindings():
    modules = [m for name, m in sys.modules.items()
               if name == "fiedler" or name.startswith("fiedler.")]
    return {(m.__name__, key): value for m in modules for key, value in vars(m).items()}


def test_benchmark_json_names_every_workload_but_the_left_out():
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == [name for name in WORKLOADS if name not in NOT_IN_BENCHMARK]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    result = run_workload(name, seed=3, seconds=0.01, trace=False, root=tmp_path, sizes=TINY)
    line = result.final_line()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result.report
    assert list((tmp_path / "perfbench" / "work").iterdir()) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_restores_bindings(name, tmp_path):
    before = _fiedler_bindings()
    result = run_workload(name, seed=3, seconds=0.01, trace=True, root=tmp_path, sizes=TINY)
    after = _fiedler_bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = result.final_line()["metrics"]
    assert result.correct
    assert metrics["trace.spans"]["value"] > 0
    # every workload's timed call is a traced fiedler function
    assert metrics["trace.self_cover_frac"]["value"] == pytest.approx(1.0, abs=0.05)


def test_untraced_time_lowers_self_cover():
    import time

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def call():
        fiedler.data.dataset_text(Dataset(items=[]))  # traced, next to no time
        busy(0.02)  # below the root span, in no traced function

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        tracer.root(call)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    values = layer_values(tracer, wall, wall)
    assert values["trace.spans"] == 2
    assert values["trace.self_cover_frac"] < 0.1


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        result = run_workload("train_local_T8", seed=5, seconds=0.01, trace=True,
                              root=tmp_path, sizes=TINY)
        metrics = result.final_line()["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["model.build_stack.calls"] > 0


def _span(name, start, end, parent):
    return Span(name, start, end, parent, 1)


def test_self_time_nested_and_adjacent_spans():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 30, 0),  # adjacent siblings: 10..30 and 30..50
        _span("b", 30, 50, 0),
        _span("a.child", 12, 20, 1),  # nested two deep
        _span("c", 60, 90, 0),
        _span("c.inner", 70, 95, 4),  # sticks out of its parent: only 70..90 counts
    ]
    assert self_times_ns(spans) == [100 - 20 - 20 - 30, 20 - 8, 20, 8, 30 - 20, 25]
    assert sum(self_times_ns(spans[:5])) == 100


def test_self_time_overlapping_children_count_once():
    spans = [_span("root", 0, 10, None), _span("x", 2, 6, 0), _span("y", 4, 8, 0)]
    assert self_times_ns(spans)[0] == 10 - 6


def test_corrupted_label_is_a_failed_check(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle: lambda2 = 2
    checks = Checks()
    check_labels(checks, [(g, 2.0), (g, 2.0 + 1e-6)], "test")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.failed_frac > 0


def test_corrupted_label_on_disk_fails_the_load_workload(tmp_path, monkeypatch):
    import perfbench.workloads as wl

    real_setup = wl.setup_dataset

    def corrupting_setup(ctx):
        state = real_setup(ctx)
        text = state.path.read_text().splitlines()
        head, _, value = text[1].rpartition("lambda2=")
        text[1] = f"{head}lambda2={float(value) + 1e-3:.12e}"
        state.path.write_text("\n".join(text) + "\n")
        return state

    monkeypatch.setitem(wl.GROUPS, "dataset", wl.Group(corrupting_setup, wl.digest_dataset,
                                                       wl.check_dataset))
    result = run_workload("dataset.load", seed=3, seconds=0.01, trace=False,
                          root=tmp_path, sizes=TINY)
    assert not result.correct
    assert result.checks.failed_frac > 0
    assert result.metrics == {}  # the verified load raised on the first call


def test_simulator_miss_is_a_failed_check(tmp_path):
    """Graph 74 of seed 1675231217 (32 nodes, 360 edges): at H=32, T=8 the
    simulator and forward_stack differ by about 2.2e-12 with OpenBLAS 0.3.31
    on x86-64. That miss is why infer.simulate is left out of BENCHMARK.json;
    once the program meets SIM_TOL here, the workload can be listed again."""
    import perfbench.workloads as wl

    seed, index = 1675231217, 74
    g = wl.generate_connected_graph(wl._sim_configs(seed, 100)[index], index)
    assert (g.n, len(g.edges)) == (32, 360)
    state = wl.SimState(params=wl.init_params(wl.HIDDEN, seed + 1), graphs=[g])
    ctx = wl.Context(seed, tmp_path, TINY, Checks())
    wl.check_simulate(ctx, state)
    wl._verify_simulate(ctx, state, 0, fiedler.simulation.run_simulation(state.params, g, 8))
    gap = ctx.checks.maxima["simulate_max_gap"]
    assert gap > SIM_TOL, f"the simulator now meets {SIM_TOL:g} here ({gap:.3e})"
    assert (ctx.checks.attempted, ctx.checks.failed) == (1, 1)


def test_gradcheck_corrupt_is_a_failed_check():
    params, g, rounds, mode = _gradcheck_cases()[0]
    checks = Checks()
    check_grad_error(checks, fiedler.model.grad_check(params, g, rounds, mode), "clean")
    check_grad_error(checks, fiedler.model.grad_check(params, g, rounds, mode, corrupt=True),
                     "corrupt")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.failed_frac > 0


def test_gradcheck_cases_are_the_commands():
    worst = {"local": 0.0, "global": 0.0}
    for case in _gradcheck_cases():
        worst[case[3]] = max(worst[case[3]], fiedler.model.grad_check(*case))
    code, text = run_cli(["gradcheck", "--seed", "0"])
    assert code == 0
    for mode, err in worst.items():
        assert f"gradcheck mode={mode} max_rel_err={err:.3e}" in text


def test_run_refuses_a_directory_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataset.gen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calls_outside_a_root_span_record_nothing(tmp_path):
    original = fiedler.data.dataset_text
    tracer = Tracer()
    tracer.install()
    try:
        assert fiedler.data.dataset_text is not original
        save_dataset(Dataset(items=[]), tmp_path / "empty.txt")  # calls dataset_text
    finally:
        tracer.restore()
    assert tracer.spans == []
    assert fiedler.data.dataset_text is original
