"""Binding end-to-end acceptance checks.

Each test prints one PASS line when its criterion holds (run with ``pytest -s``
to see them). Criteria 5, 6 and 8 share three seeded desk-scale training runs
built once per session; expect the whole module to take on the order of ten
minutes of CPU time.
"""

import math
import time

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, path_graph, permute, star_graph
from fiedler.cli import GRADCHECK_INSTANCES
from fiedler.data import generate_dataset
from fiedler.graphs import GraphGenConfig, generate_connected_graph
from fiedler.model import (
    flatten_params,
    forward,
    grad_check,
    init_params,
    save_params,
)
from fiedler.simulation import run_simulation
from fiedler.spectral import algebraic_connectivity
from fiedler.training import TrainConfig, generalization_sweep, train

# Acceptance data law: Erdos-Renyi with p uniform on this interval. The wide
# interval spreads the connectivity targets over roughly [0.1, 11], which the
# desk-scale learning-progress criteria below need: with a narrow interval the
# first training epoch already lands near the 20-epoch floor.
ACCEPT_P = (0.16, 0.95)
SEEDS = (0, 1, 2)
PRIMARY_SEED = 0  # the distinguished configuration, also used by criterion 8

TRAIN_COUNT = 10_000
VAL_COUNT = 2_000
EPOCHS = 20
HIDDEN = 32
BATCH = 256
LR = 1e-3


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def _datasets(seed: int):
    train_cfg = GraphGenConfig(n_range=(9, 11), p_range=ACCEPT_P, seed=1000 + seed)
    val_cfg = GraphGenConfig(n_range=(9, 11), p_range=ACCEPT_P, seed=2000 + seed)
    return (
        generate_dataset(train_cfg, TRAIN_COUNT),
        generate_dataset(val_cfg, VAL_COUNT),
    )


def _train_config(rounds: int, mode: str, seed: int) -> TrainConfig:
    return TrainConfig(
        rounds=rounds,
        mode=mode,
        hidden_size=HIDDEN,
        epochs=EPOCHS,
        learning_rate=LR,
        batch_size=BATCH,
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained_runs():
    """(seed, variant) -> (params, metrics) for the three criterion-5 variants."""
    runs = {}
    for seed in SEEDS:
        train_ds, val_ds = _datasets(seed)
        for variant, rounds, mode in (
            ("local_T8", 8, "local"),
            ("local_T2", 2, "local"),
            ("global_T8", 8, "global"),
        ):
            config = _train_config(rounds, mode, seed)
            t0 = time.perf_counter()
            params, metrics = train(config, train_ds, val_ds)
            print(
                f"[fixture] seed={seed} {variant}: epoch1 val_l1="
                f"{metrics.rows[0].val_l1:.4f} final val_l1="
                f"{metrics.rows[-1].val_l1:.4f} ({time.perf_counter() - t0:.0f}s)",
                flush=True,
            )
            runs[(seed, variant)] = (params, metrics)
    return runs


def test_criterion_1_oracle_closed_forms():
    started = time.perf_counter()
    for n in range(3, 14):
        assert algebraic_connectivity(complete_graph(n)) == pytest.approx(n, abs=1e-9)
        assert algebraic_connectivity(star_graph(n - 1)) == pytest.approx(1.0, abs=1e-9)
        assert algebraic_connectivity(cycle_graph(n)) == pytest.approx(
            2.0 - 2.0 * math.cos(2.0 * math.pi / n), abs=1e-9
        )
        assert algebraic_connectivity(path_graph(n)) == pytest.approx(
            2.0 - 2.0 * math.cos(math.pi / n), abs=1e-9
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(f"1 oracle closed forms ({elapsed:.2f}s)")


def test_criterion_2_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for mode, instances in GRADCHECK_INSTANCES.items():
        assert len(instances) >= 5
        for n, rounds, graph_seed, param_seed in instances:
            assert 4 <= n <= 6 and rounds in (2, 3)
            cfg = GraphGenConfig(n_range=(n, n), p_range=(0.5, 0.9), seed=graph_seed)
            g = generate_connected_graph(cfg, 0)
            params = init_params(8, seed=param_seed)
            err = grad_check(params, g, rounds, mode, epsilon=1e-5)
            worst = max(worst, err)
            assert err <= 1e-5, (mode, n, rounds, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(f"2 gradient fidelity (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_distributed_equals_monolithic():
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rounds = (2, 4, 8)[i % 3]
        cfg = GraphGenConfig(n_range=(5, 12), p_range=(0.3, 0.8), seed=4000 + i)
        g = generate_connected_graph(cfg, i)
        params = init_params(16, seed=5000 + i)
        sim_est, trace = run_simulation(params, g, rounds)
        ref_est, _ = forward(params, g, rounds, "local")
        gap = float(np.max(np.abs(sim_est - ref_est)))
        worst = max(worst, gap)
        assert gap < 1e-12
        assert len(trace.rounds) == rounds
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(f"3 distributed == monolithic (max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_permutation_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    params = init_params(16, seed=6000)
    for i in range(20):
        cfg = GraphGenConfig(n_range=(6, 12), p_range=(0.3, 0.8), seed=7000 + i)
        g = generate_connected_graph(cfg, i)
        global_ref, _ = forward(params, g, 4, "global")
        local_ref, _ = forward(params, g, 4, "local")
        for _ in range(20):
            perm = rng.permutation(g.n)
            pg = permute(g, perm)
            global_est, _ = forward(params, pg, 4, "global")
            assert abs(global_est - global_ref) < 1e-9
            local_est, _ = forward(params, pg, 4, "local")
            assert np.max(np.abs(local_est[perm] - local_ref)) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(f"4 permutation invariance/equivariance ({elapsed:.1f}s)")


def test_criterion_5_learning_progress(trained_runs):
    # (a) the distinguished seed-0 run must at least halve its validation
    # error between epoch 1 and the final epoch; (b) the depth and readout
    # orderings must each hold in at least 2 of the 3 seeds.
    depth_order = 0
    global_order = 0
    ratios = {}
    for seed in SEEDS:
        m8 = trained_runs[(seed, "local_T8")][1]
        m2 = trained_runs[(seed, "local_T2")][1]
        mg = trained_runs[(seed, "global_T8")][1]
        first, final = m8.rows[0].val_l1, m8.rows[-1].val_l1
        ratios[seed] = final / first
        if final < m2.rows[-1].val_l1:
            depth_order += 1
        if mg.rows[-1].val_l1 <= final:
            global_order += 1
        print(
            f"  seed {seed}: local T8 {first:.4f}->{final:.4f} "
            f"(ratio {final / first:.3f}) "
            f"local T2 final {m2.rows[-1].val_l1:.4f} "
            f"global T8 final {mg.rows[-1].val_l1:.4f}",
            flush=True,
        )
    assert ratios[PRIMARY_SEED] < 0.5, (
        f"seed-0 final/epoch-1 ratio {ratios[PRIMARY_SEED]:.3f} not under 0.5"
    )
    assert depth_order >= 2, f"T=8 beat T=2 in only {depth_order}/3 seeds"
    assert global_order >= 2, f"global beat local in only {global_order}/3 seeds"
    _passed(
        f"5 learning progress (seed-0 ratio {ratios[PRIMARY_SEED]:.3f}, "
        f"T-order {depth_order}/3, global-order {global_order}/3)"
    )


def test_criterion_6_generalization_shape(trained_runs):
    degraded = 0
    for seed in SEEDS:
        params = trained_runs[(seed, "local_T8")][0]
        gen_cfg = GraphGenConfig(n_range=(9, 13), p_range=ACCEPT_P, seed=3000 + seed)
        rows = generalization_sweep(params, [9, 10, 11, 12, 13], 1000, gen_cfg, 8, "local")
        by_n = {n: l1 for n, l1, _ in rows}
        print(f"  seed {seed} sweep: " + " ".join(f"{n}:{l1:.4f}" for n, l1, _ in rows),
              flush=True)
        if by_n[13] > by_n[11]:
            degraded += 1
    assert degraded >= 2, f"L1(13) > L1(11) in only {degraded}/3 seeds"
    _passed(f"6 generalization degrades with size distance ({degraded}/3 seeds)")


def test_criterion_7_overfit_single_graph():
    started = time.perf_counter()
    cfg = GraphGenConfig(n_range=(8, 8), p_range=(0.3, 0.5), seed=7)
    g = generate_connected_graph(cfg, 0)
    from fiedler.data import Dataset

    single = Dataset(items=[(g, algebraic_connectivity(g))])
    config = TrainConfig(rounds=2, mode="local", hidden_size=16, epochs=200,
                         learning_rate=1e-3, batch_size=1, seed=0)
    _, metrics = train(config, single, single)
    final = metrics.rows[-1].train_l2
    elapsed = time.perf_counter() - started
    assert final <= 1e-3, final
    assert elapsed < 30.0
    _passed(f"7 single-graph overfit (train L2 {final:.2e}, {elapsed:.1f}s)")


def _strip_wall_time(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def test_criterion_8_reproducibility(trained_runs, tmp_path):
    seed = PRIMARY_SEED
    params_a, metrics_a = trained_runs[(seed, "local_T8")]
    train_ds, val_ds = _datasets(seed)  # regenerated from the same configs
    params_b, metrics_b = train(_train_config(8, "local", seed), train_ds, val_ds)
    # metrics reproduce byte-identically apart from the wall-clock column
    assert _strip_wall_time(metrics_b.csv_text()) == _strip_wall_time(metrics_a.csv_text())
    # checkpoints reproduce byte-identically
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_params(params_a, a, mode="local", rounds=8)
    save_params(params_b, b, mode="local", rounds=8)
    assert a.read_bytes() == b.read_bytes()
    assert np.array_equal(flatten_params(params_a), flatten_params(params_b))
    _passed("8 seed-0 rerun reproduces metrics and checkpoint bytes")
