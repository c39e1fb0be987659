import threading
import warnings
from dataclasses import replace
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import build_stack_int64_keys, complete_graph, metrics_from_csv_text, traced_peak
from fiedler import model
from fiedler.data import Dataset, generate_dataset
from fiedler.graphs import GraphGenConfig, generate_connected_graph, generate_graph_arrays
from fiedler.model import (
    build_stack,
    flatten_params,
    forward_stack,
    init_params,
    param_count,
    stack_losses,
    unflatten_params,
)
from fiedler.spectral import algebraic_connectivity
from fiedler.training import (
    EVAL_CHUNK,
    AdamState,
    EpochRecord,
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    generalization_sweep,
    train,
)


@pytest.fixture(scope="module")
def tiny_sets():
    train_cfg = GraphGenConfig(n_range=(6, 8), p_range=(0.3, 0.7), seed=501)
    val_cfg = GraphGenConfig(n_range=(6, 8), p_range=(0.3, 0.7), seed=502)
    return generate_dataset(train_cfg, 40), generate_dataset(val_cfg, 12)


# -- losses -------------------------------------------------------------------


def l1_error(estimates, lambda2: float) -> float:
    """Reference: (1/(2n)) sum of absolute errors; a lone scalar estimate
    counts as n=1. ``evaluate`` and ``stack_losses`` must agree with it."""
    err = np.atleast_1d(np.asarray(estimates, dtype=float)) - lambda2
    return float(np.sum(np.abs(err)) / (2.0 * err.size))


def l2_loss(estimates, lambda2: float) -> float:
    """Reference: (1/(2n)) sum of squared errors; a lone scalar estimate
    counts as n=1."""
    err = np.atleast_1d(np.asarray(estimates, dtype=float)) - lambda2
    return float(np.sum(err * err) / (2.0 * err.size))


def test_l1_l2_worked_example():
    assert l1_error([1.0, 2.0], 1.5) == pytest.approx(0.25, abs=1e-15)
    assert l2_loss([1.0, 2.0], 1.5) == pytest.approx(0.125, abs=1e-15)


def test_losses_vanish_only_on_exact_estimates():
    assert l1_error([2.0, 2.0, 2.0], 2.0) == 0.0
    assert l2_loss([2.0, 2.0, 2.0], 2.0) == 0.0
    assert l1_error([2.0, 2.0 + 1e-9], 2.0) > 0.0
    assert l2_loss([2.0, 2.0 + 1e-9], 2.0) > 0.0


def test_l1_scales_linearly_with_error():
    base = l1_error([1.0, 3.0], 2.0)
    scaled = l1_error([2.0 + 3.0 * (-1.0), 2.0 + 3.0 * 1.0], 2.0)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_global_scalar_uses_half_normalizer():
    assert l1_error(3.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert l2_loss(3.0, 2.0) == pytest.approx(0.5, abs=1e-15)


# -- Adam ---------------------------------------------------------------------


def _fresh_theta(h, seed):
    return flatten_params(init_params(h, seed))


def test_adam_zero_gradient_is_identity():
    theta = _fresh_theta(4, seed=0)
    before = theta.copy()
    state = AdamState.zeros(param_count(4))
    assert adam_step(theta, np.zeros(param_count(4)), state, learning_rate=0.1) is None
    assert np.array_equal(theta, before)
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    h = 4
    theta = _fresh_theta(h, seed=1)
    before = theta.copy()
    grad = np.full(param_count(h), 2.0)
    adam_step(theta, grad, AdamState.zeros(param_count(h)), learning_rate=1e-3)
    delta = theta - before
    # bias-corrected ratio is ~1 for |g| >> eps, so each step is ~ -lr*sign(g)
    assert np.max(np.abs(delta + 1e-3)) < 1e-9


def test_adam_is_deterministic():
    h = 5
    g = np.linspace(-1, 1, param_count(h))
    a1, a2 = _fresh_theta(h, seed=2), _fresh_theta(h, seed=2)
    s1, s2 = AdamState.zeros(param_count(h)), AdamState.zeros(param_count(h))
    adam_step(a1, g, s1, 1e-2)
    adam_step(a2, g, s2, 1e-2)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


def test_adam_shape_mismatch():
    theta = _fresh_theta(4, seed=0)
    with pytest.raises(ValueError):
        adam_step(theta, np.zeros(param_count(4)), AdamState.zeros(7), 1e-3)


def _functional_adam(theta, g, state, learning_rate,
                     beta1=0.9, beta2=0.999, epsilon=1e-8):
    """The allocating Adam update that the in-place ``adam_step`` replaced."""
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    step = state.step + 1
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    return theta, AdamState(m=m, v=v, step=step)


_coords = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    steps=st.integers(1, 20),
    learning_rate=st.sampled_from([0.0, 1e-3, 0.1]),
)
def test_adam_in_place_equals_functional_step_bitwise(data, n, steps, learning_rate):
    theta = data.draw(hnp.arrays(np.float64, n, elements=_coords))
    m = data.draw(hnp.arrays(np.float64, n, elements=_coords))
    v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e6)))
    grads = data.draw(hnp.arrays(np.float64, (steps, n), elements=_coords))
    state = AdamState(m=m.copy(), v=v.copy())
    want, want_state = theta.copy(), AdamState(m=m, v=v)
    for g in grads:
        adam_step(theta, g, state, learning_rate)
        want, want_state = _functional_adam(want, g, want_state, learning_rate)
        assert theta.tobytes() == want.tobytes()
        assert state.m.tobytes() == want_state.m.tobytes()
        assert state.v.tobytes() == want_state.v.tobytes()
        assert state.step == want_state.step


# -- metrics ------------------------------------------------------------------


def test_metrics_csv_round_trip():
    m = Metrics(rows=[
        EpochRecord(1, 0.5, 0.25, 0.125, 1.5),
        EpochRecord(2, 0.25, 0.2, 0.1, 3.25),
    ])
    text = m.csv_text()
    assert text.splitlines()[0] == "epoch,train_l2,val_l1,val_l2,wall_time_s"
    again = metrics_from_csv_text(text)
    assert again.csv_text() == text


_metric = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_metric, _metric, _metric, _metric), min_size=1, max_size=5))
def test_metrics_csv_round_trip_is_bitwise(values):
    m = Metrics(rows=[EpochRecord(i, *v) for i, v in enumerate(values, start=1)])
    m.validate()
    again = metrics_from_csv_text(m.csv_text())

    def bits(metrics):
        return [(r.epoch, *(x.hex() for x in (r.train_l2, r.val_l1, r.val_l2, r.wall_time_s)))
                for r in metrics.rows]

    assert bits(again) == bits(m)
    assert again.csv_text() == m.csv_text()


def test_metrics_validation():
    Metrics(rows=[EpochRecord(1, 0.1, 0.1, 0.1, 0.0)]).validate()
    with pytest.raises(ValueError):
        Metrics(rows=[EpochRecord(2, 0.1, 0.1, 0.1, 0.0)]).validate()
    with pytest.raises(ValueError):
        Metrics(rows=[EpochRecord(1, float("nan"), 0.1, 0.1, 0.0)]).validate()


# -- train config -------------------------------------------------------------


def test_train_config_validation():
    good = dict(rounds=2, mode="local", hidden_size=8, epochs=1)
    TrainConfig(**good)
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "rounds": 0})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "mode": "both"})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "epochs": 0})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "batch_size": 0})
    with pytest.raises(ValueError):
        TrainConfig(**{**good, "learning_rate": -1e-3})
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{**good, "learning_rate": lr})
    TrainConfig(**{**good, "learning_rate": 0.0})


# -- evaluate -----------------------------------------------------------------


def test_evaluate_single_graph_matches_direct_losses(tiny_sets):
    train_ds, _ = tiny_sets
    g, label = train_ds.items[0]
    single = Dataset(items=[(g, label)])
    params = init_params(8, seed=3)
    from fiedler.model import forward

    est, _ = forward(params, g, 3, "local")
    mean_l1, mean_l2 = evaluate(params, single, 3, "local")
    assert mean_l1 == pytest.approx(l1_error(est, label), rel=1e-12)
    assert mean_l2 == pytest.approx(l2_loss(est, label), rel=1e-12)


def test_evaluate_is_invariant_to_duplication(tiny_sets):
    train_ds, _ = tiny_sets
    params = init_params(8, seed=4)
    once = evaluate(params, train_ds, 2, "global")
    twice = evaluate(params, Dataset(items=train_ds.items * 2), 2, "global")
    assert twice == pytest.approx(once, rel=1e-12)


def test_evaluate_constant_model_global():
    h = 8
    params = unflatten_params(np.zeros(param_count(h)), h)
    params.readout_global.b2 = 4.0
    g = complete_graph(5)
    label = algebraic_connectivity(g)  # 5.0
    ds = Dataset(items=[(g, label)] * 3)
    mean_l1, mean_l2 = evaluate(params, ds, 2, "global")
    assert mean_l1 == pytest.approx(abs(4.0 - label) / 2.0, rel=1e-12)
    assert mean_l2 == pytest.approx((4.0 - label) ** 2 / 2.0, rel=1e-12)


@pytest.mark.parametrize("mode", ["local", "global"])
def test_evaluate_is_bitwise_a_pass_per_gathered_chunk(mode):
    """1,100 graphs run as two full chunks and a partial one; each chunk,
    gathered with ``take`` and stacked by the int64-key reference builder,
    gives the same sums by ``float.hex``."""
    count = 1100
    assert 2 * EVAL_CHUNK < count < 3 * EVAL_CHUNK
    arrays = generate_graph_arrays(GraphGenConfig(seed=77), count)
    labels = np.random.default_rng(77).uniform(0.05, 5.0, count)
    params = init_params(32, seed=8)
    l1 = l2 = 0.0
    for start in range(0, count, EVAL_CHUNK):
        chunk = np.arange(start, min(start + EVAL_CHUNK, count))
        stack = build_stack_int64_keys(arrays.take(chunk))
        targets = labels[chunk]
        est, _ = forward_stack(params, stack, 2, mode, want_cache=False)
        if mode == "local":
            err = np.abs(est - np.repeat(targets, stack.sizes))
            per_graph_l1 = (np.bincount(stack.node_graph, weights=err, minlength=chunk.size)
                            / (2.0 * stack.sizes))
        else:
            per_graph_l1 = 0.5 * np.abs(est - targets)
        l1 += float(per_graph_l1.sum())
        l2 += float(stack_losses(est, stack, targets, mode).sum())
    got = evaluate(params, Dataset(arrays, labels), 2, mode)
    assert [v.hex() for v in got] == [(l1 / count).hex(), (l2 / count).hex()]


def test_evaluate_rejects_empty_dataset():
    with pytest.raises(ValueError):
        evaluate(init_params(4, seed=0), Dataset(items=[]), 2, "local")


# -- train loop ---------------------------------------------------------------


def test_zero_learning_rate_changes_nothing(tiny_sets):
    train_ds, _ = tiny_sets
    g, label = train_ds.items[0]
    one = Dataset(items=[(g, label)])
    config = TrainConfig(rounds=2, mode="local", hidden_size=8, epochs=1,
                         learning_rate=0.0, batch_size=1, seed=5)
    before = evaluate(init_params(8, seed=5), one, 2, "local")
    params, metrics = train(config, one, one)
    assert metrics.rows[0].val_l1 == before[0]
    assert np.array_equal(flatten_params(params), flatten_params(init_params(8, seed=5)))


def test_train_records_one_row_per_epoch(tiny_sets):
    train_ds, val_ds = tiny_sets
    config = TrainConfig(rounds=2, mode="local", hidden_size=8, epochs=4,
                         batch_size=16, seed=6)
    _, metrics = train(config, train_ds, val_ds)
    assert [r.epoch for r in metrics.rows] == [1, 2, 3, 4]
    metrics.validate()


def test_training_reduces_validation_error():
    train_cfg = GraphGenConfig(n_range=(6, 9), p_range=(0.2, 0.8), seed=601)
    val_cfg = GraphGenConfig(n_range=(6, 9), p_range=(0.2, 0.8), seed=602)
    train_ds = generate_dataset(train_cfg, 500)
    val_ds = generate_dataset(val_cfg, 100)
    config = TrainConfig(rounds=4, mode="local", hidden_size=16, epochs=10,
                         batch_size=64, seed=7)
    initial = evaluate(init_params(16, seed=7), val_ds, 4, "local")[0]
    _, metrics = train(config, train_ds, val_ds)
    assert metrics.rows[-1].val_l1 < initial


def test_train_is_bit_reproducible(tiny_sets):
    train_ds, val_ds = tiny_sets
    config = TrainConfig(rounds=3, mode="global", hidden_size=8, epochs=3,
                         batch_size=16, seed=8)
    frozen = lambda: 0.0
    p1, m1 = train(config, train_ds, val_ds, clock=frozen)
    p2, m2 = train(config, train_ds, val_ds, clock=frozen)
    assert np.array_equal(flatten_params(p1), flatten_params(p2))
    assert m1.csv_text() == m2.csv_text()


def test_train_writes_epoch_checkpoints(tmp_path, tiny_sets):
    train_ds, val_ds = tiny_sets
    config = TrainConfig(rounds=2, mode="local", hidden_size=8, epochs=3,
                         batch_size=16, seed=9)
    train(config, train_ds, val_ds, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"checkpoint_epoch_{e:03d}.txt" for e in (1, 2, 3)]


def test_divergence_aborts_with_diagnostic(tiny_sets):
    train_ds, val_ds = tiny_sets
    config = TrainConfig(rounds=2, mode="local", hidden_size=8, epochs=3,
                         learning_rate=1e200, batch_size=16, seed=10)
    with pytest.raises(RuntimeError, match="diverged"):
        train(config, train_ds, val_ds)


def test_divergence_in_split_batches_aborts_with_diagnostic():
    """Batches of 64 graphs of 9-11 nodes (about 640 rows) at H=32 split in
    two parts, so the forward worker meets the overflow and NaNs, and so does
    the backward worker, whose weight sums turn non-finite: both run under
    the training loop's errstate and raise no RuntimeWarning."""
    cfg = GraphGenConfig(n_range=(9, 11), p_range=(0.3, 0.7), seed=503)
    train_ds = generate_dataset(cfg, 128)
    val_ds = generate_dataset(replace(cfg, seed=504), 8)
    assert len(model._row_parts(build_stack(train_ds.arrays.take(np.arange(64))), 32)) == 2
    config = TrainConfig(rounds=2, mode="local", hidden_size=32, epochs=3,
                         learning_rate=1e200, batch_size=64, seed=10)
    weight_sums = model._weight_sums
    worker_sums = []

    def spy(acc, terms):
        weight_sums(acc, terms)
        if threading.current_thread() is not threading.main_thread():
            worker_sums.append(bool(np.isfinite(acc).all()))

    with warnings.catch_warnings(), mock.patch.object(model, "_weight_sums", spy):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="training diverged"):
            train(config, train_ds, val_ds)
    assert True in worker_sums and False in worker_sums


def test_train_keeps_one_forward_cache_alive():
    """A batch's cache is released before the next batch's forward pass, so a
    two-batch epoch peaks below the bytes of two caches (T=8, H=32, 128 graphs
    of 10 nodes per batch: one cache is about 12.8 MiB)."""
    cfg = GraphGenConfig(n_range=(10, 10), p_range=(0.3, 0.7), seed=601)
    train_ds = generate_dataset(cfg, 256)
    val_ds = generate_dataset(replace(cfg, seed=602), 8)
    config = TrainConfig(rounds=8, mode="local", hidden_size=32, epochs=1,
                         batch_size=128, seed=4)
    stack = build_stack(train_ds.arrays.take(np.arange(128)))
    _, cache = forward_stack(init_params(32, 4), stack, 8, "local")
    cache_bytes = sum(
        a.nbytes
        for name in ("states", "messages", "update_gates", "reset_gates", "candidates")
        for a in getattr(cache, name)
    )
    del cache
    _, peak = traced_peak(train, config, train_ds, val_ds)
    assert peak < 2 * cache_bytes


def test_train_rejects_empty_dataset():
    config = TrainConfig(rounds=2, mode="local", hidden_size=8, epochs=1)
    with pytest.raises(ValueError):
        train(config, Dataset(items=[]), Dataset(items=[]))


# -- sweep --------------------------------------------------------------------


def test_generalization_sweep_shape():
    params = init_params(8, seed=11)
    cfg = GraphGenConfig(n_range=(6, 8), p_range=(0.3, 0.7), seed=603)
    rows = generalization_sweep(params, [6, 8], 5, cfg, 2, "local")
    assert [n for n, _, _ in rows] == [6, 8]
    assert all(count == 5 for _, _, count in rows)
    assert all(np.isfinite(l1) and l1 >= 0 for _, l1, _ in rows)
    single = generalization_sweep(params, [7], 3, cfg, 2, "local")
    assert len(single) == 1
