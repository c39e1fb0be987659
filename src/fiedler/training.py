"""Adam training loop, loss metrics, evaluation, and the size-generalization sweep.

Training minimizes the mean squared connectivity error; reported numbers use
the absolute-error metric (both keep the 1/(2n) normalizer, so a global
scalar estimate counts as a single term with factor 1/2). Runs are
deterministic: a seeded permutation reshuffles each epoch and gradients are
reduced in fixed graph order, so identical configs give identical checkpoints.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import Dataset, generate_dataset
from .graphs import GraphGenConfig
from .model import (
    ModelParams,
    backward_stack,
    build_stack,
    flatten_params,
    forward_stack,
    init_params,
    param_views,
    save_params,
    stack_losses,
)

EVAL_CHUNK = 512

METRICS_HEADER = "epoch,train_l2,val_l1,val_l2,wall_time_s"

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """One experiment: message rounds, readout mode, and optimizer settings."""

    rounds: int
    mode: str
    hidden_size: int
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.mode not in ("local", "global"):
            raise ValueError(f"mode must be local or global, got {self.mode!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # zero is allowed: a no-op optimizer is a useful control experiment
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")


@dataclass
class EpochRecord:
    epoch: int
    train_l2: float
    val_l1: float
    val_l2: float
    wall_time_s: float


@dataclass
class Metrics:
    rows: list = field(default_factory=list)

    def validate(self) -> None:
        for i, row in enumerate(self.rows, start=1):
            if row.epoch != i:
                raise ValueError("epochs must be contiguous from 1")
            values = (row.train_l2, row.val_l1, row.val_l2, row.wall_time_s)
            if not all(np.isfinite(v) and v >= 0.0 for v in values):
                raise ValueError(f"non-finite or negative metric at epoch {i}")

    def csv_text(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.epoch},{r.train_l2:.17g},{r.val_l1:.17g},{r.val_l2:.17g},"
                f"{r.wall_time_s:.17g}"
            )
        return "\n".join(lines) + "\n"


def write_metrics(metrics: Metrics, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(metrics.csv_text())


@dataclass
class AdamState:
    """First and second moment accumulators over the flat parameter vector,
    in the canonical tensor order of ``model.param_views``; ``adam_step``
    updates ``m``, ``v`` and ``step`` in place."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_coords: int) -> "AdamState":
        return cls(m=np.zeros(n_coords), v=np.zeros(n_coords), step=0)


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    learning_rate: float,
) -> None:
    """One bias-corrected Adam update, in place: ``theta``, ``state.m`` and
    ``state.v`` are overwritten and ``state.step`` counts up, so parameter
    views of ``theta`` see the new values. ``grad`` and both moments share
    the layout of ``theta``; with beta1, beta2 and eps the ``ADAM_*``
    constants, the arithmetic is ``beta1*m + (1-beta1)*g``,
    ``beta2*v + ((1-beta2)*g)*g`` and ``theta - (lr*m_hat)/(sqrt(v_hat)+eps)``.
    """
    if grad.shape != state.m.shape or grad.shape != theta.shape:
        raise ValueError("gradient/state shape mismatch")
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    state.step += 1
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    rounds: int,
    mode: str,
) -> tuple[float, float]:
    """Mean per-graph absolute and squared error over a dataset.

    The graphs run in chunks of ``EVAL_CHUNK`` consecutive ones, in dataset
    order, each one cache-free forward pass; a chunk's stack is built from
    views of the dataset's arrays (``GraphArrays.slice``), so no edge row is
    gathered or copied before ``build_stack`` shifts it.
    """
    n = len(dataset)
    if not n:
        raise ValueError("dataset is empty")
    l1_sum = 0.0
    l2_sum = 0.0
    for start in range(0, n, EVAL_CHUNK):
        stop = min(start + EVAL_CHUNK, n)
        stack = build_stack(dataset.arrays.slice(start, stop))
        targets = dataset.lambda2[start:stop]
        estimates, _ = forward_stack(params, stack, rounds, mode, want_cache=False)
        if mode == "local":
            node_err = np.abs(estimates - np.repeat(targets, stack.sizes))
            per_graph_l1 = (
                np.bincount(stack.node_graph, weights=node_err, minlength=stop - start)
                / (2.0 * stack.sizes)
            )
        else:
            per_graph_l1 = 0.5 * np.abs(estimates - targets)
        per_graph_l2 = stack_losses(estimates, stack, targets, mode)
        l1_sum += float(per_graph_l1.sum())
        l2_sum += float(per_graph_l2.sum())
    return l1_sum / n, l2_sum / n


# A diverging run overflows before a loss check catches it; the finiteness
# checks on the training and validation losses are the detector, so the
# whole run keeps numpy's overflow and invalid-operation warnings quiet.
@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    train_set: Dataset,
    val_set: Dataset,
    checkpoint_dir=None,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[ModelParams, Metrics]:
    """Train from scratch; returns final parameters and per-epoch metrics.

    Each epoch shuffles the training set with a seeded permutation, steps Adam
    on the mean per-graph squared loss of each batch, evaluates the validation
    set, and (when ``checkpoint_dir`` is given) writes an epoch checkpoint.
    The parameters are views of one flat vector that Adam updates in place
    for the whole run, and at most one batch's forward cache is alive at any
    time. Aborts with RuntimeError on a non-finite loss.
    """
    if not len(train_set) or not len(val_set):
        raise ValueError("datasets must be non-empty")
    theta = flatten_params(init_params(config.hidden_size, config.seed))
    params = param_views(theta, config.hidden_size)
    state = AdamState.zeros(theta.size)
    metrics = Metrics()
    started = clock()

    for epoch in range(1, config.epochs + 1):
        order_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & ((1 << 64) - 1), epoch])
        )
        order = order_rng.permutation(len(train_set))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            stack = build_stack(train_set.arrays.take(batch))
            targets = train_set.lambda2[batch]
            _, cache = forward_stack(params, stack, config.rounds, config.mode, want_cache=True)
            loss, grad = backward_stack(params, cache, targets)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch starting at item {start}"
                )
            adam_step(theta, grad, state, config.learning_rate)
            # the next batch's forward pass allocates a cache of its own;
            # holding this one until then would keep two alive at once
            del cache, grad
            loss_sum += loss * len(batch)
        train_l2 = loss_sum / len(train_set)
        val_l1, val_l2 = evaluate(params, val_set, config.rounds, config.mode)
        if not (np.isfinite(val_l1) and np.isfinite(val_l2)):
            raise RuntimeError(f"training diverged: non-finite validation loss at epoch {epoch}")
        metrics.rows.append(
            EpochRecord(epoch, train_l2, val_l1, val_l2, clock() - started)
        )
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir) / f"checkpoint_epoch_{epoch:03d}.txt"
            # made at the first checkpoint, so a run that diverges in epoch 1
            # leaves no empty directory behind
            path.parent.mkdir(parents=True, exist_ok=True)
            save_params(params, path, mode=config.mode, rounds=config.rounds)
    metrics.validate()
    return params, metrics


def generalization_sweep(
    params: ModelParams,
    sizes,
    per_size_count: int,
    gen_cfg: GraphGenConfig,
    rounds: int,
    mode: str,
) -> list[tuple[int, float, int]]:
    """Mean absolute error on fresh labeled graphs of each requested size.

    Per-size graphs come from ``gen_cfg`` pinned to that node count (seed
    offset by the size, so sizes draw distinct streams). Returns
    (size, mean_l1, count) per entry.
    """
    if per_size_count < 1:
        raise ValueError("per_size_count must be >= 1")
    out = []
    for n in sizes:
        cfg = replace(gen_cfg, n_range=(int(n), int(n)), seed=gen_cfg.seed + int(n))
        ds = generate_dataset(cfg, per_size_count)
        mean_l1, _ = evaluate(params, ds, rounds, mode)
        out.append((int(n), mean_l1, per_size_count))
    return out
