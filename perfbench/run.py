"""Run one workload of the fiedler benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload dataset.gen --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced (``--trace
1``). The lines before it name every metric with its unit, including the
user-facing metric each workload stands for. A results file with the
environment, every metric and the check summary is written to
``perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set before numpy is imported; one thread keeps runs steady on a shared
# machine and stays within any nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import fiedler from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "fiedler" / "__init__.py").is_file():
        raise ImportError(f"no fiedler package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import fiedler

    if Path(fiedler.__file__).resolve().parent != (src / "fiedler").resolve():
        raise ImportError(f"imported fiedler from {fiedler.__file__}, not from {src}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    pin_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if not result.metrics:
        print("\n".join(["error: no complete round was timed", *result.report_lines()]),
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result.write(results_dir / f"{stem}.json", env)
    if args.trace:
        result.write_spans(results_dir / f"{stem}-spans.csv")
    for line in result.report_lines():
        print(line)
    print(json.dumps(result.final_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
