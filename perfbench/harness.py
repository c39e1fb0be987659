"""Set-up, measurement and metrics of one workload run."""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench.tracing import Tracer, layer_values
from perfbench.workloads import GROUPS, WORKLOADS, Checks, Context, Sizes

P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
# The probe's time on a calm core. `setup_s` is set-up time in probes times
# this, so it reads in seconds at a fixed machine speed.
PROBE_REF_S = 1e-3
PROBES_AROUND_SETUP = 5  # probes timed before and after each set-up; median used

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))


def select(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


class Probe:
    """A fixed reference kernel, independent of fiedler, timed around every call.

    On a shared machine other tenants slow this process by up to 1.8x for
    seconds at a time, at full CPU time and without steal. A call's time
    divided by the probe's time next to it cancels most of that. The kernel
    mixes what the workloads do: interpreter-bound small numpy calls and list
    work, and a (512, 32) matrix product. It takes about 1 ms on a calm core.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.random((32, 32))
        self.x = rng.random((1, 32))
        self.b = rng.random((512, 32))

    def around(self, fn):
        """``fn()``'s result and its time divided by the median probe time
        before and after it."""
        before = [self() for _ in range(PROBES_AROUND_SETUP)]
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = [self() for _ in range(PROBES_AROUND_SETUP)]
        return result, elapsed / statistics.median(before + after)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        rows = []
        for i in range(120):
            rows.append((-i, np.tanh(self.x @ self.w + 0.5)))
            rows.sort(key=lambda row: row[0])
        for _ in range(4):
            (self.b @ self.w) * self.b
        return time.perf_counter() - t0


@dataclass
class Timings:
    calls: list = field(default_factory=list)  # seconds per timed call
    probes: list = field(default_factory=list)  # probe seconds before and after each call

    def ratios(self) -> list:
        """Each call's time over the mean of the probes around it."""
        return [t / (0.5 * (self.probes[2 * i] + self.probes[2 * i + 1]))
                for i, t in enumerate(self.calls)]


def measure(ctx: Context, workload, state, seconds=None, rounds=None,
            tracer: Optional[Tracer] = None, probe: Optional[Probe] = None) -> Timings:
    """Time calls, over whole rounds, until ``seconds`` or ``rounds`` is
    reached. With a probe, the probe is timed right before and right after
    every call. Each result is checked after its timer stops; a call that
    raises is a failed check and ends the measurement."""
    out = Timings()
    started = time.perf_counter()
    done = 0
    while True:
        for index, call in enumerate(workload.round(ctx, state)):
            if probe:
                out.probes.append(probe())
            t0 = time.perf_counter()
            try:
                result = tracer.root(call) if tracer else call()
            except Exception as exc:  # reported as a failed check, not raised
                ctx.checks.check(False, f"call {index} raised {exc!r}")
                return out
            out.calls.append(time.perf_counter() - t0)
            if probe:
                out.probes.append(probe())
            workload.verify(ctx, state, index, result)
            del result  # freed outside the timed call
        done += 1
        if (rounds is not None and done >= rounds) or (
                seconds is not None and time.perf_counter() - started >= seconds):
            return out


def per_call_median(values, calls_per_round: int, reduce=statistics.median) -> float:
    """Median over a round's distinct calls of ``reduce`` over each call's repeats."""
    rounds = len(values) // calls_per_round
    return statistics.median(
        reduce(values[j : rounds * calls_per_round : calls_per_round])
        for j in range(calls_per_round)
    )


def report_metrics(workload, sizes: Sizes, timings: Timings, calls_per_round: int) -> dict:
    """Call-time metrics that are printed and recorded but not gated: the
    user-facing metrics the workload stands for, from the median call, and the
    raw times behind the gated probe ratio."""
    calls = timings.calls
    median = statistics.median(calls)
    out = {}
    for name, unit, stat in workload.headline:
        if stat == "rate":
            value = workload.items(sizes) / median
        elif stat == "round":
            value = statistics.median(
                sum(calls[i : i + calls_per_round])
                for i in range(0, len(calls) - calls_per_round + 1, calls_per_round))
        elif stat == "p90":
            if len(calls) < P90_MIN_SAMPLES:
                continue
            value = statistics.quantiles(calls, n=10)[8]
        else:
            value = median
        out[name] = {"value": value * 1e3 if unit == "ms" else value, "unit": unit}
    out["median_call_ms"] = {"value": per_call_median(calls, calls_per_round) * 1e3,
                             "unit": "ms"}
    out["fastest_call_ms"] = {"value": per_call_median(calls, calls_per_round, min) * 1e3,
                              "unit": "ms"}
    out["probe_ms"] = {"value": statistics.median(timings.probes) * 1e3, "unit": "ms"}
    return out


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    sizes: Sizes
    checks: Checks
    timings: Timings
    setups: list  # each set-up's time in probes, times PROBE_REF_S
    metrics: dict  # what the final line reports
    report: dict  # untraced runs: call-time metrics that are not gated
    tracer: Optional[Tracer]

    @property
    def correct(self) -> bool:
        return self.checks.attempted > 0 and self.checks.failed == 0

    def final_line(self) -> dict:
        return {"correct": self.correct, "attempted": self.checks.attempted,
                "failed": self.checks.failed, "metrics": self.metrics}

    def report_lines(self) -> list:
        lines = [f"workload {self.workload} seed {self.seed} trace {int(self.trace)} "
                 f"calls {len(self.timings.calls)}"]
        for name, m in {**self.metrics, **self.report}.items():
            lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
        lines.extend(f"  {name} {value:.6g}" for name, value in self.checks.maxima.items())
        lines.append(f"  failed_frac {self.checks.failed_frac:.6g} "
                     f"({self.checks.failed} of {self.checks.attempted} checks)")
        lines.extend(f"  check failed: {note}" for note in self.checks.notes)
        return lines

    def write(self, path: Path, environment: dict) -> None:
        record = {
            "workload": self.workload,
            "trace": self.trace,
            "environment": environment,
            "sizes": dataclasses.asdict(self.sizes),
            "call_seconds": self.timings.calls,
            "probe_seconds": self.timings.probes,
            "setup_s_each": self.setups,
            "metrics": self.metrics,
            "report": self.report,
            "checks": {"attempted": self.checks.attempted, "failed": self.checks.failed,
                       "failed_frac": self.checks.failed_frac, "notes": self.checks.notes,
                       "maxima": self.checks.maxima},
        }
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")

    def write_spans(self, path: Path) -> None:
        spans = self.tracer.spans
        base = min(s.start_ns for s in spans)
        lines = ["index,name,start_ns,end_ns,parent,run_id"]
        lines.extend(
            f"{i},{s.name},{s.start_ns - base},{s.end_ns - base},"
            f"{'' if s.parent is None else s.parent},{s.run_id}"
            for i, s in enumerate(spans)
        )
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes = Sizes()) -> Result:
    """Set up repeatedly (once when tracing), check, measure.

    Each set-up is timed between probes; ``setup_s`` is the median set-up
    time in probes, times ``PROBE_REF_S``.

    Untraced, the calls repeat for ``seconds``, each between two probes.
    Traced, the workload's ``trace_rounds`` are timed once without and once
    with the tracer, so the counts repeat exactly and the difference is the
    tracing overhead. ``metrics`` stays empty when a call failed before a whole
    round was timed.
    """
    workload = WORKLOADS[name]
    group = GROUPS[workload.group]
    checks = Checks()
    work = root / "perfbench" / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(seed, work, sizes, checks)
        probe = Probe()
        setups, digests = [], []
        reps, setup_seconds = (1, 0.0) if trace else (sizes.setup_reps, sizes.setup_seconds)
        started = time.perf_counter()
        while len(setups) < reps or time.perf_counter() - started < setup_seconds:
            state, probes = probe.around(lambda: group.setup(ctx))
            setups.append(probes * PROBE_REF_S)
            digests.append(group.digest(state))
        for digest in digests[1:]:
            checks.check(digest == digests[0], "set-up differs on a repeat of the seed")
        group.check(ctx, state)

        tracer = None
        metrics, report = {}, {}
        calls_per_round = len(workload.round(ctx, state))
        if trace:
            untraced = measure(ctx, workload, state, rounds=workload.trace_rounds)
            tracer = Tracer()
            tracer.install()
            try:
                timings = measure(ctx, workload, state, rounds=workload.trace_rounds,
                                  tracer=tracer)
            finally:
                tracer.restore()
            if untraced.calls and timings.calls:
                metrics = select(
                    layer_values(tracer, sum(untraced.calls), sum(timings.calls)), "per_layer")
        else:
            timings = measure(ctx, workload, state, seconds=seconds, probe=probe)
            if len(timings.calls) >= calls_per_round:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics = select({
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": peak_kib / 1024.0,
                    "call_probes": per_call_median(timings.ratios(), calls_per_round),
                }, "end_to_end")
                report = report_metrics(workload, sizes, timings, calls_per_round)
        return Result(name, seed, trace, sizes, checks, timings, setups, metrics, report,
                      tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
