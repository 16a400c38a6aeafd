#!/usr/bin/env python3
"""Benchmark of the actionseg engine: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``./src``)::

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
package, each timing scaled to a reference host speed by the gauge
(``perfbench/gauge.py``). ``--trace 1`` alternates untraced passes with
passes under the span tracer, prints the per-layer metrics and the tracing
overhead (untraced against traced throughput), and writes the spans to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (environment, sample counts, errors). The exit code is 0 when
every operation passed its output check, 1 when one failed and 2 when the
program cannot be imported. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gauge as gauge_mod

ROOT = Path.cwd()
# Untraced setups per run: (before the window, after each pass of it). Setups
# spread over the window meet the same host conditions as the passes; a few
# milliseconds of setup timed only at start-up swing with every burst of load.
SETUPS = {"train_long": (3, 1), "eval_corpus": (3, 0), "gradcheck": (5, 20)}

# (name, unit) in the order printed; the same names as BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("loss", "nats"),
    ("peak_mem_mb", "MB"),
]

_LAYER_KINDS = ("norm_relu", "max_pool_time", "upsample_repeat", "time_softmax_dense", "dropout")
PER_LAYER = (
    [(f"layers.lstm_forward.{q}", u) for q, u in
     (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"), ("steps", "count"),
      ("gflop_per_s", "GFLOP/s"))]
    + [(f"layers.conv1d_same.{q}", u) for q, u in
       (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"), ("gflop", "GFLOP"),
        ("gflop_per_s", "GFLOP/s"), ("patch_mb", "MB"))]
    + [(f"layers.{k}.{q}", "ms") for k in _LAYER_KINDS for q in ("fwd_ms", "bwd_ms")]
    + [("layers.bilstm.self_ms", "ms"),
       ("autodiff.backward.ms", "ms"), ("autodiff.backward.other_ms", "ms"),
       ("autodiff.tape_ops", "count"),
       ("model.forward.ms", "ms"), ("model.forward.calls", "count"),
       ("model.forward.us_per_op", "us"),
       ("autodiff.finite_diff_check.ms", "ms"), ("autodiff.finite_diff_check.probes", "count"),
       ("train.adam_step.ms", "ms"), ("train.cross_entropy_loss.ms", "ms")]
    + [(f"train.step.{v}.ms", "ms") for v in ("full", "high", "low", "conv_only")]
    + [("data.load_dataset.ms", "ms"), ("data.load_dataset.mb_parsed", "MB"),
       ("model.load_checkpoint.ms", "ms"),
       ("metrics.evaluate.ms", "ms"), ("metrics.evaluate.segments", "count"),
       ("data.synth_generate.ms", "ms"), ("data.save_dataset.ms", "ms"), ("model.build.ms", "ms"),
       ("trace.overhead_pct", "%")]
)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import actionseg from ./src of the current directory, and nothing else."""
    src = ROOT / "src"
    if not (src / "actionseg" / "__init__.py").is_file():
        raise ProgramMissing(f"no actionseg sources under {src}; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import actionseg
    if Path(actionseg.__file__).resolve().parent != (src / "actionseg").resolve():
        raise ProgramMissing(f"imported actionseg from {actionseg.__file__}, not from {src}")
    import tracer
    import workloads
    return workloads, tracer


def percentile(values, q):
    """q-th percentile (0-100) by linear interpolation between closest ranks."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Pass:
    """One pass of the window: its operations and whether it was traced."""

    ops: list
    traced: bool


def run_window(wl, state, seconds: float, tracer=None, after_pass=None) -> list[Pass]:
    """Whole passes until ``seconds`` of wall time have passed and at least
    ``wl.min_passes`` (and two, traced) are done.

    A pass is ``wl.pass_rounds(state)`` rounds: one round for eval_corpus and
    gradcheck, one epoch for train_long, so every window covers the same mix
    of variants and lengths. With a tracer, passes alternate between untraced
    and traced, so both kinds see the same machine conditions.
    ``after_pass`` runs after each pass, outside its timing.
    """
    passes: list[Pass] = []
    least = max(wl.min_passes, 2 if tracer else 1)
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            ops = [op for _ in range(wl.pass_rounds(state)) for op in wl.round(state)]
        passes.append(Pass(ops, traced))
        if after_pass is not None:
            after_pass()
        if len(passes) >= least and time.perf_counter() - started >= seconds:
            return passes


def part_seconds(ops, gauge=None) -> dict[tuple, float]:
    """Seconds of one unit of each (variant, part): the median of its timings,
    each scaled by the gauge to the reference host speed (unscaled without one).

    Every pass repeats the same parts, so each has several timings spread
    over the window.
    """
    samples: dict[tuple, list[float]] = {}
    for op in ops:
        for key, secs in op.parts.items():
            if gauge is not None:
                secs = [s * gauge.scale(end - s, end) for s, end in zip(secs, op.ends[key])]
            samples.setdefault((op.variant, key), []).extend(secs)
    return {k: statistics.median(v) for k, v in samples.items()}


def throughput(passes: list[Pass], gauge=None) -> float:
    """Items of one pass over the seconds of one pass, rebuilt from its parts."""
    ops = [op for p in passes for op in p.ops]
    units = {(op.variant, key): op.units.get(key, 1) for op in ops for key in op.parts}
    seconds = sum(units[k] * v for k, v in part_seconds(ops, gauge).items())
    return sum(op.items for op in ops) / len(passes) / seconds


def latencies_ms(wl, ops, gauge=None) -> list[float]:
    """The latency of every input of one pass: each video's step or predict,
    each variant's gradcheck report.

    A train step or a predict is one part; a report is the sum of its
    blocks' parts, each a probe's time times the block's probe count.
    """
    units = {(op.variant, key): op.units.get(key, 1) for op in ops for key in op.parts}
    seconds = part_seconds(ops, gauge)
    if wl.latency_per_variant:
        per_variant: dict[str, float] = {}
        for k, v in seconds.items():
            per_variant[k[0]] = per_variant.get(k[0], 0.0) + units[k] * v
        return [1e3 * v for v in per_variant.values()]
    return [1e3 * v for k, v in seconds.items() if isinstance(k[1], int)]


def timing_metrics(wl, passes: list[Pass], setup_times, gauge=None) -> dict:
    """The timed end-to-end metrics; ``setup_times`` holds (CPU seconds, wall end)."""
    ops = [op for p in passes for op in p.ops]
    latencies = latencies_ms(wl, ops, gauge)
    setups = [s if gauge is None else s * gauge.scale(end - s, end) for s, end in setup_times]
    return {
        "setup_s": statistics.median(setups),
        "throughput": throughput(passes, gauge),
        "latency_ms.p50": percentile(latencies, 50),
        "latency_ms.p90": percentile(latencies, 90),
    }


def per_layer(totals, counters, setup_totals, ops, overhead_pct):
    """Per-layer metrics, each per workload operation (setup ones per setup)."""
    n = max(len(ops), 1)

    def span(name, key="s", table=totals, per=n):
        return table.get(name, {}).get(key, 0.0) / per

    def ms(name, key="s"):
        return 1e3 * span(name, key)

    def count(key):
        return counters.get(key, 0.0) / n

    def rate(name):
        secs = span(name) + span(name + ".bwd")
        flop = count(name + ".flop") + count(name + ".bwd_flop")
        return flop / secs / 1e9 if secs > 0 else 0.0

    def extra_mean(key):
        vals = [op.extra[key] for op in ops if key in op.extra]
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    lstm, conv = "layers.lstm_forward", "layers.conv1d_same"
    for name in (lstm, conv):
        m[f"{name}.fwd_ms"] = ms(name)
        m[f"{name}.bwd_ms"] = ms(name + ".bwd")
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.gflop_per_s"] = rate(name)
    m[f"{lstm}.steps"] = count(lstm + ".steps")
    m[f"{conv}.gflop"] = (count(conv + ".flop") + count(conv + ".bwd_flop")) / 1e9
    m[f"{conv}.patch_mb"] = count(conv + ".patch_bytes") / 1e6
    for kind in _LAYER_KINDS:
        names = ("layers.dropout", "layers.spatial_dropout") if kind == "dropout" else (f"layers.{kind}",)
        m[f"layers.{kind}.fwd_ms"] = sum(ms(x) for x in names)
        m[f"layers.{kind}.bwd_ms"] = sum(ms(x + ".bwd") for x in names)
    m["layers.bilstm.self_ms"] = ms("layers.bilstm", "glue_s")
    m["autodiff.backward.ms"] = ms("autodiff.backward")
    m["autodiff.backward.other_ms"] = ms("autodiff.backward", "self_s")
    m["autodiff.tape_ops"] = count("autodiff.tape_ops")
    m["model.forward.ms"] = ms("model.forward")
    m["model.forward.calls"] = span("model.forward", "calls")
    fwd_ops = counters.get("model.forward.ops", 0.0)
    m["model.forward.us_per_op"] = 1e6 * span("model.forward", per=1) / fwd_ops if fwd_ops else 0.0
    m["autodiff.finite_diff_check.ms"] = ms("autodiff.finite_diff_check")
    m["autodiff.finite_diff_check.probes"] = count("autodiff.finite_diff_check.probes")
    m["train.adam_step.ms"] = ms("train.adam_step")
    m["train.cross_entropy_loss.ms"] = ms("train.cross_entropy_loss") + ms("train.cross_entropy_loss.bwd")
    for v in ("full", "high", "low", "conv_only"):
        steps = [op.seconds for op in ops if op.variant == v and op.extra.get("loss") is not None]
        m[f"train.step.{v}.ms"] = 1e3 * sum(steps) / len(steps) if steps else 0.0
    m["data.load_dataset.ms"] = ms("data.load_dataset")
    m["data.load_dataset.mb_parsed"] = extra_mean("mb_parsed")
    m["model.load_checkpoint.ms"] = ms("model.load_checkpoint")
    m["metrics.evaluate.ms"] = ms("metrics.evaluate")
    m["metrics.evaluate.segments"] = extra_mean("segments")
    for name in ("data.synth_generate", "data.save_dataset", "model.build"):
        m[f"{name}.ms"] = 1e3 * span(name, table=setup_totals, per=1)
    m["trace.overhead_pct"] = overhead_pct
    return m


def commit_id(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit_id(ROOT),
        "seed": seed,
    }


def measure_peak(fn) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(wl, seed: int, seconds: float, trace: bool, out_dir: Path | None = None):
    """One benchmark run of workload object ``wl``; returns (result, record)."""
    workloads, tracer_mod = import_program()
    clock = workloads.clock
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    record = {"workload": wl.name, "seconds": seconds, "trace": int(trace), "env": environment(seed)}
    tracer = tracer_mod.Tracer() if trace else None
    # A traced run takes no gauge samples: they would fall inside spans.
    gauge = None if trace else gauge_mod.Gauge()
    try:
        setup_times = []

        def timed_setup():
            if gauge is not None:
                gauge.poll()
            started = clock()
            new = wl.setup(seed, work)
            setup_times.append((clock() - started, time.perf_counter()))
            if gauge is not None:
                gauge.poll()
            return new

        after_pass = None
        if trace:
            with tracer:
                state = timed_setup()
            setup_totals, setup_spans = tracer.totals(), tracer.spans()
            tracer.clear()
        else:
            before, after = SETUPS[wl.name]
            for _ in range(before):
                state = timed_setup()
            if after:
                def after_pass():
                    for _ in range(after):
                        timed_setup()
            state["gauge"] = gauge
        passes = run_window(wl, state, seconds, tracer, after_pass)
        ops = [op for p in passes for op in p.ops]

        failed = wl.check(state, ops)
        attempted = len(ops)
        try:
            peak = measure_peak(wl.peak_op(state))
        except Exception as exc:  # the peak pass is one more operation; count it, keep going
            peak, failed, attempted = math.nan, failed + 1, attempted + 1
            record["peak_error"] = repr(exc)

        timings = sum(len(v) for op in ops for v in op.parts.values())
        record.update({
            "ops": len(ops),
            "samples": {"part_timings": timings, "parts": len(part_seconds(ops)),
                        "latency_ms_inputs": len(latencies_ms(wl, ops)),
                        "throughput_passes": len(passes), "setup_s": len(setup_times)},
            "throughput_items": wl.item_unit, "latency_of": wl.latency_name,
            "failed_frac": failed / attempted,
            "errors": [op.extra["error"] for op in ops if "error" in op.extra][:5],
        })
        if trace:
            untraced = [p for p in passes if not p.traced]
            traced = [p for p in passes if p.traced]
            ops_b = [op for p in traced for op in p.ops]
            thr_a, thr_b = throughput(untraced), throughput(traced)
            overhead = 100.0 * (thr_a / thr_b - 1.0)
            totals = tracer.totals()
            if "layers.bilstm" in totals:  # bilstm minus its lstm_forward calls
                totals["layers.bilstm"]["glue_s"] = (
                    totals["layers.bilstm"]["s"]
                    - tracer.child_seconds("layers.bilstm", "layers.lstm_forward"))
            metrics = per_layer(totals, tracer.counters, setup_totals, ops_b, overhead)
            record["untraced_throughput"] = thr_a
            record["traced_throughput"] = thr_b
            record["traced_ops"] = len(ops_b)
            units = dict(PER_LAYER)
            out = out_dir if out_dir is not None else ROOT / ".perfbench_out"
            tracer.save(out / f"trace-{wl.name}-seed{seed}.npz", **{
                f"setup_{k}": v for k, v in setup_spans.items()})
        else:
            metrics = timing_metrics(wl, passes, setup_times, gauge)
            metrics["loss"] = wl.quality(state, ops)
            metrics["peak_mem_mb"] = peak / 1e6
            units = dict(END_TO_END)
            record["unscaled"] = timing_metrics(wl, passes, setup_times)
            record["gauge"] = {"samples": len(gauge.seconds), "ref_ms": 1e3 * gauge_mod.REF_S,
                               "kernel_ms": {q: 1e3 * percentile(gauge.seconds, p) for q, p in
                                             (("min", 0), ("p50", 50), ("max", 100))}}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train_long", "eval_corpus", "gradcheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        workloads, _ = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, record = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:16.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {record['failed_frac']:16.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
