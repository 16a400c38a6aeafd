#!/usr/bin/env python3
"""Self-check of the benchmark at toy sizes; run from the root of a checkout.

    python3 perfbench/selfcheck.py

It runs every workload on tiny inputs, untraced and traced, and confirms that
every metric named in BENCHMARK.json prints with its unit and a finite value.
It then plants three defects and confirms that the output checks catch them:
a loss whose backward rule is scaled by 1.5 and a ``conv1d_same`` whose
kernel gradient is scaled by 1.5 must each fail the gradcheck workload, and a
prediction shifted by one class must fail the eval_corpus workload.
Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run

TOY_SIZES = dict(dim=6, classes=3, k=2, conv_len=5, hidden=4)


def toy_workloads(workloads):
    return {
        "train_long": workloads.TrainLong(lengths=(37, 54), actions=2, **TOY_SIZES),
        "eval_corpus": workloads.EvalCorpus(lengths=(45, 62), actions=3, train_lengths=(30,),
                                            train_actions=2, epochs=1, **TOY_SIZES),
        "gradcheck": workloads.GradCheck(cap=16),
    }


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def expect_metrics(result, spec, what):
    metrics = result["metrics"]
    missing = [name for name, _ in spec if name not in metrics]
    expect(not missing, f"{what}: metrics not printed: {missing}")
    for name, unit in spec:
        m = metrics[name]
        expect(m["unit"] == unit, f"{what}: {name} has unit {m['unit']!r}, expected {unit!r}")
        expect(math.isfinite(m["value"]), f"{what}: {name} = {m['value']!r}")


def main() -> int:
    workloads, _ = run.import_program()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    out = Path(".perfbench_out") / "selfcheck"

    toys = toy_workloads(workloads)
    for name, wl in toys.items():
        for trace, spec in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, record = run.run(wl, 1, 0.2, trace, out_dir=out)
            what = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, (what, record["errors"]))
            expect_metrics(result, spec, what)
            expect(all(v > 0 for v in record["samples"].values()), (what, record["samples"]))
        print(f"selfcheck: {name}: every metric prints with its unit and is finite")

    train_mod = workloads.train_mod
    layers_mod = workloads.importlib.import_module("actionseg.layers")
    real_loss, real_predict = train_mod.cross_entropy_loss, train_mod.predict
    real_conv = layers_mod.conv1d_same

    def wrong_gradient_loss(yhat, labels, mask=None):
        out = real_loss(yhat, labels, mask)
        rule = out._backward
        if rule is not None:
            out._backward = lambda g: rule(1.5 * g)
        return out

    def wrong_kernel_gradient_conv(x, p):
        out = real_conv(x, p)
        rule, kernels = out._backward, p.kernels
        if rule is not None:
            def scaled(g):
                before = 0.0 if kernels._grad is None else kernels._grad.copy()
                rule(g)
                kernels._grad = kernels._grad + 0.5 * (kernels._grad - before)
            out._backward = scaled
        return out

    def corrupted_predict(model, x):
        return (real_predict(model, x) + 1) % model.config.num_classes

    for name, module, attr, fake in (
            ("gradcheck", train_mod, "cross_entropy_loss", wrong_gradient_loss),
            ("gradcheck", layers_mod, "conv1d_same", wrong_kernel_gradient_conv),
            ("eval_corpus", train_mod, "predict", corrupted_predict)):
        real = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            result, record = run.run(toys[name], 1, 0.2, False, out_dir=out)
        finally:
            setattr(module, attr, real)
        expect(not result["correct"] and result["failed"] > 0, (name, attr, result))
        print(f"selfcheck: {name}: a planted defect in {attr} fails the output check "
              f"({result['failed']} of {result['attempted']} operations)")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
