"""Span tracer installed from outside the package, around its public functions.

``Tracer.install()`` replaces every public function of the ``data``,
``model``, ``layers``, ``autodiff``, ``train`` and ``metrics`` modules, in
every ``actionseg`` module namespace that holds it (so calls through
``from .x import y`` bindings are seen too), with a wrapper that records a
span: name, start, end and the span that was open when it started. The
methods ``Model.forward`` and ``Tape.backward`` are wrapped on their classes,
and ``Tape.__enter__``/``__exit__`` so the tracer knows the active tape
without reading the package's private state.

Backward time is attributed by tape node: when a wrapped layer or autodiff
call returns, the nodes it appended to the active tape (``tape.ops`` grew)
get their backward rule wrapped in a ``<name>.bwd`` span. The innermost
wrapped call claims a node first, so ``bilstm`` does not claim the nodes of
its ``lstm_forward`` calls. Backward time that no node claims is the self
time of ``autodiff.backward``.

Spans live in flat in-memory arrays while the run goes and are written once,
by ``save``, when it ends. Flop and byte counts are computed from operand
shapes (GEMM terms only); no hardware counter is read.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("data", "model", "layers", "autodiff", "train", "metrics")

# Wrapped calls that count as one primitive op of a forward pass, and that
# claim the tape nodes they append. ``bilstm`` is a composite of wrapped
# calls; ``softmax_time`` is timed inside its only caller,
# ``time_softmax_dense``, so that the read-out is one layer kind.
_NOT_OPS = {"layers.bilstm"}
_UNWRAPPED = {"layers.softmax_time", "autodiff.finite_diff_check"}

_perf = time.perf_counter


def _shape(x):
    return getattr(x, "shape", None) or np.shape(x)


def _conv_cost(args):
    t_len = _shape(args[0])[0]
    filters, cin, width = args[1].kernels.value.shape
    gemm = 2 * t_len * filters * cin * width
    return {"flop": gemm, "bwd_flop": 2 * gemm, "patch_bytes": 8 * t_len * cin * width}


def _lstm_cost(args):
    t_len = _shape(args[0])[0]
    p = args[1]
    hidden, din = p.hidden, p.input_dim
    gemm = 2 * t_len * 4 * hidden * (din + hidden)
    return {"flop": gemm, "bwd_flop": 2 * gemm, "steps": t_len}


_COSTS = {"layers.conv1d_same": _conv_cost, "layers.lstm_forward": _lstm_cost}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.tapes: list = []
        self.fwd_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.kind = array("H")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- span recording -------------------------------------------------

    def _open(self, kid: int) -> int:
        i = len(self.t0)
        self.kind.append(kid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(_perf())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = _perf()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        kid = self._id(name)
        is_op = name.split(".")[0] in ("layers", "autodiff") and name not in _NOT_OPS
        claims = is_op or name == "train.cross_entropy_loss"
        bwd_id = self._id(name + ".bwd") if claims else None
        cost = _COSTS.get(name)

        def wrapper(*args, **kwargs):
            tape = tracer.tapes[-1] if (claims and tracer.tapes) else None
            n0 = len(tape.ops) if tape is not None else 0
            if is_op and tracer.fwd_depth:
                tracer.count("model.forward.ops", 1)
            extra = cost(args) if cost is not None else None
            i = tracer._open(kid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if extra is not None:
                for key in ("flop", "patch_bytes", "steps"):
                    if key in extra:
                        tracer.count(f"{name}.{key}", extra[key])
            if tape is not None and len(tape.ops) > n0:
                bwd_flop = extra.get("bwd_flop", 0) if extra is not None else 0
                for node in tape.ops[n0:]:
                    rule = node._backward
                    if rule is not None and not getattr(rule, "_traced", False):
                        node._backward = tracer._wrap_rule(rule, bwd_id, name, bwd_flop)
                        bwd_flop = 0  # the layer's GEMMs run in its first node only
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_rule(self, rule, bwd_id: int, name: str, bwd_flop: int):
        tracer = self

        def traced_rule(g):
            i = tracer._open(bwd_id)
            try:
                rule(g)
            finally:
                tracer._close(i)
            if bwd_flop:
                tracer.count(f"{name}.bwd_flop", bwd_flop)

        traced_rule._traced = True
        return traced_rule

    def _forward_span(self, kid: int, fn):
        """Wrap a callable as a ``model.forward`` span (counts ops beneath it)."""
        tracer = self

        def forward(*args, **kwargs):
            tracer.fwd_depth += 1
            i = tracer._open(kid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                tracer.fwd_depth -= 1

        forward.__wrapped__ = fn
        return forward

    # -- installation ---------------------------------------------------

    def _set(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("actionseg")
        mods = {m: importlib.import_module(f"actionseg.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if not callable(fn) or isinstance(fn, type) or name in _UNWRAPPED:
                    continue
                wrapped = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapped)
        self._install_methods(mods)
        return self

    def _install_methods(self, mods) -> None:
        tracer = self
        model_cls = mods["model"].Model
        tape_cls = mods["autodiff"].Tape
        self._set(model_cls, "forward", self._forward_span(self._id("model.forward"), model_cls.forward))

        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__

        def tape_enter(tape):
            tracer.tapes.append(tape)
            return enter(tape)

        def tape_exit(tape, *exc):
            tracer.tapes.pop()
            return exit_(tape, *exc)

        self._set(tape_cls, "__enter__", tape_enter)
        self._set(tape_cls, "__exit__", tape_exit)

        backward = tape_cls.backward
        bid = self._id("autodiff.backward")

        def tape_backward(tape, loss):
            tracer.count("autodiff.tape_ops", len(tape.ops))
            i = tracer._open(bid)
            try:
                return backward(tape, loss)
            finally:
                tracer._close(i)

        self._set(tape_cls, "backward", tape_backward)

        # Every probe of a gradient check is an untaped forward of the model
        # restarted at the perturbed stage: it counts as a model.forward span.
        check = mods["autodiff"].finite_diff_check
        fid, cid = self._id("model.forward"), self._id("autodiff.finite_diff_check")

        def finite_diff_check(f, x, *args, **kwargs):
            tracer.count("autodiff.finite_diff_check.probes", 2 * int(np.prod(_shape(x))))
            i = tracer._open(cid)
            try:
                return check(tracer._forward_span(fid, f), x, *args, **kwargs)
            finally:
                tracer._close(i)

        finite_diff_check.__wrapped__ = check
        for ns in (importlib.import_module("actionseg"), mods["autodiff"], mods["train"]):
            for key, value in list(vars(ns).items()):
                if value is check:
                    self._set(ns, key, finite_diff_check)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, old = self._patched.pop()
            setattr(holder, attr, old)
        self.tapes.clear()
        self.fwd_depth = 0

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        s = self.spans()
        dur = s["t1"] - s["t0"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(s["kind"], minlength=n)
        incl = np.bincount(s["kind"], weights=dur, minlength=n)
        self_t = np.bincount(s["kind"], weights=dur - child, minlength=n)
        return {name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(self_t[i])}
                for i, name in enumerate(self.names)}

    def child_seconds(self, parent: str, child: str) -> float:
        """Seconds of the ``child`` spans opened directly inside a ``parent`` span."""
        if parent not in self._ids or child not in self._ids:
            return 0.0
        s = self.spans()
        mine = (s["kind"] == self._ids[child]) & (s["parent"] >= 0)
        mine[mine] = s["kind"][s["parent"][mine]] == self._ids[parent]
        return float((s["t1"] - s["t0"])[mine].sum())

    def save(self, path: Path, **meta) -> None:
        """Write the recorded spans (compressed npz) plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans(),
                            **{k: np.asarray(v) for k, v in meta.items()})
