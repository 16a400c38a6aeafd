import hashlib
import math
import weakref

import numpy as np
import pytest

from actionseg import layers as L
from actionseg.autodiff import Tape, Variable, _accum, finite_diff_check, record, slice_axis, taping
from actionseg.errors import ContractError
from actionseg.model import VARIANTS, ModelConfig, build
from actionseg.tensor import Tensor
from actionseg.train import cross_entropy_loss
from memory_helpers import TracedMemory
from tape_helpers import dot, repeat_frames


def _conv(rng, filters, channels, width):
    return L.Conv1DParams(Variable(rng.normal(size=(filters, channels, width))),
                          Variable(rng.normal(size=filters)))


def test_grad_of_sum_is_ones():
    tape = Tape()
    with tape:
        x = Variable(np.arange(6, dtype=np.float64).reshape(2, 3), trainable=True)
        loss = dot(x, np.ones((2, 3)))
    tape.backward(loss)
    assert np.array_equal(x.grad.data, np.ones((2, 3)))


def test_grad_of_sum_of_squares_hand():
    # one rule hands the same leaf two gradients
    tape = Tape()
    with tape:
        x = Variable([1.0, 2.0], trainable=True)
        loss = dot(x, x)
    tape.backward(loss)
    assert x.grad.tolist() == [2.0, 4.0]


def test_fanout_accumulates():
    # one Conv1DParams applied twice gets the sum of the gradients that two
    # copies of it get, one per application
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(7, 3))
    w = rng.normal(size=(7, 3))
    shared = _conv(rng, 3, 3, 4)
    inner, outer = (L.Conv1DParams(Variable(shared.kernels.value), Variable(shared.bias.value))
                    for _ in range(2))
    for first, second in ((shared, shared), (inner, outer)):
        for p in (first, second):
            p.kernels.trainable = p.bias.trainable = True
        tape = Tape()
        with tape:
            loss = dot(L.conv1d_same(L.conv1d_same(Variable(x0), first), second), w)
        tape.backward(loss)
    for name in ("kernels", "bias"):
        both = getattr(inner, name)._grad + getattr(outer, name)._grad
        assert np.array_equal(getattr(shared, name)._grad, both)
        assert not np.array_equal(getattr(inner, name)._grad, getattr(outer, name)._grad)


def test_loss_grad_with_respect_to_itself_is_one():
    tape = Tape()
    with tape:
        x = Variable([[3.0]], trainable=True)
        loss = dot(L.norm_relu(x), np.ones((1, 1)))
    tape.backward(loss)
    assert loss.grad.item() == 1.0


def test_non_scalar_loss_rejected():
    tape = Tape()
    with tape:
        x = Variable([[1.0, 2.0]], trainable=True)
        y = L.norm_relu(x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_disconnected_variable_gets_zero_grad():
    tape = Tape()
    with tape:
        x = Variable([[1.0, 2.0]], trainable=True)
        unused = Variable([5.0], trainable=True)
        loss = dot(L.norm_relu(x), np.ones((1, 2)))
    tape.backward(loss)
    assert unused.grad.tolist() == [0.0]
    assert unused._grad is None


def test_backward_clears_tape():
    tape = Tape()
    with tape:
        x = Variable([[1.0]], trainable=True)
        loss = dot(repeat_frames(x), np.ones((2, 1)))
    tape.backward(loss)
    assert tape.ops == []


def test_backward_releases_the_graph():
    tape = Tape()
    with tape:
        x = Variable(np.arange(4.0).reshape(2, 2), trainable=True)
        y = repeat_frames(x)
        loss = dot(y, y)
    released = weakref.ref(y.value.data)
    del y
    tape.backward(loss)
    assert released() is None
    assert loss.grad.item() == 1.0
    # loss = 2 * sum(x^2): d/dx = 4x
    assert x.grad.tolist() == [[0.0, 4.0], [8.0, 12.0]]
    assert tape.ops == []


def _seeded_step():
    rng = np.random.default_rng(7)
    x = Variable(rng.normal(size=(6, 3)), trainable=True)
    conv = _conv(rng, 4, 3, 3)
    dense = L.DenseParams(Variable(rng.normal(size=(2, 4))), Variable(rng.normal(size=2)))
    leaves = [x, conv.kernels, conv.bias, dense.W, dense.b]
    for v in leaves:
        v.trainable = True
    tape = Tape()
    with tape:
        probs = L.time_softmax_dense(L.norm_relu(L.conv1d_same(x, conv)), dense)
        loss = cross_entropy_loss(probs, [0, 1, 1, 0, 1, 0])
    tape.backward(loss)
    return [v.grad.data for v in leaves]


def test_backward_bit_identical_across_runs():
    for first, second in zip(_seeded_step(), _seeded_step()):
        assert first.tobytes() == second.tobytes()


def test_zeroing_and_rerunning_reproduces_gradients():
    rng = np.random.default_rng(8)
    x = Variable(rng.normal(size=(4, 2)), trainable=True)
    w = rng.normal(size=(4, 2))

    def run_once():
        tape = Tape()
        with tape:
            loss = dot(L.norm_relu(x), w)
        tape.backward(loss)
        out = x.grad.data.copy()
        x.zero_grad()
        return out

    assert np.array_equal(run_once(), run_once())


def test_grads_accumulate_across_backward_until_zeroed():
    x = Variable([[1.0]], trainable=True)
    for _ in range(2):
        tape = Tape()
        with tape:
            loss = dot(repeat_frames(x), np.ones((2, 1)))
        tape.backward(loss)
    assert x.grad.item() == 4.0
    x.zero_grad()
    assert x.grad.item() == 0.0


def test_ops_without_tape_record_nothing():
    x = Variable([[1.0, 2.0]], trainable=True)
    y = L.norm_relu(x)
    assert y._backward is None
    # an untaped op makes no node, for its output or its input
    assert y.node is None and x.node is None


def test_bias_broadcast_gradient():
    # a conv bias is broadcast over the frames, so its gradient sums them
    tape = Tape()
    with tape:
        x = Variable(np.ones((3, 1)))
        b = Variable([1.0, 2.0], trainable=True)
        out = L.conv1d_same(x, L.Conv1DParams(Variable(np.zeros((2, 1, 1))), b))
        loss = dot(out, np.ones((3, 2)))
    tape.backward(loss)
    assert b.grad.tolist() == [3.0, 3.0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_taped_step_gives_every_parameter_its_own_gradient_memory(variant):
    # _accum keeps the first gradient it is handed, so no rule may hand one
    # array, or overlapping views of it, to two parents
    model = build(ModelConfig(input_dim=3, num_classes=2, variant=variant, k=2, conv_len=5,
                              hidden=4, seed=9))
    x = np.random.default_rng(10).normal(size=(13, 3))
    tape = Tape()
    with tape:
        probs = model.forward(x, training=True, rng=np.random.default_rng(11))
        loss = cross_entropy_loss(probs, np.arange(13) % 2)
    tape.backward(loss)
    grads = [v._grad for v in model.params.values()]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert g.dtype == np.float64 and g.flags.writeable
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
        assert not any(np.shares_memory(g, v.value.data) for v in model.params.values())


# sha256 of every parameter gradient's bytes, in table order, after one
# taped step of _toy_model(variant) at 13 frames; recorded with numpy 2.4.6
# and its bundled OpenBLAS 0.3.31, when the tape still held every op output
GOLDEN_STEP_GRADS = {
    "full": "055b6601b8ee68e4298892d78427b6ddba71ba3db1540bf9cdf8b608ae9267a2",
    "high": "5b7b1fd84821a92fa6114f34153d44e6dbdb75038cc89207b92362df7b577d44",
    "low": "0df1bd701d77c3e999db19985b220c720120c303d72e97830359fd33290dcbb7",
    "conv_only": "537e765b1965f978ba27954fba95a6d82899216448f42b883a2ecb37118bdee3",
}


def _watch_values(monkeypatch):
    """Weak references to the value of the first output of some layer ops, by op name.

    ``conv1d_same`` is watched at its input: the first one reads the
    model's padded input.
    """
    refs = {}

    def spy(name, of_input=False):
        real = getattr(L, name)

        def op(x, *args):
            out = real(x, *args)
            refs.setdefault(name, weakref.ref((x if of_input else out).value.data))
            return out
        monkeypatch.setattr(L, name, op)

    for name in ("norm_relu", "spatial_dropout", "max_pool_time", "upsample_bilstm"):
        spy(name)
    spy("conv1d_same", of_input=True)
    return refs


def _toy_model(variant, **sizes):
    return build(ModelConfig(**(dict(input_dim=3, num_classes=2, variant=variant, k=2, conv_len=5,
                                      hidden=4, seed=9) | sizes)))


def _taped_step(model, t_len):
    """One taped training step of ``model``, dropout on, before its backward: (tape, loss)."""
    cfg = model.config
    x = np.random.default_rng(10).normal(size=(t_len, cfg.input_dim))
    tape = Tape()
    with tape:
        probs = model.forward(x, training=True, rng=np.random.default_rng(11))
        loss = cross_entropy_loss(probs, np.arange(t_len) % cfg.num_classes)
    return tape, loss


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_taped_step_keeps_only_the_values_its_rules_read(variant, monkeypatch):
    # 13 frames are padded to 16, so the padded input is an array of the
    # model's own, which only enc1's conv reads
    refs = _watch_values(monkeypatch)
    model = _toy_model(variant)
    tape, loss = _taped_step(model, 13)
    assert [name for name, ref in refs.items() if ref() is not None] == []
    tape.backward(loss)
    blob = b"".join(var._grad.tobytes() for var in model.params.values())
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_STEP_GRADS[variant]


def test_a_taped_full_step_holds_less_than_every_op_output():
    model = _toy_model("full", input_dim=64, num_classes=10, conv_len=30, hidden=64)
    with TracedMemory() as mem:
        tape, loss = _taped_step(model, 501)
        held = mem.held()
        tape.backward(loss)
    # 10.25 MB were held after the forward, and the step peaked at 12.02 MB,
    # while the tape held every op output and the rules their inputs; 8.14
    # and 9.99 MB holding what the rules read
    assert held < 9.0e6, held / 1e6
    assert mem.peak < 11.0e6, mem.peak / 1e6


def _norm_relu_grad(wrap=None):
    """x's gradient of dot(norm_relu(x), w); ``wrap(new_ops, out)`` may wrap the op's rule."""
    x = Variable(np.random.default_rng(13).normal(size=(5, 3)), trainable=True)
    w = np.random.default_rng(14).normal(size=(5, 3))
    tape = Tape()
    with tape:
        out = L.norm_relu(x)
        if wrap is not None:
            wrap(tape.ops[-1:], out)
        loss = dot(out, w)
    tape.backward(loss)
    return x.grad.data


def _double_through_output(new_ops, out):
    # as perfbench/selfcheck.py plants a defect
    rule = out._backward
    out._backward = lambda g: rule(2.0 * g)


def _double_through_tape(new_ops, out):
    # as perfbench/tracer.py wraps the rules of an op's new tape entries
    for node in new_ops:
        rule = node._backward
        node._backward = lambda g, rule=rule: rule(2.0 * g)
    assert out._backward is new_ops[-1]._backward


@pytest.mark.parametrize("wrap", [_double_through_output, _double_through_tape])
def test_a_wrapped_rule_is_the_one_backward_runs(wrap):
    assert np.array_equal(_norm_relu_grad(wrap), 2.0 * _norm_relu_grad())


def test_finite_diff_linear_is_exact():
    err = finite_diff_check(lambda v: dot(v, np.ones(3)), Tensor([1.0, -2.0, 3.0]), eps=1e-5)
    assert err <= 1e-10


def _cube(v):
    # v*v*v elementwise, a rule written with record as a layer writes one;
    # the gradient sums the product rule's three terms
    vd = v.value.data
    out = Variable(vd * vd * vd)
    if taping():
        def bw(g):
            gv = g * vd
            _accum(v, g * (vd * vd) + gv * vd + gv * vd)
        record(out, bw)
    return out


def test_finite_diff_cubic():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(5,)))
    err = finite_diff_check(lambda v: dot(_cube(v), np.ones(5)), x, eps=1e-5)
    assert err <= 1e-6


def test_finite_diff_gives_every_evaluation_its_own_tensor():
    seen = []  # holding every tensor keeps its id from being reused

    def f(v):
        seen.append(v.value)
        return dot(v, v)
    finite_diff_check(f, Tensor([1.0, -2.0, 3.0]), eps=1e-5)
    assert len(seen) == 1 + 2 * 3
    assert len({id(t) for t in seen}) == len(seen)
    assert not any(t.data.flags.writeable for t in seen)


def test_finite_diff_rejects_non_scalar():
    with pytest.raises(ContractError):
        finite_diff_check(lambda v: L.norm_relu(v), Tensor([1.0, 2.0]))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ContractError):
        finite_diff_check(lambda v: dot(v, np.ones(1)), Tensor([1.0]), eps=0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_finite_diff_rejects_a_step_that_is_not_finite(eps):
    with pytest.raises(ContractError, match="eps must be finite and positive"):
        finite_diff_check(lambda v: dot(v, np.ones(1)), Tensor([1.0]), eps=eps)


def test_finite_diff_under_a_tape_is_rejected_and_records_nothing():
    # a probe recorded on the caller's tape would keep views of the probe
    # buffer that the check goes on changing
    calls = []

    def f(v):
        calls.append(v)
        return dot(v, v)
    outer = Tape()
    with outer, pytest.raises(ContractError, match="no tape active"):
        finite_diff_check(f, Tensor([[1.0, -2.0], [0.5, 3.0]]), eps=1e-5)
    assert outer.ops == [] and calls == []


def test_slice_axis_gradient_matches_finite_differences():
    a0 = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
    for axis, start, stop in ((0, 1, 3), (1, 0, 2)):
        def f(v):
            part = slice_axis(v, axis, start, stop)
            return dot(part, part)
        assert finite_diff_check(f, a0) <= 1e-6
