import weakref

import numpy as np
import pytest

from actionseg import autodiff as ad
from actionseg.autodiff import Tape, Variable, finite_diff_check
from actionseg.errors import ContractError
from actionseg.tensor import Tensor


def test_grad_of_sum_is_ones():
    tape = Tape()
    with tape:
        x = Variable(np.arange(6, dtype=np.float64).reshape(2, 3), trainable=True)
        loss = ad.sum_all(x)
    tape.backward(loss)
    assert np.array_equal(x.grad.data, np.ones((2, 3)))


def test_grad_of_sum_of_squares_hand():
    tape = Tape()
    with tape:
        x = Variable([1.0, 2.0], trainable=True)
        loss = ad.sum_all(ad.mul(x, x))
    tape.backward(loss)
    assert x.grad.tolist() == [2.0, 4.0]


def test_fanout_accumulates():
    tape = Tape()
    with tape:
        y = Variable([1.0, 1.0, 1.0], trainable=True)
        loss = ad.add(ad.sum_all(y), ad.sum_all(y))
    tape.backward(loss)
    assert y.grad.tolist() == [2.0, 2.0, 2.0]


def test_loss_grad_with_respect_to_itself_is_one():
    tape = Tape()
    with tape:
        x = Variable([3.0], trainable=True)
        loss = ad.sum_all(x)
    tape.backward(loss)
    assert loss.grad.item() == 1.0


def test_non_scalar_loss_rejected():
    tape = Tape()
    with tape:
        x = Variable([1.0, 2.0], trainable=True)
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_disconnected_variable_gets_zero_grad():
    tape = Tape()
    with tape:
        x = Variable([1.0, 2.0], trainable=True)
        unused = Variable([5.0], trainable=True)
        loss = ad.sum_all(x)
    tape.backward(loss)
    assert unused.grad.tolist() == [0.0]


def test_backward_clears_tape():
    tape = Tape()
    with tape:
        x = Variable([1.0], trainable=True)
        loss = ad.sum_all(x)
    tape.backward(loss)
    assert tape.ops == []


def test_backward_releases_the_graph():
    tape = Tape()
    with tape:
        x = Variable(np.arange(4.0), trainable=True)
        w = Variable(np.full(4, 2.0), trainable=True)
        y = ad.mul(x, w)
        loss = ad.sum_all(ad.mul(y, y))
    released = weakref.ref(y.value.data)
    del y
    tape.backward(loss)
    assert released() is None
    assert loss.grad.item() == 1.0
    # loss = sum((x*w)^2): d/dx = 2*x*w*w, d/dw = 2*x*w*x
    assert x.grad.tolist() == [0.0, 8.0, 16.0, 24.0]
    assert w.grad.tolist() == [0.0, 4.0, 16.0, 36.0]
    assert tape.ops == []


def test_backward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(7)
        tape = Tape()
        with tape:
            x = Variable(rng.normal(size=(3, 3)), trainable=True)
            w = Variable(rng.normal(size=(3, 3)), trainable=True)
            y = ad.matmul(x, w)
            loss = ad.sum_all(ad.mul(y, y))
        tape.backward(loss)
        return x.grad.data.copy(), w.grad.data.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_zeroing_and_rerunning_reproduces_gradients():
    rng = np.random.default_rng(8)
    x = Variable(rng.normal(size=(4,)), trainable=True)

    def run_once():
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.mul(ad.mul(x, x), x))
        tape.backward(loss)
        out = x.grad.data.copy()
        x.zero_grad()
        return out

    assert np.array_equal(run_once(), run_once())


def test_grads_accumulate_across_backward_until_zeroed():
    x = Variable([1.0], trainable=True)
    for _ in range(2):
        tape = Tape()
        with tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
    assert x.grad.item() == 2.0


def test_ops_without_tape_record_nothing():
    x = Variable([1.0, 2.0], trainable=True)
    y = ad.mul(x, x)
    assert y.parents == () and y._backward is None


def test_bias_broadcast_gradient():
    tape = Tape()
    with tape:
        m = Variable(np.ones((3, 2)), trainable=True)
        b = Variable([1.0, 2.0], trainable=True)
        loss = ad.sum_all(ad.add(m, b))
    tape.backward(loss)
    assert b.grad.tolist() == [3.0, 3.0]


def test_finite_diff_linear_is_exact():
    err = finite_diff_check(lambda v: ad.sum_all(v), Tensor([1.0, -2.0, 3.0]), eps=1e-5)
    assert err <= 1e-10


def test_finite_diff_cubic():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(5,)))
    err = finite_diff_check(lambda v: ad.sum_all(ad.mul(ad.mul(v, v), v)), x, eps=1e-5)
    assert err <= 1e-6


def test_finite_diff_gives_every_evaluation_its_own_tensor():
    seen = []  # holding every tensor keeps its id from being reused

    def f(v):
        seen.append(v.value)
        return ad.sum_all(ad.mul(v, v))
    finite_diff_check(f, Tensor([1.0, -2.0, 3.0]), eps=1e-5)
    assert len(seen) == 1 + 2 * 3
    assert len({id(t) for t in seen}) == len(seen)
    assert not any(t.data.flags.writeable for t in seen)


def test_finite_diff_rejects_non_scalar():
    with pytest.raises(ContractError):
        finite_diff_check(lambda v: ad.mul(v, v), Tensor([1.0, 2.0]))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ContractError):
        finite_diff_check(lambda v: ad.sum_all(v), Tensor([1.0]), eps=0.0)


def test_matmul_transpose_concat_slice_reduce_gradients():
    rng = np.random.default_rng(9)
    a0 = Tensor(rng.normal(size=(3, 4)))

    def f_matmul(v):
        w = Variable(rng2)
        return ad.sum_all(ad.mul(ad.matmul(v, w), ad.matmul(v, w)))

    rng2 = np.random.default_rng(10).normal(size=(4, 2))
    assert finite_diff_check(f_matmul, a0) <= 1e-6
    other = Variable(np.random.default_rng(11).normal(size=(3, 4)))
    assert finite_diff_check(lambda v: ad.sum_all(ad.mul(ad.concat(v, other, 1), ad.concat(v, other, 1))), a0) <= 1e-6
    assert finite_diff_check(lambda v: ad.sum_all(ad.mul(ad.slice_axis(v, 0, 1, 3), ad.slice_axis(v, 0, 1, 3))), a0) <= 1e-6
