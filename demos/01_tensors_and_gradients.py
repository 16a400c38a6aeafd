#!/usr/bin/env python3
"""Tensors, the gradient tape, and finite-difference verification.

Everything in this library runs on immutable float64 tensors. Gradients come
from a reverse-mode tape: while a Tape is active, every layer records how to
push gradients back to its inputs; Tape.backward replays the record in
reverse. The finite-difference checker is the house oracle: any gradient the
tape produces can be compared against central differences.
"""

import numpy as np

from actionseg import Tape, Tensor, Variable, cross_entropy_loss, finite_diff_check
from actionseg import layers as L

print("== tensors ==")
a = Tensor([[1.0, -2.0], [3.0, 4.0]])
print("a =", a.tolist(), "shape", a.shape)
print("norm_relu(a) =", np.round(L.norm_relu(a).value.data, 6).tolist(),
      "(a layer with no tape just computes)")

print()
print("== taping a computation ==")
tape = Tape()
with tape:
    z = Variable([[2.0, 0.0, -1.0]], trainable=True)  # logits of one frame, 3 classes
    probs = L.softmax_time(z)
    loss = cross_entropy_loss(probs, [0])              # -log p(class 0)
tape.backward(loss)
print("loss =", round(loss.value.item(), 6))
print("d loss / d z =", np.round(z.grad.data, 6).tolist(), "(expected softmax(z) - onehot(0))")
print("softmax(z)   =", np.round(probs.value.data, 6).tolist())

print()
print("== gradients accumulate on fan-out ==")
rng = np.random.default_rng(0)
x = Variable(rng.normal(size=(4, 2)))
kernels = rng.normal(size=(2, 2, 3))


def conv(k):
    return L.Conv1DParams(Variable(k, trainable=True), Variable(np.zeros(2), trainable=True))


def conv_twice(first, second):
    tape = Tape()
    with tape:
        y = L.conv1d_same(L.conv1d_same(x, first), second)
        loss = cross_entropy_loss(L.softmax_time(y), [0, 1, 1, 0])
    tape.backward(loss)


shared = conv(kernels)
conv_twice(shared, shared)  # one filter bank applied twice
inner, outer = conv(kernels), conv(kernels)
conv_twice(inner, outer)    # two copies of it, one per use
print("shared bank, d loss / d bias =", np.round(shared.bias.grad.data, 6).tolist())
print("sum over the copies          =", np.round(inner.bias.grad.data + outer.bias.grad.data, 6).tolist())
print("same kernel gradient, bit for bit:",
      np.array_equal(shared.kernels.grad.data, inner.kernels.grad.data + outer.kernels.grad.data))

print()
print("== the finite-difference oracle ==")
z0 = Tensor(rng.uniform(-1, 1, size=(4, 3)))
labels = [0, 2, 1, 2]


def frame_loss(v):
    return cross_entropy_loss(L.softmax_time(v), labels)


err = finite_diff_check(frame_loss, z0, eps=1e-5)
print(f"max relative error of the tape gradient for softmax cross-entropy: {err:.2e}")
print("every layer in this package is held to the same check at <= 1e-4.")
