#!/usr/bin/env python3
"""Tensors, the gradient tape, and finite-difference verification.

Everything in this library runs on immutable float64 tensors. Gradients come
from a reverse-mode tape: while a Tape is active, operations record how to
push gradients back to their inputs; Tape.backward replays the record in
reverse. The finite-difference checker is the house oracle: any gradient the
tape produces can be compared against central differences.
"""

import numpy as np

from actionseg import Tape, Tensor, Variable, finite_diff_check
from actionseg import autodiff as ad

print("== tensors ==")
a = Tensor([[1.0, 2.0], [3.0, 4.0]])
print("a =", a.tolist(), "shape", a.shape)
print("a @ a =", ad.matmul(a, a).value.tolist(), "(an operation with no tape just computes)")

print()
print("== taping a computation ==")
tape = Tape()
with tape:
    x = Variable([1.0, 2.0, 3.0], trainable=True)
    y = ad.mul(x, x)            # y_i = x_i^2
    loss = ad.sum_all(y)        # sum of squares
tape.backward(loss)
print("loss =", loss.value.item())
print("d loss / d x =", x.grad.tolist(), "(expected 2*x)")

print()
print("== gradients accumulate on fan-out ==")
tape = Tape()
with tape:
    z = Variable([1.0, 1.0], trainable=True)
    loss = ad.add(ad.sum_all(z), ad.sum_all(z))
tape.backward(loss)
print("z used twice, d loss / d z =", z.grad.tolist())

print()
print("== the finite-difference oracle ==")
rng = np.random.default_rng(0)
x0 = Tensor(rng.uniform(-1, 1, size=(4,)))


def cubic(v):
    return ad.sum_all(ad.mul(ad.mul(v, v), v))


err = finite_diff_check(cubic, x0, eps=1e-5)
print(f"max relative error of the tape gradient for sum(x^3): {err:.2e}")
print("every layer in this package is held to the same check at <= 1e-4.")
