#!/usr/bin/env python3
"""The network's building blocks, one at a time.

The segmentation network is an hourglass over time: temporal convolutions
with normalized rectifiers capture local motion, width-2 max pooling halves
the frame rate, repeat-upsampling restores it, and bidirectional recurrent
units integrate context across the whole sequence before a per-frame
softmax.
"""

import math

import numpy as np

from actionseg import Variable
from actionseg import layers as L

print("== temporal convolution (length preserved by zero padding) ==")
p = L.Conv1DParams(Variable(np.ones((1, 1, 3))), Variable(np.zeros(1)))
x = Variable([[1.0], [2.0], [3.0], [4.0]])
print("input  [1, 2, 3, 4], box filter of width 3")
print("output", L.conv1d_same(x, p).value.data.ravel().tolist())

print()
print("== normalized rectifier: rectify, divide by layer max + 1e-5 ==")
out = L.norm_relu(Variable([[-1.0, 0.0, 2.0]]))
print("[-1, 0, 2] ->", out.value.data.ravel().tolist(), "(all outputs in [0, 1))")

print()
print("== pooling and upsampling are exact inverses in that order ==")
# a decoder layer upsamples inside its convolution; identity kernels of
# width 1 and zero bias leave the upsampling alone
identity = L.Conv1DParams(Variable(np.eye(2)[:, :, None]), Variable(np.zeros(2)))
x = Variable(np.arange(6, dtype=float).reshape(3, 2))
up = L.upsample_conv1d_same(x, identity)
back = L.max_pool_time(up)
print("x          ", x.value.tolist())
print("upsampled  ", up.value.tolist())
print("pooled back", back.value.tolist())

print()
print("== one recurrent step, by hand ==")
fields = {}
for g in ("i", "f", "o", "c"):
    fields[f"W_x{g}"] = Variable([[0.5]])
    fields[f"W_h{g}"] = Variable([[0.5]])
    fields[f"b_{g}"] = Variable([0.0])
unit = L.LSTMParams(**fields)
# one frame: each direction of the Bi-LSTM takes the same single step
h = L.bilstm(Variable([[1.0]]), unit, unit)
sig = 1 / (1 + math.exp(-0.5))
print("all weights 0.5, x=1:")
print("  gates i=f=o =", round(sig, 6), " candidate =", round(math.tanh(0.5), 6))
print("  h_1 from each direction:", h.value.tolist()[0])
print("  h_1 by hand:      ", sig * math.tanh(sig * math.tanh(0.5)))

print()
print("== bidirectional wrapper doubles the width ==")
rng = np.random.default_rng(1)


def rand_lstm(h, d):
    f = {}
    for g in ("i", "f", "o", "c"):
        f[f"W_x{g}"] = Variable(rng.normal(size=(h, d)) * 0.3)
        f[f"W_h{g}"] = Variable(rng.normal(size=(h, h)) * 0.3)
        f[f"b_{g}"] = Variable(np.zeros(h))
    return L.LSTMParams(**f)


x = Variable(rng.normal(size=(5, 3)))
out = L.bilstm(x, rand_lstm(4, 3), rand_lstm(4, 3))
print("input (5, 3) -> bilstm with 4 hidden per direction ->", out.value.shape)
