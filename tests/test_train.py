import importlib
import math
from types import MappingProxyType

import numpy as np
import pytest

from actionseg.autodiff import Tape, Variable, finite_diff_check
from actionseg.data import SynthConfig, synth_generate
from actionseg.errors import ContractError
from actionseg.layers import Conv1DParams, DenseParams, LSTMParams, softmax_time
from actionseg.model import VARIANTS, ModelConfig, build
from actionseg.tensor import Tensor
from actionseg.train import (AdamState, TrainingDiverged, adam_step, cross_entropy_loss,
                             finite_difference_report, predict, train)

RNG = np.random.default_rng(70)


def tiny_dataset(seed=21, videos=1):
    cfg = SynthConfig(num_classes=3, actions_per_video=4, sub_actions=(2, 2),
                      frames_per_sub=(4, 6), feature_dim=5, noise=0.05,
                      videos_per_split={"train": videos, "test": 1}, seed=seed)
    return synth_generate(cfg)


def tiny_model(variant="full", seed=1, **kw):
    base = dict(input_dim=5, num_classes=3, variant=variant, k=2, conv_len=3, hidden=8,
                dropout_conv=0.0, dropout_lstm=0.0, seed=seed)
    base.update(kw)
    return build(ModelConfig(**base))


# cross entropy


def test_perfect_predictions_give_near_zero_loss():
    probs = np.zeros((4, 3))
    labels = np.array([0, 2, 1, 0])
    probs[np.arange(4), labels] = 1.0
    loss = cross_entropy_loss(Variable(probs), labels)
    assert abs(loss.value.item()) <= 1e-11


def test_uniform_predictions_loss_is_log_classes():
    probs = np.full((6, 4), 0.25)
    loss = cross_entropy_loss(Variable(probs), np.zeros(6, dtype=int))
    assert abs(loss.value.item() - math.log(4.0)) < 1e-11


def test_masked_loss_equals_loss_on_kept_half():
    probs = softmax_time(Variable(RNG.normal(size=(8, 3)))).value
    labels = RNG.integers(0, 3, size=8)
    mask = np.array([True, False] * 4)
    masked = cross_entropy_loss(Variable(probs), labels, mask).value.item()
    kept = cross_entropy_loss(Variable(probs.data[mask]), labels[mask]).value.item()
    assert masked == kept


def test_label_out_of_range_rejected():
    probs = np.full((3, 2), 0.5)
    with pytest.raises(ContractError):
        cross_entropy_loss(Variable(probs), np.array([0, 2, 1]))
    with pytest.raises(ContractError):
        cross_entropy_loss(Variable(probs), np.array([0, -1, 1]))


def test_empty_mask_rejected():
    probs = np.full((3, 2), 0.5)
    with pytest.raises(ContractError):
        cross_entropy_loss(Variable(probs), np.zeros(3, dtype=int), np.zeros(3, dtype=bool))


def test_loss_gradient_matches_finite_differences_through_softmax():
    logits = RNG.normal(size=(6, 4))
    labels = RNG.integers(0, 4, size=6)

    def f(v):
        return cross_entropy_loss(softmax_time(v), labels)
    assert finite_diff_check(f, Tensor(logits), eps=1e-5) <= 1e-4


# adam


def test_adam_zero_gradient_leaves_parameters():
    p = Variable([1.0, -2.0], trainable=True)
    state = AdamState()
    adam_step([p], [np.zeros(2)], state)
    assert p.value.tolist() == [1.0, -2.0]
    assert state.t == 1


def test_adam_first_step_is_signed_learning_rate():
    p = Variable([1.0, 1.0, 1.0], trainable=True)
    state = AdamState(lr=1e-3)
    g = np.array([0.3, -2.0, 0.01])
    adam_step([p], [g], state)
    step = np.array(p.value.tolist()) - 1.0
    # m_hat / sqrt(v_hat) is exactly sign(g) up to the eps in the denominator
    assert np.allclose(step, -1e-3 * np.sign(g), atol=1e-8)


def test_adam_opposite_gradients_roughly_cancel():
    p = Variable([0.5], trainable=True)
    state = AdamState(lr=1e-3)
    adam_step([p], [np.array([1.0])], state)
    adam_step([p], [np.array([-1.0])], state)
    assert abs(p.value.item() - 0.5) <= 2 * 1e-3


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(71)
    theta = rng.normal(size=(3, 2))
    p = Variable(theta.copy(), trainable=True)
    state = AdamState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)

    ref = theta.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 8):
        g = rng.normal(size=(3, 2))
        adam_step([p], [g.copy()], state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.value.data, ref, atol=1e-14)


# prediction


def test_predict_argmax_and_tie_rule():
    m = tiny_model()
    # argmax semantics checked directly on the probability matrix
    probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.5, 0.0]])
    assert probs.argmax(axis=1).tolist() == [1, 0]
    x = RNG.normal(size=(9, 5))
    pred = predict(m, x)
    assert pred.shape == (9,) and set(pred) <= {0, 1, 2}


# training loop


def test_zero_epochs_changes_nothing():
    ds = tiny_dataset()
    m = tiny_model()
    before = {n: p.value.data.copy() for n, p in m.params.items()}
    report = train(m, ds.split("train"), ds.split("test"), epochs=0, seed=5)
    assert report.epochs == []
    assert 0.0 <= report.final.accuracy <= 100.0
    for n, p in m.params.items():
        assert np.array_equal(p.value.data, before[n])


def test_single_sequence_loss_non_increasing():
    ds = tiny_dataset()
    m = tiny_model()
    report = train(m, ds.split("train"), ds.split("train"), epochs=50, seed=1, lr=1e-3)
    losses = [e.loss for e in report.epochs]
    assert losses[-1] < losses[0]
    # allow small optimizer noise, not a rising trend
    increases = [b - a for a, b in zip(losses, losses[1:]) if b > a]
    assert len(increases) <= 5
    assert all(d <= 0.05 * losses[0] for d in increases)


def test_training_is_deterministic_under_seed():
    ds = tiny_dataset(videos=2)

    def run():
        m = tiny_model(dropout_conv=0.2, dropout_lstm=0.2)
        return train(m, ds.split("train"), ds.split("test"), epochs=3, seed=9).to_kv()

    assert run() == run()


def test_overfit_single_sequence():
    ds = tiny_dataset()
    m = tiny_model(seed=2)
    train(m, ds.split("train"), ds.split("train"), epochs=150, seed=2, lr=2e-3,
          early_stop_train_acc=99.5)
    s = ds.split("train")[0]
    acc = 100.0 * np.mean(predict(m, s.features) == s.labels)
    assert acc >= 99.0


def test_divergence_aborts_with_epoch_and_sequence():
    ds = tiny_dataset()
    m = tiny_model(seed=3)
    with pytest.raises(TrainingDiverged) as err:
        train(m, ds.split("train"), ds.split("train"), epochs=5, seed=3, lr=1e308)
    assert err.value.epoch >= 1
    assert "train_0000" in str(err.value)


def test_report_kv_excludes_wall_time():
    ds = tiny_dataset()
    m = tiny_model(seed=4)
    report = train(m, ds.split("train"), ds.split("test"), epochs=2, seed=4)
    kv = report.to_kv()
    assert "wall" not in kv
    assert "epoch.1.loss=" in kv and "final.val.acc=" in kv
    assert "wall_time_s" in report.to_text()


def test_finite_difference_report_only_reads_the_model(monkeypatch):
    def guarded(block, attr, value):
        if attr in block.__dict__:
            raise AssertionError(f"{type(block).__name__}.{attr} assigned during the report")
        object.__setattr__(block, attr, value)

    for cls in (Conv1DParams, LSTMParams, DenseParams):
        monkeypatch.setattr(cls, "__setattr__", guarded)
    x = RNG.normal(size=(2, 1))
    for variant in VARIANTS:
        model = build(ModelConfig(input_dim=1, num_classes=2, variant=variant, k=1, conv_len=1,
                                  hidden=1, dropout_conv=0.0, dropout_lstm=0.0, seed=3))
        params = dict(model.params)
        model.params = MappingProxyType(params)  # read-only: any assignment raises
        rows = finite_difference_report(model, x, [0, 1])
        assert [name for name, _ in rows] == list(params)
        assert all(np.isfinite(err) for _, err in rows)
        assert all(model.params[name] is var for name, var in params.items())


def test_forward_passes_leave_the_callers_array_writable():
    model = build(ModelConfig(input_dim=2, num_classes=2, variant="conv_only", k=1, conv_len=1,
                              hidden=1, dropout_conv=0.0, dropout_lstm=0.0, seed=5))
    x = RNG.normal(size=(4, 2))  # a multiple of 2**k: no padding copy
    predict(model, x)
    x[0, 0] = 1.0
    model.forward(x, training=True, rng=np.random.default_rng(0))
    x[0, 1] = 1.0
    finite_difference_report(model, x, [0, 1, 0, 1])
    x[1, 0] = 1.0


def test_finite_difference_report_keeps_the_callers_gradients():
    model = build(ModelConfig(input_dim=2, num_classes=2, variant="conv_only", k=1, conv_len=1,
                              hidden=1, dropout_conv=0.0, dropout_lstm=0.0, seed=6))
    x, labels = Tensor(RNG.normal(size=(4, 2))), [0, 1, 0, 1]
    with Tape() as tape:
        loss = cross_entropy_loss(model.forward(x), labels)
    tape.backward(loss)
    before = {name: p._grad.copy() for name, p in model.params.items()}
    finite_difference_report(model, x, labels)
    for name, p in model.params.items():
        assert p._grad is not None, name
        assert np.array_equal(p._grad, before[name]), name


def test_finite_difference_report_never_touches_the_models_variables(monkeypatch):
    # the package exports the function ``train``, which hides the module attribute
    train_mod = importlib.import_module("actionseg.train")
    model = build(ModelConfig(input_dim=2, num_classes=2, variant="conv_only", k=1, conv_len=1,
                              hidden=1, dropout_conv=0.0, dropout_lstm=0.0, seed=7))
    real = train_mod.finite_diff_check
    checked = []

    def untouched(when):
        held = [name for name, p in model.params.items() if p._grad is not None]
        assert not held, f"{held} hold a gradient {when}"

    def spy(f, x, eps=1e-5):
        untouched(f"before the check of block {len(checked)}")
        err = real(f, x, eps)
        untouched(f"after the check of block {len(checked)}")
        checked.append(x.shape)
        return err

    monkeypatch.setattr(train_mod, "finite_diff_check", spy)
    rows = finite_difference_report(model, RNG.normal(size=(4, 2)), [0, 1, 0, 1])
    assert [name for name, _ in rows] == list(model.params)
    assert checked == [p.value.shape for p in model.params.values()]


def test_divergence_names_the_first_non_finite_gradient_block(monkeypatch):
    layers_mod = importlib.import_module("actionseg.layers")
    ds = tiny_dataset()
    m = tiny_model("conv_only", seed=8)
    planted = m.params["dec2.conv.kernels"]
    real_conv = layers_mod.conv1d_same

    def inf_kernel_gradient_conv(x, p):
        out = real_conv(x, p)
        rule = out._backward
        if rule is not None and p.kernels is planted:
            def planted_rule(g):
                rule(g)
                p.kernels._grad[0, 0, 0] = np.inf
            out._backward = planted_rule
        return out

    monkeypatch.setattr(layers_mod, "conv1d_same", inf_kernel_gradient_conv)
    before = {name: p.value.data.copy() for name, p in m.params.items()}
    with pytest.raises(TrainingDiverged) as err:
        train(m, ds.split("train"), ds.split("train"), epochs=2, seed=8)
    assert err.value.block == "dec2.conv.kernels"
    assert (err.value.epoch, err.value.sample_id) == (1, "train_0000")
    assert "dec2.conv.kernels" in str(err.value)
    for name, p in m.params.items():
        assert np.array_equal(p.value.data, before[name]), name
        assert p._grad is None, name
