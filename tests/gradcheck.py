"""Finite-difference gradient oracle shared across the test suite.

Analytic gradients from the tape are compared against central differences
computed on the same scalar loss. Everything runs in float64; float32
rounding would eat the comparison budget before the math got a say.
"""

import numpy as np

from mcse.crn import CrnParams
from mcse.pipeline import TwoStageModel
from mcse.tensor import Tensor

STEP = 1e-5


def numeric_grad(fn, x: np.ndarray, step: float = STEP) -> np.ndarray:
    """Central-difference gradient of scalar fn at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn(x)
        flat[i] = keep - step
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def check_grads(build_loss, arrays, rtol=1e-4, atol=1e-8, step=STEP):
    """Verify analytic vs numeric gradients for each input array.

    build_loss takes len(arrays) Tensors and returns a scalar Tensor. The
    forward function must be a pure function of its inputs (no stateful
    buffers mutated between calls), otherwise the two FD evaluations see
    different worlds.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    assert loss.data.size == 1, f"loss must be scalar, got shape {loss.data.shape}"
    loss.backward()

    for k, t in enumerate(tensors):
        def f(x, k=k):
            probe = [Tensor(a.copy()) for a in arrays]
            probe[k] = Tensor(x.copy())
            return float(build_loss(*probe).data)

        num = numeric_grad(f, arrays[k], step)
        ana = t.grad
        assert ana is not None, f"input {k} received no gradient"
        err = np.abs(ana - num)
        bound = rtol * np.maximum(np.abs(ana), np.abs(num)) + atol
        worst = np.max(err - bound)
        assert np.all(err <= bound), (
            f"gradient mismatch on input {k}: worst excess {worst:.3e}, "
            f"max analytic {np.max(np.abs(ana)):.3e}, max numeric {np.max(np.abs(num)):.3e}"
        )


def to_float64(model):
    """Cast an initialised model to float64 in place, for a float64 oracle:
    every parameter Tensor and every batchnorm buffer. model is a
    TwoStageModel, a CrnParams or a dict of parameter Tensors (an LSTM's or
    the spatial filter's). Returns model."""
    if isinstance(model, TwoStageModel):
        groups = (model.stage1.params, model.stage1.buffers, model.spatial,
                  model.stage2.params, model.stage2.buffers)
    elif isinstance(model, CrnParams):
        groups = (model.params, model.buffers)
    else:
        groups = (model,)
    for group in groups:
        for name, value in group.items():
            if isinstance(value, Tensor):
                value.data = value.data.astype(np.float64)
            else:
                group[name] = value.astype(np.float64)
    return model
