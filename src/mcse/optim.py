"""AdamW with decoupled weight decay and the halving learning-rate schedule."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

BETA1 = 0.9  # Adam moment decay rates and denominator floor
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    """Desk-scale defaults: small batches, fast halving."""

    batch_size: int = 2
    lr: float = 1e-3
    lr_halving_interval: int = 200
    weight_decay: float = 0.01
    max_iters: int = 300
    seed: int = 0
    stage: str = "stage1"

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.lr_halving_interval < 1:
            raise ValueError("batch_size, max_iters, lr_halving_interval must be positive")
        if self.stage not in ("stage1", "stage2", "joint"):
            raise ValueError(f"stage must be stage1, stage2, or joint, got {self.stage!r}")


def lr_schedule(base_lr: float, iteration: int, halving_interval: int) -> float:
    """base_lr * 0.5^floor(iteration / halving_interval); iteration counts from 0."""
    if iteration < 0:
        raise ValueError("iteration must be nonnegative")
    return base_lr * 0.5 ** (iteration // halving_interval)


@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamWState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adamw_step(params: dict, state: AdamWState, lr: float, config: TrainConfig) -> bool:
    """One decoupled-weight-decay Adam update over named parameter tensors.

    Any non-finite gradient aborts the whole step (no parameter moves, the
    step counter stays put) and returns False after logging the offending
    parameter name.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient; call backward first")
        if not np.all(np.isfinite(p.grad)):
            log.warning("non-finite gradient in %r; skipping optimizer step %d",
                        name, state.step + 1)
            return False

    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        if config.weight_decay:
            p.data -= lr * config.weight_decay * p.data
        p.data -= (lr / bias1) * m / (np.sqrt(v / bias2) + EPS)
    return True
