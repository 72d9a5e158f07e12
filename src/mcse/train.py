"""Training loop for the two-stage model.

The default schedule is sequential: Stage I is trained against the
reverberant clean images (per channel), then the spatial filter and
Stage II are trained against the dry source with Stage I frozen. A joint
mode optimizes everything against the dry target. Batches are gradient
accumulation over utterances drawn by a seeded generator, so a run is
fully determined by (data, config.seed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Spectrogram, stft
from .loss import total_loss
from .optim import AdamWState, TrainConfig, adamw_step, lr_schedule
from .pipeline import (
    TwoStageModel,
    spatial_tensors,
    stage1_tensors,
    stage2_tensors,
)
from .simkit import read_manifest
from .tensor import Tensor, as_tensor, no_grad
from .wavio import read_wav

log = logging.getLogger(__name__)


@dataclass
class Utterance:
    uid: str
    mix: Spectrogram
    revclean: Spectrogram
    dry: Spectrogram


def load_training_set(manifest_path, settings) -> list:
    entries = read_manifest(manifest_path)
    out = []
    for e in entries:
        mix = read_wav(e.mix_path)
        rev = read_wav(e.revclean_path)
        dry = read_wav(e.dry_path)
        for sig in (mix, rev, dry):
            if sig.sample_rate != settings.sample_rate:
                raise ValueError(
                    f"{e.uid}: expected {settings.sample_rate} Hz, got {sig.sample_rate}"
                )
        out.append(
            Utterance(
                e.uid,
                stft(mix, settings.frame_size, settings.hop, settings.fft_size),
                stft(rev, settings.frame_size, settings.hop, settings.fft_size),
                stft(dry, settings.frame_size, settings.hop, settings.fft_size),
            )
        )
    return out


def _utterance_loss(utt: Utterance, model: TwoStageModel, stage: str,
                    cache: dict | None = None) -> Tensor:
    mix = utt.mix
    if stage == "stage1":
        est = stage1_tensors(mix.re, mix.im, model, training=True)
        tgt = (as_tensor(utt.revclean.re, np.float32), as_tensor(utt.revclean.im, np.float32))
        return total_loss(est, tgt)

    if stage == "stage2":
        # Stage I is frozen; its output per utterance is a constant
        if cache is not None and utt.uid in cache:
            s_re, s_im = cache[utt.uid]
        else:
            with no_grad():
                s1 = stage1_tensors(mix.re, mix.im, model, training=False)
            s_re, s_im = s1[0].data, s1[1].data
            if cache is not None:
                cache[utt.uid] = (s_re, s_im)
    elif stage == "joint":
        s_re, s_im = stage1_tensors(mix.re, mix.im, model, training=True)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    f_re, f_im = spatial_tensors(s_re, s_im, model)
    est = stage2_tensors(f_re, f_im, mix.re[0], mix.im[0], model, training=True)
    tgt = (as_tensor(utt.dry.re[0], np.float32), as_tensor(utt.dry.im[0], np.float32))
    return total_loss(est, tgt)


def train(data: list, model: TwoStageModel, config: TrainConfig, out_dir=None) -> list:
    """Optimize the configured stage of the model over a list of
    Utterances. Returns the loss curve as (iteration, lr, loss) tuples.
    If out_dir is given, writes loss_curve.csv and checkpoint.bin there.
    """
    if not data:
        raise ValueError("empty training set")
    params = model.stage_params(config.stage)
    state = AdamWState.for_params(params)
    rng = np.random.default_rng(config.seed)
    cache: dict = {}
    curve = []

    for it in range(config.max_iters):
        lr = lr_schedule(config.lr, it, config.lr_halving_interval)
        idx = rng.integers(0, len(data), size=config.batch_size)
        for p in params.values():
            p.zero_grad()
        batch_loss = 0.0
        for i in idx:
            loss = _utterance_loss(data[int(i)], model, config.stage, cache)
            # scale so accumulated grads average over the batch
            (loss * (1.0 / config.batch_size)).backward()
            batch_loss += loss.item() / config.batch_size
        if not adamw_step(params, state, lr, config):
            log.warning("iteration %d skipped (non-finite gradients)", it)
        curve.append((it, lr, batch_loss))

    if out_dir is not None:
        from .checkpoint import save_checkpoint

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_loss_curve(out_dir / "loss_curve.csv", curve)
        save_checkpoint(out_dir / "checkpoint.bin", model, state)
    return curve


def write_loss_curve(path, curve):
    lines = ["iteration,lr,loss"]
    for it, lr, loss in curve:
        lines.append(f"{it},{lr!r},{loss!r}")
    Path(path).write_text("\n".join(lines) + "\n")
