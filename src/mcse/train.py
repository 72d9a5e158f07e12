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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .dsp import Spectrogram, check_signal, stft
from .loss import total_loss
from .optim import AdamWState, TrainConfig, adamw_step, lr_schedule
from .pipeline import (
    TwoStageModel,
    spatial_tensors,
    stage1_tensors,
    stage2_tensors,
    two_stage_tensors,
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


def load_training_set(manifest_path, channels: int | None = None) -> list:
    """Utterances of a manifest, as spectrograms under TwoStageModel.stft
    stored in float32: every read of them casts to float32 anyway, so the
    cast is made once, at half the memory. Every file must be at its
    sample rate with finite samples, the mixture (of `channels` channels,
    when given) and the reverberant clean images with one channel each per
    microphone, the dry source with one; any other file is refused by name
    (dsp.check_signal)."""
    entries = read_manifest(manifest_path)
    settings = TwoStageModel.stft
    rate = settings.sample_rate

    def spectrogram(sig):
        s = stft(sig, settings.frame_size, settings.hop, settings.fft_size)
        return s.like(s.re.astype(np.float32), s.im.astype(np.float32))

    out = []
    for e in entries:
        mix = check_signal(read_wav(e.mix_path), str(e.mix_path), rate, channels)
        rev = check_signal(read_wav(e.revclean_path), str(e.revclean_path), rate, mix.channels)
        dry = check_signal(read_wav(e.dry_path), str(e.dry_path), rate, 1)
        out.append(Utterance(e.uid, spectrogram(mix), spectrogram(rev), spectrogram(dry)))
    return out


def _utterance_loss(data: list, i: int, model: TwoStageModel, stage: str,
                    cache: dict | None = None) -> Tensor:
    """The loss of data[i]. In stage2, its frozen Stage I output is kept in
    cache under i: uids need not be unique."""
    utt = data[i]
    mix = utt.mix
    if stage == "stage1":
        est = stage1_tensors(mix.re, mix.im, model)
        tgt = (as_tensor(utt.revclean.re, np.float32), as_tensor(utt.revclean.im, np.float32))
        return total_loss(est, tgt)

    if stage == "joint":
        est = two_stage_tensors(mix.re, mix.im, model)
    else:
        # Stage I is frozen: its output per utterance is a constant, run
        # once under no_grad and so with batchnorm in eval mode
        cache = {} if cache is None else cache
        if i not in cache:
            with no_grad():
                s1 = stage1_tensors(mix.re, mix.im, model)
            cache[i] = (s1[0].data, s1[1].data)
        f_re, f_im = spatial_tensors(*cache[i], model)
        est = stage2_tensors(f_re, f_im, mix.re[0], mix.im[0], model)
    tgt = (as_tensor(utt.dry.re[0], np.float32), as_tensor(utt.dry.im[0], np.float32))
    return total_loss(est, tgt)


def train(data: list, model: TwoStageModel, config: TrainConfig, out_dir=None) -> list:
    """Optimize the configured stage of the model over a list of
    Utterances. Returns the loss curve as (iteration, lr, loss) tuples.
    If out_dir is given, streams loss_curve.csv there, one flushed row per
    iteration (write_loss_curve), and writes checkpoint.bin at the end.
    """
    if not data:
        raise ValueError("empty training set")
    params = model.stage_params(config.stage)
    state = AdamWState.for_params(params)
    rows = _iterations(data, model, config, params, state)
    if out_dir is None:
        rows = list(rows)
    else:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = write_loss_curve(out_dir / "loss_curve.csv", rows)
        save_checkpoint(out_dir / "checkpoint.bin", model, state)
    return [row[:3] for row in rows]


def _iterations(data, model, config, params, state):
    """Run config.max_iters iterations, yielding a CURVE_COLUMNS row after
    each: wall_s is the iteration's wall-clock seconds, skipped is 1 when
    non-finite gradients made the optimizer skip its step, else 0."""
    rng = np.random.default_rng(config.seed)
    cache: dict = {}
    for it in range(config.max_iters):
        t0 = time.perf_counter()
        lr = lr_schedule(config.lr, it, config.lr_halving_interval)
        idx = rng.integers(0, len(data), size=config.batch_size)
        for p in params.values():
            p.zero_grad()
        batch_loss = 0.0
        for i in idx:
            loss = _utterance_loss(data, int(i), model, config.stage, cache)
            # scale so accumulated grads average over the batch
            (loss * (1.0 / config.batch_size)).backward()
            batch_loss += loss.item() / config.batch_size
        skipped = not adamw_step(params, state, lr, config)
        if skipped:
            log.warning("iteration %d skipped (non-finite gradients)", it)
        yield it, lr, batch_loss, time.perf_counter() - t0, int(skipped)


CURVE_COLUMNS = ("iteration", "lr", "loss", "wall_s", "skipped")


def write_loss_curve(path, rows) -> list:
    """Write a header of CURVE_COLUMNS, then each row as the iterable
    yields it, one flushed line each, so an interrupted run keeps every
    finished row. Values are written by repr, so floats read back exactly.
    Returns the rows."""
    out = []
    with open(path, "w", buffering=1) as fh:  # line-buffered: each line is flushed
        fh.write(",".join(CURVE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
            out.append(row)
    return out
