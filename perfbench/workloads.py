"""The three benchmark workloads, written against mcse's public API only.

Each workload has a fixed size; the seed changes only content (scene
geometry, source signals, model weights). A workload provides

- prepare(): untimed work done once (the enhance checkpoint is written);
- setup(): what a user pays before the first result, timed and repeated;
- run_pass(state, run): one pass of timed operations, recorded through
  `run.op(kind, audio_s, fn, ...)`;
- check(state, run): output checks, recorded through `run.check(...)`;
- sizes(state): audio seconds, frames and iterations, which must not
  depend on the seed;
- MIX: the weight of each operation kind in the workload's real-time
  factor (seconds of compute per second of audio).

Calls go through module attributes (`dsp.stft`, not a local `stft`), so
the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import copy
import os
import time
from fractions import Fraction

import numpy as np

import mcse.train
from mcse import baselines, checkpoint, dsp, metrics, pipeline, simkit
from mcse.optim import TrainConfig

P_CHANNELS = 8
# acceptance criterion c8 trains 150 stage-1 and then 250 stage-2 iterations
C8_ITERS = {"stage1": 150, "stage2": 250}


def render_scene(rng: np.random.Generator, seconds: float, order: int, snr_db: float):
    """One simulated 8-channel scene on the candidate grid, in memory.
    Returns (scene, mixture, reverberant clean, dry)."""
    grid = simkit.candidate_positions()
    src_idx, noise_idx = rng.choice(grid.shape[0], size=2, replace=False)
    scene = simkit.SceneSpec(
        source_position=tuple(grid[src_idx]), noise_position=tuple(grid[noise_idx]),
        snr_db=snr_db, max_image_order=order,
    )
    n = int(round(seconds * dsp.SAMPLE_RATE))
    speech = simkit.synth_speech(rng, n)
    noise = simkit.synth_noise(rng, n)
    rir_s = simkit.simulate_rir(scene, "source")
    rir_n = simkit.simulate_rir(scene, "noise")
    mixture, revclean, dry = simkit.mix(speech, noise, rir_s, rir_n, snr_db)
    return scene, mixture, revclean, dry


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _close(a: np.ndarray, b: np.ndarray, rtol: float = 1e-5) -> bool:
    """Equal within float32 rounding, relative to the larger signal peak."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= rtol * scale


class Workload:
    """Defaults: three set-ups, nothing to prepare or clean up."""

    SETUP_REPS = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self):
        pass

    def cleanup(self):
        pass


class Enhance(Workload):
    """Full-width two-stage inference on simulated 8-channel utterances.

    The user-facing path: load a checkpoint, then `pipeline.enhance()`
    per recording, entirely under no_grad. At width 1 the spatial-filter
    LSTM (256 bands on the batch axis, hidden 64) dominates; the CRN
    convolutions and the (1, T, 1024) bottleneck LSTM make most of the
    rest. Utterance lengths differ so that per-call overheads and
    length-proportional work are both in the sample.
    """

    name = "enhance"
    SECONDS = (1.0, 1.5)
    IMAGE_ORDER = 6
    SNR_DB = 5.0
    WIDTH = Fraction(1)
    MIX = {"enhance": 1.0}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.path = os.path.join(workdir, f"enhance-{os.getpid()}.ckpt")
        self.outputs = {}

    def prepare(self):
        model = pipeline.init_two_stage_model(P_CHANNELS, self.WIDTH, seed=self.seed)
        checkpoint.save_checkpoint(self.path, model)

    def setup(self):
        utts = []
        for k, seconds in enumerate(self.SECONDS):
            rng = np.random.default_rng([self.seed, k])
            _, mixture, _, _ = render_scene(rng, seconds, self.IMAGE_ORDER, self.SNR_DB)
            utts.append(mixture)
        model, _, _ = checkpoint.load_checkpoint(self.path)
        return model, utts

    def run_pass(self, state, run):
        model, utts = state
        for k, x in enumerate(utts):
            out = run.op("enhance", x.length / x.sample_rate, pipeline.enhance, x, model)
            if out is not None:
                self.outputs.setdefault(k, []).append(out.samples)

    def check(self, state, run):
        model, utts = state
        for k, x in enumerate(utts):
            for out in self.outputs.get(k, []):
                run.check(f"enhance[{k}] finite, {x.length} samples",
                          lambda o=out, n=x.length: o.shape == (1, n) and _finite(o))
        # the shortest utterance carries the determinism and staging checks
        x, outs = utts[0], self.outputs.get(0, [])

        def deterministic():
            if len(outs) < 2:
                outs.append(pipeline.enhance(x, model).samples)
            return np.array_equal(outs[0], outs[1])

        run.check("enhance deterministic across calls", deterministic)

        def staged():
            s = model.stft
            y = dsp.stft(x, s.frame_size, s.hop, s.fft_size)
            s1 = pipeline.stage1_mimo(y, model)
            f = pipeline.spatial_filter(s1, model)
            ref = y.like(y.re[:1], y.im[:1])
            est = pipeline.stage2_miso(f, ref, model)
            return _close(dsp.istft(est, length=x.length).samples, outs[0])

        run.check("enhance == stage1_mimo -> spatial_filter -> stage2_miso -> istft", staged)

    def sizes(self, state):
        _, utts = state
        s = pipeline.StftSettings()
        return {
            "audio_s": [x.length / x.sample_rate for x in utts],
            "frames": [dsp.stft(x, s.frame_size, s.hop, s.fft_size).frames for x in utts],
            "channels": [x.channels for x in utts],
        }

    def detail(self, run):
        return {"enhance_rtf": run.median_rtf("enhance")}

    def cleanup(self):
        if os.path.exists(self.path):
            os.remove(self.path)


class Train(Workload):
    """The single-utterance overfit setting of acceptance criterion c8:
    one 0.7 s utterance, width 1/8, batch 1, lr 1e-2, a fixed number of
    stage-1 and then stage-2 iterations, each stage one call of
    `train.train()`.

    The only workload that records a tape and runs backward. Stage-2
    steps are dominated by the spatial LSTM forward and its BPTT
    backward, stage-1 steps by conv/deconv/batchnorm backward. Each pass
    trains a fresh copy of the set-up model, so passes are identical.
    """

    name = "train"
    SECONDS = 0.7
    IMAGE_ORDER = 2
    WIDTH = Fraction(1, 8)
    ITERS = {"stage1": 10, "stage2": 9}
    # the real-time factor weights the two step medians as c8 does, so it
    # predicts c8's training time
    MIX = {k: n / sum(C8_ITERS.values()) for k, n in C8_ITERS.items()}
    SETUP_REPS = 5  # the set-up takes tens of milliseconds

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.curves = []

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        _, mixture, revclean, dry = render_scene(
            rng, self.SECONDS, self.IMAGE_ORDER, float(rng.uniform(0.0, 10.0)))
        model = pipeline.init_two_stage_model(P_CHANNELS, self.WIDTH, seed=self.seed)
        s = model.stft
        utt = mcse.train.Utterance("u0", *(dsp.stft(sig, s.frame_size, s.hop, s.fft_size)
                                           for sig in (mixture, revclean, dry)))
        return model, [utt]

    def run_pass(self, state, run):
        model, data = state
        model = copy.deepcopy(model)
        for stage, iters in self.ITERS.items():
            config = TrainConfig(batch_size=1, lr=1e-2, max_iters=iters, stage=stage,
                                 seed=0, lr_halving_interval=100_000)
            stamps = [time.perf_counter()]
            step = mcse.train.adamw_step

            def stamped(*args, **kwargs):
                ok = step(*args, **kwargs)
                stamps.append(time.perf_counter())
                return ok

            # iteration boundaries are the optimizer steps inside train()
            mcse.train.adamw_step = stamped
            try:
                _, curve = run.attempt(mcse.train.train, data, model, config)
            finally:
                mcse.train.adamw_step = step
            run.tally(iters, iters - (len(stamps) - 1))
            # the first iteration of a stage also builds the optimizer state
            # and, for stage 2, the frozen stage-1 output; it is not a step
            for t0, t1 in zip(stamps[1:], stamps[2:]):
                run.record(stage, t1 - t0, self.SECONDS)
            if curve is not None:
                self.curves.append((stage, [loss for _, _, loss in curve]))

    def check(self, state, run):
        for stage, losses in self.curves:
            run.check(f"{stage} losses finite", lambda l=losses: _finite(np.array(l)))
            run.check(f"{stage} loss falls", lambda l=losses: l[-1] < l[0])
        run.check("every stage trained", lambda: len(self.curves) >= len(self.ITERS))

    def sizes(self, state):
        _, data = state
        return {"audio_s": [self.SECONDS], "frames": [data[0].mix.frames],
                "iterations": dict(self.ITERS)}

    def detail(self, run):
        out = {f"train_{k}_step_s": run.median_seconds(k) for k in self.ITERS}
        out["c8_train_s_predicted"] = sum(
            n * run.median_seconds(k) for k, n in C8_ITERS.items())
        out["train_loss_ratio"] = self.loss_ratio()
        return out

    def loss_ratio(self) -> float:
        """Final over initial loss, the product over both stages of the
        first pass."""
        ratio = 1.0
        for _, losses in self.curves[: len(self.ITERS)]:
            ratio *= losses[-1] / losses[0]
        return ratio


class Classical(Workload):
    """Scene rendering and the classical baselines, scored with STOI.

    Never touches the autodiff tensor, the layers or the CRN, so it is
    the control for changes there; it is also where WPE and frame-mode
    MVDR, the slow per-band and per-frame loops, show their gains. The
    MVDR masks are oracle masks from the rendered components.
    """

    name = "classical"
    SCENES = 7
    SECONDS = 2.0
    IMAGE_ORDER = 6
    SNR_DB = 5.0
    METHODS = ("ds", "wpe", "mvdr_block", "mvdr_frame")
    WPE_HOP = 256
    MIX = {"analysis": 1.0, **{m: 1.0 for m in METHODS}, "stoi": 1.0}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.render_s = []
        self.outputs = []  # per scene: {method: reference-channel waveform}
        self.scores = []  # per scene: {method: STOI against the dry source}

    def setup(self):
        scenes = []
        for k in range(self.SCENES):
            rng = np.random.default_rng([self.seed, k])
            t0 = time.perf_counter()
            scenes.append(render_scene(rng, self.SECONDS, self.IMAGE_ORDER, self.SNR_DB))
            self.render_s.append(time.perf_counter() - t0)
        return scenes

    @staticmethod
    def _method(name, mixture, y, delays, speech_mask, noise_mask):
        if name == "ds":
            out = baselines.delay_and_sum(y, delays)
        elif name == "wpe":
            # on its own 256-sample-hop analysis, as `mcse baseline wpe` runs it
            out = baselines.wpe(dsp.stft(mixture, 512, Classical.WPE_HOP, 512))
            out = out.like(out.re[:1], out.im[:1])  # score the reference channel
        else:
            out = baselines.mask_mvdr(y, speech_mask, noise_mask, mode=name[len("mvdr_"):])
        return dsp.istft(out, length=mixture.length).samples[0]

    def run_pass(self, state, run):
        for scene, mixture, revclean, dry in state:
            audio_s = mixture.length / mixture.sample_rate
            noise = dsp.TimeSignal(mixture.samples - revclean.samples, mixture.sample_rate)

            def analysis():
                masks = baselines.oracle_masks(dsp.stft(revclean), dsp.stft(noise))
                return dsp.stft(mixture), masks

            got = run.op("analysis", audio_s, analysis)
            if got is None:
                continue
            y, (speech_mask, noise_mask) = got
            delays = baselines.geometry_delays(
                scene.mic_positions(), scene.source_position, mixture.sample_rate)
            outs = {"mixture": mixture.samples[0]}
            for name in self.METHODS:
                out = run.op(name, audio_s, self._method, name, mixture, y, delays,
                             speech_mask, noise_mask)
                if out is not None:
                    outs[name] = out
            self.outputs.append(outs)
            scores = run.op("stoi", audio_s, lambda: {
                k: metrics.stoi(dry.samples[0], v, mixture.sample_rate) for k, v in outs.items()})
            if scores is not None:
                self.scores.append(scores)

    def check(self, state, run):
        run.check("every baseline output present and finite", lambda: bool(self.outputs) and all(
            len(o) == 1 + len(self.METHODS) and _finite(*o.values()) for o in self.outputs))
        run.check("every STOI in [0, 1]", lambda: bool(self.scores) and all(
            0.0 <= v <= 1.0 for s in self.scores for v in s.values()))

    def sizes(self, state):
        s = pipeline.StftSettings()
        return {
            "audio_s": [m.length / m.sample_rate for _, m, _, _ in state],
            "frames": [dsp.stft(m, s.frame_size, s.hop, s.fft_size).frames for _, m, _, _ in state],
            "image_order": self.IMAGE_ORDER,
        }

    def detail(self, run):
        out = {"simulate_s_per_utt": float(np.median(self.render_s))}
        out.update({f"{m}_rtf": run.median_rtf(m) for m in self.METHODS})
        out["stoi_s_per_utt"] = run.median_seconds("stoi")
        first = self.scores[: self.SCENES]
        out["mixture_stoi"] = float(np.mean([s["mixture"] for s in first]))
        out["wpe_stoi"] = float(np.mean([s["wpe"] for s in first]))
        out["beamformer_stoi"] = float(np.mean(
            [s[m] for s in first for m in ("ds", "mvdr_block", "mvdr_frame")]))
        return out


WORKLOADS = {w.name: w for w in (Enhance, Train, Classical)}
