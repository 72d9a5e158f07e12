"""Command-line interface.

Subcommands:
  simulate   render a synthetic multichannel dataset and its manifest
  train      optimize a stage of the two-stage model on a manifest
  enhance    run the full pipeline on a multichannel WAV
  baseline   ds | wpe | mvdr | filtersum on a multichannel WAV (filtersum
             sums Stage I of a two-stage model, from train or drawn fresh)
  evaluate   score estimate WAVs against reference WAVs (STOI/WER/combined)

simulate, train and baseline accept --config with `key = value` lines,
each only the keys it reads (config.KEYS, narrowed by config.MODE_KEYS to
what a baseline method or --model reads); command-line flags win over
config-file values. Unknown keys or flags exit nonzero. So does an input
WAV at another rate or channel count than it must have, or with a
non-finite sample: it exits 2, with the file named.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import baselines as B
from .checkpoint import load_checkpoint
from .config import ConfigError, load_config
from .dsp import SAMPLE_RATE, SignalError, check_signal, istft, stft
from .metrics import MetricReport, stoi, wer
from .optim import TrainConfig
from .pipeline import enhance, filter_and_sum, init_two_stage_model
from .simkit import DEFAULT_ROOM, DatasetConfig, build_dataset, read_manifest
from .train import load_training_set, train
from .wavio import read_wav, write_wav


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcse", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a synthetic dataset")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--config", help="key = value config file")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--count", type=int, help="number of utterances")
    sim.add_argument("--seconds", type=float)

    tr = sub.add_parser("train", help="train the two-stage model")
    tr.add_argument("--data", required=True, help="manifest path")
    tr.add_argument("--out", required=True, help="run directory")
    tr.add_argument("--stage", choices=("stage1", "stage2", "joint"))
    tr.add_argument("--config", help="key = value config file")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--model", help="checkpoint to continue from")
    tr.add_argument("--iters", type=int)

    en = sub.add_parser("enhance", help="enhance a multichannel WAV")
    en.add_argument("--model", required=True, help="checkpoint path")
    en.add_argument("--in", dest="input", required=True, help="multichannel WAV")
    en.add_argument("--out", required=True, help="output WAV")

    ba = sub.add_parser("baseline", help="run a classical baseline")
    ba.add_argument("method", choices=("ds", "wpe", "mvdr", "filtersum"))
    ba.add_argument("--in", dest="input", required=True, help="multichannel WAV")
    ba.add_argument("--out", required=True, help="output WAV")
    ba.add_argument("--config", help="key = value config file")
    ba.add_argument("--delays", help="comma-separated per-channel delays in samples (ds)")
    ba.add_argument("--speech-ref", help="clean-component WAV for oracle masks (mvdr)")
    ba.add_argument("--noise-ref", help="noise-component WAV for oracle masks (mvdr)")
    ba.add_argument("--model", help="checkpoint written by train, for filtersum")
    ba.add_argument("--seed", type=int, help="init seed of filtersum without --model")

    ev = sub.add_parser("evaluate", help="score estimates against references")
    ev.add_argument("--ref", required=True, help="directory of reference WAVs")
    ev.add_argument("--est", required=True, help="directory of estimate WAVs")
    ev.add_argument("--ref-transcripts", help="directory of reference .txt transcripts")
    ev.add_argument("--est-transcripts", help="directory of estimate .txt transcripts")
    ev.add_argument("--out", help="write the key-value report here")
    return parser


def _config(args, command) -> dict:
    return load_config(args.config, command) if args.config else {}


def _flags_over(cfg: dict, **flags) -> dict:
    """cfg with each flag that was given in place of its key."""
    return dict(cfg, **{key: value for key, value in flags.items() if value is not None})


def _cmd_simulate(args) -> int:
    cfg = _config(args, "simulate")
    room = tuple(cfg.pop(f"room_{axis}", size) for axis, size in zip("xyz", DEFAULT_ROOM))
    cfg = _flags_over(cfg, seed=args.seed, num_utterances=args.count, seconds=args.seconds)
    manifest = build_dataset(DatasetConfig(out_dir=args.out, room=room, **cfg))
    print(f"wrote {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config(args, "train --model" if args.model else "train")
    width_scale = cfg.pop("width_scale", 1)
    config = TrainConfig(**_flags_over(cfg, stage=args.stage, seed=args.seed,
                                       max_iters=args.iters))

    if args.model:
        model, _, _ = load_checkpoint(args.model)
    else:
        model = init_two_stage_model(
            p_channels=read_wav_channels(args.data),
            width_scale=width_scale,
            seed=config.seed,
        )
    data = load_training_set(args.data, model.p_channels)
    curve = train(data, model, config, out_dir=args.out)
    print(f"trained {config.stage} for {len(curve)} iterations; "
          f"final loss {curve[-1][2]:.6f}; run dir {args.out}")
    return 0


def read_wav_channels(manifest_path) -> int:
    entries = read_manifest(manifest_path)
    return read_wav(entries[0].mix_path).channels


def _cmd_enhance(args) -> int:
    model, _, _ = load_checkpoint(args.model)
    x = _read_checked(args.input, model.stft.sample_rate, model.p_channels)
    out = enhance(x, model)
    write_wav(args.out, out)
    print(f"wrote {args.out}")
    return 0


# (flag, the one baseline mode that reads it: a method, or filtersum --model)
BASELINE_FLAGS = (("--delays", "ds"), ("--speech-ref", "mvdr"), ("--noise-ref", "mvdr"),
                  ("--model", "filtersum --model"), ("--seed", "filtersum"))


def _cmd_baseline(args) -> int:
    mode = f"{args.method} --model" if args.model and args.method == "filtersum" else args.method
    for flag, reader in BASELINE_FLAGS:
        if getattr(args, flag[2:].replace("-", "_")) is not None and mode != reader:
            print(f"error: {flag} is not used by baseline {mode}", file=sys.stderr)
            return 2
    cfg = _config(args, f"baseline {mode}")
    channels = None
    if args.model:  # filtersum, the one method that reads it
        model, _, _ = load_checkpoint(args.model)
        channels = model.p_channels
    # the learned filter-and-sum is built for the 16 kHz front end
    rate = SAMPLE_RATE if args.method == "filtersum" else None
    x = _read_checked(args.input, rate, channels)

    if args.method == "wpe":
        out_spec = B.wpe(
            stft(x, 512, 256, 512),
            taps=cfg.get("wpe_taps", B.WPE_TAPS),
            delay=cfg.get("wpe_delay", B.WPE_DELAY),
            iterations=cfg.get("wpe_iterations", B.WPE_ITERATIONS),
        )
        out = istft(out_spec, length=x.length)
        write_wav(args.out, out)
        print(f"wrote {args.out} (all {out.channels} dereverberated channels)")
        return 0
    y = stft(x)
    if args.method == "ds":
        if args.delays:
            delays = np.array([float(v) for v in args.delays.split(",")])
        else:
            delays = np.zeros(y.channels)
        out_spec = B.delay_and_sum(y, delays)
    elif args.method == "mvdr":
        if not args.speech_ref or not args.noise_ref:
            print("baseline mvdr needs --speech-ref and --noise-ref for oracle masks",
                  file=sys.stderr)
            return 2
        # the oracle masks are per channel and per bin of the input
        s_ref = stft(_read_checked(args.speech_ref, x.sample_rate, x.channels))
        n_ref = stft(_read_checked(args.noise_ref, x.sample_rate, x.channels))
        sm, nm = B.oracle_masks(s_ref, n_ref)
        out_spec = B.mask_mvdr(
            y, sm, nm,
            mode=cfg.get("mvdr_mode", "block"),
            forgetting=cfg.get("mvdr_forgetting", B.MVDR_FORGETTING),
        )
    elif args.method == "filtersum":
        if not args.model:
            model = init_two_stage_model(
                y.channels, width_scale=cfg.get("width_scale", 1), seed=args.seed or 0)
        out_spec = filter_and_sum(y, model)
    else:  # unreachable behind argparse choices
        return 2

    out = istft(out_spec, length=x.length)
    write_wav(args.out, out)
    print(f"wrote {args.out}")
    return 0


def _read_checked(path, sample_rate=None, channels=None):
    """read_wav(path), refused by name (exit 2) unless check_signal passes."""
    return check_signal(read_wav(path), str(path), sample_rate, channels)


def _read_transcript(path: Path) -> list:
    return path.read_text().split()


def _cmd_evaluate(args) -> int:
    ref_dir = Path(args.ref)
    est_dir = Path(args.est)
    refs = sorted(ref_dir.glob("*.wav"))
    if not refs:
        print(f"no reference WAVs in {ref_dir}", file=sys.stderr)
        return 1
    report = MetricReport()
    for ref_path in refs:
        est_path = est_dir / ref_path.name
        if not est_path.exists():
            print(f"missing estimate for {ref_path.name}", file=sys.stderr)
            return 1
        ref = _read_checked(ref_path, channels=1)
        est = _read_checked(est_path, ref.sample_rate, 1)
        if est.length != ref.length:
            raise SignalError(
                f"{est_path}: length {est.length} samples, expected {ref.length} as in {ref_path}")
        score = stoi(ref.samples[0], est.samples[0], ref.sample_rate)
        wer_score = None
        if args.ref_transcripts and args.est_transcripts:
            rt = Path(args.ref_transcripts) / (ref_path.stem + ".txt")
            et = Path(args.est_transcripts) / (ref_path.stem + ".txt")
            if rt.exists() and et.exists():
                wer_score = wer(_read_transcript(rt), _read_transcript(et))
        report.add(ref_path.stem, score, wer_score)
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_keyvalues() + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "enhance":
            return _cmd_enhance(args)
        if args.command == "baseline":
            return _cmd_baseline(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SignalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
