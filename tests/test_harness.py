"""Optimizer, schedule, config parsing, checkpoints, training loop, CLI.

The AdamW single-step check recomputes the update in float64 from the
defining formulas. Training-loop tests run a deliberately tiny model
(2 channels, width 1/16) so the whole module stays in the seconds range.
"""

import gc
import json
import logging
import re
import struct
import weakref
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcse.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mcse.cli import main
from mcse.config import KEYS, ConfigError, load_config, parse_config_text
from mcse.crn import CrnParams, crn_forward
from mcse.dsp import TimeSignal, istft, stft
from mcse.optim import AdamWState, TrainConfig, adamw_step, lr_schedule
from mcse.pipeline import enhance, filter_and_sum, init_two_stage_model
from mcse.simkit import DatasetConfig, read_manifest
from mcse.tensor import Tensor, no_grad
import mcse.train
from mcse.train import CURVE_COLUMNS, Utterance, load_training_set, train, write_loss_curve
from mcse.wavio import read_wav, write_wav


def rewrite_header(raw: bytes, edit) -> bytes:
    """The checkpoint bytes raw with its JSON header passed through edit."""
    start = len(MAGIC) + 4  # magic, then the version word
    (hlen,) = struct.unpack("<I", raw[start:start + 4])
    header = json.loads(raw[start + 4:start + 4 + hlen])
    edit(header)
    hdr = json.dumps(header, sort_keys=True).encode()
    return raw[:start] + struct.pack("<I", len(hdr)) + hdr + raw[start + 4 + hlen:]


def tiny_model(seed: int = 0):
    return init_two_stage_model(p_channels=2, width_scale=Fraction(1, 16), seed=seed)


def tiny_data(model, seed: int = 100) -> list:
    r = np.random.default_rng(seed)
    n = 4000
    s = model.stft

    def spec(ch):
        sig = TimeSignal(0.1 * r.standard_normal((ch, n)), s.sample_rate)
        return stft(sig, s.frame_size, s.hop, s.fft_size)

    return [Utterance("u0", spec(2), spec(2), spec(1))]


class TestLrSchedule:
    def test_halving(self):
        assert lr_schedule(1e-3, 0, 100) == 1e-3
        assert lr_schedule(1e-3, 99, 100) == 1e-3
        assert lr_schedule(1e-3, 100, 100) == 5e-4
        assert lr_schedule(1e-3, 250, 100) == 2.5e-4

    def test_negative_iteration_raises(self):
        with pytest.raises(ValueError):
            lr_schedule(1e-3, -1, 100)


class TestAdamW:
    def test_zero_gradient_leaves_only_weight_decay(self):
        p = Tensor(np.array([2.0, -4.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        params = {"w": p}
        state = AdamWState.for_params(params)
        cfg = TrainConfig(weight_decay=0.01)
        before = p.data.copy()
        for _ in range(3):
            p.grad = np.zeros(2, dtype=np.float32)
            assert adamw_step(params, state, 0.1, cfg)
        np.testing.assert_allclose(p.data, before * (1 - 0.1 * 0.01) ** 3, rtol=1e-6)

    def test_single_step_matches_formula(self):
        g = np.array([0.5, -1.0, 0.001], dtype=np.float32)
        p0 = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        p = Tensor(p0.copy(), requires_grad=True)
        p.grad = g.copy()
        params = {"w": p}
        state = AdamWState.for_params(params)
        cfg = TrainConfig(weight_decay=0.01)
        lr = 0.002
        assert adamw_step(params, state, lr, cfg)

        g64 = g.astype(np.float64)
        m_hat = (0.1 * g64) / (1 - 0.9)
        v_hat = (0.001 * g64**2) / (1 - 0.999)
        expected = p0 * (1 - lr * 0.01) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-5)
        assert state.step == 1

    def test_descends_a_quadratic(self):
        p = Tensor(np.array([5.0], dtype=np.float32), requires_grad=True)
        params = {"w": p}
        state = AdamWState.for_params(params)
        cfg = TrainConfig(weight_decay=0.0)
        for _ in range(200):
            p.grad = p.data.astype(np.float32)  # d/dp of p^2 / 2
            adamw_step(params, state, 0.05, cfg)
        assert abs(float(p.data[0])) < 0.5

    def test_nonfinite_gradient_aborts_whole_step(self, caplog):
        good = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        bad = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        good.grad = np.ones(2, dtype=np.float32)
        bad.grad = np.array([1.0, np.inf], dtype=np.float32)
        params = {"enc.w": good, "dec.w": bad}
        state = AdamWState.for_params(params)
        before = good.data.copy()
        with caplog.at_level(logging.WARNING, logger="mcse.optim"):
            ok = adamw_step(params, state, 0.1, TrainConfig())
        assert not ok
        assert state.step == 0
        np.testing.assert_array_equal(good.data, before)  # no partial update
        assert "dec.w" in caplog.text

    def test_missing_gradient_raises(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="w"):
            adamw_step({"w": p}, AdamWState.for_params({"w": p}), 0.1, TrainConfig())


class TestConfigParsing:
    def test_typed_values(self):
        text = """
        # training
        batch_size = 4
        lr = 0.0005
        width_scale = 1/8
        stage = stage2
        """
        cfg = parse_config_text(text, "train")
        assert cfg["batch_size"] == 4
        assert cfg["lr"] == 0.0005
        assert cfg["width_scale"] == Fraction(1, 8)
        assert cfg["stage"] == "stage2"
        assert parse_config_text("seconds = 1.5", "simulate") == {"seconds": 1.5}

    def test_each_subcommand_has_its_own_keys(self):
        assert {c: len(k) for c, k in KEYS.items()} == {"simulate": 10, "train": 8, "baseline": 6}
        # baseline takes its seed from --seed only
        assert "seed" not in KEYS["baseline"]
        with pytest.raises(ConfigError, match=r"x\.cfg:1: .*'lr' for simulate"):
            parse_config_text("lr = 0.5", "simulate", source="x.cfg")

    def test_keys_are_the_fields_they_set(self):
        """simulate and train pass their parsed keys through by name: apart
        from the room sides and the model width, each is a field of the
        config it builds."""
        sim_fields = {f.name for f in fields(DatasetConfig)} - {"out_dir", "room"}
        assert set(KEYS["simulate"]) - {"room_x", "room_y", "room_z"} == sim_fields
        assert set(KEYS["train"]) - {"width_scale"} == {f.name for f in fields(TrainConfig)}

    def test_unknown_key_names_location(self):
        with pytest.raises(ConfigError, match=r"custom\.cfg:2.*learning_rate"):
            parse_config_text("batch_size = 4\nlearning_rate = 1", "train", source="custom.cfg")
        # accepted once but never acted on; now refused like any other typo
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            parse_config_text("checkpoint_interval = 5", "train")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config_text("batch_size = soon", "train")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("batch_size 4", "train")

    def test_repeated_key_names_both_lines(self):
        """A key given twice is refused, not resolved to its last value."""
        text = "lr = 0.1\nbatch_size = 2\nlr = 0.2\n"
        with pytest.raises(ConfigError, match=r"^run\.cfg:3: configuration key 'lr' is already "
                                              r"set on line 1$"):
            parse_config_text(text, "train", source="run.cfg")

    def test_load_config_reports_path(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            load_config(p, "train")


class TestCheckpoint:
    def test_two_stage_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model(seed=7)
        # make buffers nontrivial so the round trip actually checks them
        for b in model.named_buffers().values():
            b += np.random.default_rng(1).standard_normal(b.shape).astype(b.dtype) * 0.1
        path = tmp_path / "model.bin"
        save_checkpoint(path, model)
        loaded, opt, header = load_checkpoint(path)

        assert header == {"kind": "two_stage", "p_channels": 2, "width_scale": "1/16",
                          "optimizer_step": None}
        assert opt is None
        assert loaded.stft == model.stft
        src = model.named_params()
        dst = loaded.named_params()
        assert set(src) == set(dst)
        for name in src:
            np.testing.assert_array_equal(src[name].data, dst[name].data)
        for name, buf in model.named_buffers().items():
            np.testing.assert_array_equal(buf, loaded.named_buffers()[name])
        x = TimeSignal(0.1 * np.random.default_rng(3).standard_normal((2, 3000)), 16000)
        assert enhance(x, loaded).samples.tobytes() == enhance(x, model).samples.tobytes()

    def test_optimizer_subset_round_trip(self, tmp_path):
        model = tiny_model(seed=2)
        stage2 = model.stage_params("stage2")
        state = AdamWState.for_params(stage2)
        r = np.random.default_rng(3)
        for name in state.m:
            state.m[name][...] = r.standard_normal(state.m[name].shape)
            state.v[name][...] = np.abs(r.standard_normal(state.v[name].shape))
        state.step = 17

        path = tmp_path / "resume.bin"
        save_checkpoint(path, model, state)
        _, opt, _ = load_checkpoint(path)
        assert opt is not None and opt.step == 17
        assert set(opt.m) == set(stage2)
        for name in stage2:
            np.testing.assert_array_equal(opt.m[name], state.m[name].astype(np.float32))
            np.testing.assert_array_equal(opt.v[name], state.v[name].astype(np.float32))

    def test_filter_sum_round_trip(self, tmp_path):
        """The learned filter-and-sum of a reloaded checkpoint, Stage I with
        its batchnorm buffers, gives the same bytes as the saved model."""
        model = tiny_model(seed=5)
        for b in model.named_buffers().values():
            b += np.random.default_rng(1).standard_normal(b.shape).astype(b.dtype) * 0.1
        path = tmp_path / "fs.bin"
        save_checkpoint(path, model)
        loaded, _, _ = load_checkpoint(path)
        y = stft(TimeSignal(0.1 * np.random.default_rng(3).standard_normal((2, 3000)), 16000))
        a, b = filter_and_sum(y, model), filter_and_sum(y, loaded)
        assert a.channels == 1
        assert a.re.tobytes() == b.re.tobytes() and a.im.tobytes() == b.im.tobytes()

    def test_filter_sum_kind_is_refused(self, tmp_path, capsys):
        """A version-2 file of the deleted filter_sum kind is refused by
        name, by load_checkpoint and by each command that loads one: exit
        1, no traceback, nothing written."""
        path = tmp_path / "fs.bin"
        save_checkpoint(path, tiny_model())
        path.write_bytes(rewrite_header(path.read_bytes(),
                                        lambda header: header.update(kind="filter_sum")))
        with pytest.raises(ValueError, match="^unsupported model kind 'filter_sum'$"):
            load_checkpoint(path)
        for command in ("enhance --model {p} --in {d}/x.wav --out {d}/y.wav",
                        "train --model {p} --data {d}/m.txt --out {d}/run",
                        "baseline filtersum --model {p} --in {d}/x.wav --out {d}/y.wav"):
            assert main(command.format(p=path, d=tmp_path).split()) == 1
            assert capsys.readouterr().err == "error: unsupported model kind 'filter_sum'\n"
        assert [q.name for q in tmp_path.iterdir()] == ["fs.bin"]

    def test_version1_is_refused(self, tmp_path, capsys):
        """Files of versions 1 and 2 (which stored freq_bins and a bias per
        CRN block) are refused by version, by load_checkpoint and by each
        command that loads one: exit 1, no traceback, nothing written."""
        path = tmp_path / "old.bin"
        save_checkpoint(path, tiny_model())
        raw = path.read_bytes()
        start = len(MAGIC)  # then the version word
        for version in (1, 2):
            path.write_bytes(raw[:start] + struct.pack("<I", version) + raw[start + 4:])
            message = f"{path} is checkpoint version {version}; this package reads version 3"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_checkpoint(path)
            for command in ("enhance --model {p} --in {d}/x.wav --out {d}/y.wav",
                            "train --model {p} --data {d}/m.txt --out {d}/run",
                            "baseline filtersum --model {p} --in {d}/x.wav --out {d}/y.wav"):
                assert main(command.format(p=path, d=tmp_path).split()) == 1
                assert capsys.readouterr().err == f"error: {message}\n"
        assert [q.name for q in tmp_path.iterdir()] == ["old.bin"]

    def test_rejects_non_checkpoint_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.bin"
    save_checkpoint(path, init_two_stage_model(1, width_scale=Fraction(1, 16), seed=5))
    return path.read_bytes(), path.with_name("cut.bin")


class TestTruncatedCheckpoint:
    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(0.0, 1.0, exclude_max=True))
    @example(frac=0.0)
    @example(frac=1e-5)  # inside the version word
    @example(frac=1.3e-5)  # inside the header length
    @example(frac=5e-5)  # inside the JSON header
    def test_any_cut_raises_value_error(self, small_checkpoint, frac):
        raw, path = small_checkpoint
        cut = int(frac * len(raw))
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        if cut >= len(MAGIC):
            assert "checkpoint is truncated" in str(err.value)

    def test_message_names_the_tensor(self, small_checkpoint):
        raw, path = small_checkpoint
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match=r"truncated: tensor 'buffer\.stage2\..*' needs 4 bytes"):
            load_checkpoint(path)

    def test_huge_shape_is_refused_before_allocating(self, small_checkpoint, capsys):
        """A shape rewritten to (60000, 60000), 13.4 GiB of float32, is
        refused as truncated by the pass over the table, before anything
        is allocated: by load_checkpoint and by `mcse enhance` (exit 1)."""
        raw, path = small_checkpoint
        name = b"param.spatial.fc.w"
        rank_at = raw.index(name) + len(name)
        assert raw[rank_at] == 2
        data_at = rank_at + 1 + 8
        path.write_bytes(raw[:rank_at + 1] + struct.pack("<II", 60000, 60000) + raw[data_at:])
        message = (f"checkpoint is truncated: tensor 'param.spatial.fc.w' needs "
                   f"{4 * 60000 * 60000} bytes, found {len(raw) - data_at}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)
        assert main(["enhance", "--model", str(path), "--in", str(path.with_name("x.wav")),
                     "--out", str(path.with_name("y.wav"))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCorruptCheckpoint:
    def test_trailing_bytes_are_refused(self, small_checkpoint):
        raw, path = small_checkpoint
        path.write_bytes(raw + b"\x00" * 13)
        with pytest.raises(ValueError, match="13 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", [
        "param.crn.ghost", "buffer.crn.ghost", "opt.m.crn.ghost", "opt.v.crn.ghost", "ghost",
    ])
    def test_unknown_tensor_is_named(self, small_checkpoint, name):
        """Append one well-formed tensor record the model has no slot for."""
        raw, path = small_checkpoint
        start = len(MAGIC) + 4  # magic, then the version word
        (hlen,) = struct.unpack("<I", raw[start:start + 4])
        table = start + 4 + hlen
        (count,) = struct.unpack("<I", raw[table:table + 4])
        nb = name.encode()
        record = struct.pack("<H", len(nb)) + nb + struct.pack("<BIf", 1, 1, 0.5)
        path.write_bytes(raw[:table] + struct.pack("<I", count + 1) + raw[table + 4:] + record)
        with pytest.raises(ValueError, match=f"unknown tensor '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("add, drop", [
        ({"stft": {"hop": 64}}, None), ({}, "width_scale"),
    ], ids=["extra_key", "missing_key"])
    def test_header_without_exactly_the_v2_keys_is_refused(self, small_checkpoint, add, drop):
        raw, path = small_checkpoint
        path.write_bytes(rewrite_header(raw, lambda header: (header.update(add),
                                                             header.pop(drop, None))))
        with pytest.raises(ValueError, match="does not hold exactly the keys"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, what", [
        ("p_channels", None, "an integer"), ("p_channels", True, "an integer"),
        ("width_scale", None, "a string"),
        ("optimizer_step", "3", "an integer or null"), ("width_scale", "1/0", "a fraction"),
        ("p_channels", 10**9, "half the input channels of the stored stage1.enc0.w (1, 2, 1, 3)"),
    ])
    def test_header_value_of_wrong_type_is_refused_by_name(self, small_checkpoint, capsys,
                                                           key, value, what):
        """A header value of the wrong JSON type or out of range is refused
        by its key, by load_checkpoint and by `mcse enhance` (exit 1, no
        traceback), before the model layout is built."""
        raw, path = small_checkpoint
        path.write_bytes(rewrite_header(raw, lambda header: header.update({key: value})))
        message = f"checkpoint header '{key}' must be {what}, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)
        assert main(["enhance", "--model", str(path), "--in", str(path.with_name("x.wav")),
                     "--out", str(path.with_name("y.wav"))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheckpointAllocation:
    def test_one_array_per_kind(self, tmp_path):
        """A load reads every parameter into views of one array and every
        optimizer moment into views of another, each view on a 64-byte
        boundary; dropping the optimizer state frees its array while the
        model lives."""
        model = tiny_model(seed=2)
        state = AdamWState.for_params(model.stage_params("stage2"))
        path = tmp_path / "resume.bin"
        save_checkpoint(path, model, state)
        loaded, opt, _ = load_checkpoint(path)
        params = [t.data for t in loaded.named_params().values()]
        moments = [*opt.m.values(), *opt.v.values()]
        param_base, moment_base = params[0].base, moments[0].base
        assert param_base is not None and moment_base is not None
        assert param_base is not moment_base
        assert all(a.base is param_base for a in params)
        assert all(a.base is moment_base for a in moments)
        assert all(a.ctypes.data % 64 == 0 for a in params + moments)
        moments_alive = weakref.ref(moment_base)
        del opt, moments, moment_base
        gc.collect()
        assert moments_alive() is None
        assert all(t.data.base is param_base for t in loaded.named_params().values())


class TestCheckpointShapes:
    @pytest.mark.parametrize("key", [
        "param.stage1.enc1.bn.beta", "buffer.stage1.enc1.bn.mean", "opt.m.stage1.enc1.bn.beta",
        "opt.v.stage1.enc1.bn.beta",
    ])
    def test_wrong_shape_is_named(self, tmp_path, key):
        """A stored tensor whose shape differs from its model slot is
        refused, not broadcast into the slot or kept as optimizer state."""
        model = init_two_stage_model(1, width_scale=Fraction(1, 16), seed=5)
        state = AdamWState.for_params(model.named_params())
        wrong = np.zeros(1, dtype=np.float32)  # enc1 has 2 channels at width 1/16
        kind, name = key.rsplit(".stage1.", 1)
        if kind == "param":
            model.stage1.params[name].data = wrong
        elif kind == "buffer":
            model.stage1.buffers[name] = wrong
        else:
            getattr(state, kind[-1])[f"stage1.{name}"] = wrong
        path = tmp_path / "bad.bin"
        save_checkpoint(path, model, state)
        with pytest.raises(ValueError,
                           match=rf"shape mismatch for '{key}': checkpoint \(1,\), model \(2,\)"):
            load_checkpoint(path)


class TestTrainLoop:
    def test_curve_shape_and_determinism(self):
        cfg = TrainConfig(batch_size=1, max_iters=3, stage="stage1", seed=5, lr=1e-3)
        curves = []
        for _ in range(2):
            model = tiny_model(seed=1)
            curve = train(tiny_data(model), model, cfg)
            assert len(curve) == 3
            assert all(np.isfinite(loss) for _, _, loss in curve)
            curves.append(curve)
        assert curves[0] == curves[1]  # float-exact across runs

    def test_loss_moves(self):
        model = tiny_model(seed=1)
        cfg = TrainConfig(batch_size=1, max_iters=5, stage="stage1", seed=5, lr=3e-3)
        curve = train(tiny_data(model), model, cfg)
        assert curve[-1][2] < curve[0][2]

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "joint"])
    def test_float32_end_to_end(self, stage):
        """On a float32 model the loss and every gradient of the stage stay
        float32: no constant in the loss or the scaling promotes them."""
        model = tiny_model(seed=1)
        loss = mcse.train._utterance_loss(tiny_data(model), 0, model, stage)
        (loss * (1.0 / 3)).backward()
        assert loss.dtype == np.float32
        params = model.stage_params(stage)
        assert {name: p.grad.dtype for name, p in params.items()} == {
            name: np.dtype(np.float32) for name in params}

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "joint"])
    def test_float32_spectrograms_train_to_the_same_bytes(self, stage):
        """Every read of a training spectrogram casts it to float32, so a
        set stored in float32, as load_training_set stores it, trains to the
        loss curve and parameters of the same set in float64, byte for
        byte."""
        cfg = TrainConfig(batch_size=1, max_iters=3, stage=stage, seed=5, lr=1e-3)
        runs = []
        for dtype in (np.float64, np.float32):
            model = tiny_model(seed=1)
            data = [Utterance(u.uid, *(s.like(s.re.astype(dtype), s.im.astype(dtype))
                                       for s in (u.mix, u.revclean, u.dry)))
                    for u in tiny_data(model)]
            curve = train(data, model, cfg)
            runs.append((curve, {k: p.data.tobytes() for k, p in model.named_params().items()}))
        assert runs[0] == runs[1]

    def test_training_set_loads_as_float32(self, tmp_path):
        for name, channels in (("mix", 2), ("rev", 2), ("dry", 1)):
            _write_signal(tmp_path / f"{name}.wav", channels)
        (tmp_path / "manifest.txt").write_text("u0 mix=mix.wav revclean=rev.wav dry=dry.wav\n")
        (utt,) = load_training_set(tmp_path / "manifest.txt", channels=2)
        s = tiny_model().stft
        for spec, name in ((utt.mix, "mix"), (utt.revclean, "rev"), (utt.dry, "dry")):
            want = stft(read_wav(tmp_path / f"{name}.wav"), s.frame_size, s.hop, s.fft_size)
            assert spec.re.dtype == spec.im.dtype == np.float32
            assert spec.re.tobytes() == want.re.astype(np.float32).tobytes()
            assert spec.im.tobytes() == want.im.astype(np.float32).tobytes()

    def test_batchnorm_mode_follows_the_tape(self):
        """A CRN forward the tape records normalizes by the sample's own
        statistics and moves the running buffers. Under no_grad, or with
        its parameters as constants, it folds the buffers in and leaves
        them byte-unchanged, so stage-2 training leaves Stage I's alone."""
        model = tiny_model(seed=2)
        data = tiny_data(model)
        feat = np.concatenate([data[0].mix.re, data[0].mix.im]).astype(np.float32)
        buffers = model.stage1.buffers

        def unchanged(before):
            return all(buffers[k].tobytes() == v.tobytes() for k, v in before.items())

        before = {k: b.copy() for k, b in buffers.items()}
        with no_grad():
            folded, _ = crn_forward(feat, model.stage1)
        assert unchanged(before)
        constants = {k: Tensor(t.data) for k, t in model.stage1.params.items()}
        fixed, _ = crn_forward(feat, CrnParams(model.stage1.config, constants, buffers))
        assert unchanged(before) and fixed.data.tobytes() == folded.data.tobytes()
        recorded, _ = crn_forward(feat, model.stage1)
        assert not any(np.array_equal(buffers[k], v) for k, v in before.items())
        assert not np.allclose(recorded.data, folded.data)

        before = {k: b.copy() for k, b in buffers.items()}
        train(data, model, TrainConfig(batch_size=1, max_iters=2, stage="stage2", seed=0))
        assert unchanged(before)

    def test_stage2_cache_does_not_depend_on_uids(self):
        """The frozen Stage I output is kept per utterance of the set, not
        per uid: two different utterances that share a uid, as a manifest
        merged from two simulate runs has, train to the bytes of the same
        two under distinct uids."""
        cfg = TrainConfig(batch_size=2, max_iters=2, stage="stage2", seed=0)
        runs = []
        for uids in (("a", "b"), ("u", "u")):
            model = tiny_model(seed=1)
            pair = [tiny_data(model, seed)[0] for seed in (100, 101)]
            data = [Utterance(uid, u.mix, u.revclean, u.dry) for uid, u in zip(uids, pair)]
            curve = train(data, model, cfg)
            runs.append((curve, {k: p.data.tobytes() for k, p in model.named_params().items()}))
        assert runs[0] == runs[1]

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            train([], tiny_model(), TrainConfig())

    def test_run_directory_artifacts(self, tmp_path):
        model = tiny_model(seed=1)
        cfg = TrainConfig(batch_size=1, max_iters=2, stage="stage1", seed=5)
        curve = train(tiny_data(model), model, cfg, out_dir=tmp_path / "run")
        csv = (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()
        assert csv[0] == "iteration,lr,loss,wall_s,skipped"
        assert len(csv) == len(curve) + 1
        it, lr, loss, wall_s, skipped = csv[1].split(",")
        assert (int(it), float(lr), float(loss)) == curve[0]
        assert float(wall_s) > 0.0 and skipped == "0"
        loaded, opt, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert opt is not None and opt.step == 2
        np.testing.assert_array_equal(
            loaded.named_params()["stage1.enc0.w"].data,
            model.named_params()["stage1.enc0.w"].data,
        )

    def test_write_loss_curve_round_trips_floats(self, tmp_path):
        path = tmp_path / "curve.csv"
        rows = [(0, 1e-3, 0.123456789012345, 0.25, 0), (1, 5e-4, 0.1, 1 / 3, 1)]
        assert write_loss_curve(path, iter(rows)) == rows
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(CURVE_COLUMNS)
        for line, (it, lr, loss, wall_s, skipped) in zip(lines[1:], rows, strict=True):
            f = line.split(",")
            assert int(f[0]) == it and float(f[1]) == lr and float(f[2]) == loss
            assert float(f[3]) == wall_s and int(f[4]) == skipped

    def test_loss_curve_streams_each_row(self, tmp_path, monkeypatch):
        """A non-finite gradient in the first iteration shows as skipped = 1
        in its row, and each row is on disk before the next iteration
        starts."""
        path = tmp_path / "run" / "loss_curve.csv"
        real_loss, seen = mcse.train.total_loss, []

        def loss_nan_first(est, tgt):
            seen.append(path.read_text().splitlines())
            loss = real_loss(est, tgt)
            return loss * np.nan if len(seen) == 1 else loss

        monkeypatch.setattr(mcse.train, "total_loss", loss_nan_first)
        model = tiny_model(seed=1)
        cfg = TrainConfig(batch_size=1, max_iters=3, stage="stage1", seed=5)
        curve = train(tiny_data(model), model, cfg, out_dir=tmp_path / "run")
        assert [len(lines) for lines in seen] == [1, 2, 3]
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [r[4] for r in rows] == ["1", "0", "0"]
        assert np.isnan(curve[0][2]) and np.isfinite(curve[1][2])


class TestCli:
    @pytest.mark.parametrize("line, fault", [
        ("u1 revclean=r.wav dry=d.wav", "no mix= field"),
        ("u1 mix=m.wav revclean=r.wav dry", "field 'dry' is not key=value"),
    ], ids=["missing_key", "bare_field"])
    def test_malformed_manifest_line_is_named(self, tmp_path, capsys, line, fault):
        """read_manifest refuses the line by path, line number and key or
        field, and `mcse train --data` exits 1 with that message."""
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"u0 mix=m.wav revclean=r.wav dry=d.wav\n{line}\n")
        message = f"manifest {manifest} line 2: {fault}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_manifest(manifest)
        assert main(["train", "--data", str(manifest), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        rc = main(["train", "--data", "x", "--out", str(tmp_path), "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("command, line", [
        ("simulate --out {d}/data", "lr = 0.5"),
        ("simulate --out {d}/data", "wpe_taps = 3"),
        ("simulate --out {d}/data", "mvdr_mode = frame"),
        ("train --data {d}/m.txt --out {d}/run", "num_utterances = 2"),
        ("train --data {d}/m.txt --out {d}/run", "mvdr_forgetting = 0.9"),
        ("baseline mvdr --in {d}/x.wav --out {d}/y.wav", "seed = 3"),
        ("baseline wpe --in {d}/x.wav --out {d}/y.wav", "max_iters = 3"),
    ], ids=lambda v: v.split()[0])
    def test_key_of_another_subcommand_exits_2(self, tmp_path, capsys, command, line):
        """A key that only another subcommand reads is refused before any
        work starts, with the file, the line and the key in the message."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# shared settings\n{line}\n")
        argv = command.format(d=tmp_path).split() + ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and repr(line.split()[0]) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("command, line", [
        ("baseline ds --in {d}/x.wav --out {d}/y.wav", "wpe_taps = 3"),
        ("baseline wpe --in {d}/x.wav --out {d}/y.wav", "mvdr_mode = frame"),
        ("baseline mvdr --in {d}/x.wav --out {d}/y.wav", "width_scale = 1/8"),
        ("baseline filtersum --model {d}/m.bin --in {d}/x.wav --out {d}/y.wav",
         "width_scale = 1/8"),
        ("train --model {d}/m.bin --data {d}/m.txt --out {d}/run", "width_scale = 1/8"),
    ], ids=["wpe_key-ds", "mvdr_key-wpe", "model_key-mvdr", "model_key-filtersum_model",
            "model_key-train_model"])
    def test_key_its_mode_does_not_read_exits_2(self, tmp_path, capsys, command, line):
        """A key of the subcommand's table that the chosen baseline method,
        or --model in place of a fresh model, would ignore is refused before
        any work starts."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        argv = command.format(d=tmp_path).split() + ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}:1: ") and repr(line.split()[0]) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("text", [
        "mvdr_forgetting = 0.9\n",
        "mvdr_forgetting = 5.0\n",
        "mvdr_forgetting = 0.9\nmvdr_mode = block\n",
    ], ids=["default_mode", "out_of_range", "block_mode"])
    def test_forgetting_outside_frame_mode_exits_2(self, tmp_path, capsys, text):
        """Block mode, the default, has no forgetting factor: the key is
        refused by its line before any work starts, whatever its value."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = ["baseline", "mvdr", "--in", str(tmp_path / "x.wav"),
                "--out", str(tmp_path / "y.wav"), "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {cfg}:1: configuration key 'mvdr_forgetting' is read "
                       "only with mvdr_mode = frame\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_forgetting_in_frame_mode_is_read(self, tmp_path, capsys):
        """In frame mode the key is read, and a value outside (0, 1) is
        refused by mask_mvdr."""
        from mcse.wavio import write_wav

        rng = np.random.default_rng(0)
        for name in ("x", "s", "n"):
            write_wav(tmp_path / f"{name}.wav", TimeSignal(rng.standard_normal((2, 2000)), 16000))
        cfg = tmp_path / "run.cfg"
        argv = ["baseline", "mvdr", "--in", str(tmp_path / "x.wav"), "--out",
                str(tmp_path / "y.wav"), "--speech-ref", str(tmp_path / "s.wav"),
                "--noise-ref", str(tmp_path / "n.wav"), "--config", str(cfg)]
        cfg.write_text("mvdr_forgetting = 5.0\nmvdr_mode = frame\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: forgetting factor must lie in (0, 1)\n"
        assert not (tmp_path / "y.wav").exists()
        cfg.write_text("mvdr_mode = frame\nmvdr_forgetting = 0.9\n")
        assert main(argv) == 0
        assert (tmp_path / "y.wav").exists()

    @pytest.mark.parametrize("args, refused", [
        ("wpe --delays 1,2", "--delays is not used by baseline wpe"),
        ("ds --speech-ref {d}/s.wav", "--speech-ref is not used by baseline ds"),
        ("filtersum --noise-ref {d}/n.wav", "--noise-ref is not used by baseline filtersum"),
        ("mvdr --model {d}/m.bin", "--model is not used by baseline mvdr"),
        ("ds --seed 5", "--seed is not used by baseline ds"),
        ("wpe --seed 5", "--seed is not used by baseline wpe"),
        ("filtersum --model {d}/m.bin --seed 5",
         "--seed is not used by baseline filtersum --model"),
    ], ids=["delays-wpe", "speech_ref-ds", "noise_ref-filtersum", "model-mvdr", "seed-ds",
            "seed-wpe", "seed-filtersum_model"])
    def test_flag_its_method_does_not_read_exits_2(self, tmp_path, capsys, args, refused):
        """A flag that only another baseline method reads is refused before
        the input (here missing, which would exit 1) is read. --seed is read
        only by filtersum without --model, the one mode that draws a model."""
        argv = ["baseline", *args.format(d=tmp_path).split(), "--in", str(tmp_path / "x.wav"),
                "--out", str(tmp_path / "y.wav")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert list(tmp_path.iterdir()) == []

    def test_fresh_filtersum_reads_seed(self, tmp_path):
        """The model drawn without --model follows --seed, and 0 is the
        seed when none is given."""
        _write_signal(tmp_path / "x.wav")
        cfg = tmp_path / "fs.cfg"
        cfg.write_text("width_scale = 1/16\n")
        outs = {}
        for seed in (None, 0, 1):
            out = tmp_path / f"y{seed}.wav"
            flags = [] if seed is None else ["--seed", str(seed)]
            assert main(["baseline", "filtersum", "--in", str(tmp_path / "x.wav"),
                         "--out", str(out), "--config", str(cfg), *flags]) == 0
            outs[seed] = read_wav(out).samples
        assert outs[None].tobytes() == outs[0].tobytes()
        assert not np.array_equal(outs[0], outs[1])

    def test_simulate_sample_rate_key_exits_2(self, tmp_path, capsys):
        """simulate renders at the front end's fixed rate: a sample_rate key
        is an unknown key, refused before the output directory is created."""
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sample_rate = 16000\n")
        assert main(["simulate", "--out", str(tmp_path / "data"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:1: unknown configuration key 'sample_rate' for simulate\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]

    def test_filtersum_model_is_summed_stage1(self, tmp_path):
        """baseline filtersum --model runs Stage I of a checkpoint written by
        train() and sums it over channels, in float32 before the float64
        cast: its WAV is those samples, written as float32."""
        from mcse.pipeline import stage1_tensors
        from mcse.tensor import no_grad
        from mcse.wavio import read_wav

        model = tiny_model(seed=3)
        cfg = TrainConfig(batch_size=1, max_iters=2, stage="stage1", seed=5, lr=1e-3)
        train(tiny_data(model), model, cfg, out_dir=tmp_path / "run")
        x = TimeSignal(0.1 * np.random.default_rng(4).standard_normal((2, 3000)), 16000)
        write_wav(tmp_path / "x.wav", x)
        assert main(["baseline", "filtersum", "--model", str(tmp_path / "run/checkpoint.bin"),
                     "--in", str(tmp_path / "x.wav"), "--out", str(tmp_path / "y.wav")]) == 0

        x = read_wav(tmp_path / "x.wav")  # the float32 samples the command read
        y = stft(x)
        with no_grad():
            re, im = stage1_tensors(y.re, y.im, model)
        summed = y.like(re.data.sum(axis=0)[None].astype(np.float64),
                        im.data.sum(axis=0)[None].astype(np.float64))
        expected = istft(summed, length=x.length).samples.astype(np.float32)
        got = read_wav(tmp_path / "y.wav").samples.astype(np.float32)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("line, message", [
        ("seconds = 0.00001", "seconds = 1e-05 gives 0 samples at 16000 Hz; at least 17 are needed"),
        ("absorption = 1.5", "absorption must lie in [0, 1]"),
        ("room_x = 1.0", "room too small for the candidate grid"),
    ], ids=["zero_samples", "absorption", "room_x"])
    def test_simulate_bad_dataset_exits_1(self, tmp_path, capsys, line, message):
        """Each is refused by name before the output directory is created."""
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        assert main(["simulate", "--out", str(tmp_path / "data"), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]

    def test_method_reads_its_own_keys(self, tmp_path):
        from mcse.wavio import write_wav

        wav = tmp_path / "mix.wav"
        write_wav(wav, TimeSignal(np.random.default_rng(0).standard_normal((2, 4000)), 16000))
        cfg = tmp_path / "wpe.cfg"
        cfg.write_text("wpe_taps = 3\nwpe_iterations = 1\n")
        out = tmp_path / "o.wav"
        assert main(["baseline", "wpe", "--in", str(wav), "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert out.exists()

    def test_missing_checkpoint_exits_1(self, tmp_path):
        rc = main(["enhance", "--model", str(tmp_path / "nope.bin"),
                   "--in", "x.wav", "--out", "y.wav"])
        assert rc == 1

    def test_evaluate_without_references_exits_1(self, tmp_path):
        (tmp_path / "est").mkdir()
        (tmp_path / "ref").mkdir()
        rc = main(["evaluate", "--ref", str(tmp_path / "ref"), "--est", str(tmp_path / "est")])
        assert rc == 1

    def test_mvdr_without_oracle_refs_exits_2(self, tmp_path):
        from mcse.wavio import write_wav

        wav = tmp_path / "mix.wav"
        write_wav(wav, TimeSignal(np.zeros((2, 2000)), 16000))
        rc = main(["baseline", "mvdr", "--in", str(wav), "--out", str(tmp_path / "o.wav")])
        assert rc == 2

    def test_simulate_train_enhance_chain(self, tmp_path):
        """End-to-end CLI wiring: render one scene, fit two iterations at
        1/16 width, then enhance the rendered mixture."""
        data_dir = tmp_path / "data"
        rc = main(["simulate", "--out", str(data_dir), "--count", "1",
                   "--seconds", "0.7", "--seed", "3"])
        assert rc == 0
        manifest = data_dir / "manifest.txt"
        assert manifest.exists()

        cfg = tmp_path / "small.cfg"
        cfg.write_text("width_scale = 1/16\nbatch_size = 1\nmax_iters = 2\n")
        run_dir = tmp_path / "run"
        rc = main(["train", "--data", str(manifest), "--out", str(run_dir),
                   "--stage", "stage1", "--config", str(cfg), "--seed", "0"])
        assert rc == 0
        ckpt = run_dir / "checkpoint.bin"
        assert ckpt.exists()

        mix = next(data_dir.glob("*mix*.wav"))
        out_wav = tmp_path / "enhanced.wav"
        rc = main(["enhance", "--model", str(ckpt), "--in", str(mix),
                   "--out", str(out_wav)])
        assert rc == 0
        from mcse.wavio import read_wav

        out = read_wav(out_wav)
        assert out.channels == 1 and out.length == read_wav(mix).length


def _write_signal(path, channels=2, rate=16000, nan_at=None, length=2000):
    samples = 0.1 * np.random.default_rng(0).standard_normal((channels, length))
    if nan_at is not None:
        samples[nan_at] = np.nan
    write_wav(path, TimeSignal(samples, rate))


class TestBadInputs:
    """Each entry point refuses a file with a non-finite sample, or at the
    wrong rate, channel count or length, before any work: exit 2, the file
    named, nothing written."""

    # (command, files it reads: name -> channels, its other arguments)
    COMMANDS = {
        "enhance": ({"mix": 2}, "enhance --model {d}/model.bin --in {d}/mix.wav --out {d}/out.wav"),
        "baseline": ({"mix": 2, "s": 2, "n": 2},
                     "baseline mvdr --in {d}/mix.wav --speech-ref {d}/s.wav "
                     "--noise-ref {d}/n.wav --out {d}/out.wav"),
        "filtersum": ({"mix": 2},
                      "baseline filtersum --model {d}/model.bin --in {d}/mix.wav --out {d}/out.wav"),
        "filtersum_fresh": ({"mix": 2}, "baseline filtersum --in {d}/mix.wav --out {d}/out.wav"),
        "evaluate": ({"ref/u0": 1, "est/u0": 1},
                     "evaluate --ref {d}/ref --est {d}/est --out {d}/out.txt"),
        "train": ({"u0_mix": 2, "u0_revclean": 2, "u0_dry": 1},
                  "train --data {d}/manifest.txt --out {d}/out --config {d}/train.cfg"),
    }

    # (command, the bad file, its fault, the message after its name)
    CASES = [
        ("enhance", "mix", "nan", "non-finite sample (nan) at channel 1, sample 123"),
        ("enhance", "mix", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("enhance", "mix", "channels", "channel count 3, expected 2"),
        ("baseline", "mix", "nan", "non-finite sample (nan) at channel 1, sample 123"),
        ("baseline", "s", "nan", "non-finite sample (nan) at channel 1, sample 123"),
        ("baseline", "n", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("baseline", "s", "channels", "channel count 3, expected 2"),
        ("filtersum", "mix", "channels", "channel count 3, expected 2"),
        ("filtersum", "mix", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("filtersum_fresh", "mix", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("evaluate", "ref/u0", "nan", "non-finite sample (nan) at channel 0, sample 123"),
        ("evaluate", "est/u0", "nan", "non-finite sample (nan) at channel 0, sample 123"),
        ("evaluate", "est/u0", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("evaluate", "ref/u0", "channels", "channel count 2, expected 1"),
        ("evaluate", "est/u0", "channels", "channel count 2, expected 1"),
        ("evaluate", "est/u0", "length",
         "length 1200 samples, expected 2000 as in {d}/ref/u0.wav"),
        ("train", "u0_mix", "nan", "non-finite sample (nan) at channel 1, sample 123"),
        ("train", "u0_revclean", "rate", "sample rate 8000 Hz, expected 16000 Hz"),
        ("train", "u0_dry", "channels", "channel count 2, expected 1"),
    ]

    @pytest.mark.parametrize("command, bad, fault, message", CASES,
                             ids=[f"{c}-{b.split('/')[0]}-{f}" for c, b, f, _ in CASES])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, bad, fault, message):
        files, args = self.COMMANDS[command]
        for name, channels in files.items():
            path = tmp_path / f"{name}.wav"
            path.parent.mkdir(exist_ok=True)
            if name != bad:
                _write_signal(path, channels)
            elif fault == "nan":
                _write_signal(path, channels, nan_at=(channels - 1, 123))
            elif fault == "rate":
                _write_signal(path, channels, rate=8000)
            elif fault == "length":
                _write_signal(path, channels, length=1200)
            else:
                _write_signal(path, channels + 1)
        save_checkpoint(tmp_path / "model.bin", tiny_model())
        (tmp_path / "manifest.txt").write_text(
            "u0 mix=u0_mix.wav revclean=u0_revclean.wav dry=u0_dry.wav "
            "snr_db=5.0 src=1,1,1 noise=2,2,2\n")
        (tmp_path / "train.cfg").write_text("width_scale = 1/16\nmax_iters = 1\n")
        assert main(args.format(d=tmp_path).split()) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / bad}.wav: {message.format(d=tmp_path)}\n")
        assert not list(tmp_path.glob("out*"))
