"""Binary checkpoints of a TwoStageModel: magic + version, a JSON header
of the values init_two_stage_model builds it from, then named float32
little-endian tensors. Parameters, batchnorm buffers and (optionally)
optimizer state all ride the same tensor table, so a save/load round trip
is bit-exact. A load makes one allocation per kind: the parameters are
views of one array, the optimizer moments of another, and the buffers are
copied into the model's own arrays.
"""

from __future__ import annotations

import json
import math
import os
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from .optim import AdamWState
from .pipeline import TwoStageModel, init_two_stage_model

MAGIC = b"MCSECKPT"
VERSION = 3

def _write_tensors(fh, tensors: dict):
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode()
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<B", data.ndim))
        for d in data.shape:
            fh.write(struct.pack("<I", d))
        fh.write(data.tobytes())


def _read_into(fh, buf, what: str):
    """Fill buf (a bytearray or a C-contiguous array) from fh; returns buf."""
    need = memoryview(buf).nbytes
    got = fh.readinto(buf)
    if got != need:
        raise ValueError(f"checkpoint is truncated: {what} needs {need} bytes, found {got}")
    return buf


def _read(fh, n: int, what: str) -> bytearray:
    return _read_into(fh, bytearray(n), what)


ALIGN = 16  # float32 elements in 64 bytes, where each loaded tensor starts


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float32 array of n elements starting on a 64-byte
    boundary: a view of one allocation of n + ALIGN - 1 elements."""
    buf = np.empty(n + ALIGN - 1, dtype="<f4")
    skip = (-buf.ctypes.data % (4 * ALIGN)) // 4
    return buf[skip : skip + n]


def _read_tensors(fh) -> dict:
    """The tensor table as {name: array}, in two passes. The first reads
    each name and shape and seeks past the data, refusing as truncated a
    tensor whose data would run past the end of the file before anything
    is allocated. Then each kind (the name's first dotted part: param,
    buffer, opt) gets one float32 array, and each tensor is read into a
    view of it that starts on a 64-byte boundary. So one kind's tensors
    are freed together, and dropping the optimizer moments frees them even
    while the parameters live. Leaves fh at the end of the table."""
    size = os.fstat(fh.fileno()).st_size
    (count,) = struct.unpack("<I", _read(fh, 4, "tensor count"))
    table = []  # (name, shape, kind, file offset of the data, element offset in its kind)
    fill = {}  # elements per kind, each tensor rounded up to ALIGN
    for k in range(count):
        where = f"name of tensor {k}"
        (nlen,) = struct.unpack("<H", _read(fh, 2, where))
        name = _read(fh, nlen, where).decode()
        where = f"tensor {name!r}"
        (rank,) = struct.unpack("<B", _read(fh, 1, where))
        shape = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, where))
        need, found = 4 * math.prod(shape), max(size - fh.tell(), 0)
        if need > found:
            raise ValueError(f"checkpoint is truncated: {where} needs {need} bytes, found {found}")
        kind = name.split(".", 1)[0]
        start = fill.get(kind, 0)
        table.append((name, shape, kind, fh.tell(), start))
        fill[kind] = start + -(-need // (4 * ALIGN)) * ALIGN
        fh.seek(need, 1)
    end = fh.tell()
    arrays = {kind: _aligned(n) for kind, n in fill.items()}
    out = {}
    for name, shape, kind, at, start in table:
        fh.seek(at)
        view = arrays[kind][start : start + math.prod(shape)].reshape(shape)
        out[name] = _read_into(fh, view, f"tensor {name!r}")
    fh.seek(end)
    return out


class _Layout(np.random.Generator):
    """Passed as the init seed when load_checkpoint only needs the model
    layout (np.random.default_rng returns a Generator as it is): each weight
    comes back unwritten, with no random draws, and is replaced by the
    stored tensor."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.empty(size, dtype=np.float32)


KIND = "two_stage"  # the header's model kind, the one this package reads and writes
# each header key but kind, with the JSON type its value must have
HEADER_TYPES = {"p_channels": (int, "an integer"), "width_scale": (str, "a string"),
                "optimizer_step": ((int, type(None)), "an integer or null")}
HEADER_KEYS = {"kind", *HEADER_TYPES}


def save_checkpoint(path, model: TwoStageModel, optimizer: AdamWState | None = None):
    """Serialize a model with optional optimizer state. Tensors are written
    as float32 regardless of working dtype."""
    header = {"kind": KIND, "p_channels": model.p_channels,
              "width_scale": str(model.stage1.config.width_scale),
              "optimizer_step": optimizer.step if optimizer is not None else None}

    tensors = {}
    for name, t in model.named_params().items():
        tensors[f"param.{name}"] = t.data
    for name, b in model.named_buffers().items():
        tensors[f"buffer.{name}"] = b
    if optimizer is not None:
        for name, m in optimizer.m.items():
            tensors[f"opt.m.{name}"] = m
        for name, v in optimizer.v.items():
            tensors[f"opt.v.{name}"] = v

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        hdr = json.dumps(header, sort_keys=True).encode()
        fh.write(struct.pack("<I", len(hdr)))
        fh.write(hdr)
        _write_tensors(fh, tensors)


def load_checkpoint(path):
    """Returns (model, optimizer_state_or_None, header)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read(fh, 4, "version"))
        if version != VERSION:
            raise ValueError(
                f"{path} is checkpoint version {version}; this package reads version {VERSION}")
        (hlen,) = struct.unpack("<I", _read(fh, 4, "header length"))
        header = json.loads(_read(fh, hlen, "header").decode())
        tensors = _read_tensors(fh)
        end = fh.tell()
        size = fh.seek(0, 2)
        if size != end:
            raise ValueError(f"checkpoint has {size - end} trailing bytes after the tensor table")

    if not isinstance(header, dict) or set(header) != HEADER_KEYS:
        raise ValueError(f"checkpoint header {header!r} does not hold exactly the keys "
                         f"{sorted(HEADER_KEYS)}")
    if header["kind"] != KIND:
        raise ValueError(f"unsupported model kind {header['kind']!r}")

    def refuse(key, what):
        raise ValueError(f"checkpoint header {key!r} must be {what}, not {header[key]!r}")

    for key, (types, what) in HEADER_TYPES.items():
        if isinstance(header[key], bool) or not isinstance(header[key], types):
            refuse(key, what)
    try:
        width_scale = Fraction(header["width_scale"])
    except (ValueError, ZeroDivisionError):
        refuse("width_scale", "a fraction")
    # the layout grows with p_channels, so it is held to the stored input layer first
    enc0 = tensors.get("param.stage1.enc0.w", np.empty(0))
    if enc0.ndim != 4 or 2 * header["p_channels"] != enc0.shape[1]:
        refuse("p_channels", f"half the input channels of the stored stage1.enc0.w {enc0.shape}")
    model = init_two_stage_model(header["p_channels"], width_scale,
                                 seed=_Layout(np.random.PCG64(0)))

    params = model.named_params()
    buffers = model.named_buffers()
    # every stored tensor, optimizer moments included, has its model slot's shape
    shapes = {f"param.{n}": t.data.shape for n, t in params.items()}
    shapes.update((f"opt.{k}.{n}", t.data.shape) for k in "mv" for n, t in params.items())
    shapes.update((f"buffer.{n}", b.shape) for n, b in buffers.items())
    for key, arr in tensors.items():
        if key not in shapes:
            raise ValueError(f"checkpoint holds unknown tensor {key!r}")
        if arr.shape != shapes[key]:
            raise ValueError(
                f"shape mismatch for {key!r}: checkpoint {arr.shape}, model {shapes[key]}"
            )
    for name, t in params.items():
        key = f"param.{name}"
        if key not in tensors:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        t.data = tensors[key]
    for name, b in buffers.items():
        key = f"buffer.{name}"
        if key not in tensors:
            raise ValueError(f"checkpoint missing buffer {name!r}")
        b[...] = tensors[key]

    optimizer = None
    if header["optimizer_step"] is not None:
        # stagewise runs track moments for a subset of the parameters
        optimizer = AdamWState(step=header["optimizer_step"])
        for key, arr in tensors.items():
            if key.startswith("opt.m."):
                optimizer.m[key[len("opt.m."):]] = arr
            elif key.startswith("opt.v."):
                optimizer.v[key[len("opt.v."):]] = arr
    return model, optimizer, header
