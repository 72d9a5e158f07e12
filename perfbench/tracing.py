"""Outside-in tracing of the mcse package for the traced benchmark run.

Nothing under src/ knows about this module. `Tracer.install()` replaces
each traced function at every module binding it is looked up through
(`train.py` imports `spatial_tensors` by name, `layers.py` imports
`make_node` by name, `mcse/__init__.py` re-exports `enhance`), so a call
reaches the wrapper whichever module makes it. `Tracer.uninstall()` puts
the originals back.

A span is (name, start, end, parent). Layer functions with a hand-written
backward get a forward span when called and a backward span when the tape
runs the node they returned: the wrapper swaps the node's `_backward` for
a timed one. The LSTM spans carry the scope they were called from
(`spatial` under `pipeline.spatial_tensors`, `crn` under
`crn.crn_forward`), because the spatial filter and the CRN bottleneck run
the same function in very different shapes.

Spans and counters stay in memory; `summary()` aggregates them per name
with self time (duration minus the time covered by child spans) and
`dump()` writes the raw spans out once the run is over.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Layer functions whose returned node gets a timed backward.
LAYERS = ("conv2d", "deconv2d", "batchnorm2d", "prelu", "layernorm", "linear",
          "lstm_cell_seq")

# (module, function, span name) traced as plain calls.
CALLS = (
    ("crn", "crn_forward", "crn.crn_forward"),
    ("pipeline", "enhance", "pipeline.enhance"),
    ("pipeline", "stage1_tensors", "pipeline.stage1_tensors"),
    ("pipeline", "spatial_tensors", "pipeline.spatial_tensors"),
    ("pipeline", "stage2_tensors", "pipeline.stage2_tensors"),
    # its backward is spread over tensor ops and shows in tensor.backward
    ("loss", "total_loss", "loss.total_loss.fwd"),
    ("optim", "adamw_step", "optim.adamw_step"),
    ("dsp", "stft", "dsp.stft"),
    ("dsp", "istft", "dsp.istft"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("simkit", "simulate_rir", "simkit.simulate_rir"),
    ("simkit", "mix", "simkit.mix"),
    ("baselines", "delay_and_sum", "baselines.delay_and_sum"),
    ("baselines", "wpe", "baselines.wpe"),
    ("baselines", "oracle_masks", "baselines.oracle_masks"),
    ("baselines", "mask_mvdr", "baselines.mask_mvdr"),
    ("baselines", "steering_from_covariance", "baselines.steering_from_covariance"),
    ("metrics", "stoi", "metrics.stoi"),
    ("train", "train", "train.train"),
)

# Span names whose ancestors decide the scope of an LSTM span.
SCOPES = (("pipeline.spatial_tensors", "spatial"), ("crn.crn_forward", "crn"))


def _bindings(fn):
    """Every (module, attribute) of the mcse package bound to `fn`."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mcse" or name.startswith("mcse.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.recording = False
        self.phase = None
        self.spans = []  # [name, start, end, parent, phase]
        self.stack = []
        self.counters = {}
        self._patched = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n: int = 1):
        if self.recording:
            self.counters[(self.phase, name)] = self.counters.get((self.phase, name), 0) + n

    def scope(self) -> str | None:
        for idx in reversed(self.stack):
            for span_name, scope in SCOPES:
                if self.spans[idx][0] == span_name:
                    return scope
        return None

    def timed(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- installation ---------------------------------------------------------------

    def _replace(self, fn, wrapper):
        for mod, attr in _bindings(fn):
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def install(self):
        import mcse.baselines  # noqa: F401  (bind every module before scanning)
        import mcse.checkpoint  # noqa: F401
        import mcse.metrics  # noqa: F401
        import mcse.train  # noqa: F401
        from mcse import layers, simkit, tensor

        for fn_name in LAYERS:
            fn = getattr(layers, fn_name)
            self._replace(fn, self._layer_wrapper(fn_name, fn))
        for mod_name, fn_name, span in CALLS:
            fn = getattr(sys.modules[f"mcse.{mod_name}"], fn_name)
            self._replace(fn, self._call_wrapper(span, fn))
        self._replace(tensor.make_node, self._make_node_wrapper(tensor.make_node))
        self._replace(simkit._image_sources,
                      self._image_sources_wrapper(simkit._image_sources))

        backward = tensor.Tensor.backward
        tracer = self

        @functools.wraps(backward)
        def traced_backward(t, *args, **kwargs):
            if not tracer.recording:
                return backward(t, *args, **kwargs)
            return tracer.timed("tensor.backward", backward, t, *args, **kwargs)

        self._patched.append((tensor.Tensor, "backward", backward))
        tensor.Tensor.backward = traced_backward

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------------------

    def _layer_wrapper(self, fn_name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            prefix = "layers"
            if fn_name == "lstm_cell_seq":
                prefix = tracer.scope() or "layers"
                tracer.count("layers.lstm_cell_seq.steps", int(args[0].shape[1]))
            out = tracer.timed(f"{prefix}.{fn_name}.fwd", fn, *args, **kwargs)
            backward = out._backward
            if backward is not None:
                bwd_name = f"{prefix}.{fn_name}.bwd"

                def timed_backward(g):
                    if not tracer.recording:
                        return backward(g)
                    return tracer.timed(bwd_name, backward, g)

                out._backward = timed_backward
            return out

        return wrapper

    def _call_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = name
            if name == "baselines.mask_mvdr":
                span = f"{name}.{kwargs.get('mode', args[3] if len(args) > 3 else 'block')}"
            elif name == "baselines.steering_from_covariance":
                tracer.count(f"{name}.calls")
            elif name == "checkpoint.load_checkpoint":
                tracer.count("checkpoint.bytes", os.path.getsize(args[0]))
            elif name == "optim.adamw_step":
                tracer.count("optim.steps")
            return tracer.timed(span, fn, *args, **kwargs)

        return wrapper

    def _make_node_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out._backward is not None:
                tracer.count("tensor.nodes")
            return out

        return wrapper

    def _image_sources_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            positions, amps = fn(*args, **kwargs)
            tracer.count("simkit.image_sources", len(amps))
            return positions, amps

        return wrapper

    # -- results --------------------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Per span name within one phase: calls, total and self seconds.
        Also the total duration of the phase's root spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, ph in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        roots = 0.0
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
            if parent < 0:
                roots += end - start
        return {"spans": out, "root_s": roots}

    def counter(self, phase: str, name: str) -> int:
        return self.counters.get((phase, name), 0)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans,
                       "counters": [[ph, k, v] for (ph, k), v in self.counters.items()]},
                      fh)
