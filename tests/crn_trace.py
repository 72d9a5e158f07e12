"""Stage-by-stage CRN shapes, recorded from outside crn_forward.

The forward has no tracing hook; these helpers wrap crn._block and
layers.lstm_seq for one test (through pytest's monkeypatch, so the
originals come back at teardown) and note each output shape in call
order.
"""

from mcse import crn, layers


def trace_crn(monkeypatch, x, params):
    """Run crn_forward on x. Returns (trace, (re, im)) where trace is the
    list of (tag, shape) pairs: "input", every conv/deconv block by its
    parameter prefix ("enc0", "dec_re0", ...), then "lstm_in"/"lstm_out"
    around the bottleneck."""
    trace = [("input", tuple(x.shape))]
    block, lstm_seq = crn._block, layers.lstm_seq

    def traced_block(layer, h, p, name):
        out = block(layer, h, p, name)
        trace.append((name, tuple(out.shape)))
        return out

    def traced_lstm_seq(seq, *rest):
        trace.append(("lstm_in", tuple(seq.shape)))
        out = lstm_seq(seq, *rest)
        trace.append(("lstm_out", tuple(out.shape)))
        return out

    monkeypatch.setattr(crn, "_block", traced_block)
    monkeypatch.setattr(layers, "lstm_seq", traced_lstm_seq)
    return trace, crn.crn_forward(x, params)
