"""Reverse-mode automatic differentiation on dense numpy arrays.

A Tensor wraps an ndarray and records the operations applied to it in a
define-by-run graph. Calling backward() on a scalar result walks the graph
in reverse topological order and accumulates gradients into every tensor
that requires them. The walk frees the graph as it goes: before a node's
backward runs, the walk takes its closure and .grad into locals, drops
the node's links to its parents and, for an interior node, its .grad,
and then its own reference to the node. By then every consumer of the
node has run, so a node nothing outside the tape holds is freed, output
array included, before its backward allocates (a closure must not keep
its own output alive for that; lstm_cell_seq's keeps none). Only the
leaves (tensors made with requires_grad=True) and the root keep a
gradient after backward() returns; an interior node the caller holds
keeps its .data.

The tape copies no gradient. _accum stores the first array it is handed
for a tensor as that tensor's .grad, so tensors may share one array (both
operands of an add get the same one). That is safe because every backward
hands _accum a fresh array or a view of its own incoming g, and nothing
writes into a gradient in place: a second gradient rebinds .grad to
.grad + g, and the optimizer only reads .grad.

float32 is the production dtype; tests run the same graph in float64 for
finite-difference comparisons. A Python or 0-d scalar operand of add, sub
or mul takes the dtype of the Tensor it meets, so `x + 1e-8` or `2.0 * x`
stays in x's dtype instead of promoting a float32 graph to float64.
"""

from __future__ import annotations

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    # -- graph machinery -----------------------------------------------------

    def backward(self):
        """Backpropagate from this tensor. Only scalar roots are allowed.
        Each node is popped off the order and released before its backward
        runs: its graph links are dropped, an interior node's .grad is
        dropped (its backward gets the array from a local), and the walk
        lets go of the node, so leaves and this root keep their .grad and
        an output nothing else holds is freed before its backward
        allocates."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar tensor, got shape {self.data.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            fn, g = node._backward, node.grad
            node._backward = None
            node._parents = ()
            if fn is not None and node is not self:
                node.grad = None
            # every consumer of the node has run, so an output nothing
            # else holds is freed here, before its backward allocates
            node = None
            if fn is not None and g is not None:
                fn(g)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)


def as_tensor(x, dtype=None) -> Tensor:
    """x itself if it is a Tensor, else a constant Tensor of x, cast to
    dtype when one is given."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x if dtype is None else np.asarray(x, dtype=dtype))


def _operands(a, b):
    """(a, b) as Tensors for a binary op. A Python or 0-d scalar that is
    not a Tensor takes the other operand's dtype when that one is a
    Tensor, so constants never promote the graph."""
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.ndim(a) == 0:
        return as_tensor(a, b.dtype), b
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.ndim(b) == 0:
        return a, as_tensor(b, a.dtype)
    return as_tensor(a), as_tensor(b)


def _topo_order(root: Tensor):
    """Iterative post-order over tensors that participate in gradients."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        nid = id(node)
        if children_done:
            order.append(node)
            continue
        if nid in seen or not node.requires_grad:
            continue
        seen.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray):
    """Add g to t.grad, taking ownership of g: the first gradient becomes
    t.grad itself, with no copy, and a later one rebinds t.grad to
    t.grad + g. g must be a fresh array or a view of the calling backward's
    own incoming gradient, and no one may write into it afterwards; the
    module docstring gives the contract."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def records(parents) -> bool:
    """Whether make_node records a node with these parents on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def make_node(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Build a graph node. Falls back to a constant when grads are off."""
    out = Tensor(data)
    if records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to the given broadcast-source shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, unbroadcast(g, a.data.shape))
        _accum(b, unbroadcast(g, b.data.shape))

    return make_node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, unbroadcast(g, a.data.shape))
        _accum(b, unbroadcast(-g, b.data.shape))

    return make_node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def backward(g):
        # a constant operand, such as the mixture a mask multiplies, gets none
        if a.requires_grad:
            _accum(a, unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, unbroadcast(g * a.data, b.data.shape))

    return make_node(out_data, (a, b), backward)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a python scalar exponent."""
    a = as_tensor(a)
    p = float(p)
    out_data = a.data**p

    def backward(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return make_node(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0))

    return make_node(out_data, (a,), backward)


MAGNITUDE_EPS = 1e-12


def magnitude(re, im) -> Tensor:
    """sqrt(re^2 + im^2) with the gradient zeroed where the magnitude
    is below MAGNITUDE_EPS (the singular point of the square root)."""
    re, im = as_tensor(re), as_tensor(im)
    m = np.sqrt(re.data * re.data + im.data * im.data)

    def backward(g):
        safe = np.where(m > MAGNITUDE_EPS, m, 1.0)
        live = (m > MAGNITUDE_EPS).astype(m.dtype)
        _accum(re, g * live * re.data / safe)
        _accum(im, g * live * im.data / safe)

    return make_node(m, (re, im), backward)


# -- shape ops -----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return make_node(out_data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def backward(g):
        _accum(a, np.transpose(g, inv))

    return make_node(out_data, (a,), backward)


def take(a, key) -> Tensor:
    """Basic slicing. Every selected element must be selected at most once
    (true for all basic slices), so the backward scatter is an assignment."""
    a = as_tensor(a)
    out_data = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        _accum(a, buf)

    return make_node(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(lo), int(hi))
            _accum(t, g[tuple(idx)])

    return make_node(out_data, tuple(tensors), backward)


# -- reductions ------------------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return make_node(out_data, (a,), backward)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis)
    denom = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        scale = 1.0 / denom
        if axis is None:
            _accum(a, np.broadcast_to(g * scale, a.data.shape).copy())
        else:
            _accum(
                a,
                np.broadcast_to(np.expand_dims(g * scale, axis), a.data.shape).copy(),
            )

    return make_node(out_data, (a,), backward)
