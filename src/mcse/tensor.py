"""Reverse-mode automatic differentiation on dense numpy arrays.

A Tensor wraps an ndarray and records the operations applied to it in a
define-by-run graph. Calling backward() on a scalar result walks the graph
in reverse topological order and accumulates gradients into every tensor
that requires them. float32 is the production dtype; tests run the same
graph in float64 for finite-difference comparisons.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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
        The graph is freed as it is walked."""
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar tensor, got shape {self.data.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward
            if fn is not None and node.grad is not None:
                fn(node.grad)
            node._backward = None
            node._parents = ()

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

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
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, copy=True)
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
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, unbroadcast(g, a.data.shape))
        _accum(b, unbroadcast(g, b.data.shape))

    return make_node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, unbroadcast(g, a.data.shape))
        _accum(b, unbroadcast(-g, b.data.shape))

    return make_node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, unbroadcast(g * b.data, a.data.shape))
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


def magnitude(re, im, eps: float = 1e-12) -> Tensor:
    """sqrt(re^2 + im^2) with the gradient zeroed where the magnitude
    is below eps (the singular point of the square root)."""
    re, im = as_tensor(re), as_tensor(im)
    m = np.sqrt(re.data * re.data + im.data * im.data)

    def backward(g):
        safe = np.where(m > eps, m, 1.0)
        live = (m > eps).astype(m.dtype)
        _accum(re, g * live * re.data / safe)
        _accum(im, g * live * im.data / safe)

    return make_node(m, (re, im), backward)


# -- linear algebra ------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, unbroadcast(ga, a.data.shape))
        _accum(b, unbroadcast(gb, b.data.shape))

    return make_node(out_data, (a, b), backward)


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
