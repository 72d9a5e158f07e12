"""Reverse-mode engine: per-op gradients against central differences,
plus graph mechanics (accumulation, broadcasting, no_grad, reuse)."""

import gc
import weakref

import numpy as np
import pytest

from mcse.tensor import Tensor, _accum, concat, magnitude, make_node, no_grad, relu, take

from gradcheck import check_grads

rng = np.random.default_rng(42)


def r(*shape):
    return rng.standard_normal(shape)


class TestOpGradients:
    def test_add(self):
        check_grads(lambda a, b: (a + b).sum(), [r(3, 4), r(3, 4)])

    def test_add_broadcast(self):
        check_grads(lambda a, b: (a + b).sum(), [r(3, 4), r(4)])

    def test_add_scalar_broadcast(self):
        check_grads(lambda a, b: (a + b).sum(), [r(2, 3, 4), r(1)])

    def test_sub(self):
        check_grads(lambda a, b: (a - b).sum(), [r(5), r(5)])

    def test_mul(self):
        check_grads(lambda a, b: (a * b).sum(), [r(3, 4), r(3, 4)])

    def test_mul_broadcast(self):
        check_grads(lambda a, b: (a * b).sum(), [r(2, 3, 4), r(3, 1)])

    def test_power(self):
        # keep the base away from 0 where x**1.5 has unbounded curvature
        base = np.abs(r(3, 3)) + 0.5
        check_grads(lambda a: (a ** 3).sum(), [base])
        check_grads(lambda a: (a ** -0.5).sum(), [base])

    def test_relu(self):
        # nudge values off 0 so the FD probe never straddles the kink
        x = r(4, 4)
        x[np.abs(x) < 1e-3] += 0.1
        check_grads(lambda a: relu(a).sum(), [x])

    def test_magnitude(self):
        re, im = r(3, 4), r(3, 4)
        check_grads(lambda a, b: magnitude(a, b).sum(), [re, im])

    def test_magnitude_zero_bin_gradient_is_zero(self):
        re = Tensor(np.zeros((2, 2)), requires_grad=True)
        im = Tensor(np.zeros((2, 2)), requires_grad=True)
        magnitude(re, im).sum().backward()
        assert np.all(re.grad == 0.0)
        assert np.all(im.grad == 0.0)

    def test_reshape(self):
        check_grads(lambda a: (a.reshape(6, 2) ** 2).sum(), [r(3, 4)])

    def test_transpose(self):
        w = r(3, 2, 4)
        check_grads(lambda a: (a.transpose(1, 0, 2) * w).sum(), [r(2, 3, 4)])

    def test_take_slice(self):
        check_grads(lambda a: (a[1:3, ::2] ** 2).sum(), [r(4, 6)])

    def test_take_strided_reverse(self):
        w = r(3, 5)
        check_grads(lambda a: (a[:, ::-1] * w).sum(), [r(3, 5)])

    def test_concat(self):
        w = r(2, 7)
        check_grads(
            lambda a, b: (concat([a, b], axis=1) * w).sum(),
            [r(2, 3), r(2, 4)],
        )

    def test_sum_axis(self):
        w = r(4)
        check_grads(lambda a: (a.sum(axis=0) * w).sum(), [r(3, 4)])

    def test_mean(self):
        check_grads(lambda a: a.mean(), [r(3, 4)])

    def test_mean_axis(self):
        check_grads(lambda a: (a.mean(axis=1) ** 2).sum(), [r(3, 4)])

    def test_composed_expression(self):
        def loss(a, b, c):
            h = relu((a.reshape(4, 3, 1) * b).sum(axis=1) + c)  # a b + c, by broadcast
            return (h * h).mean()

        check_grads(loss, [r(4, 3), r(3, 6), r(6)], rtol=1e-3)


class TestGraphMechanics:
    def test_value_reused_twice_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = (x * x + x).sum()  # d/dx = 2x + 1
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0, 7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(r(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_blocks_taping(self):
        x = Tensor(r(3), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        (x * x).sum().backward()  # taping resumes on exit
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_no_grad_restored_after_exception(self):
        x = Tensor(r(3), requires_grad=True)
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(r(3), requires_grad=True)
        c = Tensor(r(3))
        (x * c).sum().backward()
        assert c.grad is None

    @pytest.mark.parametrize("const", [0, 1])
    def test_constant_mul_operand_gets_no_gradient(self, const):
        """The live operand's gradient has the bytes it has when both are
        live; the constant one gets none."""
        a, b, g = r(3, 4), r(3, 4), r(3, 4)

        def grads(both):
            ts = [Tensor(v, requires_grad=both or k != const) for k, v in enumerate((a, b))]
            (ts[0] * ts[1] * Tensor(g)).sum().backward()
            return [t.grad for t in ts]

        got, want = grads(False), grads(True)
        assert got[const] is None
        assert got[1 - const].tobytes() == want[1 - const].tobytes()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_float_dtype_preserved(self):
        x64 = Tensor(np.zeros(2, dtype=np.float64))
        x32 = Tensor(np.zeros(2, dtype=np.float32))
        assert x64.data.dtype == np.float64
        assert x32.data.dtype == np.float32

    def test_int_input_promoted_to_float(self):
        x = Tensor(np.arange(3))
        assert x.data.dtype == np.float32

    def test_diamond_graph(self):
        # x feeds two paths that rejoin; gradient is the sum of both
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).sum().backward()  # d/dx 6x^2 = 12x
        np.testing.assert_allclose(x.grad, [18.0])

    def test_unbroadcast_keepdims_axis(self):
        # (3,1) broadcast against (3,4): grad must fold back to (3,1)
        a = Tensor(r(3, 1), requires_grad=True)
        b = Tensor(r(3, 4))
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        np.testing.assert_allclose(a.grad, b.data.sum(axis=1, keepdims=True))


class TestScalarDtype:
    """A Python or 0-d scalar operand takes the dtype of the Tensor it meets."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scalar", [0.5, 2, np.float64(0.5), np.array(0.5), np.float32(0.5)],
                             ids=["float", "int", "np.float64", "0-d", "np.float32"])
    def test_scalar_takes_tensor_dtype(self, dtype, scalar):
        x = Tensor(np.arange(3, dtype=dtype), requires_grad=True)
        outs = [x + scalar, scalar + x, x - scalar, scalar - x, x * scalar, scalar * x, -x]
        assert [o.dtype for o in outs] == [dtype] * len(outs)
        sum(o.sum() for o in outs).backward()
        assert x.grad.dtype == dtype

    def test_values_match_numpy(self):
        x = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        np.testing.assert_array_equal((1e-8 + x).data, x.data + np.float32(1e-8))
        np.testing.assert_array_equal((3.0 - x).data, np.float32(3.0) - x.data)

    def test_tensor_operands_promote_as_numpy(self):
        x32 = Tensor(np.ones(2, dtype=np.float32))
        x64 = Tensor(np.ones(2, dtype=np.float64))
        assert (x32 + x64).dtype == np.float64
        assert (x32 * np.ones(2)).dtype == np.float64  # arrays are not scalars


class TestTapeFreeing:
    def test_only_leaves_and_root_keep_grads(self):
        x = Tensor(r(3), requires_grad=True)
        w = Tensor(r(3), requires_grad=True)
        h = x * w
        y = relu(h) + h
        loss = y.sum()
        loss.backward()
        assert h.grad is None and y.grad is None
        np.testing.assert_array_equal(loss.grad, 1.0)
        np.testing.assert_allclose(x.grad, w.data * ((h.data > 0) + 1.0))
        np.testing.assert_allclose(w.grad, x.data * ((h.data > 0) + 1.0))

    def test_interior_node_dies_during_the_walk(self):
        """The walk runs loss, then b, then a: by the time a's backward
        runs, b, which nothing outside the tape holds, is collected."""
        x = Tensor(r(3), requires_grad=True)
        seen = []

        def a_backward(g):
            gc.collect()
            seen.append(b_ref())
            _accum(x, g)

        a = make_node(x.data.copy(), (x,), a_backward)
        b = a * 3.0
        b_ref = weakref.ref(b)
        loss = b.sum()
        del b
        assert b_ref() is not None
        loss.backward()
        assert seen == [None]
        np.testing.assert_array_equal(x.grad, 3.0)

    def test_node_is_gone_when_its_backward_runs(self):
        """The walk drops its own reference to a node before running the
        node's backward, so an output nothing else holds, its data
        included, is freed before the backward allocates; no collection
        is needed."""
        x = Tensor(r(3), requires_grad=True)
        seen = []

        def backward(g):
            seen.append((out_ref(), data_ref()))
            _accum(x, g * 2.0)

        out = make_node(x.data * 2.0, (x,), backward)
        out_ref, data_ref = weakref.ref(out), weakref.ref(out.data)
        loss = out.sum()
        del out
        loss.backward()
        assert seen == [(None, None)]
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_held_interior_node_keeps_its_data(self):
        """An interior node the caller holds loses its links and .grad in
        the walk, but keeps .data: the training loop reads loss.item()
        after backward() on a scaled copy of it."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (x * x).sum()
        (loss * 0.5).backward()
        assert loss.item() == 5.0
        assert loss.grad is None and loss._parents == () and loss._backward is None
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])


class TestTapeOwnership:
    """_accum stores the first gradient it is handed as the tensor's .grad,
    with no copy; tensors may then share one array, which is safe only
    while nothing writes into a gradient in place."""

    def test_backward_array_becomes_the_leaf_grad(self):
        x = Tensor(r(3), requires_grad=True)
        handed = []

        def backward(g):
            handed.append(g * 2.0)
            _accum(x, handed[0])

        make_node(x.data * 2.0, (x,), backward).sum().backward()
        assert x.grad is handed[0]

    def test_rebinding_one_leaf_leaves_a_sharer_alone(self):
        """add hands both operands the same array; the second backward
        rebinds each leaf's gradient instead of adding into the shared one,
        which would leave the other leaf at 3."""
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is b.grad
        (a + b).sum().backward()
        assert a.grad is not b.grad
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    # each op of tensor.py, as a function of two (3, 4) inputs
    OPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "power": lambda a, b: (a * a + 1.0) ** 1.5,
        "relu": lambda a, b: relu(a),
        "magnitude": lambda a, b: magnitude(a, b),
        "reshape": lambda a, b: a.reshape(4, 3),
        "transpose": lambda a, b: a.transpose(1, 0),
        "take": lambda a, b: a[1:, ::-2],
        "concat": lambda a, b: concat([a, b, a], axis=1),
        "sum": lambda a, b: a.sum(),
        "sum_axis": lambda a, b: b.sum(axis=0),
        "mean": lambda a, b: a.mean(),
        "mean_axis": lambda a, b: b.mean(axis=1),
    }

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_with_shared_gradients(self, op):
        """Each op's output feeds two nodes and each input feeds the op and
        a node of its own, so every gradient that is handed on as a view
        is later summed with another by rebinding."""
        f = self.OPS[op]

        def loss(a, b):
            y = f(a, b)
            w = np.cos(np.arange(y.size)).reshape(y.shape)
            return (y * w).sum() + (y * y).sum() + (a * b).sum() + b.sum()

        a, b = r(3, 4), r(3, 4)
        a[np.abs(a) < 1e-3] += 0.1  # off relu's kink
        check_grads(loss, [a, b])
