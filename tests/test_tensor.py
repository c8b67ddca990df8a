"""Core tensor engine: op semantics, tape structure, gradient checks."""

import math

import numpy as np
import pytest

from conftest import assert_grads_close, check_gradient, random_tensor
from hintasr import tensor as tz
from hintasr.tensor import (
    ContractError,
    GradTape,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
)


class TestTensorBasics:
    def test_flat_storage_row_major(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert t.size == 4

    def test_shape_data_invariant(self):
        with pytest.raises(ShapeError):
            Tensor.from_flat(np.zeros(5), (2, 2))

    def test_no_grad_without_requires(self):
        x = Tensor([[1.0, 2.0]])
        y = random_tensor(np.random.default_rng(0), (2, 3))
        with GradTape() as tape:
            out = tz.sum_all(tz.matmul(x, y))
            backward(tape, out)
        assert x.grad is None
        assert y.grad is not None


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(tz.matmul(a, b).array, b.array)

    def test_projector_row_selection(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert tz.matmul(p, m).array.tolist() == [[5.0, 6.0], [0.0, 0.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            tz.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_grad_of_sum_is_row_sums_of_b(self, rng):
        # d sum(A@B) / dA[i,k] = sum_j B[k,j]
        a = random_tensor(rng, (3, 4))
        b = random_tensor(rng, (4, 2), requires_grad=False)
        with GradTape() as tape:
            out = tz.sum_all(tz.matmul(a, b))
            backward(tape, out)
        expected = np.tile(b.array.sum(axis=1), (3, 1))
        assert_grads_close(a.grad_array(), expected, what="matmul row-sum")
        fd = finite_diff_grad(lambda x: tz.sum_all(tz.matmul(x, b)), a)
        assert_grads_close(a.grad, fd.data, what="matmul vs fd")

    def test_grad_wrt_b(self, rng):
        a = random_tensor(rng, (3, 4), requires_grad=False)
        b = random_tensor(rng, (4, 2))
        check_gradient(lambda x: tz.sum_all(tz.tanh(tz.matmul(a, x))), b, what="matmul b")


class TestSoftmax:
    def test_uniform_input(self):
        y = tz.softmax_last(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(y.array, [1 / 3] * 3, atol=1e-15)

    def test_max_subtraction_prevents_overflow(self):
        y = tz.softmax_last(Tensor([1000.0, 1000.0]))
        assert np.allclose(y.array, [0.5, 0.5], atol=1e-15)

    def test_hand_value(self):
        # e^0 / (e^0 + e^ln3) = 1/4
        y = tz.softmax_last(Tensor([0.0, math.log(3.0)]))
        assert np.allclose(y.array, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one_and_nonnegative(self, rng):
        x = random_tensor(rng, (5, 7), requires_grad=False, lo=-4, hi=4)
        y = tz.softmax_last(x).array
        assert (y >= 0).all()
        assert np.abs(y.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_nonfinite_input_raises(self):
        with pytest.raises(FloatingPointError):
            tz.softmax_last(Tensor([np.inf, 0.0]))

    def test_gradient(self, rng):
        x = random_tensor(rng, (3, 5))
        check_gradient(lambda t: tz.sum_all(tz.mul(tz.softmax_last(t), t)), x,
                       what="softmax_last")


class TestBackward:
    def test_sum_grad_is_ones(self, rng):
        x = random_tensor(rng, (3, 4))
        with GradTape() as tape:
            backward(tape, tz.sum_all(x))
        assert np.array_equal(x.grad_array(), np.ones((3, 4)))

    def test_square_grad(self, rng):
        x = random_tensor(rng, (5,))
        with GradTape() as tape:
            backward(tape, tz.sum_all(tz.mul(x, x)))
        assert_grads_close(x.grad_array(), 2 * x.array, what="x*x")

    def test_root_must_be_scalar(self, rng):
        x = random_tensor(rng, (3,))
        with GradTape() as tape:
            y = tz.mul(x, x)
            with pytest.raises(ContractError):
                backward(tape, y)

    def test_root_must_be_on_tape(self):
        x = random_tensor(np.random.default_rng(0), (3,))
        tape = GradTape()
        with pytest.raises(ContractError):
            backward(tape, x)

    def test_fanout_accumulates(self, rng):
        x = random_tensor(rng, (4,))
        with GradTape() as tape:
            y = tz.add(tz.sum_all(x), tz.sum_all(x))
            backward(tape, y)
        assert np.array_equal(x.grad_array(), 2 * np.ones(4))

    def test_tape_topological_invariant(self, rng):
        x = random_tensor(rng, (3, 3))
        with GradTape() as tape:
            y = tz.matmul(x, x)
            z = tz.sum_all(tz.tanh(y))
            backward(tape, z)
        for node_id, node in enumerate(tape.nodes):
            for inp in node.inputs:
                if inp.tape_id is not None:
                    assert inp.tape_id < node_id

    def test_replay_deterministic(self):
        def run():
            rng = np.random.default_rng(99)
            x = random_tensor(rng, (4, 4))
            w = random_tensor(rng, (4, 4))
            with GradTape() as tape:
                out = tz.sum_all(tz.softmax_last(tz.matmul(x, w)))
                backward(tape, out)
            return out.item(), x.grad.copy(), w.grad.copy()

        v1, g1, h1 = run()
        v2, g2, h2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)
        assert np.array_equal(h1, h2)


class TestFiniteDiff:
    def test_sum(self, rng):
        x = random_tensor(rng, (3, 2), requires_grad=False)
        g = finite_diff_grad(lambda t: tz.sum_all(t), x)
        assert np.abs(g.array - 1.0).max() <= 1e-9

    def test_square_scalar(self):
        g = finite_diff_grad(lambda t: tz.mul(t, t), Tensor(3.0))
        assert abs(g.item() - 6.0) <= 1e-8

    def test_positive_step_required(self):
        with pytest.raises(ContractError):
            finite_diff_grad(lambda t: tz.sum_all(t), Tensor([1.0]), h=0.0)

    def test_layer_norm_cross_check(self, rng):
        x = random_tensor(rng, (2, 6))
        gamma = Tensor(np.ones(6))
        beta = Tensor(np.zeros(6))

        def f(t):
            return tz.sum_all(tz.mul(tz.layer_norm(t, gamma, beta, 1e-5), t))

        with GradTape() as tape:
            backward(tape, f(x))
        fd = finite_diff_grad(f, x)
        assert_grads_close(x.grad, fd.data, rtol=1e-6, atol=1e-9, what="layer_norm fd")


OPS_UNDER_TEST = [
    ("add", lambda rng: _binary(rng, tz.add, (3, 4), (3, 4))),
    ("add_bias", lambda rng: _binary(rng, tz.add, (3, 4), (4,))),
    ("sub", lambda rng: _binary(rng, tz.sub, (2, 5), (2, 5))),
    ("mul", lambda rng: _binary(rng, tz.mul, (3, 4), (3, 4))),
    ("mul_bias", lambda rng: _binary(rng, tz.mul, (3, 4), (4,))),
    ("tanh", lambda rng: _unary(rng, tz.tanh, (4, 3))),
    ("sigmoid", lambda rng: _unary(rng, tz.sigmoid, (4, 3))),
    ("scale", lambda rng: _unary(rng, lambda t: tz.scale(t, -1.7), (4,))),
    ("neg", lambda rng: _unary(rng, tz.neg, (4,))),
    ("transpose", lambda rng: _unary(rng, tz.transpose, (3, 4))),
    ("reshape", lambda rng: _unary(rng, lambda t: tz.reshape(t, (2, 6)), (3, 4))),
    ("concat_last", lambda rng: _binary(rng, lambda a, b: tz.concat_last([a, b]), (3, 2), (3, 4))),
    ("concat_rows", lambda rng: _binary(rng, lambda a, b: tz.concat_rows([a, b]), (2, 3), (4, 3))),
    ("slice_rows", lambda rng: _unary(rng, lambda t: tz.slice_rows(t, 1, 3), (4, 3))),
    ("slice_cols", lambda rng: _unary(rng, lambda t: tz.slice_cols(t, 1, 3), (3, 4))),
    ("take_rows", lambda rng: _unary(rng, lambda t: tz.take_rows(t, [2, 0, 2]), (4, 3))),
    ("take_flat", lambda rng: _unary(rng, lambda t: tz.take_flat(t, [5, 1, 5, 0]), (2, 4))),
    ("repeat_rows", lambda rng: _unary(rng, lambda t: tz.repeat_rows(t, 3), (2, 3))),
    ("tile_rows", lambda rng: _unary(rng, lambda t: tz.tile_rows(t, 3), (2, 3))),
    ("shift1", lambda rng: _unary(rng, lambda t: tz.shift1(t, -1.0), (6,))),
    ("clamp_min", lambda rng: _unary(rng, lambda t: tz.clamp_min(t, 0.25), (3, 4))),
    ("logaddexp", lambda rng: _binary(rng, tz.logaddexp, (3, 4), (3, 4))),
    ("softmax_last", lambda rng: _unary(rng, tz.softmax_last, (3, 5))),
    ("log_softmax_last", lambda rng: _unary(rng, tz.log_softmax_last, (3, 5))),
    ("layer_norm", lambda rng: _layer_norm_case(rng)),
    ("causal_conv1d", lambda rng: _conv_case(rng)),
    ("depthwise_conv", lambda rng: _depthwise_case(rng)),
]


def _reduce_via_fixed_weight(op, x, rng):
    """Scalarize op(x) with a weight drawn once, so f is deterministic."""
    with tz.no_grad():
        probe = op(Tensor(x.numpy()))
    w = Tensor(rng.uniform(-1, 1, size=probe.shape))
    return lambda t: tz.sum_all(tz.mul(op(t), w))


def _unary(rng, op, shape):
    x = random_tensor(rng, shape)
    return x, _reduce_via_fixed_weight(op, x, rng)


def _binary(rng, op, sa, sb):
    which = rng.integers(0, 2)
    a = random_tensor(rng, sa, requires_grad=which == 0)
    b = random_tensor(rng, sb, requires_grad=which == 1)
    if which == 0:
        return a, _reduce_via_fixed_weight(lambda t: op(t, b), a, rng)
    return b, _reduce_via_fixed_weight(lambda t: op(a, t), b, rng)


def _layer_norm_case(rng):
    x = random_tensor(rng, (3, 6))
    gamma = random_tensor(rng, (6,), requires_grad=False, lo=0.5, hi=1.5)
    beta = random_tensor(rng, (6,), requires_grad=False)
    return x, _reduce_via_fixed_weight(lambda t: tz.layer_norm(t, gamma, beta, 1e-5), x, rng)


def _conv_case(rng):
    k = random_tensor(rng, (3, 4, 2))
    x = random_tensor(rng, (5, 4), requires_grad=False)
    b = random_tensor(rng, (2,), requires_grad=False)
    return k, _reduce_via_fixed_weight(lambda t: tz.causal_conv1d(x, t, b), k, rng)


def _depthwise_case(rng):
    x = random_tensor(rng, (5, 4))
    k = random_tensor(rng, (3, 4), requires_grad=False)
    b = random_tensor(rng, (4,), requires_grad=False)
    return x, _reduce_via_fixed_weight(lambda t: tz.depthwise_causal_conv1d(t, k, b), x, rng)


@pytest.mark.parametrize("name,case", OPS_UNDER_TEST, ids=[n for n, _ in OPS_UNDER_TEST])
def test_every_op_matches_finite_differences(name, case):
    # gradient contract: >= 20 random trials per op,
    # inputs in [-2, 2], rel err <= 1e-4 against h=1e-5 central differences
    trials = 20
    for trial in range(trials):
        rng = np.random.default_rng(1000 + 17 * trial)
        x, f = case(rng)
        check_gradient(f, x, what=f"{name} trial {trial}")
