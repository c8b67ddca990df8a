"""NN layer contracts: linear, layer norm, embedding, convs, BLSTM, and the
multi-head attention (masked self-attention and cross-attention over hint
embeddings)."""

import numpy as np
import pytest

from conftest import assert_grads_close, check_gradient, random_tensor
from hintasr import tensor as tz
from hintasr.layers import (
    AttentionWeights,
    LstmCellWeights,
    blstm_encode,
    linear_forward,
    multi_head_attention,
)
from hintasr.tensor import (NEG_CAP, ContractError, GradTape, ShapeError, Tensor, backward,
                             finite_diff_grad)


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = linear_forward(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.array, x.array)

    def test_sum_with_negative_bias(self):
        out = linear_forward(Tensor([1.0, 1.0]), Tensor([[1.0], [1.0]]), Tensor([-2.0]))
        assert out.array.tolist() == [0.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear_forward(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradient(self, rng):
        w = random_tensor(rng, (4, 3))
        x = random_tensor(rng, (2, 4), requires_grad=False)
        b = random_tensor(rng, (3,), requires_grad=False)
        check_gradient(lambda t: tz.sum_all(tz.tanh(linear_forward(x, t, b))), w,
                       rtol=1e-6, atol=1e-9, what="linear w")


class TestLayerNorm:
    def test_constant_slice_collapses_to_beta(self):
        out = tz.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                            1e-5)
        assert np.abs(out.array).max() < 1e-8

    def test_already_normalized(self):
        out = tz.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-5)
        assert np.allclose(out.array, [1.0, -1.0], atol=1e-5)

    def test_random_slice_stats(self, rng):
        x = random_tensor(rng, (4, 16), requires_grad=False)
        out = tz.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)), 1e-5).array
        assert np.abs(out.mean(axis=-1)).max() <= 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4


class TestEmbedding:
    def test_first_row(self, rng):
        table = random_tensor(rng, (5, 3), requires_grad=False)
        out = tz.take_rows(table, [0])
        assert np.array_equal(out.array[0], table.array[0])

    def test_duplicate_ids_accumulate_grad(self, rng):
        table = random_tensor(rng, (5, 3))
        with GradTape() as tape:
            out = tz.take_rows(table, [2, 2])
            backward(tape, tz.sum_all(out))
        g = table.grad_array()
        assert np.array_equal(g[2], 2 * np.ones(3))
        assert np.array_equal(np.delete(g, 2, axis=0), np.zeros((4, 3)))

    def test_out_of_range_names_id(self, rng):
        table = random_tensor(rng, (5, 3), requires_grad=False)
        with pytest.raises(IndexError, match="7"):
            tz.take_rows(table, [1, 7])

    def test_gradient(self, rng):
        table = random_tensor(rng, (6, 4))
        w = Tensor(rng.uniform(-1, 1, size=(3, 4)))
        check_gradient(lambda t: tz.sum_all(tz.mul(tz.take_rows(t, [1, 4, 1]), w)),
                       table, what="embedding")


class TestCausalConv:
    def test_kernel1_identity_mapping(self, rng):
        x = random_tensor(rng, (5, 3), requires_grad=False)
        kernel = Tensor(np.eye(3)[None, :, :])
        out = tz.causal_conv1d(x, kernel, Tensor(np.zeros(3)))
        assert np.allclose(out.array, x.array, atol=1e-15)

    def test_impulse_response_reproduces_taps(self, rng):
        # single-channel impulse at t=0 reads out kernel taps in causal order
        k = 3
        taps = rng.uniform(-1, 1, size=k)
        kernel = Tensor(taps.reshape(k, 1, 1))
        x = np.zeros((6, 1))
        x[0, 0] = 1.0
        out = tz.causal_conv1d(Tensor(x), kernel, Tensor(np.zeros(1))).array[:, 0]
        # out[t] = sum_j x[t-k+1+j] * taps[j] -> impulse picks taps reversed in time
        assert np.allclose(out[:k], taps[::-1], atol=1e-15)
        assert np.abs(out[k:]).max() == 0.0

    def test_causality_bit_identical(self, rng):
        x = rng.uniform(-1, 1, size=(7, 4))
        kernel = random_tensor(rng, (3, 4, 2), requires_grad=False)
        bias = random_tensor(rng, (2,), requires_grad=False)
        base = tz.causal_conv1d(Tensor(x), kernel, bias).array
        t0 = 4
        pert = x.copy()
        pert[t0:] += rng.uniform(0.5, 1.0, size=pert[t0:].shape)
        out = tz.causal_conv1d(Tensor(pert), kernel, bias).array
        assert np.array_equal(base[:t0], out[:t0])
        assert not np.array_equal(base[t0:], out[t0:])


def _cell(rng, input_dim, hidden):
    w_ih = random_tensor(rng, (4 * hidden, input_dim), lo=-0.5, hi=0.5)
    w_hh = random_tensor(rng, (4 * hidden, hidden), lo=-0.5, hi=0.5)
    b = Tensor(np.zeros(4 * hidden), requires_grad=True)
    b.data.reshape(4 * hidden)[hidden: 2 * hidden] = 1.0
    return LstmCellWeights(w_ih, w_hh, b)


class TestBlstm:
    def test_single_step_uses_both_directions(self, rng):
        fwd = _cell(rng, 3, 2)
        bwd = _cell(rng, 3, 2)
        seq = random_tensor(rng, (1, 3), requires_grad=False)
        out = blstm_encode(seq, fwd, bwd)
        assert out.shape == (4,)

    def test_zero_everything_gives_zero(self):
        z = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
        fwd = LstmCellWeights(z((8, 3)), z((8, 2)), z((8,)))
        bwd = LstmCellWeights(z((8, 3)), z((8, 2)), z((8,)))
        out = blstm_encode(Tensor(np.zeros((4, 3))), fwd, bwd)
        assert np.abs(out.array).max() == 0.0

    def test_empty_sequence_rejected(self, rng):
        fwd = _cell(rng, 3, 2)
        bwd = _cell(rng, 3, 2)
        with pytest.raises(ContractError):
            blstm_encode(Tensor(np.zeros((0, 3))), fwd, bwd)

    def test_sensitive_to_every_step(self, rng):
        layers_f = [_cell(rng, 3, 2), _cell(rng, 4, 2)]
        layers_b = [_cell(rng, 3, 2), _cell(rng, 4, 2)]
        seq = rng.uniform(-1, 1, size=(4, 3))
        base = blstm_encode(Tensor(seq), layers_f, layers_b).array
        for t in range(4):
            pert = seq.copy()
            pert[t] += 0.7
            out = blstm_encode(Tensor(pert), layers_f, layers_b).array
            assert np.abs(out - base).max() > 1e-9, f"step {t} did not affect output"

    def test_two_layer_gradient(self, rng):
        layers_f = [_cell(rng, 3, 2), _cell(rng, 4, 2)]
        layers_b = [_cell(rng, 3, 2), _cell(rng, 4, 2)]
        seq = random_tensor(rng, (3, 3))
        w = Tensor(rng.uniform(-1, 1, size=(4,)))
        check_gradient(lambda t: tz.sum_all(tz.mul(blstm_encode(t, layers_f, layers_b), w)),
                       seq, what="blstm seq")
        target = layers_f[0].w_ih

        def f_param(t):
            old = target.data.copy()
            target.data[:] = t.data
            try:
                return tz.sum_all(tz.mul(blstm_encode(seq, layers_f, layers_b), w))
            finally:
                target.data[:] = old

        target.zero_grad()  # grads accumulate additively across backward calls
        with GradTape() as tape:
            backward(tape, tz.sum_all(tz.mul(blstm_encode(seq, layers_f, layers_b), w)))
        fd = finite_diff_grad(f_param, Tensor(target.numpy()))
        assert_grads_close(target.grad, fd.data, what="blstm w_ih")


def _attention(rng, model_dim, heads):
    hd = model_dim // heads
    mk = lambda: random_tensor(rng, (model_dim, hd), lo=-0.7, hi=0.7)
    return AttentionWeights(
        w_q=[mk() for _ in range(heads)],
        w_k=[mk() for _ in range(heads)],
        w_v=[mk() for _ in range(heads)],
        num_heads=heads, head_dim=hd)


class TestCrossAttention:
    def test_single_key_ignores_query(self, rng):
        w = _attention(rng, 4, 2)
        k = random_tensor(rng, (1, 4), requires_grad=False)
        q1 = random_tensor(rng, (3, 4), requires_grad=False)
        q2 = random_tensor(rng, (3, 4), requires_grad=False)
        o1 = multi_head_attention(q1, k, w).array
        o2 = multi_head_attention(q2, k, w).array
        expected = np.concatenate([k.array @ w.w_v[h].array for h in range(2)], axis=-1)
        assert np.allclose(o1, o2, atol=1e-12)
        assert np.allclose(o1, np.tile(expected, (3, 1)), atol=1e-12)

    def test_zero_qk_gives_uniform_attention(self, rng):
        heads = 2
        hd = 2
        zeros = Tensor(np.zeros((4, hd)), requires_grad=False)
        w = AttentionWeights(
            w_q=[zeros, zeros], w_k=[zeros, zeros],
            w_v=[random_tensor(rng, (4, hd), requires_grad=False) for _ in range(heads)],
            num_heads=heads, head_dim=hd)
        q = random_tensor(rng, (3, 4), requires_grad=False)
        k = random_tensor(rng, (5, 4), requires_grad=False)
        out = multi_head_attention(q, k, w).array
        expected = np.concatenate(
            [np.tile((k.array @ w.w_v[h].array).mean(axis=0), (3, 1)) for h in range(heads)], axis=-1)
        assert np.allclose(out, expected, atol=1e-12)

    def test_empty_keys_rejected(self, rng):
        w = _attention(rng, 4, 2)
        with pytest.raises(ContractError):
            multi_head_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))), w)

    def test_key_permutation_invariance(self, rng):
        w = _attention(rng, 6, 2)
        q = random_tensor(rng, (4, 6), requires_grad=False)
        k = random_tensor(rng, (5, 6), requires_grad=False)
        base = multi_head_attention(q, k, w).array
        perm = rng.permutation(5)
        out = multi_head_attention(q, Tensor(k.array[perm]), w).array
        assert np.abs(out - base).max() <= 1e-12

    def test_matches_hand_formula(self, rng):
        # direct numpy transcription of the attention expression, including
        # the 1/sqrt(head_dim) score scale, the additive mask applied after
        # that scale, and concat-without-projection
        w = _attention(rng, 4, 2)
        q = random_tensor(rng, (3, 4), requires_grad=False)
        k = random_tensor(rng, (5, 4), requires_grad=False)
        mask = rng.uniform(-1, 1, size=(3, 5))
        mask[np.triu_indices(3, k=1)] = NEG_CAP  # hide some keys from some queries
        for m in (None, mask):
            out = multi_head_attention(q, k, w, None if m is None else Tensor(m)).array
            parts = []
            for h in range(2):
                qh = q.array @ w.w_q[h].array
                kh = k.array @ w.w_k[h].array
                vh = k.array @ w.w_v[h].array
                s = qh @ kh.T / np.sqrt(w.head_dim) + (0.0 if m is None else m)
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                parts.append((e / e.sum(axis=-1, keepdims=True)) @ vh)
            assert np.allclose(out, np.concatenate(parts, axis=-1), atol=1e-13)

    def test_row_stochastic_scores(self, rng):
        # scores exposed indirectly: attention of a one-hot value basis recovers rows
        w = _attention(rng, 4, 2)
        q = random_tensor(rng, (2, 4), requires_grad=False)
        k = random_tensor(rng, (3, 4), requires_grad=False)
        hd = w.head_dim
        for h in range(w.num_heads):
            qh = q.array @ w.w_q[h].array
            kh = k.array @ w.w_k[h].array
            scores = qh @ kh.T / np.sqrt(hd)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            rows = e / e.sum(axis=-1, keepdims=True)
            assert np.abs(rows.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_gradient_through_attention(self, rng):
        w = _attention(rng, 4, 2)
        q = random_tensor(rng, (2, 4))
        k = random_tensor(rng, (3, 4))
        probe = Tensor(rng.uniform(-1, 1, size=(2, 4)))
        check_gradient(lambda t: tz.sum_all(tz.mul(multi_head_attention(t, k, w), probe)),
                       q, what="attention q")
        check_gradient(lambda t: tz.sum_all(tz.mul(multi_head_attention(q, t, w), probe)),
                       k, what="attention k")
        wq0 = w.w_q[0]

        def f_param(t):
            old = wq0.data.copy()
            wq0.data[:] = t.data
            try:
                return tz.sum_all(tz.mul(multi_head_attention(q, k, w), probe))
            finally:
                wq0.data[:] = old

        wq0.zero_grad()  # grads accumulate additively across backward calls
        with GradTape() as tape:
            backward(tape, tz.sum_all(tz.mul(multi_head_attention(q, k, w), probe)))
        fd = finite_diff_grad(f_param, Tensor(wq0.numpy()))
        assert_grads_close(wq0.grad, fd.data, what="attention wq")

    def test_head_geometry_validated(self, rng):
        with pytest.raises(ShapeError):
            AttentionWeights(w_q=[Tensor(np.zeros((4, 3)))], w_k=[Tensor(np.zeros((4, 3)))],
                             w_v=[Tensor(np.zeros((4, 3)))], num_heads=1, head_dim=3)
