"""Context transducer model: encoder, context encoders, predictor, joiner,
and the self-consistent loop's conformance to its stated control flow."""

import numpy as np
import pytest

from conftest import TINY, assert_grads_close, check_gradient, random_tensor
from hintasr import tensor as tz
from hintasr.layers import layer_norm
from hintasr.loss import transducer_nll
from hintasr.model import (
    ContextBatch,
    ModelConfig,
    ScDiagnostics,
    bias_and_combine,
    encode_audio,
    encode_context,
    fixed_point_bias_combiner,
    forward_grid,
    init_params,
    joiner_step,
    output_logits,
    param_shapes,
    predict_labels,
    run_sc_loop,
    self_consistent_joiner,
)
from hintasr.tensor import ContractError, GradTape, Tensor, backward, finite_diff_grad


@pytest.fixture
def cfg():
    return ModelConfig(**TINY)


@pytest.fixture
def params(cfg):
    return init_params(cfg, seed=11)


def zero_params(cfg):
    p = init_params(cfg, seed=0)
    for _, t in p.items():
        t.data[:] = 0.0
    return p


class TestConfig:
    def test_blank_fixed_at_zero(self):
        with pytest.raises(ContractError):
            ModelConfig(**{**TINY, "blank_id": 1})

    def test_head_divisibility(self):
        with pytest.raises(ContractError):
            ModelConfig(**{**TINY, "self_attention_heads": 3})

    def test_context_width_must_match_streams(self):
        with pytest.raises(ContractError):
            ModelConfig(**{**TINY, "context_dim": 3})

    def test_defaults_are_desk_scale(self):
        c = ModelConfig(vocab_size=29)
        assert (c.encoder_dim, c.feedforward_dim, c.joiner_dim) == (64, 128, 64)
        assert (c.self_attention_heads, c.cross_attention_heads) == (4, 2)
        assert (c.max_sc_iters, c.sc_threshold) == (3, 1e-6)
        assert c.context_layernorm_enabled and c.max_symbols_per_frame == 4


class TestParams:
    def test_shared_embedding_is_single_tensor(self, cfg, params):
        assert "shared_embedding" in params
        assert params["shared_embedding"].shape == (cfg.vocab_size, cfg.embed_dim)

    def test_two_context_sets_identical_shapes_independent_values(self, cfg, params):
        audio_names = sorted(n for n in params.names() if n.startswith("ctx_enc_audio"))
        joiner_names = sorted(n for n in params.names() if n.startswith("ctx_enc_joiner"))
        assert [n.split(".", 1)[1] for n in audio_names] == \
               [n.split(".", 1)[1] for n in joiner_names]
        diffs = [np.abs(params[a].array - params[b].array).max()
                 for a, b in zip(audio_names, joiner_names)
                 if params[a].size > 1 and not a.endswith((".ln.g", ".ln.b"))]
        assert max(diffs) > 0

    def test_forget_gate_bias_is_one(self, cfg, params):
        b = params["ctx_enc_audio.l0.fwd.b"].array
        h = cfg.context_dim
        assert np.array_equal(b[h: 2 * h], np.ones(h))
        assert np.array_equal(b[:h], np.zeros(h))


class TestEncodeAudio:
    def test_zero_weights_final_beta_gives_constant_rows(self, cfg, rng):
        p = zero_params(cfg)
        beta = rng.uniform(-1, 1, size=cfg.encoder_dim)
        p["encoder.layer0.final_ln.b"].data[:] = beta
        feats = random_tensor(rng, (4, cfg.feature_dim), requires_grad=False)
        out = encode_audio(feats, p, cfg).array
        assert np.allclose(out, np.tile(beta, (4, 1)), atol=1e-12)

    def test_causality_bit_identical(self, cfg, params, rng):
        feats = rng.uniform(-1, 1, size=(6, cfg.feature_dim))
        base = encode_audio(Tensor(feats), params, cfg).array
        t0 = 3
        pert = feats.copy()
        pert[t0:] += rng.uniform(0.5, 1.0, size=pert[t0:].shape)
        out = encode_audio(Tensor(pert), params, cfg).array
        assert np.array_equal(base[:t0], out[:t0])
        assert np.abs(base[t0:] - out[t0:]).max() > 0

    def test_gradient(self, cfg, params, rng):
        feats = random_tensor(rng, (3, cfg.feature_dim))
        probe = Tensor(rng.uniform(-1, 1, size=(3, cfg.encoder_dim)))
        check_gradient(lambda t: tz.sum_all(tz.mul(encode_audio(t, params, cfg), probe)),
                       feats, what="encode_audio")


class TestEncodeContext:
    def test_empty_hints_sentinel_only(self, cfg, params):
        ctx = encode_context([], params, cfg, side="audio")
        assert ctx.embeddings.shape == (1, cfg.encoder_dim)
        assert ctx.hints == []

    def test_identical_hints_identical_rows(self, cfg, params):
        ctx = encode_context([[1, 2, 3], [1, 2, 3]], params, cfg, side="joiner")
        rows = ctx.embeddings.array
        assert np.array_equal(rows[1], rows[2])

    def test_layer_norm_zeroes_row_means(self, cfg, params):
        ctx = encode_context([[1, 2], [4, 5, 6]], params, cfg, side="audio")
        means = ctx.embeddings.array.mean(axis=-1)
        assert np.abs(means[1:]).max() <= 1e-10

    def test_blank_in_hint_rejected(self, cfg, params):
        with pytest.raises(ContractError):
            encode_context([[1, 0, 2]], params, cfg, side="audio")

    def test_row_count_invariant(self, cfg, params):
        with pytest.raises(ContractError):
            ContextBatch(hints=[[1]], embeddings=Tensor(np.zeros((3, cfg.encoder_dim))))


class TestBiasAndCombine:
    def test_sentinel_only_removes_query_dependence(self, cfg, params, rng):
        ctx = encode_context([], params, cfg, side="audio")
        stream = random_tensor(rng, (5, cfg.encoder_dim), requires_grad=False)
        # the attended vector is identical for every position; difference
        # between output rows comes only from the stream branch
        weights = params.attention("bias_audio", cfg.cross_attention_heads,
                                   cfg.encoder_dim // cfg.cross_attention_heads)
        from hintasr.layers import multi_head_cross_attention
        attended = multi_head_cross_attention(stream, ctx.embeddings, weights).array
        assert np.abs(attended - attended[0]).max() <= 1e-15

    def test_identity_projection_recovers_layer_norm(self, cfg, params, rng):
        d = cfg.encoder_dim
        p = init_params(cfg, seed=3)
        w = np.zeros((2 * d, d))
        w[:d] = np.eye(d)  # [I | 0]: pass the normalized stream, drop context
        p["combiner_audio.w"].data[:] = w.reshape(-1)
        p["combiner_audio.b"].data[:] = 0.0
        p["combiner_audio.ln_stream.g"].data[:] = 1.0
        p["combiner_audio.ln_stream.b"].data[:] = 0.0
        stream = random_tensor(rng, (4, d), requires_grad=False)
        ctx = encode_context([[1, 2]], p, cfg, side="audio")
        out = bias_and_combine(stream, ctx, p, cfg, "bias_audio", "combiner_audio").array
        expected = layer_norm(stream, Tensor(np.ones(d)), Tensor(np.zeros(d)), 1e-5).array
        assert np.allclose(out, expected, atol=1e-12)

    def test_gradient_end_to_end(self, cfg, params, rng):
        stream = random_tensor(rng, (3, cfg.encoder_dim))
        probe = Tensor(rng.uniform(-1, 1, size=(3, cfg.encoder_dim)))

        def f(t):
            ctx = encode_context([[1, 4]], params, cfg, side="audio")
            return tz.sum_all(tz.mul(
                bias_and_combine(t, ctx, params, cfg, "bias_audio", "combiner_audio"), probe))

        check_gradient(f, stream, what="bias_and_combine")


class TestPredictor:
    def test_empty_history_single_row(self, cfg, params):
        out = predict_labels([], params, cfg)
        assert out.shape == (1, cfg.joiner_dim)

    def test_limited_context_stateless_property(self, cfg, params):
        # kernel 3 -> the state depends on at most the last two consumed tokens
        a = predict_labels([1, 2, 3, 4], params, cfg).array
        b = predict_labels([5, 6, 3, 4], params, cfg).array
        assert np.array_equal(a[-1], b[-1])
        assert not np.array_equal(a[-2], b[-2])

    def test_gradient(self, cfg, params, rng):
        emb = params["shared_embedding"]
        probe = Tensor(rng.uniform(-1, 1, size=(3, cfg.joiner_dim)))

        def f(t):
            old = emb.data.copy()
            emb.data[:] = t.data
            try:
                return tz.sum_all(tz.mul(predict_labels([2, 5], params, cfg), probe))
            finally:
                emb.data[:] = old

        emb.zero_grad()
        with GradTape() as tape:
            backward(tape, tz.sum_all(tz.mul(predict_labels([2, 5], params, cfg), probe)))
        fd = finite_diff_grad(f, Tensor(emb.numpy()))
        assert_grads_close(emb.grad, fd.data, what="predictor embedding")


class TestJoiner:
    def test_zero_weights_tanh_of_bias_sums(self, cfg, rng):
        p = zero_params(cfg)
        ba = rng.uniform(-1, 1, size=cfg.joiner_dim)
        bp = rng.uniform(-1, 1, size=cfg.joiner_dim)
        p["joiner.ba"].data[:] = ba
        p["joiner.bp"].data[:] = bp
        z = joiner_step(Tensor(np.zeros(cfg.encoder_dim)), Tensor(np.zeros(cfg.joiner_dim)), p)
        assert np.allclose(z.array, np.tanh(ba + bp), atol=1e-15)

    def test_preactivation_additivity_at_zero_bias(self, cfg, params, rng):
        p = init_params(cfg, seed=5)
        p["joiner.ba"].data[:] = 0.0
        p["joiner.bp"].data[:] = 0.0
        x = Tensor(rng.uniform(-0.5, 0.5, size=cfg.encoder_dim))
        y = Tensor(rng.uniform(-0.5, 0.5, size=cfg.joiner_dim))
        zx = np.arctanh(joiner_step(x, Tensor(np.zeros(cfg.joiner_dim)), p).array)
        zy = np.arctanh(joiner_step(Tensor(np.zeros(cfg.encoder_dim)), y, p).array)
        zxy = np.arctanh(joiner_step(x, y, p).array)
        assert np.allclose(zx + zy, zxy, atol=1e-10)

    def test_gradient(self, cfg, params, rng):
        x = random_tensor(rng, (cfg.encoder_dim,))
        y = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        probe = Tensor(rng.uniform(-1, 1, size=(cfg.joiner_dim,)))
        check_gradient(lambda t: tz.sum_all(tz.mul(joiner_step(t, y, params), probe)),
                       x, what="joiner_step")

    def test_output_logits_zero_weights_uniform(self, cfg):
        p = zero_params(cfg)
        lp = tz.log_softmax_last(output_logits(Tensor(np.zeros(cfg.joiner_dim)), p))
        assert np.allclose(lp.array, -np.log(cfg.vocab_size), atol=1e-12)
        assert abs(np.exp(lp.array).sum() - 1.0) <= 1e-12


def _synthetic_loop(seq):
    """Injected refine steps that walk a prescribed sequence of outputs."""
    state = {"i": 0}

    def bias_fn(z):
        return z

    def combine_fn(z, attended):
        return z

    def refine_fn(z0):
        out = seq[min(state["i"], len(seq) - 1)]
        state["i"] += 1
        return Tensor(out)

    return bias_fn, combine_fn, refine_fn


class TestScLoopConformance:
    """Algorithm-level control-flow fixtures for the shared loop runner."""

    def test_never_exits_at_n1_even_when_converged(self):
        z0 = Tensor(np.zeros((1, 2)))
        bias_fn, combine_fn, refine_fn = _synthetic_loop([np.zeros((1, 2))] * 5)
        _, diag = run_sc_loop(z0, bias_fn, combine_fn, refine_fn,
                              max_iters=5, threshold=1e-6, train=False)
        assert diag.iterations_run == 2
        assert diag.converged
        assert diag.mean_diffs[0] == 0.0  # delta was already below threshold at n=1

    def test_stopping_statistic_is_abs_mean_not_max(self):
        # diffs oscillate with zero mean but max diff 1: must still exit at n=2
        seq = [np.array([[1.0, -1.0]]), np.array([[2.0, -2.0]]), np.array([[3.0, -3.0]])]
        z0 = Tensor(np.zeros((1, 2)))
        bias_fn, combine_fn, refine_fn = _synthetic_loop(seq)
        _, diag = run_sc_loop(z0, bias_fn, combine_fn, refine_fn,
                              max_iters=5, threshold=1e-6, train=False)
        assert diag.iterations_run == 2
        assert diag.converged
        assert diag.max_diffs[1] == 1.0
        assert diag.mean_diffs[1] == 0.0

    def test_train_mode_runs_exactly_n_iterations(self):
        z0 = Tensor(np.zeros((1, 2)))
        bias_fn, combine_fn, refine_fn = _synthetic_loop([np.zeros((1, 2))] * 9)
        _, diag = run_sc_loop(z0, bias_fn, combine_fn, refine_fn,
                              max_iters=4, threshold=1e6, train=True)
        assert diag.iterations_run == 4
        assert not diag.converged

    def test_iterations_never_exceed_n(self):
        seq = [np.full((1, 3), float(i)) for i in range(1, 20)]
        z0 = Tensor(np.zeros((1, 3)))
        bias_fn, combine_fn, refine_fn = _synthetic_loop(seq)
        _, diag = run_sc_loop(z0, bias_fn, combine_fn, refine_fn,
                              max_iters=6, threshold=1e-9, train=False)
        assert diag.iterations_run == 6
        assert not diag.converged

    def test_delta_compares_against_pre_iteration_value(self):
        # update order: z_prev refreshes after the exit check, so the n=2
        # delta is z2 - z1, not z2 - z0
        seq = [np.full((1, 2), 1.0), np.full((1, 2), 1.5), np.full((1, 2), 1.75)]
        z0 = Tensor(np.zeros((1, 2)))
        bias_fn, combine_fn, refine_fn = _synthetic_loop(seq)
        _, diag = run_sc_loop(z0, bias_fn, combine_fn, refine_fn,
                              max_iters=3, threshold=1e-6, train=False)
        assert diag.mean_diffs == [1.0, 0.5, 0.25]


class TestSelfConsistentJoiner:
    def test_n1_runs_one_pass_not_converged(self, cfg, params, rng):
        ctx = encode_context([[1, 2]], params, cfg, side="joiner")
        h_ac = random_tensor(rng, (cfg.encoder_dim,), requires_grad=False)
        h_d = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        _, diag = self_consistent_joiner(h_ac, h_d, ctx, params, cfg,
                                         mode="infer", max_iters=1)
        assert diag.iterations_run == 1
        assert not diag.converged

    def test_constructed_fixed_point_exits_at_n2(self, cfg, rng):
        # zero biasing weights and a joiner that ignores its second slot make
        # the refine map constant, so z is fixed from n=1 and delta is 0 at n=2
        p = init_params(cfg, seed=2)
        for h in range(cfg.cross_attention_heads):
            for kind in ("q", "k", "v"):
                p[f"bias_joiner.{kind}{h}"].data[:] = 0.0
        p["joiner.wp"].data[:] = 0.0
        ctx = encode_context([[2, 3]], p, cfg, side="joiner")
        h_ac = random_tensor(rng, (cfg.encoder_dim,), requires_grad=False)
        h_d = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        z, diag = self_consistent_joiner(h_ac, h_d, ctx, p, cfg, mode="infer", max_iters=5)
        assert diag.iterations_run == 2
        assert diag.converged
        assert diag.mean_diffs == [0.0, 0.0]
        assert diag.max_diffs == [0.0, 0.0]

    def test_train_mode_unrolls_fixed_n_with_gradients(self, cfg, params, rng):
        ctx = encode_context([[1, 2], [3]], params, cfg, side="joiner")
        h_ac = random_tensor(rng, (cfg.encoder_dim,))
        h_d = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        probe = Tensor(rng.uniform(-1, 1, size=(cfg.joiner_dim,)))

        def f(t):
            z, diag = self_consistent_joiner(t, h_d, ctx, params, cfg, mode="train")
            assert diag.iterations_run == cfg.max_sc_iters
            return tz.sum_all(tz.mul(z, probe))

        check_gradient(f, h_ac, what="sc joiner unrolled")

    def test_loop_runner_unification_bit_exact(self, cfg, params, rng):
        # context-joiner runner with identity refine == joiner-free variant,
        # and both match an independent re-implementation of the loop.
        from hintasr.model import _joiner_side_fns
        ctx = encode_context([[1, 5], [2]], params, cfg, side="joiner")
        z_init = Tensor(rng.uniform(-1, 1, size=(cfg.joiner_dim,)))
        z_a, diag_a = fixed_point_bias_combiner(z_init, ctx, params, cfg,
                                                max_iters=4, threshold=1e-7)
        bias_fn, combine_fn, _ = _joiner_side_fns(None, ctx, params, cfg)
        z_b, diag_b = run_sc_loop(Tensor(z_init.array.reshape(1, -1)), bias_fn, combine_fn,
                                  lambda v: v, max_iters=4, threshold=1e-7, train=False)
        assert np.array_equal(z_a.array, z_b.array.reshape(-1))
        assert diag_a.mean_diffs == diag_b.mean_diffs

        # independent duplicate of the loop written against layer primitives
        from hintasr.layers import multi_head_cross_attention
        z = z_init.array.reshape(1, -1).copy()
        z_prev = z.copy()
        means = []
        weights = params.attention("bias_joiner", cfg.cross_attention_heads,
                                   cfg.joiner_dim // cfg.cross_attention_heads)
        with tz.no_grad():
            for n in range(1, 5):
                h_w = multi_head_cross_attention(Tensor(z), ctx.embeddings, weights)
                s_n = layer_norm(Tensor(z), params["combiner_joiner.ln_stream.g"],
                                 params["combiner_joiner.ln_stream.b"], 1e-5)
                c_n = layer_norm(h_w, params["combiner_joiner.ln_ctx.g"],
                                 params["combiner_joiner.ln_ctx.b"], 1e-5)
                cat = np.concatenate([s_n.array, c_n.array], axis=-1)
                z = cat @ params["combiner_joiner.w"].array + params["combiner_joiner.b"].array
                means.append(float((z - z_prev).mean()))
                if n > 1 and abs(means[-1]) < 1e-7:
                    break
                z_prev = z.copy()
        assert np.allclose(z_a.array, z.reshape(-1), atol=1e-12)
        assert len(means) == len(diag_a.mean_diffs)

    def test_fixed_point_ln_idempotence_exits_at_n2(self, cfg, rng):
        # joiner-free variant with zero attention weights and a combiner that passes
        # only the normalized stream: LayerNorm is idempotent, so z is fixed
        # after the first pass and the (exactly zero-mean) delta exits at n=2
        p = init_params(cfg, seed=14)
        j = cfg.joiner_dim
        for h in range(cfg.cross_attention_heads):
            for kind in ("q", "k", "v"):
                p[f"bias_joiner.{kind}{h}"].data[:] = 0.0
        w = np.zeros((2 * j, j))
        w[:j] = np.eye(j)
        p["combiner_joiner.w"].data[:] = w.reshape(-1)
        p["combiner_joiner.b"].data[:] = 0.0
        p["combiner_joiner.ln_stream.g"].data[:] = 1.0
        p["combiner_joiner.ln_stream.b"].data[:] = 0.0
        ctx = encode_context([[1, 2]], p, cfg, side="joiner")
        z_init = random_tensor(rng, (j,), requires_grad=False)
        z, diag = fixed_point_bias_combiner(z_init, ctx, p, cfg, max_iters=6, threshold=1e-6)
        assert diag.iterations_run == 2
        assert diag.converged
        assert diag.max_diffs[1] <= 1e-4  # idempotence up to the LN epsilon
        assert abs(diag.mean_diffs[1]) <= 1e-15

    def test_fixed_point_sentinel_only_trajectory_deterministic(self, cfg, params, rng):
        ctx1 = encode_context([], params, cfg, side="joiner")
        ctx2 = encode_context([], params, cfg, side="joiner")
        z_init = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        z1, d1 = fixed_point_bias_combiner(z_init, ctx1, params, cfg, 4, 1e-7)
        z2, d2 = fixed_point_bias_combiner(z_init, ctx2, params, cfg, 4, 1e-7)
        assert np.array_equal(z1.array, z2.array)
        assert d1.mean_diffs == d2.mean_diffs

    def test_diag_lists_cover_every_iteration(self, cfg, params, rng):
        ctx = encode_context([], params, cfg, side="joiner")
        h_ac = random_tensor(rng, (cfg.encoder_dim,), requires_grad=False)
        h_d = random_tensor(rng, (cfg.joiner_dim,), requires_grad=False)
        _, diag = self_consistent_joiner(h_ac, h_d, ctx, params, cfg, mode="train",
                                         max_iters=4)
        assert len(diag.mean_diffs) == len(diag.max_diffs) == diag.iterations_run == 4


def _reference_sc_loop(z_init, bias_fn, combine_fn, refine_fn, max_iters, threshold, train):
    """The loop with one shared schedule for all rows, as it was before infer
    mode gave each row its own early exit."""
    diag = ScDiagnostics()
    z = z_init
    z_prev = z.data.copy()
    diag.iterates.append(z_init)
    for n in range(1, max_iters + 1):
        z = refine_fn(combine_fn(z, bias_fn(z)))
        diag.iterates.append(z)
        diff = z.data - z_prev
        diag.mean_diffs.append(float(diff.mean()))
        diag.max_diffs.append(float(np.abs(diff).max()))
        diag.iterations_run = n
        if not train and n > 1 and abs(diag.mean_diffs[-1]) < threshold:
            diag.converged = True
            break
        z_prev = z.data.copy()
    return z, diag


class TestPerRowEarlyExit:
    """Infer mode over several rows: every row stops on its own statistic and
    ends where its own single-row call ends. Train mode and single-row infer
    keep the shared schedule, op for op."""

    HINTS = [[1, 2], [3]]

    def inputs(self, cfg, params, rng, n, saturated=(), requires_grad=False):
        h_ac = rng.uniform(-1, 1, size=(n, cfg.encoder_dim))
        # a huge joiner pre-activation saturates tanh to exactly +-1, so such a
        # row is fixed from the first iterate and stops at iteration 2
        h_ac[list(saturated)] *= 1e6
        h_d = rng.uniform(-1, 1, size=(n, cfg.joiner_dim))
        ctx = encode_context(self.HINTS, params, cfg, side="joiner")
        return Tensor(h_ac, requires_grad=requires_grad), Tensor(h_d), ctx

    def block_and_singles(self, cfg, params, h_ac, h_d, ctx, **kw):
        with tz.no_grad():
            z, diag = self_consistent_joiner(h_ac, h_d, ctx, params, cfg, mode="infer", **kw)
            singles = [self_consistent_joiner(tz.slice_rows(h_ac, i, i + 1),
                                              tz.slice_rows(h_d, i, i + 1),
                                              ctx, params, cfg, mode="infer", **kw)
                       for i in range(h_ac.shape[0])]
        return z, diag, singles

    @pytest.mark.parametrize("saturated", [(), (0, 2, 3), (4,), (0, 1, 2, 3, 4)])
    def test_stopped_rows_keep_their_iterate(self, cfg, params, rng, saturated):
        h_ac, h_d, ctx = self.inputs(cfg, params, rng, 5, saturated)
        z, diag, singles = self.block_and_singles(cfg, params, h_ac, h_d, ctx,
                                                  max_iters=5, threshold=1e-13)
        expected = [2 if i in saturated else 5 for i in range(5)]
        assert [d.iterations_run for _, d in singles] == expected
        assert diag.row_iterations == expected
        assert diag.row_converged == [i in saturated for i in range(5)]
        assert diag.iterations_run == max(expected)
        assert diag.converged == (len(saturated) == 5)
        assert len(diag.mean_diffs) == len(diag.max_diffs) == diag.iterations_run
        for i, (z_i, _) in enumerate(singles):
            assert np.allclose(z.array[i], z_i.array[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [1e-1, 3e-2, 1e-2])
    def test_rows_follow_their_own_schedule(self, cfg, seed, threshold):
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        h_ac, h_d, ctx = self.inputs(cfg, params, rng, 9)
        z, diag, singles = self.block_and_singles(cfg, params, h_ac, h_d, ctx,
                                                  max_iters=6, threshold=threshold)
        assert diag.row_iterations == [d.iterations_run for _, d in singles]
        assert diag.row_converged == [d.converged for _, d in singles]
        assert diag.iterations_run == max(diag.row_iterations)
        assert diag.converged == all(diag.row_converged)
        for i, (z_i, _) in enumerate(singles):
            assert np.allclose(z.array[i], z_i.array[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,rows,threshold", [
        ("train", 1, 1e-13), ("train", 6, 1e-13), ("train", 6, 1.0),
        ("infer", 1, 1e-13), ("infer", 1, 1e-1)])
    def test_shared_schedule_unchanged(self, cfg, params, rng, mode, rows, threshold):
        from hintasr.model import _joiner_side_fns
        h_ac, h_d, ctx = self.inputs(cfg, params, rng, rows, requires_grad=True)
        probe = Tensor(rng.uniform(-1, 1, size=(rows, cfg.joiner_dim)))
        runs = []
        for loop in (run_sc_loop, _reference_sc_loop):
            h_ac.zero_grad()
            with GradTape() as tape:
                fns = _joiner_side_fns(h_ac, ctx, params, cfg)
                z_init = joiner_step(h_ac, h_d, params)
                z, diag = loop(z_init, *fns, max_iters=4, threshold=threshold,
                               train=(mode == "train"))
                backward(tape, tz.sum_all(tz.mul(z, probe)))
            runs.append((z.array.copy(), diag, [node.op for node in tape.nodes],
                         h_ac.grad.copy()))
        (z_a, d_a, ops_a, g_a), (z_b, d_b, ops_b, g_b) = runs
        assert ops_a == ops_b
        assert np.array_equal(z_a, z_b) and np.array_equal(g_a, g_b)
        assert d_a.mean_diffs == d_b.mean_diffs and d_a.max_diffs == d_b.max_diffs
        assert (d_a.iterations_run, d_a.converged) == (d_b.iterations_run, d_b.converged)
        assert all(np.array_equal(a.array, b.array)
                   for a, b in zip(d_a.iterates, d_b.iterates, strict=True))
        if mode == "train":
            assert d_a.row_iterations == d_a.row_converged == []
        else:
            assert d_a.converged == (threshold > 1e-3)  # both exits are covered
            assert d_a.row_iterations == [d_a.iterations_run]
            assert d_a.row_converged == [d_a.converged]


class TestForwardGrid:
    def test_minimal_shape(self, cfg, params, rng):
        feats = random_tensor(rng, (1, cfg.feature_dim), requires_grad=False)
        grid, _ = forward_grid(feats, [], [], params, cfg)
        assert grid.log_probs.shape == (1, 1, cfg.vocab_size)

    def test_slices_are_distributions(self, cfg, params, rng):
        feats = random_tensor(rng, (3, cfg.feature_dim), requires_grad=False)
        grid, _ = forward_grid(feats, [1, 2], [[3, 4]], params, cfg)
        p = np.exp(grid.log_probs.array)
        assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_hint_permutation_invariance(self, cfg, params, rng):
        feats = random_tensor(rng, (3, cfg.feature_dim), requires_grad=False)
        hints = [[1, 2], [3, 4, 5], [6]]
        base = forward_grid(feats, [1, 2], hints, params, cfg)[0].log_probs.array
        perm = forward_grid(feats, [1, 2], [hints[2], hints[0], hints[1]],
                            params, cfg)[0].log_probs.array
        assert np.abs(base - perm).max() <= 1e-10

    def test_full_pipeline_causality(self, cfg, params, rng):
        feats = rng.uniform(-1, 1, size=(5, cfg.feature_dim))
        base = forward_grid(Tensor(feats), [1, 2], [[3, 4]], params, cfg)[0].log_probs.array
        t0 = 3
        pert = feats.copy()
        pert[t0:] += 0.9
        out = forward_grid(Tensor(pert), [1, 2], [[3, 4]], params, cfg)[0].log_probs.array
        assert np.abs(base[:t0] - out[:t0]).max() <= 1e-12
        assert np.abs(base[t0:] - out[t0:]).max() > 0

    def test_deterministic_repeat(self, cfg, params, rng):
        feats = random_tensor(rng, (3, cfg.feature_dim), requires_grad=False)
        a = forward_grid(feats, [2, 1], [[5, 6]], params, cfg)[0].log_probs.array
        b = forward_grid(feats, [2, 1], [[5, 6]], params, cfg)[0].log_probs.array
        assert np.array_equal(a, b)

    def test_no_context_reduces_to_plain_transducer(self, cfg, rng):
        # zero every context pathway: biasing values, combiner context block,
        # and the joiner's recursion input; the grid must then match a plain
        # encoder->joiner->softmax transducer computed independently in numpy
        p = init_params(cfg, seed=8)
        d, j = cfg.encoder_dim, cfg.joiner_dim
        for h in range(cfg.cross_attention_heads):
            p[f"bias_audio.v{h}"].data[:] = 0.0
            p[f"bias_joiner.v{h}"].data[:] = 0.0
        w = np.zeros((2 * d, d))
        w[:d] = np.eye(d)
        p["combiner_audio.w"].data[:] = w.reshape(-1)
        p["combiner_audio.b"].data[:] = 0.0
        p["combiner_audio.ln_ctx.b"].data[:] = 0.0
        p["joiner.wp"].data[:] = 0.0  # recursion carries nothing back
        feats = random_tensor(rng, (3, cfg.feature_dim), requires_grad=False)
        target = [1, 2]
        grid, _ = forward_grid(feats, target, [], p, cfg)

        with tz.no_grad():
            h_a = encode_audio(feats, p, cfg).array
        ln = lambda x: (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1) + 1e-5)[..., None]
        h_ac = ln(h_a) * p["combiner_audio.ln_stream.g"].array + p["combiner_audio.ln_stream.b"].array
        z = np.tanh(h_ac @ p["joiner.wa"].array + p["joiner.ba"].array + p["joiner.bp"].array)
        logits = z @ p["output.w"].array + p["output.b"].array
        ref = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) \
            - logits.max(-1, keepdims=True)
        expected = np.repeat(ref[:, None, :], len(target) + 1, axis=1)
        assert np.abs(grid.log_probs.array - expected).max() <= 1e-10

    def test_end_to_end_loss_gradient(self, cfg, params, rng):
        feats = random_tensor(rng, (3, cfg.feature_dim))
        target = [1, 2]
        hints = [[3, 4], [5]]

        def f(t):
            grid, _ = forward_grid(t, target, hints, params, cfg)
            return transducer_nll(grid)

        check_gradient(f, feats, what="grid loss wrt features")
