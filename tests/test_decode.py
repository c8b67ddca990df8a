"""Hint trie, fusion bookkeeping, and greedy decoding."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hintasr.decode as decode_mod
from conftest import TINY
from hintasr.decode import FusionState, HintTrie, build_hint_trie, fusion_step, greedy_decode
from hintasr.loss import transducer_nll
from hintasr.model import ModelConfig, encode_context, forward_grid, init_params
from hintasr.tensor import ContractError, GradTape, Tensor, backward
from hintasr.train import OptimConfig, OptimState, adam_step


LAM = 0.5


class TestTrie:
    def test_shared_prefix(self):
        trie = build_hint_trie([[1, 2], [1, 3]], LAM)
        root_children = trie.nodes[trie.root].children
        assert list(root_children) == [1]
        mid = trie.nodes[root_children[1]]
        assert sorted(mid.children) == [2, 3]

    def test_single_hint_two_nodes(self):
        trie = build_hint_trie([[7]], LAM)
        assert len(trie) == 2
        assert trie.nodes[trie.nodes[0].children[7]].is_hint_end

    def test_node_count_for_nested_hints(self):
        # {[a,b], [a,b,c]} -> root, a, b, c
        trie = build_hint_trie([[1, 2], [1, 2, 3]], LAM)
        assert len(trie) == 4

    def test_depth_invariant(self):
        trie = build_hint_trie([[1, 2, 3], [1, 4]], LAM)
        stack = [(trie.root, 0)]
        while stack:
            idx, depth = stack.pop()
            assert trie.nodes[idx].depth == depth
            for child in trie.nodes[idx].children.values():
                stack.append((child, depth + 1))

    def test_empty_hint_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            trie = build_hint_trie([[], [4]], LAM)
        assert len(trie) == 2

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            build_hint_trie([[1]], -0.1)


class TestFusionStep:
    def test_root_miss_is_neutral(self):
        trie = build_hint_trie([[1, 2]], LAM)
        delta, state = fusion_step(FusionState(), 9, trie)
        assert delta == 0.0
        assert state == FusionState(trie.root, 0.0)

    def test_full_hint_keeps_boost(self):
        trie = build_hint_trie([[1, 2]], LAM)
        d1, s1 = fusion_step(FusionState(), 1, trie)
        d2, s2 = fusion_step(s1, 2, trie)
        assert (d1, d2) == (LAM, LAM)
        assert s2 == FusionState(trie.root, 0.0)

    def test_subtractive_backoff_nets_zero(self):
        trie = build_hint_trie([[1, 2]], LAM)
        d1, s1 = fusion_step(FusionState(), 1, trie)
        d2, s2 = fusion_step(s1, 3, trie)  # 3 neither child nor root child
        assert d1 + d2 == 0.0
        assert s2 == FusionState(trie.root, 0.0)

    def test_backoff_reenters_at_root(self):
        # failing token starts a fresh match: hints {[1,2],[3,4]}, stream 1,3
        trie = build_hint_trie([[1, 2], [3, 4]], LAM)
        _, s1 = fusion_step(FusionState(), 1, trie)
        d2, s2 = fusion_step(s1, 3, trie)
        assert d2 == -LAM + LAM  # give back the 1-match, open the 3-match
        assert s2.accumulated_boost == LAM
        d3, s3 = fusion_step(s2, 4, trie)
        assert d3 == LAM
        assert s3 == FusionState(trie.root, 0.0)

    def test_accumulated_boost_tracks_depth(self):
        trie = build_hint_trie([[1, 2, 3, 4]], LAM)
        state = FusionState()
        for i, tok in enumerate([1, 2, 3], start=1):
            _, state = fusion_step(state, tok, trie)
            assert state.accumulated_boost == pytest.approx(i * LAM)
            assert trie.nodes[state.node].depth == i

    def test_zero_sum_property_without_completion(self):
        # random streams that end outside any partial match net to zero
        trie = build_hint_trie([[1, 2, 3], [2, 4]], LAM)
        rng = np.random.default_rng(0)
        for _ in range(200):
            total = 0.0
            state = FusionState()
            completed = False
            for tok in rng.integers(5, 9, size=12):  # tokens never inside a hint
                d, state = fusion_step(state, int(tok), trie)
                total += d
            assert state.node == trie.root
            assert total == 0.0

    def test_partial_then_die_over_random_streams(self):
        trie = build_hint_trie([[1, 2, 3]], LAM)
        rng = np.random.default_rng(1)
        for _ in range(300):
            stream = [int(t) for t in rng.integers(1, 6, size=15)]
            total = 0.0
            state = FusionState()
            completions = 0
            for tok in stream:
                pre = state
                d, state = fusion_step(state, tok, trie)
                if pre.node != trie.root and trie.nodes[pre.node].children.get(tok) is not None \
                        and state.node == trie.root and d > 0:
                    completions += 1
                elif state.node == trie.root and trie.nodes[trie.root].children.get(tok) is not None \
                        and d == LAM and pre.node == trie.root:
                    completions += 1  # single-token completion from root (not possible here)
                total += d
            if state.node == trie.root and completions == 0:
                assert total == pytest.approx(0.0)


class TestGreedyDecode:
    @pytest.fixture
    def cfg(self):
        return ModelConfig(**TINY)

    def blank_biased_params(self, cfg):
        p = init_params(cfg, seed=1)
        p["output.b"].data.reshape(cfg.vocab_size)[0] = 25.0  # blank wins everywhere
        return p

    def test_blank_model_emits_nothing(self, cfg, rng):
        p = self.blank_biased_params(cfg)
        feats = Tensor(rng.normal(size=(4, cfg.feature_dim)))
        assert greedy_decode(feats, p, cfg) == []

    def test_lambda_zero_matches_fusion_disabled(self, cfg, rng):
        p = init_params(cfg, seed=2)
        p["output.b"].data.reshape(cfg.vocab_size)[0] = -3.0  # encourage emissions
        feats = Tensor(rng.normal(size=(4, cfg.feature_dim)))
        hints = [[1, 2], [3]]
        plain = greedy_decode(feats, p, cfg, hints=hints, fusion_enabled=False)
        fused = greedy_decode(feats, p, cfg, hints=hints, fusion_enabled=True, lambda_token=0.0)
        assert plain == fused

    def test_emission_cap(self, cfg, rng):
        p = init_params(cfg, seed=3)
        p["output.b"].data.reshape(cfg.vocab_size)[0] = -40.0  # blank never wins
        feats = Tensor(rng.normal(size=(3, cfg.feature_dim)))
        out = greedy_decode(feats, p, cfg)
        assert len(out) == 3 * cfg.max_symbols_per_frame

    def test_determinism(self, cfg, rng):
        p = init_params(cfg, seed=4)
        feats = Tensor(rng.normal(size=(5, cfg.feature_dim)))
        a = greedy_decode(feats, p, cfg, hints=[[1, 2]], fusion_enabled=True, lambda_token=0.4)
        b = greedy_decode(feats, p, cfg, hints=[[1, 2]], fusion_enabled=True, lambda_token=0.4)
        assert a == b

    def test_fusion_requires_hints(self, cfg, rng):
        p = init_params(cfg, seed=5)
        feats = Tensor(rng.normal(size=(2, cfg.feature_dim)))
        with pytest.raises(ContractError):
            greedy_decode(feats, p, cfg, hints=None, fusion_enabled=True)

    def test_fusion_flips_argmax_when_margin_below_lambda(self, cfg, rng):
        # construct logits where the hint token trails the best token by less
        # than lambda: output weights zero, bias sets an exact margin
        p = init_params(cfg, seed=6)
        p["output.w"].data[:] = 0.0
        bias = np.full(cfg.vocab_size, -10.0)
        bias[0] = 0.3    # blank barely above every token
        bias[2] = 0.1    # hint token, 0.2 behind blank
        p["output.b"].data[:] = bias
        feats = Tensor(rng.normal(size=(2, cfg.feature_dim)))
        # hand-computed: without fusion blank wins every step -> empty output;
        # with lambda=0.5 token 2 scores 0.1+0.5=0.6 > 0.3 until the single-token
        # hint completes and the boost resets, then 0.6 again, capped per frame
        plain = greedy_decode(feats, p, cfg, hints=[[2]], fusion_enabled=False)
        fused = greedy_decode(feats, p, cfg, hints=[[2]], fusion_enabled=True,
                              lambda_token=0.5)
        assert plain == []
        assert fused == [2] * (2 * cfg.max_symbols_per_frame)

    def test_context_path_composes_with_fusion(self, cfg, rng):
        # context on/off changes the model stream even at lambda=0
        p = init_params(cfg, seed=7)
        p["output.b"].data.reshape(cfg.vocab_size)[0] = -2.0
        feats = Tensor(rng.normal(size=(4, cfg.feature_dim)))
        hints = [[1, 2, 3]]
        with_ctx = greedy_decode(feats, p, cfg, hints=hints, context_enabled=True)
        without_ctx = greedy_decode(feats, p, cfg, hints=hints, context_enabled=False)
        # not asserting inequality of outputs (they may coincide), only that
        # both paths run and produce token sequences
        assert isinstance(with_ctx, list) and isinstance(without_ctx, list)


class TestBoostVector:
    def test_memoized_until_add(self):
        trie = build_hint_trie([[1, 2]], LAM)
        first = trie.boost_vector(FusionState(), 5)
        assert trie.boost_vector(FusionState(), 5) is first
        trie.add([3])
        fresh = trie.boost_vector(FusionState(), 5)
        assert fresh is not first
        assert fresh[3] == LAM and first[3] == 0.0


hint_lists = st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                      min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(hints=hint_lists, stream=st.lists(st.integers(1, 6), max_size=20),
       extra=hint_lists, add_at=st.integers(0, 20),
       lam=st.sampled_from([0.0, 0.3, 0.5, 1.25]))
def test_boost_vector_equals_fusion_step_deltas(hints, stream, extra, add_at, lam):
    """Over random tries and token streams, the memoized vector from every
    visited state equals the per-token fusion_step deltas, including after
    hints are added to a trie whose vectors were already looked up."""
    vocab = 8
    trie = build_hint_trie(hints, lam)
    state = FusionState()
    for i, tok in enumerate(stream + [1]):
        if i == add_at:
            for h in extra:
                trie.add(h)
        vec = trie.boost_vector(state, vocab)
        assert vec[0] == 0.0
        for v in range(1, vocab):
            assert vec[v] == fusion_step(state, v, trie)[0]
        _, state = fusion_step(state, tok, trie)


class TestContextCache:
    """greedy_decode reuses hint encodings while the hint list, the config and
    the context-encoder weights are unchanged, and re-encodes otherwise."""

    HINTS = [[1, 2], [3, 4, 5]]

    @pytest.fixture
    def cfg(self):
        return ModelConfig(**TINY)

    @pytest.fixture
    def params(self, cfg):
        p = init_params(cfg, seed=11)
        p["output.b"].data[0] = -2.0  # emit something
        return p

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count encode_context calls made by greedy_decode."""
        seen = []
        original = decode_mod.encode_context

        def counting(hints, params, cfg, side="joiner"):
            seen.append((side, [list(h) for h in hints]))
            return original(hints, params, cfg, side=side)

        monkeypatch.setattr(decode_mod, "encode_context", counting)
        return seen

    def decode(self, feats, params, cfg, hints=HINTS, **kw):
        return greedy_decode(feats, params, cfg, hints=hints, fusion_enabled=True,
                             lambda_token=0.4, **kw)

    def cold(self, feats, params, cfg, **kw):
        params.context_cache = None
        return self.decode(feats, params, cfg, **kw)

    def test_second_decode_reuses_and_matches(self, cfg, params, rng, calls):
        feats = Tensor(rng.normal(size=(6, cfg.feature_dim)))
        a = self.decode(feats, params, cfg)
        assert len(calls) == 2
        b = self.decode(feats, params, cfg)
        assert len(calls) == 2
        assert a == b == self.cold(feats, params, cfg)

    def test_in_place_weight_change_reencodes(self, cfg, params, rng, calls):
        feats = Tensor(rng.normal(size=(6, cfg.feature_dim)))
        self.decode(feats, params, cfg)
        params["ctx_enc_joiner.l1.bwd.w_hh"].data *= 3.0
        warm = self.decode(feats, params, cfg)
        assert len(calls) == 4
        ctx_j = params.context_cache.joiner.embeddings.array
        assert warm == self.cold(feats, params, cfg)
        fresh = encode_context(self.HINTS, params, cfg, side="joiner").embeddings.array
        assert np.array_equal(ctx_j, fresh)

    def test_adam_step_reencodes(self, cfg, params, rng, calls):
        feats = Tensor(rng.normal(size=(6, cfg.feature_dim)))
        self.decode(feats, params, cfg)
        g = np.random.default_rng(3)
        for _, t in params.items():
            t.grad = g.normal(size=t.size)
        assert adam_step(params, OptimState(params, OptimConfig(lr=0.05)))
        warm = self.decode(feats, params, cfg)
        assert len(calls) == 4
        ctx_a = params.context_cache.audio.embeddings.array
        assert warm == self.cold(feats, params, cfg)
        fresh = encode_context(self.HINTS, params, cfg, side="audio").embeddings.array
        assert np.array_equal(ctx_a, fresh)

    def test_new_hint_list_or_config_reencodes(self, cfg, params, rng, calls):
        feats = Tensor(rng.normal(size=(4, cfg.feature_dim)))
        self.decode(feats, params, cfg)
        self.decode(feats, params, cfg, hints=[[1, 2]])
        assert calls[-1] == ("joiner", [[1, 2]])
        assert len(calls) == 4
        other = dataclasses.replace(cfg, max_sc_iters=2)
        self.decode(feats, params, other, hints=[[1, 2]])
        assert len(calls) == 6
        # a config mutated in place is a new config too
        other.sc_threshold = 1e-3
        self.decode(feats, params, other, hints=[[1, 2]])
        assert len(calls) == 8

    def test_training_forward_never_sees_cached_tensors(self, cfg, params, rng, calls):
        feats = Tensor(rng.normal(size=(4, cfg.feature_dim)))
        self.decode(feats, params, cfg)
        cached = params.context_cache.joiner.embeddings
        params.zero_grads()
        with GradTape() as tape:
            grid, _ = forward_grid(feats, [1, 2], self.HINTS, params, cfg, mode="train")
            backward(tape, transducer_nll(grid))
        assert cached.tape_id is None and cached.grad is None
        assert params["ctx_enc_joiner.sentinel"].grad is not None
        assert params["ctx_enc_audio.l0.fwd.w_ih"].grad is not None
