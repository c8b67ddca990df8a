"""Greedy transducer decoding with optional trie-based contextual shallow
fusion over speech hints."""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as tz
from .model import (
    ContextBatch,
    ModelConfig,
    ModelParams,
    bias_and_combine,
    encode_audio,
    encode_context,
    output_logits,
    predict_labels,
    self_consistent_joiner,
)
from .tensor import ContractError, Tensor


@dataclass
class TrieNode:
    children: dict = field(default_factory=dict)  # token id -> node index
    is_hint_end: bool = False
    depth: int = 0


class HintTrie:
    """Token-level prefix tree over hint sequences; shared prefixes share nodes."""

    def __init__(self, lambda_token: float):
        if lambda_token < 0:
            raise ContractError("lambda_token must be non-negative")
        self.lambda_token = float(lambda_token)
        self.nodes: list = [TrieNode()]
        self.root = 0
        self._boosts: dict = {}  # (state, vocab size, lambda) -> boost vector

    def add(self, tokens: Sequence[int]) -> None:
        self._boosts.clear()
        node = self.root
        for tok in tokens:
            tok = int(tok)
            nxt = self.nodes[node].children.get(tok)
            if nxt is None:
                nxt = len(self.nodes)
                self.nodes.append(TrieNode(depth=self.nodes[node].depth + 1))
                self.nodes[node].children[tok] = nxt
            node = nxt
        self.nodes[node].is_hint_end = True

    def __len__(self) -> int:
        return len(self.nodes)

    def boost_vector(self, state: "FusionState", vocab_size: int) -> np.ndarray:
        """Fusion score delta of every token from ``state``: entry v is
        ``fusion_step(state, v, self)``'s delta for each non-blank token, 0 for
        blank. Memoized per state until the next ``add``; treat as read-only."""
        key = (state, vocab_size, self.lambda_token)
        vec = self._boosts.get(key)
        if vec is None:
            vec = np.zeros(vocab_size)
            for v in range(1, vocab_size):
                vec[v] = fusion_step(state, v, self)[0]
            self._boosts[key] = vec
        return vec


def build_hint_trie(hints: Sequence[Sequence[int]], lambda_token: float) -> HintTrie:
    trie = HintTrie(lambda_token)
    for h in hints:
        if not len(h):
            warnings.warn("skipping empty hint sequence")
            continue
        trie.add(h)
    return trie


@dataclass(frozen=True)
class FusionState:
    node: int = 0
    accumulated_boost: float = 0.0


def fusion_step(state: FusionState, token: int, trie: HintTrie):
    """Advance the fusion automaton by one non-blank token.

    Extending a match earns +lambda per token. A match that dies mid-hint
    gives back everything it earned (full subtractive backoff) and then gets
    one fresh re-entry attempt at the root with the same token. Completing a
    hint keeps the accumulated boost and resets to the root.
    """
    token = int(token)
    lam = trie.lambda_token
    node = trie.nodes[state.node]
    child_idx = node.children.get(token)
    if child_idx is not None:
        if trie.nodes[child_idx].is_hint_end:
            return lam, FusionState(trie.root, 0.0)
        return lam, FusionState(child_idx, state.accumulated_boost + lam)
    delta = -state.accumulated_boost
    root_child = trie.nodes[trie.root].children.get(token)
    if root_child is not None and state.node != trie.root:
        if trie.nodes[root_child].is_hint_end:
            return delta + lam, FusionState(trie.root, 0.0)
        return delta + lam, FusionState(root_child, lam)
    return delta, FusionState(trie.root, 0.0)


# Frames scored per joiner call in greedy_decode. Frames after the first
# emission in a block are wasted work, so an unbounded block is slower on long
# inputs: on a 328-frame input it took twice as long as 16-frame blocks.
_BLOCK_FRAMES = 16


@dataclass
class _ContextEntry:
    hints: tuple
    cfg: ModelConfig
    weights: dict  # name -> copy of every array encode_context reads
    audio: ContextBatch
    joiner: ContextBatch


def _context_batches(hints: list, params: ModelParams, cfg: ModelConfig):
    """Audio- and joiner-side encodings of ``hints``, reused from the previous
    call with these params while the hint list, the config and the values of
    every array that encode_context reads are unchanged. Values are compared
    with a stored copy, so weights updated in place (an optimizer step) force a
    fresh encoding. One entry, kept in ``params.context_cache``."""
    key = tuple(tuple(h) for h in hints)
    names = [n for n in params.names() if n == "shared_embedding" or n.startswith("ctx_enc_")]
    entry = params.context_cache
    if (entry is not None and entry.hints == key and entry.cfg == cfg
            and list(entry.weights) == names
            and all(np.array_equal(entry.weights[n], params[n].data) for n in names)):
        return entry.audio, entry.joiner
    ctx_a = encode_context(hints, params, cfg, side="audio")
    ctx_j = encode_context(hints, params, cfg, side="joiner")
    params.context_cache = _ContextEntry(key, copy.copy(cfg),
                                         {n: params[n].data.copy() for n in names}, ctx_a, ctx_j)
    return ctx_a, ctx_j


def _last_row(x: Tensor) -> Tensor:
    return tz.slice_rows(x, x.shape[0] - 1, x.shape[0])


def greedy_decode(features: Tensor, params: ModelParams, cfg: ModelConfig,
                  hints: Optional[Sequence[Sequence[int]]] = None,
                  context_enabled: bool = True,
                  fusion_enabled: bool = False,
                  lambda_token: float = 0.3,
                  trie: Optional[HintTrie] = None) -> list:
    """Greedy decoding; returns the emitted token id sequence.

    The context-encoder path is active whenever hints are supplied and
    context_enabled is set; shallow fusion composes independently via
    fusion_enabled, so all four hinting configurations are reachable.
    Hint encodings are reused across calls while the hint list, the config
    and the context-encoder weights stay the same (one dictionary, many
    utterances); the first call with a new list pays for the encoding.

    The loop runs over labels, not frames: for the current token history it
    scores a block of up to ``_BLOCK_FRAMES`` frames in one joiner call and
    emits at the first frame whose best token is not blank. Blanks change
    neither the predictor row nor the fusion state, so the frames before it
    are exactly the blanks a frame-by-frame loop would take, and the result
    is the same transcript (logits agree to rounding, not bit for bit).
    """
    hints = [list(h) for h in (hints or [])]
    if fusion_enabled and trie is None:
        if not hints:
            raise ContractError("fusion_enabled requires hints")
        trie = build_hint_trie(hints, lambda_token)
    ctx_hints = hints if context_enabled else []

    with tz.no_grad():
        h_a = encode_audio(features, params, cfg)
        ctx_a, ctx_j = _context_batches(ctx_hints, params, cfg)
        h_ac = bias_and_combine(h_a, ctx_a, params, cfg, "bias_audio", "combiner_audio")

        tokens: list = []
        fstate = FusionState()
        t_len = features.shape[0]
        t, emitted = 0, 0  # current frame, symbols emitted at it
        h_d_u = _last_row(predict_labels(tokens, params, cfg))
        while t < t_len:
            if emitted >= cfg.max_symbols_per_frame:
                t, emitted = t + 1, 0
                continue
            hi = min(t + _BLOCK_FRAMES, t_len)
            z, _ = self_consistent_joiner(tz.slice_rows(h_ac, t, hi),
                                          tz.repeat_rows(h_d_u, hi - t),
                                          ctx_j, params, cfg, mode="infer")
            logits = output_logits(z, params).array
            m = logits.max(axis=1, keepdims=True)
            scores = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
            if fusion_enabled:
                scores = scores + trie.boost_vector(fstate, cfg.vocab_size)
            best = scores.argmax(axis=1)
            hits = np.flatnonzero(best != cfg.blank_id)
            if not hits.size:
                t, emitted = hi, 0
                continue
            r = int(hits[0])
            if r:
                t, emitted = t + r, 0
            tokens.append(int(best[r]))
            if fusion_enabled:
                _, fstate = fusion_step(fstate, tokens[-1], trie)
            emitted += 1
            h_d_u = _last_row(predict_labels(tokens, params, cfg))
    return tokens
