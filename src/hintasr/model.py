"""Context-aware transducer: conformer-lite audio encoder, stateless-style
predictor, two hint (context) encoders with biasing/combiner pairs, and the
joiner run as a self-consistent recursive module.

Data flow per utterance: audio features -> encoder -> audio-side biasing and
combiner -> h_ac. Previously emitted tokens -> predictor -> h_d. Hints ->
context encoders (independent weight sets for the audio side and the joiner
side, sharing only the embedding table). For each lattice cell the joiner
output is refined iteratively: attend over hint embeddings with the current
joiner output as query, combine, feed back into the joiner, stop when the
absolute mean change between consecutive iterations falls below a threshold
(inference) or after a fixed number of iterations (training, so gradients
flow through the whole unrolled loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tz
from .layers import (
    AttentionWeights,
    LstmCellWeights,
    blstm_encode,
    causal_conv1d,
    embedding_lookup,
    glu_last,
    layer_norm,
    linear_forward,
    multi_head_cross_attention,
    swish,
)
from .tensor import ContractError, NEG_CAP, ShapeError, Tensor

LN_EPS = 1e-5


@dataclass
class ModelConfig:
    vocab_size: int
    feature_dim: int = 16
    num_encoder_layers: int = 2
    encoder_dim: int = 64
    feedforward_dim: int = 128
    self_attention_heads: int = 4
    cross_attention_heads: int = 2
    predictor_kernel: int = 3
    context_blstm_layers: int = 2
    context_dim: int = 32
    blank_id: int = 0
    joiner_dim: int = 64
    max_sc_iters: int = 3
    sc_threshold: float = 1e-6
    context_layernorm_enabled: bool = True
    max_symbols_per_frame: int = 4
    dropout: float = 0.0  # reserved; unused at this scale

    def __post_init__(self):
        if self.blank_id != 0:
            raise ContractError("blank_id is fixed at 0; text tokens start at 1")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must cover blank plus at least one token")
        if self.encoder_dim % self.self_attention_heads:
            raise ContractError("encoder_dim must be divisible by self_attention_heads")
        if self.encoder_dim % self.cross_attention_heads:
            raise ContractError("encoder_dim must be divisible by cross_attention_heads")
        if self.joiner_dim % self.cross_attention_heads:
            raise ContractError("joiner_dim must be divisible by cross_attention_heads")
        # The biasing layers use hint embeddings directly as keys/values with
        # no extra projection, so their width (2*context_dim) must match both
        # query streams.
        if 2 * self.context_dim != self.encoder_dim or 2 * self.context_dim != self.joiner_dim:
            raise ContractError(
                "2*context_dim must equal encoder_dim and joiner_dim "
                f"(got {2 * self.context_dim} vs {self.encoder_dim}/{self.joiner_dim})")
        if self.predictor_kernel < 2:
            raise ContractError("predictor_kernel must be at least 2")
        if self.max_sc_iters < 1 or self.sc_threshold <= 0:
            raise ContractError("need max_sc_iters >= 1 and sc_threshold > 0")

    @property
    def embed_dim(self) -> int:
        return self.encoder_dim

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ContextBatch:
    """Tokenized hints plus their fixed-dimension embeddings.

    Row 0 of ``embeddings`` is always the learned no-bias sentinel so the
    biasing attention has at least one key even with an empty hint list.
    """

    hints: list
    embeddings: Tensor

    def __post_init__(self):
        if self.embeddings.shape[0] != len(self.hints) + 1:
            raise ContractError("ContextBatch: embeddings must have one row per hint plus sentinel")


@dataclass
class ScDiagnostics:
    """Per-iteration convergence record of the self-consistent loop.

    ``iterates`` keeps the tape tensors [z_init, z_1, ..., z_n] so training
    can penalize disagreement between consecutive refinements.
    """

    max_diffs: list = field(default_factory=list)
    mean_diffs: list = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    iterates: list = field(default_factory=list)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


class ModelParams:
    """Named map from dot-separated parameter paths to tensors."""

    def __init__(self, tensors: dict):
        self.tensors = tensors
        # greedy_decode's reusable hint encodings for these weights
        self.context_cache = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def items(self):
        return self.tensors.items()

    def names(self):
        return list(self.tensors.keys())

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def attention(self, prefix: str, num_heads: int, head_dim: int) -> AttentionWeights:
        return AttentionWeights(
            w_q=[self[f"{prefix}.q{h}"] for h in range(num_heads)],
            w_k=[self[f"{prefix}.k{h}"] for h in range(num_heads)],
            w_v=[self[f"{prefix}.v{h}"] for h in range(num_heads)],
            num_heads=num_heads,
            head_dim=head_dim,
        )

    def lstm_cell(self, prefix: str) -> LstmCellWeights:
        return LstmCellWeights(
            w_ih=self[f"{prefix}.w_ih"], w_hh=self[f"{prefix}.w_hh"], bias=self[f"{prefix}.b"])

    def lstm_stack(self, prefix: str, layers: int, direction: str):
        return [self.lstm_cell(f"{prefix}.l{i}.{direction}") for i in range(layers)]


def param_shapes(cfg: ModelConfig) -> dict:
    """Every parameter path and its shape, in deterministic creation order."""
    d = cfg.encoder_dim
    ff = cfg.feedforward_dim
    j = cfg.joiner_dim
    e = cfg.embed_dim
    h_ctx = cfg.context_dim
    ctx_out = 2 * h_ctx
    shapes: dict = {}
    shapes["shared_embedding"] = (cfg.vocab_size, e)

    shapes["encoder.in_proj.w"] = (cfg.feature_dim, d)
    shapes["encoder.in_proj.b"] = (d,)
    sa_hd = d // cfg.self_attention_heads
    for i in range(cfg.num_encoder_layers):
        p = f"encoder.layer{i}"
        for ffname in ("ff1", "ff2"):
            shapes[f"{p}.{ffname}.ln.g"] = (d,)
            shapes[f"{p}.{ffname}.ln.b"] = (d,)
            shapes[f"{p}.{ffname}.w1"] = (d, ff)
            shapes[f"{p}.{ffname}.b1"] = (ff,)
            shapes[f"{p}.{ffname}.w2"] = (ff, d)
            shapes[f"{p}.{ffname}.b2"] = (d,)
        shapes[f"{p}.attn.ln.g"] = (d,)
        shapes[f"{p}.attn.ln.b"] = (d,)
        for h in range(cfg.self_attention_heads):
            shapes[f"{p}.attn.q{h}"] = (d, sa_hd)
            shapes[f"{p}.attn.k{h}"] = (d, sa_hd)
            shapes[f"{p}.attn.v{h}"] = (d, sa_hd)
        shapes[f"{p}.attn.out.w"] = (d, d)
        shapes[f"{p}.attn.out.b"] = (d,)
        shapes[f"{p}.conv.ln.g"] = (d,)
        shapes[f"{p}.conv.ln.b"] = (d,)
        shapes[f"{p}.conv.pw1.w"] = (d, 2 * d)
        shapes[f"{p}.conv.pw1.b"] = (2 * d,)
        shapes[f"{p}.conv.dw.k"] = (3, d)
        shapes[f"{p}.conv.dw.b"] = (d,)
        shapes[f"{p}.conv.pw2.w"] = (d, d)
        shapes[f"{p}.conv.pw2.b"] = (d,)
        shapes[f"{p}.final_ln.g"] = (d,)
        shapes[f"{p}.final_ln.b"] = (d,)

    # Predictor conv consumes the blank-prepended history; effective token
    # context is predictor_kernel - 1 (the stateless-predictor property).
    shapes["predictor.conv.k"] = (cfg.predictor_kernel - 1, e, j)
    shapes["predictor.conv.b"] = (j,)

    for side in ("ctx_enc_audio", "ctx_enc_joiner"):
        in_dim = e
        for layer in range(cfg.context_blstm_layers):
            for direction in ("fwd", "bwd"):
                shapes[f"{side}.l{layer}.{direction}.w_ih"] = (4 * h_ctx, in_dim)
                shapes[f"{side}.l{layer}.{direction}.w_hh"] = (4 * h_ctx, h_ctx)
                shapes[f"{side}.l{layer}.{direction}.b"] = (4 * h_ctx,)
            in_dim = ctx_out
        shapes[f"{side}.sentinel"] = (ctx_out,)
        shapes[f"{side}.ln.g"] = (ctx_out,)
        shapes[f"{side}.ln.b"] = (ctx_out,)

    ca_hd_audio = d // cfg.cross_attention_heads
    ca_hd_joiner = j // cfg.cross_attention_heads
    for h in range(cfg.cross_attention_heads):
        shapes[f"bias_audio.q{h}"] = (d, ca_hd_audio)
        shapes[f"bias_audio.k{h}"] = (d, ca_hd_audio)
        shapes[f"bias_audio.v{h}"] = (d, ca_hd_audio)
        shapes[f"bias_joiner.q{h}"] = (j, ca_hd_joiner)
        shapes[f"bias_joiner.k{h}"] = (j, ca_hd_joiner)
        shapes[f"bias_joiner.v{h}"] = (j, ca_hd_joiner)

    shapes["combiner_audio.ln_stream.g"] = (d,)
    shapes["combiner_audio.ln_stream.b"] = (d,)
    shapes["combiner_audio.ln_ctx.g"] = (d,)
    shapes["combiner_audio.ln_ctx.b"] = (d,)
    shapes["combiner_audio.w"] = (2 * d, d)
    shapes["combiner_audio.b"] = (d,)
    shapes["combiner_joiner.ln_stream.g"] = (j,)
    shapes["combiner_joiner.ln_stream.b"] = (j,)
    shapes["combiner_joiner.ln_ctx.g"] = (j,)
    shapes["combiner_joiner.ln_ctx.b"] = (j,)
    # Output dim equals the joiner's second input slot so the recursion is
    # type-closed (it replaces the predictor row on later iterations).
    shapes["combiner_joiner.w"] = (2 * j, j)
    shapes["combiner_joiner.b"] = (j,)

    shapes["joiner.wa"] = (d, j)
    shapes["joiner.ba"] = (j,)
    shapes["joiner.wp"] = (j, j)
    shapes["joiner.bp"] = (j,)
    shapes["output.w"] = (j, cfg.vocab_size)
    shapes["output.b"] = (cfg.vocab_size,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    tensors: dict = {}
    for name, shape in param_shapes(cfg).items():
        last = name.rsplit(".", 1)[-1]
        if name == "shared_embedding":
            arr = rng.normal(0.0, 0.2, size=shape)
        elif last == "sentinel":
            arr = rng.normal(0.0, 0.2, size=shape)
        elif last in ("g",) or name.endswith("ln.g"):
            arr = np.ones(shape)
        elif last in ("b", "ba", "bp", "b1", "b2") or len(shape) == 1:
            arr = np.zeros(shape)
        elif last == "w_ih":
            arr = _glorot(rng, shape[1], shape[0] // 4, shape)
        elif last == "w_hh":
            arr = _glorot(rng, shape[1], shape[0] // 4, shape)
        elif last == "k" and len(shape) == 3:
            arr = _glorot(rng, shape[0] * shape[1], shape[2], shape)
        elif name.endswith("conv.dw.k"):
            arr = _glorot(rng, shape[0], 1, shape)
        else:
            arr = _glorot(rng, shape[0], shape[-1], shape)
        t = Tensor(arr, requires_grad=True)
        tensors[name] = t
    # forget-gate bias starts at 1.0 so memory persists early in training
    h_ctx = cfg.context_dim
    for name, t in tensors.items():
        if name.endswith((".fwd.b", ".bwd.b")):
            t.data.reshape(t.shape)[h_ctx: 2 * h_ctx] = 1.0
    # blank-prior warm start: most lattice steps are blank, and absorbing that
    # prior here keeps early training from saturating the joiner tanh instead
    tensors["output.b"].data[cfg.blank_id] = 2.0
    return ModelParams(tensors)


# ---------------------------------------------------------------------------
# audio encoder
# ---------------------------------------------------------------------------


def _feed_forward(x: Tensor, params: ModelParams, p: str) -> Tensor:
    h = layer_norm(x, params[f"{p}.ln.g"], params[f"{p}.ln.b"], LN_EPS)
    h = swish(linear_forward(h, params[f"{p}.w1"], params[f"{p}.b1"]))
    return linear_forward(h, params[f"{p}.w2"], params[f"{p}.b2"])


def _causal_self_attention(x: Tensor, params: ModelParams, p: str, cfg: ModelConfig,
                           mask: Tensor) -> Tensor:
    h = layer_norm(x, params[f"{p}.ln.g"], params[f"{p}.ln.b"], LN_EPS)
    heads = cfg.self_attention_heads
    head_dim = cfg.encoder_dim // heads
    inv = 1.0 / math.sqrt(head_dim)
    outs = []
    for i in range(heads):
        q = tz.matmul(h, params[f"{p}.q{i}"])
        k = tz.matmul(h, params[f"{p}.k{i}"])
        v = tz.matmul(h, params[f"{p}.v{i}"])
        scores = tz.add(tz.scale(tz.matmul(q, tz.transpose(k)), inv), mask)
        outs.append(tz.matmul(tz.softmax_last(scores), v))
    return linear_forward(tz.concat_last(outs), params[f"{p}.out.w"], params[f"{p}.out.b"])


def _conv_module(x: Tensor, params: ModelParams, p: str) -> Tensor:
    h = layer_norm(x, params[f"{p}.ln.g"], params[f"{p}.ln.b"], LN_EPS)
    h = glu_last(linear_forward(h, params[f"{p}.pw1.w"], params[f"{p}.pw1.b"]))
    h = tz.depthwise_causal_conv1d(h, params[f"{p}.dw.k"], params[f"{p}.dw.b"])
    h = swish(h)
    return linear_forward(h, params[f"{p}.pw2.w"], params[f"{p}.pw2.b"])


def causal_mask(t_len: int) -> Tensor:
    m = np.triu(np.full((t_len, t_len), NEG_CAP), k=1)
    return Tensor(m)


def encode_audio(features: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Stack of conformer-lite blocks over [T, F] features; causal throughout."""
    if len(features.shape) != 2 or features.shape[0] < 1:
        raise ContractError(f"encode_audio: need [T, F] with T >= 1, got {features.shape}")
    if features.shape[1] != cfg.feature_dim:
        raise ShapeError(f"encode_audio: feature dim {features.shape[1]} != {cfg.feature_dim}")
    x = linear_forward(features, params["encoder.in_proj.w"], params["encoder.in_proj.b"])
    mask = causal_mask(features.shape[0])
    for i in range(cfg.num_encoder_layers):
        p = f"encoder.layer{i}"
        x = tz.add(x, tz.scale(_feed_forward(x, params, f"{p}.ff1"), 0.5))
        x = tz.add(x, _causal_self_attention(x, params, f"{p}.attn", cfg, mask))
        x = tz.add(x, _conv_module(x, params, f"{p}.conv"))
        x = tz.add(x, tz.scale(_feed_forward(x, params, f"{p}.ff2"), 0.5))
        x = layer_norm(x, params[f"{p}.final_ln.g"], params[f"{p}.final_ln.b"], LN_EPS)
    return x


# ---------------------------------------------------------------------------
# context encoder, predictor, combiner
# ---------------------------------------------------------------------------


def encode_context(hints: Sequence[Sequence[int]], params: ModelParams, cfg: ModelConfig,
                   side: str = "joiner") -> ContextBatch:
    """Embed each hint with the shared table, run the BLSTM stack, prepend the
    learned no-bias sentinel row. ``side`` picks the audio- or joiner-side
    weight set; the two are architecturally identical but independent."""
    if side not in ("audio", "joiner"):
        raise ContractError(f"encode_context: side must be audio|joiner, got {side!r}")
    prefix = f"ctx_enc_{side}"
    hints = [list(h) for h in hints]
    for h in hints:
        if cfg.blank_id in h:
            raise ContractError(f"hint contains blank id {cfg.blank_id}: {h}")
        if not h:
            raise ContractError("empty hint token sequence")
    fwd = params.lstm_stack(prefix, cfg.context_blstm_layers, "fwd")
    bwd = params.lstm_stack(prefix, cfg.context_blstm_layers, "bwd")
    ctx_out = 2 * cfg.context_dim
    rows = [tz.reshape(params[f"{prefix}.sentinel"], (1, ctx_out))]
    for h in hints:
        emb = embedding_lookup(params["shared_embedding"], h)
        vec = blstm_encode(emb, fwd, bwd)
        rows.append(tz.reshape(vec, (1, ctx_out)))
    emb_matrix = rows[0] if len(rows) == 1 else tz.concat_rows(rows)
    if cfg.context_layernorm_enabled:
        emb_matrix = layer_norm(emb_matrix, params[f"{prefix}.ln.g"], params[f"{prefix}.ln.b"], LN_EPS)
    return ContextBatch(hints=hints, embeddings=emb_matrix)


def bias_and_combine(stream: Tensor, ctx: ContextBatch, params: ModelParams, cfg: ModelConfig,
                     bias_prefix: str, combiner_prefix: str) -> Tensor:
    """Cross-attend the stream over hint embeddings, then combine:
    linear(concat(LN(stream), LN(attended)))."""
    d = stream.shape[-1]
    weights = params.attention(bias_prefix, cfg.cross_attention_heads,
                               d // cfg.cross_attention_heads)
    attended = multi_head_cross_attention(stream, ctx.embeddings, weights)
    s_n = layer_norm(stream, params[f"{combiner_prefix}.ln_stream.g"],
                     params[f"{combiner_prefix}.ln_stream.b"], LN_EPS)
    c_n = layer_norm(attended, params[f"{combiner_prefix}.ln_ctx.g"],
                     params[f"{combiner_prefix}.ln_ctx.b"], LN_EPS)
    return linear_forward(tz.concat_last([s_n, c_n]),
                          params[f"{combiner_prefix}.w"], params[f"{combiner_prefix}.b"])


def predict_labels(prev_tokens: Sequence[int], params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Stateless-style predictor over the blank-prepended history.

    Row u depends on at most the last (predictor_kernel - 1) consumed tokens,
    so distant history cannot change the state.
    """
    ids = [cfg.blank_id] + [int(t) for t in prev_tokens]
    emb = embedding_lookup(params["shared_embedding"], ids)
    h = causal_conv1d(emb, params["predictor.conv.k"], params["predictor.conv.b"])
    return tz.tanh(h)


# ---------------------------------------------------------------------------
# joiner and the self-consistent loop
# ---------------------------------------------------------------------------


def _rows(x: Tensor) -> Tensor:
    return tz.reshape(x, (1, x.shape[0])) if len(x.shape) == 1 else x


def joiner_step(h_ac: Tensor, z0: Tensor, params: ModelParams) -> Tensor:
    """z = tanh(linear_a(h_ac) + linear_p(z0)). The second slot takes the
    predictor row initially and the combiner output on later iterations."""
    one_d = len(h_ac.shape) == 1
    a = linear_forward(_rows(h_ac), params["joiner.wa"], params["joiner.ba"])
    p = linear_forward(_rows(z0), params["joiner.wp"], params["joiner.bp"])
    z = tz.tanh(tz.add(a, p))
    return tz.reshape(z, (z.shape[-1],)) if one_d else z


def output_logits(z: Tensor, params: ModelParams) -> Tensor:
    one_d = len(z.shape) == 1
    out = linear_forward(_rows(z), params["output.w"], params["output.b"])
    return tz.reshape(out, (out.shape[-1],)) if one_d else out


def run_sc_loop(z_init: Tensor,
                bias_fn: Callable[[Tensor], Tensor],
                combine_fn: Callable[[Tensor, Tensor], Tensor],
                refine_fn: Callable[[Tensor], Tensor],
                max_iters: int,
                threshold: float,
                train: bool):
    """Shared runner for the self-consistent recursion.

    Each iteration: attend (bias_fn), combine, refine (the joiner, or identity
    for the joiner-free variant). The stopping statistic is abs(mean(z - z_prev));
    the loop never exits before iteration 2 and in train mode runs exactly
    ``max_iters`` iterations with no early exit, keeping the final two iterates
    available for a consistency penalty.
    """
    if max_iters < 1 or threshold <= 0:
        raise ContractError("run_sc_loop: need max_iters >= 1 and threshold > 0")
    diag = ScDiagnostics()
    z = z_init
    z_prev = z.data.copy()
    diag.iterates.append(z_init)
    for n in range(1, max_iters + 1):
        attended = bias_fn(z)
        z0 = combine_fn(z, attended)
        z = refine_fn(z0)
        diag.iterates.append(z)
        diff = z.data - z_prev
        mean_diff = float(diff.mean())
        diag.mean_diffs.append(mean_diff)
        diag.max_diffs.append(float(np.abs(diff).max()))
        diag.iterations_run = n
        if (not train) and n > 1 and abs(mean_diff) < threshold:
            diag.converged = True
            break
        z_prev = z.data.copy()
    return z, diag


def _joiner_side_fns(h_ac: Tensor, ctx: ContextBatch, params: ModelParams, cfg: ModelConfig):
    def bias_fn(z):
        weights = params.attention("bias_joiner", cfg.cross_attention_heads,
                                   cfg.joiner_dim // cfg.cross_attention_heads)
        return multi_head_cross_attention(z, ctx.embeddings, weights)

    def combine_fn(z, attended):
        s_n = layer_norm(z, params["combiner_joiner.ln_stream.g"],
                         params["combiner_joiner.ln_stream.b"], LN_EPS)
        c_n = layer_norm(attended, params["combiner_joiner.ln_ctx.g"],
                         params["combiner_joiner.ln_ctx.b"], LN_EPS)
        return linear_forward(tz.concat_last([s_n, c_n]),
                              params["combiner_joiner.w"], params["combiner_joiner.b"])

    def refine_fn(z0):
        return joiner_step(h_ac, z0, params)

    return bias_fn, combine_fn, refine_fn


def self_consistent_joiner(h_ac_t: Tensor, h_d_u: Tensor, ctx: ContextBatch,
                           params: ModelParams, cfg: ModelConfig, mode: str = "infer",
                           max_iters: Optional[int] = None,
                           threshold: Optional[float] = None):
    """Solve the joiner/biasing/combiner recursion for one (t, u) cell.

    Returns the converged joiner output [joiner_dim] and per-iteration
    diagnostics. Accepts batched [n, dim] inputs too, in which case all cells
    share the iteration schedule (used by the training grid).
    """
    if mode not in ("train", "infer"):
        raise ContractError(f"self_consistent_joiner: mode must be train|infer, got {mode!r}")
    one_d = len(h_ac_t.shape) == 1
    h_ac = _rows(h_ac_t)
    h_d = _rows(h_d_u)
    bias_fn, combine_fn, refine_fn = _joiner_side_fns(h_ac, ctx, params, cfg)
    z_init = joiner_step(h_ac, h_d, params)
    z, diag = run_sc_loop(
        z_init, bias_fn, combine_fn, refine_fn,
        max_iters if max_iters is not None else cfg.max_sc_iters,
        threshold if threshold is not None else cfg.sc_threshold,
        train=(mode == "train"))
    if one_d:
        z = tz.reshape(z, (z.shape[-1],))
    return z, diag


def fixed_point_bias_combiner(z_init: Tensor, ctx: ContextBatch, params: ModelParams,
                              cfg: ModelConfig, max_iters: int, threshold: float):
    """Joiner-free variant: iterate biasing + combiner with the refine step
    replaced by identity. Shares the loop runner with the context joiner."""
    one_d = len(z_init.shape) == 1
    z0 = _rows(z_init)
    bias_fn, combine_fn, _ = _joiner_side_fns(z0, ctx, params, cfg)
    z, diag = run_sc_loop(z0, bias_fn, combine_fn, lambda v: v,
                          max_iters, threshold, train=False)
    if one_d:
        z = tz.reshape(z, (z.shape[-1],))
    return z, diag


def forward_grid(features: Tensor, target: Sequence[int], hints: Sequence[Sequence[int]],
                 params: ModelParams, cfg: ModelConfig, mode: str = "train"):
    """Joint log-probability grid [T, U+1, V] for one utterance.

    All (t, u) cells run through the self-consistent joiner as one batched
    stream; in train mode the loop unrolls for exactly max_sc_iters so the
    whole grid shares a uniform, differentiable schedule.
    """
    from .loss import LogitGrid  # local import: loss stays independent of model

    target = [int(t) for t in target]
    t_len = features.shape[0]
    u1 = len(target) + 1
    h_a = encode_audio(features, params, cfg)
    ctx_a = encode_context(hints, params, cfg, side="audio")
    h_ac = bias_and_combine(h_a, ctx_a, params, cfg, "bias_audio", "combiner_audio")
    h_d = predict_labels(target, params, cfg)
    ctx_j = encode_context(hints, params, cfg, side="joiner")

    grid_ac = tz.repeat_rows(h_ac, u1)     # row (t, u) at t*u1 + u
    grid_d = tz.tile_rows(h_d, t_len)
    z, diag = self_consistent_joiner(grid_ac, grid_d, ctx_j, params, cfg, mode=mode)
    logits = output_logits(z, params)
    log_probs = tz.log_softmax_last(logits)
    grid = tz.reshape(log_probs, (t_len, u1, cfg.vocab_size))
    return LogitGrid(log_probs=grid, target=target), diag
