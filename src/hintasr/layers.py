"""Neural building blocks: linear, swish/GLU, BLSTM, and the one multi-head
attention used for encoder self-attention and both hint-biasing attentions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import tensor as tz
from .tensor import ContractError, ShapeError, Tensor


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 1-D or 2-D x (trailing feature dim)."""
    if len(w.shape) != 2:
        raise ShapeError(f"linear_forward: weight must be 2-D, got {w.shape}")
    if len(x.shape) == 1:
        out = tz.matmul(tz.reshape(x, (1, x.shape[0])), w)
        return tz.reshape(tz.add(out, b), (w.shape[1],))
    return tz.add(tz.matmul(x, w), b)


def swish(x: Tensor) -> Tensor:
    return tz.mul(x, tz.sigmoid(x))


def glu_last(x: Tensor) -> Tensor:
    """Gated linear unit over the trailing dim: first half gated by sigmoid of second."""
    n = x.shape[-1]
    if n % 2:
        raise ShapeError(f"glu_last: trailing dim must be even, got {n}")
    a = tz.slice_cols(x, 0, n // 2)
    b = tz.slice_cols(x, n // 2, n)
    return tz.mul(a, tz.sigmoid(b))


@dataclass
class AttentionWeights:
    """Per-head projector weights for multi-head attention.

    Each of w_q/w_k/w_v is a list of [model_dim, head_dim] tensors; scores are
    scaled by 1/sqrt(head_dim).
    """

    w_q: list
    w_k: list
    w_v: list
    num_heads: int
    head_dim: int

    def __post_init__(self):
        if len(self.w_q) != self.num_heads or len(self.w_k) != self.num_heads \
                or len(self.w_v) != self.num_heads:
            raise ShapeError("AttentionWeights: per-head weight count mismatch")
        model_dim = self.w_q[0].shape[0]
        if self.num_heads * self.head_dim != model_dim:
            raise ShapeError(
                f"AttentionWeights: {self.num_heads} heads x {self.head_dim} != model dim {model_dim}")


def multi_head_attention(q_in: Tensor, kv_in: Tensor, weights: AttentionWeights,
                         mask: Optional[Tensor] = None) -> Tensor:
    """Attention with q_in as queries and kv_in as both keys and values.

    Per head: softmax((Q Wq)(K Wk)^T / sqrt(head_dim) + mask) (K Wv). Head
    outputs are concatenated along the feature dim with no output projection.
    Self-attention passes the same rows twice; an additive mask (NEG_CAP
    entries) hides keys from queries.
    """
    if len(kv_in.shape) != 2 or kv_in.shape[0] < 1:
        raise ContractError(f"multi_head_attention: need at least one key row, got {kv_in.shape}")
    inv_sqrt_d = 1.0 / math.sqrt(weights.head_dim)
    heads = []
    for h in range(weights.num_heads):
        q = tz.matmul(q_in, weights.w_q[h])
        k = tz.matmul(kv_in, weights.w_k[h])
        v = tz.matmul(kv_in, weights.w_v[h])
        scores = tz.scale(tz.matmul(q, tz.transpose(k)), inv_sqrt_d)
        if mask is not None:
            scores = tz.add(scores, mask)
        heads.append(tz.matmul(tz.softmax_last(scores), v))
    return tz.concat_last(heads)


@dataclass
class LstmCellWeights:
    """One LSTM direction. Gate order along the 4H axis: input, forget, cell, output."""

    w_ih: Tensor  # [4H, I]
    w_hh: Tensor  # [4H, H]
    bias: Tensor  # [4H], forget-gate block initialized to 1.0

    def __post_init__(self):
        four_h = self.w_ih.shape[0]
        if four_h % 4 or self.w_hh.shape != (four_h, four_h // 4) or self.bias.shape != (four_h,):
            raise ShapeError(
                f"LstmCellWeights: inconsistent shapes {self.w_ih.shape}/{self.w_hh.shape}/{self.bias.shape}")

    @property
    def hidden_dim(self) -> int:
        return self.w_ih.shape[0] // 4


def _lstm_direction(xs: Tensor, cell: LstmCellWeights, reverse: bool):
    """Run one direction over [L, I] rows.

    Returns per-step hidden states [L, H] in original time order plus the
    final state (after the last processed step) as [1, H].
    """
    length = xs.shape[0]
    hid = cell.hidden_dim
    w = tz.transpose(cell.w_ih)  # [I, 4H]
    u = tz.transpose(cell.w_hh)  # [H, 4H]
    h = Tensor.zeros((1, hid))
    c = Tensor.zeros((1, hid))
    steps = range(length - 1, -1, -1) if reverse else range(length)
    outputs = [None] * length
    for t in steps:
        x_t = tz.slice_rows(xs, t, t + 1)
        gates = tz.add(tz.add(tz.matmul(x_t, w), tz.matmul(h, u)), cell.bias)
        i_g = tz.sigmoid(tz.slice_cols(gates, 0, hid))
        f_g = tz.sigmoid(tz.slice_cols(gates, hid, 2 * hid))
        g_g = tz.tanh(tz.slice_cols(gates, 2 * hid, 3 * hid))
        o_g = tz.sigmoid(tz.slice_cols(gates, 3 * hid, 4 * hid))
        c = tz.add(tz.mul(f_g, c), tz.mul(i_g, g_g))
        h = tz.mul(o_g, tz.tanh(c))
        outputs[t] = h
    return tz.concat_rows(outputs), h


def blstm_encode(seq: Tensor, fwd, bwd) -> Tensor:
    """Encode [L, E] into a single [2H] vector from each direction's final state.

    fwd/bwd are LstmCellWeights or equal-length lists of them for a stack; the
    per-step outputs of each layer feed the next and only the top layer's
    final states are concatenated.
    """
    if len(seq.shape) != 2 or seq.shape[0] < 1:
        raise ContractError(f"blstm_encode: need at least one step, got shape {seq.shape}")
    fwd_cells = list(fwd) if isinstance(fwd, (list, tuple)) else [fwd]
    bwd_cells = list(bwd) if isinstance(bwd, (list, tuple)) else [bwd]
    if len(fwd_cells) != len(bwd_cells):
        raise ContractError("blstm_encode: direction stacks differ in depth")
    x = seq
    h_f = h_b = None
    for fc, bc in zip(fwd_cells, bwd_cells):
        out_f, h_f = _lstm_direction(x, fc, reverse=False)
        out_b, h_b = _lstm_direction(x, bc, reverse=True)
        x = tz.concat_last([out_f, out_b])
    final = tz.concat_last([h_f, h_b])
    return tz.reshape(final, (final.shape[-1],))
