"""Dense float64 tensors with reverse-mode autodiff on an explicit gradient tape.

Everything is stored flat (row-major) and computed in 64-bit so that
finite-difference gradient checks are meaningful. Ops record themselves on the
innermost active ``GradTape`` whenever an input requires gradients; without an
active tape they are plain numpy computations, which is the inference path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# Effective log-zero. Large enough in magnitude to behave like -inf under
# logaddexp, small enough that sums of a few of them stay finite.
NEG_CAP = -1.0e30


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class ContractError(ValueError):
    """An op precondition was violated."""


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


def _active_tape() -> Optional["GradTape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class Tensor:
    """A dense float64 array with optional gradient bookkeeping.

    ``data`` is the flat row-major buffer, ``grad`` (when populated) is a flat
    buffer of the same length. ``tape_id`` is the handle of the tape node that
    produced this tensor, or None for leaves and untracked values.
    """

    __slots__ = ("shape", "data", "requires_grad", "grad", "tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.shape: tuple = arr.shape
        self.data: np.ndarray = arr.reshape(-1).copy()
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.tape_id: Optional[int] = None

    @classmethod
    def from_flat(cls, flat: np.ndarray, shape, requires_grad: bool = False) -> "Tensor":
        t = cls.__new__(cls)
        t.shape = tuple(shape)
        t.data = np.asarray(flat, dtype=np.float64).reshape(-1)
        if t.data.size != math.prod(t.shape):
            raise ShapeError(f"flat buffer of size {t.data.size} does not fit shape {t.shape}")
        t.requires_grad = bool(requires_grad)
        t.grad = None
        t.tape_id = None
        return t

    @classmethod
    def zeros(cls, shape, requires_grad: bool = False) -> "Tensor":
        return cls.from_flat(np.zeros(math.prod(shape)), shape, requires_grad)

    @property
    def array(self) -> np.ndarray:
        """Shaped view of the flat buffer. Treat as read-only."""
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.array.copy()

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data[0])

    def grad_array(self) -> np.ndarray:
        if self.grad is None:
            raise ContractError("tensor has no accumulated gradient")
        return self.grad.reshape(self.shape)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # small amount of operator sugar; the functional ops below are primary
    def __add__(self, other):
        return shift(self, float(other)) if isinstance(other, (int, float)) else add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return shift(self, -float(other)) if isinstance(other, (int, float)) else sub(self, other)

    def __mul__(self, other):
        return scale(self, float(other)) if isinstance(other, (int, float)) else mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


@dataclass
class _Node:
    op: str
    inputs: tuple
    out: Tensor
    backward: Callable


class GradTape:
    """Append-only record of differentiable ops, replayed in reverse by handle.

    Single-threaded per tape; use as a context manager around a forward pass.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    @property
    def next_id(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False

    def _record(self, op: str, inputs: tuple, out: Tensor, backward: Callable) -> None:
        out.tape_id = len(self.nodes)
        self.nodes.append(_Node(op, inputs, out, backward))


def _make(op: str, inputs: tuple, out_array: np.ndarray, backward: Callable) -> Tensor:
    # the buffer comes from the array itself, so from_flat's size check is moot
    out = Tensor.__new__(Tensor)
    out.shape = out_array.shape  # ascontiguousarray would turn a 0-d shape into (1,)
    out.data = np.ascontiguousarray(out_array, dtype=np.float64).reshape(-1)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    out.tape_id = None
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._record(op, inputs, out, backward)
    return out


def backward(tape: GradTape, root: Tensor) -> None:
    """Populate grads of every requires_grad tensor reachable from ``root``.

    Gradients accumulate additively across fan-out and across repeated calls;
    callers zero them explicitly between optimization steps.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if root.tape_id is None:
        raise ContractError("backward root was not produced on the given tape")
    root.grad = np.ones(1) if root.grad is None else root.grad + 1.0
    for node in reversed(tape.nodes[: root.tape_id + 1]):
        g = node.out.grad
        if g is None:
            continue
        grads = node.backward(g.reshape(node.out.shape))
        for t, gi in zip(node.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            flat = np.asarray(gi, dtype=np.float64).reshape(-1)
            if t.grad is None:
                t.grad = flat.copy()
            else:
                t.grad += flat


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------


def _trailing_reduce(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over leading axes so it matches a trailing-broadcast operand."""
    return g.reshape(-1, math.prod(shape)).sum(axis=0).reshape(shape)


def _check_trailing(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    k = len(b.shape)
    if k <= len(a.shape) and a.shape[len(a.shape) - k:] == b.shape:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; b may broadcast over a's leading axes (bias-style)."""
    _check_trailing(a, b, "add")
    out = a.array + b.array
    same = a.shape == b.shape

    def bwd(g):
        return g, (g if same else _trailing_reduce(g, b.shape))

    return _make("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_trailing(a, b, "sub")
    out = a.array - b.array
    same = a.shape == b.shape

    def bwd(g):
        return g, (-g if same else -_trailing_reduce(g, b.shape))

    return _make("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may broadcast over a's leading axes."""
    _check_trailing(a, b, "mul")
    av, bv = a.array, b.array
    out = av * bv
    same = a.shape == b.shape

    def bwd(g):
        ga = g * bv
        gb = g * av
        return ga, (gb if same else _trailing_reduce(gb, b.shape))

    return _make("mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.array * c
    return _make("scale", (a,), out, lambda g: (g * c,))


def shift(a: Tensor, c: float) -> Tensor:
    out = a.array + c
    return _make("shift", (a,), out, lambda g: (g,))


def neg(a: Tensor) -> Tensor:
    return _make("neg", (a,), -a.array, lambda g: (-g,))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.array)
    return _make("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.array))
    return _make("sigmoid", (a,), y, lambda g: (g * y * (1.0 - y),))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.array)
    return _make("exp", (a,), y, lambda g: (g * y,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    av = a.array
    out = np.maximum(av, floor)
    mask = av >= floor

    def bwd(g):
        return (g * mask,)

    return _make("clamp_min", (a,), out, bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    av, bv = a.array, b.array
    out = av @ bv

    def bwd(g):
        return g @ bv.T, av.T @ g

    return _make("matmul", (a, b), out, bwd)


def transpose(a: Tensor) -> Tensor:
    if len(a.shape) != 2:
        raise ShapeError(f"transpose expects 2-D, got {a.shape}")
    out = a.array.T.copy()
    return _make("transpose", (a,), out, lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if a.size != math.prod(shape):
        raise ShapeError(f"reshape: {a.shape} -> {shape}")
    out = a.array.reshape(shape)
    old = a.shape
    return _make("reshape", (a,), out, lambda g: (g.reshape(old),))


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the trailing axis; leading shapes must match."""
    parts = list(parts)
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat_last: leading shapes differ: {[p.shape for p in parts]}")
    widths = [p.shape[-1] for p in parts]
    out = np.concatenate([p.array for p in parts], axis=-1)
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=-1))

    return _make("concat_last", tuple(parts), out, bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    cols = parts[0].shape[-1]
    for p in parts:
        if len(p.shape) != 2 or p.shape[1] != cols:
            raise ShapeError(f"concat_rows: incompatible shapes {[p.shape for p in parts]}")
    out = np.concatenate([p.array for p in parts], axis=0)
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=0))

    return _make("concat_rows", tuple(parts), out, bwd)


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    n = a.shape[0]
    if not (0 <= lo <= hi <= n):
        raise ShapeError(f"slice_rows [{lo}:{hi}] out of range for {a.shape}")
    out = a.array[lo:hi].copy()
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[lo:hi] = g
        return (full,)

    return _make("slice_rows", (a,), out, bwd)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if len(a.shape) != 2 or not (0 <= lo <= hi <= a.shape[1]):
        raise ShapeError(f"slice_cols [{lo}:{hi}] out of range for {a.shape}")
    out = a.array[:, lo:hi].copy()
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[:, lo:hi] = g
        return (full,)

    return _make("slice_cols", (a,), out, bwd)


def take_rows(table: Tensor, ids) -> Tensor:
    """Row gather; backward scatters gradients additively into rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(table.shape) != 2:
        raise ShapeError(f"take_rows expects 2-D table, got {table.shape}")
    n_rows = table.shape[0]
    for i in ids:
        if not (0 <= i < n_rows):
            raise IndexError(f"row id {int(i)} out of range [0, {n_rows})")
    out = table.array[ids]
    shape = table.shape

    def bwd(g):
        full = np.zeros(shape)
        np.add.at(full, ids, g)
        return (full,)

    return _make("take_rows", (table,), out, bwd)


def take_flat(a: Tensor, idx) -> Tensor:
    """Gather from the flat buffer; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.size):
        raise IndexError(f"flat index out of range [0, {a.size})")
    out = a.data[idx]
    size = a.size

    def bwd(g):
        full = np.zeros(size)
        np.add.at(full, idx, g.reshape(-1))
        return (full,)

    return _make("take_flat", (a,), out, bwd)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Each row repeated k times in place: [r0,r0,..,r1,r1,..]."""
    if len(a.shape) != 2:
        raise ShapeError(f"repeat_rows expects 2-D, got {a.shape}")
    n, c = a.shape
    out = np.repeat(a.array, k, axis=0)

    def bwd(g):
        return (g.reshape(n, k, c).sum(axis=1),)

    return _make("repeat_rows", (a,), out, bwd)


def tile_rows(a: Tensor, k: int) -> Tensor:
    """Whole block repeated k times: [r0..rn, r0..rn, ...]."""
    if len(a.shape) != 2:
        raise ShapeError(f"tile_rows expects 2-D, got {a.shape}")
    n, c = a.shape
    out = np.tile(a.array, (k, 1))

    def bwd(g):
        return (g.reshape(k, n, c).sum(axis=0),)

    return _make("tile_rows", (a,), out, bwd)


def shift1(a: Tensor, fill: float) -> Tensor:
    """1-D shift toward higher index: out[0]=fill, out[i]=a[i-1]."""
    if len(a.shape) != 1:
        raise ShapeError(f"shift1 expects 1-D, got {a.shape}")
    out = np.empty(a.shape)
    out[0] = fill
    out[1:] = a.data[:-1]

    def bwd(g):
        full = np.zeros(a.shape)
        full[:-1] = g[1:]
        return (full,)

    return _make("shift1", (a,), out, bwd)


# ---------------------------------------------------------------------------
# reductions and normalizers
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    shape = a.shape
    return _make("sum_all", (a,), out, lambda g: (np.broadcast_to(g, shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.size)


def softmax_last(x: Tensor) -> Tensor:
    """Exp-normalize trailing-dimension slices with max subtraction."""
    if not np.isfinite(x.data).all():
        raise FloatingPointError("softmax_last: non-finite input")
    xv = x.array
    m = xv.max(axis=-1, keepdims=True)
    e = np.exp(xv - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _make("softmax_last", (x,), y, bwd)


def log_softmax_last(x: Tensor) -> Tensor:
    if not np.isfinite(x.data).all():
        raise FloatingPointError("log_softmax_last: non-finite input")
    xv = x.array
    m = xv.max(axis=-1, keepdims=True)
    s = xv - m
    lse = np.log(np.exp(s).sum(axis=-1, keepdims=True))
    y = s - lse

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _make("log_softmax_last", (x,), y, bwd)


def logaddexp(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise log(exp a + exp b), stable for NEG_CAP sentinels."""
    if a.shape != b.shape:
        raise ShapeError(f"logaddexp: shapes {a.shape} vs {b.shape}")
    av, bv = a.array, b.array
    m = np.maximum(av, bv)
    out = m + np.log(np.exp(av - m) + np.exp(bv - m))

    def bwd(g):
        return g * np.exp(av - out), g * np.exp(bv - out)

    return _make("logaddexp", (a, b), out, bwd)


def logsumexp(xs) -> Tensor:
    """Max-stabilized log-sum-exp of a sequence of scalars (or a tensor).

    The empty sequence returns -inf by convention (additive identity of
    log-space accumulation). -inf elements are themselves valid identities.
    """
    if isinstance(xs, Tensor):
        if xs.size == 0:
            return Tensor(-np.inf)
        x = xs
    else:
        items = list(xs)
        if not items:
            return Tensor(-np.inf)
        rows = [it if isinstance(it, Tensor) else Tensor(float(it)) for it in items]
        x = concat_rows([reshape(r, (1, 1)) for r in rows])
    xv = x.array.reshape(-1)
    m = xv.max()
    if not np.isfinite(m):
        # all -inf (or a +inf dominates); avoid nan from inf - inf
        return _make("logsumexp", (x,), np.asarray(m), lambda g: (np.zeros(x.shape),))
    out = np.asarray(m + np.log(np.exp(xv - m).sum()))

    def bwd(g):
        return (float(g) * np.exp(xv - float(out)).reshape(x.shape),)

    return _make("logsumexp", (x,), out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize trailing-dimension slices, then apply gamma/beta."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layer_norm: gamma/beta {gamma.shape}/{beta.shape} vs feature dim {n}")
    xv = x.array
    mu = xv.mean(axis=-1, keepdims=True)
    xc = xv - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.array + beta.array

    def bwd(g):
        dgamma = (g * xhat).reshape(-1, n).sum(axis=0)
        dbeta = g.reshape(-1, n).sum(axis=0)
        dxhat = g * gamma.array
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv
        return dx, dgamma, dbeta

    return _make("layer_norm", (x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Length-preserving causal 1-D conv: out[t] = sum_j x[t-k+1+j] @ kernel[j].

    x is [T, C_in], kernel [k, C_in, C_out], bias [C_out]. The input is
    zero-padded on the left so output t never sees frames after t.
    """
    if len(kernel.shape) != 3 or len(x.shape) != 2 or x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"causal_conv1d: x {x.shape} vs kernel {kernel.shape}")
    k, c_in, c_out = kernel.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"causal_conv1d: bias {bias.shape} vs C_out {c_out}")
    t_len = x.shape[0]
    kv = kernel.array
    xp = np.vstack([np.zeros((k - 1, c_in)), x.array])
    out = np.zeros((t_len, c_out)) + bias.array
    for j in range(k):
        out += xp[j: j + t_len] @ kv[j]

    def bwd(g):
        dxp = np.zeros_like(xp)
        dk = np.zeros_like(kv)
        for j in range(k):
            dxp[j: j + t_len] += g @ kv[j].T
            dk[j] = xp[j: j + t_len].T @ g
        return dxp[k - 1:], dk, g.sum(axis=0)

    return _make("causal_conv1d", (x, kernel, bias), out, bwd)


def depthwise_causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal conv: x [T, C], kernel [k, C], bias [C]."""
    if len(kernel.shape) != 2 or x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"depthwise_causal_conv1d: x {x.shape} vs kernel {kernel.shape}")
    k, c = kernel.shape
    if bias.shape != (c,):
        raise ShapeError(f"depthwise_causal_conv1d: bias {bias.shape} vs C {c}")
    t_len = x.shape[0]
    kv = kernel.array
    xp = np.vstack([np.zeros((k - 1, c)), x.array])
    out = np.zeros((t_len, c)) + bias.array
    for j in range(k):
        out += xp[j: j + t_len] * kv[j]

    def bwd(g):
        dxp = np.zeros_like(xp)
        dk = np.zeros_like(kv)
        for j in range(k):
            dxp[j: j + t_len] += g * kv[j]
            dk[j] = (xp[j: j + t_len] * g).sum(axis=0)
        return dxp[k - 1:], dk, g.sum(axis=0)

    return _make("depthwise_causal_conv1d", (x, kernel, bias), out, bwd)


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar-valued f at x, coordinate by coordinate.

    f must be deterministic. Evaluations run with recording suspended so the
    oracle stays independent of the tape machinery it is used to check.
    """
    if h <= 0:
        raise ContractError("finite_diff_grad: h must be positive")

    def evaluate(flat: np.ndarray) -> float:
        with no_grad():
            val = f(Tensor.from_flat(flat, x.shape))
        return val.item() if isinstance(val, Tensor) else float(val)

    g = np.empty(x.size)
    for i in range(x.size):
        hi = x.data.copy()
        hi[i] += h
        lo = x.data.copy()
        lo[i] -= h
        g[i] = (evaluate(hi) - evaluate(lo)) / (2.0 * h)
    return Tensor.from_flat(g, x.shape)
