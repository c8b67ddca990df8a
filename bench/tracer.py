"""Tracing for the benchmark's traced run, applied from outside the package.

The tracer wraps public functions of the ``hintasr`` package from outside:
for every wrapped function it replaces the name in each loaded ``hintasr.*``
module namespace that holds it (a ``from .model import encode_context`` in
``decode`` or ``cli`` binds its own name, so each binding is swapped). Nothing
in the package changes. Each call records one span (name, start, end, parent
span, operation id); spans stay in memory and are written when the run ends.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in a traced run. The model stages are the
# layers named in the benchmark's per-layer metrics; train_loop,
# greedy_decode and forward_grid are the parents whose self time is the glue
# between them.
TRACED = (
    ("hintasr.model", "encode_audio"),
    ("hintasr.model", "encode_context"),
    ("hintasr.model", "bias_and_combine"),
    ("hintasr.model", "predict_labels"),
    ("hintasr.model", "self_consistent_joiner"),
    ("hintasr.model", "output_logits"),
    ("hintasr.model", "forward_grid"),
    ("hintasr.decode", "greedy_decode"),
    ("hintasr.decode", "fusion_step"),
    ("hintasr.loss", "transducer_nll"),
    ("hintasr.tensor", "backward"),
    ("hintasr.train", "train_loop"),
    ("hintasr.train", "adam_step"),
    ("hintasr.data", "sample_for_entry"),
    ("hintasr.checkpoint", "save_checkpoint"),
    ("hintasr.checkpoint", "load_checkpoint"),
)

# Tape ops reported one by one (nodes per utterance): the ten most frequent
# on a training utterance's tape at the acceptance geometry, about 93% of its
# nodes. The rest are summed under "other".
TAPE_OPS = ("add", "slice_cols", "matmul", "sigmoid", "mul", "tanh", "slice_rows",
            "take_flat", "transpose", "logaddexp")

# Stages whose self time is reported with calls and share of the window.
STAGES = ("model.encode_audio", "model.encode_context", "model.bias_and_combine",
          "model.predict_labels", "model.self_consistent_joiner", "model.output_logits",
          "model.forward_grid", "loss.transducer_nll", "tensor.backward")


def _short(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Span recorder plus the per-function counters the metrics need."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self._stack = []
        self._wrappers = []    # (original, wrapper) per traced function
        self.op_id = None
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (the wrappers stay installed)."""
        self.spans.clear()
        self.context_keys = set()
        self.counts = Counter()
        self.tape_ops = Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for module, func in TRACED:
                original = getattr(sys.modules[module], func)
                self._wrappers.append((original, self._wrap(_short(module, func), original)))
        for original, wrapper in self._wrappers:
            _rebind(original, wrapper)

    def uninstall(self) -> None:
        for original, wrapper in self._wrappers:
            _rebind(wrapper, original)

    def _wrap(self, name, original):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.op_id]
            spans.append(record)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- observers: counters read off arguments and results -----------------

    def _observe_encode_context(self, args, kwargs, result):
        side = kwargs.get("side", args[3] if len(args) > 3 else "joiner")
        key = (side, tuple(tuple(int(t) for t in h) for h in result.hints))
        if key not in self.context_keys:
            self.context_keys.add(key)
            self.counts["encode_context.new_lists"] += 1

    def _observe_self_consistent_joiner(self, args, kwargs, result):
        diag = result[1]
        self.counts["sc.iters"] += diag.iterations_run
        self.counts["sc.converged"] += int(diag.converged)

    def _observe_greedy_decode(self, args, kwargs, result):
        self.counts["decode.frames"] += args[0].shape[0]
        self.counts["decode.emissions"] += len(result)

    def _observe_fusion_step(self, args, kwargs, result):
        self.counts["fusion.boosts_nonzero"] += int(result[0] != 0.0)

    def _observe_backward(self, args, kwargs, result):
        nodes = args[0].nodes
        self.counts["tape.nodes"] += len(nodes)
        self.tape_ops.update(node.op for node in nodes)

    def _observe_adam_step(self, args, kwargs, result):
        self.counts["adam.skipped"] += int(result is False)

    # -- results ---------------------------------------------------------------

    def metrics(self, window_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics over every span recorded so far."""
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        sc_in_decode = 0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += dur
                if name == "model.self_consistent_joiner" and pname == "decode.greedy_decode":
                    sc_in_decode += 1
        window_ms = window_s * 1e3

        def self_ms(name):
            return (total[name] - child[name]) * 1e3

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for stage in STAGES:
            put(f"{stage}.calls", calls[stage], "count")
            put(f"{stage}.self_ms", self_ms(stage), "ms")
            put(f"{stage}.share", ratio(self_ms(stage), window_ms), "frac")
        c = self.counts
        put("model.encode_context.distinct_lists_frac",
            ratio(c["encode_context.new_lists"], calls["model.encode_context"]), "frac")
        n_sc = calls["model.self_consistent_joiner"]
        put("model.self_consistent_joiner.iters_mean", ratio(c["sc.iters"], n_sc), "iters")
        put("model.self_consistent_joiner.converged_frac", ratio(c["sc.converged"], n_sc), "frac")
        frames = c["decode.frames"]
        put("decode.greedy_decode.self_ms", self_ms("decode.greedy_decode"), "ms")
        put("decode.greedy_decode.emissions_per_frame", ratio(c["decode.emissions"], frames),
            "1/frame")
        put("decode.greedy_decode.joiner_calls_per_frame", ratio(sc_in_decode, frames), "1/frame")
        put("decode.fusion_step.calls", calls["decode.fusion_step"], "count")
        put("decode.fusion_step.self_ms", self_ms("decode.fusion_step"), "ms")
        put("decode.fusion_step.boosts_nonzero", c["fusion.boosts_nonzero"], "count")
        put("tensor.tape.nodes_per_utt", ratio(c["tape.nodes"], calls["tensor.backward"]),
            "nodes/utt")
        n_bwd = calls["tensor.backward"]
        for op in TAPE_OPS:
            put(f"tensor.tape.nodes.{op}", ratio(self.tape_ops[op], n_bwd), "nodes/utt")
        other = c["tape.nodes"] - sum(self.tape_ops[op] for op in TAPE_OPS)
        put("tensor.tape.nodes.other", ratio(other, n_bwd), "nodes/utt")
        put("train.train_loop.self_ms", self_ms("train.train_loop"), "ms")
        put("train.adam_step.calls", calls["train.adam_step"], "count")
        put("train.adam_step.self_ms", self_ms("train.adam_step"), "ms")
        put("train.adam_step.skipped", c["adam.skipped"], "count")
        put("data.sample_for_entry.self_ms", self_ms("data.sample_for_entry"), "ms")
        for fn in ("save_checkpoint", "load_checkpoint"):
            name = f"checkpoint.{fn}"
            put(f"{name}.ms", ratio(total[name] * 1e3, calls[name]), "ms")
        put("trace_overhead_frac", overhead_frac, "frac")
        return out

    def write_spans(self, path, t0: float) -> None:
        """One JSON record per span; times in ms from ``t0``."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name,
                                    "start_ms": round((start - t0) * 1e3, 4),
                                    "end_ms": round((end - t0) * 1e3, 4),
                                    "parent": parent, "op": op}) + "\n")


def _rebind(old, new) -> None:
    """Point every name bound to ``old`` in a loaded hintasr module at ``new``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hintasr" or n.startswith("hintasr."))]
