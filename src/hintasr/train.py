"""Adam optimizer with global-norm clipping and the training loop."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import tensor as tz
from .checkpoint import save_checkpoint
from .data import (
    ManifestEntry,
    SynthConfig,
    Vocab,
    sample_for_entry,
    tokenize,
)
from .loss import transducer_nll
from .model import ModelConfig, ModelParams, forward_grid, init_params
from .tensor import GradTape, backward

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss or a forward pass became non-finite; carries a diagnostic dump of the batch."""


def _diverged(out_dir: Path, batch_dump: list, what: str) -> TrainingDiverged:
    dump_path = out_dir / "diverged_batch.json"
    dump_path.write_text(json.dumps(batch_dump, indent=2))
    return TrainingDiverged(f"{what}; batch dumped to {dump_path}")


@dataclass
class OptimConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0

    def to_dict(self) -> dict:
        return {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "clip_norm": self.clip_norm}


class OptimState:
    """Per-parameter first/second moments plus the step counter."""

    def __init__(self, params: ModelParams, cfg: OptimConfig):
        self.cfg = cfg
        self.step = 0
        self.m = {name: np.zeros(t.size) for name, t in params.items()}
        self.v = {name: np.zeros(t.size) for name, t in params.items()}


def adam_step(params: ModelParams, state: OptimState) -> bool:
    """Bias-corrected Adam update from accumulated grads; returns False (and
    zeroes grads without touching params) when any gradient is non-finite.
    Gradients are clipped to the configured global norm before the update."""
    cfg = state.cfg
    grads = {}
    sq_sum = 0.0
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros(t.size)
        if not np.isfinite(g).all():
            log.warning("non-finite gradient in %s; skipping step", name)
            params.zero_grads()
            return False
        grads[name] = g
        sq_sum += float((g * g).sum())
    norm = np.sqrt(sq_sum)
    if cfg.clip_norm > 0 and norm > cfg.clip_norm:
        scale = cfg.clip_norm / norm
        for g in grads.values():
            g *= scale
    state.step += 1
    t_step = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1 ** t_step
    corr2 = 1.0 - b2 ** t_step
    for name, tns in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = cfg.lr * (m / corr1) / (np.sqrt(v / corr2) + cfg.eps)
        tns.data -= update
    return True


def optim_extras(state: OptimState) -> dict:
    """Flatten optimizer state into named arrays for checkpointing."""
    out = {"optim.step": np.array([float(state.step)])}
    for name, arr in state.m.items():
        out[f"optim.m.{name}"] = arr
    for name, arr in state.v.items():
        out[f"optim.v.{name}"] = arr
    return out


def restore_optim(params: ModelParams, cfg: OptimConfig, extras: dict) -> OptimState:
    state = OptimState(params, cfg)
    if "optim.step" in extras:
        state.step = int(extras["optim.step"][0])
        for name in state.m:
            state.m[name] = np.asarray(extras[f"optim.m.{name}"]).reshape(-1).copy()
            state.v[name] = np.asarray(extras[f"optim.v.{name}"]).reshape(-1).copy()
    return state


@dataclass
class TrainSettings:
    steps: int = 2000
    batch_size: int = 4
    seed: int = 0
    type_weights: tuple = (1 / 3, 1 / 3, 1 / 3)
    shuffle: bool = True
    # weight of the self-consistency penalty (mean squared gap between
    # consecutive loop refinements past iteration 1); unrolled fixed-N
    # training alone leaves the loop free to oscillate at iterations it never
    # sees, and this term restores the contractive behavior
    sc_consistency_weight: float = 10.0
    log_every: int = 25
    checkpoint_every: Optional[int] = None  # defaults to one checkpoint per epoch


def train_loop(entries: Sequence[ManifestEntry], negative_pool: Sequence[str],
               model_cfg: ModelConfig, optim_cfg: OptimConfig, settings: TrainSettings,
               synth_cfg: SynthConfig, vocab: Vocab,
               out_dir, params: Optional[ModelParams] = None,
               optim_state: Optional[OptimState] = None):
    """Minimize mean per-utterance transducer NLL over on-the-fly samples.

    Deterministic given the seed: batch order, sample types, hint draws, and
    feature noise all derive from it. Writes checkpoint.scj plus per-epoch
    snapshots and an append-only loss curve (step, loss, wall_ms records).
    Returns (params, optim_state, losses).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if params is None:
        params = init_params(model_cfg, seed=settings.seed)
    if optim_state is None:
        optim_state = OptimState(params, optim_cfg)
    order_rng = np.random.default_rng([settings.seed, 7171])
    steps_per_epoch = max(1, len(entries) // settings.batch_size)
    ckpt_every = settings.checkpoint_every or steps_per_epoch
    curve_path = out_dir / "loss_curve.jsonl"
    losses = []
    t_start = time.time()
    perm = None
    with open(curve_path, "a", encoding="utf-8") as curve:
        for local_step in range(settings.steps):
            global_step = optim_state.step
            epoch = global_step // steps_per_epoch
            pos = global_step % steps_per_epoch
            if pos == 0 or perm is None:
                perm = order_rng.permutation(len(entries)) if settings.shuffle \
                    else np.arange(len(entries))
            batch_ids = perm[pos * settings.batch_size: (pos + 1) * settings.batch_size]
            if len(batch_ids) == 0:
                batch_ids = perm[: settings.batch_size]
            params.zero_grads()
            batch_losses = []
            batch_penalties = []
            batch_dump = []
            for i in batch_ids:
                entry = entries[int(i)]
                sample = sample_for_entry(entry, epoch, settings.type_weights,
                                          vocab, synth_cfg, negative_pool)
                hint_tokens = [tokenize(h, vocab) for h in sample.hints]
                try:
                    with GradTape() as tape:
                        grid, diag = forward_grid(sample.features, sample.target_tokens,
                                                  hint_tokens, params, model_cfg, mode="train")
                        loss = transducer_nll(grid)
                        total = loss
                        penalty_val = 0.0
                        if settings.sc_consistency_weight > 0 and len(diag.iterates) > 2:
                            # teach the loop to settle: consecutive refinements from
                            # iteration 2 on must agree (iteration 1 stays free, it
                            # is the one that injects the hint context)
                            penalty = None
                            for a, b in zip(diag.iterates[1:-1], diag.iterates[2:]):
                                gap = tz.sub(b, a)
                                term = tz.mean_all(tz.mul(gap, gap))
                                penalty = term if penalty is None else tz.add(penalty, term)
                            penalty = tz.scale(penalty, 1.0 / (len(diag.iterates) - 2))
                            total = tz.add(loss, tz.scale(penalty, settings.sc_consistency_weight))
                            penalty_val = penalty.item()
                        batch_penalties.append(penalty_val)
                        backward(tape, total)
                except FloatingPointError as e:
                    batch_dump.append({"utterance_id": entry.utterance_id, "text": entry.text,
                                       "type": sample.sample_type, "hints": sample.hints,
                                       "error": str(e)})
                    what = f"non-finite forward pass at step {global_step} ({e})"
                    raise _diverged(out_dir, batch_dump, what) from None
                batch_losses.append(loss.item())
                batch_dump.append({"utterance_id": entry.utterance_id,
                                   "text": entry.text, "type": sample.sample_type,
                                   "hints": sample.hints, "loss": loss.item()})
            mean_loss = float(np.mean(batch_losses))
            mean_penalty = float(np.mean(batch_penalties))
            if not np.isfinite(mean_loss):
                raise _diverged(out_dir, batch_dump, f"non-finite loss at step {global_step}")
            # grads accumulated one utterance at a time; rescale to the batch mean
            inv_b = 1.0 / len(batch_ids)
            for _, t in params.items():
                if t.grad is not None:
                    t.grad *= inv_b
            adam_step(params, optim_state)
            losses.append(mean_loss)
            wall_ms = int((time.time() - t_start) * 1000)
            curve.write(json.dumps({"step": optim_state.step, "loss": mean_loss,
                                    "sc_penalty": mean_penalty,
                                    "wall_ms": wall_ms}) + "\n")
            if settings.log_every and (local_step % settings.log_every == 0):
                log.info("step %d loss %.4f", optim_state.step, mean_loss)
            if optim_state.step % ckpt_every == 0:
                save_checkpoint(out_dir / f"checkpoint-step{optim_state.step}.scj",
                                params, model_cfg, extras=optim_extras(optim_state),
                                meta={"step": optim_state.step})
    save_checkpoint(out_dir / "checkpoint.scj", params, model_cfg,
                    extras=optim_extras(optim_state), meta={"step": optim_state.step})
    return params, optim_state, losses
