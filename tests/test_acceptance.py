"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two criteria that need a
trained model share one session-scoped toy training run (a few minutes of CPU
time); everything else is fast. Set HINTASR_ACCEPT_STEPS to shorten or extend
that run (default 2200 optimizer steps). Every test here carries the
``acceptance`` marker, so `pytest -m "not acceptance"` runs the fast suite.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY, assert_grads_close
from hintasr import tensor as tz
from hintasr.cli import main as cli_main
from hintasr.data import (
    SynthConfig,
    Vocab,
    detokenize,
    features_for_entry,
    generate_corpus,
    read_manifest,
    read_wordlist,
    tokenize,
)
from hintasr.decode import FusionState, build_hint_trie, fusion_step, greedy_decode
from hintasr.loss import LogitGrid, brute_force_transducer_nll, transducer_nll
from hintasr.metrics import evaluate_transcripts
from hintasr.model import (
    ModelConfig,
    bias_and_combine,
    encode_audio,
    encode_context,
    forward_grid,
    init_params,
    predict_labels,
    run_sc_loop,
    self_consistent_joiner,
)
from hintasr.tensor import GradTape, Tensor, backward, finite_diff_grad
from hintasr.train import OptimConfig, TrainSettings, train_loop

pytestmark = pytest.mark.acceptance

ACCEPT_STEPS = int(os.environ.get("HINTASR_ACCEPT_STEPS", "2200"))
VOCAB = Vocab.default()


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared trained model (criteria 3 and 5)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trained_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    vocab = VOCAB
    synth = SynthConfig(feature_dim=16, noise_sigma=0.35, dataset_seed=1234)
    cfg = ModelConfig(vocab_size=vocab.size, feature_dim=16, num_encoder_layers=2,
                      encoder_dim=32, feedforward_dim=64, self_attention_heads=4,
                      cross_attention_heads=2, context_dim=16, joiner_dim=32)
    paths = generate_corpus(root / "data", seed=0, n_train_utts=2000,
                            n_test_hintfree=50, n_train_words=60,
                            n_negative_words=30, n_oov_words=20)
    entries = read_manifest(paths["train_manifest"])
    pool = read_wordlist(paths["negative_pool"])
    t0 = time.time()
    settings = TrainSettings(steps=ACCEPT_STEPS, batch_size=4, seed=0, log_every=0)
    params, _, losses = train_loop(entries, pool, cfg, OptimConfig(lr=2e-3), settings,
                                   synth, vocab, root / "run")
    train_minutes = (time.time() - t0) / 60
    print(f"\n[acceptance fixture] trained {ACCEPT_STEPS} steps in {train_minutes:.1f} min; "
          f"loss {losses[0]:.2f} -> {np.mean(losses[-20:]):.3f}")
    assert train_minutes < 60, "training exceeded the 60-minute budget"
    return {"params": params, "cfg": cfg, "synth": synth, "paths": paths, "root": root}


# ---------------------------------------------------------------------------
# criterion 1: loss-oracle equivalence
# ---------------------------------------------------------------------------


def test_c1_loss_oracle_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst = 0.0
    trials = 220
    for _ in range(trials):
        t_len = int(rng.integers(1, 5))
        u_len = int(rng.integers(0, 4))
        vocab = int(rng.integers(2, 5))
        target = [int(v) for v in rng.integers(1, vocab, size=u_len)]
        raw = rng.uniform(-2, 2, size=(t_len, u_len + 1, vocab))
        lp = raw - np.log(np.exp(raw).sum(axis=-1, keepdims=True))
        grid = LogitGrid(Tensor(lp), target)
        delta = abs(transducer_nll(grid).item() - brute_force_transducer_nll(grid))
        worst = max(worst, delta)
    elapsed = time.time() - t0
    report("C1 loss-oracle equivalence", worst <= 1e-9 and elapsed < 10,
           f"{trials} instances, worst |DP - brute force| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite
# ---------------------------------------------------------------------------


def test_c2_gradient_suite():
    from test_tensor import OPS_UNDER_TEST

    t0 = time.time()
    # unit-op gradients: every registered differentiable op vs central differences
    for name, case in OPS_UNDER_TEST:
        rng = np.random.default_rng(2024)
        x, f = case(rng)
        x.zero_grad()
        with GradTape() as tape:
            backward(tape, f(x))
        fd = finite_diff_grad(f, x, h=1e-5)
        assert_grads_close(x.grad, fd.data, rtol=1e-4, what=f"op {name}")

    # full end-to-end loss: T=3, U=2, 2 hints, N=2 unrolled iterations
    cfg = ModelConfig(**{**TINY, "max_sc_iters": 2})
    params = init_params(cfg, seed=42)
    rng = np.random.default_rng(7)
    feats = Tensor(rng.uniform(-1, 1, size=(3, cfg.feature_dim)))
    target = [1, 3]
    hints = [[2, 4], [5]]

    def loss_fn():
        grid, diag = forward_grid(feats, target, hints, params, cfg, mode="train")
        assert diag.iterations_run == 2
        return transducer_nll(grid)

    params.zero_grads()
    with GradTape() as tape:
        backward(tape, loss_fn())
    checked = 0
    worst = 0.0
    coord_rng = np.random.default_rng(1)
    for name, t in params.items():
        assert t.grad is not None, f"no gradient reached {name}"
        idxs = np.arange(t.size) if t.size <= 6 else \
            coord_rng.choice(t.size, size=6, replace=False)
        for i in idxs:
            hi = t.data.copy()
            hi[i] += 1e-5
            lo = t.data.copy()
            lo[i] -= 1e-5

            def probe(flat):
                old = t.data.copy()
                t.data[:] = flat
                try:
                    with tz.no_grad():
                        return loss_fn().item()
                finally:
                    t.data[:] = old

            fd = (probe(hi) - probe(lo)) / 2e-5
            ad = t.grad[i]
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-7)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{name}[{i}]: analytic {ad:.3e} vs fd {fd:.3e}"
            checked += 1
    elapsed = time.time() - t0
    report("C2 gradient suite", elapsed < 120,
           f"all ops + {checked} end-to-end coords across every parameter group, "
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: self-consistency convergence on a trained model
# ---------------------------------------------------------------------------


def test_c3_convergence_pattern(trained_setup):
    params = trained_setup["params"]
    cfg = trained_setup["cfg"]
    synth = trained_setup["synth"]
    paths = trained_setup["paths"]
    entries = read_manifest(paths["test_manifest"])
    hints = [tokenize(w, VOCAB) for w in read_wordlist(paths["eval_hints"])]

    t0 = time.time()
    resamples = 5
    cells_per = 100
    rng = np.random.default_rng(33)
    per_trial = np.zeros((resamples, 6))
    converged = 0
    total = 0
    with tz.no_grad():
        for trial in range(resamples):
            acc = np.zeros(6)
            cells = 0
            while cells < cells_per:
                e = entries[int(rng.integers(0, len(entries)))]
                feats = features_for_entry(e, VOCAB, synth)
                target = tokenize(e.text, VOCAB)
                h_a = encode_audio(feats, params, cfg)
                ctx_a = encode_context(hints, params, cfg, side="audio")
                h_ac = bias_and_combine(h_a, ctx_a, params, cfg, "bias_audio", "combiner_audio")
                h_d = predict_labels(target, params, cfg)
                ctx_j = encode_context(hints, params, cfg, side="joiner")
                for _ in range(min(cells_per - cells, 10)):
                    t = int(rng.integers(0, feats.shape[0]))
                    u = int(rng.integers(0, len(target) + 1))
                    h_ac_t = tz.reshape(tz.slice_rows(h_ac, t, t + 1), (cfg.encoder_dim,))
                    h_d_u = tz.reshape(tz.slice_rows(h_d, u, u + 1), (cfg.joiner_dim,))
                    _, diag = self_consistent_joiner(h_ac_t, h_d_u, ctx_j, params, cfg,
                                                     mode="train", max_iters=6)
                    acc += np.array(diag.mean_diffs)
                    _, idiag = self_consistent_joiner(h_ac_t, h_d_u, ctx_j, params, cfg,
                                                      mode="infer", max_iters=6,
                                                      threshold=1e-6)
                    converged += int(idiag.converged)
                    total += 1
                    cells += 1
            per_trial[trial] = acc / cells_per
    avg = per_trial.mean(axis=0)
    ratio = abs(avg[2]) / max(abs(avg[0]), 1e-300)
    frac = converged / total
    elapsed = time.time() - t0
    ok = ratio <= 1e-3 and frac >= 0.95 and elapsed < 300
    report("C3 self-consistency convergence",
           ok,
           f"|avg mean diff| iter1 {abs(avg[0]):.3e} -> iter3 {abs(avg[2]):.3e} "
           f"(ratio {ratio:.2e} <= 1e-3), inference exits by N=6 on {frac:.1%} of "
           f"{total} cells, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: Algorithm 1 conformance
# ---------------------------------------------------------------------------


def test_c4_algorithm_conformance():
    # (a) the n>1 guard: a loop at its fixed point still runs two iterations
    def const_loop():
        state = {"i": 0}
        return (lambda z: z, lambda z, a: z,
                lambda z0: Tensor(np.zeros((1, 3))))

    bias_fn, combine_fn, refine_fn = const_loop()
    _, diag = run_sc_loop(Tensor(np.zeros((1, 3))), bias_fn, combine_fn, refine_fn,
                          max_iters=5, threshold=1e-6, train=False)
    guard_ok = diag.iterations_run == 2 and diag.converged

    # (b) abs-mean stopping statistic: zero-mean oscillation exits despite max diff 1
    outs = iter([np.array([[1.0, -1.0]]), np.array([[2.0, -2.0]]), np.array([[3.0, -3.0]])])
    _, diag2 = run_sc_loop(Tensor(np.zeros((1, 2))), lambda z: z, lambda z, a: z,
                           lambda z0: Tensor(next(outs)), max_iters=5, threshold=1e-6,
                           train=False)
    stat_ok = diag2.iterations_run == 2 and diag2.converged and diag2.max_diffs[1] == 1.0

    # (c) train mode ignores the threshold and unrolls exactly N iterations
    _, diag3 = run_sc_loop(Tensor(np.zeros((1, 3))), bias_fn, combine_fn, refine_fn,
                           max_iters=4, threshold=1e6, train=True)
    train_ok = diag3.iterations_run == 4 and not diag3.converged

    # (d) bit-equality of the shared runner: context-joiner loop with identity
    # refine vs the joiner-free variant
    from hintasr.model import _joiner_side_fns, fixed_point_bias_combiner
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, seed=9)
    rng = np.random.default_rng(4)
    ctx = encode_context([[1, 2], [5]], params, cfg, side="joiner")
    z_init = Tensor(rng.uniform(-1, 1, size=(cfg.joiner_dim,)))
    z_a, diag_a = fixed_point_bias_combiner(z_init, ctx, params, cfg, max_iters=4,
                                            threshold=1e-7)
    bf, cf, _ = _joiner_side_fns(None, ctx, params, cfg)
    z_b, diag_b = run_sc_loop(Tensor(z_init.array.reshape(1, -1)), bf, cf, lambda v: v,
                              max_iters=4, threshold=1e-7, train=False)
    unify_ok = np.array_equal(z_a.array, z_b.array.reshape(-1)) \
        and diag_a.mean_diffs == diag_b.mean_diffs

    ok = guard_ok and stat_ok and train_ok and unify_ok
    report("C4 Algorithm 1 conformance", ok,
           f"n>1 guard {guard_ok}, abs-mean statistic {stat_ok}, "
           f"train-mode fixed-N {train_ok}, shared-runner bit-equality {unify_ok}")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end biasing effect
# ---------------------------------------------------------------------------


def test_c5_biasing_effect(trained_setup):
    params = trained_setup["params"]
    cfg = trained_setup["cfg"]
    synth = trained_setup["synth"]
    paths = trained_setup["paths"]
    entries = read_manifest(paths["test_manifest"])
    hint_words = read_wordlist(paths["eval_hints"])
    hint_tokens = [tokenize(w, VOCAB) for w in hint_words]
    refs = [e.text for e in entries]
    free_idx = [i for i, e in enumerate(entries) if e.utterance_id.startswith("test-free")]
    lam = 0.3

    outputs = {}
    trie = build_hint_trie(hint_tokens, lam)
    for mode, ctx_on, fus_on in (("none", False, False), ("context", True, False),
                                 ("both", True, True)):
        hyps = []
        for e in entries:
            feats = features_for_entry(e, VOCAB, synth)
            toks = greedy_decode(feats, params, cfg,
                                 hints=hint_tokens if (ctx_on or fus_on) else None,
                                 context_enabled=ctx_on, fusion_enabled=fus_on,
                                 lambda_token=lam, trie=trie if fus_on else None)
            hyps.append(detokenize(toks, VOCAB))
        outputs[mode] = hyps

    scores = {m: evaluate_transcripts(h, refs, hints=hint_words)
              for m, h in outputs.items()}
    oov_none = scores["none"].oov_accuracy or 0.0
    oov_ctx = scores["context"].oov_accuracy or 0.0
    oov_both = scores["both"].oov_accuracy or 0.0

    free_none = evaluate_transcripts([outputs["none"][i] for i in free_idx],
                                     [refs[i] for i in free_idx]).wer
    free_both = evaluate_transcripts([outputs["both"][i] for i in free_idx],
                                     [refs[i] for i in free_idx]).wer
    degradation = (free_both - free_none) / max(free_none, 1e-9) * 100.0

    gain_ok = oov_ctx > oov_none and oov_ctx >= 1.3 * oov_none
    fusion_ok = oov_both >= oov_ctx
    wer_ok = degradation <= 5.0
    report("C5 end-to-end biasing effect", gain_ok and fusion_ok and wer_ok,
           f"OOV accuracy none {oov_none:.1f} -> context {oov_ctx:.1f} "
           f"(x{oov_ctx / max(oov_none, 1e-9):.2f}) -> context+fusion {oov_both:.1f}; "
           f"hint-free WER {free_none:.2f} -> {free_both:.2f} ({degradation:+.2f}% rel)")


# ---------------------------------------------------------------------------
# criterion 6: fusion unit suite
# ---------------------------------------------------------------------------


def test_c6_fusion_units():
    lam = 0.7
    trie = build_hint_trie([[1, 2, 3], [4, 5]], lam)

    # zero-sum backoff: boosts of abandoned partial matches net to exactly 0
    state = FusionState()
    total = 0.0
    for tok in [1, 2, 9, 4, 7, 1, 8]:  # every partial match dies
        d, state = fusion_step(state, tok, trie)
        total += d
    zero_sum_ok = total == 0.0 and state == FusionState(trie.root, 0.0)

    # exact hint: total boost == len(hint) * lambda, bit-exact
    state = FusionState()
    total = 0.0
    for tok in [1, 2, 3]:
        d, state = fusion_step(state, tok, trie)
        total += d
    exact_ok = total == 3 * lam and state == FusionState(trie.root, 0.0)

    # lambda = 0 is the identity on decoding
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, seed=21)
    params["output.b"].data.reshape(cfg.vocab_size)[0] = -2.0
    feats = Tensor(np.random.default_rng(3).normal(size=(4, cfg.feature_dim)))
    hints = [[1, 2], [3]]
    plain = greedy_decode(feats, params, cfg, hints=hints, fusion_enabled=False)
    fused = greedy_decode(feats, params, cfg, hints=hints, fusion_enabled=True,
                          lambda_token=0.0)
    lam0_ok = plain == fused

    report("C6 fusion unit suite", zero_sum_ok and exact_ok and lam0_ok,
           f"zero-sum {zero_sum_ok}, exact-hint boost {exact_ok}, lambda=0 identity {lam0_ok}")


# ---------------------------------------------------------------------------
# criterion 7: training determinism
# ---------------------------------------------------------------------------


def test_c7_training_determinism(tmp_path):
    import subprocess
    import sys

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"num_encoder_layers": 1, "encoder_dim": 16, "feedforward_dim": 24,
                  "self_attention_heads": 2, "cross_attention_heads": 2, "context_dim": 8,
                  "joiner_dim": 16, "feature_dim": 8},
        "synth": {"feature_dim": 8},
    }))
    assert cli_main(["gen-data", "--out", str(tmp_path / "data"), "--seed", "3",
                     "--utterances", "24", "--test-utterances", "4", "--train-words", "12",
                     "--negative-words", "8", "--oov-words", "3",
                     "--feature-dim", "8"]) == 0
    losses = []
    blobs = []
    for sub in ("runA", "runB"):  # two separate OS processes
        proc = subprocess.run(
            [sys.executable, "-m", "hintasr.cli", "--config", str(cfg_path),
             "train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / sub),
             "--steps", "10", "--batch-size", "2", "--seed", "17"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        curve = [json.loads(l) for l in
                 (tmp_path / sub / "loss_curve.jsonl").read_text().splitlines()]
        losses.append([c["loss"] for c in curve])
        blobs.append((tmp_path / sub / "checkpoint.scj").read_bytes())
    step10_ok = losses[0][9] == losses[1][9]
    all_ok = losses[0] == losses[1]
    bytes_ok = blobs[0] == blobs[1]
    report("C7 determinism", step10_ok and all_ok and bytes_ok,
           f"step-10 losses bit-identical ({losses[0][9]:.6f}), full trajectories equal, "
           f"checkpoints byte-identical ({len(blobs[0])} bytes)")


# ---------------------------------------------------------------------------
# criterion 8: permutation invariance and causality
# ---------------------------------------------------------------------------


def test_c8_permutation_and_causality():
    cfg = ModelConfig(**TINY)
    params = init_params(cfg, seed=13)
    rng = np.random.default_rng(5)
    feats = rng.uniform(-1, 1, size=(5, cfg.feature_dim))
    hints = [[1, 2], [3, 4, 5], [6]]
    base = forward_grid(Tensor(feats), [1, 2], hints, params, cfg)[0].log_probs.array
    perm = forward_grid(Tensor(feats), [1, 2], [hints[1], hints[2], hints[0]],
                        params, cfg)[0].log_probs.array
    perm_dev = np.abs(base - perm).max()

    enc_base = encode_audio(Tensor(feats), params, cfg).array
    pert = feats.copy()
    pert[3:] += 0.8
    enc_pert = encode_audio(Tensor(pert), params, cfg).array
    enc_causal = np.array_equal(enc_base[:3], enc_pert[:3])

    grid_pert = forward_grid(Tensor(pert), [1, 2], hints, params, cfg)[0].log_probs.array
    grid_dev = np.abs(base[:3] - grid_pert[:3]).max()
    grid_causal = grid_dev <= 1e-12
    changed = np.abs(base[3:] - grid_pert[3:]).max() > 0

    ok = perm_dev <= 1e-10 and enc_causal and grid_causal and changed
    report("C8 permutation invariance and causality", ok,
           f"hint-permutation max dev {perm_dev:.2e} <= 1e-10, encoder causal "
           f"bit-identical {enc_causal}, grid rows before perturbation dev {grid_dev:.2e}")
