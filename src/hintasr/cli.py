"""Operator-facing command surface: gen-data, train, decode, eval,
probe-convergence. Settings come from an optional JSON config file plus flag
overrides; flags win. Exit codes: 0 success, 1 usage/config error, 2 runtime
failure."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import tensor as tz
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    ManifestEntry,
    OovCharacterError,
    SynthConfig,
    Vocab,
    features_for_entry,
    generate_corpus,
    read_manifest,
    read_wordlist,
    tokenize,
    detokenize,
)
from .decode import build_hint_trie, greedy_decode
from .metrics import evaluate_transcripts
from .model import (
    ModelConfig,
    bias_and_combine,
    encode_audio,
    encode_context,
    predict_labels,
    self_consistent_joiner,
)
from .tensor import ContractError
from .train import (
    OptimConfig,
    TrainingDiverged,
    TrainSettings,
    optim_extras,
    restore_optim,
    train_loop,
)

log = logging.getLogger("hintasr")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

DECODE_MODES = ("none", "context", "fusion", "both")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


_CONFIG_SECTIONS = {
    "model": {f.name for f in dataclasses.fields(ModelConfig)},
    "optim": {f.name for f in dataclasses.fields(OptimConfig)},
    "synth": {f.name for f in dataclasses.fields(SynthConfig)},
    "train": {f.name for f in dataclasses.fields(TrainSettings)},
    "decode": {"lambda_token", "fusion", "context", "mode"},
    "seed": None,
}


def load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    for key, value in raw.items():
        if key not in _CONFIG_SECTIONS:
            raise UsageError(f"config {path}: unknown section {key!r}")
        allowed = _CONFIG_SECTIONS[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise UsageError(f"config {path}: section {key!r} must be an object")
        unknown = set(value) - allowed
        if unknown:
            raise UsageError(f"config {path}: unknown keys in {key!r}: {sorted(unknown)}")
    return raw


def _section(config: dict, name: str) -> dict:
    return dict(config.get(name, {})) if config else {}


def _build_model_config(config: dict, vocab_size: int, feature_dim: int) -> ModelConfig:
    kw = _section(config, "model")
    kw.setdefault("vocab_size", vocab_size)
    kw.setdefault("feature_dim", feature_dim)
    try:
        return ModelConfig(**kw)
    except (TypeError, ContractError) as e:
        raise UsageError(f"bad model config: {e}")


def _build_synth_config(config: dict, data_dir: Path) -> SynthConfig:
    dataset_json = data_dir / "dataset.json"
    kw = {}
    if dataset_json.exists():
        stored = json.loads(dataset_json.read_text(encoding="utf-8"))
        kw.update(stored.get("synth", {}))
    kw.update(_section(config, "synth"))
    try:
        return SynthConfig(**kw)
    except (TypeError, ContractError) as e:
        raise UsageError(f"bad synth config: {e}")


def _tokenize_hints(words, vocab: Vocab) -> list:
    tokens = []
    for w in words:
        try:
            tokens.append(tokenize(w, vocab))
        except OovCharacterError as e:
            raise UsageError(f"hint {w!r}: {e}") from None
    return tokens


def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, config: dict) -> int:
    synth_kw = _section(config, "synth")
    if args.feature_dim is not None:
        synth_kw["feature_dim"] = args.feature_dim
    if args.noise_sigma is not None:
        synth_kw["noise_sigma"] = args.noise_sigma
    synth_kw.setdefault("dataset_seed", args.seed)
    synth = SynthConfig(**synth_kw)
    paths = generate_corpus(
        args.out, seed=args.seed, n_train_utts=args.utterances,
        n_test_hintfree=args.test_utterances, n_train_words=args.train_words,
        n_negative_words=args.negative_words, n_oov_words=args.oov_words)
    dataset_json = Path(args.out) / "dataset.json"
    dataset_json.write_text(json.dumps({
        "seed": args.seed,
        "synth": dataclasses.asdict(synth),
        "files": sorted(Path(p).name for p in paths.values()),
    }, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote corpus to {args.out}")
    return EXIT_OK


def cmd_train(args, config: dict) -> int:
    data_dir = _require(args.data, "data directory")
    manifest_path = _require(data_dir / "train_manifest.jsonl", "train manifest")
    entries = read_manifest(manifest_path)
    if not entries:
        raise UsageError(f"train manifest {manifest_path} has no entries")
    negative_pool = read_wordlist(_require(data_dir / "negative_pool.txt", "negative pool"))
    vocab = Vocab.default()
    synth = _build_synth_config(config, data_dir)

    train_kw = _section(config, "train")
    if args.steps is not None:
        train_kw["steps"] = args.steps
    if args.batch_size is not None:
        train_kw["batch_size"] = args.batch_size
    if args.seed is not None:
        train_kw["seed"] = args.seed
    if "type_weights" in train_kw:
        train_kw["type_weights"] = tuple(train_kw["type_weights"])
    settings = TrainSettings(**train_kw)

    optim_kw = _section(config, "optim")
    if args.lr is not None:
        optim_kw["lr"] = args.lr
    optim_cfg = OptimConfig(**optim_kw)

    params = optim_state = None
    if args.resume:
        params, model_cfg, extras, meta = load_checkpoint(_require(args.resume, "checkpoint"))
        optim_state = restore_optim(params, optim_cfg, extras)
        log.info("resumed from %s at step %d", args.resume, optim_state.step)
    else:
        model_cfg = _build_model_config(config, vocab.size, synth.feature_dim)
    if model_cfg.feature_dim != synth.feature_dim:
        raise UsageError(
            f"model feature_dim {model_cfg.feature_dim} != synth feature_dim {synth.feature_dim}")

    try:
        _, optim_state, losses = train_loop(
            entries, negative_pool, model_cfg, optim_cfg, settings, synth, vocab,
            out_dir=args.out, params=params, optim_state=optim_state)
    except TrainingDiverged as e:
        log.error("%s", e)
        return EXIT_RUNTIME
    print(f"trained to step {optim_state.step}; final loss {losses[-1]:.4f}; "
          f"checkpoint at {Path(args.out) / 'checkpoint.scj'}")
    return EXIT_OK


def _decode_mode_flags(mode: str):
    if mode not in DECODE_MODES:
        raise UsageError(f"unknown decode mode {mode!r}; expected one of {DECODE_MODES}")
    return {"context": mode in ("context", "both"), "fusion": mode in ("fusion", "both")}


def cmd_decode(args, config: dict) -> int:
    params, model_cfg, _, _ = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    manifest_path = _require(args.manifest, "manifest")
    entries = read_manifest(manifest_path)
    data_dir = manifest_path.parent
    synth = _build_synth_config(config, data_dir)
    vocab = Vocab.default()

    decode_kw = _section(config, "decode")
    lambda_token = args.lambda_token if args.lambda_token is not None \
        else decode_kw.get("lambda_token", 0.3)
    modes = list(DECODE_MODES) if args.all_modes else [args.mode or decode_kw.get("mode", "none")]

    hint_words = []
    for mode in modes:
        flags = _decode_mode_flags(mode)
        if (flags["context"] or flags["fusion"]) and not args.hints:
            raise UsageError(f"mode {mode!r} needs --hints")
    if args.hints:
        hint_words = read_wordlist(_require(args.hints, "hints file"))
    hint_tokens = _tokenize_hints(hint_words, vocab)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for mode in modes:
        flags = _decode_mode_flags(mode)
        use_hints = hint_tokens if (flags["context"] or flags["fusion"]) else []
        trie = build_hint_trie(hint_tokens, lambda_token) if flags["fusion"] else None
        lines = []
        for entry in entries:
            feats = features_for_entry(entry, vocab, synth)
            toks = greedy_decode(
                feats, params, model_cfg, hints=use_hints,
                context_enabled=flags["context"], fusion_enabled=flags["fusion"],
                lambda_token=lambda_token, trie=trie)
            lines.append(detokenize(toks, vocab))
        out_path = out_dir / f"transcripts-{mode}.txt"
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(out_path))
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    hyp_path = _require(args.hyp, "transcripts")
    entries = read_manifest(_require(args.manifest, "manifest"))
    hyps = hyp_path.read_text(encoding="utf-8").splitlines()
    refs = [e.text for e in entries]
    if len(hyps) != len(refs):
        raise UsageError(
            f"{len(hyps)} transcripts vs {len(refs)} references; files out of sync")
    hints = read_wordlist(_require(args.hints, "hints file")) if args.hints else []
    baseline_wer = None
    if args.baseline_report:
        baseline = json.loads(_require(args.baseline_report, "baseline report")
                              .read_text(encoding="utf-8"))
        baseline_wer = baseline.get("wer")
    report = evaluate_transcripts(hyps, refs, hints=hints, baseline_wer=baseline_wer)
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_probe_convergence(args, config: dict) -> int:
    params, model_cfg, _, _ = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    entries = read_manifest(_require(args.manifest, "manifest"))
    data_dir = Path(args.manifest).parent
    synth = _build_synth_config(config, data_dir)
    vocab = Vocab.default()
    hint_words = read_wordlist(_require(args.hints, "hints file")) if args.hints else []
    hint_tokens = _tokenize_hints(hint_words, vocab)
    n_iters = args.iters
    if n_iters < 6:
        raise UsageError("probe needs --iters >= 6")

    rng = np.random.default_rng(args.seed)
    per_trial_mean = np.zeros((args.resamples, n_iters))
    per_trial_max = np.zeros((args.resamples, n_iters))
    with tz.no_grad():
        for trial in range(args.resamples):
            mean_acc = np.zeros(n_iters)
            max_acc = np.zeros(n_iters)
            cells = 0
            while cells < args.cells:
                entry = entries[int(rng.integers(0, len(entries)))]
                feats = features_for_entry(entry, vocab, synth)
                target = tokenize(entry.text, vocab)
                h_a = encode_audio(feats, params, model_cfg)
                ctx_a = encode_context(hint_tokens, params, model_cfg, side="audio")
                h_ac = bias_and_combine(h_a, ctx_a, params, model_cfg,
                                        "bias_audio", "combiner_audio")
                h_d = predict_labels(target, params, model_cfg)
                ctx_j = encode_context(hint_tokens, params, model_cfg, side="joiner")
                for _ in range(min(args.cells - cells, 8)):
                    t = int(rng.integers(0, feats.shape[0]))
                    u = int(rng.integers(0, len(target) + 1))
                    h_ac_t = tz.reshape(tz.slice_rows(h_ac, t, t + 1), (model_cfg.encoder_dim,))
                    h_d_u = tz.reshape(tz.slice_rows(h_d, u, u + 1), (model_cfg.joiner_dim,))
                    # train mode disables the early exit so every iteration is recorded
                    _, diag = self_consistent_joiner(h_ac_t, h_d_u, ctx_j, params,
                                                     model_cfg, mode="train",
                                                     max_iters=n_iters)
                    mean_acc += np.array(diag.mean_diffs)
                    max_acc += np.array(diag.max_diffs)
                    cells += 1
            per_trial_mean[trial] = mean_acc / cells
            per_trial_max[trial] = max_acc / cells

    # 95% CI over resamples (two-sided Student t)
    t_table = {2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571,
               7: 2.447, 8: 2.365, 9: 2.306, 10: 2.262}
    t_crit = t_table.get(args.resamples, 1.96)
    rows = []
    for n in range(n_iters):
        mm = per_trial_max[:, n]
        me = per_trial_mean[:, n]
        rows.append({
            "iteration": n + 1,
            "avg_max_diff": float(mm.mean()),
            "max_diff_ci95": float(t_crit * mm.std(ddof=1) / np.sqrt(args.resamples)),
            "avg_mean_diff": float(me.mean()),
            "mean_diff_ci95": float(t_crit * me.std(ddof=1) / np.sqrt(args.resamples)),
        })
    header = f"{'iter':>4}  {'avg max diff':>14}  {'ci95':>10}  {'avg mean diff':>14}  {'ci95':>10}"
    print(header)
    for r in rows:
        print(f"{r['iteration']:>4}  {r['avg_max_diff']:>14.4e}  {r['max_diff_ci95']:>10.2e}"
              f"  {r['avg_mean_diff']:>14.4e}  {r['mean_diff_ci95']:>10.2e}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hintasr", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus and hint pools")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterances", type=int, default=2000)
    p.add_argument("--test-utterances", type=int, default=50)
    p.add_argument("--train-words", type=int, default=60)
    p.add_argument("--negative-words", type=int, default=30)
    p.add_argument("--oov-words", type=int, default=20)
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="greedy decoding with optional hints/fusion")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--hints")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=DECODE_MODES)
    p.add_argument("--all-modes", action="store_true",
                   help="decode in all four hinting configurations")
    p.add_argument("--lambda-token", type=float, dest="lambda_token")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score transcripts against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--hints")
    p.add_argument("--baseline-report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe-convergence", help="self-consistent iteration diff table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--hints")
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--cells", type=int, default=100)
    p.add_argument("--resamples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe_convergence)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config_file(args.config) if args.config else {}
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        return args.func(args, config)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractError, CheckpointError, OovCharacterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
