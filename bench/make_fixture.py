"""Build the benchmark fixture: a trained checkpoint, its word lists, and the
reference outputs every benchmark run is checked against.

    python3 bench/make_fixture.py --out bench/fixture

Recipe (the acceptance recipe, run through the operator CLI):

    hintasr --config cfg.json gen-data --out data --seed 0 --utterances 2000
    hintasr --config cfg.json train --data data --out run --steps 2200 \
        --batch-size 4 --seed 0 --lr 0.002

where ``cfg.json`` holds the acceptance geometry (d=32, 2 encoder layers,
ff 64, 4 self-attention and 2 cross-attention heads, context_dim 16) and
synth settings (noise 0.35, dataset seed 1234). The checkpoint is stored
without optimizer moments. The CLI runs in a temporary directory under
``.bench_run`` that is deleted afterwards. ``--geometry tiny`` builds the
small fixture the self-test uses.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

GEOMETRIES = {
    "acceptance": {"num_encoder_layers": 2, "encoder_dim": 32, "feedforward_dim": 64,
                   "self_attention_heads": 4, "cross_attention_heads": 2,
                   "context_dim": 16, "joiner_dim": 32},
    "tiny": {"num_encoder_layers": 1, "encoder_dim": 8, "feedforward_dim": 8,
             "self_attention_heads": 2, "cross_attention_heads": 2, "context_dim": 4,
             "joiner_dim": 8, "context_blstm_layers": 1},
}
SYNTH = {"feature_dim": 16, "noise_sigma": 0.35, "dataset_seed": 1234}
LR = 2e-3
LAMBDA_TOKEN = 0.3
POOL_SEED = 0


def decode_pool(train_words, dictionary, count: int) -> list:
    """Test-set-like utterances: even rows use training words only, odd rows
    one dictionary word next to a training word."""
    import numpy as np
    rng = np.random.default_rng([POOL_SEED, 3])
    pool = []
    for i in range(count):
        if i % 2 == 0:
            n = int(rng.integers(1, 3))
            idx = rng.choice(len(train_words), size=n, replace=False)
            text = " ".join(train_words[int(j)] for j in np.atleast_1d(idx))
            uid = f"free-{i:04d}"
        else:
            word = dictionary[int(rng.integers(0, len(dictionary)))]
            companion = train_words[int(rng.integers(0, len(train_words)))]
            text = f"{companion} {word}" if rng.random() < 0.5 else f"{word} {companion}"
            uid = f"dict-{i:04d}"
        pool.append({"utterance_id": uid, "text": text, "seed": int(rng.integers(0, 2**31))})
    return pool


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--geometry", choices=sorted(GEOMETRIES), default="acceptance")
    p.add_argument("--train-steps", type=int, default=2200)
    p.add_argument("--pool", type=int, default=600, help="decode utterances with references")
    p.add_argument("--episodes", type=int, default=64, help="training episodes with references")
    p.add_argument("--episode-steps", type=int, default=8)
    p.add_argument("--episode-entries", type=int, default=64)
    args = p.parse_args(argv)
    run.import_package()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as work:
        build(Path(work), out, args)
    print(f"wrote fixture to {out}")
    return 0


def build(work: Path, out: Path, args) -> None:
    from hintasr import checkpoint, data, decode, train
    config = work / "cfg.json"
    config.write_text(json.dumps({"model": GEOMETRIES[args.geometry], "synth": SYNTH},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")

    recipe = [
        ["hintasr", "--config", "cfg.json", "gen-data", "--out", "data", "--seed", "0",
         "--utterances", "2000"],
        ["hintasr", "--config", "cfg.json", "train", "--data", "data", "--out", "run",
         "--steps", str(args.train_steps), "--batch-size", "4", "--seed", "0", "--lr", str(LR)],
    ]
    for cmd in recipe:
        subprocess.run([sys.executable, "-m", "hintasr.cli", *cmd[1:]],
                       check=True, cwd=work, timeout=7200,
                       env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")))

    params, cfg, _, meta = checkpoint.load_checkpoint(work / "run" / "checkpoint.scj")
    checkpoint.save_checkpoint(out / "model.scj", params, cfg, meta=meta)
    for src, dst in (("train_words.txt", "train_words.txt"),
                     ("negative_pool.txt", "negative_pool.txt"),
                     ("eval_hints.txt", "dictionary.txt")):
        shutil.copyfile(work / "data" / src, out / dst)
    synth = data.SynthConfig(**SYNTH)
    vocab = data.Vocab.default()
    train_words = data.read_wordlist(out / "train_words.txt")
    negatives = data.read_wordlist(out / "negative_pool.txt")
    dictionary = data.read_wordlist(out / "dictionary.txt")

    pool = decode_pool(train_words, dictionary, args.pool)
    hint_tokens = [data.tokenize(w, vocab) for w in dictionary]
    trie = decode.build_hint_trie(hint_tokens, LAMBDA_TOKEN)
    transcripts = {}
    for mode in ("dict", "plain"):
        kwargs = run.decode_kwargs(mode, hint_tokens, trie, LAMBDA_TOKEN)
        transcripts[mode] = [
            data.detokenize(decode.greedy_decode(
                data.features_for_entry(data.ManifestEntry(**u), vocab, synth),
                params, cfg, **kwargs), vocab)
            for u in pool]
    (out / "decode_ref.json").write_text(json.dumps(
        {"lambda_token": LAMBDA_TOKEN, "pool": pool, "transcripts": transcripts},
        indent=1) + "\n", encoding="utf-8")

    episodes = []
    for seed in range(args.episodes):
        entries = run.episode_entries(train_words, seed, args.episode_entries)
        _, _, losses = train.train_loop(
            entries, negatives, cfg, train.OptimConfig(lr=LR),
            run.train_settings(seed, args.episode_steps), synth, vocab, work / f"episode-{seed}")
        episodes.append({"seed": seed, "losses": losses})
    (out / "train_ref.json").write_text(json.dumps(
        {"steps": args.episode_steps, "entries": args.episode_entries, "lr": LR,
         "episodes": episodes}, indent=1) + "\n", encoding="utf-8")

    manifest = {
        "recipe": [" ".join(c) for c in recipe],
        "config": json.loads(config.read_text(encoding="utf-8")),
        "model": cfg.to_dict(),
        "synth": dataclasses.asdict(synth),
        "checkpoint_meta": meta,
        "sha256": {name: run.sha256_file(out / name) for name in
                   ("model.scj", "train_words.txt", "negative_pool.txt", "dictionary.txt")},
    }
    (out / "fixture.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
