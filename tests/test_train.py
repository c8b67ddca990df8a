"""Optimizer behavior, training-loop determinism, and checkpoint round-trips."""

import numpy as np
import pytest

import hintasr.train as train_mod
from conftest import TINY
from hintasr.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from hintasr.data import ManifestEntry, SynthConfig, Vocab, generate_corpus, read_manifest, read_wordlist
from hintasr.model import ModelConfig, init_params, param_shapes
from hintasr.tensor import Tensor
from hintasr.train import (
    OptimConfig,
    OptimState,
    TrainingDiverged,
    TrainSettings,
    adam_step,
    optim_extras,
    restore_optim,
    train_loop,
)

SYNTH = SynthConfig(feature_dim=8, noise_sigma=0.15, dataset_seed=31)
VOCAB = Vocab.default()
CFG = ModelConfig(**{**TINY, "vocab_size": VOCAB.size, "feature_dim": 8})


class TestAdam:
    def setup_method(self):
        self.cfg = CFG
        self.params = init_params(self.cfg, seed=0)
        self.state = OptimState(self.params, OptimConfig(lr=1e-3))

    def test_zero_grads_leave_params_step_increments(self):
        before = {n: t.data.copy() for n, t in self.params.items()}
        assert adam_step(self.params, self.state)
        assert self.state.step == 1
        for n, t in self.params.items():
            assert np.array_equal(t.data, before[n]), n

    def test_first_step_is_signed_lr(self):
        name = "joiner.wa"
        t = self.params[name]
        g = np.random.default_rng(0).uniform(0.5, 1.5, size=t.size)
        before = t.data.copy()
        t.grad = g.copy()
        adam_step(self.params, self.state)
        update = before - t.data
        # first bias-corrected step is lr * g / (|g| + eps') ~= lr * sign(g)
        assert np.allclose(update, 1e-3 * np.sign(g), rtol=1e-4)

    def test_clipping_bounds_global_norm(self):
        big = OptimConfig(lr=1e-3, clip_norm=1.0)
        state = OptimState(self.params, big)
        rng = np.random.default_rng(1)
        for _, t in self.params.items():
            t.grad = rng.normal(scale=10.0, size=t.size)
        pre = {n: t.grad.copy() for n, t in self.params.items()}
        norm = np.sqrt(sum((g ** 2).sum() for g in pre.values()))
        adam_step(self.params, state)
        # after one step m = (1-beta1) * g_clipped, so ||m|/(1-beta1)|| is the
        # clipped global norm and must sit exactly at the clip value
        m_norm = np.sqrt(sum(((state.m[n] / 0.1) ** 2).sum() for n in state.m))
        assert m_norm == pytest.approx(1.0, rel=1e-9)
        assert norm > 1.0

    def test_nonfinite_grad_skips_and_zeroes(self):
        t = self.params["joiner.wa"]
        t.grad = np.full(t.size, np.nan)
        before = {n: p.data.copy() for n, p in self.params.items()}
        assert not adam_step(self.params, self.state)
        assert self.state.step == 0
        assert t.grad is None
        for n, p in self.params.items():
            assert np.array_equal(p.data, before[n])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = generate_corpus(root, seed=13, n_train_utts=12, n_test_hintfree=4,
                            n_train_words=10, n_negative_words=6, n_oov_words=3)
    entries = read_manifest(paths["train_manifest"])
    pool = read_wordlist(paths["negative_pool"])
    return root, entries, pool


def small_settings(**kw):
    base = dict(steps=6, batch_size=2, seed=5, log_every=0)
    base.update(kw)
    return TrainSettings(**base)


class TestTrainLoop:
    def test_deterministic_across_runs(self, corpus, tmp_path):
        _, entries, pool = corpus
        runs = []
        for name in ("a", "b"):
            _, _, losses = train_loop(entries, pool, CFG, OptimConfig(), small_settings(steps=10),
                                      SYNTH, VOCAB, out_dir=tmp_path / name)
            runs.append(losses)
        assert runs[0] == runs[1]  # bit-identical trajectories
        ca = (tmp_path / "a" / "checkpoint.scj").read_bytes()
        cb = (tmp_path / "b" / "checkpoint.scj").read_bytes()
        assert ca == cb

    def test_shuffled_vs_unshuffled_differ(self, corpus, tmp_path):
        _, entries, pool = corpus
        _, _, shuffled = train_loop(entries, pool, CFG, OptimConfig(),
                                    small_settings(), SYNTH, VOCAB, tmp_path / "s")
        _, _, ordered = train_loop(entries, pool, CFG, OptimConfig(),
                                   small_settings(shuffle=False), SYNTH, VOCAB, tmp_path / "o")
        assert shuffled != ordered

    def test_loss_curve_records(self, corpus, tmp_path):
        import json
        _, entries, pool = corpus
        train_loop(entries, pool, CFG, OptimConfig(), small_settings(steps=4),
                   SYNTH, VOCAB, tmp_path / "curve")
        lines = (tmp_path / "curve" / "loss_curve.jsonl").read_text().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert {"step", "loss", "wall_ms"} <= set(rec)

    def test_nan_loss_aborts_with_dump(self, corpus, tmp_path, monkeypatch):
        _, entries, pool = corpus
        from hintasr import tensor as tz
        orig = train_mod.transducer_nll
        monkeypatch.setattr(train_mod, "transducer_nll",
                            lambda grid: tz.scale(orig(grid), float("nan")))
        with pytest.raises(TrainingDiverged):
            train_loop(entries, pool, CFG, OptimConfig(), small_settings(steps=2),
                       SYNTH, VOCAB, tmp_path / "nan")
        assert (tmp_path / "nan" / "diverged_batch.json").exists()

    def test_single_sample_memorization(self, tmp_path):
        # overfit one short utterance at desk scale; the loss must trend down
        # (monotone across quarters of the run) to < 0.1 nats/char
        cfg = ModelConfig(vocab_size=VOCAB.size)
        synth = SynthConfig(feature_dim=16, noise_sigma=0.15, dataset_seed=31)
        entry = ManifestEntry("memo", "dala", seed=99)
        # pure transducer NLL objective (no auxiliary consistency term)
        settings = small_settings(steps=200, batch_size=1, seed=1,
                                  type_weights=(1.0, 0.0, 0.0),
                                  sc_consistency_weight=0.0)
        _, _, losses = train_loop([entry], [], cfg, OptimConfig(lr=4e-3), settings,
                                  synth, VOCAB, tmp_path / "memo")
        per_char = np.array(losses) / len(entry.text)
        quarters = [per_char[i * 50:(i + 1) * 50].mean() for i in range(4)]
        assert all(a > b for a, b in zip(quarters, quarters[1:]))
        assert per_char[-1] < 0.1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(CFG, seed=7)
        state = OptimState(params, OptimConfig())
        state.step = 42
        path = tmp_path / "ck.scj"
        save_checkpoint(path, params, CFG, extras=optim_extras(state), meta={"step": 42})
        loaded, cfg2, extras, meta = load_checkpoint(path)
        assert cfg2 == CFG
        assert meta["step"] == 42
        for name, t in params.items():
            assert np.array_equal(loaded[name].array, t.array), name
        restored = restore_optim(loaded, OptimConfig(), extras)
        assert restored.step == 42

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.scj"
        p.write_bytes(b"NOPE\n{}")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = init_params(CFG, seed=7)
        path = tmp_path / "ck.scj"
        save_checkpoint(path, params, CFG)
        raw = path.read_bytes()
        # swap the stored config to a wider model; shapes no longer match
        other = ModelConfig(**{**TINY, "vocab_size": VOCAB.size,
                               "feedforward_dim": 24})
        import json
        nl = raw.index(b"\n", 5)
        header = json.loads(raw[5:nl])
        header["config"] = other.to_dict()
        path.write_bytes(b"SCJ1\n" + json.dumps(header, sort_keys=True).encode() + raw[nl:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_resume_continues_step_counter(self, tmp_path):
        entries = [ManifestEntry(f"u{i}", "bani sode", seed=i) for i in range(4)]
        params, state, _ = train_loop(entries, [], CFG, OptimConfig(),
                                      small_settings(steps=3), SYNTH, VOCAB, tmp_path / "r1")
        loaded, cfg2, extras, _ = load_checkpoint(tmp_path / "r1" / "checkpoint.scj")
        restored = restore_optim(loaded, OptimConfig(), extras)
        assert restored.step == 3
        _, state2, _ = train_loop(entries, [], cfg2, OptimConfig(),
                                  small_settings(steps=2), SYNTH, VOCAB, tmp_path / "r2",
                                  params=loaded, optim_state=restored)
        assert state2.step == 5


class TestAtomicCheckpointWrite:
    def test_failure_mid_write_keeps_old_file(self, tmp_path, monkeypatch):
        import hintasr.checkpoint as ckpt_mod
        path = tmp_path / "ck.scj"
        save_checkpoint(path, init_params(CFG, seed=1), CFG, meta={"step": 1})
        before = path.read_bytes()

        class FailingFile:
            """Writes the first few chunks through, then fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()
                return False

            def write(self, b):
                self.writes += 1
                if self.writes > 4:
                    raise OSError("disk full")
                return self.f.write(b)

        real_open = open
        monkeypatch.setattr(ckpt_mod, "open",
                            lambda *a, **kw: FailingFile(real_open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(CFG, seed=2), CFG, meta={"step": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.scj"]

    def test_overwrite_replaces_contents(self, tmp_path):
        path = tmp_path / "ck.scj"
        save_checkpoint(path, init_params(CFG, seed=1), CFG, meta={"step": 1})
        save_checkpoint(path, init_params(CFG, seed=2), CFG, meta={"step": 2})
        loaded, _, _, meta = load_checkpoint(path)
        assert meta == {"step": 2}
        assert np.array_equal(loaded["joiner.wa"].array, init_params(CFG, seed=2)["joiner.wa"].array)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.scj"]
