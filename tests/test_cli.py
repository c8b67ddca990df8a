"""Command surface: config handling, reproducibility, exit codes, file I/O."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import hintasr.cli as cli
from hintasr.checkpoint import load_checkpoint, save_checkpoint
from hintasr.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from hintasr.train import TrainingDiverged, TrainSettings

SMALL_MODEL = {
    "model": {"num_encoder_layers": 1, "encoder_dim": 16, "feedforward_dim": 24,
              "self_attention_heads": 2, "cross_attention_heads": 2, "context_dim": 8,
              "joiner_dim": 16, "feature_dim": 8},
    "synth": {"feature_dim": 8, "noise_sigma": 0.2},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_MODEL))
    rc = main(["gen-data", "--out", str(root / "data"), "--seed", "11",
               "--utterances", "16", "--test-utterances", "4", "--train-words", "10",
               "--negative-words", "6", "--oov-words", "3", "--feature-dim", "8"])
    assert rc == EXIT_OK
    rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
               "--out", str(root / "run"), "--steps", "8", "--batch-size", "2",
               "--seed", "3"])
    assert rc == EXIT_OK
    return root, cfg_path


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["gen-data", "--out", str(tmp_path / sub), "--seed", "5",
                       "--utterances", "10", "--test-utterances", "3",
                       "--train-words", "8", "--negative-words", "5", "--oov-words", "2"])
            assert rc == EXIT_OK
        for name in ("train_manifest.jsonl", "test_manifest.jsonl", "negative_pool.txt",
                     "eval_hints.txt", "dataset.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_distinct_seeds_differ(self, tmp_path):
        main(["gen-data", "--out", str(tmp_path / "a"), "--seed", "5", "--utterances", "10",
              "--test-utterances", "3", "--train-words", "8", "--negative-words", "5",
              "--oov-words", "2"])
        main(["gen-data", "--out", str(tmp_path / "b"), "--seed", "6", "--utterances", "10",
              "--test-utterances", "3", "--train-words", "8", "--negative-words", "5",
              "--oov-words", "2"])
        assert (tmp_path / "a" / "train_manifest.jsonl").read_bytes() != \
               (tmp_path / "b" / "train_manifest.jsonl").read_bytes()

    def test_manifest_line_count(self, tmp_path):
        main(["gen-data", "--out", str(tmp_path / "c"), "--seed", "5", "--utterances", "13",
              "--test-utterances", "3", "--train-words", "8", "--negative-words", "5",
              "--oov-words", "2"])
        lines = (tmp_path / "c" / "train_manifest.jsonl").read_text().splitlines()
        assert len(lines) == 13


class TestTrain:
    def test_determinism_bit_identical(self, workspace, tmp_path):
        root, cfg_path = workspace
        curves = []
        for sub in ("t1", "t2"):
            rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                       "--out", str(tmp_path / sub), "--steps", "10", "--batch-size", "2",
                       "--seed", "9"])
            assert rc == EXIT_OK
            lines = (tmp_path / sub / "loss_curve.jsonl").read_text().splitlines()
            curves.append([json.loads(l)["loss"] for l in lines])
        assert curves[0] == curves[1]
        assert (tmp_path / "t1" / "checkpoint.scj").read_bytes() == \
               (tmp_path / "t2" / "checkpoint.scj").read_bytes()

    def test_resume_continues(self, workspace, tmp_path):
        root, cfg_path = workspace
        rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                   "--out", str(tmp_path / "r"), "--steps", "4", "--batch-size", "2",
                   "--seed", "2"])
        assert rc == EXIT_OK
        rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                   "--out", str(tmp_path / "r2"), "--steps", "2", "--batch-size", "2",
                   "--seed", "2", "--resume", str(tmp_path / "r" / "checkpoint.scj")])
        assert rc == EXIT_OK
        _, _, _, meta = __import__("hintasr.checkpoint", fromlist=["load_checkpoint"]) \
            .load_checkpoint(tmp_path / "r2" / "checkpoint.scj")
        assert meta["step"] == 6

    def test_diverged_training_exits_2(self, workspace, tmp_path, monkeypatch):
        root, cfg_path = workspace

        def boom(*a, **k):
            raise TrainingDiverged("synthetic divergence")

        monkeypatch.setattr(cli, "train_loop", boom)
        rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                   "--out", str(tmp_path / "x"), "--steps", "1"])
        assert rc == EXIT_RUNTIME

    def test_missing_data_dir_is_usage_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE


class TestDecode:
    def test_all_modes_write_four_files(self, workspace, tmp_path):
        root, cfg_path = workspace
        out = tmp_path / "dec"
        rc = main(["--config", str(cfg_path), "decode",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--hints", str(root / "data" / "eval_hints.txt"),
                   "--out", str(out), "--all-modes"])
        assert rc == EXIT_OK
        files = sorted(p.name for p in out.glob("transcripts-*.txt"))
        assert files == ["transcripts-both.txt", "transcripts-context.txt",
                         "transcripts-fusion.txt", "transcripts-none.txt"]
        n_utts = len((root / "data" / "test_manifest.jsonl").read_text().splitlines())
        for f in out.glob("transcripts-*.txt"):
            assert len(f.read_text(encoding="utf-8").splitlines()) == n_utts

    def test_none_mode_ignores_hints_file(self, workspace, tmp_path):
        root, cfg_path = workspace
        a, b = tmp_path / "n1", tmp_path / "n2"
        base = ["--config", str(cfg_path), "decode",
                "--checkpoint", str(root / "run" / "checkpoint.scj"),
                "--manifest", str(root / "data" / "test_manifest.jsonl"),
                "--mode", "none"]
        assert main(base + ["--out", str(a)]) == EXIT_OK
        assert main(base + ["--hints", str(root / "data" / "eval_hints.txt"),
                            "--out", str(b)]) == EXIT_OK
        assert (a / "transcripts-none.txt").read_bytes() == \
               (b / "transcripts-none.txt").read_bytes()

    def test_lambda_zero_equals_no_fusion(self, workspace, tmp_path):
        root, cfg_path = workspace
        base = ["--config", str(cfg_path), "decode",
                "--checkpoint", str(root / "run" / "checkpoint.scj"),
                "--manifest", str(root / "data" / "test_manifest.jsonl"),
                "--hints", str(root / "data" / "eval_hints.txt")]
        main(base + ["--mode", "context", "--out", str(tmp_path / "ctx")])
        main(base + ["--mode", "both", "--lambda-token", "0.0", "--out", str(tmp_path / "b0")])
        assert (tmp_path / "ctx" / "transcripts-context.txt").read_bytes() == \
               (tmp_path / "b0" / "transcripts-both.txt").read_bytes()

    def test_hint_mode_without_hints_is_usage_error(self, workspace, tmp_path):
        root, cfg_path = workspace
        rc = main(["--config", str(cfg_path), "decode",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--mode", "fusion", "--out", str(tmp_path / "f")])
        assert rc == EXIT_USAGE


class TestEval:
    def test_identical_files_wer_zero(self, workspace, tmp_path):
        root, _ = workspace
        manifest = root / "data" / "test_manifest.jsonl"
        refs = [json.loads(l)["text"] for l in manifest.read_text().splitlines()]
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join(refs) + "\n")
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--hyp", str(hyp), "--manifest", str(manifest),
                   "--out", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["wer"] == 0.0

    def test_werr_vs_self_is_zero(self, workspace, tmp_path):
        root, _ = workspace
        manifest = root / "data" / "test_manifest.jsonl"
        refs = [json.loads(l)["text"] for l in manifest.read_text().splitlines()]
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join(t.replace("a", "o", 1) for t in refs) + "\n")
        r1 = tmp_path / "r1.json"
        assert main(["eval", "--hyp", str(hyp), "--manifest", str(manifest),
                     "--out", str(r1)]) == EXIT_OK
        r2 = tmp_path / "r2.json"
        assert main(["eval", "--hyp", str(hyp), "--manifest", str(manifest),
                     "--baseline-report", str(r1), "--out", str(r2)]) == EXIT_OK
        report = json.loads(r2.read_text())
        assert report["werr"] == 0.0
        assert 0.0 <= report["wer"] <= 100.0 * 2

    def test_length_mismatch_rejected(self, workspace, tmp_path):
        root, _ = workspace
        manifest = root / "data" / "test_manifest.jsonl"
        hyp = tmp_path / "short.txt"
        hyp.write_text("one line\n")
        assert main(["eval", "--hyp", str(hyp), "--manifest", str(manifest)]) == EXIT_USAGE


class TestProbe:
    def test_probe_table_rows_and_file(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        out = tmp_path / "probe.json"
        rc = main(["--config", str(cfg_path), "probe-convergence",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--hints", str(root / "data" / "eval_hints.txt"),
                   "--iters", "6", "--cells", "10", "--resamples", "5",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 6
        for r in rows:
            assert np.isfinite(r["avg_max_diff"]) and np.isfinite(r["avg_mean_diff"])
            assert r["max_diff_ci95"] >= 0.0
        exited = [r["exited_frac"] for r in rows]
        assert exited[0] == 0.0  # the loop never exits at iteration 1
        assert all(0.0 <= a <= b <= 1.0 for a, b in zip(exited, exited[1:]))
        table = capsys.readouterr().out
        assert "avg mean diff" in table and "exited" in table

    def test_missing_checkpoint_usage_error(self, workspace, tmp_path):
        root, cfg_path = workspace
        rc = main(["probe-convergence", "--checkpoint", str(tmp_path / "no.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl")])
        assert rc == EXIT_USAGE


class TestConfigHandling:
    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": {}}))
        rc = main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")])
        assert rc == EXIT_USAGE

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"model": {"encoder_dimm": 8}}))
        rc = main(["--config", str(bad), "gen-data", "--out", str(tmp_path / "d")])
        assert rc == EXIT_USAGE

    def test_flags_override_config(self, workspace, tmp_path):
        root, cfg_path = workspace
        # config sets noise 0.2; the flag must win and be recorded
        rc = main(["--config", str(cfg_path), "gen-data", "--out", str(tmp_path / "g"),
                   "--seed", "4", "--utterances", "5", "--test-utterances", "2",
                   "--train-words", "8", "--negative-words", "5", "--oov-words", "2",
                   "--noise-sigma", "0.05"])
        assert rc == EXIT_OK
        ds = json.loads((tmp_path / "g" / "dataset.json").read_text())
        assert ds["synth"]["noise_sigma"] == 0.05

    def test_usage_error_on_bad_flag(self):
        assert main(["decode", "--not-a-flag"]) == EXIT_USAGE


def _header_split(raw: bytes):
    nl = raw.index(b"\n", len(b"SCJ1\n"))
    return json.loads(raw[len(b"SCJ1\n"):nl]), raw[nl + 1:]


def _without_config(raw: bytes) -> bytes:
    header, payload = _header_split(raw)
    del header["config"]
    return b"SCJ1\n" + json.dumps(header).encode() + b"\n" + payload


CORRUPT_CHECKPOINTS = {
    "magic_only": lambda raw: b"SCJ1\n",
    "header_cut": lambda raw: raw[:40],
    "bad_json_header": lambda raw: b"SCJ1\n{\"config\": oops\n" + _header_split(raw)[1],
    "header_not_object": lambda raw: b"SCJ1\n[1, 2]\n" + _header_split(raw)[1],
    "missing_config": _without_config,
    "truncated_array": lambda raw: raw[:-12],
    "empty_payload": lambda raw: raw[:raw.index(b"\n", 5) + 1],
}


class TestBadOperatorInput:
    def test_oov_hint_is_one_line_usage_error(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        hints = tmp_path / "hints.txt"
        hints.write_text("cat\nzo\u00eb\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "decode",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--hints", str(hints), "--mode", "both", "--out", str(tmp_path / "dec")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "zo\u00eb" in err
        assert not (tmp_path / "dec").exists()

    def test_oov_transcript_is_one_line_usage_error(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        manifest = tmp_path / "test_manifest.jsonl"
        manifest.write_text(json.dumps({"utterance_id": "u0", "text": "zo\u00eb", "seed": 1})
                            + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "decode",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(manifest), "--mode", "none",
                   "--out", str(tmp_path / "dec")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_empty_train_manifest_rejected_before_any_step(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        (data / "train_manifest.jsonl").write_text("", encoding="utf-8")
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "train", "--data", str(data),
                   "--out", str(tmp_path / "run"), "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "train_manifest.jsonl" in err and "no entries" in err
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("flag,value", [("--resamples", "1"), ("--resamples", "0"),
                                            ("--cells", "0")])
    def test_probe_needs_two_resamples_and_a_cell(self, workspace, tmp_path, capsys, flag, value):
        root, cfg_path = workspace
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "probe-convergence",
                   "--checkpoint", str(root / "run" / "checkpoint.scj"),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   flag, value, "--out", str(tmp_path / "probe.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag in err
        assert not (tmp_path / "probe.json").exists()


@pytest.fixture(scope="module")
def nan_checkpoint(workspace, tmp_path_factory):
    """The workspace checkpoint with one NaN in the encoder's input projection."""
    root, _ = workspace
    params, cfg, extras, meta = load_checkpoint(root / "run" / "checkpoint.scj")
    params["encoder.in_proj.w"].data[0] = np.nan
    path = tmp_path_factory.mktemp("nan") / "nan.scj"
    save_checkpoint(path, params, cfg, extras=extras, meta=meta)
    return path


class TestNonFiniteCheckpoint:
    def test_decode_exits_2_with_one_line(self, workspace, nan_checkpoint, tmp_path, capsys):
        root, cfg_path = workspace
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "decode", "--checkpoint", str(nan_checkpoint),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--out", str(tmp_path / "dec"), "--mode", "none"])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "non-finite" in err

    def test_resume_training_diverges_with_batch_dump(self, workspace, nan_checkpoint, tmp_path,
                                                       capsys):
        root, cfg_path = workspace
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                   "--out", str(tmp_path / "run"), "--steps", "2",
                   "--resume", str(nan_checkpoint)])
        assert rc == EXIT_RUNTIME
        assert "Traceback" not in capsys.readouterr().err
        dump = json.loads((tmp_path / "run" / "diverged_batch.json").read_text())
        assert "non-finite" in dump[-1]["error"]
        assert not (tmp_path / "run" / "checkpoint.scj").exists()


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("form", sorted(CORRUPT_CHECKPOINTS))
    def test_decode_exits_1_with_one_line(self, workspace, tmp_path, capsys, form):
        root, cfg_path = workspace
        good = (root / "run" / "checkpoint.scj").read_bytes()
        bad = tmp_path / "bad.scj"
        bad.write_bytes(CORRUPT_CHECKPOINTS[form](good))
        capsys.readouterr()
        rc = main(["--config", str(cfg_path), "decode", "--checkpoint", str(bad),
                   "--manifest", str(root / "data" / "test_manifest.jsonl"),
                   "--out", str(tmp_path / "dec"), "--mode", "none"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "dec").exists()


class TestTrainConfigSection:
    def test_every_train_setting_is_settable(self):
        assert cli._CONFIG_SECTIONS["train"] == {
            f.name for f in dataclasses.fields(TrainSettings)}

    def test_sc_consistency_weight_from_config(self, workspace, tmp_path):
        root, _ = workspace
        penalties = {}
        for weight in (0.0, 10.0):
            cfg = dict(SMALL_MODEL, train={"sc_consistency_weight": weight})
            cfg_path = tmp_path / f"cfg-{weight}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"run-{weight}"
            rc = main(["--config", str(cfg_path), "train", "--data", str(root / "data"),
                       "--out", str(out), "--steps", "2", "--batch-size", "2", "--seed", "3"])
            assert rc == EXIT_OK
            lines = (out / "loss_curve.jsonl").read_text().splitlines()
            penalties[weight] = [json.loads(l)["sc_penalty"] for l in lines]
        # the penalty is only evaluated (and logged) when its weight is positive
        assert penalties[0.0] == [0.0, 0.0]
        assert all(p > 0.0 for p in penalties[10.0])
