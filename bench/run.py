"""Benchmark runner for hintasr: training throughput and dictionary-biased
decode latency, with a traced run for per-layer counts and self times.

Run from the repository root:

    python3 bench/run.py --workload decode-dict --seed 3 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --trace 1            # traced: per-layer metrics and spans

``bench/make_fixture.py`` rebuilds the fixture and ``bench/selftest.py``
checks the runner on a tiny one.

Workloads (all at the acceptance geometry stored in ``bench/fixture``):

* ``train-mixed``: ``train_loop`` from a fresh ``init_params`` with the default
  1/3-each mix of sample types. A new hint list every utterance, gradient tape
  on, so no hint encoding can be reused. Runs a seed-chosen sequence of short
  training episodes; each episode's per-step losses are stored in
  ``fixture/train_ref.json``.
* ``decode-dict``: ``greedy_decode`` with context biasing and shallow fusion
  against one fixed 20-word dictionary for every utterance (the deployment
  case: one user dictionary, many utterances).
* ``decode-plain``: the same utterances and checkpoint with no hints, which
  bypasses the hint encoders, biasing and fusion.

The seed picks and orders the inputs from pools whose reference outputs are
stored, so every operation (one training step or one decoded utterance) is
checked: transcripts must match exactly, losses to ``LOSS_RTOL``. A mismatch,
a non-finite loss or an exception counts as one failed operation.

A run times a fixed number of samples (steps or utterances), not a fixed
wall time, so that a faster and a slower commit time the same inputs.
``--seconds`` sets that number through each workload's nominal rate
(``SAMPLES_PER_SECOND``), never fewer than ``MIN_SAMPLES`` so that a p90 has
at least ten samples beyond it, and never more than the stored pool of inputs
(600 utterances, 64 episodes of 8 steps) so that no input repeats.
``setup_s`` times only the set-up a user of the package pays (for decoding:
``load_checkpoint``, tokenizing the dictionary, ``build_hint_trie``), not the
making of the benchmark's own inputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import os

# BLAS must be pinned before numpy is first imported: two threads make this
# workload slower on a two-core machine, and thread count changes timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_FIXTURE = BENCH_DIR / "fixture"
SCRATCH = ROOT / ".bench_run"
WORKLOADS = ("train-mixed", "decode-dict", "decode-plain")

SETUP_REPEATS = 15
MIN_SAMPLES = 100      # timed samples per run: a p90 then has ten beyond it
# Nominal samples per second, measured on a 2-vCPU x86-64 VM with one BLAS
# thread: --seconds 30 then runs for about 30 s there.
SAMPLES_PER_SECOND = {"train-mixed": 3.8, "decode-dict": 3.2, "decode-plain": 13.0}
LOSS_RTOL = 1e-9       # relative; identical code on one machine matches bit for bit


def import_package():
    """Import hintasr from this checkout's ``src``; never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hintasr" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {src / 'hintasr'}")
    sys.path.insert(0, str(src))
    import hintasr
    import hintasr.cli  # noqa: F401  (loads every module the tracer rebinds names in)
    if Path(hintasr.__file__).resolve().parent != (src / "hintasr").resolve():
        raise SystemExit(f"error: imported hintasr from {hintasr.__file__}, not {src}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Fixture:
    """The stored fixture: checkpoint, word lists, recipe and reference outputs."""

    def __init__(self, path):
        self.dir = Path(path)
        self.manifest = json.loads((self.dir / "fixture.json").read_text(encoding="utf-8"))

    def file(self, name) -> Path:
        """Path of a fixture file, after checking its recorded SHA-256."""
        path = self.dir / name
        want = self.manifest["sha256"].get(name)
        if want is not None and sha256_file(path) != want:
            raise RuntimeError(f"{path}: SHA-256 differs from fixture.json")
        return path

    def words(self, name):
        from hintasr import data
        return data.read_wordlist(self.file(name))

    def reference(self, name):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def synth(self):
        from hintasr.data import SynthConfig
        kw = dict(self.manifest["synth"])
        kw["durations"] = tuple(kw["durations"])
        return SynthConfig(**kw)

    def model_config(self):
        from hintasr.model import ModelConfig
        return ModelConfig(**self.manifest["model"])


# ---------------------------------------------------------------------------
# inputs shared with make_fixture.py
# ---------------------------------------------------------------------------


def episode_entries(words, episode_seed: int, count: int):
    """Training manifest of one episode: 1-2 training words per utterance."""
    import numpy as np
    from hintasr.data import ManifestEntry
    rng = np.random.default_rng([episode_seed, 2])
    entries = []
    for i in range(count):
        n = int(rng.integers(1, 3))
        idx = rng.choice(len(words), size=n, replace=False)
        text = " ".join(words[int(j)] for j in np.atleast_1d(idx))
        entries.append(ManifestEntry(f"ep{episode_seed}-{i:04d}", text,
                                     int(rng.integers(0, 2**31))))
    return entries


def train_settings(episode_seed: int, steps: int):
    from hintasr.train import TrainSettings
    return TrainSettings(steps=steps, batch_size=4, seed=episode_seed, log_every=1)


def decode_kwargs(mode: str, hint_tokens, trie, lambda_token: float) -> dict:
    if mode == "dict":
        return {"hints": hint_tokens, "context_enabled": True, "fusion_enabled": True,
                "lambda_token": lambda_token, "trie": trie}
    return {"hints": None, "context_enabled": False, "fusion_enabled": False}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class StepClock(logging.Handler):
    """Timestamps each ``step N loss L`` record that train_loop logs after an
    optimizer step; consecutive stamps give per-step wall times. In a traced
    run it also moves the tracer's operation id on to the next step."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.stamps = []
        self.tracer = None
        self.episode = ""
        self.steps = 0

    def start(self, tracer, episode: str, steps: int):
        self.stamps.clear()
        self.tracer, self.episode, self.steps = tracer, episode, steps
        self._label()

    def _label(self):
        if self.tracer is not None:
            n = len(self.stamps)
            self.tracer.op_id = (f"{self.episode}/step-{n + 1}" if n < self.steps
                                 else f"{self.episode}/end")

    def emit(self, record):
        self.stamps.append(time.perf_counter())
        self._label()


class TrainWorkload:
    unit = "step"
    calibration_pairs = 3  # episodes timed untraced and traced for the overhead

    def __init__(self, fixture: Fixture, tmp: Path):
        self.fx = fixture
        self.tmp = tmp
        self.ref = fixture.reference("train_ref.json")
        self.clock = StepClock()
        logger = logging.getLogger("hintasr.train")
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self.clock)

    def setup(self):
        """What train_loop needs before its first step: word lists, vocabulary,
        acoustic codebook, and a fresh model with its optimizer state. Each
        episode builds its own model again inside train_loop; this one only
        makes a change in model construction show in ``setup_s``."""
        from hintasr import data, model, train
        negatives = self.fx.words("negative_pool.txt")
        vocab = data.Vocab.default()
        synth = self.fx.synth()
        data.token_codebook(vocab.size, synth)
        cfg = self.fx.model_config()
        train.OptimState(model.init_params(cfg, seed=0), train.OptimConfig(lr=self.ref["lr"]))
        return {"negatives": negatives, "vocab": vocab, "synth": synth, "cfg": cfg,
                "steps": self.ref["steps"], "lr": self.ref["lr"]}

    def inputs(self, seed: int, samples: int):
        """The seed-ordered episodes that give at least ``samples`` steps, or
        the whole pool if it is smaller: (episode seed, manifest entries,
        reference losses) each."""
        import numpy as np
        words = self.fx.words("train_words.txt")
        pool = self.ref["episodes"]
        order = np.random.default_rng([seed % 2**64, 11]).permutation(len(pool))
        count = math.ceil(samples / self.ref["steps"])
        return [(pool[int(k)]["seed"],
                 episode_entries(words, pool[int(k)]["seed"], self.ref["entries"]),
                 pool[int(k)]["losses"])
                for k in order[:count]]

    def fingerprint(self, st, ops) -> str:
        """Geometry and word lists, then every episode run: the text and seed
        of each entry, and the features and hint tokens it is sampled with."""
        from hintasr import data
        h = hashlib.sha256()
        h.update(json.dumps([self.fx.manifest["model"], self.fx.manifest["synth"],
                             st["steps"], st["lr"]], sort_keys=True).encode())
        for name in ("train_words.txt", "negative_pool.txt"):
            h.update(sha256_file(self.fx.file(name)).encode())
        for seed, entries, _ in ops:
            h.update(f"episode {seed}".encode())
            weights = train_settings(seed, st["steps"]).type_weights
            for e in entries:
                h.update(f"{e.text}|{e.seed}".encode())
                s = data.sample_for_entry(e, 0, weights, st["vocab"], st["synth"],
                                          st["negatives"])
                h.update(s.features.array.tobytes())
                h.update(json.dumps([data.tokenize(w, st["vocab"]) for w in s.hints]).encode())
        return h.hexdigest()

    def run_op(self, st, op, tracer=None):
        """One training episode. Returns (step times in s, step ok flags, info)."""
        from hintasr import train
        seed, entries, ref_losses = op
        out_dir = self.tmp / "train"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.clock.start(tracer, f"episode-{seed}", st["steps"])
        t0 = time.perf_counter()
        try:
            _, _, losses = train.train_loop(
                entries, st["negatives"], st["cfg"], train.OptimConfig(lr=st["lr"]),
                train_settings(seed, st["steps"]), st["synth"], st["vocab"], out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return [time.perf_counter() - t0], [False] * st["steps"], {}
        stamps = [t0] + self.clock.stamps
        times = [b - a for a, b in zip(stamps, stamps[1:])]
        ok = [math.isfinite(l) and abs(l - r) <= LOSS_RTOL * max(1.0, abs(r))
              for l, r in zip(losses, ref_losses)]
        ok += [False] * (st["steps"] - len(ok))
        return times, ok, {"final_loss": losses[-1], "utts": 4 * len(losses)}

    def summary(self, st, infos, times, window_s):
        utts = sum(i.get("utts", 0) for i in infos)
        finals = [i["final_loss"] for i in infos if "final_loss" in i]
        return [
            ("train_utt_per_s", utts / window_s, "utt/s", f"utterances={utts}"),
            ("train_step_ms_p50", percentile(times, 50) * 1e3, "ms", f"n={len(times)}"),
            ("train_step_ms_p90", percentile(times, 90) * 1e3, "ms", f"n={len(times)}"),
            ("train_loss_final", statistics.median(finals) if finals else float("nan"), "nats",
             f"median over {len(finals)} episodes of the last step's batch loss"),
        ], utts


class DecodeWorkload:
    unit = "utterance"
    calibration_pairs = 9

    def __init__(self, fixture: Fixture, mode: str):
        self.fx = fixture
        self.mode = mode
        self.ref = fixture.reference("decode_ref.json")

    def setup(self):
        """The deployment set-up: load the checkpoint, tokenize the user
        dictionary and build its trie (the trie only for context+fusion)."""
        from hintasr import checkpoint, data, decode
        params, cfg, _, _ = checkpoint.load_checkpoint(self.fx.file("model.scj"))
        vocab = data.Vocab.default()
        words = self.fx.words("dictionary.txt")
        hint_tokens = [data.tokenize(w, vocab) for w in words]
        lam = self.ref["lambda_token"]
        trie = decode.build_hint_trie(hint_tokens, lam) if self.mode == "dict" else None
        return {"params": params, "cfg": cfg, "vocab": vocab, "words": words,
                "kwargs": decode_kwargs(self.mode, hint_tokens, trie, lam)}

    def inputs(self, seed: int, samples: int):
        """The first ``samples`` utterances of the seed-ordered pool, or the
        whole pool if it is smaller: (entry, features, reference transcript)
        each."""
        import numpy as np
        from hintasr import data
        vocab, synth = data.Vocab.default(), self.fx.synth()
        pool = self.ref["pool"]
        order = np.random.default_rng([seed % 2**64, 13]).permutation(len(pool))
        ops = []
        for k in order[:samples]:
            entry = data.ManifestEntry(**pool[int(k)])
            ops.append((entry, data.features_for_entry(entry, vocab, synth),
                        self.ref["transcripts"][self.mode][int(k)]))
        return ops

    def fingerprint(self, st, ops) -> str:
        """Checkpoint, then every utterance in run order: text, entry seed,
        feature bytes and the hint token lists it is decoded with."""
        h = hashlib.sha256()
        h.update(sha256_file(self.fx.file("model.scj")).encode())
        h.update(json.dumps([self.mode, st["kwargs"]["hints"]]).encode())
        for entry, feats, _ in ops:
            h.update(f"{entry.text}|{entry.seed}".encode())
            h.update(feats.array.tobytes())
        return h.hexdigest()

    def run_op(self, st, op, tracer=None):
        from hintasr import data, decode
        entry, feats, ref = op
        if tracer is not None:
            tracer.op_id = entry.utterance_id
        t0 = time.perf_counter()
        try:
            toks = decode.greedy_decode(feats, st["params"], st["cfg"], **st["kwargs"])
            hyp = data.detokenize(toks, st["vocab"])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return [time.perf_counter() - t0], [False], {}
        dt = time.perf_counter() - t0
        return [dt], [hyp == ref], {"hyp": hyp, "ref": entry.text, "frames": feats.shape[0]}

    def summary(self, st, infos, times, window_s):
        from hintasr.metrics import evaluate_transcripts
        done = [i for i in infos if "hyp" in i]
        frames = sum(i["frames"] for i in done)
        report = evaluate_transcripts([i["hyp"] for i in done], [i["ref"] for i in done],
                                      hints=st["words"])
        oov = float("nan") if report.oov_accuracy is None else report.oov_accuracy
        return [
            ("decode_frames_per_s", frames / window_s, "frames/s", f"frames={frames}"),
            ("utt_ms_p50", percentile(times, 50) * 1e3, "ms", f"n={len(times)}"),
            ("utt_ms_p90", percentile(times, 90) * 1e3, "ms", f"n={len(times)}"),
            ("wer", report.wer, "%", f"reference words={report.counts.ref_words}"),
            ("oov_acc", oov, "%", f"dictionary words present={report.hints_present}"),
        ], len(infos)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def environment_header(workload: str, seed: int, seconds: int, trace: int):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [
        f"workload={workload} seed={seed} seconds={seconds} trace={trace}",
        f"python {platform.python_version()} ({platform.python_implementation()}), "
        f"numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()}), "
        + " ".join(f"{v}={os.environ[v]}"
                   for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")),
    ]
    for line in lines:
        print("# " + line)


def run_window(workload, st, ops, tracer=None):
    """Run every operation in ``ops`` once, in order.
    Returns (per-sample times, per-sample ok flags, per-op infos, wall seconds)."""
    times, oks, infos = [], [], []
    start = time.perf_counter()
    for op in ops:
        t, ok, info = workload.run_op(st, op, tracer)
        times += t
        oks += ok
        infos.append(info)
    return times, oks, infos, time.perf_counter() - start


def calibrate(workload, st, ops, tracer) -> float:
    """Trace overhead: the same operation timed untraced and traced, in
    adjacent pairs so that drifts in machine speed cancel, the side that runs
    first alternating from pair to pair; the median of the pair ratios, minus
    one. An untimed operation runs first to take the process's warm-up.
    Leaves the tracer installed and empty."""
    workload.run_op(st, ops[0])
    ratios = []
    for i in range(workload.calibration_pairs):
        op = [ops[i % len(ops)]]
        wall = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            wall[traced] = run_window(workload, st, op, tracer if traced else None)[3]
            tracer.uninstall()
        ratios.append(wall[True] / wall[False])
    tracer.install()
    tracer.reset()
    return statistics.median(ratios) - 1.0


def measure(args, tmp: Path) -> dict:
    fixture = Fixture(args.fixture)
    if args.workload == "train-mixed":
        workload = TrainWorkload(fixture, tmp)
    else:
        workload = DecodeWorkload(fixture, args.workload.split("-", 1)[1])

    samples = max(MIN_SAMPLES, math.ceil(args.seconds * SAMPLES_PER_SECOND[args.workload]))
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            st = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        ops = workload.inputs(args.seed, samples)
    except Exception:
        # a fixture the program can no longer read is a failed run, not a skip
        traceback.print_exc(file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"# input_sha256 {workload.fingerprint(st, ops)}")
    print(f"# checkpoint_sha256 {sha256_file(fixture.file('model.scj'))}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        overhead = calibrate(workload, st, ops, tracer)
        tracer.op_id = "setup"
        st = workload.setup()
    window_t0 = time.perf_counter()
    times, oks, infos, window_s = run_window(workload, st, ops, tracer)

    attempted = len(oks)
    failed = oks.count(False)
    named, utts = workload.summary(st, infos, times, window_s)
    n_ops = f"n={len(times)} {workload.unit}s"
    e2e = [
        ("setup_s", statistics.median(setup_times), "s", f"median of {SETUP_REPEATS} set-ups"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "ru_maxrss"),
        ("ok_frac", (attempted - failed) / attempted, "frac", "1 - fail_frac"),
        ("utt_per_s", utts / window_s, "utt/s", f"{utts} utterances in {window_s:.3f} s"),
        ("op_ms_p50", percentile(times, 50) * 1e3, "ms", n_ops),
        ("op_ms_p90", percentile(times, 90) * 1e3, "ms", n_ops),
    ]
    print(f"# {workload.unit}s attempted={attempted} failed={failed}")
    if tracer is None:
        named.append(("fail_frac", failed / attempted, "frac", f"{workload.unit}s failed"))
        for name, value, unit, note in named + e2e:
            print(f"{name} = {value:.6g} {unit}  ({note})")
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in e2e}
    else:
        metrics = tracer.metrics(window_s, overhead)
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, window_t0)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--fixture", str(args.fixture)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal run length; sets how many operations are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", default=str(DEFAULT_FIXTURE),
                        help="fixture directory (the self-test points this at a tiny one)")
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    environment_header(args.workload, args.seed, args.seconds, args.trace)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
