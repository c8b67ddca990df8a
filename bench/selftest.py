"""Self-test of the benchmark on a tiny fixture (a few training steps and
utterances at a small geometry); takes well under a minute.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed, with its unit,
by every workload in both the untraced and the traced run; that corrupted
reference outputs show up as failed operations; that the all-workloads
command reports every workload; and that the runner fails without printing a
result when the package source is missing.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = ["--geometry", "tiny", "--train-steps", "3", "--pool", "6", "--episodes", "2",
        "--episode-steps", "2", "--episode-entries", "16"]


def bench(runner: Path, *argv):
    proc = subprocess.run([sys.executable, str(runner), "--seed", "1", "--seconds", "1", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runner = run.BENCH_DIR / "run.py"
    run.SCRATCH.mkdir(exist_ok=True)
    fixture = run.SCRATCH / "selftest-fixture"
    shutil.rmtree(fixture, ignore_errors=True)
    subprocess.run([sys.executable, str(run.BENCH_DIR / "make_fixture.py"), "--out",
                    str(fixture), *TINY], check=True, timeout=600, stdout=subprocess.DEVNULL)
    fx = ["--fixture", str(fixture)]

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc, res = bench(runner, "--workload", workload, "--trace", str(trace), *fx)
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: exit 0, correct, no failed operations")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{tag}: JSON metrics are exactly BENCHMARK.json's {key}")
            missing = [n for n, u in want.items()
                       if not re.search(rf"^{re.escape(n)} = \S+ {re.escape(u)}\b",
                                        proc.stdout, re.M)]
            check(not missing, f"{tag}: every metric printed with its unit" +
                  (f"; missing {missing}" if missing else ""))

    proc, res = bench(runner, "--workload", "all", *fx)
    check(proc.returncode == 0 and res is not None and set(res) == set(run.WORKLOADS)
          and all(r["correct"] for r in res.values()), "all workloads from one command")

    decode_ref = json.loads((fixture / "decode_ref.json").read_text(encoding="utf-8"))
    for mode in decode_ref["transcripts"]:
        decode_ref["transcripts"][mode] = [t + "x" for t in decode_ref["transcripts"][mode]]
    (fixture / "decode_ref.json").write_text(json.dumps(decode_ref), encoding="utf-8")
    train_ref = json.loads((fixture / "train_ref.json").read_text(encoding="utf-8"))
    for ep in train_ref["episodes"]:
        ep["losses"][0] += 1e-6
    (fixture / "train_ref.json").write_text(json.dumps(train_ref), encoding="utf-8")
    for workload in run.WORKLOADS:
        proc, res = bench(runner, "--workload", workload, "--trace", "0", *fx)
        fail_frac = re.search(r"^fail_frac = (\S+)", proc.stdout, re.M)
        check(res is not None and not res["correct"] and res["failed"] > 0
              and fail_frac is not None and float(fail_frac.group(1)) > 0
              and res["metrics"]["ok_frac"]["value"] < 1,
              f"{workload}: corrupted reference raises fail_frac above 0")

    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc, res = bench(Path(tmp) / run.BENCH_DIR.name / "run.py", "--workload", "decode-dict")
        check(proc.returncode != 0 and res is None, "no package source: nonzero exit, no result")
    shutil.rmtree(fixture, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
