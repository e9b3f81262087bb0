#!/usr/bin/env python3
"""Build tgnn_ledger from source, then run one workload of it.

Run from the repository root:

    python3 bench/ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build and the result files go under $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr, so the last line on stdout is
the benchmark's own JSON result. Exits non-zero without a result when the
build fails, e.g. when the repository sources are not there.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    if not (build_dir / "build.ninja").exists() and not (build_dir / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "tgnn_ledger", "-j", jobs],
        stdout=sys.stderr, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = target / "ledger"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    mode = "trace" if args.trace else "e2e"
    out_dir = target / "ledger-results" / f"{mode}-seed{args.seed}"
    # The out-of-core store's spill file goes to TMPDIR: keep it in here.
    spill_dir = out_dir / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(spill_dir))
    cmd = [str(build_dir / "tgnn_ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
