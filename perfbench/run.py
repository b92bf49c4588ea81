"""PyTFHE benchmark: one workload per call, in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exec_hamming_d128 --seed 1 \\
        --seconds 10 --trace 0

The launcher pins the environment the numbers depend on (Python hash
seed, one BLAS/OpenMP thread), starts the workload in a fresh child
process, and prints two lines: an ``env`` line (git sha when the tree
is a git checkout, machine fingerprint, pinned settings) and, last, the
result object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Workloads: compile_mnist_m, exec_hamming_d128,
serve_vip_mix, mblut_add8 (see README.md).

It exits with a non-zero code, printing no result, when the program
sources (``src/repro``) are missing, when the workload fails to run,
or when it exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("compile_mnist_m", "exec_hamming_d128", "serve_vip_mix",
             "mblut_add8")
#: Child time limit, inside the 180 s a benchmark run may take.
CHILD_TIMEOUT_S = 170
#: The environment every workload process runs under.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SPAWN_ENV = "PERFBENCH_SPAWN_MONOTONIC"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: corrupt the first checked output",
    )
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        # The ceiling keeps git from searching directories above the
        # checkout when the checkout itself is not a repository.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this (fresh, pinned) process."""
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402 - needs the source path first

    startup_s = time.monotonic() - float(os.environ[SPAWN_ENV])
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        startup_s, corrupt=args.corrupt,
    )
    print(json.dumps({"env": workloads.environment()}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    env[SPAWN_ENV] = repr(time.monotonic())
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out)
        print(f"perfbench: {args.workload} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return 4
    for line in lines[:-2]:  # the workload's progress notes
        print(line, file=sys.stderr)
    env_doc = json.loads(lines[-2])
    env_doc["env"].update(git_sha=git_sha(), pinned=PINNED_ENV,
                          workload=args.workload, seed=args.seed)
    print(json.dumps(env_doc))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
