"""Self-test of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` lists exactly the metrics the workloads report,
   with the same units and directions.
2. The self-time accounting of ``tracing.py`` on hand-made spans: a
   layer's self time excludes its children, layers plus the
   unattributed remainder add up to the operation time, and executor
   thread spans are weighted by their batch size.
3. A corrupted output is counted as a failed operation, and the run
   still reports ``correct`` for the operations that did not fail.
4. Without the program sources the launcher exits non-zero and prints
   no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def check_metric_lists() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table), f"{key} differs from workloads.py"
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS), "workload names differ"


def check_self_times() -> None:
    main, executor = 1, 2
    op = tracing.Span(tracing.OP, main, 0.0, 10.0)
    outer = tracing.Span("tfhe.blind_rotate_s", main, 1.0, 6.0)
    inner = tracing.Span("tfhe.zgemm_s", main, 2.0, 5.0)
    inner2 = tracing.Span("tfhe.decompose_s", main, 3.0, 4.0)
    outside = tracing.Span("client.decrypt_ms", main, 11.0, 12.0)
    dispatch = tracing.Span(tracing.DISPATCH, executor, 0.5, 4.5,
                            weight=2.0, free_s=1.0)
    lin = tracing.Span(tracing.LIN, executor, 1.0, 1.5)
    boot = tracing.Span("engine.bootstrap_s", executor, 2.0, 4.0)
    layers, total, unattributed = tracing.self_times(
        [inner2, op, outside, inner, outer, boot, lin, dispatch], {main}
    )
    assert total == 10.0 and unattributed == 5.0
    assert layers["tfhe.blind_rotate_s"] == 2.0
    assert layers["tfhe.zgemm_s"] == 2.0
    assert layers["tfhe.decompose_s"] == 1.0
    assert "client.decrypt_ms" not in layers  # outside every operation
    # Executor spans count once per request of the batch (weight 2):
    # free = 1.0 - 0.5 of LIN; dispatch = 4.0 - 2.0 - 0.5 - 0.5.
    assert layers[tracing.FREE] == 2 * 0.5
    assert layers[tracing.LIN] == 2 * 0.5
    assert layers["engine.bootstrap_s"] == 2 * 2.0
    assert layers[tracing.DISPATCH] == 2 * 1.0
    main_layers = sum(
        v for k, v in layers.items()
        if k.startswith("tfhe.")
    )
    assert main_layers + unattributed == total


def run_bench(cwd: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", "compile_mnist_m", "--seed", "1", "--seconds", "1",
         "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def check_corrupt_output_counts_as_failed() -> None:
    out = run_bench(ROOT, "--corrupt")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1, result
    assert result["attempted"] >= 1 and result["correct"], result


def check_missing_sources_fail() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = run_bench(bare)
        assert out.returncode != 0 and not out.stdout.strip(), out
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for check in (check_metric_lists, check_self_times,
                  check_corrupt_output_counts_as_failed,
                  check_missing_sources_fail):
        check()
        print(f"ok  {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
