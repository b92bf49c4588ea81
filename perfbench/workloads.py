"""The benchmark's four workloads and the measurement loop they share.

Every workload runs in its own process (see ``run.py``) in three steps:

1. *Set-up*, repeated ``SETUP_REPEATS`` times; ``setup_s`` is the
   process start-up (interpreter and imports, measured once) plus the
   median repetition.  Set-up produces the workload's program (compile
   and load), keys, the server, and a warm-up.  The last repetition's
   state is kept.
2. *Measured phase*: whole rounds of the workload's operation until
   ``--seconds`` have passed.  Every operation's output is checked
   against a reference computed outside the program; a wrong output or
   an exception counts as a failed operation and the run goes on.
3. *Program samples* (all workloads but ``compile_mnist_m``, whose
   operation *is* a compile): at checkpoints after every set-up
   repetition and every operation, the program is compiled from source
   to binary and loaded from binary to a verified, scheduled program,
   for ``compile_s`` / ``load_s``.

The traced run (``--trace 1``) skips step 3 and runs step 2 twice:
untraced first, then with the layer wrappers of ``tracing.py``
installed, so it can report its own overhead.
"""

from __future__ import annotations

import functools
import gc
import os
import resource
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import tracing

from repro.analyze.cache import default_cache
from repro.bench.mnist import mnist_spec, synthetic_digit
from repro.bench.vip import vip_workload
from repro.core.compiler import compile_model
from repro.core.session import Client, Server
from repro.frameworks.base import reference_cnn
from repro.frameworks.pytfhe import spec_to_sequential
from repro.hdl.arith import ripple_add
from repro.hdl.builder import CircuitBuilder
from repro.isa import assemble
from repro.mblut import decrypt_mb_outputs, encrypt_mb_inputs, synthesize
from repro.runtime.executors import PlaintextBackend
from repro.serve import FheServiceClient, ServeConfig
from repro.serve.registry import ProgramRegistry
from repro.serve.server import FheServer
from repro.tfhe import (
    TFHE_DEFAULT_128,
    TFHE_TEST,
    decrypt_bits,
    encrypt_bits,
    generate_keys,
)
from repro.tfhe.params import TFHE_MB_128

clock = time.perf_counter

SETUP_REPEATS = 3
#: Each checkpoint takes at least this many compile/load samples and
#: samples for at least CHECKPOINT_S seconds (see Workload.checkpoint).
PROGRAM_SAMPLES = 8
CHECKPOINT_S = 0.5
#: Plaintext evaluations (one image each) per compile_mnist_m sample.
MNIST_EVALS = 3

#: Seeds fixed in advance (they do not depend on ``--seed``).
KEY_SEED = 1234
#: mblut_add8 operand pairs and their encryption randomness: fixed so
#: that a pair the rounding fault in ``decomposition_offset`` breaks
#: fails in every run, and the failure count stays comparable.
MBLUT_PAIR_SEED = 2023
MBLUT_PAIRS = 4
MBLUT_MODULUS = 16

#: The serving configuration (recorded in every result's env line).
SERVE_CONFIG = dict(
    backend="batched", max_batch=2, linger_s=0.01, max_pending=64,
    check=True, admission_engine="batched", noise_monitoring=True,
)
SERVE_CONNECTIONS = 2
SERVE_KERNELS = ("string_search", "hamming_distance")
#: Requests per kernel in every SERVE_POOL-long order: 1 wide to 3
#: narrow, so the median falls inside the narrow kernel's latency mode
#: and the 90th percentile inside the wide one's.
SERVE_MIX = (1, 3)
SERVE_MIN_REQUESTS = 100
#: Each of the traced run's two phases sends half as many.
SERVE_MIN_REQUESTS_TRACED = 50
SERVE_POOL = 80

#: (name, unit, better) of every metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("binary_bytes", "bytes", "lower"),
    ("bootstrapped_gates", "count", "lower"),
    ("bootstrap_levels", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("bootstraps_per_s", "1/s", "higher"),
)
PER_LAYER = (
    ("chiseltorch.elaborate_s", "s", "lower"),
    ("hdl.gates", "count", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("isa.disassemble_s", "s", "lower"),
    ("runtime.schedule_s", "s", "lower"),
    ("analyze.facts_s", "s", "lower"),
    ("analyze.structural_s", "s", "lower"),
    ("analyze.hazards_s", "s", "lower"),
    ("analyze.dataflow_s", "s", "lower"),
    ("analyze.cost_s", "s", "lower"),
    ("tfhe.keygen_s", "s", "lower"),
    ("tfhe.bk_fft_s", "s", "lower"),
    ("tfhe.blind_rotate_s", "s", "lower"),
    ("tfhe.decompose_s", "s", "lower"),
    ("tfhe.fft_forward_s", "s", "lower"),
    ("tfhe.fft_inverse_s", "s", "lower"),
    ("tfhe.zgemm_s", "s", "lower"),
    ("tfhe.rotate_s", "s", "lower"),
    ("tfhe.keyswitch_s", "s", "lower"),
    ("tfhe.external_products", "count", "lower"),
    ("engine.levels", "count", "lower"),
    ("engine.bootstrap_s", "s", "lower"),
    ("engine.free_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.level_width_mean", "count", "higher"),
    ("mblut.synthesize_s", "s", "lower"),
    ("mblut.lut_bootstrap_s", "s", "lower"),
    ("mblut.lin_s", "s", "lower"),
    ("serve.register_s", "s", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.batch_linger_ms", "ms", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("client.encrypt_ms", "ms", "lower"),
    ("client.decrypt_ms", "ms", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
#: Serve stages that add up to a round trip with the engine layers
#: (``serve.execute_ms`` is the parent of the engine layers).
SERVE_STAGES = ("serve.queue_wait_ms", "serve.batch_linger_ms",
                "serve.wire_ms")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def load_program(binary: bytes):
    """Binary -> verified, scheduled program, as serve registration does.

    A fresh registry and an emptied verdict cache make every call do
    the full work: disassemble, every analyzer family with the cost
    certificate, and the schedule.
    """
    default_cache().clear()
    program, _ = ProgramRegistry(check=True).register(binary)
    return program


def warm_up(server: Server, encrypt, decrypt) -> None:
    """One AND gate through the engine: fills the kernel caches (rotation
    tables, key-switch tables) without running a whole program."""
    bd = CircuitBuilder(name="warmup")
    x, y = bd.input(), bd.input()
    bd.output(bd.and_(x, y))
    out, _ = server.execute(bd.build(), encrypt(np.array([True, True])))
    if not decrypt(out)[0]:
        raise RuntimeError("warm-up bootstrap decrypted wrong")


class Phase:
    """The operations of one measured phase and their outcomes."""

    def __init__(self, tracer: Optional[tracing.Tracer]):
        self.tracer = tracer
        self.ops: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.bootstraps = 0
        self.root_threads = set()
        self.start = clock()
        self.end = self.start
        self._lock = threading.Lock()

    def record(self, t0: float, t1: float, ok: bool,
               bootstraps: int = 0, **values: float) -> None:
        if self.tracer is not None:
            self.tracer.add(tracing.OP, t0, t1)
        with self._lock:
            self.root_threads.add(threading.get_ident())
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.bootstraps += bootstraps
            self.ops.append(dict(values, op_s=t1 - t0))

    def record_error(self) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1

    def close(self) -> None:
        self.end = clock()

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def median(self, key: str) -> float:
        return statistics.median(op[key] for op in self.ops)


def run_rounds(phase: Phase, seconds: float, round_size: int,
               op: Callable[[Phase, int], None],
               between: Callable[[], None]) -> Phase:
    """Whole rounds of ``round_size`` operations until ``seconds`` pass.

    ``between`` runs after every operation, outside its timing.
    """
    index = 0
    while True:
        for _ in range(round_size):
            gc.collect()
            try:
                op(phase, index)
            except Exception as exc:  # a failed operation, not a crash
                print(f"operation {index} raised {exc!r}", flush=True)
                phase.record_error()
            index += 1
            between()
        if clock() - phase.start >= seconds:
            break
    phase.close()
    return phase


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: set-up, program samples, and its operation."""

    name = ""
    round_size = 1

    def __init__(self, seed: int, corrupt: bool = False,
                 traced: bool = False):
        self.seed = seed
        self.traced = traced
        #: (compile_s, load_s) samples taken at the checkpoints.
        self.samples: List[Tuple[float, float]] = []
        #: Self-test hook: corrupt the first checked output.
        self.corrupt = corrupt

    def check(self, got, want) -> bool:
        if self.corrupt:
            self.corrupt = False
            got = np.asarray(got) + 1
        return bool(np.array_equal(np.asarray(got), np.asarray(want)))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def compile_program(self) -> Tuple[object, List[bytes]]:
        """Source -> (compiled circuit(s), binary(ies)), timed by callers."""
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Take compile/load samples of the program for ``CHECKPOINT_S``.

        Called after every set-up repetition and every operation of the
        untraced run, so the samples span the whole run instead of one
        moment of it.
        """
        if self.traced:
            return
        start = clock()
        taken = 0
        while taken < PROGRAM_SAMPLES or clock() - start < CHECKPOINT_S:
            taken += 1
            gc.collect()
            t0 = clock()
            _, binaries = self.compile_program()
            t1 = clock()
            for binary in binaries:
                load_program(binary)
            self.samples.append((t1 - t0, clock() - t1))

    def measure(self, phase: Phase, seconds: float) -> Phase:
        return run_rounds(phase, seconds, self.round_size, self.operation,
                          self.checkpoint)

    def operation(self, phase: Phase, index: int) -> None:
        raise NotImplementedError

    def program_counts(self) -> Dict[str, float]:
        """binary_bytes / bootstrapped_gates / bootstrap_levels / gates."""
        return {
            "binary_bytes": sum(len(b) for b in self.binaries),
            "bootstrapped_gates": sum(
                p.schedule.num_bootstrapped for p in self.programs
            ),
            "bootstrap_levels": sum(p.schedule.depth for p in self.programs),
            "hdl.gates": self.elaborated_gates,
        }

    def metrics(self, phase: Phase) -> Dict[str, float]:
        latencies = [op["op_s"] * 1e3 for op in phase.ops]
        return {
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 0.9),
            "throughput_rps": phase.attempted / phase.wall_s,
            "bootstraps_per_s": phase.bootstraps / phase.wall_s,
        }


class CompileMnistM(Workload):
    """Reduced-scale MNIST_M: model -> binary -> verified program."""

    name = "compile_mnist_m"
    round_size = 3

    def setup(self) -> None:
        self.spec = mnist_spec("M", "reduced")
        self.evals: List[float] = []

    def compile_program(self):
        model = spec_to_sequential(self.spec)
        compiled = compile_model(
            model, self.spec.input_shape, name=self.spec.name
        )
        return compiled, [assemble(compiled.netlist)]

    def checkpoint(self) -> None:
        pass  # the operation itself is the compile sample

    def operation(self, phase: Phase, index: int) -> None:
        t0 = clock()
        compiled, (binary,) = self.compile_program()
        t1 = clock()
        program = load_program(binary)
        t2 = clock()
        # The check: plaintext evaluations of the *loaded* program
        # against the framework-neutral reference CNN, one image each.
        ok = True
        evals = []
        for k in range(MNIST_EVALS):
            image = synthetic_digit(
                self.spec.input_shape,
                seed=(self.seed * 1000 + index) * MNIST_EVALS + k,
            )
            bits = compiled.encode_inputs(image)
            t3 = clock()
            out, _ = PlaintextBackend().run(program.netlist, bits)
            evals.append(clock() - t3)
            got = compiled.decode_outputs(out)[0]
            ok = self.check(got, reference_cnn(self.spec, image)) and ok
        self.binaries, self.programs = [binary], [program]
        self.elaborated_gates = compiled.netlist.num_gates
        phase.record(t0, t2, ok, compile_s=t1 - t0, load_s=t2 - t1)
        self.evals.extend(evals)

    def metrics(self, phase: Phase) -> Dict[str, float]:
        # No ciphertext here: a "request" is the plaintext evaluation of
        # the loaded program that checks it (PlaintextBackend).
        evals = [e * 1e3 for e in self.evals]
        p50 = statistics.median(evals)
        return {
            "compile_s": phase.median("compile_s"),
            "load_s": phase.median("load_s"),
            "latency_p50_ms": p50,
            "latency_p90_ms": percentile(evals, 0.9),
            "throughput_rps": phase.attempted / phase.wall_s,
            "bootstraps_per_s": (
                self.programs[0].schedule.num_bootstrapped / (p50 / 1e3)
            ),
        }


class ExecHammingD128(Workload):
    """One encrypted hamming_distance request at tfhe-default-128."""

    name = "exec_hamming_d128"
    params = TFHE_DEFAULT_128

    def compile_program(self):
        compiled = vip_workload("hamming_distance").build()
        return compiled, [assemble(compiled.netlist)]

    def setup(self) -> None:
        self.teardown()
        self.compiled, self.binaries = self.compile_program()
        self.programs = [load_program(b) for b in self.binaries]
        self.elaborated_gates = self.compiled.netlist.num_gates
        self.client = Client(self.params, seed=KEY_SEED)
        self.server = Server(self.client.cloud_key, backend="batched")
        self.client.cloud_key.bootstrap_fft()
        warm_up(self.server, self.client.encrypt_bits,
                self.client.decrypt_bits)

    def teardown(self) -> None:
        self.client = self.server = None

    def operation(self, phase: Phase, index: int) -> None:
        rng = np.random.default_rng([self.seed, index])
        a = rng.integers(0, 2, 32).astype(float)
        b = rng.integers(0, 2, 32).astype(float)
        t0 = clock()
        ct = self.client.encrypt(self.compiled, a, b)
        out, report = self.server.execute(self.binaries[0], ct)
        got = self.client.decrypt(self.compiled, out)[0]
        t1 = clock()
        want = vip_workload("hamming_distance").reference(a, b)[0]
        phase.record(t0, t1, self.check(got, want),
                     bootstraps=report.gates_bootstrapped)


class ServeVipMix(Workload):
    """Closed loop over the real socket: a seeded mix of two VIP kernels."""

    name = "serve_vip_mix"
    params = TFHE_TEST

    def __init__(self, seed: int, corrupt: bool = False,
                 traced: bool = False):
        super().__init__(seed, corrupt, traced)
        self.handle = None
        self.connections: List[FheServiceClient] = []

    def compile_program(self):
        compiled = [vip_workload(k).build() for k in SERVE_KERNELS]
        return compiled, [assemble(c.netlist) for c in compiled]

    def _inputs(self, kernel: str, rng) -> Tuple[np.ndarray, ...]:
        if kernel == "hamming_distance":
            return (rng.integers(0, 2, 32).astype(float),
                    rng.integers(0, 2, 32).astype(float))
        text = rng.integers(0, 4, 16).astype(float)
        if rng.integers(0, 2):
            start = int(rng.integers(0, 13))
            pattern = text[start:start + 4].copy()
        else:
            pattern = rng.integers(0, 4, 4).astype(float)
        return text, pattern

    def setup(self) -> None:
        self.teardown()
        self.compiled, self.binaries = self.compile_program()
        self.elaborated_gates = sum(
            c.netlist.num_gates for c in self.compiled
        )
        self.client = Client(self.params, seed=KEY_SEED)
        server = FheServer(ServeConfig(port=0, **SERVE_CONFIG))
        self.handle = server.run_in_thread().__enter__()
        self.connections = [
            FheServiceClient("127.0.0.1", self.handle.port, "bench",
                             timeout_s=120)
            for _ in range(SERVE_CONNECTIONS)
        ]
        self.connections[0].register_key(self.client.cloud_key)
        self.program_ids = [
            self.connections[0].register_program(b) for b in self.binaries
        ]
        self.programs = [
            server.registry.get(pid) for pid in self.program_ids
        ]
        # One seeded kernel order (SERVE_MIX) shared by both connections,
        # so concurrent requests name the same program and coalesce into
        # 2-D batches; each connection has its own seeded inputs.  All
        # inputs are encrypted now.
        rng = np.random.default_rng([self.seed, SERVE_CONNECTIONS])
        kinds = rng.permutation(
            np.repeat(np.arange(len(SERVE_KERNELS)),
                      [SERVE_POOL * n // sum(SERVE_MIX) for n in SERVE_MIX])
        )
        self.pools = []
        for conn_index in range(SERVE_CONNECTIONS):
            rng = np.random.default_rng([self.seed, conn_index])
            pool = []
            for k in kinds:
                inputs = self._inputs(SERVE_KERNELS[k], rng)
                ct = self.client.encrypt(self.compiled[k], *inputs)
                pool.append((int(k), inputs, ct))
            self.pools.append(pool)
        # Warm-up: one call per kernel, one connection each.
        warm_rng = np.random.default_rng(0)
        for k, kernel in enumerate(SERVE_KERNELS):
            ct = self.client.encrypt(
                self.compiled[k], *self._inputs(kernel, warm_rng)
            )
            self.connections[k % SERVE_CONNECTIONS].call(
                self.program_ids[k], ct
            )

    def teardown(self) -> None:
        for conn in self.connections:
            conn.close()
        self.connections = []
        if self.handle is not None:
            self.handle.__exit__(None, None, None)
            self.handle = None

    def measure(self, phase: Phase, seconds: float) -> Phase:
        deadline = phase.start + seconds
        minimum = (SERVE_MIN_REQUESTS_TRACED if self.traced
                   else SERVE_MIN_REQUESTS)
        done = [0]
        lock = threading.Lock()

        def loop(conn_index: int) -> None:
            conn = self.connections[conn_index]
            pool = self.pools[conn_index]
            position = 0
            while True:
                with lock:
                    if clock() >= deadline and done[0] >= minimum:
                        return
                    done[0] += 1
                k, inputs, ct = pool[position % len(pool)]
                position += 1
                try:
                    t0 = clock()
                    out, report, info = conn.call(self.program_ids[k], ct)
                    t1 = clock()
                    got = self.client.decrypt(self.compiled[k], out)[0]
                except Exception as exc:
                    print(f"request raised {exc!r}", flush=True)
                    phase.record_error()
                    continue
                kernel = vip_workload(SERVE_KERNELS[k])
                ok = self.check(got, kernel.reference(*inputs)[0])
                stages = info["stages"]
                phase.record(
                    t0, t1, ok,
                    bootstraps=self.programs[k].schedule.num_bootstrapped,
                    batch_size=info["batch_size"],
                    queue_wait_ms=stages["queue_wait_ms"],
                    batch_linger_ms=stages["batch_linger_ms"],
                    execute_ms=stages["execute_ms"],
                )

        threads = [
            threading.Thread(target=loop, args=(i,), daemon=True)
            for i in range(SERVE_CONNECTIONS)
        ]
        gc.collect()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve connection did not finish")
        phase.close()
        self.checkpoint()
        return phase


class MblutAdd8(Workload):
    """8-bit ripple adder on p=16 digits at tfhe-mb-128, fixed pairs."""

    name = "mblut_add8"
    params = TFHE_MB_128
    round_size = MBLUT_PAIRS

    def __init__(self, seed: int, corrupt: bool = False,
                 traced: bool = False):
        super().__init__(seed, corrupt, traced)
        self.pairs = np.random.default_rng(MBLUT_PAIR_SEED).integers(
            0, 256, (MBLUT_PAIRS, 2)
        )

    def compile_program(self):
        bd = CircuitBuilder(name="add8")
        a = [bd.input() for _ in range(8)]
        b = [bd.input() for _ in range(8)]
        for bit in ripple_add(bd, a, b, width=9, signed=False):
            bd.output(bit)
        boolean = bd.build()
        mb = synthesize(boolean, modulus=MBLUT_MODULUS)
        return (boolean, mb), [assemble(mb)]

    def setup(self) -> None:
        self.teardown()
        (boolean, self.mb), self.binaries = self.compile_program()
        self.elaborated_gates = boolean.num_gates
        self.programs = [load_program(b) for b in self.binaries]
        self.secret, cloud = generate_keys(self.params, seed=KEY_SEED)
        self.server = Server(cloud, backend="batched")
        cloud.bootstrap_fft()
        warm_up(self.server, functools.partial(encrypt_bits, self.secret),
                functools.partial(decrypt_bits, self.secret))

    def teardown(self) -> None:
        self.secret = self.server = None
        gc.collect()

    def operation(self, phase: Phase, index: int) -> None:
        # --seed only rotates the order of the fixed pairs in a round.
        pair = (index + self.seed) % MBLUT_PAIRS
        a, b = (int(v) for v in self.pairs[pair])
        bits = np.array([(a >> i) & 1 for i in range(8)]
                        + [(b >> i) & 1 for i in range(8)], dtype=bool)
        rng = np.random.default_rng([MBLUT_PAIR_SEED, pair])
        t0 = clock()
        ct = encrypt_mb_inputs(self.secret, self.mb, bits, rng)
        # The server runs the binary: core.Server.execute refuses an
        # MbNetlist object but accepts its binary.
        out, report = self.server.execute(self.binaries[0], ct)
        got_bits = decrypt_mb_outputs(self.secret, self.mb, out)
        t1 = clock()
        got = sum(int(bit) << i for i, bit in enumerate(got_bits))
        ok = self.check(got, a + b)
        if not ok:
            print(f"pair {pair}: {a} + {b} decrypted as {got}", flush=True)
        phase.record(t0, t1, ok, bootstraps=report.gates_bootstrapped)


WORKLOADS = {
    w.name: w
    for w in (CompileMnistM, ExecHammingD128, ServeVipMix, MblutAdd8)
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _setup_repeated(workload: Workload, tracer) -> Tuple[float, Dict]:
    times = []
    t_setup = clock()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
        workload.checkpoint()
    layers: Dict[str, float] = {}
    if tracer is not None:
        totals = tracing.setup_times(tracer.window(t_setup, clock()))
        layers = {k: v / SETUP_REPEATS for k, v in totals.items()}
    return statistics.median(times), layers


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        startup_s: float, corrupt: bool = False) -> dict:
    workload = WORKLOADS[workload_name](seed, corrupt, trace)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup_s, setup_layers = _setup_repeated(workload, tracer)
        if trace:
            result = _traced(workload, tracer, seconds, setup_layers)
        else:
            result = _untraced(workload, seconds, startup_s + setup_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()
    return result


def _untraced(workload: Workload, seconds: float, setup_s: float) -> dict:
    phase = workload.measure(Phase(None), seconds)
    metrics = {"setup_s": setup_s}
    if workload.samples:
        # Milliseconds-long samples, a few hundred per run spread over
        # its checkpoints.  Their fastest is a lone lucky sample (its
        # value moved ~35% between runs); their median moved ~6%.
        metrics["compile_s"] = statistics.median(
            c for c, _ in workload.samples
        )
        metrics["load_s"] = statistics.median(
            ld for _, ld in workload.samples
        )
    metrics.update(workload.metrics(phase))
    counts = workload.program_counts()
    for name in ("binary_bytes", "bootstrapped_gates", "bootstrap_levels"):
        metrics[name] = counts[name]
    metrics["peak_rss_mb"] = peak_rss_mb()
    return _result(phase.attempted, phase.failed, metrics, END_TO_END,
                   correct=True)


def _traced(workload: Workload, tracer: tracing.Tracer, seconds: float,
            setup_layers: Dict[str, float]) -> dict:
    tracer.uninstall()
    plain = workload.measure(Phase(None), seconds)
    tracer.install()
    tracer.counts.clear()
    phase = workload.measure(Phase(tracer), seconds)
    tracer.uninstall()

    n = len(phase.ops)
    layers, op_total, root_self = tracing.self_times(
        tracer.window(phase.start, phase.end), phase.root_threads
    )
    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name, value in layers.items():
        metrics[name] = value / n
    if "queue_wait_ms" in phase.ops[0]:
        for stage in ("queue_wait_ms", "batch_linger_ms", "execute_ms"):
            metrics["serve." + stage] = statistics.mean(
                op[stage] for op in phase.ops
            )
        metrics["serve.wire_ms"] = statistics.mean(
            op["op_s"] * 1e3 - op["queue_wait_ms"]
            - op["batch_linger_ms"] - op["execute_ms"]
            for op in phase.ops
        )
        metrics["serve.batch_size_mean"] = statistics.mean(
            op["batch_size"] for op in phase.ops
        )
    # Everything under the operations, in seconds per operation; the
    # remainder is unattributed.  Without cross-thread work the
    # remainder must equal the operation spans' own self time.
    attributed = sum(layers.values()) / n + sum(
        metrics[s] / 1e3 for s in SERVE_STAGES
    )
    metrics["trace.op_s"] = op_total / n
    metrics["trace.unattributed_s"] = op_total / n - attributed
    if any(metrics[s] for s in SERVE_STAGES):
        # Executor hand-off is the remainder: it cannot be negative.
        closes = metrics["trace.unattributed_s"] > -1e-6
    else:
        closes = abs(metrics["trace.unattributed_s"] - root_self / n) < 1e-6
    for name in ("client.encrypt_ms", "client.decrypt_ms"):
        metrics[name] *= 1e3  # layer self times are recorded in seconds
    metrics.update(setup_layers)
    counts = tracer.counts
    metrics["tfhe.external_products"] = counts["tfhe.external_products"] / n
    metrics["engine.levels"] = counts["engine.levels"] / n
    if counts["bootstrap_calls"]:
        metrics["engine.level_width_mean"] = (
            counts["bootstraps"] / counts["bootstrap_calls"]
        )
    metrics["hdl.gates"] = workload.program_counts()["hdl.gates"]
    metrics["trace.overhead_pct"] = 100.0 * (
        phase.median("op_s") / plain.median("op_s") - 1.0
    )
    return _result(
        plain.attempted + phase.attempted, plain.failed + phase.failed,
        metrics, PER_LAYER, correct=closes,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(attempted, failed, metrics, table, correct) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit, _ in table
        },
    }


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: pinned and measured."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "serve_config": SERVE_CONFIG,
    }
