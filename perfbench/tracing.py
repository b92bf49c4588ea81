"""Per-layer tracing for the benchmark's traced run.

The program gets no new tracing: this module wraps the public entry
point of each layer from the outside, keeps the spans in memory, and
turns them into per-layer *self times* when the run ends.

A wrapper replaces the original function in every module of the program
(and of the benchmark's workload code) that holds a reference to it (``from x import f`` copies the name, so
patching the defining module alone would miss, e.g., ``blind_rotate``
as imported by ``repro.mblut.kernels``).  Methods are patched on their
class.  :meth:`Tracer.uninstall` restores every original, so the
untraced phase of a traced run executes the unmodified program.

Self time is a span's duration minus the part of it that its direct
children cover, computed per thread.  Spans whose outermost ancestor is
an operation span (the end-to-end timing the benchmark reports) are
attributed to that operation; the operation span's own self time is the
*unattributed* remainder, so the layers plus the remainder add up to
the end-to-end timing exactly.  In the serving workload the engine runs
on the server's executor thread: there each ``CpuBackend.run_many``
span is the root, weighted by the number of requests in its batch,
because every request of a batch waits for the whole execution.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

OP = "op"
#: Top-level modules whose references to a wrapped function are
#: replaced: the program and the benchmark's own workload code.
PATCHED = ("repro", "workloads")

#: (module, attribute, layer): module-level functions to wrap.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.compiler", "compile_model", "chiseltorch.elaborate_s"),
    ("repro.core.compiler", "compile_function", "chiseltorch.elaborate_s"),
    ("repro.isa.assembler", "assemble", "isa.assemble_s"),
    ("repro.isa.assembler", "disassemble", "isa.disassemble_s"),
    ("repro.runtime.scheduler", "build_schedule", "runtime.schedule_s"),
    ("repro.analyze.structural", "check_structure", "analyze.structural_s"),
    ("repro.analyze.hazards", "check_schedule", "analyze.hazards_s"),
    ("repro.analyze.dataflow", "check_dataflow", "analyze.dataflow_s"),
    ("repro.analyze.cost", "certify_cost", "analyze.cost_s"),
    ("repro.tfhe.keys", "generate_keys", "tfhe.keygen_s"),
    ("repro.tfhe.bootstrap", "blind_rotate", "tfhe.blind_rotate_s"),
    ("repro.tfhe.tgsw", "_decompose_float", "tfhe.decompose_s"),
    ("repro.tfhe.tgsw", "external_product", "tfhe.zgemm_s"),
    ("repro.tfhe.polynomial", "negacyclic_shift", "tfhe.rotate_s"),
    ("repro.tfhe.keyswitch", "keyswitch_apply", "tfhe.keyswitch_s"),
    ("repro.tfhe.gates", "evaluate_gates_batch", "engine.bootstrap_s"),
    ("repro.mblut.kernels", "mb_bootstrap_batch", "mblut.lut_bootstrap_s"),
    ("repro.mblut.kernels", "lin_combine", "mblut.lin_s"),
    ("repro.mblut.synth", "synthesize", "mblut.synthesize_s"),
    ("repro.mblut.client", "encrypt_mb_inputs", "client.encrypt_ms"),
    ("repro.mblut.client", "decrypt_mb_outputs", "client.decrypt_ms"),
)

#: (module, class, method, layer): methods to wrap on their class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.analyze.facts", "FlatCircuitFacts", "from_netlist",
     "analyze.facts_s"),
    ("repro.tfhe.keys", "CloudKey", "bootstrap_fft", "tfhe.bk_fft_s"),
    ("repro.tfhe.polynomial", "NegacyclicRing", "forward_half",
     "tfhe.fft_forward_s"),
    ("repro.tfhe.polynomial", "NegacyclicRing", "backward_half",
     "tfhe.fft_inverse_s"),
    ("repro.serve.client", "FheServiceClient", "register_program",
     "serve.register_s"),
    ("repro.core.session", "Client", "encrypt", "client.encrypt_ms"),
    ("repro.core.session", "Client", "decrypt", "client.decrypt_ms"),
)

#: Engine entry points: their span also carries the run's free-gate
#: time (from the report's per-level events) and its instance count.
BACKEND_METHODS = ("run", "run_many")
DISPATCH = "engine.dispatch_s"
FREE = "engine.free_s"
LIN = "mblut.lin_s"

#: Layers timed at set-up, reported per set-up repetition.
SETUP_LAYERS = ("tfhe.keygen_s", "tfhe.bk_fft_s", "serve.register_s",
                "mblut.synthesize_s")


class Span:
    __slots__ = ("layer", "tid", "start", "end", "weight", "free_s")

    def __init__(self, layer, tid, start, end, weight=1.0, free_s=0.0):
        self.layer = layer
        self.tid = tid
        self.start = start
        self.end = end
        self.weight = weight
        self.free_s = free_s


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def add(self, layer: str, start: float, end: float) -> None:
        self.spans.append(Span(layer, threading.get_ident(), start, end))

    def _timed(self, layer: str, fn: Callable,
               count: Optional[Callable] = None) -> Callable:
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(layer, ident(), t0, clock()))
                if count is not None:
                    count(counts, args)

        return wrapper

    def _backend(self, fn: Callable) -> Callable:
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(backend, netlist, inputs, *args, **kwargs):
            # The backend's existing ``trace`` flag makes the report
            # carry per-level bootstrap/free events.
            saved = backend.trace_enabled
            backend.trace_enabled = True
            t0 = clock()
            try:
                outputs, report = fn(backend, netlist, inputs, *args,
                                     **kwargs)
            finally:
                backend.trace_enabled = saved
            t1 = clock()
            instances = inputs.a.shape[0] if inputs.a.ndim == 3 else 1
            free_s = sum(
                e.end_s - e.start_s for e in report.trace
                if e.kind == "free"
            )
            spans.append(
                Span(DISPATCH, ident(), t0, t1, float(instances), free_s)
            )
            counts["engine.levels"] += report.levels
            return outputs, report

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._undo:
            return
        # Load every wrapped module first, so no module imports a name
        # after it was patched (uninstall could not restore that copy).
        for module_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            count = _COUNTERS.get(layer)
            self._replace_everywhere(
                original, self._timed(layer, original, count)
            )
        for module_name, cls_name, name, layer in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch_method(cls, name, layer)
        from repro.runtime.executors import CpuBackend

        for name in BACKEND_METHODS:
            original = CpuBackend.__dict__[name]
            setattr(CpuBackend, name, self._backend(original))
            self._undo.append((CpuBackend, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] not in PATCHED:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_method(self, cls, name: str, layer: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            patched = classmethod(self._timed(layer, raw.__func__))
        else:
            patched = self._timed(layer, raw)
        setattr(cls, name, patched)
        self._undo.append((cls, name, raw))

    # -- analysis -------------------------------------------------------
    def window(self, start: float, end: float) -> List[Span]:
        return [s for s in self.spans if s.start >= start and s.end <= end]


def _count_external_product(counts, args) -> None:
    counts["tfhe.external_products"] += 1


def _count_gate_bootstraps(counts, args) -> None:
    # evaluate_gates_batch(cloud, codes, ca, cb): one per gate code.
    counts["bootstrap_calls"] += 1
    counts["bootstraps"] += args[1].size


def _count_lut_bootstraps(counts, args) -> None:
    # mb_bootstrap_batch(cloud, ct, rows, post): one per sample.
    counts["bootstrap_calls"] += 1
    counts["bootstraps"] += args[1].b.size


_COUNTERS = {
    "tfhe.zgemm_s": _count_external_product,
    "engine.bootstrap_s": _count_gate_bootstraps,
    "mblut.lut_bootstrap_s": _count_lut_bootstraps,
}


def _walk(spans: List[Span]) -> Iterator[Tuple[Span, float, float, Span]]:
    """Yield ``(span, child time, LIN child time, root)`` per span.

    Spans of one thread nest like the calls that made them, so one
    sweep in start order with a stack finds each span's direct
    children and its outermost ancestor.
    """
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack: List[list] = []
        for span in group:
            while stack and stack[-1][0].end <= span.start:
                yield tuple(stack.pop())
            if stack and span.end <= stack[-1][0].end:
                parent = stack[-1]
                parent[1] += span.end - span.start
                if span.layer == LIN:
                    parent[2] += span.end - span.start
                root = parent[3]
            else:
                while stack:
                    yield tuple(stack.pop())
                root = span
            stack.append([span, 0.0, 0.0, root])
        while stack:
            yield tuple(stack.pop())


def self_times(
    spans: List[Span], root_threads
) -> Tuple[Dict[str, float], float, float]:
    """Per-layer weighted self time under the operation spans.

    Returns ``(layers, op_total, unattributed)``: ``layers`` maps layer
    name to summed self time, ``op_total`` is the summed duration of
    the operation spans and ``unattributed`` their own self time.
    Spans outside any operation in a thread that records operations
    (e.g. a correctness check after the timed call) are left out.
    """
    layers: Dict[str, float] = defaultdict(float)
    op_total = 0.0
    unattributed = 0.0
    for span, child, lin_child, root in _walk(spans):
        own = (span.end - span.start) - child
        if span.layer == OP:
            op_total += span.end - span.start
            unattributed += own
            continue
        if root.layer == OP:
            weight = 1.0
        elif span.tid not in root_threads and root.layer == DISPATCH:
            weight = root.weight
        else:
            continue
        if span.layer == DISPATCH:
            # The run's free-gate events hold its LIN spans; the rest
            # of the run's own time is dispatch.
            free = max(span.free_s - lin_child, 0.0)
            layers[FREE] += free * weight
            own -= free
        layers[span.layer] += own * weight
    return dict(layers), op_total, unattributed


def setup_times(spans: List[Span]) -> Dict[str, float]:
    """Self time of the set-up layers in a set-up window, any thread."""
    totals: Dict[str, float] = defaultdict(float)
    for span, child, _, _ in _walk(spans):
        if span.layer in SETUP_LAYERS:
            totals[span.layer] += (span.end - span.start) - child
    return dict(totals)
