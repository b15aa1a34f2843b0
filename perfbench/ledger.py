"""The layer ledger: spans recorded around the calls into each layer.

The tracer wraps each layer's public functions at the name its caller
looks up (a module global such as ``repro.core.translate.optimise1``, or
a method on its class), from outside the program: nothing under ``src/``
changes.  Each call records a span (layer, start, end, parent span) in
memory; :meth:`Tracer.raw` turns them into self times when the job ends.
A span's self time is its duration minus the time its child spans cover,
so the self times of all spans inside the job's root span add up to the
root's duration, and what is left is the root's own, unattributed, time.

A target that no longer exists raises :class:`LedgerError`: a rename in
the program must fail the traced run, not drop a layer to zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: layer -> the functions whose calls are charged to it, as
#: ``module:attribute`` or ``module:Class.method``.
LAYERS = {
    "core.scheduler": ["repro.core.scheduler:Scheduler.run"],
    "core.dispatch": ["repro.core.dispatch:Dispatcher.run"],
    "core.translate": ["repro.core.translate:Translator.translate"],
    "frontend.disasm": ["repro.frontend.disasm:Disassembler.disasm_block"],
    "opt.opt1": ["repro.core.translate:optimise1"],
    "opt.opt2": ["repro.core.translate:optimise2"],
    "opt.treebuild": ["repro.core.translate:build_trees"],
    "tools.instrument": [
        "repro.core.tool:Tool.instrument",  # Nulgrind's, in its entirety
        "repro.tools.memcheck.tool:Memcheck.instrument",
    ],
    "backend.isel": ["repro.core.translate:select"],
    "backend.regalloc": ["repro.core.translate:allocate"],
    "backend.assemble": ["repro.core.translate:encode_insns"],
    # The closure tier is the default: the dispatcher compiles each block
    # on its first execution through HostCPU.compile.
    "backend.compile": ["repro.backend.hostcpu:HostCPU.compile"],
    "tools.fini": [
        "repro.core.tool:Tool.fini",
        "repro.tools.memcheck.tool:Memcheck.fini",
    ],
    "tools.memcheck.leak_check": [
        "repro.tools.memcheck.tool:Memcheck.leak_check",
    ],
    "tools.memcheck.shadow.range": [
        "repro.tools.memcheck.shadow:ShadowMemory.make_defined",
        "repro.tools.memcheck.shadow:ShadowMemory.make_undefined",
        "repro.tools.memcheck.shadow:ShadowMemory.make_noaccess",
        "repro.tools.memcheck.shadow:ShadowMemory.copy_range",
    ],
    "core.codecache.lookup": [
        "repro.core.codecache:CodeCache.lookup_translation",
        "repro.core.codecache:CodeCache.load_pygen",
    ],
    "core.codecache.store": [
        "repro.core.codecache:CodeCache.store_translation",
        "repro.core.codecache:CodeCache.store_pygen",
    ],
    "core.syscalls": ["repro.core.syscalls:SyscallWrappers.do_syscall"],
    "guest.loader.load": ["repro.core.valgrind:load_program"],
    "guest.asm.assemble": [
        "repro.workloads.suite:assemble",
        "repro.guest.asm:assemble",
    ],
    "native.run": ["repro.native:run_native"],
}

#: Translation.stats fields summed over every translate() call.
TRANSLATION_FIELDS = (
    "stmts_opt1", "stmts_instrumented", "stmts_opt2", "host_insns",
)

ROOT = "job"


class LedgerError(RuntimeError):
    """A layer's function is missing, so the ledger cannot be trusted."""


def _resolve(target: str):
    """(owner, attribute name, function) for ``module:path``."""
    module, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise LedgerError(f"{target}: {exc}") from None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LedgerError(f"{target}: {part!r} not found")
    # A method must be defined on the class itself: wrapping an
    # inherited one would silently charge every sibling class too.
    fn = vars(owner).get(attr)
    if not callable(fn):
        raise LedgerError(f"{target}: {attr!r} not found")
    return owner, attr, fn


class Tracer:
    """Records spans at the layer boundaries of one job process."""

    def __init__(self) -> None:
        #: (layer, start, end, parent span index or -1); an entry is None
        #: while its call is still running.
        self.spans: list = []
        self._stack: list = []
        #: Translation.stats fields and register spills, summed.
        self.translation_stats: Counter = Counter()

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS` (all, or none on error)."""
        resolved = [(layer, *_resolve(t))
                    for layer, targets in LAYERS.items() for t in targets]
        for layer, owner, attr, fn in resolved:
            setattr(owner, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._note_translation if layer == "core.translate" else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if note is not None:
                note(result)
            return result

        return traced

    def _note_translation(self, translation) -> None:
        stats = translation.stats
        for name in TRANSLATION_FIELDS:
            self.translation_stats[name] += getattr(stats, name)
        if stats.alloc is not None:
            self.translation_stats["spilled_vregs"] += stats.alloc.spilled_vregs

    @contextmanager
    def root(self):
        """The span around the timed job; its self time is the part of
        the run that no layer accounts for."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (ROOT, start, time.perf_counter(), -1)

    def raw(self) -> dict:
        """Self seconds and call counts per layer (the root included)."""
        child_time = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (layer, start, end, _parent), covered in zip(self.spans,
                                                         child_time):
            self_s[layer] += end - start - covered
            calls[layer] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "translation": dict(self.translation_stats)}
