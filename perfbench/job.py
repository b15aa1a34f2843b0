"""One benchmark job, in a fresh interpreter.

Run by ``run.py`` as ``python3 job.py '<json spec>'``; prints one JSON
object as the last line of standard output.  Two kinds of spec:

* ``{"mode": "reference", "programs": [...], "trace": bool}`` runs every
  program natively on the reference CPU (the oracle's expected output);
* ``{"mode": "run", "program": {...}, "tool": name, "cache_dir": path or
  null, "trace": bool}`` runs one program under one tool through
  ``repro.api.run`` with default options and times that call.

A program is ``{"suite": name, "scale": s}`` or ``{"gen": seed}``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from dataclasses import asdict

import genprog
from ledger import LedgerError, Tracer


def build(program: dict):
    """Assemble *program*; looked up through the modules so that a
    traced job charges it to ``guest.asm.assemble``."""
    if "suite" in program:
        from repro.workloads import suite

        return suite.build(program["suite"], program["scale"]).image
    from repro.guest import asm
    from repro.libc.stubs import build_source

    return asm.assemble(build_source(genprog.generate(program["gen"])),
                        filename="coldcode")


def reference(spec: dict) -> dict:
    from repro import native

    images = [build(p) for p in spec["programs"]]
    out = []
    for image in images:
        res = native.run_native(image)
        out.append({"exit_code": res.exit_code, "stdout": res.stdout,
                    "guest_insns": res.guest_insns})
    return {"results": out}


def run(spec: dict, tracer) -> dict:
    from repro import api

    image = build(spec["program"])
    options = api.Options(cache_dir=spec["cache_dir"])
    runs = []
    if tracer is not None:
        # Keep the core's result so that the counters can be read from
        # its --stats=json payload after the timed span.
        from repro.core.valgrind import Valgrind

        plain_run = Valgrind.run

        def keep(self, *args, **kwargs):
            result = plain_run(self, *args, **kwargs)
            runs.append(result)
            return result

        Valgrind.run = keep
    ready_at = time.monotonic()

    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is None:
        res = api.run(image, spec["tool"], options)
    else:
        with tracer.root():
            res = api.run(image, spec["tool"], options)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    out = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_code": res.exit_code,
        "stdout": res.stdout,
        "log": res.log,
        "error": res.error,
        "fatal_signal": res.fatal_signal,
        "stopped_reason": res.stopped_reason,
        "guest_insns": res.guest_insns,
        "blocks_executed": res.blocks_executed,
        "translations": res.translations,
        "options": asdict(options),
    }
    if tracer is not None and runs:
        out["stats"] = runs[0].stats()
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        try:
            tracer.install()
        except LedgerError as exc:
            print(f"layer ledger: {exc}", file=sys.stderr)
            return 3
    out = (reference(spec) if spec["mode"] == "reference"
           else run(spec, tracer))
    if tracer is not None:
        out["ledger"] = tracer.raw()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
