"""The repository benchmark: whole tool runs, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memcheck-coldcode --seed 1 \\
        --seconds 60 --trace 0

Each sample runs the workload's jobs one after another, each in a fresh
interpreter with every ``REPRO_*`` variable removed, through
``repro.api.run`` with default ``Options()``.  The run takes samples for
``--seconds`` seconds and checks every job against the oracle.  A time's
value is the sum over the jobs of each job's fastest sample (see
:func:`end_to_end`).  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
taken from traced samples that alternate with untraced ones (see
``ledger.py``); each is the median over the traced samples.  The line
before it holds the full report: every metric's value with the median,
tail and count of its per-sample figures, the per-job work counts and
the measured configuration.

The oracle, for every job: exit code and stdout equal to a native run on
the reference CPU; the tool's log equal to the digest recorded in
``expected.json`` (suite programs) or to the generator's expected report;
the guest instruction, block and translation counts equal in every
sample; and on ``memcheck-warmcache`` the warm run equal, byte for byte,
to the cold run that filled the cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import genprog  # noqa: E402

#: Suite programs run at Table 2's input size; short jobs also give a
#: run more samples to take the fastest of.
SCALE = 0.2

#: Why each workload is in the benchmark is in BENCHMARK.json.  The two
#: suite workloads are defined but left out of it: on a shared 2-core
#: host their figures spread by more than the bounds from run to run.
WORKLOADS = {
    "memcheck-spec": ("memcheck", [{"suite": n, "scale": SCALE}
                                   for n in ("gzip", "vortex", "swim")]),
    "nulgrind-hot": ("none", [{"suite": n, "scale": SCALE}
                              for n in ("crafty", "gzip", "perlbmk")]),
    "memcheck-coldcode": ("memcheck", [{"gen": None}]),
    "memcheck-warmcache": ("memcheck", [{"gen": None}]),
}
WARM = "memcheck-warmcache"

MIN_SAMPLES = 3
JOB_TIMEOUT_S = 120

#: Work counts that must repeat exactly in every sample of a run.
COUNTS = ("guest_insns", "blocks_executed", "translations")

#: Layers whose work belongs to set-up: the cold run that fills the
#: warm-cache workload's cache is charged here, not to the timed job.
SETUP_LAYERS = ("core.codecache.store",)


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result)."""


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict) -> dict:
    """Run one job in a fresh interpreter; its JSON report, plus the
    spawn time, its wall time as seen from here, and any failure."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
            cwd=ROOT, env=job_env(), capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"spawned_at": spawned_at,
                "problem": f"overran {JOB_TIMEOUT_S}s"}
    done_at = time.monotonic()
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"spawned_at": spawned_at,
                "problem": f"job exited {proc.returncode}: {tail}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(spawned_at=spawned_at, process_s=done_at - spawned_at)
    return out


def program_key(tool: str, program: dict) -> str:
    if "suite" in program:
        return f"{tool}:{program['suite']}@{program['scale']}"
    return f"{tool}:coldcode"


class Oracle:
    """Checks job results; remembers work counts across samples."""

    def __init__(self, tool: str, programs: list, reference: list):
        self.reference = reference
        with open(os.path.join(HERE, "expected.json")) as f:
            digests = json.load(f)
        self.log_digest = []
        for program in programs:
            if "gen" in program:
                report = genprog.memcheck_report() if tool == "memcheck" \
                    else ""
                self.log_digest.append(_digest(report))
            else:
                self.log_digest.append(digests[program_key(tool, program)])
        self.counts: dict = {}

    def check(self, index: int, res: dict) -> list:
        if "problem" in res:
            return [res["problem"]]
        ref = self.reference[index]
        problems = []
        for field in ("error", "fatal_signal", "stopped_reason"):
            if res[field] is not None:
                problems.append(f"{field}: {res[field]}")
        if res["exit_code"] != ref["exit_code"]:
            problems.append(f"exit code {res['exit_code']} != native "
                            f"{ref['exit_code']}")
        if res["stdout"] != ref["stdout"]:
            problems.append(f"stdout {res['stdout']!r} != native "
                            f"{ref['stdout']!r}")
        if _digest(res["log"]) != self.log_digest[index]:
            problems.append(f"tool log differs from the recorded digest: "
                            f"{res['log']!r}")
        counts = tuple(res[k] for k in COUNTS)
        first = self.counts.setdefault(index, counts)
        if counts != first:
            problems.append(f"work counts (insns, blocks, translations) "
                            f"{counts} != first sample's {first}")
        return problems


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_sample(tool: str, programs: list, oracle: Oracle, trace: bool,
               cache_dir=None, fills=()) -> dict:
    """One sample: every job of the workload, in order.  With *cache_dir*,
    each job reads the cache that its cold run in *fills* wrote, and must
    match that run byte for byte."""
    jobs, problems, failed = [], [], 0
    for index, program in enumerate(programs):
        res = spawn({"mode": "run", "program": program, "tool": tool,
                     "cache_dir": cache_dir, "trace": trace})
        found = oracle.check(index, res)
        if fills and "problem" not in res and "problem" not in fills[index]:
            if any(fills[index][k] != res[k]
                   for k in ("exit_code", "stdout", "log")):
                found.append("warm run differs from the cold run that "
                             "filled the cache")
        problems += found
        failed += bool(found)
        jobs.append(res)
    return {"jobs": jobs, "setup_jobs": list(fills), "problems": problems,
            "failed": failed, "trace": trace}


def end_to_end(samples: list) -> dict:
    """The end-to-end metrics of *samples*.

    Each time is the sum, over the workload's jobs, of the job's fastest
    sample.  On a shared host the speed of the same job drifts by up to
    1.8x, in phases of seconds to minutes, and a slowdown only ever adds
    time, so the fastest sample is what best repeats from run to run; the
    median and tail of the per-sample sums are reported next to it."""
    per_sample = []
    for sample in samples:
        rows = []
        for index, job in enumerate(sample["jobs"]):
            setup = job["ready_at"] - job["spawned_at"]
            if sample["setup_jobs"]:
                setup += sample["setup_jobs"][index]["process_s"]
            rows.append(dict(job, setup_s=setup))
        per_sample.append(rows)

    def best(key: str) -> float:
        return sum(min(column) for column in zip(
            *([job[key] for job in rows] for rows in per_sample)))

    wall = best("wall_s")
    return {
        "wall_s": wall,
        "cpu_s": best("cpu_s"),
        "guest_insns_per_s": sum(
            job["guest_insns"] for job in per_sample[0]) / wall,
        "setup_s": best("setup_s"),
        "peak_rss_mb": max(statistics.median(column) for column in zip(
            *([job["rss_mb"] for job in rows] for rows in per_sample))),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(sample: dict, native_s: float) -> dict:
    """The per-layer metrics of one traced sample."""
    self_s, calls, tstats, stats = {}, {}, {}, {}

    def add(into: dict, items) -> None:
        for k, v in items:
            into[k] = into.get(k, 0) + v

    for job in sample["jobs"]:
        ledger = job["ledger"]
        add(self_s, ledger["self_s"].items())
        add(calls, ledger["calls"].items())
        add(tstats, ledger["translation"].items())
        s = job["stats"]
        add(stats, (("dispatch." + k, v) for k, v in s["dispatch"].items()
                    if k != "hit_rate"))
        mc = s.get("memcheck_shadow") or {}
        add(stats, (("shadow." + k, v) for k, v in mc.items()
                    if k != "fastpath"))
        add(stats, (("shadow." + k, v)
                    for k, v in (mc.get("fastpath") or {}).items()))
        add(stats, (("cache." + k, v)
                    for k, v in (s.get("cache") or {}).items()))
    for job in sample["setup_jobs"]:
        ledger = job["ledger"]
        add(self_s, ((k, v) for k, v in ledger["self_s"].items()
                     if k in SETUP_LAYERS))
        add(stats, (("cache.bytes_written", job["stats"]["cache"]
                     ["bytes_written"]),))

    s = lambda layer: self_s.get(layer, 0.0)  # noqa: E731
    n = lambda layer: calls.get(layer, 0)  # noqa: E731
    c = lambda key: stats.get(key, 0)  # noqa: E731
    fast = c("shadow.fast_loads") + c("shadow.fast_stores")
    lookups = (c("dispatch.fast_hits") + c("dispatch.slow_hits")
               + c("dispatch.chained") + c("dispatch.mega_hits")
               + c("dispatch.misses"))
    cache_hits = c("cache.hits") + c("cache.pygen_hits")
    cache_tries = cache_hits + c("cache.misses") + c("cache.pygen_misses")
    return {
        "tools.memcheck.leak_check_s": s("tools.memcheck.leak_check"),
        "tools.fini_s": s("tools.fini"),
        "tools.memcheck.shadow.range_s": s("tools.memcheck.shadow.range"),
        "tools.memcheck.shadow.range_calls": n("tools.memcheck.shadow.range"),
        "tools.memcheck.shadow.fast_frac": _ratio(
            fast, fast + c("shadow.slow_loads") + c("shadow.slow_stores")),
        "tools.memcheck.shadow.slow_loads": c("shadow.slow_loads"),
        "tools.memcheck.shadow.slow_stores": c("shadow.slow_stores"),
        "tools.memcheck.shadow.pages_private": c("shadow.pages_private"),
        "tools.memcheck.shadow.cow_promotions": c("shadow.cow_promotions"),
        "core.dispatch.self_s": s("core.dispatch"),
        "core.dispatch.blocks": c("dispatch.blocks_executed"),
        "core.dispatch.hit_rate": _ratio(
            c("dispatch.fast_hits") + c("dispatch.chained")
            + c("dispatch.mega_hits"), lookups),
        "core.dispatch.misses": c("dispatch.misses"),
        "core.scheduler.self_s": s("core.scheduler"),
        "core.translate.self_s": s("core.translate"),
        "core.translate.calls": n("core.translate"),
        "frontend.disasm_s": s("frontend.disasm"),
        "opt.opt1_s": s("opt.opt1"),
        "opt.opt2_s": s("opt.opt2"),
        "opt.treebuild_s": s("opt.treebuild"),
        "tools.instrument_s": s("tools.instrument"),
        "backend.isel_s": s("backend.isel"),
        "backend.regalloc_s": s("backend.regalloc"),
        "backend.assemble_s": s("backend.assemble"),
        "backend.compile_s": s("backend.compile"),
        "ir.stmts_opt1": tstats.get("stmts_opt1", 0),
        "ir.stmts_instrumented": tstats.get("stmts_instrumented", 0),
        "ir.stmts_opt2": tstats.get("stmts_opt2", 0),
        "backend.host_insns": tstats.get("host_insns", 0),
        "backend.spilled_vregs": tstats.get("spilled_vregs", 0),
        "core.codecache.lookup_s": s("core.codecache.lookup"),
        "core.codecache.hit_rate": _ratio(cache_hits, cache_tries),
        "core.codecache.bytes_read": c("cache.bytes_read"),
        "core.codecache.store_s": s("core.codecache.store"),
        "core.codecache.bytes_written": c("cache.bytes_written"),
        "core.syscalls.s": s("core.syscalls"),
        "core.syscalls.calls": n("core.syscalls"),
        "guest.loader.load_s": s("guest.loader.load"),
        "guest.asm.assemble_s": s("guest.asm.assemble"),
        "native.run_s": native_s,
        "unattributed_s": s("job"),
    }


def tail(values: list, better: str) -> tuple:
    """The highest percentile the sample count supports (ten samples
    beyond it), on the worse side; the extreme below twenty samples."""
    ordered = sorted(values, reverse=better == "higher")
    for p in (99, 95, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[math.ceil(len(ordered) * p / 100) - 1]
    return "max" if better == "lower" else "min", ordered[-1]


def summarise(values: dict, rows: list, declared: list) -> dict:
    """Each declared metric's value, with the median, tail and count of
    its per-sample *rows*."""
    out = {}
    for m in declared:
        per_sample = [row[m["name"]] for row in rows]
        label, worst = tail(per_sample, m["better"])
        out[m["name"]] = {"value": values[m["name"]],
                          "median": statistics.median(per_sample),
                          label: worst, "n": len(per_sample),
                          "unit": m["unit"]}
    return out


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=genprog.DEFINED_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        raise BenchError(f"no repro sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    trace = bool(args.trace)
    metrics = declared["per_layer" if trace else "end_to_end"]
    tool, programs = WORKLOADS[args.workload]
    programs = [dict(p, gen=args.seed) if "gen" in p else p
                for p in programs]

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        ref = spawn({"mode": "reference", "programs": programs,
                     "trace": trace})
        if "problem" in ref:
            raise BenchError(f"reference run failed: {ref['problem']}")
        oracle = Oracle(tool, programs, ref["results"])
        cache_dir, fills, fill_problems = None, [], []
        if args.workload == WARM:
            # Set-up: one cold run per program fills the cache that every
            # sample then reads; its time is part of each sample's setup_s.
            cache_dir = tempfile.mkdtemp(dir=workdir)
            for index, program in enumerate(programs):
                fills.append(spawn({"mode": "run", "program": program,
                                    "tool": tool, "cache_dir": cache_dir,
                                    "trace": trace}))
                fill_problems.append(oracle.check(index, fills[-1]))
        samples = []
        start = time.monotonic()
        least = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
        while True:
            traced = trace and len(samples) % 2 == 1
            began = time.monotonic()
            samples.append(run_sample(tool, programs, oracle, traced,
                                      cache_dir, fills))
            # Stop when one more sample like the last would overrun.
            now = time.monotonic()
            if (len(samples) >= least
                    and 2 * now - began - start > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(fills) + sum(len(s["jobs"]) for s in samples)
    failed = sum(map(bool, fill_problems)) + sum(s["failed"] for s in samples)
    for problem in sum(fill_problems, []):
        print(f"perfbench: {args.workload}: cache fill: {problem}",
              file=sys.stderr)
    for s in samples:
        for problem in s["problems"]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    # Time the samples whose every job passed; if none did, those whose
    # every job at least ran to completion.
    timed = [s for s in samples
             if all("wall_s" in j for j in s["jobs"] + s["setup_jobs"])]
    good = [s for s in timed if not s["problems"]] or timed
    untraced = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    if not untraced or (trace and not traced):
        raise BenchError("no sample ran to completion")
    if trace:
        native_s = ref["ledger"]["self_s"].get("native.run", 0.0)
        overhead = (end_to_end(traced)["wall_s"]
                    / end_to_end(untraced)["wall_s"] - 1)
        rows = [dict(per_layer(s, native_s), **{
            "trace.overhead_frac": overhead}) for s in traced]
        values = {m["name"]: statistics.median(r[m["name"]] for r in rows)
                  for m in metrics}
    else:
        pass_rate = (attempted - failed) / attempted
        rows = [dict(end_to_end([s]), pass_rate=pass_rate)
                for s in untraced]
        values = dict(end_to_end(untraced), pass_rate=pass_rate)
    report = summarise(values, rows, metrics)

    options = next((j["options"] for s in samples for j in s["jobs"]
                    if "options" in j), None)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "samples": len(samples),
        "error_rate": failed / attempted,
        "metrics": report,
        "jobs": [dict(zip(COUNTS, oracle.counts.get(i, ())),
                      program=program_key(tool, p))
                 for i, p in enumerate(programs)],
        "config": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "scale": SCALE,
            "options": options,
            "pythonhashseed": job_env()["PYTHONHASHSEED"],
            "removed_env": sorted(k for k in os.environ
                                  if k.startswith("REPRO_")),
        },
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": r["value"], "unit": r["unit"]}
                    for name, r in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
