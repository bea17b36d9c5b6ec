"""Benchmark of the gradedquiver engine: seeded workloads, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py                 # every workload, each in a fresh child
    python3 perfbench/run.py --workload arseq --seed 7 --seconds 30 --trace 0

Tasks run one at a time; each starts from a fresh algebra, as one CLI
invocation does.  `--trace 0` measures the end-to-end metrics for `--seconds`
seconds.  `--trace 1` runs a fixed number of tasks untraced twice, then the
same tasks with the per-layer tracer installed, and reports the per-layer
metrics and the tracing overhead; the spans go to `.perfbench_out/`.  Task and
set-up times are reported at a reference machine speed (see
REFERENCE_PROBE_S).  Every task output is checked by the workload's oracle.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_PERCENTILE = 90
SETUP_REPEATS = 9
# blocks in a traced run (6, 12 and 9 tasks a block)
TRACE_BLOCKS = {"pieces": 3, "resolve": 1, "arseq": 2}
UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
         "peak_rss_mib": "MiB", "setup_s": "s"}
CHILD_TIMEOUT_S = 170
# On a shared 2-core x86 VM the host's speed drifts by up to 1.3x either way
# over tens of seconds, far more than a run can average out: across ten runs
# the raw wall-clock figures spread up to 0.3 (quartile distance over median).
# A fixed pure-Python probe, timed before every task, drifts the same way, so
# each task's time is scaled by REFERENCE_PROBE_S over the local probe time;
# scaled, ten runs spread at most 0.08.  Times are therefore reported at a
# reference machine speed at which the probe takes 3 ms.
REFERENCE_PROBE_S = 0.003
PROBE_WINDOW = 5


def import_program():
    """A fresh import of the package under src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "gradedquiver", "__init__.py")):
        raise ImportError(f"no gradedquiver package under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "gradedquiver"]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("gradedquiver")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gradedquiver imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"gradedquiver.{name}")
                              for name in LAYERS + ("errors",)})


def probe():
    """Seconds taken by a fixed piece of interpreter work like the engine's:
    exact elimination on a small rational matrix, and dict traffic."""
    t0 = time.perf_counter()
    # diagonally dominant, so every pivot is nonzero
    m = [[Fraction(1, i + j + 2) + (4 if i == j else 0) for j in range(8)]
         for i in range(8)]
    for c in range(8):
        pivot = m[c][c]
        m[c] = [v / pivot for v in m[c]]
        for r in range(8):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts = {}
    for i in range(2000):
        counts[i % 61] = counts.get(i % 61, 0) + i
    return time.perf_counter() - t0


def at_reference_speed(seconds, probes):
    """Scale each time by the reference probe time over the median of the
    probes timed around it (a centred window of PROBE_WINDOW)."""
    half = PROBE_WINDOW // 2
    return [t * REFERENCE_PROBE_S / statistics.median(probes[max(0, k - half):k + half + 1])
            for k, t in enumerate(seconds)]


def setup(workload, seed):
    """Import, generate the seeded inputs, write and parse problem files."""
    make_pool, prepare, _run, _check = WORKLOADS[workload]
    gq = import_program()
    pool = make_pool(random.Random(seed))
    ctx = prepare(pool, os.path.join(OUT, workload), gq)
    return gq, pool, ctx


def run_tasks(workload, gq, pool, ctx, seconds=None, blocks=None, tracer=None):
    """Closed loop over the pool's blocks, cycling; stops after `seconds` or
    after `blocks` blocks.

    Returns the successful tasks as (block number, field, latency at the
    reference speed), the failures, the number of tasks attempted, and the
    median probe time.
    """
    _pool, _prepare, run, check = WORKLOADS[workload]
    done, failures, probes = [], [], []
    start = time.perf_counter()
    i = 0
    while (blocks is None or i < blocks) and not (
            seconds is not None and time.perf_counter() - start >= seconds):
        for task in pool[i % len(pool)]:
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            # every task starts from a collected heap, as a fresh CLI process does
            gc.collect()
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = run(task, ctx, gq)
                else:
                    out = tracer.run_task(len(done) + len(failures),
                                          lambda: run(task, ctx, gq))
                dt = time.perf_counter() - t0
                bad = check(task, out, ctx)
            except Exception as e:  # a task that raises is a failed task, not a crash
                bad = [f"raised {type(e).__name__}: {e}"]
            if bad:
                failures.append((i, task["label"], bad))
                probes.pop()
            else:
                done.append((i, task["field"], dt))
        i += 1
    scaled = at_reference_speed([dt for _b, _f, dt in done], probes)
    done = [(b, f, dt) for (b, f, _raw), dt in zip(done, scaled)]
    return done, failures, len(done) + len(failures), statistics.median(probes or [0.0])


def block_rate(done, pool):
    """Median over the complete blocks of tasks per second of task time.

    A block holds the input mix once (arseq: one eighth of its fixed corpus,
    which a run passes over more than twice), so the median drops the blocks
    that a busy machine slowed down without changing the mix measured.
    """
    by_block = {}
    for block, _field, dt in done:
        by_block.setdefault(block, []).append(dt)
    rates = [len(v) / sum(v) for b, v in by_block.items() if len(v) == len(pool[b % len(pool)])]
    if not rates:
        return len(done) / sum(dt for _b, _f, dt in done)
    return statistics.median(rates)


def tail(latencies, percentile=TAIL_PERCENTILE):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds):
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        probes.append(probe())
        t0 = time.perf_counter()
        gq, pool, ctx = setup(workload, seed)
        setups.append(time.perf_counter() - t0)
    setups = at_reference_speed(setups, probes)
    done, failures, attempted, probe_s = run_tasks(workload, gq, pool, ctx,
                                                   seconds=seconds)
    lat = [dt for _b, _f, dt in done]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not lat:
        return None, failures, attempted
    tail_s, beyond = tail(lat)
    metrics = {
        # time inside tasks only; the oracle checks between tasks are excluded
        "tasks_per_s": metric(block_rate(done, pool), UNITS["tasks_per_s"]),
        "task_p50_ms": metric(statistics.median(lat) * 1e3, UNITS["task_p50_ms"]),
        "task_tail_ms": metric(tail_s * 1e3, UNITS["task_tail_ms"]),
        "peak_rss_mib": metric(rss_mib, UNITS["peak_rss_mib"]),
        "setup_s": metric(statistics.median(setups), UNITS["setup_s"]),
    }
    time_by_field = {}
    for _b, field, dt in done:
        time_by_field[field] = time_by_field.get(field, 0.0) + dt
    split = "  ".join(f"{f} {t / sum(lat):.0%}" for f, t in sorted(time_by_field.items()))
    print(f"workload {workload}  seed {seed}  tasks {attempted}  "
          f"blocks {done[-1][0] + 1 if done else 0}  task time by field: {split}")
    print(f"  tail = p{TAIL_PERCENTILE} of {len(lat)} task latencies, "
          f"{beyond} samples beyond it")
    print(f"  times at the reference speed; this run's probe median {probe_s * 1e3:.3f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.1f} ms)")
    return metrics, failures, attempted


def measure_traced(workload, seed):
    gq, pool, ctx = setup(workload, seed)
    blocks = TRACE_BLOCKS[workload]
    # the first pass over fresh memory runs slower; compare two warm passes
    _, fail_warm, count, _ = run_tasks(workload, gq, pool, ctx, blocks=blocks)
    plain, fail_plain, _, _ = run_tasks(workload, gq, pool, ctx, blocks=blocks)
    tracer = Tracer()
    tracer.install({name: getattr(gq, name) for name in LAYERS})
    traced, failures, _, _ = run_tasks(workload, gq, pool, ctx, blocks=blocks,
                                       tracer=tracer)
    lat_plain = [dt for _b, _f, dt in plain]
    lat_traced = [dt for _b, _f, dt in traced]
    metrics = tracer.metrics()
    overhead = sum(lat_traced) / sum(lat_plain) if lat_plain and lat_traced else 0.0
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    tracer.dump(path, {"workload": workload, "seed": seed, "tasks": count,
                       "untraced_task_s": sum(lat_plain),
                       "traced_task_s": sum(lat_traced)})
    shares = tracer.layer_self_s()
    print(f"workload {workload}  seed {seed}  traced tasks {count}  task time at the "
          f"reference speed: untraced {sum(lat_plain):.3f} s, traced {sum(lat_traced):.3f} s, "
          f"overhead x{overhead:.2f}  spans -> {os.path.relpath(path, ROOT)}")
    print(f"self time by layer, wall clock (sum {sum(shares.values()):.3f} s of "
          f"{tracer.wall:.3f} s traced task time):")
    for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {s:9.3f} s  {s / tracer.wall:6.1%}")
    return metrics, fail_warm + fail_plain + failures, 3 * count


def run_one(args):
    try:
        if args.trace:
            metrics, failures, attempted = measure_traced(args.workload, args.seed)
        else:
            metrics, failures, attempted = measure(args.workload, args.seed, args.seconds)
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    for block, label, bad in failures[:10]:
        print(f"{label} task in block {block} failed: {'; '.join(bad)[:500]}",
              file=sys.stderr)
    if metrics is None:
        print("no task succeeded; nothing to report", file=sys.stderr)
        return 1
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_ratio':14s} {len(failures) / attempted:.6g} "
              f"({len(failures)} of {attempted} tasks)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh child process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
