"""orbitlab benchmark: four seeded closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload exact-queries --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. One client runs each workload's operations back to back (a
closed loop), one process at a time, with BLAS and OpenMP pools pinned
to one thread. After one warm-up pass, passes repeat until the timed
ones hold ``--seconds`` of op time (at least three of them). Times are
normalised to the host's speed around each op (see `speed`). Every output is
checked by an oracle that does not use the library; an operation that
raises, exits nonzero or fails its oracle counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes run under `tracer.Tracer` and reports the
per-layer metrics, averaged per traced pass, plus the tracing overhead.
The last line of stdout is one JSON object; a readable report precedes
it, and ``perfbench/out/`` receives the full result (and, when traced,
the spans of one pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the first pass warms caches and the allocator; it is checked but not timed
WARMUP_PASSES = 1
MIN_PASSES = 3
SETUP_PROBES = 3
# stop adding passes past this point even if MIN_PASSES is not reached,
# so a run always ends inside its time limit
HARD_STOP_S = 120.0
# an untraced run measures --seconds of normalised time (see `speed`), but
# stops after this many times --seconds of wall time whatever it has measured
RAW_CAP = 3.0
WORKLOAD_NAMES = ("orbit-batch", "exact-queries", "mc-volume", "warped-grid")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import orbitlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "orbitlab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no orbitlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import orbitlab

    if Path(orbitlab.__file__).resolve().parent != (SRC / "orbitlab").resolve():
        raise SystemExit(f"run.py: imported orbitlab from {orbitlab.__file__}, not {SRC}")


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pools": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list:
    """(raw, normalised) seconds for fresh processes to import, build and
    generate, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, norm = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(norm)))
    return times


def run_pass(ops, tracer=None, numeric=False):
    """Run every op once, back to back. Returns (seconds, latencies, outputs,
    errors, refs). An untraced pass times the reference loop (see `speed`;
    ``numeric`` picks its kind) before the first op and after each one, so
    op i ran between ``refs[i]`` and ``refs[i + 1]``, and ``seconds`` is
    the ops' raw total. A traced
    pass times nothing else, so its ``seconds`` is the whole traced pass
    and ``refs`` is empty."""
    latencies, outputs, errors = [], [], []
    clock = time.perf_counter
    refs = [] if tracer is not None else [speed.reference_loop(numeric)]

    def call(op):
        return tracer.span("bench.op", op.run) if tracer is not None else op.run()

    def body():
        for op in ops:
            start = clock()
            try:
                out, err = call(op), None
            except (Exception, SystemExit) as e:  # a failed operation, not a failed run
                out, err = None, f"{type(e).__name__}: {e}"
            latencies.append(clock() - start)
            outputs.append(out)
            errors.append(err)
            if refs:
                refs.append(speed.reference_loop(numeric))

    start = clock()
    if tracer is not None:
        tracer.span("bench.pass", body)
        seconds = clock() - start
    else:
        body()
        seconds = sum(latencies)
    return seconds, latencies, outputs, errors, refs


def normalise(latencies, refs):
    """Normalised seconds of each op of an untraced pass (see `speed`)."""
    return [x * speed.factor(refs[i], refs[i + 1]) for i, x in enumerate(latencies)]


def check_pass(ops, outputs, errors, reference):
    """Oracle problems per failed op. ``reference`` maps op index to the repr
    of an output the oracle already accepted; a repeat must match it."""
    failures = []
    for i, (op, out, err) in enumerate(zip(ops, outputs, errors)):
        if err is not None:
            failures.append((op.label, [err]))
            continue
        if reference is not None and i in reference:
            if repr(out) != reference[i]:
                failures.append((op.label, ["output changed between passes"]))
            continue
        try:
            problems = op.check(out)
        except Exception as e:  # an output the oracle cannot read is wrong
            problems = [f"oracle could not read the output: {type(e).__name__}: {e}"]
        if problems:
            failures.append((op.label, problems))
        elif reference is not None:
            reference[i] = repr(out)
    return failures


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the maximum when fewer than 21 samples leave no such
    percentile above the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracer as tracing
    import workloads

    facts = machine_facts()
    setup_times = measure_setup(args.workload, args.seed)
    work = workloads.Workload(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    clock = time.perf_counter
    started = clock()
    reference = {} if work.repeated else None
    warmup, untraced, traced = [], [], []  # raw pass seconds
    untraced_norm = []  # normalised pass seconds
    latencies = []  # raw op seconds, one list per untraced pass
    brackets = []  # reference loop seconds, one list per untraced pass
    first_spans = None
    layer_totals = {}
    attempted = failed = 0
    failures = []
    emitted = []
    sigma_rel = gap = None
    index = 0
    while True:
        cycle_start = clock()
        ops = work.ops(index)
        use_trace = tracer is not None and index >= WARMUP_PASSES and index % 2 == 0
        if use_trace:
            tracer.install()
            try:
                seconds, lat, outs, errs, _ = run_pass(ops, tracer)
            finally:
                tracer.remove()
            spans = tracer.take()
            for k, v in tracing.layer_metrics(tracing.aggregate(spans)).items():
                layer_totals[k] = layer_totals.get(k, 0.0) + v
            if first_spans is None:
                first_spans = spans
            traced.append(seconds)
            emitted.append(sum(len(o.stdout) for o in outs if isinstance(o, workloads.CliOutput)))
        else:
            seconds, lat, outs, errs, refs = run_pass(ops, numeric=work.numeric)
            if index < WARMUP_PASSES:
                warmup.append(seconds)
            else:
                untraced.append(seconds)
                untraced_norm.append(sum(normalise(lat, refs)))
                latencies.append(lat)
                brackets.append(refs)
        bad = check_pass(ops, outs, errs, reference)
        attempted += len(ops)
        failed += len(bad)
        failures += bad[: max(0, 20 - len(failures))]
        if args.workload == "mc-volume":
            sigma_rel = max(filter(None, (sigma_rel, workloads.sigma_rel_max(outs))), default=None)
        if args.workload == "warped-grid":
            gap = max(filter(None, (gap, workloads.gap_max(outs))), default=None)
        del outs
        index += 1
        elapsed = clock() - started
        if tracer is None:
            # --seconds of normalised op time, so that a run holds about the
            # same number of operations however fast the host is meanwhile
            spent = sum(untraced_norm)
            done = len(untraced) >= MIN_PASSES and (
                spent + (untraced_norm[-1] if untraced_norm else 0.0) > args.seconds
                or elapsed > RAW_CAP * args.seconds)
        else:
            done = traced and untraced and elapsed + (clock() - cycle_start) > args.seconds
        if elapsed > HARD_STOP_S or done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = statistics.median(untraced_norm)
    normalised = [normalise(lat, refs) for lat, refs in zip(latencies, brackets)]
    if work.repeated:
        # one sample per job, its median over the timed passes, so the
        # sample count does not depend on how many passes fit the run
        pool = [statistics.median(col) for col in zip(*normalised)]
    else:
        pool = [x for norm in normalised for x in norm]
    tail_s, tail_pct = tail(pool)

    end_to_end = {
        "setup_s": statistics.median(norm for _, norm in setup_times),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": 1000.0 * statistics.median(pool),
        "query_tail_ms": 1000.0 * tail_s,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "clients": 1,
        "loop": "closed",
        "setup_samples_s": setup_times,
        "warmup_pass_s": warmup,
        "untraced_pass_s": untraced,
        "untraced_pass_normalised_s": untraced_norm,
        "reference_s": speed.REFERENCE_S,
        "traced_pass_s": traced,
        "latency_samples": len(pool),
        "tail_percentile": tail_pct,
        "fail_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "mc_sigma_rel_max": sigma_rel,
        "warped_gap_max": gap,
        "end_to_end": end_to_end,
    }

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        n = len(traced)
        per_layer = {k: v / n for k, v in layer_totals.items()}
        # a mean, like the per-layer values, so the layers' self times add up to it
        traced_wall = statistics.mean(traced)
        per_layer["cli.emit_bytes"] = statistics.mean(emitted)
        per_layer["trace.wall_s"] = traced_wall
        raw_wall = statistics.median(untraced)
        per_layer["trace.untraced_wall_s"] = raw_wall
        per_layer["trace.overhead_s"] = traced_wall - raw_wall
        per_layer["fail_rate"] = failed / attempted
        per_layer["mc_sigma_rel_max"] = sigma_rel or 0.0
        per_layer["warped_gap_max"] = gap or 0.0
        units = per_layer_units()
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
        report["per_layer"] = per_layer
        report["tracer_missing"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", first_spans)

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print_report(report, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_units():
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def print_report(report, metrics):
    m = report["machine"]
    print(f"machine: nproc={m['nproc']} usable={m['cpus_usable']} {m['machine']} "
          f"python {m['python']} numpy {m['numpy']} scipy {m['scipy']}, thread pools pinned to 1")
    print(f"workload {report['workload']} seed {report['seed']}: 1 closed-loop client, "
          f"{len(report['untraced_pass_s'])} untraced + {len(report['traced_pass_s'])} traced passes")
    e = report["end_to_end"]
    print(f"  setup_s       {e['setup_s']:.4f} s   (median of {len(report['setup_samples_s'])} fresh processes)")
    print(f"  wall_s        {e['wall_s']:.4f} s   (median of {len(report['untraced_pass_s'])} timed passes)")
    print(f"  peak_rss_mb   {e['peak_rss_mb']:.1f} MB")
    print(f"  fail_rate     {report['fail_rate']:.4f} ratio ({report['failed']} of {report['attempted']} operations)")
    print(f"  query_p50_ms  {e['query_p50_ms']:.3f} ms  (n={report['latency_samples']})")
    print(f"  query_tail_ms {e['query_tail_ms']:.3f} ms  (p{report['tail_percentile']:.1f} "
          f"of {report['latency_samples']} samples)")
    if report["mc_sigma_rel_max"] is not None:
        print(f"  mc_sigma_rel_max {report['mc_sigma_rel_max']:.5f} ratio")
    if report["warped_gap_max"] is not None:
        print(f"  warped_gap_max   {report['warped_gap_max']:.5f} ratio")
    for label, problems in report["failures"]:
        print(f"  FAILED {label}: {'; '.join(problems)[:300]}")
    if report["trace"]:
        layer = report["per_layer"]
        print(f"  traced wall {layer['trace.wall_s']:.4f} s, overhead {layer['trace.overhead_s']:+.4f} s")
        shares = {k: v for k, v in layer.items() if k.endswith(".layer_s") or k == "bench.harness_s"}
        print("  self time per layer: " + ", ".join(f"{k.split('.')[0]} {v:.3f}s" for k, v in shares.items()))


if __name__ == "__main__":
    sys.exit(main())
