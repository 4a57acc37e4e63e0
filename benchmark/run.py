"""End-to-end benchmark of the ``ile`` command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives ``ile.cli.main(argv)`` in-process as a closed
loop, one op at a time, on input files generated from the seed (see
``workloads.py``).  The op pool runs in whole passes, in the same order
every pass; passes repeat while the run would end less than half a pass
past S seconds, and at least one always runs.

``--trace 0`` reports the end-to-end metrics (setup_s, ops_per_s,
op_p50_ms, op_p90_ms, fail_frac, peak_rss_mb).  ops_per_s is ops attempted
over the time spent in them.

Times are CPU time of the benchmark's process at reference host speed.  The
host is shared: in busy spells its virtual CPUs are descheduled for up to
half of the time (steal time), and their speed while they run moves by tens
of percent over seconds to minutes.  The ops are single-threaded and
in-process (BLAS threads 1) and do no waiting, so their CPU time is the
latency they would have on a host of their own; steal time is not counted
in it.  For the speed, a calibration kernel of the benchmark's own runs
after every op, outside its latency, and each op's CPU time is divided by
the host speed factor while it ran: the median CPU time of the kernel
samples within a second of it over the kernel's time on the reference host.
Each set-up sample is divided by the factor of the 20 samples taken right
after it (``calibrate.py``).  The times as measured, wall-clock ones
included, and the factors are printed on standard error and written to
``.bench_work/<run>/timings.json``.

``--trace 1`` spends half the budget untraced and half with every public
function of the package wrapped (``tracing.py``), and reports the per-layer
metrics (CPU times scaled by the traced half's factor) and the tracing
overhead (traced over untraced CPU time in ops per pass, each at reference
speed).

Every op's output is checked after the timed phase (``checks.py``); a
nonzero exit, an exception escaping ``main`` (a MemoryError under the
address-space limit included), output that is not strict JSON or has an
incomplete CSV row, and output that fails its checks all count as failed
ops.  ``correct`` is false when some op returned well-formed output that
disagrees with the references, or output that differs between passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failures are listed
by kind on standard error and in ``.bench_work/<run>/failures.json``; a
traced run also writes its spans to ``.bench_work/<run>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Same as workloads.WORKLOADS; that module imports numpy, which must not be
# loaded before set-up is timed.
WORKLOADS = ("leakage-mix", "line-state", "planner", "referee")

# Well below the memory of a 7 GiB machine; the oversized Gram requests of
# the present multimode code (19 GiB at 4 ions x 2 cycles, 147 GiB at 5 x 1)
# then fail at once as a MemoryError instead of exhausting memory.
ADDRESS_SPACE_LIMIT = 2 << 30
# Three set-ups per run keep the run short enough for ten runs per workload
# and set and still give setup_s a median.
SETUP_SAMPLES = 3
SETUP_CALIBRATION_SAMPLES = 20
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup_samples(harness, workload: str, workdir: Path) -> tuple:
    """Set-up times of this process and of SETUP_SAMPLES - 1 fresh ones,
    and the host speed factor measured right after each."""
    samples = [harness.set_up(harness.warmup_argvs(workload, workdir))]
    import calibrate

    cal = calibrate.Calibrator()
    factors = []
    for k in range(SETUP_SAMPLES):
        if k:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "harness.py"), workload, str(workdir)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(done.stdout.strip().splitlines()[-1]))
        cal.samples.clear()
        cal.times.clear()
        for _ in range(SETUP_CALIBRATION_SAMPLES):
            cal.sample()
        factors.append(cal.factor())
    return samples, factors


def _timed_passes(harness, ops, seed: int, budget: float, tracer=None) -> dict:
    """Run whole passes over ``ops`` for about ``budget`` seconds.

    Another pass starts while the run would end less than half a pass past
    the budget; at least one always runs.  A calibration sample follows
    every op, outside its latency.  Outputs are kept from the first pass; a
    later attempt keeps its output only when it differs from the first.

    numpy's global random state is set from the seed and the op's index
    before every op: scipy's randomized norm estimate inside
    ``expm_multiply`` draws from it, and with it set an op does the same
    work on every attempt and in every run of the seed.
    """
    import numpy as np

    import calibrate

    cal = calibrate.Calibrator()
    first = [None] * len(ops)
    attempts = []  # (op index, latency s, code, stdout or None, stderr)
    midpoints = []
    walls = []
    pass_walls = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(pass_walls) * len(ops) + i
            np.random.seed([seed & 0xFFFFFFFF, i])
            t0, cpu = time.perf_counter(), time.process_time()
            code, out, err = harness.run_op(op.argv)
            latency = time.process_time() - cpu
            wall = time.perf_counter() - t0
            midpoints.append(t0 + wall / 2)
            walls.append(wall)
            cal.sample()
            if not pass_walls:
                first[i] = out
            elif out == first[i]:
                out = None
            attempts.append((i, latency, code, out, err))
        now = time.perf_counter()
        pass_walls.append(now - pass_start)
        if now - start + pass_walls[-1] / 2 > budget:
            break
    return {"passes": len(pass_walls),
            "pass_walls": pass_walls, "attempts": attempts, "first": first,
            "speed": cal.factor(), "factors": cal.local_factors(midpoints),
            "timings": {"op_latency_s": [a[1] for a in attempts], "op_wall_s": walls,
                        "op_midpoint_s": midpoints,
                        "calibration_s": cal.samples, "calibration_midpoint_s": cal.times}}


def _scaled(run: dict) -> list:
    """Op latencies of a phase at reference speed, in seconds."""
    return [a[1] / f for a, f in zip(run["attempts"], run["factors"])]


def _time_metrics(latencies: list, setup: list) -> dict:
    out = {"setup_s": statistics.median(setup)} if setup else {}
    out.update({
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    })
    return out


def _classify(checks, ops, run: dict) -> list:
    """(reason, detail) per failed attempt, None for a good one."""
    verdicts = {}
    out = []
    for i, _, code, text, err in run["attempts"]:
        lines = err.strip().splitlines()
        if isinstance(code, str):
            out.append(("exception", lines[-1] if lines else code))
            continue
        if code != 0:
            out.append((f"exit {code}", lines[-1] if lines else ""))
            continue
        if text is not None and text != run["first"][i]:
            out.append(("check", "output differs from the first pass"))
            continue
        if i not in verdicts:
            verdicts[i] = checks.check_output(ops[i].kind, run["first"][i], ops[i].ctx)
        out.append(verdicts[i])
    return out


def _report_failures(ops, runs: list, verdicts: list, path: Path) -> None:
    records = {}
    for run, run_verdicts in zip(runs, verdicts):
        for (i, *_), verdict in zip(run["attempts"], run_verdicts):
            if verdict is not None:
                key = (i, verdict[0])
                rec = records.setdefault(key, {"op": i, "argv": ops[i].argv, "reason": verdict[0],
                                               "detail": verdict[1][:300], "attempts": 0})
                rec["attempts"] += 1
    path.write_text(json.dumps(list(records.values()), indent=1))
    by_reason = Counter()
    for rec in records.values():
        by_reason[f"{ops[rec['op']].kind}: {rec['reason']}"] += rec["attempts"]
    for key, count in sorted(by_reason.items()):
        print(f"failed attempts  {key}  {count}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ile" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ile'}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    import harness

    phase_start = time.perf_counter()
    setup, setup_factors = _setup_samples(harness, args.workload, workdir)
    phase_ends = {"set-up": time.perf_counter()}

    import checks
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, workdir)
    phase_ends["inputs"] = time.perf_counter()

    if args.trace:
        base = _timed_passes(harness, ops, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _timed_passes(harness, ops, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.jsonl")
        runs = [base, traced]
    else:
        runs = [_timed_passes(harness, ops, args.seed, args.seconds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    phase_ends["timed ops"] = time.perf_counter()
    (workdir / "timings.json").write_text(json.dumps([run["timings"] for run in runs]))
    verdicts = [_classify(checks, ops, run) for run in runs]
    _report_failures(ops, runs, verdicts, workdir / "failures.json")
    flat = [v for run_verdicts in verdicts for v in run_verdicts]
    attempted = len(flat)
    failed = sum(v is not None for v in flat)
    correct = all(v is None or v[0] != "check" for v in flat)
    phase_ends["checks"] = time.perf_counter()
    walls = []
    for phase, end in phase_ends.items():
        walls.append(f"{phase} {end - phase_start:.1f} s")
        phase_start = end
    print(f"{args.workload}: wall clock by phase: {', '.join(walls)}", file=sys.stderr)

    if args.trace:
        output_bytes = sum(len(out) for out in traced["first"])
        overhead = ((sum(_scaled(traced)) / traced["passes"])
                    / (sum(_scaled(base)) / base["passes"]))
        metrics = tracer.layer_metrics(traced["passes"], output_bytes, overhead)
        for m in metrics.values():
            if m["unit"] in ("ms", "us"):
                m["value"] /= traced["speed"]
        print(f"{args.workload}: host speed factors {base['speed']:.4f} untraced, "
              f"{traced['speed']:.4f} traced", file=sys.stderr)
    else:
        run = runs[0]
        raw = _time_metrics([a[1] for a in run["attempts"]], setup)
        values = _time_metrics(_scaled(run), [t / f for t, f in zip(setup, setup_factors)])
        values["fail_frac"] = failed / attempted
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        walls = ", ".join(f"{w:.2f}" for w in run["pass_walls"])
        print(f"{args.workload}: {attempted} ops in {run['passes']} pass(es) of {len(ops)}, "
              f"pass walls {walls} s, host speed factor {run['speed']:.4f} "
              f"({min(run['factors']):.4f}-{max(run['factors']):.4f})", file=sys.stderr)
        wall = _time_metrics(run["timings"]["op_wall_s"], [])
        for name, v in raw.items():
            print(f"{name + ' (CPU time as measured)':45s} {v:.6g} {END_TO_END_UNITS[name]}",
                  file=sys.stderr)
            if name in wall:
                print(f"{name + ' (wall clock)':45s} {wall[name]:.6g} {END_TO_END_UNITS[name]}",
                      file=sys.stderr)

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
