"""zerosum benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload search-max --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one caller, one process at a time, no
threads.  Every repetition runs in a fresh interpreter (worker.py).

--trace 0 repeats the workload while the next repetition still fits in
--seconds (at least once), adds set-up-only repetitions until set-up was
measured at least three times, and reports the end-to-end metrics as
medians over repetitions.  The two times, norm_wall_s and setup_s, are
scaled by machine_scale() to a reference speed of the shared machine.

--trace 1 runs one untraced and one traced repetition, whatever
--seconds says, and reports the per-layer metrics of the traced one with
the tracing overhead (traced wall_s against untraced wall_s).  The full
trace goes to .perfbench_out/.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it ("meta ...") records git SHA, a digest of src/zerosum,
Python version, nproc, and the 1-minute load average at start and end.
Exit code 0 means a result was printed; without a result the exit code
is 1.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("search-max", "report-tables", "lemma-batch")
MIN_SETUP_SAMPLES = 3
# Every run has to end within 180 s; a repetition that runs longer fails the run.
RUN_LIMIT_S = 175.0


class BenchError(RuntimeError):
    pass


def units_of(kind):
    """Metric name -> unit, for kind "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spawn(args, started, *, setup_only=False, trace_out=None):
    """Run one repetition in a fresh interpreter and return its measurements."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--golden", args.golden]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    # Same hashing and no bytecode cache in every repetition: each one
    # compiles zerosum from source, whatever earlier runs left behind.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} repetition exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["duration_s"] = time.monotonic() - spawned_at
    return rep


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_latencies(reps):
    """Each op's latency as its fastest over repetitions (every repetition
    runs the same ops).  Contention on a shared machine only ever adds
    time, and it comes in bursts that slow runs of consecutive ops."""
    per_op = {}
    for r in reps:
        for op, seconds in r["latencies_s"].items():
            per_op.setdefault(op, []).append(seconds)
    return [min(v) for v in per_op.values()]


def timed_parts(rep):
    """Op id -> seconds of every timed op of a repetition."""
    parts = dict(rep["latencies_s"])
    parts.update((name, s) for name, s in rep["phases_s"].items() if s is not None)
    return parts


def median_wall(reps):
    """Wall time of a median repetition, put together part by part: every
    timed op at its median over the repetitions, plus the median of the
    untimed rest (process start, set-up, output checks).  The time spent in
    reference_kernel() probes is left out."""
    per_part = {}
    rest = []
    for r in reps:
        parts = timed_parts(r)
        rest.append(r["wall_s"] - sum(parts.values()) - sum(r["probes_s"]))
        for op, seconds in parts.items():
            per_part.setdefault(op, []).append(seconds)
    return statistics.median(rest) + sum(statistics.median(v) for v in per_part.values())


def machine_scale(reps):
    """REFERENCE_KERNEL_S over the median time of reference_kernel() in this
    run.  The shared machine's interpreter speed drifts by 20% and more
    within minutes, and the probes, taken between ops throughout the run,
    move with it; times multiplied by this scale move far less."""
    probes = [p for r in reps for p in r["probes_s"]]
    return worker.REFERENCE_KERNEL_S / statistics.median(probes)


def end_to_end(reps, setups):
    scale = machine_scale(reps)
    return {
        "norm_wall_s": median_wall(reps) * scale,
        "setup_s": statistics.median(setups) * scale,
        "nodes": statistics.median_low(r["nodes"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure(args):
    """Return (metric values, units, repetitions, extra facts) for one workload."""
    started = time.monotonic()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        plain = spawn(args, started)
        traced = spawn(args, started, trace_out=trace_out)
        values = dict(traced["layers"])
        values["trace.untraced_wall_s"] = plain["wall_s"]
        values["trace.traced_wall_s"] = traced["wall_s"]
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        extra = {"trace_file": str(trace_out.relative_to(ROOT))}
        return values, units_of("per_layer"), [plain, traced], extra

    reps = [spawn(args, started)]
    while time.monotonic() - started + max(r["duration_s"] for r in reps) <= args.seconds:
        reps.append(spawn(args, started))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(args, started, setup_only=True)["setup_s"])
    latencies = op_latencies(reps)
    probes = [p for r in reps for p in r["probes_s"]]
    extra = {
        "setup_samples": setups,
        # The end-to-end times before machine_scale() was applied.
        "unscaled": {"median_wall_s": median_wall(reps), "setup_s": statistics.median(setups),
                     "probe_median_s": statistics.median(probes), "probes": len(probes)},
        # Recorded, not end-to-end metrics: search-max has 5 ops and
        # report-tables 13, too few for a steady percentile, and the short
        # lemma-batch stream is too exposed to bursts of contention.
        "ops": {"count": len(latencies), "ops_per_s": len(latencies) / sum(latencies),
                "p50_us": percentile(latencies, 0.50) * 1e6,
                "p99_us": percentile(latencies, 0.99) * 1e6},
    }
    return end_to_end(reps, setups), units_of("end_to_end"), reps, extra


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zerosum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args):
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "src_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0],
    }
    values, units, reps, extra = measure(args)
    meta["loadavg_1m_end"] = os.getloadavg()[0]
    meta["repetitions"] = len(reps)
    meta.update(extra)
    with open(args.golden, encoding="utf-8") as fh:
        golden_nodes = json.load(fh)[args.workload][args.size]["nodes"]
    meta["nodes_match_golden"] = all(r["nodes"] == golden_nodes for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    result = {
        "correct": not any(r["failed"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "failures": failures,
                   "repetitions": reps}, fh, indent=1)
    return meta, result, failures


def show(workload, meta, result, failures):
    for message in failures:
        print(f"FAILED {workload} {message}", file=sys.stderr)
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed, "
          f"{meta['repetitions']} repetitions")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6f} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: a few-second run of the same code paths, for selftest.py")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args(argv)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            args.workload = workload
            meta, result, failures = run_workload(args)
            show(workload, meta, result, failures)
            results[workload] = (meta, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        meta, final = results[workloads[0]]
    else:
        meta = {w: m for w, (m, _) in results.items()}
        final = {
            "correct": all(r["correct"] for _, r in results.values()),
            "attempted": sum(r["attempted"] for _, r in results.values()),
            "failed": sum(r["failed"] for _, r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, (_, r) in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
