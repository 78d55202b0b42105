#!/usr/bin/env python3
"""LRC benchmark driver.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the one-run worker (perfbench/lrcbench.ml) with dune, then runs the
workload in fresh worker processes, one simulated run per process.  A run
covers a batch of BATCH inputs derived from the seed once, then keeps
cycling through them until S seconds have gone by.

Host times are calibrated: a fixed calibration kernel (lrcbench.exe
--calibrate) is timed in fresh processes just before and just after each
sample, and the sample's host seconds are scaled by CALIB_REF_S over the
two kernels' time, so a machine that other tenants slow down for minutes
does not read as a slower program.

With --trace 0 every untraced sample feeds the end-to-end metrics.  With
--trace 1 each input also gets a traced sample (Obs trace and host profiler
on), which gives the per-layer metrics; the benchmark's own spans go to
.perfbench-out/spans-<workload>-seed<N>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "_build", "default", "perfbench", "lrcbench.exe")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Inputs per run: --seed N runs input seeds N*BATCH .. N*BATCH+BATCH-1, so
# the simulated metrics are means over BATCH inputs.
BATCH = 32
# Stop starting new samples once this much time has gone, so a run always
# ends well inside its 180 s limit.
HARD_STOP_S = 120.0
# CPU seconds of the two calibration kernels around a sample on an
# unloaded 2-vCPU x86-64 VM (Intel Xeon); calibrated host times read as
# seconds on that machine.
CALIB_REF_S = 0.15
SAMPLE_TIMEOUT_S = 60.0

# Informational only, never gated: the paper's 4-node times.
PAPER = {
    "qsort-bulk": ("Table 2 hybrid-1 @4", 11.8),
    "water-locks": ("Table 3 lock @4", 17.3),
    "grid-32": None,
}

END_TO_END = [
    ("virtual_s", "sim_s"),
    ("messages", "count"),
    ("wire_bytes", "B"),
    ("host_s", "s"),
    ("alloc_mwords", "Mwords"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
]

# Per-layer metrics read from the simulation: (name, unit).  Deterministic
# for a given input; a run reports the mean over its batch.
VIRTUAL_LAYER = [
    ("sim.events", "count"),
    ("net.frames", "count"),
    ("net.wire_busy_s", "sim_s"),
    ("net.utilization", "ratio"),
    ("net.queue_delay_p50_s", "sim_s"),
    ("net.queue_delay_tail_s", "sim_s"),
    ("net.queue_delay_samples", "count"),
    ("net.acks", "count"),
    ("net.acks_coalesced", "count"),
    ("net.retransmit_bytes", "B"),
    ("net.rto_timeouts", "count"),
    ("net.delivered_ratio", "ratio"),
    ("vm.read_faults", "count"),
    ("vm.write_faults", "count"),
    ("vm.twins", "count"),
    ("vm.diffs_created", "count"),
    ("vm.diff_bytes", "B"),
    ("dsm.diff_requests", "count"),
    ("dsm.page_fetches", "count"),
    ("dsm.diffs_applied", "count"),
    ("dsm.diff_bytes_fetched", "B"),
    ("dsm.diff_cache_hit_ratio", "ratio"),
    ("dsm.metadata_pressure_max", "B"),
    ("dsm.vc_bytes", "B"),
    ("dsm.write_notice_bytes", "B"),
    ("dsm.diff_payload_bytes", "B"),
    ("carlos.msgs.release", "count"),
    ("carlos.msgs.release_nt", "count"),
    ("carlos.msgs.request", "count"),
    ("carlos.msgs.none", "count"),
    ("carlos.msgs.forwarded", "count"),
    ("carlos.lock_wait_p50_s", "sim_s"),
    ("carlos.lock_wait_tail_s", "sim_s"),
    ("carlos.lock_wait_samples", "count"),
    ("carlos.barrier_skew_p50_s", "sim_s"),
    ("carlos.barrier_skew_tail_s", "sim_s"),
    ("carlos.barrier_skew_samples", "count"),
    ("carlos.wq_wait_p50_s", "sim_s"),
    ("carlos.wq_wait_tail_s", "sim_s"),
    ("carlos.wq_wait_samples", "count"),
    ("carlos.user_s", "sim_s"),
    ("carlos.unix_s", "sim_s"),
    ("carlos.carlos_s", "sim_s"),
    ("carlos.idle_s", "sim_s"),
    ("carlos.gc_runs", "count"),
]

# Host-profiler seconds from the traced samples (calibrated median).
PROFILE_LAYER = [
    ("sim.event_s", "s"),
    ("sim.heap_s", "s"),
    ("sim.fiber_resume_s", "s"),
    ("vm.fault_s", "s"),
]

# Allocation split from the untraced samples (mean over the batch).
HEAP_LAYER = [
    ("heap.promoted_mwords", "Mwords"),
    ("heap.major_mwords", "Mwords"),
]

# The benchmark's own spans in the traced samples (median wall time).
SPANS = ["process", "setup", "run", "check", "readout"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker from source; exit 1 if that is impossible."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/lrcbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: cannot build the worker: {e}")
        sys.exit(1)
    if proc.returncode != 0 or not os.path.exists(WORKER):
        log("perfbench: building the worker failed")
        sys.exit(1)


def run_worker(args):
    """Run the worker with [args]; returns the last line of its stdout."""
    proc = subprocess.run([WORKER] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ValueError(f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return lines[-1]


def run_sample(workload, input_seed, traced):
    """One simulated run in a fresh worker process, with the calibration
    kernel timed in fresh processes just before and just after it."""
    args = ["--workload", workload, "--seed", str(input_seed)]
    if traced:
        args.append("--traced")
    try:
        calib_s = float(run_worker(["--calibrate"]))
        t0 = time.time()
        result = json.loads(run_worker(args))
        t1 = time.time()
        calib_s += float(run_worker(["--calibrate"]))
        result["host"]["calib_s"] = calib_s
    except (subprocess.TimeoutExpired, ValueError) as e:
        t0 = t1 = time.time()
        result = {"ok": False, "failures": [f"worker failed: {e}"],
                  "virtual": {}, "host": {}, "spans": []}
    result.update(input_seed=input_seed, traced=traced, t0=t0, t1=t1)
    return result


def run_samples(workload, inputs, seconds, with_traced):
    """Run every input once, then keep cycling through the inputs until
    [seconds] have gone by."""
    samples = []
    start = time.time()
    done = 0
    while True:
        input_seed = inputs[done % len(inputs)]
        samples.append(run_sample(workload, input_seed, False))
        if with_traced:
            samples.append(run_sample(workload, input_seed, True))
        done += 1
        elapsed = time.time() - start
        if (done >= len(inputs) and elapsed >= seconds) or elapsed > HARD_STOP_S:
            return samples, elapsed


def check(samples):
    """Mark every sample that failed a check or disagrees with the first
    good sample of the same input.  Returns the failure messages and, per
    input, that first good sample's simulation readout."""
    failures = []
    reference = {}
    alloc = {}
    for s in samples:
        if s["ok"]:
            ref = reference.setdefault(s["input_seed"], s["virtual"])
            if s["virtual"] != ref:
                s["ok"] = False
                s["failures"] = ["simulation readout differs from an "
                                 "earlier run of the same input"]
            elif not s["traced"]:
                key = (s["host"]["alloc_mwords"], s["host"]["peak_heap_mb"])
                if alloc.setdefault(s["input_seed"], key) != key:
                    log(f"perfbench: warning: input {s['input_seed']} "
                        f"allocated {key}, earlier {alloc[s['input_seed']]}")
        if not s["ok"]:
            kind = "traced" if s["traced"] else "untraced"
            failures.extend(f"input {s['input_seed']} ({kind}): {f}"
                            for f in s["failures"])
    return failures, reference


def mean(values):
    return statistics.fmean(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values or [0.0]) * 3
    return statistics.quantiles(values, n=4)


def calibrated(sample, name):
    """A host time of [sample] in seconds of the reference machine."""
    return sample["host"][name] * CALIB_REF_S / sample["host"]["calib_s"]


def first_per_input(samples):
    seen = {}
    for s in samples:
        seen.setdefault(s["input_seed"], s)
    return list(seen.values())


def aggregate(samples, reference, trace):
    good = [s for s in samples if s["ok"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    per_input = first_per_input(plain)
    refs = list(reference.values())

    def vmean(name):
        return mean([r[name] for r in refs])

    host_s = median([calibrated(s, "host_s") for s in plain])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if not trace:
        for name in ("virtual_s", "messages", "wire_bytes"):
            put(name, vmean(name), dict(END_TO_END)[name])
        put("host_s", host_s, "s")
        put("alloc_mwords", mean([s["host"]["alloc_mwords"] for s in per_input]),
            "Mwords")
        put("peak_heap_mb", mean([s["host"]["peak_heap_mb"] for s in per_input]),
            "MB")
        put("setup_s", median([calibrated(s, "setup_s") for s in plain]), "s")
        put("ok_share", len(good) / len(samples), "ratio")
        return metrics

    put("sim.events_per_host_s",
        mean([r["sim.events"] for r in refs]) / host_s, "1/s")
    for name, unit in VIRTUAL_LAYER:
        put(name, vmean(name), unit)
    for name, unit in PROFILE_LAYER:
        put(name, median([calibrated(s, name) for s in traced]), unit)
    for name, unit in HEAP_LAYER:
        put(name, mean([s["host"][name] for s in per_input]), unit)
    traced_host = median([calibrated(s, "host_s") for s in traced])
    put("bench.tracing_overhead", traced_host / host_s, "ratio")
    put("bench.host_s_q3",
        quartiles([calibrated(s, "host_s") for s in plain])[2], "s")
    put("bench.host_s_raw", median([s["host"]["host_s"] for s in plain]), "s")
    put("bench.calib_s", median([s["host"]["calib_s"] for s in plain]), "s")
    put("bench.host_samples", len(plain), "count")
    for name in SPANS:
        put(f"bench.{name}_span_s",
            median([span_seconds(s, name) for s in traced]), "s")
    return metrics


def span_seconds(sample, name):
    if name == "process":
        return sample["t1"] - sample["t0"]
    return sum(sp["t1"] - sp["t0"] for sp in sample["spans"]
               if sp["name"] == name)


def write_spans(samples, path):
    """Chrome trace JSON: one track per sample, its process span on top of
    the worker's spans."""
    origin = min(s["t0"] for s in samples)
    events = []
    for tid, s in enumerate(samples):
        spans = [{"name": "process", "id": 0, "parent": -1,
                  "t0": s["t0"], "t1": s["t1"]}] + s["spans"]
        for sp in spans:
            events.append({
                "name": sp["name"], "ph": "X", "pid": 0, "tid": tid,
                "ts": round((sp["t0"] - origin) * 1e6, 3),
                "dur": round((sp["t1"] - sp["t0"]) * 1e6, 3),
                "args": {"id": sp["id"], "parent": sp["parent"],
                         "input_seed": s["input_seed"],
                         "traced": s["traced"]},
            })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PAPER))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    inputs = [args.seed * BATCH + i for i in range(BATCH)]
    samples, elapsed = run_samples(args.workload, inputs, args.seconds,
                                   args.trace == 1)
    failures, reference = check(samples)
    if not reference:
        log("perfbench: every sample failed:\n  " + "\n  ".join(failures[:10]))
        sys.exit(1)
    metrics = aggregate(samples, reference, args.trace == 1)
    failed = sum(1 for s in samples if not s["ok"])

    print(f"perfbench: workload {args.workload}, seed {args.seed}, input "
          f"seeds {inputs[0]}..{inputs[-1]}, {len(samples)} samples in "
          f"{elapsed:.1f} s, trace {args.trace}")
    for f in failures:
        print(f"  FAILED {f}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:>16.6g} {m['unit']}")
    plain = [s for s in samples if s["ok"] and not s["traced"]]
    for label, values in (
            ("host_s (calibrated)", [calibrated(s, "host_s") for s in plain]),
            ("host_s (raw)", [s["host"]["host_s"] for s in plain]),
            ("calib_s", [s["host"]["calib_s"] for s in plain])):
        q1, q2, q3 = quartiles(values)
        print(f"  {label} quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
              f"{len(values)} untraced samples")
    virtual_s = mean([r["virtual_s"] for r in reference.values()])
    paper = PAPER[args.workload]
    if paper:
        label, seconds = paper
        print(f"  accuracy (informational, never gated): virtual_s "
              f"{virtual_s:.2f} s vs paper {label} = {seconds} s, ratio "
              f"{virtual_s / seconds:.2f}")
    else:
        print(f"  accuracy: {args.workload} has no paper reference")
    if args.trace == 1:
        path = os.path.join(OUT_DIR,
                            f"spans-{args.workload}-seed{args.seed}.json")
        write_spans(samples, path)
        print(f"  spans: {os.path.relpath(path, ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
