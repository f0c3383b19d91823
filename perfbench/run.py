#!/usr/bin/env python3
"""VFPS-SM benchmark: end-to-end participant selection on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fagin-ckks --seed 1 --seconds 15 --trace 0

The first run builds perfbench/vfps_bench (Release) into .bench_build. Each
workload is one selection job at a time (closed loop, one client). The seed
generates the workload's input instances (datasets, partitions, query
samples); every instance is checked against an exact plaintext reference selection
(VFPS-SM-BASE, plain backend, unsharded, same seed; survivors only under
churn).

--trace 0: repeats rounds of untraced jobs, one per instance and each in a
  fresh process, for --seconds, and prints the end-to-end metrics. A timing
  is the median over rounds of the round's mean over its instances (a round
  is the workload's whole input set, so its mean spans several seconds of
  host noise); a count must repeat exactly across an instance's jobs and is
  averaged over the instances.
--trace 1: one per-layer pass on the first instance (vfps_bench layers),
  whose untraced/traced Select pairs take half of --seconds, and prints the
  per-layer metrics.

The workloads themselves (dataset, method, backend, |Q|, shards, threads,
faults) are defined in vfps_bench.cc; this script passes a workload's name and
an instance's seed. Metric names and units come from BENCHMARK.json. The last
stdout line is {"correct", "attempted", "failed", "metrics"}. A run with a
failed selection still prints it (correct false, metrics empty if an instance
never succeeded) and exits 1; build or reference failures exit 1 without a
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vfps_bench")

# Input instances a run generates per workload. The exact counts vary
# between instances (Fagin's candidate set by about 7%, more under churn,
# where it depends on which features the departing participant held; Bank's
# 100-row test split makes accuracy coarse), so a run averages several.
INSTANCES = {
    "fagin-ckks": 8,
    "fagin-plain-sharded": 8,
    "churn-repair-ckks": 12,
    "base-grouped-ckks": 48,
}
MIN_ROUNDS = 2
SEED_STRIDE = 1_000_003
PROCESS_TIMEOUT_S = 60

# Job outputs that are functions of the seed alone and must repeat exactly.
DETERMINISTIC = ["selected", "quarantined", "selection_sim_s",
                 "enc_values_per_query", "wire_bytes", "encrypt_ct",
                 "test_accuracy"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    """Configures (once) and builds vfps_bench; build output goes to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vfps_bench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def call(mode, flags):
    """Runs one vfps_bench process to completion; returns its JSON object."""
    try:
        proc = subprocess.run([BINARY, mode] + flags, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{mode} timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"ok": False, "error": f"{mode} exited {proc.returncode}"}
    if proc.returncode != 0 or not out.get("ok"):
        out["ok"] = False
        log(f"perfbench: {mode} failed: {out.get('error')} {proc.stderr.strip()}")
    return out


def instance_flags(workload, i, seed):
    return [f"--workload={workload}", f"--seed={seed + i * SEED_STRIDE}"]


def reference(workload, i, seed):
    """The instance's exact plaintext selection; under churn, a clean run with
    the departing participants quarantined up front."""
    out = call("reference", instance_flags(workload, i, seed))
    if not out["ok"]:
        fail(f"reference selection failed for instance {i}")
    return out


def matches(out, ref):
    return (out["ok"] and out["selected"] == ref["selected"]
            and out["quarantined"] == ref["quarantined"])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(correct, attempted, failed, values, notes, units):
    """Prints the metrics and the result line; exits 1 unless correct."""
    if values is not None and set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} do not match "
             "BENCHMARK.json")
    metrics = {}
    for name, unit in (units.items() if values is not None else ()):
        print(f"{name:28s} {values[name]:>16.6g} {unit:8s} {notes.get(name, '')}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if not correct:
        sys.exit(1)


def run_end_to_end(workload, seed, seconds):
    refs = [reference(workload, i, seed) for i in range(INSTANCES[workload])]
    jobs = [[] for _ in refs]
    rounds = []  # per round, the successful jobs' outputs
    attempted = failed = 0
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append([])
        for i in range(len(refs)):
            attempted += 1
            out = call("job", instance_flags(workload, i, seed))
            if not matches(out, refs[i]):
                failed += 1
                continue
            if jobs[i] and any(out[k] != jobs[i][0][k] for k in DETERMINISTIC):
                log(f"perfbench: instance {i} outputs did not repeat exactly")
                failed += 1
                continue
            jobs[i].append(out)
            rounds[-1].append(out)
        now = time.monotonic()
        if (len(rounds) >= MIN_ROUNDS
                and now - start + (now - round_start) > seconds):
            break
    if any(not j for j in jobs):
        log("perfbench: an instance has no successful job")
        return False, attempted, failed, None, {}

    def timing(key, scale=1.0):
        return statistics.median(statistics.fmean(o[key] for o in r) * scale
                                 for r in rounds if r)

    def count(key, scale=1.0):
        return statistics.fmean(j[0][key] * scale for j in jobs)

    values = {
        "setup_s": timing("setup_s"),
        "selection_s": timing("selection_s"),
        "run_s": timing("run_s"),
        "peak_rss_mb": timing("peak_rss_kb", 1 / 1024),
        "selection_sim_s": count("selection_sim_s"),
        "enc_values_per_query": count("enc_values_per_query"),
        "wire_mb": count("wire_bytes", 1e-6),
        "test_accuracy": count("test_accuracy"),
    }
    samples = sum(len(j) for j in jobs)
    notes = {k: f"median of {len(rounds)} rounds, {samples} jobs"
             for k in ("setup_s", "selection_s", "run_s", "peak_rss_mb")}
    notes.update({k: "exact per instance, mean of instances"
                  for k in ("selection_sim_s", "enc_values_per_query",
                            "wire_mb", "test_accuracy")})
    return failed == 0, attempted, failed, values, notes


def run_layers(workload, seed, seconds):
    ref = reference(workload, 0, seed)
    out = call("layers", instance_flags(workload, 0, seed) + [
        f"--pair-seconds={seconds / 2}",
        f"--trace-out={os.path.join(BUILD, workload + '.trace.json')}"])
    if not out["ok"]:
        fail("layers pass failed")
    attempted = int(out["attempted"])
    failed = int(out["failed"]) + (0 if matches(out, ref) else 1)
    m = out["metrics"]
    print("model vs measured (one Select): category, sim_s, attributed wall s")
    for cat in ("encrypt", "decrypt", "he_eval", "network", "compute"):
        print(f"  {cat:10s} {m['sim.' + cat + '_s']:>12.6g} "
              f"{m['wall.' + cat + '_s']:>12.6g}")
    for title, table in (("share of oracle CPU time, from replays",
                          out["shares"]),
                         ("share of knn.query time, from the program's trace",
                          out["trace_shares"])):
        print(title + ": " + "  ".join(f"{k}={v:.3f}" for k, v in table.items()))
    return failed == 0, attempted, failed, m, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    units = declared("per_layer" if args.trace else "end_to_end")
    build()
    if args.trace:
        result = run_layers(args.workload, args.seed, args.seconds)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    report(*result, units)


if __name__ == "__main__":
    main()
