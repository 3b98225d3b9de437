#!/usr/bin/env python3
"""SpaceJMP benchmark: host speed and simulated output of four workloads.

Run from the repository root:

    python3 sjbench/run.py --workload cluster --seed 1 --seconds 15 --trace 0

Builds sjbench/sjbench.exe from the repository's sources with dune, then
starts the worker again and again, one fresh single-domain process at a
time, until --seconds of wall time have passed (at least MIN_PROCS
times). Each worker sets the workload up several times, runs it once and
reports. Host times are medians over the workers; simulated numbers must
repeat exactly across workers. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced workers. --trace 1
alternates untraced and traced workers and reports the per-layer metrics;
the last traced worker's spans are kept in sjbench/_out/.

Host times are scaled to a reference host speed. A fixed probe kernel
runs in its own process before the first worker and after every worker;
a worker's host times are multiplied by PROBE_REFERENCE_S / (the mean of
the probe times on either side of it), so minutes-long slowdowns from
other tenants of the host cancel out. The raw wall times stay in the
worker reports under sjbench/_out/.

A worker's operations count as failed when it crashes, when any output
check fails, when its simulated fingerprint differs from another
worker's, or, at DEFAULT_SEED, from the one stored in fingerprints.json.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./sjbench/sjbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "sjbench", "sjbench.exe")
OUT = os.path.join(HERE, "_out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ["cluster", "switch_storm", "fork_serve", "gups"]
DEFAULT_SEED = 1  # the stored fingerprints are taken at this seed
MIN_PROCS = 3
# The probe kernel's time on the quiet host (2-core KVM guest on a Xeon
# at 2.1 GHz): host times are reported in seconds at that speed.
PROBE_REFERENCE_S = 0.070
WORKER_TIMEOUT_S = 120

# (name, unit) in the order printed.
END_TO_END = [
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_mean_latency_cycles", "cycles"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
]

# Mean self time per span, from the traced workers: metric -> span name.
SPAN_TIMES = {
    "core.vas_switch_ns": "core.vas_switch",
    "core.switch_home_ns": "core.switch_home",
    "core.proc_fork_ns": "core.proc_fork",
    "core.vas_attach_ns": "core.vas_attach",
    "core.vas_fork_ns": "core.vas_fork",
    "core.snapshot_teardown_ns": "core.snapshot_teardown",
    "core.exit_process_ns": "core.exit_process",
    "machine.create_ns": "machine.create",
    "machine.load_bytes_ns": "machine.load_bytes",
    "machine.store_bytes_ns": "machine.store_bytes",
    "machine.load64_ns": "machine.load64",
    "machine.store64_ns": "machine.store64",
    "paging.cow_store_ns": "paging.cow_store",
    "bench.library_call_ns": "bench.library_call",
}

# Simulated per-layer counts the worker reports (0 where the workload
# does not expose the layer; see README.md).
COUNTERS = [
    ("paging.cow_faults_per_conn", "count"),
    ("paging.cow_copies_per_conn", "count"),
    ("paging.shared_node_ratio", "ratio"),
    ("mem.frames_per_conn", "count"),
    ("tlb.hit_ratio", "ratio"),
    ("tlb.flushes_per_op", "count"),
    ("abi.syscalls_per_op", "count"),
    ("gups.tlb_misses_per_update", "count"),
    ("cluster.avg_batch", "count"),
    ("cluster.switches_per_req", "count"),
    ("ipc.ring_stalls_per_req", "count"),
    ("des.server_backlog_peak", "count"),
    ("des.edge_backlog_peak", "count"),
]

PER_LAYER = (
    [(name, "ns") for name in SPAN_TIMES]
    + COUNTERS
    + [
        ("host.wall_ops_per_s", "1/s"),
        ("host.probe_slowdown", "ratio"),
        ("gc.minor_words_per_op", "words"),
        ("gc.major_words_per_op", "words"),
        ("obs.tracing_overhead", "ratio"),
    ]
)


def fail(msg):
    print("sjbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the repository's sources (dune-project, lib/) are not next to sjbench/")
    # dune from PATH, or through opam when the switch is not on PATH.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        proc = subprocess.run(
            dune + ["build", "--root", ".", "--cache=disabled", TARGET],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def worker(workload, seed, trace_file=None, run_id=""):
    """One fresh worker process; returns its parsed report (or an
    'error' report)."""
    cmd = [EXE, workload, "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file, "--run-id", run_id]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "no report (exit %d): %s" % (proc.returncode, proc.stderr.strip()[-400:])}
    if proc.returncode != 0 and "error" not in report:
        report["error"] = "exit %d" % proc.returncode
    return report


def probe():
    proc = subprocess.run([EXE, "probe"], stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout)["probe_s"]


def load_stored(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(FINGERPRINTS) as f:
        return json.load(f)["workloads"][workload]


def judge(reports, stored, planned):
    """Mark each report failed or not; return (attempted, failed, notes)."""
    notes = []
    reference = next((r["fingerprint"] for r in reports if "error" not in r), None)
    attempted = failed = 0
    for i, r in enumerate(reports):
        ops = r.get("planned_ops", planned)
        attempted += ops
        why = []
        if "error" in r:
            why.append(r["error"])
        else:
            why += ["check %s" % k for k, ok in r["checks"].items() if not ok]
            if r["ops"] != r["planned_ops"]:
                why.append("ops %d != planned %d" % (r["ops"], r["planned_ops"]))
            if r["fingerprint"] != reference:
                why.append("fingerprint differs between workers")
            if stored is not None and r["fingerprint"] != stored:
                fp = r["fingerprint"]
                diff = sorted(k for k in set(stored) | set(fp) if stored.get(k) != fp.get(k))
                why.append("fingerprint differs from stored at seed %d: %s" % (DEFAULT_SEED, ", ".join(diff)))
        r["failed_because"] = why
        if why:
            failed += ops
            notes.append("worker %d: %s" % (i, "; ".join(why)))
    return attempted, failed, notes


def median(xs):
    return statistics.median(xs) if xs else 0.0


def speed(r):
    """The factor that turns the worker's wall seconds into seconds at
    the reference host speed."""
    return PROBE_REFERENCE_S / statistics.mean(r["probe_s"])


def host_rate(reports):
    return median([r["ops"] / (r["run_s"] * speed(r)) for r in reports])


def end_to_end(reports):
    ok = [r for r in reports if "error" not in r]
    if not ok:
        return {name: 0.0 for name, _ in END_TO_END}
    first = ok[0]
    return {
        "host_ops_per_s": host_rate(ok),
        "setup_s": median([s * speed(r) for r in ok for s in r["setup_s"]]),
        "peak_heap_mb": median([r["top_heap_words"] * 8 / 2**20 for r in ok]),
        "sim_ops_per_s": first["ops"] / first["sim_seconds"],
        "sim_mean_latency_cycles": first["mean_cycles"],
        "sim_p50_cycles": first["p50_cycles"],
        "sim_p99_cycles": first["p99_cycles"],
    }


def per_layer(plain, traced):
    plain = [r for r in plain if "error" not in r]
    traced = [r for r in traced if "error" not in r]
    values = {}
    for metric, span in SPAN_TIMES.items():
        per_call = [r["self_ns"][span][0] / r["self_ns"][span][1] for r in traced if span in r["self_ns"]]
        values[metric] = median(per_call)
    counters = traced[0]["counters"] if traced else {}
    for name, _ in COUNTERS:
        values[name] = counters.get(name, 0.0)
    values["gc.minor_words_per_op"] = median([r["minor_words"] / r["ops"] for r in plain])
    values["gc.major_words_per_op"] = median([r["major_words"] / r["ops"] for r in plain])
    values["host.wall_ops_per_s"] = median([r["ops"] / r["run_s"] for r in plain])
    values["host.probe_slowdown"] = median([1 / speed(r) for r in plain + traced])
    values["obs.tracing_overhead"] = host_rate(traced) / host_rate(plain) if plain and traced else 0.0
    return values


def record_fingerprints():
    build()
    table = {}
    for w in WORKLOADS:
        r = worker(w, DEFAULT_SEED)
        if "error" in r or not all(r["checks"].values()):
            fail("cannot record %s: %s" % (w, r.get("error") or r["checks"]))
        table[w] = r["fingerprint"]
    with open(FINGERPRINTS, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "workloads": table}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %s" % FINGERPRINTS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--record-fingerprints",
        action="store_true",
        help="re-record fingerprints.json at the default seed "
        "(only in a change meant to move simulated output)",
    )
    args = ap.parse_args()
    if args.record_fingerprints:
        return record_fingerprints()
    if args.workload is None:
        ap.error("--workload is required")
    build()
    stored = load_stored(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    spans_file = os.path.join(OUT, tag + ".spans.jsonl")
    min_workers = 2 * MIN_PROCS if args.trace else MIN_PROCS
    plain, traced = [], []
    probes = [probe()]
    start = time.monotonic()
    while True:
        n = len(plain) + len(traced)
        if n >= min_workers and time.monotonic() - start >= args.seconds:
            break
        if args.trace and n % 2 == 1:
            # Each traced worker overwrites the run's spans file, so the
            # last one's spans are kept.
            r = worker(args.workload, args.seed, spans_file, "%s-p%d" % (tag, n))
            traced.append(r)
        else:
            r = worker(args.workload, args.seed)
            plain.append(r)
        probes.append(probe())
        r["probe_s"] = probes[-2:]
    reports = plain + traced
    planned = max((r.get("planned_ops", 1) for r in reports), default=1)
    attempted, failed, notes = judge(reports, stored, planned)
    if args.trace:
        values, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        values, units = end_to_end(plain), dict(END_TO_END)
    with open(os.path.join(OUT, "%s-trace%d.json" % (tag, args.trace)), "w") as f:
        summary = {"workload": args.workload, "seed": args.seed, "metrics": values, "notes": notes}
        json.dump(dict(summary, workers=reports), f, indent=1)
    for note in notes:
        print("FAILED " + note)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )


if __name__ == "__main__":
    main()
