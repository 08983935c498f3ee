#!/usr/bin/env python3
"""Repository benchmark: four single-worker campaign workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds `anonroute` (the product's CLI) and the `perfbench` helper in
release mode, then

* `--trace 0` runs the workload's fixed campaign sweep through
  `anonroute campaign --threads 1` as many times as fit in `--seconds`
  (at least once), one process per sweep, checks every sweep's outputs, and
  reports the end-to-end metrics over all of them (see SUMMARY); before
  each sweep it also starts the CLI a few times only to measure its set-up;
* `--trace 1` runs the sweep once untraced, then the traced replay
  (`perfbench trace`) as many times as fit in `--seconds`, at least twice,
  checks that the replay reproduced the untraced run, and reports the
  medians of the per-layer metrics.

The last line of stdout is the result object; the line before it records
the run environment. See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "optimal_design": {
        "n": "100", "c": "1", "strategies": "optimal,optimal:6",
        "engines": "exact,mc", "mc-samples": "20000",
    },
    "sim_attack": {
        "n": "60000", "c": "100,1000", "strategies": "uniform:1:6",
        "engines": "sim", "messages": "1500",
    },
    "sim_epochs": {
        "n": "20000", "c": "20", "strategies": "uniform:1:6", "engines": "sim",
        "epochs": "8", "rotation": "static,shift:2,resample", "churn": "iid:0.1",
        "messages": "1500",
    },
    "live_relay": {
        "n": "8,12,16", "c": "1", "strategies": "uniform:1:3", "engines": "live",
        "live-messages": "2000", "live-cell": "1024",
    },
}

END_TO_END = {"sweep_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "optimize.solve_s": "s", "optimize.solves": "count", "optimize.evaluations": "count",
    "engine.analyze_s": "s", "engine.mc_s": "s", "engine.mc_samples": "count",
    "engine.workspace_build_s": "s", "engine.posterior_s": "s", "engine.posteriors": "count",
    "protocols.network_build_s": "s", "protocols.keys": "count",
    "sim.run_s": "s", "sim.events": "count", "sim.events_per_s": "1/s",
    "adversary.reconstruct_s": "s", "adversary.attack_s": "s",
    "adversary.messages_attacked": "count", "adversary.intersection_s": "s",
    "epochs.realize_s": "s", "epochs.fold_s": "s",
    "epochs.folds": "count", "epochs.sparse_share": "share",
    "relay.boot_s": "s", "relay.traffic_s": "s", "relay.teardown_s": "s",
    "relay.msgs_per_s": "1/s", "relay.cells_relayed": "count", "relay.dropped": "count",
    "relay.latency_p50_ms": "ms", "relay.latency_p99_ms": "ms", "relay.latency_samples": "count",
    "crypto.handshake_us": "us", "crypto.onion_seal_us": "us", "crypto.peel_us": "us",
    "campaign.overhead_s": "s", "trace.overhead_s": "s", "trace.coverage": "share",
}

# Counts that must repeat exactly between two traced runs on one seed.
REPEATING_COUNTS = [
    "optimize.solves", "optimize.evaluations", "engine.mc_samples", "engine.posteriors",
    "protocols.keys", "sim.events", "adversary.messages_attacked", "epochs.folds",
    "relay.cells_relayed", "relay.dropped", "relay.latency_samples",
]

# How a run sums up its samples of each end-to-end metric. The host's
# speed drifts by 10-30% within seconds, so the times are means over every
# sweep of the run: of 30-45 s windows of sweeps, the mean moved less from
# window to window than the median did (by 11% against 15% on the
# optimizer). `setup_s` has dozens of millisecond samples, where one start
# that lost its CPU would pull a mean: it takes their median.
SUMMARY = {"sweep_s": statistics.fmean, "cpu_s": statistics.fmean,
           "peak_rss_mb": statistics.median, "setup_s": statistics.median}

# Set-up-only starts of the CLI before each sweep: `setup_s` is a
# millisecond figure, so each run takes the median of many.
SETUP_PROBES = 8

MIN_COVERAGE = 0.95
EXACT_TOLERANCE = 1e-12
SIGMAS = 4.0


def fail(message):
    """Exits non-zero without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, cwd, env):
    done = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                          cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"`cargo build {' '.join(args)}` failed")


def build(root):
    """Builds the CLI from the repository's own workspace (so its profile
    applies) and the helper from the benchmark's package; returns paths."""
    for needed in ("Cargo.toml", "src", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["--bin", "anonroute"], root, env)
    cargo_build(["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")], root, env)
    release = os.path.join(target, "release")
    return os.path.join(release, "anonroute"), os.path.join(release, "perfbench"), target


def flag_list(flags):
    out = []
    for key, value in flags.items():
        out += [f"--{key}", value]
    return out


def environment(root):
    """What a result must carry so results from different machines or
    builds are never compared silently."""
    def command(*args):
        try:
            done = subprocess.run(args, cwd=root, capture_output=True, text=True, timeout=20)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = command("git", "status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "rustc": command("rustc", "-V"),
        "git_commit": command("git", "rev-parse", "HEAD"),
        "git_dirty": None if status is None else status != "",
        "release_build": True,
        "loadavg_before": list(os.getloadavg()),
    }


def start_cli(cli, flags, seed, base):
    """Spawns the CLI on the workload's sweep and waits until it announces
    the sweep, the line it prints just before it hands the grid to the
    runner."""
    cmd = [cli, "campaign", *flag_list(flags), "--threads", "1", "--seed", str(seed),
           "--out", base]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if not proc.stdout.readline().startswith(b"campaign:"):
        proc.kill()
        proc.wait()
        fail(f"`{' '.join(cmd)}` did not announce its sweep")
    return proc


def probe_setup(cli, flags, seed, base):
    """One set-up-only start, stopped as soon as it announces its sweep.
    Returns the CPU time (user + system) the process spent getting there:
    unlike wall time, it does not grow while the host runs something
    else."""
    proc = start_cli(cli, flags, seed, base)
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage.ru_utime + usage.ru_stime


def run_sweep(cli, flags, seed, base):
    """One untraced sweep in its own process; returns its measurements
    and its JSONL rows."""
    proc = start_cli(cli, flags, seed, base)
    proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        fail(f"the {flags['engines']} sweep exited with {proc.returncode}")
    with open(base + ".jsonl") as fh:
        jsonl = fh.read()
    with open(base + "_manifest.json") as fh:
        wall = json.load(fh)["outcome"]["wall_seconds"]
    with open(base + "_timings.csv") as fh:
        header, *lines = fh.read().splitlines()
    col = header.split(",").index("elapsed_us")
    in_cells = sum(int(l.split(",")[col]) for l in lines) / 1e6
    return {
        "sweep_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "campaign_overhead_s": wall - in_cells,
    }, jsonl


def check_cells(rows, refs, flags):
    """The output checks. Returns {cell index: reason} for failed cells."""
    failed = {}
    live_messages = int(flags.get("live-messages", 0))
    exact_by_strategy = {}
    for i, row in enumerate(rows):
        if row.get("status", "ok") != "ok" or "error" in row:
            failed[i] = "error cell"
            continue
        ref = refs[i]
        h = row["h_star"]
        multi = row.get("h_epoch1") is not None
        if row["engine"] != "exact":
            # the larger of the exact standard error and the sample's: a
            # sample that happens to miss the rare low-entropy messages
            # (an exposed sender) has too small an error bar, and sessions
            # identified in epoch 1 stay identified, so a multi-epoch
            # cell's final error carries the outliers its sample holds
            tol = SIGMAS * max(ref["sigma"] / math.sqrt(row["samples"]), row["std_error"])
        if row["engine"] == "exact":
            exact_by_strategy[row["strategy"]] = (i, h)
            if abs(h - ref["exact"]) > EXACT_TOLERANCE:
                failed[i] = f"exact H* {h} != anonymity_degree {ref['exact']}"
            if ref.get("best_uniform") is not None and h < ref["best_uniform"]:
                failed[i] = f"optimal H* {h} below best uniform {ref['best_uniform']}"
        elif multi:
            if abs(row["h_epoch1"] - ref["exact"]) > tol:
                failed[i] = f"h_epoch1 {row['h_epoch1']} vs one-round H* {ref['exact']} (tol {tol})"
            curve = [m for m, _ in row.get("curve", [])] or [row["h_epoch1"], h]
            if any(b > a for a, b in zip(curve, curve[1:])):
                failed[i] = f"cumulative entropy increased: {curve}"
        elif abs(h - ref["exact"]) > tol:
            failed[i] = f"{row['engine']} H* {h} not within {tol} of {ref['exact']}"
        if row["engine"] == "live" and delivered(row) != live_messages:
            print(f"check failed: cell {i}: {live_messages - delivered(row)} of "
                  f"{live_messages} messages undelivered", file=sys.stderr)
    for strategy, (i, h) in exact_by_strategy.items():
        if strategy.startswith("optimal:") and "optimal" in exact_by_strategy:
            j, h_opt = exact_by_strategy["optimal"]
            if h_opt < h:
                failed[j] = f"optimal H* {h_opt} below {strategy} H* {h}"
    return failed


def delivered(row):
    """Messages a live cell delivered: the traced replay counts them; the
    sweep's JSONL has only the messages attacked, and a sweep cell fails
    outright when its cluster misses a delivery."""
    return row.get("delivered", row["samples"])


def operations(rows, flags, failed):
    """(attempted, failed) operations of one sweep: cells, or messages on
    live cells. A failed cell counts whole; on a live cell that passed its
    checks, each undelivered message counts once."""
    attempted = bad = 0
    for i, row in enumerate(rows):
        if row.get("engine") == "live":
            sent = int(flags["live-messages"])
            attempted += sent
            bad += sent if i in failed else sent - min(sent, delivered(row))
        else:
            attempted += 1
            bad += int(i in failed)
    return attempted, bad


def reference(helper, flags, seed):
    done = subprocess.run([helper, "reference", *flag_list(flags), "--seed", str(seed)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"perfbench reference failed: {done.stderr.strip()}")
    return json.loads(done.stdout)["cells"]


def fits_another(start, began, seconds):
    """Whether one more repetition, as long as the last one, still ends
    within `seconds` of `start`: runs stay within their time budget
    however slow the code under test is."""
    now = time.perf_counter()
    return now - start + (now - began) <= seconds


def untraced(cli, helper, flags, seed, seconds, base):
    samples, outputs, setups = [], [], []
    start = time.perf_counter()
    refs = reference(helper, flags, seed)
    while True:
        began = time.perf_counter()
        setups += [probe_setup(cli, flags, seed, base) for _ in range(SETUP_PROBES)]
        sample, jsonl = run_sweep(cli, flags, seed, base)
        samples.append(sample)
        outputs.append(jsonl)
        if not fits_another(start, began, seconds):
            break
    attempted = bad = 0
    for jsonl in outputs:
        rows = [json.loads(l) for l in jsonl.splitlines()]
        failed = check_cells(rows, refs, flags)
        if jsonl != outputs[0]:
            # every sweep on one seed must write identical results
            failed.update({i: "differs from the first sweep" for i in range(len(rows))})
        for i, reason in sorted(failed.items()):
            print(f"check failed: cell {i}: {reason}", file=sys.stderr)
        a, b = operations(rows, flags, failed)
        attempted, bad = attempted + a, bad + b
    values = {name: [s[name] for s in samples] for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = setups
    metrics = {name: {"value": SUMMARY[name](values[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return bad == 0, attempted, bad, metrics, {"sweeps": samples, "setups": setups}


def traced(cli, helper, flags, seed, seconds, base):
    start = time.perf_counter()
    sample, jsonl = run_sweep(cli, flags, seed, base)
    rows = [json.loads(l) for l in jsonl.splitlines()]
    runs = []
    while True:
        began = time.perf_counter()
        done = subprocess.run([helper, "trace", *flag_list(flags), "--seed", str(seed)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            fail(f"perfbench trace failed: {done.stderr.strip()}")
        runs.append(json.loads(done.stdout))
        if len(runs) >= 2 and not fits_another(start, began, seconds):
            break
    problems = []
    attempted = bad = 0
    for run in runs:
        cells = run["cells"]
        failed = check_cells(cells, cells, flags)
        for i, (cell, row) in enumerate(zip(cells, rows)):
            if "error" in cell:
                continue
            # the replay reuses every seed, so H* must match bit for bit
            if cell["h_star"] != row.get("h_star"):
                failed[i] = f"traced H* {cell['h_star']} != untraced {row.get('h_star')}"
        if len(cells) != len(rows):
            problems.append(f"replay has {len(cells)} cells, the sweep {len(rows)}")
        problems += run["failures"]
        if run["metrics"]["relay.dropped"] != 0:
            problems.append(f"{run['metrics']['relay.dropped']} relay cells dropped")
        coverage = run["covered_s"] / run["wall_s"]
        if coverage < MIN_COVERAGE:
            problems.append(f"layer spans cover only {coverage:.3f} of the traced wall")
        for i, reason in sorted(failed.items()):
            print(f"check failed: traced cell {i}: {reason}", file=sys.stderr)
        a, b = operations(cells, flags, failed)
        attempted, bad = attempted + a, bad + b
    for name in REPEATING_COUNTS:
        values = {run["metrics"][name] for run in runs}
        if len(values) != 1:
            problems.append(f"count {name} differs between runs on one seed: {sorted(values)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "campaign.overhead_s":
            value = sample["campaign_overhead_s"]
        elif name == "trace.overhead_s":
            value = statistics.median([r["wall_s"] for r in runs]) - sample["sweep_s"]
        elif name == "trace.coverage":
            value = statistics.median([r["covered_s"] / r["wall_s"] for r in runs])
        else:
            value = statistics.median([r["metrics"][name] for r in runs])
        metrics[name] = {"value": value, "unit": unit}
    detail = {"traced_runs": len(runs), "spans": runs[-1]["spans"],
              "untraced_sweep_s": sample["sweep_s"]}
    return not problems and bad == 0, attempted, bad, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = os.getcwd()
    cli, helper, target = build(root)
    env = environment(root)
    work = os.path.join(target, "perfbench-work", args.workload)
    os.makedirs(work, exist_ok=True)
    base = os.path.join(work, "sweep")
    flags = WORKLOADS[args.workload]
    if "live" in flags["engines"].split(","):
        # live relays, client and receiver are threads that wake each other
        # for every cell; on one CPU (inherited by every process the run
        # starts) their wall time no longer depends on wake-ups across CPUs
        # (on a shared 2-vCPU VM this halved the sweeps' spread)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seed = args.seed % 2**64
    measure = traced if args.trace else untraced
    correct, attempted, bad, metrics, detail = measure(cli, helper, flags, seed, args.seconds, base)
    env["loadavg_after"] = list(os.getloadavg())
    record = {"workload": args.workload, "seed": seed, "trace": args.trace, "env": env, **detail}
    with open(os.path.join(work, f"trace{args.trace}-seed{seed}.json"), "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bad,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
