"""posprop benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a posprop checkout; it imports posprop from
./src and needs nothing outside the standard library.  Workloads:
id-sweep, atom-scaling, p-routes, proof-files (see perfbench/README.md).

--trace 0 starts the workload in fresh processes, one after the other:
SETUP_SAMPLES - 1 that only set up, then one that sets up and runs the
timed closed loop.  setup_s is the median of their set-up times.
--trace 1 runs a loop of half that size once without and once with
spans, and reports the per-layer breakdown and the tracing overhead.

Human-readable lines go first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Run worker.py in a fresh process; return (set-up seconds, its JSON
    result or None).  Set-up time runs from starting the process to the
    worker's `ready` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.getcwd(), "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or status != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with status {status}")
    if mode == "setup":
        return ready - start, None
    return ready - start, json.loads(rest.strip().splitlines()[-1])


def machine() -> str:
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"gc default {gc.get_threshold()}, closed loop, 1 caller, no threads")


def report_run(r: dict) -> None:
    print(f"  ops {r['ops']} of {r['planned']}, busy {r['busy_s']:.3f} s")
    print(f"  fail_ratio {r['failed'] / max(r['ops'], 1):.4f} ({r['failed']}/{r['ops']})")
    for p in r["problems"]:
        print(f"  problem: {p}")
    print(f"  self-check: corrupted derivation "
          f"{'rejected' if r['selfcheck'] else 'NOT rejected'}")
    for name, c in r["caches"].items():
        line = f"  cache {name}: {c['entries']} entries"
        if "hits" in c:
            total = c["hits"] + c["misses"]
            line += f", {c['hits']}/{total} hits"
        print(line)


def end_to_end(workload: str, setups: list, r: dict) -> dict:
    # the gated metrics; the latency percentiles are printed only, since on
    # this noisy 2-vCPU machine they spread by up to a third between runs
    ms = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (r["ops_per_s"], "1/s"),
        "steps_total": (r["steps_total"], "steps"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    print(f"setup_s      {ms['setup_s'][0]:.4f} s  (median of "
          f"{', '.join(f'{s:.4f}' for s in setups)})")
    print(f"ops_per_s    {r['ops_per_s']:.3f} 1/s  ({r['ops']} ops in {r['busy_s']:.3f} s)")
    print(f"op_ms_p50    {r['op_ms_p50']:.4f} ms  (n={r['ops']})")
    print(f"op_ms_p90    {r['op_ms_p90']:.4f} ms  (n={r['ops']})")
    if r["ops"] >= 1000:
        print(f"op_ms_p99    {r['op_ms_p99']:.4f} ms  (n={r['ops']})")
    print(f"steps_total  {r['steps_total']} steps  ({r['ops']} ops)")
    if workload == "proof-files":
        print(f"file_mb      {r['file_bytes'] / 1e6:.6f} MB  (one pass over the proof set)")
    print(f"peak_rss_mb  {r['peak_rss_mb']:.3f} MB")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in ms.items()}


def per_layer(off: dict, on: dict) -> dict:
    """Print every per-layer number; return those for the JSON line.  Self
    times go there as shares of the traced op time (`*.self_share`), since
    a layer that a workload never calls has a self time of exactly 0."""
    layers = dict(on["layers"])
    layers["trace.ops_per_s_off"] = off["ops_per_s"]
    layers["trace.ops_per_s_on"] = on["ops_per_s"]
    layers["trace.overhead_pct"] = (off["ops_per_s"] / on["ops_per_s"] - 1) * 100
    for name, c in on["caches"].items():
        if "hits" in c:
            total = c["hits"] + c["misses"]
            layers[f"{name}.cache_entries"] = c["entries"]
            layers[f"{name}.cache_hit_ratio"] = c["hits"] / total if total else 0.0
    for name in sorted(layers):
        print(f"  {name:40s} {layers[name]}")
    wall = layers["trace.wall_s"]
    reported = {}
    for name, value in layers.items():
        if name.endswith(".self_s"):
            name, value = name[:-len("_s")] + "_share", value / wall
        reported[name] = {"value": value, "unit": unit_of(name)}
    return reported


def unit_of(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ops_per_s_off", "ops_per_s_on")):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "growth", "share")):
        return "ratio"
    if name.endswith("steps"):
        return "steps"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "posprop", "__init__.py")):
        print("error: run from the root of a posprop checkout (no src/posprop here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; {machine()}")
    try:
        if args.trace:
            half = args.seconds / 2
            _, off = start_worker(args.workload, args.seed, half, "run", deadline)
            _, on = start_worker(args.workload, args.seed, half, "trace", deadline)
            runs = [off, on]
            print("untraced run:")
            report_run(off)
            print("traced run:")
            report_run(on)
            print("per-layer metrics (traced run):")
            metrics = per_layer(off, on)
        else:
            setups = [start_worker(args.workload, args.seed, args.seconds, "setup",
                                   deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            first, r = start_worker(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(first)
            runs = [r]
            report_run(r)
            metrics = end_to_end(args.workload, setups, r)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["selfcheck"] and r["complete"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
