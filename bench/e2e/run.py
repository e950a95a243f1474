#!/usr/bin/env python3
"""End-to-end benchmark of the DHARMA stack: build, run, check, report.

One run of one workload (the form every automated caller uses):

    python3 bench/e2e/run.py --workload browse_http --seed 42 --seconds 15 --trace 0

Other forms:

    python3 bench/e2e/run.py                         # every workload once
    python3 bench/e2e/run.py --repeat 5 --out DIR    # keep each run's JSON
    python3 bench/e2e/run.py --workload tag_http --trace 1   # per-layer run
    python3 bench/e2e/run.py --smoke                 # CI-sized, every workload

The program is built from this checkout's sources into .bench_build/e2e
(CMake; a no-op when up to date). Each run executes in its own
dharma_bench process. Every metric is printed as `workload metric value
unit`. With --trace 0 these are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and layers_<workload>.json
and trace_<workload>.json (Chrome trace-event format) are written to the
results directory. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 when
every output check passed, 1 when a check failed, and 2 when the benchmark
could not build or run.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Compilers and the benchmark keep their scratch files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds dharma_bench and dharma_gateway."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "dharma_bench", "dharma_gateway"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=BUILD_TIMEOUT_S, env=ENV)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return False
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            if cmd[1] == "-S":  # a failed configure must run again next time
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    return True


def daemon_path():
    return BUILD / "dharma" / "dharma_gateway"


def host_block(daemon_flags):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            if p.returncode == 0:
                commit = p.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "commit": commit,
            "daemon_flags": daemon_flags}


def run_once(workload, seed, seconds, trace, smoke, results):
    """One dharma_bench process; returns its parsed JSON, or None."""
    cmd = [str(BUILD / "dharma_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--daemon", str(daemon_path())]
    if smoke:
        cmd += ["--smoke"]
    if trace:
        cmd += ["--trace-out", str(results / f"trace_{workload}.json")]
    # Own process group: on a timeout the daemon child dies with the run.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=ENV)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: dharma_bench exited {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparseable result line: {lines[-1][:200]}")
        return None


def select_metrics(spec, result, trace):
    """The metric set BENCHMARK.json declares for this kind of run, checked
    against what the run produced. Per-layer metrics a workload does not
    exercise read 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    produced = result["layers"] if trace else result["metrics"]
    names = {m["name"] for m in declared}
    out, problems = {}, []
    for m in declared:
        got = produced.get(m["name"])
        if got is None:
            if trace:
                out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            else:
                problems.append(f"missing metric {m['name']}")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name in produced:
        if name not in names:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return out, problems


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {spec['run_seconds']})")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload; seeds seed, seed+1, ...")
    ap.add_argument("--out", default=None,
                    help="directory for every run's full JSON (compare.py input)")
    ap.add_argument("--smoke", action="store_true",
                    help="short phases and small datasets, same checks")
    args = ap.parse_args()

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = min(seconds, 2)
    chosen = workloads if args.workload == "all" else [args.workload]
    results = BUILD / "results"

    if not build():
        sys.exit(2)
    results.mkdir(parents=True, exist_ok=True)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    runs = []  # (workload, selected metrics, raw result)
    all_correct = True
    for i in range(args.repeat):
        for w in chosen:
            seed = args.seed + i
            r = run_once(w, seed, seconds, args.trace, args.smoke, results)
            if r is None:
                sys.exit(2)
            metrics, problems = select_metrics(spec, r, args.trace)
            if problems:
                for p in problems:
                    log(f"{w}: {p}")
                sys.exit(2)
            all_correct = all_correct and r["correct"]
            for name, m in metrics.items():
                print(f"{w} {name} {m['value']:.6g} {m['unit']}", flush=True)
            record = dict(r, seconds=seconds, trace=args.trace,
                          host=host_block(r.get("daemon_flags", "")))
            if args.trace:
                with open(results / f"layers_{w}.json", "w") as f:
                    json.dump({"workload": w, "seed": seed, "host": record["host"],
                               "metrics": metrics}, f, indent=1)
            if out_dir:
                tag = "traced" if args.trace else "run"
                with open(out_dir / f"{w}-{tag}-s{seed}.json", "w") as f:
                    json.dump(record, f, indent=1)
            runs.append((w, metrics, r))

    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        # Several runs: the median of each workload's metric, named
        # <workload>.<metric>.
        metrics = {}
        for w in chosen:
            per = [m for (rw, m, _) in runs if rw == w]
            for name in per[0]:
                metrics[f"{w}.{name}"] = {
                    "value": statistics.median(m[name]["value"] for m in per),
                    "unit": per[0][name]["unit"]}
    summary = {"correct": all_correct,
               "attempted": sum(r["attempted"] for (_, _, r) in runs),
               "failed": sum(r["failed"] for (_, _, r) in runs),
               "metrics": metrics}
    print(json.dumps(summary), flush=True)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
