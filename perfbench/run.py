#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fleet,shift,serve} --seed N \
        --seconds S --trace {0,1} [--report_out PATH]

Run from the root of a checkout. The first run builds the repository and
the benchmark programs (Release, the repository's default options) into
$CARGO_TARGET_DIR, or .bench_build when unset. --trace 0 prints every
end-to-end metric; --trace 1 reruns the same configuration with
benchmark-side spans plus the sequential decomposed replay and prints
every per-layer metric. The last stdout line is the result object; the
line before it is the full report (host fingerprint, exact counters,
correctness checks). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The workloads themselves (sizes per second of --seconds, monitors, server
# options, set-up repetitions) are defined in the two benchmark programs,
# src/engine_bench.cc and src/serve_bench.cc; this script passes them only
# the seed, --seconds and --trace.

# A run has 180 seconds; the benchmark program is stopped before that.
TIME_LIMIT_S = 170.0


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env(run_dir):
    # DEMON_* variables (budgets, forced kernel tiers) would change what is
    # measured; the benchmark runs the deployed defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEMON_")}
    env["TMPDIR"] = str(run_dir)
    return env


def build():
    """Configures and builds the benchmark programs and demon_serve; returns the
    CMake build tree."""
    tree = build_dir() / "cmake"
    if not (tree / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(tree), "-j4", "--target",
                    "engine_bench", "serve_bench", "demon_serve"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return tree


def cmake_cache(tree):
    values = {}
    for line in (tree / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            values[key.split(":")[0]] = value
    return values


def source_digest():
    """SHA-256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    paths = sorted(p for base in ("src", "examples", "perfbench")
                   for p in (ROOT / base).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def fingerprint(tree, kernel_tier, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache(tree)
    host = {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "telemetry": cache.get("DEMON_TELEMETRY"),
        "simd": cache.get("DEMON_SIMD"),
        "kernel_tier": kernel_tier,
    }
    return {"host": host, "git_sha": git_sha(),
            "source_sha256": source_digest(), "seed": seed}


def run_program(tree, args, run_dir, env, deadline):
    """Runs the workload's benchmark program; returns its raw JSON result."""
    out = run_dir / "raw.json"
    if args.workload == "serve":
        cmd = [tree / "serve_bench",
               "--demon_serve=%s" % (tree / "demon" / "examples" / "demon_serve")]
    else:
        cmd = [tree / "engine_bench", "--workload=" + args.workload]
    cmd += ["--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
            "--trace=%s" % ("true" if args.trace else "false"),
            "--work_dir=%s" % run_dir, "--out=%s" % out]
    subprocess.run([str(c) for c in cmd], check=True, env=env,
                   stdout=sys.stderr, stderr=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet", "shift", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report_out", help="also write the report here")
    args = parser.parse_args()

    tree = build()
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = build_dir() / "runs" / ("%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(run_dir)
    os.sync()  # start from a file system with no earlier run's write-back
    try:
        raw = run_program(tree, args, run_dir, env, deadline)
        if args.workload == "serve":
            attempted, failed = raw["attempted"], raw["failed"]
            e2e = benchlib.serve_e2e(raw) if not args.trace else None
            layers = benchlib.serve_layers(raw) if args.trace else None
        else:
            attempted, failed = raw["timed_blocks"], 0
            e2e = benchlib.engine_e2e(raw) if not args.trace else None
            layers = benchlib.engine_layers(raw) if args.trace else None
        spans = run_dir / "spans.json"
        if args.trace and spans.exists():
            shutil.copy(spans, build_dir() / ("spans-%s.json" % args.workload))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = bool(raw["correct"]) and failed == 0
    samples = (len(raw["due"]) if args.workload == "serve"
               else len(raw["add_block_s"]))
    tail_label = benchlib.tail_label(samples)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(tree, raw["kernel_tier"], args.seed),
        "checks": raw["checks"],
        "failed_share": failed / attempted,
        "setup_samples_s": raw["setup_s"],
        "latency_samples": samples,
        "tail_percentile": tail_label,
    }
    if e2e is not None:
        report["end_to_end"] = e2e
    if args.workload == "serve":
        report["probe_interval_s"] = raw["probe_interval_s"]
        report["probes"] = raw["probes"]
        report["server_user_cpu_s"] = raw["server_user_cpu_s"]
        report["server_system_cpu_s"] = raw["server_system_cpu_s"]
        report["server_start_samples_s"] = raw["server_start_s"]
        report["capacity_records"] = raw["capacity_records"]
        report["capacity_server_user_cpu_samples_s"] = (
            raw["capacity_server_user_cpu_s"])
        report["capacity_server_system_cpu_samples_s"] = (
            raw["capacity_server_system_cpu_s"])
        report["capacity_wall_samples_s"] = raw["capacity_wall_s"]
        report["durability"] = "fflush per WAL append, no fsync"
    else:
        report["peak_rss_reset"] = raw["peak_rss_reset"]
        report["state_samples_mb"] = raw["state_mb"]
        report["user_cpu_s"] = raw["user_cpu_s"]
        report["system_cpu_s"] = raw["system_cpu_s"]
    if layers is not None:
        report["per_layer"] = layers
        report["attribution"] = benchlib.attribution_rows(args.workload, layers)
        report["counters"] = (
            {name: layers[name] for name in benchlib.SERVE_COUNTERS}
            if args.workload == "serve" else raw["trace"]["layers"]["counters"])

    print("%s seed=%d seconds=%d trace=%d correct=%s failed_share=%g"
          % (args.workload, args.seed, args.seconds, args.trace, correct,
             failed / attempted))
    print("latency samples: %d; tail percentile: %s" % (samples, tail_label))
    if layers is None:
        for name, unit in benchlib.END_TO_END.items():
            print("  %-22s %14.6g %s" % (name, e2e[name], unit))
        print("reported, not bounded:")
        for name, unit in benchlib.REPORTED.items():
            print("  %-22s %14.6g %s" % (name, e2e[name], unit))
    else:
        for name, unit in benchlib.PER_LAYER.items():
            print("  %-36s %14.6g %s" % (name, layers[name], unit))
        print("self-time attribution (%s):" % args.workload)
        for name, value, share, note in report["attribution"]:
            print("  %-40s %12.6f s %7.1f%% %s" % (name, value, 100 * share,
                                                   note))
    line = json.dumps({"report": report})
    print(line)
    if args.report_out:
        Path(args.report_out).write_text(line + "\n")
    metrics = layers if args.trace else e2e
    units = benchlib.PER_LAYER if args.trace else benchlib.END_TO_END
    print(benchlib.result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as error:
        print("benchmark failed: %s" % error, file=sys.stderr)
        sys.exit(1)
