#!/usr/bin/env python3
"""Builds and runs the repo's benchmark (see BENCHMARK.json at the root).

    python3 perfbench/run.py --workload <train|serve|batch> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds
perfbench/ (the CSQ library from src/ plus the perfbench executable) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild only what changed. The executable then runs one workload
with CSQ_THREADS=2, so every workload keeps about half of a 4-vCPU host
busy, and its last stdout line is the JSON result.

--self-check runs every workload once, untraced and traced, with a short
--seconds, and fails if a metric named in BENCHMARK.json is missing, has no
unit, or if any operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("train", "serve", "batch")
THREADS = "2"
RUN_TIMEOUT_S = 170

# The metrics every workload reports, untraced (end_to_end) and traced
# (per_layer); a traced run of any workload also runs the other workloads'
# layer suites (see src/main.cpp), so each one reports the whole per-layer
# set. --self-check compares both lists with BENCHMARK.json.
KERNELS = ("s8u8-split", "s8u8", "bitserial", "bitserial-w16")
END_TO_END = ("setup_s", "peak_rss_mib", "op_p25_us")
PER_LAYER = (
    # train
    "opt.step_ms", "opt.sgd_ms", "opt.reduce_ms", "opt.dp_efficiency",
    "opt.step_residual_share", "core.materialize_ms",
    "core.weight_backward_ms", "core.budget_ms", "nn.forward_ms",
    "nn.backward_ms", "data.batch_ms", "tensor.gemm_f32_ms",
    "tensor.gemm_f32_gflops", "tensor.im2col_ms",
    # serve
    "serve_p50_us", "serve_rps", "serve.inproc_p50_us", "serve.mean_batch",
    "serve.timer_flush_share", "serve.flush_wait_p99_us",
    "serve.replica_busy_share", "transport.overhead_us",
    "transport.transport_errors", "transport.bad_requests",
    "runtime.forward_us.b1", "runtime.forward_us.b2",
) + tuple(f"runtime.gemm_us.{k}.b1" for k in KERNELS) + tuple(
    f"runtime.layers.{k}" for k in KERNELS) + (
    # batch
    "runtime.forward_us.b32", "runtime.pool_speedup.b32",
    "runtime.int_gops.b32", "runtime.op_residual_share",
    "tensor.im2col_u8_ms",
) + tuple(f"runtime.gemm_us.{k}.b32" for k in KERNELS) + (
    # the named workload and the host
    "trace.overhead_pct", "machine.steal_pct", "machine.ref_ms")
EXPECTED = {"end_to_end": END_TO_END, "per_layer": PER_LAYER}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the executable; returns its path."""
    if not (ROOT / "src").is_dir():
        fail(f"no CSQ sources in {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    # cmake's own output goes to stderr: stdout carries only the result.
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def run(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the parsed JSON result."""
    work_dir = build_dir() / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CSQ_THREADS=THREADS)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", str(work_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    return json.loads(lines[-1])


def self_check(binary):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = []
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]}
    for kind in ("end_to_end", "per_layer"):
        declared = {metric["name"] for metric in spec[kind]}
        reported = set(EXPECTED[kind])
        if declared != reported:
            problems.append(
                f"{kind}: BENCHMARK.json and run.py disagree on "
                f"{sorted(declared ^ reported)}")
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(binary, workload, seed=1, seconds=1, trace=trace,
                         echo=False)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(
                    f"{label}: {result['failed']} of {result['attempted']} "
                    "operations failed or an output check failed")
            extra = set(result["metrics"]) - set(EXPECTED[kind])
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            for name in EXPECTED[kind]:
                metric = result["metrics"].get(name)
                if metric is None:
                    problems.append(f"{label}: metric {name} is missing")
                elif not metric.get("unit"):
                    problems.append(f"{label}: metric {name} has no unit")
                elif metric["unit"] != units.get(name):
                    problems.append(
                        f"{label}: metric {name} is in {metric['unit']}, "
                        f"BENCHMARK.json says {units.get(name)}")
            print(f"self-check {label}: {len(result['metrics'])} metrics, "
                  f"{result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    if args.self_check:
        return self_check(binary)
    run(binary, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
