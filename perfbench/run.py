#!/usr/bin/env python3
"""Runtime benchmark entry point (the command BENCHMARK.json names).

Builds perfbench from source (perfbench/CMakeLists.txt compiles the library
in ../src), runs one workload, checks that every metric BENCHMARK.json
names was printed with its unit, and prints one JSON object as the last line:

    python3 perfbench/run.py --workload spawn_fib --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (its obs.hook_ns_per_spawn compares spawn cost against a
trace-OFF twin built from the same sources).

    python3 perfbench/run.py --all        # every workload, end-to-end metrics
    python3 perfbench/run.py --selftest   # arithmetic + ledger self-test
    python3 perfbench/run.py --smoke      # every workload briefly, every metric

Builds go to $CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE_SECONDS = "1.0"
PROBE_TIMEOUT_S = 60


def run_timeout_s(seconds):
    """A run measures for `seconds`, plus set-up, warm-up and (traced) the
    short probes of the layers its workload does not reach."""
    return 2 * seconds + 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Builds the default (trace ON) binary and its trace-OFF twin."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    root = build_root()
    os.makedirs(root, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    binaries = {}
    with open(os.path.join(root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for flavor, trace in (("on", "ON"), ("off", "OFF")):
            out = os.path.join(root, f"perfbench-trace-{flavor}")
            steps = []
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                              f"-DABP_TRACE={trace}"])
            steps.append(["cmake", "--build", out, "--target", "perfbench",
                          "-j", jobs])
            for cmd in steps:
                # Build output goes to stderr: stdout ends with the result.
                if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                    fail("build failed: " + " ".join(cmd))
            binaries[flavor] = os.path.join(out, "perfbench")
    return binaries


def run_binary(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, proc.stdout.splitlines()


def tagged_json(lines, tag):
    for line in reversed(lines):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def spawn_cost(binary, seed):
    code, lines = run_binary([binary, "--probe", "spawn_cost", "--seed",
                              str(seed), "--seconds", PROBE_SECONDS],
                             PROBE_TIMEOUT_S)
    probe = tagged_json(lines, "SPAWN_COST")
    if code != 0 or probe is None:
        fail("spawn-cost probe failed: " + binary)
    return probe["cpu_ns_per_spawn"]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binaries, workload, seed, seconds, trace, echo=True):
    """One run: returns (exit code, result dict) after the metric checks."""
    cmd = [binaries["on"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        on = spawn_cost(binaries["on"], seed)
        off = spawn_cost(binaries["off"], seed)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{seed}.csv"),
                "--hook-ns-per-spawn", f"{on - off:.9g}"]
        if echo:
            print(f"diag spawn_cost.trace_on_ns {on:.6g}")
            print(f"diag spawn_cost.trace_off_ns {off:.6g}")
    code, lines = run_binary(cmd, run_timeout_s(seconds))
    result = tagged_json(lines, "RESULT")
    if echo:
        for line in lines:
            if not line.startswith("RESULT "):
                print(line)
    if result is None:
        fail(f"{workload}: no result (exit code {code})")
    spec = benchmark_spec()
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in want if k in got and got[k] != want[k])
        fail(f"{workload}: metrics do not match BENCHMARK.json "
             f"(missing {missing}, unexpected {extra}, wrong unit {units})")
    return code, result


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def run_all(binaries, seed, seconds):
    """Every workload untraced, with its full output (diagnostics such as
    P_A and the idle service's CPU included), then a table of the
    end-to-end metrics per workload. Returns whether every workload passed
    its checks."""
    table, passed = [], True
    for workload in workload_names():
        code, result = run_workload(binaries, workload, seed, seconds, 0)
        for name, metric in sorted(result["metrics"].items()):
            table.append(f"{workload} {name} {metric['value']:.6g} "
                         f"{metric['unit']}")
        if code != 0 or not result["correct"]:
            table.append(f"{workload} FAILED: {result['failed']} of "
                         f"{result['attempted']} failed the output checks")
            passed = False
    print("\n".join(table))
    return passed


def smoke(binaries):
    code, lines = run_binary([binaries["on"], "--selftest"], PROBE_TIMEOUT_S)
    print("\n".join(lines))
    if code != 0:
        fail("self-test failed")
    for workload in workload_names():
        for trace in (0, 1):
            code, result = run_workload(binaries, workload, 1, 1.5, trace,
                                        echo=False)
            print(f"smoke {workload} trace={trace} ok: "
                  f"{len(result['metrics'])} metrics with units, "
                  f"correct={result['correct']}")
            if code != 0 or not result["correct"]:
                fail(f"smoke: {workload} trace={trace} failed its checks")
    print("smoke passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time of a run, in (0, 600]")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not 0 < args.seconds <= 600:
        fail("--seconds takes a number in (0, 600]")

    binaries = build()
    if args.selftest:
        code, lines = run_binary([binaries["on"], "--selftest"],
                                 PROBE_TIMEOUT_S)
        print("\n".join(lines))
        sys.exit(code)
    if args.smoke:
        smoke(binaries)
        return
    if args.all:
        sys.exit(0 if run_all(binaries, args.seed, args.seconds) else 1)
    if not args.workload:
        fail("--workload or --all is required")
    names = workload_names()
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}")
    code, result = run_workload(binaries, args.workload, args.seed,
                                args.seconds, args.trace)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.stdout.flush()
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
