#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 bench/suite/run.py --workload paper_fig3 --seed 1 --seconds 15 --trace 0

Builds psc_bench from source into .bench_build/ (the first run of a
checkout compiles src/ and bench/suite/; later runs only re-check), runs it,
checks that it reported exactly the metrics BENCHMARK.json names, checks
a campaign's result digest against earlier runs of the same workload and
seed in this checkout, and prints as the last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace of the benchmark's spans under .bench_build/).
The exit status is 0 only when every check passed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "suite")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the psc_bench target (a no-op when the
    sources are unchanged). Serialised by a lock so concurrent runs in one
    checkout do not race the build."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", SUITE, "-B", BUILD] + gen,
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", "psc_bench",
                        "-j", jobs], stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(BUILD, "psc_bench")


def check_digest(workload, seed, smoke, digest):
    """A campaign's result digest must equal the one recorded by any
    earlier run (traced or not) of the same workload, seed and scale
    here. gateway_live reports no digest."""
    if not digest:
        return True
    path = os.path.join(WORK, "digests.json")
    with open(os.path.join(WORK, "digests.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {}
        if os.path.exists(path):
            with open(path) as f:
                known = json.load(f)
        key = "%s/%s/seed=%d" % (workload, "smoke" if smoke else "full", seed)
        ok = known.setdefault(key, digest) == digest
        if not ok:
            print("run.py: digest of %s is %s, an earlier run got %s"
                  % (key, digest, known[key]), file=sys.stderr)
        with open(path + ".tmp", "w") as f:
            json.dump(known, f, indent=0, sort_keys=True)
        os.replace(path + ".tmp", path)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (ctest smoke runs)")
    ap.add_argument("--bin", help="use this psc_bench instead of building")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.exists(bench_json)):
        fail("run from a checkout of the repository: src/ or "
             "BENCHMARK.json is missing under " + ROOT)
    with open(bench_json) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)

    try:
        binary = args.bin or build()
    except (subprocess.SubprocessError, OSError) as e:
        fail("build failed: %s" % e)

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--traced", "--trace-out", os.path.join(
            WORK, "traces", "%s-%d.json" % (args.workload, args.seed))]
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("psc_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    results = [l for l in lines if l.startswith("RESULT ")]
    if not results:
        fail("psc_bench exited %d without a result" % proc.returncode)
    result = json.loads(results[-1][len("RESULT "):])

    correct = result["correct"] and proc.returncode == 0
    want = bench["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got) or any(
            got[m["name"]]["unit"] != m["unit"] for m in want):
        print("run.py: reported metrics do not match BENCHMARK.json",
              file=sys.stderr)
        correct = False
    if not check_digest(args.workload, args.seed, args.smoke,
                        result["digest"]):
        correct = False

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": got,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
