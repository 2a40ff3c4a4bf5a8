#!/usr/bin/env python3
"""Builds redund_e2e from the checkout it sits in and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (CMake, Release) under $CARGO_TARGET_DIR/e2e, default
.bench_build/e2e; later calls only check the build is current. The
workload runs a fixed op count sized from --seconds (see README.md).
Prints the benchmark's own lines, then as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer one
(--trace 1). Exits non-zero, printing no result, when the build or any
output check fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then brings redund_e2e up to date. Serialized by a
    lock so concurrent runs in one checkout share a single build."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not any(os.path.exists(os.path.join(build_dir, f))
                   for f in ("build.ninja", "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        subprocess.run(["cmake", "--build", build_dir, "--target", "redund_e2e",
                        "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2e")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    command = [os.path.join(build_dir, "redund_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--scratch", os.path.join(build_dir, "scratch")]
    if args.trace:
        command += ["--trace", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("redund_e2e exited with status %d" % proc.returncode,
             proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("redund_e2e printed no summary line")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("redund_e2e did not report " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
