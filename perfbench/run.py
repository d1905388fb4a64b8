#!/usr/bin/env python3
"""Builds and runs the datacron benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. The first run
configures and builds the repository's libraries and the driver
(perfbench/driver.cc) in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later runs reuse that build. The driver's result, one JSON
object with the keys correct, attempted, failed and metrics, is the last
line printed on standard output. Build and driver progress go to standard
error. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("live-fleet", "cluster-alert", "store-query")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(1)


def build(here, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as err:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build step failed: %s (%s)" % (" ".join(step), err))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("repository sources not found in " + root)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(here, os.path.join(root, target, "perfbench"))

    command = [driver, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
