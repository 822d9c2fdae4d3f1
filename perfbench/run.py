#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

    python3 perfbench/run.py --workload paper|soak|chaos|proto \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune, runs it once for the measurement, measures set-up time over several
launches of it before and after that run, and prints the run's output. The last line of standard
output is the result object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without a result line, when the checkout
cannot be built or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SETUP_LAUNCHES = 20
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no source tree here (dune-project and lib/ missing); run from the repository root")
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=False,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        die("build failed")


def launch(args, timeout):
    """Start main.exe, stamping the launch time it measures set-up from."""
    cmd = [EXE, "--t0", repr(time.time())] + args
    try:
        return subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper", "soak", "chaos", "proto"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]

    # Set-up time from process start to the first timed call, over
    # several launches; the median is reported. Half the launches come
    # before the measured run and half after it, so a burst of host
    # scheduling delay (10-25 ms spikes on a 4 ms set-up) lands on a
    # minority of them.
    setups = []

    def measure_setups():
        for _ in range(SETUP_LAUNCHES // 2):
            p = launch(common + ["--setup-only"], 60)
            if p.returncode != 0:
                die("set-up failed")
            # Host seconds, reference seconds, set-up at the reference speed.
            setups.append(float(p.stdout.split()[-1]))

    if a.trace == 0:
        measure_setups()
    p = launch(common + ["--trace", str(a.trace)], RUN_TIMEOUT_S)
    if a.trace == 0 and p.returncode == 0:
        measure_setups()
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(p.stdout)
        die("run failed with exit code %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(p.stdout)
        die("run printed no result line")
    if a.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print("setup_s samples: " + " ".join("%.6f" % s for s in setups))
        setup["value"] = statistics.median(setups)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
