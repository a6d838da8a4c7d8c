#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

    python3 e2ebench/run.py --workload paper_study|batch_cold|service_mix \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

The benchmark compiles the analysis libraries from ../src into
.bench_build/e2ebench (first run only), then runs the harness. Build output
goes to stderr, so the last line of stdout is the harness's JSON result. The
exit status is the harness's: 0 when every output matched expected.txt.

setup_s is the time from spawning the harness until its first timed
operation. An untraced run first spawns SETUP_PROBES harnesses that set up
and exit there, and reports the median over them and the measuring run.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
SETUP_PROBES = 20


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: program sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "e2ebench"],
                   stdout=sys.stderr, check=True)


def harness(args, capture=False):
    cmd = [BINARY, "--root", ROOT, "--t0-ns", str(time.monotonic_ns())] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def setup_samples(args):
    """setup_s of SETUP_PROBES harnesses that exit before their first
    operation, or None when a probe fails (the measuring run then reports
    the failure itself)."""
    workload = option(args, "--workload")
    if workload is None or option(args, "--trace") == "1" or "--record" in args:
        return None
    samples = []
    for _ in range(SETUP_PROBES):
        probe = harness(["--workload", workload, "--setup-probe"], capture=True)
        words = probe.stdout.split()
        if probe.returncode != 0 or len(words) != 2 or words[0] != "setup_s":
            return None
        samples.append(words[1])
    return samples


def self_test():
    """A doctored expected digest must fail the run; percentiles with fewer
    than ten samples above them must be withheld."""
    failures = 0

    def expect(cond, what):
        nonlocal failures
        print(("  ok    " if cond else "  FAIL  ") + what)
        failures += 0 if cond else 1

    expect(subprocess.run([BINARY, "--self-test-percentiles"]).returncode == 0,
           "percentile rule (harness unit checks)")

    with open(os.path.join(HERE, "expected.txt")) as f:
        lines = f.read().splitlines()
    victim = next(i for i, l in enumerate(lines) if l.startswith("batch_cold/swim/H4 "))
    key, digest, rest = lines[victim].split(" ", 2)
    doctored = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    lines[victim] = " ".join([key, doctored, rest])
    path = os.path.join(BUILD, "selftest-expected.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

    base = ["--workload", "batch_cold", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    control = harness(base, capture=True)
    expect(control.returncode == 0 and '"correct": true' in control.stdout.splitlines()[-1],
           "untouched expected results: run passes")
    bad = harness(base + ["--expected", path], capture=True)
    last = bad.stdout.splitlines()[-1] if bad.stdout else ""
    expect(bad.returncode != 0 and '"correct": false' in last,
           "doctored digest for %s: run fails (exit %d)" % (key, bad.returncode))
    print("self-test " + ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("e2ebench: build failed: %s" % e)
    if args == ["--self-test"]:
        return self_test()
    samples = setup_samples(args)
    if samples:
        args = args + ["--setup-samples", ",".join(samples)]
    return harness(args).returncode


if __name__ == "__main__":
    sys.exit(main())
