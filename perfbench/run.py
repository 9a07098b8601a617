#!/usr/bin/env python3
"""Repository benchmark: builds econcast_perfbench from this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles the repository's
libraries from ../src) into $CARGO_TARGET_DIR, or .bench_build when unset;
later runs reuse that build. The program's report goes to stdout. Its last
line is the JSON result {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.

    python3 perfbench/run.py --record-digests

re-runs every workload at the default seed (full and smoke scale) and
rewrites the results digests in perfbench/expected.json. Do that only for a
change that is meant to alter result bytes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
PROGRAM_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "runner"))):
        fail(f"no repository sources next to {HERE}; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target",
                       "econcast_perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "econcast_perfbench")


def run_program(binary, args):
    """Runs the program from the checkout root; returns its stdout lines."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"econcast_perfbench exceeded {PROGRAM_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"econcast_perfbench exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        fail("econcast_perfbench printed nothing")
    return lines


def check_result(line, trace):
    """Validates the result line against BENCHMARK.json's metric lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(line)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"reported metrics {sorted(got)} do not match BENCHMARK.json "
             f"{sorted(want)}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")


def record_digests(binary):
    with open(EXPECTED) as f:
        expected = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    digests = {}
    for workload in workloads:
        digests[workload] = {}
        for scale in ("full", "smoke"):
            lines = run_program(binary, [
                "--workload", workload, "--seed", expected["default_seed"],
                "--seconds", "0", "--trace", "0", "--scale", scale])
            prefix = f"digest {workload} {scale} seed "
            digest = next(l for l in lines if l.startswith(prefix))
            digests[workload][scale] = digest.split()[-3]
    expected["results_sha256"] = digests
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    print(json.dumps(digests, indent=2))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be >= 0")

    binary = build()
    if args.record_digests:
        record_digests(binary)
        return
    if not args.workload:
        fail("--workload is required")
    lines = run_program(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale])
    check_result(lines[-1], args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
