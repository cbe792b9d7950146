#!/usr/bin/env python3
"""Build the treevqa benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and perfbench/harness.cpp into .bench_build/perfbench (Release,
tests/benches/tools off); later calls only rebuild what changed. The
harness runs single-threaded (TREEVQA_NUM_THREADS=1, OMP_NUM_THREADS=1)
in a scratch directory under .bench_work/ that is removed afterwards.

The last line of standard output is the harness's JSON result, printed
only after it has been checked against BENCHMARK.json: --trace 0 must
report exactly the end_to_end metrics, --trace 1 exactly the per_layer
metrics. Any build, run or validation failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers included) and wait for it before raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no treevqa sources next to perfbench/ (run from a full "
             "checkout)", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code, _, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                       stderr=subprocess.STDOUT,
                                       cwd=ROOT)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            except OSError as e:
                fail("cannot run cmake: %s" % e, 2)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return ({m["name"]: m["unit"] for m in spec[key]},
            {w["name"] for w in spec["workloads"]})


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    want, _ = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: got %s, "
                         "want %s" % (sorted(got.items()),
                                      sorted(want.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0", 2)

    build()
    _, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (choose from %s)"
             % (args.workload, ", ".join(sorted(workloads))), 2)

    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload,
                                                   os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TREEVQA_")}
    env.update({"TREEVQA_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        code, out, _ = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                                 stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if code != 0:
        fail("harness exited with code %d" % code)
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    try:
        validate(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail("invalid result: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
