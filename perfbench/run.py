#!/usr/bin/env python3
"""dockmine benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The dmbench program is built (CMake,
RelWithDebInfo, no sanitizer) from perfbench/ and src/ into the directory
named by CARGO_TARGET_DIR, or .bench_build. Each run gets a fresh work
directory under .bench_work/ (spill runs, serve state, coordinator work),
removed afterwards. The workload runs in its own process, then an
independent check runs in another; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones; a per-layer metric of a layer the workload does not run reads 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bytes_full", "metadata_scale", "serve_mixed", "distributed_k2")
MEASURE_TIMEOUT_S = 120
CHECK_TIMEOUT_S = 45


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root):
    """Configure and build dmbench; returns its path or None."""
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    cmake_dir = os.path.join(build_dir, "cmake")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(cmake_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for command in (configure,
                    ["cmake", "--build", cmake_dir, "--target", "dmbench",
                     "-j", jobs]):
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(command))
            return None
    return os.path.join(cmake_dir, "dmbench")


def run_process(command, timeout_s):
    """Run in its own process group; kill the group on timeout."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log("timed out: " + " ".join(command))
        return None
    finally:
        try:  # forked workers left behind by a failed run
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [line for line in out.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        log("failed (%s): %s" % (process.returncode, " ".join(command)))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("unreadable output: " + lines[-1][:400])
        return None


def provenance(root, binary):
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    info = subprocess.run([binary, "info"], stdout=subprocess.PIPE, text=True)
    doc = {"commit": commit, "src_sha256": digest.hexdigest()[:16],
           "nproc": len(os.sched_getaffinity(0))}
    try:
        doc.update(json.loads(info.stdout))
    except ValueError:
        pass
    return doc


def declared_metrics(root, traced):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return None
    return spec["per_layer" if traced else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 1

    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = os.path.join(os.path.dirname(os.path.dirname(binary)), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work]
    try:
        print("provenance: " + json.dumps(provenance(root, binary)), flush=True)
        measure_cmd = [binary, "measure", *common, "--seconds",
                       repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure_cmd += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        started = time.monotonic()
        measured = run_process(measure_cmd, MEASURE_TIMEOUT_S)
        if measured is None:
            return 1
        checked = run_process([binary, "check", *common], CHECK_TIMEOUT_S)
        if checked is None:
            return 1
        log("%s seed %d: measured and checked in %.1fs" %
            (args.workload, args.seed, time.monotonic() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's work directory is still there
            pass

    problems = measured["problems"] + checked["problems"]
    for problem in problems:
        log("check failed: " + problem)
    metrics = measured["metrics"]
    declared = declared_metrics(root, args.trace == 1)
    if declared is not None:
        out = {}
        for metric in declared:
            name = metric["name"]
            if name in metrics:
                out[name] = {"value": metrics[name]["value"],
                             "unit": metric["unit"]}
            elif args.trace:
                out[name] = {"value": 0, "unit": metric["unit"]}
            else:
                log("end-to-end metric %s was not measured" % name)
                return 1
        metrics = out
    print(json.dumps({"correct": not problems,
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
