#!/usr/bin/env python3
"""Builds and runs the MLDS benchmark.

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The load generator (mlds_perfbench) is
built from source with CMake into $CARGO_TARGET_DIR, or .bench_build when
that is unset; data files go to .bench_data and span files to .bench_out.
The last line of standard output is the run's JSON result; build output
goes to standard error.

--self-test runs every workload at a tiny size, traced and untraced, and
checks that each metric BENCHMARK.json names (and each per-class metric
the workloads promise) is emitted with its unit and that every output
verified.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-class metrics each workload reports in its run detail, by unit.
CLASS_METRICS = {
    "oltp_point": {"point_p50_ms": "ms", "point_p99_ms": "ms",
                   "write_p50_ms": "ms", "write_p99_ms": "ms"},
    "scan_report": {"scan_p50_ms": "ms", "scan_p90_ms": "ms",
                    "first_chunk_p50_ms": "ms", "scan_rows_per_s": "rows/s"},
    "ingest_mixed": {"point_p50_ms": "ms", "point_p99_ms": "ms",
                     "write_p50_ms": "ms", "write_p99_ms": "ms",
                     "ingest_rows_per_s": "rows/s"},
}
COMMON_CLASS_METRICS = {"setup_s": "s", "stmt_per_s": "1/s",
                        "error_rate": "ratio", "peak_rss_mb": "MB"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the load generator is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the load generator; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: src/ is missing; the benchmark builds the program "
            "from source and cannot run here")
        return None
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", build_dir, "--parallel", jobs],
                       stdout=sys.stderr) != 0:
        return None
    binary = os.path.join(build_dir, "mlds_perfbench")
    return binary if os.path.isfile(binary) else None


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs the load generator once; returns (exit code, stdout lines)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", ".bench_data", "--out-dir", ".bench_out",
               "--source-digest", source_digest()]
    if tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def check_metrics(metrics, wanted, where, problems):
    for name, unit in wanted.items():
        metric = metrics.get(name)
        if not isinstance(metric, dict) or "value" not in metric:
            problems.append("%s: metric %s missing" % (where, name))
        elif metric.get("unit") != unit:
            problems.append("%s: metric %s has unit %r, expected %r"
                            % (where, name, metric.get("unit"), unit))
        elif not isinstance(metric["value"], (int, float)):
            problems.append("%s: metric %s is not a number" % (where, name))


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = "%s trace=%d" % (workload, trace)
            code, lines = run(binary, workload, 7, 1, trace, tiny=True)
            if code != 0 or len(lines) < 2:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["run"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: outputs did not verify" % where)
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            if not detail["emulation"]["both_zero"]:
                problems.append("%s: disk emulation is on" % where)
            listed = spec["per_layer" if trace else "end_to_end"]
            wanted = {m["name"]: m["unit"] for m in listed}
            check_metrics(result["metrics"], wanted, where, problems)
            extra = sorted(set(result["metrics"]) - set(wanted))
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s"
                                % (where, extra))
            if trace == 0:
                wanted_detail = dict(COMMON_CLASS_METRICS, **CLASS_METRICS[workload])
                check_metrics(detail["detail"]["class_metrics"], wanted_detail,
                              where + " detail", problems)
            else:
                per_class = detail["detail"]["per_class"]
                if not per_class:
                    problems.append("%s: no per-class layer breakdown" % where)
                for name, entry in per_class.items():
                    if "largest_self_time" not in entry:
                        problems.append("%s: class %s names no largest layer"
                                        % (where, name))
            log("self-test %s: %s" % (where, "ok" if not problems else "..."))
    for problem in problems:
        log("self-test: " + problem)
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.self_test:
        return self_test(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
