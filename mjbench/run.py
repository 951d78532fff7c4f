#!/usr/bin/env python3
"""End-to-end benchmark of the mjoin engine.

Builds the mjbench binary from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints one JSON
object as the last line of stdout:

    python3 mjbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Every query is checked against the reference executor.

    python3 mjbench/run.py --selftest

runs every workload at smoke size and checks the metric set and the
bypass predictions (see selftest()).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "mjbench")
WORKLOADS = ["serve_warm", "bulk_chain", "skew_mn"]
# Configure and build together, so a first run that builds still ends
# within its time limit.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "mjbench")


def build():
    """Configures (once) and builds mjbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("mjbench: engine sources (src/) are missing; cannot build")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "mjbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        code, _ = run_group(cmd, max(1, deadline - time.monotonic()),
                            stdout=sys.stderr)
        if code != 0:
            log("mjbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "mjbench")


def run_group(cmd, timeout, **popen_args):
    """Runs cmd in a process group of its own and returns (exit code,
    stdout). On timeout or a failed start the whole group is killed and
    the code is None."""
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stderr=sys.stderr,
                                start_new_session=True, **popen_args)
    except OSError as err:
        log("mjbench: cannot run %s: %s" % (cmd[0], err))
        return None, None
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("mjbench: %s timed out after %d s" % (cmd[0], timeout))
        return None, None
    return proc.returncode, stdout


def socket_path():
    # AF_UNIX paths are limited to 107 bytes: keep it relative to ROOT.
    path = os.path.relpath(
        os.path.join(build_dir(), "serve-%d.sock" % os.getpid()), ROOT)
    return path if len(path) < 100 else "mjbench-%d.sock" % os.getpid()


def run_mjbench(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns mjbench's result object or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--socket", socket_path()]
    if smoke:
        cmd.append("--smoke")
    code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    if code != 0:
        log("mjbench: %s exited with code %s" % (workload, code))
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("mjbench: printed no result")
        return None


def declared_metrics(trace):
    """{name: unit} of BENCHMARK.json's list for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def metric_set_errors(result, trace):
    declared = declared_metrics(trace)
    if declared is None:
        return []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got == declared:
        return []
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    units = sorted(n for n in set(got) & set(declared)
                   if got[n] != declared[n])
    return ["metric set differs from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatch %s" % (missing, extra, units)]


def source_digest():
    """sha256 over the sources mjbench is built from."""
    digest = hashlib.sha256()
    for top in ("src", "mjbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def selftest(binary):
    """Smoke-size run of every workload in both modes, asserting the metric
    set, zero failures, and the predictions about bypassed layers."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_mjbench(binary, workload, 1, 1, trace, smoke=True)
            where = "%s trace=%d" % (workload, trace)
            if result is None:
                problems.append(where + ": no result")
                continue
            problems += [where + ": " + e
                         for e in metric_set_errors(result, trace)]
            if result["failed"] != 0 or not result["correct"]:
                problems.append(where + ": %d failed queries" %
                                result["failed"])
            m = {k: v["value"] for k, v in result["metrics"].items()}
            checks = []
            if trace == 0:
                checks += [(k + " > 0", v > 0) for k, v in m.items()]
            else:
                checks += [(k + " > 0", m[k] > 0)
                           for k in ("query_ms.thread", "query_ms.process")]
                skew = workload == "skew_mn"
                for k in ("skew.hot_keys", "skew.bloom_filtered_rows"):
                    checks.append((k + (" > 0" if skew else " == 0"),
                                   m[k] > 0 if skew else m[k] == 0))
                if not skew:
                    checks += [(k + " == 0", v == 0) for k, v in m.items()
                               if k.startswith("skew.")]
                if workload == "serve_warm":
                    checks.append(("serve.plan_cache_hit_ratio == 1",
                                   m["serve.plan_cache_hit_ratio"] == 1))
                else:
                    checks += [(k + " == 0", v == 0) for k, v in m.items()
                               if k.startswith("serve.")]
                if workload == "bulk_chain":
                    checks.append(("engine.oneshot_overhead_ms > 0",
                                   m["engine.oneshot_overhead_ms"] > 0))
            problems += [where + ": expected " + name
                         for name, ok in checks if not ok]
            log("selftest %s: done" % where)
    for p in problems:
        log("FAIL " + p)
    log("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)

    result = run_mjbench(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1
    errors = metric_set_errors(result, args.trace)
    if errors:
        log("mjbench: " + "; ".join(errors))
        return 1
    host = dict(result.get("diag", {}))
    host["git_sha"] = git_sha()
    host["source_sha256"] = source_digest()
    print("host " + json.dumps(host))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
