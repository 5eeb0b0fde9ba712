#!/usr/bin/env python3
"""Builds and runs the served-classification benchmark (servebench).

Run from the root of the repository:

  python3 servebench/run.py --slo-ms <workload>=<ms>,... \\
      --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 servebench/run.py compare <result.json> <result.json>
  python3 servebench/run.py selftest

A run builds servebench from the repository's sources (CMake, into
.bench_build or $CARGO_TARGET_DIR), runs one workload, writes the full
result with its host and build fingerprint to <build>/results/, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. `compare` refuses two results whose fingerprints differ.
`selftest` runs the unit tests and a short smoke of every workload.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Every workload servebench implements. BENCHMARK.json lists the ones whose
# figures held steady on the shared host (see README.md); the others stay
# runnable by name and are smoke-tested by `selftest`.
ALL_WORKLOADS = ("forest_interactive", "forest_screening",
                 "linear_interactive", "session_churn")


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once and builds incrementally; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pafs.h")):
        fail("no library sources under src/; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_rev():
    """Git revision when run from a git checkout, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """Aggregate CPU time counters (USER_HZ ticks) from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of the non-idle CPU time the hypervisor gave to other guests.

    On a shared VM this steal is what moves the wall-clock figures of one
    build between runs; the result records it so a noisy run shows as such.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    busy = sum(delta) - delta[3] - delta[4]  # Minus idle and iowait.
    return delta[7] / busy if busy > 0 else None


def fingerprint(build_info):
    """Host and build identity; results compare only when these match."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "aes_ni": build_info["aes_ni"],
        "force_portable": build_info["force_portable"],
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
    }


def check_names(spec, metrics, traced):
    """Every metric BENCHMARK.json names for this mode, with its unit."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units), code=3)


def run(args):
    spec = load_spec()
    if args.workload not in ALL_WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                list(ALL_WORKLOADS)))
    out = build()
    traced = args.trace == 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(out, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--slo-ms", args.slo_ms,
           "--setup-reps", str(args.setup_reps)]
    if traced:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, stem + ".json")]
    times0 = cpu_times()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    steal = steal_share(times0, cpu_times())
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("servebench printed no result (exit %d)" % done.returncode)
    raw = json.loads(lines[-1])
    check_names(spec, raw["metrics"], traced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": source_rev(),
        "fingerprint": fingerprint(raw["build"]),
        "samples": raw["samples"],
        "host_steal_share": steal,
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": raw["metrics"],
    }
    path = os.path.join(results, stem + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("fingerprint %s rev %s" % (json.dumps(record["fingerprint"]),
                                     record["rev"]))
    print("samples %s, host steal share %s" % (json.dumps(record["samples"]),
                                               steal))
    for name, m in raw["metrics"].items():
        print("  %-40s %18.6f %s" % (name, m["value"], m["unit"]))
    print("result written to %s" % os.path.relpath(path, ROOT))
    print(json.dumps({key: raw[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    ok = raw["correct"] and raw["failed"] == 0 and done.returncode == 0
    return 0 if ok else 1


def compare(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    a, b = records
    differ = sorted(k for k in set(a["fingerprint"]) | set(b["fingerprint"])
                    if a["fingerprint"].get(k) != b["fingerprint"].get(k))
    if differ:
        for k in differ:
            print("  %s: %r vs %r" % (k, a["fingerprint"].get(k),
                                      b["fingerprint"].get(k)),
                  file=sys.stderr)
        fail("refusing to compare results from different hosts or builds",
             code=3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or modes", code=3)
    print("%s: %s vs %s" % (a["workload"], a["rev"], b["rev"]))
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print("  %-40s %16.6f %16.6f  x%.4f %s" % (
            name, m["value"], other["value"], ratio, m["unit"]))
    return 0


def selftest(slo_ms):
    out = build()
    if subprocess.run([os.path.join(out, "servebench_test")],
                      check=False).returncode != 0:
        fail("unit tests failed", code=1)
    for name in ALL_WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--slo-ms",
                   slo_ms, "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace),
                   "--setup-reps", "1"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            if done.returncode != 0:
                fail("smoke %s trace %d exited %d" % (name, trace,
                                                      done.returncode), 1)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                fail("smoke %s trace %d saw failures" % (name, trace), 1)
            if trace == 0 and result["metrics"]["success_rate"]["value"] != 1:
                fail("smoke %s: error rate is not 0" % name, 1)
            print("smoke %-20s trace %d: %d records, every metric emitted" %
                  (name, trace, result["attempted"]))
    return 0


def slo_from_spec():
    command = load_spec()["command"]
    return command[command.index("--slo-ms") + 1]


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare <result.json> <result.json>")
        return compare(argv[1:])
    if argv[:1] == ["selftest"]:
        return selftest(slo_from_spec())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--slo-ms", required=True,
                        help="latency limit per workload, name=ms,...")
    parser.add_argument("--setup-reps", type=int, default=3,
                        help="set-ups per run; setup_s is their median")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
