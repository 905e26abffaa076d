#!/usr/bin/env python3
"""busbench runner: builds the driver, runs one workload, checks and prints metrics.

Run from the root of a checkout:

  python3 busbench/run.py --workload lan_fanout --seed 1 --seconds 10 --trace 0

--trace 0 runs the untraced repeats and the rate ladder and prints the end-to-end
metrics; --trace 1 runs the separate traced pass and prints the per-layer metrics
(its Chrome trace lands in <build dir>/traces/). The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. The exit code is
non-zero when the build fails, a correctness or determinism check fails, or the
emitted metric names drift from BENCHMARK.json.

--smoke runs every workload at a small scale plus one traced pass and the
self-test; --self-test checks that a corrupted delivery log is caught.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("sim", "wire", "bus", "proto", "subject", "router", "journal", "telemetry")
# Metrics read from LatencyHistogram; absent in a -DIB_TELEMETRY=OFF build.
HISTOGRAM_METRICS = {"telemetry.histogram_record_ns"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "busbench")


def build():
    """Configures (once) and builds the driver; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "busbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(binary, workload, seed, seconds, mode, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("busbench printed no result (exit %d)" % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def check_names(result, expected, telemetry_on=True):
    """Drift guard: the emitted metrics are exactly the ones BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in expected}
    if not telemetry_on:
        want = {k: v for k, v in want.items() if k not in HISTOGRAM_METRICS}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("unlisted metric %s" % name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("metric %s: unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    return problems


def measure(args):
    binary = build()
    bench = spec()
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    mode = "trace" if args.trace else "measure"
    extra = ["--self-test"] if args.self_test else []
    if args.trace:
        extra += ["--trace-out", os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    rc, result = run_driver(binary, args.workload, args.seed, args.seconds, mode, extra)
    problems = check_names(result, bench["per_layer" if args.trace else "end_to_end"],
                           result.get("telemetry", True))
    for p in problems:
        log("busbench: " + p)
    correct = bool(result["correct"]) and rc == 0 and not problems
    for name, m in sorted(result["metrics"].items()):
        print("%s seed=%d %-36s %.6g %s" % (args.workload, args.seed, name, m["value"],
                                              m["unit"]))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": result["metrics"]}))
    return 0 if correct else 1


def smoke(args):
    """All workloads at 2% scale with repeats, one traced pass, the self-test and the
    drift guard."""
    binary = args.binary or build()
    bench = spec()
    ok = True
    names = [w["name"] for w in bench["workloads"]]
    for name in names:
        # Two passes: every sub-run is repeated, so the determinism guard compares
        # its sim and allocation fingerprints. subject_storm's 140,000 subscriptions
        # do not shrink with --scale; one pass of it already takes most of the
        # smoke test's time.
        repeats = "1" if name == "subject_storm" else "2"
        rc, result = run_driver(binary, name, 1, 1, "measure",
                                ["--scale", "0.02", "--repeats", repeats])
        problems = check_names(result, bench["end_to_end"])
        for p in problems:
            log("busbench smoke: %s: %s" % (name, p))
        ok = ok and rc == 0 and result["correct"] and not problems
    rc, result = run_driver(binary, names[0], 1, 1, "trace", ["--scale", "0.02"])
    telemetry_on = result.get("telemetry", True)
    problems = check_names(result, bench["per_layer"], telemetry_on)
    for layer in LAYERS:
        if not any(k.startswith(layer + ".") for k in result["metrics"]):
            problems.append("layer %s reports no metric" % layer)
    for p in problems:
        log("busbench smoke: trace: " + p)
    ok = ok and rc == 0 and result["correct"] and not problems
    rc, result = run_driver(binary, names[0], 1, 1, "measure",
                            ["--scale", "0.02", "--repeats", "1", "--self-test"])
    if rc == 0 or result["correct"]:
        log("busbench smoke: --self-test did not fail")
        ok = False
    log("busbench smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="lan_fanout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--binary", help="prebuilt busbench driver (smoke test)")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        return measure(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("busbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
