#!/usr/bin/env python3
"""Repository benchmark: builds espbench from ../src and runs one workload.

    python3 perfbench/run.py --workload fw_vmmc|mc_vmmc|serve_fleet \
        [--seed N] [--seconds S] [--trace 0|1]

Every run measures every end-to-end metric listed in BENCHMARK.json
(--trace 0) or every per-layer metric (--trace 1). The workload's own part
is measured for --seconds; the other two parts follow, each in its own
process and with a short window of its own, so their metrics are present
too. The last stdout line is the result JSON; the line before it is the
stamp (host, compiler, build, source revision, seed). Both also go to
.bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
FOCUS = {"fw_vmmc": "fw", "mc_vmmc": "mc", "serve_fleet": "serve"}
PARTS = ["fw", "mc", "serve"]
# Measurement window of a part when another workload's run takes it along:
# enough passes for a steady median (one mc pass is ~10 s on its own).
OTHER_SECONDS = {"fw": 4, "mc": 0, "serve": 4}
# A run must end within 180 s once built; parts share this deadline.
RUN_DEADLINE_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds espbench; returns the binary path."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "espbench")


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_part(binary, part, args, seconds, trace_out, deadline):
    cmd = [binary, "--part", part, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        # On timeout the child is killed and reaped before this raises.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("part %s timed out" % part)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("part %s exited with %d" % (part, r.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(FOCUS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no esplang sources next to perfbench/ (expected ../src)", 2)
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at the repository root", 2)
    with open(spec_path) as f:
        spec = json.load(f)

    binary = build()
    focus = FOCUS[args.workload]
    order = [focus] + [p for p in PARTS if p != focus]
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    start = time.monotonic()
    reports = {}
    for part in order:
        trace_out = None
        if args.trace:
            trace_out = os.path.join(trace_dir, "%s-seed%d-%s.json" % (
                args.workload, args.seed, part))
        seconds = args.seconds if part == focus else OTHER_SECONDS[part]
        reports[part] = run_part(binary, part, args, seconds, trace_out,
                                 start + RUN_DEADLINE_S)

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    metrics = {}
    for part in reversed(order):  # The focus part wins shared names.
        metrics.update(reports[part]["metrics"])
    if not args.trace:
        metrics["ok_frac"] = {"value": (attempted - failed) / attempted,
                              "unit": "frac"}

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s" % (
            sorted(names - set(metrics)), sorted(set(metrics) - names)))
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "compiler": reports[focus]["compiler"],
        "build_type": reports[focus]["build_type"],
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "wall_s": round(time.monotonic() - start, 3),
        "errors": [e for r in reports.values() for e in r["errors"]],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
