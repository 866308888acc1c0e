#!/usr/bin/env python3
"""DGR benchmark: builds dgr_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. dgr_perfbench (perfbench/CMakeLists.txt)
is configured and built into .bench_build/ on first use and rebuilt
incrementally after. Each workload runs in its own process under a
wall-clock deadline. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics. The line before it records provenance (host, build,
source, seed, why the workload was chosen). The traced run also writes a
Chrome trace to .bench_build/traces/.

Exit codes: 0 all outputs correct; 1 a check failed; 2 usage or the
library sources are missing; 3 the run hung and was stopped.

See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dgr_perfbench")

# The first (building) run must end within 900 s. A workload measures for
# --seconds plus its set-up; the hang guard allows GUARD_MARGIN_S more.
BUILD_LIMIT_S = 700.0
GUARD_MARGIN_S = 60.0


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Commit when the tree is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src; run from a full source tree"
             % ROOT)
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(left, 1.0)).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log)
            if rc != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log))


def main():
    # BENCHMARK.json names the workloads, why each was chosen, and the
    # metrics each mode must report.
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    started = time.monotonic()
    build(started + BUILD_LIMIT_S)

    # The program's own hang guard fires first; the subprocess timeout is
    # the backstop for a guard that cannot run.
    run_started = time.monotonic()
    guard_s = args.seconds + GUARD_MARGIN_S
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--deadline", repr(guard_s)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=guard_s + 10.0)
    except subprocess.TimeoutExpired:
        fail("HANG: workload %s did not finish in %.0f s and was killed; its "
             "unanswered requests are unknown" % (args.workload, guard_s + 10.0), 3)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload %s printed no result (exit %d)"
             % (args.workload, proc.returncode), 1)
    for line in lines[:-1]:
        print(line)
    if proc.returncode == 3:
        # The hang guard named the unanswered requests and counted them failed.
        print("perfbench: HANG: " + "; ".join(result.get("errors", [])), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]), "metrics": {}}))
        sys.exit(3)

    # BENCHMARK.json is the one list of metrics and units. Every end-to-end
    # metric must be measured; a per-layer metric the workload does not
    # report is a layer it does not exercise (0). A name it reports that
    # the list lacks is a bug.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = bool(result["correct"]) and proc.returncode == 0
    for name in sorted(set(result["metrics"]) - {m["name"] for m in wanted}):
        print("perfbench: metric %s is not in BENCHMARK.json" % name, file=sys.stderr)
        correct = False
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None and not args.trace:
            print("perfbench: metric %s missing" % m["name"], file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}

    info = dict(result.get("info", {}))
    info.update({
        "nproc": len(os.sched_getaffinity(0)),
        "source": source_digest(),
        "why": why[args.workload],
        "run_wall_s": round(time.monotonic() - run_started, 3),
        "errors": result.get("errors", []),
    })
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
